//! Fixture worker pool inside a sim crate: every thread entry point.

use std::sync::mpsc;
use std::thread;

/// Fan a batch of jobs out to spawned threads.
pub fn run_all(jobs: Vec<fn()>) {
    let (tx, rx) = mpsc::channel::<()>();
    for job in jobs {
        let tx = tx.clone();
        thread::spawn(move || {
            job();
            tx.send(()).ok();
        });
    }
    drop(tx);
    for _ in rx.iter() {}
}

/// Size, name and pace a pool from the host.
pub fn host_knobs() -> usize {
    let (_tx, _rx) = std::sync::mpsc::sync_channel::<u8>(1);
    let _ = thread::Builder::new().name("worker".into());
    let _ = std::thread::current().name().map(str::to_owned);
    thread::sleep(std::time::Duration::from_millis(1));
    thread::yield_now();
    thread::park();
    thread::available_parallelism().map_or(1, |n| n.get())
}
