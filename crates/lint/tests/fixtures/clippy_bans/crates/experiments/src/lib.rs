//! Fixture experiments crate, linted with the experiments override:
//! the host clock is allowed here, threads and heaps are not.

/// Time one run on the host clock (allowed in experiments).
pub fn timed(run: fn()) -> std::time::Duration {
    let started = std::time::Instant::now();
    run();
    started.elapsed()
}

/// Run jobs on scoped worker threads outside the runner.
pub fn run_jobs(jobs: Vec<fn()>) {
    std::thread::scope(|s| {
        for job in jobs {
            s.spawn(job);
        }
    });
}

/// A heap scheduler grown outside the event queue.
pub fn queue() -> std::collections::BinaryHeap<u64> {
    std::collections::BinaryHeap::new()
}
