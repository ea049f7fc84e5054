//! The deterministic parallel run engine.
//!
//! Every experiment in this crate is a pure function of its seed
//! (gfw-lint rule D1), which makes the evaluation grid embarrassingly
//! parallel with **zero determinism risk**:
//!
//! * a [`Job`] is plain `Send` data (a spec) plus the computation that
//!   consumes it — usually a move-closure over its parameters;
//! * each worker **builds and consumes its own `Simulator`** inside the
//!   job, so the sim's `Rc<RefCell>` internals never cross a thread
//!   boundary and no `Send` bound on sim internals is needed;
//! * results are merged **in spec order**, so output is byte-identical
//!   no matter how many workers ran or how the OS scheduled them.
//!
//! Worker count resolves `--jobs N` → `GFWSIM_JOBS` → available
//! parallelism (see [`effective_jobs`]). Jobs already running inside a
//! worker execute nested [`run_jobs`] calls inline, so fanning out
//! across figures in `exp-all` never oversubscribes the machine.
//!
//! Thread primitives are permitted only in this module (gfw-lint rule
//! T1); the simulation crates stay single-threaded.

use netsim::sim::SimStats;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-count override set by `--jobs` (0 = unset).
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on worker threads so nested `run_jobs` calls execute inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread accumulator of simulator counters (see
    /// [`record_sim_stats`]).
    static SIM_STATS: Cell<SimStats> = Cell::new(SimStats::default());
}

/// Override the worker count (0 clears the override).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Hardware parallelism, or 1 when it cannot be determined.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The effective worker count: the `--jobs` override if set, else the
/// `GFWSIM_JOBS` environment variable, else available parallelism.
pub fn effective_jobs() -> usize {
    let n = JOBS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    if let Ok(v) = std::env::var("GFWSIM_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    default_parallelism()
}

/// Extract the value of a `--jobs N` / `--jobs=N` argument, if present.
pub fn parse_jobs_arg(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            return it.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            return v.parse().ok();
        }
    }
    None
}

/// Scan the process arguments for `--jobs` and install the override.
/// Every `exp-*` bin calls this once at startup.
pub fn configure_from_env() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(n) = parse_jobs_arg(&args) {
        set_jobs(n);
    }
}

/// A unit of work: a `Send` spec and the computation that consumes it.
///
/// Blanket-implemented for any `FnOnce() -> R + Send` closure, so a job
/// is usually written as `move || run_case(params)`.
pub trait Job: Send {
    /// The job's result, merged in spec order.
    type Output: Send;
    /// Consume the spec and produce the result.
    fn run(self) -> Self::Output;
}

impl<R: Send, F: FnOnce() -> R + Send> Job for F {
    type Output = R;
    fn run(self) -> R {
        self()
    }
}

/// One finished job: its output plus the simulator counters recorded
/// while it ran (including nested jobs).
#[derive(Debug)]
pub struct JobRun<R> {
    /// The job's return value.
    pub output: R,
    /// Sum of every [`SimStats`] recorded via [`record_sim_stats`]
    /// during the job.
    pub stats: SimStats,
    /// Wall-clock time the job spent running (measurement only — never
    /// feeds back into any simulation, which stays seed-pure).
    pub wall: std::time::Duration,
    /// Process peak RSS (kB) sampled when the job finished; 0 where the
    /// platform offers no cheap readout. VmHWM is a process-global
    /// high-water mark, so with parallel workers the value reflects the
    /// whole process at that moment, not this job alone.
    pub peak_rss_kb: u64,
}

/// Process peak resident set size in kB, from `VmHWM` in
/// `/proc/self/status`. Returns 0 on platforms without procfs.
/// Measurement only — never feeds back into any simulation.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(s) = std::fs::read_to_string("/proc/self/status") {
            for line in s.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
                    return digits.parse().unwrap_or(0);
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Credit a finished simulator's counters to the current job. The run
/// helpers in `runs.rs` call this after each `sim.run()`; the runner
/// attributes the counters to whichever job is executing on this
/// thread.
pub fn record_sim_stats(stats: &SimStats) {
    SIM_STATS.with(|s| {
        let mut cur = s.get();
        cur.merge(stats);
        s.set(cur);
    });
}

/// Run `f` against a fresh per-job accumulator, returning its output
/// and the counters it recorded. The job's counters are re-credited to
/// the enclosing scope so nested jobs roll up.
fn with_fresh_stats<R>(f: impl FnOnce() -> R) -> (R, SimStats) {
    let saved = SIM_STATS.with(|s| s.replace(SimStats::default()));
    let out = f();
    let job = SIM_STATS.with(|s| s.replace(saved));
    record_sim_stats(&job);
    (out, job)
}

/// Run jobs with [`effective_jobs`] workers; outputs in spec order.
pub fn run_jobs<J: Job>(specs: Vec<J>) -> Vec<J::Output> {
    run_jobs_with(specs, effective_jobs())
}

/// Run jobs with an explicit worker count; outputs in spec order.
pub fn run_jobs_with<J: Job>(specs: Vec<J>, workers: usize) -> Vec<J::Output> {
    run_jobs_detailed_with(specs, workers)
        .into_iter()
        .map(|r| r.output)
        .collect()
}

/// Like [`run_jobs`], but surfacing per-job [`SimStats`].
pub fn run_jobs_detailed<J: Job>(specs: Vec<J>) -> Vec<JobRun<J::Output>> {
    run_jobs_detailed_with(specs, effective_jobs())
}

/// The engine. Jobs are pulled from a shared queue by `workers` scoped
/// threads; each result lands in the slot of its spec index, so the
/// returned order (and therefore any rendered output) is independent of
/// scheduling. `workers <= 1`, a single spec, or a call from inside a
/// worker all run inline on the current thread with no thread spawned.
pub fn run_jobs_detailed_with<J: Job>(specs: Vec<J>, workers: usize) -> Vec<JobRun<J::Output>> {
    let inline = workers <= 1 || specs.len() <= 1 || IN_WORKER.with(|f| f.get());
    if inline {
        return specs
            .into_iter()
            .map(|job| {
                let started = std::time::Instant::now();
                let (output, stats) = with_fresh_stats(|| job.run());
                JobRun {
                    output,
                    stats,
                    wall: started.elapsed(),
                    peak_rss_kb: peak_rss_kb(),
                }
            })
            .collect();
    }

    let total = specs.len();
    let workers = workers.min(total);
    let queue: Mutex<VecDeque<(usize, J)>> = Mutex::new(specs.into_iter().enumerate().collect());
    let mut slots: Vec<Option<JobRun<J::Output>>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    let results = Mutex::new(slots);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|f| f.set(true));
                loop {
                    let next = queue.lock().expect("runner: queue poisoned").pop_front();
                    let Some((idx, job)) = next else { break };
                    let started = std::time::Instant::now();
                    let (output, stats) = with_fresh_stats(|| job.run());
                    results.lock().expect("runner: results poisoned")[idx] = Some(JobRun {
                        output,
                        stats,
                        wall: started.elapsed(),
                        peak_rss_kb: peak_rss_kb(),
                    });
                }
            });
        }
    });

    let runs: Vec<JobRun<J::Output>> = results
        .into_inner()
        .expect("runner: results poisoned")
        .into_iter()
        .map(|r| r.expect("runner: job left no result"))
        .collect();
    // Workers accumulated into their own thread-locals; credit the
    // caller's scope so enclosing jobs still roll up.
    for r in &runs {
        record_sim_stats(&r.stats);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_arrive_in_spec_order_regardless_of_workers() {
        let mk = |n: usize| (0..n).map(|i| move || i * i).collect::<Vec<_>>();
        let seq = run_jobs_with(mk(17), 1);
        for workers in [2, 3, 8, 32] {
            assert_eq!(run_jobs_with(mk(17), workers), seq);
        }
    }

    #[test]
    fn stats_roll_up_across_nested_jobs() {
        let one = SimStats {
            events: 1,
            ..SimStats::default()
        };
        let runs = run_jobs_detailed_with(
            (0..4)
                .map(|_| {
                    move || {
                        // Nested call: runs inline inside a worker.
                        let inner = run_jobs_detailed_with(
                            (0..3)
                                .map(|_| move || record_sim_stats(&one))
                                .collect::<Vec<_>>(),
                            4,
                        );
                        assert_eq!(inner.iter().map(|r| r.stats.events).sum::<u64>(), 3);
                    }
                })
                .collect::<Vec<_>>(),
            2,
        );
        // Each outer job is credited its 3 nested events.
        assert_eq!(runs.iter().map(|r| r.stats.events).sum::<u64>(), 12);
    }

    #[test]
    fn panicking_job_propagates_without_hanging() {
        for workers in [1, 2] {
            let specs: Vec<_> = (0..4)
                .map(|i| {
                    move || {
                        if i == 1 {
                            panic!("job exploded");
                        }
                        i
                    }
                })
                .collect();
            let caught = std::panic::catch_unwind(|| run_jobs_with(specs, workers));
            assert!(caught.is_err(), "panic swallowed at {workers} workers");
        }
    }

    #[test]
    fn parse_jobs_arg_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_jobs_arg(&args(&["exp", "--jobs", "4"])), Some(4));
        assert_eq!(parse_jobs_arg(&args(&["exp", "--jobs=2"])), Some(2));
        assert_eq!(parse_jobs_arg(&args(&["exp", "--paper"])), None);
    }
}
