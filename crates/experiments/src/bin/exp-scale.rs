//! Scale bench for the hybrid flow/packet engine.
//!
//! Modes:
//!
//! * `exp-scale [--out <path>]` — full bench: re-runs the bulk workload
//!   in child processes (one per engine × flow-count configuration, so
//!   each peak-RSS reading is isolated) and writes `BENCH_scale.json`
//!   with flows/sec and peak RSS at 10k/100k flows for both engines
//!   plus 1M flows for the hybrid engine, unsharded and sharded (8
//!   cells run as runner jobs at 1, 4 and 8 workers).
//!   `bench-report --check` prints the same-run ratios it gates.
//! * `exp-scale --quick [--flows N]` — in-process smoke run: N flows
//!   (default 10k) split into 4 cells run as runner jobs, honouring
//!   `GFWSIM_ENGINE` and `--jobs`/`GFWSIM_JOBS`. Seed-pure counters go
//!   to stdout — byte-identical at any worker count, which is what the
//!   `ci.sh` jobs smoke step diffs — while wall-clock and RSS go to
//!   stderr. Used by `ci.sh`.
//! * `exp-scale --measure <flows> <cells> <workers>` — child mode: runs
//!   one configuration under `GFWSIM_ENGINE` (0 cells = unsharded) and
//!   prints `key=value` lines for the parent.
//!
//! Any other argument exits 2 before anything runs or is written.
//! Wall-clock and RSS are machine-facts; everything seed-pure about
//! this workload is rendered by `exp-all --only scale` instead.

use experiments::benchfile::{self, Bench, BenchFile, Host, Metrics};
use experiments::figures::scale;
use experiments::runner;

const SEED: u64 = 2020;

/// Cell count for the sharded 1M-flow configurations and the quick run.
const SHARD_CELLS: usize = 8;
const QUICK_CELLS: usize = 4;

/// `(JSON key stem, GFWSIM_ENGINE, flows, cells, runner workers)`;
/// 0 cells is the unsharded [`scale::measure`] path.
const CONFIGS: &[(&str, &str, usize, usize, usize)] = &[
    ("packet_10k", "packet", 10_000, 0, 0),
    ("packet_100k", "packet", 100_000, 0, 0),
    ("hybrid_10k", "hybrid", 10_000, 0, 0),
    ("hybrid_100k", "hybrid", 100_000, 0, 0),
    ("hybrid_1m", "hybrid", 1_000_000, 0, 0),
    ("hybrid_1m_shards1", "hybrid", 1_000_000, SHARD_CELLS, 1),
    ("hybrid_1m_shards4", "hybrid", 1_000_000, SHARD_CELLS, 4),
    ("hybrid_1m_shards8", "hybrid", 1_000_000, SHARD_CELLS, 8),
];

fn usage_error(msg: &str) -> ! {
    eprintln!("exp-scale: {msg}");
    eprintln!(
        "usage: exp-scale [--out PATH] | --quick [--flows N] [--jobs N] \
         | --measure FLOWS CELLS WORKERS"
    );
    std::process::exit(2);
}

fn run_measure(flows: usize, cells: usize, workers: usize) {
    let engine = experiments::engine_mode();
    let started = std::time::Instant::now();
    let m = if cells == 0 {
        scale::measure(engine, flows, SEED)
    } else {
        scale::measure_sharded(engine, flows, cells, workers, SEED)
    };
    benchfile::print_measurement(
        flows,
        started.elapsed(),
        &[("completed", m.completed), ("events", m.stats.events)],
    );
}

fn run_quick(flows: usize) {
    let engine = experiments::engine_mode();
    let workers = runner::effective_jobs();
    let started = std::time::Instant::now();
    let m = scale::measure_sharded(engine, flows, QUICK_CELLS, workers, SEED);
    let wall = started.elapsed();
    assert_eq!(
        m.completed, flows as u64,
        "exp-scale --quick: not every transfer completed"
    );
    // Stdout carries only seed-pure counters: the ci.sh jobs smoke
    // step diffs this line across GFWSIM_JOBS values, and the
    // parallel_determinism suite diffs it across the jobs × engine
    // grid. Machine-facts go to stderr.
    println!(
        "exp-scale quick: engine={engine:?} flows={flows} cells={QUICK_CELLS} \
         completed={} events={} promoted={}",
        m.completed, m.stats.events, m.stats.flows_promoted,
    );
    eprintln!(
        "exp-scale quick: {} workers, {:.1} ms, peak rss {} kB",
        workers,
        wall.as_secs_f64() * 1e3,
        runner::peak_rss_kb(),
    );
}

fn main() {
    runner::configure_from_env();
    let mut quick = false;
    let mut flows = None;
    let mut out_path = "BENCH_scale.json".to_string();
    let mut args = std::env::args().skip(1);
    let number = |v: Option<String>, what: &str| -> usize {
        v.and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage_error(&format!("{what} needs a number")))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--measure" => {
                let mut next = || number(args.next(), "--measure");
                let (flows, cells, workers) = (next(), next(), next());
                run_measure(flows, cells, workers);
                return;
            }
            "--quick" => quick = true,
            "--flows" => flows = Some(number(args.next(), "--flows")),
            // Read by `runner::configure_from_env` above.
            "--jobs" => {
                number(args.next(), "--jobs");
            }
            j if j.starts_with("--jobs=") => {}
            "--out" => {
                out_path = args
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a path"))
            }
            _ => usage_error(&format!("unknown argument `{a}`")),
        }
    }
    if quick {
        run_quick(flows.unwrap_or(10_000));
        return;
    }
    if flows.is_some() {
        usage_error("--flows applies to --quick only");
    }

    println!("== exp-scale ==  (seed {SEED}, one child process per configuration)\n");
    let mut metrics = Metrics::new();
    for &(stem, engine, flows, cells, workers) in CONFIGS {
        let row = benchfile::measure_child(stem, engine, &[flows, cells, workers], &mut metrics);
        assert_eq!(
            row["completed"], flows as f64,
            "exp-scale: {stem} did not complete every transfer"
        );
    }
    let file = BenchFile {
        bench: Bench::Scale,
        quick: false,
        seed: SEED,
        host: Host::probe(),
        metrics,
    };
    file.write(&out_path)
        .unwrap_or_else(|e| panic!("exp-scale: write {out_path}: {e}"));
    println!("wrote {out_path}");
}
