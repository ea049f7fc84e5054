//! Base-rate sweep driver: detector precision/recall against the
//! protocol-profile background mix, plus the machine-facing bench.
//!
//! Modes:
//!
//! * `exp-baserate` — render the sweep table (Quick scale; pass
//!   `--paper` for the 1M-background-flows-per-point version). Output
//!   is seed-pure and engine-invariant; the golden snapshot lives in
//!   `tests/golden/exp-baserate.txt`.
//! * `exp-baserate --quick` — in-process smoke run: one mix point
//!   under the hybrid engine, printing a one-line summary. Used by
//!   `ci.sh`.
//! * `exp-baserate --bench [--out <path>]` — wall-clock bench:
//!   re-runs the mix in child processes (one per configuration, so
//!   each peak-RSS reading is isolated) and writes
//!   `BENCH_baserate.json` with flows/sec and peak RSS for
//!   100k-flow mixes under both engines plus the 1M-flow mix under
//!   the hybrid engine.
//! * `exp-baserate --measure <flows>` — child mode: runs one
//!   configuration under `GFWSIM_ENGINE` and prints `key=value` lines
//!   for the parent.

use experiments::benchfile::{self, Bench, BenchFile, Host, Metrics};
use experiments::figures::baserate;
use experiments::runner;
use experiments::Scale;
use netsim::EngineMode;

const SEED: u64 = 2020;

/// Base rate used by the bench configurations: 1:1,000 sits in the
/// middle of the sweep and keeps the Shadowsocks side non-trivial.
const BENCH_BASE_RATE: u64 = 1_000;

/// `(JSON key stem, GFWSIM_ENGINE, background flows)`.
const CONFIGS: &[(&str, &str, usize)] = &[
    ("mix_100k_packet", "packet", 100_000),
    ("mix_100k_hybrid", "hybrid", 100_000),
    ("mix_1m_hybrid", "hybrid", 1_000_000),
];

fn run_measure(flows: usize) {
    let started = std::time::Instant::now();
    let p = baserate::measure(experiments::engine_mode(), flows, BENCH_BASE_RATE, SEED);
    let total = flows + p.ss_flows;
    benchfile::print_measurement(
        total,
        started.elapsed(),
        &[("flows", total as u64), ("inspected", p.verdicts.inspected)],
    );
}

fn run_bench(out_path: &str) {
    println!("== exp-baserate bench ==  (seed {SEED}, one child process per configuration)\n");
    let mut metrics = Metrics::new();
    for &(stem, engine, flows) in CONFIGS {
        let row = benchfile::measure_child(stem, engine, &[flows], &mut metrics);
        assert_eq!(
            row["inspected"], row["flows"],
            "exp-baserate: {stem} did not inspect every flow"
        );
    }
    let file = BenchFile {
        bench: Bench::Baserate,
        quick: false,
        seed: SEED,
        host: Host::probe(),
        metrics,
    };
    file.write(out_path)
        .unwrap_or_else(|e| panic!("exp-baserate: write {out_path}: {e}"));
    println!("wrote {out_path}");
}

fn main() {
    runner::configure_from_env();
    let args: Vec<String> = std::env::args().collect();

    if let Some(i) = args.iter().position(|a| a == "--measure") {
        let flows: usize = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("exp-baserate --measure: bad flow count");
        run_measure(flows);
        return;
    }

    if args.iter().any(|a| a == "--bench") {
        let out_path = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_baserate.json".to_string());
        run_bench(&out_path);
        return;
    }

    if args.iter().any(|a| a == "--quick") {
        let started = std::time::Instant::now();
        let p = baserate::measure(EngineMode::Hybrid, 5_000, BENCH_BASE_RATE, SEED);
        let wall = started.elapsed();
        assert_eq!(
            p.verdicts.inspected,
            (5_000 + p.ss_flows) as u64,
            "exp-baserate --quick: not every flow inspected"
        );
        println!(
            "exp-baserate quick: 5000 background + {} ss flows (hybrid) in \
             {:.1} ms, {} stored ({} true), {} probes, peak rss {} kB",
            p.ss_flows,
            wall.as_secs_f64() * 1e3,
            p.verdicts.positives(),
            p.verdicts.stored_true,
            p.probes_total,
            runner::peak_rss_kb(),
        );
        return;
    }

    let scale = Scale::from_args();
    println!("== Base-rate sweep (extension) ==  (scale {scale:?}, seed {SEED})\n");
    let result = baserate::run(scale, SEED);
    println!("{result}");
}
