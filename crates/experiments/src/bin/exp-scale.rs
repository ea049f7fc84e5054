//! Scale bench for the hybrid flow/packet engine.
//!
//! Modes:
//!
//! * `exp-scale` — full bench: re-runs the bulk workload in child
//!   processes (one per engine × flow-count configuration, so each
//!   peak-RSS reading is isolated) and writes `BENCH_scale.json` with
//!   flows/sec and peak RSS at 10k/100k flows for both engines plus
//!   1M flows for the hybrid engine, unsharded and sharded (8 cells run
//!   as runner jobs at 1, 4 and 8 workers).
//! * `exp-scale --quick [--flows N]` — in-process smoke run: N flows
//!   (default 10k) split into 4 cells run as runner jobs, honouring
//!   `GFWSIM_ENGINE` and `--jobs`/`GFWSIM_JOBS`. Seed-pure counters go
//!   to stdout — byte-identical at any worker count, which is what the
//!   `ci.sh` jobs smoke step diffs — while wall-clock and RSS go to
//!   stderr. Used by `ci.sh`.
//! * `exp-scale --measure <engine> <flows> [<cells> <workers>]` —
//!   child mode: runs one configuration and prints `key=value` lines
//!   for the parent.
//!
//! Wall-clock and RSS are machine-facts; everything seed-pure about
//! this workload is rendered by `exp-all --only scale` instead.

use experiments::figures::scale;
use experiments::runner;
use netsim::EngineMode;

const SEED: u64 = 2020;

/// Cell count for the sharded 1M-flow configurations and the quick run.
const SHARD_CELLS: usize = 8;
const QUICK_CELLS: usize = 4;

struct Config {
    engine: EngineMode,
    flows: usize,
    /// Shard cells (0 = unsharded [`scale::measure`] path).
    cells: usize,
    /// Runner worker threads (ignored when `cells` is 0).
    workers: usize,
    /// JSON key stem, e.g. `hybrid_100k`.
    stem: &'static str,
}

const CONFIGS: &[Config] = &[
    Config {
        engine: EngineMode::Packet,
        flows: 10_000,
        cells: 0,
        workers: 0,
        stem: "packet_10k",
    },
    Config {
        engine: EngineMode::Packet,
        flows: 100_000,
        cells: 0,
        workers: 0,
        stem: "packet_100k",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 10_000,
        cells: 0,
        workers: 0,
        stem: "hybrid_10k",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 100_000,
        cells: 0,
        workers: 0,
        stem: "hybrid_100k",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 1_000_000,
        cells: 0,
        workers: 0,
        stem: "hybrid_1m",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 1_000_000,
        cells: SHARD_CELLS,
        workers: 1,
        stem: "hybrid_1m_shards1",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 1_000_000,
        cells: SHARD_CELLS,
        workers: 4,
        stem: "hybrid_1m_shards4",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 1_000_000,
        cells: SHARD_CELLS,
        workers: 8,
        stem: "hybrid_1m_shards8",
    },
];

/// One measured configuration, as reported by a `--measure` child.
struct Row {
    stem: &'static str,
    flows: usize,
    completed: u64,
    wall_ms: f64,
    flows_per_sec: f64,
    rss_kb: u64,
    events: u64,
}

fn engine_name(e: EngineMode) -> &'static str {
    match e {
        EngineMode::Packet => "packet",
        EngineMode::Hybrid => "hybrid",
    }
}

fn run_measure(engine: EngineMode, flows: usize, cells: usize, workers: usize) {
    let started = std::time::Instant::now();
    let m = if cells == 0 {
        scale::measure(engine, flows, SEED)
    } else {
        scale::measure_sharded(engine, flows, cells, workers, SEED)
    };
    let wall = started.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let fps = flows as f64 / wall.as_secs_f64().max(1e-9);
    println!("flows={flows}");
    println!("completed={}", m.completed);
    println!("wall_ms={wall_ms:.1}");
    println!("flows_per_sec={fps:.1}");
    println!("rss_kb={}", runner::peak_rss_kb());
    println!("events={}", m.stats.events);
}

fn parse_kv(output: &str, key: &str) -> Option<f64> {
    output
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.trim().parse().ok())
}

fn spawn_child(cfg: &Config) -> Row {
    let exe = std::env::current_exe().expect("exp-scale: current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--measure")
        .arg(engine_name(cfg.engine))
        .arg(cfg.flows.to_string());
    if cfg.cells > 0 {
        cmd.arg(cfg.cells.to_string()).arg(cfg.workers.to_string());
    }
    let out = cmd.output().expect("exp-scale: spawn child");
    assert!(
        out.status.success(),
        "exp-scale: child {} failed:\n{}",
        cfg.stem,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let get = |k: &str| {
        parse_kv(&text, k)
            .unwrap_or_else(|| panic!("exp-scale: child {} missing key {k}", cfg.stem))
    };
    Row {
        stem: cfg.stem,
        flows: cfg.flows,
        completed: get("completed") as u64,
        wall_ms: get("wall_ms"),
        flows_per_sec: get("flows_per_sec"),
        rss_kb: get("rss_kb") as u64,
        events: get("events") as u64,
    }
}

fn write_json(path: &str, rows: &[Row], speedup_100k: f64, speedup_shards8: f64) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": 1,\n");
    s.push_str("  \"bench\": \"scale\",\n");
    s.push_str("  \"mode\": \"full\",\n");
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!(
        "  \"parallelism\": {},\n",
        runner::default_parallelism()
    ));
    for r in rows {
        s.push_str(&format!(
            "  \"{}_flows_per_sec\": {:.1},\n",
            r.stem, r.flows_per_sec
        ));
        s.push_str(&format!("  \"{}_rss_kb\": {},\n", r.stem, r.rss_kb));
        s.push_str(&format!("  \"{}_wall_ms\": {:.1},\n", r.stem, r.wall_ms));
    }
    s.push_str(&format!(
        "  \"speedup_shards8_1m\": {speedup_shards8:.2},\n"
    ));
    s.push_str(&format!("  \"speedup_flows_100k\": {speedup_100k:.2}\n"));
    s.push_str("}\n");
    std::fs::write(path, s).unwrap_or_else(|e| panic!("exp-scale: write {path}: {e}"));
}

fn main() {
    runner::configure_from_env();
    let args: Vec<String> = std::env::args().collect();

    if let Some(i) = args.iter().position(|a| a == "--measure") {
        let engine = match args.get(i + 1).map(String::as_str) {
            Some("packet") => EngineMode::Packet,
            Some("hybrid") => EngineMode::Hybrid,
            other => panic!("exp-scale --measure: bad engine {other:?}"),
        };
        let flows: usize = args
            .get(i + 2)
            .and_then(|v| v.parse().ok())
            .expect("exp-scale --measure: bad flow count");
        let cells: usize = args.get(i + 3).and_then(|v| v.parse().ok()).unwrap_or(0);
        let workers: usize = args.get(i + 4).and_then(|v| v.parse().ok()).unwrap_or(1);
        run_measure(engine, flows, cells, workers);
        return;
    }

    if args.iter().any(|a| a == "--quick") {
        let flows: usize = args
            .iter()
            .position(|a| a == "--flows")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000);
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
            "exp-scale quick: engine={} flows={} cells={} completed={} \
             events={} promoted={}",
            engine_name(engine),
            flows,
            QUICK_CELLS,
            m.completed,
            m.stats.events,
            m.stats.flows_promoted,
        );
        eprintln!(
            "exp-scale quick: {} workers, {:.1} ms, peak rss {} kB",
            workers,
            wall.as_secs_f64() * 1e3,
            runner::peak_rss_kb(),
        );
        return;
    }

    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scale.json".to_string());

    println!("== exp-scale ==  (seed {SEED}, one child process per configuration)\n");
    let mut rows = Vec::with_capacity(CONFIGS.len());
    for cfg in CONFIGS {
        let row = spawn_child(cfg);
        assert_eq!(
            row.completed, row.flows as u64,
            "exp-scale: {} completed {} of {} transfers",
            row.stem, row.completed, row.flows
        );
        println!(
            "{:<18} {:>9} flows  {:>10.1} ms  {:>10.1} flows/s  {:>9} kB  {:>11} events",
            row.stem, row.flows, row.wall_ms, row.flows_per_sec, row.rss_kb, row.events
        );
        rows.push(row);
    }

    let fps_of = |stem: &str| {
        rows.iter()
            .find(|r| r.stem == stem)
            .unwrap_or_else(|| panic!("exp-scale: missing {stem} row"))
            .flows_per_sec
    };
    let speedup = fps_of("hybrid_100k") / fps_of("packet_100k").max(1e-9);
    println!("\nspeedup at 100k flows: {speedup:.2}x (hybrid over packet)");
    let speedup_shards8 = fps_of("hybrid_1m_shards8") / fps_of("hybrid_1m_shards1").max(1e-9);
    println!(
        "speedup at 1M flows, 8 workers over 1: {speedup_shards8:.2}x \
         ({} hardware threads available)",
        runner::default_parallelism()
    );

    write_json(&out_path, &rows, speedup, speedup_shards8);
    println!("wrote {out_path}");
}
