//! `bench-report` — the tracked substrate numbers, without criterion.
//!
//! Runs the hot-path workloads (netsim substrate, passive first-payload
//! scoring, the exp-fig10 grid, and per-method AEAD codec throughput
//! with hardware dispatch and forced-scalar) with plain wall-clock
//! timing and writes `BENCH_substrate.json` through
//! [`experiments::benchfile`].
//!
//! Modes:
//!
//! * default — full measurement (best of several runs), JSON to
//!   `--out` (default `BENCH_substrate.json`);
//! * `--quick` — one short run per workload, for CI smoke;
//! * `--check <path>` — no benchmarks: validate any `BENCH_*.json`
//!   ([`benchfile::check`]), print the acceptance bars it holds, exit 1
//!   otherwise.
//!
//! Any other argument exits 2 before anything is measured or written.

use experiments::benchfile::{self, Bench, BenchFile, Host, Metrics};
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::TcpTuning;
use netsim::host::HostConfig;
use netsim::time::{Duration, SimTime};
use netsim::{SimConfig, Simulator};
use shadowsocks::wire::{AeadDecryptor, AeadEncryptor};
use sscrypto::method::Method;
use std::time::Instant;

/// Seed of the substrate workload and the fig10 grid.
const SEED: u64 = 2020;

struct Echo;
impl App for Echo {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::Data { conn, data } = ev {
            ctx.send(conn, data);
            ctx.fin(conn);
        }
    }
}

struct Client;
impl App for Client {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => ctx.send(conn, vec![7u8; 400]),
            AppEvent::PeerFin { conn } => ctx.fin(conn),
            _ => {}
        }
    }
}

/// One pass of the substrate workload: `n` cross-border echo
/// connections through a fresh simulator. Returns events processed.
fn substrate_once(n: u64) -> u64 {
    let mut sim = Simulator::new(SimConfig::default(), SEED);
    let server = sim.add_host(HostConfig::outside("s"));
    let client = sim.add_host(HostConfig::china("c"));
    let echo = sim.add_app(Box::new(Echo));
    sim.listen((server, 80), echo);
    let app = sim.add_app(Box::new(Client));
    for i in 0..n {
        sim.connect_at(
            SimTime::ZERO + Duration::from_millis(i * 10),
            app,
            client,
            (server, 80),
            TcpTuning::default(),
        );
    }
    sim.run();
    sim.stats.events
}

/// Events/sec over the echo-connection workload, best of `runs`.
fn bench_substrate(conns: u64, runs: usize) -> f64 {
    substrate_once(conns.min(100)); // warm up allocator + code paths
    let mut best = 0.0f64;
    for _ in 0..runs {
        let t = Instant::now();
        let events = substrate_once(conns);
        let rate = events as f64 / t.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

/// First-payload scores/sec: `store_probability` over a pool of
/// payloads spanning the detector's length bands (and outside them).
fn bench_scoring(iters: usize, runs: usize) -> f64 {
    let det = gfw_core::passive::PassiveDetector::default();
    let lens = [64usize, 169, 306, 402, 687, 850, 1400];
    let pool: Vec<Vec<u8>> = lens.iter().map(|&l| bench::payload(l, l as u64)).collect();
    let mut best = 0.0f64;
    let mut sink = 0.0f64;
    for _ in 0..runs {
        let t = Instant::now();
        for i in 0..iters {
            sink += det.store_probability(&pool[i % pool.len()]);
        }
        let rate = iters as f64 / t.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    assert!(sink >= 0.0);
    best
}

/// Wall time of the exp-fig10 reaction grid at quick scale, in ms
/// (best of `runs`). Runs single-threaded so the number tracks
/// per-core substrate speed, not the machine's core count.
fn bench_fig10(runs: usize) -> f64 {
    experiments::runner::set_jobs(1);
    let mut best = f64::INFINITY;
    let mut sink = 0usize;
    for _ in 0..runs {
        let t = Instant::now();
        let fig = experiments::figures::fig10::run(experiments::Scale::Quick, SEED);
        sink += fig.to_string().len();
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        eprintln!("bench-report:   fig10 run: {ms:.1} ms");
        best = best.min(ms);
    }
    experiments::runner::set_jobs(0);
    assert!(sink > 0);
    best
}

/// Seal throughput through the full wire codec (framing + AEAD), in
/// MB/s of plaintext, best of `runs`. One session per run so the
/// HKDF/key-schedule setup is amortized the way real connections
/// amortize it.
fn bench_seal(method: Method, total_bytes: usize, runs: usize) -> f64 {
    let key = sscrypto::kdf::evp_bytes_to_key(b"bench-password", method.key_len());
    let plain = bench::payload(shadowsocks::wire::MAX_CHUNK, 0xC0FFEE);
    let iters = (total_bytes / plain.len()).max(1);
    let mut best = 0.0f64;
    for _ in 0..runs {
        let mut enc = AeadEncryptor::new(method, &key, vec![0x42u8; method.iv_len()]);
        let mut sink = 0usize;
        let t = Instant::now();
        for _ in 0..iters {
            // A fresh buffer per call, as a connection's send path has.
            let mut ct = Vec::new();
            enc.seal_into(&plain, &mut ct);
            sink += ct.len();
        }
        let rate = (iters * plain.len()) as f64 / t.elapsed().as_secs_f64() / 1e6;
        assert!(sink > iters * plain.len());
        best = best.max(rate);
    }
    best
}

/// Open throughput through the full wire codec, in MB/s of recovered
/// plaintext, best of `runs`. The ciphertext is sealed once up front
/// and replayed to a fresh decryptor per run in 64 KiB slices.
fn bench_open(method: Method, total_bytes: usize, runs: usize) -> f64 {
    let key = sscrypto::kdf::evp_bytes_to_key(b"bench-password", method.key_len());
    let plain = bench::payload(shadowsocks::wire::MAX_CHUNK, 0xC0FFEE);
    let iters = (total_bytes / plain.len()).max(1);
    let mut enc = AeadEncryptor::new(method, &key, vec![0x42u8; method.iv_len()]);
    let mut ct = Vec::new();
    for _ in 0..iters {
        enc.seal_into(&plain, &mut ct);
    }
    let mut best = 0.0f64;
    for _ in 0..runs {
        let mut dec = AeadDecryptor::new(method, &key);
        let mut sink = 0usize;
        let t = Instant::now();
        for piece in ct.chunks(64 * 1024) {
            for chunk in dec.decrypt(piece).expect("bench ciphertext is authentic") {
                sink += chunk.len();
            }
        }
        let rate = sink as f64 / t.elapsed().as_secs_f64() / 1e6;
        assert_eq!(sink, iters * plain.len());
        best = best.max(rate);
    }
    best
}

fn usage_error(msg: &str) -> ! {
    eprintln!("bench-report: {msg}");
    eprintln!("usage: bench-report [--quick] [--out PATH] | --check PATH");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_substrate.json".to_string();
    let mut check_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" | "--check" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| usage_error(&format!("{a} needs a path")));
                if a == "--out" {
                    out_path = path;
                } else {
                    check_path = Some(path);
                }
            }
            _ => usage_error(&format!("unknown argument `{a}`")),
        }
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("bench-report: cannot read {path}: {e}");
            std::process::exit(1);
        });
        match benchfile::check(&text) {
            Ok(held) => {
                println!("bench-report: {path} OK");
                for line in held {
                    println!("  {line}");
                }
            }
            Err(problems) => {
                for p in problems {
                    eprintln!("bench-report: {path}: {p}");
                }
                std::process::exit(1);
            }
        }
        return;
    }

    let (conns, sruns, iters, iruns, fruns, cbytes, cruns) = if quick {
        (
            1_000u64,
            1usize,
            50_000usize,
            1usize,
            1usize,
            1 << 21,
            1usize,
        )
    } else {
        (5_000, 5, 400_000, 5, 3, 8 << 20, 3)
    };
    let mut metrics = Metrics::new();
    // fig10 runs first: it is the most allocation-sensitive workload,
    // and measuring it against a cold heap keeps the number comparable
    // across trees regardless of what the other benches leave behind.
    eprintln!("bench-report: exp-fig10 grid (quick scale x {fruns})...");
    metrics.insert("fig10_grid_ms".into(), bench_fig10(fruns));
    eprintln!("bench-report: substrate ({conns} conns x {sruns})...");
    metrics.insert("events_per_sec".into(), bench_substrate(conns, sruns));
    eprintln!("bench-report: first-payload scoring ({iters} x {iruns})...");
    metrics.insert(
        "first_payload_scores_per_sec".into(),
        bench_scoring(iters, iruns),
    );
    // The forced-scalar pass measures the scalar oracle next to the
    // hardware numbers. The mask is per-construction and every bench
    // run constructs fresh codecs, so flipping the switch is race-free.
    for scalar in [false, true] {
        eprintln!(
            "bench-report: aead codec throughput ({} MiB x {cruns} per method, forced scalar: {scalar})...",
            cbytes >> 20
        );
        sscrypto::hw::set_force_scalar(scalar);
        for m in benchfile::aead_methods() {
            let stem = benchfile::aead_stem(m) + if scalar { "_scalar" } else { "" };
            metrics.insert(format!("{stem}_seal_mb_s"), bench_seal(m, cbytes, cruns));
            metrics.insert(format!("{stem}_open_mb_s"), bench_open(m, cbytes, cruns));
        }
    }
    sscrypto::hw::set_force_scalar(false);

    for (key, v) in &metrics {
        println!("{key:<40} {v:>12.1}");
    }
    let file = BenchFile {
        bench: Bench::Substrate,
        quick,
        seed: SEED,
        host: Host::probe(),
        metrics,
    };
    if let Err(e) = file.write(&out_path) {
        eprintln!("bench-report: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("bench-report: wrote {out_path}");
}
