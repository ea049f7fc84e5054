//! One repetition of one benchmark workload, in its own process.
//!
//! ```text
//! perfbench --workload <probe-grid|bulk-flows|mix-sparse|mix-dense>
//!           --seed <n> --trace <0|1> [--spans <path>]
//! ```
//!
//! Prints one JSON line: setup times, run time, per-chunk times, peak
//! RSS, ops attempted and failed, the deterministic counts that must
//! repeat exactly for one seed, the workload's self-checks, the host's
//! hardware-crypto flags and, with `--trace 1`, the per-layer metrics.
//! `run.py` starts one process per repetition (peak RSS is a
//! process-lifetime high-water mark) and aggregates the lines.

mod cpu;
mod grid;
mod out;
mod sims;
mod trace;
mod unit;

use out::Obj;
use std::collections::BTreeMap;
use trace::{Ledger, Trace};

/// Every per-layer metric a traced repetition reports. A layer the
/// workload does not run reports 0 for its counts and self times.
const PER_LAYER: &[&str] = &[
    "netsim.events_per_op",
    "netsim.packets_per_op",
    "netsim.promoted_frac",
    "netsim.step_ns",
    "netsim.idle_step_frac",
    "netsim.idle_step_s",
    "netsim.peak_queue_depth",
    "netsim.live_conns_peak",
    "netsim.connect_at_s",
    "netsim.self_frac",
    "gfw.install_s",
    "gfw.tap_ns",
    "gfw.tap_frac",
    "gfw.passive_ns",
    "gfw.probes_per_op",
    "gfw.tracked_conns_peak",
    "gfw.self_frac",
    "trafficgen.install_s",
    "trafficgen.first_payload_ns",
    "trafficgen.self_frac",
    "analysis.entropy_ns",
    "probesim.probe_ns",
    "probesim.payload_ns",
    "probesim.self_frac",
    "shadowsocks.server_new_ns",
    "shadowsocks.on_data_ns",
    "sscrypto.session_ns",
    "sscrypto.open_mb_s",
    "sscrypto.hw_over_scalar",
    "runner.busy_frac",
    "runner.job_s_max",
    "runner.self_frac",
    "trace.wall_s",
    "trace.unattributed_frac",
];

/// Layers that appear in a ledger.
const LEDGER_LAYERS: &[&str] = &["netsim", "gfw", "trafficgen", "probesim", "runner"];

/// A workload self-check or correctness check.
pub struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

impl Check {
    /// A named check with a human-readable detail.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// What one repetition measured.
pub struct Rep {
    /// Host seconds of each world construction.
    pub setup_s: Vec<f64>,
    /// Host seconds of the run phase.
    pub run_s: f64,
    /// Ops completed.
    pub ops: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// CPU ms of each chunk, on the thread that ran it.
    pub chunk_ms: Vec<f64>,
    /// CPU ms of the run phase outside any chunk: the drain after the
    /// arrival phase on the simulations, 0 on the grid.
    pub drain_ms: f64,
    /// Threads that ran the chunks at once.
    pub threads: usize,
    /// Process peak RSS (kB) when the run phase ended, before any
    /// verification work.
    pub peak_rss_kb: u64,
    /// Counts that must repeat exactly for one seed.
    pub counts: Vec<(&'static str, u64)>,
    /// Self-checks.
    pub checks: Vec<Check>,
}

/// Per-layer metrics of a traced repetition, plus what the unit-cost
/// measurements need from the run.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// The repetition's spans.
    pub trace: Option<Trace>,
    /// First payloads seen at the border, for re-scoring.
    pub first_payloads: Vec<Vec<u8>>,
    ledger_balance: Option<(f64, Vec<String>)>,
}

impl Metrics {
    /// Set a per-layer metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.contains(&name),
            "unlisted per-layer metric {name}"
        );
        self.values.insert(name, v);
    }

    /// Whether a metric was set.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Record the ledger's per-layer self-time shares.
    pub fn ledger(&mut self, l: &Ledger) {
        for layer in LEDGER_LAYERS {
            let name = PER_LAYER
                .iter()
                .find(|n| n.strip_suffix(".self_frac") == Some(layer))
                .expect("every ledger layer has a self_frac metric");
            self.set(name, l.frac(layer));
        }
        assert!(
            l.layers.keys().all(|k| LEDGER_LAYERS.contains(k)),
            "ledger layer outside LEDGER_LAYERS: {:?}",
            l.layers.keys().collect::<Vec<_>>()
        );
        self.set("trace.wall_s", l.wall_s);
        self.set("trace.unattributed_frac", l.unattributed_s / l.wall_s);
        self.ledger_balance = Some((l.balance(), l.negative.clone()));
    }
}

/// FNV-1a folding for order-stable digests of deterministic outputs.
pub mod fnv {
    /// Offset basis.
    pub const START: u64 = 0xcbf2_9ce4_8422_2325;

    /// Fold one word into the digest.
    pub fn mix(h: u64, v: u64) -> u64 {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }
}

/// Median of a non-empty sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced, mut spans) = (None, None, false, None);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--spans" => spans = Some(value()?.into()),
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        traced,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Spread small seeds over all 64 bits before deriving inputs.
    let seed = fnv::mix(fnv::START, args.seed);
    let mut m = Metrics::default();
    let rep = match args.workload.as_str() {
        "probe-grid" => grid::run(seed, args.traced, &mut m),
        "bulk-flows" => sims::run(sims::Kind::Bulk, seed, args.traced, &mut m),
        "mix-sparse" => sims::run(
            sims::Kind::Mix { base_rate: 1_000 },
            seed,
            args.traced,
            &mut m,
        ),
        "mix-dense" => sims::run(sims::Kind::Mix { base_rate: 10 }, seed, args.traced, &mut m),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };

    let mut checks = rep.checks;
    let mut metrics = Obj::default();
    if args.traced {
        unit::measure(seed, std::mem::take(&mut m.first_payloads), &mut m);
        let (balance, negative) = m
            .ledger_balance
            .take()
            .expect("a traced repetition builds its ledger");
        checks.push(Check::new(
            "ledger sums to traced wall time",
            (balance - 1.0).abs() < 1e-9 && negative.is_empty(),
            format!("layers + unattributed = {balance} x wall; overlapping spans: {negative:?}"),
        ));
        for name in PER_LAYER {
            metrics.num(name, m.values.get(name).copied().unwrap_or(0.0));
        }
        if let (Some(path), Some(trace)) = (&args.spans, &m.trace) {
            if let Err(e) = trace.write_jsonl(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    let mut counts = Obj::default();
    for (k, v) in &rep.counts {
        counts.int(k, *v);
    }
    let mut check_obj = Obj::default();
    for c in &checks {
        let mut o = Obj::default();
        o.bool("ok", c.ok)
            .str("detail", &c.detail.replace(['"', '\\', '\n'], "'"));
        check_obj.obj(c.name, o);
    }
    let hw = sscrypto::hw::CpuFeatures::get();
    let raw = sscrypto::hw::CpuFeatures::detect_with(false);
    let mut hw_obj = Obj::default();
    hw_obj
        .bool("aes_ni", hw.aes)
        .bool("pclmulqdq", hw.pclmulqdq)
        .bool("ssse3", hw.ssse3)
        .bool("avx2", hw.avx2)
        .str(
            "mode",
            if hw.any() {
                "hardware"
            } else if raw.any() {
                "forced-scalar"
            } else {
                "scalar"
            },
        );

    let mut o = Obj::default();
    o.str("workload", &args.workload)
        .int("seed", args.seed)
        .bool("traced", args.traced)
        .nums("setup_s", &rep.setup_s)
        .num("run_s", rep.run_s)
        .int("ops", rep.ops)
        .int("attempted", rep.attempted)
        .int("failed", rep.failed)
        .nums("chunk_ms", &rep.chunk_ms)
        .num("drain_ms", rep.drain_ms)
        .int("threads", rep.threads as u64)
        .int("peak_rss_kb", rep.peak_rss_kb)
        .obj("counts", counts)
        .obj("checks", check_obj)
        .obj("hw_crypto", hw_obj)
        .obj("metrics", metrics);
    println!("{}", o.finish());
}
