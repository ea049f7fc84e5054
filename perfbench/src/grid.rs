//! `probe-grid`: the Fig 10 reaction sweep at paper scale, fanned out
//! over the experiments runner.
//!
//! Every implementation × cipher configuration of Fig 10 (six stream,
//! six AEAD) is one runner job; each job sweeps probe lengths 1–100 and
//! 221 with 200 random probes per length, every probe against a fresh
//! `ServerConn` (`EngineOracle::probe_fresh`). The job body is
//! `probesim::reaction_matrix` unrolled so each (config, length) row
//! can be timed as one chunk; the repetition checks the unrolled loop
//! against the library function on one configuration.

use crate::trace::{ns_since, Span, Trace, HARNESS};
use crate::{cpu, fnv, Check, Metrics, Rep};
use experiments::runner;
use probesim::{EngineOracle, MatrixRow, Reaction};
use shadowsocks::{Profile, ServerConfig};
use sscrypto::method::Method;
use std::time::Instant;

/// Worker threads for the fan-out.
pub const WORKERS: usize = 2;
/// Random probes per (config, length) row, as in Fig 10 at paper scale.
const SAMPLES: usize = 200;
/// How often the setup is repeated; its median is reported.
const SETUPS: usize = 64;

/// The twelve Fig 10 configurations: (implementation, profile, method).
pub const CONFIGS: [(&str, Profile, Method); 12] = [
    (
        "ss-libev v3.0.8-v3.2.5",
        Profile::LIBEV_OLD,
        Method::ChaCha20,
    ),
    (
        "ss-libev v3.0.8-v3.2.5",
        Profile::LIBEV_OLD,
        Method::ChaCha20Ietf,
    ),
    (
        "ss-libev v3.0.8-v3.2.5",
        Profile::LIBEV_OLD,
        Method::Aes256Cfb,
    ),
    (
        "ss-libev v3.3.1-v3.3.3",
        Profile::LIBEV_NEW,
        Method::ChaCha20,
    ),
    (
        "ss-libev v3.3.1-v3.3.3",
        Profile::LIBEV_NEW,
        Method::ChaCha20Ietf,
    ),
    (
        "ss-libev v3.3.1-v3.3.3",
        Profile::LIBEV_NEW,
        Method::Aes256Cfb,
    ),
    (
        "ss-libev v3.0.8-v3.2.5",
        Profile::LIBEV_OLD,
        Method::Aes128Gcm,
    ),
    (
        "ss-libev v3.0.8-v3.2.5",
        Profile::LIBEV_OLD,
        Method::Aes192Gcm,
    ),
    (
        "ss-libev v3.0.8-v3.2.5",
        Profile::LIBEV_OLD,
        Method::Aes256Gcm,
    ),
    (
        "ss-libev v3.3.1-v3.3.3",
        Profile::LIBEV_NEW,
        Method::Aes256Gcm,
    ),
    (
        "OutlineVPN v1.0.6",
        Profile::OUTLINE_1_0_6,
        Method::ChaCha20IetfPoly1305,
    ),
    (
        "OutlineVPN v1.0.7-v1.0.8",
        Profile::OUTLINE_1_0_7,
        Method::ChaCha20IetfPoly1305,
    ),
];

/// Probe lengths of the paper-scale sweep.
pub fn lengths() -> Vec<usize> {
    (1..=100).chain([221]).collect()
}

/// One job's output: its rows, each with its CPU time.
struct JobOut {
    rows: Vec<MatrixRow>,
    row_ms: Vec<f64>,
    spans: Vec<Span>,
}

/// Sweep every length against one oracle; with `origin`, record a row
/// span per length with the payload and probe calls aggregated under it.
fn sweep(config: ServerConfig, seed: u64, origin: Option<Instant>, job: u64) -> JobOut {
    let mut oracle = EngineOracle::new(config, seed);
    let lens = lengths();
    let mut out = JobOut {
        rows: Vec::with_capacity(lens.len()),
        row_ms: Vec::with_capacity(lens.len()),
        spans: Vec::new(),
    };
    let job_span = origin.map(|o| {
        out.spans.push(Span {
            name: "runner.job",
            layer: "runner",
            start: ns_since(o),
            end: 0,
            parent: None,
            op: job,
            count: 1,
            threads: 1,
        });
        0
    });
    for len in lens {
        let mut row = MatrixRow {
            len,
            ..Default::default()
        };
        let cpu0 = cpu::thread_ns();
        match origin {
            None => {
                for _ in 0..SAMPLES {
                    let payload = oracle.random_payload(len);
                    let r = oracle.probe_fresh(&payload);
                    *row.counts.entry(r).or_insert(0) += 1;
                }
            }
            Some(o) => {
                let start = ns_since(o);
                let (mut payload_ns, mut probe_ns) = (0u64, 0u64);
                for _ in 0..SAMPLES {
                    let a = Instant::now();
                    let payload = oracle.random_payload(len);
                    let b = Instant::now();
                    let r = oracle.probe_fresh(&payload);
                    let c = Instant::now();
                    payload_ns += (b - a).as_nanos() as u64;
                    probe_ns += (c - b).as_nanos() as u64;
                    *row.counts.entry(r).or_insert(0) += 1;
                }
                let row_id = out.spans.len();
                out.spans.push(Span {
                    name: "probesim.row",
                    layer: "probesim",
                    start,
                    end: ns_since(o),
                    parent: job_span,
                    op: job * 1000 + len as u64,
                    count: 1,
                    threads: 1,
                });
                for (name, ns) in [
                    ("probesim.random_payload", payload_ns),
                    ("probesim.probe_fresh", probe_ns),
                ] {
                    out.spans.push(Span {
                        name,
                        layer: "probesim",
                        start,
                        end: start + ns,
                        parent: Some(row_id),
                        op: job * 1000 + len as u64,
                        count: SAMPLES as u64,
                        threads: 1,
                    });
                }
            }
        }
        out.row_ms.push((cpu::thread_ns() - cpu0) as f64 / 1e6);
        out.rows.push(row);
    }
    if let (Some(o), Some(j)) = (origin, job_span) {
        out.spans[j].end = ns_since(o);
    }
    out
}

fn build_configs() -> Vec<ServerConfig> {
    CONFIGS
        .iter()
        .map(|&(_, profile, method)| ServerConfig::new(method, "fig10-pw", profile))
        .collect()
}

/// Fig 10 invariants (the ones `fig10::tests` asserts): rows that break
/// them, as (config index, length).
fn invariant_breaks(matrix: &[Vec<MatrixRow>]) -> Vec<(usize, usize)> {
    let mut bad = Vec::new();
    for (ci, rows) in matrix.iter().enumerate() {
        let (name, profile, method) = CONFIGS[ci];
        for row in rows {
            let ok = if name == "OutlineVPN v1.0.6" && row.len == 50 {
                row.dominant() == Some(Reaction::FinAck)
            } else if name == "OutlineVPN v1.0.6" && row.len == 51 {
                row.dominant() == Some(Reaction::Rst)
            } else if profile == Profile::LIBEV_OLD && method == Method::Aes128Gcm && row.len == 50
            {
                row.dominant() == Some(Reaction::Timeout)
            } else if profile == Profile::LIBEV_OLD && method == Method::Aes128Gcm && row.len == 51
            {
                row.dominant() == Some(Reaction::Rst)
            } else if profile == Profile::LIBEV_NEW {
                row.frac(Reaction::Rst) == 0.0
            } else {
                true
            };
            if !ok {
                bad.push((ci, row.len));
            }
        }
    }
    bad
}

/// Order-stable digest of the whole reaction matrix.
fn matrix_digest(matrix: &[Vec<MatrixRow>]) -> u64 {
    let mut h = fnv::START;
    for rows in matrix {
        for row in rows {
            h = fnv::mix(h, row.len as u64);
            for r in [
                Reaction::Timeout,
                Reaction::Rst,
                Reaction::FinAck,
                Reaction::Data,
                Reaction::ConnectFailed,
            ] {
                h = fnv::mix(h, *row.counts.get(&r).unwrap_or(&0) as u64);
            }
        }
    }
    h
}

/// One repetition.
pub fn run(seed: u64, traced: bool, m: &mut Metrics) -> Rep {
    let grid_seed = seed ^ 0xF1610;
    let mut trace = Trace::new();
    let root = trace.open("rep", HARNESS, None);

    // Setup: derive every server config (password to key) and build its
    // oracle. Cheap, so repeated and the median reported. Oracles hold
    // ciphers that stay on one thread, so each job rebuilds its own from
    // the config, as `reaction_matrix` does.
    let setup_span = trace.open("setup", HARNESS, Some(root));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut configs = Vec::new();
    for _ in 0..SETUPS {
        let s = trace.open("probesim.build", "probesim", Some(setup_span));
        let t = Instant::now();
        configs = build_configs();
        let oracles: Vec<EngineOracle> = configs
            .iter()
            .map(|c| EngineOracle::new(c.clone(), grid_seed))
            .collect();
        std::hint::black_box(&oracles);
        setup_s.push(t.elapsed().as_secs_f64());
        trace.close(s);
    }
    trace.close(setup_span);

    let run_span = trace.open_on("runner.fan_out", "runner", Some(root), WORKERS as u32);
    let origin = traced.then(|| trace.origin());
    let specs: Vec<_> = configs
        .into_iter()
        .enumerate()
        .map(|(i, config)| move || sweep(config, grid_seed, origin, i as u64))
        .collect();
    let t = Instant::now();
    let jobs = runner::run_jobs_detailed_with(specs, WORKERS);
    let run_s = t.elapsed().as_secs_f64();
    let peak_rss_kb = runner::peak_rss_kb();
    trace.close(run_span);

    let mut matrix = Vec::with_capacity(jobs.len());
    let mut chunk_ms = Vec::new();
    let job_walls: Vec<f64> = jobs.iter().map(|j| j.wall.as_secs_f64()).collect();
    for job in jobs {
        let out = job.output;
        chunk_ms.extend(out.row_ms);
        trace.adopt(out.spans, run_span);
        matrix.push(out.rows);
    }

    trace.close(root);

    // Verification, outside the timed phase and the ledger: the unrolled
    // loop must reproduce the library's matrix on one configuration.
    let ci = (seed % CONFIGS.len() as u64) as usize;
    let (_, profile, method) = CONFIGS[ci];
    let reference = probesim::reaction_matrix(
        &ServerConfig::new(method, "fig10-pw", profile),
        lengths(),
        SAMPLES,
        grid_seed,
    );
    let same_as_library = reference.len() == matrix[ci].len()
        && reference
            .iter()
            .zip(&matrix[ci])
            .all(|(a, b)| a.len == b.len && a.counts == b.counts);

    let probes: u64 = matrix.iter().flatten().map(|r| r.total() as u64).sum();
    let breaks = invariant_breaks(&matrix);
    let failed: u64 = breaks
        .iter()
        .map(|&(ci, len)| {
            matrix[ci]
                .iter()
                .find(|r| r.len == len)
                .map_or(0, |r| r.total() as u64)
        })
        .sum();
    let n_lengths = lengths().len();
    let full_coverage = matrix.len() == CONFIGS.len()
        && matrix
            .iter()
            .all(|rows| rows.len() == n_lengths && rows.iter().all(|r| r.total() == SAMPLES));
    let connect_failed: u64 = matrix
        .iter()
        .flatten()
        .map(|r| *r.counts.get(&Reaction::ConnectFailed).unwrap_or(&0) as u64)
        .sum();

    if traced {
        let ledger = trace.ledger(root);
        let (payload_s, payload_n) = trace.total("probesim.random_payload");
        let (probe_s, probe_n) = trace.total("probesim.probe_fresh");
        let busy: f64 = job_walls.iter().sum();
        m.set("probesim.probe_ns", probe_s * 1e9 / probe_n as f64);
        m.set("probesim.payload_ns", payload_s * 1e9 / payload_n as f64);
        m.set("runner.busy_frac", busy / (run_s * WORKERS as f64));
        m.set(
            "runner.job_s_max",
            job_walls.iter().copied().fold(0.0, f64::max),
        );
        m.ledger(&ledger);
        m.trace = Some(trace);
    }

    Rep {
        setup_s,
        run_s,
        ops: probes - failed,
        attempted: probes,
        failed,
        chunk_ms,
        drain_ms: 0.0,
        threads: WORKERS,
        peak_rss_kb,
        counts: vec![
            ("probes", probes),
            ("rows", matrix.iter().map(|r| r.len() as u64).sum()),
            ("matrix_digest", matrix_digest(&matrix)),
        ],
        checks: vec![
            Check::new(
                "full (config x length) coverage",
                full_coverage,
                format!(
                    "{} configs x {n_lengths} lengths x {SAMPLES} probes",
                    CONFIGS.len()
                ),
            ),
            Check::new(
                "fig10 invariants",
                breaks.is_empty(),
                format!("rows breaking them: {breaks:?}"),
            ),
            Check::new(
                "matches probesim::reaction_matrix",
                same_as_library,
                format!("config {ci}"),
            ),
            Check::new(
                "no probe fails to connect",
                connect_failed == 0,
                format!("{connect_failed} ConnectFailed"),
            ),
        ],
    }
}
