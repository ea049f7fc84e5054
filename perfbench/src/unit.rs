//! Unit costs: each layer's public functions timed in isolation on
//! inputs the workload produced (or, for layers the workload does not
//! reach, on inputs drawn from its seed). A traced repetition measures
//! them after its ledger closes, so they never count towards the ledger.

use crate::grid::{lengths, CONFIGS};
use crate::Metrics;
use gfw_core::passive::{PassiveConfig, PassiveDetector};
use probesim::EngineOracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shadowsocks::wire::{
    AeadDecryptor, AeadEncryptor, StreamDecryptor, StreamEncryptor, MAX_CHUNK,
};
use shadowsocks::{ServerConfig, ServerConn};
use sscrypto::method::{Kind, Method};
use std::hint::black_box;
use std::time::Instant;
use trafficgen::{MixSpec, Profile};

/// Minimum host time spent per unit-cost measurement.
const MIN_S: f64 = 0.04;

/// Run whole passes of `pass` until `MIN_S` is spent; returns the passes
/// run and the time they took, in ns.
fn repeat_passes(mut pass: impl FnMut()) -> (usize, f64) {
    let t = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || t.elapsed().as_secs_f64() < MIN_S {
        pass();
        passes += 1;
    }
    (passes, t.elapsed().as_nanos() as f64)
}

/// Mean ns per call, for passes of `calls_per_pass` calls each.
fn per_call(calls_per_pass: usize, pass: impl FnMut()) -> f64 {
    let (passes, ns) = repeat_passes(pass);
    ns / (passes * calls_per_pass.max(1)) as f64
}

/// The distinct cipher methods of the probe grid.
fn methods() -> Vec<Method> {
    let mut ms: Vec<Method> = Vec::new();
    for &(_, _, m) in &CONFIGS {
        if !ms.contains(&m) {
            ms.push(m);
        }
    }
    ms
}

/// `count` random payloads at the grid's probe lengths.
fn random_payloads(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lens = lengths();
    (0..count)
        .map(|i| {
            let mut p = vec![0u8; lens[i % lens.len()]];
            rng.fill(&mut p[..]);
            p
        })
        .collect()
}

/// `records` chunks of `chunk` plaintext bytes each, sealed or encrypted
/// under `method` (IV or salt first), plus the key.
fn ciphertext(method: Method, records: usize, chunk: usize) -> (Vec<u8>, Vec<u8>) {
    let key = sscrypto::kdf::evp_bytes_to_key(b"perfbench", method.key_len());
    let plain = vec![0x5Au8; chunk];
    let iv = vec![0x42u8; method.iv_len()];
    let mut ct = Vec::new();
    match method.kind() {
        Kind::Aead => {
            let mut enc = AeadEncryptor::new(method, &key, iv);
            for _ in 0..records {
                enc.seal_chunk_into(&plain, &mut ct);
            }
        }
        Kind::Stream => {
            let mut enc = StreamEncryptor::new(method, &key, iv);
            for _ in 0..records {
                enc.encrypt_into(&plain, &mut ct);
            }
        }
    }
    (ct, key)
}

/// Open `ct` with a fresh decryptor in relay-sized pieces; plaintext
/// bytes recovered.
fn open(method: Method, key: &[u8], ct: &[u8], piece: usize) -> usize {
    let mut out = Vec::with_capacity(ct.len());
    match method.kind() {
        Kind::Aead => {
            let mut dec = AeadDecryptor::new(method, key);
            for p in ct.chunks(piece) {
                dec.decrypt_into(p, &mut out)
                    .expect("benchmark ciphertext is authentic");
            }
        }
        Kind::Stream => {
            let mut dec = StreamDecryptor::new(method, key);
            for p in ct.chunks(piece) {
                dec.decrypt_into(p, &mut out);
            }
        }
    }
    out.len()
}

/// Geometric-mean open throughput over the grid's methods, MB/s of
/// plaintext.
fn open_mb_s() -> f64 {
    let ms = methods();
    let mut log_sum = 0.0;
    for &m in &ms {
        let (ct, key) = ciphertext(m, 32, MAX_CHUNK);
        let mut bytes = 0usize;
        let ns = per_call(1, || {
            bytes = black_box(open(m, &key, &ct, MAX_CHUNK + 34));
        });
        assert_eq!(bytes, 32 * MAX_CHUNK, "{} opens every record", m.name());
        log_sum += (bytes as f64 / ns * 1e3).ln();
    }
    (log_sum / ms.len() as f64).exp()
}

/// Mean ns to set up a decryption session and open the first record
/// (key/subkey derivation included), over the grid's methods.
fn session_ns() -> f64 {
    let firsts: Vec<(Method, Vec<u8>, Vec<u8>)> = methods()
        .into_iter()
        .map(|m| {
            let (ct, key) = ciphertext(m, 1, 64);
            (m, ct, key)
        })
        .collect();
    per_call(firsts.len(), || {
        for (m, first, key) in &firsts {
            black_box(open(*m, key, first, first.len()));
        }
    })
}

/// Measure every unit cost the workload has not measured in its own
/// run. `payloads` are the first payloads the run saw at the border
/// (empty when it has no border traffic).
pub fn measure(seed: u64, payloads: Vec<Vec<u8>>, m: &mut Metrics) {
    let payloads = if payloads.is_empty() {
        random_payloads(seed ^ 0xA11, 4_096)
    } else {
        payloads
    };

    let detector = PassiveDetector::new(PassiveConfig::default());
    m.set(
        "gfw.passive_ns",
        per_call(payloads.len(), || {
            for p in &payloads {
                black_box(detector.features(p));
            }
        }),
    );
    m.set(
        "analysis.entropy_ns",
        per_call(payloads.len(), || {
            for p in &payloads {
                black_box(analysis::shannon_entropy(p));
            }
        }),
    );

    // Profile draws at the mix weights.
    let weights = MixSpec::default().weights;
    let total: u32 = weights.iter().sum();
    let profiles = Profile::all();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7AF);
    let picks: Vec<Profile> = (0..1_024)
        .map(|_| {
            let mut x = rng.gen_range(0..total);
            let mut i = 0;
            while x >= weights[i] {
                x -= weights[i];
                i += 1;
            }
            profiles[i]
        })
        .collect();
    m.set(
        "trafficgen.first_payload_ns",
        per_call(picks.len(), || {
            for p in &picks {
                black_box(p.first_payload(&mut rng));
            }
        }),
    );

    // Prober calls, unless the probe grid timed them in its own run.
    if !m.has("probesim.probe_ns") {
        let mut oracles: Vec<EngineOracle> = CONFIGS
            .iter()
            .map(|&(_, profile, method)| {
                EngineOracle::new(ServerConfig::new(method, "fig10-pw", profile), seed)
            })
            .collect();
        let lens = lengths();
        let (mut payload_ns, mut probe_ns, mut calls) = (0u128, 0u128, 0u64);
        repeat_passes(|| {
            for o in oracles.iter_mut() {
                for &len in &lens {
                    let a = Instant::now();
                    let p = o.random_payload(len);
                    let b = Instant::now();
                    black_box(o.probe_fresh(&p));
                    payload_ns += (b - a).as_nanos();
                    probe_ns += b.elapsed().as_nanos();
                    calls += 1;
                }
            }
        });
        m.set("probesim.payload_ns", payload_ns as f64 / calls as f64);
        m.set("probesim.probe_ns", probe_ns as f64 / calls as f64);
    }

    // Server sessions: construction plus the first-data call.
    let configs: Vec<ServerConfig> = CONFIGS
        .iter()
        .map(|&(_, profile, method)| ServerConfig::new(method, "fig10-pw", profile))
        .collect();
    let probes = random_payloads(seed ^ 0x5E5, configs.len() * 8);
    let mut fresh_seed = seed;
    m.set(
        "shadowsocks.server_new_ns",
        per_call(configs.len(), || {
            for c in &configs {
                fresh_seed = fresh_seed.wrapping_add(1);
                let mut s = ServerConn::new(c.clone(), fresh_seed);
                black_box(s.open_conn());
            }
        }),
    );
    let mut on_data_ns = 0u128;
    let mut on_data_calls = 0u64;
    repeat_passes(|| {
        for (i, p) in probes.iter().enumerate() {
            fresh_seed = fresh_seed.wrapping_add(1);
            let mut s = ServerConn::new(configs[i % configs.len()].clone(), fresh_seed);
            let conn = s.open_conn();
            let t = Instant::now();
            black_box(s.on_data(conn, p));
            on_data_ns += t.elapsed().as_nanos();
            on_data_calls += 1;
        }
    });
    m.set(
        "shadowsocks.on_data_ns",
        on_data_ns as f64 / on_data_calls as f64,
    );

    m.set("sscrypto.session_ns", session_ns());
    let hw = open_mb_s();
    sscrypto::hw::set_force_scalar(true);
    let scalar = open_mb_s();
    sscrypto::hw::set_force_scalar(false);
    m.set("sscrypto.open_mb_s", hw);
    m.set("sscrypto.hw_over_scalar", hw / scalar);
}
