//! The lint rules (R1 lives in [`crate::callgraph`]).
//!
//! Each rule pushes [`Finding`]s (and honored allow-escapes) into the
//! shared [`Report`]. Token rules operate on the comment/string-stripped
//! `code` text produced by [`crate::scan`], so tokens inside comments,
//! doc examples rendered as comments, or string literals never fire;
//! the structural rules (U1, W1) and the budget attribution query the
//! per-file item tree ([`crate::items`]) directly.

use crate::baseline::{Baseline, BASELINE_FILE};
use crate::items::{is_int_type, UnsafeKind};
use crate::lex::TokKind;
use crate::scan::{has_token, SourceFile};
use crate::{AllowUse, Finding, Report, Site, Workspace};
use std::collections::BTreeMap;

/// Crates whose behaviour must be a pure function of the seed (D1).
pub const SIM_CRATES: &[&str] = &["core", "netsim", "probesim", "trafficgen", "defense"];

/// Crates with a panic-site budget (P1).
pub const PANIC_BUDGET_CRATES: &[&str] = &["core", "netsim", "sscrypto"];

/// Wall-clock / OS-entropy tokens banned in simulation crates.
const D1_TOKENS: &[&str] = &[
    "SystemTime::now",
    "Instant::now",
    "thread_rng",
    "from_entropy",
];

/// Explicit panic-site tokens counted by P1.
const PANIC_TOKENS: &[&str] = &[".unwrap()", ".expect(", "panic!", "unreachable!"];

/// Hot-path areas with an allocation budget (A1):
/// `(baseline key, path prefix, file findings point at)`.
pub const ALLOC_BUDGET_AREAS: &[(&str, &str, &str)] = &[
    (
        "shadowsocks-wire",
        "crates/shadowsocks/src/wire.rs",
        "crates/shadowsocks/src/wire.rs",
    ),
    (
        "sscrypto",
        "crates/sscrypto/src/",
        "crates/sscrypto/src/lib.rs",
    ),
];

/// Heap-allocation tokens counted by A1. These are the per-call
/// allocations the zero-copy codec work removed from the crypto hot
/// path; the budget keeps them from creeping back.
const ALLOC_TOKENS: &[&str] = &[".to_vec()", "Vec::new()", ".clone()"];

/// Crates that must stay single-threaded-deterministic (T1): the
/// simulation stack never spawns threads or uses channel-based
/// concurrency — all parallelism lives in `experiments::runner`.
pub const SINGLE_THREADED_CRATES: &[&str] = &[
    "core",
    "netsim",
    "probesim",
    "trafficgen",
    "defense",
    "shadowsocks",
    "sscrypto",
];

/// Threading primitives banned outside the run engine. `std::thread`
/// also covers `thread::spawn`/`scope`/`Builder` via the path prefix;
/// the bare forms are listed for `use`-renamed call sites.
const T1_TOKENS: &[&str] = &[
    "std::thread",
    "thread::spawn",
    "thread::scope",
    "thread::Builder",
    "std::sync::mpsc",
    "rayon",
];

/// The one place threads are allowed: the experiment run engine. It
/// gets its parallelism by building a whole `Simulator` per job — a
/// partitioned run's cells are runner jobs too — so the simulators
/// themselves stay single-threaded, which is exactly the property T1
/// protects.
const T1_EXEMPT: &[&str] = &["crates/experiments/src/runner.rs"];

/// The scheduling structure T2 bans. Both the simulator's event queue
/// and the GFW scheduler replaced `BinaryHeap<Reverse<..>>` with the
/// timer wheel; a heap reappearing on a hot path would silently undo
/// that and reintroduce `O(log n)` comparison churn per event.
const T2_TOKEN: &str = "BinaryHeap";

/// The one place a heap survives: the timer wheel's far-future
/// overflow store inside the event queue itself.
const T2_EVENTQ: &str = "crates/netsim/src/eventq.rs";

/// The paper's IV/salt length table (Fig 10 row groups): every
/// `sscrypto::method::Method` variant and the byte length its
/// `iv_len()` arm must declare.
const IV_EXPECT: &[(&str, usize)] = &[
    ("Aes128Ctr", 16),
    ("Aes192Ctr", 16),
    ("Aes256Ctr", 16),
    ("Aes128Cfb", 16),
    ("Aes192Cfb", 16),
    ("Aes256Cfb", 16),
    ("ChaCha20", 8),
    ("ChaCha20Ietf", 12),
    ("Rc4Md5", 16),
    ("Aes128Gcm", 16),
    ("Aes192Gcm", 24),
    ("Aes256Gcm", 32),
    ("ChaCha20IetfPoly1305", 32),
    ("XChaCha20IetfPoly1305", 32),
];

/// Variants using the AEAD construction (their `iv_len` is a salt).
const AEAD_VARIANTS: &[&str] = &[
    "Aes128Gcm",
    "Aes192Gcm",
    "Aes256Gcm",
    "ChaCha20IetfPoly1305",
    "XChaCha20IetfPoly1305",
];

/// An AEAD server first decrypts (and reacts) at `salt + 35` bytes, so
/// the probe sweep places a trio center at `salt + 17` — inside the
/// silent zone for the next-larger salt but past the stream IVs.
const AEAD_CENTER_OFFSET: usize = 17;

/// The AEAD decrypt threshold: salt + 2-byte length + two 16-byte tags
/// + 1 (`salt + 35`). `NR2_LEN` must exceed it for the largest salt.
const AEAD_THRESHOLD_OFFSET: usize = 35;

fn allowed(report: &mut Report, rule: &str, file: &SourceFile, idx: usize) -> bool {
    if file.lines[idx].allows.iter().any(|a| a == rule) {
        report.allows.push(AllowUse {
            rule: rule.to_string(),
            file: file.rel.clone(),
            line: idx + 1,
        });
        true
    } else {
        false
    }
}

/// D1: no wall-clock or OS-entropy calls in simulation crates.
pub fn d1_determinism(ws: &Workspace, report: &mut Report) {
    for crate_name in SIM_CRATES {
        let prefix = format!("crates/{crate_name}/");
        let rels: Vec<String> = ws.sources_under(&prefix).map(|f| f.rel.clone()).collect();
        for rel in rels {
            let file = &ws.sources[&rel];
            let mut hits = Vec::new();
            for (idx, line) in file.lines.iter().enumerate() {
                for token in D1_TOKENS {
                    if has_token(&line.code, token) {
                        hits.push((idx, *token));
                    }
                }
            }
            for (idx, token) in hits {
                if allowed(report, "D1", &ws.sources[&rel], idx) {
                    continue;
                }
                report.findings.push(Finding {
                    rule: "D1",
                    file: rel.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{token}` in simulation crate `{crate_name}`: simulations must \
                         derive all time and randomness from the seeded simulator state"
                    ),
                });
            }
        }
    }
}

/// T1: thread primitives only inside `experiments::runner`.
///
/// The simulators are pure functions of the seed precisely because
/// each `Simulator` lives on one thread (`Rc<RefCell>` taps, one
/// `StdRng`, one event queue). Any thread spawned inside a sim crate
/// would either fail to compile (`!Send`) or, worse, introduce
/// scheduling nondeterminism that D1 cannot see. The run engine gets
/// its parallelism by building a whole `Simulator` per worker, so the
/// only legitimate home for `std::thread` is `runner.rs` itself.
pub fn t1_thread_isolation(ws: &Workspace, report: &mut Report) {
    let mut prefixes: Vec<String> = SINGLE_THREADED_CRATES
        .iter()
        .map(|c| format!("crates/{c}/"))
        .collect();
    prefixes.push("crates/experiments/".to_string());
    for prefix in prefixes {
        let rels: Vec<String> = ws
            .sources_under(&prefix)
            .filter(|f| !T1_EXEMPT.contains(&f.rel.as_str()))
            .map(|f| f.rel.clone())
            .collect();
        for rel in rels {
            let file = &ws.sources[&rel];
            let mut hits = Vec::new();
            for (idx, line) in file.lines.iter().enumerate() {
                // One finding per line: the tokens overlap by design
                // (`std::thread::spawn` matches two of them).
                if let Some(token) = T1_TOKENS.iter().find(|t| has_token(&line.code, t)) {
                    hits.push((idx, *token));
                }
            }
            for (idx, token) in hits {
                if allowed(report, "T1", &ws.sources[&rel], idx) {
                    continue;
                }
                report.findings.push(Finding {
                    rule: "T1",
                    file: rel.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{token}` outside `experiments::runner`: simulation code is \
                         single-threaded by contract; declare parallel work as runner \
                         jobs instead"
                    ),
                });
            }
        }
    }
}

/// T2: `BinaryHeap` only inside `netsim::eventq`.
///
/// The hierarchical timer wheel in `netsim::eventq` is the workspace's
/// one scheduling structure; everything time-ordered (simulator events,
/// GFW probe orders) routes through `EventQueue`. Non-test code in the
/// single-threaded crates and `experiments` must not grow a new heap.
/// Test code is exempt: the differential property test keeps a
/// `BinaryHeap` reference on purpose, as the oracle the wheel is
/// checked against.
pub fn t2_heap_isolation(ws: &Workspace, report: &mut Report) {
    let mut prefixes: Vec<String> = SINGLE_THREADED_CRATES
        .iter()
        .map(|c| format!("crates/{c}/"))
        .collect();
    prefixes.push("crates/experiments/".to_string());
    for prefix in prefixes {
        let rels: Vec<String> = ws
            .sources_under(&prefix)
            .filter(|f| f.rel != T2_EVENTQ && !f.rel.contains("/tests/"))
            .map(|f| f.rel.clone())
            .collect();
        for rel in rels {
            let file = &ws.sources[&rel];
            let mut hits = Vec::new();
            for (idx, line) in file.lines.iter().enumerate() {
                if !line.in_test && has_token(&line.code, T2_TOKEN) {
                    hits.push(idx);
                }
            }
            for idx in hits {
                if allowed(report, "T2", &ws.sources[&rel], idx) {
                    continue;
                }
                report.findings.push(Finding {
                    rule: "T2",
                    file: rel.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{T2_TOKEN}` outside `netsim::eventq`: the timer wheel is the \
                         workspace's one scheduling structure; queue time-ordered work \
                         through `netsim::eventq::EventQueue` instead"
                    ),
                });
            }
        }
    }
}

/// D2: every crate root file carries both lint attributes.
///
/// A crate with a non-zero `[unsafe-budget]` entry cannot use
/// `#![forbid(unsafe_code)]` (forbid rejects item-level overrides), so
/// for those crates `#![deny(unsafe_code)]` satisfies the rule — the
/// audited islands then go through `#[allow(unsafe_code)]` and rule U1.
pub fn d2_crate_attrs(ws: &Workspace, report: &mut Report) {
    let unsafe_budgets = Baseline::load(&ws.root)
        .ok()
        .flatten()
        .map(|b| b.unsafe_budgets)
        .unwrap_or_default();
    let mut roots: Vec<(String, String)> = Vec::new(); // (crate label, root file rel)
    if ws.sources.contains_key("src/lib.rs") {
        roots.push(("workspace root".into(), "src/lib.rs".into()));
    }
    for c in &ws.crates {
        for candidate in ["src/lib.rs", "src/main.rs"] {
            let rel = format!("crates/{}/{candidate}", c.name);
            if ws.sources.contains_key(&rel) {
                roots.push((c.name.clone(), rel));
                break;
            }
        }
    }
    for (label, rel) in roots {
        let file = &ws.sources[&rel];
        let budgeted_unsafe = unsafe_budgets.get(&label).copied().unwrap_or(0) > 0;
        for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
            let mut present = file.lines.iter().any(|l| l.code.contains(attr));
            if !present && attr.contains("unsafe_code") && budgeted_unsafe {
                present = file
                    .lines
                    .iter()
                    .any(|l| l.code.contains("#![deny(unsafe_code)]"));
            }
            if !present {
                report.findings.push(Finding {
                    rule: "D2",
                    file: rel.clone(),
                    line: 1,
                    message: format!("crate `{label}` is missing `{attr}` (fixable with --fix)"),
                });
            }
        }
    }
}

/// Count P1 panic-site tokens in the non-test `src/` code of the
/// budgeted crates. Allow-escaped lines are excluded from the count
/// (the escape is recorded on the report during `p1_panic_budget`).
pub fn panic_counts(ws: &Workspace) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for crate_name in PANIC_BUDGET_CRATES {
        let prefix = format!("crates/{crate_name}/src/");
        let mut count = 0usize;
        for file in ws.sources_under(&prefix) {
            for line in &file.lines {
                if line.in_test || line.allows.iter().any(|a| a == "P1") {
                    continue;
                }
                for token in PANIC_TOKENS {
                    count += count_token(&line.code, token);
                }
            }
        }
        counts.insert(crate_name.to_string(), count);
    }
    counts
}

/// Collect budget-counted sites under `prefix`, attributed to their
/// enclosing function via the item tree.
fn attributed_sites(ws: &Workspace, prefix: &str, tokens: &[&str], rule: &str) -> Vec<Site> {
    let mut sites = Vec::new();
    for file in ws.sources_under(prefix) {
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test || line.allows.iter().any(|a| a == rule) {
                continue;
            }
            for token in tokens {
                for _ in 0..count_token(&line.code, token) {
                    let function = file
                        .items
                        .fn_at_line(idx + 1)
                        .map(|f| f.qual.clone())
                        .unwrap_or_else(|| "(file scope)".to_string());
                    sites.push(Site {
                        file: file.rel.clone(),
                        line: idx + 1,
                        function,
                        token: token.to_string(),
                    });
                }
            }
        }
    }
    sites
}

/// P1: per-crate panic budget against the checked-in baseline.
pub fn p1_panic_budget(ws: &Workspace, report: &mut Report) -> Result<(), String> {
    let counts = panic_counts(ws);
    report.panic_counts = counts.clone();
    for crate_name in PANIC_BUDGET_CRATES {
        let prefix = format!("crates/{crate_name}/src/");
        report
            .panic_sites
            .extend(attributed_sites(ws, &prefix, PANIC_TOKENS, "P1"));
    }
    // Record honored escapes.
    for crate_name in PANIC_BUDGET_CRATES {
        let prefix = format!("crates/{crate_name}/src/");
        let escapes: Vec<(String, usize)> = ws
            .sources_under(&prefix)
            .flat_map(|file| {
                file.lines.iter().enumerate().filter_map(|(idx, line)| {
                    let is_panic_line = PANIC_TOKENS.iter().any(|t| count_token(&line.code, t) > 0);
                    (!line.in_test && is_panic_line && line.allows.iter().any(|a| a == "P1"))
                        .then(|| (file.rel.clone(), idx + 1))
                })
            })
            .collect();
        for (file, line) in escapes {
            report.allows.push(AllowUse {
                rule: "P1".to_string(),
                file,
                line,
            });
        }
    }

    let has_budgeted_crate = ws
        .crates
        .iter()
        .any(|c| PANIC_BUDGET_CRATES.contains(&c.name.as_str()));
    if !has_budgeted_crate {
        return Ok(());
    }
    let Some(baseline) = Baseline::load(&ws.root)? else {
        report.findings.push(Finding {
            rule: "P1",
            file: BASELINE_FILE.to_string(),
            line: 0,
            message: "panic-budget baseline missing; run `gfw-lint --bless` to create it"
                .to_string(),
        });
        return Ok(());
    };
    for (name, &count) in &counts {
        if !ws.crates.iter().any(|c| &c.name == name) {
            continue;
        }
        match baseline.budgets.get(name) {
            None => report.findings.push(Finding {
                rule: "P1",
                file: BASELINE_FILE.to_string(),
                line: 0,
                message: format!(
                    "crate `{name}` has no panic budget entry (current count: {count}); \
                     run `gfw-lint --bless`"
                ),
            }),
            Some(&budget) if count > budget => report.findings.push(Finding {
                rule: "P1",
                file: format!("crates/{name}/src/lib.rs"),
                line: 1,
                message: format!(
                    "crate `{name}` has {count} explicit panic sites in non-test code, \
                     over its budget of {budget}; remove some or raise the budget by \
                     hand in {BASELINE_FILE}"
                ),
            }),
            _ => {}
        }
    }
    Ok(())
}

/// Count A1 heap-allocation tokens in the non-test code of each
/// budgeted hot-path area. Allow-escaped lines are excluded (the
/// escape is recorded during `a1_alloc_budget`). Areas with no source
/// files in this workspace are omitted.
pub fn alloc_counts(ws: &Workspace) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for &(key, prefix, _) in ALLOC_BUDGET_AREAS {
        let mut count = 0usize;
        let mut present = false;
        for file in ws.sources_under(prefix) {
            present = true;
            for line in &file.lines {
                if line.in_test || line.allows.iter().any(|a| a == "A1") {
                    continue;
                }
                for token in ALLOC_TOKENS {
                    count += count_token(&line.code, token);
                }
            }
        }
        if present {
            counts.insert(key.to_string(), count);
        }
    }
    counts
}

/// A1: per-area heap-allocation budget against the checked-in baseline.
///
/// The crypto hot path (`sscrypto` and the `shadowsocks` wire codec)
/// went through a deliberate de-allocation pass: keystream batching,
/// in-place sealing/opening and scratch-buffer reuse. This rule pins
/// the remaining `.to_vec()` / `Vec::new()` / `.clone()` sites so a
/// refactor cannot quietly reintroduce per-chunk allocations. Budgets
/// live in `[alloc-budget]` of `lint-baseline.toml` and only ratchet
/// down via `--bless`. When the baseline file itself is missing, P1
/// already reports that; this rule stays quiet to avoid a duplicate.
pub fn a1_alloc_budget(ws: &Workspace, report: &mut Report) -> Result<(), String> {
    let counts = alloc_counts(ws);
    report.alloc_counts = counts.clone();
    if counts.is_empty() {
        return Ok(());
    }
    for &(_, prefix, _) in ALLOC_BUDGET_AREAS {
        report
            .alloc_sites
            .extend(attributed_sites(ws, prefix, ALLOC_TOKENS, "A1"));
    }
    // Record honored escapes.
    for &(_, prefix, _) in ALLOC_BUDGET_AREAS {
        let escapes: Vec<(String, usize)> = ws
            .sources_under(prefix)
            .flat_map(|file| {
                file.lines.iter().enumerate().filter_map(|(idx, line)| {
                    let is_alloc_line = ALLOC_TOKENS.iter().any(|t| count_token(&line.code, t) > 0);
                    (!line.in_test && is_alloc_line && line.allows.iter().any(|a| a == "A1"))
                        .then(|| (file.rel.clone(), idx + 1))
                })
            })
            .collect();
        for (file, line) in escapes {
            report.allows.push(AllowUse {
                rule: "A1".to_string(),
                file,
                line,
            });
        }
    }

    let Some(baseline) = Baseline::load(&ws.root)? else {
        return Ok(());
    };
    for (name, &count) in &counts {
        let report_file = ALLOC_BUDGET_AREAS
            .iter()
            .find(|(key, _, _)| key == name)
            .map(|&(_, _, f)| f)
            .unwrap_or(BASELINE_FILE);
        match baseline.alloc_budgets.get(name) {
            None => report.findings.push(Finding {
                rule: "A1",
                file: BASELINE_FILE.to_string(),
                line: 0,
                message: format!(
                    "area `{name}` has no alloc budget entry (current count: {count}); \
                     run `gfw-lint --bless`"
                ),
            }),
            Some(&budget) if count > budget => report.findings.push(Finding {
                rule: "A1",
                file: report_file.to_string(),
                line: 1,
                message: format!(
                    "area `{name}` has {count} heap-allocation sites (`.to_vec()` / \
                     `Vec::new()` / `.clone()`) in non-test code, over its budget of \
                     {budget}; reuse scratch buffers on the hot path or raise the \
                     budget by hand in {BASELINE_FILE}"
                ),
            }),
            _ => {}
        }
    }
    Ok(())
}

/// C1: protocol constants agree across `sscrypto::method`,
/// `core::probe` and `shadowsocks::wire`.
pub fn c1_protocol_constants(ws: &Workspace, report: &mut Report) {
    let method_rel = "crates/sscrypto/src/method.rs";
    let Some(method) = ws.sources.get(method_rel) else {
        return; // nothing to cross-check in this tree
    };

    // 1. Parse the `iv_len` match arms and compare against the paper.
    let Some(arms) = parse_iv_len_arms(method) else {
        report.findings.push(Finding {
            rule: "C1",
            file: method_rel.to_string(),
            line: 1,
            message: "could not locate `fn iv_len` match arms to cross-check".to_string(),
        });
        return;
    };
    let mut declared: Vec<(&str, usize)> = Vec::new(); // (variant, declared len)
    for &(variant, want) in IV_EXPECT {
        let token = format!("Method::{variant}");
        match arms.iter().find(|(pat, _, _)| has_token(pat, &token)) {
            None => report.findings.push(Finding {
                rule: "C1",
                file: method_rel.to_string(),
                line: 1,
                message: format!("no `iv_len` arm covers `Method::{variant}`"),
            }),
            Some(&(_, got, line)) => {
                declared.push((variant, got));
                if got != want {
                    let kind = if AEAD_VARIANTS.contains(&variant) {
                        "salt"
                    } else {
                        "IV"
                    };
                    report.findings.push(Finding {
                        rule: "C1",
                        file: method_rel.to_string(),
                        line,
                        message: format!(
                            "`Method::{variant}` declares a {got}-byte {kind}; the paper's \
                             Fig 10 table requires {want} bytes"
                        ),
                    });
                }
            }
        }
    }
    let stream_ivs: Vec<usize> = dedup_sorted(
        declared
            .iter()
            .filter(|(v, _)| !AEAD_VARIANTS.contains(v))
            .map(|&(_, l)| l),
    );
    let aead_salts: Vec<usize> = dedup_sorted(
        declared
            .iter()
            .filter(|(v, _)| AEAD_VARIANTS.contains(v))
            .map(|&(_, l)| l),
    );

    // 2. The probe sweep in core::probe must cover those lengths.
    let probe_rel = "crates/core/src/probe.rs";
    if let Some(probe) = ws.sources.get(probe_rel) {
        match parse_array_const(probe, "NR1_CENTERS") {
            None => report.findings.push(Finding {
                rule: "C1",
                file: probe_rel.to_string(),
                line: 1,
                message: "could not parse `NR1_CENTERS` to cross-check probe lengths".to_string(),
            }),
            Some((centers, line)) => {
                for &iv in &stream_ivs {
                    if !centers.contains(&iv) {
                        report.findings.push(Finding {
                            rule: "C1",
                            file: probe_rel.to_string(),
                            line,
                            message: format!(
                                "probe sweep `NR1_CENTERS` misses the {iv}-byte stream IV \
                                 length declared by sscrypto::method"
                            ),
                        });
                    }
                }
                for &salt in &aead_salts {
                    let center = salt + AEAD_CENTER_OFFSET;
                    if !centers.contains(&center) {
                        report.findings.push(Finding {
                            rule: "C1",
                            file: probe_rel.to_string(),
                            line,
                            message: format!(
                                "probe sweep `NR1_CENTERS` misses {center} \
                                 (salt {salt} + {AEAD_CENTER_OFFSET}) for the AEAD salt \
                                 declared by sscrypto::method"
                            ),
                        });
                    }
                }
            }
        }
        match parse_int_const(probe, "NR2_LEN") {
            None => report.findings.push(Finding {
                rule: "C1",
                file: probe_rel.to_string(),
                line: 1,
                message: "could not parse `NR2_LEN` to cross-check probe lengths".to_string(),
            }),
            Some((nr2, line)) => {
                if let Some(&max_salt) = aead_salts.iter().max() {
                    let need = max_salt + AEAD_THRESHOLD_OFFSET;
                    if nr2 <= need {
                        report.findings.push(Finding {
                            rule: "C1",
                            file: probe_rel.to_string(),
                            line,
                            message: format!(
                                "`NR2_LEN` = {nr2} does not exceed the largest AEAD decrypt \
                                 threshold salt+{AEAD_THRESHOLD_OFFSET} = {need}; long probes \
                                 would never trigger the threshold reaction"
                            ),
                        });
                    }
                }
            }
        }
    }

    // 3. The wire framing must derive salt lengths from Method::iv_len.
    let wire_rel = "crates/shadowsocks/src/wire.rs";
    if let Some(wire) = ws.sources.get(wire_rel) {
        let iv_len_refs: usize = wire
            .lines
            .iter()
            .map(|l| count_token(&l.code, ".iv_len()"))
            .sum();
        if iv_len_refs < 2 {
            report.findings.push(Finding {
                rule: "C1",
                file: wire_rel.to_string(),
                line: 1,
                message: format!(
                    "expected both wire constructions to take their IV/salt length from \
                     `Method::iv_len()` (found {iv_len_refs} reference(s)); hardcoded \
                     lengths drift from sscrypto::method"
                ),
            });
        }
        let has_salt_guard = wire
            .lines
            .iter()
            .any(|l| l.code.contains("salt.len()") && l.code.contains(".iv_len()"));
        if !has_salt_guard {
            report.findings.push(Finding {
                rule: "C1",
                file: wire_rel.to_string(),
                line: 1,
                message: "missing the salt-length guard coupling `salt.len()` to \
                          `Method::iv_len()`"
                    .to_string(),
            });
        }
    }
}

/// H1: member Cargo.toml dependencies must all be `workspace = true`.
pub fn h1_workspace_deps(ws: &Workspace, report: &mut Report) -> Result<(), String> {
    let mut manifests: Vec<(String, std::path::PathBuf)> = Vec::new();
    let root_manifest = ws.root.join("Cargo.toml");
    if root_manifest.is_file() {
        manifests.push(("Cargo.toml".to_string(), root_manifest));
    }
    for c in &ws.crates {
        manifests.push((
            format!("crates/{}/Cargo.toml", c.name),
            c.path.join("Cargo.toml"),
        ));
    }
    for (rel, path) in manifests {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        report.files_scanned += 1;
        h1_check_manifest(&rel, &text, report);
    }
    Ok(())
}

/// Check one manifest's dependency sections.
fn h1_check_manifest(rel: &str, text: &str, report: &mut Report) {
    #[derive(PartialEq)]
    enum Section {
        Other,
        Deps,
        /// `[dependencies.foo]` subtable: must contain `workspace = true`.
        DepSubtable {
            header_line: usize,
            name: String,
            satisfied: bool,
        },
    }
    let mut section = Section::Other;
    let flush = |section: &mut Section, report: &mut Report| {
        if let Section::DepSubtable {
            header_line,
            name,
            satisfied: false,
        } = section
        {
            report.findings.push(Finding {
                rule: "H1",
                file: rel.to_string(),
                line: *header_line,
                message: format!(
                    "dependency `{name}` does not use `workspace = true`; versions \
                     belong in the root [workspace.dependencies]"
                ),
            });
        }
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let has_allow = raw.contains("gfwlint: allow(H1)");
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut section, report);
            let name = line.trim_matches(['[', ']']);
            section = if name == "workspace.dependencies"
                || name.starts_with("workspace.dependencies.")
            {
                Section::Other
            } else if is_dep_section(name) {
                Section::Deps
            } else if let Some((table, dep)) = name.rsplit_once('.') {
                if is_dep_section(table) {
                    Section::DepSubtable {
                        header_line: idx + 1,
                        name: dep.to_string(),
                        satisfied: false,
                    }
                } else {
                    Section::Other
                }
            } else {
                Section::Other
            };
            continue;
        }
        match &mut section {
            Section::Other => {}
            Section::DepSubtable { satisfied, .. } => {
                if line.replace(' ', "") == "workspace=true" {
                    *satisfied = true;
                }
            }
            Section::Deps => {
                let Some((key, _value)) = line.split_once('=') else {
                    continue;
                };
                let key = key.trim();
                let ok = key.ends_with(".workspace") && line.replace(' ', "").ends_with("=true")
                    || line.contains("workspace = true");
                if !ok {
                    let dep = key.split('.').next().unwrap_or(key);
                    if has_allow {
                        report.allows.push(AllowUse {
                            rule: "H1".to_string(),
                            file: rel.to_string(),
                            line: idx + 1,
                        });
                        continue;
                    }
                    report.findings.push(Finding {
                        rule: "H1",
                        file: rel.to_string(),
                        line: idx + 1,
                        message: format!(
                            "dependency `{dep}` does not use `workspace = true`; versions \
                             belong in the root [workspace.dependencies]"
                        ),
                    });
                }
            }
        }
    }
    flush(&mut section, report);
}

fn is_dep_section(name: &str) -> bool {
    matches!(
        name,
        "dependencies" | "dev-dependencies" | "build-dependencies"
    ) || (name.starts_with("target.") && name.ends_with("dependencies"))
}

/// Count non-overlapping occurrences of `token` in `code`.
pub fn count_token(code: &str, token: &str) -> usize {
    let mut count = 0;
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        count += 1;
        start += pos + token.len();
    }
    count
}

fn dedup_sorted(iter: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut v: Vec<usize> = iter.collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Extract the `(pattern, value, line)` arms of the `fn iv_len` match.
fn parse_iv_len_arms(file: &SourceFile) -> Option<Vec<(String, usize, usize)>> {
    let start = file
        .lines
        .iter()
        .position(|l| l.code.contains("fn iv_len"))?;
    // Capture the body of the function by brace counting.
    let mut depth = 0i32;
    let mut opened = false;
    let mut body: Vec<(usize, String)> = Vec::new(); // (line idx, code)
    'outer: for (idx, line) in file.lines.iter().enumerate().skip(start) {
        let mut kept = String::new();
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        body.push((idx, kept));
                        break 'outer;
                    }
                }
                _ => {
                    if opened {
                        kept.push(c);
                    }
                }
            }
        }
        if opened {
            body.push((idx, kept));
        }
    }
    if body.is_empty() {
        return None;
    }
    let mut arms = Vec::new();
    let mut pattern = String::new();
    for (idx, code) in body {
        if let Some((before, after)) = code.split_once("=>") {
            pattern.push(' ');
            pattern.push_str(before);
            let digits: String = after
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(value) = digits.parse::<usize>() {
                arms.push((std::mem::take(&mut pattern), value, idx + 1));
            } else {
                pattern.clear();
            }
        } else {
            pattern.push(' ');
            pattern.push_str(&code);
        }
    }
    Some(arms)
}

/// Parse `NAME ... = [a, b, c]`, which may span lines. Returns the
/// values and the 1-based line of the `NAME` token.
fn parse_array_const(file: &SourceFile, name: &str) -> Option<(Vec<usize>, usize)> {
    let start = file.lines.iter().position(|l| has_token(&l.code, name))?;
    // Accumulate lines until a `]` shows up after the `=`, so the
    // `[usize; N]` type annotation is not mistaken for the initializer.
    let mut text = String::new();
    for line in &file.lines[start..] {
        text.push_str(&line.code);
        text.push(' ');
        if let Some(eq) = text.find('=') {
            if text[eq..].contains(']') {
                break;
            }
        }
    }
    let eq = text.find('=')?;
    let open = text[eq..].find('[')? + eq;
    let close = text[open..].find(']')? + open;
    let mut values = Vec::new();
    for part in text[open + 1..close].split(',') {
        let digits: String = part
            .trim()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if !digits.is_empty() {
            values.push(digits.parse().ok()?);
        }
    }
    Some((values, start + 1))
}

/// Parse `NAME ... = <int>`. Returns the value and 1-based line.
fn parse_int_const(file: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let idx = file
        .lines
        .iter()
        .position(|l| has_token(&l.code, name) && l.code.contains('='))?;
    let code = &file.lines[idx].code;
    let after = &code[code.find('=')? + 1..];
    let digits: String = after
        .trim()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    Some((digits.parse().ok()?, idx + 1))
}

// ---------------------------------------------------------------------------
// U1: unsafe audit.

/// Count non-test `unsafe` sites (blocks, fns, impls) per crate. Crates
/// with zero sites are omitted — the `[unsafe-budget]` table only lists
/// crates that actually carry unsafe code.
pub fn unsafe_counts(ws: &Workspace) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for c in &ws.crates {
        let prefix = format!("crates/{}/src/", c.name);
        let count: usize = ws
            .sources_under(&prefix)
            .map(|f| f.items.unsafe_sites.iter().filter(|u| !u.in_test).count())
            .sum();
        if count > 0 {
            counts.insert(c.name.clone(), count);
        }
    }
    counts
}

/// Does the unsafe site at 1-based `line` have an adjacent `// SAFETY:`
/// comment — trailing on the same line, or on the contiguous run of
/// comment-only lines directly above?
fn has_safety_comment(file: &SourceFile, line: usize) -> bool {
    let idx = line - 1;
    if file
        .lines
        .get(idx)
        .is_some_and(|l| l.comment.contains("SAFETY:"))
    {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &file.lines[i];
        if !l.code.trim().is_empty() {
            // An attribute line between the comment and the site is
            // fine; real code is not.
            if l.code.trim_start().starts_with("#[") {
                continue;
            }
            return false;
        }
        if l.comment.contains("SAFETY:") {
            return true;
        }
        if l.comment.trim().is_empty() && l.raw.trim().is_empty() {
            return false; // blank line breaks adjacency
        }
    }
    false
}

/// U1: every non-test `unsafe` site needs a `// SAFETY:` comment, and
/// per-crate site counts stay within `[unsafe-budget]` (ratchet-down).
///
/// This exists *ahead* of the ROADMAP-4 SIMD work on purpose: the first
/// `unsafe` block to land in `sscrypto` arrives into a workspace where
/// the audit discipline is already enforced, not retrofitted.
pub fn u1_unsafe_audit(ws: &Workspace, report: &mut Report) -> Result<(), String> {
    let counts = unsafe_counts(ws);
    report.unsafe_counts = counts.clone();

    // Per-site SAFETY comments.
    for c in &ws.crates {
        let prefix = format!("crates/{}/src/", c.name);
        let rels: Vec<String> = ws.sources_under(&prefix).map(|f| f.rel.clone()).collect();
        for rel in rels {
            let file = &ws.sources[&rel];
            let missing: Vec<(usize, UnsafeKind)> = file
                .items
                .unsafe_sites
                .iter()
                .filter(|u| !u.in_test && !has_safety_comment(file, u.line))
                .map(|u| (u.line, u.kind))
                .collect();
            for (line, kind) in missing {
                if allowed(report, "U1", &ws.sources[&rel], line - 1) {
                    continue;
                }
                let what = match kind {
                    UnsafeKind::Block => "unsafe block",
                    UnsafeKind::Fn => "unsafe fn",
                    UnsafeKind::Impl => "unsafe impl",
                };
                report.findings.push(Finding {
                    rule: "U1",
                    file: rel.clone(),
                    line,
                    message: format!(
                        "{what} without an adjacent `// SAFETY:` comment; state the \
                         invariant that makes this sound (same line or the comment \
                         block directly above)"
                    ),
                });
            }
        }
    }

    // Per-crate budgets.
    if counts.is_empty() {
        return Ok(());
    }
    let Some(baseline) = Baseline::load(&ws.root)? else {
        return Ok(()); // P1 already reports the missing baseline file
    };
    for (name, &count) in &counts {
        match baseline.unsafe_budgets.get(name) {
            None => report.findings.push(Finding {
                rule: "U1",
                file: BASELINE_FILE.to_string(),
                line: 0,
                message: format!(
                    "crate `{name}` has {count} unsafe site(s) but no [unsafe-budget] \
                     entry; add one by hand, then `gfw-lint --bless`"
                ),
            }),
            Some(&budget) if count > budget => report.findings.push(Finding {
                rule: "U1",
                file: format!("crates/{name}/src/lib.rs"),
                line: 1,
                message: format!(
                    "crate `{name}` has {count} unsafe site(s) in non-test code, over \
                     its budget of {budget}; remove some or raise the budget by hand \
                     in {BASELINE_FILE}"
                ),
            }),
            _ => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// W1: wrapping-arithmetic discipline on the hot path.

/// The designated hot-path modules: release builds wrap silently here,
/// and these run millions of iterations per simulated experiment.
pub const W1_HOT_PATHS: &[&str] = &[
    "crates/sscrypto/src/",
    "crates/analysis/src/entropy.rs",
    "crates/analysis/src/simd.rs",
    "crates/netsim/src/eventq.rs",
    "crates/netsim/src/flow.rs",
    "crates/core/src/passive.rs",
    "crates/shadowsocks/src/wire.rs",
    "crates/trafficgen/src/profiles.rs",
];

/// Is `ty` text a float type?
fn is_float_type(ty: &str) -> bool {
    let t = ty.trim().trim_start_matches('&').trim();
    t.starts_with("f32") || t.starts_with("f64")
}

/// W1: in hot-path non-test functions, bare `+`/`*`/`<<` (and their
/// `=`-compounds) where an operand is an integral-typed parameter or
/// `self` field must be spelled `wrapping_*` / `checked_*` /
/// `saturating_*` or carry an allow.
///
/// The operand filter is the rule's precision lever: arithmetic on
/// locals, constants and floats is never flagged — only integer state
/// that *crosses the function boundary* (params, fields), which is
/// exactly the state that accumulates across calls and overflows after
/// the millionth packet instead of in the unit test.
pub fn w1_wrapping_audit(ws: &Workspace, report: &mut Report) {
    let mut rels: Vec<String> = Vec::new();
    for prefix in W1_HOT_PATHS {
        for f in ws.sources_under(prefix) {
            if !rels.contains(&f.rel) {
                rels.push(f.rel.clone());
            }
        }
    }
    rels.sort();
    for rel in rels {
        let file = &ws.sources[&rel];
        let hits = w1_scan_file(file);
        for (line, op, operand, ty) in hits {
            if allowed(report, "W1", &ws.sources[&rel], line - 1) {
                continue;
            }
            let alt = match op {
                "+" | "+=" => "wrapping_add / checked_add / saturating_add",
                "*" | "*=" => "wrapping_mul / checked_mul / saturating_mul",
                _ => "wrapping_shl / checked_shl",
            };
            report.findings.push(Finding {
                rule: "W1",
                file: rel.clone(),
                line,
                message: format!(
                    "bare `{op}` on hot-path integer state `{operand}` ({ty}) crossing \
                     a function boundary; in release builds this wraps silently — say \
                     what you mean ({alt}) or justify with `// gfwlint: allow(W1)`"
                ),
            });
        }
    }
}

/// Scan one file's non-test fn bodies for W1 hits:
/// `(line, op, operand, operand type)`.
fn w1_scan_file(file: &SourceFile) -> Vec<(usize, &'static str, String, String)> {
    let mut hits = Vec::new();
    let src = &file.text;
    // Significant token indices across the file; per-fn filtering below.
    let sig: Vec<usize> = (0..file.toks.len())
        .filter(|&i| !file.toks[i].is_trivia())
        .collect();
    for f in &file.items.fns {
        if f.in_test || f.body.is_empty() {
            continue;
        }
        let int_params: BTreeMap<&str, &str> = f
            .params
            .iter()
            .filter(|(_, ty)| is_int_type(ty))
            .map(|(n, ty)| (n.as_str(), ty.as_str()))
            .collect();
        let float_params: Vec<&str> = f
            .params
            .iter()
            .filter(|(_, ty)| is_float_type(ty))
            .map(|(n, _)| n.as_str())
            .collect();
        // Positions (into `sig`) of this fn's body tokens.
        let body: Vec<usize> = sig
            .iter()
            .enumerate()
            .filter(|&(_, &ti)| f.body.contains(&ti))
            .map(|(si, _)| si)
            .collect();
        let (Some(&first), Some(&last)) = (body.first(), body.last()) else {
            continue;
        };
        let mut si = first;
        while si <= last {
            let ti = sig[si];
            let tok = &file.toks[ti];
            let (op, width): (&'static str, usize) = match tok.kind {
                TokKind::Punct('+') => {
                    if adjacent(file, &sig, si, '=') {
                        ("+=", 2)
                    } else {
                        ("+", 1)
                    }
                }
                TokKind::Punct('*') => {
                    // Binary only: previous significant token must be a
                    // value-ending token, not `(`/`,`/`=`/… (deref) or
                    // `*const`/`*mut` (raw pointer types).
                    let prev_ok = si > 0
                        && matches!(
                            file.toks[sig[si - 1]].kind,
                            TokKind::Ident
                                | TokKind::Int
                                | TokKind::Float
                                | TokKind::Punct(')')
                                | TokKind::Punct(']')
                        );
                    if !prev_ok {
                        si += 1;
                        continue;
                    }
                    if adjacent(file, &sig, si, '=') {
                        ("*=", 2)
                    } else {
                        ("*", 1)
                    }
                }
                TokKind::Punct('<') => {
                    // `<<` = two adjacent `<`; `<<=` when a `=` follows.
                    if !adjacent(file, &sig, si, '<') {
                        si += 1;
                        continue;
                    }
                    if adjacent(file, &sig, si + 1, '=') {
                        ("<<=", 3)
                    } else {
                        ("<<", 2)
                    }
                }
                _ => {
                    si += 1;
                    continue;
                }
            };

            // Resolve operands. For compounds only the LHS is state.
            let left = operand_left(file, src, &sig, si);
            let right = if op.ends_with('=') {
                None
            } else {
                operand_right(file, src, &sig, si + width - 1)
            };
            let mut float_involved = matches!(right, Some(Operand::FloatLit));
            let mut flagged: Option<(String, String)> = None;
            for opnd in [&left, &right] {
                match opnd {
                    Some(Operand::Chain(chain)) => {
                        if let Some(base) = chain.strip_prefix("self.") {
                            if let Some(ty) = file.items.int_fields.get(base) {
                                flagged = Some((chain.clone(), ty.clone()));
                            }
                        } else if let Some(ty) = int_params.get(chain.as_str()) {
                            flagged = Some((chain.clone(), ty.to_string()));
                        } else if float_params.contains(&chain.as_str()) {
                            float_involved = true;
                        }
                    }
                    Some(Operand::FloatLit) => float_involved = true,
                    _ => {}
                }
            }
            if !float_involved {
                if let Some((operand, ty)) = flagged {
                    hits.push((tok.line, op, operand, ty));
                }
            }
            si += width.max(1);
        }
    }
    hits.sort();
    hits.dedup();
    hits
}

/// Is the significant token after `si` the punct `c`, with no gap in
/// the source (so `+ =` never reads as `+=`)?
fn adjacent(file: &SourceFile, sig: &[usize], si: usize, c: char) -> bool {
    let (Some(&a), Some(&b)) = (sig.get(si), sig.get(si + 1)) else {
        return false;
    };
    file.toks[b].kind == TokKind::Punct(c) && file.toks[a].end == file.toks[b].start
}

enum Operand {
    /// `name` or `self.field` (the resolvable shapes).
    Chain(String),
    /// A float literal: the whole expression is float arithmetic.
    FloatLit,
    /// Anything else (unresolved).
    Other,
}

/// Resolve the operand ending just before the op at `sig[si]`.
fn operand_left(file: &SourceFile, src: &str, sig: &[usize], si: usize) -> Option<Operand> {
    if si == 0 {
        return None;
    }
    let t = &file.toks[sig[si - 1]];
    match t.kind {
        TokKind::Float => Some(Operand::FloatLit),
        TokKind::Int => Some(Operand::Other),
        TokKind::Ident => {
            let name = t.text(src);
            // `self.field` / `x.y` chains: look two tokens further back.
            if si >= 3
                && file.toks[sig[si - 2]].kind == TokKind::Punct('.')
                && file.toks[sig[si - 3]].kind == TokKind::Ident
            {
                let base = file.toks[sig[si - 3]].text(src);
                // Only single-step chains resolve; deeper ones are Other.
                let prev_prev_dot = si >= 4 && file.toks[sig[si - 4]].kind == TokKind::Punct('.');
                if prev_prev_dot {
                    return Some(Operand::Other);
                }
                return Some(Operand::Chain(format!("{base}.{name}")));
            }
            // A bare ident, not itself a field of something else.
            Some(Operand::Chain(name.to_string()))
        }
        _ => Some(Operand::Other),
    }
}

/// Resolve the operand starting just after the op at `sig[si]`.
fn operand_right(file: &SourceFile, src: &str, sig: &[usize], si: usize) -> Option<Operand> {
    let t = &file.toks[*sig.get(si + 1)?];
    match t.kind {
        TokKind::Float => Some(Operand::FloatLit),
        TokKind::Int => Some(Operand::Other),
        TokKind::Ident => {
            let name = t.text(src);
            if name == "self" {
                // `self.field` on the right.
                if let (Some(&d), Some(&f)) = (sig.get(si + 2), sig.get(si + 3)) {
                    if file.toks[d].kind == TokKind::Punct('.')
                        && file.toks[f].kind == TokKind::Ident
                    {
                        return Some(Operand::Chain(format!("self.{}", file.toks[f].text(src))));
                    }
                }
                return Some(Operand::Other);
            }
            // `name.method()` chains on the right stay unresolved
            // unless it's a plain ident followed by a non-`.` token.
            if sig
                .get(si + 2)
                .is_some_and(|&d| file.toks[d].kind == TokKind::Punct('.'))
            {
                return Some(Operand::Other);
            }
            Some(Operand::Chain(name.to_string()))
        }
        _ => Some(Operand::Other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_token_counts() {
        assert_eq!(count_token("a.unwrap().unwrap()", ".unwrap()"), 2);
        assert_eq!(count_token("no panics here", "panic!"), 0);
    }

    #[test]
    fn iv_len_arm_parser() {
        let src = "impl Method {\n    pub fn iv_len(&self) -> usize {\n        match self {\n            Method::ChaCha20 => 8,\n            Method::A\n            | Method::B => 16,\n            Method::ChaCha20Ietf => 12,\n        }\n    }\n}\n";
        let f = SourceFile::scan("m.rs", src);
        let arms = parse_iv_len_arms(&f).unwrap();
        assert_eq!(arms.len(), 3);
        assert!(has_token(&arms[0].0, "Method::ChaCha20"));
        assert_eq!(arms[0].1, 8);
        assert_eq!(arms[0].2, 4);
        assert!(has_token(&arms[1].0, "Method::B"));
        assert_eq!(arms[1].1, 16);
        assert_eq!(arms[2].1, 12);
    }

    #[test]
    fn array_and_int_consts() {
        let src = "/// doc\npub const NR1_CENTERS: [usize; 3] = [8,\n    12, 16];\npub const NR2_LEN: usize = 221;\n";
        let f = SourceFile::scan("p.rs", src);
        let (vals, line) = parse_array_const(&f, "NR1_CENTERS").unwrap();
        assert_eq!(vals, vec![8, 12, 16]);
        assert_eq!(line, 2);
        let (v, line) = parse_int_const(&f, "NR2_LEN").unwrap();
        assert_eq!(v, 221);
        assert_eq!(line, 4);
    }

    #[test]
    fn h1_manifest_check() {
        let mut report = Report::default();
        let toml = "[package]\nname = \"x\"\n\n[dependencies]\ngood.workspace = true\nalso = { workspace = true, features = [\"y\"] }\nbad = \"1.0\"\npathdep = { path = \"../other\" }\n\n[dev-dependencies]\nok.workspace = true\n";
        h1_check_manifest("crates/x/Cargo.toml", toml, &mut report);
        let deps: Vec<&str> = report
            .findings
            .iter()
            .map(|f| {
                assert_eq!(f.rule, "H1");
                f.message.split('`').nth(1).unwrap()
            })
            .collect();
        assert_eq!(deps, vec!["bad", "pathdep"]);
        assert_eq!(report.findings[0].line, 7);
    }

    #[test]
    fn h1_subtable_and_allow() {
        let mut report = Report::default();
        let toml = "[dependencies.foo]\nversion = \"1\"\n\n[dependencies]\nlegacy = \"0.1\" # gfwlint: allow(H1)\n";
        h1_check_manifest("Cargo.toml", toml, &mut report);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("`foo`"));
        assert_eq!(report.allows.len(), 1);
        assert_eq!(report.allows[0].line, 5);
    }

    #[test]
    fn h1_workspace_dependencies_exempt() {
        let mut report = Report::default();
        let toml = "[workspace.dependencies]\nrand = { path = \"vendor/rand\" }\nserde = { path = \"vendor/serde\", features = [\"derive\"] }\n";
        h1_check_manifest("Cargo.toml", toml, &mut report);
        assert!(report.findings.is_empty());
    }
}
