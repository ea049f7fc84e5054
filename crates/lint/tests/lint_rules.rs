//! End-to-end rule tests against the fixture workspaces under
//! `tests/fixtures/`, asserting exact rule IDs and `file:line` spans.

use gfw_lint::report::{render_human, render_json};
use gfw_lint::{bless, fix::fix, run, Options, Report};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Report {
    run(&Options {
        root: fixture_root(name),
    })
    .expect("lint run failed")
}

/// `(rule, file, line)` triples in report order.
fn spans(report: &Report) -> Vec<(&str, &str, usize)> {
    report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect()
}

/// Recursively copy a fixture into a scratch dir so `--fix` / `--bless`
/// can mutate it.
fn copy_to_temp(name: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!("gfwlint-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    copy_tree(&fixture_root(name), &dst).expect("fixture copy failed");
    dst
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

#[test]
fn clean_fixture_is_clean() {
    let report = lint_fixture("clean");
    assert!(
        report.is_clean(),
        "expected clean, got:\n{}",
        render_human(&report)
    );
    // The one D1 escape in core/src/lib.rs is honored and reported.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "D1");
    assert_eq!(report.allows[0].file, "crates/core/src/lib.rs");
    assert_eq!(report.allows[0].line, 10);
    // Panic counts reflect the single budgeted unwrap in probe.rs.
    assert_eq!(report.panic_counts.get("core"), Some(&1));
    assert_eq!(report.panic_counts.get("sscrypto"), Some(&0));
    // Alloc counts cover both hot-path areas, allocation-free here.
    assert_eq!(report.alloc_counts.get("sscrypto"), Some(&0));
    assert_eq!(report.alloc_counts.get("shadowsocks-wire"), Some(&0));
}

#[test]
fn d1_flags_thread_rng_and_wall_clock_in_scheduler() {
    // ISSUE acceptance: seeding a `thread_rng()` call into a
    // scheduler.rs-like file in a sim crate must fail the lint.
    let report = lint_fixture("d1_thread_rng");
    assert_eq!(
        spans(&report),
        vec![
            ("D1", "crates/core/src/scheduler.rs", 3),
            ("D1", "crates/core/src/scheduler.rs", 8),
            ("D1", "crates/core/src/scheduler.rs", 14),
        ],
        "got:\n{}",
        render_human(&report)
    );
    assert!(report.findings[0].message.contains("`thread_rng`"));
    assert!(report.findings[2].message.contains("`SystemTime::now`"));
}

#[test]
fn d2_flags_missing_crate_attributes() {
    let report = lint_fixture("d2_missing_attrs");
    assert_eq!(
        spans(&report),
        vec![
            ("D2", "crates/noattrs/src/lib.rs", 1),
            ("D2", "crates/noattrs/src/lib.rs", 1),
        ]
    );
    assert!(report.findings[0]
        .message
        .contains("#![forbid(unsafe_code)]"));
    assert!(report.findings[1]
        .message
        .contains("#![warn(missing_docs)]"));
}

#[test]
fn p1_flags_count_over_budget() {
    let report = lint_fixture("p1_over_budget");
    assert_eq!(spans(&report), vec![("P1", "crates/core/src/lib.rs", 1)]);
    let msg = &report.findings[0].message;
    assert!(msg.contains("2 explicit panic sites"), "message: {msg}");
    assert!(msg.contains("budget of 1"), "message: {msg}");
    // The unwraps inside #[cfg(test)] are not counted.
    assert_eq!(report.panic_counts.get("core"), Some(&2));
}

#[test]
fn a1_flags_alloc_count_over_budget() {
    // ISSUE acceptance: the crypto hot path exceeding its allocation
    // budget must fail the lint; escapes and test code do not count.
    let report = lint_fixture("a1_over_budget");
    assert_eq!(
        spans(&report),
        vec![("A1", "crates/sscrypto/src/lib.rs", 1)],
        "got:\n{}",
        render_human(&report)
    );
    let msg = &report.findings[0].message;
    assert!(msg.contains("2 heap-allocation sites"), "message: {msg}");
    assert!(msg.contains("budget of 1"), "message: {msg}");
    // The wire area's one allocation is within its budget of 1.
    assert_eq!(report.alloc_counts.get("shadowsocks-wire"), Some(&1));
    assert_eq!(report.alloc_counts.get("sscrypto"), Some(&2));
    // The waived diagnostic copy's escape is honored, not counted.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "A1");
    assert_eq!(report.allows[0].file, "crates/sscrypto/src/lib.rs");
    assert_eq!(report.allows[0].line, 15);
}

#[test]
fn a1_bless_refuses_to_raise_alloc_budgets() {
    let root = copy_to_temp("a1_over_budget");
    let err = bless(&root).expect_err("bless should refuse to raise an alloc budget");
    assert!(err.contains("alloc sscrypto: 2 > 1"), "error: {err}");
    let text = std::fs::read_to_string(root.join("lint-baseline.toml")).unwrap();
    assert!(text.contains("sscrypto = 1"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn c1_flags_iv_drift_short_probe_and_hardcoded_wire() {
    // ISSUE acceptance: editing `Method::ChaCha20Ietf`'s IV length in a
    // method.rs-like file must fail the lint at the drifted arm.
    let report = lint_fixture("c1_iv_drift");
    assert_eq!(
        spans(&report),
        vec![
            ("C1", "crates/sscrypto/src/method.rs", 27),
            ("C1", "crates/core/src/probe.rs", 7),
            ("C1", "crates/shadowsocks/src/wire.rs", 1),
            ("C1", "crates/shadowsocks/src/wire.rs", 1),
        ],
        "got:\n{}",
        render_human(&report)
    );
    let drift = &report.findings[0].message;
    assert!(drift.contains("`Method::ChaCha20Ietf`"), "message: {drift}");
    assert!(drift.contains("16-byte IV"), "message: {drift}");
    assert!(drift.contains("requires 12"), "message: {drift}");
    assert!(report.findings[1].message.contains("`NR2_LEN` = 60"));
    assert!(report.findings[2].message.contains("0 reference(s)"));
    assert!(report.findings[3].message.contains("salt-length guard"));
}

#[test]
fn h1_flags_versioned_and_path_deps() {
    let report = lint_fixture("h1_version_dep");
    assert_eq!(
        spans(&report),
        vec![
            ("H1", "crates/app/Cargo.toml", 7),
            ("H1", "crates/app/Cargo.toml", 8),
        ]
    );
    assert!(report.findings[0].message.contains("`rand`"));
    assert!(report.findings[1].message.contains("`bytes`"));
}

#[test]
fn t1_flags_threads_outside_the_runner() {
    let report = lint_fixture("t1_thread_use");
    assert_eq!(
        spans(&report),
        vec![
            ("T1", "crates/netsim/src/pool.rs", 3),
            ("T1", "crates/netsim/src/pool.rs", 4),
            ("T1", "crates/netsim/src/pool.rs", 11),
            ("T1", "crates/netsim/src/shard.rs", 6),
        ],
        "got:\n{}",
        render_human(&report)
    );
    assert!(report.findings[0].message.contains("`std::thread`"));
    assert!(report.findings[1].message.contains("`std::sync::mpsc`"));
    assert!(report.findings[2].message.contains("`thread::spawn`"));
    assert!(report.findings[3].message.contains("`std::thread`"));
    // `experiments::runner` uses `std::thread::scope` and is the one
    // exempt file — no finding there; a thread executor inside netsim
    // is flagged like any other; the waived diagnostic helper's escape
    // is honored, not flagged.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.file.ends_with("runner.rs")),
        "exempt file flagged:\n{}",
        render_human(&report)
    );
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "T1");
    assert_eq!(report.allows[0].file, "crates/netsim/src/pool.rs");
    assert_eq!(report.allows[0].line, 22);
}

#[test]
fn t2_flags_heaps_outside_the_event_queue() {
    let report = lint_fixture("t2_heap_use");
    assert_eq!(
        spans(&report),
        vec![
            ("T2", "crates/netsim/src/sched.rs", 4),
            ("T2", "crates/netsim/src/sched.rs", 9),
        ],
        "got:\n{}",
        render_human(&report)
    );
    assert!(report.findings[0].message.contains("`BinaryHeap`"));
    assert!(report.findings[0].message.contains("netsim::eventq"));
    // The fixture's own `eventq.rs` keeps its overflow heap (path
    // exempt); the waived diagnostic helper's escape is honored.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "T2");
    assert_eq!(report.allows[0].file, "crates/netsim/src/sched.rs");
    assert_eq!(report.allows[0].line, 21);
}

#[test]
fn fix_inserts_missing_attributes() {
    let root = copy_to_temp("d2_missing_attrs");
    let opts = Options { root: root.clone() };
    let (applied, after) = fix(&opts).expect("fix failed");
    assert_eq!(applied.len(), 2);
    assert!(after.is_clean(), "after fix:\n{}", render_human(&after));
    let text = std::fs::read_to_string(root.join("crates/noattrs/src/lib.rs")).unwrap();
    assert!(text.contains("#![forbid(unsafe_code)]"));
    assert!(text.contains("#![warn(missing_docs)]"));
    // The doc header stays first.
    assert!(text.starts_with("//!"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fix_rewrites_only_workspace_defined_deps() {
    let root = copy_to_temp("h1_version_dep");
    let opts = Options { root: root.clone() };
    let (applied, after) = fix(&opts).expect("fix failed");
    // `rand` is defined in the root [workspace.dependencies]; `bytes`
    // is not, so its finding must be left for a human.
    assert_eq!(applied.len(), 1);
    assert!(applied[0].what.contains("`rand`"));
    assert_eq!(spans(&after), vec![("H1", "crates/app/Cargo.toml", 8)]);
    let text = std::fs::read_to_string(root.join("crates/app/Cargo.toml")).unwrap();
    assert!(text.contains("rand.workspace = true"));
    assert!(text.contains("bytes = { path = \"../bytes\" }"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bless_refuses_to_raise_budgets() {
    let root = copy_to_temp("p1_over_budget");
    let err = bless(&root).expect_err("bless should refuse to raise a budget");
    assert!(err.contains("core: 2 > 1"), "error: {err}");
    // The refusal must not touch the checked-in baseline.
    let text = std::fs::read_to_string(root.join("lint-baseline.toml")).unwrap();
    assert!(text.contains("core = 1"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bless_creates_missing_baseline() {
    let root = copy_to_temp("clean");
    std::fs::remove_file(root.join("lint-baseline.toml")).unwrap();
    let before = run(&Options { root: root.clone() }).unwrap();
    assert_eq!(spans(&before), vec![("P1", "lint-baseline.toml", 0)]);
    let summary = bless(&root).expect("bless failed");
    assert!(summary.contains("core = 1"), "summary: {summary}");
    let after = run(&Options { root: root.clone() }).unwrap();
    assert!(after.is_clean(), "after bless:\n{}", render_human(&after));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn json_output_carries_rules_spans_and_clean_flag() {
    let report = lint_fixture("d1_thread_rng");
    let json = render_json(&report);
    assert!(json.contains("\"rule\": \"D1\""));
    assert!(json.contains("\"file\": \"crates/core/src/scheduler.rs\""));
    assert!(json.contains("\"line\": 3"));
    assert!(json.contains("\"clean\": false"));
    let clean = render_json(&lint_fixture("clean"));
    assert!(clean.contains("\"clean\": true"));
    assert!(
        clean.contains("\"rule\": \"D1\""),
        "allows carry their rule"
    );
}

#[test]
fn real_workspace_is_clean() {
    // The repository itself must pass its own linter: this is the same
    // invariant ci.sh enforces.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&Options { root }).expect("lint run failed");
    assert!(
        report.is_clean(),
        "repository lint findings:\n{}",
        render_human(&report)
    );
}

#[test]
fn r1_flags_nondeterminism_reachable_from_the_simulator() {
    // ISSUE acceptance: a helper chain from an `impl Simulator` method
    // into a non-sim crate's wall-clock call must fail the lint, as
    // must hash-ordered map iteration in the simulator itself.
    let report = lint_fixture("r1_taint");
    assert_eq!(
        spans(&report),
        vec![
            ("R1", "crates/core/src/sim.rs", 15),
            ("R1", "crates/sscrypto/src/lib.rs", 8),
        ],
        "got:\n{}",
        render_human(&report)
    );
    let iter = &report.findings[0].message;
    assert!(
        iter.contains("iteration over hash-ordered `flows`"),
        "message: {iter}"
    );
    assert!(
        iter.contains("via core::Simulator::step"),
        "message: {iter}"
    );
    let clock = &report.findings[1].message;
    assert!(clock.contains("`SystemTime::now`"), "message: {clock}");
    assert!(
        clock.contains("via core::Simulator::step -> core::stamp_ms -> sscrypto::now_ms"),
        "taint chain must name every hop: {clock}"
    );
    // The `.values().sum()` line is order-neutral and not flagged; the
    // diagnostic-only `Instant::now` escape is honored.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "R1");
    assert_eq!(report.allows[0].file, "crates/sscrypto/src/lib.rs");
    assert_eq!(report.allows[0].line, 15);
}

#[test]
fn u1_flags_missing_safety_comments_and_budget_breaches() {
    let report = lint_fixture("u1_unsafe");
    assert_eq!(
        spans(&report),
        vec![
            ("U1", "crates/sscrypto/src/simd.rs", 13),
            ("U1", "lint-baseline.toml", 0),
            ("U1", "crates/sscrypto/src/lib.rs", 1),
        ],
        "got:\n{}",
        render_human(&report)
    );
    assert!(report.findings[0]
        .message
        .contains("unsafe fn without an adjacent `// SAFETY:`"));
    assert!(report.findings[1]
        .message
        .contains("no [unsafe-budget] entry"));
    assert!(report.findings[2].message.contains("over its budget of 2"));
    // Sites in #[cfg(test)] are not counted: 3 for sscrypto, not 4.
    assert_eq!(report.unsafe_counts.get("sscrypto"), Some(&3));
    assert_eq!(report.unsafe_counts.get("shadowsocks"), Some(&1));
    // The SAFETY-commented block and the waived block produce no
    // per-site findings; the waiver is honored.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "U1");
    assert_eq!(report.allows[0].file, "crates/sscrypto/src/simd.rs");
    assert_eq!(report.allows[0].line, 20);
}

#[test]
fn w1_flags_bare_ops_on_boundary_crossing_integer_state() {
    let report = lint_fixture("w1_overflow");
    assert_eq!(
        spans(&report),
        vec![
            ("W1", "crates/sscrypto/src/stream.rs", 14),
            ("W1", "crates/sscrypto/src/stream.rs", 15),
        ],
        "got:\n{}",
        render_human(&report)
    );
    let field = &report.findings[0].message;
    assert!(
        field.contains("`+=` on hot-path integer state `self.used` (u64)"),
        "message: {field}"
    );
    assert!(field.contains("wrapping_add"), "message: {field}");
    let param = &report.findings[1].message;
    assert!(
        param.contains("`*` on hot-path integer state `n` (u64)"),
        "message: {param}"
    );
    assert!(param.contains("wrapping_mul"), "message: {param}");
    // `wrapping_add` lines, f64 math and #[cfg(test)] code are not
    // flagged; the bounded-shift waiver is honored.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "W1");
    assert_eq!(report.allows[0].line, 19);
}

#[test]
fn cfg_test_regions_are_exact_for_nested_and_conjunctive_forms() {
    // Regression: panic sites inside a module nested under
    // `#[cfg(test)]`, after that nested module closes, and under
    // `#[cfg(all(test, ...))]` must all stay out of the P1 count.
    let report = lint_fixture("cfg_forms");
    assert!(
        report.is_clean(),
        "expected clean, got:\n{}",
        render_human(&report)
    );
    assert_eq!(report.panic_counts.get("core"), Some(&1));
}

#[test]
fn json_schema_keys_are_stable_and_ordered() {
    // The `--json` shape is consumed by CI tooling: the top-level key
    // set and order are a compatibility contract.
    let expected = [
        "\"findings\"",
        "\"allows\"",
        "\"panic_counts\"",
        "\"alloc_counts\"",
        "\"unsafe_counts\"",
        "\"panic_sites\"",
        "\"alloc_sites\"",
        "\"files_scanned\"",
        "\"clean\"",
    ];
    for fixture in ["clean", "u1_unsafe", "w1_overflow"] {
        let json = render_json(&lint_fixture(fixture));
        let mut last = 0usize;
        for key in &expected {
            let at = json
                .find(key)
                .unwrap_or_else(|| panic!("{fixture}: missing top-level key {key} in:\n{json}"));
            assert!(at > last, "{fixture}: key {key} out of order");
            last = at;
        }
    }
    // Budget sites carry their enclosing function for aggregation.
    let json = render_json(&lint_fixture("cfg_forms"));
    assert!(json.contains("\"function\": \"parse\""), "got:\n{json}");
}

#[test]
fn explain_covers_every_rule() {
    for rule in [
        "D1", "D2", "P1", "A1", "C1", "H1", "T1", "T2", "R1", "U1", "W1",
    ] {
        let text =
            gfw_lint::explain::explain(rule).unwrap_or_else(|| panic!("--explain {rule} missing"));
        assert!(text.contains(rule), "{rule}: {text}");
        assert!(text.len() > 80, "{rule} explanation too thin: {text}");
    }
    assert!(gfw_lint::explain::explain("Z9").is_none());
    assert!(gfw_lint::explain::index().contains("W1"));
}
