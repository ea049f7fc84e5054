//! End-to-end rule tests against the fixture workspaces under
//! `tests/fixtures/`, asserting exact rule IDs and `file:line` spans —
//! for gfw-lint's own rules, and for the clippy bans and workspace
//! lints that replaced its determinism, thread and heap rules.

use gfw_lint::report::{render_human, render_json};
use gfw_lint::{bless, run, Options, Report};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// Recursively copy a fixture into a scratch dir so `--bless` can
/// mutate it.
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
    // The one P1 escape in core/src/lib.rs is honored and reported.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "P1");
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
fn h1_flags_versioned_and_path_deps_and_a_package_without_lints() {
    let report = lint_fixture("h1_version_dep");
    assert_eq!(
        spans(&report),
        vec![
            ("H1", "crates/app/Cargo.toml", 7),
            ("H1", "crates/app/Cargo.toml", 8),
            ("H1", "crates/nolints/Cargo.toml", 1),
        ]
    );
    assert!(report.findings[0].message.contains("`rand`"));
    assert!(report.findings[1].message.contains("`bytes`"));
    // A member manifest with no `[lints]` table would leave the crate
    // outside `unsafe_code = forbid` and `missing_docs`.
    assert!(report.findings[2].message.contains("workspace lints"));
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
    let report = lint_fixture("h1_version_dep");
    let json = render_json(&report);
    assert!(json.contains("\"rule\": \"H1\""));
    assert!(json.contains("\"file\": \"crates/app/Cargo.toml\""));
    assert!(json.contains("\"line\": 7"));
    assert!(json.contains("\"clean\": false"));
    let clean = render_json(&lint_fixture("clean"));
    assert!(clean.contains("\"clean\": true"));
    assert!(
        clean.contains("\"rule\": \"P1\""),
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
fn r1_flags_hash_order_reachable_from_the_simulator() {
    // Hash-ordered iteration in the simulator itself, and in a helper
    // chain from an `impl Simulator` method into a non-sim crate, must
    // fail the lint.
    let report = lint_fixture("r1_taint");
    assert_eq!(
        spans(&report),
        vec![
            ("R1", "crates/core/src/sim.rs", 15),
            ("R1", "crates/sscrypto/src/lib.rs", 11),
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
    let helper = &report.findings[1].message;
    assert!(
        helper.contains("iteration over hash-ordered `slots`"),
        "message: {helper}"
    );
    assert!(
        helper.contains("via core::Simulator::step -> core::pick_slot -> sscrypto::first_slot"),
        "taint chain must name every hop: {helper}"
    );
    // The `.values().sum()` line is order-neutral and not flagged; the
    // diagnostic-only dump's escape is honored.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "R1");
    assert_eq!(report.allows[0].file, "crates/sscrypto/src/lib.rs");
    assert_eq!(report.allows[0].line, 18);
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
    for rule in ["P1", "A1", "C1", "H1", "R1", "U1", "W1"] {
        let text =
            gfw_lint::explain::explain(rule).unwrap_or_else(|| panic!("--explain {rule} missing"));
        assert!(text.contains(rule), "{rule}: {text}");
        assert!(text.len() > 80, "{rule} explanation too thin: {text}");
    }
    assert!(gfw_lint::explain::explain("Z9").is_none());
    assert!(gfw_lint::explain::index().contains("W1"));
}

#[test]
fn fix_flag_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_gfw-lint"))
        .arg("--fix")
        .output()
        .expect("cannot run gfw-lint");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--fix`"), "{stderr}");
}

/// `(file, line, "level: message")` of one clippy or rustc diagnostic.
type Diag = (String, usize, String);

/// Parse one `--message-format=short` line:
/// `path:line:col: warning: message` (or `error:`).
fn parse_short(line: &str) -> Option<Diag> {
    let mut parts = line.splitn(4, ':');
    let file = parts.next()?;
    let line_no = parts.next()?.parse().ok()?;
    let msg = parts.nth(1)?.trim_start();
    file.ends_with(".rs")
        .then(|| (file.to_string(), line_no, msg.to_string()))
}

/// The lines of `text` from the `header` line up to the next table.
fn toml_table(text: &str, header: &str) -> String {
    let mut lines = text.lines().skip_while(|l| l.trim() != header);
    let first = lines.next().unwrap_or_else(|| panic!("no {header} table"));
    let body = lines.take_while(|l| !l.starts_with('['));
    std::iter::once(first)
        .chain(body)
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Run clippy over a copy of the `clippy_bans` fixture workspace, with
/// the ban list read from the committed `clippy.toml` in `conf_dir`
/// (repo-relative) and the real root `[workspace.lints.rust]` table
/// appended to the fixture manifest, so the test checks the live
/// configuration rather than a copy. Diagnostics are deduplicated (a
/// lib and its test build both report) and sorted by file and line.
fn clippy_fixture(conf_dir: &str, cargo_args: &[&str]) -> Vec<Diag> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let ws = tmp.join(format!("clippy_bans-{}", conf_dir.replace('/', "-")));
    let _ = std::fs::remove_dir_all(&ws);
    copy_tree(&fixture_root("clippy_bans"), &ws).expect("fixture copy failed");
    let root_manifest = std::fs::read_to_string(repo.join("Cargo.toml")).unwrap();
    let mut manifest = std::fs::read_to_string(ws.join("Cargo.toml")).unwrap();
    manifest.push('\n');
    manifest.push_str(&toml_table(&root_manifest, "[workspace.lints.rust]"));
    std::fs::write(ws.join("Cargo.toml"), manifest).unwrap();

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(&ws)
        .env("CLIPPY_CONF_DIR", repo.join(conf_dir))
        .env("CARGO_TARGET_DIR", tmp.join("clippy_bans-target"))
        .args(["clippy", "--offline", "--quiet", "--keep-going"])
        .args(["--all-targets", "--message-format=short"])
        .args(cargo_args)
        .output()
        .expect("cannot run cargo clippy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let diags: BTreeSet<Diag> = stderr.lines().filter_map(parse_short).collect();
    assert!(!diags.is_empty(), "clippy reported nothing:\n{stderr}");
    diags.into_iter().collect()
}

/// Assert `got` is exactly `want`, matching each message by substring.
fn assert_diags(got: &[Diag], want: &[(&str, usize, &str)]) {
    let render = || {
        got.iter()
            .map(|(f, l, m)| format!("  {f}:{l}: {m}\n"))
            .collect::<String>()
    };
    assert_eq!(got.len(), want.len(), "got:\n{}", render());
    for ((file, line, msg), (wf, wl, wm)) in got.iter().zip(want) {
        assert!(
            file == wf && line == wl && msg.contains(wm),
            "expected {wf}:{wl} `{wm}`, got:\n{}",
            render()
        );
    }
}

/// The `path = "..."` entry lines of a clippy.toml.
fn ban_entries(conf: &str) -> BTreeSet<String> {
    conf.lines()
        .filter(|l| l.contains("path = \""))
        .map(|l| l.trim().to_string())
        .collect()
}

#[test]
fn clippy_bans_and_workspace_lints_fire_at_exact_spans() {
    let got = clippy_fixture(".", &["--workspace", "--exclude", "experiments-fixture"]);
    assert_diags(
        &got,
        &[
            (
                "crates/core/src/clock.rs",
                7,
                "`std::time::SystemTime::now`",
            ),
            // Called through `use std::time::Instant as Clock`.
            ("crates/core/src/clock.rs", 12, "`std::time::Instant::now`"),
            ("crates/netsim/src/pool.rs", 8, "`std::sync::mpsc::channel`"),
            ("crates/netsim/src/pool.rs", 11, "`std::thread::spawn`"),
            (
                "crates/netsim/src/pool.rs",
                22,
                "`std::sync::mpsc::sync_channel`",
            ),
            ("crates/netsim/src/pool.rs", 23, "`std::thread::Builder`"),
            ("crates/netsim/src/pool.rs", 24, "`std::thread::current`"),
            ("crates/netsim/src/pool.rs", 25, "`std::thread::sleep`"),
            ("crates/netsim/src/pool.rs", 26, "`std::thread::yield_now`"),
            ("crates/netsim/src/pool.rs", 27, "`std::thread::park`"),
            (
                "crates/netsim/src/pool.rs",
                28,
                "`std::thread::available_parallelism`",
            ),
            (
                "crates/netsim/src/sched.rs",
                4,
                "`std::collections::BinaryHeap`",
            ),
            (
                "crates/netsim/src/sched.rs",
                9,
                "`std::collections::BinaryHeap`",
            ),
            (
                "crates/netsim/src/sched.rs",
                21,
                "`std::collections::BinaryHeap`",
            ),
            // Test code is banned too; only the heap oracle is exempt.
            (
                "crates/netsim/src/sched.rs",
                28,
                "`std::collections::BinaryHeap`",
            ),
            ("crates/netsim/src/shard.rs", 6, "`std::thread::scope`"),
            (
                "crates/noattrs/src/lib.rs",
                4,
                "warning: missing documentation",
            ),
            // `forbid`, so an error rather than a warning.
            (
                "crates/noattrs/src/lib.rs",
                8,
                "error: usage of an `unsafe` block",
            ),
        ],
    );
    // Every entry of the committed ban list is exercised above.
    let conf =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../clippy.toml"))
            .unwrap();
    for entry in ban_entries(&conf) {
        let path = entry.split('"').nth(1).unwrap();
        assert!(
            got.iter().any(|(_, _, m)| m.contains(&format!("`{path}`"))),
            "ban `{path}` has no fixture case"
        );
    }
}

#[test]
fn experiments_override_allows_only_the_host_clock() {
    let got = clippy_fixture("crates/experiments", &["-p", "experiments-fixture"]);
    // `Instant::now` on line 6 is allowed; threads and heaps are not.
    assert_diags(
        &got,
        &[
            ("crates/experiments/src/lib.rs", 13, "`std::thread::scope`"),
            (
                "crates/experiments/src/lib.rs",
                21,
                "`std::collections::BinaryHeap`",
            ),
            (
                "crates/experiments/src/lib.rs",
                22,
                "`std::collections::BinaryHeap`",
            ),
        ],
    );
    // Clippy reads only the nearest clippy.toml, so the override repeats
    // the shared entries: it must match them, minus the clock bans.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let shared = std::fs::read_to_string(repo.join("clippy.toml")).unwrap();
    let ours = std::fs::read_to_string(repo.join("crates/experiments/clippy.toml")).unwrap();
    let expected: BTreeSet<String> = ban_entries(&shared)
        .into_iter()
        .filter(|e| !e.contains("\"std::time::"))
        .collect();
    assert_eq!(ban_entries(&ours), expected);
}

#[test]
fn every_package_resolves_the_intended_clippy_toml() {
    // Clippy reads the nearest clippy.toml at or above a package's
    // manifest, so where the files sit decides which bans each package
    // gets. Only the three overrides may differ from the root file.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(&repo)
        .args([
            "metadata",
            "--offline",
            "--no-deps",
            "--format-version",
            "1",
        ])
        .output()
        .expect("cannot run cargo metadata");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let meta = String::from_utf8(out.stdout).unwrap();
    let field = |name: &str| -> Vec<PathBuf> {
        meta.split(&format!("\"{name}\":\""))
            .skip(1)
            .map(|s| PathBuf::from(&s[..s.find('"').unwrap()]))
            .collect()
    };
    let root = field("workspace_root").remove(0);
    let mut packages = Vec::new();
    for manifest in field("manifest_path") {
        let dir = manifest.parent().unwrap();
        let rel = dir.strip_prefix(&root).unwrap();
        let conf = dir
            .ancestors()
            .find(|d| d.join("clippy.toml").exists() || d.join(".clippy.toml").exists())
            .unwrap_or_else(|| panic!("{rel:?} resolves no clippy.toml"));
        assert!(!conf.join(".clippy.toml").exists(), "{conf:?}");
        let want = match rel.components().next().map(|c| c.as_os_str()) {
            _ if rel.starts_with("crates/experiments") => "crates/experiments",
            _ if rel.starts_with("crates/bench") => "crates/bench",
            Some(top) if top == "vendor" => "vendor",
            _ => "",
        };
        assert_eq!(
            conf.strip_prefix(&root).ok(),
            Some(Path::new(want)),
            "{rel:?}"
        );
        packages.push(rel.to_path_buf());
    }
    assert!(packages.contains(&PathBuf::new()), "root package missing");
    assert!(packages.len() > 10, "{packages:?}");
}

#[test]
fn ban_exemptions_are_the_three_named_allows() {
    // Each sanctioned use of a banned API is one module-level allow with
    // a reason; any other `clippy::disallowed_*` escape is a regression.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = gfw_lint::Workspace::load(&root).expect("workspace load failed");
    let mut found = Vec::new();
    for (rel, file) in &ws.sources {
        for (idx, line) in file.lines.iter().enumerate() {
            if line.code.contains("clippy::disallowed_") {
                found.push((rel.as_str(), idx + 1));
            }
        }
    }
    let files: Vec<&str> = found.iter().map(|(f, _)| *f).collect();
    assert_eq!(
        files,
        vec![
            "crates/experiments/src/runner.rs",
            "crates/netsim/src/eventq.rs",
            "crates/netsim/tests/eventq_props.rs",
        ],
        "exemptions: {found:?}"
    );
    for (rel, line) in found {
        // The attribute is `#![allow(lint, reason = "...")]`, possibly
        // wrapped over the next lines.
        let attr = &ws.sources[rel].lines[line - 1..];
        assert!(
            attr.iter().take(3).any(|l| l.code.contains("reason")),
            "{rel}:{line}: allow without a reason"
        );
    }
}
