//! `--explain <RULE>`: the rule catalogue, with rationale and escape
//! hatch for each rule, so a finding in CI is self-documenting.

/// One catalogue entry.
pub struct RuleDoc {
    /// Rule ID (`D1`, …).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists, in this workspace's terms.
    pub rationale: &'static str,
    /// How to suppress or satisfy a finding deliberately.
    pub escape: &'static str,
}

/// Every rule, in the order they run.
pub const RULES: &[RuleDoc] = &[
    RuleDoc {
        id: "D1",
        summary: "no wall-clock or OS-entropy calls in simulation crates",
        rationale: "The paper's results replicate only if a simulation is a pure \
                    function of its seed. `SystemTime::now`, `Instant::now`, \
                    `thread_rng` and `from_entropy` smuggle host state into the \
                    run, so probe timing and detector thresholds stop being \
                    reproducible.",
        escape: "`// gfwlint: allow(D1)` on the line, with a comment saying why \
                 the value cannot affect simulated behaviour.",
    },
    RuleDoc {
        id: "D2",
        summary: "crate roots carry `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`",
        rationale: "Workspace-wide defaults are enforced at every crate root so a \
                    new crate cannot silently opt out. A crate with a non-zero \
                    `[unsafe-budget]` entry may use `#![deny(unsafe_code)]` \
                    instead of `forbid`, so audited `#[allow(unsafe_code)]` \
                    islands stay possible (rule U1 audits them).",
        escape: "`--fix` inserts the missing attributes mechanically.",
    },
    RuleDoc {
        id: "P1",
        summary: "per-crate panic budget (ratchet-down)",
        rationale: "Explicit panic sites (`unwrap` / `expect` / `panic!` / \
                    `unreachable!`) in non-test simulator code turn malformed \
                    input into an abort instead of a modelled behaviour. The \
                    checked-in count in `lint-baseline.toml` may only fall.",
        escape: "`// gfwlint: allow(P1)` per site, or lower code below budget \
                 and re-run `--bless`. Raising a budget is a hand edit.",
    },
    RuleDoc {
        id: "A1",
        summary: "per-area heap-allocation budget on the crypto hot path (ratchet-down)",
        rationale: "The zero-copy codec work removed per-chunk allocations from \
                    `sscrypto` and `shadowsocks::wire`; the `[alloc-budget]` \
                    table pins the remaining `.to_vec()` / `Vec::new()` / \
                    `.clone()` sites so they cannot creep back.",
        escape: "`// gfwlint: allow(A1)` per site, or `--bless` after removing \
                 sites. Raising a budget is a hand edit.",
    },
    RuleDoc {
        id: "C1",
        summary: "protocol constants agree across crates",
        rationale: "The stream-IV / AEAD-salt table (paper Fig 10), the probe \
                    length sweep and the wire framing must tell one story; a \
                    drifted constant silently changes which probes land in the \
                    detector's silent zone.",
        escape: "No inline escape: fix the constant, or update the expected \
                 table in `rules.rs` alongside the paper citation.",
    },
    RuleDoc {
        id: "H1",
        summary: "member crates take dependencies via `workspace = true`",
        rationale: "Versions live only in the root `[workspace.dependencies]` \
                    (all path-vendored). A version slipping into a member \
                    manifest is how an unvendored dependency sneaks in.",
        escape: "`# gfwlint: allow(H1)` on the offending manifest line; `--fix` \
                 rewrites deps the root already defines.",
    },
    RuleDoc {
        id: "T1",
        summary: "thread primitives only in `experiments::runner`",
        rationale: "Each `Simulator` is single-threaded by contract (one seeded \
                    RNG, one event queue, `Rc<RefCell>` taps). Parallelism means \
                    whole simulators per runner job — a partitioned run's cells \
                    are runner jobs too — never threads inside the sim.",
        escape: "`// gfwlint: allow(T1)` with justification; moving the code \
                 into `runner.rs` is almost always the real fix.",
    },
    RuleDoc {
        id: "T2",
        summary: "`BinaryHeap` only in `netsim::eventq`",
        rationale: "The timer wheel is the workspace's one scheduling structure; \
                    a heap reappearing elsewhere silently reintroduces O(log n) \
                    comparison churn and a second ordering authority.",
        escape: "`// gfwlint: allow(T2)`; test code is already exempt (the \
                 differential oracle keeps a heap on purpose).",
    },
    RuleDoc {
        id: "R1",
        summary: "determinism taint: no nondeterminism sources reachable from the Simulator",
        rationale: "D1 is textual and per-crate; R1 walks a name-based call \
                    graph from `impl Simulator` methods across every crate the \
                    sim can reach (including `shadowsocks`, `sscrypto`, \
                    `analysis`) and flags clock/entropy calls there, plus \
                    `HashMap`/`HashSet` iteration whose order can leak into \
                    output. Hash iteration order is per-process-seeded, so one \
                    stray `.iter()` makes two identically-seeded runs diverge. \
                    The graph is name-based and over-approximate on purpose: \
                    dyn-dispatch never escapes it.",
        escape: "`// gfwlint: allow(R1)` on the source line, after convincing \
                 yourself the order/value cannot reach simulator output; or \
                 switch to a BTree container / the seeded sim RNG.",
    },
    RuleDoc {
        id: "U1",
        summary: "unsafe audit: every unsafe site has a `// SAFETY:` comment and fits the budget",
        rationale: "The `std::arch` fast paths (`sscrypto::x86`: AES-NI, CLMUL \
                    GHASH, SSSE3/AVX2 ChaCha20; `analysis::simd`: AVX2 entropy \
                    histogram) are the repo's only real `unsafe`, and U1 is \
                    their audit discipline: each `unsafe` block, fn or impl \
                    needs an adjacent `// SAFETY:` comment stating the \
                    invariant, and per-crate site counts live in \
                    `[unsafe-budget]` of `lint-baseline.toml`, ratcheting down \
                    like P1/A1.",
        escape: "Write the SAFETY comment (that is the point); \
                 `// gfwlint: allow(U1)` exists for generated code only. New \
                 sites need a hand-raised budget entry, then `--bless`.",
    },
    RuleDoc {
        id: "W1",
        summary: "wrapping-arithmetic discipline on hot-path integer state",
        rationale: "Release builds wrap silently on overflow. In the hot-path \
                    modules (`sscrypto`, `analysis::entropy`/`simd`, \
                    `netsim::eventq`, `gfw_core::passive`, \
                    `shadowsocks::wire`), bare `+` / `*` / `<<` on integer \
                    state that crosses a function boundary (params, `self` \
                    fields) must say what it means: `wrapping_*` when wrap is \
                    the semantics (hashes, counters), `checked_*`/`saturating_*` \
                    when it is not. The ci.sh overflow-checks test run \
                    cross-checks these findings dynamically.",
        escape: "`// gfwlint: allow(W1)` with a comment proving the bound (e.g. \
                 index arithmetic already bounds-checked by the slice).",
    },
];

/// Render the catalogue entry for `rule`, or `None` if unknown.
pub fn explain(rule: &str) -> Option<String> {
    let doc = RULES.iter().find(|d| d.id.eq_ignore_ascii_case(rule))?;
    Some(format!(
        "{} — {}\n\nWhy:\n  {}\n\nEscape hatch:\n  {}\n",
        doc.id, doc.summary, doc.rationale, doc.escape
    ))
}

/// Render the one-line index of all rules (for `--explain` with no
/// argument or an unknown rule).
pub fn index() -> String {
    let mut out = String::from("rules:\n");
    for d in RULES {
        out.push_str(&format!("  {:3} {}\n", d.id, d.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_documented_and_found() {
        for id in [
            "D1", "D2", "P1", "A1", "C1", "H1", "T1", "T2", "R1", "U1", "W1",
        ] {
            let text = explain(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(text.contains(id));
            assert!(text.contains("Escape hatch"));
        }
        assert!(explain("Z9").is_none());
        assert!(explain("w1").is_some(), "case-insensitive lookup");
    }

    #[test]
    fn index_lists_all() {
        let idx = index();
        assert_eq!(RULES.len(), 11);
        for d in RULES {
            assert!(idx.contains(d.id));
        }
    }
}
