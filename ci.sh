#!/bin/sh
# Tier-1 verification gate: format, clippy, invariant lint, build, test.
# Every PR must pass this script from a clean checkout.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> gfw-lint"
cargo run -q -p gfw-lint

echo "==> cargo build --release --workspace"
# --workspace so member binaries (exp-all, exp-impair, ...) are built
# even from a clean checkout; the root package alone would not pull
# dependency bins in.
cargo build --release --workspace

echo "==> bench-report --quick smoke"
# Quick perf smoke: exercises all three workloads and the JSON writer.
# The committed full-mode BENCH_substrate.json is not overwritten; the
# quick run lands in target/ and is checked for shape like the real one.
./target/release/bench-report --quick --out target/BENCH_quick.json > /dev/null
./target/release/bench-report --check target/BENCH_quick.json

echo "==> bench-report --check BENCH_substrate.json"
# The tracked perf trajectory must exist and be well-formed.
./target/release/bench-report --check BENCH_substrate.json

echo "==> exp-scale --quick smoke"
# Hybrid-engine smoke: 10k bulk flows must all complete in-process.
./target/release/exp-scale --quick > /dev/null

echo "==> exp-scale jobs determinism smoke (GFWSIM_JOBS=1 vs 2)"
# The quick run's partition cells are runner jobs, so the worker count
# must be a pure throughput knob: the seed-pure stdout is byte-identical
# at any worker count.
GFWSIM_JOBS=1 ./target/release/exp-scale --quick > target/scale_jobs1.out
GFWSIM_JOBS=2 ./target/release/exp-scale --quick > target/scale_jobs2.out
cmp target/scale_jobs1.out target/scale_jobs2.out

echo "==> bench-report --check BENCH_scale.json"
# The tracked hybrid-vs-packet scale trajectory: well-formed, and the
# 100k-flow speedup must hold the >= 10x bar.
./target/release/bench-report --check BENCH_scale.json

echo "==> exp-baserate --quick smoke"
# Mixed-traffic smoke: one 5k-background mix point against the full
# GFW under the hybrid engine; every flow must be inspected.
./target/release/exp-baserate --quick > /dev/null

echo "==> bench-report --check BENCH_baserate.json"
# The tracked mixed-traffic trajectory: well-formed, and the 100k-flow
# speedup must hold the >= 9x bar (0.9x the pure-bulk scale bar).
./target/release/bench-report --check BENCH_baserate.json

if [ "${GFWSIM_BENCH_DEBUG_ASSERT:-0}" = "1" ]; then
    echo "==> bench-report rebuild with debug assertions (GFWSIM_BENCH_DEBUG_ASSERT=1)"
    # Opt-in paranoia mode: rerun the perf smoke with debug assertions
    # compiled into the release profile, so invariant checks inside the
    # hot paths fire under benchmark-shaped load. Separate target dir —
    # a RUSTFLAGS change would invalidate the main release cache.
    CARGO_TARGET_DIR=target/dbgassert RUSTFLAGS="-C debug-assertions=on" \
        cargo build -q --release -p bench
    ./target/dbgassert/release/bench-report --quick --out target/BENCH_dbgassert.json > /dev/null
    ./target/dbgassert/release/bench-report --check target/BENCH_dbgassert.json
fi

echo "==> crypto fast-path differential properties"
# Batched ChaCha20/Poly1305, tabled GHASH, the zero-copy codec and the
# AES-NI/CLMUL/SIMD hardware paths must stay byte-identical to the
# scalar reference paths.
cargo test -q -p sscrypto --test crypto_props
cargo test -q -p shadowsocks --test wire_props

echo "==> forced-scalar crypto/entropy suites (GFWSIM_NO_HWCRYPTO=1)"
# The scalar oracles are shipping code, not test fixtures: the full
# sscrypto and analysis suites must pass with hardware dispatch masked
# exactly as they do with it active.
GFWSIM_NO_HWCRYPTO=1 cargo test -q -p sscrypto -p analysis

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> release tests with overflow checks (hot-path crates)"
# Release builds wrap integer arithmetic silently; this gate reruns the
# hot-path suites in release mode with overflow checks forced on, so
# any bare add/mul/shift the W1 lint under-approximates still traps
# here. Separate target dir — a RUSTFLAGS change would otherwise
# invalidate the main release cache.
CARGO_TARGET_DIR=target/ovf RUSTFLAGS="-C overflow-checks=on" \
    cargo test -q --release -p sscrypto -p netsim -p gfw-core -p shadowsocks

echo "==> exp-all --jobs 2 smoke (quick scale)"
./target/release/exp-all --jobs 2 --only fig2,fig10,table4 > /dev/null

echo "==> exp-impair --jobs 2 smoke (quick scale)"
./target/release/exp-impair --jobs 2 > /dev/null

echo "==> golden-output suite (re-bless with GFWSIM_BLESS=1 after intended changes)"
cargo test -q -p experiments --test golden

echo "ci.sh: all gates passed"
