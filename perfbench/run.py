#!/usr/bin/env python3
"""Benchmark driver for the gfwsim workspace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package (a
workspace of its own that depends on the repository's crates by path)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs repetitions of
the workload, each in its own child process, until `--seconds` of
measuring is spent. Every repetition of one seed must produce identical
deterministic counts and pass the workload's self-checks.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics, from traced
repetitions interleaved with untraced ones (their run-time ratio is
`trace.overhead_frac`). Every repetition's raw record is appended to
$CARGO_TARGET_DIR/perfbench-runs/<workload>-seed<n>.jsonl, and traced
repetitions write their spans as JSON lines under
$CARGO_TARGET_DIR/perfbench-spans/.

Exit codes: 0 when every output is correct, 1 when a check failed (the
result line is still printed), 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("probe-grid", "bulk-flows", "mix-sparse", "mix-dense")
# Whole run, build excluded, must stay inside this budget.
RUN_BUDGET_S = 170.0
# Repetitions per run, whatever --seconds says.
MIN_REPS = 3
# Quantile of a slice's times over the repetitions that it is charged.
SLICE_Q = 0.9


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the worker binary; returns its path."""
    for need in ("Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found at the checkout root: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die(f"build failed ({r.returncode})")
    return os.path.join(target_dir(), "release", "perfbench")


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpu": model, "nproc": nproc, "rustc": rustc}


def runs_dir():
    d = os.path.join(target_dir(), "perfbench-runs")
    os.makedirs(d, exist_ok=True)
    return d


def run_rep(binary, workload, seed, traced, rep, deadline):
    args = [binary, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if traced:
        spans = os.path.join(target_dir(), "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, f"{workload}-seed{seed}-rep{rep}.jsonl")]
    timeout = max(5.0, deadline - time.monotonic())
    t = time.monotonic()
    try:
        r = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"{workload} repetition {rep} exceeded {timeout:.0f} s", 1)
    wall = time.monotonic() - t
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die(f"{workload} repetition {rep} exited {r.returncode}", 1)
    lines = r.stdout.strip().splitlines()
    if not lines:
        die(f"{workload} repetition {rep} printed nothing", 1)
    with open(os.path.join(runs_dir(), f"{workload}-seed{seed}.jsonl"), "a") as f:
        f.write(lines[-1] + "\n")
    return json.loads(lines[-1]), wall


def quantile(values, q):
    """Quantile by linear interpolation between order statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def loaded_slices(plain):
    """The run phase's slices (chunks in order, then the drain), each
    charged its SLICE_Q quantile of CPU time (ms) over the repetitions.

    Every repetition of one seed runs the same slices of work, so the
    spread of one slice's times is the host's, not the program's. On a
    shared host a neighbour's load slows stretches of a run by up to
    1.8x; loaded stretches are the norm and idle ones the exception,
    seen by some runs and not others. A high quantile charges each
    slice its time under that ordinary load, which nearly every run
    sees; the fastest or the median time depends on how much idle time
    a run happened to catch.
    """
    rows = [r["chunk_ms"] + [r["drain_ms"]] for r in plain]
    return [quantile(times, SLICE_Q) for times in zip(*rows)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    traced = a.trace == "1"

    bench = spec()
    binary = build()
    host = host_fingerprint()

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    reps, walls = [], []
    # Traced runs interleave untraced and traced repetitions, so the
    # overhead ratio compares neighbours in time.
    batch = (False, True) if traced else (False,)
    while True:
        elapsed = time.monotonic() - start
        typical = statistics.median(walls) if walls else 0.0
        if len(reps) >= MIN_REPS * len(batch) and elapsed + len(batch) * typical > a.seconds:
            break
        for t in batch:
            rec, wall = run_rep(binary, a.workload, a.seed, t, len(reps), deadline)
            reps.append(rec)
            walls.append(wall)

    # Correctness: every check passes, no op fails, and every repetition
    # (traced or not) reproduces the first one's deterministic counts.
    problems = []
    for i, r in enumerate(reps):
        for name, c in r["checks"].items():
            if not c["ok"]:
                problems.append(f"rep {i}: check failed: {name} ({c['detail']})")
        if r["counts"] != reps[0]["counts"]:
            problems.append(f"rep {i}: counts differ from rep 0: {r['counts']} vs {reps[0]['counts']}")
        if r["failed"]:
            problems.append(f"rep {i}: {r['failed']} of {r['attempted']} ops failed")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    plain = [r for r in reps if not r["traced"]]
    if len({len(r["chunk_ms"]) for r in plain}) != 1:
        problems.append("repetitions ran different numbers of chunks")
    loaded = loaded_slices(plain)
    setups = [s for r in plain for s in r["setup_s"]]
    values = {
        "ops_per_s": min(r["ops"] for r in plain) / (sum(loaded) / 1e3 / plain[0]["threads"]),
        "chunk_ms_p50": quantile(loaded[:-1], 0.50),
        # Each repetition has 1,200+ chunks, so 12+ beyond its p99; the
        # median over repetitions keeps one disturbed repetition from
        # setting the run's tail.
        "chunk_ms_p99": statistics.median(quantile(r["chunk_ms"], 0.99) for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in plain),
    }
    failed_frac = failed / attempted
    if traced:
        traced_reps = [r for r in reps if r["traced"]]
        values = {k: statistics.median(r["metrics"][k] for r in traced_reps)
                  for k in traced_reps[0]["metrics"]}
        values["trace.overhead_frac"] = (
            statistics.median(r["run_s"] for r in traced_reps)
            / statistics.median(r["run_s"] for r in plain) - 1.0)
        wanted = bench["per_layer"]
    else:
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    correct = not problems
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"host: {json.dumps(dict(host, hw_crypto=reps[0]['hw_crypto']))}")
    print(f"workload {a.workload}, seed {a.seed}: {len(plain)} untraced + "
          f"{len(reps) - len(plain)} traced repetitions in {time.monotonic() - start:.1f} s; "
          f"{len(loaded) - 1} chunks x {len(plain)} repetitions, {len(setups)} setups")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<32} {failed_frac:>14.6g} frac ({failed} of {attempted} ops)")
    print(f"  deterministic counts: {json.dumps(reps[0]['counts'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
