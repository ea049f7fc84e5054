//! The run engine's core guarantee: worker count never changes output.
//!
//! Spawns the real `exp-all` binary (process isolation keeps the global
//! jobs override of each run independent) on a representative subset —
//! a pure-engine grid (fig10), a multi-sim sweep (table4), and a
//! single-sim figure (fig2) — and asserts byte-identical stdout for
//! `--jobs 1` versus `--jobs 4`. The same holds for `exp-scale --quick`,
//! whose partition cells are runner jobs.

use std::process::Command;

fn exp_all_stdout(jobs: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_exp-all"))
        .args(["--only", "fig2,fig10,table4", "--jobs", jobs])
        .env_remove("GFWSIM_JOBS")
        .output()
        .expect("spawn exp-all");
    assert!(
        out.status.success(),
        "exp-all --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn output_is_byte_identical_across_worker_counts() {
    let sequential = exp_all_stdout("1");
    let parallel = exp_all_stdout("4");
    assert!(
        !sequential.is_empty(),
        "exp-all produced no output at --jobs 1"
    );
    assert_eq!(
        sequential,
        parallel,
        "exp-all output differs between --jobs 1 and --jobs 4:\n--- jobs=1 ---\n{}\n--- jobs=4 ---\n{}",
        String::from_utf8_lossy(&sequential),
        String::from_utf8_lossy(&parallel)
    );
}

fn scale_quick_stdout(engine: &str, jobs: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_exp-scale"))
        .args(["--quick", "--flows", "2000"])
        .env("GFWSIM_ENGINE", engine)
        .env("GFWSIM_JOBS", jobs)
        .output()
        .expect("spawn exp-scale");
    assert!(
        out.status.success(),
        "exp-scale --quick (engine={engine} jobs={jobs}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn scale_quick_is_byte_identical_across_jobs() {
    let mut per_engine = Vec::new();
    for engine in ["packet", "hybrid"] {
        let baseline = scale_quick_stdout(engine, "1");
        assert!(
            !baseline.is_empty(),
            "exp-scale --quick produced no output ({engine})"
        );
        for jobs in ["2", "4"] {
            let got = scale_quick_stdout(engine, jobs);
            assert_eq!(
                baseline,
                got,
                "stdout diverged at engine={engine} jobs={jobs}:\n\
                 --- jobs=1 ---\n{}\n--- jobs={jobs} ---\n{}",
                String::from_utf8_lossy(&baseline),
                String::from_utf8_lossy(&got)
            );
        }
        per_engine.push(baseline);
    }
    // Guard against a vacuous pass (the binary ignoring the env): the
    // two engines must print different event counts.
    assert_ne!(
        per_engine[0], per_engine[1],
        "packet and hybrid engines printed identical counters"
    );
}

#[test]
fn unknown_only_id_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp-all"))
        .args(["--only", "fig99"])
        .output()
        .expect("spawn exp-all");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown experiment id `fig99`"),
        "stderr: {err}"
    );
}

#[test]
fn exp_scale_unknown_argument_exits_2_and_writes_nothing() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exp-scale-cli");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_exp-scale"))
        .arg("--quik")
        .current_dir(&dir)
        .output()
        .expect("spawn exp-scale");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument `--quik`"), "stderr: {err}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}
