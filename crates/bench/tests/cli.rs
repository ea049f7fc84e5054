//! `bench-report` argument handling: a mistyped flag must not fall
//! through to a full run that overwrites `BENCH_substrate.json`.

use std::process::Command;

#[test]
fn unknown_argument_exits_2_and_writes_nothing() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-report-cli");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .arg("--quik")
        .current_dir(&dir)
        .output()
        .expect("spawn bench-report");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument `--quik`"), "stderr: {err}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}
