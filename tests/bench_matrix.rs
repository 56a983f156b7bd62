//! End-to-end pin of the `darklight bench-matrix` regression gate: a
//! generated baseline reproduces bit-for-bit under `--check` (exit 0), a
//! seeded perturbation fails the gate (exit 1) with a typed per-cell
//! report, each cell is checked at its baseline's thread count, and a
//! missing baseline fails without running the cell.

use std::path::Path;
use std::process::{Command, Output};

const SCENARIOS: &str = "clean,sparse-history";

fn bench_matrix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_darklight"))
        .arg("bench-matrix")
        .args(args)
        .output()
        .expect("spawn darklight bench-matrix")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "darklight_bench_matrix_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn roundtrip_check_passes_and_perturbation_fails() {
    let dir = temp_dir("roundtrip");
    let dir_s = dir.to_str().unwrap();

    // Write two tiny-scale baselines.
    let out = bench_matrix(&["--scenarios", SCENARIOS, "--scales", "t", "--out", dir_s]);
    assert!(out.status.success(), "write mode failed: {out:?}");
    for cell in ["clean_t", "sparse-history_t"] {
        assert!(
            dir.join(format!("BENCH_{cell}.json")).is_file(),
            "missing baseline for {cell}"
        );
    }

    // The same triple reproduces bit-for-bit: the gate passes. The
    // wall-clock axis gets a huge tolerance — tiny-scale cells on a
    // loaded test machine routinely swing ±25%, and this test pins the
    // deterministic sections, not the machine's scheduler.
    let out = bench_matrix(&[
        "--scenarios",
        SCENARIOS,
        "--scales",
        "t",
        "--throughput-tolerance",
        "90",
        "--check",
        dir_s,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "check must pass, got: {out:?}");
    assert!(stdout.contains("cell clean_t: pass"), "stdout: {stdout}");
    assert!(
        stdout.contains("cell sparse-history_t: pass"),
        "stdout: {stdout}"
    );

    // A perturbed seed generates a different world: the deterministic
    // sections differ and the gate must fail with exit code 1.
    let out = bench_matrix(&[
        "--scenarios",
        SCENARIOS,
        "--scales",
        "t",
        "--seed",
        "12345",
        "--throughput-tolerance",
        "90",
        "--check",
        dir_s,
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "perturbed seed must fail the gate: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "stdout: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_runs_each_cell_at_its_baselines_thread_count() {
    let dir = temp_dir("threads");
    let dir_s = dir.to_str().unwrap();
    let cell = ["--scenarios", "clean", "--scales", "t"];
    let out = bench_matrix(&[&cell[..], &["--threads", "2", "--out", dir_s]].concat());
    assert!(out.status.success(), "write mode failed: {out:?}");

    // A thread count of its own would time the cell unlike its baseline.
    let out = bench_matrix(&[&cell[..], &["--threads", "4", "--check", dir_s]].concat());
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));

    // Even with auto-sized pools pinned to one worker, the gate times
    // the cell at the baseline's two threads.
    let out = Command::new(env!("CARGO_BIN_EXE_darklight"))
        .arg("bench-matrix")
        .args(cell)
        .args(["--throughput-tolerance", "90", "--check", dir_s])
        .env("DARKLIGHT_THREADS", "1")
        .output()
        .expect("spawn darklight bench-matrix");
    assert!(out.status.success(), "check must pass, got: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[clean_t] running cell at 2 thread(s)"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_baseline_fails_the_gate() {
    let dir = temp_dir("missing");
    std::fs::create_dir_all(&dir).unwrap();
    let out = bench_matrix(&[
        "--scenarios",
        "clean",
        "--scales",
        "t",
        "--check",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("cell clean_t: FAIL missing baseline"),
        "stdout: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn large_scale_requires_opt_in() {
    let out = bench_matrix(&["--scales", "l", "--out", "/tmp/never-written"]);
    assert_eq!(out.status.code(), Some(2), "usage error expected: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--include-large"), "stderr: {stderr}");
    assert!(!Path::new("/tmp/never-written").exists());
}

#[test]
fn unknown_scenario_is_a_usage_error() {
    let out = bench_matrix(&["--scenarios", "bogus", "--scales", "t"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
