//! Integration tests of the `darklight` CLI binary, driven through real
//! process invocations on a temp directory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_darklight"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("darklight_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A clean two-user corpus in `dir`, small enough to link in a blink.
fn tiny_corpus(dir: &Path) -> String {
    let path = dir.join("tiny.tsv");
    std::fs::write(
        &path,
        "#darklight-corpus v1 tiny\n\
         U\talice\t1\n\
         P\t1486375200\tmisc\thello world from alice\n\
         U\tbob\t2\n\
         P\t1486375300\tmisc\tbob says hi\n",
    )
    .unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage:"));
    assert!(text.contains("link"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn usage_errors_exit_2() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Missing positional argument.
    let out = bin().arg("stats").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Contradictory ingestion flags.
    let out = bin()
        .args(["stats", "whatever.tsv", "--lenient", "--strict"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
    // Unparseable flag value.
    let out = bin()
        .args(["link", "a.tsv", "b.tsv", "--k", "banana"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flag_is_refused_before_any_io() {
    // A misspelt --threshold must not link at the default threshold: the
    // flag is refused before either (missing) corpus is opened.
    let out = bin()
        .args([
            "link",
            "missing_a.tsv",
            "missing_b.tsv",
            "--treshold",
            "0.3",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--treshold"));
}

#[test]
fn repeated_flag_is_refused_before_any_io() {
    // Without the check the first --threshold silently wins.
    let dir = temp_dir("repeated_flag");
    let corpus = tiny_corpus(&dir);
    let out = bin()
        .args([
            "link",
            &corpus,
            &corpus,
            "--threshold",
            "0.3",
            "--threshold",
            "0.99",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threshold given twice"), "{stderr}");
    assert!(!stderr.contains("linking"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn surplus_operand_is_refused_before_any_io() {
    // Without the check the second corpus is silently ignored.
    let dir = temp_dir("surplus_operand");
    let corpus = tiny_corpus(&dir);
    let out = bin().args(["stats", &corpus, "dm.tsv"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"dm.tsv\""));
    assert!(out.stdout.is_empty(), "{out:?}");
    // `link --artifact` takes one operand where `link` takes two.
    let out = bin()
        .args(["link", "--artifact", "store", "a.tsv", "b.tsv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"b.tsv\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_stdout_ends_the_command_quietly() {
    // The reader of stdout is gone before the first write (`| head`
    // after it has read its fill).
    let dir = temp_dir("closed_stdout");
    let corpus = tiny_corpus(&dir);
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = bin()
        .args(["stats", &corpus])
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn subcommand_help_prints_usage_and_does_no_work() {
    let dir = temp_dir("subcommand_help");
    let out = bin()
        .args(["bench-matrix", "--scales", "t", "--help"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    assert!(!dir.join("benchmarks").exists());
    // A bare --check is still a flag bench-matrix takes: with no
    // baselines in the working directory the gate fails (exit 1)
    // without running the cell.
    let out = bin()
        .args([
            "bench-matrix",
            "--scenarios",
            "clean",
            "--scales",
            "t",
            "--check",
        ])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("missing baseline"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn data_errors_exit_1() {
    // Missing input file.
    let out = bin()
        .args(["stats", "/nonexistent/darklight_no_such_corpus.tsv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn zero_batch_size_is_a_usage_error() {
    let dir = temp_dir("zerobatch");
    bin()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--scale",
            "small",
            "--seed",
            "2",
        ])
        .output()
        .unwrap();
    let out = bin()
        .args([
            "link",
            dir.join("tmg.tsv").to_str().unwrap(),
            dir.join("dm.tsv").to_str().unwrap(),
            "--batch-size",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("batch size must be positive"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mem_budget_and_batch_size_are_mutually_exclusive() {
    // Flag validation precedes any file access, so bogus paths are fine.
    let out = bin()
        .args([
            "link",
            "a.tsv",
            "b.tsv",
            "--batch-size",
            "10",
            "--mem-budget",
            "512MiB",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn malformed_mem_budget_sizes_are_rejected_with_fix_hints() {
    // Decimal units are refused with the binary spelling suggested.
    let out = bin()
        .args(["link", "a.tsv", "b.tsv", "--mem-budget", "512MB"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("512MiB"), "must suggest the fix: {stderr}");
    // Negative, fractional, and overflowing sizes are all usage errors.
    for bad in ["-5MiB", "1.5GiB", "99999999999999999GiB", "12XiB", ""] {
        let out = bin()
            .args(["link", "a.tsv", "b.tsv", "--mem-budget", bad])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "size {bad:?} must exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "size {bad:?} must explain itself"
        );
    }
}

#[test]
fn deadline_without_batch_mode_is_a_usage_error() {
    let out = bin()
        .args(["link", "a.tsv", "b.tsv", "--deadline", "30m"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--deadline"), "{stderr}");
    // A malformed duration is also caught (unit is mandatory).
    let out = bin()
        .args([
            "link",
            "a.tsv",
            "b.tsv",
            "--batch-size",
            "10",
            "--deadline",
            "30",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "bare numbers have no unit");
}

#[test]
fn mem_budget_link_succeeds_end_to_end() {
    let dir = temp_dir("membudget");
    bin()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--scale",
            "small",
            "--seed",
            "4",
        ])
        .output()
        .unwrap();
    let out = bin()
        .args([
            "link",
            dir.join("tmg.tsv").to_str().unwrap(),
            dir.join("dm.tsv").to_str().unwrap(),
            "--threshold",
            "0.86",
            "--mem-budget",
            "4GiB",
            "--deadline",
            "1h",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.starts_with("unknown_alias\tknown_alias\tscore"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn io_faults_below_retry_budget_never_surface() {
    let dir = temp_dir("iofault_ok");
    bin()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--scale",
            "small",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    // Two injected faults fit inside the default three-retry budget: the
    // run must succeed as if nothing happened.
    let out = bin()
        .args(["stats", dir.join("tmg.tsv").to_str().unwrap()])
        .env("DARKLIGHT_FAULT_IO", "corpus.read:2")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn io_faults_above_retry_budget_exit_1_with_typed_error() {
    // Ten faults exhaust every attempt; the injected error must surface
    // as a data error (exit 1), never a panic or a silent zero.
    let out = bin()
        .args(["stats", "a.tsv"])
        .env("DARKLIGHT_FAULT_IO", "corpus.read:10")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected i/o fault"), "{stderr}");
}

#[test]
fn lenient_loads_dirty_corpus_that_strict_refuses() {
    let dir = temp_dir("lenient");
    let corpus = dir.join("dirty.tsv");
    // Lines 3 and 6 are malformed; the rest is a healthy two-user corpus.
    std::fs::write(
        &corpus,
        "#darklight-corpus v1 dirty\n\
         U\talice\t1\n\
         this line is garbage\n\
         P\t1486375200\tmisc\thello world from alice\n\
         U\tbob\t2\n\
         F\tnot_a_kind\tvalue\n\
         P\t1486375300\tmisc\tbob says hi\n",
    )
    .unwrap();
    let strict = bin()
        .args(["stats", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        strict.status.code(),
        Some(1),
        "strict must refuse dirty data"
    );
    let lenient = bin()
        .args(["stats", corpus.to_str().unwrap(), "--lenient"])
        .output()
        .unwrap();
    assert_eq!(
        lenient.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&lenient.stderr)
    );
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(stderr.contains("quarantined 2 of 7 line(s)"), "{stderr}");
    assert!(stderr.contains("line 3"), "{stderr}");
    assert!(stderr.contains("line 6"), "{stderr}");
    let stdout = String::from_utf8_lossy(&lenient.stdout);
    assert!(stdout.contains("users:   2"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn link_with_checkpoint_succeeds_and_cleans_up() {
    let dir = temp_dir("ckpt");
    bin()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--scale",
            "small",
            "--seed",
            "9",
        ])
        .output()
        .unwrap();
    let ckpt = dir.join("state.json");
    let out = bin()
        .args([
            "link",
            dir.join("tmg.tsv").to_str().unwrap(),
            dir.join("dm.tsv").to_str().unwrap(),
            "--threshold",
            "0.86",
            "--batch-size",
            "10",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.starts_with("unknown_alias\tknown_alias\tscore"));
    assert!(
        !ckpt.exists(),
        "checkpoint must be removed after a successful run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn link_with_a_bare_checkpoint_name_writes_into_the_working_directory() {
    // `--checkpoint link_state.ckpt` names a file in the working
    // directory; its parent is the empty path, which the durable write
    // must fsync as the current directory instead of failing after the
    // first round's rename.
    let dir = temp_dir("ckpt_bare");
    bin()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--scale",
            "small",
            "--seed",
            "9",
        ])
        .output()
        .unwrap();
    let out = bin()
        .current_dir(&dir)
        .args([
            "link",
            "tmg.tsv",
            "dm.tsv",
            "--threshold",
            "0.86",
            "--batch-size",
            "10",
            "--checkpoint",
            "link_state.ckpt",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.starts_with("unknown_alias\tknown_alias\tscore"));
    assert!(!dir.join("link_state.ckpt").exists());
    assert!(!dir.join("link_state.tmp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_polish_stats_link_profile_flow() {
    let dir = temp_dir("flow");
    // gen
    let out = bin()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--scale",
            "small",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["reddit.tsv", "tmg.tsv", "dm.tsv"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    // stats
    let out = bin()
        .args(["stats", dir.join("dm.tsv").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("users:"));
    assert!(text.contains("words-per-user CDF"));

    // polish
    let polished = dir.join("dm_polished.tsv");
    let out = bin()
        .args([
            "polish",
            dir.join("dm.tsv").to_str().unwrap(),
            polished.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(polished.exists());
    let report = String::from_utf8_lossy(&out.stderr);
    assert!(report.contains("messages kept:"));

    // link (tmg as known, dm as unknown)
    let out = bin()
        .args([
            "link",
            dir.join("tmg.tsv").to_str().unwrap(),
            dir.join("dm.tsv").to_str().unwrap(),
            "--threshold",
            "0.86",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.starts_with("unknown_alias\tknown_alias\tscore"));
    assert!(table.lines().count() >= 2, "no matches emitted:\n{table}");

    // profile: use the first matched known alias.
    let first_match_line = table.lines().nth(1).unwrap();
    let known_alias = first_match_line.split('\t').nth(1).unwrap();
    let out = bin()
        .args([
            "profile",
            dir.join("tmg.tsv").to_str().unwrap(),
            known_alias,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("daily activity profile"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obfuscate_rewrites_posts() {
    let dir = temp_dir("obf");
    bin()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--scale",
            "small",
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    let input = dir.join("dm.tsv");
    let output = dir.join("dm_scrubbed.tsv");
    let out = bin()
        .args([
            "obfuscate",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let original = std::fs::read_to_string(&input).unwrap();
    let scrubbed = std::fs::read_to_string(&output).unwrap();
    assert_ne!(original, scrubbed);
    // Same number of records (no posts lost).
    assert_eq!(original.lines().count(), scrubbed.lines().count());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_missing_alias_errors() {
    let dir = temp_dir("missing");
    bin()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--scale",
            "small",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    let out = bin()
        .args([
            "profile",
            dir.join("dm.tsv").to_str().unwrap(),
            "no_such_alias_here",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not found"));
    std::fs::remove_dir_all(&dir).ok();
}
