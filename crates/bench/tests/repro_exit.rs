//! Pin of the `repro` binary's failure contract: when an experiment's
//! output cannot be written, the process must exit 1 with a diagnostic
//! naming the path — not panic, and not exit 0 with the output silently
//! missing (an `expect` unwind prints an unhelpful backtrace and exits
//! 101).

use std::process::Command;

#[test]
fn unwritable_output_exits_1_naming_the_path() {
    let dir = std::env::temp_dir().join(format!("darklight_repro_exit_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // A *directory* squatting on an experiment's `.md` file, and a *file*
    // squatting on the default figure directory, make the write fail
    // after the experiment itself has succeeded.
    std::fs::create_dir_all(dir.join("out").join("table1.md")).unwrap();
    std::fs::write(dir.join("results"), "").unwrap();

    for (experiment, out_dir, squatted) in [
        ("table1", Some("out"), "table1.md"),
        ("figures", None, "results"),
    ] {
        let mut repro = Command::new(env!("CARGO_BIN_EXE_repro"));
        repro
            .arg(experiment)
            .current_dir(&dir)
            .env("DARKLIGHT_SCALE", "small")
            .env_remove("DARKLIGHT_OUT");
        if let Some(out_dir) = out_dir {
            repro.env("DARKLIGHT_OUT", out_dir);
        }
        let out = repro.output().expect("spawn repro");

        assert_eq!(
            out.status.code(),
            Some(1),
            "{experiment}: unwritable output must exit 1, got: {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(squatted),
            "{experiment}: diagnostic must name the path; stderr: {stderr}"
        );
        // The failure came from the write, not from a panic unwind.
        assert!(!stderr.contains("panicked"), "{experiment}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
