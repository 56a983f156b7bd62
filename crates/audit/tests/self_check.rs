//! The audit must pass on its own workspace — this is the acceptance
//! criterion (`cargo run -p darklight-audit -- check` exits 0) in test
//! form, plus proof that a seeded violation *would* fail the build
//! without having to break the tree.

use std::path::Path;

use darklight_audit::{check_source, driver};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_tree_is_clean() {
    let report = driver::run(&workspace_root()).expect("audit walk");
    assert!(report.files_checked > 50, "walk found the workspace");
    let errors: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("{}:{}:{} [{}] {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        errors.is_empty(),
        "unsuppressed audit findings in the tree:\n{}",
        errors.join("\n")
    );
}

#[test]
fn every_fingerprint_file_exists() {
    // A listed path that no longer exists silently drops the
    // deterministic-iteration rule's whole-file coverage of its code.
    let root = workspace_root();
    for rel in darklight_audit::rules::FINGERPRINT_FILES {
        assert!(
            root.join(rel).is_file(),
            "FINGERPRINT_FILES lists missing {rel}"
        );
    }
}

#[test]
fn every_tree_suppression_carries_a_reason() {
    // bad-suppression findings are never suppressible, so a clean tree
    // already implies this; assert it directly for a sharper message.
    let report = driver::run(&workspace_root()).expect("audit walk");
    let bad: Vec<&darklight_audit::Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "bad-suppression")
        .collect();
    assert!(bad.is_empty(), "reasonless/unknown audit:allow: {bad:?}");
}

#[test]
fn seeded_violation_fails_the_check() {
    // The CI job fails on any unsuppressed finding; demonstrate with a
    // seeded violation instead of breaking the tree.
    let findings = check_source(
        "crates/core/src/seeded.rs",
        "fn f(s: &mut [f64]) { s.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
    );
    assert!(
        findings.iter().any(|f| !f.suppressed),
        "seeded violation must produce an unsuppressed finding"
    );
    let report = darklight_audit::Report {
        findings,
        files_checked: 1,
    };
    assert!(report.render_json().contains("\"unsuppressed_errors\": 2"));
}

#[test]
fn rule_listing_names_every_rule() {
    let listing = driver::rule_listing();
    for id in [
        "no-naked-unwrap",
        "nan-safe-ordering",
        "no-ambient-time-or-rand",
        "deterministic-iteration",
        "spawn-through-par",
        "metric-name-registry",
        "bad-suppression",
    ] {
        assert!(listing.contains(id), "{id} missing from listing");
    }
}
