//! Golden pin of the `BENCH_*.json` schema (every key, per section) and
//! a structural audit of the committed baseline trajectory under
//! `benchmarks/`: at least the full scenario set at two scales, each file
//! parseable with the full throughput and accuracy sections, and a
//! `speedup` exactly when its link ran on more than one thread.

use darklight_bench::matrix::{
    deterministic_view, run_cell, CellOptions, BENCH_SCHEMA_VERSION, TIMED_RUNS,
};
use darklight_obs::Json;
use darklight_synth::matrix::{CellSpec, MatrixScale, ScenarioKind};
use std::path::PathBuf;

fn section<'a>(report: &'a Json, key: &str) -> &'a Json {
    report
        .get(key)
        .unwrap_or_else(|| panic!("report missing section {key:?}"))
}

/// Runs the tiny clean cell at an explicit thread count, so the pinned
/// keys do not depend on the machine or on `DARKLIGHT_THREADS`.
fn tiny_report(threads: usize) -> Json {
    let spec = CellSpec::new(ScenarioKind::Clean, MatrixScale::Tiny);
    let opts = CellOptions {
        threads,
        ..CellOptions::default()
    };
    run_cell(&spec, &opts).expect("tiny cell runs")
}

#[test]
fn report_schema_is_pinned() {
    let report = tiny_report(1);

    assert_eq!(
        report.keys(),
        [
            "accuracy",
            "cell",
            "govern",
            "schema_version",
            "throughput",
            "world"
        ],
        "root sections changed — bump BENCH_SCHEMA_VERSION"
    );
    assert_eq!(
        report.get("schema_version"),
        Some(&Json::UInt(BENCH_SCHEMA_VERSION))
    );
    assert_eq!(
        section(&report, "cell").keys(),
        ["scale", "scenario", "seed"]
    );
    assert_eq!(
        section(&report, "world").keys(),
        [
            "known_aliases",
            "messages",
            "positives",
            "raw_aliases",
            "unknown_aliases"
        ]
    );
    assert_eq!(
        section(&report, "accuracy").keys(),
        ["f1", "pr_auc", "precision", "recall", "threshold"]
    );
    assert_eq!(
        section(&report, "govern").keys(),
        [
            "batch_shrinks",
            "batch_size",
            "bytes_estimated",
            "mem_budget_bytes"
        ]
    );
    // Links timed at one thread only: no speedup to report.
    assert_eq!(
        section(&report, "throughput").keys(),
        [
            "available_parallelism",
            "link_s",
            "messages_per_sec",
            "threads",
            "timed_runs",
            "world_prep_s"
        ]
    );
    assert_eq!(
        section(&report, "throughput").get("timed_runs"),
        Some(&Json::UInt(TIMED_RUNS as u64))
    );
    assert_eq!(
        section(&report, "throughput").get("threads"),
        Some(&Json::UInt(1))
    );

    // The rendering is stable: parse(render) == original, so committed
    // baselines can be byte-compared against fresh renders.
    let reparsed = Json::parse(&report.render_pretty()).expect("self-render parses");
    assert_eq!(reparsed.render(), report.render());
}

#[test]
fn multi_thread_report_adds_the_one_thread_run_and_speedup() {
    let report = tiny_report(2);
    assert_eq!(
        section(&report, "throughput").keys(),
        [
            "available_parallelism",
            "link_1t_s",
            "link_s",
            "messages_per_sec",
            "speedup",
            "threads",
            "timed_runs",
            "world_prep_s"
        ]
    );
    assert_eq!(
        section(&report, "throughput").get("threads"),
        Some(&Json::UInt(2))
    );
    // The thread count is wall-clock only: every deterministic section
    // matches the 1-thread report byte for byte.
    assert_eq!(
        deterministic_view(&report).render(),
        deterministic_view(&tiny_report(1)).render()
    );
}

fn committed_benchmarks_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks")
}

#[test]
fn committed_baseline_trajectory_is_complete_and_well_formed() {
    let dir = committed_benchmarks_dir();
    let mut cells = 0usize;
    for scale in [MatrixScale::Small, MatrixScale::Medium] {
        for kind in ScenarioKind::ALL {
            let spec = CellSpec::new(kind, scale);
            let path = dir.join(spec.file_name());
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()));
            let report = Json::parse(&text)
                .unwrap_or_else(|e| panic!("unparseable baseline {}: {e:?}", path.display()));
            assert_eq!(
                report.get("schema_version"),
                Some(&Json::UInt(BENCH_SCHEMA_VERSION)),
                "{}",
                path.display()
            );
            let cell = section(&report, "cell");
            assert_eq!(cell.get("scenario"), Some(&Json::Str(kind.name().into())));
            assert_eq!(cell.get("scale"), Some(&Json::Str(scale.name().into())));
            for key in ["precision", "recall", "f1", "pr_auc", "threshold"] {
                assert!(
                    matches!(section(&report, "accuracy").get(key), Some(Json::Float(_))),
                    "{}: accuracy.{key}",
                    path.display()
                );
            }
            let throughput = section(&report, "throughput");
            for key in ["link_s", "messages_per_sec", "world_prep_s"] {
                assert!(
                    matches!(throughput.get(key), Some(Json::Float(_))),
                    "{}: throughput.{key}",
                    path.display()
                );
            }
            assert_eq!(
                throughput.get("timed_runs"),
                Some(&Json::UInt(TIMED_RUNS as u64)),
                "{}: throughput.timed_runs",
                path.display()
            );
            // A speedup is reported exactly when more than one thread ran.
            let Some(Json::UInt(threads)) = throughput.get("threads") else {
                panic!("{}: throughput.threads", path.display());
            };
            for key in ["link_1t_s", "speedup"] {
                assert_eq!(
                    matches!(throughput.get(key), Some(Json::Float(_))),
                    *threads > 1,
                    "{}: throughput.{key} at {threads} thread(s)",
                    path.display()
                );
            }
            cells += 1;
        }
    }
    assert!(cells >= 10, "committed trajectory too small: {cells} cells");
}
