//! Fault-injection suite: proves each degradation path of the failure
//! model (DESIGN.md §9) deterministically, in one process.
//!
//! `DARKLIGHT_FAULT_PANICS` is parsed once per process, so every test in
//! this binary shares one injection spec, installed by [`init_faults`]
//! before the first pipeline call. The spec targets only *skip-tolerant*
//! sites — `polish.user` (user dropped) and `twostage.vectorize_known`
//! (vector zeroed) — so runs complete in degraded form; the fail-fast
//! rescore path has its own binary (`tests/fault_failfast.rs`) because
//! its injected panic would poison every other test here.
//!
//! Because an injection fires on (site, item-index) alone, a degraded
//! run is as deterministic as a healthy one: the same items are hit at
//! every thread count. The thread-parity assertions below pin that.

use darklight::core::batch::{run_batched, BatchConfig, BatchError};
use darklight::core::dataset::{Dataset, DatasetBuilder};
use darklight::core::twostage::{TwoStage, TwoStageConfig};
use darklight::core::FitArtifact;
use darklight::corpus::io::{read_corpus_lenient, IssueKind, LenientConfig};
use darklight::corpus::model::{Corpus, Post, User};
use darklight::corpus::polish::{PolishConfig, Polisher};
use darklight::govern::{Deadline, GovernConfig, GovernError};
use darklight::obs::PipelineMetrics;
use std::path::PathBuf;

/// Injection spec shared by the whole binary: drop polish user 1, zero
/// known vector 1 in every stage-1 fit.
const FAULTS: &str = "polish.user:1,twostage.vectorize_known:1";

fn init_faults() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("DARKLIGHT_FAULT_PANICS", FAULTS));
}

/// Eight authors with distinct vocabularies, split into known/unknown
/// halves (same shape as the batch unit tests, smaller).
fn world() -> (Dataset, Dataset) {
    let vocabs = [
        "kayak paddle rapids portage",
        "espresso grinder portafilter crema",
        "orchid repotting perlite humidity",
        "violin rosin luthier vibrato",
        "falconry jesses tiercel mews",
        "pottery kiln glaze stoneware",
        "beekeeping hive frames nectar",
        "origami crease valley tessellation",
    ];
    let mut known = Corpus::new("known");
    let mut unknown = Corpus::new("unknown");
    let base = 1_486_375_200i64;
    for (pid, vocab) in vocabs.iter().enumerate() {
        let words: Vec<&str> = vocab.split(' ').collect();
        for (half, corpus) in [(0usize, &mut known), (1, &mut unknown)] {
            let mut u = User::new(format!("user{pid}_{half}"), Some(pid as u64));
            for i in 0..35i64 {
                let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400;
                let w1 = words[i as usize % words.len()];
                let w2 = words[(i as usize + 1) % words.len()];
                u.posts.push(Post::new(
                    format!("my notes about {w1} mention the {w2} setup and more {w1} details for the club"),
                    ts,
                ));
            }
            corpus.users.push(u);
        }
    }
    let b = DatasetBuilder::new();
    (b.build(&known), b.build(&unknown))
}

fn engine(threads: usize, metrics: PipelineMetrics) -> TwoStage {
    TwoStage::new(TwoStageConfig {
        k: 3,
        threads,
        metrics,
        ..TwoStageConfig::default()
    })
}

fn ckpt_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("darklight_fault_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn lenient_ingest_reports_exact_quarantine_counts() {
    init_faults();
    // One issue of each taxonomy kind, at known line numbers.
    let dirty = "#darklight-corpus v1 fixture\n\
                 U\talice\t1\n\
                 P\t1486375200\tmisc\tfine post\n\
                 not a record at all\n\
                 U\tbob\tnot_a_number\n\
                 P\t1486375300\tmisc\torphaned, bob was quarantined\n\
                 U\tcarol\t3\n\
                 F\tunknown_kind\tvalue\n\
                 P\t1486375400\tmisc\tcarol is fine\n";
    let metrics = PipelineMetrics::enabled();
    let config = LenientConfig {
        metrics: metrics.clone(),
        ..LenientConfig::default()
    };
    let (corpus, report) = read_corpus_lenient(dirty.as_bytes(), &config).unwrap();
    assert_eq!(report.quarantined(), 4);
    assert_eq!(report.count(IssueKind::BadRecord), 1);
    assert_eq!(report.count(IssueKind::UnparseableField), 2);
    assert_eq!(report.count(IssueKind::OrphanRecord), 1);
    assert_eq!(report.count(IssueKind::BadHeader), 0);
    let lines: Vec<usize> = report.issues.iter().map(|i| i.line).collect();
    assert_eq!(lines, vec![4, 5, 6, 8]);
    // The healthy remainder loads: alice and carol with one post each.
    assert_eq!(corpus.len(), 2);
    assert_eq!(corpus.users[0].alias, "alice");
    assert_eq!(corpus.users[1].alias, "carol");
    // Quarantine counters mirror the report.
    assert_eq!(metrics.counter("ingest.quarantined_lines").get(), 4);
    assert_eq!(metrics.counter("ingest.quarantined.bad_record").get(), 1);
    assert_eq!(
        metrics
            .counter("ingest.quarantined.unparseable_field")
            .get(),
        2
    );
    assert_eq!(metrics.counter("ingest.quarantined.orphan_record").get(), 1);
    assert_eq!(metrics.counter("ingest.records_kept").get(), 4);
}

#[test]
fn injected_polish_panic_drops_one_user_and_completes() {
    init_faults();
    let mut corpus = Corpus::new("c");
    for (i, alias) in ["ada", "bea", "cal", "dot"].iter().enumerate() {
        let mut u = User::new(*alias, Some(i as u64));
        for p in 0..40i64 {
            u.posts.push(Post::new(
                format!(
                    "{alias} wrote a perfectly ordinary message number {p} about several \
                     different topics from the {alias} workshop today"
                ),
                1_486_375_200 + p * 86_400,
            ));
        }
        corpus.users.push(u);
    }
    let metrics = PipelineMetrics::enabled();
    let polisher = Polisher::new(PolishConfig::default())
        .with_threads(2)
        .with_metrics(metrics.clone());
    let (polished, report) = polisher.polish(&corpus);
    // polish.user:1 kills the worker handling "bea"; the run completes
    // with her dropped and the panic recorded, not a process abort.
    assert_eq!(report.panicked_users, 1);
    assert!(polished.user("bea").is_none());
    assert!(polished.user("ada").is_some());
    assert!(polished.user("cal").is_some());
    assert!(polished.user("dot").is_some());
    assert!(metrics.counter("par.worker_panics").get() >= 1);
    assert_eq!(metrics.counter("polish.dropped.panicked_users").get(), 1);
}

#[test]
fn degraded_runs_are_thread_count_invariant() {
    init_faults();
    let (known, unknown) = world();
    let metrics = PipelineMetrics::enabled();
    let baseline = engine(1, metrics.clone()).run(&known, &unknown);
    // twostage.vectorize_known:1 fires in every stage-1 fit, so the
    // degradation is active...
    assert!(
        metrics.counter("twostage.vectorize_panics").get() >= 1,
        "injection did not fire"
    );
    assert!(metrics.counter("par.worker_panics").get() >= 1);
    // ...and identical at every thread count.
    for threads in [2, 7] {
        assert_eq!(
            engine(threads, PipelineMetrics::disabled()).run(&known, &unknown),
            baseline,
            "degraded run diverged at {threads} threads"
        );
    }
}

#[test]
fn kill_and_resume_is_byte_identical_across_thread_counts() {
    init_faults();
    let (known, unknown) = world();
    // Four per batch against k = 3 shrinks the pools every round
    // (8 → 6 → 5 → 4), so a one-round deadline stops the run mid-way.
    let config = BatchConfig { batch_size: 4 };
    for threads in [1usize, 2] {
        let e = engine(threads, PipelineMetrics::disabled());
        let uninterrupted = run_batched(&e, &config, &known, &unknown, None).unwrap();
        let path = ckpt_path(&format!("resume_t{threads}.ckpt"));
        let killed = TwoStage::new(TwoStageConfig {
            govern: GovernConfig {
                deadline: Deadline::after_rounds(1),
                ..GovernConfig::default()
            },
            ..e.config().clone()
        });
        let err = run_batched(&killed, &config, &known, &unknown, Some(&path)).unwrap_err();
        assert!(
            matches!(
                err,
                BatchError::Govern(GovernError::DeadlineExpired { rounds_done: 1 })
            ),
            "{err}"
        );
        assert!(path.exists());
        let resumed = run_batched(&e, &config, &known, &unknown, Some(&path)).unwrap();
        assert_eq!(
            uninterrupted, resumed,
            "kill-and-resume diverged at {threads} thread(s)"
        );
        assert!(!path.exists(), "checkpoint not cleaned up");
    }
}

#[test]
fn artifact_serving_matches_fresh_run_under_faults() {
    init_faults();
    let (known, unknown) = world();
    for threads in [1usize, 2] {
        let e = engine(threads, PipelineMetrics::disabled());
        let fresh = e.run(&known, &unknown);
        // twostage.vectorize_known:1 zeroes known vector 1 in the fresh
        // fit; the artifact's fit must degrade the same record, or its
        // served candidates differ from the fresh ones.
        let fitted = FitArtifact::fit(e.config(), known.clone());
        let served = FitArtifact::from_container(&fitted.to_container(), threads).unwrap();
        assert_eq!(served.known_vecs()[1].nnz(), 0, "injection did not fire");
        let stage1 = e.reduce_prefit(&served.space, &served.index, &unknown);
        assert_eq!(
            e.rescore(&served.known, &unknown, stage1),
            fresh,
            "served artifact diverged from a fresh run at {threads} thread(s)"
        );
    }
}

#[test]
fn hit_known_document_is_counted_but_never_indexed() {
    init_faults();
    let (known, _) = world();
    let metrics = PipelineMetrics::enabled();
    let fitted = FitArtifact::fit(engine(1, metrics.clone()).config(), known.clone());
    let counts = [
        "features.vectors",
        "features.vector_nnz",
        "attrib.index_postings",
        "twostage.vectorize_panics",
    ]
    .map(|name| metrics.counter(name).get());
    // twostage.vectorize_known:1 leaves known record 1 an empty row...
    let rows = fitted.known_vecs();
    assert_eq!(rows.len(), known.len());
    assert!(rows[1].is_empty(), "injection did not fire");
    assert!(rows
        .iter()
        .enumerate()
        .all(|(i, v)| i == 1 || !v.is_empty()));
    // ...after it took part in the fit: its vector still counts, with
    // the entries the per-document path gives it, while the index holds
    // none of them.
    let nnz: Vec<u64> = known
        .records
        .iter()
        .map(|r| {
            let v = fitted
                .space
                .vectorize_counted(&r.counted, r.profile.as_ref());
            v.nnz() as u64
        })
        .collect();
    let all: u64 = nnz.iter().sum();
    assert_eq!(counts, [known.len() as u64, all, all - nnz[1], 1]);
}
