//! Metrics must only observe: enabling `darklight-obs` instrumentation
//! may never change attribution output. These tests pin that guarantee
//! (byte-identical results with metrics on vs. off) and the snapshot's
//! JSON schema (section and metric *names*; values are load-dependent).

use darklight::core::linker::{Linker, LinkerConfig};
use darklight::core::twostage::{TwoStage, TwoStageConfig};
use darklight::corpus::model::{Corpus, Post, User};
use darklight::obs::PipelineMetrics;

/// Four distinctive-vocabulary users per forum; user N of each corpus is
/// the same persona, so linking has real signal to act on.
fn corpus(name: &str, salt: usize) -> Corpus {
    let mut c = Corpus::new(name);
    let base = 1_486_375_200i64;
    for pid in 0..4u64 {
        let mut u = User::new(format!("{name}_user{pid}"), Some(pid));
        let vocab = match pid {
            0 => ["harpsichord", "madrigal", "counterpoint", "basso"],
            1 => ["terrarium", "isopods", "springtails", "bioactive"],
            2 => ["leatherwork", "awl", "burnishing", "saddle"],
            _ => ["homebrew", "fermenter", "sparge", "lauter"],
        };
        for i in 0..70i64 {
            let ts =
                base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400 + (pid as i64) * 7_200 + salt as i64;
            let w1 = vocab[i as usize % 4];
            let w2 = vocab[(i as usize + 1) % 4];
            let ma = char::from(b'a' + (i % 26) as u8);
            let mb = char::from(b'a' + ((i / 26) % 26) as u8);
            u.posts.push(Post::new(
                format!(
                    "today the {w1} project moved forward again and i compared several {w2} \
                     methods with friends near batch {ma}{mb} before writing longer notes \
                     about {w1} techniques and the tools involved"
                ),
                ts,
            ));
        }
        c.users.push(u);
    }
    c
}

fn linker_config() -> LinkerConfig {
    let mut cfg = LinkerConfig::default();
    cfg.two_stage.k = 2;
    cfg.two_stage.threshold = 0.3;
    cfg.two_stage.threads = 2;
    cfg
}

#[test]
fn two_stage_results_identical_with_metrics_enabled() {
    let known = corpus("forum_a", 0);
    let unknown = corpus("forum_b", 1800);
    let plain = Linker::new(linker_config());
    let known_ds = plain.prepare(&known);
    let unknown_ds = plain.prepare(&unknown);

    let quiet = TwoStage::new(linker_config().two_stage);
    let noisy = TwoStage::new(TwoStageConfig {
        metrics: PipelineMetrics::enabled(),
        ..linker_config().two_stage
    });
    // RankedMatch derives PartialEq: every index, score, and ordering of
    // both stages must be identical, not just the accepted pairs.
    assert_eq!(
        quiet.run(&known_ds, &unknown_ds),
        noisy.run(&known_ds, &unknown_ds)
    );
    assert_eq!(
        quiet.link(&known_ds, &unknown_ds),
        noisy.link(&known_ds, &unknown_ds)
    );
}

#[test]
fn linker_results_identical_with_metrics_enabled() {
    let known = corpus("forum_a", 0);
    let unknown = corpus("forum_b", 1800);
    let quiet = Linker::new(linker_config());
    let noisy = Linker::new(linker_config()).with_metrics(PipelineMetrics::enabled());
    let a = quiet.link(&known, &unknown);
    let b = noisy.link(&known, &unknown);
    assert!(!a.is_empty(), "scenario must produce links to compare");
    assert_eq!(a, b);
    // And the instrumented run really did record something.
    assert!(noisy.metrics().timer("linker.link").count() >= 1);
}

/// Golden schema: the metric *names* a full pipeline run produces. Adding
/// a metric is fine — extend the lists here — but renaming or dropping
/// one breaks downstream dashboards, so it must be a conscious change.
#[test]
fn snapshot_schema_is_pinned() {
    let known = corpus("forum_a", 0);
    let unknown = corpus("forum_b", 1800);
    let linker = Linker::new(linker_config()).with_metrics(PipelineMetrics::enabled());
    let _ = linker.link(&known, &unknown);
    let snapshot = linker.metrics().snapshot();

    assert_eq!(
        snapshot.keys(),
        vec!["counters", "gauges", "histograms", "timers"]
    );
    let section = |name: &str| -> Vec<String> {
        snapshot
            .get(name)
            .unwrap_or_else(|| panic!("section {name} missing"))
            .keys()
            .into_iter()
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        section("counters"),
        vec![
            "attrib.batch_queries",
            "attrib.index_postings",
            "attrib.queries_scored",
            "dataset.records_built",
            "features.fits",
            "features.vector_nnz",
            "features.vectors",
            "par.worker_panics",
            "polish.dropped.bot_accounts",
            "polish.dropped.duplicates",
            "polish.dropped.emptied_users",
            "polish.dropped.low_diversity",
            "polish.dropped.non_english",
            "polish.dropped.panicked_users",
            "polish.dropped.short",
            "polish.input_messages",
            "polish.kept_messages",
            "twostage.links_accepted",
            "twostage.links_rejected",
            "twostage.rescored_unknowns",
            "twostage.stage2_fits",
            "twostage.stage2_vectors",
        ]
    );
    assert_eq!(
        section("gauges"),
        vec![
            "attrib.index_dim",
            "attrib.index_users",
            "dataset.threads",
            "features.char_vocab",
            "features.dim",
            "features.word_vocab",
            "polish.threads",
            "twostage.threads",
            "twostage.threshold_micros",
        ]
    );
    assert_eq!(
        section("histograms"),
        vec!["attrib.postings_touched_per_query"]
    );
    assert_eq!(
        section("timers"),
        vec![
            "attrib.batch_scoring",
            "attrib.index_build",
            "dataset.build",
            "features.fit",
            "features.vectorize",
            "linker.link",
            "linker.prepare",
            "polish.step.dedup",
            "polish.step.diversity_filter",
            "polish.step.language_filter",
            "polish.step.length_filter",
            "polish.step.transforms",
            "polish.total",
            "twostage.stage1",
            "twostage.stage2",
            "twostage.total",
        ]
    );
}
