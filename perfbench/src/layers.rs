//! Per-layer metrics of a traced run, from the benchmark's spans and the
//! program's own `darklight-obs` counters and timers.

use crate::trace::{self, Span};
use crate::workloads::DatasetFacts;
use darklight_obs::PipelineMetrics;

/// Everything the per-layer metrics are computed from.
#[derive(Debug)]
pub struct TraceFacts<'a> {
    pub metrics: &'a PipelineMetrics,
    pub spans: &'a [Span],
    /// Span ids of the traced run's roots: its set-up and timed phase.
    pub roots: &'a [usize],
    pub dataset: DatasetFacts,
    pub artifact_bytes: u64,
    /// PR AUC of the workload's outputs against ground truth.
    pub pr_auc: f64,
    /// Traced ÷ untraced wall time of the same timed units.
    pub overhead_ratio: f64,
    /// Time of the traced timed phase outside every layer span.
    pub residual_s: f64,
}

/// `(name, value, unit)` for every per-layer metric. A layer the workload
/// does not run reports 0.
pub fn per_layer(f: &TraceFacts) -> Vec<(&'static str, f64, &'static str)> {
    let m = f.metrics;
    let secs = |timer: &str| m.timer(timer).total_ns() as f64 / 1e9;
    let count = |counter: &str| m.counter(counter).get() as f64;
    let spans = |name: &str| -> f64 {
        f.roots
            .iter()
            .fold(0.0, |sum, &root| sum + trace::total(f.spans, root, name))
    };
    let polish_in = count("polish.input_messages");
    let stage1 = secs("twostage.stage1");
    let stage2 = secs("twostage.stage2");
    let batch_link = secs("batch.total");
    vec![
        ("corpus.read_s", spans("corpus.read"), "s"),
        ("corpus.polish_s", secs("polish.total"), "s"),
        (
            "corpus.polish_language_s",
            secs("polish.step.language_filter"),
            "s",
        ),
        (
            "corpus.polish_kept_ratio",
            if polish_in > 0.0 {
                count("polish.kept_messages") / polish_in
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "corpus.refine_s",
            (secs("linker.prepare") - secs("polish.total") - secs("dataset.build")).max(0.0),
            "s",
        ),
        ("dataset.build_s", secs("dataset.build"), "s"),
        ("dataset.records", count("dataset.records_built"), "count"),
        ("dataset.terms", f.dataset.terms as f64, "count"),
        (
            "dataset.bytes_estimated",
            f.dataset.bytes_estimated as f64,
            "bytes",
        ),
        ("features.fits", count("features.fits"), "count"),
        ("features.fit_s", secs("features.fit"), "s"),
        ("features.vectors", count("features.vectors"), "count"),
        ("features.vectorize_s", secs("features.vectorize"), "s"),
        ("features.vector_nnz", count("features.vector_nnz"), "count"),
        (
            "attrib.index_builds",
            m.timer("attrib.index_build").count() as f64,
            "count",
        ),
        ("attrib.index_build_s", secs("attrib.index_build"), "s"),
        (
            "attrib.index_postings",
            count("attrib.index_postings"),
            "count",
        ),
        (
            "attrib.queries_scored",
            count("attrib.queries_scored"),
            "count",
        ),
        ("attrib.scoring_s", secs("attrib.batch_scoring"), "s"),
        ("twostage.stage1_s", stage1, "s"),
        ("twostage.stage2_s", stage2, "s"),
        (
            "twostage.rescored_unknowns",
            count("twostage.rescored_unknowns"),
            "count",
        ),
        ("batch.link_s", batch_link, "s"),
        (
            "batch.self_s",
            if batch_link > 0.0 {
                batch_link - stage1 - stage2
            } else {
                0.0
            },
            "s",
        ),
        ("batch.rounds", count("batch.rounds"), "count"),
        (
            "batch.batch_size",
            m.gauge("batch.batch_size").get() as f64,
            "count",
        ),
        (
            "govern.bytes_estimated",
            m.gauge("govern.bytes_estimated").get() as f64,
            "bytes",
        ),
        ("linker.fit_artifact_s", secs("linker.fit_artifact"), "s"),
        ("store.save_s", spans("store.save"), "s"),
        ("store.load_s", spans("store.load"), "s"),
        ("store.artifact_bytes", f.artifact_bytes as f64, "bytes"),
        ("linker.prepare_s", secs("linker.prepare"), "s"),
        ("linker.link_s", secs("linker.link"), "s"),
        ("eval.pr_auc", f.pr_auc, "ratio"),
        ("trace.overhead_ratio", f.overhead_ratio, "ratio"),
        ("trace.residual_s", f.residual_s, "s"),
    ]
}
