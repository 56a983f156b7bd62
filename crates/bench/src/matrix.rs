//! The scenario-matrix benchmark driver behind `darklight bench-matrix`
//! (DESIGN.md §12).
//!
//! Each matrix cell (a `(scenario, scale, seed)` triple from
//! `darklight_synth::matrix`) runs the full governed pipeline — generate
//! → polish → refine → datasets → a batched two-stage link, timed
//! [`TIMED_RUNS`] times and reported as the median — and
//! renders one `BENCH_<scenario>_<scale>.json` report with two sections
//! of very different nature:
//!
//! * everything except `"throughput"` is **deterministic**: a function of
//!   the cell spec and the code alone. `--check` compares these bytes
//!   bit-for-bit against a committed baseline.
//! * `"throughput"` is wall-clock dependent; `--check` allows a tolerance
//!   (default 25%) before declaring a regression.
//!
//! An F1 drop above the tolerance (default 2 points) is reported as its
//! own typed verdict, so an accuracy regression reads as such rather than
//! as an opaque byte mismatch.

use darklight_activity::profile::{ProfileBuilder, ProfilePolicy};
use darklight_core::batch::{
    budget_overhead_bytes, budget_per_candidate_bytes, run_batched, BatchConfig,
};
use darklight_core::dataset::{Dataset, DatasetBuilder};
use darklight_core::twostage::{TwoStage, TwoStageConfig};
use darklight_corpus::model::Corpus;
use darklight_corpus::polish::{PolishConfig, Polisher};
use darklight_corpus::refine::refine;
use darklight_eval::curve::PrCurve;
use darklight_eval::metrics::{f1_score, labeled_best_matches, precision_recall_at};
use darklight_govern::{GovernConfig, MemoryBudget};
use darklight_obs::{Json, PipelineMetrics};
use darklight_synth::matrix::CellSpec;
use darklight_synth::scenario::ScenarioBuilder;
use std::time::Instant;

/// Version stamp of the `BENCH_*.json` schema; bump on field changes.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// Timed runs of a cell's link per thread count; the report states the
/// median.
pub const TIMED_RUNS: usize = 3;

/// Default allowed throughput regression before `--check` fails (25%).
pub const DEFAULT_THROUGHPUT_TOLERANCE: f64 = 0.25;

/// Default allowed F1 drop before `--check` fails (2 points).
pub const DEFAULT_F1_TOLERANCE: f64 = 0.02;

/// Runtime knobs for a cell run (never part of the deterministic
/// sections, except that an explicit memory budget changes the derived
/// batch size).
#[derive(Debug, Clone, Copy, Default)]
pub struct CellOptions {
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Byte ceiling for the governed run; `None` derives a budget that
    /// admits half the known pool per batch, so every cell runs at least
    /// one genuinely governed round (the pressure ladder measures a real
    /// footprint instead of short-circuiting).
    pub mem_budget: Option<MemoryBudget>,
}

/// A cell's prepared world: datasets plus the counts the report needs.
#[derive(Debug, Clone)]
pub struct PreparedCell {
    /// Refined TMG aliases (the known pool).
    pub known: Dataset,
    /// Refined DM aliases, capped at the scale's unknown limit.
    pub unknown: Dataset,
    /// Corpus behind `known`.
    pub known_corpus: Corpus,
    /// Corpus behind `unknown` (post-cap).
    pub unknown_corpus: Corpus,
    /// Aliases in the raw generated world (both forums, pre-polish).
    pub raw_aliases: usize,
}

/// Generates and prepares a cell's world: dark-only scenario → polish →
/// scenario-specific refine → datasets, with the unknown (DM) side capped
/// to the scale's limit. Deterministic per spec.
pub fn prepare_cell(spec: &CellSpec) -> PreparedCell {
    let scenario = ScenarioBuilder::new(spec.config()).build();
    let raw_aliases = scenario.tmg.len() + scenario.dm.len();
    let polisher = Polisher::new(PolishConfig::default());
    let profiles = ProfileBuilder::new(ProfilePolicy::default());
    let refine_cfg = spec.refine_config();
    let (polished_tmg, _) = polisher.polish(&scenario.tmg);
    let (polished_dm, _) = polisher.polish(&scenario.dm);
    let known_corpus = refine(&polished_tmg, refine_cfg, &profiles);
    let mut unknown_corpus = refine(&polished_dm, refine_cfg, &profiles);
    // Cap the unknown pool like the paper caps alter-egos at 1,000. The
    // cross personas are generated first, so truncation keeps every
    // ground-truth positive and drops only resident distractors.
    unknown_corpus.users.truncate(spec.scale.max_unknowns());
    let builder = DatasetBuilder::new();
    PreparedCell {
        known: builder.build(&known_corpus),
        unknown: builder.build(&unknown_corpus),
        known_corpus,
        unknown_corpus,
        raw_aliases,
    }
}

/// Runs one cell end to end and renders its report. The error case is an
/// infeasible explicit memory budget.
///
/// The governed, instrumented link is timed [`TIMED_RUNS`] times at the
/// resolved thread count and reported as the median, so one lucky run
/// cannot set the bar for every later `--check`. Only when that count is
/// above 1 is the same config also timed at 1 thread, as often, for the
/// `speedup` baseline.
pub fn run_cell(spec: &CellSpec, opts: &CellOptions) -> Result<Json, String> {
    let t_prep = Instant::now();
    let prep = prepare_cell(spec);
    let prep_s = t_prep.elapsed().as_secs_f64();
    let messages = prep.known_corpus.total_posts() + prep.unknown_corpus.total_posts();

    // The governed batch: an explicit budget derives the largest
    // admissible batch; without one, derive a budget that admits half
    // the known pool per batch, so the run always exercises at least one
    // batched round and the pressure ladder measures a real footprint.
    let budget = match opts.mem_budget {
        Some(b) => b,
        None => {
            let half = (prep.known.len() / 2).max(1) as u64;
            MemoryBudget::from_bytes(
                budget_overhead_bytes(&prep.unknown)
                    + half * budget_per_candidate_bytes(&prep.known),
            )
            .map_err(|e| format!("cell {}: {e}", spec.id()))?
        }
    };
    let batch = BatchConfig::derive(&budget, &prep.known, &prep.unknown)
        .map_err(|e| format!("cell {}: memory budget infeasible: {e}", spec.id()))?;

    let threads = darklight_par::resolve_threads(opts.threads);
    let config = TwoStageConfig {
        threads,
        govern: GovernConfig {
            budget: Some(budget),
            ..GovernConfig::default()
        },
        ..TwoStageConfig::default()
    };
    // Each run records into metrics of its own; the govern figures are
    // the first run's, and every run's output is the first's.
    let timed_link = |threads: usize| {
        let metrics = PipelineMetrics::enabled();
        let engine = TwoStage::new(
            TwoStageConfig {
                threads,
                ..config.clone()
            }
            .with_metrics(metrics.clone()),
        );
        let t = Instant::now();
        run_batched(&engine, &batch, &prep.known, &prep.unknown, None)
            .map(|ranked| (ranked, t.elapsed().as_secs_f64(), metrics))
            .map_err(|e| format!("cell {}: {e}", spec.id()))
    };
    let median_link = |threads: usize| {
        let (ranked, first_s, metrics) = timed_link(threads)?;
        let mut secs = vec![first_s];
        for _ in 1..TIMED_RUNS {
            let (again, s, _) = timed_link(threads)?;
            debug_assert_eq!(again, ranked, "repeated link diverged");
            secs.push(s);
        }
        secs.sort_by(f64::total_cmp);
        Ok::<_, String>((ranked, secs[TIMED_RUNS / 2], metrics))
    };
    let (ranked, link_s, metrics) = median_link(threads)?;
    let link_1t_s = if threads > 1 {
        let (serial_ranked, serial_s, _) = median_link(1)?;
        debug_assert_eq!(serial_ranked, ranked, "thread-count parity violated");
        Some(serial_s)
    } else {
        None
    };

    // Accuracy at the per-cell calibrated threshold (the §IV-E rule).
    let labeled = labeled_best_matches(&ranked, &prep.known, &prep.unknown);
    let curve = PrCurve::from_labeled(&labeled);
    let threshold = curve
        .operating_point(0.80)
        .map(|p| p.threshold)
        .unwrap_or(crate::PAPER_THRESHOLD_FALLBACK);
    let (precision, recall) = precision_recall_at(&labeled, threshold);

    let mut cell = Json::object();
    cell.set("scenario", Json::Str(spec.kind.name().to_string()));
    cell.set("scale", Json::Str(spec.scale.name().to_string()));
    cell.set("seed", Json::UInt(spec.seed));

    let mut world = Json::object();
    world.set("raw_aliases", Json::UInt(prep.raw_aliases as u64));
    world.set("known_aliases", Json::UInt(prep.known.len() as u64));
    world.set("unknown_aliases", Json::UInt(prep.unknown.len() as u64));
    world.set("messages", Json::UInt(messages as u64));
    world.set("positives", Json::UInt(curve.positives() as u64));

    let mut accuracy = Json::object();
    accuracy.set("threshold", Json::Float(threshold));
    accuracy.set("precision", Json::Float(precision));
    accuracy.set("recall", Json::Float(recall));
    accuracy.set("f1", Json::Float(f1_score(precision, recall)));
    accuracy.set("pr_auc", Json::Float(curve.auc()));

    let mut govern = Json::object();
    govern.set("batch_size", Json::UInt(batch.batch_size as u64));
    govern.set("mem_budget_bytes", Json::UInt(budget.bytes()));
    govern.set(
        "bytes_estimated",
        Json::Int(metrics.gauge("govern.bytes_estimated").get()),
    );
    govern.set(
        "batch_shrinks",
        Json::UInt(metrics.counter("govern.batch_shrinks").get()),
    );

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut throughput = Json::object();
    throughput.set("threads", Json::UInt(threads as u64));
    throughput.set(
        "available_parallelism",
        Json::UInt(darklight_par::available_parallelism() as u64),
    );
    throughput.set("world_prep_s", Json::Float(prep_s));
    throughput.set("timed_runs", Json::UInt(TIMED_RUNS as u64));
    throughput.set("link_s", Json::Float(link_s));
    throughput.set(
        "messages_per_sec",
        Json::Float(ratio(messages as f64, link_s)),
    );
    if let Some(link_1t_s) = link_1t_s {
        throughput.set("link_1t_s", Json::Float(link_1t_s));
        throughput.set("speedup", Json::Float(ratio(link_1t_s, link_s)));
    }

    let mut root = Json::object();
    root.set("schema_version", Json::UInt(BENCH_SCHEMA_VERSION));
    root.set("cell", cell);
    root.set("world", world);
    root.set("accuracy", accuracy);
    root.set("govern", govern);
    root.set("throughput", throughput);
    Ok(root)
}

/// The deterministic subset of a cell report: everything except the
/// wall-clock `"throughput"` section. `--check` byte-compares this.
pub fn deterministic_view(report: &Json) -> Json {
    match report {
        Json::Object(map) => {
            let mut out = map.clone();
            out.remove("throughput");
            Json::Object(out)
        }
        other => other.clone(),
    }
}

/// The thread count a baseline report was captured at, so `--check`
/// times the cell the same way. `None` when the baseline does not parse
/// or states no `throughput.threads`.
pub fn baseline_threads(baseline_text: &str) -> Option<usize> {
    let report = Json::parse(baseline_text).ok()?;
    match report.get("throughput")?.get("threads")? {
        Json::UInt(threads) => Some(*threads as usize),
        _ => None,
    }
}

/// Tolerances for the comparison mode.
#[derive(Debug, Clone, Copy)]
pub struct CheckTolerance {
    /// Allowed fractional throughput drop (0.25 = 25%).
    pub throughput: f64,
    /// Allowed F1 drop in absolute points (0.02 = 2 points).
    pub f1: f64,
}

impl Default for CheckTolerance {
    fn default() -> CheckTolerance {
        CheckTolerance {
            throughput: DEFAULT_THROUGHPUT_TOLERANCE,
            f1: DEFAULT_F1_TOLERANCE,
        }
    }
}

/// The typed outcome of comparing one cell against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum CellVerdict {
    /// Deterministic bytes match; throughput within tolerance.
    Pass,
    /// No baseline file for this cell.
    MissingBaseline,
    /// The baseline is unparseable or from a different schema version.
    SchemaMismatch(String),
    /// F1 dropped beyond tolerance (reported instead of the raw byte
    /// mismatch it necessarily also causes).
    F1Drop {
        /// Baseline F1.
        baseline: f64,
        /// Current F1.
        current: f64,
    },
    /// Deterministic sections differ (first differing field path).
    DeterminismMismatch {
        /// Dotted path of the first differing field.
        field: String,
    },
    /// Throughput fell more than the tolerance below baseline.
    ThroughputRegression {
        /// Baseline messages/sec.
        baseline: f64,
        /// Current messages/sec.
        current: f64,
    },
}

impl CellVerdict {
    /// Whether this verdict lets the gate pass.
    pub fn passed(&self) -> bool {
        matches!(self, CellVerdict::Pass)
    }
}

/// One line of the per-cell check report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCheck {
    /// The cell id (`clean_s`, ...).
    pub cell: String,
    /// The typed outcome.
    pub verdict: CellVerdict,
}

impl CellCheck {
    /// Renders the human-readable report line.
    pub fn render(&self) -> String {
        match &self.verdict {
            CellVerdict::Pass => format!("cell {}: pass", self.cell),
            CellVerdict::MissingBaseline => {
                format!("cell {}: FAIL missing baseline", self.cell)
            }
            CellVerdict::SchemaMismatch(detail) => {
                format!("cell {}: FAIL schema mismatch: {detail}", self.cell)
            }
            CellVerdict::F1Drop { baseline, current } => format!(
                "cell {}: FAIL f1 drop: baseline {:.4}, current {:.4}",
                self.cell, baseline, current
            ),
            CellVerdict::DeterminismMismatch { field } => {
                format!("cell {}: FAIL determinism mismatch at {field}", self.cell)
            }
            CellVerdict::ThroughputRegression { baseline, current } => format!(
                "cell {}: FAIL throughput regression: baseline {:.0} msg/s, \
                 current {:.0} msg/s",
                self.cell, baseline, current
            ),
        }
    }
}

fn as_f64(value: Option<&Json>) -> Option<f64> {
    match value? {
        Json::Float(f) => Some(*f),
        Json::UInt(u) => Some(*u as f64),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Dotted path of the first field where two JSON values differ, walking
/// objects key-by-key (keys are BTreeMap-sorted, so the walk — like the
/// rendering — is deterministic).
fn diff_path(a: &Json, b: &Json, prefix: &str) -> Option<String> {
    match (a, b) {
        (Json::Object(ma), Json::Object(mb)) => {
            for key in ma.keys().chain(mb.keys()) {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                match (ma.get(key), mb.get(key)) {
                    (Some(va), Some(vb)) => {
                        if let Some(p) = diff_path(va, vb, &path) {
                            return Some(p);
                        }
                    }
                    (None, _) | (_, None) => return Some(path),
                }
            }
            None
        }
        _ if a == b => None,
        _ => Some(if prefix.is_empty() {
            "<root>".to_string()
        } else {
            prefix.to_string()
        }),
    }
}

/// Compares a freshly-run cell report against its committed baseline
/// text. Verdict precedence: schema problems, then F1 drops, then other
/// deterministic mismatches, then throughput.
pub fn check_cell(
    cell_id: &str,
    baseline_text: &str,
    current: &Json,
    tol: &CheckTolerance,
) -> CellCheck {
    let verdict = check_verdict(baseline_text, current, tol);
    CellCheck {
        cell: cell_id.to_string(),
        verdict,
    }
}

fn check_verdict(baseline_text: &str, current: &Json, tol: &CheckTolerance) -> CellVerdict {
    let baseline = match Json::parse(baseline_text) {
        Ok(j) => j,
        Err(e) => return CellVerdict::SchemaMismatch(format!("unparseable baseline: {e}")),
    };
    if baseline.get("schema_version") != current.get("schema_version") {
        return CellVerdict::SchemaMismatch(format!(
            "schema_version {:?} != {:?}",
            baseline.get("schema_version"),
            current.get("schema_version")
        ));
    }
    let det_base = deterministic_view(&baseline);
    let det_cur = deterministic_view(current);
    if det_base.render() != det_cur.render() {
        let f1_base = as_f64(baseline.get("accuracy").and_then(|a| a.get("f1")));
        let f1_cur = as_f64(current.get("accuracy").and_then(|a| a.get("f1")));
        if let (Some(b), Some(c)) = (f1_base, f1_cur) {
            if c < b - tol.f1 {
                return CellVerdict::F1Drop {
                    baseline: b,
                    current: c,
                };
            }
        }
        let field = diff_path(&det_base, &det_cur, "").unwrap_or_else(|| "<render>".to_string());
        return CellVerdict::DeterminismMismatch { field };
    }
    let rate = |report: &Json| {
        as_f64(
            report
                .get("throughput")
                .and_then(|t| t.get("messages_per_sec")),
        )
    };
    match (rate(&baseline), rate(current)) {
        (Some(b), Some(c)) if c < b * (1.0 - tol.throughput) => CellVerdict::ThroughputRegression {
            baseline: b,
            current: c,
        },
        _ => CellVerdict::Pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(f1: f64, msgs_per_sec: f64) -> Json {
        let mut accuracy = Json::object();
        accuracy.set("f1", Json::Float(f1));
        let mut throughput = Json::object();
        throughput.set("messages_per_sec", Json::Float(msgs_per_sec));
        let mut root = Json::object();
        root.set("schema_version", Json::UInt(BENCH_SCHEMA_VERSION));
        root.set("accuracy", accuracy);
        root.set("throughput", throughput);
        root
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(0.9, 300.0);
        let check = check_cell(
            "clean_t",
            &r.render_pretty(),
            &r,
            &CheckTolerance::default(),
        );
        assert!(check.verdict.passed(), "{:?}", check.verdict);
    }

    #[test]
    fn throughput_within_tolerance_passes_beyond_fails() {
        let base = report(0.9, 300.0);
        let tol = CheckTolerance::default();
        let slower_ok = report(0.9, 240.0);
        assert!(check_cell("c", &base.render(), &slower_ok, &tol)
            .verdict
            .passed());
        let slower_bad = report(0.9, 200.0);
        assert_eq!(
            check_cell("c", &base.render(), &slower_bad, &tol).verdict,
            CellVerdict::ThroughputRegression {
                baseline: 300.0,
                current: 200.0
            }
        );
    }

    #[test]
    fn f1_drop_beats_generic_mismatch() {
        let base = report(0.9, 300.0);
        let worse = report(0.8, 300.0);
        match check_cell("c", &base.render(), &worse, &CheckTolerance::default()).verdict {
            CellVerdict::F1Drop { baseline, current } => {
                assert_eq!(baseline, 0.9);
                assert_eq!(current, 0.8);
            }
            other => panic!("expected F1Drop, got {other:?}"),
        }
    }

    #[test]
    fn f1_gain_is_a_determinism_mismatch_not_a_drop() {
        let base = report(0.8, 300.0);
        let better = report(0.9, 300.0);
        assert_eq!(
            check_cell("c", &base.render(), &better, &CheckTolerance::default()).verdict,
            CellVerdict::DeterminismMismatch {
                field: "accuracy.f1".to_string()
            }
        );
    }

    #[test]
    fn bad_baseline_is_schema_mismatch() {
        let cur = report(0.9, 300.0);
        match check_cell("c", "not json", &cur, &CheckTolerance::default()).verdict {
            CellVerdict::SchemaMismatch(_) => {}
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_view_strips_only_throughput() {
        let r = report(0.9, 300.0);
        let det = deterministic_view(&r);
        assert!(det.get("throughput").is_none());
        assert!(det.get("accuracy").is_some());
        assert!(det.get("schema_version").is_some());
    }
}
