//! The two-stage attribution algorithm (§IV-I of the paper).
//!
//! Stage 1 fits the *space-reduction* feature space on the known aliases,
//! embeds everyone, and keeps the k most similar candidates per unknown.
//! Stage 2 re-fits the *final* feature space on just those k candidates —
//! "this changes the sequences of words and chars selected by frequency and
//! consequently the Tf-Idf weighting" — re-scores, and outputs the best
//! pair when its score clears the threshold.

use crate::artifact::FitArtifact;
use crate::attrib::{cmp_desc, CandidateIndex, Ranked};
use crate::dataset::{Dataset, Record};
use darklight_activity::profile::DailyActivityProfile;
use darklight_features::lexicon::Lexicon;
use darklight_features::pipeline::{CountedDoc, FeatureConfig, FeatureExtractor, FeatureSpace};
use darklight_features::sparse::SparseVector;
use darklight_obs::PipelineMetrics;
use std::sync::Arc;

/// What both stages read of a record: its counted document and its
/// activity profile. The batch driver hands the stages borrowed views of
/// the records it already holds instead of copying them into subset
/// datasets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DocView<'a> {
    pub(crate) counted: &'a CountedDoc,
    pub(crate) profile: Option<&'a DailyActivityProfile>,
}

impl<'a> DocView<'a> {
    /// The view of `record`.
    pub(crate) fn of(record: &'a Record) -> DocView<'a> {
        DocView {
            counted: &record.counted,
            profile: record.profile.as_ref(),
        }
    }

    /// The views of every record of `ds`, in record order.
    pub(crate) fn all(ds: &'a Dataset) -> Vec<DocView<'a>> {
        ds.records.iter().map(DocView::of).collect()
    }
}

/// The unknown side of a link in the known side's lexicon lineage. Both
/// stages fit over known documents and unknown ones, so when the two
/// sides were counted apart the unknowns' counts are rebased onto the
/// known lexicon once, and every fit and vectorization after that runs
/// on raw ids; the extension is dropped with this value and the known
/// lexicon never grows. Only the counts are copied (the batch driver's
/// budget charges them); the stages read each unknown through a borrowed
/// view of its counts — the rebased ones when there are — and the
/// caller's profile.
pub(crate) struct Unknowns<'a> {
    dataset: &'a Dataset,
    rebased: Option<Vec<CountedDoc>>,
}

impl<'a> Unknowns<'a> {
    /// `unknown` in the lineage of `base`: no copy when it already is,
    /// otherwise every counted document rebased, in record order, into
    /// one new extension of `base` that `base` itself never sees.
    pub(crate) fn new(unknown: &'a Dataset, base: &Arc<Lexicon>) -> Unknowns<'a> {
        let rebased = (!unknown.lexicon().compatible(base)).then(|| {
            let docs: Vec<&CountedDoc> = unknown.records.iter().map(|r| &r.counted).collect();
            CountedDoc::rebase_all(&docs, base)
        });
        Unknowns {
            dataset: unknown,
            rebased,
        }
    }

    /// Unknown `u`.
    pub(crate) fn view(&self, u: usize) -> DocView<'_> {
        let record = &self.dataset.records[u];
        DocView {
            counted: self.rebased.as_ref().map_or(&record.counted, |c| &c[u]),
            profile: record.profile.as_ref(),
        }
    }

    /// Every unknown, in order.
    pub(crate) fn views(&self) -> Vec<DocView<'_>> {
        (0..self.dataset.len()).map(|u| self.view(u)).collect()
    }
}

/// Configuration of the two-stage pipeline. Defaults are the paper's.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoStageConfig {
    /// Candidates kept by the reduction stage (paper: 10).
    pub k: usize,
    /// Stage-1 feature configuration (Table II, "Space Reduction").
    pub reduction: FeatureConfig,
    /// Stage-2 feature configuration (Table II, "Final").
    pub final_stage: FeatureConfig,
    /// Similarity threshold for emitting a pair (paper: 0.4190).
    pub threshold: f64,
    /// Worker threads for batch scoring (0 = all available cores).
    pub threads: usize,
    /// Observability handle; disabled by default. Instruments only
    /// record — they are never read back — so enabling metrics cannot
    /// change attribution output (pinned by `tests/metrics_parity.rs`).
    pub metrics: PipelineMetrics,
    /// Resource governor (memory budget, deadline); inert by default.
    /// Like `metrics` and `threads`, governance can change when a run
    /// stops or how it is chunked, but never its output bytes, so it is
    /// excluded from the checkpoint fingerprint.
    pub govern: darklight_govern::GovernConfig,
}

impl Default for TwoStageConfig {
    fn default() -> TwoStageConfig {
        TwoStageConfig {
            k: crate::PAPER_K,
            reduction: FeatureConfig::space_reduction(),
            final_stage: FeatureConfig::final_stage(),
            threshold: crate::PAPER_THRESHOLD,
            threads: 0,
            metrics: PipelineMetrics::disabled(),
            govern: darklight_govern::GovernConfig::default(),
        }
    }
}

impl TwoStageConfig {
    /// Copy without the daily-activity block in either stage (the
    /// "text-only" rows of Table III and Fig. 4).
    pub fn without_activity(mut self) -> TwoStageConfig {
        self.reduction = self.reduction.without_activity();
        self.final_stage = self.final_stage.without_activity();
        self
    }

    /// Copy recording into `metrics`.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> TwoStageConfig {
        self.metrics = metrics;
        self
    }

    /// The resolved worker count: `threads` when positive, otherwise
    /// auto-detected (`DARKLIGHT_THREADS` override, then
    /// `available_parallelism`, falling back to 1 — serial, always
    /// correct — when detection fails). The resolved count is recorded in
    /// the `twostage.threads` gauge by every entry point so snapshots show
    /// what actually ran.
    pub fn effective_threads(&self) -> usize {
        darklight_par::resolve_threads(self.threads)
    }

    /// Records the resolved worker count in the `twostage.threads` gauge
    /// and returns it.
    fn observed_threads(&self) -> usize {
        let threads = self.effective_threads();
        self.metrics.gauge("twostage.threads").set(threads as i64);
        threads
    }
}

/// The outcome of the pipeline for one unknown alias.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedMatch {
    /// Index of the unknown alias in the unknown dataset.
    pub unknown: usize,
    /// Stage-1 candidates (indices into the known dataset), best first.
    pub stage1: Vec<Ranked>,
    /// Stage-2 re-scores of those candidates, best first.
    pub stage2: Vec<Ranked>,
}

impl RankedMatch {
    /// The best candidate after stage 2, if any candidates existed.
    pub fn best(&self) -> Option<Ranked> {
        self.stage2.first().copied()
    }

    /// `true` when the best stage-2 score clears `threshold`.
    pub fn accepted(&self, threshold: f64) -> bool {
        self.best().is_some_and(|b| b.score >= threshold)
    }
}

/// The two-stage attribution engine.
#[derive(Debug, Clone, Default)]
pub struct TwoStage {
    config: TwoStageConfig,
}

impl TwoStage {
    /// Engine with the given configuration.
    pub fn new(config: TwoStageConfig) -> TwoStage {
        TwoStage { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TwoStageConfig {
        &self.config
    }

    /// Stage 1 only: the k-attribution candidates for every unknown
    /// (§IV-C). Returned per unknown, best first.
    ///
    /// Vectorization is a *skip-tolerant* stage: a query whose
    /// vectorization panics degrades to the zero vector (it returns an
    /// all-zero candidate scoring) instead of killing the run. On the
    /// known side the `twostage.vectorize_known` fault hook fires per
    /// fitted document after the fit and drops the document it hits: its
    /// entries leave the index, so it holds the zero vector and can
    /// never rank. Each caught panic increments `par.worker_panics` and
    /// `twostage.vectorize_panics`. Panics depend only on the record, so
    /// degraded output stays thread-count deterministic. A panic inside
    /// the fit, its weighting of the known documents included, is fatal,
    /// as a panic in a fit always was.
    ///
    /// The unknowns' counts are rebased onto `known`'s lexicon first
    /// unless they already are in its lineage.
    pub fn reduce(&self, known: &Dataset, unknown: &Dataset) -> Vec<Vec<Ranked>> {
        let unknown = Unknowns::new(unknown, known.lexicon());
        self.reduce_views(&DocView::all(known), &unknown.views())
    }

    /// [`reduce`](Self::reduce) over borrowed record views: the stage-1
    /// fit ([`fit_known`](Self::fit_known)), then the ranking
    /// [`reduce_prefit`](Self::reduce_prefit) serves with. The unknown
    /// documents must already be in a lexicon compatible with the known
    /// ones' for the fast path (raw-id lookups); any other lexicon is
    /// still correct, through string translation.
    pub(crate) fn reduce_views(
        &self,
        known: &[DocView<'_>],
        unknown: &[DocView<'_>],
    ) -> Vec<Vec<Ranked>> {
        let _stage1 = self.config.metrics.timer("twostage.stage1").start();
        let threads = self.config.observed_threads();
        let (space, index) = self.fit_known(&self.config.reduction, known);
        self.rank(&space, &index, unknown, self.config.k, threads)
    }

    /// Stage 1 against an **already fitted** space: ranks every unknown
    /// in a prebuilt candidate index over the known vectors instead of
    /// refitting on the known set. This is the serving path for a
    /// persisted fit artifact (`darklight-core::artifact`): the space and
    /// the known vectors are restored bit-exactly from disk and indexed
    /// once, queries are vectorized in the restored space, and the
    /// candidate lists come out byte-identical to
    /// [`reduce`](Self::reduce) on the original known dataset. Scoring
    /// records into this engine's metrics, not the index's.
    pub fn reduce_prefit(
        &self,
        space: &FeatureSpace,
        index: &CandidateIndex,
        unknown: &Dataset,
    ) -> Vec<Vec<Ranked>> {
        let unknown = Unknowns::new(unknown, space.lexicon());
        self.reduce_prefit_views(space, index, &unknown.views())
    }

    /// [`reduce_prefit`](Self::reduce_prefit) over borrowed views of
    /// unknowns already in `space`'s lexicon lineage.
    fn reduce_prefit_views(
        &self,
        space: &FeatureSpace,
        index: &CandidateIndex,
        unknown: &[DocView<'_>],
    ) -> Vec<Vec<Ranked>> {
        let _stage1 = self.config.metrics.timer("twostage.stage1").start();
        let threads = self.config.observed_threads();
        self.rank(space, index, unknown, self.config.k, threads)
    }

    /// The stage-1 fit every path shares — a fresh reduction, the
    /// single-stage ablation and a [`FitArtifact`]: fit `fc` on the known
    /// documents, which weights them feature by feature
    /// ([`FeatureExtractor::fit_feature_major`]), and index that output
    /// as it stands. A document the `twostage.vectorize_known` fault hook
    /// hits after the fit still took part in it, but its entries are
    /// removed and it can never rank (see [`reduce`](Self::reduce)).
    /// Returns the space and the index.
    pub(crate) fn fit_known(
        &self,
        fc: &FeatureConfig,
        known: &[DocView<'_>],
    ) -> (FeatureSpace, CandidateIndex) {
        let metrics = &self.config.metrics;
        let (space, mut weights) = FeatureExtractor::new(fc.clone())
            .with_metrics(metrics.clone())
            .fit_feature_major(known.iter().map(|d| (d.counted, d.profile)));
        let hooks = darklight_par::try_par_map(known, 1, metrics, |i, _| {
            darklight_govern::fault::maybe_panic("twostage.vectorize_known", i)
        });
        let dropped: Vec<bool> = hooks.iter().map(Result::is_err).collect();
        let panics = dropped.iter().filter(|&&d| d).count();
        if panics > 0 {
            metrics
                .counter("twostage.vectorize_panics")
                .add(panics as u64);
            weights.retain_docs(|d| !dropped[d as usize]);
        }
        (space, CandidateIndex::new(weights, metrics))
    }

    /// Ranks `unknown` — already in `space`'s lexicon lineage — in a
    /// fitted index, keeping the `depth` best candidates per unknown.
    fn rank(
        &self,
        space: &FeatureSpace,
        index: &CandidateIndex,
        unknown: &[DocView<'_>],
        depth: usize,
        threads: usize,
    ) -> Vec<Vec<Ranked>> {
        let metrics = &self.config.metrics;
        let slots = darklight_par::try_par_map(unknown, threads, metrics, |i, d| {
            darklight_govern::fault::maybe_panic("twostage.vectorize_query", i);
            space.vectorize_counted(d.counted, d.profile)
        });
        index.top_k_batch_observed(&self.zero_panicked(slots), depth, threads, metrics)
    }

    /// The skip-and-record policy of vectorization (see
    /// [`reduce`](Self::reduce)): a slot whose worker panicked becomes
    /// the zero vector and counts in `twostage.vectorize_panics`.
    fn zero_panicked<E>(
        &self,
        slots: impl IntoIterator<Item = Result<SparseVector, E>>,
    ) -> Vec<SparseVector> {
        slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|_| {
                    self.config
                        .metrics
                        .counter("twostage.vectorize_panics")
                        .incr();
                    SparseVector::new()
                })
            })
            .collect()
    }

    /// Both stages for every unknown alias. The unknown side is rebased
    /// onto the known lexicon once, for both stages.
    pub fn run(&self, known: &Dataset, unknown: &Dataset) -> Vec<RankedMatch> {
        let _total = self.config.metrics.timer("twostage.total").start();
        let unknown = Unknowns::new(unknown, known.lexicon());
        let (known, unknown) = (DocView::all(known), unknown.views());
        let stage1 = self.reduce_views(&known, &unknown);
        self.rescore_views(&known, &unknown, stage1)
    }

    /// Both stages for every unknown against a fitted artifact instead
    /// of a fresh fit: the unknown side is rebased onto the artifact's
    /// lexicon once — a link-local extension dropped with the result, so
    /// serving never grows the artifact — ranked in its index
    /// ([`reduce_prefit`](Self::reduce_prefit)) and rescored on its known
    /// records. Byte-identical to [`run`](Self::run) on the dataset the
    /// artifact was fitted from.
    pub(crate) fn run_prefit(&self, artifact: &FitArtifact, unknown: &Dataset) -> Vec<RankedMatch> {
        let unknown = Unknowns::new(unknown, artifact.known.lexicon());
        let unknown = unknown.views();
        let stage1 = self.reduce_prefit_views(&artifact.space, &artifact.index, &unknown);
        self.rescore_views(&DocView::all(&artifact.known), &unknown, stage1)
    }

    /// Stage 2 given existing stage-1 candidate lists (used by the batch
    /// mode of §IV-J, which produces candidates hierarchically).
    pub fn rescore(
        &self,
        known: &Dataset,
        unknown: &Dataset,
        stage1: Vec<Vec<Ranked>>,
    ) -> Vec<RankedMatch> {
        // Each refit counts the unknown's own grams too; in the known
        // lineage they are raw ids like the candidates'.
        let unknown = Unknowns::new(unknown, known.lexicon());
        self.rescore_views(&DocView::all(known), &unknown.views(), stage1)
    }

    /// [`rescore`](Self::rescore) over borrowed record views; candidate
    /// indices point into `known`.
    pub(crate) fn rescore_views(
        &self,
        known: &[DocView<'_>],
        unknown: &[DocView<'_>],
        stage1: Vec<Vec<Ranked>>,
    ) -> Vec<RankedMatch> {
        assert_eq!(stage1.len(), unknown.len(), "stage-1 shape mismatch");
        let metrics = &self.config.metrics;
        let _stage2 = metrics.timer("twostage.stage2").start();
        let threads = self.config.observed_threads();
        metrics
            .counter("twostage.rescored_unknowns")
            .add(unknown.len() as u64);
        // Each unknown with candidates is one refit of its k candidates
        // plus itself. The refits record no `features.*` metrics: their
        // gauges would race between workers.
        let refits = stage1.iter().filter(|c| !c.is_empty());
        metrics
            .counter("twostage.stage2_fits")
            .add(refits.clone().count() as u64);
        metrics
            .counter("twostage.stage2_vectors")
            .add(refits.map(|c| c.len() as u64 + 1).sum());
        // Each unknown's refit/re-rank is independent; the shared helper
        // guarantees slot `u` of the output is unknown `u`'s result for
        // every thread count.
        //
        // Rescoring is deliberately *fail-fast*: a hole in the stage-2
        // results would silently change the final rankings (an absent
        // candidate list reads as "no match" downstream), so a panicking
        // worker is caught — isolated from its siblings, which all finish,
        // and counted in `par.worker_panics` — then re-raised here with
        // its payload preserved.
        let slots = darklight_par::try_par_map(&stage1, threads, metrics, |u, candidates| {
            darklight_govern::fault::maybe_panic("twostage.rescore", u);
            self.rescore_one(known, unknown[u], u, candidates)
        });
        slots
            .into_iter()
            .map(|slot| match slot {
                Ok(m) => m,
                Err(p) => panic!("stage-2 rescore failed (fail-fast stage): {p}"),
            })
            .collect()
    }

    /// Runs stage 2 for a single unknown: refit on the candidate set,
    /// vectorize, re-rank.
    fn rescore_one(
        &self,
        known: &[DocView<'_>],
        unknown: DocView<'_>,
        u: usize,
        candidates: &[Ranked],
    ) -> RankedMatch {
        if candidates.is_empty() {
            return RankedMatch {
                unknown: u,
                stage1: Vec::new(),
                stage2: Vec::new(),
            };
        }
        // The refit corpus is the k candidates *plus the unknown document*:
        // §IV-I — "this procedure changes the feature vector of the unknown
        // alias too". Grams unique to the unknown then carry high IDF,
        // sharpening the discrimination among near candidates. The refit
        // weights all k + 1 documents feature by feature, and each
        // candidate's score is read off the features the unknown, the
        // last document, holds: bit for bit its dot product with the
        // unknown's vector.
        let (_, weights) = FeatureExtractor::new(self.config.final_stage.clone())
            .fit_feature_major(
                candidates
                    .iter()
                    .map(|c| known[c.index])
                    .chain(std::iter::once(unknown))
                    .map(|d| (d.counted, d.profile)),
            );
        let mut stage2: Vec<Ranked> = candidates
            .iter()
            .zip(weights.dots_with_last())
            .map(|(c, score)| Ranked {
                index: c.index,
                score,
            })
            .collect();
        stage2.sort_by(|a, b| cmp_desc((a.score, a.index), (b.score, b.index)));
        RankedMatch {
            unknown: u,
            stage1: candidates.to_vec(),
            stage2,
        }
    }

    /// Single-stage ablation (the "without reduction" rows of Table VI and
    /// Fig. 5): fit the final feature space on *all* known aliases and rank
    /// every candidate in one pass, keeping the top `k` per unknown.
    pub fn run_without_reduction(&self, known: &Dataset, unknown: &Dataset) -> Vec<RankedMatch> {
        self.run_without_reduction_depth(known, unknown, self.config.k)
    }

    /// Like [`run_without_reduction`](TwoStage::run_without_reduction) but
    /// keeping `depth` candidates per unknown — `known.len()` gives the
    /// full ranking, which the paper's literal pair-emission rule needs
    /// when there is no reduction to cap the candidate set.
    pub fn run_without_reduction_depth(
        &self,
        known: &Dataset,
        unknown: &Dataset,
        depth: usize,
    ) -> Vec<RankedMatch> {
        let threads = self.config.observed_threads();
        let unknown = Unknowns::new(unknown, known.lexicon());
        let (space, index) = self.fit_known(&self.config.final_stage, &DocView::all(known));
        self.rank(&space, &index, &unknown.views(), depth, threads)
            .into_iter()
            .enumerate()
            .map(|(u, ranked)| RankedMatch {
                unknown: u,
                stage1: ranked.clone(),
                stage2: ranked,
            })
            .collect()
    }

    /// Convenience: accepted pairs `(unknown, candidate, score)` at the
    /// configured threshold.
    pub fn link(&self, known: &Dataset, unknown: &Dataset) -> Vec<(usize, usize, f64)> {
        let ranked = self.run(known, unknown);
        self.threshold_links(ranked)
    }

    /// Applies the configured acceptance threshold to ranked matches
    /// (shared by the unbatched and batched drivers).
    pub fn threshold_links(&self, ranked: Vec<RankedMatch>) -> Vec<(usize, usize, f64)> {
        let metrics = &self.config.metrics;
        // Micro-units because gauges are integers; together with the two
        // counters this gives acceptance rate as a function of threshold.
        metrics
            .gauge("twostage.threshold_micros")
            .set((self.config.threshold * 1e6) as i64);
        let accepted = metrics.counter("twostage.links_accepted");
        let rejected = metrics.counter("twostage.links_rejected");
        ranked
            .into_iter()
            .filter_map(|m| {
                let Some(best) = m.best() else {
                    rejected.incr();
                    return None;
                };
                if best.score >= self.config.threshold {
                    accepted.incr();
                    Some((m.unknown, best.index, best.score))
                } else {
                    rejected.incr();
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use darklight_corpus::model::{Corpus, Post, User};
    use darklight_features::pipeline::PreparedDoc;

    /// A small world: three authors with distinctive vocabulary, split into
    /// known/unknown halves.
    fn world() -> (Dataset, Dataset) {
        let styles = [
            (
                "alice",
                "gardening tulips compost seedling watering trowel blossom pruning",
            ),
            (
                "bob",
                "overclocking motherboard thermals benchmark silicon wattage chipset bios",
            ),
            (
                "carol",
                "sourdough hydration crumb proofing levain bannetons scoring oven",
            ),
        ];
        let mut known = Corpus::new("known");
        let mut unknown = Corpus::new("unknown");
        let base = 1_486_375_200i64;
        for (pid, (name, vocab)) in styles.iter().enumerate() {
            let words: Vec<&str> = vocab.split(' ').collect();
            for (half, corpus) in [(0, &mut known), (1, &mut unknown)] {
                let alias = if half == 0 {
                    name.to_string()
                } else {
                    format!("{name}_alt")
                };
                let mut u = User::new(alias, Some(pid as u64));
                for i in 0..40 {
                    let ts = base
                        + ((i + half * 40) / 5) * 7 * 86_400
                        + ((i + half * 40) % 5) * 86_400
                        + pid as i64 * 3600; // distinct posting hours
                    let w1 = words[i as usize % words.len()];
                    let w2 = words[(i as usize + 1) % words.len()];
                    let w3 = words[(i as usize + 3) % words.len()];
                    u.posts.push(Post::new(
                        format!("today i worked on {w1} and then compared {w2} with {w3} before writing notes about {w1} again"),
                        ts,
                    ));
                }
                corpus.users.push(u);
            }
        }
        let b = DatasetBuilder::new();
        (b.build(&known), b.build(&unknown))
    }

    fn config() -> TwoStageConfig {
        TwoStageConfig {
            k: 2,
            threads: 2,
            ..TwoStageConfig::default()
        }
    }

    #[test]
    fn reduce_finds_true_author_in_candidates() {
        let (known, unknown) = world();
        let engine = TwoStage::new(config());
        let stage1 = engine.reduce(&known, &unknown);
        for (u, candidates) in stage1.iter().enumerate() {
            let truth = unknown.records[u].persona;
            assert!(
                candidates
                    .iter()
                    .any(|c| known.records[c.index].persona == truth),
                "unknown {u}: true author not in candidates"
            );
        }
    }

    #[test]
    fn full_pipeline_matches_correctly() {
        let (known, unknown) = world();
        let engine = TwoStage::new(config());
        let results = engine.run(&known, &unknown);
        assert_eq!(results.len(), unknown.len());
        for m in &results {
            let best = m.best().expect("candidates exist");
            assert_eq!(
                known.records[best.index].persona, unknown.records[m.unknown].persona,
                "wrong match for unknown {}",
                m.unknown
            );
            assert!(best.score > 0.2, "score {}", best.score);
            // Stage-2 list is sorted.
            for w in m.stage2.windows(2) {
                assert!(w[0].score >= w[1].score);
            }
        }
    }

    /// Stage 2 counts its work: one refit per unknown with candidates,
    /// vectorizing its k candidates and itself; an unknown without
    /// candidates refits nothing. Only the stage-1 fit records
    /// `features.*` metrics.
    #[test]
    fn stage2_counts_its_refits_and_vectors() {
        let (known, unknown) = world();
        let metrics = PipelineMetrics::enabled();
        let engine = TwoStage::new(config().with_metrics(metrics.clone()));
        let results = engine.run(&known, &unknown);
        assert!(results.iter().all(|m| m.stage1.len() == 2));
        let counts = || {
            [
                "twostage.stage2_fits",
                "twostage.stage2_vectors",
                "features.fits",
                "features.vectors",
            ]
            .map(|name| metrics.counter(name).get())
        };
        // Three known vectors and three queries in stage 1.
        assert_eq!(counts(), [3, 3 * (2 + 1), 1, 6]);
        let mut stage1: Vec<Vec<Ranked>> = results.into_iter().map(|m| m.stage1).collect();
        stage1[1].clear();
        engine.rescore(&known, &unknown, stage1);
        assert_eq!(counts(), [3 + 2, 9 + 2 * 3, 1, 6]);
    }

    /// A fit's index holds what `CandidateIndex::build` makes of each
    /// known document's `vectorize_counted` vector, posting for posting
    /// and bit for bit, in both stages' configurations.
    #[test]
    fn fit_known_indexes_the_per_document_vectors() {
        let (known, _) = world();
        let engine = TwoStage::new(config());
        for fc in [&engine.config().reduction, &engine.config().final_stage] {
            let (space, index) = engine.fit_known(fc, &DocView::all(&known));
            let vectors: Vec<SparseVector> = known
                .records
                .iter()
                .map(|r| space.vectorize_counted(&r.counted, r.profile.as_ref()))
                .collect();
            let built = CandidateIndex::build(&vectors, space.dim());
            assert_eq!(index.len(), known.len());
            assert_eq!(index.posting_bits(), built.posting_bits());
        }
    }

    /// Stage-2 scores read off the refit's features are bit for bit the
    /// unknown's per-document vector dotted with each candidate's: 0.0
    /// for a candidate sharing no feature with it, and an exact tie
    /// between two identical candidates ordered by known index.
    #[test]
    fn rescore_scores_equal_per_document_dots_bit_for_bit() {
        let texts = [
            "gardening tulips, compost and seedling watering!",
            "overclocking the motherboard: thermals at 90",
            "zzzz",
            "gardening tulips, compost and seedling watering!",
            "tulips and compost for the seedling beds, 2 of them",
        ];
        let prepared: Vec<PreparedDoc> = texts
            .iter()
            .map(|t| PreparedDoc::prepare(t, None))
            .collect();
        let counted = CountedDoc::count_all(&prepared.iter().collect::<Vec<_>>(), 3, 5, 1);
        let (known, unknown) = counted.split_at(4);
        let views: Vec<DocView<'_>> = known
            .iter()
            .map(|counted| DocView {
                counted,
                profile: None,
            })
            .collect();
        let unknown = DocView {
            counted: &unknown[0],
            profile: None,
        };
        let candidates: Vec<Ranked> = [3, 2, 0, 1]
            .map(|index| Ranked { index, score: 0.0 })
            .to_vec();
        let engine = TwoStage::new(config());
        let m = engine.rescore_one(&views, unknown, 0, &candidates);

        let docs = candidates
            .iter()
            .map(|c| &known[c.index])
            .chain([unknown.counted]);
        let space = FeatureExtractor::new(engine.config().final_stage.clone()).fit_counted(docs);
        let uvec = space.vectorize_counted(unknown.counted, None);
        for r in &m.stage2 {
            let want = uvec.dot(&space.vectorize_counted(&known[r.index], None));
            assert_eq!(r.score.to_bits(), want.to_bits(), "candidate {}", r.index);
        }
        let order: Vec<usize> = m.stage2.iter().map(|r| r.index).collect();
        assert_eq!(order, [0, 3, 1, 2]);
        assert_eq!(m.stage2[0].score.to_bits(), m.stage2[1].score.to_bits());
        assert_eq!(m.stage2[3].score, 0.0);
        assert!(m.stage2[2].score > 0.0);
    }

    #[test]
    fn without_reduction_also_ranks() {
        let (known, unknown) = world();
        let engine = TwoStage::new(config());
        let results = engine.run_without_reduction(&known, &unknown);
        for m in &results {
            let best = m.best().unwrap();
            assert_eq!(
                known.records[best.index].persona,
                unknown.records[m.unknown].persona
            );
        }
    }

    #[test]
    fn link_respects_threshold() {
        let (known, unknown) = world();
        let mut cfg = config();
        cfg.threshold = 1.1; // impossible
        assert!(TwoStage::new(cfg.clone()).link(&known, &unknown).is_empty());
        cfg.threshold = 0.0;
        let links = TwoStage::new(cfg).link(&known, &unknown);
        assert_eq!(links.len(), unknown.len());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (known, unknown) = world();
        let r1 = TwoStage::new(TwoStageConfig {
            threads: 1,
            ..config()
        })
        .run(&known, &unknown);
        let r4 = TwoStage::new(TwoStageConfig {
            threads: 4,
            ..config()
        })
        .run(&known, &unknown);
        for (a, b) in r1.iter().zip(&r4) {
            assert_eq!(a.best().map(|x| x.index), b.best().map(|x| x.index));
            assert!((a.best().unwrap().score - b.best().unwrap().score).abs() < 1e-9);
        }
    }

    #[test]
    fn unknowns_are_rebased_only_across_lineages() {
        let (known, unknown) = world();
        // A dataset is one lineage: nothing to copy.
        assert!(Unknowns::new(&known, known.lexicon()).rebased.is_none());
        // Two builds are two lineages: the counts are copied into one
        // extension of the known lexicon, which itself never grows.
        let base_len = known.lexicon().len();
        let unknowns = Unknowns::new(&unknown, known.lexicon());
        let rebased = unknowns.rebased.as_ref().expect("two lineages");
        for (u, record) in unknown.records.iter().enumerate() {
            assert_eq!(rebased[u], record.counted, "same terms and counts");
            assert!(rebased[u].lexicon().covers(known.lexicon()));
            assert!(std::ptr::eq(unknowns.view(u).counted, &rebased[u]));
        }
        assert_eq!(known.lexicon().len(), base_len, "the base never grows");
    }

    #[test]
    fn empty_unknown_set() {
        let (known, _) = world();
        let empty = Dataset::new("empty", Vec::new());
        let engine = TwoStage::new(config());
        assert!(engine.run(&known, &empty).is_empty());
    }

    #[test]
    fn accepted_logic() {
        let m = RankedMatch {
            unknown: 0,
            stage1: vec![],
            stage2: vec![Ranked {
                index: 3,
                score: 0.5,
            }],
        };
        assert!(m.accepted(0.4));
        assert!(!m.accepted(0.6));
        let none = RankedMatch {
            unknown: 0,
            stage1: vec![],
            stage2: vec![],
        };
        assert!(!none.accepted(0.0));
    }
}
