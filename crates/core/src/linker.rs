//! High-level corpus-to-corpus alias linking.
//!
//! [`Linker`] wraps the full flow the paper applies in §V: polish both
//! corpora, refine them to the minimum-data thresholds, build datasets,
//! run the two-stage pipeline, and emit alias pairs above the threshold.
//! This is the API a downstream investigator would call.

use crate::artifact::FitArtifact;
use crate::batch::{run_batched_governed, BatchConfig, BatchError, CheckpointSpec};
use crate::dataset::{Dataset, DatasetBuilder};
use crate::twostage::{TwoStage, TwoStageConfig};
use darklight_activity::profile::{ProfileBuilder, ProfilePolicy};
use darklight_corpus::model::Corpus;
use darklight_corpus::polish::{PolishConfig, Polisher};
use darklight_corpus::refine::{refine, RefineConfig};
use darklight_obs::PipelineMetrics;
use std::path::PathBuf;

/// One emitted alias pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasMatch {
    /// Alias in the known (searched) corpus.
    pub known_alias: String,
    /// Alias in the unknown (query) corpus.
    pub unknown_alias: String,
    /// Final-stage similarity score.
    pub score: f64,
}

/// End-to-end linker configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkerConfig {
    /// Polishing steps (paper defaults).
    pub polish: PolishConfig,
    /// Refinement thresholds (paper: 30 timestamps, 1,500 words).
    pub refine: RefineConfig,
    /// The attribution engine settings.
    pub two_stage: TwoStageConfig,
    /// Skip polishing (for pre-polished corpora).
    pub already_polished: bool,
    /// Run the RAM-bounded batched driver (§IV-J) instead of the
    /// unbatched pipeline. `None` links unbatched — unless
    /// `two_stage.govern.budget` is set, in which case the batch size is
    /// derived from the budget via [`BatchConfig::derive`]. When both are
    /// set the explicit batch size wins and the budget acts as a
    /// guard-rail: the pressure ladder shrinks breaching rounds.
    pub batch: Option<BatchConfig>,
    /// Persist batched state here after every round and resume from it on
    /// restart (see [`crate::batch`]). Only meaningful when batched
    /// (an explicit `batch` or a governor memory budget).
    pub checkpoint: Option<PathBuf>,
}

/// The end-to-end linker.
#[derive(Debug)]
pub struct Linker {
    config: LinkerConfig,
    metrics: PipelineMetrics,
    polisher: Polisher,
    builder: DatasetBuilder,
}

impl Linker {
    /// Creates a linker. The `two_stage.threads` knob is the single
    /// thread-count source for the whole pipeline: polishing, dataset
    /// building, and both attribution stages all resolve their worker
    /// pools from it.
    pub fn new(config: LinkerConfig) -> Linker {
        let threads = config.two_stage.threads;
        let polisher = Polisher::new(config.polish.clone()).with_threads(threads);
        // Precount at the largest n-gram maxima any stage will score with;
        // a smaller count silently drops whole n-gram families (the old
        // hardcoded (3, 5) bug).
        let ts = &config.two_stage;
        let max_word_n = ts.reduction.max_word_n.max(ts.final_stage.max_word_n);
        let max_char_n = ts.reduction.max_char_n.max(ts.final_stage.max_char_n);
        let builder = DatasetBuilder::new()
            .with_ngram_orders(max_word_n, max_char_n)
            .with_threads(threads);
        Linker {
            config,
            metrics: PipelineMetrics::disabled(),
            polisher,
            builder,
        }
    }

    /// Records the whole pipeline — polishing, feature extraction,
    /// candidate indexing, both attribution stages — into `metrics`.
    /// Metrics only observe; enabling them does not change which pairs
    /// are emitted (pinned by `tests/metrics_parity.rs`).
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> Linker {
        self.polisher = Polisher::new(self.config.polish.clone())
            .with_threads(self.config.two_stage.threads)
            .with_metrics(metrics.clone());
        self.builder = self.builder.with_metrics(metrics.clone());
        self.config.two_stage.metrics = metrics.clone();
        self.metrics = metrics;
        self
    }

    /// The metrics handle (disabled unless set via
    /// [`with_metrics`](Linker::with_metrics)).
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// The configuration.
    pub fn config(&self) -> &LinkerConfig {
        &self.config
    }

    /// Polishes + refines one corpus into an attribution dataset.
    pub fn prepare(&self, corpus: &Corpus) -> Dataset {
        let _prepare = self.metrics.timer("linker.prepare").start();
        let polished = if self.config.already_polished {
            corpus.clone()
        } else {
            self.polisher.polish(corpus).0
        };
        let profiles = ProfileBuilder::new(ProfilePolicy::default());
        let refined = refine(&polished, self.config.refine, &profiles);
        self.builder.build(&refined)
    }

    /// Runs the offline half of a fit-once/serve-many split: prepares
    /// the known corpus exactly as [`link`](Linker::link) would (polish,
    /// refine, build) and captures the stage-1 fit in a [`FitArtifact`]
    /// ready to persist. Serving the artifact through
    /// [`link_with_artifact`](Linker::link_with_artifact) reproduces the
    /// fit-every-time output byte-for-byte.
    pub fn fit_artifact(&self, known: &Corpus) -> FitArtifact {
        let _fit = self.metrics.timer("linker.fit_artifact").start();
        let known_ds = self.prepare(known);
        FitArtifact::fit(&self.config.two_stage, known_ds)
    }

    /// Links `unknown`'s aliases against a previously fitted artifact
    /// instead of refitting on a known corpus: prepares only the
    /// unknown side, ranks it against the artifact's restored space and
    /// vectors, and rescores stage 2 on the artifact's known records.
    /// Output is byte-identical to [`link`](Linker::link) over the
    /// corpus the artifact was fitted from (pinned by
    /// `tests/artifact_parity.rs` at threads 1, 2, and 7).
    ///
    /// Serving is always unbatched — batching exists to bound the
    /// *fit-side* working set, which the artifact has already paid.
    pub fn link_with_artifact(&self, artifact: &FitArtifact, unknown: &Corpus) -> Vec<AliasMatch> {
        let _link = self.metrics.timer("linker.link").start();
        let unknown_ds = self.prepare(unknown);
        if artifact.known.is_empty() || unknown_ds.is_empty() {
            return Vec::new();
        }
        let engine = TwoStage::new(self.config.two_stage.clone());
        let ranked = engine.run_prefit(artifact, &unknown_ds);
        engine
            .threshold_links(ranked)
            .into_iter()
            .map(|(u, k, score)| AliasMatch {
                known_alias: artifact.known.records[k].alias.clone(),
                unknown_alias: unknown_ds.records[u].alias.clone(),
                score,
            })
            .collect()
    }

    /// Links `unknown`'s aliases to `known`'s: every emitted pair says
    /// "this unknown alias is the same person as this known alias".
    ///
    /// Infallible convenience for the unbatched configuration.
    ///
    /// # Panics
    ///
    /// Panics when a batched configuration fails (invalid batch size,
    /// checkpoint error) — use [`try_link`](Linker::try_link) to handle
    /// those as values.
    pub fn link(&self, known: &Corpus, unknown: &Corpus) -> Vec<AliasMatch> {
        self.try_link(known, unknown)
            .unwrap_or_else(|e| panic!("link failed: {e}"))
    }

    /// [`link`](Linker::link) with typed errors: invalid batch configs
    /// and checkpoint failures surface as [`BatchError`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// See [`run_batched_governed`]; unbatched runs cannot fail.
    pub fn try_link(
        &self,
        known: &Corpus,
        unknown: &Corpus,
    ) -> Result<Vec<AliasMatch>, BatchError> {
        let known_ds = self.prepare(known);
        let unknown_ds = self.prepare(unknown);
        self.try_link_datasets(&known_ds, &unknown_ds)
    }

    /// Links two prepared datasets with typed errors.
    ///
    /// # Errors
    ///
    /// See [`try_link`](Linker::try_link); additionally
    /// [`BatchError::Govern`] when a memory budget is too small for even
    /// one candidate, when the pressure ladder cannot satisfy it, or when
    /// a stage deadline expires.
    pub fn try_link_datasets(
        &self,
        known: &Dataset,
        unknown: &Dataset,
    ) -> Result<Vec<AliasMatch>, BatchError> {
        if let Some(batch) = &self.config.batch {
            batch.validate()?;
        }
        let _link = self.metrics.timer("linker.link").start();
        if known.is_empty() || unknown.is_empty() {
            return Ok(Vec::new());
        }
        let engine = TwoStage::new(self.config.two_stage.clone());
        // An explicit batch size wins; a budget alone derives the largest
        // admissible size. With neither, the run is unbatched.
        let batch = match (&self.config.batch, &self.config.two_stage.govern.budget) {
            (Some(batch), _) => Some(batch.clone()),
            (None, Some(budget)) => Some(BatchConfig::derive(budget, known, unknown)?),
            (None, None) => None,
        };
        let pairs = match &batch {
            None => engine.link(known, unknown),
            Some(batch) => {
                let spec = self
                    .config
                    .checkpoint
                    .as_ref()
                    .map(|path| CheckpointSpec::new(path.clone()));
                let ranked = run_batched_governed(&engine, batch, known, unknown, spec.as_ref())?;
                engine.threshold_links(ranked)
            }
        };
        Ok(pairs
            .into_iter()
            .map(|(u, k, score)| AliasMatch {
                known_alias: known.records[k].alias.clone(),
                unknown_alias: unknown.records[u].alias.clone(),
                score,
            })
            .collect())
    }
}

impl Default for Linker {
    fn default() -> Linker {
        Linker::new(LinkerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darklight_corpus::model::{Post, User};

    /// Builds a corpus of `n` users with distinctive vocabulary; user 0 of
    /// each corpus is the same persona.
    fn corpus(name: &str, salt: usize) -> Corpus {
        let mut c = Corpus::new(name);
        let base = 1_486_375_200i64;
        for pid in 0..4u64 {
            let mut u = User::new(format!("{name}_user{pid}"), Some(pid));
            // Shared persona vocabulary regardless of forum; enough posts
            // and words to survive refinement.
            let vocab = match pid {
                0 => ["harpsichord", "madrigal", "counterpoint", "basso"],
                1 => ["terrarium", "isopods", "springtails", "bioactive"],
                2 => ["leatherwork", "awl", "burnishing", "saddle"],
                _ => ["homebrew", "fermenter", "sparge", "lauter"],
            };
            for i in 0..70i64 {
                let ts = base
                    + (i / 5) * 7 * 86_400
                    + (i % 5) * 86_400
                    + (pid as i64) * 7_200
                    + salt as i64; // forums differ slightly
                let w1 = vocab[i as usize % 4];
                let w2 = vocab[(i as usize + 1) % 4];
                // Unique per-post marker words keep the dedup step from
                // collapsing the corpus.
                let ma = char::from(b'a' + (i % 26) as u8);
                let mb = char::from(b'a' + ((i / 26) % 26) as u8);
                u.posts.push(Post::new(
                    format!(
                        "today the {w1} project moved forward again and i compared several {w2} methods \
                         with friends near batch {ma}{mb} before writing longer notes about {w1} \
                         techniques and the tools involved"
                    ),
                    ts,
                ));
            }
            c.users.push(u);
        }
        c
    }

    #[test]
    fn links_matching_personas_across_corpora() {
        let known = corpus("forum_a", 0);
        let unknown = corpus("forum_b", 1800);
        let mut cfg = LinkerConfig::default();
        cfg.two_stage.k = 2;
        cfg.two_stage.threshold = 0.3;
        cfg.two_stage.threads = 2;
        let linker = Linker::new(cfg);
        let matches = linker.link(&known, &unknown);
        assert!(!matches.is_empty());
        for m in &matches {
            // forum_a_userX should match forum_b_userX.
            let ka = m.known_alias.trim_start_matches("forum_a_user");
            let ua = m.unknown_alias.trim_start_matches("forum_b_user");
            assert_eq!(ka, ua, "{m:?}");
            assert!(m.score >= 0.3);
        }
    }

    #[test]
    fn batched_link_agrees_with_unbatched() {
        let known = corpus("forum_a", 0);
        let unknown = corpus("forum_b", 1800);
        let mut cfg = LinkerConfig::default();
        cfg.two_stage.k = 2;
        cfg.two_stage.threshold = 0.3;
        cfg.two_stage.threads = 2;
        let plain = Linker::new(cfg.clone()).link(&known, &unknown);
        // A batch larger than the known set degenerates to a single round
        // over the full pool, so the outputs must agree exactly.
        cfg.batch = Some(BatchConfig { batch_size: 16 });
        let batched = Linker::new(cfg).try_link(&known, &unknown).unwrap();
        assert_eq!(plain, batched);
    }

    #[test]
    fn budget_only_link_matches_explicit_derived_batch() {
        use crate::batch::{budget_overhead_bytes, budget_per_candidate_bytes};
        let known = corpus("forum_a", 0);
        let unknown = corpus("forum_b", 1800);
        let mut cfg = LinkerConfig::default();
        cfg.two_stage.k = 2;
        cfg.two_stage.threshold = 0.3;
        cfg.two_stage.threads = 2;
        // Compute the budget against the same datasets the linker builds.
        let probe = Linker::new(cfg.clone());
        let (known_ds, unknown_ds) = (probe.prepare(&known), probe.prepare(&unknown));
        let budget = darklight_govern::MemoryBudget::from_bytes(
            budget_overhead_bytes(&unknown_ds) + 2 * budget_per_candidate_bytes(&known_ds),
        )
        .unwrap();
        let derived = BatchConfig::derive(&budget, &known_ds, &unknown_ds).unwrap();
        assert_eq!(derived.batch_size, 2);
        let mut explicit_cfg = cfg.clone();
        explicit_cfg.batch = Some(derived);
        let explicit = Linker::new(explicit_cfg)
            .try_link(&known, &unknown)
            .unwrap();
        let mut governed_cfg = cfg;
        governed_cfg.two_stage.govern.budget = Some(budget);
        let governed = Linker::new(governed_cfg)
            .try_link(&known, &unknown)
            .unwrap();
        assert_eq!(explicit, governed);
    }

    #[test]
    fn zero_batch_size_is_a_typed_error_through_the_linker() {
        let known = corpus("forum_a", 0);
        let unknown = corpus("forum_b", 1800);
        let mut cfg = LinkerConfig::default();
        cfg.two_stage.threads = 2;
        cfg.batch = Some(BatchConfig { batch_size: 0 });
        let err = Linker::new(cfg).try_link(&known, &unknown).unwrap_err();
        assert!(matches!(err, BatchError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn artifact_serving_matches_fresh_link_exactly() {
        let known = corpus("forum_a", 0);
        let unknown = corpus("forum_b", 1800);
        let mut cfg = LinkerConfig::default();
        cfg.two_stage.k = 2;
        cfg.two_stage.threshold = 0.3;
        cfg.two_stage.threads = 2;
        let linker = Linker::new(cfg);
        let fresh = linker.link(&known, &unknown);
        let artifact = linker.fit_artifact(&known);
        let served = linker.link_with_artifact(&artifact, &unknown);
        assert_eq!(fresh.len(), served.len());
        for (a, b) in fresh.iter().zip(&served) {
            assert_eq!(a.known_alias, b.known_alias);
            assert_eq!(a.unknown_alias, b.unknown_alias);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn empty_corpora_yield_no_matches() {
        let linker = Linker::default();
        let empty = Corpus::new("e");
        assert!(linker.link(&empty, &empty).is_empty());
        let known = corpus("a", 0);
        assert!(linker.link(&known, &empty).is_empty());
    }

    #[test]
    fn prepare_refines_thin_users_away() {
        let mut c = corpus("x", 0);
        let mut thin = User::new("thin_user", None);
        thin.posts
            .push(Post::new("one short post only", 1_486_375_200));
        c.users.push(thin);
        let linker = Linker::default();
        let ds = linker.prepare(&c);
        assert!(ds.index_of("thin_user").is_none());
        assert_eq!(ds.len(), 4);
    }
}
