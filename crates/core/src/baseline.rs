//! The comparison baselines of §IV-F.
//!
//! * **Standard baseline** — character *free-space* 4-grams with cosine
//!   similarity, "the standard baseline in literature for our task"
//!   (Layton et al.; Koppel et al.; Schwartz et al.).
//! * **Koppel baseline** — Koppel, Schler & Argamon's "Authorship
//!   attribution in the wild": repeat 100 times — take a random 40% of the
//!   feature set, find each unknown's nearest known alias under cosine on
//!   that subspace, give that alias one vote; the normalized vote count is
//!   the match score.

use crate::attrib::{top_k_of, CandidateIndex, Ranked};
use crate::dataset::Dataset;
use crate::twostage::Unknowns;
use darklight_features::lexicon::{Lexicon, TermCounts};
use darklight_features::ngram::char_ngrams_free_space;
use darklight_features::pipeline::{FeatureConfig, FeatureExtractor};
use darklight_features::sparse::SparseVector;
use darklight_features::vocab::Vocabulary;
use std::sync::Arc;

/// The Standard baseline: char free-space 4-grams, raw term frequency,
/// unit-norm, cosine ranking. One stage, no TF-IDF, no activity profile.
#[derive(Debug, Clone)]
pub struct StandardBaseline {
    /// Vocabulary size cap (the literature uses the full gram set; capping
    /// at a large N keeps memory bounded with no measurable effect).
    pub max_features: usize,
}

impl Default for StandardBaseline {
    fn default() -> StandardBaseline {
        StandardBaseline {
            max_features: 100_000,
        }
    }
}

impl StandardBaseline {
    /// Scores every unknown against every known alias; returns per-unknown
    /// ranked candidates (all of them, best first).
    pub fn run(&self, known: &Dataset, unknown: &Dataset) -> Vec<Vec<Ranked>> {
        // Intern every alias's grams once, known aliases first.
        let mut lexicon = Lexicon::new();
        let mut count = |ds: &Dataset| -> Vec<Vec<(u32, u32)>> {
            ds.records
                .iter()
                .map(|r| lexicon.count_in(char_ngrams_free_space(&r.text, 4)))
                .collect()
        };
        let known_counts = count(known);
        let unknown_counts = count(unknown);
        let lexicon = Arc::new(lexicon);
        let known_terms: Vec<TermCounts<'_>> = known_counts
            .iter()
            .map(|c| TermCounts::new(&lexicon, c))
            .collect();
        let vocab = Vocabulary::select_top(&lexicon, &known_terms, self.max_features);
        let to_vec = |counts: &Vec<(u32, u32)>| {
            let mut pairs = Vec::with_capacity(counts.len());
            vocab.for_each_selected(TermCounts::new(&lexicon, counts), |i, c| {
                pairs.push((i, c as f32));
            });
            SparseVector::from_pairs(pairs).l2_normalized()
        };
        let known_vecs: Vec<SparseVector> = known_counts.iter().map(to_vec).collect();
        let index = CandidateIndex::build(&known_vecs, vocab.len().max(1));
        unknown_counts
            .iter()
            .map(|c| index.top_k(&to_vec(c), known.len()))
            .collect()
    }
}

/// The Koppel et al. baseline.
#[derive(Debug, Clone)]
pub struct KoppelBaseline {
    /// Number of subsampling iterations (paper: 100).
    pub iterations: usize,
    /// Fraction of features per iteration (paper: 0.40).
    pub feature_fraction: f64,
    /// Feature space used as "the original features set". Koppel et al.
    /// (2011) is pure stylometry, so the default is the space-reduction
    /// text features *without* the daily-activity block.
    pub features: FeatureConfig,
    /// RNG seed for the feature subsets.
    pub seed: u64,
}

impl Default for KoppelBaseline {
    fn default() -> KoppelBaseline {
        KoppelBaseline {
            iterations: 100,
            feature_fraction: 0.40,
            features: FeatureConfig::space_reduction().without_activity(),
            seed: 0xC0FFEE,
        }
    }
}

/// A tiny deterministic PRNG for the feature masks (SplitMix64; avoids a
/// `rand` dependency in the engine crate).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl KoppelBaseline {
    /// Runs the vote procedure; per unknown, every known alias ranked by
    /// normalized vote share (best first).
    pub fn run(&self, known: &Dataset, unknown: &Dataset) -> Vec<Vec<Ranked>> {
        let unknowns = Unknowns::new(unknown, known.lexicon());
        let (space, weights) = FeatureExtractor::new(self.features.clone()).fit_feature_major(
            known
                .records
                .iter()
                .map(|r| (&r.counted, r.profile.as_ref())),
        );
        let known_vecs = weights.rows();
        let unknown_vecs: Vec<SparseVector> = unknowns
            .views()
            .iter()
            .map(|d| space.vectorize_counted(d.counted, d.profile))
            .collect();
        let dim = space.dim();
        let mut votes: Vec<Vec<u32>> = vec![vec![0; known.len()]; unknown.len()];
        let mut rng = SplitMix64(self.seed);
        for _ in 0..self.iterations {
            // Sample the feature mask.
            let mask: Vec<bool> = (0..dim)
                .map(|_| rng.chance(self.feature_fraction))
                .collect();
            let masked: Vec<SparseVector> =
                known_vecs.iter().map(|v| mask_vector(v, &mask)).collect();
            let norms: Vec<f64> = masked.iter().map(|v| v.norm()).collect();
            let index = CandidateIndex::build(&masked, dim);
            for (u, uv) in unknown_vecs.iter().enumerate() {
                let mu = mask_vector(uv, &mask);
                let un = mu.norm();
                if un == 0.0 {
                    continue;
                }
                let dots = index.scores(&mu);
                let mut best = None;
                let mut best_score = f64::MIN;
                for (i, &d) in dots.iter().enumerate() {
                    if norms[i] == 0.0 {
                        continue;
                    }
                    let cos = d / (norms[i] * un);
                    if cos > best_score {
                        best_score = cos;
                        best = Some(i);
                    }
                }
                if let Some(b) = best {
                    votes[u][b] += 1;
                }
            }
        }
        votes
            .into_iter()
            .map(|vs| {
                let shares: Vec<f64> = vs
                    .iter()
                    .map(|&v| v as f64 / self.iterations as f64)
                    .collect();
                top_k_of(&shares, shares.len())
            })
            .collect()
    }
}

fn mask_vector(v: &SparseVector, mask: &[bool]) -> SparseVector {
    let mut out = v.clone();
    out.retain_indices(|i| mask.get(i as usize).copied().unwrap_or(false));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use darklight_corpus::model::{Corpus, Post, User};

    fn world() -> (Dataset, Dataset) {
        let styles = [
            (
                "quilts",
                "patchwork quilting batting applique binding thimble stitching fabric",
            ),
            (
                "radios",
                "antenna frequency transmitter oscillator amplifier bandwidth receiver signal",
            ),
        ];
        let mut known = Corpus::new("known");
        let mut unknown = Corpus::new("unknown");
        let base = 1_486_375_200i64;
        for (pid, (name, vocab)) in styles.iter().enumerate() {
            let words: Vec<&str> = vocab.split(' ').collect();
            for (half, corpus) in [(0usize, &mut known), (1, &mut unknown)] {
                let mut u = User::new(format!("{name}{half}"), Some(pid as u64));
                for i in 0..35i64 {
                    let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400;
                    let w1 = words[i as usize % words.len()];
                    let w2 = words[(i as usize + 2) % words.len()];
                    u.posts.push(Post::new(
                        format!("spent the evening sorting {w1} next to the {w2} while thinking about {w1} projects"),
                        ts,
                    ));
                }
                corpus.users.push(u);
            }
        }
        let b = DatasetBuilder::new();
        (b.build(&known), b.build(&unknown))
    }

    #[test]
    fn standard_baseline_ranks_true_author_first() {
        let (known, unknown) = world();
        let results = StandardBaseline::default().run(&known, &unknown);
        for (u, ranked) in results.iter().enumerate() {
            assert_eq!(
                known.records[ranked[0].index].persona,
                unknown.records[u].persona
            );
        }
    }

    #[test]
    fn standard_baseline_scores_in_unit_range() {
        let (known, unknown) = world();
        for ranked in StandardBaseline::default().run(&known, &unknown) {
            for r in ranked {
                assert!((-1e-6..=1.0 + 1e-6).contains(&r.score));
            }
        }
    }

    #[test]
    fn koppel_votes_for_true_author() {
        let (known, unknown) = world();
        let koppel = KoppelBaseline {
            iterations: 20,
            ..KoppelBaseline::default()
        };
        let results = koppel.run(&known, &unknown);
        for (u, ranked) in results.iter().enumerate() {
            assert_eq!(
                known.records[ranked[0].index].persona, unknown.records[u].persona,
                "unknown {u}"
            );
            // Vote shares normalized.
            assert!(ranked[0].score <= 1.0 + 1e-9);
            let total: f64 = ranked.iter().map(|r| r.score).sum();
            assert!(total <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn koppel_deterministic_per_seed() {
        let (known, unknown) = world();
        let k = KoppelBaseline {
            iterations: 10,
            ..KoppelBaseline::default()
        };
        let a = k.run(&known, &unknown);
        let b = k.run(&known, &unknown);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            for (r1, r2) in x.iter().zip(y) {
                assert_eq!(r1.index, r2.index);
                assert!((r1.score - r2.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mask_vector_filters() {
        let v = SparseVector::from_pairs([(0, 1.0), (1, 2.0), (2, 3.0)]);
        let masked = mask_vector(&v, &[true, false, true]);
        assert_eq!(masked.nnz(), 2);
        assert_eq!(masked.get(1), 0.0);
    }
}
