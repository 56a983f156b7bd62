//! Cosine ranking and k-attribution (§IV-C).
//!
//! With ~10,000 candidate aliases it is "neither practical to learn a
//! single classifier for 10,000 classes, nor … 10,000 one-versus-all
//! binary classifiers"; the paper ranks candidates by cosine similarity
//! instead. Vectors are unit-norm, so ranking reduces to sparse dot
//! products; the [`CandidateIndex`] stores the known aliases' vectors as an
//! inverted index (feature → postings) and scores a query in
//! O(Σ_{f ∈ query} |postings(f)|) — orders of magnitude faster than
//! pairwise dot products at forum scale. A fit weights its documents
//! feature by feature, so the stage-1 fit's output already is that index
//! and [`CandidateIndex::new`] takes it over without a copy; vectors
//! held one by one (a decoded artifact's, the baselines') are transposed
//! by [`CandidateIndex::build`]. Query batches are scored in parallel
//! with scoped threads.

use std::cmp::Ordering;

use darklight_features::sparse::{FeatureMajor, SparseVector};
use darklight_obs::{Counter, Histogram, PipelineMetrics, Timer};

/// A ranked candidate: index into the known set plus cosine score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranked {
    /// Index of the known alias.
    pub index: usize,
    /// Cosine similarity to the query (vectors are unit-norm).
    pub score: f64,
}

/// Pre-resolved instruments so the per-query hot path never touches the
/// registry. All of them are no-ops when built without metrics.
#[derive(Debug, Clone, Default)]
struct IndexInstruments {
    /// Postings-list entries walked per scored query.
    postings_touched: Histogram,
    /// Queries scored (single and batched).
    queries_scored: Counter,
    /// Wall-clock per `top_k_batch` call; with `batch_queries` this gives
    /// batch scoring throughput.
    batch_time: Timer,
    /// Queries submitted through `top_k_batch`.
    batch_queries: Counter,
}

impl IndexInstruments {
    fn resolve(metrics: &PipelineMetrics) -> IndexInstruments {
        IndexInstruments {
            postings_touched: metrics.histogram("attrib.postings_touched_per_query"),
            queries_scored: metrics.counter("attrib.queries_scored"),
            batch_time: metrics.timer("attrib.batch_scoring"),
            batch_queries: metrics.counter("attrib.batch_queries"),
        }
    }
}

/// An inverted index over the known aliases' unit-norm feature vectors,
/// stored compressed by feature: a [`FeatureMajor`], whose feature `f`
/// lists the aliases holding it, in user order.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    weights: FeatureMajor,
    instruments: IndexInstruments,
}

impl CandidateIndex {
    /// Builds the index over per-alias vectors. `dim` must exceed every
    /// feature index used by the vectors.
    ///
    /// # Panics
    ///
    /// Panics if a vector holds an index `>= dim`.
    pub fn build(vectors: &[SparseVector], dim: usize) -> CandidateIndex {
        CandidateIndex::new(
            FeatureMajor::from_rows(vectors, dim),
            &PipelineMetrics::disabled(),
        )
    }

    /// Indexes the aliases' vectors already stored feature by feature —
    /// a fit's own output — without copying them, recording the hand-over
    /// time and the index shape into `metrics` and wiring per-query
    /// instruments.
    pub fn new(weights: FeatureMajor, metrics: &PipelineMetrics) -> CandidateIndex {
        let _build = metrics.timer("attrib.index_build").start();
        metrics
            .gauge("attrib.index_users")
            .set(weights.docs() as i64);
        metrics.gauge("attrib.index_dim").set(weights.dim() as i64);
        metrics
            .counter("attrib.index_postings")
            .add(weights.nnz() as u64);
        CandidateIndex {
            weights,
            instruments: IndexInstruments::resolve(metrics),
        }
    }

    /// The indexed aliases' vectors, in user order.
    pub fn rows(&self) -> Vec<SparseVector> {
        self.weights.rows()
    }

    /// The index's entries, feature by feature, each weight as its bits.
    #[cfg(test)]
    pub(crate) fn posting_bits(&self) -> Vec<Vec<(u32, u32)>> {
        self.weights
            .columns()
            .map(|c| c.iter().map(|&(u, w)| (u, w.to_bits())).collect())
            .collect()
    }

    /// Number of indexed aliases.
    pub fn len(&self) -> usize {
        self.weights.docs()
    }

    /// `true` when no aliases are indexed.
    pub fn is_empty(&self) -> bool {
        self.weights.docs() == 0
    }

    /// Dot products (== cosine for unit-norm inputs) of `query` against
    /// every indexed alias.
    pub fn scores(&self, query: &SparseVector) -> Vec<f64> {
        self.scores_with(query, &self.instruments)
    }

    fn scores_with(&self, query: &SparseVector, instruments: &IndexInstruments) -> Vec<f64> {
        let mut scores = vec![0.0f64; self.len()];
        let mut touched = 0u64;
        for (f, w) in query.iter() {
            let list = self.weights.column(f);
            touched += list.len() as u64;
            for &(user, wu) in list {
                scores[user as usize] += w as f64 * wu as f64;
            }
        }
        instruments.postings_touched.record(touched);
        instruments.queries_scored.incr();
        scores
    }

    /// The `k` best-scoring aliases for `query`, sorted by descending
    /// score (ties broken toward lower indices for determinism).
    pub fn top_k(&self, query: &SparseVector, k: usize) -> Vec<Ranked> {
        let scores = self.scores(query);
        top_k_of(&scores, k)
    }

    /// Scores a batch of queries across `threads` worker threads,
    /// preserving input order (the shared [`darklight_par::par_map`]
    /// helper guarantees slot `i` holds query `i`'s result for every
    /// thread count, ragged tails included).
    pub fn top_k_batch(
        &self,
        queries: &[SparseVector],
        k: usize,
        threads: usize,
    ) -> Vec<Vec<Ranked>> {
        self.top_k_batch_with(queries, k, threads, &self.instruments)
    }

    /// [`top_k_batch`](CandidateIndex::top_k_batch), recording into
    /// `metrics` rather than the handle the index was built with: an
    /// index built once (a fit artifact's) serves every later run's
    /// queries, and each run observes its own.
    pub fn top_k_batch_observed(
        &self,
        queries: &[SparseVector],
        k: usize,
        threads: usize,
        metrics: &PipelineMetrics,
    ) -> Vec<Vec<Ranked>> {
        self.top_k_batch_with(queries, k, threads, &IndexInstruments::resolve(metrics))
    }

    fn top_k_batch_with(
        &self,
        queries: &[SparseVector],
        k: usize,
        threads: usize,
        instruments: &IndexInstruments,
    ) -> Vec<Vec<Ranked>> {
        let _batch = instruments.batch_time.start();
        instruments.batch_queries.add(queries.len() as u64);
        darklight_par::par_map(queries, threads, |_, q| {
            top_k_of(&self.scores_with(q, instruments), k)
        })
    }
}

/// Descending total order over `(score, index)` pairs: higher scores
/// first, NaN after every real score, ties broken toward lower indices.
/// Shared by [`top_k_of`], [`rank_of`], and the stage-2 re-ranking so
/// every ranking in the pipeline agrees on ordering. Delegates to the
/// workspace-blessed [`darklight_order::cmp_desc_indexed`].
pub(crate) fn cmp_desc(a: (f64, usize), b: (f64, usize)) -> Ordering {
    darklight_order::cmp_desc_indexed(a, b)
}

/// Extracts the top-k entries of a dense score vector. NaN scores are
/// tolerated and rank below every real score.
pub fn top_k_of(scores: &[f64], k: usize) -> Vec<Ranked> {
    let mut ranked: Vec<Ranked> = scores
        .iter()
        .enumerate()
        .map(|(index, &score)| Ranked { index, score })
        .collect();
    ranked.sort_by(|a, b| cmp_desc((a.score, a.index), (b.score, b.index)));
    ranked.truncate(k);
    ranked
}

/// The rank (1-based) of `target` in the scores, or `None` if out of
/// range; used by accuracy@k computations. Uses the same ordering as
/// [`top_k_of`], so `rank_of(scores, t)` is exactly the position of `t`
/// in `top_k_of(scores, scores.len())`.
pub fn rank_of(scores: &[f64], target: usize) -> Option<usize> {
    if target >= scores.len() {
        return None;
    }
    let t = (scores[target], target);
    let better = scores
        .iter()
        .enumerate()
        .filter(|&(i, &s)| i != target && cmp_desc((s, i), t) == Ordering::Less)
        .count();
    Some(better + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied()).l2_normalized()
    }

    fn sample_index() -> (CandidateIndex, Vec<SparseVector>) {
        let vectors = vec![
            vec_of(&[(0, 1.0), (1, 1.0)]),
            vec_of(&[(1, 1.0), (2, 1.0)]),
            vec_of(&[(3, 1.0)]),
        ];
        (CandidateIndex::build(&vectors, 8), vectors)
    }

    /// Index scores carry the bits of the pairwise dot product: each
    /// user's postings are walked in feature order, as the merge walks
    /// them. Vectors from a fixed generator, empty ones included.
    #[test]
    fn scores_equal_sparse_dot_bit_for_bit() {
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(bound)) as u32
        };
        let dim = 300;
        let mut random_vector = |nnz: u32| {
            let pairs: Vec<(u32, f32)> = (0..nnz)
                .map(|_| (next(dim), next(10_000) as f32 / 977.0 + 1e-3))
                .collect();
            vec_of(&pairs)
        };
        let mut vectors: Vec<SparseVector> = (0..26).map(|u| random_vector(u * 7)).collect();
        vectors.push(SparseVector::new());
        let index = CandidateIndex::build(&vectors, dim as usize);
        for nnz in [0, 1, 40, 150, 300] {
            let q = random_vector(nnz);
            let scores = index.scores(&q);
            for (u, v) in vectors.iter().enumerate() {
                assert_eq!(scores[u].to_bits(), q.dot(v).to_bits(), "user {u}");
            }
        }
    }

    #[test]
    fn top_k_sorted_and_truncated() {
        let (index, _) = sample_index();
        let q = vec_of(&[(1, 1.0)]);
        let top = index.top_k(&q, 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].score >= top[1].score);
        assert_eq!(top[0].index, 0); // tie with 1 broken toward lower index
    }

    #[test]
    fn top_k_larger_than_set() {
        let (index, _) = sample_index();
        let top = index.top_k(&vec_of(&[(0, 1.0)]), 10);
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn batch_matches_sequential() {
        let (index, vectors) = sample_index();
        let queries: Vec<SparseVector> = (0..40)
            .map(|i| vectors[i % vectors.len()].clone())
            .collect();
        let seq: Vec<Vec<Ranked>> = queries.iter().map(|q| index.top_k(q, 2)).collect();
        let par = index.top_k_batch(&queries, 2, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn batch_with_ragged_final_chunk() {
        // 7 queries on 3 threads → chunks of 3, 3, 1; the short tail must
        // still land in the right output slots.
        let (index, vectors) = sample_index();
        let queries: Vec<SparseVector> =
            (0..7).map(|i| vectors[i % vectors.len()].clone()).collect();
        let seq: Vec<Vec<Ranked>> = queries.iter().map(|q| index.top_k(q, 2)).collect();
        let par = index.top_k_batch(&queries, 2, 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn self_query_scores_one() {
        let (index, vectors) = sample_index();
        for (i, v) in vectors.iter().enumerate() {
            let top = index.top_k(v, 1);
            assert_eq!(top[0].index, i);
            assert!((top[0].score - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_index() {
        let index = CandidateIndex::build(&[], 4);
        assert!(index.is_empty());
        assert!(index.top_k(&vec_of(&[(0, 1.0)]), 3).is_empty());
    }

    #[test]
    fn metrics_record_build_and_query_activity() {
        let metrics = PipelineMetrics::enabled();
        let vectors = vec![vec_of(&[(0, 1.0), (1, 1.0)]), vec_of(&[(1, 1.0)])];
        let index = CandidateIndex::new(FeatureMajor::from_rows(&vectors, 4), &metrics);
        index.top_k(&vec_of(&[(1, 1.0)]), 1);
        assert_eq!(metrics.gauge("attrib.index_users").get(), 2);
        assert_eq!(metrics.gauge("attrib.index_dim").get(), 4);
        assert_eq!(metrics.counter("attrib.index_postings").get(), 3);
        assert_eq!(metrics.counter("attrib.queries_scored").get(), 1);
        // The query hits feature 1, whose postings list holds both users.
        assert_eq!(
            metrics.histogram("attrib.postings_touched_per_query").sum(),
            2
        );
        assert_eq!(metrics.timer("attrib.index_build").count(), 1);
    }

    #[test]
    fn top_k_of_tolerates_nan() {
        let scores = [0.3, f64::NAN, 0.9, f64::NAN, 0.0];
        let top = top_k_of(&scores, 5);
        let order: Vec<usize> = top.iter().map(|r| r.index).collect();
        assert_eq!(order, vec![2, 0, 4, 1, 3]); // NaNs last, index-ordered
    }

    #[test]
    fn rank_of_positions() {
        let scores = [0.9, 0.5, 0.7];
        assert_eq!(rank_of(&scores, 0), Some(1));
        assert_eq!(rank_of(&scores, 2), Some(2));
        assert_eq!(rank_of(&scores, 1), Some(3));
        assert_eq!(rank_of(&scores, 9), None);
    }

    #[test]
    fn rank_of_tie_break() {
        let scores = [0.5, 0.5];
        assert_eq!(rank_of(&scores, 0), Some(1));
        assert_eq!(rank_of(&scores, 1), Some(2));
    }

    #[test]
    fn cmp_desc_is_total_under_non_finite_scores() {
        // A sort comparator that is not a total order panics in the
        // standard library sort; mixing NaN and both infinities is the
        // worst case a zero-norm document can feed it.
        let scores = [
            f64::NAN,
            f64::NEG_INFINITY,
            0.5,
            f64::INFINITY,
            f64::NAN,
            0.0,
        ];
        let top = top_k_of(&scores, scores.len());
        let order: Vec<usize> = top.iter().map(|r| r.index).collect();
        // +inf first, then finite descending, -inf, NaNs last by index.
        assert_eq!(order, vec![3, 2, 5, 1, 0, 4]);
    }

    #[test]
    fn top_k_batch_tolerates_zero_norm_vectors() {
        // A document emptied by polishing vectorizes to the zero vector;
        // as index entry and as query it must score, not panic.
        let vectors = vec![
            vec_of(&[(0, 1.0), (1, 1.0)]),
            SparseVector::new(), // zero-norm known
            vec_of(&[(1, 2.0)]),
        ];
        let index = CandidateIndex::build(&vectors, 4);
        let queries = vec![vec_of(&[(1, 1.0)]), SparseVector::new()];
        let tops = index.top_k_batch(&queries, 3, 2);
        assert_eq!(tops.len(), 2);
        // Real query: the zero-norm candidate never outranks a scored one.
        assert!(tops[0].iter().all(|r| r.score.is_finite()));
        // Zero-norm query: nothing to score; whatever comes back is
        // finite or empty, never a panic.
        for r in &tops[1] {
            assert!(!r.score.is_nan(), "NaN leaked from zero-norm query");
        }
    }

    #[test]
    fn rank_of_agrees_with_top_k_under_nan() {
        let scores = [f64::NAN, 0.2, 0.8, f64::NAN, 0.2];
        let full = top_k_of(&scores, scores.len());
        for target in 0..scores.len() {
            let pos = full.iter().position(|r| r.index == target).unwrap() + 1;
            assert_eq!(rank_of(&scores, target), Some(pos), "target {target}");
        }
    }
}
