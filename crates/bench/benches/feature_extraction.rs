//! Benchmarks of the feature-extraction layer: tokenize+lemmatize,
//! n-gram counting, and the stage-1 and stage-2 refits (fit, weighting,
//! and the index or scores each feeds) at the shapes the batch driver
//! runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use darklight_core::attrib::CandidateIndex;
use darklight_features::pipeline::{CountedDoc, FeatureConfig, FeatureExtractor, PreparedDoc};
use darklight_features::sparse::SparseVector;
use darklight_obs::PipelineMetrics;
use darklight_synth::style::StyleGenome;
use darklight_synth::textgen::generate_long_message;
use darklight_text::lemma::Lemmatizer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn sample_texts(n: usize, words: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(11);
    (0..n)
        .map(|_| {
            let genome = StyleGenome::sample(&mut rng, 1.0);
            generate_long_message(&mut rng, &genome, 2, words)
        })
        .collect()
}

fn bench_prepare(c: &mut Criterion) {
    let texts = sample_texts(8, 1_500);
    let lemmatizer = Lemmatizer::new();
    c.bench_function("prepare_doc_1500w", |b| {
        b.iter(|| {
            for t in &texts {
                black_box(PreparedDoc::prepare(t, Some(&lemmatizer)));
            }
        })
    });
}

fn bench_counting(c: &mut Criterion) {
    let texts = sample_texts(8, 1_500);
    let lemmatizer = Lemmatizer::new();
    let docs: Vec<PreparedDoc> = texts
        .iter()
        .map(|t| PreparedDoc::prepare(t, Some(&lemmatizer)))
        .collect();
    let refs: Vec<&PreparedDoc> = docs.iter().collect();
    c.bench_function("count_ngrams_1500w", |b| {
        b.iter(|| black_box(CountedDoc::count_all(&refs, 3, 5, 1)))
    });
}

/// The refits the batch driver runs, over 1,500-word users counted in
/// one known lexicon of 105 users, through to what each refit is for: a
/// stage-1 refit on one batch of 26, ending in its candidate index, and
/// a stage-2 refit on 10 candidates plus an unknown rebased into an
/// extension of that lexicon, ending in the candidates' scores. Each
/// runs as `core` runs it — one feature-major fit
/// (`fit_feature_major`) handed to the index or walked for the scores —
/// and, for comparison under the `_per_document` names, in the old
/// shape: `fit_counted`, one `vectorize_counted` per document, then
/// `CandidateIndex::build` or one `dot` per candidate.
fn bench_refits(c: &mut Criterion) {
    let lemmatizer = Lemmatizer::new();
    let prepared: Vec<PreparedDoc> = sample_texts(106, 1_500)
        .iter()
        .map(|t| PreparedDoc::prepare(t, Some(&lemmatizer)))
        .collect();
    let (known, unknown) = prepared.split_at(105);
    let known = CountedDoc::count_all(&known.iter().collect::<Vec<_>>(), 3, 5, 1);
    let unknown = CountedDoc::from_prepared(&unknown[0], 3, 5);
    let unknown = CountedDoc::rebase_all(&[&unknown], known[0].lexicon()).remove(0);
    let fit = |config: FeatureConfig, docs: &[&CountedDoc]| {
        FeatureExtractor::new(config)
            .fit_feature_major(docs.iter().map(|&d| (d, None)))
            .1
    };
    let vectorize = |config: FeatureConfig, docs: &[&CountedDoc]| {
        let space = FeatureExtractor::new(config).fit_counted(docs.iter().copied());
        let vectors: Vec<SparseVector> = docs
            .iter()
            .map(|d| space.vectorize_counted(d, None))
            .collect();
        (space, vectors)
    };
    let batch: Vec<&CountedDoc> = known[..26].iter().collect();
    let candidates: Vec<&CountedDoc> = known[..10]
        .iter()
        .chain(std::iter::once(&unknown))
        .collect();
    let metrics = PipelineMetrics::disabled();
    let stage1 = FeatureConfig::space_reduction();
    c.bench_function("stage1_refit_26_users", |b| {
        b.iter(|| black_box(CandidateIndex::new(fit(stage1.clone(), &batch), &metrics)))
    });
    c.bench_function("stage1_refit_26_users_per_document", |b| {
        b.iter(|| {
            let (space, vectors) = vectorize(stage1.clone(), &batch);
            black_box(CandidateIndex::build(&vectors, space.dim()))
        })
    });
    let stage2 = FeatureConfig::final_stage();
    c.bench_function("stage2_refit_11_users", |b| {
        b.iter(|| black_box(fit(stage2.clone(), &candidates).dots_with_last()))
    });
    c.bench_function("stage2_refit_11_users_per_document", |b| {
        b.iter(|| {
            let (_, mut vectors) = vectorize(stage2.clone(), &candidates);
            let uvec = vectors.pop().unwrap_or_default();
            black_box(vectors.iter().map(|v| uvec.dot(v)).collect::<Vec<f64>>())
        })
    });
    let space = FeatureExtractor::new(FeatureConfig::final_stage()).fit_counted(known.iter());
    c.bench_function("vectorize_counted", |b| {
        b.iter_batched(
            || known[0].clone(),
            |d| black_box(space.vectorize_counted(&d, None)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_prepare, bench_counting, bench_refits
}
criterion_main!(benches);
