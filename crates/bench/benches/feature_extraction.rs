//! Benchmarks of the feature-extraction layer: tokenize+lemmatize,
//! n-gram counting, space fitting, and vectorization.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use darklight_features::pipeline::{CountedDoc, FeatureConfig, FeatureExtractor, PreparedDoc};
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

fn bench_fit_and_vectorize(c: &mut Criterion) {
    let texts = sample_texts(64, 1_500);
    let lemmatizer = Lemmatizer::new();
    let prepared: Vec<PreparedDoc> = texts
        .iter()
        .map(|t| PreparedDoc::prepare(t, Some(&lemmatizer)))
        .collect();
    let docs = CountedDoc::count_all(&prepared.iter().collect::<Vec<_>>(), 3, 5, 1);
    c.bench_function("fit_space_64_users", |b| {
        b.iter(|| {
            black_box(FeatureExtractor::new(FeatureConfig::final_stage()).fit_counted(docs.iter()))
        })
    });
    let space = FeatureExtractor::new(FeatureConfig::final_stage()).fit_counted(docs.iter());
    c.bench_function("vectorize_counted", |b| {
        b.iter_batched(
            || docs[0].clone(),
            |d| black_box(space.vectorize_counted(&d, None)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_prepare, bench_counting, bench_fit_and_vectorize
}
criterion_main!(benches);
