//! Benchmarks of the similarity layer: sparse dot products vs the inverted
//! index, at candidate-set sizes spanning the paper's forums.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use darklight_core::attrib::CandidateIndex;
use darklight_features::sparse::SparseVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const DIM: u32 = 90_000;

fn random_vector(rng: &mut StdRng, nnz: usize) -> SparseVector {
    SparseVector::from_pairs((0..nnz).map(|_| (rng.random_range(0..DIM), rng.random::<f32>())))
        .l2_normalized()
}

fn bench_sparse_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let a = random_vector(&mut rng, 5_000);
    let b = random_vector(&mut rng, 5_000);
    c.bench_function("sparse_dot_5k_nnz", |bch| bch.iter(|| black_box(a.dot(&b))));
    c.bench_function("sparse_cosine_5k_nnz", |bch| {
        bch.iter(|| black_box(a.cosine(&b)))
    });
}

fn bench_index_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_top10");
    for &n_users in &[178usize, 422, 2_000] {
        let mut rng = StdRng::seed_from_u64(7);
        let vectors: Vec<SparseVector> = (0..n_users)
            .map(|_| random_vector(&mut rng, 2_000))
            .collect();
        let index = CandidateIndex::build(&vectors, DIM as usize);
        let query = random_vector(&mut rng, 2_000);
        group.bench_with_input(BenchmarkId::from_parameter(n_users), &n_users, |b, _| {
            b.iter(|| black_box(index.top_k(&query, 10)))
        });
    }
    group.finish();
}

/// One stage-1 index build of the batch driver: 26 vectors of about
/// 11,000 non-zeros each in the 90,000-dim reduction space.
fn bench_index_build(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let vectors: Vec<SparseVector> = (0..26).map(|_| random_vector(&mut rng, 11_000)).collect();
    c.bench_function("index_build_26x11k", |b| {
        b.iter(|| black_box(CandidateIndex::build(&vectors, DIM as usize)))
    });
}

fn bench_index_vs_dense(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let vectors: Vec<SparseVector> = (0..500).map(|_| random_vector(&mut rng, 2_000)).collect();
    let query = random_vector(&mut rng, 2_000);
    let index = CandidateIndex::build(&vectors, DIM as usize);
    c.bench_function("scoring_inverted_index_500", |b| {
        b.iter(|| black_box(index.scores(&query)))
    });
    c.bench_function("scoring_pairwise_dense_500", |b| {
        b.iter(|| {
            let scores: Vec<f64> = vectors.iter().map(|v| query.dot(v)).collect();
            black_box(scores)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sparse_ops, bench_index_scoring, bench_index_build, bench_index_vs_dense
}
criterion_main!(benches);
