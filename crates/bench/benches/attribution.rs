//! Benchmarks of the attribution pipeline: stage-1 reduction, stage-2
//! rescoring, the full two-stage run, and the batched variant (§IV-J).

use criterion::{criterion_group, criterion_main, Criterion};
use darklight_bench::{prepare_world, World};
use darklight_core::batch::{run_batched, BatchConfig};
use darklight_core::twostage::{TwoStage, TwoStageConfig};
use darklight_synth::scenario::ScenarioConfig;
use std::hint::black_box;
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| prepare_world(&ScenarioConfig::small()))
}

fn engine() -> TwoStage {
    TwoStage::new(TwoStageConfig {
        threads: 2,
        ..TwoStageConfig::default()
    })
}

fn bench_reduce(c: &mut Criterion) {
    let w = world();
    let e = engine();
    c.bench_function("stage1_reduce_small", |b| {
        b.iter(|| black_box(e.reduce(&w.reddit.originals, &w.reddit.alter_egos)))
    });
}

fn bench_full_run(c: &mut Criterion) {
    let w = world();
    let e = engine();
    c.bench_function("two_stage_full_small", |b| {
        b.iter(|| black_box(e.run(&w.reddit.originals, &w.reddit.alter_egos)))
    });
}

fn bench_without_reduction(c: &mut Criterion) {
    let w = world();
    let e = engine();
    c.bench_function("single_stage_small", |b| {
        b.iter(|| black_box(e.run_without_reduction(&w.reddit.originals, &w.reddit.alter_egos)))
    });
}

fn bench_batched(c: &mut Criterion) {
    let w = world();
    let e = engine();
    c.bench_function("batched_b20_small", |b| {
        b.iter(|| {
            black_box(
                run_batched(
                    &e,
                    &BatchConfig { batch_size: 20 },
                    &w.reddit.originals,
                    &w.reddit.alter_egos,
                    None,
                )
                .expect("valid batch config"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_reduce, bench_full_run, bench_without_reduction, bench_batched
}
criterion_main!(benches);
