//! Benchmarks of the corpus-cleaning layer: the twelve polishing steps,
//! language detection, and the refinement/alter-ego machinery.

use criterion::{criterion_group, criterion_main, Criterion};
use darklight_activity::profile::{ProfileBuilder, ProfilePolicy};
use darklight_corpus::polish::{PolishConfig, Polisher};
use darklight_corpus::refine::{build_alter_egos, refine, AlterEgoConfig, RefineConfig};
use darklight_synth::scenario::{ScenarioBuilder, ScenarioConfig};
use darklight_text::langdetect::LanguageDetector;
use std::hint::black_box;
use std::sync::OnceLock;

fn raw_tmg() -> &'static darklight_corpus::model::Corpus {
    static CORPUS: OnceLock<darklight_corpus::model::Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| ScenarioBuilder::new(ScenarioConfig::small()).build().tmg)
}

fn bench_polish(c: &mut Criterion) {
    let corpus = raw_tmg();
    let polisher = Polisher::new(PolishConfig::default());
    c.bench_function("polish_tmg_small", |b| {
        b.iter(|| black_box(polisher.polish(corpus)))
    });
}

/// The language filter over one user's 100 raw messages, as polishing
/// runs it per message.
fn bench_langdetect(c: &mut Criterion) {
    let det = LanguageDetector::new();
    let user = raw_tmg()
        .users
        .iter()
        .find(|u| u.posts.len() >= 100)
        .expect("a user with 100 posts");
    let messages: Vec<&str> = user.posts[..100].iter().map(|p| p.text.as_str()).collect();
    c.bench_function("langdetect_100_messages", |b| {
        b.iter(|| {
            for m in &messages {
                black_box(det.detect(m));
            }
        })
    });
}

fn bench_refine_and_split(c: &mut Criterion) {
    let corpus = raw_tmg();
    let polished = Polisher::new(PolishConfig::default()).polish(corpus).0;
    let profiles = ProfileBuilder::new(ProfilePolicy::default());
    c.bench_function("refine_tmg_small", |b| {
        b.iter(|| black_box(refine(&polished, RefineConfig::default(), &profiles)))
    });
    let refined = refine(&polished, RefineConfig::default(), &profiles);
    c.bench_function("alter_ego_split_tmg_small", |b| {
        b.iter(|| {
            black_box(build_alter_egos(
                &refined,
                &AlterEgoConfig::default(),
                &profiles,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_polish, bench_langdetect, bench_refine_and_split
}
criterion_main!(benches);
