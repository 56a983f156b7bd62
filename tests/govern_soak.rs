//! Soak leg of the resource governor (DESIGN.md §11): one process runs
//! the batched synthetic link under a deliberately tiny memory budget
//! with BOTH fault hooks armed — injected worker panics
//! (`DARKLIGHT_FAULT_PANICS`) and injected checkpoint-save I/O failures
//! (`DARKLIGHT_FAULT_IO`) — and must complete anyway, with the metrics
//! snapshot proving the machinery actually engaged: pressure-ladder
//! shrinks, absorbed I/O retries, and a recorded byte estimate.
//!
//! Both env vars are parsed once per process, so this binary installs
//! its spec in [`init_faults`] before the first pipeline call and keeps
//! all governor soak assertions in this one file.

use darklight::core::batch::{
    budget_overhead_bytes, budget_per_candidate_bytes, run_batched, BatchConfig,
};
use darklight::core::dataset::{Dataset, DatasetBuilder};
use darklight::core::twostage::{TwoStage, TwoStageConfig};
use darklight::corpus::model::{Corpus, Post, User};
use darklight::govern::{GovernConfig, MemoryBudget};
use darklight::obs::PipelineMetrics;
use std::path::PathBuf;

fn init_faults() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        // One skip-tolerant worker panic per stage-1 fit, plus two
        // transient failures on the first checkpoint save.
        std::env::set_var("DARKLIGHT_FAULT_PANICS", "twostage.vectorize_known:1");
        std::env::set_var("DARKLIGHT_FAULT_IO", "checkpoint.save:2");
    });
}

/// Twelve authors with distinct vocabularies, split into known/unknown
/// halves (same shape as the batch unit tests: big enough that a
/// post-ladder batch size of 2 still takes several rounds to converge).
fn world() -> (Dataset, Dataset) {
    let vocabs = [
        "kayak paddle rapids portage",
        "espresso grinder portafilter crema",
        "orchid repotting perlite humidity",
        "violin rosin luthier vibrato",
        "falconry jesses tiercel mews",
        "pottery kiln glaze stoneware",
        "beekeeping hive frames nectar",
        "origami crease valley tessellation",
        "astronomy nebula telescope eyepiece",
        "fencing parry riposte piste",
        "calligraphy nib flourish gouache",
        "mycology spores substrate fruiting",
    ];
    let mut known = Corpus::new("known");
    let mut unknown = Corpus::new("unknown");
    let base = 1_486_375_200i64;
    for (pid, vocab) in vocabs.iter().enumerate() {
        let words: Vec<&str> = vocab.split(' ').collect();
        for (half, corpus) in [(0usize, &mut known), (1, &mut unknown)] {
            let mut u = User::new(format!("user{pid}_{half}"), Some(pid as u64));
            for i in 0..35i64 {
                let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400;
                let w1 = words[i as usize % words.len()];
                let w2 = words[(i as usize + 1) % words.len()];
                u.posts.push(Post::new(
                    format!("my notes about {w1} mention the {w2} setup and more {w1} details for the club"),
                    ts,
                ));
            }
            corpus.users.push(u);
        }
    }
    let b = DatasetBuilder::new();
    (b.build(&known), b.build(&unknown))
}

fn ckpt_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("darklight_soak_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn governed_engine(budget: MemoryBudget, metrics: PipelineMetrics) -> TwoStage {
    TwoStage::new(TwoStageConfig {
        // k = 1 keeps pools shrinking even at the post-ladder batch size
        // of 2, so the run goes through several checkpointed rounds.
        k: 1,
        threads: 2,
        metrics,
        govern: GovernConfig {
            budget: Some(budget),
            ..GovernConfig::default()
        },
        ..TwoStageConfig::default()
    })
}

#[test]
fn governed_soak_completes_under_faults_and_tiny_budget() {
    init_faults();
    let (known, unknown) = world();
    // Room for two worst-case candidates: the explicit batch size of 8
    // breaches it, so the ladder must step 8 -> 4 -> 2 before round one
    // (a 2-record chunk can never exceed twice the worst-case record, so
    // 2 is guaranteed to fit; 4-record chunks of near-equal records
    // cannot).
    let budget = MemoryBudget::from_bytes(
        budget_overhead_bytes(&unknown) + 2 * budget_per_candidate_bytes(&known),
    )
    .unwrap();
    let config = BatchConfig { batch_size: 8 };
    let metrics = PipelineMetrics::enabled();
    let path = ckpt_path("soak.json");
    let results = run_batched(
        &governed_engine(budget, metrics.clone()),
        &config,
        &known,
        &unknown,
        Some(&path),
    )
    .unwrap();
    assert_eq!(results.len(), unknown.len());
    assert!(!path.exists(), "checkpoint removed on success");
    // The pressure ladder engaged: two halvings, the breaching estimate
    // recorded, and the effective batch size landing at 2.
    assert_eq!(metrics.counter("govern.batch_shrinks").get(), 2);
    assert_eq!(metrics.gauge("batch.batch_size").get(), 2);
    assert!(
        metrics.gauge("govern.bytes_estimated").get() as u64 > budget.bytes(),
        "the recorded estimate must show the breach that forced shrinking"
    );
    // Both injected save failures were absorbed by retries, invisibly to
    // the caller.
    assert_eq!(metrics.counter("govern.io_retries").get(), 2);
    // The panic fault was armed too: degraded, not clean, completion.
    assert!(
        metrics.counter("par.worker_panics").get() >= 1,
        "panic injection did not fire"
    );
    assert!(metrics.counter("batch.rounds").get() >= 2);
    // A second identical run (faults now exhausted) must produce the
    // exact same rankings: retries and panics never change output bytes.
    let again = run_batched(
        &governed_engine(budget, PipelineMetrics::enabled()),
        &config,
        &known,
        &unknown,
        Some(&path),
    )
    .unwrap();
    assert_eq!(results, again, "faulted and clean runs diverged");
}
