//! The determinism contract of the worker-pool refactor: running any
//! stage of the pipeline on N threads produces output bit-identical to
//! running it on 1 thread. `darklight-par` preserves positional order
//! and global indices, vocabulary fitting merges integer counts (so the
//! shard partition cannot change the selected terms), and per-unknown
//! work never depends on scheduling — these tests pin all of that
//! end-to-end for reduce, rescore, the batched driver, and the full
//! `Linker::link` flow.

use darklight::core::batch::{
    budget_overhead_bytes, budget_per_candidate_bytes, run_batched, BatchConfig, BatchError,
};
use darklight::core::dataset::{Dataset, DatasetBuilder};
use darklight::core::linker::{Linker, LinkerConfig};
use darklight::core::twostage::{TwoStage, TwoStageConfig};
use darklight::corpus::model::{Corpus, Post, User};
use darklight::govern::{Deadline, GovernConfig, GovernError, MemoryBudget};

const THREAD_COUNTS: [usize; 2] = [2, 7];

/// Eight distinctive-vocabulary users per forum; user N of each corpus
/// is the same persona. Eight users means 7 threads leave a ragged
/// chunk split, which is exactly the shape the old offset bug broke.
fn corpus(name: &str, salt: usize) -> Corpus {
    let mut c = Corpus::new(name);
    let base = 1_486_375_200i64;
    let vocabs: [[&str; 4]; 8] = [
        ["harpsichord", "madrigal", "counterpoint", "basso"],
        ["terrarium", "isopods", "springtails", "bioactive"],
        ["leatherwork", "awl", "burnishing", "saddle"],
        ["homebrew", "fermenter", "sparge", "lauter"],
        ["mycology", "substrate", "inoculation", "flush"],
        ["letterpress", "platen", "typeface", "quoin"],
        ["falconry", "jesses", "mews", "tiercel"],
        ["orrery", "gnomon", "astrolabe", "ecliptic"],
    ];
    for pid in 0..8u64 {
        let mut u = User::new(format!("{name}_user{pid}"), Some(pid));
        let vocab = vocabs[pid as usize];
        for i in 0..70i64 {
            let ts =
                base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400 + (pid as i64) * 7_200 + salt as i64;
            let w1 = vocab[i as usize % 4];
            let w2 = vocab[(i as usize + 1) % 4];
            let ma = char::from(b'a' + (i % 26) as u8);
            let mb = char::from(b'a' + ((i / 26) % 26) as u8);
            u.posts.push(Post::new(
                format!(
                    "today the {w1} project moved forward again and i compared several {w2} \
                     methods with friends near batch {ma}{mb} before writing longer notes \
                     about {w1} techniques and the tools involved"
                ),
                ts,
            ));
        }
        c.users.push(u);
    }
    c
}

fn engine(threads: usize) -> TwoStage {
    TwoStage::new(TwoStageConfig {
        k: 3,
        threshold: 0.3,
        threads,
        ..TwoStageConfig::default()
    })
}

fn datasets() -> (Dataset, Dataset) {
    let builder = DatasetBuilder::new();
    (
        builder.build(&corpus("forum_a", 0)),
        builder.build(&corpus("forum_b", 1800)),
    )
}

#[test]
fn reduce_identical_across_thread_counts() {
    let (known, unknown) = datasets();
    let baseline = engine(1).reduce(&known, &unknown);
    assert!(baseline.iter().any(|c| !c.is_empty()));
    for threads in THREAD_COUNTS {
        assert_eq!(
            engine(threads).reduce(&known, &unknown),
            baseline,
            "reduce diverged at {threads} threads"
        );
    }
}

#[test]
fn rescore_identical_across_thread_counts() {
    let (known, unknown) = datasets();
    let stage1 = engine(1).reduce(&known, &unknown);
    let baseline = engine(1).rescore(&known, &unknown, stage1.clone());
    for threads in THREAD_COUNTS {
        assert_eq!(
            engine(threads).rescore(&known, &unknown, stage1.clone()),
            baseline,
            "rescore diverged at {threads} threads"
        );
    }
}

#[test]
fn run_and_link_identical_across_thread_counts() {
    let (known, unknown) = datasets();
    let run1 = engine(1).run(&known, &unknown);
    let link1 = engine(1).link(&known, &unknown);
    assert!(!link1.is_empty(), "scenario must produce links to compare");
    for threads in THREAD_COUNTS {
        let e = engine(threads);
        assert_eq!(e.run(&known, &unknown), run1, "{threads} threads");
        assert_eq!(e.link(&known, &unknown), link1, "{threads} threads");
    }
}

#[test]
fn run_batched_identical_across_thread_counts() {
    let (known, unknown) = datasets();
    // k = 2 with batches of 3 keeps pools shrinking across multiple
    // rounds while letting per-unknown pools diverge after round one —
    // the divergent-pool branch is the parallel path under test.
    let small_engine = |threads| {
        TwoStage::new(TwoStageConfig {
            k: 2,
            threshold: 0.3,
            threads,
            ..TwoStageConfig::default()
        })
    };
    let batch = BatchConfig { batch_size: 3 };
    let baseline = run_batched(&small_engine(1), &batch, &known, &unknown, None).unwrap();
    for threads in THREAD_COUNTS {
        assert_eq!(
            run_batched(&small_engine(threads), &batch, &known, &unknown, None).unwrap(),
            baseline,
            "run_batched diverged at {threads} threads"
        );
    }
}

#[test]
fn governed_budget_identical_to_derived_fixed_batch_across_threads() {
    let (known, unknown) = datasets();
    // Room for exactly three worst-case candidates: the derived batch
    // size matches the multi-round divergent-pool shape above, and a
    // conservatively derived size can never trip the pressure ladder,
    // so governed and fixed runs must be byte-identical at any thread
    // count.
    let budget = MemoryBudget::from_bytes(
        budget_overhead_bytes(&unknown) + 3 * budget_per_candidate_bytes(&known),
    )
    .unwrap();
    let derived = BatchConfig::derive(&budget, &known, &unknown).unwrap();
    assert_eq!(derived.batch_size, 3, "world changed under the test");
    let governed_engine = |threads| {
        TwoStage::new(TwoStageConfig {
            k: 2,
            threshold: 0.3,
            threads,
            govern: GovernConfig {
                budget: Some(budget),
                ..GovernConfig::default()
            },
            ..TwoStageConfig::default()
        })
    };
    let fixed_engine = |threads| {
        TwoStage::new(TwoStageConfig {
            k: 2,
            threshold: 0.3,
            threads,
            ..TwoStageConfig::default()
        })
    };
    let baseline = run_batched(&fixed_engine(1), &derived, &known, &unknown, None).unwrap();
    for threads in [1, 2, 7] {
        assert_eq!(
            run_batched(&governed_engine(threads), &derived, &known, &unknown, None).unwrap(),
            baseline,
            "governed run diverged at {threads} threads"
        );
    }
}

#[test]
fn deadline_expiry_and_resume_identical_across_threads() {
    let (known, unknown) = datasets();
    let batch = BatchConfig { batch_size: 3 };
    let engine_with = |threads, deadline: Deadline| {
        TwoStage::new(TwoStageConfig {
            k: 2,
            threshold: 0.3,
            threads,
            govern: GovernConfig {
                deadline,
                ..GovernConfig::default()
            },
            ..TwoStageConfig::default()
        })
    };
    let baseline = run_batched(
        &engine_with(1, Deadline::none()),
        &batch,
        &known,
        &unknown,
        None,
    )
    .unwrap();
    for threads in [1usize, 2, 7] {
        let path = std::env::temp_dir().join(format!(
            "darklight_parity_deadline_{threads}_{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        // One round is allowed, then the deadline trips at the next
        // round boundary — identically at every thread count, because
        // workers only ever observe the already-tripped flag.
        let strict = engine_with(threads, Deadline::after_rounds(1));
        let err = run_batched(&strict, &batch, &known, &unknown, Some(&path)).unwrap_err();
        assert!(
            matches!(
                err,
                BatchError::Govern(GovernError::DeadlineExpired { rounds_done: 1 })
            ),
            "at {threads} threads: {err}"
        );
        assert!(path.exists(), "expiry must leave a checkpoint behind");
        let relaxed = engine_with(threads, Deadline::none());
        let resumed = run_batched(&relaxed, &batch, &known, &unknown, Some(&path)).unwrap();
        assert_eq!(
            resumed, baseline,
            "deadline + resume diverged at {threads} threads"
        );
        assert!(!path.exists(), "checkpoint removed after the resumed run");
    }
}

#[test]
fn full_linker_identical_across_thread_counts() {
    let known = corpus("forum_a", 0);
    let unknown = corpus("forum_b", 1800);
    let config = |threads: usize| {
        let mut cfg = LinkerConfig::default();
        cfg.two_stage.k = 3;
        cfg.two_stage.threshold = 0.3;
        cfg.two_stage.threads = threads;
        cfg
    };
    let baseline = Linker::new(config(1)).link(&known, &unknown);
    assert!(
        !baseline.is_empty(),
        "scenario must produce links to compare"
    );
    for threads in THREAD_COUNTS {
        assert_eq!(
            Linker::new(config(threads)).link(&known, &unknown),
            baseline,
            "Linker::link diverged at {threads} threads"
        );
    }
}
