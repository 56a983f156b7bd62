//! Term ids never reach results. Every built dataset interns its n-grams
//! into a lexicon of its own, in first-seen order, so the same record
//! carries different ids depending on which build counted it. Records
//! cloned out of two independent builds and wrapped in one dataset (as a
//! benchmark harness or an investigator selecting aliases does) must
//! link exactly like the same records built together: same candidates,
//! same score bits, same fit-artifact bytes.

use darklight::core::batch::{run_batched, BatchConfig};
use darklight::core::dataset::{Dataset, DatasetBuilder, Record};
use darklight::core::twostage::{RankedMatch, TwoStage, TwoStageConfig};
use darklight::core::FitArtifact;
use darklight::corpus::model::{Corpus, Post, User};

/// Users `pids`, in that order, of an eight-persona forum; user N of
/// each forum is the same persona.
fn corpus(name: &str, salt: i64, pids: impl IntoIterator<Item = u64>) -> Corpus {
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
    let mut c = Corpus::new(name);
    let base = 1_486_375_200i64;
    for pid in pids {
        let mut u = User::new(format!("{name}_user{pid}"), Some(pid));
        let vocab = vocabs[pid as usize];
        for i in 0..60i64 {
            let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400 + pid as i64 * 7_200 + salt;
            let (w1, w2) = (vocab[i as usize % 4], vocab[(i as usize + 1) % 4]);
            let marker = char::from(b'a' + (i % 26) as u8);
            u.posts.push(Post::new(
                format!(
                    "today the {w1} project moved forward and i compared several {w2} \
                     methods near batch {marker} before writing longer notes about {w1}"
                ),
                ts,
            ));
        }
        c.users.push(u);
    }
    c
}

/// The forum built once, and the same records cloned out of two
/// separate builds of its halves. Each half is built in reverse user
/// order, so its first-seen ids differ from the joint build's.
fn together_and_mixed(name: &str, salt: i64) -> (Dataset, Dataset) {
    let builder = DatasetBuilder::new();
    let together = builder.build(&corpus(name, salt, 0..8));
    let left = builder.build(&corpus(name, salt, (0..3).rev()));
    let right = builder.build(&corpus(name, salt, (3..8).rev()));
    let records: Vec<Record> = left
        .records
        .iter()
        .rev()
        .chain(right.records.iter().rev())
        .cloned()
        .collect();
    let (w, c) = together.ngram_orders();
    (together, Dataset::with_orders(name, records, w, c))
}

/// Candidate indices with their score bits.
type Ranks = Vec<(usize, u64)>;

fn bits(results: &[RankedMatch]) -> Vec<(usize, Ranks, Ranks)> {
    let ranks = |r: &[darklight::core::attrib::Ranked]| {
        r.iter().map(|x| (x.index, x.score.to_bits())).collect()
    };
    results
        .iter()
        .map(|m| (m.unknown, ranks(&m.stage1), ranks(&m.stage2)))
        .collect()
}

fn config() -> TwoStageConfig {
    TwoStageConfig {
        k: 3,
        threshold: 0.3,
        threads: 2,
        ..TwoStageConfig::default()
    }
}

#[test]
fn records_from_two_builds_link_like_one_build() {
    let (known, known_mixed) = together_and_mixed("known", 0);
    let (unknown, unknown_mixed) = together_and_mixed("unknown", 1800);
    // The mixed datasets hold other ids for the same strings.
    assert!(!known_mixed.lexicon().compatible(known.lexicon()));
    assert_eq!(known_mixed, known);
    assert_eq!(unknown_mixed, unknown);

    let engine = TwoStage::new(config());
    let expected = bits(&engine.run(&known, &unknown));
    assert_eq!(bits(&engine.run(&known_mixed, &unknown)), expected);
    assert_eq!(bits(&engine.run(&known, &unknown_mixed)), expected);
    assert_eq!(bits(&engine.run(&known_mixed, &unknown_mixed)), expected);

    let batch = BatchConfig { batch_size: 4 };
    let batched = bits(&run_batched(&engine, &batch, &known, &unknown, None).unwrap());
    assert_eq!(
        bits(&run_batched(&engine, &batch, &known_mixed, &unknown_mixed, None).unwrap()),
        batched
    );
}

#[test]
fn fit_artifacts_of_mixed_and_joint_builds_are_byte_identical() {
    let (known, known_mixed) = together_and_mixed("known", 0);
    let config = config();
    let a = FitArtifact::fit(&config, known).to_container().to_bytes();
    let b = FitArtifact::fit(&config, known_mixed)
        .to_container()
        .to_bytes();
    assert_eq!(a, b);
}
