//! A persistent linking session: fit once, query many times.
//!
//! [`TwoStage::run`](crate::twostage::TwoStage::run) refits the stage-1
//! feature space on every call — right for batch experiments, wasteful for
//! the investigator workflow the paper motivates ("support the authorities
//! to drastically reduce the set of users under investigation"), where one
//! fixed known set is probed with new unknown aliases as they surface.
//! [`LinkSession`] holds one [`FitArtifact`] — the fitted space, the known
//! vectors and their candidate index — and answers single-alias queries
//! in milliseconds.

use crate::artifact::FitArtifact;
use crate::dataset::{Dataset, DatasetBuilder, Record};
use crate::twostage::{RankedMatch, TwoStage, TwoStageConfig};
use darklight_corpus::model::User;

/// A reusable query session over a fixed known set.
#[derive(Debug)]
pub struct LinkSession {
    engine: TwoStage,
    artifact: FitArtifact,
    builder: DatasetBuilder,
}

impl LinkSession {
    /// Fits the stage-1 space and index on `known`
    /// ([`FitArtifact::fit`]). Everything expensive happens here.
    pub fn new(config: TwoStageConfig, known: Dataset) -> LinkSession {
        let threads = config.effective_threads();
        let artifact = FitArtifact::fit(&config, known);
        // Ad-hoc query users must be counted at the n-gram maxima the
        // session's stage configurations score with.
        let max_word_n = config
            .reduction
            .max_word_n
            .max(config.final_stage.max_word_n);
        let max_char_n = config
            .reduction
            .max_char_n
            .max(config.final_stage.max_char_n);
        LinkSession {
            engine: TwoStage::new(config),
            artifact,
            builder: DatasetBuilder::new()
                .with_ngram_orders(max_word_n, max_char_n)
                .with_threads(threads),
        }
    }

    /// The known dataset.
    pub fn known(&self) -> &Dataset {
        &self.artifact.known
    }

    /// Number of indexed known aliases.
    pub fn len(&self) -> usize {
        self.known().len()
    }

    /// `true` when the known set is empty.
    pub fn is_empty(&self) -> bool {
        self.known().is_empty()
    }

    /// Queries one prepared record: stage-1 lookup in the frozen index
    /// ([`TwoStage::reduce_prefit`]), then the usual stage-2 refit over
    /// the k candidates — the path `Linker::link_with_artifact` serves.
    pub fn query_record(&self, record: &Record) -> RankedMatch {
        let (max_word_n, max_char_n) = self.known().ngram_orders();
        let unknown = Dataset::with_orders("query", vec![record.clone()], max_word_n, max_char_n);
        self.engine
            .run_prefit(&self.artifact, &unknown)
            .into_iter()
            .next()
            // audit:allow(no-naked-unwrap) -- rescore returns one RankedMatch per unknown and exactly one is passed
            .expect("one query yields one result")
    }

    /// Queries a raw forum user (runs text selection, preparation, and
    /// profile building first). The user should already be polished.
    pub fn query_user(&self, user: &User) -> RankedMatch {
        let ds = self.builder.build(&single_user_corpus(user));
        self.query_record(&ds.records[0])
    }

    /// Convenience: the best alias match for a user, if it clears the
    /// configured threshold.
    pub fn best_match(&self, user: &User) -> Option<(String, f64)> {
        let m = self.query_user(user);
        let best = m.best()?;
        (best.score >= self.engine.config().threshold)
            .then(|| (self.known().records[best.index].alias.clone(), best.score))
    }
}

fn single_user_corpus(user: &User) -> darklight_corpus::model::Corpus {
    let mut c = darklight_corpus::model::Corpus::new("query");
    c.users.push(user.clone());
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use darklight_corpus::model::{Corpus, Post};

    fn corpus() -> Corpus {
        let mut c = Corpus::new("known");
        let base = 1_486_375_200i64;
        let vocabs = [
            ("beekeeper", "hive nectar swarm frames apiary propolis"),
            ("welder", "torch flux bead electrode weld seam"),
            ("baker", "sourdough crumb proofing levain hydration oven"),
        ];
        for (pid, (name, vocab)) in vocabs.iter().enumerate() {
            let words: Vec<&str> = vocab.split(' ').collect();
            let mut u = User::new(*name, Some(pid as u64));
            for i in 0..45i64 {
                let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400;
                let w1 = words[i as usize % words.len()];
                let w2 = words[(i as usize + 2) % words.len()];
                u.posts.push(Post::new(
                    format!("checked the {w1} this morning and compared {w2} notes with the group before fixing the {w1} again session {i}"),
                    ts,
                ));
            }
            c.users.push(u);
        }
        c
    }

    fn probe(persona: u64, vocab: &str, salt: i64) -> User {
        let words: Vec<&str> = vocab.split(' ').collect();
        let mut u = User::new("probe", Some(persona));
        let base = 1_486_375_200i64 + salt;
        for i in 0..45i64 {
            let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400;
            let w1 = words[i as usize % words.len()];
            let w2 = words[(i as usize + 1) % words.len()];
            u.posts.push(Post::new(
                format!("more {w1} talk today, the {w2} details took a while but the {w1} held up fine entry {i}"),
                ts,
            ));
        }
        u
    }

    fn session() -> LinkSession {
        let ds = DatasetBuilder::new().build(&corpus());
        LinkSession::new(
            TwoStageConfig {
                k: 2,
                threads: 1,
                threshold: 0.3,
                ..TwoStageConfig::default()
            },
            ds,
        )
    }

    #[test]
    fn queries_find_the_right_alias() {
        let s = session();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let (alias, score) = s
            .best_match(&probe(0, "hive nectar swarm frames apiary propolis", 7_200))
            .expect("match above threshold");
        assert_eq!(alias, "beekeeper");
        assert!(score > 0.3);
        let (alias, _) = s
            .best_match(&probe(
                2,
                "sourdough crumb proofing levain hydration oven",
                3_600,
            ))
            .expect("match above threshold");
        assert_eq!(alias, "baker");
    }

    #[test]
    fn session_matches_batch_pipeline() {
        let known = DatasetBuilder::new().build(&corpus());
        let cfg = TwoStageConfig {
            k: 2,
            threads: 1,
            ..TwoStageConfig::default()
        };
        let s = LinkSession::new(cfg.clone(), known.clone());
        let probe_user = probe(1, "torch flux bead electrode weld seam", 0);
        let probe_ds = DatasetBuilder::new().build(&single_user_corpus(&probe_user));
        let batch = TwoStage::new(cfg).run(&known, &probe_ds);
        let single = s.query_record(&probe_ds.records[0]);
        assert_eq!(
            batch[0].best().map(|r| r.index),
            single.best().map(|r| r.index)
        );
        assert!((batch[0].best().unwrap().score - single.best().unwrap().score).abs() < 1e-9);
    }

    #[test]
    fn below_threshold_returns_none() {
        let ds = DatasetBuilder::new().build(&corpus());
        let s = LinkSession::new(
            TwoStageConfig {
                k: 2,
                threads: 1,
                threshold: 1.01, // unreachable
                ..TwoStageConfig::default()
            },
            ds,
        );
        assert!(s
            .best_match(&probe(0, "hive nectar swarm frames apiary propolis", 0))
            .is_none());
    }
}
