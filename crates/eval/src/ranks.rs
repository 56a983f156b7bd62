//! Rank analysis of the reduction stage.
//!
//! Accuracy@k (Table III) compresses the candidate ranking into one bit per
//! unknown; the *rank histogram* — at which position the true author
//! actually appears — shows the whole story: a method can have identical
//! accuracy@10 with very different rank mass at position 1 vs position 9,
//! which changes how much work the second stage has to do.

use crate::metrics::{is_correct, truth_present};
use darklight_core::dataset::Dataset;
use darklight_core::twostage::RankedMatch;

/// The distribution of true-author ranks over a result set.
#[derive(Debug, Clone, PartialEq)]
pub struct RankHistogram {
    /// `counts[r]` = unknowns whose true author ranked r+1 (0-indexed
    /// storage, 1-indexed rank). Length = the deepest list observed.
    counts: Vec<usize>,
    /// Unknowns whose true author exists but did not appear in their list.
    pub missed: usize,
    /// Unknowns with a true author in the known set.
    pub eligible: usize,
}

impl RankHistogram {
    /// Builds the histogram from stage-1 candidate lists.
    pub fn from_results(
        results: &[RankedMatch],
        known: &Dataset,
        unknown: &Dataset,
    ) -> RankHistogram {
        let max_depth = results.iter().map(|m| m.stage1.len()).max().unwrap_or(0);
        let mut counts = vec![0usize; max_depth];
        let mut missed = 0usize;
        let mut eligible = 0usize;
        for m in results {
            let persona = unknown.records[m.unknown].persona;
            if !truth_present(known, persona) {
                continue;
            }
            eligible += 1;
            match m
                .stage1
                .iter()
                .position(|r| is_correct(known, persona, r.index))
            {
                Some(pos) => counts[pos] += 1,
                None => missed += 1,
            }
        }
        RankHistogram {
            counts,
            missed,
            eligible,
        }
    }

    /// Unknowns whose true author ranked exactly `rank` (1-based).
    pub fn at_rank(&self, rank: usize) -> usize {
        if rank == 0 {
            return 0;
        }
        self.counts.get(rank - 1).copied().unwrap_or(0)
    }

    /// Cumulative count up to `rank` inclusive — `accuracy@rank` numerator.
    pub fn within(&self, rank: usize) -> usize {
        self.counts.iter().take(rank).sum()
    }

    /// Mean rank of found true authors (`None` when none were found).
    pub fn mean_rank(&self) -> Option<f64> {
        let found: usize = self.counts.iter().sum();
        if found == 0 {
            return None;
        }
        let weighted: usize = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i + 1) * c)
            .sum();
        Some(weighted as f64 / found as f64)
    }

    /// Mean reciprocal rank over all eligible unknowns (missed = 0
    /// contribution) — the standard retrieval summary.
    pub fn mrr(&self) -> f64 {
        if self.eligible == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 / (i + 1) as f64)
            .sum();
        sum / self.eligible as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darklight_core::attrib::Ranked;
    use darklight_core::dataset::Record;
    use darklight_features::pipeline::{CountedDoc, PreparedDoc};

    fn record(persona: Option<u64>) -> Record {
        let counted = CountedDoc::from_prepared(&PreparedDoc::prepare("text", None), 3, 5);
        Record {
            alias: format!("u{persona:?}"),
            persona,
            facts: Vec::new(),
            text: String::new(),
            counted,
            profile: None,
        }
    }

    fn dataset(personas: &[Option<u64>]) -> Dataset {
        Dataset::new("d", personas.iter().map(|&p| record(p)).collect())
    }

    fn rm(unknown: usize, candidates: &[usize]) -> RankedMatch {
        let ranked: Vec<Ranked> = candidates
            .iter()
            .enumerate()
            .map(|(i, &index)| Ranked {
                index,
                score: 1.0 - i as f64 * 0.1,
            })
            .collect();
        RankedMatch {
            unknown,
            stage1: ranked.clone(),
            stage2: ranked,
        }
    }

    #[test]
    fn histogram_counts_ranks() {
        let known = dataset(&[Some(0), Some(1), Some(2)]);
        let unknown = dataset(&[Some(0), Some(1), Some(2), Some(9)]);
        let results = vec![
            rm(0, &[0, 1, 2]), // truth at rank 1
            rm(1, &[0, 1, 2]), // truth at rank 2
            rm(2, &[0, 1]),    // truth missing from list
            rm(3, &[0, 1, 2]), // persona 9 absent from known: not eligible
        ];
        let h = RankHistogram::from_results(&results, &known, &unknown);
        assert_eq!(h.eligible, 3);
        assert_eq!(h.at_rank(1), 1);
        assert_eq!(h.at_rank(2), 1);
        assert_eq!(h.at_rank(3), 0);
        assert_eq!(h.missed, 1);
        assert_eq!(h.within(2), 2);
        assert!((h.mean_rank().unwrap() - 1.5).abs() < 1e-12);
        let expected_mrr = (1.0 + 0.5) / 3.0;
        assert!((h.mrr() - expected_mrr).abs() < 1e-12);
    }

    #[test]
    fn empty_results() {
        let known = dataset(&[Some(0)]);
        let unknown = dataset(&[]);
        let h = RankHistogram::from_results(&[], &known, &unknown);
        assert_eq!(h.eligible, 0);
        assert_eq!(h.mrr(), 0.0);
        assert!(h.mean_rank().is_none());
        assert_eq!(h.at_rank(0), 0);
        assert_eq!(h.at_rank(5), 0);
    }
}
