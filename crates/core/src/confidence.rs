//! Match-confidence measures beyond the raw threshold.
//!
//! The paper accepts a pair whenever the best candidate's score clears a
//! global threshold. Verification practice (Koppel et al.'s unmasking
//! line of work) adds a second signal: how far the best candidate stands
//! *above the rest of the candidate set*. A best score of 0.90 means
//! little if the runner-up scored 0.89; it means a lot if the runner-up
//! scored 0.60. This module computes those gap statistics from a
//! [`RankedMatch`], enabling stricter acceptance rules for
//! investigation-grade output.

use crate::twostage::RankedMatch;

/// Confidence statistics for one unknown's best match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfidence {
    /// The best candidate's stage-2 score.
    pub best_score: f64,
    /// Gap to the runner-up (0 when there is only one candidate).
    pub margin: f64,
    /// Standard score of the best against the remaining candidates'
    /// distribution ((best − mean) / std); 0 when undefined.
    pub zscore: f64,
}

impl MatchConfidence {
    /// Computes confidence from a ranked match. `None` when no candidates
    /// exist.
    pub fn of(m: &RankedMatch) -> Option<MatchConfidence> {
        let best = m.stage2.first()?;
        let rest: Vec<f64> = m.stage2.iter().skip(1).map(|r| r.score).collect();
        let margin = rest.first().map_or(0.0, |second| best.score - second);
        let zscore = if rest.len() >= 2 {
            let mean = rest.iter().sum::<f64>() / rest.len() as f64;
            let var = rest.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / rest.len() as f64;
            if var > 0.0 {
                (best.score - mean) / var.sqrt()
            } else if best.score > mean {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            0.0
        };
        Some(MatchConfidence {
            best_score: best.score,
            margin,
            zscore,
        })
    }

    /// A stricter acceptance rule: the score must clear `min_score` *and*
    /// the margin must clear `min_margin` — suppressing the "everything in
    /// this forum looks alike" false positives a bare threshold admits.
    pub fn accept(&self, min_score: f64, min_margin: f64) -> bool {
        self.best_score >= min_score && self.margin >= min_margin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::Ranked;

    fn rm(scores: &[f64]) -> RankedMatch {
        RankedMatch {
            unknown: 0,
            stage1: Vec::new(),
            stage2: scores
                .iter()
                .enumerate()
                .map(|(index, &score)| Ranked { index, score })
                .collect(),
        }
    }

    #[test]
    fn empty_has_no_confidence() {
        assert!(MatchConfidence::of(&rm(&[])).is_none());
    }

    #[test]
    fn single_candidate_zero_margin() {
        let c = MatchConfidence::of(&rm(&[0.8])).unwrap();
        assert_eq!(c.best_score, 0.8);
        assert_eq!(c.margin, 0.0);
        assert_eq!(c.zscore, 0.0);
    }

    #[test]
    fn margin_is_gap_to_runner_up() {
        let c = MatchConfidence::of(&rm(&[0.9, 0.6, 0.5])).unwrap();
        assert!((c.margin - 0.3).abs() < 1e-12);
        assert!(c.zscore > 3.0);
    }

    #[test]
    fn tight_pack_low_zscore() {
        let clear = MatchConfidence::of(&rm(&[0.9, 0.5, 0.48, 0.52, 0.49])).unwrap();
        let tight = MatchConfidence::of(&rm(&[0.9, 0.89, 0.88, 0.87, 0.86])).unwrap();
        assert!(clear.zscore > tight.zscore);
        assert!(clear.margin > tight.margin);
    }

    #[test]
    fn degenerate_equal_rest() {
        let c = MatchConfidence::of(&rm(&[0.9, 0.5, 0.5, 0.5])).unwrap();
        assert!(c.zscore.is_infinite());
        let flat = MatchConfidence::of(&rm(&[0.5, 0.5, 0.5, 0.5])).unwrap();
        assert_eq!(flat.zscore, 0.0);
    }

    #[test]
    fn accept_requires_both() {
        let c = MatchConfidence::of(&rm(&[0.9, 0.85])).unwrap();
        assert!(c.accept(0.8, 0.0));
        assert!(!c.accept(0.8, 0.1)); // margin too small
        assert!(!c.accept(0.95, 0.0)); // score too small
    }
}
