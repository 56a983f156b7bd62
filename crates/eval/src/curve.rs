//! Precision-recall curves, AUC, and threshold calibration (§IV-E).
//!
//! The paper sweeps the stage-2 similarity scores as candidate thresholds,
//! draws the precision-recall curve, and picks the threshold giving "a good
//! trade-off between precision and recall" — 0.4190, at precision 94% /
//! recall 80% on the calibration split. [`PrCurve`] reproduces this:
//! build it from labeled best-match scores, then query points, AUC, or the
//! threshold achieving a target recall.

use crate::metrics::{f1_score, LabeledScore};

/// One point of a precision-recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// The threshold producing this point (pairs with `score >= threshold`
    /// are emitted).
    pub threshold: f64,
    /// Precision at this threshold.
    pub precision: f64,
    /// Recall at this threshold.
    pub recall: f64,
}

/// A precision-recall curve over labeled match scores.
#[derive(Debug, Clone, PartialEq)]
pub struct PrCurve {
    points: Vec<PrPoint>,
    positives: usize,
}

impl PrCurve {
    /// Builds the curve by sweeping every distinct score as a threshold
    /// (highest first). The recall denominator is the number of unknowns
    /// whose true author exists in the known set.
    pub fn from_labeled(labeled: &[LabeledScore]) -> PrCurve {
        let positives = labeled.iter().filter(|l| l.has_truth).count();
        let mut sorted: Vec<&LabeledScore> = labeled.iter().collect();
        sorted.sort_by(|a, b| darklight_order::cmp_f64_desc(a.score, b.score));
        let mut points = Vec::new();
        let mut emitted = 0usize;
        let mut correct = 0usize;
        let mut i = 0;
        while i < sorted.len() {
            let t = sorted[i].score;
            if t.is_nan() {
                // NaN sorts last and can never clear a real threshold;
                // stop — `score == t` would never consume it (NaN != NaN).
                break;
            }
            // Consume the whole tie group.
            while i < sorted.len() && sorted[i].score == t {
                emitted += 1;
                if sorted[i].correct {
                    correct += 1;
                }
                i += 1;
            }
            let precision = correct as f64 / emitted as f64;
            let recall = if positives == 0 {
                0.0
            } else {
                correct as f64 / positives as f64
            };
            points.push(PrPoint {
                threshold: t,
                precision,
                recall,
            });
        }
        PrCurve { points, positives }
    }

    /// The curve points, highest threshold first.
    pub fn points(&self) -> &[PrPoint] {
        &self.points
    }

    /// Number of ground-truth positives behind the recall denominator.
    pub fn positives(&self) -> usize {
        self.positives
    }

    /// Area under the precision-recall curve (average-precision / step
    /// integration, the scikit-learn definition the authors' AUC values
    /// follow). 0 for an empty curve.
    pub fn auc(&self) -> f64 {
        let mut auc = 0.0;
        let mut prev_recall = 0.0;
        for p in &self.points {
            auc += (p.recall - prev_recall) * p.precision;
            prev_recall = p.recall;
        }
        auc
    }

    /// Precision/recall when emitting pairs with `score >= threshold`.
    pub fn at_threshold(&self, threshold: f64) -> PrPoint {
        // Points are ordered by descending threshold; find the last point
        // whose threshold is still >= requested.
        let mut best = PrPoint {
            threshold,
            precision: 1.0,
            recall: 0.0,
        };
        for p in &self.points {
            if p.threshold >= threshold {
                best = PrPoint { threshold, ..*p };
            } else {
                break;
            }
        }
        best
    }

    /// The highest threshold achieving at least `target` recall, with its
    /// operating point — how the paper reports Table V ("thresholds
    /// associated with 80% recall"). `None` when the curve never reaches
    /// the target.
    pub fn threshold_for_recall(&self, target: f64) -> Option<PrPoint> {
        self.points.iter().find(|p| p.recall >= target).copied()
    }

    /// The threshold maximizing F1 — a "good trade-off between precision
    /// and recall" selector.
    pub fn best_f1(&self) -> Option<PrPoint> {
        let f1 = |p: &PrPoint| f1_score(p.precision, p.recall);
        self.points
            .iter()
            .max_by(|a, b| {
                // Reversed descending order: ascending on reals with NaN
                // *below* every real, so a NaN F1 can never win max_by.
                darklight_order::cmp_f64_desc(f1(b), f1(a))
                    .then_with(|| darklight_order::cmp_f64_desc(b.threshold, a.threshold))
            })
            .copied()
    }

    /// The §IV-E operating point: the highest threshold reaching `target`
    /// recall, else the best-F1 point. `None` only for an empty curve.
    pub fn operating_point(&self, target: f64) -> Option<PrPoint> {
        self.threshold_for_recall(target).or_else(|| self.best_f1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(score: f64, correct: bool) -> LabeledScore {
        LabeledScore {
            score,
            correct,
            has_truth: true,
        }
    }

    #[test]
    fn nan_scores_sort_last_and_never_win_best_f1() {
        // Regression: these sorts used partial_cmp().expect() and panicked
        // on NaN (e.g. a zero-norm query vector upstream). NaN must now
        // rank below every real score and never be selected as best F1.
        let labeled = vec![l(f64::NAN, false), l(0.9, true), l(0.2, false)];
        let c = PrCurve::from_labeled(&labeled);
        let first = c.points()[0];
        assert_eq!(first.threshold, 0.9);
        let best = c.best_f1().expect("curve has points");
        assert!(!best.threshold.is_nan(), "NaN threshold won best_f1");
    }

    #[test]
    fn perfect_ranking_gives_auc_one() {
        let labeled = vec![l(0.9, true), l(0.8, true), l(0.2, false), l(0.1, false)];
        let c = PrCurve::from_labeled(&labeled);
        // With only 2 positives having truth... wait: has_truth true for
        // all four, so positives = 4 and max recall = 0.5.
        assert_eq!(c.positives(), 4);
        let top = c.points()[0];
        assert_eq!(top.precision, 1.0);
    }

    #[test]
    fn auc_of_clean_separation() {
        // Two positives ranked above two incorrect emissions, and only the
        // two correct unknowns have truth present.
        let labeled = vec![
            LabeledScore {
                score: 0.9,
                correct: true,
                has_truth: true,
            },
            LabeledScore {
                score: 0.8,
                correct: true,
                has_truth: true,
            },
            LabeledScore {
                score: 0.2,
                correct: false,
                has_truth: false,
            },
            LabeledScore {
                score: 0.1,
                correct: false,
                has_truth: false,
            },
        ];
        let c = PrCurve::from_labeled(&labeled);
        assert!((c.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_ranking_low_auc() {
        let labeled = vec![l(0.9, false), l(0.8, false), l(0.2, true), l(0.1, true)];
        let c = PrCurve::from_labeled(&labeled);
        assert!(c.auc() < 0.5);
    }

    #[test]
    fn monotone_recall() {
        let labeled = vec![l(0.9, true), l(0.7, false), l(0.5, true), l(0.3, false)];
        let c = PrCurve::from_labeled(&labeled);
        for w in c.points().windows(2) {
            assert!(w[0].recall <= w[1].recall);
            assert!(w[0].threshold > w[1].threshold);
        }
    }

    #[test]
    fn tie_groups_consumed_together() {
        let labeled = vec![l(0.5, true), l(0.5, false)];
        let c = PrCurve::from_labeled(&labeled);
        assert_eq!(c.points().len(), 1);
        assert!((c.points()[0].precision - 0.5).abs() < 1e-12);
    }

    #[test]
    fn at_threshold_brackets() {
        let labeled = vec![l(0.9, true), l(0.5, true), l(0.1, false)];
        let c = PrCurve::from_labeled(&labeled);
        let p = c.at_threshold(0.6);
        assert!((p.recall - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.precision, 1.0);
        let p2 = c.at_threshold(0.05);
        assert!((p2.recall - 2.0 / 3.0).abs() < 1e-12);
        // Above all scores: nothing emitted.
        let p3 = c.at_threshold(0.95);
        assert_eq!((p3.precision, p3.recall), (1.0, 0.0));
    }

    #[test]
    fn threshold_for_recall_finds_operating_point() {
        let labeled = vec![l(0.9, true), l(0.7, true), l(0.5, false), l(0.3, true)];
        let c = PrCurve::from_labeled(&labeled);
        let p = c.threshold_for_recall(0.5).unwrap();
        assert!(p.recall >= 0.5);
        assert_eq!(p.threshold, 0.7);
        assert!(
            c.threshold_for_recall(0.99).is_none() || c.points().last().unwrap().recall >= 0.99
        );
        // A higher target dips past the wrong match to the lower threshold.
        let p75 = c.threshold_for_recall(0.75).unwrap();
        assert_eq!(p75.threshold, 0.3);
        assert!((p75.precision - 0.75).abs() < 1e-12);
        // Every best match wrong: no target is ever reached.
        let wrong = PrCurve::from_labeled(&[l(0.9, false), l(0.8, false)]);
        assert!(wrong.threshold_for_recall(0.5).is_none());
        // No unknown has its true author in the known set: recall is
        // undefined and reads as zero, so no target is reached either.
        let no_truth = PrCurve::from_labeled(&[LabeledScore {
            score: 0.9,
            correct: false,
            has_truth: false,
        }]);
        assert_eq!(no_truth.positives(), 0);
        assert!(no_truth.threshold_for_recall(0.5).is_none());
        // The operating point takes the recall target when the curve
        // reaches it and falls back to the best-F1 point otherwise.
        assert_eq!(c.operating_point(0.75), Some(p75));
        assert_eq!(wrong.operating_point(0.5), wrong.best_f1());
        assert!(PrCurve::from_labeled(&[]).operating_point(0.8).is_none());
    }

    #[test]
    fn best_f1_prefers_balanced_points() {
        let labeled = vec![l(0.9, true), l(0.8, true), l(0.7, true), l(0.1, false)];
        let c = PrCurve::from_labeled(&labeled);
        let best = c.best_f1().unwrap();
        assert!((best.recall - 0.75).abs() < 1e-12);
        assert_eq!(best.precision, 1.0);
    }

    #[test]
    fn empty_curve() {
        let c = PrCurve::from_labeled(&[]);
        assert_eq!(c.auc(), 0.0);
        assert!(c.points().is_empty());
        assert!(c.best_f1().is_none());
    }
}
