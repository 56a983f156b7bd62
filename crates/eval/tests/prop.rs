//! Property-based tests for the evaluation layer.

use darklight_eval::bootstrap::{precision_recall_interval, BootstrapConfig};
use darklight_eval::curve::PrCurve;
use darklight_eval::metrics::{precision_recall_at, LabeledScore};
use proptest::prelude::*;

fn labeled_strategy() -> impl Strategy<Value = Vec<LabeledScore>> {
    proptest::collection::vec(
        (0.0f64..1.0, any::<bool>(), any::<bool>()).prop_map(|(score, correct, extra_truth)| {
            LabeledScore {
                score,
                correct,
                // A correct match implies its truth exists in the known set.
                has_truth: correct || extra_truth,
            }
        }),
        1..60,
    )
}

proptest! {
    /// PR curves: recall is non-decreasing as the threshold drops, both
    /// metrics stay in [0, 1], and AUC is in [0, 1].
    #[test]
    fn pr_curve_invariants(labeled in labeled_strategy()) {
        let c = PrCurve::from_labeled(&labeled);
        let mut prev_recall = 0.0;
        for p in c.points() {
            prop_assert!((0.0..=1.0).contains(&p.precision));
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p.recall));
            prop_assert!(p.recall >= prev_recall - 1e-12);
            prev_recall = p.recall;
        }
        prop_assert!((0.0..=1.0 + 1e-9).contains(&c.auc()));
    }

    /// `at_threshold` agrees with a direct precision/recall computation.
    #[test]
    fn at_threshold_matches_direct(labeled in labeled_strategy(), t in 0.0f64..1.0) {
        let c = PrCurve::from_labeled(&labeled);
        let p = c.at_threshold(t);
        let (dp, dr) = precision_recall_at(&labeled, t);
        prop_assert!((p.precision - dp).abs() < 1e-9, "precision {} vs {}", p.precision, dp);
        prop_assert!((p.recall - dr).abs() < 1e-9, "recall {} vs {}", p.recall, dr);
    }

    /// `threshold_for_recall` really achieves the target when it returns.
    #[test]
    fn threshold_for_recall_correct(labeled in labeled_strategy(), target in 0.0f64..1.0) {
        let c = PrCurve::from_labeled(&labeled);
        if let Some(p) = c.threshold_for_recall(target) {
            prop_assert!(p.recall >= target);
            // And it is the *highest* such threshold among curve points.
            for q in c.points() {
                if q.threshold > p.threshold {
                    prop_assert!(q.recall < target);
                }
            }
        }
    }

    /// Bootstrap intervals bracket the point estimate and stay in [0, 1].
    #[test]
    fn bootstrap_brackets_estimate(labeled in labeled_strategy(), t in 0.0f64..1.0) {
        let cfg = BootstrapConfig {
            resamples: 50,
            ..BootstrapConfig::default()
        };
        let (p, r) = precision_recall_interval(&labeled, t, &cfg);
        for i in [p, r] {
            prop_assert!(i.lower <= i.upper + 1e-12);
            prop_assert!((0.0..=1.0).contains(&i.lower));
            prop_assert!((0.0..=1.0).contains(&i.upper));
        }
    }
}
