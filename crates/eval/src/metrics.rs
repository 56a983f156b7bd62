//! Match labeling and accuracy metrics.

use darklight_core::attrib::Ranked;
use darklight_core::dataset::Dataset;
use darklight_core::twostage::RankedMatch;

/// One unknown's best-match score, labeled against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledScore {
    /// The final similarity score of the emitted (best) candidate.
    pub score: f64,
    /// Whether that candidate is the true author.
    pub correct: bool,
    /// Whether the unknown's true author exists in the known set at all
    /// (recall denominators count only these).
    pub has_truth: bool,
}

/// Returns `true` when the ranked candidate is the unknown's true author
/// (same persona id; `None` personas never match).
pub fn is_correct(known: &Dataset, unknown_persona: Option<u64>, candidate: usize) -> bool {
    match (unknown_persona, known.records[candidate].persona) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// Whether the unknown's persona appears anywhere in the known set.
pub fn truth_present(known: &Dataset, unknown_persona: Option<u64>) -> bool {
    match unknown_persona {
        Some(p) => known.records.iter().any(|r| r.persona == Some(p)),
        None => false,
    }
}

/// Labels every unknown's best stage-2 candidate.
pub fn labeled_best_matches(
    results: &[RankedMatch],
    known: &Dataset,
    unknown: &Dataset,
) -> Vec<LabeledScore> {
    results
        .iter()
        .map(|m| {
            let persona = unknown.records[m.unknown].persona;
            let has_truth = truth_present(known, persona);
            match m.best() {
                Some(best) => LabeledScore {
                    score: best.score,
                    correct: is_correct(known, persona, best.index),
                    has_truth,
                },
                None => LabeledScore {
                    score: f64::MIN,
                    correct: false,
                    has_truth,
                },
            }
        })
        .collect()
}

/// Accuracy@k over candidate lists (Table III / Fig. 4): the fraction of
/// unknowns *with a true author in the known set* whose true author appears
/// in their first `k` candidates. `lists` pairs each unknown's persona with
/// its ranked candidates.
pub fn accuracy_at_k<'a, I>(lists: I, known: &Dataset, k: usize) -> f64
where
    I: IntoIterator<Item = (Option<u64>, &'a [Ranked])>,
{
    let mut eligible = 0usize;
    let mut hit = 0usize;
    for (persona, ranked) in lists {
        if !truth_present(known, persona) {
            continue;
        }
        eligible += 1;
        if ranked
            .iter()
            .take(k)
            .any(|r| is_correct(known, persona, r.index))
        {
            hit += 1;
        }
    }
    if eligible == 0 {
        0.0
    } else {
        hit as f64 / eligible as f64
    }
}

/// Accuracy@k of the reduction stage for a full result set.
pub fn reduction_accuracy_at_k(
    results: &[RankedMatch],
    known: &Dataset,
    unknown: &Dataset,
    k: usize,
) -> f64 {
    accuracy_at_k(
        results
            .iter()
            .map(|m| (unknown.records[m.unknown].persona, m.stage1.as_slice())),
        known,
        k,
    )
}

/// Precision and recall of the emitted pairs at a threshold.
///
/// Precision counts correct pairs among emitted pairs; recall counts
/// correct emitted pairs among unknowns whose true author is present.
pub fn precision_recall_at(labeled: &[LabeledScore], threshold: f64) -> (f64, f64) {
    let emitted: Vec<&LabeledScore> = labeled.iter().filter(|l| l.score >= threshold).collect();
    let correct = emitted.iter().filter(|l| l.correct).count();
    let positives = labeled.iter().filter(|l| l.has_truth).count();
    let precision = if emitted.is_empty() {
        1.0
    } else {
        correct as f64 / emitted.len() as f64
    };
    let recall = if positives == 0 {
        0.0
    } else {
        correct as f64 / positives as f64
    };
    (precision, recall)
}

/// The F1 score: the harmonic mean of precision and recall, 0 when both
/// are 0.
pub fn f1_score(precision: f64, recall: f64) -> f64 {
    if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darklight_core::dataset::Record;
    use darklight_features::pipeline::{CountedDoc, PreparedDoc};

    fn record(alias: &str, persona: Option<u64>) -> Record {
        let doc = PreparedDoc::prepare("sample text for the record body", None);
        let counted = CountedDoc::from_prepared(&doc, 3, 5);
        Record {
            alias: alias.to_string(),
            persona,
            facts: Vec::new(),
            text: String::new(),
            doc,
            counted,
            profile: None,
        }
    }

    fn known() -> Dataset {
        Dataset::new(
            "known",
            vec![
                record("a", Some(1)),
                record("b", Some(2)),
                record("c", None),
            ],
        )
    }

    fn ranked(pairs: &[(usize, f64)]) -> Vec<Ranked> {
        pairs
            .iter()
            .map(|&(index, score)| Ranked { index, score })
            .collect()
    }

    #[test]
    fn correctness_checks() {
        let k = known();
        assert!(is_correct(&k, Some(1), 0));
        assert!(!is_correct(&k, Some(1), 1));
        assert!(!is_correct(&k, None, 0));
        assert!(!is_correct(&k, Some(5), 2)); // None persona in known
        assert!(truth_present(&k, Some(2)));
        assert!(!truth_present(&k, Some(9)));
        assert!(!truth_present(&k, None));
    }

    #[test]
    fn accuracy_at_k_counts_only_eligible() {
        let k = known();
        let lists: Vec<(Option<u64>, Vec<Ranked>)> = vec![
            (Some(1), ranked(&[(1, 0.9), (0, 0.8)])), // truth at rank 2
            (Some(2), ranked(&[(1, 0.9)])),           // truth at rank 1
            (Some(9), ranked(&[(0, 0.9)])),           // no truth in known
            (None, ranked(&[(0, 0.9)])),              // noise unknown
        ];
        let iter = lists.iter().map(|(p, r)| (*p, r.as_slice()));
        assert!((accuracy_at_k(iter.clone(), &k, 1) - 0.5).abs() < 1e-12);
        assert!((accuracy_at_k(iter, &k, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_behaviour() {
        let labeled = vec![
            LabeledScore {
                score: 0.9,
                correct: true,
                has_truth: true,
            },
            LabeledScore {
                score: 0.8,
                correct: false,
                has_truth: true,
            },
            LabeledScore {
                score: 0.3,
                correct: true,
                has_truth: true,
            },
            LabeledScore {
                score: 0.2,
                correct: false,
                has_truth: false,
            },
        ];
        let (p, r) = precision_recall_at(&labeled, 0.5);
        assert!((p - 0.5).abs() < 1e-12); // 1 correct of 2 emitted
        assert!((r - 1.0 / 3.0).abs() < 1e-12); // 1 of 3 positives
        let (p0, r0) = precision_recall_at(&labeled, 0.0);
        assert!((p0 - 0.5).abs() < 1e-12); // 2 of 4
        assert!((r0 - 2.0 / 3.0).abs() < 1e-12);
        // Nothing emitted: precision defined as 1, recall 0.
        let (p9, r9) = precision_recall_at(&labeled, 0.95);
        assert_eq!((p9, r9), (1.0, 0.0));
    }

    #[test]
    fn empty_inputs() {
        let k = known();
        assert_eq!(accuracy_at_k(std::iter::empty(), &k, 3), 0.0);
        let (p, r) = precision_recall_at(&[], 0.1);
        assert_eq!((p, r), (1.0, 0.0));
    }
}

/// Labels *every* candidate pair of every unknown, not just the best one —
/// the paper's literal emission rule ("output the pair if the similarity
/// score is higher than the threshold t") applied to whatever candidate
/// set survived. With reduction the candidate set is capped at k per
/// unknown; without reduction every known alias is a potential pair, which
/// is exactly why the paper finds reduction lifts the PR curve (Table VI).
///
/// `has_truth` is set on an unknown's *first* (best) pair only, so recall
/// denominators still count each findable unknown once.
pub fn labeled_all_pairs(
    results: &[RankedMatch],
    known: &Dataset,
    unknown: &Dataset,
) -> Vec<LabeledScore> {
    let mut out = Vec::new();
    for m in results {
        let persona = unknown.records[m.unknown].persona;
        let has_truth = truth_present(known, persona);
        for (i, r) in m.stage2.iter().enumerate() {
            out.push(LabeledScore {
                score: r.score,
                correct: is_correct(known, persona, r.index),
                has_truth: has_truth && i == 0,
            });
        }
    }
    out
}

#[cfg(test)]
mod all_pairs_tests {
    use super::*;
    use darklight_core::attrib::Ranked;
    use darklight_core::dataset::Record;
    use darklight_core::twostage::RankedMatch;
    use darklight_features::pipeline::{CountedDoc, PreparedDoc};

    fn record(persona: Option<u64>) -> Record {
        let doc = PreparedDoc::prepare("t", None);
        let counted = CountedDoc::from_prepared(&doc, 3, 5);
        Record {
            alias: "a".into(),
            persona,
            facts: Vec::new(),
            text: String::new(),
            doc,
            counted,
            profile: None,
        }
    }

    #[test]
    fn all_pairs_expand_candidates() {
        let known = Dataset::new("k", vec![record(Some(1)), record(Some(2))]);
        let unknown = Dataset::new("u", vec![record(Some(1))]);
        let results = vec![RankedMatch {
            unknown: 0,
            stage1: Vec::new(),
            stage2: vec![
                Ranked {
                    index: 1,
                    score: 0.9,
                }, // wrong, ranked first
                Ranked {
                    index: 0,
                    score: 0.7,
                }, // right, ranked second
            ],
        }];
        let labeled = labeled_all_pairs(&results, &known, &unknown);
        assert_eq!(labeled.len(), 2);
        assert!(!labeled[0].correct && labeled[0].has_truth);
        assert!(labeled[1].correct && !labeled[1].has_truth); // truth counted once
                                                              // The best-match labeling would have produced only one entry.
        assert_eq!(labeled_best_matches(&results, &known, &unknown).len(), 1);
    }
}
