//! End-to-end integration: generate a world, run the paper's pipeline,
//! and check the headline behaviours — alter-ego re-identification,
//! threshold transfer, activity-feature gains, verdict simulation.
//!
//! All tests share one prepared small-scale world (generation dominates
//! the runtime).

use darklight::prelude::*;
use darklight_bench::{prepare_world, World};
use darklight_core::dataset::Dataset;
use darklight_eval::curve::PrCurve;
use darklight_eval::metrics::{labeled_best_matches, reduction_accuracy_at_k};
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| prepare_world(&ScenarioConfig::small()))
}

fn engine() -> TwoStage {
    TwoStage::new(TwoStageConfig {
        threads: 2,
        ..TwoStageConfig::default()
    })
}

fn wrap(stage1: Vec<Vec<darklight_core::attrib::Ranked>>) -> Vec<RankedMatch> {
    stage1
        .into_iter()
        .enumerate()
        .map(|(u, s1)| RankedMatch {
            unknown: u,
            stage1: s1.clone(),
            stage2: s1,
        })
        .collect()
}

#[test]
fn alter_egos_are_reidentified() {
    let w = world();
    let known = &w.reddit.originals;
    let ae = &w.reddit.alter_egos;
    let results = wrap(engine().reduce(known, ae));
    let acc10 = reduction_accuracy_at_k(&results, known, ae, 10);
    assert!(acc10 > 0.85, "acc@10 = {acc10}");
    let acc1 = reduction_accuracy_at_k(&results, known, ae, 1);
    assert!(acc1 > 0.5, "acc@1 = {acc1}");
    assert!(acc10 >= acc1);
}

#[test]
fn activity_profile_improves_short_text_attribution() {
    let w = world();
    let known = w.reddit.originals.with_word_budget(400);
    let ae = w.reddit.alter_egos.with_word_budget(400);
    let text_only = wrap(
        TwoStage::new(
            TwoStageConfig {
                threads: 2,
                ..TwoStageConfig::default()
            }
            .without_activity(),
        )
        .reduce(&known, &ae),
    );
    let with_activity = wrap(engine().reduce(&known, &ae));
    let a_text = reduction_accuracy_at_k(&text_only, &known, &ae, 10);
    let a_all = reduction_accuracy_at_k(&with_activity, &known, &ae, 10);
    assert!(
        a_all > a_text - 0.02,
        "activity hurt badly: text {a_text} vs all {a_all}"
    );
}

#[test]
fn more_words_means_higher_accuracy() {
    let w = world();
    let mut prev = 0.0;
    for words in [300, 800, 1500] {
        let known = w.reddit.originals.with_word_budget(words);
        let ae = w.reddit.alter_egos.with_word_budget(words);
        let results = wrap(engine().reduce(&known, &ae));
        let acc = reduction_accuracy_at_k(&results, &known, &ae, 10);
        assert!(
            acc >= prev - 0.05,
            "accuracy dropped from {prev} to {acc} at {words} words"
        );
        prev = acc;
    }
    assert!(prev > 0.8, "final accuracy {prev}");
}

#[test]
fn two_stage_scores_separate_true_from_false_pairs() {
    let w = world();
    let known = &w.reddit.originals;
    let ae = &w.reddit.alter_egos;
    let results = engine().run(known, ae);
    let labeled = labeled_best_matches(&results, known, ae);
    let correct_mean = mean(labeled.iter().filter(|l| l.correct).map(|l| l.score));
    let wrong_mean = mean(labeled.iter().filter(|l| !l.correct).map(|l| l.score));
    // At toy scale wrong best-matches are near-misses, so the mean gap is
    // small; the AUC bound below is the substantive separation check.
    assert!(
        correct_mean > wrong_mean,
        "no separation: correct {correct_mean} wrong {wrong_mean}"
    );
    let curve = PrCurve::from_labeled(&labeled);
    assert!(curve.auc() > 0.7, "AUC {}", curve.auc());
}

#[test]
fn threshold_transfers_across_forums() {
    let w = world();
    // Calibrate on Reddit alter-egos.
    let reddit_curve = {
        let r = engine().run(&w.reddit.originals, &w.reddit.alter_egos);
        PrCurve::from_labeled(&labeled_best_matches(
            &r,
            &w.reddit.originals,
            &w.reddit.alter_egos,
        ))
    };
    let Some(op) = reddit_curve.operating_point(0.8) else {
        panic!("no operating point found");
    };
    // Apply to TMG: precision should stay usable (the paper's claim is the
    // *same* threshold works on every forum).
    let tmg_curve = {
        let r = engine().run(&w.tmg.originals, &w.tmg.alter_egos);
        PrCurve::from_labeled(&labeled_best_matches(
            &r,
            &w.tmg.originals,
            &w.tmg.alter_egos,
        ))
    };
    let p = tmg_curve.at_threshold(op.threshold);
    assert!(
        p.precision > 0.6,
        "threshold {} gives TMG precision {}",
        op.threshold,
        p.precision
    );
}

#[test]
fn cross_forum_personas_link_and_verdicts_confirm() {
    let w = world();
    let (darkweb, _) = w.darkweb();
    let known = &w.reddit.originals;
    let results = engine().run(known, &darkweb);
    // Among unknowns whose persona exists on Reddit, the majority should
    // rank their true alias first or second.
    let mut eligible = 0;
    let mut top2 = 0;
    let mut confirmed = 0;
    for m in &results {
        let u = &darkweb.records[m.unknown];
        let Some(p) = u.persona else { continue };
        if !known.records.iter().any(|r| r.persona == Some(p)) {
            continue;
        }
        eligible += 1;
        let hit = m
            .stage2
            .iter()
            .take(2)
            .any(|c| known.records[c.index].persona == Some(p));
        if hit {
            top2 += 1;
        }
        if let Some(best) = m.best() {
            let k = &known.records[best.index];
            if judge_pair(&u.alias, &u.facts, &k.alias, &k.facts) == Verdict::True
                && k.persona == Some(p)
            {
                confirmed += 1;
            }
        }
    }
    assert!(eligible >= 5, "only {eligible} eligible cross personas");
    assert!(
        top2 * 2 >= eligible,
        "only {top2}/{eligible} cross personas in top-2"
    );
    assert!(confirmed >= 1, "no pair confirmed by verdict simulation");
}

#[test]
fn merged_darkweb_reduction_works() {
    let w = world();
    let (darkweb, ae_darkweb) = w.darkweb();
    let results = wrap(engine().reduce(&darkweb, &ae_darkweb));
    let acc = reduction_accuracy_at_k(&results, &darkweb, &ae_darkweb, 10);
    assert!(acc > 0.85, "darkweb acc@10 = {acc}");
}

#[test]
fn dataset_shapes_match_table_iv_structure() {
    let w = world();
    for fd in [&w.reddit, &w.tmg, &w.dm] {
        assert!(fd.alter_egos.len() <= fd.originals.len());
        assert!(fd.originals.len() <= fd.polished_users);
        assert!(fd.polished_users <= fd.raw_users);
        // Every alter-ego's persona has its original in the same forum.
        for r in &fd.alter_egos.records {
            let p = r.persona.expect("alter egos are persona-backed");
            assert!(
                fd.originals.records.iter().any(|o| o.persona == Some(p)),
                "orphan alter-ego {}",
                r.alias
            );
        }
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = iter.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Helper export check: the facade's prelude exposes what the README
/// promises.
#[test]
fn prelude_is_usable() {
    let _cfg: ScenarioConfig = ScenarioConfig::small();
    let _polish: PolishConfig = PolishConfig::default();
    let _fc: FeatureConfig = FeatureConfig::final_stage();
    let _v: Verdict = Verdict::Unclear;
    let _ = Dataset::new("x", Vec::new());
}
