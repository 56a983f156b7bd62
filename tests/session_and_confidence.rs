//! Integration: the investigator-facing APIs — single-alias queries
//! served from a fit artifact, confidence margins, and match
//! explanations — on a full synthetic world.

use darklight::core::artifact::FitArtifact;
use darklight::core::confidence::MatchConfidence;
use darklight::core::explain::explain_pair;
use darklight::prelude::*;
use darklight_bench::{prepare_world, World};
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| prepare_world(&ScenarioConfig::small()))
}

fn config() -> TwoStageConfig {
    TwoStageConfig {
        threads: 2,
        ..TwoStageConfig::default()
    }
}

/// An investigator probes one fixed known set with aliases as they
/// surface: fit once, then serve each of the first eight DM originals on
/// its own through `Linker::link_with_artifact`. Every query must pick
/// the candidate a batch run over all unknowns picks, with the same
/// score bits.
#[test]
fn session_queries_agree_with_batch_runs() {
    let w = world();
    let known = &w.tmg.originals;
    let artifact = FitArtifact::fit(&config(), known.clone());
    let batch = TwoStage::new(config()).run(known, &w.dm.originals);
    let linker = Linker::new(LinkerConfig {
        // Every best match is emitted, whatever its score.
        two_stage: TwoStageConfig {
            threshold: f64::NEG_INFINITY,
            ..config()
        },
        polish: PolishConfig::disabled(),
        ..LinkerConfig::default()
    });
    for (u, user) in w.dm.originals_corpus.users.iter().enumerate().take(8) {
        assert_eq!(user.alias, w.dm.originals.records[u].alias);
        let mut query = Corpus::new("query");
        query.users.push(user.clone());
        let served = linker.link_with_artifact(&artifact, &query);
        let best = batch[u].best().expect("every DM original has candidates");
        assert_eq!(served.len(), 1, "one query yields one pair");
        assert_eq!(
            known.index_of(&served[0].known_alias),
            Some(best.index),
            "disagreement on {}",
            user.alias
        );
        assert_eq!(served[0].score.to_bits(), best.score.to_bits());
    }
}

#[test]
fn margin_rule_improves_dark_to_dark_precision() {
    let w = world();
    let engine = TwoStage::new(config());
    let results = engine.run(&w.tmg.originals, &w.dm.originals);

    // Pick the threshold permissively (the point of the test is the margin,
    // not the threshold).
    let threshold = 0.84;
    let is_true = |m: &RankedMatch| {
        let best = m.best().unwrap();
        let u = &w.dm.originals.records[m.unknown];
        let k = &w.tmg.originals.records[best.index];
        u.persona.is_some() && u.persona == k.persona
    };

    let score_only: Vec<&RankedMatch> = results
        .iter()
        .filter(|m| m.best().is_some_and(|b| b.score >= threshold))
        .collect();
    let with_margin: Vec<&RankedMatch> = results
        .iter()
        .filter(|m| MatchConfidence::of(m).is_some_and(|c| c.accept(threshold, 0.006)))
        .collect();

    let precision = |set: &[&RankedMatch]| {
        if set.is_empty() {
            return 1.0;
        }
        set.iter().filter(|m| is_true(m)).count() as f64 / set.len() as f64
    };
    let p_score = precision(&score_only);
    let p_margin = precision(&with_margin);
    assert!(
        p_margin >= p_score,
        "margin rule should not hurt precision: {p_score} -> {p_margin}"
    );
    // And it must keep at least one true pair.
    assert!(with_margin.iter().any(|m| is_true(m)));
}

#[test]
fn explanations_reflect_ground_truth() {
    let w = world();
    let engine = TwoStage::new(config());
    let results = engine.run(&w.tmg.originals, &w.dm.originals);

    // Average vocabulary overlap of same-persona matched pairs must exceed
    // that of different-persona pairs.
    let mut same = Vec::new();
    let mut diff = Vec::new();
    for m in &results {
        let Some(best) = m.best() else { continue };
        let u = &w.dm.originals.records[m.unknown];
        let k = &w.tmg.originals.records[best.index];
        let ex = explain_pair(u, k);
        if u.persona.is_some() && u.persona == k.persona {
            same.push(ex.vocabulary_overlap);
        } else {
            diff.push(ex.vocabulary_overlap);
        }
    }
    assert!(!same.is_empty(), "no true pairs matched at all");
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        avg(&same) > avg(&diff),
        "same-persona overlap {} should exceed different {}",
        avg(&same),
        avg(&diff)
    );
}

#[test]
fn confidence_margins_higher_for_true_pairs() {
    let w = world();
    let engine = TwoStage::new(config());
    let results = engine.run(&w.reddit.originals, &w.reddit.alter_egos);
    let mut true_margins = Vec::new();
    let mut false_margins = Vec::new();
    for m in &results {
        let Some(best) = m.best() else { continue };
        let Some(conf) = MatchConfidence::of(m) else {
            continue;
        };
        let u = &w.reddit.alter_egos.records[m.unknown];
        let k = &w.reddit.originals.records[best.index];
        if u.persona.is_some() && u.persona == k.persona {
            true_margins.push(conf.margin);
        } else {
            false_margins.push(conf.margin);
        }
    }
    assert!(!true_margins.is_empty());
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        avg(&true_margins) > avg(&false_margins),
        "true {} vs false {}",
        avg(&true_margins),
        avg(&false_margins)
    );
}
