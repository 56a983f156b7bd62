//! Ablation experiments for the design choices DESIGN.md calls out:
//! lemmatization, polishing, the activity-profile weight, the candidate
//! count k, the batch size, per-feature-family contributions, and the
//! style-obfuscation defence (§VI).

use crate::experiments::{wrap_stage1, Ctx};
use darklight_core::batch::{run_batched, BatchConfig};
use darklight_core::dataset::{Dataset, DatasetBuilder};
use darklight_core::twostage::{TwoStage, TwoStageConfig};
use darklight_eval::curve::PrCurve;
use darklight_eval::metrics::{labeled_best_matches, reduction_accuracy_at_k};
use darklight_eval::report::{num, pct, Table};
use darklight_features::pipeline::FeatureConfig;
use darklight_text::obfuscate::{ObfuscateConfig, Obfuscator};
use std::fmt::Write as _;

/// Sweep the candidate-set size k: accuracy@k of the reduction stage and
/// AUC of the full pipeline.
pub fn k_sweep(ctx: &Ctx) -> String {
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    let mut t = Table::new(["k", "reduction acc@k", "pipeline AUC"]);
    for k in [1usize, 2, 5, 10, 20, 50] {
        let cfg = TwoStageConfig {
            k,
            ..ctx.engine_config.clone()
        };
        let engine = TwoStage::new(cfg);
        let stage1 = wrap_stage1(engine.reduce(known, &w1));
        let acc = reduction_accuracy_at_k(&stage1, known, &w1, k);
        let results = engine.run(known, &w1);
        let auc = PrCurve::from_labeled(&labeled_best_matches(&results, known, &w1)).auc();
        t.row([k.to_string(), pct(acc), num(auc, 3)]);
    }
    format!("## Ablation — candidate count k\n\n{}", t.to_markdown())
}

/// Sweep the activity-profile block weight (0 = text only).
pub fn activity_weight_sweep(ctx: &Ctx) -> String {
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    let mut t = Table::new(["activity weight", "acc@1", "acc@10"]);
    for w in [0.0f32, 0.1, 0.2, 0.35, 0.5, 1.0] {
        let mut cfg = ctx.engine_config.clone();
        cfg.reduction.activity_weight = w;
        cfg.final_stage.activity_weight = w;
        let stage1 = wrap_stage1(TwoStage::new(cfg).reduce(known, &w1));
        t.row([
            format!("{w:.2}"),
            pct(reduction_accuracy_at_k(&stage1, known, &w1, 1)),
            pct(reduction_accuracy_at_k(&stage1, known, &w1, 10)),
        ]);
    }
    format!(
        "## Ablation — activity-profile weight\n\n{}",
        t.to_markdown()
    )
}

/// Per-feature-family contribution: run the reduction stage with exactly
/// one family enabled at a time, then all together.
pub fn feature_family_ablation(ctx: &Ctx) -> String {
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    let base = FeatureConfig::space_reduction();
    let variants: Vec<(&str, FeatureConfig)> = vec![
        (
            "word n-grams only",
            FeatureConfig {
                char_weight: 0.0,
                char_class_weight: 0.0,
                activity_weight: 0.0,
                ..base.clone()
            },
        ),
        (
            "char n-grams only",
            FeatureConfig {
                word_weight: 0.0,
                char_class_weight: 0.0,
                activity_weight: 0.0,
                ..base.clone()
            },
        ),
        (
            "char classes only",
            FeatureConfig {
                word_weight: 0.0,
                char_weight: 0.0,
                activity_weight: 0.0,
                char_class_weight: 1.0,
                ..base.clone()
            },
        ),
        (
            "activity only",
            FeatureConfig {
                word_weight: 0.0,
                char_weight: 0.0,
                char_class_weight: 0.0,
                activity_weight: 1.0,
                ..base.clone()
            },
        ),
        ("all families", base.clone()),
    ];
    let mut t = Table::new(["features", "acc@1", "acc@10"]);
    for (name, fc) in variants {
        let cfg = TwoStageConfig {
            reduction: fc.clone(),
            final_stage: fc,
            ..ctx.engine_config.clone()
        };
        let stage1 = wrap_stage1(TwoStage::new(cfg).reduce(known, &w1));
        t.row([
            name.to_string(),
            pct(reduction_accuracy_at_k(&stage1, known, &w1, 1)),
            pct(reduction_accuracy_at_k(&stage1, known, &w1, 10)),
        ]);
    }
    format!("## Ablation — feature families\n\n{}", t.to_markdown())
}

/// Lemmatization on/off.
pub fn lemmatization_ablation(ctx: &Ctx) -> String {
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    // "Off" needs re-prepared datasets without the lemmatizer; rebuild from
    // the refined corpora.
    let raw_builder = DatasetBuilder::new().without_lemmatization();
    let known_raw = raw_builder.build(&ctx.world.reddit.originals_corpus);
    let ae_raw = raw_builder.build(&ctx.world.reddit.alter_egos_corpus);
    let n = w1.len();
    let ae_raw = Dataset::new("w1_raw", ae_raw.records[..n.min(ae_raw.len())].to_vec());
    let engine = TwoStage::new(ctx.engine_config.clone());
    let mut t = Table::new(["lemmatization", "acc@1", "acc@10"]);
    let on = wrap_stage1(engine.reduce(known, &w1));
    t.row([
        "on (paper)".to_string(),
        pct(reduction_accuracy_at_k(&on, known, &w1, 1)),
        pct(reduction_accuracy_at_k(&on, known, &w1, 10)),
    ]);
    let off = wrap_stage1(engine.reduce(&known_raw, &ae_raw));
    t.row([
        "off".to_string(),
        pct(reduction_accuracy_at_k(&off, &known_raw, &ae_raw, 1)),
        pct(reduction_accuracy_at_k(&off, &known_raw, &ae_raw, 10)),
    ]);
    format!("## Ablation — lemmatization\n\n{}", t.to_markdown())
}

/// Batch-size sweep (§IV-J): agreement with the unbatched pipeline.
pub fn batch_size_sweep(ctx: &Ctx) -> String {
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    // Use a subsample for tractability.
    let sample = Dataset::new("batch_sweep", w1.records[..w1.len().min(120)].to_vec());
    let engine = TwoStage::new(ctx.engine_config.clone());
    let reference = engine.run(known, &sample);
    let mut t = Table::new(["batch size B", "top-match agreement", "acc@1"]);
    for b in [50usize, 100, 200, 400] {
        if b >= known.len() {
            continue;
        }
        let batched = run_batched(
            &engine,
            &BatchConfig { batch_size: b },
            known,
            &sample,
            None,
        )
        .expect("valid batch config");
        let agree = reference
            .iter()
            .zip(&batched)
            .filter(|(a, c)| a.best().map(|r| r.index) == c.best().map(|r| r.index))
            .count();
        let acc = {
            let labeled = labeled_best_matches(&batched, known, &sample);
            labeled.iter().filter(|l| l.correct).count() as f64 / labeled.len().max(1) as f64
        };
        t.row([
            b.to_string(),
            pct(agree as f64 / reference.len().max(1) as f64),
            pct(acc),
        ]);
    }
    format!("## Ablation — batch size (§IV-J)\n\n{}", t.to_markdown())
}

/// The §VI defence: obfuscate the unknown aliases' text with the
/// adversarial-stylometry scrubber and measure how attribution degrades.
pub fn obfuscation_defence(ctx: &Ctx) -> String {
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    let engine = TwoStage::new(ctx.engine_config.clone());

    let mut out = String::from("## Defence — adversarial stylometry (§VI)\n\n");
    let mut t = Table::new(["unknown text", "acc@1", "acc@10"]);
    let plain = wrap_stage1(engine.reduce(known, &w1));
    t.row([
        "as written".to_string(),
        pct(reduction_accuracy_at_k(&plain, known, &w1, 1)),
        pct(reduction_accuracy_at_k(&plain, known, &w1, 10)),
    ]);

    // Re-prepare the alter-egos from obfuscated text.
    let obfuscator = Obfuscator::new(ObfuscateConfig::aggressive());
    let mut scrubbed_corpus = ctx.world.reddit.alter_egos_corpus.clone();
    for user in &mut scrubbed_corpus.users {
        for post in &mut user.posts {
            post.text = obfuscator.apply(&post.text);
        }
    }
    let scrubbed_all = DatasetBuilder::new().build(&scrubbed_corpus);
    let scrubbed = Dataset::new(
        "w1_scrubbed",
        scrubbed_all.records[..w1.len().min(scrubbed_all.len())].to_vec(),
    );
    let obf = wrap_stage1(engine.reduce(known, &scrubbed));
    t.row([
        "obfuscated".to_string(),
        pct(reduction_accuracy_at_k(&obf, known, &scrubbed, 1)),
        pct(reduction_accuracy_at_k(&obf, known, &scrubbed, 10)),
    ]);
    let _ = write!(
        out,
        "{}\nobfuscation scrubs spelling variants, contractions, slang, casing, and\n\
         punctuation habits — the channels the char-gram and char-class features key\n\
         on — while the activity profile is untouched (evading it requires changing\n\
         *when* you post, §VI).\n",
        t.to_markdown()
    );
    out
}
