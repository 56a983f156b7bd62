//! The experiment implementations behind the `repro` binary: one function
//! per table/figure of the paper, each returning a rendered report
//! section. See DESIGN.md §4 for the experiment index.

use crate::World;
use darklight_core::attrib::Ranked;
use darklight_core::baseline::{KoppelBaseline, StandardBaseline};
use darklight_core::batch::{run_batched, BatchConfig};
use darklight_core::dataset::Dataset;
use darklight_core::twostage::{RankedMatch, TwoStage, TwoStageConfig};
use darklight_corpus::stats::{topic_composition, words_per_user_cdf};
use darklight_eval::curve::PrCurve;
use darklight_eval::metrics::{
    labeled_best_matches, precision_recall_at, reduction_accuracy_at_k, LabeledScore,
};
use darklight_eval::profiler::build_profile;
use darklight_eval::report::{num, pct, Table};
use darklight_eval::verdict::{judge_pair, Verdict, VerdictCounts};
use darklight_features::pipeline::{FeatureConfig, FeatureExtractor};
use darklight_synth::lexicon::TOPICS;
use std::fmt::Write as _;
use std::time::Instant;

/// Shared experiment context: the prepared world plus lazily computed
/// intermediates (the calibrated global threshold, the W1/W2 splits).
#[derive(Debug)]
pub struct Ctx {
    /// The prepared world.
    pub world: World,
    /// Attribution engine settings shared by every experiment.
    pub engine_config: TwoStageConfig,
    /// Cap on unknown aliases per Reddit-scale experiment (the paper uses
    /// 1,000 alter-egos).
    pub max_unknowns: usize,
    threshold: std::sync::OnceLock<f64>,
}

impl Ctx {
    /// Builds a context from a prepared world.
    pub fn new(world: World) -> Ctx {
        Ctx {
            world,
            engine_config: TwoStageConfig::default(),
            max_unknowns: 1_000,
            threshold: std::sync::OnceLock::new(),
        }
    }

    fn engine(&self) -> TwoStage {
        TwoStage::new(self.engine_config.clone())
    }

    /// The W1/W2 calibration split of AE_Reddit (§IV-E): up to 1,000
    /// alter-egos split into two halves.
    pub fn w_splits(&self) -> (Dataset, Dataset) {
        let ae = &self.world.reddit.alter_egos;
        let n = ae.len().min(self.max_unknowns);
        let half = n / 2;
        let w1 = Dataset::new("w1", ae.records[..half].to_vec());
        let w2 = Dataset::new("w2", ae.records[half..n].to_vec());
        (w1, w2)
    }

    /// The calibrated global threshold: the highest threshold reaching 80%
    /// recall on W1 (§IV-E). Falls back to the best-F1 threshold if recall
    /// never reaches 80%.
    pub fn global_threshold(&self) -> f64 {
        *self.threshold.get_or_init(|| {
            let (w1, _) = self.w_splits();
            self.curve_for(&self.world.reddit.originals, &w1)
                .operating_point(0.80)
                .map(|p| p.threshold)
                .unwrap_or(crate::PAPER_THRESHOLD_FALLBACK)
        })
    }

    /// Runs the full pipeline and returns the PR curve of best-match
    /// scores.
    pub fn curve_for(&self, known: &Dataset, unknown: &Dataset) -> PrCurve {
        let results = self.engine().run(known, unknown);
        let labeled = labeled_best_matches(&results, known, unknown);
        PrCurve::from_labeled(&labeled)
    }
}

/// Table I — Reddit dataset composition by topic.
pub fn table1(ctx: &Ctx) -> String {
    // Community → topic mapping straight from the generator's lexicon.
    let topic_of = |community: &str| -> Option<String> {
        TOPICS
            .iter()
            .find(|t| t.communities.contains(&community))
            .map(|t| t.name.to_string())
    };
    // The paper computes Table I on the collected (polished) Reddit data.
    let polished = {
        let polisher = darklight_corpus::polish::Polisher::default();
        polisher.polish(&ctx.world.scenario.reddit).0
    };
    let stats = topic_composition(&polished, |c| topic_of(c));
    let mut t = Table::new([
        "Topic",
        "communities(#)",
        "subscriptions(%)",
        "messages(%)",
        "popular community",
        "messages(#)",
    ]);
    for s in &stats {
        t.row([
            s.topic.clone(),
            s.communities.to_string(),
            pct(s.user_share),
            pct(s.message_share),
            s.top_community.clone(),
            s.top_community_messages.to_string(),
        ]);
    }
    format!(
        "## Table I — Reddit composition by topic\n\n{}",
        t.to_markdown()
    )
}

/// Table II — feature counts for the two pipeline stages, as configured
/// and as actually materialized on the Reddit dataset.
pub fn table2(ctx: &Ctx) -> String {
    let reddit = &ctx.world.reddit.originals;
    let fitted = |cfg: FeatureConfig| {
        FeatureExtractor::new(cfg).fit_counted(reddit.records.iter().map(|r| &r.counted))
    };
    let sr_cfg = FeatureConfig::space_reduction();
    let fin_cfg = FeatureConfig::final_stage();
    let sr = fitted(sr_cfg.clone());
    let fin = fitted(fin_cfg.clone());
    let mut t = Table::new([
        "Type",
        "Space Reduction (cap)",
        "fitted",
        "Final (cap)",
        "fitted",
    ]);
    t.row([
        "Word n-grams 1-3".to_string(),
        sr_cfg.top_word_ngrams.to_string(),
        sr.word_vocab_len().to_string(),
        fin_cfg.top_word_ngrams.to_string(),
        fin.word_vocab_len().to_string(),
    ]);
    t.row([
        "Char n-grams 1-5".to_string(),
        sr_cfg.top_char_ngrams.to_string(),
        sr.char_vocab_len().to_string(),
        fin_cfg.top_char_ngrams.to_string(),
        fin.char_vocab_len().to_string(),
    ]);
    t.row(["Freq. of punctuation", "11", "11", "11", "11"]);
    t.row(["Freq. of digit", "10", "10", "10", "10"]);
    t.row(["Freq. of special chars", "21", "21", "21", "21"]);
    t.row(["Daily activity profile", "24", "24", "24", "24"]);
    format!("## Table II — features per stage\n\n{}", t.to_markdown())
}

/// Table III — k-attribution accuracy vs number of words, with text-only
/// vs text+activity features, for k = 1 and k = 10.
pub fn table3(ctx: &Ctx) -> String {
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    let mut t = Table::new([
        "# of words",
        "K=1 (text)",
        "K=1 (all)",
        "K=10 (text)",
        "K=10 (all)",
    ]);
    for words in [
        400, 600, 800, 1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700,
    ] {
        let k_ds = known.with_word_budget(words);
        let u_ds = w1.with_word_budget(words);
        let mut cells = vec![words.to_string()];
        let mut accs = [0.0f64; 4];
        for (ci, cfg) in [
            ctx.engine_config.clone().without_activity(),
            ctx.engine_config.clone(),
        ]
        .into_iter()
        .enumerate()
        {
            let engine = TwoStage::new(cfg);
            let results = wrap_stage1(engine.reduce(&k_ds, &u_ds));
            accs[ci] = reduction_accuracy_at_k(&results, &k_ds, &u_ds, 1);
            accs[2 + ci] = reduction_accuracy_at_k(&results, &k_ds, &u_ds, 10);
        }
        for a in accs {
            cells.push(pct(a));
        }
        t.row(cells);
    }
    format!(
        "## Table III — k-attribution accuracy vs words/user\n\n{}",
        t.to_markdown()
    )
}

/// Table IV — dataset sizes after refinement and alter-ego generation.
pub fn table4(ctx: &Ctx) -> String {
    let mut t = Table::new(["Name", "(#)Aliases", "raw", "polished"]);
    for (name, fd) in [
        ("Reddit", &ctx.world.reddit),
        ("TMG", &ctx.world.tmg),
        ("DM", &ctx.world.dm),
    ] {
        t.row([
            name.to_string(),
            fd.originals.len().to_string(),
            fd.raw_users.to_string(),
            fd.polished_users.to_string(),
        ]);
        t.row([
            format!("AE_{name}"),
            fd.alter_egos.len().to_string(),
            String::new(),
            String::new(),
        ]);
    }
    format!("## Table IV — dataset composition\n\n{}", t.to_markdown())
}

/// Table V — per-forum thresholds at 80% recall and the global threshold's
/// precision/recall on every forum (§IV-E, §IV-G).
pub fn table5(ctx: &Ctx) -> String {
    let global = ctx.global_threshold();
    let (w1, w2) = ctx.w_splits();
    let reddit = &ctx.world.reddit.originals;
    let cases: Vec<(&str, &Dataset, Dataset)> = vec![
        ("Reddit_A", reddit, w1),
        ("Reddit_B", reddit, w2),
        (
            "DM",
            &ctx.world.dm.originals,
            ctx.world.dm.alter_egos.clone(),
        ),
        (
            "TMG",
            &ctx.world.tmg.originals,
            ctx.world.tmg.alter_egos.clone(),
        ),
    ];
    let mut own = Table::new(["Forum", "threshold@80%R", "Precision", "Recall"]);
    let mut glob = Table::new(["Forum", "global threshold", "Precision", "Recall"]);
    for (name, known, unknown) in &cases {
        let curve = ctx.curve_for(known, unknown);
        match curve.threshold_for_recall(0.80) {
            Some(p) => {
                own.row([
                    name.to_string(),
                    num(p.threshold, 4),
                    pct(p.precision),
                    pct(p.recall),
                ]);
            }
            None => {
                own.row([name.to_string(), "n/a".into(), "-".into(), "-".into()]);
            }
        }
        let p = curve.at_threshold(global);
        glob.row([
            name.to_string(),
            num(global, 4),
            pct(p.precision),
            pct(p.recall),
        ]);
    }
    format!(
        "## Table V — precision/recall at per-forum and global thresholds\n\n\
         Per-forum thresholds at 80% recall:\n\n{}\n\
         Global threshold (calibrated on Reddit_A):\n\n{}",
        own.to_markdown(),
        glob.to_markdown()
    )
}

/// Table VI — AUC with vs without search-space reduction per forum.
///
/// Two emission semantics are reported. *Best-match*: each unknown emits
/// only its top candidate (how §V counts "possible matches"). *All-pairs*:
/// every candidate pair above the threshold is emitted — the literal §IV-I
/// rule, under which the reduction's k-cap is what keeps the pair pool
/// clean; without it the full candidate set floods the curve, which is the
/// effect behind the paper's Table VI gap.
pub fn table6(ctx: &Ctx) -> String {
    let (w1, _) = ctx.w_splits();
    let cases: Vec<(&str, &Dataset, Dataset)> = vec![
        ("Reddit", &ctx.world.reddit.originals, w1),
        (
            "TMG",
            &ctx.world.tmg.originals,
            ctx.world.tmg.alter_egos.clone(),
        ),
        (
            "DM",
            &ctx.world.dm.originals,
            ctx.world.dm.alter_egos.clone(),
        ),
    ];
    let engine = ctx.engine();
    let mut t = Table::new([
        "Forum",
        "with reduction (best)",
        "without (best)",
        "with reduction (pairs)",
        "without (pairs)",
    ]);
    for (name, known, unknown) in &cases {
        let with_results = engine.run(known, unknown);
        let without_top = engine.run_without_reduction(known, unknown);
        let without_full = engine.run_without_reduction_depth(known, unknown, known.len());
        let auc_best_with =
            PrCurve::from_labeled(&labeled_best_matches(&with_results, known, unknown)).auc();
        let auc_best_without =
            PrCurve::from_labeled(&labeled_best_matches(&without_top, known, unknown)).auc();
        let auc_pairs_with = PrCurve::from_labeled(&darklight_eval::metrics::labeled_all_pairs(
            &with_results,
            known,
            unknown,
        ))
        .auc();
        let auc_pairs_without = PrCurve::from_labeled(&darklight_eval::metrics::labeled_all_pairs(
            &without_full,
            known,
            unknown,
        ))
        .auc();
        t.row([
            name.to_string(),
            num(auc_best_with, 3),
            num(auc_best_without, 3),
            num(auc_pairs_with, 3),
            num(auc_pairs_without, 3),
        ]);
    }
    format!("## Table VI — AUC values\n\n{}", t.to_markdown())
}

/// Fig. 1 — cumulative distribution of words per user on the dark-web
/// forums (computed on the polished corpora, before refinement).
pub fn fig1(ctx: &Ctx) -> String {
    let mut out = String::from("## Fig. 1 — CDF of words per user (dark web)\n\n");
    for (name, raw) in [
        ("TMG", &ctx.world.scenario.tmg),
        ("DM", &ctx.world.scenario.dm),
    ] {
        let polished = darklight_corpus::polish::Polisher::default().polish(raw).0;
        let cdf = words_per_user_cdf(&polished);
        let mut t = Table::new(["words ≤", "fraction of users"]);
        for x in [50u64, 100, 250, 500, 1000, 1500, 2500, 5000, 10_000, 20_000] {
            t.row([
                x.to_string(),
                num(darklight_corpus::stats::cdf_at(&cdf, x), 3),
            ]);
        }
        let _ = write!(out, "### {name}\n\n{}\n", t.to_markdown());
    }
    out
}

/// Fig. 2 — precision-recall curves of the two calibration splits with the
/// chosen threshold's operating points.
pub fn fig2(ctx: &Ctx) -> String {
    let global = ctx.global_threshold();
    let (w1, w2) = ctx.w_splits();
    let reddit = &ctx.world.reddit.originals;
    let mut out = String::from("## Fig. 2 — PR curves for W1 and W2\n\n");
    for (name, unknown) in [("W1", &w1), ("W2", &w2)] {
        let curve = ctx.curve_for(reddit, unknown);
        let _ = write!(out, "### {name} (AUC {:.3})\n\n", curve.auc());
        out.push_str(&curve_series(&curve, 20));
        let p = curve.at_threshold(global);
        let _ = write!(
            out,
            "\nthreshold {:.4} → precision {} recall {}\n\n",
            global,
            pct(p.precision),
            pct(p.recall)
        );
    }
    out
}

/// Fig. 3 — the baseline comparison: PR curves + AUC + wall-clock times
/// for the Standard baseline, the Koppel baseline, and our method.
pub fn fig3(ctx: &Ctx, max_unknowns: usize) -> String {
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    let unknown = Dataset::new("fig3", w1.records[..w1.len().min(max_unknowns)].to_vec());
    let mut out = String::from("## Fig. 3 — baseline comparison\n\n");
    let mut t = Table::new(["Method", "AUC", "wall-clock (s)"]);

    let t0 = Instant::now();
    let std_ranked = StandardBaseline::default().run(known, &unknown);
    let std_time = t0.elapsed().as_secs_f64();
    let std_curve = PrCurve::from_labeled(&label_ranked(&std_ranked, known, &unknown));

    let t0 = Instant::now();
    let kop_ranked = KoppelBaseline::default().run(known, &unknown);
    let kop_time = t0.elapsed().as_secs_f64();
    let kop_curve = PrCurve::from_labeled(&label_ranked(&kop_ranked, known, &unknown));

    let t0 = Instant::now();
    let ours = ctx.engine().run(known, &unknown);
    let our_time = t0.elapsed().as_secs_f64();
    let our_curve = PrCurve::from_labeled(&labeled_best_matches(&ours, known, &unknown));

    t.row([
        "Standard baseline".to_string(),
        num(std_curve.auc(), 3),
        num(std_time, 1),
    ]);
    t.row([
        "Koppel baseline".to_string(),
        num(kop_curve.auc(), 3),
        num(kop_time, 1),
    ]);
    t.row([
        "Our method".to_string(),
        num(our_curve.auc(), 3),
        num(our_time, 1),
    ]);
    out.push_str(&t.to_markdown());
    out.push_str("\n### PR series\n");
    for (name, curve) in [
        ("Standard", &std_curve),
        ("Koppel", &kop_curve),
        ("Ours", &our_curve),
    ] {
        let _ = write!(out, "\n#### {name}\n\n{}", curve_series(curve, 15));
    }
    out
}

/// Fig. 4 — impact of the daily-activity feature: accuracy vs k with and
/// without it, on Reddit and on the merged DarkWeb datasets.
pub fn fig4(ctx: &Ctx) -> String {
    let (w1, _) = ctx.w_splits();
    let (darkweb, ae_darkweb) = ctx.world.darkweb();
    let mut out = String::from("## Fig. 4 — impact of the daily activity profile\n\n");
    for (panel, known, unknown) in [
        ("Reddit", &ctx.world.reddit.originals, &w1),
        ("DarkWeb", &darkweb, &ae_darkweb),
    ] {
        let mut t = Table::new(["k", "text only", "text + activity"]);
        let text = wrap_stage1(
            TwoStage::new(ctx.engine_config.clone().without_activity()).reduce(known, unknown),
        );
        let all = wrap_stage1(ctx.engine().reduce(known, unknown));
        for k in 1..=10 {
            t.row([
                k.to_string(),
                pct(reduction_accuracy_at_k(&text, known, unknown, k)),
                pct(reduction_accuracy_at_k(&all, known, unknown, k)),
            ]);
        }
        let _ = write!(out, "### {panel}\n\n{}\n", t.to_markdown());
    }
    out
}

/// Fig. 5 — precision-recall with vs without search-space reduction,
/// under the paper's literal all-pairs emission rule (see [`table6`]).
pub fn fig5(ctx: &Ctx) -> String {
    let (w1, _) = ctx.w_splits();
    let cases: Vec<(&str, &Dataset, Dataset)> = vec![
        ("Reddit", &ctx.world.reddit.originals, w1),
        (
            "TMG",
            &ctx.world.tmg.originals,
            ctx.world.tmg.alter_egos.clone(),
        ),
        (
            "DM",
            &ctx.world.dm.originals,
            ctx.world.dm.alter_egos.clone(),
        ),
    ];
    let engine = ctx.engine();
    let mut out = String::from("## Fig. 5 — PR with vs without reduction\n\n");
    for (name, known, unknown) in &cases {
        let with = {
            let r = engine.run(known, unknown);
            PrCurve::from_labeled(&darklight_eval::metrics::labeled_all_pairs(
                &r, known, unknown,
            ))
        };
        let without = {
            let r = engine.run_without_reduction_depth(known, unknown, known.len());
            PrCurve::from_labeled(&darklight_eval::metrics::labeled_all_pairs(
                &r, known, unknown,
            ))
        };
        let _ = write!(
            out,
            "### {name}\n\nwith reduction (AUC {:.3}):\n\n{}\nwithout reduction (AUC {:.3}):\n\n{}\n",
            with.auc(),
            curve_series(&with, 12),
            without.auc(),
            curve_series(&without, 12)
        );
    }
    out
}

/// §IV-G — 10-attribution accuracy on the merged DarkWeb dataset.
pub fn darkweb_accuracy(ctx: &Ctx) -> String {
    let (darkweb, ae_darkweb) = ctx.world.darkweb();
    let results = wrap_stage1(ctx.engine().reduce(&darkweb, &ae_darkweb));
    let acc = reduction_accuracy_at_k(&results, &darkweb, &ae_darkweb, 10);
    format!(
        "## §IV-G — DarkWeb 10-attribution\n\naccuracy@10 on DarkWeb ∪ AE_DarkWeb: {}\n",
        pct(acc)
    )
}

/// §IV-J — the batched pipeline at B=100 against the unbatched one.
pub fn batch_experiment(ctx: &Ctx, batch_size: usize) -> String {
    let global = ctx.global_threshold();
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    let engine = ctx.engine();
    let unbatched = engine.run(known, &w1);
    let batched =
        run_batched(&engine, &BatchConfig { batch_size }, known, &w1).expect("valid batch config");
    let mut t = Table::new(["Mode", "Precision", "Recall"]);
    for (name, results) in [
        ("unbatched", &unbatched),
        (&format!("batched B={batch_size}"), &batched),
    ] {
        let labeled = labeled_best_matches(results, known, &w1);
        let (p, r) = precision_recall_at(&labeled, global);
        t.row([name.to_string(), pct(p), pct(r)]);
    }
    format!(
        "## §IV-J — batched processing (B = {batch_size})\n\nat the global threshold {:.4}:\n\n{}",
        global,
        t.to_markdown()
    )
}

/// §V-B — The Majestic Garden vs Dream Market linking with verdicts.
pub fn results_dark(ctx: &Ctx) -> String {
    link_and_judge(
        ctx,
        "§V-B — TMG vs DM (pseudo-anonymity)",
        &ctx.world.tmg.originals,
        &ctx.world.dm.originals,
    )
}

/// §V-C — Reddit vs the Dark Web with verdicts.
pub fn results_open(ctx: &Ctx) -> String {
    let (darkweb, _) = ctx.world.darkweb();
    link_and_judge(
        ctx,
        "§V-C — Reddit vs Dark Web (de-anonymization)",
        &ctx.world.reddit.originals,
        &darkweb,
    )
}

/// §V-D — the "John Doe" dossier: profile the best True pair found by the
/// open-web experiment.
pub fn john_doe(ctx: &Ctx) -> String {
    let (darkweb, _) = ctx.world.darkweb();
    let known = &ctx.world.reddit.originals;
    let engine = ctx.engine();
    let results = engine.run(known, &darkweb);
    let global = ctx.global_threshold();
    let mut best: Option<(f64, usize, usize)> = None;
    for m in &results {
        if let Some(b) = m.best() {
            if b.score >= global {
                let dark = &darkweb.records[m.unknown];
                let open = &known.records[b.index];
                if judge_pair(&dark.alias, &dark.facts, &open.alias, &open.facts) == Verdict::True
                    && best.is_none_or(|(s, _, _)| b.score > s)
                {
                    best = Some((b.score, m.unknown, b.index));
                }
            }
        }
    }
    match best {
        Some((score, dark_idx, open_idx)) => {
            let dark = &darkweb.records[dark_idx];
            let open = &known.records[open_idx];
            let mut du = darklight_corpus::model::User::new(dark.alias.clone(), dark.persona);
            du.facts = dark.facts.clone();
            let mut ou = darklight_corpus::model::User::new(open.alias.clone(), open.persona);
            ou.facts = open.facts.clone();
            let profile = build_profile([&du, &ou]);
            format!(
                "## §V-D — John Doe\n\nBest confirmed pair (score {:.4}): dark alias `{}` ↔ open alias `{}`\n\n```\n{}```\n",
                score,
                dark.alias,
                open.alias,
                profile.render()
            )
        }
        None => "## §V-D — John Doe\n\nNo confirmed pair above threshold.\n".to_string(),
    }
}

/// Runner-up margin required for cross-forum emission. The score-only
/// threshold calibrated on Reddit alter-egos over-emits on the dark
/// forums, whose drug-only single-domain texts push *everyone's* base
/// similarity up (the paper observes the same compression: "all the
/// messages belong to the same domain"); requiring the winner to stand
/// clear of the runner-up (see `darklight_core::confidence`) restores
/// precision without touching the threshold.
const MARGIN: f64 = 0.006;

fn link_and_judge(ctx: &Ctx, title: &str, known: &Dataset, unknown: &Dataset) -> String {
    use darklight_core::confidence::MatchConfidence;
    let global = ctx.global_threshold();
    let engine = ctx.engine();
    let results = engine.run(known, unknown);
    let mut counts = VerdictCounts::default();
    let mut score_only_emitted = 0usize;
    let mut score_only_correct = 0usize;
    let mut ground_truth_correct = 0usize;
    let mut rows = Table::new([
        "unknown alias",
        "matched alias",
        "score",
        "margin",
        "verdict",
        "truth",
    ]);
    let mut emitted = 0usize;
    for m in &results {
        let Some(best) = m.best() else { continue };
        let u = &unknown.records[m.unknown];
        let k = &known.records[best.index];
        let truth = u.persona.is_some() && u.persona == k.persona;
        if best.score >= global {
            score_only_emitted += 1;
            if truth {
                score_only_correct += 1;
            }
        }
        let Some(conf) = MatchConfidence::of(m) else {
            continue;
        };
        if !conf.accept(global, MARGIN) {
            continue;
        }
        emitted += 1;
        let verdict = judge_pair(&u.alias, &u.facts, &k.alias, &k.facts);
        counts.add(verdict);
        if truth {
            ground_truth_correct += 1;
        }
        rows.row([
            u.alias.clone(),
            k.alias.clone(),
            num(best.score, 4),
            num(conf.margin, 4),
            verdict.to_string(),
            if truth { "same persona" } else { "different" }.to_string(),
        ]);
    }
    format!(
        "## {title}\n\nscore-only rule (≥ {global:.4}): {score_only_emitted} pairs, \
         {score_only_correct} same persona\n\
         with margin rule (≥ {MARGIN}): {emitted} pairs emitted\n\
         verdicts: True {} / Probably {} / Unclear {} / False {}\n\
         ground truth: {ground_truth_correct} of {emitted} emitted pairs are the same persona\n\n{}",
        counts.true_,
        counts.probably,
        counts.unclear,
        counts.false_,
        rows.to_markdown()
    )
}

/// Renders a PR curve as a downsampled `(recall, precision)` table.
fn curve_series(curve: &PrCurve, max_points: usize) -> String {
    let pts = curve.points();
    let mut t = Table::new(["recall", "precision", "threshold"]);
    if pts.is_empty() {
        return t.to_markdown();
    }
    let step = (pts.len() / max_points.max(1)).max(1);
    for p in pts.iter().step_by(step) {
        t.row([num(p.recall, 3), num(p.precision, 3), num(p.threshold, 4)]);
    }
    let last = pts.last().expect("non-empty");
    t.row([
        num(last.recall, 3),
        num(last.precision, 3),
        num(last.threshold, 4),
    ]);
    t.to_markdown()
}

/// Wraps stage-1 candidate lists as `RankedMatch`es (for accuracy@k).
pub fn wrap_stage1(stage1: Vec<Vec<Ranked>>) -> Vec<RankedMatch> {
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

fn label_ranked(ranked: &[Vec<Ranked>], known: &Dataset, unknown: &Dataset) -> Vec<LabeledScore> {
    let results = wrap_stage1(ranked.to_vec());
    labeled_best_matches(&results, known, unknown)
}

/// Extension — rank histogram of the reduction stage: where does the true
/// author land in the candidate ranking? (Not a paper figure; summarizes
/// the same data as Fig. 4 at full resolution.)
pub fn rank_histogram(ctx: &Ctx) -> String {
    use darklight_eval::ranks::RankHistogram;
    let known = &ctx.world.reddit.originals;
    let (w1, _) = ctx.w_splits();
    let cfg = TwoStageConfig {
        k: 20,
        ..ctx.engine_config.clone()
    };
    let results = wrap_stage1(TwoStage::new(cfg).reduce(known, &w1));
    let h = RankHistogram::from_results(&results, known, &w1);
    let mut t = Table::new(["true author's rank", "unknowns", "cumulative"]);
    for r in 1..=10 {
        t.row([
            r.to_string(),
            h.at_rank(r).to_string(),
            pct(h.within(r) as f64 / h.eligible.max(1) as f64),
        ]);
    }
    t.row([
        "11-20".to_string(),
        (h.within(20) - h.within(10)).to_string(),
        pct(h.within(20) as f64 / h.eligible.max(1) as f64),
    ]);
    t.row([
        "not in top 20".to_string(),
        h.missed.to_string(),
        String::new(),
    ]);
    format!(
        "## Extension — true-author rank histogram (Reddit, k=20)\n\n\
         eligible unknowns: {} — mean rank {:.2}, MRR {:.3}\n\n{}",
        h.eligible,
        h.mean_rank().unwrap_or(f64::NAN),
        h.mrr(),
        t.to_markdown()
    )
}

/// Extension — explain the strongest confirmed §V-C match: the shared
/// evidence a human reviewer would check (mirrors the paper's manual
/// verification narrative).
pub fn explain_best_match(ctx: &Ctx) -> String {
    use darklight_core::explain::explain_pair;
    let (darkweb, _) = ctx.world.darkweb();
    let known = &ctx.world.reddit.originals;
    let results = ctx.engine().run(known, &darkweb);
    let global = ctx.global_threshold();
    let best = results
        .iter()
        .filter_map(|m| m.best().map(|b| (m, b)))
        .filter(|(_, b)| b.score >= global)
        .max_by(|a, b| darklight_order::cmp_f64_desc(b.1.score, a.1.score));
    match best {
        Some((m, b)) => {
            let dark = &darkweb.records[m.unknown];
            let open = &known.records[b.index];
            let ex = explain_pair(dark, open);
            format!(
                "## Extension — match explanation\n\n`{}` (dark) ↔ `{}` (reddit), score {:.4}\n\n```\n{}```\n",
                dark.alias,
                open.alias,
                b.score,
                ex.render()
            )
        }
        None => "## Extension — match explanation\n\nno pair above threshold.\n".to_string(),
    }
}

/// Renders Figs. 1–5 as standalone SVG images into `dir`, returning a
/// summary, or an error naming the path that could not be written.
/// Series are recomputed from the same pipelines as the table
/// experiments.
pub fn render_figures(ctx: &Ctx, dir: &std::path::Path) -> Result<String, String> {
    use darklight_eval::plot::{pr_series, LineChart, Series};
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create figure directory {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    let mut save = |name: &str, chart: LineChart| {
        let path = dir.join(name);
        std::fs::write(&path, chart.to_svg())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written.push(name.to_string());
        Ok::<(), String>(())
    };

    // Fig. 1 — CDF of words per user on the dark forums.
    {
        let mut chart = LineChart::new(
            "Fig. 1 — CDF of words per user",
            "words per user",
            "fraction of users",
        );
        for (label, raw) in [
            ("TMG", &ctx.world.scenario.tmg),
            ("DM", &ctx.world.scenario.dm),
        ] {
            let polished = darklight_corpus::polish::Polisher::default().polish(raw).0;
            let cdf = words_per_user_cdf(&polished);
            chart = chart.with_series(Series::new(
                label,
                cdf.iter().map(|p| (p.value as f64, p.fraction)).collect(),
            ));
        }
        save("fig1.svg", chart)?;
    }

    // Fig. 2 — PR curves for W1/W2.
    {
        let (w1, w2) = ctx.w_splits();
        let reddit = &ctx.world.reddit.originals;
        let chart = LineChart::new("Fig. 2 — PR curves, W1 and W2", "recall", "precision")
            .unit_axes()
            .with_series(pr_series("W1", &ctx.curve_for(reddit, &w1)))
            .with_series(pr_series("W2", &ctx.curve_for(reddit, &w2)));
        save("fig2.svg", chart)?;
    }

    // Fig. 3 — baselines (Standard vs Koppel vs ours) on a 300-alias probe.
    {
        let known = &ctx.world.reddit.originals;
        let (w1, _) = ctx.w_splits();
        let probe = Dataset::new("fig3svg", w1.records[..w1.len().min(300)].to_vec());
        let std_curve = PrCurve::from_labeled(&{
            let ranked = StandardBaseline::default().run(known, &probe);
            let results = wrap_stage1(ranked);
            labeled_best_matches(&results, known, &probe)
        });
        let kop_curve = PrCurve::from_labeled(&{
            let ranked = KoppelBaseline {
                iterations: 25,
                ..KoppelBaseline::default()
            }
            .run(known, &probe);
            let results = wrap_stage1(ranked);
            labeled_best_matches(&results, known, &probe)
        });
        let our_curve = ctx.curve_for(known, &probe);
        let chart = LineChart::new("Fig. 3 — baseline comparison", "recall", "precision")
            .unit_axes()
            .with_series(pr_series("Standard", &std_curve))
            .with_series(pr_series("Koppel (25 iter)", &kop_curve))
            .with_series(pr_series("Ours", &our_curve));
        save("fig3.svg", chart)?;
    }

    // Fig. 4 — accuracy vs k, text vs all, Reddit + DarkWeb panels.
    {
        let (w1, _) = ctx.w_splits();
        let (darkweb, ae_darkweb) = ctx.world.darkweb();
        for (panel, file, known, unknown) in [
            (
                "Reddit",
                "fig4_reddit.svg",
                &ctx.world.reddit.originals,
                &w1,
            ),
            ("DarkWeb", "fig4_darkweb.svg", &darkweb, &ae_darkweb),
        ] {
            let text = wrap_stage1(
                TwoStage::new(ctx.engine_config.clone().without_activity()).reduce(known, unknown),
            );
            let all = wrap_stage1(ctx.engine().reduce(known, unknown));
            let series = |label: &str, results: &[RankedMatch]| {
                Series::new(
                    label,
                    (1..=10)
                        .map(|k| {
                            (
                                k as f64,
                                reduction_accuracy_at_k(results, known, unknown, k),
                            )
                        })
                        .collect(),
                )
            };
            let chart = LineChart::new(
                format!("Fig. 4 — activity impact ({panel})"),
                "k",
                "accuracy@k",
            )
            .with_series(series("text only", &text))
            .with_series(series("text + activity", &all));
            save(file, chart)?;
        }
    }

    // Fig. 5 — with vs without reduction (all-pairs emission), per forum.
    {
        let (w1, _) = ctx.w_splits();
        let cases: Vec<(&str, &str, &Dataset, Dataset)> = vec![
            ("Reddit", "fig5_reddit.svg", &ctx.world.reddit.originals, w1),
            (
                "TMG",
                "fig5_tmg.svg",
                &ctx.world.tmg.originals,
                ctx.world.tmg.alter_egos.clone(),
            ),
            (
                "DM",
                "fig5_dm.svg",
                &ctx.world.dm.originals,
                ctx.world.dm.alter_egos.clone(),
            ),
        ];
        let engine = ctx.engine();
        for (panel, file, known, unknown) in cases {
            let with = PrCurve::from_labeled(&darklight_eval::metrics::labeled_all_pairs(
                &engine.run(known, &unknown),
                known,
                &unknown,
            ));
            let without = PrCurve::from_labeled(&darklight_eval::metrics::labeled_all_pairs(
                &engine.run_without_reduction_depth(known, &unknown, known.len()),
                known,
                &unknown,
            ));
            let chart = LineChart::new(
                format!("Fig. 5 — reduction impact ({panel})"),
                "recall",
                "precision",
            )
            .unit_axes()
            .with_series(pr_series("with reduction", &with))
            .with_series(pr_series("without reduction", &without));
            save(file, chart)?;
        }
    }

    let mut out = String::from("## Figures rendered\n\n");
    for f in &written {
        let _ = writeln!(out, "* `{f}`");
    }
    Ok(out)
}

/// Extension — how AUC scales with the candidate-pool size. The paper's
/// absolute baseline numbers (Standard 0.10 at 11,679 candidates) and ours
/// (0.78 at 1,200) differ because ranking difficulty grows with the pool;
/// this sweep regenerates worlds of increasing size and shows the trend
/// that connects the two operating points.
pub fn scale_trend(probe_unknowns: usize) -> String {
    let mut t = Table::new(["known aliases", "Standard AUC", "Ours AUC", "Ours acc@1"]);
    for reddit_users in [300usize, 600, 1_200, 2_400] {
        let config = darklight_synth::scenario::ScenarioConfig {
            reddit_users,
            tmg_users: 10,
            dm_users: 8,
            cross_tmg_dm: 2,
            cross_reddit_tmg: 2,
            cross_reddit_dm: 2,
            thin_frac: 0.2,
            ..darklight_synth::scenario::ScenarioConfig::small()
        };
        let world = crate::prepare_world(&config);
        let known = &world.reddit.originals;
        let n = world.reddit.alter_egos.len().min(probe_unknowns);
        let unknown = Dataset::new("probe", world.reddit.alter_egos.records[..n].to_vec());
        let engine = TwoStage::new(TwoStageConfig::default());
        let ours_results = engine.run(known, &unknown);
        let ours_auc =
            PrCurve::from_labeled(&labeled_best_matches(&ours_results, known, &unknown)).auc();
        let ours_acc = {
            let labeled = labeled_best_matches(&ours_results, known, &unknown);
            let correct = labeled.iter().filter(|l| l.correct).count();
            correct as f64 / labeled.len().max(1) as f64
        };
        let std_results = wrap_stage1(StandardBaseline::default().run(known, &unknown));
        let std_auc =
            PrCurve::from_labeled(&labeled_best_matches(&std_results, known, &unknown)).auc();
        t.row([
            known.len().to_string(),
            num(std_auc, 3),
            num(ours_auc, 3),
            pct(ours_acc),
        ]);
    }
    format!(
        "## Extension — AUC vs candidate-pool size\n\n\
         (fresh world per row, {probe_unknowns} probe unknowns)\n\n{}",
        t.to_markdown()
    )
}
