//! `repro` — regenerates every table and figure of the paper on the
//! synthetic world.
//!
//! ```text
//! repro [experiment...]
//!   experiments: table1 table2 table3 table4 table5 table6
//!                fig1 fig2 fig3 fig4 fig5
//!                darkweb batch results-dark results-open john-doe
//!                all   (default)
//! Environment:
//!   DARKLIGHT_SCALE=small|default|paper   scenario scale
//!   DARKLIGHT_OUT=<dir>                   write per-experiment .md files
//!   DARKLIGHT_THREADS=N                   worker-pool override (0/unset = auto)
//! ```
//!
//! Each experiment's wall-clock goes to stderr. Timed throughput figures
//! come from `darklight bench-matrix`, whose committed `BENCH_*.json`
//! reports state the thread count they ran at.
//!
//! Exit codes: 0 success, 1 an output file cannot be written, 2 an
//! unknown experiment.

use darklight_bench::experiments as exp;
use darklight_bench::{prepare_world, scale_from_env};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "darkweb",
    "batch",
    "results-dark",
    "results-open",
    "john-doe",
    "ablate-k",
    "ablate-activity",
    "ablate-features",
    "ablate-lemma",
    "ablate-batch",
    "defence-obfuscation",
    "ranks",
    "explain",
    "figures",
    "scale-trend",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for w in &wanted {
        if !ALL.contains(w) {
            eprintln!("unknown experiment {w:?}; known: {ALL:?}");
            return ExitCode::from(2);
        }
    }

    let config = scale_from_env();
    eprintln!(
        "generating world (reddit {} / tmg {} / dm {} rich users)...",
        config.reddit_users, config.tmg_users, config.dm_users
    );
    let t0 = Instant::now();
    let world = prepare_world(&config);
    eprintln!(
        "world ready in {:.1}s: reddit {} originals / {} alter-egos; tmg {}/{}; dm {}/{}",
        t0.elapsed().as_secs_f64(),
        world.reddit.originals.len(),
        world.reddit.alter_egos.len(),
        world.tmg.originals.len(),
        world.tmg.alter_egos.len(),
        world.dm.originals.len(),
        world.dm.alter_egos.len(),
    );
    let ctx = exp::Ctx::new(world);
    let out_dir = std::env::var("DARKLIGHT_OUT").ok();
    if let Some(dir) = &out_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create output directory {dir}: {err}");
            return ExitCode::FAILURE;
        }
    }

    for name in wanted {
        let t = Instant::now();
        let body = match name {
            "table1" => exp::table1(&ctx),
            "table2" => exp::table2(&ctx),
            "table3" => exp::table3(&ctx),
            "table4" => exp::table4(&ctx),
            "table5" => exp::table5(&ctx),
            "table6" => exp::table6(&ctx),
            "fig1" => exp::fig1(&ctx),
            "fig2" => exp::fig2(&ctx),
            "fig3" => exp::fig3(&ctx, 300),
            "fig4" => exp::fig4(&ctx),
            "fig5" => exp::fig5(&ctx),
            "darkweb" => exp::darkweb_accuracy(&ctx),
            "batch" => exp::batch_experiment(&ctx, 100),
            "results-dark" => exp::results_dark(&ctx),
            "results-open" => exp::results_open(&ctx),
            "john-doe" => exp::john_doe(&ctx),
            "ablate-k" => darklight_bench::ablations::k_sweep(&ctx),
            "ablate-activity" => darklight_bench::ablations::activity_weight_sweep(&ctx),
            "ablate-features" => darklight_bench::ablations::feature_family_ablation(&ctx),
            "ablate-lemma" => darklight_bench::ablations::lemmatization_ablation(&ctx),
            "ablate-batch" => darklight_bench::ablations::batch_size_sweep(&ctx),
            "defence-obfuscation" => darklight_bench::ablations::obfuscation_defence(&ctx),
            "ranks" => exp::rank_histogram(&ctx),
            "explain" => exp::explain_best_match(&ctx),
            "scale-trend" => exp::scale_trend(200),
            "figures" => {
                let dir = out_dir.as_deref().unwrap_or("results");
                match exp::render_figures(&ctx, Path::new(dir)) {
                    Ok(summary) => summary,
                    Err(err) => {
                        eprintln!("error: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => unreachable!("validated above"),
        };
        println!("{body}");
        eprintln!("[{name} done in {:.1}s]", t.elapsed().as_secs_f64());
        if let Some(dir) = &out_dir {
            let path = Path::new(dir).join(format!("{name}.md"));
            if let Err(err) = std::fs::write(&path, body) {
                eprintln!("error: cannot write {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
