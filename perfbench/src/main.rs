//! Seed-driven end-to-end benchmark of darklight.
//!
//! ```text
//! darklight-perfbench gen --seed N --out DIR
//! darklight-perfbench run --workload batch|serve --inputs DIR
//!                         --seconds S --trace 0|1 --scratch DIR [--spans FILE]
//! ```
//!
//! `gen` writes a seeded world as TSV; `run` reads only those files,
//! measures one workload and prints its metrics, then as its last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/run.py` drives both and is the benchmark's entry point;
//! `perfbench/README.md` describes the workloads and metrics.

mod calib;
mod harness;
mod layers;
mod stats;
mod sys;
mod trace;
mod workloads;
mod world;

use calib::Reference;
use darklight_obs::{Json, PipelineMetrics};
use harness::{
    guarded, run_phase, timed, Checks, Cx, EndToEnd, Firsts, Length, Mode, Sample, Workload,
};
use layers::{per_layer, TraceFacts};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Batch, LayerFacts, Serve};
use world::Inputs;

/// Fault-injection switches the library reads; a benchmark run with
/// either set would measure injected failures.
const FAULT_ENV: [&str; 2] = ["DARKLIGHT_FAULT_PANICS", "DARKLIGHT_FAULT_IO"];

const USAGE: &str = "usage: darklight-perfbench gen --seed N --out DIR
       darklight-perfbench run --workload batch|serve --inputs DIR \
--seconds S --trace 0|1 --scratch DIR [--spans FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(var) = FAULT_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("{var} is set; unset fault injection before benchmarking\n{USAGE}");
        return ExitCode::from(2);
    }
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut flags = HashMap::new();
    for pair in rest.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => {
                eprintln!("bad arguments {pair:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let result = match cmd.as_str() {
        "gen" => gen(&flags),
        "run" => run(&flags),
        _ => Err(Usage(format!("unknown command {cmd}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Usage(e)) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failed(e)) => {
            eprintln!("darklight-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

enum Error {
    Usage(String),
    Failed(String),
}
use Error::{Failed, Usage};

fn flag<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, Error> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| Usage(format!("missing --{name}")))
}

fn parsed<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, Error> {
    let v = flag(flags, name)?;
    v.parse()
        .map_err(|_| Usage(format!("--{name}: cannot parse {v:?}")))
}

fn gen(flags: &HashMap<String, String>) -> Result<(), Error> {
    let seed = parsed(flags, "seed")?;
    world::generate(seed, Path::new(flag(flags, "out")?)).map_err(Failed)
}

fn run(flags: &HashMap<String, String>) -> Result<(), Error> {
    let workload = flag(flags, "workload")?;
    let seconds: f64 = parsed(flags, "seconds")?;
    let trace = match flag(flags, "trace")? {
        "0" => false,
        "1" => true,
        other => return Err(Usage(format!("--trace must be 0 or 1, not {other}"))),
    };
    let inputs = Inputs::load(Path::new(flag(flags, "inputs")?)).map_err(Failed)?;
    let cx = Cx {
        tracer: Tracer::new(trace),
        quiet: Tracer::new(false),
        metrics: if trace {
            PipelineMetrics::enabled()
        } else {
            PipelineMetrics::disabled()
        },
        scratch: PathBuf::from(flag(flags, "scratch")?),
    };
    let spans = flags.get("spans").map(PathBuf::from);
    let report = match workload {
        "batch" => measure(&Batch::new(&inputs), &cx, seconds, spans),
        "serve" => measure(&Serve::new(&inputs).map_err(Failed)?, &cx, seconds, spans),
        other => return Err(Usage(format!("unknown workload {other}"))),
    }?;
    println!("perfbench: workload={workload} seed={}", inputs.seed);
    for line in &report.info {
        println!("perfbench: {line}");
    }
    for problem in &report.checks.problems {
        println!("perfbench: FAILED {problem}");
    }
    let mut metrics = Json::object();
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
        let mut m = Json::object();
        m.set("value", Json::Float(*value));
        m.set("unit", Json::Str(unit.to_string()));
        metrics.set(name, m);
    }
    let mut out = Json::object();
    out.set("correct", Json::Bool(report.checks.failed == 0));
    out.set("attempted", Json::UInt(report.checks.attempted));
    out.set("failed", Json::UInt(report.checks.failed));
    out.set("metrics", metrics);
    println!("{}", out.render());
    Ok(())
}

struct Report {
    checks: Checks,
    info: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("unavailable".to_string(), |v| format!("{v:.3}"))
}

/// Builds the workload's state; a failed set-up ends the run.
fn setup<W: Workload>(
    w: &W,
    cx: &Cx,
    rep: u64,
    checks: &mut Checks,
) -> Result<(W::State, f64), Error> {
    let (state, secs) = timed(|| guarded(|| w.setup(cx, rep)));
    checks.record(state.as_ref().map(|_| ()).map_err(Clone::clone));
    state
        .map(|s| (s, secs))
        .map_err(|e| Failed(format!("set-up failed: {e}")))
}

fn first_outputs<O>(firsts: &Firsts<O>) -> Vec<&O> {
    firsts.iter().flatten().map(|(_, o)| o).collect()
}

fn measure<W: LayerFacts>(
    w: &W,
    cx: &Cx,
    seconds: f64,
    spans_out: Option<PathBuf>,
) -> Result<Report, Error> {
    let info = format!("nproc={} threads=1 run_seconds={seconds}", sys::nproc());
    if cx.tracer.is_on() {
        measure_traced(w, cx, seconds, spans_out, info)
    } else {
        measure_untraced(w, cx, seconds, info)
    }
}

/// End-to-end metrics: three set-ups, each followed by a third of the
/// timed phase that runs every distinct input at least once, so each
/// input's repetitions are spread over the whole run (the host's speed
/// swings over seconds) and its fastest one is kept. Every set-up and
/// unit is bracketed by the reference kernel and scaled to its nominal
/// speed.
fn measure_untraced<W: Workload>(
    w: &W,
    cx: &Cx,
    seconds: f64,
    info: String,
) -> Result<Report, Error> {
    let mut checks = Checks::default();
    let mut info = vec![info];
    let mut firsts: Firsts<W::Output> = Vec::new();
    let segments = harness::SETUPS;
    let reference = Reference::new();
    let (mut setups, mut raw_setups, mut kernel_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = Vec::new();
    let (mut units, mut wall_s, mut steal_s, mut peak) = (0, 0.0, Some(0.0), None);
    let mut state = None;
    for rep in 0..segments {
        drop(state.take());
        let before = reference.time();
        let (s, secs) = setup(w, cx, rep as u64, &mut checks)?;
        let after = reference.time();
        setups.push(calib::scale(secs, before, after));
        raw_setups.push(secs);
        kernel_s.extend([before, after]);
        let rss_reset = sys::reset_peak_rss();
        let length = Length::Seconds(seconds / segments as f64);
        let mode = Mode::Calibrated(&reference);
        let phase = run_phase(w, &s, cx, mode, units, length, &mut firsts, &mut checks);
        if rss_reset {
            peak = sys::peak_rss_mib().map(|p| peak.map_or(p, |q: f64| q.max(p)));
        }
        units += phase.units;
        wall_s += phase.wall_s;
        steal_s = steal_s.zip(phase.steal_s).map(|(a, b)| a + b);
        samples.extend(phase.samples);
        kernel_s.extend(phase.kernel_s);
        state = Some(s);
    }
    let state = state.expect("at least one set-up ran");
    let pr_auc = guarded(|| w.finish(&state, &first_outputs(&firsts), cx, &mut checks));
    let pr_auc = pr_auc.map_err(|e| Failed(format!("output check failed: {e}")))?;
    if samples.is_empty() {
        return Err(Failed(format!("no unit succeeded: {:?}", checks.problems)));
    }
    let (best, fewest, most) = harness::best_per_input(&samples);
    let e2e = EndToEnd::compute(&best, &setups, peak, &checks);
    let raw: Vec<Sample> = samples.iter().map(Sample::raw).collect();
    let raw = EndToEnd::compute(&harness::best_per_input(&raw).0, &raw_setups, peak, &checks);
    info.push(format!(
        "units={units} distinct={} timed_s={wall_s:.3} steal_s={} raw_setups_s={raw_setups:?}",
        w.distinct(&state),
        fmt_opt(steal_s),
    ));
    info.push(format!(
        "reference kernel: {} runs, median {:.3} ms, quartiles {:.3}-{:.3} ms (nominal {} ms); \
         unscaled query_p50_ms={:.3} query_p90_ms={:.3} setup_s={:.3}",
        kernel_s.len(),
        stats::median(&kernel_s) * 1e3,
        stats::quantile(&kernel_s, 0.25) * 1e3,
        stats::quantile(&kernel_s, 0.75) * 1e3,
        calib::NOMINAL_S * 1e3,
        raw.query_p50_ms,
        raw.query_p90_ms,
        raw.setup_s,
    ));
    info.push(format!(
        "timings over {} distinct inputs, each the fastest of its {fewest}-{most} units \
         ({} samples); peak_rss_mb={}; pr_auc={pr_auc}",
        best.len(),
        samples.len(),
        fmt_opt(peak)
    ));
    info.push(format!(
        "attempted={} failed={} digest={:016x}",
        checks.attempted,
        checks.failed,
        harness::output_digest(&firsts)
    ));
    let mut metrics = vec![
        ("posts_per_s", e2e.posts_per_s, "1/s"),
        ("unknowns_per_s", e2e.unknowns_per_s, "1/s"),
        ("query_p50_ms", e2e.query_p50_ms, "ms"),
        ("query_p90_ms", e2e.query_p90_ms, "ms"),
        ("setup_s", e2e.setup_s, "s"),
        ("success_rate", e2e.success_rate, "ratio"),
    ];
    if let Some(p) = e2e.peak_rss_mb {
        metrics.push(("peak_rss_mb", p, "MiB"));
    }
    Ok(Report {
        checks,
        info,
        metrics,
    })
}

/// Per-layer metrics: one traced set-up, the timed phase untraced, then
/// the same units again with spans and the program's metrics on.
fn measure_traced<W: LayerFacts>(
    w: &W,
    cx: &Cx,
    seconds: f64,
    spans_out: Option<PathBuf>,
    info: String,
) -> Result<Report, Error> {
    let mut checks = Checks::default();
    let mut info = vec![info];
    let mut firsts: Firsts<W::Output> = Vec::new();
    let setup_span = cx.tracer.begin("setup", 0);
    let (state, _) = setup(w, cx, 0, &mut checks)?;
    cx.tracer.end(setup_span);
    let length = Length::Seconds(seconds);
    let plain = run_phase(
        w,
        &state,
        cx,
        Mode::Plain,
        0,
        length,
        &mut firsts,
        &mut checks,
    );
    let untraced_digest = harness::output_digest(&firsts);
    let replay = Length::Units(plain.units);
    let traced = run_phase(
        w,
        &state,
        cx,
        Mode::Traced,
        0,
        replay,
        &mut firsts,
        &mut checks,
    );
    let pr_auc = guarded(|| w.finish(&state, &first_outputs(&firsts), cx, &mut checks));
    let pr_auc = pr_auc.map_err(|e| Failed(format!("output check failed: {e}")))?;

    let spans = cx.tracer.spans();
    let selfs = trace::self_times(&spans);
    let root = traced.root.expect("a traced phase has a root span");
    let self_sum: f64 = (0..spans.len())
        .filter(|&i| trace::within(&spans, i, root))
        .map(|i| selfs[i])
        .sum();
    // The spans' self times must add up to the timed phase's wall time.
    checks.record(
        if (self_sum - traced.wall_s).abs() <= 1e-3 + 1e-3 * traced.wall_s {
            Ok(())
        } else {
            Err(format!(
                "span self times sum to {self_sum:.6} s, timed phase took {:.6} s",
                traced.wall_s
            ))
        },
    );
    let roots: Vec<usize> = setup_span.into_iter().chain([root]).collect();
    let facts = TraceFacts {
        metrics: &cx.metrics,
        spans: &spans,
        roots: &roots,
        dataset: w.dataset_facts(&state),
        artifact_bytes: w.artifact_bytes(&state),
        pr_auc,
        overhead_ratio: traced.wall_s / plain.wall_s,
        residual_s: selfs[root],
    };
    info.push(format!(
        "units={} untraced_s={:.3} traced_s={:.3} steal_s={}+{} span_self_sum_s={self_sum:.6}",
        plain.units,
        plain.wall_s,
        traced.wall_s,
        fmt_opt(plain.steal_s),
        fmt_opt(traced.steal_s)
    ));
    info.push(format!(
        "attempted={} failed={} digest={untraced_digest:016x} \
         (every traced unit checked against the untraced digest of its input)",
        checks.attempted, checks.failed
    ));
    if let Some(path) = spans_out {
        std::fs::write(&path, trace::to_json(&spans).render())
            .map_err(|e| Failed(format!("{}: {e}", path.display())))?;
        info.push(format!("spans written to {}", path.display()));
    }
    Ok(Report {
        checks,
        info,
        metrics: per_layer(&facts),
    })
}
