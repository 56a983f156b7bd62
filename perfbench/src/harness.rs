//! The workload driver shared by `batch` and `serve`: repeated
//! set-up, a timed phase of repeated units, output checks, and the
//! metrics computed from them.

use crate::calib::{self, Reference};
use crate::stats::{median, quantile, Digest};
use crate::sys;
use crate::trace::Tracer;
use darklight_obs::PipelineMetrics;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions of an untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What a workload sees while it runs.
#[derive(Debug)]
pub struct Cx {
    /// Records set-up and traced-phase spans in a traced run.
    pub tracer: Tracer,
    /// Never records: untraced phases of a traced run use it.
    pub quiet: Tracer,
    /// Enabled only in a traced run; set-up and traced units record into it.
    pub metrics: PipelineMetrics,
    /// A directory of this run's own for stores and checkpoints.
    pub scratch: PathBuf,
}

impl Cx {
    /// The tracer for a unit: recording only in the traced phase.
    pub fn spans(&self, traced: bool) -> &Tracer {
        if traced {
            &self.tracer
        } else {
            &self.quiet
        }
    }

    /// The metrics handle for a unit: enabled only in the traced phase.
    pub fn metrics_for(&self, traced: bool) -> PipelineMetrics {
        if traced {
            self.metrics.clone()
        } else {
            PipelineMetrics::disabled()
        }
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.scratch.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Facts about one checked unit output.
#[derive(Debug, Clone, Copy)]
pub struct UnitFacts {
    pub digest: u64,
    /// Raw posts behind the aliases the unit links.
    pub posts: usize,
    /// Unknown aliases the unit links.
    pub aliases: usize,
}

/// One benchmark workload.
pub trait Workload {
    type State;
    type Output;

    /// Builds what the timed units run against; its wall time is one
    /// `setup_s` sample.
    fn setup(&self, cx: &Cx, rep: u64) -> Result<Self::State, String>;

    /// Distinct inputs the timed units cycle through.
    fn distinct(&self, state: &Self::State) -> usize;

    /// Runs unit `i` on distinct input `key` and returns its output with
    /// the wall time of the measured calls alone.
    fn unit(
        &self,
        state: &Self::State,
        key: usize,
        i: usize,
        traced: bool,
        cx: &Cx,
    ) -> Result<(Self::Output, f64), String>;

    /// Checks one output (untimed).
    fn check(
        &self,
        state: &Self::State,
        key: usize,
        out: &Self::Output,
    ) -> Result<UnitFacts, String>;

    /// Workload-level checks after the timed phase, on the first output of
    /// every distinct input; returns the PR AUC of the outputs.
    fn finish(
        &self,
        state: &Self::State,
        firsts: &[&Self::Output],
        cx: &Cx,
        checks: &mut Checks,
    ) -> Result<f64, String>;
}

/// Attempted and failed operations. A failure is an `Err`, a panic, or a
/// failed output check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(e);
            }
        }
    }
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match payload.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_string(),
            },
        }),
    }
}

/// Wall time of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// How long a timed phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// At least this many seconds and at least one unit on every distinct
    /// input.
    Seconds(f64),
    /// Exactly this many units (the traced replay of an untraced phase).
    Units(usize),
}

/// How a timed phase runs its units.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'a> {
    /// Untraced, each unit bracketed by the reference kernel, whose times
    /// scale the unit's (see [`crate::calib`]).
    Calibrated(&'a Reference),
    /// Untraced, unscaled.
    Plain,
    /// Spans and the program's metrics on, unscaled.
    Traced,
}

/// One unit's measurements.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The distinct input the unit ran on.
    pub key: usize,
    /// Wall time scaled to the reference speed in a calibrated phase,
    /// else equal to `raw_secs`.
    pub secs: f64,
    pub raw_secs: f64,
    pub posts: usize,
    pub aliases: usize,
}

impl Sample {
    /// The same measurement, unscaled.
    pub fn raw(&self) -> Sample {
        Sample {
            secs: self.raw_secs,
            ..*self
        }
    }
}

/// A timed phase's result.
#[derive(Debug)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub units: usize,
    pub wall_s: f64,
    pub steal_s: Option<f64>,
    /// Reference kernel times (calibrated phases only).
    pub kernel_s: Vec<f64>,
    /// Span id of the phase root (traced phases only).
    pub root: Option<usize>,
}

/// First output and digest of each distinct input.
pub type Firsts<O> = Vec<Option<(u64, O)>>;

/// Runs a timed phase whose units are numbered from `first`, so phases
/// run one after another keep cycling through the distinct inputs. Each
/// unit's digest must equal the digest of the first output for its
/// input, which `firsts` keeps across phases.
#[allow(clippy::too_many_arguments)]
pub fn run_phase<W: Workload>(
    w: &W,
    state: &W::State,
    cx: &Cx,
    mode: Mode,
    first: usize,
    length: Length,
    firsts: &mut Firsts<W::Output>,
    checks: &mut Checks,
) -> Phase {
    let distinct = w.distinct(state);
    if firsts.len() < distinct {
        firsts.resize_with(distinct, || None);
    }
    let traced = matches!(mode, Mode::Traced);
    let reference = match mode {
        Mode::Calibrated(r) => Some(r),
        Mode::Plain | Mode::Traced => None,
    };
    let steal0 = sys::steal_seconds();
    let root = cx.spans(traced).begin("timed", 0);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut kernel_s = Vec::new();
    let mut before = reference.map(Reference::time);
    kernel_s.extend(before);
    let mut n = 0;
    loop {
        let more = match length {
            Length::Seconds(secs) => n < distinct || start.elapsed().as_secs_f64() < secs,
            Length::Units(units) => n < units,
        };
        if !more {
            break;
        }
        let i = first + n;
        let key = i % distinct;
        let span = cx.spans(traced).begin("unit", i as u64);
        let result = guarded(|| w.unit(state, key, i, traced, cx));
        cx.spans(traced).end(span);
        let after = reference.map(Reference::time);
        kernel_s.extend(after);
        let bracket = before.zip(after);
        let scaled = |raw| bracket.map_or(raw, |(b, a)| calib::scale(raw, b, a));
        before = after;
        let checked = result.and_then(|(out, raw_secs)| {
            let facts = guarded(|| w.check(state, key, &out))?;
            match &firsts[key] {
                Some((digest, _)) if *digest != facts.digest => {
                    return Err(format!(
                        "unit {i}: output digest {:016x} differs from the first \
                         output for input {key} ({digest:016x})",
                        facts.digest
                    ))
                }
                Some(_) => {}
                None => firsts[key] = Some((facts.digest, out)),
            }
            samples.push(Sample {
                key,
                secs: scaled(raw_secs),
                raw_secs,
                posts: facts.posts,
                aliases: facts.aliases,
            });
            Ok(())
        });
        checks.record(checked);
        n += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    cx.spans(traced).end(root);
    let steal_s = steal0.zip(sys::steal_seconds()).map(|(a, b)| b - a);
    Phase {
        samples,
        units: n,
        wall_s,
        steal_s,
        kernel_s,
        root,
    }
}

/// The workload's output digest: the first-output digests of every
/// distinct input, in input order.
pub fn output_digest<O>(firsts: &Firsts<O>) -> u64 {
    let mut d = Digest::new();
    for f in firsts {
        d.u64(f.as_ref().map_or(0, |(digest, _)| *digest));
    }
    d.finish()
}

/// Each distinct input's fastest unit in the run (by `secs`, so scaled in
/// a calibrated run), in input order, and the fewest and most units any
/// input had.
///
/// Host interference (a busy neighbour, a slower CPU state) only ever
/// adds time, comes in phases of seconds, and the reference kernel
/// catches only part of it. An input's repetitions are spread over the
/// whole run, so the fastest of them is its least disturbed measurement.
pub fn best_per_input(samples: &[Sample]) -> (Vec<Sample>, usize, usize) {
    let mut best: BTreeMap<usize, (Sample, usize)> = BTreeMap::new();
    for s in samples {
        let e = best.entry(s.key).or_insert((*s, 0));
        e.1 += 1;
        if s.secs < e.0.secs {
            e.0 = *s;
        }
    }
    let reps = best.values().map(|(_, n)| *n);
    let (fewest, most) = (reps.clone().min().unwrap_or(0), reps.max().unwrap_or(0));
    (best.into_values().map(|(s, _)| s).collect(), fewest, most)
}

/// End-to-end metrics of an untraced run.
#[derive(Debug)]
pub struct EndToEnd {
    pub posts_per_s: f64,
    pub unknowns_per_s: f64,
    pub query_p50_ms: f64,
    pub query_p90_ms: f64,
    pub setup_s: f64,
    pub peak_rss_mb: Option<f64>,
    pub success_rate: f64,
}

impl EndToEnd {
    /// Timings come from `best`, one fastest unit per distinct input (see
    /// [`best_per_input`]): throughputs are their work over their summed
    /// time, latencies are percentiles over the inputs.
    pub fn compute(
        best: &[Sample],
        setups: &[f64],
        peak_rss_mb: Option<f64>,
        checks: &Checks,
    ) -> EndToEnd {
        let secs: Vec<f64> = best.iter().map(|s| s.secs).collect();
        let busy: f64 = secs.iter().sum();
        let rate =
            |count: fn(&Sample) -> usize| best.iter().map(|s| count(s) as f64).sum::<f64>() / busy;
        EndToEnd {
            posts_per_s: rate(|s| s.posts),
            unknowns_per_s: rate(|s| s.aliases),
            query_p50_ms: median(&secs) * 1e3,
            query_p90_ms: quantile(&secs, 0.9) * 1e3,
            setup_s: median(setups),
            peak_rss_mb,
            success_rate: 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(key: usize, secs: f64) -> Sample {
        Sample {
            key,
            secs,
            raw_secs: secs,
            posts: 10 * (key + 1),
            aliases: key + 1,
        }
    }

    #[test]
    fn best_keeps_each_inputs_fastest_unit() {
        let samples = [
            sample(1, 0.5),
            sample(0, 0.3),
            sample(1, 0.2),
            sample(0, 0.4),
            sample(1, 0.9),
        ];
        let (best, fewest, most) = best_per_input(&samples);
        let secs: Vec<(usize, f64)> = best.iter().map(|s| (s.key, s.secs)).collect();
        assert_eq!(secs, vec![(0, 0.3), (1, 0.2)]);
        assert_eq!((fewest, most), (2, 3));
        let e2e = EndToEnd::compute(&best, &[2.0, 1.0, 3.0], None, &Checks::default());
        assert!((e2e.posts_per_s - 30.0 / 0.5).abs() < 1e-9);
        assert!((e2e.unknowns_per_s - 3.0 / 0.5).abs() < 1e-9);
        assert!((e2e.query_p50_ms - 250.0).abs() < 1e-9);
        assert_eq!(e2e.setup_s, 2.0);
        assert_eq!(e2e.success_rate, 1.0);
    }
}
