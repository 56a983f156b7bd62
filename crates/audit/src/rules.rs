//! The rule catalog.
//!
//! Each rule is a [`Rule`] impl with a stable id, a path-based
//! applicability gate, and a lexical check over a [`Scrubbed`] file.
//! Rules report *raw* findings (byte offset + message); the driver
//! resolves line/column, drops findings in test code for rules that only
//! police production paths, and applies `audit:allow` suppressions.

use crate::lexer::Scrubbed;
use crate::metric_registry::is_registered;

/// A rule violation before suppression/test-code filtering.
#[derive(Debug)]
pub struct RawFinding {
    /// Byte offset of the offending token.
    pub offset: usize,
    /// Human explanation, including how to fix or annotate.
    pub message: String,
}

/// Everything a rule can see about one file.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// Scrubbed view of the source.
    pub scrubbed: &'a Scrubbed,
    /// Whether the whole file is test code (`tests/`, `benches/`).
    pub file_is_test: bool,
}

/// One static-analysis rule.
pub trait Rule {
    /// Stable kebab-case id, used in output and `audit:allow(...)`.
    fn id(&self) -> &'static str;
    /// One-line description for `darklight-audit rules`.
    fn description(&self) -> &'static str;
    /// Whether findings inside `#[cfg(test)]` spans (and test files) are
    /// ignored. Defaults to true: tests may unwrap, spawn, and clock.
    fn skip_test_code(&self) -> bool {
        true
    }
    /// Path-level gate: whether the rule runs on this file at all.
    fn applies(&self, ctx: &FileCtx) -> bool;
    /// Scans the file, pushing raw findings.
    fn check(&self, ctx: &FileCtx, out: &mut Vec<RawFinding>);
}

/// The full catalog, in reporting order.
pub fn catalog() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoNakedUnwrap),
        Box::new(NanSafeOrdering),
        Box::new(NoAmbientTimeOrRand),
        Box::new(DeterministicIteration),
        Box::new(SpawnThroughPar),
        Box::new(MetricNameRegistry),
    ]
}

fn push_matches(
    ctx: &FileCtx,
    out: &mut Vec<RawFinding>,
    patterns: &[&str],
    message: impl Fn(&str) -> String,
) {
    let mut matches: Vec<(usize, usize, &str)> = Vec::new();
    for pat in patterns {
        for offset in ctx.scrubbed.find_all(pat) {
            matches.push((offset, offset + pat.len(), pat));
        }
    }
    matches.sort_by_key(|&(start, end, _)| (start, std::cmp::Reverse(end)));
    // Overlapping patterns (`std::thread` inside `std::thread::spawn`)
    // must not double-report one site; keep the earliest/longest match.
    let mut covered_to = 0usize;
    for (start, end, pat) in matches {
        if start < covered_to {
            continue;
        }
        covered_to = end;
        out.push(RawFinding {
            offset: start,
            message: message(pat),
        });
    }
}

/// `no-naked-unwrap`: `.unwrap()` / `.expect(...)` are forbidden in the
/// attribution hot paths (`crates/core`, `crates/features`). A panic
/// there kills a worker mid-batch; PR 3's failure model only isolates
/// panics at designated boundaries.
struct NoNakedUnwrap;

impl Rule for NoNakedUnwrap {
    fn id(&self) -> &'static str {
        "no-naked-unwrap"
    }
    fn description(&self) -> &'static str {
        "unwrap()/expect() forbidden in crates/core and crates/features production code"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        ctx.rel_path.starts_with("crates/core/src/")
            || ctx.rel_path.starts_with("crates/features/src/")
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<RawFinding>) {
        push_matches(ctx, out, &[".unwrap()", ".expect("], |pat| {
            format!(
                "naked `{}` in a hot path: return a typed error, restructure to make the \
                 failure impossible, or annotate with `// audit:allow(no-naked-unwrap) -- \
                 <why the invariant holds>`",
                pat.trim_end_matches('(')
            )
        });
    }
}

/// `nan-safe-ordering`: every float comparison must go through the
/// total orders in `darklight-order`; a stray `partial_cmp` panics (or
/// silently misorders) the first time a NaN score appears.
struct NanSafeOrdering;

impl Rule for NanSafeOrdering {
    fn id(&self) -> &'static str {
        "nan-safe-ordering"
    }
    fn description(&self) -> &'static str {
        "partial_cmp outside the blessed darklight-order helpers"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        !ctx.rel_path.starts_with("crates/order/src/")
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<RawFinding>) {
        push_matches(ctx, out, &["partial_cmp"], |_| {
            "`partial_cmp` is not NaN-safe: use `darklight_order::cmp_f64_desc` / \
             `cmp_f64_asc` / `cmp_desc_indexed` (the only blessed total orders)"
                .to_string()
        });
    }
}

/// `no-ambient-time-or-rand`: reading the clock or an ambient RNG
/// anywhere but the observability timers and the bench harness breaks
/// reproducibility — byte-identical reruns are the whole point.
struct NoAmbientTimeOrRand;

impl Rule for NoAmbientTimeOrRand {
    fn id(&self) -> &'static str {
        "no-ambient-time-or-rand"
    }
    fn description(&self) -> &'static str {
        "SystemTime::now/Instant::now/elapsed()/ambient RNG outside crates/obs and crates/bench"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        !ctx.rel_path.starts_with("crates/obs/src/") && !ctx.rel_path.starts_with("crates/bench/")
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<RawFinding>) {
        push_matches(
            ctx,
            out,
            &[
                "SystemTime::now",
                "Instant::now",
                ".elapsed(",
                "thread_rng",
                "rand::random",
            ],
            |pat| {
                format!(
                    "ambient `{pat}` makes runs irreproducible: thread time through \
                     `darklight-obs` timers, seed RNGs explicitly, or annotate with \
                     `// audit:allow(no-ambient-time-or-rand) -- <why output cannot depend on it>`"
                )
            },
        );
    }
}

/// `deterministic-iteration`: `HashMap`/`HashSet` iteration order is
/// unspecified; in snapshot serialization or fingerprint code it leaks
/// straight into persisted bytes. Designated files and any function with
/// `fingerprint` in its name must use `BTreeMap`/`BTreeSet` or sort.
struct DeterministicIteration;

/// Files whose entire contents feed persisted, order-sensitive bytes:
/// the batch checkpoint codec and run fingerprint, the fingerprint
/// hasher, and the metrics snapshot writer. Paths are workspace-relative;
/// the self-check test asserts each one exists.
pub const FINGERPRINT_FILES: &[&str] = &[
    "crates/core/src/batch.rs",
    "crates/store/src/fnv.rs",
    "crates/obs/src/json.rs",
    "crates/obs/src/registry.rs",
];

impl Rule for DeterministicIteration {
    fn id(&self) -> &'static str {
        "deterministic-iteration"
    }
    fn description(&self) -> &'static str {
        "HashMap/HashSet in snapshot or fingerprint code (use BTreeMap or sort)"
    }
    fn applies(&self, _ctx: &FileCtx) -> bool {
        true
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<RawFinding>) {
        let whole_file = FINGERPRINT_FILES.contains(&ctx.rel_path);
        let spans = if whole_file {
            vec![(0, ctx.scrubbed.text.len())]
        } else {
            fingerprint_fn_spans(ctx.scrubbed)
        };
        if spans.is_empty() {
            return;
        }
        for pat in ["HashMap", "HashSet"] {
            for offset in ctx.scrubbed.find_all(pat) {
                if spans.iter().any(|&(s, e)| offset >= s && offset < e) {
                    out.push(RawFinding {
                        offset,
                        message: format!(
                            "`{pat}` in snapshot/fingerprint code: iteration order is \
                             nondeterministic and leaks into persisted bytes — use \
                             BTreeMap/BTreeSet or sort before iterating"
                        ),
                    });
                }
            }
        }
    }
}

/// Byte spans of functions whose name contains `fingerprint`.
fn fingerprint_fn_spans(scrubbed: &Scrubbed) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let bytes = scrubbed.text.as_bytes();
    for start in scrubbed.find_all("fn ") {
        // Token boundary: `fn` must not be the tail of an identifier.
        if start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            continue;
        }
        let name_start = start + 3;
        let name_end = scrubbed.text[name_start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(bytes.len(), |n| name_start + n);
        if !scrubbed.text[name_start..name_end].contains("fingerprint") {
            continue;
        }
        // Span: from `fn` through the body's matching close brace.
        let mut depth = 0usize;
        let mut opened = false;
        let mut i = name_end;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    depth += 1;
                    opened = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        break;
                    }
                }
                b';' if !opened => break,
                _ => {}
            }
            i += 1;
        }
        spans.push((start, i.min(bytes.len())));
    }
    spans
}

/// `spawn-through-par`: all parallelism flows through `darklight-par`
/// (panic isolation, thread-count invariance, the one `--threads` knob).
/// Raw `std::thread` anywhere else forks the concurrency model.
struct SpawnThroughPar;

impl Rule for SpawnThroughPar {
    fn id(&self) -> &'static str {
        "spawn-through-par"
    }
    fn description(&self) -> &'static str {
        "std::thread use outside darklight-par"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        !ctx.rel_path.starts_with("crates/par/src/")
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<RawFinding>) {
        push_matches(
            ctx,
            out,
            &["std::thread", "thread::spawn", "thread::scope"],
            |_| {
                "raw thread use outside darklight-par: route the work through \
                 `darklight_par::par_map`/`try_par_map` so panic isolation and \
                 thread-count invariance hold"
                    .to_string()
            },
        );
    }
}

/// `metric-name-registry`: every metric name recorded through the obs
/// handle must be a string literal found in
/// [`crate::metric_registry::METRIC_REGISTRY`]. Catches typos that would
/// silently fork a time series and drift from the golden schema test.
struct MetricNameRegistry;

impl Rule for MetricNameRegistry {
    fn id(&self) -> &'static str {
        "metric-name-registry"
    }
    fn description(&self) -> &'static str {
        "metric names must be literals listed in the central registry"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        !ctx.rel_path.starts_with("crates/obs/src/") && !ctx.rel_path.starts_with("crates/audit/")
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<RawFinding>) {
        let bytes = ctx.scrubbed.text.as_bytes();
        for method in [".counter(", ".gauge(", ".timer(", ".histogram("] {
            for offset in ctx.scrubbed.find_all(method) {
                let mut p = offset + method.len();
                while p < bytes.len() && (bytes[p] as char).is_ascii_whitespace() {
                    p += 1;
                }
                match ctx.scrubbed.string_at(p) {
                    Some(lit) if is_registered(&lit.content) => {}
                    Some(lit) => out.push(RawFinding {
                        offset,
                        message: format!(
                            "metric name {:?} is not in the central registry \
                             (crates/audit/src/metric_registry.rs) — register it there \
                             and extend the golden schema in tests/metrics_parity.rs, \
                             or fix the typo",
                            lit.content
                        ),
                    }),
                    None => out.push(RawFinding {
                        offset,
                        message: "dynamically built metric name cannot be checked against \
                                  the registry: register every possible expansion and \
                                  annotate with `// audit:allow(metric-name-registry) -- \
                                  <how the name set is bounded>`"
                            .to_string(),
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(rel_path: &str, source: &str, rule_id: &str) -> Vec<RawFinding> {
        let scrubbed = Scrubbed::new(source);
        let ctx = FileCtx {
            rel_path,
            scrubbed: &scrubbed,
            file_is_test: false,
        };
        let mut out = Vec::new();
        for rule in catalog() {
            if rule.id() == rule_id && rule.applies(&ctx) {
                rule.check(&ctx, &mut out);
            }
        }
        out
    }

    #[test]
    fn unwrap_rule_scopes_to_core_and_features() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); z.unwrap_or(0); }";
        assert_eq!(
            findings_for("crates/core/src/a.rs", src, "no-naked-unwrap").len(),
            2,
            "unwrap_or must not count"
        );
        assert!(findings_for("crates/eval/src/a.rs", src, "no-naked-unwrap").is_empty());
    }

    #[test]
    fn ordering_rule_blesses_only_the_order_crate() {
        let src = "fn f() { a.partial_cmp(&b); }";
        assert_eq!(
            findings_for("crates/eval/src/a.rs", src, "nan-safe-ordering").len(),
            1
        );
        assert!(findings_for("crates/order/src/lib.rs", src, "nan-safe-ordering").is_empty());
    }

    #[test]
    fn iteration_rule_fires_in_fingerprint_fns_and_designated_files() {
        let in_fn = "fn run_fingerprint() { let m: HashMap<u32, u32> = HashMap::new(); }\n\
                     fn other() { let s: HashSet<u32> = HashSet::new(); }";
        let hits = findings_for(
            "crates/core/src/artifact.rs",
            in_fn,
            "deterministic-iteration",
        );
        assert_eq!(hits.len(), 2, "both HashMap uses inside the fingerprint fn");
        // `batch.rs` holds the checkpoint codec: the whole file is
        // designated, so the HashSet outside the fingerprint fn fires too.
        let hits = findings_for("crates/core/src/batch.rs", in_fn, "deterministic-iteration");
        assert_eq!(hits.len(), 4);
        let anywhere = "fn any() { let m: HashMap<u32, u32> = Default::default(); let _ = m; }";
        assert_eq!(
            findings_for(
                "crates/obs/src/json.rs",
                anywhere,
                "deterministic-iteration"
            )
            .len(),
            1
        );
        assert!(
            findings_for("crates/text/src/x.rs", anywhere, "deterministic-iteration").is_empty()
        );
    }

    #[test]
    fn metric_rule_checks_literals_and_flags_dynamics() {
        let good = "fn f(m: &M) { m.counter(\"linker.link\").incr(); }";
        assert!(findings_for("crates/core/src/a.rs", good, "metric-name-registry").is_empty());
        let typo = "fn f(m: &M) { m.counter(\"linker.lnik\").incr(); }";
        assert_eq!(
            findings_for("crates/core/src/a.rs", typo, "metric-name-registry").len(),
            1
        );
        let dynamic = "fn f(m: &M) { m.counter(&name).incr(); }";
        assert_eq!(
            findings_for("crates/core/src/a.rs", dynamic, "metric-name-registry").len(),
            1
        );
    }

    #[test]
    fn spawn_rule_dedupes_overlapping_patterns() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            findings_for("crates/core/src/a.rs", src, "spawn-through-par").len(),
            1
        );
    }
}
