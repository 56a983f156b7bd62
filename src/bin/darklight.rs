//! `darklight` — command-line interface to the alias-linking pipeline.
//!
//! ```text
//! darklight gen <out-dir> [--scale small|default|paper] [--seed N]
//!     Generate a synthetic three-forum world as TSV corpora.
//!
//! darklight polish <in.tsv> <out.tsv> [--lenient]
//!     Run the 12 polishing steps; print the per-step removal report.
//!
//! darklight stats <in.tsv> [--lenient]
//!     Corpus statistics: users, posts, words-per-user CDF.
//!
//! darklight fit <known.tsv> --out <artifact-dir> [--threads N]
//!              [--metrics out.json] [--lenient]
//!     Polish, refine, and fit the known corpus once, then persist the
//!     fitted pipeline state (vocabulary + IDF weights, per-author
//!     sparse vectors, activity profiles, feature config, run
//!     fingerprint) as a durable artifact under <artifact-dir>. Each
//!     fit publishes a new epoch directory and atomically swaps the
//!     CURRENT pointer; earlier epochs are kept for recovery.
//!
//! darklight link <known.tsv> <unknown.tsv> [--threshold T] [--k K]
//!               [--threads N] [--metrics out.json] [--lenient]
//!               [--batch-size B] [--mem-budget SIZE] [--deadline DUR]
//!               [--checkpoint state.ckpt]
//! darklight link --artifact <artifact-dir> <unknown.tsv> [--threshold T]
//!               [--k K] [--threads N] [--metrics out.json]
//!               [--lenient]
//!     Polish, refine, and link the two corpora; print matched alias
//!     pairs as TSV (unknown_alias, known_alias, score). With
//!     --artifact, the known side is loaded from a `darklight fit`
//!     artifact instead of being refit — output is byte-identical to
//!     the fit-every-time run at every thread count. A corrupt
//!     artifact is detected (CRC + fingerprint) and the loader falls
//!     back to the newest intact epoch; --artifact serves unbatched,
//!     so it rejects --batch-size/--mem-budget/--deadline/--checkpoint.
//!     With
//!     --metrics, also write a JSON snapshot of pipeline counters,
//!     stage timers, and latency histograms (see darklight-obs).
//!     --threads 0 (the default) sizes the worker pool from the
//!     machine (or the DARKLIGHT_THREADS environment variable);
//!     output is identical at every thread count.
//!     --batch-size runs the RAM-bounded batched driver (§IV-J);
//!     --mem-budget runs it under a byte ceiling instead (binary
//!     units: 512MiB, 2GiB), deriving the largest admissible batch
//!     size — the two flags are mutually exclusive, and output is
//!     byte-identical to the equivalent explicit --batch-size run.
//!     --deadline bounds the batched rounds (30s, 30m, 2h); an
//!     expired run exits 1 leaving a valid --checkpoint to resume
//!     from.
//!     --checkpoint persists batched state after every round and
//!     resumes from it on restart (implies --batch-size 100 unless
//!     given). A checkpoint written by a different config/corpus, or
//!     corrupted on disk, is refused rather than resumed. Checkpoint
//!     and corpus I/O retries transient failures with deterministic
//!     backoff.
//!
//! darklight profile <corpus.tsv> <alias>
//!     Activity profile and leaked-fact dossier for one alias.
//!
//! darklight obfuscate <in.tsv> <out.tsv>
//!     Scrub writing style from every post (adversarial stylometry).
//!
//! darklight bench-matrix [--out DIR] [--check [DIR]] [--scenarios a,b]
//!     [--scales t,s,m,l] [--seed N] [--threads N] [--mem-budget SIZE]
//!     [--include-large] [--throughput-tolerance PCT] [--f1-tolerance PTS]
//!     Run the scenario-matrix benchmark (DESIGN.md §12): every requested
//!     (scenario, scale) cell goes through the full governed pipeline and
//!     produces one BENCH_<scenario>_<scale>.json. Without --check the
//!     reports are written into --out (default: benchmarks). With --check
//!     the reports are instead compared against the baselines in DIR
//!     (default: benchmarks): each cell runs at the thread count its
//!     baseline states (so --threads is refused there), the deterministic
//!     sections must match bit-for-bit, throughput may regress at most
//!     --throughput-tolerance percent (default 25), F1 may drop at most
//!     --f1-tolerance points (default 2); any failing cell prints a typed
//!     report line and the command exits 1. Scales: t (test), s (~1k
//!     authors, the default), m (~10k), l (opt-in via --include-large).
//! ```
//!
//! Corpus-reading commands default to **strict** ingestion: the first
//! malformed line aborts. `--lenient` quarantines malformed lines
//! instead (printing a per-line report to stderr) and fails only when
//! more than half the input is bad.
//!
//! Every subcommand checks its arguments before it does any work: a flag
//! it does not take, a flag given twice, a flag without its value, and a
//! missing or surplus operand are usage errors, and `--help` (or `-h`)
//! after it prints the usage. A reader that closes stdout early (`| head`)
//! ends the command quietly.
//!
//! Exit codes: 0 success, 1 data/IO error, 2 usage error.

use darklight::activity::profile::{ProfileBuilder, ProfilePolicy};
use darklight::core::artifact::FitArtifact;
use darklight::core::batch::{BatchConfig, BatchError};
use darklight::core::linker::{AliasMatch, Linker, LinkerConfig};
use darklight::corpus::io::{load_corpus, load_corpus_lenient, save_corpus, LenientConfig};
use darklight::corpus::model::Corpus;
use darklight::corpus::polish::{PolishConfig, Polisher};
use darklight::corpus::stats::{cdf_at, words_per_user_cdf};
use darklight::eval::profiler::build_profile;
use darklight::govern::{
    fault, parse_duration, seed_from, with_retry, Deadline, MemoryBudget, RetryPolicy,
};
use darklight::obs::PipelineMetrics;
use darklight::store::EpochStore;
use darklight::synth::scenario::{ScenarioBuilder, ScenarioConfig};
use darklight::text::obfuscate::{ObfuscateConfig, Obfuscator};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A CLI failure, split by whose fault it is: `Usage` (bad invocation,
/// exit 2) vs `Data` (the input or filesystem let us down, exit 1).
/// `StdoutClosed` is no failure: the reader of stdout went away (`| head`),
/// so the command ends quietly (exit 0).
enum CliError {
    Usage(String),
    Data(String),
    StdoutClosed,
}

fn usage(msg: impl std::fmt::Display) -> CliError {
    CliError::Usage(msg.to_string())
}

fn data(msg: impl std::fmt::Display) -> CliError {
    CliError::Data(msg.to_string())
}

fn stdout_error(e: std::io::Error) -> CliError {
    match e.kind() {
        std::io::ErrorKind::BrokenPipe => CliError::StdoutClosed,
        _ => data(format!("cannot write to stdout: {e}")),
    }
}

/// `println!` that returns a [`CliError`] instead of panicking: every
/// command prints its result through this one stdout writer.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(stdout_error)?
    };
}

/// One subcommand: its entry point and every flag it takes.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<(), CliError>,
    flags: &'static [&'static str],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "gen",
        run: cmd_gen,
        flags: &["--scale", "--seed"],
    },
    Command {
        name: "polish",
        run: cmd_polish,
        flags: &["--lenient"],
    },
    Command {
        name: "stats",
        run: cmd_stats,
        flags: &["--lenient"],
    },
    Command {
        name: "fit",
        run: cmd_fit,
        flags: &["--out", "--threads", "--metrics", "--lenient"],
    },
    Command {
        name: "link",
        run: cmd_link,
        flags: &[
            "--artifact",
            "--threshold",
            "--k",
            "--threads",
            "--metrics",
            "--lenient",
            "--batch-size",
            "--mem-budget",
            "--deadline",
            "--checkpoint",
        ],
    },
    Command {
        name: "profile",
        run: cmd_profile,
        flags: &[],
    },
    Command {
        name: "obfuscate",
        run: cmd_obfuscate,
        flags: &[],
    },
    Command {
        name: "bench-matrix",
        run: cmd_bench_matrix,
        flags: &[
            "--out",
            "--check",
            "--scenarios",
            "--scales",
            "--seed",
            "--threads",
            "--mem-budget",
            "--include-large",
            "--throughput-tolerance",
            "--f1-tolerance",
        ],
    },
];

/// A subcommand's arguments, split into flags and operands before any
/// work runs.
struct Args<'a> {
    command: &'static str,
    flags: Vec<(&'a str, Option<&'a str>)>,
    operands: Vec<&'a str>,
}

fn is_flag(token: &str) -> bool {
    token.len() > 1 && token.starts_with('-')
}

impl Command {
    /// Splits `args` before any work runs: `Ok(None)` when they ask for
    /// help, a usage error naming the first flag this command does not
    /// take, takes twice, or takes without its value.
    fn parse<'a>(&self, args: &'a [String]) -> Result<Option<Args<'a>>, CliError> {
        let mut parsed = Args {
            command: self.name,
            flags: Vec::new(),
            operands: Vec::new(),
        };
        let mut tokens = args.iter().map(String::as_str).peekable();
        while let Some(token) = tokens.next() {
            if token == "--help" || token == "-h" {
                return Ok(None);
            }
            if !is_flag(token) {
                parsed.operands.push(token);
                continue;
            }
            if !self.flags.contains(&token) {
                return Err(usage(format!(
                    "{} does not take {token:?}\n{USAGE}",
                    self.name
                )));
            }
            if parsed.has(token) {
                return Err(usage(format!("{token} given twice\n{USAGE}")));
            }
            let value = match token {
                _ if SWITCHES.contains(&token) => None,
                // `--check` takes an optional directory.
                "--check" => tokens.next_if(|t| !is_flag(t)),
                _ => Some(
                    tokens
                        .next()
                        .ok_or_else(|| usage(format!("{token} requires a value\n{USAGE}")))?,
                ),
            };
            parsed.flags.push((token, value));
        }
        Ok(Some(parsed))
    }
}

impl<'a> Args<'a> {
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The command's `N` operands; a usage error names the first missing
    /// or surplus one.
    fn operands<const N: usize>(&self) -> Result<[&'a str; N], CliError> {
        if let Some(surplus) = self.operands.get(N) {
            return Err(usage(format!(
                "{} takes {N} operand(s), not also {surplus:?}\n{USAGE}",
                self.command
            )));
        }
        self.operands.as_slice().try_into().map_err(|_| {
            usage(format!(
                "{} is missing operand #{}\n{USAGE}",
                self.command,
                self.operands.len() + 1
            ))
        })
    }
}

/// Prints the usage; asking for it is a success.
fn help() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | Some("help") | None => return help(),
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(command) => match command.parse(&args[1..]) {
                Ok(None) => return help(),
                Ok(Some(parsed)) => (command.run)(&parsed),
                Err(e) => Err(e),
            },
            None => Err(usage(format!("unknown command {name:?}\n{USAGE}"))),
        },
    };
    match result {
        Ok(()) | Err(CliError::StdoutClosed) => ExitCode::SUCCESS,
        Err(CliError::Data(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

// Real newlines, not `\n\` continuations: a continuation would also
// strip the indentation of the line after it.
const USAGE: &str = "\
usage: darklight <gen|polish|stats|fit|link|profile|obfuscate|bench-matrix> ...
  gen <out-dir> [--scale small|default|paper] [--seed N]
  polish <in.tsv> <out.tsv> [--lenient]
  stats <in.tsv> [--lenient]
  fit <known.tsv> --out <artifact-dir> [--threads N] [--metrics out.json] [--lenient]
  link <known.tsv> <unknown.tsv> [--threshold T] [--k K] [--threads N] [--metrics out.json]
       [--lenient] [--batch-size B] [--mem-budget SIZE] [--deadline DUR]
       [--checkpoint state.ckpt]
  link --artifact <artifact-dir> <unknown.tsv> [--threshold T] [--k K] [--threads N]
       [--metrics out.json] [--lenient]
  profile <corpus.tsv> <alias>
  obfuscate <in.tsv> <out.tsv>
  bench-matrix [--out DIR] [--check [DIR]] [--scenarios a,b] [--scales t,s,m,l] [--seed N]
       [--threads N] [--mem-budget SIZE] [--include-large]
       [--throughput-tolerance PCT] [--f1-tolerance PTS]
exit codes: 0 success, 1 data/io error (or failed bench-matrix --check), 2 usage error";

/// Flags that take no value; every other flag but `--check` consumes
/// the next token.
const SWITCHES: &[&str] = &["--lenient", "--include-large"];

/// Loads a corpus in the selected ingestion mode, retrying transient
/// I/O failures with deterministic backoff (jitter seeded by the path,
/// so a rerun sleeps the same schedule). Parse-class failures — a
/// malformed line in strict mode, a blown lenient tolerance budget —
/// fail fast: rereading a corrupt file cannot fix it. In lenient mode a
/// per-line quarantine report goes to stderr and the load succeeds
/// unless the tolerance budget is blown.
fn load_corpus_cli(
    path: &str,
    lenient: bool,
    metrics: &PipelineMetrics,
) -> Result<Corpus, CliError> {
    use darklight::corpus::io::ReadError;
    let policy = RetryPolicy::default();
    let seed = seed_from(path.as_bytes());
    let transient = |e: &ReadError| matches!(e, ReadError::Io(_));
    if !lenient {
        return with_retry("corpus.read", &policy, seed, metrics, transient, || {
            fault::maybe_fail_io("corpus.read")?;
            load_corpus(Path::new(path))
        })
        .map_err(data);
    }
    let config = LenientConfig {
        metrics: metrics.clone(),
        ..LenientConfig::default()
    };
    let (corpus, report) = with_retry("corpus.read", &policy, seed, metrics, transient, || {
        fault::maybe_fail_io("corpus.read")?;
        load_corpus_lenient(Path::new(path), &config)
    })
    .map_err(data)?;
    if !report.is_clean() {
        eprintln!(
            "warning: quarantined {} of {} line(s) loading {path}:",
            report.quarantined(),
            report.lines_total
        );
        const SHOWN: usize = 10;
        for issue in report.issues.iter().take(SHOWN) {
            eprintln!(
                "  line {}: [{}] {}",
                issue.line,
                issue.kind.as_str(),
                issue.reason
            );
        }
        if report.issues.len() > SHOWN {
            eprintln!("  ... and {} more", report.issues.len() - SHOWN);
        }
    }
    Ok(corpus)
}

/// The `--metrics` snapshot path, and the registry to record into:
/// enabled only when a snapshot was asked for.
fn metrics_flag<'a>(args: &Args<'a>) -> (Option<&'a str>, PipelineMetrics) {
    match args.value("--metrics") {
        Some(path) => (Some(path), PipelineMetrics::enabled()),
        None => (None, PipelineMetrics::disabled()),
    }
}

fn write_metrics(path: Option<&str>, metrics: &PipelineMetrics) -> Result<(), CliError> {
    if let Some(path) = path {
        std::fs::write(path, metrics.to_json_pretty()).map_err(data)?;
        eprintln!("pipeline metrics written to {path}");
    }
    Ok(())
}

/// The linker settings shared by `fit` and both forms of `link`:
/// `--threshold`, `--k` and `--threads`.
fn linker_config(args: &Args) -> Result<LinkerConfig, CliError> {
    let mut config = LinkerConfig::default();
    if let Some(t) = args.value("--threshold") {
        config.two_stage.threshold = t
            .parse()
            .map_err(|_| usage("--threshold must be a float"))?;
    }
    if let Some(k) = args.value("--k") {
        config.two_stage.k = k.parse().map_err(|_| usage("--k must be an integer"))?;
    }
    if let Some(t) = args.value("--threads") {
        config.two_stage.threads = t
            .parse()
            .map_err(|_| usage("--threads must be an integer (0 = auto)"))?;
    }
    Ok(config)
}

/// Prints the matched pairs as TSV (unknown_alias, known_alias, score)
/// and writes the `--metrics` snapshot.
fn report_links(
    matches: &[AliasMatch],
    linker: &Linker,
    metrics_path: Option<&str>,
) -> Result<(), CliError> {
    outln!("unknown_alias\tknown_alias\tscore");
    for m in matches {
        outln!("{}\t{}\t{:.4}", m.unknown_alias, m.known_alias, m.score);
    }
    eprintln!("{} pair(s) emitted", matches.len());
    write_metrics(metrics_path, linker.metrics())
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let [out_dir] = args.operands()?;
    let mut config = match args.value("--scale") {
        Some("small") | None => ScenarioConfig::small(),
        Some("default") => ScenarioConfig::default_scale(),
        Some("paper") => ScenarioConfig::paper_scale(),
        Some(other) => return Err(usage(format!("unknown scale {other:?}"))),
    };
    if let Some(seed) = args.value("--seed") {
        config.seed = seed
            .parse()
            .map_err(|_| usage("--seed must be an integer"))?;
    }
    std::fs::create_dir_all(out_dir).map_err(data)?;
    eprintln!("generating world (seed {})...", config.seed);
    let scenario = ScenarioBuilder::new(config).build();
    for (name, corpus) in [
        ("reddit.tsv", &scenario.reddit),
        ("tmg.tsv", &scenario.tmg),
        ("dm.tsv", &scenario.dm),
    ] {
        let path = Path::new(out_dir).join(name);
        save_corpus(corpus, &path).map_err(data)?;
        eprintln!("wrote {} ({} users)", path.display(), corpus.len());
    }
    Ok(())
}

fn cmd_polish(args: &Args) -> Result<(), CliError> {
    let [input, output] = args.operands()?;
    let lenient = args.has("--lenient");
    let corpus = load_corpus_cli(input, lenient, &PipelineMetrics::disabled())?;
    let (polished, report) = Polisher::new(PolishConfig::default()).polish(&corpus);
    save_corpus(&polished, Path::new(output)).map_err(data)?;
    eprintln!(
        "polished {} -> {}\n  bot accounts dropped:      {}\n  duplicate messages:        {}\n  \
         short messages:            {}\n  low-diversity messages:    {}\n  \
         non-english messages:      {}\n  emptied users dropped:     {}\n  messages kept:             {}",
        input,
        output,
        report.bot_accounts,
        report.duplicate_messages,
        report.short_messages,
        report.low_diversity_messages,
        report.non_english_messages,
        report.emptied_users,
        report.kept_messages,
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let [input] = args.operands()?;
    let lenient = args.has("--lenient");
    let corpus = load_corpus_cli(input, lenient, &PipelineMetrics::disabled())?;
    outln!("corpus:  {}", corpus.name);
    outln!("users:   {}", corpus.len());
    outln!("posts:   {}", corpus.total_posts());
    let cdf = words_per_user_cdf(&corpus);
    outln!("words-per-user CDF:");
    for x in [100u64, 500, 1000, 1500, 3000, 5000, 10_000] {
        outln!("  <= {x:>6} words: {:.1}%", cdf_at(&cdf, x) * 100.0);
    }
    Ok(())
}

fn cmd_fit(args: &Args) -> Result<(), CliError> {
    let [known_path] = args.operands()?;
    let out_dir = args
        .value("--out")
        .ok_or_else(|| usage(format!("fit requires --out <artifact-dir>\n{USAGE}")))?;
    let lenient = args.has("--lenient");
    let (metrics_path, metrics) = metrics_flag(args);
    let config = linker_config(args)?;
    let known = load_corpus_cli(known_path, lenient, &metrics)?;
    eprintln!(
        "fitting {} known aliases (threads={})...",
        known.len(),
        config.two_stage.effective_threads(),
    );
    let linker = Linker::new(config).with_metrics(metrics.clone());
    let artifact = linker.fit_artifact(&known);
    let store = EpochStore::new(out_dir).with_metrics(metrics);
    let epoch = artifact.save(&store).map_err(data)?;
    eprintln!(
        "fitted {} alias(es) -> {} (epoch {epoch})",
        artifact.known.len(),
        out_dir,
    );
    write_metrics(metrics_path, linker.metrics())
}

/// Serving half of the fit-once split: `link --artifact <dir> <unknown>`.
fn cmd_link_artifact(args: &Args, artifact_dir: &str) -> Result<(), CliError> {
    for banned in ["--batch-size", "--mem-budget", "--deadline", "--checkpoint"] {
        if args.has(banned) {
            return Err(usage(format!(
                "{banned} cannot be combined with --artifact: serving a fitted artifact \
                 is always unbatched (batching bounds the fit-side working set, which \
                 the artifact has already paid)",
            )));
        }
    }
    let [unknown_path] = args.operands()?;
    let lenient = args.has("--lenient");
    let (metrics_path, metrics) = metrics_flag(args);
    let config = linker_config(args)?;
    let threads = config.two_stage.effective_threads();
    let store = EpochStore::new(artifact_dir).with_metrics(metrics.clone());
    let (artifact, epoch) = FitArtifact::load(&store, threads).map_err(data)?;
    let unknown = load_corpus_cli(unknown_path, lenient, &metrics)?;
    eprintln!(
        "linking {} unknowns against {} fitted knowns from {} epoch {epoch} \
         (k={}, threshold={}, threads={threads})...",
        unknown.len(),
        artifact.known.len(),
        artifact_dir,
        config.two_stage.k,
        config.two_stage.threshold,
    );
    let linker = Linker::new(config).with_metrics(metrics);
    let matches = linker.link_with_artifact(&artifact, &unknown);
    report_links(&matches, &linker, metrics_path)
}

fn cmd_link(args: &Args) -> Result<(), CliError> {
    if let Some(dir) = args.value("--artifact") {
        return cmd_link_artifact(args, dir);
    }
    let [known_path, unknown_path] = args.operands()?;
    let lenient = args.has("--lenient");
    let (metrics_path, metrics) = metrics_flag(args);
    let mut config = linker_config(args)?;
    if let Some(b) = args.value("--batch-size") {
        let batch_size = b
            .parse()
            .map_err(|_| usage("--batch-size must be an integer"))?;
        config.batch = Some(BatchConfig { batch_size });
    }
    if let Some(s) = args.value("--mem-budget") {
        if config.batch.is_some() {
            return Err(usage(
                "--batch-size and --mem-budget are mutually exclusive: give an explicit \
                 batch size or let the budget derive one, not both",
            ));
        }
        config.two_stage.govern.budget = Some(MemoryBudget::parse(s).map_err(usage)?);
    }
    if let Some(p) = args.value("--checkpoint") {
        // Checkpoints only exist for the batched driver; default to the
        // paper's B=100 when neither --batch-size nor --mem-budget was
        // given to pick one.
        if config.two_stage.govern.budget.is_none() {
            config.batch.get_or_insert_with(BatchConfig::default);
        }
        config.checkpoint = Some(PathBuf::from(p));
    }
    if let Some(d) = args.value("--deadline") {
        if config.batch.is_none() && config.two_stage.govern.budget.is_none() {
            return Err(usage(
                "--deadline only bounds batched runs: add --batch-size, --mem-budget, \
                 or --checkpoint",
            ));
        }
        let limit = parse_duration(d).map_err(usage)?;
        config.two_stage.govern.deadline = Deadline::after(limit);
    }
    if let Some(batch) = &config.batch {
        batch.validate().map_err(usage)?;
    }
    let known = load_corpus_cli(known_path, lenient, &metrics)?;
    let unknown = load_corpus_cli(unknown_path, lenient, &metrics)?;
    eprintln!(
        "linking {} unknowns against {} knowns (k={}, threshold={}, threads={})...",
        unknown.len(),
        known.len(),
        config.two_stage.k,
        config.two_stage.threshold,
        config.two_stage.effective_threads(),
    );
    let linker = Linker::new(config).with_metrics(metrics);
    let matches = linker.try_link(&known, &unknown).map_err(|e| match e {
        BatchError::InvalidConfig(_) => usage(e),
        other => data(other),
    })?;
    report_links(&matches, &linker, metrics_path)
}

fn cmd_profile(args: &Args) -> Result<(), CliError> {
    let [input, alias] = args.operands()?;
    let corpus = load_corpus(Path::new(input)).map_err(data)?;
    let user = corpus
        .user(alias)
        .ok_or_else(|| data(format!("alias {alias:?} not found in {input}")))?;
    outln!("alias:  {}", user.alias);
    outln!("posts:  {}", user.posts.len());
    outln!("words:  {}", user.total_words());
    let builder = ProfileBuilder::new(ProfilePolicy::default());
    match builder.build(&user.timestamps()) {
        Ok(profile) => {
            outln!(
                "daily activity profile ({} usable posts, peak {:02}:00 UTC, entropy {:.2} bits):",
                profile.total_posts(),
                profile.peak_hour(),
                profile.entropy_bits()
            );
            for h in 0..24 {
                let bar = "#".repeat((profile.share(h) * 100.0).round() as usize);
                outln!("  {h:02}:00 {bar}");
            }
        }
        Err(e) => outln!("daily activity profile: unavailable ({e})"),
    }
    let dossier = build_profile([user]);
    if dossier.fact_count() > 0 {
        outln!("\nleaked identity facts:\n{}", dossier.render());
    } else {
        outln!("\nno identity facts recorded for this alias.");
    }
    Ok(())
}

fn cmd_obfuscate(args: &Args) -> Result<(), CliError> {
    let [input, output] = args.operands()?;
    let mut corpus = load_corpus(Path::new(input)).map_err(data)?;
    let obfuscator = Obfuscator::new(ObfuscateConfig::default());
    let mut posts = 0usize;
    for user in &mut corpus.users {
        for post in &mut user.posts {
            post.text = obfuscator.apply(&post.text);
            posts += 1;
        }
    }
    save_corpus(&corpus, Path::new(output)).map_err(data)?;
    eprintln!("obfuscated {posts} posts -> {output}");
    Ok(())
}

fn cmd_bench_matrix(args: &Args) -> Result<(), CliError> {
    use darklight_bench::matrix::{
        baseline_threads, check_cell, run_cell, CellCheck, CellOptions, CellVerdict,
        CheckTolerance, DEFAULT_F1_TOLERANCE, DEFAULT_THROUGHPUT_TOLERANCE,
    };
    use darklight_synth::matrix::{cells_for, MatrixScale, ScenarioKind, MATRIX_SEED};

    args.operands::<0>()?;
    let kinds: Vec<ScenarioKind> = match args.value("--scenarios") {
        None => ScenarioKind::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|name| {
                ScenarioKind::from_name(name.trim())
                    .ok_or_else(|| usage(format!("unknown scenario {name:?}")))
            })
            .collect::<Result<_, _>>()?,
    };
    let scales: Vec<MatrixScale> = match args.value("--scales") {
        None => vec![MatrixScale::Small],
        Some(list) => list
            .split(',')
            .map(|name| {
                MatrixScale::from_name(name.trim())
                    .ok_or_else(|| usage(format!("unknown scale {name:?}")))
            })
            .collect::<Result<_, _>>()?,
    };
    if !args.has("--include-large") {
        if let Some(scale) = scales.iter().find(|s| s.opt_in()) {
            return Err(usage(format!(
                "scale {:?} is opt-in: pass --include-large to run it",
                scale.name()
            )));
        }
    }
    let seed: u64 = match args.value("--seed") {
        None => MATRIX_SEED,
        Some(s) => s.parse().map_err(|_| usage("--seed must be an integer"))?,
    };
    let mut opts = CellOptions::default();
    if let Some(t) = args.value("--threads") {
        if args.has("--check") {
            return Err(usage(
                "--threads cannot be combined with --check: each cell runs at the thread \
                 count its baseline was captured at",
            ));
        }
        opts.threads = t
            .parse()
            .map_err(|_| usage("--threads must be an integer (0 = auto)"))?;
    }
    if let Some(s) = args.value("--mem-budget") {
        opts.mem_budget = Some(MemoryBudget::parse(s).map_err(usage)?);
    }
    let tol = CheckTolerance {
        throughput: match args.value("--throughput-tolerance") {
            None => DEFAULT_THROUGHPUT_TOLERANCE,
            Some(p) => {
                let pct: f64 = p
                    .parse()
                    .map_err(|_| usage("--throughput-tolerance must be a percentage"))?;
                pct / 100.0
            }
        },
        f1: match args.value("--f1-tolerance") {
            None => DEFAULT_F1_TOLERANCE,
            Some(p) => {
                let pts: f64 = p
                    .parse()
                    .map_err(|_| usage("--f1-tolerance must be a number of points"))?;
                pts / 100.0
            }
        },
    };

    let cells = cells_for(&kinds, &scales, seed);
    if args.has("--check") {
        // A bare `--check` compares against the committed default.
        let dir = args.value("--check").unwrap_or("benchmarks");
        let mut failures = 0usize;
        for spec in &cells {
            let path = Path::new(dir).join(spec.file_name());
            let failed = |verdict| CellCheck {
                cell: spec.id(),
                verdict,
            };
            let check = match std::fs::read_to_string(&path) {
                Err(_) => failed(CellVerdict::MissingBaseline),
                Ok(baseline) => match baseline_threads(&baseline) {
                    None => failed(CellVerdict::SchemaMismatch(
                        "baseline states no throughput.threads".to_string(),
                    )),
                    Some(threads) => {
                        eprintln!("[{}] running cell at {threads} thread(s)...", spec.id());
                        let opts = CellOptions { threads, ..opts };
                        let report = run_cell(spec, &opts).map_err(data)?;
                        check_cell(&spec.id(), &baseline, &report, &tol)
                    }
                },
            };
            if !check.verdict.passed() {
                failures += 1;
            }
            outln!("{}", check.render());
        }
        if failures > 0 {
            return Err(data(format!(
                "{failures} of {} cell(s) failed the regression gate",
                cells.len()
            )));
        }
        eprintln!("all {} cell(s) passed", cells.len());
        Ok(())
    } else {
        let out_dir = args.value("--out").unwrap_or("benchmarks");
        std::fs::create_dir_all(out_dir).map_err(data)?;
        for spec in &cells {
            eprintln!("[{}] running cell...", spec.id());
            let report = run_cell(spec, &opts).map_err(data)?;
            let path = Path::new(out_dir).join(spec.file_name());
            std::fs::write(&path, report.render_pretty())
                .map_err(|e| data(format!("cannot write {}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }
}
