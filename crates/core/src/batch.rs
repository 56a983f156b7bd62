//! RAM-bounded batch processing (§IV-J of the paper).
//!
//! When the known set is too large for memory, the paper splits it into
//! batches of `B` aliases, runs 10-attribution within each batch, pools the
//! per-batch survivors, and repeats until at most `B` candidates remain;
//! the final two-stage step then runs on that reduced set. A `B` no
//! larger than `k` cannot drop a candidate, so such a run goes straight
//! to the final step. Validated in the paper with `B = 100`, giving
//! precision 91% / recall 81% at the global threshold — within a few
//! points of the unbatched pipeline.
//!
//! [`run_batched`] is the one entry point. Its unit of work is a *pool
//! group*: the unknowns that currently hold an identical candidate pool.
//! Every unknown starts with the whole known set, so round one is a
//! single group; as pools diverge the groups split. A round maps each
//! group through its batches independently, and the final step fits
//! stage 1 once per distinct pool and queries every unknown of the group
//! in it — the same fits and queries a per-unknown driver makes, without
//! repeating a fit for unknowns that share a pool.
//!
//! Long batched runs are exactly the ones that get killed mid-flight, so
//! given a checkpoint path [`run_batched`] persists the survivor pools
//! after every round and resumes from the last completed round. A
//! checkpoint is a `darklight-store` container — the format fit
//! artifacts use — holding the run fingerprint in its CRC-checked header
//! and one section with the schema version, the rounds completed and
//! every unknown's pool. A torn, truncated or bit-flipped checkpoint
//! therefore fails its CRC and is refused with a typed error, never
//! resumed. Resumption is refused, too, when the run fingerprint —
//! config plus dataset contents — does not match the checkpoint, because
//! stale pools against a changed corpus would rank confidently and
//! wrongly.
//!
//! ## Resource governance
//!
//! [`run_batched`] reads the engine's [`darklight_govern::GovernConfig`]
//! and supervises the round loop:
//!
//! * **Budget** — [`BatchConfig::derive`] turns a byte budget into the
//!   largest admissible `B` under a conservative cost model (the unknown
//!   set is resident every round; each candidate in a batch costs its
//!   worst-case record estimate). Before every round the governor
//!   re-measures the *actual* upcoming round against the budget and
//!   halves `B` until it fits (the pressure ladder), recording
//!   `govern.batch_shrinks` and `govern.bytes_estimated`. `B` never
//!   grows back: shrinking is a memory-safety decision, re-growing
//!   would make output depend on when pressure happened to ease.
//! * **Deadline** — checked between rounds, before each pool group of
//!   the parallel fan-out, and between batches. Expiry abandons the
//!   partial round wholesale (so output stays thread-count-invariant)
//!   and surfaces
//!   [`darklight_govern::GovernError::DeadlineExpired`] with the last
//!   completed round's checkpoint intact on disk. The final step, once
//!   reached, always runs to completion.
//! * **Retries** — checkpoint saves/loads go through the default
//!   jittered-backoff retry policy, seeded by the run fingerprint; only
//!   I/O errors retry, corruption never does.

use crate::attrib::Ranked;
use crate::dataset::Dataset;
use crate::twostage::{DocView, RankedMatch, TwoStage, Unknowns};
use darklight_govern::{
    fault, with_retry, Deadline, EstimateBytes, Expired, GovernError, MemoryBudget, RetryPolicy,
};
use darklight_store::codec::{Reader, Writer};
use darklight_store::{read_container, write_container, Container, Fnv1a, StoreError, WriteSites};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Batched attribution configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Maximum aliases the "hardware" can hold at once (paper: 100).
    pub batch_size: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { batch_size: 100 }
    }
}

impl BatchConfig {
    /// Checks the configuration is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::InvalidConfig`] when `batch_size` is zero —
    /// a zero batch can never admit a candidate, so the round loop could
    /// not terminate.
    pub fn validate(&self) -> Result<(), BatchError> {
        if self.batch_size == 0 {
            return Err(BatchError::InvalidConfig(
                "batch size must be positive".to_string(),
            ));
        }
        Ok(())
    }

    /// Derives the largest batch size admissible under `budget` for this
    /// known/unknown pair, replacing the hardcoded `B`.
    ///
    /// The model is deliberately conservative: a round must hold the
    /// unknown set ([`budget_overhead_bytes`]) plus one batch, and every
    /// batch member is charged the *worst-case* record cost
    /// ([`budget_per_candidate_bytes`]). Conservatism is what makes the
    /// governed-equals-fixed parity hold: the in-run measured estimate
    /// (actual batch contents, same units) can never exceed what
    /// derivation budgeted for, so a run under `--mem-budget X` never
    /// shrinks below `derive(X)` and stays byte-identical to the
    /// equivalent explicit `--batch-size`.
    ///
    /// # Errors
    ///
    /// [`GovernError::BudgetTooSmall`] when even a single-candidate
    /// batch does not fit; the message names the minimum viable budget.
    pub fn derive(
        budget: &MemoryBudget,
        known: &Dataset,
        unknown: &Dataset,
    ) -> Result<BatchConfig, GovernError> {
        let overhead = budget_overhead_bytes(unknown);
        let per = budget_per_candidate_bytes(known).max(1);
        let required = overhead.saturating_add(per);
        let admissible = budget
            .bytes()
            .checked_sub(overhead)
            .map_or(0, |room| room / per);
        if admissible == 0 {
            return Err(GovernError::BudgetTooSmall {
                budget: budget.bytes(),
                required,
            });
        }
        let batch_size = usize::try_from(admissible)
            .unwrap_or(usize::MAX)
            .min(known.len().max(1));
        Ok(BatchConfig { batch_size })
    }
}

/// Bytes resident in every round regardless of batch size: the unknown
/// dataset, which each round vectorizes against the batch, and the copy
/// of its counts a run rebases onto the known lexicon when the two sides
/// were counted apart. The copy is charged whether or not a run makes it
/// (the known side decides that): every record's counted document, plus
/// the unknown lexicon's own terms, which bound the extension's for a
/// dataset counted on its own.
pub fn budget_overhead_bytes(unknown: &Dataset) -> u64 {
    let rebased: u64 = unknown
        .records
        .iter()
        .map(|r| r.counted.estimate_bytes())
        .sum();
    unknown.estimate_bytes() + rebased + unknown.lexicon().estimate_bytes()
}

/// Worst-case bytes one known candidate adds to a round: the largest
/// record estimate in the dataset. A record's estimate includes its
/// n-gram count pairs, eight bytes per distinct counted term, which
/// bound the per-round vector block built from them (a sparse vector
/// holds at most one eight-byte entry per distinct counted term — see
/// `SparseVector::estimate_bytes`). The term strings are charged once,
/// with the dataset's lexicon.
pub fn budget_per_candidate_bytes(known: &Dataset) -> u64 {
    known
        .records
        .iter()
        .map(EstimateBytes::estimate_bytes)
        .max()
        .unwrap_or(0)
}

/// Errors from batched attribution.
#[derive(Debug)]
pub enum BatchError {
    /// The [`BatchConfig`] fails [`BatchConfig::validate`].
    InvalidConfig(String),
    /// The checkpoint could not be read or written, is not an intact
    /// checkpoint (failed CRC, truncated, foreign format), or belongs to
    /// a different run ([`StoreError::FingerprintMismatch`]: the config
    /// or corpus changed since it was written).
    Checkpoint {
        /// The checkpoint file.
        path: PathBuf,
        /// What went wrong with it.
        error: StoreError,
    },
    /// The resource governor stopped the run (deadline expired, budget
    /// infeasible); checkpointed progress, if any, remains on disk.
    Govern(GovernError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::InvalidConfig(why) => write!(f, "invalid batch config: {why}"),
            BatchError::Checkpoint { path, error } => {
                write!(f, "checkpoint {}: {error}", path.display())?;
                if matches!(error, StoreError::FingerprintMismatch { .. }) {
                    write!(f, " (the config or corpus changed since it was written)")?;
                }
                write!(
                    f,
                    "; delete it (or point --checkpoint elsewhere) to start fresh"
                )
            }
            BatchError::Govern(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Checkpoint { error, .. } => Some(error),
            BatchError::Govern(e) => Some(e),
            BatchError::InvalidConfig(_) => None,
        }
    }
}

impl From<GovernError> for BatchError {
    fn from(e: GovernError) -> BatchError {
        BatchError::Govern(e)
    }
}

/// Schema version of the checkpoint section — what its bytes mean; the
/// container frames them with its own format version. Hashed into the
/// run fingerprint.
const CHECKPOINT_VERSION: u32 = 1;

/// The checkpoint container's one section.
const SEC_POOLS: &str = "pools";

/// A checkpoint write consults `DARKLIGHT_FAULT_IO` at `checkpoint.save`
/// only; its loads consult `checkpoint.load`.
const SAVE_SITES: WriteSites = WriteSites {
    write: "checkpoint.save",
    rename: None,
};

/// The inter-round state as a container: the run fingerprint in the
/// header, then the schema version, the rounds completed and each
/// unknown's surviving known indices.
fn encode_checkpoint(fingerprint: u64, rounds_done: u64, pools: &[Vec<usize>]) -> Container {
    let mut w = Writer::new();
    w.put_u32(CHECKPOINT_VERSION);
    w.put_u64(rounds_done);
    w.put_u64(pools.len() as u64);
    for pool in pools {
        w.put_u64(pool.len() as u64);
        for &i in pool {
            w.put_u64(i as u64);
        }
    }
    let mut c = Container::new(fingerprint);
    c.push_section(SEC_POOLS, w.into_bytes());
    c
}

/// The pools and rounds of a checkpoint written by this run: its
/// fingerprint must be `fingerprint`, and its pools must fit the
/// datasets (one per unknown, each index inside the known set).
fn decode_checkpoint(
    c: &Container,
    fingerprint: u64,
    known: &Dataset,
    unknown: &Dataset,
) -> Result<(Vec<Vec<usize>>, u64), StoreError> {
    if c.fingerprint != fingerprint {
        return Err(StoreError::FingerprintMismatch {
            expected: fingerprint,
            found: c.fingerprint,
        });
    }
    let mut r = Reader::new(c.section(SEC_POOLS)?);
    let version = r.get_u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(StoreError::VersionMismatch {
            expected: CHECKPOINT_VERSION,
            found: version,
        });
    }
    let rounds_done = r.get_u64()?;
    let mut pools = Vec::new();
    for _ in 0..r.get_count(8)? {
        let len = r.get_count(8)?;
        let pool = (0..len).map(|_| {
            r.get_u64()
                .map(|i| usize::try_from(i).unwrap_or(usize::MAX))
        });
        pools.push(pool.collect::<Result<Vec<usize>, _>>()?);
    }
    r.expect_end()?;
    if pools.len() != unknown.len() || pools.iter().flatten().any(|&i| i >= known.len()) {
        return Err(StoreError::Malformed(format!(
            "pools do not fit the datasets ({} pools for {} unknowns of {} known)",
            pools.len(),
            unknown.len(),
            known.len()
        )));
    }
    Ok((pools, rounds_done))
}

/// Reads the checkpoint at `path`; `Ok(None)` when there is none (a
/// fresh run, not an error).
fn load_checkpoint(path: &Path) -> Result<Option<Container>, StoreError> {
    fault::maybe_fail_io("checkpoint.load")?;
    match read_container(path) {
        Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        other => other.map(Some),
    }
}

/// Whether a checkpoint error is worth retrying: I/O failures are
/// (possibly a transient outage); corruption and fingerprint mismatches
/// are not (retrying re-reads the same bad bytes).
fn is_transient(e: &StoreError) -> bool {
    matches!(e, StoreError::Io(_))
}

/// Runs the hierarchical batched pipeline: batched k-attribution rounds
/// until every candidate pool fits one batch, then the standard second
/// stage. This is the one batched entry point, so it is the one place
/// that validates the config (a zero batch size from a deserialized
/// config could otherwise re-enter a non-terminating round loop) and
/// consults the engine's governor (see the module docs).
///
/// With a `checkpoint` path the survivor pools are persisted there after
/// every round (its `.tmp` sibling is the in-flight write), a valid
/// checkpoint found there is resumed instead of starting over, and the
/// file is removed on success. Checkpoint I/O retries transient failures
/// with backoff jitter seeded by the run fingerprint, so retried runs
/// replay the same schedule.
///
/// # Errors
///
/// [`BatchError::InvalidConfig`] when `config` fails validation, before
/// any checkpoint I/O; [`BatchError::Checkpoint`] when the checkpoint
/// cannot be read or written, is corrupt, or was written by a different
/// run (config or corpus changed — delete the file to start fresh); and
/// [`BatchError::Govern`] when the engine's governor stops the run
/// (deadline expiry; budget infeasibility surfaces earlier, from
/// [`BatchConfig::derive`]).
pub fn run_batched(
    engine: &TwoStage,
    config: &BatchConfig,
    known: &Dataset,
    unknown: &Dataset,
    checkpoint: Option<&Path>,
) -> Result<Vec<RankedMatch>, BatchError> {
    config.validate()?;
    let metrics = &engine.config().metrics;
    let _total = metrics.timer("batch.total").start();
    metrics
        .gauge("batch.batch_size")
        .set(config.batch_size as i64);
    let ctx = checkpoint.map(|path| (path, run_fingerprint(engine, config, known, unknown)));
    let checkpoint_error = |path: &Path, error| BatchError::Checkpoint {
        path: path.to_path_buf(),
        error,
    };
    let retry = RetryPolicy::default();
    let (survivors, rounds_done) = match ctx {
        None => (fresh_pools(known, unknown), 0),
        Some((path, fingerprint)) => {
            // Checkpoint hygiene: a crash between the tmp write and the
            // rename leaves a stale sibling behind. It was never named
            // `path`, so it holds no recoverable state — remove it before
            // this run starts writing its own tmp files there.
            let stale = path.with_extension("tmp");
            if stale.exists() && std::fs::remove_file(&stale).is_ok() {
                metrics.counter("govern.tmp_cleaned").incr();
            }
            let loaded = with_retry(
                "checkpoint.load",
                &retry,
                fingerprint,
                metrics,
                is_transient,
                || load_checkpoint(path),
            )
            .map_err(|e| checkpoint_error(path, e))?;
            match loaded {
                Some(c) => {
                    let (pools, done) = decode_checkpoint(&c, fingerprint, known, unknown)
                        .map_err(|e| checkpoint_error(path, e))?;
                    metrics.counter("batch.resumed").incr();
                    metrics.gauge("batch.resumed_round").set(done as i64);
                    (pools, done)
                }
                None => (fresh_pools(known, unknown), 0),
            }
        }
    };
    let out = run_rounds(
        engine,
        config,
        known,
        unknown,
        survivors,
        rounds_done,
        |done, pools| {
            let Some((path, fingerprint)) = ctx else {
                return Ok(());
            };
            let saved = encode_checkpoint(fingerprint, done, pools);
            with_retry(
                "checkpoint.save",
                &retry,
                fingerprint,
                metrics,
                is_transient,
                || write_container(path, &saved, SAVE_SITES),
            )
            .map_err(|e| checkpoint_error(path, e))
        },
    )?;
    if let Some((path, _)) = ctx {
        let _ = std::fs::remove_file(path);
    }
    Ok(out)
}

/// Fingerprint identifying a batched run: engine config (`k`, threshold,
/// both feature stages), batch size, and both datasets' contents (names,
/// n-gram orders, aliases, personas, selected text, activity profiles).
///
/// Deliberately excluded: the metrics handle (enabling `--metrics` never
/// changes output — pinned by `tests/metrics_parity.rs` — so it must not
/// invalidate a checkpoint) and the thread count (output is
/// thread-count-invariant — pinned by `tests/thread_parity.rs`).
pub fn run_fingerprint(
    engine: &TwoStage,
    config: &BatchConfig,
    known: &Dataset,
    unknown: &Dataset,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(u64::from(CHECKPOINT_VERSION));
    h.write_u64(config.batch_size as u64);
    let ec = engine.config();
    h.write_u64(ec.k as u64);
    h.write(&ec.threshold.to_bits().to_le_bytes());
    hash_feature_config(&mut h, &ec.reduction);
    hash_feature_config(&mut h, &ec.final_stage);
    hash_dataset(&mut h, known);
    hash_dataset(&mut h, unknown);
    h.finish()
}

pub(crate) fn hash_feature_config(h: &mut Fnv1a, fc: &darklight_features::pipeline::FeatureConfig) {
    h.write_u64(fc.max_word_n as u64);
    h.write_u64(fc.max_char_n as u64);
    h.write_u64(fc.top_word_ngrams as u64);
    h.write_u64(fc.top_char_ngrams as u64);
    for w in [
        fc.word_weight,
        fc.char_weight,
        fc.char_class_weight,
        fc.activity_weight,
    ] {
        h.write(&w.to_bits().to_le_bytes());
    }
}

pub(crate) fn hash_dataset(h: &mut Fnv1a, ds: &Dataset) {
    h.write_str(&ds.name);
    let (max_word_n, max_char_n) = ds.ngram_orders();
    h.write_u64(max_word_n as u64);
    h.write_u64(max_char_n as u64);
    h.write_u64(ds.len() as u64);
    for r in &ds.records {
        h.write_str(&r.alias);
        match r.persona {
            Some(p) => {
                h.write(&[1]);
                h.write_u64(p);
            }
            None => h.write(&[0]),
        }
        h.write_str(&r.text);
        // The derived Debug form is deterministic and covers every field
        // that feeds the activity feature block.
        match &r.profile {
            Some(p) => h.write_str(&format!("{p:?}")),
            None => h.write(&[0]),
        }
    }
}

fn fresh_pools(known: &Dataset, unknown: &Dataset) -> Vec<Vec<usize>> {
    vec![(0..known.len()).collect(); unknown.len()]
}

/// Peak per-batch footprint of the upcoming round: the largest sum of
/// per-record estimates over any single batch of any pool. The pressure
/// ladder compares this (plus the fixed overhead) against the budget.
fn peak_round_bytes(pools: &[Vec<usize>], record_bytes: &[u64], batch_size: usize) -> u64 {
    pools
        .iter()
        .flat_map(|pool| {
            pool.chunks(batch_size)
                .map(|chunk| chunk.iter().map(|&i| record_bytes[i]).sum::<u64>())
        })
        .max()
        .unwrap_or(0)
}

/// The round loop of [`run_batched`], then the final stage.
/// `after_round` runs once per completed round (checkpointing hook); its
/// error aborts the run. The engine's governor is consulted here: the
/// deadline at round boundaries (and cooperatively inside rounds), the
/// memory budget before each round via the pressure ladder described in
/// the module docs.
fn run_rounds<F>(
    engine: &TwoStage,
    config: &BatchConfig,
    known: &Dataset,
    unknown: &Dataset,
    mut survivors: Vec<Vec<usize>>,
    mut rounds_done: u64,
    mut after_round: F,
) -> Result<Vec<RankedMatch>, BatchError>
where
    F: FnMut(u64, &[Vec<usize>]) -> Result<(), BatchError>,
{
    // The same figure `BatchConfig::derive` budgets with.
    let overhead = budget_overhead_bytes(unknown);
    let unknown = Unknowns::new(unknown, known.lexicon());
    let metrics = &engine.config().metrics;
    let govern = &engine.config().govern;
    let deadline = &govern.deadline;
    let rounds = metrics.counter("batch.rounds");
    let peak_pool = metrics.gauge("batch.peak_pool");
    // Per-record byte estimates, computed once; the ladder re-measures
    // every round because pools shrink and batches re-chunk as B halves.
    let record_bytes: Option<Vec<u64>> = govern.budget.map(|_| {
        known
            .records
            .iter()
            .map(EstimateBytes::estimate_bytes)
            .collect()
    });
    let mut batch_size = config.batch_size;
    // Iterate rounds until every unknown's pool fits in one batch. Each
    // round applies k-attribution within batches of B. With B > k every
    // full batch drops members, so each round strictly shrinks the
    // largest pool; with B <= k every batch keeps all its members, a
    // round would change nothing, and the final stage takes the pools
    // as they are.
    loop {
        let max_pool = survivors.iter().map(Vec::len).max().unwrap_or(0);
        peak_pool.set_max(max_pool as i64);
        if max_pool <= batch_size {
            break;
        }
        if deadline.check(rounds_done).is_err() {
            metrics.counter("govern.deadline_expired").incr();
            return Err(BatchError::Govern(GovernError::DeadlineExpired {
                rounds_done,
            }));
        }
        // Pressure ladder: measure the upcoming round's peak batch
        // footprint and halve B until it fits the budget (floor 1: at
        // B = 1 the round runs best-effort). B never grows back, so a
        // governed run's round structure is a deterministic function of
        // the corpus and the budget, never of transient timing.
        if let (Some(budget), Some(record_bytes)) = (govern.budget, &record_bytes) {
            loop {
                let measured = overhead + peak_round_bytes(&survivors, record_bytes, batch_size);
                metrics
                    .gauge("govern.bytes_estimated")
                    .set_max(measured as i64);
                if measured <= budget.bytes() || batch_size <= 1 {
                    break;
                }
                batch_size = (batch_size / 2).max(1);
                metrics.counter("govern.batch_shrinks").incr();
                metrics.gauge("batch.batch_size").set(batch_size as i64);
            }
        }
        if batch_size <= engine.config().k {
            break;
        }
        rounds.incr();
        // A mid-round expiry discards the whole round's partial work —
        // all-or-nothing — so the surviving pools (and any checkpoint)
        // only ever hold completed rounds, keeping resumed output bytes
        // independent of where the clock ran out and of thread count.
        let expired = || {
            metrics.counter("govern.deadline_expired").incr();
            BatchError::Govern(GovernError::DeadlineExpired { rounds_done })
        };
        // Pool groups reduce independently of each other: fan them out
        // over the worker pool, then put each member's new pool back in
        // its slot.
        let groups = pool_groups(&survivors);
        let threads = engine.config().effective_threads();
        let reduced =
            darklight_par::par_map_deadline(&groups, threads, deadline, |_, (pool, members)| {
                batched_round(engine, batch_size, known, &unknown, pool, members, deadline)
            })
            .map_err(|_| expired())?;
        let mut next = vec![Vec::new(); survivors.len()];
        for ((_, members), pools) in groups.iter().zip(reduced) {
            for (&u, pool) in members.iter().zip(pools.map_err(|_| expired())?) {
                next[u] = pool;
            }
        }
        survivors = next;
        rounds_done += 1;
        after_round(rounds_done, &survivors)?;
        deadline.tick_round();
    }
    Ok(finalize(engine, known, &unknown, &survivors))
}

/// The unit both a round and the final step map over: each distinct
/// pool, with the unknowns holding it in ascending order. Groups come
/// out in pool order (a `BTreeMap`, not a hash), though nothing depends
/// on it: each group's results go back to its members' slots.
fn pool_groups(pools: &[Vec<usize>]) -> Vec<(&[usize], Vec<usize>)> {
    let mut groups: BTreeMap<&[usize], Vec<usize>> = BTreeMap::new();
    for (u, pool) in pools.iter().enumerate() {
        groups.entry(pool).or_default().push(u);
    }
    groups.into_iter().collect()
}

/// Stage 1 of the unknowns `members` among the known records
/// `candidates` only: one fit on those records, then each member's k
/// best of them, indexed into the known set.
fn reduce_among(
    engine: &TwoStage,
    known: &Dataset,
    unknown: &Unknowns<'_>,
    candidates: &[usize],
    members: &[usize],
) -> Vec<Vec<Ranked>> {
    let candidate_views: Vec<DocView<'_>> = candidates
        .iter()
        .map(|&i| DocView::of(&known.records[i]))
        .collect();
    let queries: Vec<DocView<'_>> = members.iter().map(|&u| unknown.view(u)).collect();
    engine
        .reduce_views(&candidate_views, &queries)
        .into_iter()
        .map(|ranked| {
            ranked
                .into_iter()
                .map(|r| Ranked {
                    index: candidates[r.index],
                    score: r.score,
                })
                .collect()
        })
        .collect()
}

/// Final stage: stage 1 once per distinct surviving pool, queried by
/// every unknown holding it, then stage 2 for each unknown against its
/// k candidates.
fn finalize(
    engine: &TwoStage,
    known: &Dataset,
    unknown: &Unknowns<'_>,
    survivors: &[Vec<usize>],
) -> Vec<RankedMatch> {
    let metrics = &engine.config().metrics;
    let pool_sizes = metrics.histogram("batch.final_pool_size");
    for pool in survivors {
        pool_sizes.record(pool.len() as u64);
    }
    let mut stage1: Vec<Vec<Ranked>> = vec![Vec::new(); survivors.len()];
    for (pool, members) in pool_groups(survivors) {
        if pool.is_empty() {
            continue;
        }
        for (&u, ranked) in members
            .iter()
            .zip(reduce_among(engine, known, unknown, pool, &members))
        {
            stage1[u] = ranked;
        }
    }
    engine.rescore_views(&DocView::all(known), &unknown.views(), stage1)
}

/// One batched k-attribution round of a pool group: the unknowns
/// `members`, which all hold `pool`, reduce among each batch of it in
/// turn and keep the k best of every batch. Returns each member's new
/// pool, in `members` order.
///
/// Checks `deadline` before each batch so an expired run stops within one
/// batch of work; the partial round is discarded by the caller.
fn batched_round(
    engine: &TwoStage,
    batch_size: usize,
    known: &Dataset,
    unknown: &Unknowns<'_>,
    pool: &[usize],
    members: &[usize],
    deadline: &Deadline,
) -> Result<Vec<Vec<usize>>, Expired> {
    let mut new_pools: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
    for batch in pool.chunks(batch_size) {
        if deadline.is_expired() {
            return Err(Expired);
        }
        let reduced = reduce_among(engine, known, unknown, batch, members);
        for (slot, ranked) in new_pools.iter_mut().zip(reduced) {
            slot.extend(ranked.iter().map(|r| r.index));
        }
    }
    for p in &mut new_pools {
        p.sort_unstable();
        p.dedup();
    }
    Ok(new_pools)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::twostage::TwoStageConfig;
    use darklight_corpus::model::{Corpus, Post, User};

    /// Twelve authors with distinct vocabularies; known + unknown halves.
    fn world() -> (Dataset, Dataset) {
        let vocabs = [
            "kayak paddle rapids portage",
            "espresso grinder portafilter crema",
            "orchid repotting perlite humidity",
            "violin rosin luthier vibrato",
            "falconry jesses tiercel mews",
            "pottery kiln glaze stoneware",
            "beekeeping hive frames nectar",
            "origami crease valley tessellation",
            "astronomy nebula telescope eyepiece",
            "fencing parry riposte piste",
            "calligraphy nib flourish gouache",
            "mycology spores substrate fruiting",
        ];
        let mut known = Corpus::new("known");
        let mut unknown = Corpus::new("unknown");
        let base = 1_486_375_200i64;
        for (pid, vocab) in vocabs.iter().enumerate() {
            let words: Vec<&str> = vocab.split(' ').collect();
            for (half, corpus) in [(0usize, &mut known), (1, &mut unknown)] {
                let mut u = User::new(format!("user{pid}_{half}"), Some(pid as u64));
                for i in 0..35i64 {
                    let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400;
                    let w1 = words[i as usize % words.len()];
                    let w2 = words[(i as usize + 1) % words.len()];
                    u.posts.push(Post::new(
                        format!("my notes about {w1} mention the {w2} setup and more {w1} details for the club"),
                        ts,
                    ));
                }
                corpus.users.push(u);
            }
        }
        let b = DatasetBuilder::new();
        (b.build(&known), b.build(&unknown))
    }

    fn engine() -> TwoStage {
        TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            ..TwoStageConfig::default()
        })
    }

    /// A fresh checkpoint path: no file there yet.
    fn ckpt_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("darklight_batch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Runs `config` checkpointing at `path` under a one-round deadline,
    /// asserting the round the run was killed at and the checkpoint it
    /// leaves on disk.
    fn kill_after_round(config: &BatchConfig, path: &Path, killed_at: u64) {
        let (known, unknown) = world();
        let e = TwoStage::new(TwoStageConfig {
            govern: darklight_govern::GovernConfig {
                deadline: Deadline::after_rounds(1),
                ..darklight_govern::GovernConfig::default()
            },
            ..engine().config().clone()
        });
        let err = run_batched(&e, config, &known, &unknown, Some(path)).unwrap_err();
        assert!(
            matches!(
                err,
                BatchError::Govern(GovernError::DeadlineExpired { rounds_done }) if rounds_done == killed_at
            ),
            "{err}"
        );
        assert!(path.exists(), "checkpoint persisted at the kill point");
    }

    #[test]
    fn batched_matches_true_authors() {
        let (known, unknown) = world();
        let results = run_batched(
            &engine(),
            &BatchConfig { batch_size: 4 },
            &known,
            &unknown,
            None,
        )
        .unwrap();
        for m in &results {
            let best = m.best().expect("candidates exist");
            assert_eq!(
                known.records[best.index].persona, unknown.records[m.unknown].persona,
                "unknown {}",
                m.unknown
            );
        }
    }

    #[test]
    fn batched_agrees_with_unbatched_on_top_match() {
        let (known, unknown) = world();
        let e = engine();
        let unbatched = e.run(&known, &unknown);
        let batched =
            run_batched(&e, &BatchConfig { batch_size: 5 }, &known, &unknown, None).unwrap();
        for (a, b) in unbatched.iter().zip(&batched) {
            assert_eq!(
                a.best().map(|r| r.index),
                b.best().map(|r| r.index),
                "unknown {}",
                a.unknown
            );
        }
    }

    /// Every index and score bit of a ranking, for exact comparisons.
    type Bits = Vec<(usize, Vec<(usize, u64)>, Vec<(usize, u64)>)>;

    fn bits(ranked: &[RankedMatch]) -> Bits {
        let list = |rs: &[Ranked]| rs.iter().map(|r| (r.index, r.score.to_bits())).collect();
        ranked
            .iter()
            .map(|m| (m.unknown, list(&m.stage1), list(&m.stage2)))
            .collect()
    }

    #[test]
    fn huge_batch_equals_single_round() {
        // One batch holds the whole known set: no round runs, and the
        // final step is one stage-1 fit that every unknown queries — the
        // unbatched pipeline, down to the score bits.
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let e = engine();
        let metrics = PipelineMetrics::enabled();
        let batched = run_batched(
            &TwoStage::new(e.config().clone().with_metrics(metrics.clone())),
            &BatchConfig {
                batch_size: known.len() + 10,
            },
            &known,
            &unknown,
            None,
        )
        .unwrap();
        assert_eq!(bits(&batched), bits(&e.run(&known, &unknown)));
        assert_eq!(metrics.counter("batch.rounds").get(), 0);
        assert_eq!(metrics.counter("features.fits").get(), 1);
    }

    #[test]
    fn metrics_track_rounds_and_pools() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            ..TwoStageConfig::default()
        });
        run_batched(&e, &BatchConfig { batch_size: 4 }, &known, &unknown, None).unwrap();
        // Twelve known aliases in batches of four need at least one
        // reduction round before pools fit a single batch.
        assert!(metrics.counter("batch.rounds").get() >= 1);
        assert_eq!(metrics.gauge("batch.peak_pool").get(), known.len() as i64);
        assert_eq!(
            metrics.histogram("batch.final_pool_size").count(),
            unknown.len() as u64
        );
        assert_eq!(metrics.timer("batch.total").count(), 1);
    }

    #[test]
    fn batch_no_larger_than_k_terminates() {
        // With batch_size <= k every batch keeps all its members, so no
        // round can shrink the pool; the driver must run none instead of
        // looping forever, and the final stage still ranks every unknown
        // against its (oversized) pool.
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            ..TwoStageConfig::default()
        });
        let results =
            run_batched(&e, &BatchConfig { batch_size: 3 }, &known, &unknown, None).unwrap();
        assert_eq!(metrics.counter("batch.rounds").get(), 0);
        // One fit, for the whole known set every unknown still shares.
        assert_eq!(metrics.counter("features.fits").get(), 1);
        assert_eq!(results.len(), unknown.len());
        for m in &results {
            let best = m.best().expect("candidates exist");
            assert_eq!(
                known.records[best.index].persona,
                unknown.records[m.unknown].persona
            );
        }
    }

    #[test]
    fn empty_documents_flow_through_batched_pipeline() {
        // An alias whose every post is empty vectorizes to the zero
        // vector (no n-grams, no activity profile) — the classic NaN
        // factory. It must ride through reduction, rescoring, and the
        // batched driver without panicking, in both roles.
        let (mut known_c, mut unknown_c) = (Corpus::new("known"), Corpus::new("unknown"));
        let base = 1_486_375_200i64;
        let vocabs = [
            "kayak paddle rapids portage",
            "espresso grinder portafilter crema",
            "orchid repotting perlite humidity",
        ];
        for (pid, vocab) in vocabs.iter().enumerate() {
            let words: Vec<&str> = vocab.split(' ').collect();
            for (half, corpus) in [(0usize, &mut known_c), (1, &mut unknown_c)] {
                let mut u = User::new(format!("user{pid}_{half}"), Some(pid as u64));
                for i in 0..20i64 {
                    let ts = base + i * 86_400;
                    let w = words[i as usize % words.len()];
                    u.posts
                        .push(Post::new(format!("more notes about {w} today"), ts));
                }
                corpus.users.push(u);
            }
        }
        for (alias, corpus) in [
            ("ghost_known", &mut known_c),
            ("ghost_unknown", &mut unknown_c),
        ] {
            let mut ghost = User::new(alias, None);
            ghost.posts.push(Post::new("", base));
            corpus.users.push(ghost);
        }
        let b = DatasetBuilder::new();
        let (known, unknown) = (b.build(&known_c), b.build(&unknown_c));
        let e = engine();
        let ranked =
            run_batched(&e, &BatchConfig { batch_size: 2 }, &known, &unknown, None).unwrap();
        assert_eq!(ranked.len(), unknown.len());
        // No NaN escapes into the final rankings' accepted candidates,
        // and every real unknown still finds its true author.
        for m in &ranked {
            for r in &m.stage2 {
                assert!(!r.score.is_nan(), "NaN leaked for unknown {}", m.unknown);
            }
        }
        for m in ranked.iter().take(vocabs.len()) {
            let best = m.best().expect("candidates exist");
            assert_eq!(
                known.records[best.index].persona,
                unknown.records[m.unknown].persona
            );
        }
    }

    #[test]
    fn zero_batch_is_a_typed_error() {
        let (known, unknown) = world();
        let err = run_batched(
            &engine(),
            &BatchConfig { batch_size: 0 },
            &known,
            &unknown,
            None,
        )
        .unwrap_err();
        assert!(
            matches!(&err, BatchError::InvalidConfig(why) if why.contains("positive")),
            "{err}"
        );
    }

    #[test]
    fn checkpointed_run_matches_plain_and_cleans_up() {
        // No file at the path is a fresh run, not an error.
        let (known, unknown) = world();
        let e = engine();
        let config = BatchConfig { batch_size: 4 };
        let plain = run_batched(&e, &config, &known, &unknown, None).unwrap();
        let path = ckpt_path("clean_run.ckpt");
        let ck = run_batched(&e, &config, &known, &unknown, Some(&path)).unwrap();
        assert_eq!(plain, ck);
        assert!(!path.exists(), "checkpoint removed on success");
    }

    #[test]
    fn stale_tmp_from_crashed_save_is_cleaned_at_start() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            ..TwoStageConfig::default()
        });
        let config = BatchConfig { batch_size: 4 };
        let path = ckpt_path("stale_tmp.ckpt");
        let stale = path.with_extension("tmp");
        std::fs::write(&stale, b"half-written garbage from a crashed save").unwrap();
        let plain = run_batched(&e, &config, &known, &unknown, None).unwrap();
        let ck = run_batched(&e, &config, &known, &unknown, Some(&path)).unwrap();
        assert_eq!(plain, ck, "stale tmp must not perturb the run");
        assert!(!stale.exists(), "stale tmp file removed at startup");
        assert_eq!(metrics.counter("govern.tmp_cleaned").get(), 1);
    }

    #[test]
    fn interrupted_run_resumes_to_identical_output() {
        let (known, unknown) = world();
        let e = engine();
        // batch_size 4 gives real multi-round shrinkage (12 → 9 → 7 → …),
        // so a one-round deadline kills the run twice before it ends:
        // the second resume starts from a checkpoint a resumed run wrote.
        let config = BatchConfig { batch_size: 4 };
        let plain = run_batched(&e, &config, &known, &unknown, None).unwrap();
        let path = ckpt_path("kill_resume.ckpt");
        kill_after_round(&config, &path, 1);
        kill_after_round(&config, &path, 2);
        let resumed = run_batched(&e, &config, &known, &unknown, Some(&path)).unwrap();
        assert_eq!(plain, resumed, "resumed output must be identical");
        assert!(!path.exists());
    }

    #[test]
    fn mismatched_fingerprint_is_refused() {
        let (known, unknown) = world();
        let path = ckpt_path("mismatch.ckpt");
        kill_after_round(&BatchConfig { batch_size: 4 }, &path, 1);
        // Same checkpoint, different batch size: a different run.
        let err = run_batched(
            &engine(),
            &BatchConfig { batch_size: 5 },
            &known,
            &unknown,
            Some(&path),
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                BatchError::Checkpoint {
                    error: StoreError::FingerprintMismatch { .. },
                    ..
                }
            ),
            "{err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("mismatch.ckpt") && msg.contains("start fresh"),
            "{msg}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_codec_round_trips_byte_for_byte() {
        let (known, unknown) = world();
        let pools: Vec<Vec<usize>> = (0..unknown.len())
            .map(|u| (u % 3..known.len()).step_by(u + 1).collect())
            .collect();
        let bytes = encode_checkpoint(0xdead_beef, 3, &pools).to_bytes();
        // Saving the same state twice writes the same bytes: resumes
        // are byte-identical only if checkpoints are.
        assert_eq!(bytes, encode_checkpoint(0xdead_beef, 3, &pools).to_bytes());
        let c = Container::from_bytes(&bytes).unwrap();
        assert_eq!(
            decode_checkpoint(&c, 0xdead_beef, &known, &unknown).unwrap(),
            (pools.clone(), 3)
        );
        assert!(matches!(
            decode_checkpoint(&c, 0xdead_bee0, &known, &unknown),
            Err(StoreError::FingerprintMismatch {
                expected: 0xdead_bee0,
                found: 0xdead_beef
            })
        ));
        // Pools that do not fit the datasets are typed errors: one pool
        // short, or an index past the known set.
        let short = encode_checkpoint(1, 3, &pools[1..]);
        let err = decode_checkpoint(&short, 1, &known, &unknown).unwrap_err();
        assert!(err.to_string().contains("do not fit"), "{err}");
        let mut wide = pools;
        wide[0].push(known.len());
        let wide = encode_checkpoint(1, 3, &wide);
        let err = decode_checkpoint(&wide, 1, &known, &unknown).unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "{err}");
    }

    /// Resuming from `bytes` must fail typed before any round runs.
    fn assert_refused(
        (known, unknown): &(Dataset, Dataset),
        path: &Path,
        bytes: &[u8],
        what: &str,
    ) -> StoreError {
        use darklight_obs::PipelineMetrics;
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            ..TwoStageConfig::default()
        });
        std::fs::write(path, bytes).unwrap();
        let config = BatchConfig { batch_size: 4 };
        match run_batched(&e, &config, known, unknown, Some(path)) {
            Err(BatchError::Checkpoint { path: at, error }) => {
                assert_eq!(at, path);
                assert_eq!(metrics.counter("batch.resumed").get(), 0, "{what}");
                assert_eq!(metrics.counter("batch.rounds").get(), 0, "{what}");
                assert_eq!(metrics.counter("govern.io_retries").get(), 0, "{what}");
                error
            }
            other => panic!("{what}: expected a typed checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_or_foreign_checkpoints_are_refused_never_resumed() {
        let world = world();
        let (known, unknown) = &world;
        let config = BatchConfig { batch_size: 4 };
        let path = ckpt_path("corrupt.ckpt");
        kill_after_round(&config, &path, 1);
        let clean = std::fs::read(&path).unwrap();
        // One flipped bit anywhere — a survivor index, a count, the
        // fingerprint, a frame field — fails a CRC instead of resuming
        // with quietly different pools.
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 1;
            assert_refused(&world, &path, &bad, &format!("bit 0 of byte {i} flipped"));
        }
        // Every torn write, down to an empty file.
        for keep in 0..clean.len() {
            assert_refused(
                &world,
                &path,
                &clean[..keep],
                &format!("truncated to {keep} bytes"),
            );
        }
        // A checkpoint in the earlier JSON format is not a container.
        let c = Container::from_bytes(&clean).unwrap();
        let fingerprint = run_fingerprint(&engine(), &config, known, unknown);
        let (pools, rounds_done) = decode_checkpoint(&c, fingerprint, known, unknown).unwrap();
        let json = format!(
            "{{\"version\": 1, \"fingerprint\": {fingerprint}, \"rounds_done\": {rounds_done}, \"survivors\": {pools:?}}}\n"
        );
        let error = assert_refused(&world, &path, json.as_bytes(), "earlier JSON format");
        assert!(matches!(error, StoreError::Malformed(_)), "{error}");
        // The intact checkpoint still resumes to the uninterrupted bytes.
        std::fs::write(&path, &clean).unwrap();
        let plain = run_batched(&engine(), &config, known, unknown, None).unwrap();
        let resumed = run_batched(&engine(), &config, known, unknown, Some(&path)).unwrap();
        assert_eq!(plain, resumed);
    }

    #[test]
    fn fingerprint_tracks_content_not_metrics() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let config = BatchConfig { batch_size: 4 };
        let plain = engine();
        let with_metrics = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 7,
            metrics: PipelineMetrics::enabled(),
            ..TwoStageConfig::default()
        });
        // Metrics and thread count must not invalidate a checkpoint...
        assert_eq!(
            run_fingerprint(&plain, &config, &known, &unknown),
            run_fingerprint(&with_metrics, &config, &known, &unknown)
        );
        // ...but config and corpus changes must.
        let other_k = TwoStage::new(TwoStageConfig {
            k: 4,
            threads: 2,
            ..TwoStageConfig::default()
        });
        assert_ne!(
            run_fingerprint(&plain, &config, &known, &unknown),
            run_fingerprint(&other_k, &config, &known, &unknown)
        );
        assert_ne!(
            run_fingerprint(&plain, &config, &known, &unknown),
            run_fingerprint(&plain, &config, &unknown, &known)
        );
    }

    #[test]
    fn derive_picks_largest_admissible_batch() {
        let (known, unknown) = world();
        let overhead = budget_overhead_bytes(&unknown);
        let per = budget_per_candidate_bytes(&known);
        // Room for exactly five worst-case candidates alongside the
        // unknown set.
        let budget = MemoryBudget::from_bytes(overhead + 5 * per).unwrap();
        let config = BatchConfig::derive(&budget, &known, &unknown).unwrap();
        assert_eq!(config.batch_size, 5);
        // A vast budget clamps to the whole known set (one round).
        let vast = MemoryBudget::from_bytes(u64::MAX).unwrap();
        assert_eq!(
            BatchConfig::derive(&vast, &known, &unknown)
                .unwrap()
                .batch_size,
            known.len()
        );
        // Less than one candidate's worth of headroom is infeasible and
        // must fail with the typed, actionable error.
        let tiny = MemoryBudget::from_bytes(overhead + per - 1).unwrap();
        let err = BatchConfig::derive(&tiny, &known, &unknown).unwrap_err();
        assert!(matches!(err, GovernError::BudgetTooSmall { .. }), "{err}");
    }

    /// The two halves are built apart, so a run rebases the unknowns'
    /// counts; the overhead must cover that copy beside the caller's set.
    #[test]
    fn overhead_charges_the_rebased_counts() {
        use darklight_features::pipeline::CountedDoc;
        let (known, unknown) = world();
        assert!(
            !unknown.lexicon().compatible(known.lexicon()),
            "separate builds need a rebase"
        );
        let docs: Vec<&CountedDoc> = unknown.records.iter().map(|r| &r.counted).collect();
        let rebased = CountedDoc::rebase_all(&docs, known.lexicon());
        let copy: u64 = rebased
            .iter()
            .map(EstimateBytes::estimate_bytes)
            .sum::<u64>()
            + rebased[0].lexicon().estimate_bytes();
        assert!(budget_overhead_bytes(&unknown) >= unknown.estimate_bytes() + copy);
    }

    #[test]
    fn zero_batch_is_refused_before_checkpoint_io() {
        // A bad config is a typed error with a checkpoint path too, and
        // it surfaces before any checkpoint I/O happens.
        let (known, unknown) = world();
        let bad = BatchConfig { batch_size: 0 };
        let path = ckpt_path("never_written.ckpt");
        let err = run_batched(&engine(), &bad, &known, &unknown, Some(&path)).unwrap_err();
        assert!(matches!(&err, BatchError::InvalidConfig(_)), "{err}");
        assert!(!path.exists(), "validation precedes checkpoint I/O");
    }

    #[test]
    fn governed_budget_run_matches_derived_fixed_batch() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let budget = MemoryBudget::from_bytes(
            budget_overhead_bytes(&unknown) + 5 * budget_per_candidate_bytes(&known),
        )
        .unwrap();
        let config = BatchConfig::derive(&budget, &known, &unknown).unwrap();
        let fixed = run_batched(&engine(), &config, &known, &unknown, None).unwrap();
        let metrics = PipelineMetrics::enabled();
        let governed_engine = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            govern: darklight_govern::GovernConfig {
                budget: Some(budget),
                ..darklight_govern::GovernConfig::default()
            },
            ..TwoStageConfig::default()
        });
        let governed = run_batched(&governed_engine, &config, &known, &unknown, None).unwrap();
        assert_eq!(fixed, governed, "a derived batch size must never shrink");
        assert_eq!(metrics.counter("govern.batch_shrinks").get(), 0);
        assert!(metrics.gauge("govern.bytes_estimated").get() > 0);
    }

    #[test]
    fn pressure_ladder_shrinks_oversized_batches() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        // The budget admits two worst-case candidates per batch but the
        // config demands eight: the ladder must halve 8 -> 4 -> 2 before
        // the first round runs, then hold at 2.
        let budget = MemoryBudget::from_bytes(
            budget_overhead_bytes(&unknown) + 2 * budget_per_candidate_bytes(&known),
        )
        .unwrap();
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            govern: darklight_govern::GovernConfig {
                budget: Some(budget),
                ..darklight_govern::GovernConfig::default()
            },
            ..TwoStageConfig::default()
        });
        let results =
            run_batched(&e, &BatchConfig { batch_size: 8 }, &known, &unknown, None).unwrap();
        assert_eq!(metrics.counter("govern.batch_shrinks").get(), 2);
        assert_eq!(metrics.gauge("batch.batch_size").get(), 2);
        assert!(
            metrics.gauge("govern.bytes_estimated").get() as u64 > budget.bytes(),
            "the breaching estimate is what gets recorded"
        );
        // The degraded run still completes and still links correctly.
        assert_eq!(results.len(), unknown.len());
        for m in &results {
            let best = m.best().expect("candidates exist");
            assert_eq!(
                known.records[best.index].persona,
                unknown.records[m.unknown].persona
            );
        }
        // Shrinking is deterministic: an identical second run produces
        // byte-identical rankings.
        let again =
            run_batched(&e, &BatchConfig { batch_size: 8 }, &known, &unknown, None).unwrap();
        assert_eq!(results, again);
    }

    #[test]
    fn deadline_expiry_checkpoints_and_resumes_identically() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let config = BatchConfig { batch_size: 4 };
        let plain = run_batched(&engine(), &config, &known, &unknown, None).unwrap();
        let metrics = PipelineMetrics::enabled();
        let strict = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            govern: darklight_govern::GovernConfig {
                deadline: Deadline::after_rounds(1),
                ..darklight_govern::GovernConfig::default()
            },
            ..TwoStageConfig::default()
        });
        let path = ckpt_path("deadline_resume.ckpt");
        let err = run_batched(&strict, &config, &known, &unknown, Some(&path)).unwrap_err();
        assert!(
            matches!(
                err,
                BatchError::Govern(GovernError::DeadlineExpired { rounds_done: 1 })
            ),
            "{err}"
        );
        assert_eq!(metrics.counter("govern.deadline_expired").get(), 1);
        assert!(path.exists(), "expiry leaves a valid checkpoint");
        // The governor never reaches the fingerprint, so a fresh engine
        // without a deadline resumes the same run to the same bytes.
        let resumed = run_batched(&engine(), &config, &known, &unknown, Some(&path)).unwrap();
        assert_eq!(plain, resumed, "resume after expiry must be lossless");
        assert!(!path.exists());
    }
}
