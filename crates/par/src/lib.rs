//! # darklight-par — shared worker-pool helpers
//!
//! Every parallel call site in the pipeline used to hand-roll its own
//! `std::thread::scope` chunking, which is exactly the pattern that
//! produced the seed's `top_k_batch` chunk-offset bug: computing a slot's
//! global index as `chunk_position × chunk_len` silently breaks the moment
//! the final chunk is short. This crate centralizes the correct pattern —
//! running-offset chunking over `chunks_mut`/`chunks` pairs that split at
//! identical boundaries — behind two order-preserving helpers:
//!
//! * [`par_map`] — indexed element-wise map: `f(i, &items[i])` for every
//!   `i`, output in input order;
//! * [`par_map_chunks`] — per-shard map for map-reduce accumulation:
//!   `f(shard)` once per contiguous shard, shards returned in order so the
//!   caller's serial merge is deterministic.
//!
//! Both are plain scoped threads (no work stealing, no dependencies): the
//! items are split into at most `threads` contiguous chunks and each chunk
//! runs on its own scoped thread. Output ordering is positional and does
//! not depend on scheduling, so for a pure `f` the result is bit-identical
//! for every thread count — the property the attribution pipeline's
//! determinism contract (threads = N ≡ threads = 1) is built on, and the
//! parity/property suites pin.
//!
//! [`resolve_threads`] turns a configuration knob (`0` = auto) into a
//! concrete worker count. The `DARKLIGHT_THREADS` environment variable
//! overrides auto-detection, which CI uses to run the whole test suite
//! once pinned to one worker and once unpinned; any divergence between the
//! two runs is a scheduling-dependent output bug.
//!
//! ## Panic isolation
//!
//! A panic inside a `par_map` closure unwinds its scoped thread and
//! re-raises when the scope joins, killing the whole process mid-run —
//! acceptable for a bug, ruinous for an hours-long attribution run felled
//! by one poisoned record. [`try_par_map`] wraps every closure call in
//! `catch_unwind`: a panicking item becomes an `Err(`[`WorkerPanic`]`)`
//! slot carrying the item index and the panic payload, every other
//! slot completes normally, and each caught panic
//! increments the `par.worker_panics` counter of the metrics handle the
//! caller passes in. Callers then choose the failure policy per stage:
//! skip-and-record (drop the item, keep the run alive) or fail-fast
//! (re-raise, where a silent hole would corrupt downstream results).
//!
//! The deterministic panic injection the resilience suite drives
//! (`DARKLIGHT_FAULT_PANICS`) lives with the I/O fault hook in
//! `darklight_govern::fault`; instrumented closures call it from inside
//! the wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use darklight_govern::{Deadline, Expired};
use darklight_obs::PipelineMetrics;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Environment variable overriding auto-detected parallelism (`threads ==
/// 0`). Ignored when a caller asks for an explicit thread count.
pub const THREADS_ENV: &str = "DARKLIGHT_THREADS";

/// Resolves a requested thread count to the concrete number of workers.
///
/// * `requested > 0` — used as-is;
/// * `requested == 0` — the `DARKLIGHT_THREADS` environment variable if
///   set to a positive integer, otherwise [`available_parallelism`].
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_parallelism()
}

/// The machine's parallelism ([`std::thread::available_parallelism`]),
/// or **1** (serial, always correct) when it cannot be queried. The
/// fallback is deliberately not a fixed pool size: such a machine should
/// degrade to the configuration whose output every parallel path is
/// defined against, not to four phantom workers.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f(index, item)` over `items` on up to `threads` scoped workers,
/// returning the results in input order.
///
/// The slice is split into `ceil(len / threads)`-sized contiguous chunks;
/// each worker owns one chunk of the output and computes the global index
/// of every slot from a running offset over the *actual* chunk lengths, so
/// a ragged final chunk (e.g. 7 items on 3 workers → 3 + 3 + 1) cannot
/// shift indices. `threads <= 1`, empty input, and single-item input all
/// take the serial path, which is definitionally identical to the parallel
/// one for pure `f`.
///
/// ```
/// let squares = darklight_par::par_map(&[1, 2, 3, 4, 5], 3, |i, &x| (i, x * x));
/// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16), (4, 25)]);
/// ```
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let f = &f;
    std::thread::scope(|scope| {
        // `chunks_mut` and `chunks` split at the same boundaries, so each
        // output chunk pairs positionally with its input chunk; the global
        // index follows from a running offset over actual chunk lengths.
        let mut start = 0usize;
        for (slot, shard) in results.chunks_mut(chunk).zip(items.chunks(chunk)) {
            let begin = start;
            start += slot.len();
            scope.spawn(move || {
                for (off, (out, item)) in slot.iter_mut().zip(shard).enumerate() {
                    *out = Some(f(begin + off, item));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot filled by exactly one worker"))
        .collect()
}

/// Runs `f` once per contiguous shard of `items` on up to `threads` scoped
/// workers, returning one result per shard **in shard order**.
///
/// This is the map side of a map-reduce: each worker accumulates a private
/// partial result over its shard (no shared state, no locks), and the
/// caller folds the returned shards serially. When the fold is commutative
/// and associative over the shard contents — summing term counts, merging
/// frequency maps — the reduced value is identical to a serial pass for
/// every thread count.
///
/// ```
/// let partial = darklight_par::par_map_chunks(&[1u64, 2, 3, 4, 5], 2, |s| {
///     s.iter().sum::<u64>()
/// });
/// assert_eq!(partial.iter().sum::<u64>(), 15);
/// ```
pub fn par_map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        if items.is_empty() {
            return Vec::new();
        }
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(threads);
    let shards: Vec<&[T]> = items.chunks(chunk).collect();
    par_map(&shards, threads, |_, shard| f(shard))
}

/// Like [`par_map`], but cooperatively cancellable: every worker polls
/// `deadline` before each item, and observing expiry abandons the whole
/// map — partial results are discarded and `Err(Expired)` returned, so a
/// cancelled map never leaks half-computed state into the caller.
///
/// Discard-wholesale is what keeps degraded runs thread-count-invariant:
/// *which* items finished before expiry depends on scheduling, but since
/// none of them survive, the caller sees exactly two scheduling-free
/// outcomes — the complete result or `Expired`. Round-counted deadlines
/// ([`Deadline::after_rounds`]) only flip at round boundaries between
/// maps, so for them a given call is deterministically all-or-nothing.
///
/// ```
/// use darklight_govern::Deadline;
/// let ok = darklight_par::par_map_deadline(&[1, 2, 3], 2, &Deadline::none(), |_, &x| x * 2);
/// assert_eq!(ok.unwrap(), vec![2, 4, 6]);
/// let expired = Deadline::after_rounds(0);
/// assert!(darklight_par::par_map_deadline(&[1, 2, 3], 2, &expired, |_, &x| x * 2).is_err());
/// ```
///
/// # Errors
///
/// [`Expired`] when the deadline passed before the map completed.
pub fn par_map_deadline<T, R, F>(
    items: &[T],
    threads: usize,
    deadline: &Deadline,
    f: F,
) -> Result<Vec<R>, Expired>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if deadline.is_expired() {
                return Err(Expired);
            }
            out.push(f(i, item));
        }
        return Ok(out);
    }
    let chunk = items.len().div_ceil(threads);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let f = &f;
    let aborted = &AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut start = 0usize;
        for (slot, shard) in results.chunks_mut(chunk).zip(items.chunks(chunk)) {
            let begin = start;
            start += slot.len();
            scope.spawn(move || {
                for (off, (out, item)) in slot.iter_mut().zip(shard).enumerate() {
                    if deadline.is_expired() {
                        aborted.store(true, Ordering::Relaxed);
                        return;
                    }
                    *out = Some(f(begin + off, item));
                }
            });
        }
    });
    if aborted.load(Ordering::Relaxed) {
        return Err(Expired);
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every slot filled by exactly one worker"))
        .collect())
}

/// A panic caught inside a worker closure, reported as the `Err` slot of
/// [`try_par_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim; anything else is a placeholder).
    pub payload: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.payload
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Stringifies a `catch_unwind` payload, preserving the common cases.
fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// Like [`par_map`], but every closure call is isolated with
/// `catch_unwind`: a panicking item yields `Err(WorkerPanic)` in its slot
/// while every other item completes, and each caught panic increments the
/// `par.worker_panics` counter of `metrics`.
///
/// The output is positional and deterministic exactly like [`par_map`]'s:
/// whether an item panics depends only on `f` and the item, never on
/// scheduling, so degraded runs are bit-identical across thread counts.
///
/// ```
/// use darklight_obs::PipelineMetrics;
/// let metrics = PipelineMetrics::enabled();
/// let out = darklight_par::try_par_map(&[1, 2, 3], 2, &metrics, |_, &x| {
///     assert!(x != 2, "poisoned item");
///     x * 10
/// });
/// assert_eq!(out[0].as_ref().unwrap(), &10);
/// assert!(out[1].is_err());
/// assert_eq!(metrics.counter("par.worker_panics").get(), 1);
/// ```
pub fn try_par_map<T, R, F>(
    items: &[T],
    threads: usize,
    metrics: &PipelineMetrics,
    f: F,
) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let panics = metrics.counter("par.worker_panics");
    let out = par_map(items, threads, |i, item| {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| WorkerPanic {
            index: i,
            payload: payload_to_string(payload),
        })
    });
    for slot in &out {
        if slot.is_err() {
            panics.incr();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_indices() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 3, 5, 8, 64] {
            let out = par_map(&items, threads, |i, &x| {
                assert_eq!(i, x, "index must match item position");
                x * 10
            });
            let want: Vec<usize> = items.iter().map(|&x| x * 10).collect();
            assert_eq!(out, want, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[9u8], 4, |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn par_map_ragged_tail() {
        // 7 items on 3 workers: chunks of 3, 3, 1 — the classic shape that
        // broke offset arithmetic in the seed.
        let items: Vec<usize> = (0..7).collect();
        let out = par_map(&items, 3, |i, _| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn par_map_more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, 16, |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn par_map_chunks_covers_every_item_once() {
        let items: Vec<u64> = (1..=100).collect();
        for threads in [1, 2, 3, 7, 100, 1000] {
            let shards = par_map_chunks(&items, threads, |s| s.to_vec());
            let flat: Vec<u64> = shards.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_chunks_empty() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_chunks(&empty, 4, |s| s.len()).is_empty());
    }

    #[test]
    fn try_par_map_isolates_panics_per_item() {
        let items: Vec<usize> = (0..23).collect();
        let metrics = PipelineMetrics::enabled();
        for threads in [1, 2, 5, 64] {
            let out = try_par_map(&items, threads, &metrics, |_, &x| {
                assert!(x % 7 != 3, "poisoned item {x}");
                x * 2
            });
            for (i, slot) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let err = slot.as_ref().unwrap_err();
                    assert_eq!(err.index, i);
                    assert!(err.payload.contains("poisoned item"), "{}", err.payload);
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i * 2, "threads = {threads}");
                }
            }
        }
        // 23 items, indices 3, 10, 17 poisoned, across four thread counts.
        assert_eq!(metrics.counter("par.worker_panics").get(), 12);
    }

    #[test]
    fn try_par_map_all_ok_matches_par_map() {
        let items: Vec<u32> = (0..9).collect();
        let metrics = PipelineMetrics::disabled();
        let out = try_par_map(&items, 3, &metrics, |i, &x| (i, x + 1));
        let want: Vec<_> = par_map(&items, 3, |i, &x| (i, x + 1));
        assert_eq!(
            out.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
            want
        );
    }

    #[test]
    fn try_par_map_preserves_string_payloads() {
        let metrics = PipelineMetrics::disabled();
        let out = try_par_map(&[0u8], 1, &metrics, |_, _| -> u8 {
            panic!("owned {} payload", "string");
        });
        assert_eq!(out[0].as_ref().unwrap_err().payload, "owned string payload");
        let out = try_par_map(&[0u8], 1, &metrics, |_, _| -> u8 {
            std::panic::panic_any(42i32);
        });
        assert_eq!(
            out[0].as_ref().unwrap_err().payload,
            "<non-string panic payload>"
        );
    }

    #[test]
    fn par_map_deadline_without_deadline_matches_par_map() {
        let items: Vec<usize> = (0..37).collect();
        let want = par_map(&items, 1, |i, &x| i * x);
        for threads in [1, 2, 3, 7, 64] {
            let out = par_map_deadline(&items, threads, &Deadline::none(), |i, &x| i * x);
            assert_eq!(out.unwrap(), want, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_deadline_expiry_is_all_or_nothing() {
        let items: Vec<usize> = (0..37).collect();
        let expired = Deadline::after_rounds(0);
        for threads in [1, 2, 7] {
            let out = par_map_deadline(&items, threads, &expired, |_, &x| x);
            assert!(out.is_err(), "threads = {threads}");
        }
        // Empty input with a live token is a complete (empty) result.
        let empty: Vec<u8> = Vec::new();
        assert_eq!(
            par_map_deadline(&empty, 4, &Deadline::none(), |_, &x| x).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn resolve_explicit_request_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
    }

    #[test]
    fn resolve_auto_is_positive() {
        assert!(resolve_threads(0) >= 1);
    }
}
