//! Deterministic fault injection: the workspace's one hook.
//!
//! Two environment variables feed one spec, parsed once per process by
//! one entry parser:
//!
//! * `DARKLIGHT_FAULT_PANICS` — comma-separated `site:index` entries.
//!   Instrumented closures call [`maybe_panic`] with their site and item
//!   index; a listed pair panics with a recognizable message, which the
//!   `try_par_map` wrappers of `darklight-par` isolate. Sites:
//!   `polish.user`, `twostage.vectorize_query` (skip-tolerant),
//!   `twostage.vectorize_known` (fires per fitted document after the
//!   stage-1 fit, in a pass of its own, and drops the document it hits
//!   to the zero vector; a panic inside the fit itself is fatal) and
//!   `twostage.rescore` (fail-fast). An injection depends only on
//!   (site, index) — never on thread count or scheduling — so a
//!   degraded run is as deterministic as a healthy one.
//! * `DARKLIGHT_FAULT_IO` — comma-separated entries of three modes for
//!   the I/O call sites, which consult [`maybe_fail_io`] before touching
//!   the filesystem:
//!   * `site:count` — a **countdown**: the first `count` calls at `site`
//!     fail with a synthetic [`std::io::Error`] and every later call
//!     succeeds — exactly the shape a transient-outage regression test
//!     needs (set the count below the retry budget and the run must
//!     recover; above it and the run must surface a typed error);
//!   * `trunc:<site>:<bytes>` — the write is torn: only the first
//!     `<bytes>` bytes reach the file (a crash mid-`write`);
//!   * `flip:<site>:<byte-offset>` — the byte at `<byte-offset>` is
//!     XOR-ed with `0xff` before hitting the disk (a torn sector or
//!     bit rot that the rename discipline alone cannot catch).
//!
//!   The two corruption modes are one-shot (they fire on the first write
//!   at the site and never again) and are consumed via
//!   [`take_write_fault`] by call sites that buffer their output bytes.
//!   Modes mix freely: `DARKLIGHT_FAULT_IO=trunc:store.write_artifact:64,corpus.read:1`.
//!   I/O sites: `checkpoint.save`, `checkpoint.load` (batched attribution
//!   in `darklight-core`), `corpus.read` (the CLI ingestion path), and the
//!   artifact sites of `darklight-store` (`store.write_artifact`,
//!   `store.publish_rename`, `store.current_swap`).
//!
//! With both variables unset every hook is one `OnceLock` read and an
//! empty scan. Malformed entries are skipped.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable listing `site:index` panic injection points.
pub const FAULT_PANICS_ENV: &str = "DARKLIGHT_FAULT_PANICS";

/// Environment variable holding comma-separated I/O fault entries:
/// either `site:count` (fail-count mode), `trunc:site:bytes`, or
/// `flip:site:byte-offset`.
pub const FAULT_IO_ENV: &str = "DARKLIGHT_FAULT_IO";

/// A one-shot corruption to apply to a buffered write at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Keep only the first `n` bytes of the write (torn write).
    Truncate(usize),
    /// XOR the byte at this offset with `0xff` (bit rot). Offsets past
    /// the end of the buffer leave it untouched.
    FlipByte(usize),
}

impl WriteFault {
    /// Applies this corruption to a byte buffer about to be written.
    pub fn corrupt(self, bytes: &mut Vec<u8>) {
        match self {
            WriteFault::Truncate(n) => bytes.truncate(n),
            WriteFault::FlipByte(off) => {
                if let Some(b) = bytes.get_mut(off) {
                    *b ^= 0xff;
                }
            }
        }
    }
}

struct Slot {
    site: String,
    remaining: AtomicU64,
}

struct CorruptSlot {
    site: String,
    fault: WriteFault,
    armed: AtomicBool,
}

#[derive(Default)]
struct Spec {
    panics: Vec<(String, usize)>,
    counts: Vec<Slot>,
    corruptions: Vec<CorruptSlot>,
}

/// Parses one entry of the variable `var` into `spec`. Every entry ends
/// in `:<number>`; what the head before it means depends on the
/// variable (and, for I/O entries, on a `trunc:`/`flip:` prefix).
fn parse_entry(var: &str, entry: &str, spec: &mut Spec) {
    let Some((head, n)) = entry.trim().rsplit_once(':') else {
        return;
    };
    let Ok(n) = n.trim().parse::<usize>() else {
        return;
    };
    let head = head.trim();
    if var == FAULT_PANICS_ENV {
        spec.panics.push((head.to_string(), n));
        return;
    }
    let corruption = if let Some(site) = head.strip_prefix("trunc:") {
        Some((site, WriteFault::Truncate(n)))
    } else {
        head.strip_prefix("flip:")
            .map(|site| (site, WriteFault::FlipByte(n)))
    };
    match corruption {
        Some((site, fault)) => spec.corruptions.push(CorruptSlot {
            site: site.trim().to_string(),
            fault,
            armed: AtomicBool::new(true),
        }),
        None => spec.counts.push(Slot {
            site: head.to_string(),
            remaining: AtomicU64::new(n as u64),
        }),
    }
}

fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let mut spec = Spec::default();
        for var in [FAULT_PANICS_ENV, FAULT_IO_ENV] {
            if let Ok(raw) = std::env::var(var) {
                for entry in raw.split(',') {
                    parse_entry(var, entry, &mut spec);
                }
            }
        }
        spec
    })
}

/// `true` when `site:index` is listed in `DARKLIGHT_FAULT_PANICS`.
pub fn is_injected(site: &str, index: usize) -> bool {
    spec().panics.iter().any(|(s, i)| s == site && *i == index)
}

/// Panics iff `site:index` is a panic injection point. Call from inside
/// a worker closure that a `try_par_map` wrapper isolates.
pub fn maybe_panic(site: &str, index: usize) {
    if is_injected(site, index) {
        panic!("injected fault at {site}:{index}");
    }
}

/// True when an I/O fault should fire for this call at `site` (consumes
/// one unit of the site's countdown).
fn take(site: &str) -> bool {
    for slot in &spec().counts {
        if slot.site == site {
            // Decrement-if-positive: the first `count` calls fault.
            return slot
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
        }
    }
    false
}

/// Takes the one-shot write corruption armed for `site`, if any. The
/// first call at the site consumes it; later calls see `None`, so a
/// retry after the injected corruption writes clean bytes — exactly the
/// "transient torn write" shape a recovery test needs.
pub fn take_write_fault(site: &str) -> Option<WriteFault> {
    for slot in &spec().corruptions {
        if slot.site == site && slot.armed.swap(false, Ordering::Relaxed) {
            return Some(slot.fault);
        }
    }
    None
}

/// Fails with a synthetic, retry-classifiable [`std::io::Error`] while
/// the site's fault countdown is positive.
///
/// # Errors
///
/// An [`std::io::ErrorKind::Interrupted`] error naming the site — the
/// kind every retry classifier treats as transient.
pub fn maybe_fail_io(site: &str) -> std::io::Result<()> {
    if take(site) {
        Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("injected i/o fault at {site} ({FAULT_IO_ENV})"),
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `spec()` latches the environment once per process, so these tests
    // exercise the parser indirectly: with both variables unset (the
    // normal `cargo test` environment) every site must pass. The hooks'
    // behaviour itself is pinned end-to-end by the fault-injection,
    // govern-soak and store-crash suites and the CLI fault tests, which
    // own their process environment.
    #[test]
    fn unset_environment_injects_nothing() {
        assert!(!take("checkpoint.save"));
        assert!(maybe_fail_io("checkpoint.save").is_ok());
        assert!(maybe_fail_io("no.such.site").is_ok());
        assert!(take_write_fault("store.write_artifact").is_none());
        assert!(!is_injected("any.site", 0));
        maybe_panic("any.site", 0);
    }

    fn parse(var: &str, raw: &str, spec: &mut Spec) {
        for entry in raw.split(',') {
            parse_entry(var, entry, spec);
        }
    }

    // The parser itself is pure, so it can be pinned directly without
    // touching the process environment.
    #[test]
    fn parser_understands_all_three_modes() {
        let mut spec = Spec::default();
        parse(
            FAULT_IO_ENV,
            "checkpoint.save:2, trunc:store.write_artifact:64 ,flip:store.write_artifact:9",
            &mut spec,
        );
        parse(
            FAULT_PANICS_ENV,
            "polish.user:1, twostage.vectorize_known:3",
            &mut spec,
        );
        assert_eq!(spec.counts.len(), 1);
        assert_eq!(spec.counts[0].site, "checkpoint.save");
        assert_eq!(spec.counts[0].remaining.load(Ordering::Relaxed), 2);
        assert_eq!(spec.corruptions.len(), 2);
        assert_eq!(spec.corruptions[0].site, "store.write_artifact");
        assert_eq!(spec.corruptions[0].fault, WriteFault::Truncate(64));
        assert_eq!(spec.corruptions[1].fault, WriteFault::FlipByte(9));
        // A bare `site:n` means a countdown in the I/O variable and an
        // injection point in the panic variable.
        assert_eq!(
            spec.panics,
            [
                ("polish.user".to_string(), 1),
                ("twostage.vectorize_known".to_string(), 3)
            ]
        );
    }

    #[test]
    fn parser_skips_malformed_entries() {
        let mut spec = Spec::default();
        parse(
            FAULT_IO_ENV,
            "trunc:nobytes,flip:site:notanumber,bare,site:3",
            &mut spec,
        );
        parse(FAULT_PANICS_ENV, "nosite,polish.user:x,:", &mut spec);
        assert_eq!(spec.counts.len(), 1);
        assert!(spec.corruptions.is_empty());
        assert!(spec.panics.is_empty());
    }

    #[test]
    fn corruptions_apply_deterministically() {
        let mut bytes = vec![1u8, 2, 3, 4];
        WriteFault::Truncate(2).corrupt(&mut bytes);
        assert_eq!(bytes, [1, 2]);
        let mut bytes = vec![0u8, 0, 0];
        WriteFault::FlipByte(1).corrupt(&mut bytes);
        assert_eq!(bytes, [0, 0xff, 0]);
        // Past-the-end flip is a no-op, not a panic.
        WriteFault::FlipByte(99).corrupt(&mut bytes);
        assert_eq!(bytes, [0, 0xff, 0]);
    }
}
