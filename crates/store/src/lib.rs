//! Durable storage for pipeline state: the workspace's one on-disk
//! format.
//!
//! Renaming a synced tmp file into place protects against a crash
//! *between* files, but not against a torn write, a truncated tail, or
//! a flipped bit inside one: those load as garbage. Every durable file
//! the pipeline writes — fit artifacts and batch checkpoints alike —
//! therefore goes through this crate:
//!
//! * [`container`] — a versioned, sectioned, CRC-checksummed binary
//!   container, written tmp + fsync + rename + directory fsync. Every
//!   section carries its own CRC-32; loads return typed [`StoreError`]s
//!   ([`VersionMismatch`](StoreError::VersionMismatch),
//!   [`SectionCrcMismatch`](StoreError::SectionCrcMismatch),
//!   [`TruncatedSection`](StoreError::TruncatedSection), …) and never
//!   panic on hostile bytes.
//! * [`epoch`] — immutable epoch directories under a store root, with a
//!   `CURRENT` pointer swapped atomically after each publish and a
//!   recovery ladder that walks back to the newest epoch that still
//!   loads cleanly (fit artifacts).
//! * [`codec`] — the little-endian byte codec the container and its
//!   payload encoders share, with bounds-checked reads.
//! * [`fnv`] — the FNV-1a hasher behind the state fingerprints callers
//!   store in a container's header.
//!
//! What goes *inside* the sections is the caller's business: the fitted
//! pipeline's encoding lives in `darklight-core::artifact`, the batched
//! rounds' survivor pools in `darklight-core::batch`, keeping this crate
//! a generic container layer below the engine.
//!
//! Writes consult the `DARKLIGHT_FAULT_IO` hooks of `darklight-govern`
//! at sites the caller names ([`WriteSites`]): the count mode injects
//! transient I/O errors, and the `trunc:`/`flip:` modes corrupt the
//! buffered bytes before they reach disk — the crash-consistency
//! harness drives every fault point through them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod container;
pub mod crc;
pub mod epoch;
pub mod fnv;

pub use container::{
    read_container, write_container, Container, Section, WriteSites, FORMAT_VERSION,
};
pub use epoch::{EpochStore, CURRENT_FILE};
pub use fnv::Fnv1a;

use std::fmt;

/// Typed failures of the store, for artifacts and checkpoints alike.
/// Corruption is always reported as a value — no load path panics on
/// malformed bytes.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The bytes are not a container at all, or a payload failed to
    /// decode (bad magic, impossible lengths, malformed UTF-8, …).
    Malformed(String),
    /// The container was written by a different format version.
    VersionMismatch {
        /// The version this build reads and writes.
        expected: u32,
        /// The version found in the file header.
        found: u32,
    },
    /// A section's payload does not match its stored CRC-32.
    SectionCrcMismatch {
        /// Tag of the failing section.
        section: String,
    },
    /// The file ends before a section's declared payload does.
    TruncatedSection {
        /// Tag of the truncated section (or `<header>`).
        section: String,
    },
    /// A required section is absent from the container.
    MissingSection {
        /// Tag of the absent section.
        section: String,
    },
    /// The artifact's stored fingerprint does not match the state that
    /// was decoded from it (or the fingerprint the caller demanded).
    FingerprintMismatch {
        /// The fingerprint the caller expected.
        expected: u64,
        /// The fingerprint found in the artifact.
        found: u64,
    },
    /// No epoch under the store root loads cleanly.
    NoUsableEpoch,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact i/o error: {e}"),
            StoreError::Malformed(what) => write!(f, "malformed artifact: {what}"),
            StoreError::VersionMismatch { expected, found } => write!(
                f,
                "artifact format version mismatch: expected v{expected}, found v{found}"
            ),
            StoreError::SectionCrcMismatch { section } => {
                write!(f, "artifact section {section:?} failed its CRC-32 check")
            }
            StoreError::TruncatedSection { section } => {
                write!(f, "artifact section {section:?} is truncated")
            }
            StoreError::MissingSection { section } => {
                write!(f, "artifact is missing required section {section:?}")
            }
            StoreError::FingerprintMismatch { expected, found } => write!(
                f,
                "artifact fingerprint mismatch: expected {expected:016x}, found {found:016x}"
            ),
            StoreError::NoUsableEpoch => {
                write!(f, "no epoch in the store loads cleanly")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}
