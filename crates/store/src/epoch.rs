//! Epoch directories with an atomically-swapped `CURRENT` pointer.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   CURRENT                      "epoch-000002\n" — the served epoch
//!   epochs/
//!     epoch-000001/artifact.dla  older, kept for fallback
//!     epoch-000002/artifact.dla  the artifact CURRENT names
//! ```
//!
//! A publish writes the container into a **fresh** epoch directory
//! (epochs are immutable once named by `CURRENT`), then swaps the
//! `CURRENT` pointer via the same tmp + fsync + rename discipline. The
//! two-step protocol means every crash window leaves the store
//! serveable:
//!
//! * crash mid-artifact-write — the new epoch has only a `.tmp` (or a
//!   corrupt `artifact.dla` if the torn bytes renamed); `CURRENT` still
//!   names the old epoch, which loads untouched;
//! * crash after the artifact rename but before the `CURRENT` swap —
//!   the new epoch is complete but unnamed; loads keep serving the
//!   epoch `CURRENT` names, the last *published* consistent state;
//! * corrupt or missing `CURRENT` — the recovery ladder scans epochs
//!   newest-first and serves the newest one that loads cleanly.
//!
//! The **recovery ladder** of [`EpochStore::load`]: try the epoch
//! `CURRENT` names, then every other epoch newest-first; the first
//! clean load wins. Corruption steps are observable as `store.*`
//! metrics (`store.crc_failures`, `store.epoch_fallbacks`).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use darklight_govern::fault;
use darklight_obs::PipelineMetrics;

use crate::container::{
    read_container, sync_parent_dir, write_container, Container, ARTIFACT_SITES,
};
use crate::StoreError;

/// Name of the pointer file under the store root.
pub const CURRENT_FILE: &str = "CURRENT";

/// Name of the epoch directory collection under the store root.
pub const EPOCHS_DIR: &str = "epochs";

/// Name of the container file inside each epoch directory.
pub const ARTIFACT_FILE: &str = "artifact.dla";

/// Fault-injection site for the `CURRENT` pointer swap.
pub const SITE_CURRENT: &str = "store.current_swap";

/// An artifact store rooted at a directory of epochs.
#[derive(Debug, Clone)]
pub struct EpochStore {
    root: PathBuf,
    metrics: PipelineMetrics,
}

impl EpochStore {
    /// Opens (without touching the filesystem) a store rooted at `root`.
    pub fn new<P: Into<PathBuf>>(root: P) -> EpochStore {
        EpochStore {
            root: root.into(),
            metrics: PipelineMetrics::disabled(),
        }
    }

    /// Records `store.*` metrics into `metrics`.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> EpochStore {
        self.metrics = metrics;
        self
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn epochs_dir(&self) -> PathBuf {
        self.root.join(EPOCHS_DIR)
    }

    fn epoch_dir(&self, epoch: u64) -> PathBuf {
        self.epochs_dir().join(epoch_name(epoch))
    }

    fn artifact_path(&self, epoch: u64) -> PathBuf {
        self.epoch_dir(epoch).join(ARTIFACT_FILE)
    }

    /// Epoch numbers present under the root, ascending. Directory
    /// enumeration order is filesystem-dependent, so the list is sorted
    /// before anything iterates it — loads stay deterministic.
    pub fn epochs(&self) -> Result<Vec<u64>, StoreError> {
        let dir = self.epochs_dir();
        let mut out = Vec::new();
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(StoreError::Io(e)),
        };
        for entry in entries {
            let entry = entry?;
            if let Some(n) = parse_epoch_name(&entry.file_name().to_string_lossy()) {
                out.push(n);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// The epoch number `CURRENT` names, if the pointer file exists and
    /// parses. A corrupt pointer is treated as absent — the recovery
    /// ladder then scans epochs newest-first instead of trusting it.
    pub fn current(&self) -> Option<u64> {
        let raw = fs::read_to_string(self.root.join(CURRENT_FILE)).ok()?;
        parse_epoch_name(raw.trim())
    }

    /// Publishes `container` as a fresh epoch and swaps `CURRENT` to it.
    /// Returns the new epoch number.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure (injected faults
    /// included). A failed publish never damages previously published
    /// epochs: the new epoch directory may hold partial state, but
    /// `CURRENT` is only swapped after the artifact is durably in
    /// place, so loads keep serving the previous epoch.
    pub fn publish(&self, container: &Container) -> Result<u64, StoreError> {
        let epoch = self.epochs()?.last().copied().unwrap_or(0) + 1;
        let dir = self.epoch_dir(epoch);
        fs::create_dir_all(&dir)?;
        write_container(&self.artifact_path(epoch), container, ARTIFACT_SITES)?;
        self.swap_current(epoch)?;
        self.metrics.counter("store.saves").incr();
        Ok(epoch)
    }

    /// Durably points `CURRENT` at `epoch` (tmp + fsync + rename).
    fn swap_current(&self, epoch: u64) -> Result<(), StoreError> {
        let path = self.root.join(CURRENT_FILE);
        let tmp = self.root.join("CURRENT.tmp");
        let mut bytes = format!("{}\n", epoch_name(epoch)).into_bytes();
        if let Some(f) = fault::take_write_fault(SITE_CURRENT) {
            f.corrupt(&mut bytes);
        }
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        fault::maybe_fail_io(SITE_CURRENT)?;
        fs::rename(&tmp, &path)?;
        sync_parent_dir(&path)?;
        Ok(())
    }

    /// Loads the newest cleanly-decodable artifact, walking the
    /// recovery ladder: the epoch `CURRENT` names first, then every
    /// other epoch newest-first. `decode` maps a verified container to
    /// the caller's state and may itself reject (e.g. a fingerprint
    /// mismatch) — a rejection falls back exactly like file corruption.
    /// Returns the decoded state and the epoch that served it.
    ///
    /// # Errors
    ///
    /// The error from the *first* candidate tried (the most relevant
    /// one — it is the artifact the store claimed was current) when no
    /// epoch decodes; [`StoreError::NoUsableEpoch`] when the store has
    /// no epochs at all.
    pub fn load_with<T, F>(&self, decode: F) -> Result<(T, u64), StoreError>
    where
        F: Fn(&Container) -> Result<T, StoreError>,
    {
        let mut candidates: Vec<u64> = self.epochs()?;
        candidates.reverse(); // newest first
        if let Some(cur) = self.current() {
            if let Some(pos) = candidates.iter().position(|&e| e == cur) {
                let cur = candidates.remove(pos);
                candidates.insert(0, cur);
            }
        }
        let mut first_err: Option<StoreError> = None;
        let total = candidates.len();
        for (i, epoch) in candidates.into_iter().enumerate() {
            match read_container(&self.artifact_path(epoch)).and_then(|c| decode(&c)) {
                Ok(state) => {
                    self.metrics.counter("store.loads").incr();
                    return Ok((state, epoch));
                }
                Err(e) => {
                    if matches!(e, StoreError::SectionCrcMismatch { .. }) {
                        self.metrics.counter("store.crc_failures").incr();
                    }
                    if i + 1 < total {
                        // Falling past this epoch to an older one.
                        self.metrics.counter("store.epoch_fallbacks").incr();
                    }
                    first_err.get_or_insert(e);
                }
            }
        }
        Err(first_err.unwrap_or(StoreError::NoUsableEpoch))
    }

    /// Loads the newest cleanly-parsing container; see
    /// [`load_with`](EpochStore::load_with).
    ///
    /// # Errors
    ///
    /// As [`load_with`](EpochStore::load_with).
    pub fn load(&self) -> Result<(Container, u64), StoreError> {
        self.load_with(|c| Ok(c.clone()))
    }
}

/// The directory name of epoch `n` (`epoch-000001`).
pub fn epoch_name(n: u64) -> String {
    format!("epoch-{n:06}")
}

/// Parses an epoch directory name back to its number.
pub fn parse_epoch_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("epoch-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> EpochStore {
        let root = std::env::temp_dir().join(format!("dl-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        EpochStore::new(root)
    }

    fn sample(tag_payload: &[u8]) -> Container {
        let mut c = Container::new(42);
        c.push_section("data", tag_payload.to_vec());
        c
    }

    #[test]
    fn publish_then_load_round_trips() {
        let store = temp_store("roundtrip").with_metrics(PipelineMetrics::enabled());
        let c = sample(b"one");
        let epoch = store.publish(&c).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(store.current(), Some(1));
        let (back, served) = store.load().unwrap();
        assert_eq!(back, c);
        assert_eq!(served, 1);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn republish_advances_epoch_and_keeps_old() {
        let store = temp_store("advance");
        store.publish(&sample(b"one")).unwrap();
        let e2 = store.publish(&sample(b"two")).unwrap();
        assert_eq!(e2, 2);
        assert_eq!(store.epochs().unwrap(), vec![1, 2]);
        let (c, served) = store.load().unwrap();
        assert_eq!(served, 2);
        assert_eq!(c.section("data").unwrap(), b"two");
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn corrupt_current_epoch_falls_back_to_previous() {
        let store = temp_store("fallback").with_metrics(PipelineMetrics::enabled());
        store.publish(&sample(b"good")).unwrap();
        store.publish(&sample(b"newer")).unwrap();
        // Flip a payload byte of the artifact CURRENT names.
        let path = store.artifact_path(2);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let (c, served) = store.load().unwrap();
        assert_eq!(served, 1);
        assert_eq!(c.section("data").unwrap(), b"good");
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn missing_current_scans_newest_first() {
        let store = temp_store("nocurrent");
        store.publish(&sample(b"one")).unwrap();
        store.publish(&sample(b"two")).unwrap();
        fs::remove_file(store.root().join(CURRENT_FILE)).unwrap();
        let (c, served) = store.load().unwrap();
        assert_eq!(served, 2);
        assert_eq!(c.section("data").unwrap(), b"two");
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn corrupt_current_pointer_is_treated_as_absent() {
        let store = temp_store("badpointer");
        store.publish(&sample(b"one")).unwrap();
        fs::write(store.root().join(CURRENT_FILE), b"\xff\xfe garbage").unwrap();
        assert_eq!(store.current(), None);
        let (_, served) = store.load().unwrap();
        assert_eq!(served, 1);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn decode_rejection_falls_back_like_corruption() {
        let store = temp_store("decodefallback");
        store.publish(&sample(b"old")).unwrap();
        store.publish(&sample(b"new")).unwrap();
        // A decoder that rejects the newer artifact's payload.
        let (c, served) = store
            .load_with(|c| {
                if c.section("data")? == b"new" {
                    Err(StoreError::FingerprintMismatch {
                        expected: 1,
                        found: 2,
                    })
                } else {
                    Ok(c.clone())
                }
            })
            .unwrap();
        assert_eq!(served, 1);
        assert_eq!(c.section("data").unwrap(), b"old");
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn empty_store_is_no_usable_epoch() {
        let store = temp_store("empty");
        assert!(matches!(store.load(), Err(StoreError::NoUsableEpoch)));
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn all_epochs_corrupt_reports_the_current_epochs_error() {
        let store = temp_store("allbad");
        store.publish(&sample(b"only")).unwrap();
        let path = store.artifact_path(1);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(),
            Err(StoreError::SectionCrcMismatch { .. })
        ));
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn fallback_metrics_count_steps() {
        let metrics = PipelineMetrics::enabled();
        let store = temp_store("metrics").with_metrics(metrics.clone());
        store.publish(&sample(b"good")).unwrap();
        store.publish(&sample(b"bad")).unwrap();
        let path = store.artifact_path(2);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        store.load().unwrap();
        assert_eq!(metrics.counter("store.saves").get(), 2);
        assert_eq!(metrics.counter("store.loads").get(), 1);
        assert_eq!(metrics.counter("store.crc_failures").get(), 1);
        assert_eq!(metrics.counter("store.epoch_fallbacks").get(), 1);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn epoch_names_round_trip() {
        assert_eq!(epoch_name(7), "epoch-000007");
        assert_eq!(parse_epoch_name("epoch-000007"), Some(7));
        assert_eq!(parse_epoch_name("epoch-"), None);
        assert_eq!(parse_epoch_name("epoch-7x"), None);
        assert_eq!(parse_epoch_name("snapshot-7"), None);
    }
}
