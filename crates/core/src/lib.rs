//! The `darklight` attribution engine — the paper's primary contribution.
//!
//! Given a *known* set of aliases (with their posts and timestamps) and an
//! *unknown* alias, the pipeline of Arabnezhad et al. (ICDCS 2020) answers
//! "which known alias, if any, is the same person?" in two stages:
//!
//! 1. **Search-space reduction by k-attribution** (§IV-C): every alias is
//!    embedded with the Table II *space-reduction* features (word/char
//!    n-grams + char-class frequencies + the daily activity profile), and
//!    the `k = 10` most cosine-similar known aliases are kept.
//! 2. **Final classification** (§IV-E/I): the feature space is *re-fitted*
//!    on just those k candidates (changing the selected n-grams and the
//!    TF-IDF weights), the candidates are re-scored, and the best pair is
//!    emitted if its similarity clears a calibrated threshold
//!    (`t = 0.4190` in the paper).
//!
//! Modules:
//! * [`dataset`] — turns polished corpora into attribution-ready records
//!   (1,500-word longest-first text budget, activity profiles);
//! * [`attrib`] — the inverted-index cosine ranker and k-attribution;
//! * [`twostage`] — the full two-stage algorithm (§IV-I);
//! * [`baseline`] — the Standard (char free-space 4-gram) and Koppel
//!   (feature-subsampling vote) baselines of §IV-F;
//! * [`batch`] — the RAM-bounded hierarchical batching of §IV-J, with
//!   crash-recovery checkpoints;
//! * [`artifact`] — persisted fit artifacts (fit once, serve many);
//! * [`linker`] — the high-level corpus-to-corpus linking API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod attrib;
pub mod baseline;
pub mod batch;
pub mod confidence;
pub mod dataset;
pub mod explain;
pub mod linker;
pub mod twostage;

pub use artifact::FitArtifact;
pub use attrib::CandidateIndex;
pub use batch::{BatchConfig, BatchError};
pub use confidence::MatchConfidence;
pub use dataset::{Dataset, DatasetBuilder, Record};
pub use explain::{explain_pair, MatchExplanation};
pub use linker::{AliasMatch, Linker};
pub use twostage::{RankedMatch, TwoStage, TwoStageConfig};

/// The paper's global similarity threshold (§IV-E).
pub const PAPER_THRESHOLD: f64 = 0.4190;

/// The paper's candidate-set size for search-space reduction (§IV-C).
pub const PAPER_K: usize = 10;

/// The paper's per-alias word budget (§IV-C1/Table III).
pub const PAPER_WORD_BUDGET: usize = 1_500;

/// The paper's maximum word n-gram length (§IV-A, Table II).
pub const PAPER_MAX_WORD_N: usize = 3;

/// The paper's maximum char n-gram length (§IV-A, Table II).
pub const PAPER_MAX_CHAR_N: usize = 5;
