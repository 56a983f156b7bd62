//! Evaluation layer: everything needed to score the pipeline the way the
//! paper does.
//!
//! * [`metrics`] — labeled match scores, accuracy@k (Table III, Fig. 4),
//!   precision/recall at a threshold;
//! * [`curve`] — precision-recall curves, AUC, and threshold calibration
//!   (§IV-E, Figs. 2/3/5, Tables V/VI);
//! * [`verdict`] — the simulated manual verification of §V-A: judging a
//!   matched pair True / Probably True / Unclear / False from the identity
//!   facts each alias leaked;
//! * [`profiler`] — the "John Doe" personal-profile aggregation of §V-D;
//! * [`report`] — plain-text/markdown table rendering for the experiment
//!   harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod curve;
pub mod metrics;
pub mod plot;
pub mod profiler;
pub mod ranks;
pub mod report;
pub mod verdict;

pub use bootstrap::{precision_recall_interval, BootstrapConfig, Interval};
pub use curve::PrCurve;
pub use metrics::{accuracy_at_k, labeled_best_matches, LabeledScore};
pub use ranks::RankHistogram;
pub use verdict::{judge_pair, Verdict};
