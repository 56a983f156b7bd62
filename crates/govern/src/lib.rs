//! Resource governor for long-running attribution jobs.
//!
//! The paper's batch mode (§IV-J) exists to fit the attribution pipeline
//! into bounded RAM, but a fixed `batch_size` knob is blind: it neither
//! measures what a round actually costs nor reacts when the estimate was
//! wrong, and an hours-long run dies to the first transient I/O error or
//! overrun wall-clock. This crate supplies the missing pieces as small,
//! dependency-free primitives that the core batch driver composes:
//!
//! - [`MemoryBudget`] — a parsed byte budget (`512MiB`) from which the
//!   batch size is *derived* instead of guessed, via the
//!   [`EstimateBytes`] cost model.
//! - [`Deadline`] — a cooperative cancellation token checked between
//!   batch rounds and inside worker chunk loops; expiry is a typed
//!   [`GovernError::DeadlineExpired`] with a valid checkpoint on disk,
//!   never a torn run.
//! - [`RetryPolicy`] / [`with_retry`] — jittered exponential backoff
//!   around checkpoint and corpus I/O, with jitter derived purely from
//!   the run fingerprint so retried runs stay deterministic.
//! - [`fault`] — the workspace's one fault-injection hook: injected
//!   panics (`DARKLIGHT_FAULT_PANICS`) for the skip-tolerant and
//!   fail-fast stages, and injected I/O failures and torn or flipped
//!   writes (`DARKLIGHT_FAULT_IO`) for every retry and recovery path.
//!
//! Everything here is policy-free data plus pure functions: the actual
//! shrink-and-re-round ladder lives in `darklight-core::batch`, which
//! owns the round loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod deadline;
pub mod fault;
mod retry;

pub use budget::{EstimateBytes, MemoryBudget};
pub use deadline::{parse_duration, Deadline, Expired};
pub use retry::{seed_from, with_retry, RetryPolicy};

use std::fmt;

/// Typed failures raised by the resource governor.
#[derive(Debug)]
pub enum GovernError {
    /// A size string (`--mem-budget`) did not parse; the message says
    /// what was wrong and what would be accepted.
    ParseSize(String),
    /// A duration string (`--deadline`) did not parse.
    ParseDuration(String),
    /// The budget cannot hold even the smallest possible round.
    BudgetTooSmall {
        /// The configured budget, in bytes.
        budget: u64,
        /// The minimum budget that would admit a one-record batch.
        required: u64,
    },
    /// The run's deadline expired; the last completed round is on disk
    /// when a checkpoint path was configured.
    DeadlineExpired {
        /// Rounds completed before expiry.
        rounds_done: u64,
    },
}

impl fmt::Display for GovernError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernError::ParseSize(why) => write!(f, "invalid memory size: {why}"),
            GovernError::ParseDuration(why) => write!(f, "invalid duration: {why}"),
            GovernError::BudgetTooSmall { budget, required } => write!(
                f,
                "memory budget of {budget} bytes cannot hold the query set plus a \
                 single-record batch (~{required} bytes needed); raise --mem-budget \
                 to at least {required}B or shrink the corpus"
            ),
            GovernError::DeadlineExpired { rounds_done } => write!(
                f,
                "deadline expired after {rounds_done} completed round(s); progress up to \
                 the last completed round is checkpointed — rerun with the same \
                 --checkpoint path (and no or a longer --deadline) to resume"
            ),
        }
    }
}

impl std::error::Error for GovernError {}

/// Everything the governor needs to supervise one batched run.
///
/// Default is fully inert: no budget and no deadline. I/O retries are
/// not configured here: every retried site uses [`RetryPolicy::default`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GovernConfig {
    /// Byte budget the pressure ladder enforces; `None` disables
    /// memory governance entirely.
    pub budget: Option<MemoryBudget>,
    /// Cooperative cancellation token; [`Deadline::none`] never expires.
    pub deadline: Deadline,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let cfg = GovernConfig::default();
        assert!(cfg.budget.is_none());
        assert!(!cfg.deadline.is_expired());
        assert_eq!(cfg, GovernConfig::default());
    }

    #[test]
    fn errors_render_actionable_messages() {
        let e = GovernError::BudgetTooSmall {
            budget: 10,
            required: 999,
        };
        assert!(e.to_string().contains("999"), "{e}");
        let e = GovernError::DeadlineExpired { rounds_done: 4 };
        assert!(e.to_string().contains("4 completed round"), "{e}");
    }
}
