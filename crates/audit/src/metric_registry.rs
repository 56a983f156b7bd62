//! The central registry of metric names.
//!
//! Every metric the pipeline records through `darklight-obs` must be
//! listed here; the `metric-name-registry` audit rule rejects any
//! `counter("…")` / `gauge("…")` / `timer("…")` / `histogram("…")` call
//! whose literal name is missing, which turns a counter-name typo into a
//! CI failure instead of a silently forked time series. The registry is
//! cross-checked against the golden snapshot schema in
//! `tests/metrics_parity.rs` by `crates/audit/tests/registry_consistency.rs`.
//!
//! Dynamically built names (today only `ingest.quarantined.<kind>`)
//! cannot be checked at the call site — those sites carry an
//! `audit:allow(metric-name-registry)` annotation explaining how the
//! name set is bounded, and every possible expansion is listed here.

/// Every blessed metric name, sorted and unique (enforced by a test).
pub const METRIC_REGISTRY: &[&str] = &[
    "attrib.batch_queries",
    "attrib.batch_scoring",
    "attrib.index_build",
    "attrib.index_dim",
    "attrib.index_postings",
    "attrib.index_users",
    "attrib.postings_touched_per_query",
    "attrib.queries_scored",
    "batch.batch_size",
    "batch.final_pool_size",
    "batch.peak_pool",
    "batch.resumed",
    "batch.resumed_round",
    "batch.rounds",
    "batch.total",
    "dataset.build",
    "dataset.records_built",
    "dataset.threads",
    "features.char_vocab",
    "features.dim",
    "features.fit",
    "features.fits",
    "features.vector_nnz",
    "features.vectorize",
    "features.vectors",
    "features.word_vocab",
    "govern.batch_shrinks",
    "govern.bytes_estimated",
    "govern.deadline_expired",
    "govern.io_retries",
    "govern.tmp_cleaned",
    "ingest.lines_total",
    // Expansions of the dynamic `ingest.quarantined.<IssueKind>` name,
    // one per `IssueKind::as_str` value.
    "ingest.quarantined.bad_header",
    "ingest.quarantined.bad_record",
    "ingest.quarantined.orphan_record",
    "ingest.quarantined.unparseable_field",
    "ingest.quarantined_lines",
    "ingest.records_kept",
    "linker.fit_artifact",
    "linker.link",
    "linker.prepare",
    "par.worker_panics",
    "polish.dropped.bot_accounts",
    "polish.dropped.duplicates",
    "polish.dropped.emptied_users",
    "polish.dropped.low_diversity",
    "polish.dropped.non_english",
    "polish.dropped.panicked_users",
    "polish.dropped.short",
    "polish.input_messages",
    "polish.kept_messages",
    "polish.step.dedup",
    "polish.step.diversity_filter",
    "polish.step.language_filter",
    "polish.step.length_filter",
    "polish.step.transforms",
    "polish.threads",
    "polish.total",
    "store.crc_failures",
    "store.epoch_fallbacks",
    "store.loads",
    "store.saves",
    "twostage.links_accepted",
    "twostage.links_rejected",
    "twostage.rescored_unknowns",
    "twostage.stage1",
    "twostage.stage2",
    "twostage.stage2_fits",
    "twostage.stage2_vectors",
    "twostage.threads",
    "twostage.threshold_micros",
    "twostage.total",
    "twostage.vectorize_panics",
];

/// Whether `name` is a blessed metric name.
pub fn is_registered(name: &str) -> bool {
    METRIC_REGISTRY.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        // Sortedness is load-bearing: `is_registered` binary-searches.
        for pair in METRIC_REGISTRY.windows(2) {
            assert!(pair[0] < pair[1], "{:?} out of order or duplicated", pair);
        }
    }

    #[test]
    fn lookup_works() {
        assert!(is_registered("linker.link"));
        assert!(is_registered("ingest.quarantined.orphan_record"));
        assert!(!is_registered("linker.lnik"));
        assert!(!is_registered(""));
    }
}
