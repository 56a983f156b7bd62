//! Attribution-ready datasets.
//!
//! A [`Dataset`] is a polished corpus reduced to what the attribution
//! engine consumes: per alias, the 1,500-word longest-first text selection
//! (§IV-D), its n-gram counts, and the daily activity profile (when the
//! alias has enough usable timestamps). Ground-truth metadata (persona
//! ids, leaked facts) rides along untouched for the evaluation layer.
//!
//! Every record is made by one routine, `count_records`: it prepares
//! each text (tokenized, lowercased, lemmatized), counts it, and drops
//! the prepared form, so a record holds its text once.

use std::collections::HashMap;
use std::sync::Arc;

use darklight_activity::profile::{DailyActivityProfile, ProfileBuilder, ProfilePolicy};
use darklight_corpus::model::{Corpus, Fact};
use darklight_corpus::refine::select_text;
use darklight_features::lexicon::Lexicon;
use darklight_features::pipeline::{CountedDoc, PreparedDoc};
use darklight_govern::EstimateBytes;
use darklight_obs::PipelineMetrics;
use darklight_text::lemma::Lemmatizer;

/// One attribution-ready alias.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The alias name.
    pub alias: String,
    /// Ground truth: persona id, if this is a persona-backed alias.
    pub persona: Option<u64>,
    /// Ground truth: facts leaked by this alias.
    pub facts: Vec<Fact>,
    /// The selected text (longest-first, word-budgeted).
    pub text: String,
    /// The n-gram counts of `text` (tokenized and, by default,
    /// lemmatized).
    pub counted: CountedDoc,
    /// The daily activity profile, when buildable.
    pub profile: Option<DailyActivityProfile>,
}

/// A record's fields before its text is counted.
pub(crate) struct Uncounted {
    pub(crate) alias: String,
    pub(crate) persona: Option<u64>,
    pub(crate) facts: Vec<Fact>,
    pub(crate) text: String,
    pub(crate) profile: Option<DailyActivityProfile>,
}

/// Makes records: prepares each text (tokenized, lowercased, lemmatized
/// when `lemmatize`), keeps its first `max_words` word tokens when given,
/// and counts every document at `orders` (word and char n-gram maxima)
/// into one new lexicon the records share. The prepared documents are
/// dropped once counted. Preparation is per record and counting is
/// thread-invariant (see [`CountedDoc::count_all`]), so the records are
/// the same for every thread count.
pub(crate) fn count_records(
    parts: Vec<Uncounted>,
    lemmatize: bool,
    max_words: Option<usize>,
    (max_word_n, max_char_n): (usize, usize),
    threads: usize,
) -> Vec<Record> {
    let lemmatizer = lemmatize.then(Lemmatizer::new);
    let docs = darklight_par::par_map(&parts, threads, |_, part| {
        let doc = PreparedDoc::prepare(&part.text, lemmatizer.as_ref());
        match max_words {
            Some(words) => doc.truncate_words(words),
            None => doc,
        }
    });
    let counted = CountedDoc::count_all(
        &docs.iter().collect::<Vec<_>>(),
        max_word_n,
        max_char_n,
        threads,
    );
    parts
        .into_iter()
        .zip(counted)
        .map(|(part, counted)| Record {
            alias: part.alias,
            persona: part.persona,
            facts: part.facts,
            text: part.text,
            counted,
            profile: part.profile,
        })
        .collect()
}

/// A named set of attribution-ready records.
///
/// Construct with [`Dataset::new`] (or
/// [`Dataset::with_orders`] when the records were counted at non-default
/// n-gram maxima); construction builds the alias → index map that backs
/// O(1) [`index_of`](Dataset::index_of) lookups, so `records` should not
/// be mutated afterwards — derive new datasets through
/// [`with_word_budget`](Dataset::with_word_budget) /
/// [`merged_with`](Dataset::merged_with) instead.
///
/// Every dataset's records share one lexicon lineage (see
/// [`darklight_features::lexicon`]): construction rebases records
/// counted in an unrelated lexicon, so fits over any subset run on raw
/// term ids.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (usually the forum name).
    pub name: String,
    /// The records.
    pub records: Vec<Record>,
    /// The n-gram maxima the records' [`CountedDoc`]s were counted at.
    max_word_n: usize,
    max_char_n: usize,
    /// alias → index of its *first* occurrence, built once at construction.
    alias_index: HashMap<String, usize>,
    /// The lexicon covering every record's counted document.
    lexicon: Arc<Lexicon>,
}

impl PartialEq for Dataset {
    /// Equal names, orders and records; records compare their counted
    /// documents by term string, so two builds of one corpus are equal
    /// whatever lexicons they interned into.
    fn eq(&self, other: &Dataset) -> bool {
        self.name == other.name
            && self.ngram_orders() == other.ngram_orders()
            && self.records == other.records
    }
}

impl Dataset {
    /// A dataset whose records were counted at the paper's n-gram maxima
    /// (word 1–3, char 1–5).
    pub fn new(name: impl Into<String>, records: Vec<Record>) -> Dataset {
        Dataset::with_orders(
            name,
            records,
            crate::PAPER_MAX_WORD_N,
            crate::PAPER_MAX_CHAR_N,
        )
    }

    /// A dataset whose records were counted at the given n-gram maxima.
    /// Records may come from different datasets; when their lexicons are
    /// unrelated, all of them are rebased into one shared extension.
    pub fn with_orders(
        name: impl Into<String>,
        mut records: Vec<Record>,
        max_word_n: usize,
        max_char_n: usize,
    ) -> Dataset {
        let shared = CountedDoc::shared_lexicon(records.iter().map(|r| &r.counted)).cloned();
        let lexicon = match shared {
            Some(lexicon) => lexicon,
            None if records.is_empty() => Arc::default(),
            None => {
                let docs: Vec<&CountedDoc> = records.iter().map(|r| &r.counted).collect();
                let rebased = CountedDoc::rebase_all(&docs, records[0].counted.lexicon());
                for (r, counted) in records.iter_mut().zip(rebased) {
                    r.counted = counted;
                }
                Arc::clone(records[0].counted.lexicon())
            }
        };
        let mut alias_index = HashMap::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            // First occurrence wins, matching the linear-scan semantics the
            // map replaced (merged datasets can hold duplicate aliases).
            alias_index.entry(r.alias.clone()).or_insert(i);
        }
        Dataset {
            name: name.into(),
            records,
            max_word_n,
            max_char_n,
            alias_index,
            lexicon,
        }
    }

    /// The lexicon covering every record's counted document.
    pub fn lexicon(&self) -> &Arc<Lexicon> {
        &self.lexicon
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `(max_word_n, max_char_n)` the records were counted at.
    pub fn ngram_orders(&self) -> (usize, usize) {
        (self.max_word_n, self.max_char_n)
    }

    /// Index of an alias, if present (first occurrence for duplicates).
    /// O(1): backed by a map built once at construction.
    pub fn index_of(&self, alias: &str) -> Option<usize> {
        self.alias_index.get(alias).copied()
    }

    /// Restricts every record's counts to the first `words` word tokens
    /// of its text (the Table III word-budget sweep), re-preparing the
    /// text as [`DatasetBuilder`] does by default, lemmatized. The text
    /// and the profile are kept as they are — the sweep varies counted
    /// words, not timestamps. Recounting preserves the dataset's
    /// configured n-gram maxima.
    pub fn with_word_budget(&self, words: usize) -> Dataset {
        let parts = self
            .records
            .iter()
            .map(|r| Uncounted {
                alias: r.alias.clone(),
                persona: r.persona,
                facts: r.facts.clone(),
                text: r.text.clone(),
                profile: r.profile.clone(),
            })
            .collect();
        let records = count_records(parts, true, Some(words), self.ngram_orders(), 1);
        Dataset::with_orders(self.name.clone(), records, self.max_word_n, self.max_char_n)
    }

    /// Concatenates two datasets (the paper merges TMG and DM into a
    /// single DarkWeb dataset in §IV-G). The merged dataset advertises the
    /// larger n-gram maxima of the two halves; `other`'s records are
    /// rebased into an extension of `self`'s lexicon when the two are
    /// unrelated.
    pub fn merged_with(&self, other: &Dataset, name: impl Into<String>) -> Dataset {
        let mut records = self.records.clone();
        records.extend(other.records.iter().cloned());
        Dataset::with_orders(
            name,
            records,
            self.max_word_n.max(other.max_word_n),
            self.max_char_n.max(other.max_char_n),
        )
    }
}

impl EstimateBytes for Record {
    fn estimate_bytes(&self) -> u64 {
        // The attribution working set per alias: the selected text, its
        // counts and the activity profile. Ground truth (persona id,
        // facts) is charged a flat overhead — it is carried, not
        // expanded, by the pipeline.
        self.alias.len() as u64
            + self.text.len() as u64
            + self.counted.estimate_bytes()
            + self
                .profile
                .as_ref()
                .map_or(0, |_| (darklight_activity::profile::HOURS as u64) * 12)
            + 128
    }
}

impl EstimateBytes for Dataset {
    fn estimate_bytes(&self) -> u64 {
        // Record payloads plus a flat per-record charge for the alias →
        // index map entry, and the lexicon once: records hold only term
        // ids. Deterministic: the estimate is a function of the records
        // and of which terms the dataset interned.
        self.records
            .iter()
            .map(|r| r.estimate_bytes() + r.alias.len() as u64 + 48)
            .sum::<u64>()
            + self.lexicon.estimate_bytes()
            + self.name.len() as u64
            + 64
    }
}

/// Builds [`Dataset`]s from corpora with the paper's selection and
/// profile settings: per alias, the 1,500-word longest-first text
/// (§IV-D) and the default [`ProfilePolicy`] (UTC, 30 timestamps,
/// weekends and holidays excluded).
#[derive(Debug)]
pub struct DatasetBuilder {
    /// Maximum word and char n-gram lengths to precount (paper: 3 and
    /// 5) — see [`with_ngram_orders`](DatasetBuilder::with_ngram_orders).
    max_word_n: usize,
    max_char_n: usize,
    /// Worker threads for per-alias preparation (0 = auto).
    threads: usize,
    /// Lemmatize word tokens (the paper does).
    lemmatize: bool,
    metrics: PipelineMetrics,
}

impl DatasetBuilder {
    /// Builder with the paper's settings.
    pub fn new() -> DatasetBuilder {
        DatasetBuilder {
            max_word_n: crate::PAPER_MAX_WORD_N,
            max_char_n: crate::PAPER_MAX_CHAR_N,
            threads: 0,
            lemmatize: true,
            metrics: PipelineMetrics::disabled(),
        }
    }

    /// Sets the n-gram maxima records are precounted at. Pass the largest
    /// `max_word_n`/`max_char_n` over every stage configuration that will
    /// score the records — counting at larger maxima only adds longer
    /// grams, which compete in the frequency ranking as the paper's do,
    /// while counting at *smaller* maxima silently drops whole n-gram
    /// families from scoring.
    pub fn with_ngram_orders(mut self, max_word_n: usize, max_char_n: usize) -> DatasetBuilder {
        assert!(max_word_n >= 1, "word n-gram order must be at least 1");
        assert!(max_char_n >= 1, "char n-gram order must be at least 1");
        self.max_word_n = max_word_n;
        self.max_char_n = max_char_n;
        self
    }

    /// Counts word tokens as written (lowercased) instead of by lemma —
    /// the lemmatization ablation.
    pub fn without_lemmatization(mut self) -> DatasetBuilder {
        self.lemmatize = false;
        self
    }

    /// Sets the worker-thread count for [`build`](DatasetBuilder::build)
    /// (0 = auto-detect; see [`darklight_par::resolve_threads`]).
    pub fn with_threads(mut self, threads: usize) -> DatasetBuilder {
        self.threads = threads;
        self
    }

    /// Records build timing and thread counts into `metrics`.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> DatasetBuilder {
        self.metrics = metrics;
        self
    }

    /// Builds the dataset: selects text, builds activity profiles, then
    /// prepares and counts the texts. Aliases whose profile cannot be
    /// built keep `profile = None` (their vectors simply lack the
    /// activity block).
    ///
    /// Per-alias work (select text → profile → tokenize → lemmatize) is
    /// independent across aliases and runs on the configured worker
    /// pool, and so does counting (see [`CountedDoc::count_all`]);
    /// output — term ids included — is the same for every thread count.
    pub fn build(&self, corpus: &Corpus) -> Dataset {
        let _build = self.metrics.timer("dataset.build").start();
        let threads = darklight_par::resolve_threads(self.threads);
        self.metrics.gauge("dataset.threads").set(threads as i64);
        let profiles = ProfileBuilder::new(ProfilePolicy::default());
        let parts = darklight_par::par_map(&corpus.users, threads, |_, user| Uncounted {
            alias: user.alias.clone(),
            persona: user.persona,
            facts: user.facts.clone(),
            text: select_text(user, crate::PAPER_WORD_BUDGET),
            profile: profiles.build(&user.timestamps()).ok(),
        });
        let orders = (self.max_word_n, self.max_char_n);
        let records = count_records(parts, self.lemmatize, None, orders, threads);
        self.metrics
            .counter("dataset.records_built")
            .add(records.len() as u64);
        Dataset::with_orders(
            corpus.name.clone(),
            records,
            self.max_word_n,
            self.max_char_n,
        )
    }
}

impl Default for DatasetBuilder {
    fn default() -> DatasetBuilder {
        DatasetBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darklight_corpus::model::{Post, User};
    use darklight_features::lexicon::TermCounts;

    fn corpus() -> Corpus {
        let mut c = Corpus::new("t");
        let mut u = User::new("writer", Some(9));
        // 40 weekday posts (Mondays–Fridays from 2017-02-06), ~20 words each.
        let base = 1_486_375_200i64;
        for i in 0..40 {
            let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400;
            u.posts.push(Post::new(
                format!("a reasonably long message number {i} with some filler words to cross twenty words in total for testing"),
                ts,
            ));
        }
        c.users.push(u);
        let mut thin = User::new("thin", None);
        thin.posts.push(Post::new("just one tiny post", base));
        c.users.push(thin);
        c
    }

    #[test]
    fn build_produces_profiles_when_possible() {
        let ds = DatasetBuilder::new().build(&corpus());
        assert_eq!(ds.len(), 2);
        let writer = &ds.records[ds.index_of("writer").unwrap()];
        assert!(writer.profile.is_some());
        assert!(writer.counted.word_len() > 100);
        let thin = &ds.records[ds.index_of("thin").unwrap()];
        assert!(thin.profile.is_none());
    }

    #[test]
    fn with_word_budget_truncates() {
        let ds = DatasetBuilder::new().build(&corpus());
        let cut = ds.with_word_budget(30);
        assert_eq!(cut.records[0].counted.word_len(), 30);
        assert_eq!(
            cut.records[1].counted.word_len().min(30),
            cut.records[1].counted.word_len()
        );
    }

    #[test]
    fn merged_keeps_all_records() {
        let ds = DatasetBuilder::new().build(&corpus());
        let merged = ds.merged_with(&ds, "double");
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.name, "double");
    }

    #[test]
    fn facts_and_persona_pass_through() {
        let mut c = corpus();
        c.users[0].facts.push(darklight_corpus::model::Fact::new(
            darklight_corpus::model::FactKind::City,
            "miami",
        ));
        let ds = DatasetBuilder::new().build(&c);
        assert_eq!(ds.records[0].persona, Some(9));
        assert_eq!(ds.records[0].facts.len(), 1);
    }

    #[test]
    fn index_of_finds_every_alias_and_first_duplicate() {
        let ds = DatasetBuilder::new().build(&corpus());
        assert_eq!(ds.index_of("writer"), Some(0));
        assert_eq!(ds.index_of("thin"), Some(1));
        assert_eq!(ds.index_of("missing"), None);
        // Self-merge duplicates every alias; the map must report the first
        // occurrence, like the linear scan it replaced.
        let merged = ds.merged_with(&ds, "double");
        assert_eq!(merged.index_of("writer"), Some(0));
        assert_eq!(merged.index_of("thin"), Some(1));
    }

    /// Regression: `build` and `with_word_budget` used to hardcode the
    /// paper's `(3, 5)` n-gram maxima, silently ignoring configured
    /// orders. With `max_word_n = 2`, no counted 3-gram may exist; with
    /// `max_word_n = 4`, 4-grams must.
    #[test]
    fn configured_ngram_orders_respected() {
        let word_order = |key: &str| key.split(' ').count();
        let bigrams_only = DatasetBuilder::new()
            .with_ngram_orders(2, 3)
            .build(&corpus());
        assert_eq!(bigrams_only.ngram_orders(), (2, 3));
        let counted = &bigrams_only.records[0].counted;
        assert!(counted
            .word_counts()
            .terms()
            .map(|(k, _)| k)
            .any(|k| word_order(k) == 2));
        assert!(
            counted
                .word_counts()
                .terms()
                .map(|(k, _)| k)
                .all(|k| word_order(k) <= 2),
            "an order-2 dataset must not count word 3-grams"
        );
        assert!(counted
            .char_counts()
            .terms()
            .map(|(k, _)| k)
            .all(|k| k.chars().count() <= 3));

        let four = DatasetBuilder::new()
            .with_ngram_orders(4, 5)
            .build(&corpus());
        assert!(four.records[0]
            .counted
            .word_counts()
            .terms()
            .map(|(k, _)| k)
            .any(|k| word_order(k) == 4));

        // The budget sweep recounts at the dataset's orders, not (3, 5).
        let cut = bigrams_only.with_word_budget(30);
        assert_eq!(cut.ngram_orders(), (2, 3));
        assert!(cut.records[0]
            .counted
            .word_counts()
            .terms()
            .map(|(k, _)| k)
            .all(|k| word_order(k) <= 2));
    }

    /// Every build interns into a lexicon of its own, so the comparison
    /// reads terms by string, in id order: the strings, their counts and
    /// the order ids were handed out in must all match the serial build.
    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let c = corpus();
        let by_string = |counts: TermCounts<'_>| -> Vec<(String, u32)> {
            counts.terms().map(|(t, n)| (t.to_string(), n)).collect()
        };
        let serial = DatasetBuilder::new().with_threads(1).build(&c);
        for threads in [1, 2, 7] {
            let par = DatasetBuilder::new().with_threads(threads).build(&c);
            assert!(!Arc::ptr_eq(serial.lexicon(), par.lexicon()));
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.records.iter().zip(&par.records) {
                assert_eq!(a.alias, b.alias, "threads = {threads}");
                assert_eq!(a.text, b.text);
                assert_eq!(
                    by_string(a.counted.word_counts()),
                    by_string(b.counted.word_counts()),
                    "threads = {threads}"
                );
                assert_eq!(
                    by_string(a.counted.char_counts()),
                    by_string(b.counted.char_counts()),
                    "threads = {threads}"
                );
            }
            assert_eq!(serial, par);
        }
    }

    #[test]
    fn foreign_records_are_rebased_into_one_lineage() {
        let a = DatasetBuilder::new().build(&corpus());
        let b = DatasetBuilder::new().build(&corpus());
        let mixed = Dataset::new("mixed", vec![a.records[0].clone(), b.records[1].clone()]);
        for r in &mixed.records {
            assert!(mixed.lexicon().covers(r.counted.lexicon()));
        }
        assert!(mixed.lexicon().covers(a.lexicon()), "a's ids are kept");
        assert_eq!(mixed.records[1].counted, b.records[1].counted);
    }
}
