//! The end-to-end feature extractor (Table II).
//!
//! [`PreparedDoc`] performs the per-user work that does not depend on the
//! candidate set (tokenize, lemmatize, char-class counts). A
//! [`FeatureExtractor`] is then *fitted* on a set of documents — ranking
//! n-grams by corpus frequency, selecting the top N per family, and
//! computing IDF — producing a [`FeatureSpace`] that vectorizes any
//! document into the concatenated, L2-normalized feature vector:
//!
//! ```text
//! [ word 1–3-grams | char 1–5-grams | 42 char-class slots | 24-bin activity ]
//! ```
//!
//! The paper's *two-stage* trick (§IV-I) — refitting the space on just the
//! k surviving candidates, which re-ranks the selected n-grams and changes
//! the IDF weights — is expressed by simply fitting a second
//! `FeatureExtractor` on the candidate subset.
//!
//! Refits are the pipeline's inner loop, and every refit weights the
//! documents it was fitted on. [`FeatureExtractor::fit_feature_major`]
//! does both feature by feature: the fit lays each selected term's
//! `(document, count)` pairs out under its feature (see
//! [`vocab`](crate::vocab)), appends the char-class and activity
//! features, and weights the entries in place. Its output, a
//! [`FeatureMajor`], is the fitted documents' vectors transposed — the
//! form the candidate index scores in — so no fitted document is looked
//! up term by term, sorted, or given a vector of its own.
//! [`FeatureSpace::vectorize_counted`] serves the documents outside a
//! fit (stage-1 queries, served queries). Both run the same
//! floating-point operations in the same order per document, so a
//! document gets the same bits either way.
//!
//! Block weighting: each block is L2-normalized and scaled by a
//! configurable weight before concatenation, then the whole vector is
//! normalized. The cosine of two such vectors is the weight-averaged cosine
//! of the blocks; the defaults favour the text blocks with the activity
//! profile as the behavioural side-channel, matching the relative boosts
//! reported in Fig. 4 of the paper.

use crate::charfreq::{char_class_frequencies, NUM_SLOTS};
use crate::lexicon::{GramTrie, Lexicon, TermCounts};
use crate::ngram::{count_char_ngrams, count_word_ngrams};
use crate::sparse::{FeatureMajor, SparseVector};
use crate::tfidf::TfIdf;
use crate::vocab::{select_family, Selection, SlotTable, Vocabulary};
use darklight_activity::profile::{DailyActivityProfile, HOURS};
use darklight_govern::EstimateBytes;
use darklight_obs::{Counter, PipelineMetrics, Timer};
use darklight_text::lemma::Lemmatizer;
use darklight_text::token::{TokenKind, Tokenizer};
use std::sync::Arc;

/// Configuration of the feature families (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureConfig {
    /// Maximum word n-gram length (paper: 3).
    pub max_word_n: usize,
    /// Maximum char n-gram length (paper: 5).
    pub max_char_n: usize,
    /// Word n-grams kept after corpus-frequency ranking.
    pub top_word_ngrams: usize,
    /// Char n-grams kept after corpus-frequency ranking.
    pub top_char_ngrams: usize,
    /// Weight of the word n-gram block.
    pub word_weight: f32,
    /// Weight of the char n-gram block.
    pub char_weight: f32,
    /// Weight of the 42 char-class slots (0 disables the block).
    pub char_class_weight: f32,
    /// Weight of the 24-bin activity profile (0 disables the block).
    pub activity_weight: f32,
}

impl FeatureConfig {
    /// The search-space-reduction preset: 60,000 word + 30,000 char n-grams
    /// (Table II, "Space Reduction" column).
    pub fn space_reduction() -> FeatureConfig {
        FeatureConfig {
            max_word_n: 3,
            max_char_n: 5,
            top_word_ngrams: 60_000,
            top_char_ngrams: 30_000,
            word_weight: 1.0,
            char_weight: 1.0,
            char_class_weight: 0.25,
            activity_weight: 0.2,
        }
    }

    /// The final-classification preset: 50,000 word + 15,000 char n-grams
    /// (Table II, "Final" column).
    pub fn final_stage() -> FeatureConfig {
        FeatureConfig {
            top_word_ngrams: 50_000,
            top_char_ngrams: 15_000,
            ..FeatureConfig::space_reduction()
        }
    }

    /// Returns a copy with the activity block disabled — the "text features
    /// only" configuration of Table III and Fig. 4.
    pub fn without_activity(mut self) -> FeatureConfig {
        self.activity_weight = 0.0;
        self
    }
}

impl Default for FeatureConfig {
    fn default() -> FeatureConfig {
        FeatureConfig::space_reduction()
    }
}

impl EstimateBytes for FeatureConfig {
    fn estimate_bytes(&self) -> u64 {
        // Four usize knobs plus four f32 weights, all inline.
        4 * 8 + 4 * 4
    }
}

/// A document after per-user preprocessing: lemmatized word tokens, the
/// whitespace-normalized character stream, and char-class frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedDoc {
    words: Vec<String>,
    char_text: String,
    char_class: [f64; NUM_SLOTS],
}

impl PreparedDoc {
    /// Prepares a document: tokenizes, lowercases, lemmatizes (when a
    /// lemmatizer is supplied), and computes char-class frequencies.
    ///
    /// ```
    /// use darklight_features::pipeline::PreparedDoc;
    /// use darklight_text::lemma::Lemmatizer;
    /// let l = Lemmatizer::new();
    /// let d = PreparedDoc::prepare("The wolves were running fast!", Some(&l));
    /// assert_eq!(d.words(), ["the", "wolf", "be", "run", "fast"]);
    /// ```
    pub fn prepare(text: &str, lemmatizer: Option<&Lemmatizer>) -> PreparedDoc {
        let mut words = Vec::new();
        for t in Tokenizer::new(text) {
            match t.kind {
                TokenKind::Word => {
                    let lower = t.text.to_lowercase();
                    let lemma = match lemmatizer {
                        Some(l) => l.lemma_owned(&lower),
                        None => lower,
                    };
                    words.push(lemma);
                }
                TokenKind::Number => words.push(t.text.to_string()),
                _ => {}
            }
        }
        PreparedDoc {
            words,
            char_text: text.to_string(),
            char_class: char_class_frequencies(text),
        }
    }

    /// The lemmatized word/number tokens.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Number of word/number tokens — the paper's "number of words per
    /// user" knob (Table III).
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// The raw character stream used for char n-grams.
    pub fn char_text(&self) -> &str {
        &self.char_text
    }

    /// Truncates the document to its first `max_words` word tokens, also
    /// truncating the character stream proportionally. Used by the
    /// word-budget sweep of Table III.
    pub fn truncate_words(&self, max_words: usize) -> PreparedDoc {
        if max_words >= self.words.len() {
            return self.clone();
        }
        let words: Vec<String> = self.words[..max_words].to_vec();
        let keep_ratio = max_words as f64 / self.words.len() as f64;
        let keep_chars = (self.char_text.chars().count() as f64 * keep_ratio) as usize;
        let char_text: String = self.char_text.chars().take(keep_chars).collect();
        let char_class = char_class_frequencies(&char_text);
        PreparedDoc {
            words,
            char_text,
            char_class,
        }
    }
}

/// A document with its n-gram counts precomputed at the maximum n-gram
/// lengths. Counting is the expensive part of vectorization; the two-stage
/// algorithm refits a feature space per unknown user, so counting once per
/// document (instead of once per refit) is a large win.
///
/// Counts are id-sorted `(term id, count)` pairs in a shared [`Lexicon`],
/// which the document holds a handle to, so a document describes itself
/// wherever it is cloned. Documents counted together by
/// [`count_all`](CountedDoc::count_all) share one lexicon; equality
/// compares term strings, never ids.
#[derive(Debug, Clone)]
pub struct CountedDoc {
    lexicon: Arc<Lexicon>,
    word_counts: Vec<(u32, u32)>,
    char_counts: Vec<(u32, u32)>,
    char_class: [f64; NUM_SLOTS],
    word_len: usize,
}

impl PartialEq for CountedDoc {
    fn eq(&self, other: &CountedDoc) -> bool {
        self.word_len == other.word_len
            && self.char_class == other.char_class
            && self.word_counts() == other.word_counts()
            && self.char_counts() == other.char_counts()
    }
}

impl CountedDoc {
    /// Counts a prepared document's n-grams up to the given maxima (use the
    /// largest `max_word_n`/`max_char_n` of any config you will fit), in a
    /// lexicon of its own. Prefer [`count_all`](CountedDoc::count_all) for
    /// documents that will be fitted together.
    pub fn from_prepared(doc: &PreparedDoc, max_word_n: usize, max_char_n: usize) -> CountedDoc {
        CountedDoc::count_all(&[doc], max_word_n, max_char_n, 1)
            .pop()
            // audit:allow(no-naked-unwrap) -- count_all returns one document per input and one is passed
            .expect("one document counted")
    }

    /// Counts every document's n-grams up to the given maxima on up to
    /// `threads` workers, interning them into one new lexicon the results
    /// share. Ids are first-seen order — documents in input order, grams
    /// in order of first occurrence — for every thread count: each worker
    /// counts a contiguous shard into a lexicon of its own, and the shards
    /// are merged serially in shard order, each interning its terms in
    /// its own first-seen order, which is the order one serial pass meets
    /// them in.
    pub fn count_all(
        docs: &[&PreparedDoc],
        max_word_n: usize,
        max_char_n: usize,
        threads: usize,
    ) -> Vec<CountedDoc> {
        let mut shards = darklight_par::par_map_chunks(docs, threads, |shard| {
            let mut lexicon = Lexicon::new();
            let (mut word_trie, mut char_trie) = (GramTrie::default(), GramTrie::default());
            let pairs: Vec<_> = shard
                .iter()
                .map(|doc| {
                    let words =
                        count_word_ngrams(&mut word_trie, &mut lexicon, &doc.words, max_word_n);
                    let chars =
                        count_char_ngrams(&mut char_trie, &mut lexicon, &doc.char_text, max_char_n);
                    (words, chars)
                })
                .collect();
            (lexicon, pairs)
        })
        .into_iter();
        // The first shard's ids already are the merged ones.
        let Some((mut lexicon, mut pairs)) = shards.next() else {
            return Vec::new();
        };
        for (local, shard_pairs) in shards {
            let ids: Vec<u32> = (0..local.len() as u32)
                .map(|id| lexicon.intern(local.term(id)))
                .collect();
            let remap = |local_pairs: Vec<(u32, u32)>| {
                let mut merged: Vec<(u32, u32)> = local_pairs
                    .into_iter()
                    .map(|(id, c)| (ids[id as usize], c))
                    .collect();
                merged.sort_unstable_by_key(|&(id, _)| id);
                merged
            };
            pairs.extend(
                shard_pairs
                    .into_iter()
                    .map(|(words, chars)| (remap(words), remap(chars))),
            );
        }
        let lexicon = Arc::new(lexicon);
        docs.iter()
            .zip(pairs)
            .map(|(doc, (word_counts, char_counts))| CountedDoc {
                lexicon: Arc::clone(&lexicon),
                word_counts,
                char_counts,
                char_class: doc.char_class,
                word_len: doc.words.len(),
            })
            .collect()
    }

    /// Re-expresses `docs` in one new extension of `base` that they all
    /// share: documents whose lexicon `base` covers keep their ids, and
    /// the rest are translated through their term strings, their new
    /// terms appended to the extension. `base` itself never grows.
    pub fn rebase_all(docs: &[&CountedDoc], base: &Arc<Lexicon>) -> Vec<CountedDoc> {
        let mut lexicon = Lexicon::extending(base);
        let mut translate = |counts: TermCounts<'_>| {
            if base.covers(counts.lexicon()) {
                return counts.pairs().to_vec();
            }
            let mut pairs: Vec<(u32, u32)> = counts
                .terms()
                .map(|(term, c)| (lexicon.intern(term), c))
                .collect();
            pairs.sort_unstable_by_key(|&(id, _)| id);
            pairs
        };
        let pairs: Vec<_> = docs
            .iter()
            .map(|d| (translate(d.word_counts()), translate(d.char_counts())))
            .collect();
        let lexicon = Arc::new(lexicon);
        docs.iter()
            .zip(pairs)
            .map(|(doc, (word_counts, char_counts))| CountedDoc {
                lexicon: Arc::clone(&lexicon),
                word_counts,
                char_counts,
                char_class: doc.char_class,
                word_len: doc.word_len,
            })
            .collect()
    }

    /// The deepest lexicon of the documents' common lineage — the one
    /// covering every document's lexicon — or `None` when some documents
    /// come from unrelated lexicons (or there are none).
    pub fn shared_lexicon<'a, I>(docs: I) -> Option<&'a Arc<Lexicon>>
    where
        I: IntoIterator<Item = &'a CountedDoc>,
    {
        let mut deepest: Option<&'a Arc<Lexicon>> = None;
        for doc in docs {
            match deepest {
                Some(d) if d.covers(&doc.lexicon) => {}
                Some(d) if !doc.lexicon.covers(d) => return None,
                _ => deepest = Some(&doc.lexicon),
            }
        }
        deepest
    }

    /// The lexicon the document's ids belong to.
    pub fn lexicon(&self) -> &Arc<Lexicon> {
        &self.lexicon
    }

    /// Number of word tokens in the underlying document.
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// The word n-gram counts.
    pub fn word_counts(&self) -> TermCounts<'_> {
        TermCounts::new(&self.lexicon, &self.word_counts)
    }

    /// The char n-gram counts.
    pub fn char_counts(&self) -> TermCounts<'_> {
        TermCounts::new(&self.lexicon, &self.char_counts)
    }
}

impl EstimateBytes for PreparedDoc {
    fn estimate_bytes(&self) -> u64 {
        self.words.iter().map(|w| w.len() as u64 + 24).sum::<u64>()
            + self.char_text.len() as u64
            + (NUM_SLOTS as u64) * 8
            + 64
    }
}

impl EstimateBytes for CountedDoc {
    fn estimate_bytes(&self) -> u64 {
        // Eight bytes per `(id, count)` pair plus the two pair-vector
        // headers; the term strings live in the lexicon, charged once per
        // dataset (see `Lexicon`'s estimate).
        ((self.word_counts.len() + self.char_counts.len()) as u64) * 8
            + 2 * 24
            + (NUM_SLOTS as u64) * 8
            + 64
    }
}

/// Pre-resolved instruments for the vectorization hot path; all no-ops
/// unless the extractor was given an enabled [`PipelineMetrics`].
#[derive(Debug, Clone, Default)]
// audit:allow(estimate-bytes-coverage) -- shared metric handles, not per-record data; the governor never counts instruments
struct SpaceInstruments {
    /// Wall-clock per `vectorize_counted` call.
    vectorize: Timer,
    /// Documents vectorized in this space.
    vectors: Counter,
    /// Total non-zero entries across produced vectors.
    nnz: Counter,
}

/// A fitted feature space: frozen vocabularies, IDF weights, and the block
/// layout.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    config: FeatureConfig,
    word_vocab: Vocabulary,
    word_tfidf: TfIdf,
    char_vocab: Vocabulary,
    char_tfidf: TfIdf,
    instruments: SpaceInstruments,
}

impl EstimateBytes for FeatureSpace {
    fn estimate_bytes(&self) -> u64 {
        // Instruments are shared handles, not per-space payload.
        self.config.estimate_bytes()
            + self.word_vocab.estimate_bytes()
            + self.word_tfidf.estimate_bytes()
            + self.char_vocab.estimate_bytes()
            + self.char_tfidf.estimate_bytes()
    }
}

/// Fits [`FeatureSpace`]s on document collections.
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    config: FeatureConfig,
    metrics: PipelineMetrics,
}

impl FeatureExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: FeatureConfig) -> FeatureExtractor {
        FeatureExtractor {
            config,
            metrics: PipelineMetrics::disabled(),
        }
    }

    /// Records fit and vectorization activity into `metrics`; spaces
    /// fitted afterwards inherit the handle.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> FeatureExtractor {
        self.metrics = metrics;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Records the shape of a freshly fitted space and wires up the
    /// hot-path instruments it will carry.
    fn finish_space(&self, word_vocab: Vocabulary, char_vocab: Vocabulary) -> FeatureSpace {
        let word_tfidf = TfIdf::fit(&word_vocab);
        let char_tfidf = TfIdf::fit(&char_vocab);
        let space = FeatureSpace {
            config: self.config.clone(),
            word_vocab,
            word_tfidf,
            char_vocab,
            char_tfidf,
            instruments: SpaceInstruments {
                vectorize: self.metrics.timer("features.vectorize"),
                vectors: self.metrics.counter("features.vectors"),
                nnz: self.metrics.counter("features.vector_nnz"),
            },
        };
        self.metrics.counter("features.fits").incr();
        self.metrics
            .gauge("features.word_vocab")
            .set(space.word_vocab_len() as i64);
        self.metrics
            .gauge("features.char_vocab")
            .set(space.char_vocab_len() as i64);
        self.metrics.gauge("features.dim").set(space.dim() as i64);
        space
    }

    /// Fits the vocabularies and IDF weights on `docs` (the paper fits on
    /// the *known* author set, then vectorizes knowns and unknowns in that
    /// space). Counts the documents at this config's n-gram maxima first.
    pub fn fit<'a, I>(&self, docs: I) -> FeatureSpace
    where
        I: IntoIterator<Item = &'a PreparedDoc>,
    {
        let _fit = self.metrics.timer("features.fit").start();
        let docs: Vec<&PreparedDoc> = docs.into_iter().collect();
        let counted =
            CountedDoc::count_all(&docs, self.config.max_word_n, self.config.max_char_n, 1);
        self.fit_docs(&counted.iter().collect::<Vec<_>>(), false).0
    }

    /// Fits from precomputed [`CountedDoc`]s. The counts must have been
    /// produced with n-gram maxima at least as large as this config's
    /// (counting at larger maxima only adds longer grams, which simply
    /// compete in the frequency ranking exactly as the paper's do).
    ///
    /// Documents of one lexicon lineage are fitted on raw ids; documents
    /// from unrelated lexicons are first rebased into one fit-local
    /// extension (see [`CountedDoc::rebase_all`]). Either way the fitted
    /// space is the same, because selection ranks by term strings.
    pub fn fit_counted<'a, I>(&self, docs: I) -> FeatureSpace
    where
        I: IntoIterator<Item = &'a CountedDoc>,
    {
        let _fit = self.metrics.timer("features.fit").start();
        let docs: Vec<&CountedDoc> = docs.into_iter().collect();
        match rebased_if_unrelated(&docs) {
            Some(rebased) => self.fit_docs(&rebased.iter().collect::<Vec<_>>(), false).0,
            None => self.fit_docs(&docs, false).0,
        }
    }

    /// Fits like [`fit_counted`](Self::fit_counted) and weights every
    /// fitted document, each with its activity profile, in the fitted
    /// space, feature by feature: document `d` of the result is input
    /// document `d`, its row bit for bit what
    /// [`FeatureSpace::vectorize_counted`] gives it, and the result has
    /// one feature per dimension of the space.
    ///
    /// The fit lays the selected terms' pairs out by feature (see
    /// [`vocab`](crate::vocab)), appends the char-class and activity
    /// features, and weights the entries in place, so no fitted document
    /// gets a vector of its own and no vectors are transposed. Grouping,
    /// selection and the layout run under the `features.fit` timer, the
    /// weighting under `features.vectorize`.
    pub fn fit_feature_major<'a, I>(&self, docs: I) -> (FeatureSpace, FeatureMajor)
    where
        I: IntoIterator<Item = (&'a CountedDoc, Option<&'a DailyActivityProfile>)>,
    {
        let fit = self.metrics.timer("features.fit").start();
        let (counted, activity): (Vec<&CountedDoc>, Vec<Option<&DailyActivityProfile>>) =
            docs.into_iter().unzip();
        let rebased = rebased_if_unrelated(&counted);
        let counted = match &rebased {
            Some(rebased) => rebased.iter().collect(),
            None => counted,
        };
        let (space, mut weights) = self.fit_docs(&counted, true);
        drop(fit);
        space.weigh(&mut weights, &counted, &activity);
        (space, weights)
    }

    /// The core of every fit path, over documents sharing one lexicon
    /// lineage: each family's pairs are grouped by term through one
    /// dense id table the two families share, and its top N terms
    /// selected from the slot totals. With `lay_out`, each family's
    /// selected pairs are laid out, as soon as it is selected, as the
    /// n-gram features of the returned [`FeatureMajor`], ready for
    /// [`FeatureSpace::weigh`].
    fn fit_docs(&self, docs: &[&CountedDoc], lay_out: bool) -> (FeatureSpace, FeatureMajor) {
        let config = &self.config;
        let lexicon = CountedDoc::shared_lexicon(docs.iter().copied())
            .cloned()
            .unwrap_or_default();
        let mut table = SlotTable::new(&lexicon);
        let words: Vec<TermCounts<'_>> = docs.iter().map(|d| d.word_counts()).collect();
        let chars: Vec<TermCounts<'_>> = docs.iter().map(|d| d.char_counts()).collect();
        let mut out = FeatureMajor::new(docs.len());
        let (word_vocab, selection) =
            select_family(&lexicon, &mut table, &words, config.top_word_ngrams);
        if lay_out {
            // Room for the selected words' pairs, every char pair and one
            // entry per char-class slot and hour, so no entry ever moves.
            let char_pairs: usize = chars.iter().map(TermCounts::len).sum();
            out.entries
                .reserve_exact(selection.pairs() + char_pairs + docs.len() * (NUM_SLOTS + HOURS));
            lay_out_ngrams(selection, word_vocab.len(), config.word_weight, &mut out);
        }
        let (char_vocab, selection) =
            select_family(&lexicon, &mut table, &chars, config.top_char_ngrams);
        if lay_out {
            lay_out_ngrams(selection, char_vocab.len(), config.char_weight, &mut out);
        }
        (self.finish_space(word_vocab, char_vocab), out)
    }
}

/// Lays out one n-gram family's `terms` selected terms as features of
/// `out`, or leaves them empty when a zero block `weight` drops the
/// block (as [`SparseVector::scale_from`] drops it).
fn lay_out_ngrams(selection: Selection<'_>, terms: usize, weight: f32, out: &mut FeatureMajor) {
    if weight == 0.0 {
        out.offsets
            .extend(std::iter::repeat_n(out.entries.len(), terms));
    } else {
        selection.lay_out(out);
    }
}

/// `docs` rebased into one fit-local extension of the first one's
/// lexicon when they come from unrelated lexicons; `None` when they
/// already share a lineage (or there are none).
fn rebased_if_unrelated(docs: &[&CountedDoc]) -> Option<Vec<CountedDoc>> {
    let first = docs.first()?;
    CountedDoc::shared_lexicon(docs.iter().copied())
        .is_none()
        .then(|| CountedDoc::rebase_all(docs, first.lexicon()))
}

/// Where one n-gram block of a space goes and how it is weighted, for
/// [`FeatureSpace::vectorize_counted`].
struct NgramBlock<'s> {
    offset: u32,
    tfidf: &'s TfIdf,
    weight: f32,
}

impl NgramBlock<'_> {
    /// Appends the term at dense index `i`, counted `tf` times; a block's
    /// terms come in index order.
    fn push(&self, v: &mut SparseVector, i: u32, tf: u32) {
        v.push(self.offset + i, tf as f32 * self.tfidf.idf(i));
    }

    /// Closes the block that began at entry `start`: L2-normalizes it,
    /// then scales it by the block weight.
    fn end(&self, v: &mut SparseVector, start: usize) {
        v.normalize_from(start);
        v.scale_from(start, self.weight);
    }
}

impl FeatureSpace {
    /// Reassembles a space from its frozen parts — the configuration and
    /// the two fitted vocabularies. The IDF weights are *recomputed* from
    /// the vocabularies' document frequencies ([`TfIdf::fit`] is a pure
    /// function of the vocabulary), so a space rebuilt from a persisted
    /// artifact vectorizes bit-identically to the original fit. The
    /// rebuilt space carries disabled instruments; artifact loads are not
    /// a fit and record no `features.*` metrics.
    pub fn from_parts(
        config: FeatureConfig,
        word_vocab: Vocabulary,
        char_vocab: Vocabulary,
    ) -> FeatureSpace {
        let word_tfidf = TfIdf::fit(&word_vocab);
        let char_tfidf = TfIdf::fit(&char_vocab);
        FeatureSpace {
            config,
            word_vocab,
            word_tfidf,
            char_vocab,
            char_tfidf,
            instruments: SpaceInstruments::default(),
        }
    }

    /// The configuration the space was fitted with.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// The fitted word n-gram vocabulary.
    pub fn word_vocab(&self) -> &Vocabulary {
        &self.word_vocab
    }

    /// The fitted char n-gram vocabulary.
    pub fn char_vocab(&self) -> &Vocabulary {
        &self.char_vocab
    }

    /// The lexicon the fitted vocabularies' ids belong to; documents from
    /// a compatible lexicon vectorize without translation.
    pub fn lexicon(&self) -> &Arc<Lexicon> {
        self.word_vocab.lexicon()
    }

    /// Dense offset of the char n-gram block.
    fn char_offset(&self) -> u32 {
        self.word_vocab.len() as u32
    }

    /// Dense offset of the char-class block.
    fn class_offset(&self) -> u32 {
        self.char_offset() + self.char_vocab.len() as u32
    }

    /// Dense offset of the activity block.
    fn activity_offset(&self) -> u32 {
        self.class_offset() + NUM_SLOTS as u32
    }

    /// Total dimensionality of the space.
    pub fn dim(&self) -> usize {
        self.activity_offset() as usize + HOURS
    }

    /// Number of selected word n-grams.
    pub fn word_vocab_len(&self) -> usize {
        self.word_vocab.len()
    }

    /// Number of selected char n-grams.
    pub fn char_vocab_len(&self) -> usize {
        self.char_vocab.len()
    }

    /// Vectorizes a document (optionally with its activity profile) into
    /// the unit-norm concatenated feature vector. With
    /// `activity_weight == 0` or `activity == None` the activity block is
    /// all zeros.
    pub fn vectorize(
        &self,
        doc: &PreparedDoc,
        activity: Option<&DailyActivityProfile>,
    ) -> SparseVector {
        let counted =
            CountedDoc::from_prepared(doc, self.config.max_word_n, self.config.max_char_n);
        self.vectorize_counted(&counted, activity)
    }

    /// Vectorizes a precounted document; see [`FeatureSpace::vectorize`].
    /// Documents a space was fitted on are weighted by the fit itself
    /// ([`FeatureExtractor::fit_feature_major`]); this path serves the
    /// rest.
    ///
    /// Each block is written once into the output, in index order, then
    /// L2-normalized and weighted in place; the whole vector is
    /// normalized last.
    pub fn vectorize_counted(
        &self,
        doc: &CountedDoc,
        activity: Option<&DailyActivityProfile>,
    ) -> SparseVector {
        let _vec = self.instruments.vectorize.start();
        let words = selected_in_order(&self.word_vocab, doc.word_counts());
        let chars = selected_in_order(&self.char_vocab, doc.char_counts());
        let mut v = SparseVector::with_capacity(words.len() + chars.len() + NUM_SLOTS + HOURS);
        for (block, keys) in self.ngram_blocks().iter().zip([words, chars]) {
            let start = v.nnz();
            for key in keys {
                block.push(&mut v, (key >> 32) as u32, key as u32);
            }
            block.end(&mut v, start);
        }
        self.finish_vector(v, doc, activity)
    }

    /// The word and char n-gram blocks, in vector order.
    fn ngram_blocks(&self) -> [NgramBlock<'_>; 2] {
        [
            NgramBlock {
                offset: 0,
                tfidf: &self.word_tfidf,
                weight: self.config.word_weight,
            },
            NgramBlock {
                offset: self.char_offset(),
                tfidf: &self.char_tfidf,
                weight: self.config.char_weight,
            },
        ]
    }

    /// Weights the features a fit on `docs` just laid out in `out` (the
    /// n-gram features, counts as `f32`) into the documents' final
    /// vectors, in place: appends the char-class and activity features,
    /// then runs, for every document, the floating-point operations
    /// [`vectorize_counted`](Self::vectorize_counted) runs on its vector
    /// in the same order. Each n-gram count is multiplied by its term's
    /// IDF; each block's norm is summed in `f64` in feature order, and
    /// the block normalized and scaled by its weight; then the whole
    /// vector's norm is summed in feature order and applied.
    fn weigh(
        &self,
        out: &mut FeatureMajor,
        docs: &[&CountedDoc],
        activity: &[Option<&DailyActivityProfile>],
    ) {
        let _vec = self.instruments.vectorize.start();
        let config = &self.config;
        // A block weight that is not positive leaves the fixed-slot
        // features empty, as `finish_vector` skips them.
        for i in 0..NUM_SLOTS {
            if config.char_class_weight > 0.0 {
                for (d, doc) in docs.iter().enumerate() {
                    push_nonzero(out, d, doc.char_class[i]);
                }
            }
            out.offsets.push(out.entries.len());
        }
        for h in 0..HOURS {
            if config.activity_weight > 0.0 {
                for (d, profile) in activity.iter().enumerate() {
                    if let Some(profile) = profile {
                        push_nonzero(out, d, profile.shares()[h]);
                    }
                }
            }
            out.offsets.push(out.entries.len());
        }
        debug_assert_eq!(out.dim(), self.dim());

        // Each block's features, weight, and IDF for the n-gram blocks.
        let blocks = [
            (
                0..self.char_offset(),
                config.word_weight,
                Some(&self.word_tfidf),
            ),
            (
                self.char_offset()..self.class_offset(),
                config.char_weight,
                Some(&self.char_tfidf),
            ),
            (
                self.class_offset()..self.activity_offset(),
                config.char_class_weight,
                None,
            ),
            (
                self.activity_offset()..self.dim() as u32,
                config.activity_weight,
                None,
            ),
        ];
        let mut norms = vec![0.0f64; out.docs];
        let mut totals = vec![0.0f64; out.docs];
        for (features, weight, tfidf) in blocks {
            let (start, end) = (features.start as usize, features.end as usize);
            norms.fill(0.0);
            for f in start..end {
                let column = &mut out.entries[out.offsets[f]..out.offsets[f + 1]];
                let idf = tfidf.map(|t| t.idf((f - start) as u32));
                for (d, x) in column {
                    // A count times an IDF, both at least 1, is never
                    // zero, so no entry is dropped as `push` drops zeros.
                    if let Some(idf) = idf {
                        *x *= idf;
                    }
                    norms[*d as usize] += *x as f64 * *x as f64;
                }
            }
            let factors = unit_factors(&norms);
            for (d, x) in &mut out.entries[out.offsets[start]..out.offsets[end]] {
                *x = *x * factors[*d as usize] * weight;
                totals[*d as usize] += *x as f64 * *x as f64;
            }
        }
        let factors = unit_factors(&totals);
        for (d, x) in &mut out.entries {
            *x *= factors[*d as usize];
        }
        self.instruments.vectors.add(out.docs as u64);
        self.instruments.nnz.add(out.entries.len() as u64);
    }

    /// Appends the char-class and activity blocks after a vector's
    /// n-gram blocks, normalizes the whole vector and counts it.
    fn finish_vector(
        &self,
        mut v: SparseVector,
        doc: &CountedDoc,
        activity: Option<&DailyActivityProfile>,
    ) -> SparseVector {
        let config = &self.config;
        if config.char_class_weight > 0.0 {
            let start = v.nnz();
            for (i, &f) in doc.char_class.iter().enumerate() {
                if f > 0.0 {
                    v.push(self.class_offset() + i as u32, f as f32);
                }
            }
            v.normalize_from(start);
            v.scale_from(start, config.char_class_weight);
        }

        if config.activity_weight > 0.0 {
            if let Some(profile) = activity {
                let start = v.nnz();
                for (h, &share) in profile.shares().iter().enumerate() {
                    if share > 0.0 {
                        v.push(self.activity_offset() + h as u32, share as f32);
                    }
                }
                v.normalize_from(start);
                v.scale_from(start, config.activity_weight);
            }
        }
        v.normalize_from(0);
        self.instruments.vectors.incr();
        self.instruments.nnz.add(v.nnz() as u64);
        v
    }
}

/// Appends document `d`'s entry to `out`'s last feature when `value` is
/// positive and stays nonzero as an `f32`, as
/// [`FeatureSpace::vectorize_counted`] keeps a char-class frequency or
/// an activity share.
fn push_nonzero(out: &mut FeatureMajor, d: usize, value: f64) {
    if value > 0.0 && value as f32 != 0.0 {
        out.entries.push((d as u32, value as f32));
    }
}

/// The factor that L2-normalizes each document's block of squared norm
/// `sums[d]`, as [`SparseVector::normalize_from`] computes it: `1 / norm`
/// as an `f32`, or 1 (no change) for a zero norm.
fn unit_factors(sums: &[f64]) -> Vec<f32> {
    sums.iter()
        .map(|&sum| {
            let norm = sum.sqrt();
            let factor = if norm > 0.0 { (1.0 / norm) as f32 } else { 1.0 };
            // A zero factor would drop the block; f32 weights never have
            // a norm that large.
            debug_assert!(factor != 0.0);
            factor
        })
        .collect()
}

/// The terms of `counts` that `vocab` selected, as `(dense index << 32) |
/// count` keys sorted by dense index. Each term has its own index, so
/// the unstable sort is deterministic.
fn selected_in_order(vocab: &Vocabulary, counts: TermCounts<'_>) -> Vec<u64> {
    let mut keys = Vec::with_capacity(counts.len().min(vocab.len()));
    vocab.for_each_selected(counts, |i, tf| {
        keys.push(u64::from(i) << 32 | u64::from(tf))
    });
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::tests::VocabBuilder;
    use darklight_activity::profile::DailyActivityProfile;

    fn prep(text: &str) -> PreparedDoc {
        let l = Lemmatizer::new();
        PreparedDoc::prepare(text, Some(&l))
    }

    fn profile(hour: usize) -> DailyActivityProfile {
        let mut counts = [0u32; HOURS];
        counts[hour] = 10;
        DailyActivityProfile::from_counts(counts).unwrap()
    }

    #[test]
    fn prepare_lemmatizes_and_counts_classes() {
        let d = prep("Wolves were running!! 42 times");
        assert_eq!(d.words(), ["wolf", "be", "run", "42", "time"]);
        assert!(d.char_class.iter().any(|&f| f > 0.0)); // '!' and digits
        assert_eq!(d.word_len(), 5);
    }

    #[test]
    fn prepare_without_lemmatizer() {
        let d = PreparedDoc::prepare("Wolves running", None);
        assert_eq!(d.words(), ["wolves", "running"]);
    }

    #[test]
    fn truncate_words_limits_budget() {
        let d = prep("one two three four five six seven eight nine ten");
        let t = d.truncate_words(4);
        assert_eq!(t.word_len(), 4);
        assert!(t.char_text().len() < d.char_text().len());
        // Truncating beyond length is identity.
        assert_eq!(d.truncate_words(100).word_len(), d.word_len());
    }

    #[test]
    fn vectors_are_unit_norm() {
        let docs = [
            prep("i always ship with tracking and stealth is great"),
            prep("never had a problem with this vendor, top quality"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit(&docs);
        let v = space.vectorize(&docs[0], Some(&profile(9)));
        assert!((v.norm() - 1.0).abs() < 1e-5);
        assert!(v.nnz() > 0);
    }

    #[test]
    fn same_doc_has_cosine_one() {
        let docs = [prep("repeat the very same words again and again")];
        let space = FeatureExtractor::new(FeatureConfig::final_stage()).fit(&docs);
        let a = space.vectorize(&docs[0], Some(&profile(10)));
        let b = space.vectorize(&docs[0], Some(&profile(10)));
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn similar_docs_score_higher_than_dissimilar() {
        let docs = [
            prep("i love psychedelic mushrooms and trip reports from the garden"),
            prep("i love psychedelic mushrooms and reading trip reports here"),
            prep("bitcoin fees are insane today the mempool is backed up badly"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit(&docs);
        let v: Vec<SparseVector> = docs.iter().map(|d| space.vectorize(d, None)).collect();
        assert!(v[0].cosine(&v[1]) > v[0].cosine(&v[2]));
    }

    #[test]
    fn activity_block_influences_similarity() {
        let docs = [
            prep("completely different words about one topic entirely"),
            prep("utterly distinct vocabulary concerning another theme"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit(&docs);
        let same_hours = space
            .vectorize(&docs[0], Some(&profile(9)))
            .cosine(&space.vectorize(&docs[1], Some(&profile(9))));
        let diff_hours = space
            .vectorize(&docs[0], Some(&profile(9)))
            .cosine(&space.vectorize(&docs[1], Some(&profile(21))));
        assert!(same_hours > diff_hours);
    }

    #[test]
    fn without_activity_ignores_profile() {
        let docs = [prep("text that stays exactly the same every time here")];
        let cfg = FeatureConfig::space_reduction().without_activity();
        let space = FeatureExtractor::new(cfg).fit(&docs);
        let a = space.vectorize(&docs[0], Some(&profile(3)));
        let b = space.vectorize(&docs[0], Some(&profile(15)));
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn refit_on_subset_changes_space() {
        let docs: Vec<PreparedDoc> = [
            "alpha beta gamma delta epsilon zeta",
            "alpha beta gamma something else entirely",
            "unrelated words that share nothing at all",
        ]
        .iter()
        .map(|s| prep(s))
        .collect();
        let full = FeatureExtractor::new(FeatureConfig::space_reduction()).fit(&docs);
        let sub = FeatureExtractor::new(FeatureConfig::final_stage()).fit(&docs[..2]);
        // The subset space reflects only the two first docs' vocabulary.
        assert!(sub.word_vocab_len() < full.word_vocab_len());
    }

    #[test]
    fn dims_account_for_all_blocks() {
        let docs = [prep("just a few words to fit on")];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit(&docs);
        assert_eq!(
            space.dim(),
            space.word_vocab_len() + space.char_vocab_len() + NUM_SLOTS + HOURS
        );
    }

    #[test]
    fn metrics_capture_fit_shape_and_vector_activity() {
        let metrics = PipelineMetrics::enabled();
        let docs = [
            prep("some words to fit the space on"),
            prep("other words for the second document"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction())
            .with_metrics(metrics.clone())
            .fit(&docs);
        let v = space.vectorize(&docs[0], None);
        assert_eq!(metrics.counter("features.fits").get(), 1);
        assert_eq!(metrics.timer("features.fit").count(), 1);
        assert_eq!(metrics.gauge("features.dim").get() as usize, space.dim());
        assert_eq!(
            metrics.gauge("features.word_vocab").get() as usize,
            space.word_vocab_len()
        );
        assert_eq!(metrics.counter("features.vectors").get(), 1);
        assert_eq!(metrics.counter("features.vector_nnz").get(), v.nnz() as u64);
        assert_eq!(metrics.timer("features.vectorize").count(), 1);
    }

    /// Sharded counting hands out the serial pass's ids: same lexicon,
    /// term for term, and the same pairs, at every thread count.
    #[test]
    fn count_all_ids_are_thread_invariant() {
        let texts = [
            "alpha beta gamma delta",
            "delta gamma new words here",
            "beta beta alpha and more new words",
            "a fourth document with a fresh tail",
            "the fifth one repeats alpha delta",
        ];
        let docs: Vec<PreparedDoc> = texts.iter().map(|t| prep(t)).collect();
        let refs: Vec<&PreparedDoc> = docs.iter().collect();
        let serial = CountedDoc::count_all(&refs, 3, 5, 1);
        let lexicon = serial[0].lexicon();
        for threads in [2, 3, 7] {
            let sharded = CountedDoc::count_all(&refs, 3, 5, threads);
            let merged = sharded[0].lexicon();
            assert_eq!(merged.len(), lexicon.len(), "threads = {threads}");
            for id in 0..lexicon.len() as u32 {
                assert_eq!(merged.term(id), lexicon.term(id), "threads = {threads}");
            }
            for (a, b) in serial.iter().zip(&sharded) {
                assert!(Arc::ptr_eq(b.lexicon(), merged));
                assert_eq!(a.word_counts().pairs(), b.word_counts().pairs());
                assert_eq!(a.char_counts().pairs(), b.char_counts().pairs());
            }
        }
        assert!(CountedDoc::count_all(&[], 3, 5, 2).is_empty());
    }

    fn vocab_terms(v: &Vocabulary) -> Vec<String> {
        v.iter().map(|(t, _)| t.to_string()).collect()
    }

    fn assert_same_bits(a: &SparseVector, b: &SparseVector) {
        assert_eq!(a.nnz(), b.nnz());
        for ((ia, va), (ib, vb)) in a.iter().zip(b.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(va.to_bits(), vb.to_bits(), "index {ia}");
        }
    }

    /// A vocabulary's terms in dense-index order with their document
    /// frequencies, and its document count.
    fn vocab_entries(v: &Vocabulary) -> (Vec<(String, u32)>, u32) {
        let terms = v
            .iter()
            .map(|(t, i)| (t.to_string(), v.doc_freq(i)))
            .collect();
        (terms, v.num_docs())
    }

    /// Two feature-major layouts hold the same offsets, document count
    /// and entries, bit for bit.
    fn assert_same_layout(a: &FeatureMajor, b: &FeatureMajor) {
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.docs, b.docs);
        let bits = |m: &FeatureMajor| {
            m.entries
                .iter()
                .map(|&(d, x)| (d, x.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(a), bits(b));
    }

    /// The pins of the feature-major path, for one fit of `cfg` over
    /// `docs`, each weighted with `activity`: `fit_feature_major` gives
    /// every fitted document the row `vectorize_counted` and the
    /// reference give it in the space it fits, and the rows transposed
    /// back are its output; that space selects what `fit_counted` does;
    /// and both vocabularies hold the terms, order, document frequencies
    /// and document count of the map-based builder's selection. Returns
    /// the space.
    fn assert_term_major_pins(
        cfg: &FeatureConfig,
        docs: &[&CountedDoc],
        activity: Option<&DailyActivityProfile>,
    ) -> FeatureSpace {
        let extractor = FeatureExtractor::new(cfg.clone());
        let (space, weights) = extractor.fit_feature_major(docs.iter().map(|&d| (d, activity)));
        assert_eq!(weights.docs(), docs.len());
        assert_eq!(weights.dim(), space.dim());
        let rows = weights.rows();
        for (doc, v) in docs.iter().zip(&rows) {
            assert_same_bits(v, &space.vectorize_counted(doc, activity));
            assert_same_bits(v, &reference_vectorize(&space, doc, activity));
        }
        assert_same_layout(&FeatureMajor::from_rows(&rows, space.dim()), &weights);
        let counted = extractor.fit_counted(docs.iter().copied());
        assert_eq!(
            vocab_entries(counted.word_vocab()),
            vocab_entries(space.word_vocab())
        );
        assert_eq!(
            vocab_entries(counted.char_vocab()),
            vocab_entries(space.char_vocab())
        );
        let rebased = rebased_if_unrelated(docs);
        let docs: Vec<&CountedDoc> = match &rebased {
            Some(rebased) => rebased.iter().collect(),
            None => docs.to_vec(),
        };
        let lexicon = CountedDoc::shared_lexicon(docs.iter().copied())
            .cloned()
            .unwrap_or_default();
        let mut words = VocabBuilder::new(Arc::clone(&lexicon));
        let mut chars = VocabBuilder::new(lexicon);
        for doc in &docs {
            words.add_doc(doc.word_counts());
            chars.add_doc(doc.char_counts());
        }
        assert_eq!(
            vocab_entries(&words.select_top(cfg.top_word_ngrams)),
            vocab_entries(space.word_vocab())
        );
        assert_eq!(
            vocab_entries(&chars.select_top(cfg.top_char_ngrams)),
            vocab_entries(space.char_vocab())
        );
        space
    }

    /// The stage-2 freeze: known candidates counted in one lexicon, the
    /// unknown rebased into a link-local extension whose terms all get
    /// ids above every known term. The top-N cut falls inside a tie on
    /// total; the kept terms and their order must follow the strings,
    /// not the ids (which would keep the known terms).
    #[test]
    fn freeze_over_a_link_local_extension_follows_strings() {
        let cfg = FeatureConfig {
            max_word_n: 1,
            max_char_n: 1,
            top_word_ngrams: 3,
            top_char_ngrams: 4,
            ..FeatureConfig::final_stage()
        };
        let known_docs = [
            PreparedDoc::prepare("zulu yankee xray", None),
            PreparedDoc::prepare("zulu whiskey", None),
        ];
        let unknown_doc = PreparedDoc::prepare("bravo alpha zulu", None);
        let known = CountedDoc::count_all(&known_docs.iter().collect::<Vec<_>>(), 1, 1, 1);
        let unknown = CountedDoc::from_prepared(&unknown_doc, 1, 1);
        let rebased = CountedDoc::rebase_all(&[&unknown], known[0].lexicon());
        assert!(rebased[0].lexicon().covers(known[0].lexicon()));
        let alpha = rebased[0].lexicon().id_of("alpha").unwrap();
        assert!(alpha > known[0].lexicon().id_of("yankee").unwrap());

        let space = FeatureExtractor::new(cfg.clone())
            .fit_counted(known.iter().chain(std::iter::once(&rebased[0])));
        assert!(Arc::ptr_eq(space.lexicon(), rebased[0].lexicon()));
        // zulu (3) first, then the tie at 1 cut to its first two strings.
        assert_eq!(vocab_terms(space.word_vocab()), ["zulu", "alpha", "bravo"]);

        // Counted all together — other ids, same freeze, same bits.
        let all_docs = [&known_docs[0], &known_docs[1], &unknown_doc];
        let joint = CountedDoc::count_all(&all_docs, 1, 1, 1);
        let joint_space = FeatureExtractor::new(cfg.clone()).fit_counted(&joint);
        assert_eq!(
            vocab_terms(joint_space.word_vocab()),
            vocab_terms(space.word_vocab())
        );
        assert_eq!(
            vocab_terms(joint_space.char_vocab()),
            vocab_terms(space.char_vocab())
        );
        // And the unrebased unknown (an unrelated lexicon), which
        // `fit_counted` rebases itself, gives the same result.
        let foreign_space = FeatureExtractor::new(cfg.clone())
            .fit_counted(known.iter().chain(std::iter::once(&unknown)));
        assert_eq!(
            vocab_terms(foreign_space.word_vocab()),
            vocab_terms(space.word_vocab())
        );
        for (a, b) in joint.iter().zip(known.iter().chain(&rebased)) {
            assert_same_bits(
                &joint_space.vectorize_counted(a, None),
                &space.vectorize_counted(b, None),
            );
            assert_same_bits(
                &joint_space.vectorize_counted(a, None),
                &foreign_space.vectorize_counted(b, None),
            );
        }
        // The feature-major path over the extension, over the unrelated
        // lexicons it rebases itself, and over the joint counts.
        let hour = profile(4);
        for docs in [
            vec![&known[0], &known[1], &rebased[0]],
            vec![&known[0], &known[1], &unknown],
            vec![&unknown, &known[1]],
            joint.iter().collect(),
        ] {
            for activity in [None, Some(&hour)] {
                assert_term_major_pins(&cfg, &docs, activity);
            }
        }
    }

    /// The feature-major path over documents counted in three unrelated
    /// lexicons, some terms shared by strings only, one document empty.
    #[test]
    fn fit_feature_major_over_unrelated_lexicons_follows_strings() {
        let texts = [
            "the wolf ran past the old mill again",
            "",
            "old mill wolves and the river",
            "the river runs past the mill",
        ];
        let docs: Vec<CountedDoc> = texts
            .iter()
            .map(|t| CountedDoc::from_prepared(&prep(t), 3, 5))
            .collect();
        let refs: Vec<&CountedDoc> = docs.iter().collect();
        assert!(CountedDoc::shared_lexicon(refs.iter().copied()).is_none());
        for cfg in [
            FeatureConfig::final_stage(),
            FeatureConfig {
                top_word_ngrams: 4,
                top_char_ngrams: 9,
                ..FeatureConfig::space_reduction()
            },
        ] {
            let space = assert_term_major_pins(&cfg, &refs, Some(&profile(20)));
            let joint = CountedDoc::count_all(
                &texts
                    .iter()
                    .map(|t| prep(t))
                    .collect::<Vec<_>>()
                    .iter()
                    .collect::<Vec<_>>(),
                3,
                5,
                1,
            );
            let (_, joint_weights) =
                FeatureExtractor::new(cfg).fit_feature_major(joint.iter().map(|d| (d, None)));
            for (doc, v) in refs.iter().zip(&joint_weights.rows()) {
                assert_same_bits(v, &space.vectorize_counted(doc, None));
            }
        }
        let (space, weights) = FeatureExtractor::new(FeatureConfig::final_stage())
            .fit_feature_major(std::iter::empty());
        assert_eq!((weights.docs(), weights.nnz()), (0, 0));
        assert_eq!(space.dim(), NUM_SLOTS + HOURS);
        assert_eq!(weights.dim(), space.dim());
    }

    /// A fit counts what the per-document path counts: one vector per
    /// fitted document and its entries, under one `features.vectorize`
    /// timing.
    #[test]
    fn fit_feature_major_counts_its_vectors() {
        let metrics = PipelineMetrics::enabled();
        let docs = CountedDoc::count_all(
            &[prep("some words to fit on"), prep("and other words here")]
                .iter()
                .collect::<Vec<_>>(),
            3,
            5,
            1,
        );
        let hour = profile(7);
        let (space, weights) = FeatureExtractor::new(FeatureConfig::final_stage())
            .with_metrics(metrics.clone())
            .fit_feature_major(docs.iter().map(|d| (d, Some(&hour))));
        let nnz: usize = docs
            .iter()
            .map(|d| space.vectorize_counted(d, Some(&hour)).nnz())
            .sum();
        assert_eq!(weights.nnz(), nnz);
        // The two fit vectors, then the two checks above.
        assert_eq!(metrics.counter("features.vectors").get(), 4);
        assert_eq!(metrics.counter("features.vector_nnz").get(), 2 * nnz as u64);
        assert_eq!(metrics.timer("features.vectorize").count(), 1 + 2);
        assert_eq!(metrics.counter("features.fits").get(), 1);
    }

    /// `vectorize_counted` as it stood before blocks were written in
    /// place: each block built by `from_pairs`, normalized into a copy,
    /// weighted, and concatenated; the whole normalized into a copy.
    fn reference_vectorize(
        space: &FeatureSpace,
        doc: &CountedDoc,
        activity: Option<&DailyActivityProfile>,
    ) -> SparseVector {
        let config = &space.config;
        let mut v = space
            .word_tfidf
            .transform(&space.word_vocab, doc.word_counts());
        v = v.l2_normalized();
        v.scale(config.word_weight);
        let mut cv = space
            .char_tfidf
            .transform(&space.char_vocab, doc.char_counts());
        cv = cv.l2_normalized();
        cv.scale(config.char_weight);
        v.concat(&cv, space.char_offset());
        if config.char_class_weight > 0.0 {
            let mut ccv = SparseVector::from_pairs(
                doc.char_class
                    .iter()
                    .enumerate()
                    .filter(|&(_, &f)| f > 0.0)
                    .map(|(i, &f)| (i as u32, f as f32)),
            );
            ccv = ccv.l2_normalized();
            ccv.scale(config.char_class_weight);
            v.concat(&ccv, space.class_offset());
        }
        if config.activity_weight > 0.0 {
            if let Some(profile) = activity {
                let mut av = SparseVector::from_pairs(
                    profile
                        .shares()
                        .iter()
                        .enumerate()
                        .filter(|&(_, &s)| s > 0.0)
                        .map(|(h, &s)| (h as u32, s as f32)),
                );
                av = av.l2_normalized();
                av.scale(config.activity_weight);
                v.concat(&av, space.activity_offset());
            }
        }
        v.l2_normalized()
    }

    /// In-place vectorization matches the copy-per-block reference bit
    /// for bit: in the fitted space and in a refit on a subset (so some
    /// terms fall outside the vocabulary), for an empty document, with
    /// and without activity, with each block weight set to zero and with
    /// top-N cuts inside frequency ties. The feature-major path gives
    /// every fitted document the same bits, including a fit on the empty
    /// document alone.
    #[test]
    fn vectorize_counted_matches_the_reference_bit_for_bit() {
        let texts = [
            "i always ship with tracking and stealth is great, 10/10 would buy",
            "never had a problem with this vendor!! top quality as always",
            "bitcoin fees are insane today; the mempool is backed up again",
            "",
            "ÜBER naïve café — 日本語 text with 🙂 and numbers 42 42 42",
        ];
        let docs: Vec<PreparedDoc> = texts.iter().map(|t| prep(t)).collect();
        let counted = CountedDoc::count_all(&docs.iter().collect::<Vec<_>>(), 3, 5, 1);
        let base = FeatureConfig::final_stage();
        let mut configs = vec![base.clone(), FeatureConfig::space_reduction()];
        for zero in 0..4 {
            let mut cfg = base.clone();
            *[
                &mut cfg.word_weight,
                &mut cfg.char_weight,
                &mut cfg.char_class_weight,
                &mut cfg.activity_weight,
            ][zero] = 0.0;
            configs.push(cfg);
        }
        configs.push(FeatureConfig {
            top_word_ngrams: 5,
            top_char_ngrams: 7,
            ..base
        });
        for cfg in configs {
            for fit_on in [&counted[..], &counted[1..3], &counted[3..4]] {
                let space = FeatureExtractor::new(cfg.clone()).fit_counted(fit_on);
                for hour in [None, Some(profile(9))] {
                    for doc in &counted {
                        assert_same_bits(
                            &space.vectorize_counted(doc, hour.as_ref()),
                            &reference_vectorize(&space, doc, hour.as_ref()),
                        );
                    }
                    let fitted: Vec<&CountedDoc> = fit_on.iter().collect();
                    assert_term_major_pins(&cfg, &fitted, hour.as_ref());
                }
            }
        }
    }

    #[test]
    fn from_parts_rebuilds_a_bit_identical_space() {
        let docs = [
            prep("i always ship with tracking and stealth is great"),
            prep("never had a problem with this vendor, top quality"),
            prep("bitcoin fees are insane today the mempool is backed up"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit(&docs);
        let rebuilt = FeatureSpace::from_parts(
            space.config().clone(),
            space.word_vocab().clone(),
            space.char_vocab().clone(),
        );
        assert_eq!(rebuilt.dim(), space.dim());
        for d in &docs {
            let a = space.vectorize(d, Some(&profile(9)));
            let b = rebuilt.vectorize(d, Some(&profile(9)));
            assert_eq!(a.nnz(), b.nnz());
            for ((ia, va), (ib, vb)) in a.iter().zip(b.iter()) {
                assert_eq!(ia, ib);
                assert_eq!(va.to_bits(), vb.to_bits(), "index {ia}");
            }
        }
    }

    #[test]
    fn table_ii_presets() {
        let sr = FeatureConfig::space_reduction();
        assert_eq!((sr.top_word_ngrams, sr.top_char_ngrams), (60_000, 30_000));
        let fin = FeatureConfig::final_stage();
        assert_eq!((fin.top_word_ngrams, fin.top_char_ngrams), (50_000, 15_000));
        assert_eq!(fin.max_word_n, 3);
        assert_eq!(fin.max_char_n, 5);
    }
}
