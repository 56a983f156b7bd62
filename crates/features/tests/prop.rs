//! Property-based tests for the feature substrate.

use darklight_activity::profile::DailyActivityProfile;
use darklight_features::lexicon::{Lexicon, TermCounts};
use darklight_features::ngram::char_ngrams_free_space;
use darklight_features::pipeline::{CountedDoc, FeatureConfig, FeatureExtractor, PreparedDoc};
use darklight_features::sparse::{FeatureMajor, SparseVector};
use darklight_features::vocab::Vocabulary;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn sparse_strategy() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u32..500, -10.0f32..10.0), 0..40).prop_map(SparseVector::from_pairs)
}

fn nonneg_sparse_strategy() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u32..500, 0.01f32..10.0), 0..40).prop_map(SparseVector::from_pairs)
}

/// Prefixes terms share: none, 8 bytes, 16 bytes, and multibyte ones.
const TERM_PREFIXES: [&str; 6] = [
    "",
    "abcdefgh",
    "abcdefghijklmnop",
    "abcdefg\u{e9}",
    "日本",
    "é",
];

/// A term: a shared prefix plus a short tail over a few ASCII and
/// multibyte chars, so terms often tie, and often only past 8 or 16
/// bytes.
fn term_strategy() -> impl Strategy<Value = String> {
    (0..TERM_PREFIXES.len(), "[ab\u{e9}日z]{0,3}")
        .prop_map(|(p, tail)| format!("{}{tail}", TERM_PREFIXES[p]))
}

/// The first `n` terms of `docs` by (total desc, term asc), compared
/// as strings, with their document frequencies.
fn string_selection<'a>(
    docs: impl Iterator<Item = TermCounts<'a>>,
    n: usize,
) -> Vec<(String, u32)> {
    let mut stats: BTreeMap<String, (u64, u32)> = BTreeMap::new();
    for counts in docs {
        for (term, c) in counts.terms() {
            let entry = stats.entry(term.to_string()).or_insert((0, 0));
            entry.0 += u64::from(c);
            entry.1 += 1;
        }
    }
    let mut ranked: Vec<(String, (u64, u32))> = stats.into_iter().collect();
    ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(n)
        .map(|(t, (_, df))| (t, df))
        .collect()
}

/// A vocabulary's terms in dense-index order with their document
/// frequencies.
fn vocab_entries(vocab: &Vocabulary) -> Vec<(String, u32)> {
    vocab
        .iter()
        .map(|(t, i)| (t.to_string(), vocab.doc_freq(i)))
        .collect()
}

proptest! {
    /// Sparse indices are strictly increasing after construction.
    #[test]
    fn sparse_indices_sorted(v in sparse_strategy()) {
        let idx: Vec<u32> = v.iter().map(|(i, _)| i).collect();
        for w in idx.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Dot product is symmetric.
    #[test]
    fn dot_symmetric(a in sparse_strategy(), b in sparse_strategy()) {
        prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-6);
    }

    /// Cosine of non-negative vectors is in [0, 1]; self-cosine is 1 for
    /// non-empty vectors.
    #[test]
    fn cosine_nonneg_bounds(a in nonneg_sparse_strategy(), b in nonneg_sparse_strategy()) {
        let c = a.cosine(&b);
        prop_assert!((-1e-9..=1.0 + 1e-6).contains(&c), "cosine {c}");
        if !a.is_empty() {
            prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
        }
    }

    /// Normalization yields unit norm (or keeps the zero vector zero).
    #[test]
    fn l2_normalized_unit(v in sparse_strategy()) {
        let u = v.l2_normalized();
        if v.is_empty() {
            prop_assert!(u.is_empty());
        } else {
            prop_assert!((u.norm() - 1.0).abs() < 1e-4);
        }
    }

    /// Word n-gram occurrences match the closed form Σ_{n=1..N} (L - n + 1)⁺.
    #[test]
    fn word_ngram_count_closed_form(words in proptest::collection::vec("[a-z]{1,6}", 0..30), max_n in 1usize..5) {
        let doc = PreparedDoc::prepare(&words.join(" "), None);
        prop_assert_eq!(doc.words(), &words[..]);
        let expected: usize = (1..=max_n)
            .map(|n| words.len().saturating_sub(n - 1))
            .sum();
        let counted = CountedDoc::from_prepared(&doc, max_n, 1);
        let total: u32 = counted.word_counts().terms().map(|(_, c)| c).sum();
        prop_assert_eq!(total as usize, expected);
    }

    /// Free-space char n-grams never contain whitespace.
    #[test]
    fn free_space_has_no_whitespace(s in "\\PC{0,100}", n in 1usize..6) {
        for g in char_ngrams_free_space(&s, n) {
            prop_assert!(!g.chars().any(|c| c.is_whitespace()));
            prop_assert_eq!(g.chars().count(), n);
        }
    }

    /// Every counted char n-gram has between 1 and max_n chars.
    #[test]
    fn char_ngram_lengths(s in "\\PC{0,100}", max_n in 1usize..6) {
        let counted = CountedDoc::from_prepared(&PreparedDoc::prepare(&s, None), 1, max_n);
        for (g, _) in counted.char_counts().terms() {
            let l = g.chars().count();
            prop_assert!(l >= 1 && l <= max_n);
        }
    }

    /// Top-N selection returns at most N terms and is stable across calls.
    #[test]
    fn top_n_bounded_and_deterministic(
        docs in proptest::collection::vec(proptest::collection::vec("[a-c]{1,2}", 1..20), 1..8),
        n in 1usize..10,
    ) {
        let mut lex = Lexicon::new();
        let counted: Vec<Vec<(u32, u32)>> = docs.iter().map(|d| lex.count_in(d.iter().cloned())).collect();
        let lex = Arc::new(lex);
        let terms: Vec<TermCounts<'_>> = counted.iter().map(|d| TermCounts::new(&lex, d)).collect();
        let v1 = Vocabulary::select_top(&lex, &terms, n);
        let v2 = Vocabulary::select_top(&lex, &terms, n);
        prop_assert!(v1.len() <= n);
        let t1: Vec<(String, u32)> = v1.iter().map(|(t, i)| (t.to_string(), i)).collect();
        let t2: Vec<(String, u32)> = v2.iter().map(|(t, i)| (t.to_string(), i)).collect();
        prop_assert_eq!(&t1, &t2);
        // The kept terms are the first n of (total desc, term asc), and
        // which ids the terms carry never matters: counting the documents
        // in reverse order (other ids) selects the same vocabulary.
        let mut rev = Lexicon::new();
        let rev_counted: Vec<Vec<(u32, u32)>> = docs.iter().rev().map(|d| rev.count_in(d.iter().cloned())).collect();
        let rev = Arc::new(rev);
        let rev_terms: Vec<TermCounts<'_>> = rev_counted.iter().map(|d| TermCounts::new(&rev, d)).collect();
        let t3: Vec<(String, u32)> = Vocabulary::select_top(&rev, &rev_terms, n).iter().map(|(t, i)| (t.to_string(), i)).collect();
        prop_assert_eq!(&t1, &t3);
    }

    /// Rank-keyed selection keeps and orders exactly the terms the string
    /// comparator (total desc, term asc) does, with their document
    /// frequencies, over a root lexicon and extensions of it at depths 1
    /// and 2. Terms share 8- and 16-byte prefixes and carry multibyte
    /// chars, and small counts put ties across every cut.
    #[test]
    fn select_top_matches_the_string_comparator(
        root_docs in proptest::collection::vec(proptest::collection::vec(term_strategy(), 0..12), 1..5),
        ext_docs in proptest::collection::vec(proptest::collection::vec(term_strategy(), 0..12), 0..4),
        deep_docs in proptest::collection::vec(proptest::collection::vec(term_strategy(), 0..12), 0..4),
        cut in 0usize..40,
    ) {
        let mut root = Lexicon::new();
        let root_pairs: Vec<Vec<(u32, u32)>> = root_docs.iter().map(|d| root.count_in(d.iter().cloned())).collect();
        let root = Arc::new(root);
        let mut ext = Lexicon::extending(&root);
        let ext_pairs: Vec<Vec<(u32, u32)>> = ext_docs.iter().map(|d| ext.count_in(d.iter().cloned())).collect();
        let ext = Arc::new(ext);
        let mut deep = Lexicon::extending(&ext);
        let deep_pairs: Vec<Vec<(u32, u32)>> = deep_docs.iter().map(|d| deep.count_in(d.iter().cloned())).collect();
        let deep = Arc::new(deep);
        let levels = [
            (&root, &root_pairs[..]),
            (&ext, &ext_pairs[..]),
            (&deep, &deep_pairs[..]),
        ];
        for depth in 0..levels.len() {
            let lexicon = levels[depth].0;
            let mut terms: Vec<TermCounts<'_>> = Vec::new();
            // term → (total, df), counted by string.
            let mut stats: BTreeMap<String, (u64, u32)> = Default::default();
            for &(doc_lexicon, docs) in &levels[..=depth] {
                for pairs in docs {
                    let counts = TermCounts::new(doc_lexicon, pairs);
                    terms.push(counts);
                    for (term, c) in counts.terms() {
                        let entry = stats.entry(term.to_string()).or_insert((0, 0));
                        entry.0 += u64::from(c);
                        entry.1 += 1;
                    }
                }
            }
            let mut want: Vec<(String, (u64, u32))> = stats.into_iter().collect();
            want.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
            for n in [cut, want.len(), want.len().saturating_sub(1), want.len() + 1] {
                let vocab = Vocabulary::select_top(lexicon, &terms, n);
                let got: Vec<(String, u32)> =
                    vocab.iter().map(|(t, i)| (t.to_string(), vocab.doc_freq(i))).collect();
                let kept: Vec<(String, u32)> =
                    want.iter().take(n).map(|(t, (_, df))| (t.clone(), *df)).collect();
                prop_assert_eq!(&got, &kept);
            }
        }
    }

    /// The feature-major path over random small corpora, counted in one
    /// lexicon or each document in its own: every fitted document's row
    /// holds the bits `vectorize_counted` gives it in the space
    /// `fit_feature_major` fits, the rows transposed back are the fit's
    /// output, and each vocabulary keeps exactly the first N terms of
    /// (total desc, term asc), with their document frequencies.
    #[test]
    fn fit_feature_major_matches_per_document_vectorization(
        texts in proptest::collection::vec("[ab c.!1]{0,24}", 1..6),
        top_word in 0usize..12,
        top_char in 0usize..30,
        apart in any::<bool>(),
        hour in proptest::option::of(0usize..24),
    ) {
        let prepared: Vec<PreparedDoc> = texts.iter().map(|t| PreparedDoc::prepare(t, None)).collect();
        let docs: Vec<CountedDoc> = if apart {
            prepared.iter().map(|d| CountedDoc::from_prepared(d, 2, 3)).collect()
        } else {
            CountedDoc::count_all(&prepared.iter().collect::<Vec<_>>(), 2, 3, 1)
        };
        let cfg = FeatureConfig {
            max_word_n: 2,
            max_char_n: 3,
            top_word_ngrams: top_word,
            top_char_ngrams: top_char,
            ..FeatureConfig::final_stage()
        };
        let profile = hour.map(|h| {
            let mut counts = [0u32; 24];
            counts[h] = 3;
            counts[(h + 5) % 24] += 1;
            DailyActivityProfile::from_counts(counts).unwrap()
        });
        let (space, weights) = FeatureExtractor::new(cfg)
            .fit_feature_major(docs.iter().map(|d| (d, profile.as_ref())));
        prop_assert_eq!(weights.docs(), docs.len());
        prop_assert_eq!(weights.dim(), space.dim());
        let bits = |v: &SparseVector| v.iter().map(|(i, x)| (i, x.to_bits())).collect::<Vec<_>>();
        let rows = weights.rows();
        for (doc, v) in docs.iter().zip(&rows) {
            let want = space.vectorize_counted(doc, profile.as_ref());
            prop_assert_eq!(bits(v), bits(&want));
        }
        let columns = |m: &FeatureMajor| {
            m.columns()
                .map(|c| c.iter().map(|&(d, x)| (d, x.to_bits())).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(columns(&FeatureMajor::from_rows(&rows, space.dim())), columns(&weights));
        let words = string_selection(docs.iter().map(CountedDoc::word_counts), top_word);
        prop_assert_eq!(vocab_entries(space.word_vocab()), words);
        let chars = string_selection(docs.iter().map(CountedDoc::char_counts), top_char);
        prop_assert_eq!(vocab_entries(space.char_vocab()), chars);
        prop_assert_eq!(space.word_vocab().num_docs(), docs.len() as u32);
        prop_assert_eq!(space.char_vocab().num_docs(), docs.len() as u32);
    }

    /// Pipeline vectors are unit-norm and vectorization is deterministic.
    #[test]
    fn pipeline_vectors_unit_and_deterministic(texts in proptest::collection::vec("[a-z !.,]{10,80}", 2..5)) {
        let docs: Vec<PreparedDoc> = texts.iter().map(|t| PreparedDoc::prepare(t, None)).collect();
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit(&docs);
        for d in &docs {
            let v1 = space.vectorize(d, None);
            let v2 = space.vectorize(d, None);
            prop_assert_eq!(&v1, &v2);
            if !v1.is_empty() {
                prop_assert!((v1.norm() - 1.0).abs() < 1e-4);
            }
        }
    }

    /// Truncating a document never increases its word count and preserves a
    /// prefix.
    #[test]
    fn truncation_is_prefix(text in "[a-z ]{0,200}", budget in 0usize..40) {
        let d = PreparedDoc::prepare(&text, None);
        let t = d.truncate_words(budget);
        prop_assert!(t.word_len() <= budget.max(d.word_len().min(budget)));
        prop_assert_eq!(t.words(), &d.words()[..t.word_len()]);
    }
}
