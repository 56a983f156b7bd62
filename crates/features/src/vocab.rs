//! Corpus-frequency counting and top-N vocabulary selection.
//!
//! The paper orders the n-grams by their frequency across the dataset
//! and selects the top N features (§IV-A). [`VocabBuilder`] accumulates
//! per-document term counts and document frequencies by term id;
//! [`Vocabulary`] is the frozen id → dense-index map used during
//! vectorization. Ids come from a [`Lexicon`]; selection still ranks by
//! the term strings, so no id order ever reaches a vocabulary.

use crate::lexicon::{IdMap, Lexicon, TermCounts};
use std::sync::Arc;

/// Accumulates term statistics over a corpus, keyed by the ids of one
/// lexicon.
#[derive(Debug, Clone, Default)]
pub struct VocabBuilder {
    lexicon: Arc<Lexicon>,
    /// term id → (total occurrences, number of documents containing it).
    stats: IdMap<(u64, u32)>,
    docs: u32,
}

impl VocabBuilder {
    /// An empty builder over `lexicon`'s ids.
    pub fn new(lexicon: Arc<Lexicon>) -> VocabBuilder {
        VocabBuilder {
            lexicon,
            stats: IdMap::default(),
            docs: 0,
        }
    }

    /// Adds one document, given its term counts.
    ///
    /// # Panics
    ///
    /// Panics unless this builder's lexicon covers the one the ids come
    /// from: fit over a lexicon covering every document, as
    /// [`FeatureExtractor`](crate::pipeline::FeatureExtractor) does.
    pub fn add_doc(&mut self, counts: TermCounts<'_>) {
        assert!(
            self.lexicon.covers(counts.lexicon()),
            "term ids from a lexicon the builder does not cover"
        );
        self.docs += 1;
        for &(id, c) in counts.pairs() {
            let entry = self.stats.entry(id).or_insert((0, 0));
            entry.0 += c as u64;
            entry.1 += 1;
        }
    }

    /// Absorbs another builder's accumulated statistics, as if its
    /// documents had been added to `self` directly. Both builders must
    /// count in the same lexicon. Term totals, document frequencies, and
    /// the document count all sum, so folding any partition of a corpus —
    /// in any order — yields a builder whose
    /// [`select_top`](VocabBuilder::select_top) output is identical to a
    /// single serial pass: selection ranks by (total, term) only, and
    /// addition is commutative. This is the reduce step of the parallel
    /// fit in `darklight-features::pipeline`.
    pub fn merge(&mut self, other: VocabBuilder) {
        debug_assert!(Arc::ptr_eq(&self.lexicon, &other.lexicon));
        self.docs += other.docs;
        for (id, (total, df)) in other.stats {
            let entry = self.stats.entry(id).or_insert((0, 0));
            entry.0 += total;
            entry.1 += df;
        }
    }

    /// Number of documents seen.
    pub fn num_docs(&self) -> u32 {
        self.docs
    }

    /// Number of distinct terms seen.
    pub fn num_terms(&self) -> usize {
        self.stats.len()
    }

    /// Freezes the top `n` terms by total corpus frequency (ties broken
    /// by the term string, never the id, so the result is the same for
    /// any lexicon the terms were counted in) into a [`Vocabulary`].
    /// Document frequencies are carried along for IDF weighting.
    pub fn select_top(&self, n: usize) -> Vocabulary {
        let lexicon = &self.lexicon;
        // (sort key, id, df), the key (total desc, term asc): distinct
        // terms have distinct rank keys, so keys are distinct and the
        // unstable sorts below are deterministic.
        let mut items: Vec<(u128, u32, u32)> = self
            .stats
            .iter()
            .map(|(&id, &(total, df))| {
                let key = u128::from(u64::MAX - total) << 64 | u128::from(lexicon.rank_key(id));
                (key, id, df)
            })
            .collect();
        if n < items.len() {
            if n == 0 {
                items.clear();
            } else {
                items.select_nth_unstable_by_key(n - 1, |&(key, _, _)| key);
                items.truncate(n);
            }
        }
        items.sort_unstable_by_key(|&(key, _, _)| key);
        let ids: Vec<u32> = items.iter().map(|&(_, id, _)| id).collect();
        let doc_freq = items.iter().map(|&(_, _, df)| df).collect();
        Vocabulary::freeze(Arc::clone(lexicon), ids, doc_freq, self.docs)
    }
}

/// A frozen term → dense-index map with document frequencies.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    lexicon: Arc<Lexicon>,
    /// Lexicon id of each selected term, in dense-index order.
    ids: Vec<u32>,
    /// Lexicon id → dense index of each selected term.
    index: IdMap<u32>,
    doc_freq: Vec<u32>,
    num_docs: u32,
}

impl Vocabulary {
    fn freeze(
        lexicon: Arc<Lexicon>,
        ids: Vec<u32>,
        doc_freq: Vec<u32>,
        num_docs: u32,
    ) -> Vocabulary {
        let index = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        Vocabulary {
            lexicon,
            ids,
            index,
            doc_freq,
            num_docs,
        }
    }

    /// The dense index of the term with lexicon id `id`, if selected.
    fn index_of_id(&self, id: u32) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Rebuilds a vocabulary from its frozen parts: `terms` in dense-index
    /// order (term `i` maps to index `i`), resolved to ids in `lexicon`,
    /// the matching per-term document frequencies, and the corpus
    /// document count. This is the inverse of serializing
    /// [`iter`](Vocabulary::iter) — artifact deserialization uses it to
    /// restore a fitted vocabulary bit-exactly over the lexicon of the
    /// documents it was fitted on.
    ///
    /// Returns `None` when the two slices disagree in length, a term is
    /// duplicated, or a term is absent from `lexicon` (a corrupt or
    /// hand-edited artifact, not a valid freeze of those documents).
    pub fn from_parts(
        lexicon: &Arc<Lexicon>,
        terms: &[&str],
        doc_freq: Vec<u32>,
        num_docs: u32,
    ) -> Option<Vocabulary> {
        if terms.len() != doc_freq.len() {
            return None;
        }
        let ids = terms
            .iter()
            .map(|term| lexicon.id_of(term))
            .collect::<Option<Vec<u32>>>()?;
        let vocab = Vocabulary::freeze(Arc::clone(lexicon), ids, doc_freq, num_docs);
        // A duplicated term leaves the map pointing at one copy only.
        (vocab.index.len() == vocab.ids.len()).then_some(vocab)
    }

    /// Number of terms in the vocabulary.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no terms were selected.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The lexicon the vocabulary's ids belong to.
    pub fn lexicon(&self) -> &Arc<Lexicon> {
        &self.lexicon
    }

    /// The dense index of `term`, if selected.
    pub fn index_of(&self, term: &str) -> Option<u32> {
        self.index_of_id(self.lexicon.id_of(term)?)
    }

    /// The term at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn term(&self, i: u32) -> &str {
        self.lexicon.term(self.ids[i as usize])
    }

    /// Document frequency of the term at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn doc_freq(&self, i: u32) -> u32 {
        self.doc_freq[i as usize]
    }

    /// Number of documents the vocabulary was fitted on.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Iterates `(term, index)` pairs in dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> + '_ {
        (0..self.ids.len() as u32).map(|i| (self.term(i), i))
    }

    /// Calls `f(index, count)` for every term of `counts` the vocabulary
    /// selected. Ids are looked up directly when the two lexicons are
    /// compatible (a link-local extension of this vocabulary's lexicon,
    /// or an ancestor of it); otherwise each term is translated through
    /// its string.
    pub fn for_each_selected(&self, counts: TermCounts<'_>, mut f: impl FnMut(u32, u32)) {
        if self.lexicon.compatible(counts.lexicon()) {
            for &(id, c) in counts.pairs() {
                if let Some(i) = self.index_of_id(id) {
                    f(i, c);
                }
            }
        } else {
            for (term, c) in counts.terms() {
                if let Some(i) = self.index_of(term) {
                    f(i, c);
                }
            }
        }
    }
}

impl darklight_govern::EstimateBytes for Vocabulary {
    fn estimate_bytes(&self) -> u64 {
        // Per selected term its id and document frequency, plus its
        // id → index map entry (eight bytes and a control byte, the map
        // at most 7/8 full). The term strings live in the lexicon, which
        // the dataset that owns it is charged for.
        (self.ids.len() as u64) * 20 + 72
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts each document's terms in one shared lexicon.
    fn corpus(docs: &[&[&str]]) -> (Arc<Lexicon>, Vec<Vec<(u32, u32)>>) {
        let mut lex = Lexicon::new();
        let pairs = docs
            .iter()
            .map(|d| lex.count_in(d.iter().map(|s| s.to_string())))
            .collect();
        (Arc::new(lex), pairs)
    }

    fn builder(docs: &[&[&str]]) -> VocabBuilder {
        let (lex, pairs) = corpus(docs);
        let mut b = VocabBuilder::new(Arc::clone(&lex));
        for p in &pairs {
            b.add_doc(TermCounts::new(&lex, p));
        }
        b
    }

    #[test]
    fn top_n_by_corpus_frequency() {
        let b = builder(&[&["x", "x", "y"], &["x", "y", "z"]]);
        assert_eq!(b.num_docs(), 2);
        assert_eq!(b.num_terms(), 3);
        let v = b.select_top(2);
        assert_eq!(v.len(), 2);
        // x appears 3 times, y twice, z once.
        assert_eq!(v.index_of("x"), Some(0));
        assert_eq!(v.index_of("y"), Some(1));
        assert_eq!(v.index_of("z"), None);
    }

    #[test]
    fn ties_broken_lexicographically() {
        let v = builder(&[&["beta", "alpha"]]).select_top(2);
        assert_eq!(v.index_of("alpha"), Some(0));
        assert_eq!(v.index_of("beta"), Some(1));
    }

    /// Ids are first-seen order, the reverse of string order here; the
    /// cut at a tie must still keep and order terms by string.
    #[test]
    fn tie_across_the_cut_follows_strings_not_ids() {
        let v = builder(&[&["d", "c", "b", "a", "e", "e"]]).select_top(3);
        let kept: Vec<&str> = v.iter().map(|(t, _)| t).collect();
        assert_eq!(kept, ["e", "a", "b"]);
        assert_eq!(builder(&[&["q"]]).select_top(0).len(), 0);
    }

    #[test]
    fn doc_freq_tracked() {
        let b = builder(&[&["common", "rare"], &["common"], &["common"]]);
        let v = b.select_top(10);
        let common = v.index_of("common").unwrap();
        let rare = v.index_of("rare").unwrap();
        assert_eq!(v.doc_freq(common), 3);
        assert_eq!(v.doc_freq(rare), 1);
        assert_eq!(v.num_docs(), 3);
    }

    #[test]
    fn merge_equals_serial_accumulation() {
        let (lex, docs) = corpus(&[&["x", "x", "y"], &["x", "y", "z"], &["z", "z", "w"]]);
        let mut serial = VocabBuilder::new(Arc::clone(&lex));
        for d in &docs {
            serial.add_doc(TermCounts::new(&lex, d));
        }
        // Partition the docs 2 + 1 and merge the partial builders.
        let mut left = VocabBuilder::new(Arc::clone(&lex));
        left.add_doc(TermCounts::new(&lex, &docs[0]));
        left.add_doc(TermCounts::new(&lex, &docs[1]));
        let mut right = VocabBuilder::new(Arc::clone(&lex));
        right.add_doc(TermCounts::new(&lex, &docs[2]));
        let mut merged = VocabBuilder::new(Arc::clone(&lex));
        merged.merge(left);
        merged.merge(right);
        assert_eq!(merged.num_docs(), serial.num_docs());
        assert_eq!(merged.num_terms(), serial.num_terms());
        let a = serial.select_top(10);
        let b = merged.select_top(10);
        for (term, i) in a.iter() {
            assert_eq!(b.index_of(term), Some(i), "term {term:?}");
            assert_eq!(b.doc_freq(i), a.doc_freq(i));
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn foreign_ids_are_rejected() {
        let (lex, _) = corpus(&[&["x"]]);
        let mut other = Lexicon::new();
        let foreign = other.count_in(["y"].map(String::from));
        VocabBuilder::new(lex).add_doc(TermCounts::new(&other, &foreign));
    }

    #[test]
    fn select_more_than_available() {
        let v = builder(&[&["only"]]).select_top(100);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn empty_builder_gives_empty_vocab() {
        let v = VocabBuilder::default().select_top(5);
        assert!(v.is_empty());
        assert_eq!(v.num_docs(), 0);
    }

    #[test]
    fn from_parts_round_trips_a_selected_vocab() {
        let b = builder(&[&["x", "x", "y"], &["x", "z"]]);
        let v = b.select_top(3);
        // Serialize: terms in dense-index order, plus doc freqs.
        let terms: Vec<&str> = v.iter().map(|(t, _)| t).collect();
        let freqs: Vec<u32> = (0..v.len() as u32).map(|i| v.doc_freq(i)).collect();
        let back = Vocabulary::from_parts(v.lexicon(), &terms, freqs, v.num_docs()).unwrap();
        assert_eq!(back.len(), v.len());
        assert_eq!(back.num_docs(), v.num_docs());
        for (term, i) in v.iter() {
            assert_eq!(back.index_of(term), Some(i));
            assert_eq!(back.doc_freq(i), v.doc_freq(i));
        }
    }

    #[test]
    fn from_parts_rejects_malformed_input() {
        let (lex, _) = corpus(&[&["a", "b"]]);
        // Length mismatch between terms and doc frequencies.
        assert!(Vocabulary::from_parts(&lex, &["a"], vec![1, 2], 2).is_none());
        // Duplicate term.
        assert!(Vocabulary::from_parts(&lex, &["a", "a"], vec![1, 1], 2).is_none());
        // A term the documents never held.
        assert!(Vocabulary::from_parts(&lex, &["zz"], vec![1], 2).is_none());
    }

    #[test]
    fn iter_covers_all_terms_in_index_order() {
        let v = builder(&[&["p", "q", "r"]]).select_top(3);
        let seen: Vec<(&str, u32)> = v.iter().collect();
        assert_eq!(seen, [("p", 0), ("q", 1), ("r", 2)]);
        assert_eq!(v.term(2), "r");
    }
}
