//! Term-major grouping and top-N vocabulary selection.
//!
//! The paper orders the n-grams by their frequency across the dataset
//! and selects the top N features (§IV-A). A fit does this per n-gram
//! family in three steps over its documents' `(id, count)` pairs:
//!
//! 1. *Group.* One pass gives each distinct id a slot through a dense id
//!    table (one entry per id of the fit's lexicon, allocated once per
//!    fit and shared by the word and char families) and sums each slot's
//!    total count and document frequency.
//! 2. *Select.* The slots are ranked by (total desc, term string asc) and
//!    the top N frozen into a [`Vocabulary`], the id → dense-index map
//!    that vectorizes documents outside the fit.
//! 3. *Lay out.* One counting sort places every pair of a selected term
//!    under its dense index as one feature of the fit's
//!    [`FeatureMajor`] output, documents ascending, the count as an
//!    `f32`. The fit then weights those entries in place (see
//!    [`FeatureExtractor::fit_feature_major`](crate::pipeline::FeatureExtractor::fit_feature_major)),
//!    so no fitted document is looked up term by term, sorted, or given
//!    a vector of its own.
//!
//! Ids come from a [`Lexicon`]; selection reads string order through
//! [`Lexicon::rank_key`], so no id order ever reaches a vocabulary.
//! [`Vocabulary::select_top`] runs the first two steps for counts that
//! are not a fit's.

use crate::lexicon::{IdMap, Lexicon, TermCounts};
use crate::sparse::FeatureMajor;
use std::sync::Arc;

/// The dense id table a fit hands out slots through: one entry per id
/// of the fit's lexicon, allocated once per fit and shared by the word
/// and char families. It is never cleared: every grouping hands out
/// slot numbers above all earlier ones, so an entry written by an
/// earlier family reads as unassigned.
pub(crate) struct SlotTable {
    /// Id → `base + slot + 1` of the grouping that last met the id.
    entries: Vec<u32>,
    /// Slots handed out by earlier groupings.
    base: u32,
}

impl SlotTable {
    /// A table for the ids of `lexicon` (its parent chain's included).
    pub(crate) fn new(lexicon: &Lexicon) -> SlotTable {
        SlotTable {
            entries: vec![0; lexicon.len()],
            base: 0,
        }
    }
}

/// Selects one n-gram family of a fit: groups the pairs of `docs`,
/// whose ids `lexicon` covers, by term through `table` and freezes the
/// top `n` terms into a [`Vocabulary`]. The returned selection holds
/// `table` until it lays the selected terms' pairs out (or is dropped),
/// so no later grouping can reuse the slots it reads back.
///
/// # Panics
///
/// Panics unless `lexicon` covers the lexicon of every document, or if
/// `table` was made for a shorter lexicon.
pub(crate) fn select_family<'a>(
    lexicon: &Arc<Lexicon>,
    table: &'a mut SlotTable,
    docs: &'a [TermCounts<'a>],
    n: usize,
) -> (Vocabulary, Selection<'a>) {
    let groups = TermGroups::group(lexicon, table, docs);
    let (vocab, selected) = groups.select_top(lexicon, n);
    let selection = Selection {
        table,
        docs,
        groups,
        selected,
    };
    (vocab, selection)
}

/// One n-gram family of a fit, grouped by term: every distinct id of
/// the fitted documents holds a slot, in first-seen order (documents in
/// input order, ids ascending within a document), with its term's
/// total count and document frequency.
struct TermGroups {
    /// Lexicon id of each slot.
    ids: Vec<u32>,
    /// Total count of each slot's term over the fitted documents.
    totals: Vec<u64>,
    /// Number of fitted documents holding each slot's term.
    doc_freq: Vec<u32>,
    /// The table's base when these slots were handed out.
    base: u32,
    docs: u32,
}

impl TermGroups {
    /// One pass over the pairs of `docs`: each id's first occurrence
    /// takes the next slot of `table`, and every occurrence adds to its
    /// slot's total and document frequency.
    fn group(lexicon: &Lexicon, table: &mut SlotTable, docs: &[TermCounts<'_>]) -> TermGroups {
        let base = table.base;
        let mut ids = Vec::new();
        let mut totals: Vec<u64> = Vec::new();
        let mut doc_freq: Vec<u32> = Vec::new();
        for counts in docs {
            assert!(
                lexicon.covers(counts.lexicon()),
                "term ids from a lexicon the fit does not cover"
            );
            for &(id, c) in counts.pairs() {
                let entry = &mut table.entries[id as usize];
                if *entry <= base {
                    *entry = base + ids.len() as u32 + 1;
                    ids.push(id);
                    totals.push(0);
                    doc_freq.push(0);
                }
                let slot = (*entry - base - 1) as usize;
                totals[slot] += u64::from(c);
                doc_freq[slot] += 1;
            }
        }
        table.base = u32::try_from(base as usize + ids.len())
            .unwrap_or_else(|_| panic!("a fit hands out more than u32 slots"));
        TermGroups {
            ids,
            totals,
            doc_freq,
            base,
            docs: docs.len() as u32,
        }
    }

    /// Freezes the top `n` terms by total count (ties broken by the term
    /// string, never the id, so the result is the same for any lexicon
    /// the terms were counted in) into a [`Vocabulary`] over `lexicon`,
    /// the lexicon the pairs were grouped under. Also returns the slot of
    /// each selected term, in dense-index order.
    fn select_top(&self, lexicon: &Arc<Lexicon>, n: usize) -> (Vocabulary, Vec<u32>) {
        // (sort key, slot), the key (total desc, term asc): distinct
        // terms have distinct rank keys, so keys are distinct and the
        // unstable sorts below are deterministic.
        let mut items: Vec<(u128, u32)> = self
            .ids
            .iter()
            .zip(&self.totals)
            .enumerate()
            .map(|(slot, (&id, &total))| {
                let key = u128::from(u64::MAX - total) << 64 | u128::from(lexicon.rank_key(id));
                (key, slot as u32)
            })
            .collect();
        if n < items.len() {
            if n == 0 {
                items.clear();
            } else {
                items.select_nth_unstable_by_key(n - 1, |&(key, _)| key);
                items.truncate(n);
            }
        }
        items.sort_unstable_by_key(|&(key, _)| key);
        let slots: Vec<u32> = items.into_iter().map(|(_, slot)| slot).collect();
        let ids = slots.iter().map(|&s| self.ids[s as usize]).collect();
        let doc_freq = slots.iter().map(|&s| self.doc_freq[s as usize]).collect();
        let vocab = Vocabulary::freeze(Arc::clone(lexicon), ids, doc_freq, self.docs);
        (vocab, slots)
    }
}

/// The selected terms of one n-gram family of a fit, ready to be laid
/// out feature by feature.
pub(crate) struct Selection<'a> {
    table: &'a SlotTable,
    docs: &'a [TermCounts<'a>],
    groups: TermGroups,
    /// Slot of each selected term, in dense-index order.
    selected: Vec<u32>,
}

impl Selection<'_> {
    /// Number of `(document, term)` pairs of the selected terms.
    pub(crate) fn pairs(&self) -> usize {
        self.selected
            .iter()
            .map(|&slot| self.groups.doc_freq[slot as usize] as usize)
            .sum()
    }

    /// Appends one feature per selected term to `out`, in dense-index
    /// order, each holding the `(document, count)` pair of every fitted
    /// document with the term, documents ascending and the count as an
    /// `f32`: one counting sort of the documents' pairs, reading each
    /// id's slot back from the table. Pairs of unselected terms are
    /// skipped.
    pub(crate) fn lay_out(self, out: &mut FeatureMajor) {
        let groups = &self.groups;
        let mut dense = vec![u32::MAX; groups.ids.len()];
        let mut cursors = Vec::with_capacity(self.selected.len());
        let mut end = out.entries.len();
        out.offsets.reserve(self.selected.len());
        for (i, &slot) in self.selected.iter().enumerate() {
            dense[slot as usize] = i as u32;
            cursors.push(end);
            end += groups.doc_freq[slot as usize] as usize;
            out.offsets.push(end);
        }
        out.entries.resize(end, (0, 0.0));
        for (d, counts) in self.docs.iter().enumerate() {
            for &(id, c) in counts.pairs() {
                let i = dense[(self.table.entries[id as usize] - groups.base - 1) as usize];
                // An unselected term's index is past every cursor.
                if let Some(cursor) = cursors.get_mut(i as usize) {
                    out.entries[*cursor] = (d as u32, c as f32);
                    *cursor += 1;
                }
            }
        }
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

    /// Selects the top `n` terms of `docs` by total count over them, ties
    /// broken by the term string, with their document frequencies — the
    /// selection a fit makes (§IV-A), for counts that are not
    /// [`CountedDoc`](crate::pipeline::CountedDoc)s.
    ///
    /// # Panics
    ///
    /// Panics unless `lexicon` covers the lexicon of every document.
    pub fn select_top(lexicon: &Arc<Lexicon>, docs: &[TermCounts<'_>], n: usize) -> Vocabulary {
        TermGroups::group(lexicon, &mut SlotTable::new(lexicon), docs)
            .select_top(lexicon, n)
            .0
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
pub(crate) mod tests {
    use super::*;

    /// Accumulates term statistics document by document in an id-keyed
    /// map: the selection the term grouping replaced, kept as the oracle
    /// the crate's tests compare fits against.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct VocabBuilder {
        lexicon: Arc<Lexicon>,
        /// term id → (total occurrences, number of documents containing it).
        stats: IdMap<(u64, u32)>,
        docs: u32,
    }

    impl VocabBuilder {
        /// An empty builder over `lexicon`'s ids.
        pub(crate) fn new(lexicon: Arc<Lexicon>) -> VocabBuilder {
            VocabBuilder {
                lexicon,
                stats: IdMap::default(),
                docs: 0,
            }
        }

        /// Adds one document, given its term counts.
        pub(crate) fn add_doc(&mut self, counts: TermCounts<'_>) {
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

        /// The top `n` terms by (total desc, term asc), with their document
        /// frequencies.
        pub(crate) fn select_top(&self, n: usize) -> Vocabulary {
            let lexicon = &self.lexicon;
            let mut items: Vec<(u128, u32, u32)> = self
                .stats
                .iter()
                .map(|(&id, &(total, df))| {
                    let key = u128::from(u64::MAX - total) << 64 | u128::from(lexicon.rank_key(id));
                    (key, id, df)
                })
                .collect();
            items.sort_unstable_by_key(|&(key, _, _)| key);
            items.truncate(n);
            let ids: Vec<u32> = items.iter().map(|&(_, id, _)| id).collect();
            let doc_freq = items.iter().map(|&(_, _, df)| df).collect();
            Vocabulary::freeze(Arc::clone(lexicon), ids, doc_freq, self.docs)
        }
    }

    /// Counts each document's terms in one shared lexicon.
    fn corpus(docs: &[&[&str]]) -> (Arc<Lexicon>, Vec<Vec<(u32, u32)>>) {
        let mut lex = Lexicon::new();
        let pairs = docs
            .iter()
            .map(|d| lex.count_in(d.iter().map(|s| s.to_string())))
            .collect();
        (Arc::new(lex), pairs)
    }

    fn select(docs: &[&[&str]], n: usize) -> Vocabulary {
        let (lex, pairs) = corpus(docs);
        let counts: Vec<TermCounts<'_>> = pairs.iter().map(|p| TermCounts::new(&lex, p)).collect();
        Vocabulary::select_top(&lex, &counts, n)
    }

    #[test]
    fn top_n_by_corpus_frequency() {
        let v = select(&[&["x", "x", "y"], &["x", "y", "z"]], 2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.num_docs(), 2);
        // x appears 3 times, y twice, z once.
        assert_eq!(v.index_of("x"), Some(0));
        assert_eq!(v.index_of("y"), Some(1));
        assert_eq!(v.index_of("z"), None);
    }

    #[test]
    fn ties_broken_lexicographically() {
        let v = select(&[&["beta", "alpha"]], 2);
        assert_eq!(v.index_of("alpha"), Some(0));
        assert_eq!(v.index_of("beta"), Some(1));
    }

    /// Ids are first-seen order, the reverse of string order here; the
    /// cut at a tie must still keep and order terms by string.
    #[test]
    fn tie_across_the_cut_follows_strings_not_ids() {
        let v = select(&[&["d", "c", "b", "a", "e", "e"]], 3);
        let kept: Vec<&str> = v.iter().map(|(t, _)| t).collect();
        assert_eq!(kept, ["e", "a", "b"]);
        assert_eq!(select(&[&["q"]], 0).len(), 0);
    }

    #[test]
    fn doc_freq_tracked() {
        let v = select(&[&["common", "rare"], &["common"], &["common"]], 10);
        let common = v.index_of("common").unwrap();
        let rare = v.index_of("rare").unwrap();
        assert_eq!(v.doc_freq(common), 3);
        assert_eq!(v.doc_freq(rare), 1);
        assert_eq!(v.num_docs(), 3);
    }

    /// Fitting two families through one table: the second family's
    /// slots never read the first one's entries, ids shared or not, and
    /// each selected term's feature lists its documents in order, with
    /// unselected terms left out.
    #[test]
    fn one_table_fits_two_families() {
        let (lex, pairs) = corpus(&[&["a", "b", "b"], &["b", "c"], &["c", "a", "a", "d"]]);
        let counts: Vec<TermCounts<'_>> = pairs.iter().map(|p| TermCounts::new(&lex, p)).collect();
        let mut table = SlotTable::new(&lex);
        let mut out = FeatureMajor::new(2);
        let (first_vocab, first) = select_family(&lex, &mut table, &counts[..2], 2);
        assert_eq!(first.pairs(), 3);
        first.lay_out(&mut out);
        let (second_vocab, second) = select_family(&lex, &mut table, &counts[1..], 4);
        assert_eq!(second.pairs(), 5);
        second.lay_out(&mut out);
        let terms = |v: &Vocabulary| v.iter().map(|(t, _)| t.to_string()).collect::<Vec<_>>();
        assert_eq!(terms(&first_vocab), ["b", "a"]);
        assert_eq!(terms(&second_vocab), ["a", "c", "b", "d"]);
        assert_eq!(second_vocab.doc_freq(1), 2);
        let features: Vec<&[(u32, f32)]> = out.columns().collect();
        assert_eq!(
            features,
            [
                &[(0, 2.0), (1, 1.0)][..],
                &[(0, 1.0)][..],
                &[(1, 2.0)][..],
                &[(0, 1.0), (1, 1.0)][..],
                &[(0, 1.0)][..],
                &[(1, 1.0)][..]
            ]
        );
    }

    /// The grouped selection keeps the terms, order, document
    /// frequencies and document count of the map-based builder it
    /// replaced, at every cut.
    #[test]
    fn grouped_selection_matches_the_builder() {
        let (lex, pairs) = corpus(&[
            &["q", "p", "q", "r", "s", "s"],
            &["p", "t", "u", "q"],
            &[],
            &["u", "u", "v", "p", "w"],
        ]);
        let counts: Vec<TermCounts<'_>> = pairs.iter().map(|p| TermCounts::new(&lex, p)).collect();
        let mut oracle = VocabBuilder::new(Arc::clone(&lex));
        for &c in &counts {
            oracle.add_doc(c);
        }
        for n in 0..10 {
            let got = Vocabulary::select_top(&lex, &counts, n);
            let want = oracle.select_top(n);
            assert_eq!(got.ids, want.ids, "n = {n}");
            assert_eq!(got.doc_freq, want.doc_freq, "n = {n}");
            assert_eq!(got.num_docs(), want.num_docs());
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn foreign_ids_are_rejected() {
        let (lex, _) = corpus(&[&["x"]]);
        let mut other = Lexicon::new();
        let foreign = other.count_in(["y"].map(String::from));
        Vocabulary::select_top(&lex, &[TermCounts::new(&other, &foreign)], 1);
    }

    #[test]
    fn select_more_than_available() {
        assert_eq!(select(&[&["only"]], 100).len(), 1);
    }

    #[test]
    fn no_documents_give_an_empty_vocab() {
        let v = Vocabulary::select_top(&Arc::new(Lexicon::new()), &[], 5);
        assert!(v.is_empty());
        assert_eq!(v.num_docs(), 0);
    }

    #[test]
    fn from_parts_round_trips_a_selected_vocab() {
        let v = select(&[&["x", "x", "y"], &["x", "z"]], 3);
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
        let v = select(&[&["p", "q", "r"]], 3);
        let seen: Vec<(&str, u32)> = v.iter().collect();
        assert_eq!(seen, [("p", 0), ("q", 1), ("r", 2)]);
        assert_eq!(v.term(2), "r");
    }
}
