//! Interned n-gram terms.
//!
//! The two-stage pipeline refits a feature space for every batch, every
//! finalized unknown and every stage-2 unknown. Keyed by `String`, each
//! refit would clone and re-hash every n-gram of every document, and
//! each vectorization would hash them again. A [`Lexicon`] maps every
//! distinct term to a dense `u32` id *once*, when a dataset is built, so
//! counting, fitting and vectorization run on integers.
//!
//! ## Id order
//!
//! Ids are handed out in first-seen order: documents in input order,
//! and within a document word/char grams in order of first occurrence.
//! Sharded counting merges its shards in that order (see
//! [`CountedDoc::count_all`](crate::pipeline::CountedDoc::count_all)),
//! so the ids never depend on the thread count. Ids still never decide
//! anything that reaches output: vocabulary selection breaks frequency
//! ties by the term *string* (see
//! [`Vocabulary::select_top`](crate::vocab::Vocabulary::select_top)),
//! so a refit ranks the same terms in the same order whatever ids they
//! carry.
//!
//! ## String order
//!
//! Selection reads string order through [`Lexicon::rank_key`], not the
//! strings. The first time something ranks the terms of a root lexicon
//! (one without a parent), it sorts them once into a rank table (id →
//! position in string order) and its inverse (position → id). An
//! extension places each term it adds to its root — its own and any
//! ancestor extension's — by binary search into the root order: the
//! term's *slot* is the number of root terms ordering before it, and
//! terms sharing a slot are ordered by string. Every key is then
//! distinct, so ranking never reads a string.
//!
//! ## Lineage
//!
//! A lexicon may *extend* a parent: ids below the parent's length name
//! the parent's terms, and the extension appends only terms the parent
//! lacks. Two lexicons are *compatible* when one covers the other (is
//! the other, or an extension of it, at any depth): an id then names the
//! same string in both, and documents from either can be fitted and
//! vectorized together on raw ids. A link rebases its unknown side once
//! into an extension of the known lexicon; the extension lives as long
//! as the link and never grows the known lexicon itself. Documents from
//! unrelated lexicons are still handled correctly, by translating each
//! term through its string.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// A one-multiply hasher for term ids. Ids are dense integers this
/// crate hands out, never keys chosen outside the program, so they need
/// no protection against crafted collisions; term *strings* — forum text
/// — keep the standard library's keyed hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the high bits best mixed; rotate them down
        // into the bucket-index bits.
        self.0.rotate_left(26)
    }
}

/// A map keyed by term id.
pub type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// An interned term table: term string ↔ dense `u32` id, optionally
/// extending a parent (see the module docs).
#[derive(Default)]
pub struct Lexicon {
    parent: Option<Arc<Lexicon>>,
    /// Number of ids the parent chain holds; own ids start here.
    offset: u32,
    terms: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
    /// Where the terms sit in string order; built on first use and
    /// dropped whenever a term is interned.
    order: OnceLock<Order>,
}

/// Where a lexicon's terms sit in string order (see the module docs).
// audit:allow(estimate-bytes-coverage) -- eight bytes per term it orders, inside the per-term charge of `Lexicon`'s estimate
enum Order {
    /// A root lexicon's rank table and its inverse.
    Root {
        /// Id → position in string order.
        rank: Vec<u32>,
        /// Position in string order → id.
        by_rank: Vec<u32>,
    },
    /// An extension: the rank key of every term its root lacks, by id
    /// minus the root's length.
    Extension { root: Arc<Lexicon>, keys: Vec<u64> },
}

impl fmt::Debug for Lexicon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Lexicons hold hundreds of thousands of terms; show the shape.
        f.debug_struct("Lexicon")
            .field("offset", &self.offset)
            .field("own_terms", &self.terms.len())
            .finish()
    }
}

impl Lexicon {
    /// An empty lexicon.
    pub fn new() -> Lexicon {
        Lexicon::default()
    }

    /// An empty extension of `parent`: every parent id keeps its term,
    /// and new terms get ids from `parent.len()` on.
    pub fn extending(parent: &Arc<Lexicon>) -> Lexicon {
        Lexicon {
            offset: id_for(parent.len()),
            parent: Some(Arc::clone(parent)),
            ..Lexicon::default()
        }
    }

    /// Number of ids, the parent chain's included.
    pub fn len(&self) -> usize {
        self.offset as usize + self.terms.len()
    }

    /// `true` when the lexicon (with its parent chain) holds no term.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of `term`, if interned here or in the parent chain.
    pub fn id_of(&self, term: &str) -> Option<u32> {
        if let Some(parent) = &self.parent {
            if let Some(id) = parent.id_of(term) {
                return Some(id);
            }
        }
        self.ids.get(term).copied()
    }

    /// The term with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    pub fn term(&self, id: u32) -> &str {
        match &self.parent {
            Some(parent) if id < self.offset => parent.term(id),
            _ => &self.terms[(id - self.offset) as usize],
        }
    }

    /// A key that orders the term with id `id` among this lexicon's
    /// terms (its parent chain's included) as its string would: for two
    /// ids `a`, `b`, `rank_key(a) < rank_key(b)` exactly when
    /// `term(a) < term(b)`. Compare keys from one lexicon only: an
    /// extension's keys of its parent's terms may differ from the
    /// parent's own. The first call on a lexicon builds its order (see
    /// the module docs); a root lexicon pays one sort of its terms, once.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    pub fn rank_key(&self, id: u32) -> u64 {
        // Root term at position r → (r + 1) << 32; the j-th extension
        // term (from 0) of slot s → (s << 32) + j + 1, which falls between
        // the keys of the root terms at positions s - 1 and s.
        match self.order() {
            Order::Root { rank, .. } => (u64::from(rank[id as usize]) + 1) << 32,
            Order::Extension { root, keys } => match id.checked_sub(id_for(root.len())) {
                Some(own) => keys[own as usize],
                None => root.rank_key(id),
            },
        }
    }

    fn order(&self) -> &Order {
        self.order.get_or_init(|| {
            let Some(mut root) = self.parent.as_ref() else {
                // Leading bytes order most terms without reading the
                // strings behind their pointers; only equal ones compare
                // the whole strings.
                let mut keyed: Vec<(u64, u32)> = self
                    .terms
                    .iter()
                    .enumerate()
                    .map(|(id, term)| (leading_bytes(term), id as u32))
                    .collect();
                keyed.sort_unstable_by(|a, b| {
                    a.0.cmp(&b.0)
                        .then_with(|| self.terms[a.1 as usize].cmp(&self.terms[b.1 as usize]))
                });
                let by_rank: Vec<u32> = keyed.into_iter().map(|(_, id)| id).collect();
                let mut rank = vec![0u32; by_rank.len()];
                for (r, &id) in by_rank.iter().enumerate() {
                    rank[id as usize] = r as u32;
                }
                return Order::Root { rank, by_rank };
            };
            while let Some(parent) = &root.parent {
                root = parent;
            }
            let Order::Root { by_rank, .. } = root.order() else {
                unreachable!("a lexicon without a parent has a root order")
            };
            // (slot, id) of every term past the root, in string order.
            let first = id_for(root.len());
            let mut placed: Vec<(u32, u32)> = (first..id_for(self.len()))
                .map(|id| {
                    let term = self.term(id);
                    let slot = by_rank.partition_point(|&r| root.term(r) < term);
                    (slot as u32, id)
                })
                .collect();
            placed.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| self.term(a.1).cmp(self.term(b.1)))
            });
            let mut keys = vec![0u64; placed.len()];
            let (mut previous, mut in_slot) = (None, 0u64);
            for &(slot, id) in &placed {
                in_slot = if previous == Some(slot) {
                    in_slot + 1
                } else {
                    1
                };
                previous = Some(slot);
                keys[(id - first) as usize] = (u64::from(slot) << 32) + in_slot;
            }
            Order::Extension {
                root: Arc::clone(root),
                keys,
            }
        })
    }

    /// The id of `term`, interning it first when it is new.
    pub fn intern(&mut self, term: &str) -> u32 {
        if let Some(id) = self.id_of(term) {
            return id;
        }
        let id = id_for(self.len());
        let term: Arc<str> = Arc::from(term);
        self.terms.push(Arc::clone(&term));
        self.ids.insert(term, id);
        self.order = OnceLock::new();
        id
    }

    /// Counts one document's `terms`, interning each at its first
    /// occurrence, and returns the document's id-sorted `(id, count)`
    /// pairs.
    pub fn count_in<I: IntoIterator<Item = String>>(&mut self, terms: I) -> Vec<(u32, u32)> {
        let mut counts: IdMap<u32> = IdMap::default();
        for term in terms {
            *counts.entry(self.intern(&term)).or_insert(0) += 1;
        }
        sorted_pairs(counts)
    }

    /// `true` when `other` is this lexicon or one of its ancestors: every
    /// id of `other` then names the same term here.
    pub fn covers(&self, other: &Lexicon) -> bool {
        let mut current = Some(self);
        while let Some(lexicon) = current {
            if std::ptr::eq(lexicon, other) {
                return true;
            }
            current = lexicon.parent.as_deref();
        }
        false
    }

    /// `true` when one of the two lexicons covers the other, so their ids
    /// can be mixed without translation.
    pub fn compatible(&self, other: &Lexicon) -> bool {
        self.covers(other) || other.covers(self)
    }
}

impl darklight_govern::EstimateBytes for Lexicon {
    fn estimate_bytes(&self) -> u64 {
        // Own terms only: a parent is charged by the dataset that owns
        // it, so a link-local extension costs just the terms it adds. Per
        // term: the string plus its shared allocation header, the table
        // slot, its rank and inverse-rank entries (or its extension key)
        // and the map entry. Summation is order-independent.
        self.terms.iter().map(|t| t.len() as u64 + 88).sum::<u64>() + 96
    }
}

/// Converts a table length to the next id.
///
/// # Panics
///
/// Panics past `u32::MAX` distinct terms, which no corpus this pipeline
/// can hold in memory reaches.
fn id_for(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("lexicon exceeds u32 ids ({len} terms)"))
}

/// The first eight bytes of `term`, big-endian, zero-padded:
/// `leading_bytes(a) < leading_bytes(b)` implies `a < b`, because `str`
/// orders bytewise.
fn leading_bytes(term: &str) -> u64 {
    let mut word = [0u8; 8];
    let bytes = term.as_bytes();
    let n = bytes.len().min(8);
    word[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(word)
}

fn sorted_pairs(counts: IdMap<u32>) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = counts.into_iter().collect();
    pairs.sort_unstable_by_key(|&(id, _)| id);
    pairs
}

/// Interns the n-grams of symbol sequences (tokens or chars) through a
/// trie: a gram is its one-shorter prefix plus one symbol, so each
/// occurrence costs one lookup keyed by two integers instead of building
/// and hashing its string. A gram's string is built and interned only
/// the first time the trie meets it. Use one trie per n-gram family.
#[derive(Debug, Default)]
pub(crate) struct GramTrie {
    /// (prefix node, symbol) → node; node 0 is the empty gram, node `i`
    /// the gram with lexicon id `ids[i - 1]`. Symbols come from outside
    /// text, so this map keeps the keyed hasher.
    children: HashMap<(u32, u32), u32>,
    ids: Vec<u32>,
}

impl GramTrie {
    /// Counts every gram of `symbols` of length `1..=max_n` — all
    /// unigrams, then all bigrams, and so on, which is the first-seen
    /// order new grams are interned in — where `gram(start, end)` spells
    /// the gram over `symbols[start..end]`. Returns id-sorted pairs.
    pub(crate) fn count(
        &mut self,
        lexicon: &mut Lexicon,
        symbols: &[u32],
        max_n: usize,
        gram: impl Fn(usize, usize) -> String,
    ) -> Vec<(u32, u32)> {
        let mut counts: IdMap<u32> = IdMap::default();
        // The node of the gram starting at each position, one shorter.
        let mut prefixes = vec![0u32; symbols.len()];
        for n in 1..=max_n.min(symbols.len()) {
            for start in 0..=symbols.len() - n {
                let next = id_for(self.ids.len() + 1);
                let node = *self
                    .children
                    .entry((prefixes[start], symbols[start + n - 1]))
                    .or_insert_with(|| {
                        self.ids.push(lexicon.intern(&gram(start, start + n)));
                        next
                    });
                prefixes[start] = node;
                *counts.entry(self.ids[node as usize - 1]).or_insert(0) += 1;
            }
        }
        sorted_pairs(counts)
    }
}

/// One document's counts of one n-gram family: id-sorted `(id, count)`
/// pairs read through the lexicon that issued the ids.
#[derive(Clone, Copy)]
pub struct TermCounts<'a> {
    lexicon: &'a Lexicon,
    pairs: &'a [(u32, u32)],
}

impl<'a> TermCounts<'a> {
    /// Views `pairs` — sorted by id, every id issued by `lexicon` (as
    /// [`Lexicon::count_in`] returns them) — as term counts.
    pub fn new(lexicon: &'a Lexicon, pairs: &'a [(u32, u32)]) -> TermCounts<'a> {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "unsorted ids");
        TermCounts { lexicon, pairs }
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the document has no term of this family.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The lexicon the ids belong to.
    pub fn lexicon(&self) -> &'a Lexicon {
        self.lexicon
    }

    /// The id-sorted `(id, count)` pairs.
    pub fn pairs(&self) -> &'a [(u32, u32)] {
        self.pairs
    }

    /// `(term, count)` in id order.
    pub fn terms(&self) -> impl Iterator<Item = (&'a str, u32)> + 'a {
        let lexicon = self.lexicon;
        self.pairs.iter().map(move |&(id, c)| (lexicon.term(id), c))
    }

    /// The count of `term` (`None` when the document lacks it).
    pub fn get(&self, term: &str) -> Option<u32> {
        let id = self.lexicon.id_of(term)?;
        self.pairs
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|at| self.pairs[at].1)
    }

    /// `(term, count)` sorted by term: the id-free form two documents
    /// from unrelated lexicons compare in.
    fn by_term(&self) -> Vec<(&'a str, u32)> {
        let mut terms: Vec<(&str, u32)> = self.terms().collect();
        terms.sort_unstable();
        terms
    }
}

impl PartialEq for TermCounts<'_> {
    /// Equal when both documents count the same strings the same number
    /// of times, whatever ids the strings carry.
    fn eq(&self, other: &TermCounts<'_>) -> bool {
        if self.lexicon.compatible(other.lexicon) {
            return self.pairs == other.pairs;
        }
        self.len() == other.len() && self.by_term() == other.by_term()
    }
}

impl fmt::Debug for TermCounts<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.terms()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(terms: &[&str]) -> Vec<String> {
        terms.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn ids_follow_first_occurrence() {
        let mut lex = Lexicon::new();
        let a = lex.count_in(strings(&["b", "a", "b", "c"]));
        assert_eq!(a, [(0, 2), (1, 1), (2, 1)]);
        assert_eq!(lex.term(0), "b");
        let b = lex.count_in(strings(&["d", "a"]));
        assert_eq!(b, [(1, 1), (3, 1)]);
        assert_eq!(lex.len(), 4);
        assert_eq!(lex.id_of("d"), Some(3));
        assert_eq!(lex.id_of("zz"), None);
    }

    /// Keys order root and extension terms, at depths 1 and 2, as their
    /// strings do, and every key is distinct.
    #[test]
    fn rank_keys_order_like_strings() {
        let mut root = Lexicon::new();
        root.count_in(strings(&["m", "abcdefghi", "", "é", "abcdefgh"]));
        let root = Arc::new(root);
        let mut ext = Lexicon::extending(&root);
        ext.count_in(strings(&["n", "a", "abcdefghz", "zz", "abcdefgh\0"]));
        let ext = Arc::new(ext);
        let mut deep = Lexicon::extending(&ext);
        deep.count_in(strings(&["b", "o", "abcdefgha", "zzz", "é\0", "nn"]));
        for lexicon in [&*root, &*ext, &deep] {
            for a in 0..lexicon.len() as u32 {
                for b in 0..lexicon.len() as u32 {
                    let (ta, tb) = (lexicon.term(a), lexicon.term(b));
                    let (ka, kb) = (lexicon.rank_key(a), lexicon.rank_key(b));
                    assert_eq!(ka.cmp(&kb), ta.cmp(tb), "{ta:?} vs {tb:?}");
                }
            }
        }
        // Interning after ranking re-ranks.
        let mut grow = Lexicon::new();
        grow.intern("b");
        let before = grow.rank_key(0);
        grow.intern("a");
        assert!(grow.rank_key(0) > before && grow.rank_key(1) < grow.rank_key(0));
    }

    #[test]
    fn extension_appends_only_missing_terms() {
        let mut base = Lexicon::new();
        base.count_in(strings(&["a", "b"]));
        let base = Arc::new(base);
        let mut ext = Lexicon::extending(&base);
        assert_eq!(ext.intern("b"), 1);
        assert_eq!(ext.intern("c"), 2);
        assert_eq!(ext.len(), 3);
        assert_eq!(ext.term(0), "a");
        assert_eq!(ext.term(2), "c");
        assert_eq!(base.len(), 2, "the parent never grows");
        let ext = Arc::new(ext);
        assert!(ext.covers(&base) && !base.covers(&ext));
        assert!(base.compatible(&ext) && ext.compatible(&base));
        let sibling = Arc::new(Lexicon::extending(&base));
        assert!(!ext.compatible(&sibling));
        assert!(!base.compatible(&Lexicon::new()));
    }

    #[test]
    fn counts_compare_by_string_across_lexicons() {
        let mut l1 = Lexicon::new();
        let p1 = l1.count_in(strings(&["a", "b", "b"]));
        let mut l2 = Lexicon::new();
        let p2 = l2.count_in(strings(&["b", "a", "b"]));
        let (a, b) = (TermCounts::new(&l1, &p1), TermCounts::new(&l2, &p2));
        assert_ne!(a.pairs(), b.pairs(), "ids differ");
        assert_eq!(a, b);
        assert_eq!(b.get("b"), Some(2));
        assert_eq!(b.get("c"), None);
        let p3 = l2.count_in(strings(&["a", "b"]));
        assert_ne!(a, TermCounts::new(&l2, &p3));
    }

    #[test]
    fn estimate_charges_own_terms_only() {
        use darklight_govern::EstimateBytes;
        let mut base = Lexicon::new();
        base.count_in(strings(&["alpha", "beta"]));
        let base = Arc::new(base);
        let empty_ext = Lexicon::extending(&base);
        assert!(empty_ext.estimate_bytes() < base.estimate_bytes());
    }
}
