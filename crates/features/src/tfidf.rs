//! TF-IDF weighting.
//!
//! "This measure gives more importance to features that are frequently used
//! by only one user and less importance to popular features such as
//! stop-words" (§IV-A). We use the smoothed formulation
//! `idf(t) = ln((1 + N) / (1 + df(t))) + 1` (as in scikit-learn, which the
//! authors' Python stack builds on), with raw term counts as TF and L2
//! normalization applied by the caller.

#[cfg(test)]
use crate::lexicon::TermCounts;
#[cfg(test)]
use crate::sparse::SparseVector;
use crate::vocab::Vocabulary;

/// A TF-IDF weigher over a frozen [`Vocabulary`].
#[derive(Debug, Clone)]
pub struct TfIdf {
    idf: Vec<f32>,
}

impl darklight_govern::EstimateBytes for TfIdf {
    fn estimate_bytes(&self) -> u64 {
        self.idf.len() as u64 * 4 + 24
    }
}

impl TfIdf {
    /// Precomputes IDF weights from the vocabulary's document frequencies.
    pub fn fit(vocab: &Vocabulary) -> TfIdf {
        let n = vocab.num_docs() as f64;
        let idf_of = |df: u32| (((1.0 + n) / (1.0 + df as f64)).ln() + 1.0) as f32;
        // A fit's document frequencies lie in 1..=N, and N (the documents
        // of one refit) is far smaller than the vocabulary, so the weight
        // of each frequency is computed once. The table never outgrows
        // the vocabulary; a frequency past it (only a restored vocabulary
        // can hold one) is computed directly.
        let table: Vec<f32> = (0..=vocab.num_docs().min(vocab.len() as u32))
            .map(idf_of)
            .collect();
        let idf = (0..vocab.len() as u32)
            .map(|i| {
                let df = vocab.doc_freq(i);
                table
                    .get(df as usize)
                    .copied()
                    .unwrap_or_else(|| idf_of(df))
            })
            .collect();
        TfIdf { idf }
    }

    /// Number of weighted dimensions.
    pub fn len(&self) -> usize {
        self.idf.len()
    }

    /// `true` when fitted on an empty vocabulary.
    pub fn is_empty(&self) -> bool {
        self.idf.is_empty()
    }

    /// The IDF weight of dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn idf(&self, i: u32) -> f32 {
        self.idf[i as usize]
    }

    /// Vectorizes a document's term counts: `tf * idf` per selected term.
    /// Terms outside the vocabulary are ignored. The result is *not*
    /// normalized. The pipeline writes these weights in place
    /// (`FeatureSpace::vectorize_counted`); this copy is the reference its
    /// tests compare against.
    #[cfg(test)]
    pub fn transform(&self, vocab: &Vocabulary, counts: TermCounts<'_>) -> SparseVector {
        let mut pairs = Vec::with_capacity(counts.len().min(vocab.len()));
        vocab.for_each_selected(counts, |i, tf| {
            pairs.push((i, tf as f32 * self.idf[i as usize]));
        });
        SparseVector::from_pairs(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::Lexicon;
    use crate::vocab::tests::VocabBuilder;
    use std::sync::Arc;

    /// Fits on `docs` and counts `query` in the same lexicon.
    fn fit_corpus(docs: &[&[&str]], query: &[&str]) -> (Vocabulary, TfIdf, Vec<f32>) {
        let mut lex = Lexicon::new();
        let counted: Vec<Vec<(u32, u32)>> = docs
            .iter()
            .map(|d| lex.count_in(d.iter().map(|s| s.to_string())))
            .collect();
        let q = lex.count_in(query.iter().map(|s| s.to_string()));
        let lex = Arc::new(lex);
        let mut b = VocabBuilder::new(Arc::clone(&lex));
        for d in &counted {
            b.add_doc(TermCounts::new(&lex, d));
        }
        let v = b.select_top(100);
        let t = TfIdf::fit(&v);
        let vec = t.transform(&v, TermCounts::new(&lex, &q));
        let dense = (0..v.len() as u32).map(|i| vec.get(i)).collect();
        (v, t, dense)
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        let (v, t, _) = fit_corpus(
            &[&["common", "rare"], &["common"], &["common"], &["common"]],
            &[],
        );
        let c = v.index_of("common").unwrap();
        let r = v.index_of("rare").unwrap();
        assert!(t.idf(r) > t.idf(c));
    }

    #[test]
    fn idf_of_ubiquitous_term_is_one() {
        let (v, t, _) = fit_corpus(&[&["x"], &["x"], &["x"]], &[]);
        // df == N: ln((1+N)/(1+N)) + 1 == 1.
        assert!((t.idf(v.index_of("x").unwrap()) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transform_multiplies_tf_and_idf() {
        let (v, t, dense) = fit_corpus(&[&["a", "b"], &["a"]], &["a", "a", "b"]);
        let ia = v.index_of("a").unwrap();
        let ib = v.index_of("b").unwrap();
        assert!((dense[ia as usize] - 2.0 * t.idf(ia)).abs() < 1e-6);
        assert!((dense[ib as usize] - t.idf(ib)).abs() < 1e-6);
        // A rare term outweighs a ubiquitous one despite a lower raw tf.
        let (v, _, dense) = fit_corpus(
            &[&["the", "the", "onion"], &["the", "market"]],
            &["the", "onion", "onion"],
        );
        let onion = v.index_of("onion").unwrap() as usize;
        let the = v.index_of("the").unwrap() as usize;
        assert!(dense[onion] > dense[the]);
    }

    #[test]
    fn out_of_vocab_ignored() {
        let (_, _, dense) = fit_corpus(&[&["known"]], &["unknown", "known"]);
        assert_eq!(dense.iter().filter(|&&x| x != 0.0).count(), 1);
    }

    #[test]
    fn empty_doc_empty_vector() {
        let (v, t, _) = fit_corpus(&[&["a"]], &[]);
        let lex = Lexicon::new();
        assert!(t.transform(&v, TermCounts::new(&lex, &[])).is_empty());
    }

    /// The per-frequency table gives every weight the bits of the
    /// formula evaluated per term, including frequencies past the
    /// document count (a restored vocabulary may hold any).
    #[test]
    fn fit_matches_the_per_term_formula() {
        let mut lex = Lexicon::new();
        let ids: Vec<String> = (0..6).map(|i| format!("t{i}")).collect();
        lex.count_in(ids.iter().cloned());
        let lex = Arc::new(lex);
        let terms: Vec<&str> = ids.iter().map(String::as_str).collect();
        for (num_docs, doc_freq) in [
            (3, vec![1, 2, 3, 3, 1, 2]),
            (2, vec![1, 2, 3, 7, 0, u32::MAX]),
            (u32::MAX, vec![1, 5, 1, 9, 2, 4]),
        ] {
            let v = Vocabulary::from_parts(&lex, &terms, doc_freq.clone(), num_docs).unwrap();
            let t = TfIdf::fit(&v);
            let n = num_docs as f64;
            for (i, &df) in doc_freq.iter().enumerate() {
                let want = (((1.0 + n) / (1.0 + df as f64)).ln() + 1.0) as f32;
                assert_eq!(t.idf(i as u32).to_bits(), want.to_bits(), "df {df}");
            }
        }
    }

    #[test]
    fn idf_always_positive() {
        let (_, t, _) = fit_corpus(&[&["a", "b", "c"], &["a", "b"], &["a"]], &[]);
        for i in 0..t.len() as u32 {
            assert!(t.idf(i) > 0.0);
        }
        assert!(!t.is_empty());
    }
}
