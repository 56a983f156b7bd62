//! Sorted sparse vectors, one by one or feature by feature.
//!
//! The attribution pipeline compares tens of thousands of users over a
//! ~65,000-dimensional feature space in which each user touches only a few
//! thousand dimensions. Vectors are stored as parallel `(index, value)`
//! arrays sorted by index; dot products are linear merges. Values are `f32`
//! (the weights are TF-IDF scores, well within `f32` range) with `f64`
//! accumulation. A [`FeatureMajor`] holds a set of documents' vectors
//! transposed, as a fit writes them and the candidate index reads them.

/// A sparse vector: strictly increasing indices with `f32` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl darklight_govern::EstimateBytes for SparseVector {
    fn estimate_bytes(&self) -> u64 {
        // One u32 index + one f32 value per non-zero, plus the two Vec
        // headers.
        (self.indices.len() as u64) * 8 + 48
    }
}

impl SparseVector {
    /// The empty vector.
    pub fn new() -> SparseVector {
        SparseVector::default()
    }

    /// Builds a vector from arbitrary `(index, value)` pairs. Duplicate
    /// indices are summed; zero values are dropped.
    ///
    /// ```
    /// use darklight_features::sparse::SparseVector;
    /// let v = SparseVector::from_pairs([(3, 1.0), (1, 2.0), (3, 0.5)]);
    /// assert_eq!(v.nnz(), 2);
    /// assert_eq!(v.get(3), 1.5);
    /// ```
    pub fn from_pairs<I: IntoIterator<Item = (u32, f32)>>(pairs: I) -> SparseVector {
        let mut entries: Vec<(u32, f32)> = pairs.into_iter().collect();
        entries.sort_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values: Vec<f32> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            if let Some(&last) = indices.last() {
                if last == i {
                    // audit:allow(no-naked-unwrap) -- indices.last() is Some on this branch and values grows in lockstep
                    *values.last_mut().expect("values tracks indices") += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        // Drop zeros introduced by input or cancellation.
        let mut out_i = Vec::with_capacity(indices.len());
        let mut out_v = Vec::with_capacity(values.len());
        for (i, v) in indices.into_iter().zip(values) {
            if v != 0.0 {
                out_i.push(i);
                out_v.push(v);
            }
        }
        SparseVector {
            indices: out_i,
            values: out_v,
        }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `true` when the vector has no non-zero entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The value at `index` (0.0 when absent).
    pub fn get(&self, index: u32) -> f32 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Dot product with another vector (linear merge, `f64` accumulation).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f64;
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[i] as f64 * other.values[j] as f64;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        norm_of(&self.values)
    }

    /// Cosine similarity in `[-1, 1]`; 0 when either vector is zero. For
    /// the non-negative vectors used throughout the pipeline the range is
    /// `[0, 1]` — the paper's eq. 2.
    ///
    /// ```
    /// use darklight_features::sparse::SparseVector;
    /// let a = SparseVector::from_pairs([(0, 1.0), (1, 1.0)]);
    /// let b = SparseVector::from_pairs([(1, 1.0), (2, 1.0)]);
    /// assert!((a.cosine(&b) - 0.5).abs() < 1e-6);
    /// ```
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let na = self.norm();
        let nb = other.norm();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        self.dot(other) / (na * nb)
    }

    /// Multiplies every value by `factor`.
    pub fn scale(&mut self, factor: f32) {
        self.scale_from(0, factor);
    }

    /// Returns a unit-norm copy (the zero vector stays zero).
    pub fn l2_normalized(&self) -> SparseVector {
        let mut out = self.clone();
        out.normalize_from(0);
        out
    }

    /// An empty vector with room for `n` entries.
    pub(crate) fn with_capacity(n: usize) -> SparseVector {
        SparseVector {
            indices: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Appends `(index, value)` unless `value` is zero, which
    /// [`from_pairs`](SparseVector::from_pairs) would drop too. `index`
    /// must exceed every stored index.
    pub(crate) fn push(&mut self, index: u32, value: f32) {
        debug_assert!(self.indices.last().is_none_or(|&last| last < index));
        if value != 0.0 {
            self.indices.push(index);
            self.values.push(value);
        }
    }

    /// Multiplies the entries from position `start` on by `factor`; a
    /// zero factor drops them.
    pub(crate) fn scale_from(&mut self, start: usize, factor: f32) {
        if factor == 0.0 {
            self.indices.truncate(start);
            self.values.truncate(start);
            return;
        }
        for v in &mut self.values[start..] {
            *v *= factor;
        }
    }

    /// Scales the entries from position `start` on to unit norm, bit for
    /// bit as [`l2_normalized`](SparseVector::l2_normalized) scales a
    /// vector holding only them (zero entries stay zero).
    pub(crate) fn normalize_from(&mut self, start: usize) {
        let n = norm_of(&self.values[start..]);
        if n > 0.0 {
            self.scale_from(start, (1.0 / n) as f32);
        }
    }

    /// Appends `other` shifted by `offset` dimensions. All of `other`'s
    /// indices must land strictly after this vector's last index. The
    /// pipeline writes its blocks in place; this is the reference its
    /// tests build vectors with.
    ///
    /// # Panics
    ///
    /// Panics if the shifted indices would not keep the vector sorted.
    #[cfg(test)]
    pub fn concat(&mut self, other: &SparseVector, offset: u32) {
        if let (Some(&last), Some(&first)) = (self.indices.last(), other.indices.first()) {
            assert!(
                // audit:allow(no-naked-unwrap) -- deliberate panic-on-overflow, documented under `# Panics` above
                first.checked_add(offset).expect("index overflow") > last,
                "concat would break index ordering"
            );
        }
        for (i, v) in other.iter() {
            self.indices.push(i + offset);
            self.values.push(v);
        }
    }

    /// Keeps only the entries whose index satisfies the predicate.
    pub fn retain_indices(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let mut out_i = Vec::with_capacity(self.indices.len());
        let mut out_v = Vec::with_capacity(self.values.len());
        for (i, v) in self.iter() {
            if keep(i) {
                out_i.push(i);
                out_v.push(v);
            }
        }
        self.indices = out_i;
        self.values = out_v;
    }
}

/// The vectors of a set of documents stored feature by feature
/// (compressed sparse columns): the entries of feature `f` are
/// `(document, weight)` pairs, documents ascending. A fit produces its
/// documents' weights in this form, and the candidate index scores
/// queries against it; [`rows`](FeatureMajor::rows) gives the
/// per-document vectors back.
#[derive(Debug, Clone)]
pub struct FeatureMajor {
    /// Feature `f`'s entries are `entries[offsets[f]..offsets[f + 1]]`;
    /// one offset per feature plus one.
    pub(crate) offsets: Vec<usize>,
    pub(crate) entries: Vec<(u32, f32)>,
    /// Number of documents, rows without entries included.
    pub(crate) docs: usize,
}

impl FeatureMajor {
    /// `docs` documents and no features yet.
    pub(crate) fn new(docs: usize) -> FeatureMajor {
        FeatureMajor {
            offsets: vec![0],
            entries: Vec::new(),
            docs,
        }
    }

    /// Stores `rows` (document `d` is `rows[d]`) feature by feature:
    /// counts each feature's entries, turns the counts into offsets,
    /// then fills every feature in document order. `dim` must exceed
    /// every index of the rows.
    ///
    /// # Panics
    ///
    /// Panics if a row holds an index `>= dim`.
    pub fn from_rows(rows: &[SparseVector], dim: usize) -> FeatureMajor {
        let mut offsets = vec![0usize; dim + 1];
        for v in rows {
            for &f in &v.indices {
                offsets[f as usize + 1] += 1;
            }
        }
        for f in 0..dim {
            offsets[f + 1] += offsets[f];
        }
        let mut next = offsets.clone();
        let mut entries = vec![(0u32, 0.0f32); offsets[dim]];
        for (d, v) in rows.iter().enumerate() {
            for (f, w) in v.iter() {
                let slot = &mut next[f as usize];
                entries[*slot] = (d as u32, w);
                *slot += 1;
            }
        }
        FeatureMajor {
            offsets,
            entries,
            docs: rows.len(),
        }
    }

    /// The per-document vectors: row `d` holds document `d`'s entries in
    /// feature order, so `from_rows(&m.rows(), m.dim())` rebuilds `m`.
    pub fn rows(&self) -> Vec<SparseVector> {
        let mut nnz = vec![0usize; self.docs];
        for &(d, _) in &self.entries {
            nnz[d as usize] += 1;
        }
        let mut rows: Vec<SparseVector> =
            nnz.into_iter().map(SparseVector::with_capacity).collect();
        for (f, column) in self.columns().enumerate() {
            for &(d, w) in column {
                let row = &mut rows[d as usize];
                row.indices.push(f as u32);
                row.values.push(w);
            }
        }
        rows
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of documents.
    pub fn docs(&self) -> usize {
        self.docs
    }

    /// Number of stored entries over all documents.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The `(document, weight)` entries of feature `f`, documents
    /// ascending (empty past the last feature).
    pub fn column(&self, f: u32) -> &[(u32, f32)] {
        match (
            self.offsets.get(f as usize),
            self.offsets.get(f as usize + 1),
        ) {
            (Some(&from), Some(&to)) => &self.entries[from..to],
            _ => &[],
        }
    }

    /// Every feature's entries, in feature order.
    pub fn columns(&self) -> impl Iterator<Item = &[(u32, f32)]> + '_ {
        self.offsets.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }

    /// Drops the entries of every document `keep` rejects, leaving it an
    /// empty row; the document count stays.
    pub fn retain_docs(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let mut kept = 0;
        let mut from = 0;
        for f in 0..self.dim() {
            let to = self.offsets[f + 1];
            for i in from..to {
                let entry = self.entries[i];
                if keep(entry.0) {
                    self.entries[kept] = entry;
                    kept += 1;
                }
            }
            self.offsets[f + 1] = kept;
            from = to;
        }
        self.entries.truncate(kept);
    }

    /// The dot product of the last document's vector with each earlier
    /// document's, accumulated in `f64` in feature order: bit for bit
    /// `rows[last].dot(&rows[d])` for every `d` before the last, read
    /// off the features the last document holds.
    pub fn dots_with_last(&self) -> Vec<f64> {
        let Some(last) = self.docs.checked_sub(1) else {
            return Vec::new();
        };
        let mut dots = vec![0.0f64; last];
        for column in self.columns() {
            // Documents ascend, so the last document's entry ends its
            // features.
            if let Some((&(d, w), rest)) = column.split_last() {
                if d as usize == last {
                    for &(c, wc) in rest {
                        dots[c as usize] += w as f64 * wc as f64;
                    }
                }
            }
        }
        dots
    }
}

/// Euclidean norm of `values`, accumulated in order in `f64`.
fn norm_of(values: &[f32]) -> f64 {
    values
        .iter()
        .map(|&v| v as f64 * v as f64)
        .sum::<f64>()
        .sqrt()
}

impl FromIterator<(u32, f32)> for SparseVector {
    fn from_iter<I: IntoIterator<Item = (u32, f32)>>(iter: I) -> SparseVector {
        SparseVector::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_vector() {
        let v = SparseVector::new();
        assert_eq!(v.nnz(), 0);
        assert!(v.is_empty());
        assert_eq!(v.norm(), 0.0);
        assert_eq!(v.get(5), 0.0);
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVector::from_pairs([(5, 1.0), (2, 3.0), (5, 2.0), (9, 0.0)]);
        let entries: Vec<_> = v.iter().collect();
        assert_eq!(entries, [(2, 3.0), (5, 3.0)]);
    }

    #[test]
    fn cancellation_drops_entries() {
        let v = SparseVector::from_pairs([(1, 2.0), (1, -2.0), (3, 1.0)]);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(1), 0.0);
    }

    #[test]
    fn dot_product() {
        let a = SparseVector::from_pairs([(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = SparseVector::from_pairs([(1, 5.0), (2, 2.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 7.0);
        assert_eq!(b.dot(&a), 7.0);
        assert_eq!(a.dot(&SparseVector::new()), 0.0);
    }

    #[test]
    fn cosine_bounds_and_identity() {
        let a = SparseVector::from_pairs([(0, 3.0), (7, 4.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-9);
        assert_eq!(a.cosine(&SparseVector::new()), 0.0);
        let disjoint = SparseVector::from_pairs([(1, 1.0)]);
        assert_eq!(a.cosine(&disjoint), 0.0);
    }

    #[test]
    fn normalization() {
        let v = SparseVector::from_pairs([(0, 3.0), (1, 4.0)]);
        let u = v.l2_normalized();
        assert!((u.norm() - 1.0).abs() < 1e-6);
        assert!((u.get(0) - 0.6).abs() < 1e-6);
        // Zero vector survives.
        assert_eq!(SparseVector::new().l2_normalized(), SparseVector::new());
    }

    #[test]
    fn scale_and_clear() {
        let mut v = SparseVector::from_pairs([(0, 1.0), (1, 2.0)]);
        v.scale(2.0);
        assert_eq!(v.get(1), 4.0);
        v.scale(0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn concat_with_offset() {
        let mut a = SparseVector::from_pairs([(0, 1.0), (5, 2.0)]);
        let b = SparseVector::from_pairs([(0, 3.0), (2, 4.0)]);
        a.concat(&b, 10);
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries, [(0, 1.0), (5, 2.0), (10, 3.0), (12, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "concat would break index ordering")]
    fn concat_rejects_overlap() {
        let mut a = SparseVector::from_pairs([(10, 1.0)]);
        let b = SparseVector::from_pairs([(0, 1.0)]);
        a.concat(&b, 5);
    }

    #[test]
    fn retain_filters() {
        let mut v = SparseVector::from_pairs([(0, 1.0), (1, 2.0), (2, 3.0)]);
        v.retain_indices(|i| i % 2 == 0);
        let entries: Vec<_> = v.iter().collect();
        assert_eq!(entries, [(0, 1.0), (2, 3.0)]);
    }

    fn bits(rows: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
        rows.iter()
            .map(|v| v.iter().map(|(i, x)| (i, x.to_bits())).collect())
            .collect()
    }

    /// Three documents over six features, the middle one empty.
    fn sample_rows() -> Vec<SparseVector> {
        vec![
            SparseVector::from_pairs([(0, 0.5), (2, 0.25), (5, 1.5)]),
            SparseVector::new(),
            SparseVector::from_pairs([(2, 0.75), (3, 2.0), (5, 0.125)]),
        ]
    }

    #[test]
    fn feature_major_round_trips_rows() {
        let rows = sample_rows();
        let m = FeatureMajor::from_rows(&rows, 7);
        assert_eq!((m.dim(), m.docs(), m.nnz()), (7, 3, 6));
        assert_eq!(m.column(2), [(0, 0.25), (2, 0.75)]);
        assert_eq!(m.column(6), []);
        assert_eq!(m.column(7), []);
        assert_eq!(m.columns().count(), 7);
        assert_eq!(bits(&m.rows()), bits(&rows));
        let none = FeatureMajor::from_rows(&[], 4);
        assert!(none.rows().is_empty());
        assert_eq!(none.columns().count(), 4);
    }

    #[test]
    fn retain_docs_empties_the_dropped_rows() {
        let mut m = FeatureMajor::from_rows(&sample_rows(), 6);
        m.retain_docs(|d| d != 0);
        assert_eq!(m.docs(), 3);
        let rows = m.rows();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].is_empty() && rows[1].is_empty());
        assert_eq!(bits(&rows[2..]), bits(&sample_rows()[2..]));
        assert_eq!(m.column(0), []);
        assert_eq!(m.column(5), [(2, 0.125)]);
    }

    /// The walk scores every earlier document against the last one bit
    /// for bit as the merge does, zero for a document sharing no
    /// feature with it.
    #[test]
    fn dots_with_last_equal_sparse_dot_bit_for_bit() {
        let mut rows = sample_rows();
        rows.push(SparseVector::from_pairs([(1, 9.0), (4, 3.0)]));
        rows.push(SparseVector::from_pairs([(0, 0.3), (2, 0.7), (5, 0.1)]));
        let m = FeatureMajor::from_rows(&rows, 6);
        let dots = m.dots_with_last();
        assert_eq!(dots.len(), rows.len() - 1);
        let last = &rows[rows.len() - 1];
        for (d, v) in rows[..rows.len() - 1].iter().enumerate() {
            assert_eq!(dots[d].to_bits(), last.dot(v).to_bits(), "document {d}");
        }
        assert_eq!((dots[1], dots[3]), (0.0, 0.0));
        assert!(FeatureMajor::from_rows(&[], 3).dots_with_last().is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let v: SparseVector = [(2u32, 1.0f32), (1, 1.0)].into_iter().collect();
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(1), 1.0);
    }
}
