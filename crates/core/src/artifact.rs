//! Persisted fit artifacts: the offline half of a fit-once/serve-many
//! split.
//!
//! A [`FitArtifact`] is everything stage 1 of the two-stage pipeline
//! computes from the *known* corpus: the prepared known [`Dataset`]
//! (stage 2 refits per unknown on its counted documents), the fitted
//! space-reduction [`FeatureSpace`], and the candidate index over the
//! known aliases' stage-1 vectors, which the fit writes feature by
//! feature. The vectors cross the disk one alias at a time, as the
//! index's rows ([`FitArtifact::known_vecs`]); decoding transposes them
//! back into the index. `darklight fit` persists the artifact through
//! `darklight-store`'s epoch machinery; `darklight link --artifact`
//! loads it and serves
//! queries without refitting — with output byte-identical to the
//! fit-every-time path (pinned by `tests/artifact_parity.rs`).
//!
//! ## Bit-exactness
//!
//! The encoding never serializes anything derived that floats through a
//! `HashMap` or a recomputation that could drift:
//!
//! * per record it stores the *selected text* and the activity
//!   *hour counts*; the counted documents are rebuilt by the routine
//!   that made the records when the dataset was built (prepare, then
//!   [`CountedDoc::count_all`](darklight_features::pipeline::CountedDoc::count_all)),
//!   and profile shares renormalize from the counts exactly;
//! * vocabularies are stored as terms in dense-index order plus
//!   document frequencies; IDF is recomputed by `TfIdf::fit`, a pure
//!   function of the vocabulary;
//! * every float crosses the disk as its IEEE-754 bit pattern.
//!
//! ## Integrity
//!
//! The container layer already rejects torn, truncated, or bit-flipped
//! files via per-section CRCs. On top of that, the artifact stores a
//! [FNV-1a](darklight_store::Fnv1a) fingerprint of the fitted state
//! (schema version, reduction config, dataset contents, vector bits);
//! decode recomputes it from what was actually reconstructed and fails
//! with [`StoreError::FingerprintMismatch`] on any disagreement —
//! a last line of defence against semantic (not just byte-level)
//! corruption, and the artifact analogue of the checkpoint fingerprint.

use darklight_activity::profile::{DailyActivityProfile, HOURS};
use darklight_corpus::model::{Fact, FactKind};
use darklight_features::lexicon::Lexicon;
use darklight_features::pipeline::{FeatureConfig, FeatureSpace};
use darklight_features::sparse::SparseVector;
use darklight_features::vocab::Vocabulary;
use darklight_store::codec::{Reader, Writer};
use darklight_store::{Container, EpochStore, Fnv1a, StoreError};
use std::sync::Arc;

use crate::attrib::CandidateIndex;
use crate::batch::{hash_dataset, hash_feature_config};
use crate::dataset::{count_records, Dataset, Uncounted};
use crate::twostage::{DocView, TwoStage, TwoStageConfig};

/// Version of the artifact *schema* (what the sections mean), separate
/// from the container *format* version (how bytes are framed).
pub const ARTIFACT_VERSION: u32 = 1;

const SEC_META: &str = "meta";
const SEC_CONFIG: &str = "config";
const SEC_WORD_VOCAB: &str = "vocab.word";
const SEC_CHAR_VOCAB: &str = "vocab.char";
const SEC_KNOWN: &str = "known";
const SEC_VECTORS: &str = "vectors";

/// The persisted product of a stage-1 fit on the known corpus.
#[derive(Debug, Clone)]
pub struct FitArtifact {
    /// The prepared known dataset (stage 2 refits on its counted docs).
    pub known: Dataset,
    /// The fitted space-reduction feature space.
    pub space: FeatureSpace,
    /// The stage-1 candidate index over the known records' vectors,
    /// fitted or decoded once and shared by every query it serves.
    pub index: CandidateIndex,
}

impl FitArtifact {
    /// Runs the stage-1 fit the artifact captures: the reduction space
    /// fitted on the known records and the index over their vectors in
    /// it. It is the very routine `TwoStage::reduce` fits with before
    /// ranking — injected vectorization faults included — so serving
    /// from the artifact reproduces its candidates byte-for-byte.
    pub fn fit(config: &TwoStageConfig, known: Dataset) -> FitArtifact {
        let (space, index) =
            TwoStage::new(config.clone()).fit_known(&config.reduction, &DocView::all(&known));
        FitArtifact {
            known,
            space,
            index,
        }
    }

    /// Stage-1 vectors of `known.records`, in record order: the index's
    /// rows.
    pub fn known_vecs(&self) -> Vec<SparseVector> {
        self.index.rows()
    }

    /// The FNV-1a fingerprint of the fitted state: schema version,
    /// reduction config, the known dataset (name, orders, aliases,
    /// personas, facts, text, profiles), and every vector's bit
    /// pattern. Excluded, like the checkpoint fingerprint: metrics and
    /// thread counts, which never change output bytes.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_over(&self.known_vecs())
    }

    /// [`fingerprint`](Self::fingerprint) with `known_vecs` for the
    /// index's rows.
    fn fingerprint_over(&self, known_vecs: &[SparseVector]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(ARTIFACT_VERSION as u64);
        hash_feature_config(&mut h, self.space.config());
        hash_dataset(&mut h, &self.known);
        for r in &self.known.records {
            h.write_u64(r.facts.len() as u64);
            for f in &r.facts {
                h.write_str(f.kind.as_str());
                h.write_str(&f.value);
            }
        }
        h.write_u64(known_vecs.len() as u64);
        for v in known_vecs {
            h.write_u64(v.nnz() as u64);
            for (i, x) in v.iter() {
                h.write_u64(i as u64);
                h.write(&x.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }

    /// Encodes the artifact into a sectioned container.
    pub fn to_container(&self) -> Container {
        let known_vecs = self.known_vecs();
        let mut c = Container::new(self.fingerprint_over(&known_vecs));
        let mut meta = Writer::new();
        meta.put_u32(ARTIFACT_VERSION);
        c.push_section(SEC_META, meta.into_bytes());
        c.push_section(SEC_CONFIG, encode_config(self.space.config()));
        c.push_section(SEC_WORD_VOCAB, encode_vocab(self.space.word_vocab()));
        c.push_section(SEC_CHAR_VOCAB, encode_vocab(self.space.char_vocab()));
        c.push_section(SEC_KNOWN, encode_dataset(&self.known));
        c.push_section(SEC_VECTORS, encode_vectors(&known_vecs));
        c
    }

    /// Decodes an artifact, rebuilding the derived state (documents,
    /// counts and their lexicon, IDF, the candidate index) with `threads`
    /// workers and verifying the stored fingerprint against the
    /// reconstruction. The vocabularies resolve their stored terms in the
    /// rebuilt known records' lexicon.
    ///
    /// # Errors
    ///
    /// [`StoreError::VersionMismatch`] for a foreign schema version,
    /// [`StoreError::MissingSection`]/[`StoreError::Malformed`] for
    /// structural damage the CRCs could not see (they protect bytes,
    /// not meaning), and [`StoreError::FingerprintMismatch`] when the
    /// reconstructed state does not hash to the stored fingerprint.
    pub fn from_container(c: &Container, threads: usize) -> Result<FitArtifact, StoreError> {
        let mut meta = Reader::new(c.section(SEC_META)?);
        let version = meta.get_u32()?;
        if version != ARTIFACT_VERSION {
            return Err(StoreError::VersionMismatch {
                expected: ARTIFACT_VERSION,
                found: version,
            });
        }
        let config = decode_config(c.section(SEC_CONFIG)?)?;
        let known = decode_dataset(c.section(SEC_KNOWN)?, threads)?;
        let word_vocab = decode_vocab(c.section(SEC_WORD_VOCAB)?, known.lexicon())?;
        let char_vocab = decode_vocab(c.section(SEC_CHAR_VOCAB)?, known.lexicon())?;
        let known_vecs = decode_vectors(c.section(SEC_VECTORS)?)?;
        if known_vecs.len() != known.len() {
            return Err(StoreError::Malformed(format!(
                "{} vectors for {} known records",
                known_vecs.len(),
                known.len()
            )));
        }
        let space = FeatureSpace::from_parts(config, word_vocab, char_vocab);
        // The index would panic on an out-of-range feature; a corrupt
        // vector must be a typed error, like every other decode failure.
        if let Some(bad) = known_vecs
            .iter()
            .flat_map(|v| v.iter().map(|(i, _)| i))
            .find(|&i| i as usize >= space.dim())
        {
            return Err(StoreError::Malformed(format!(
                "vector index {bad} outside the {}-dim space",
                space.dim()
            )));
        }
        let index = CandidateIndex::build(&known_vecs, space.dim());
        let artifact = FitArtifact {
            known,
            space,
            index,
        };
        let found = c.fingerprint;
        let expected = artifact.fingerprint_over(&known_vecs);
        if expected != found {
            return Err(StoreError::FingerprintMismatch { expected, found });
        }
        Ok(artifact)
    }

    /// Publishes the artifact as a fresh epoch of `store`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure; previously published
    /// epochs are never damaged.
    pub fn save(&self, store: &EpochStore) -> Result<u64, StoreError> {
        store.publish(&self.to_container())
    }

    /// Loads the newest cleanly-decodable artifact from `store`,
    /// walking the epoch recovery ladder (a corrupt or mismatched
    /// current epoch falls back to the previous one). Returns the
    /// artifact and the epoch that served it.
    ///
    /// # Errors
    ///
    /// See [`EpochStore::load_with`]; decode errors from
    /// [`from_container`](FitArtifact::from_container) trigger fallback
    /// exactly like file corruption.
    pub fn load(store: &EpochStore, threads: usize) -> Result<(FitArtifact, u64), StoreError> {
        store.load_with(|c| FitArtifact::from_container(c, threads))
    }
}

fn encode_config(fc: &FeatureConfig) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(fc.max_word_n as u64);
    w.put_u64(fc.max_char_n as u64);
    w.put_u64(fc.top_word_ngrams as u64);
    w.put_u64(fc.top_char_ngrams as u64);
    w.put_f32_bits(fc.word_weight);
    w.put_f32_bits(fc.char_weight);
    w.put_f32_bits(fc.char_class_weight);
    w.put_f32_bits(fc.activity_weight);
    w.into_bytes()
}

fn decode_config(bytes: &[u8]) -> Result<FeatureConfig, StoreError> {
    let mut r = Reader::new(bytes);
    let fc = FeatureConfig {
        max_word_n: usize_field(r.get_u64()?, "max_word_n")?,
        max_char_n: usize_field(r.get_u64()?, "max_char_n")?,
        top_word_ngrams: usize_field(r.get_u64()?, "top_word_ngrams")?,
        top_char_ngrams: usize_field(r.get_u64()?, "top_char_ngrams")?,
        word_weight: r.get_f32_bits()?,
        char_weight: r.get_f32_bits()?,
        char_class_weight: r.get_f32_bits()?,
        activity_weight: r.get_f32_bits()?,
    };
    r.expect_end()?;
    Ok(fc)
}

fn usize_field(v: u64, what: &str) -> Result<usize, StoreError> {
    usize::try_from(v).map_err(|_| StoreError::Malformed(format!("{what} {v} overflows usize")))
}

/// Serializes a vocabulary as terms in dense-index order plus document
/// frequencies — strings, never lexicon ids, so the bytes depend only on
/// the fit.
fn encode_vocab(v: &Vocabulary) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(v.num_docs());
    w.put_u64(v.len() as u64);
    for (term, i) in v.iter() {
        w.put_str(term);
        w.put_u32(v.doc_freq(i));
    }
    w.into_bytes()
}

/// Restores a vocabulary over the lexicon of the rebuilt known records,
/// so served queries vectorize against it on raw ids. Every selected
/// term was counted in some known record; one that is not is corruption.
fn decode_vocab(bytes: &[u8], lexicon: &Arc<Lexicon>) -> Result<Vocabulary, StoreError> {
    let mut r = Reader::new(bytes);
    let num_docs = r.get_u32()?;
    let count = r.get_count(8 + 4)?; // len prefix + doc_freq per term
    let mut terms = Vec::with_capacity(count);
    let mut doc_freq = Vec::with_capacity(count);
    for _ in 0..count {
        terms.push(r.get_str()?);
        doc_freq.push(r.get_u32()?);
    }
    r.expect_end()?;
    Vocabulary::from_parts(lexicon, &terms, doc_freq, num_docs).ok_or_else(|| {
        StoreError::Malformed(
            "vocabulary term duplicated or absent from the known records".to_string(),
        )
    })
}

fn encode_dataset(ds: &Dataset) -> Vec<u8> {
    let (max_word_n, max_char_n) = ds.ngram_orders();
    let mut w = Writer::new();
    w.put_str(&ds.name);
    w.put_u64(max_word_n as u64);
    w.put_u64(max_char_n as u64);
    w.put_u64(ds.len() as u64);
    for r in &ds.records {
        w.put_str(&r.alias);
        match r.persona {
            Some(p) => {
                w.put_u8(1);
                w.put_u64(p);
            }
            None => w.put_u8(0),
        }
        w.put_u64(r.facts.len() as u64);
        for f in &r.facts {
            w.put_str(f.kind.as_str());
            w.put_str(&f.value);
        }
        w.put_str(&r.text);
        match &r.profile {
            Some(p) => {
                w.put_u8(1);
                for h in 0..HOURS {
                    w.put_u32(p.count(h));
                }
            }
            None => w.put_u8(0),
        }
    }
    w.into_bytes()
}

fn decode_dataset(bytes: &[u8], threads: usize) -> Result<Dataset, StoreError> {
    let mut r = Reader::new(bytes);
    let name = r.get_str()?.to_string();
    let max_word_n = usize_field(r.get_u64()?, "max_word_n")?;
    let max_char_n = usize_field(r.get_u64()?, "max_char_n")?;
    if max_word_n == 0 || max_char_n == 0 {
        return Err(StoreError::Malformed("zero n-gram order".to_string()));
    }
    let count = r.get_count(8 + 1 + 8 + 8 + 1)?; // alias + persona + facts + text + profile flags
    let mut raw = Vec::with_capacity(count);
    for _ in 0..count {
        let alias = r.get_str()?.to_string();
        let persona = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u64()?),
            other => {
                return Err(StoreError::Malformed(format!(
                    "persona flag must be 0 or 1, found {other}"
                )))
            }
        };
        let fact_count = r.get_count(8 + 8)?;
        let mut facts = Vec::with_capacity(fact_count);
        for _ in 0..fact_count {
            let kind = r.get_str()?;
            let kind = FactKind::parse(kind)
                .ok_or_else(|| StoreError::Malformed(format!("unknown fact kind {kind:?}")))?;
            facts.push(Fact::new(kind, r.get_str()?));
        }
        let text = r.get_str()?.to_string();
        let profile = match r.get_u8()? {
            0 => None,
            1 => {
                let mut counts = [0u32; HOURS];
                for c in counts.iter_mut() {
                    *c = r.get_u32()?;
                }
                Some(DailyActivityProfile::from_counts(counts).ok_or_else(|| {
                    StoreError::Malformed("all-zero activity profile".to_string())
                })?)
            }
            other => {
                return Err(StoreError::Malformed(format!(
                    "profile flag must be 0 or 1, found {other}"
                )))
            }
        };
        raw.push(Uncounted {
            alias,
            persona,
            facts,
            text,
            profile,
        });
    }
    r.expect_end()?;
    // Rebuild the counts with the routine the original dataset build
    // used; it is a pure per-record function of the text, so output is
    // identical for every thread count.
    let records = count_records(raw, true, None, (max_word_n, max_char_n), threads.max(1));
    Ok(Dataset::with_orders(name, records, max_word_n, max_char_n))
}

fn encode_vectors(vecs: &[SparseVector]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(vecs.len() as u64);
    for v in vecs {
        w.put_u64(v.nnz() as u64);
        for (i, x) in v.iter() {
            w.put_u32(i);
            w.put_f32_bits(x);
        }
    }
    w.into_bytes()
}

fn decode_vectors(bytes: &[u8]) -> Result<Vec<SparseVector>, StoreError> {
    let mut r = Reader::new(bytes);
    let count = r.get_count(8)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let nnz = r.get_count(4 + 4)?;
        let mut pairs = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let i = r.get_u32()?;
            let x = r.get_f32_bits()?;
            pairs.push((i, x));
        }
        out.push(SparseVector::from_pairs(pairs));
    }
    r.expect_end()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use darklight_corpus::model::{Corpus, Post, User};

    fn known_corpus() -> Corpus {
        let mut c = Corpus::new("known");
        let base = 1_486_375_200i64;
        let styles = [
            ("alice", "gardening tulips compost seedling watering trowel"),
            ("bob", "overclocking motherboard thermals benchmark silicon"),
            ("carol", "sourdough hydration crumb proofing levain ovens"),
        ];
        for (pid, (name, vocab)) in styles.iter().enumerate() {
            let words: Vec<&str> = vocab.split(' ').collect();
            let mut u = User::new(*name, Some(pid as u64));
            if pid == 0 {
                u.facts.push(Fact::new(FactKind::City, "Edmonton"));
            }
            for i in 0..40i64 {
                let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400 + pid as i64 * 3600;
                let w1 = words[i as usize % words.len()];
                let w2 = words[(i as usize + 2) % words.len()];
                u.posts.push(Post::new(
                    format!("today i worked on {w1} and compared {w2} methods before writing notes about {w1}"),
                    ts,
                ));
            }
            c.users.push(u);
        }
        c
    }

    fn fitted() -> FitArtifact {
        let ds = DatasetBuilder::new().build(&known_corpus());
        let config = TwoStageConfig {
            threads: 2,
            ..TwoStageConfig::default()
        };
        FitArtifact::fit(&config, ds)
    }

    fn assert_same_artifact(a: &FitArtifact, b: &FitArtifact) {
        assert_eq!(a.known, b.known);
        let (a_vecs, b_vecs) = (a.known_vecs(), b.known_vecs());
        assert_eq!(a_vecs.len(), b_vecs.len());
        for (va, vb) in a_vecs.iter().zip(&b_vecs) {
            assert_eq!(va.nnz(), vb.nnz());
            for ((ia, xa), (ib, xb)) in va.iter().zip(vb.iter()) {
                assert_eq!(ia, ib);
                assert_eq!(xa.to_bits(), xb.to_bits());
            }
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn container_round_trip_is_bit_exact() {
        let artifact = fitted();
        let c = artifact.to_container();
        for threads in [1, 2, 7] {
            let back = FitArtifact::from_container(&c, threads).unwrap();
            assert_same_artifact(&artifact, &back);
            // The rebuilt space vectorizes identically.
            for (r, v) in artifact.known.records.iter().zip(&artifact.known_vecs()) {
                let w = back.space.vectorize_counted(&r.counted, r.profile.as_ref());
                assert_eq!(v.nnz(), w.nnz());
                for ((ia, xa), (ib, xb)) in v.iter().zip(w.iter()) {
                    assert_eq!(ia, ib);
                    assert_eq!(xa.to_bits(), xb.to_bits());
                }
            }
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let artifact = fitted();
        assert_eq!(
            artifact.to_container().to_bytes(),
            artifact.to_container().to_bytes()
        );
    }

    #[test]
    fn fingerprint_mismatch_is_typed() {
        let artifact = fitted();
        let mut c = artifact.to_container();
        c.fingerprint ^= 1;
        assert!(matches!(
            FitArtifact::from_container(&c, 1),
            Err(StoreError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn foreign_schema_version_is_typed() {
        let artifact = fitted();
        let mut c = artifact.to_container();
        let mut meta = Writer::new();
        meta.put_u32(99);
        c.sections[0].payload = meta.into_bytes();
        assert!(matches!(
            FitArtifact::from_container(&c, 1),
            Err(StoreError::VersionMismatch {
                expected: ARTIFACT_VERSION,
                found: 99
            })
        ));
    }

    #[test]
    fn missing_section_is_typed() {
        let artifact = fitted();
        let mut c = artifact.to_container();
        c.sections.retain(|s| s.tag != SEC_VECTORS);
        assert!(matches!(
            FitArtifact::from_container(&c, 1),
            Err(StoreError::MissingSection { .. })
        ));
    }

    #[test]
    fn tampered_payload_fails_the_fingerprint() {
        // Rewrite the vectors section with one flipped mantissa bit but
        // otherwise valid encoding: every CRC re-stamps clean, so only
        // the fingerprint can catch it.
        let artifact = fitted();
        let mut tampered = artifact.clone();
        let mut vecs = tampered.known_vecs();
        let (i, x) = vecs[0].iter().next().unwrap();
        let mut pairs: Vec<(u32, f32)> = vecs[0].iter().collect();
        pairs[0] = (i, f32::from_bits(x.to_bits() ^ 1));
        vecs[0] = SparseVector::from_pairs(pairs);
        tampered.index = CandidateIndex::build(&vecs, tampered.space.dim());
        let mut c = tampered.to_container();
        c.fingerprint = artifact.fingerprint(); // forge the original print
        assert!(matches!(
            FitArtifact::from_container(&c, 1),
            Err(StoreError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn served_candidates_match_a_fresh_reduce() {
        let artifact = fitted();
        let unknown = DatasetBuilder::new().build(&{
            let mut c = known_corpus();
            for u in &mut c.users {
                u.alias = format!("{}_alt", u.alias);
            }
            c
        });
        let config = TwoStageConfig {
            k: 2,
            threads: 2,
            ..TwoStageConfig::default()
        };
        let engine = TwoStage::new(config);
        let fresh = engine.reduce(&artifact.known, &unknown);
        let served = engine.reduce_prefit(&artifact.space, &artifact.index, &unknown);
        assert_eq!(fresh.len(), served.len());
        for (a, b) in fresh.iter().zip(&served) {
            assert_eq!(a.len(), b.len());
            for (ra, rb) in a.iter().zip(b) {
                assert_eq!(ra.index, rb.index);
                assert_eq!(ra.score.to_bits(), rb.score.to_bits());
            }
        }
    }

    #[test]
    fn epoch_save_load_round_trips() {
        let root = std::env::temp_dir().join(format!("dl-artifact-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let store = EpochStore::new(root.clone());
        let artifact = fitted();
        let epoch = artifact.save(&store).unwrap();
        assert_eq!(epoch, 1);
        let (back, served) = FitArtifact::load(&store, 2).unwrap();
        assert_eq!(served, 1);
        assert_same_artifact(&artifact, &back);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
