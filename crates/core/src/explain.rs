//! Match explanation: *why* did the pipeline link these two aliases?
//!
//! A score of 0.87 convinces no investigator (and no court). This module
//! decomposes a matched pair's similarity into evidence a human can check:
//! the shared n-grams that contributed the most TF-IDF weight, the
//! per-block similarity split (word style vs char style vs punctuation
//! habits vs schedule), and the overlapping activity hours. It mirrors
//! the paper's manual verification step (§V-A), where the authors read
//! both aliases' posts looking for the same phrasing and the same habits.

use crate::dataset::Record;
use darklight_features::lexicon::TermCounts;
use std::collections::HashSet;
use std::fmt;

/// One piece of shared stylometric evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedFeature {
    /// The n-gram both aliases use.
    pub gram: String,
    /// Occurrences in the first alias's text.
    pub count_a: u32,
    /// Occurrences in the second alias's text.
    pub count_b: u32,
    /// Evidence weight: `min(count_a, count_b) * len(gram)` — longer
    /// shared phrases are rarer and more identifying.
    pub weight: f64,
}

/// Per-channel similarity decomposition for one pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchExplanation {
    /// Top shared word n-grams, by evidence weight.
    pub shared_word_grams: Vec<SharedFeature>,
    /// Top shared character n-grams (n ≥ 3; shorter ones are ubiquitous).
    pub shared_char_grams: Vec<SharedFeature>,
    /// Cosine similarity of the two daily activity profiles, if both
    /// aliases have one.
    pub activity_similarity: Option<f64>,
    /// Hours (UTC) where both aliases are active above 5% of their posts.
    pub common_active_hours: Vec<usize>,
    /// Jaccard overlap of the two word-unigram vocabularies.
    pub vocabulary_overlap: f64,
}

impl MatchExplanation {
    /// A one-paragraph, human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("shared phrases:\n");
        for f in self.shared_word_grams.iter().take(8) {
            out.push_str(&format!(
                "  {:<30} {}x / {}x\n",
                format!("{:?}", f.gram),
                f.count_a,
                f.count_b
            ));
        }
        out.push_str(&format!(
            "vocabulary overlap (jaccard): {:.2}\n",
            self.vocabulary_overlap
        ));
        match self.activity_similarity {
            Some(s) => {
                out.push_str(&format!("activity profile cosine:      {s:.2}\n"));
                let hours: Vec<String> = self
                    .common_active_hours
                    .iter()
                    .map(|h| format!("{h:02}:00"))
                    .collect();
                out.push_str(&format!(
                    "common active hours (UTC):    {}\n",
                    hours.join(" ")
                ));
            }
            None => out.push_str("activity profile:             unavailable\n"),
        }
        out
    }
}

impl fmt::Display for MatchExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// How many shared features to keep per channel.
const TOP_FEATURES: usize = 20;

/// Explains a matched pair of records, from the n-grams their counted
/// documents already hold (counted at their datasets' n-gram maxima).
pub fn explain_pair(a: &Record, b: &Record) -> MatchExplanation {
    let (a_counts, b_counts) = (&a.counted, &b.counted);
    let shared_word_grams = top_shared(a_counts.word_counts(), b_counts.word_counts(), |g| {
        // Prefer multi-word phrases and rare-looking unigrams.
        g.contains(' ') || g.len() >= 6
    });
    let shared_char_grams = top_shared(a_counts.char_counts(), b_counts.char_counts(), |g| {
        g.chars().count() >= 3
    });

    let (activity_similarity, common_active_hours) = match (&a.profile, &b.profile) {
        (Some(pa), Some(pb)) => {
            let hours = (0..24)
                .filter(|&h| pa.share(h) > 0.05 && pb.share(h) > 0.05)
                .collect();
            (Some(pa.cosine(pb)), hours)
        }
        _ => (None, Vec::new()),
    };

    let uni_a = word_unigrams(a_counts.word_counts());
    let uni_b = word_unigrams(b_counts.word_counts());
    let union = uni_a.union(&uni_b).count();
    let vocabulary_overlap = if union == 0 {
        0.0
    } else {
        uni_a.intersection(&uni_b).count() as f64 / union as f64
    };

    MatchExplanation {
        shared_word_grams,
        shared_char_grams,
        activity_similarity,
        common_active_hours,
        vocabulary_overlap,
    }
}

/// The distinct word tokens of a counted document: its word terms
/// without a space (longer n-grams join their tokens with one).
fn word_unigrams(counts: TermCounts<'_>) -> HashSet<&str> {
    counts
        .terms()
        .map(|(term, _)| term)
        .filter(|term| !term.contains(' '))
        .collect()
}

fn top_shared(
    a: TermCounts<'_>,
    b: TermCounts<'_>,
    interesting: impl Fn(&str) -> bool,
) -> Vec<SharedFeature> {
    let mut shared: Vec<SharedFeature> = a
        .terms()
        .filter(|(gram, _)| interesting(gram))
        .filter_map(|(gram, ca)| {
            b.get(gram).map(|cb| SharedFeature {
                gram: gram.to_string(),
                count_a: ca,
                count_b: cb,
                weight: ca.min(cb) as f64 * gram.len() as f64,
            })
        })
        .collect();
    shared.sort_by(|x, y| {
        darklight_order::cmp_f64_desc(x.weight, y.weight).then_with(|| x.gram.cmp(&y.gram))
    });
    shared.truncate(TOP_FEATURES);
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use darklight_activity::profile::DailyActivityProfile;
    use darklight_features::pipeline::{CountedDoc, PreparedDoc};

    fn record(text: &str, peak_hour: Option<usize>) -> Record {
        let counted = CountedDoc::from_prepared(&PreparedDoc::prepare(text, None), 3, 5);
        let profile = peak_hour.map(|h| {
            let mut counts = [0u32; 24];
            counts[h] = 8;
            counts[(h + 1) % 24] = 4;
            DailyActivityProfile::from_counts(counts).unwrap()
        });
        Record {
            alias: "x".into(),
            persona: None,
            facts: Vec::new(),
            text: text.to_string(),
            counted,
            profile,
        }
    }

    #[test]
    fn shared_phrases_surface() {
        let a = record(
            "the stealth packaging was perfect as always, landed in four days",
            Some(9),
        );
        let b = record(
            "again the stealth packaging was perfect, landed quickly this time",
            Some(9),
        );
        let ex = explain_pair(&a, &b);
        assert!(
            ex.shared_word_grams
                .iter()
                .any(|f| f.gram.contains("stealth packaging")),
            "{:?}",
            ex.shared_word_grams
        );
        assert!(ex.vocabulary_overlap > 0.3);
    }

    #[test]
    fn activity_channel_reported() {
        let a = record("some words here about things", Some(9));
        let b = record("other words there about stuff", Some(9));
        let ex = explain_pair(&a, &b);
        assert!(ex.activity_similarity.unwrap() > 0.9);
        assert!(ex.common_active_hours.contains(&9));
    }

    #[test]
    fn missing_profiles_handled() {
        let a = record("words", None);
        let b = record("words", Some(5));
        let ex = explain_pair(&a, &b);
        assert!(ex.activity_similarity.is_none());
        assert!(ex.common_active_hours.is_empty());
        assert!(ex.render().contains("unavailable"));
    }

    #[test]
    fn disjoint_texts_no_shared_words() {
        let a = record("alpha bravo charlie delta echo foxtrot", Some(3));
        let b = record("zulu yankee xray whiskey victor uniform", Some(15));
        let ex = explain_pair(&a, &b);
        assert!(ex.shared_word_grams.is_empty());
        assert_eq!(ex.vocabulary_overlap, 0.0);
        assert!(ex.common_active_hours.is_empty());
    }

    /// The overlap read from the counted unigrams is exactly the Jaccard
    /// index of the prepared (lemmatized) word sets, numbers and words
    /// repeated under different inflections included.
    #[test]
    fn vocabulary_overlap_is_the_jaccard_of_prepared_words() {
        use crate::dataset::DatasetBuilder;
        use darklight_corpus::model::{Corpus, Post, User};
        use darklight_text::lemma::Lemmatizer;
        let texts = [
            "The wolves were running 42 miles, running fast every night",
            "A wolf runs 42 miles and sleeps; the wolves ran again",
        ];
        let mut corpus = Corpus::new("pair");
        for (i, text) in texts.into_iter().enumerate() {
            let mut user = User::new(format!("u{i}"), None);
            user.posts.push(Post::new(text, 0));
            corpus.users.push(user);
        }
        let ds = DatasetBuilder::new().build(&corpus);
        let lemmatizer = Lemmatizer::new();
        let words = |text: &str| -> HashSet<String> {
            let doc = PreparedDoc::prepare(text, Some(&lemmatizer));
            doc.words().iter().cloned().collect()
        };
        let (a, b) = (words(texts[0]), words(texts[1]));
        for shared in ["wolf", "run", "42", "mile"] {
            assert!(a.contains(shared) && b.contains(shared), "{shared}");
        }
        let expected = a.intersection(&b).count() as f64 / a.union(&b).count() as f64;
        let ex = explain_pair(&ds.records[0], &ds.records[1]);
        assert_eq!(ex.vocabulary_overlap, expected);
    }

    #[test]
    fn weights_prefer_longer_phrases() {
        let a = record(
            "i really cannot recommend this vendor enough honestly, i really cannot recommend",
            None,
        );
        let b = record("i really cannot recommend this place at all honestly", None);
        let ex = explain_pair(&a, &b);
        let first = &ex.shared_word_grams[0];
        assert!(
            first.gram.split(' ').count() >= 2,
            "top gram {:?}",
            first.gram
        );
    }

    #[test]
    fn render_is_complete() {
        let a = record("the same words appear in both messages here today", Some(7));
        let b = record(
            "the same words appear in both messages here tonight",
            Some(7),
        );
        let text = explain_pair(&a, &b).to_string();
        assert!(text.contains("shared phrases"));
        assert!(text.contains("vocabulary overlap"));
        assert!(text.contains("activity profile cosine"));
    }
}
