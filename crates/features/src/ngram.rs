//! Word and character n-gram extraction.
//!
//! The paper uses word n-grams of length 1–3 over the lemmatized token
//! stream and character n-grams of length 1–5 over the polished text
//! (§IV-A). The standard baseline it compares against uses character
//! *free-space* 4-grams — n-grams computed after removing all whitespace —
//! which [`char_ngrams_free_space`] provides.
//!
//! The pipeline's grams are counted straight into a [`Lexicon`] through
//! a per-family trie, so an occurrence is never spelled out as a string
//! unless it is new to the lexicon.

use crate::lexicon::{GramTrie, Lexicon};

/// Counts the word n-grams of `tokens` for every length in `1..=max_n`
/// (tokens joined by single spaces), interning them into `lexicon`
/// through `trie` (the word family's), and returns id-sorted
/// `(id, count)` pairs.
pub(crate) fn count_word_ngrams(
    trie: &mut GramTrie,
    lexicon: &mut Lexicon,
    tokens: &[String],
    max_n: usize,
) -> Vec<(u32, u32)> {
    if max_n == 0 {
        return Vec::new();
    }
    // A token's symbol is its id, the id of its unigram.
    let symbols: Vec<u32> = tokens.iter().map(|t| lexicon.intern(t)).collect();
    trie.count(lexicon, &symbols, max_n, |start, end| {
        tokens[start..end].join(" ")
    })
}

/// Counts the character n-grams of `text` for every length in
/// `1..=max_n` like [`count_word_ngrams`], through the char family's
/// trie. Grams are `char` windows, so multi-byte characters count as one
/// position; whitespace runs are collapsed to a single space (and trimmed
/// at both ends) so formatting does not leak into the grams.
pub(crate) fn count_char_ngrams(
    trie: &mut GramTrie,
    lexicon: &mut Lexicon,
    text: &str,
    max_n: usize,
) -> Vec<(u32, u32)> {
    let chars = collapse_ws_chars(text);
    let symbols: Vec<u32> = chars.iter().map(|&c| c as u32).collect();
    trie.count(lexicon, &symbols, max_n, |start, end| {
        chars[start..end].iter().collect()
    })
}

/// Character n-grams with *all whitespace removed first* — the "char free
/// space 4-grams" of the paper's standard baseline (Layton et al.).
///
/// ```
/// use darklight_features::ngram::char_ngrams_free_space;
/// let grams: Vec<String> = char_ngrams_free_space("to do", 4).collect();
/// assert_eq!(grams, ["todo"]);
/// ```
pub fn char_ngrams_free_space(text: &str, n: usize) -> impl Iterator<Item = String> {
    assert!(n >= 1, "n-gram length must be at least 1");
    let chars: Vec<char> = text.chars().filter(|c| !c.is_whitespace()).collect();
    let count = chars.len().saturating_sub(n - 1);
    (0..count).map(move |i| chars[i..i + n].iter().collect())
}

fn collapse_ws_chars(text: &str) -> Vec<char> {
    let mut out = Vec::with_capacity(text.len());
    let mut last_ws = true;
    for c in text.chars() {
        if c.is_whitespace() {
            if !last_ws {
                out.push(' ');
            }
            last_ws = true;
        } else {
            out.push(c);
            last_ws = false;
        }
    }
    while out.last() == Some(&' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::TermCounts;

    /// `(gram, count)` in id order, i.e. in order of first occurrence.
    fn terms(lexicon: &Lexicon, pairs: &[(u32, u32)]) -> Vec<(String, u32)> {
        TermCounts::new(lexicon, pairs)
            .terms()
            .map(|(t, c)| (t.to_string(), c))
            .collect()
    }

    fn words(tokens: &[&str], max_n: usize) -> Vec<(String, u32)> {
        let tokens: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        let mut lexicon = Lexicon::new();
        let pairs = count_word_ngrams(&mut GramTrie::default(), &mut lexicon, &tokens, max_n);
        terms(&lexicon, &pairs)
    }

    /// The grams of exactly `n` chars.
    fn chars(text: &str, n: usize) -> Vec<String> {
        let mut lexicon = Lexicon::new();
        let pairs = count_char_ngrams(&mut GramTrie::default(), &mut lexicon, text, n);
        terms(&lexicon, &pairs)
            .into_iter()
            .filter(|(g, _)| g.chars().count() == n)
            .map(|(g, _)| g)
            .collect()
    }

    fn owned(grams: &[(&str, u32)]) -> Vec<(String, u32)> {
        grams.iter().map(|&(g, c)| (g.to_string(), c)).collect()
    }

    #[test]
    fn unigrams_are_tokens() {
        assert_eq!(words(&["a", "b", "a"], 1), owned(&[("a", 2), ("b", 1)]));
    }

    #[test]
    fn grams_count_shortest_first_joined_by_spaces() {
        let grams = words(&["i", "love", "dark", "webs"], 3);
        assert_eq!(grams.len(), 9);
        assert_eq!(
            grams[4..],
            owned(&[
                ("i love", 1),
                ("love dark", 1),
                ("dark webs", 1),
                ("i love dark", 1),
                ("love dark webs", 1)
            ])
        );
    }

    #[test]
    fn ngram_longer_than_input_is_empty() {
        assert_eq!(words(&["only", "two"], 3).len(), 3);
        assert!(chars("ab", 5).is_empty());
        assert!(words(&["a"], 0).is_empty());
    }

    #[test]
    fn shared_prefixes_keep_distinct_grams() {
        // "a b" and "a c" share the trie prefix "a"; "b" as a word and as
        // a char is one term.
        let mut lexicon = Lexicon::new();
        let tokens: Vec<String> = ["a", "b", "a", "c", "a", "b"].map(String::from).into();
        let w = count_word_ngrams(&mut GramTrie::default(), &mut lexicon, &tokens, 2);
        assert_eq!(
            terms(&lexicon, &w),
            owned(&[
                ("a", 3),
                ("b", 2),
                ("c", 1),
                ("a b", 2),
                ("b a", 1),
                ("a c", 1),
                ("c a", 1)
            ])
        );
        let c = count_char_ngrams(&mut GramTrie::default(), &mut lexicon, "bb", 1);
        assert_eq!(terms(&lexicon, &c), owned(&[("b", 2)]));
    }

    #[test]
    fn char_ngrams_collapse_whitespace() {
        assert_eq!(chars("a\t\nb", 3), ["a b"]);
    }

    #[test]
    fn char_ngrams_handle_unicode() {
        assert_eq!(chars("héé", 2), ["hé", "éé"]);
    }

    #[test]
    fn free_space_removes_all_whitespace() {
        let grams: Vec<String> = char_ngrams_free_space("a b\tc\nd e", 4).collect();
        assert_eq!(grams, ["abcd", "bcde"]);
        assert_eq!(char_ngrams_free_space("abc", 4).count(), 0);
    }

    #[test]
    fn char_ngram_counts() {
        // "abca": 4 + 3 + 2 occurrences for max_n = 3; "a" twice.
        let mut lexicon = Lexicon::new();
        let pairs = count_char_ngrams(&mut GramTrie::default(), &mut lexicon, "abca", 3);
        assert_eq!(pairs.iter().map(|&(_, c)| c).sum::<u32>(), 9);
        assert_eq!(TermCounts::new(&lexicon, &pairs).get("a"), Some(2));
    }

    #[test]
    #[should_panic(expected = "n-gram length must be at least 1")]
    fn zero_length_rejected() {
        let _ = char_ngrams_free_space("abc", 0).count();
    }

    #[test]
    fn leading_trailing_ws_trimmed() {
        assert_eq!(chars("  ab  ", 2), ["ab"]);
    }
}
