//! Hashed character-n-gram word vectors.
//!
//! Stage 7 merges IOC mentions using "both the character-level overlap and
//! the word vector similarities" (§II-C). spaCy supplies pretrained
//! vectors; offline we build subword vectors in the fastText spirit:
//! each character trigram hashes into a fixed number of buckets with a
//! hash-derived sign, and the word vector is the L2-normalized bucket sum.
//! Strings sharing many trigrams (e.g. `/tmp/upload.tar` and
//! `upload.tar`) land close in cosine space.

/// Vector dimensionality.
pub const DIM: usize = 64;

/// A dense word vector.
pub type Vector = [f32; DIM];

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Embeds a string from its character trigrams (with boundary markers).
pub fn embed(word: &str) -> Vector {
    let mut v = [0f32; DIM];
    let padded: Vec<char> = std::iter::once('^')
        .chain(word.chars())
        .chain(std::iter::once('$'))
        .collect();
    if padded.len() < 3 {
        return v;
    }
    let mut buf = String::with_capacity(12);
    for tri in padded.windows(3) {
        buf.clear();
        buf.extend(tri);
        let h = fnv1a(buf.as_bytes());
        let bucket = (h % DIM as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[bucket] += sign;
    }
    // Opposite-sign trigrams can cancel to the zero vector on short
    // words; fall back to a single whole-word bucket so every non-empty
    // word has a unit embedding.
    if v.iter().all(|x| *x == 0.0) {
        let h = fnv1a(word.as_bytes());
        v[(h % DIM as u64) as usize] = 1.0;
    }
    normalize(&mut v);
    v
}

fn normalize(v: &mut Vector) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity of two vectors (both already normalized ⇒ dot
/// product). Returns 0 for zero vectors.
pub fn cosine(a: &Vector, b: &Vector) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Convenience: cosine similarity of two strings.
pub fn similarity(a: &str, b: &str) -> f32 {
    cosine(&embed(a), &embed(b))
}

/// A string's character trigrams as a sorted, deduplicated list, so
/// that overlaps are exact set counts without hashing any strings. A
/// string shorter than three chars is its own single gram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Trigrams(Vec<[u32; 3]>);

/// Fills out the gram of a sub-trigram string. Not a `char`, so such a
/// gram never equals a real trigram.
const PAD: u32 = u32::MAX;

impl Trigrams {
    /// The trigram set of `s`.
    pub(crate) fn of(s: &str) -> Trigrams {
        let chars: Vec<u32> = s.chars().map(u32::from).collect();
        let mut grams: Vec<[u32; 3]> = if chars.len() < 3 {
            let mut gram = [PAD; 3];
            gram[..chars.len()].copy_from_slice(&chars);
            vec![gram]
        } else {
            chars.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
        };
        grams.sort_unstable();
        grams.dedup();
        Trigrams(grams)
    }

    /// Jaccard overlap `|A ∩ B| / |A ∪ B|` (neither set is ever empty).
    pub(crate) fn overlap(&self, other: &Trigrams) -> f64 {
        let (a, b) = (&self.0, &other.0);
        let (mut i, mut j, mut inter) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter as f64 / (a.len() + b.len() - inter) as f64
    }
}

/// Character-trigram Jaccard overlap — the "character-level overlap" leg
/// of the merge criterion.
pub fn char_overlap(a: &str, b: &str) -> f64 {
    Trigrams::of(a).overlap(&Trigrams::of(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_strings_have_similarity_one() {
        let s = similarity("/tmp/upload.tar", "/tmp/upload.tar");
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn related_paths_are_closer_than_unrelated() {
        let related = similarity("/tmp/upload.tar", "upload.tar");
        let unrelated = similarity("/tmp/upload.tar", "/etc/passwd");
        assert!(
            related > unrelated + 0.2,
            "related={related} unrelated={unrelated}"
        );
    }

    #[test]
    fn overlap_behaviour() {
        assert!((char_overlap("abcdef", "abcdef") - 1.0).abs() < 1e-9);
        assert_eq!(char_overlap("abc", "xyz"), 0.0);
        let partial = char_overlap("/tmp/upload.tar", "/tmp/upload.tar.bz2");
        assert!(partial > 0.5 && partial < 1.0);
    }

    #[test]
    fn short_strings_do_not_panic() {
        assert!(
            similarity("a", "b").abs() < 1e-9,
            "sub-trigram words are zero vectors"
        );
        assert_eq!(char_overlap("", ""), 1.0);
        assert!(char_overlap("ab", "ab") > 0.99);
    }

    proptest! {
        #[test]
        fn cosine_bounded(a in "[a-z/.]{0,20}", b in "[a-z/.]{0,20}") {
            let s = similarity(&a, &b);
            prop_assert!((-1.0001..=1.0001).contains(&s));
        }

        #[test]
        fn overlap_symmetric(a in "[a-z/.]{0,15}", b in "[a-z/.]{0,15}") {
            prop_assert_eq!(char_overlap(&a, &b).to_bits(), char_overlap(&b, &a).to_bits());
        }

        #[test]
        fn self_similarity_maximal(a in "[a-z/.]{3,20}") {
            prop_assert!((similarity(&a, &a) - 1.0).abs() < 1e-4);
            prop_assert!((char_overlap(&a, &a) - 1.0).abs() < 1e-9);
        }
    }
}
