//! Typed cell values and SQL `LIKE` pattern matching.

use std::cmp::Ordering;
use std::fmt;

/// A typed cell value.
///
/// The audit schema only needs 64-bit integers (ids, pids, ports,
/// timestamps, byte counts) and strings (paths, names, IPs, operations).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A UTF-8 string.
    Str(String),
}

impl Value {
    /// Constructs a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Constructs an integer value.
    pub fn int(i: impl Into<i64>) -> Value {
        Value::Int(i.into())
    }

    /// Returns the integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }

    /// Returns the string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// Total order: integers before strings (cross-type comparisons only
    /// occur for index layout, never from well-typed queries).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(_), Value::Str(_)) => Ordering::Less,
            (Value::Str(_), Value::Int(_)) => Ordering::Greater,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u16> for Value {
    fn from(v: u16) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// SQL `LIKE` matching: `%` matches any run of characters (including
/// empty), `_` matches exactly one character. Matching is case-sensitive,
/// as in PostgreSQL.
///
/// Implemented with the classic two-pointer wildcard algorithm — O(n·m)
/// worst case but linear on typical patterns, with no allocation: it
/// walks the UTF-8 bytes directly. Both wildcards are ASCII, so a
/// wildcard byte in the pattern is never part of a multi-byte character;
/// literals compare bytewise (equal byte runs are equal characters), and
/// `_` and the `%` backtrack step advance the text by one whole
/// character, so the text cursor only ever rests on a character boundary
/// when a wildcard is examined.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let (p, t) = (pattern.as_bytes(), text.as_bytes());
    let (mut pi, mut ti) = (0usize, 0usize);
    // Backtrack anchors for the most recent `%`: the pattern position
    // after it and the text position it currently absorbs up to.
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                star = Some((pi, ti));
            }
            Some(b'_') => {
                pi += 1;
                ti += utf8_len(t[ti]);
            }
            Some(&c) if c == t[ti] => {
                pi += 1;
                ti += 1;
            }
            _ => {
                // Retry: let the last `%` absorb one more character.
                let Some((after, absorbed)) = star else {
                    return false;
                };
                let absorbed = absorbed + utf8_len(t[absorbed]);
                star = Some((after, absorbed));
                pi = after;
                ti = absorbed;
            }
        }
    }
    p[pi..].iter().all(|&c| c == b'%')
}

/// Byte length of the UTF-8 character whose first byte is `lead`.
#[inline]
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0x80..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// A reference `LIKE` implementation via recursion, used by property tests
/// to validate [`like_match`].
#[cfg(test)]
pub fn like_match_reference(pattern: &str, text: &str) -> bool {
    fn go(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // `%` absorbs 0..=len(t) characters.
                (0..=t.len()).any(|k| go(&p[1..], &t[k..]))
            }
            Some('_') => !t.is_empty() && go(&p[1..], &t[1..]),
            Some(c) => t.first() == Some(c) && go(&p[1..], &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    go(&p, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn like_basics() {
        assert!(like_match("%/bin/tar%", "/bin/tar"));
        assert!(like_match("%/bin/tar%", "/usr/local/bin/tar --extract"));
        assert!(!like_match("%/bin/tar%", "/bin/ta"));
        assert!(like_match("/etc/passwd", "/etc/passwd"));
        assert!(!like_match("/etc/passwd", "/etc/passwd.bak"));
        assert!(like_match("/etc/%", "/etc/passwd"));
        assert!(like_match("%.gz", "/var/log/syslog.1.gz"));
        assert!(like_match("_at", "cat"));
        assert!(!like_match("_at", "at"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("", "x"));
        assert!(like_match("", ""));
    }

    #[test]
    fn like_multiple_wildcards() {
        assert!(like_match("%upload%tar%", "/tmp/upload.tar"));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("a%b%c", "aXXbYY"));
        assert!(like_match("%_%", "x"));
        assert!(!like_match("%_%", ""));
    }

    #[test]
    fn like_underscore_consumes_one_char_not_one_byte() {
        assert!(like_match("_", "é"));
        assert!(like_match("c_t", "c猫t"));
        assert!(!like_match("__", "🦀"));
        assert!(like_match("%猫_", "a猫🦀"));
        assert!(!like_match("é", "è"));
        // A literal `%` in the text is ordinary text to the wildcard.
        assert!(like_match("%a", "%ba"));
    }

    #[test]
    fn value_ordering() {
        assert!(Value::int(1) < Value::int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::int(i64::MAX) < Value::str(""));
    }

    #[test]
    fn value_accessors_and_display() {
        assert_eq!(Value::int(5).as_int(), Some(5));
        assert_eq!(Value::str("x").as_int(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::int(5).to_string(), "5");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::from(7u32), Value::Int(7));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }

    proptest! {
        /// Multi-byte text and patterns (2-, 3- and 4-byte characters)
        /// plus a literal `%` in the text: `_` consumes one `char`, not
        /// one byte.
        #[test]
        fn like_agrees_with_reference(
            pattern in "[abé猫🦀%_]{0,8}",
            text in "[abé猫🦀%]{0,10}",
        ) {
            prop_assert_eq!(
                like_match(&pattern, &text),
                like_match_reference(&pattern, &text)
            );
        }

        #[test]
        fn contains_pattern_equals_substring_search(
            needle in "[a-c]{1,4}",
            text in "[a-c]{0,16}",
        ) {
            let pattern = format!("%{needle}%");
            prop_assert_eq!(like_match(&pattern, &text), text.contains(&needle));
        }
    }
}
