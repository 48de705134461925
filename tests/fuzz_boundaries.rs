//! Panic-free input boundaries: byte-level fuzz loops over the two places
//! untrusted text enters the system, the raw-log feed
//! ([`LogFeed::by_events`], and so `Parser::parse_line`) and the TBQL
//! parser ([`parse_query`]). Every input must come back as `Ok` or a
//! typed error; a panic fails the case, and the proptest shim prints the
//! generated input. Two input shapes per target: arbitrary bytes read as
//! lossy UTF-8, and valid text with random bytes spliced in, which gets
//! past the first field check and into the deeper parsing paths.

use proptest::prelude::*;
use std::sync::OnceLock;
use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
use threatraptor_audit::LogFeed;
use threatraptor_bench::cases::{DB_EXFIL_TBQL, MALWARE_DROP_TBQL, PASSWORD_CRACK_TBQL};
use threatraptor_tbql::parser::{parse_query, FIG2_TBQL, MAX_NESTING};

/// Drains a feed over `raw` cut every `n` events. The feed ends at its
/// first error, so it yields at most one item per line plus the final
/// flush: the step bound every input must respect.
fn drain(raw: &str, n: usize) -> Result<(), TestCaseError> {
    let bound = raw.lines().count() + 1;
    let mut items = 0;
    let mut failed = false;
    for chunk in LogFeed::by_events(raw, n) {
        items += 1;
        prop_assert!(!failed, "the feed yielded past its error");
        failed = chunk.is_err();
        prop_assert!(items <= bound, "{items} items from {bound} lines");
    }
    Ok(())
}

/// Replaces `cut` bytes of `text` at `at` (both taken modulo the length)
/// with `bytes`, reading the result back as lossy UTF-8.
fn splice(text: &str, at: u64, cut: u64, bytes: &[u8]) -> String {
    let mut out = text.as_bytes().to_vec();
    let at = (at % (out.len() as u64 + 1)) as usize;
    let end = at + (cut % 8) as usize;
    out.splice(at..end.min(out.len()), bytes.iter().copied());
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses `src`, rendering any error against it as a caller would: the
/// error's span must fall on char boundaries of the source.
fn parse_and_render(src: &str) {
    if let Err(e) = parse_query(src) {
        e.render(src);
    }
}

/// A few hundred lines of a simulated log with an attack in it: every
/// operation and object kind the parser handles.
fn raw_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        ScenarioBuilder::new()
            .seed(7)
            .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
            .target_events(300)
            .build()
            .raw
            .lines()
            .map(str::to_owned)
            .collect()
    })
}

const QUERIES: [&str; 5] = [
    FIG2_TBQL,
    PASSWORD_CRACK_TBQL,
    MALWARE_DROP_TBQL,
    DB_EXFIL_TBQL,
    r#"proc p[exe_name like "%sh%" && (pid > 3 || pid <= 2)] ~>(1~3)[write] file f as flow
       return distinct p, f.name // a comment"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn log_feed_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
        n in 1usize..64,
    ) {
        drain(&String::from_utf8_lossy(&bytes), n)?;
    }

    #[test]
    fn log_feed_survives_spliced_lines(
        first in any::<u64>(),
        lines in 1usize..6,
        at in any::<u64>(),
        cut in any::<u64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..16),
        n in 1usize..8,
    ) {
        let all = raw_lines();
        let first = (first % all.len() as u64) as usize;
        let text = all[first..(first + lines).min(all.len())].join("\n");
        drain(&splice(&text, at, cut, &bytes), n)?;
    }

    #[test]
    fn tbql_parser_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        parse_and_render(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn tbql_parser_survives_spliced_queries(
        query in 0usize..5,
        at in any::<u64>(),
        cut in any::<u64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        parse_and_render(&splice(QUERIES[query], at, cut, &bytes));
    }
}

/// The splice loops start from text the parsers accept.
#[test]
fn splice_seeds_parse() {
    for query in QUERIES {
        parse_query(query).unwrap_or_else(|e| panic!("{e}\n{query}"));
    }
    let raw = raw_lines().join("\n");
    assert!(LogFeed::by_events(&raw, 50).all(|chunk| chunk.is_ok()));
}

/// A lone non-ASCII letter: the lexer read each UTF-8 byte as a char of
/// its own, took `0xC3` for a letter and sliced the identifier inside
/// the two-byte `é` (shrunk from a `tbql_parser_survives_*` case).
#[test]
fn regression_lexer_non_ascii_letter() {
    assert!(parse_query("é").is_err());
    let q = parse_query("proc pé read file f return pé, f").expect("Unicode identifiers lex");
    assert_eq!(q.ret.items.len(), 2);
    // Non-ASCII whitespace separates tokens; other symbols are errors.
    assert!(parse_query("proc\u{a0}p read file f return p").is_ok());
    assert!(parse_query("proc p read file f return p ©").is_err());
    // An escape's message names the whole char, not its first byte.
    let err = parse_query(r#"proc p["\é"] read file f return p"#).unwrap_err();
    assert!(err.to_string().contains(r"`\é`"), "{err}");
}

/// Nested filter parentheses: each level recursed, so about a thousand
/// `(` overflowed the stack and aborted the process. Nesting is now
/// bounded and reported as an error.
#[test]
fn regression_parser_deep_parentheses() {
    let nested = |n: usize| {
        format!(
            "proc p[{}pid = 1{}] read file f return p",
            "(".repeat(n),
            ")".repeat(n)
        )
    };
    assert!(parse_query(&nested(MAX_NESTING)).is_ok());
    let err = parse_query(&nested(MAX_NESTING + 1)).unwrap_err();
    assert!(err.to_string().contains("nest deeper"), "{err}");
    assert!(parse_query(&nested(100_000)).is_err());
}
