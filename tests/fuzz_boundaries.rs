//! Panic-free input boundaries: byte-level fuzz loops over the two places
//! untrusted text enters the system, the raw-log feed
//! ([`LogFeed::by_events`], and so `Parser::parse_line`) and TBQL, whose
//! every parsed input goes on through semantic analysis ([`analyze`]),
//! the lint pass and plan compilation ([`compile_with_lint`]). Every
//! input must come back as `Ok` or a typed error; a panic fails the case,
//! and the proptest shim prints the generated input. Two input shapes per
//! target: arbitrary bytes read as lossy UTF-8, and valid text with
//! random bytes spliced in, which gets past the first field check and
//! into the deeper parsing paths.

mod common;

use common::{raw_lines, splice};
use proptest::prelude::*;
use threatraptor_audit::LogFeed;
use threatraptor_bench::cases::{DB_EXFIL_TBQL, MALWARE_DROP_TBQL, PASSWORD_CRACK_TBQL};
use threatraptor_engine::compile::compile_with_lint;
use threatraptor_engine::EngineError;
use threatraptor_tbql::analyze::analyze;
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

/// Parses, analyzes, lints and compiles `src`, rendering each stage's
/// error or diagnostics against it as a caller would: their spans must
/// fall on char boundaries of the source. Compile fails only on the lint
/// pass's errors, as [`EngineError::Infeasible`].
fn check_query(src: &str) -> Result<(), TestCaseError> {
    let query = match parse_query(src) {
        Ok(query) => query,
        Err(e) => {
            e.render(src);
            return Ok(());
        }
    };
    let aq = match analyze(&query) {
        Ok(aq) => aq,
        Err(e) => {
            e.render(src);
            return Ok(());
        }
    };
    match compile_with_lint(&aq) {
        Ok((_, report)) => {
            prop_assert!(!report.has_errors(), "compiled despite lint errors");
            report.render(src);
        }
        Err(EngineError::Infeasible(diags)) => {
            prop_assert!(!diags.is_empty(), "infeasible without a diagnostic");
            for d in &diags {
                d.render(src);
            }
        }
        Err(e) => prop_assert!(false, "compile failed with {e:?}"),
    }
    Ok(())
}

const QUERIES: [&str; 5] = [
    FIG2_TBQL,
    PASSWORD_CRACK_TBQL,
    MALWARE_DROP_TBQL,
    DB_EXFIL_TBQL,
    r#"proc p[exename like "%sh%" && (pid > 3 || pid <= 2)] ~>(1~3)[write] file f as flow
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
        check_query(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn tbql_parser_survives_spliced_queries(
        query in 0usize..5,
        at in any::<u64>(),
        cut in any::<u64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        check_query(&splice(QUERIES[query], at, cut, &bytes))?;
    }
}

/// The splice loops start from text the parsers accept, and every TBQL
/// seed analyzes and compiles, so spliced inputs reach every stage.
#[test]
fn splice_seeds_parse() {
    for query in QUERIES {
        let parsed = parse_query(query).unwrap_or_else(|e| panic!("{e}\n{query}"));
        let aq = analyze(&parsed).unwrap_or_else(|e| panic!("{e}\n{query}"));
        compile_with_lint(&aq).unwrap_or_else(|e| panic!("{e}\n{query}"));
    }
    let raw = raw_lines().join("\n");
    assert!(LogFeed::by_events(&raw, 50).all(|chunk| chunk.is_ok()));
}

/// Each stage's error is a typed value `check_query` accepts: a parse
/// error, an analysis error, and compile's lint rejections (E001, E002).
#[test]
fn every_stage_fails_typed() {
    for src in [
        "proc p read",
        r#"proc p[name = "x"] read file f return p"#,
        "proc p read file f as e1 proc p write file g as e2 \
         with e1 before e2, e2 before e1 return p",
        "proc p[pid = 1 && pid = 2] read file f return p",
    ] {
        check_query(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    }
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
