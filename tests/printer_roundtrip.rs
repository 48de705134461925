//! Printer round-trip property: parsing a query, canonical-printing it,
//! and re-parsing the printed text must yield the same AST (modulo
//! source spans) and the same semantic signature. This is what lets the
//! plan cache key formatting variants of one query to one plan, and the
//! EXPLAIN output echo a query that still parses.

mod common;

use common::arb_tbql;
use proptest::prelude::*;
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::parser::{parse_query, FIG2_TBQL};
use threatraptor_tbql::printer::{print_query, strip_spans};

/// Round-trips one source text and asserts AST and signature stability.
fn assert_roundtrip(src: &str) {
    let first = parse_query(src).expect("generated query must parse");
    let printed = print_query(&first);
    let second = parse_query(&printed)
        .unwrap_or_else(|e| panic!("printed form must re-parse: {e}\n{printed}"));
    let mut a = first.clone();
    let mut b = second.clone();
    strip_spans(&mut a);
    strip_spans(&mut b);
    assert_eq!(a, b, "AST must survive print → parse\n{printed}");
    // Printing is idempotent once canonical.
    assert_eq!(printed, print_query(&second));
    // And the semantic signature is untouched.
    let sig_a = analyze(&first).unwrap().canonical_signature();
    let sig_b = analyze(&second).unwrap().canonical_signature();
    assert_eq!(sig_a, sig_b);
}

#[test]
fn fig2_roundtrips() {
    assert_roundtrip(FIG2_TBQL);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn printed_queries_reparse_identically(src in arb_tbql()) {
        assert_roundtrip(&src);
    }
}
