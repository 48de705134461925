//! Differential test of the raw-log parser against its specification:
//! the parser it replaced, kept unchanged in `common::spec_parser`. On
//! generated logs at chunk sizes 1–600, on lines with random or
//! delimiter bytes spliced in, on lines with trailing text added, and on
//! connection lines whose ports are written in different ways, [`LogFeed`]
//! must yield exactly the chunks the old feed yields — the same entities
//! and events with the same ids, cut at the same places — or exactly its
//! `ParseError`, line and message; [`Parser::parse_document`] must return
//! the same log or error.
//!
//! The full-size case (seeds 1–4, 100 k events each) is `#[ignore]`d and
//! meant for a release build:
//! `cargo test --release -q --test parser_spec -- --include-ignored`.

mod common;

use common::spec_parser::{self, SpecFeed};
use common::{raw_lines, splice};
use proptest::prelude::*;
use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
use threatraptor_audit::{Entity, Event, LogChunk, LogFeed, ParseError, Parser};

/// What a feed yields, or a document parse returns, in comparable form.
type Parsed = Result<(Vec<Entity>, Vec<Event>), ParseError>;

fn chunk(item: Result<LogChunk, ParseError>) -> Parsed {
    item.map(|c| (c.new_entities, c.events))
}

/// The first place where the two feeds over `raw` cut every `n` events,
/// or the two document parses of `raw`, disagree.
fn compare(raw: &str, n: usize) -> Result<(), String> {
    let mut ours = LogFeed::by_events(raw, n);
    let mut spec = SpecFeed::by_events(raw, n);
    for item in 0.. {
        match (ours.next().map(chunk), spec.next().map(chunk)) {
            (None, None) => break,
            (got, want) if got == want => {}
            (got, want) => {
                return Err(format!(
                    "n = {n}: item {item} differs\n got: {}\nwant: {}",
                    describe(&got),
                    describe(&want)
                ))
            }
        }
    }
    let got = Parser::new()
        .parse_document(raw)
        .map(|l| (l.entities, l.events));
    let want = spec_parser::Parser::new()
        .parse_document(raw)
        .map(|l| (l.entities, l.events));
    if got != want {
        return Err(format!(
            "parse_document differs\n got: {}\nwant: {}",
            describe(&Some(got)),
            describe(&Some(want))
        ));
    }
    Ok(())
}

/// A short account of one feed item: its error, or its sizes and first ids.
fn describe(item: &Option<Parsed>) -> String {
    match item {
        None => "end of feed".into(),
        Some(Err(e)) => format!("Err({e})"),
        Some(Ok((entities, events))) => format!(
            "{} entities from {:?}, {} events from {:?}",
            entities.len(),
            entities.first().map(Entity::id),
            events.len(),
            events.first().map(|e| e.id)
        ),
    }
}

/// A small log of `events` raw events over `seed`, with `attacks` of the
/// four attack kinds in it.
fn scenario(seed: u64, attacks: usize, events: usize) -> String {
    ScenarioBuilder::new()
        .seed(seed)
        .attacks(&AttackKind::ALL[..attacks])
        .target_events(events)
        .build()
        .raw
}

/// Bytes a splice should hit more often than uniform bytes do: the two
/// delimiters, line ends, the comment mark, signs and digits, object
/// kinds, the tag separator, and the UTF-8 of U+00A0 and U+3000 (both
/// whitespace that trimming removes).
const DELIMITERS: [u8; 17] = [
    b'\t', b'|', b'\r', b'\n', b'#', b' ', b'+', b'-', b'0', b'9', b'F', b'P', b'N', b':', 0xC2,
    0xA0, 0xE3,
];

proptest! {
    #[test]
    fn generated_logs_parse_identically(
        seed in 0u64..10_000,
        attacks in 0usize..5,
        events in 1usize..1_500,
        n in 1usize..601,
    ) {
        let raw = scenario(seed, attacks, events);
        compare(&raw, n).map_err(TestCaseError::fail)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn spliced_lines_parse_identically(
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
        compare(&splice(&text, at, cut, &bytes), n).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn delimiter_splices_parse_identically(
        first in any::<u64>(),
        lines in 1usize..4,
        at in any::<u64>(),
        cut in any::<u64>(),
        bytes in prop::collection::vec(prop::sample::select(DELIMITERS.to_vec()), 1..4),
        n in 1usize..4,
    ) {
        let all = raw_lines();
        let first = (first % all.len() as u64) as usize;
        let text = all[first..(first + lines).min(all.len())].join("\r\n");
        compare(&splice(&text, at, cut, &bytes), n).map_err(TestCaseError::fail)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trailing_text_parses_identically(
        first in any::<u64>(),
        ends in prop::collection::vec(prop::sample::select(LINE_ENDS.to_vec()), 1..6),
        crlf in any::<bool>(),
        n in 1usize..4,
    ) {
        let all = raw_lines();
        let first = (first % all.len() as u64) as usize;
        let mut text = String::new();
        for (line, end) in all[first..].iter().zip(&ends) {
            text.push_str(line);
            text.push_str(end);
            text.push_str(if crlf { "\r\n" } else { "\n" });
        }
        compare(&text, n).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn connection_keys_intern_identically(
        lines in prop::collection::vec(
            (
                prop::sample::select(vec!["10.0.0.1", "10.0.0.10", "1.0.0.101"]),
                prop::sample::select(PORTS.to_vec()),
                prop::sample::select(PORTS.to_vec()),
                prop::sample::select(vec!["tcp", "udp", "tcp|x", ""]),
            ),
            1..12,
        ),
        n in 1usize..4,
    ) {
        let mut text = String::new();
        for (i, (ip, sport, dport, proto)) in lines.iter().enumerate() {
            text.push_str(&format!(
                "{i}\t{i}\t5\t/bin/nc\troot\t0\tnc {i}\tsend\tN|{ip}|{sport}|10.0.0.2|{dport}|{proto}\t9\t-\n"
            ));
        }
        compare(&text, n).map_err(TestCaseError::fail)?;
    }
}

/// Text a line may end with: whitespace `str::trim_end` removes, ASCII
/// and not, and text it keeps.
const LINE_ENDS: [&str; 10] = [
    "", " ", "\t", "\u{a0}", "\u{3000}", "\u{b}", "\u{85}", "\u{2028}", "\u{200b}", "x",
];

/// Port texts: equal numbers written differently, numbers that differ
/// in one digit place, and text `u16` rejects.
const PORTS: [&str; 10] = [
    "80", "080", "0080", "+80", "1080", "50080", "8", "65535", "65536", "-1",
];

/// Whole benchmark-sized logs, all four attacks in each, at the chunk
/// sizes the benchmark's workloads and the streaming tests use.
#[test]
#[ignore = "full-size: four 100 k-event logs; run in release with --include-ignored"]
fn full_size_logs_parse_identically() {
    for seed in 1..=4 {
        let raw = scenario(seed, AttackKind::ALL.len(), 100_000);
        for n in [1, 250, 500, 4_000] {
            compare(&raw, n).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
