//! Chunked replay of raw audit logs — the bridge between the batch
//! parser and streaming ingest.
//!
//! The paper's deployment tails a live Sysdig capture; this reproduction
//! replays a raw log document *as if* it were live: a [`LogFeed`] walks
//! the text with the parser's own line walker (the one
//! [`Parser::parse_document`] drains), hands each record line to the
//! ordinary streaming [`Parser`], and yields a [`LogChunk`] every `n`
//! events. Entity ids and event ids are identical to a one-shot
//! [`Parser::parse_document`] of the same text — the feed only changes
//! *when* data becomes visible, never what it is. It validates nothing
//! itself: a malformed line's [`ParseError`] comes from the parser.

use crate::parser::{LogChunk, ParseError, Parser, Records};

/// An iterator of [`LogChunk`]s over a raw log document: a chunk every
/// `n` events (the last chunk may be shorter).
///
/// Yields `Err` once on the first malformed line and then fuses.
#[derive(Debug)]
pub struct LogFeed<'a> {
    parser: Parser,
    records: Records<'a>,
    /// Events per chunk.
    n: usize,
    done: bool,
}

impl<'a> LogFeed<'a> {
    /// A feed over `raw` cutting every `n` events (clamped to ≥ 1).
    pub fn by_events(raw: &'a str, n: usize) -> LogFeed<'a> {
        LogFeed {
            parser: Parser::new(),
            records: Records::new(raw),
            n: n.max(1),
            done: false,
        }
    }
}

impl Iterator for LogFeed<'_> {
    type Item = Result<LogChunk, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        for (lineno, line) in self.records.by_ref() {
            if let Err(e) = self.parser.parse_line(line, lineno) {
                self.done = true;
                return Some(Err(e));
            }
            if self.parser.pending_events() >= self.n {
                return Some(Ok(self.parser.take_chunk()));
            }
        }
        // End of input: flush whatever is pending, once.
        self.done = true;
        let chunk = self.parser.take_chunk();
        (!chunk.is_empty()).then_some(Ok(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::scenario::ScenarioBuilder;

    fn raw_log(events: usize) -> String {
        ScenarioBuilder::new()
            .seed(42)
            .target_events(events)
            .build()
            .raw
    }

    /// Replaying any way must reassemble the exact one-shot parse.
    fn assert_feed_matches_batch(raw: &str, feed: LogFeed<'_>) {
        let batch = Parser::new().parse_document(raw).unwrap();
        let mut entities = Vec::new();
        let mut events = Vec::new();
        for chunk in feed {
            let chunk = chunk.expect("well-formed log");
            // Chunks continue the global id sequence.
            assert_eq!(
                chunk.new_entities.first().map(|e| e.id().index()),
                (!chunk.new_entities.is_empty()).then_some(entities.len())
            );
            entities.extend(chunk.new_entities);
            events.extend(chunk.events);
        }
        assert_eq!(entities, batch.entities);
        assert_eq!(events, batch.events);
    }

    #[test]
    fn event_chunking_reassembles_the_batch_parse() {
        let raw = raw_log(800);
        for n in [1usize, 13, 100, 10_000] {
            assert_feed_matches_batch(&raw, LogFeed::by_events(&raw, n));
        }
    }

    #[test]
    fn event_chunks_have_the_requested_size() {
        let raw = raw_log(500);
        let sizes: Vec<usize> = LogFeed::by_events(&raw, 64)
            .map(|c| c.unwrap().events.len())
            .collect();
        assert!(sizes.len() > 2);
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 64));
        assert!(*sizes.last().unwrap() <= 64);
    }

    #[test]
    fn parse_errors_surface_and_fuse() {
        let mut raw = raw_log(50);
        raw.push_str("this is not a log line\n");
        raw.push_str(&raw_log(10));
        let mut feed = LogFeed::by_events(&raw, 10_000);
        let got: Vec<_> = feed.by_ref().collect();
        assert!(matches!(got.last(), Some(Err(_))));
        assert!(feed.next().is_none(), "feed must fuse after an error");
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let mut raw = String::from("# header\n\n");
        raw.push_str(&raw_log(20));
        assert_feed_matches_batch(&raw, LogFeed::by_events(&raw, 5));
    }
}
