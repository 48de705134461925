//! Generators and helpers shared by the integration tests.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

pub mod spec_parser;

use proptest::prelude::*;
use std::sync::OnceLock;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::Operation;
use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
use threatraptor_engine::Match;
use threatraptor_storage::ShardedStore;

/// A strategy over well-formed TBQL source covering event and path
/// patterns, multi-op alternation, entity filters, windows, temporal
/// chains, a second pattern sharing the subject, the object or a process
/// with the first, non-default return attributes, and both projection
/// modes. The vocabulary is the simulator's (a web server beside the
/// data-leakage attack's tools), so queries over simulated logs match.
pub fn arb_tbql() -> impl Strategy<Value = String> {
    // (process, operations, file) triples the simulator produces, and a
    // few it does not.
    let event = prop::sample::select(vec![
        ("%apache2%", "read", "%/var/www/%"),
        ("%apache2%", "open || close", "%.html"),
        ("%apache2%", "write", "%.log%"),
        ("%/bin/tar%", "read || write", "%/%"),
        ("%/bin/%", "read", "%/tmp/%"),
        ("%curl%", "read", "%/tmp/%"),
        ("%bash%", "execute", "%/bin/%"),
        ("%/bin/tar%", "read", "%/etc/passwd%"),
        ("%curl%", "write", "%.log%"),
    ]);
    let path = prop::sample::select(vec!["~>(1~3)[write]", "~>(2~3)[write]", "~>(1~2)[read]"]);
    let rel = prop::sample::select(vec!["before", "after"]);
    let window = prop::sample::select(vec![
        "",
        " window [0, 1000000]",
        " window [500, 2000000000]",
        " window [0, 30000000]",
    ]);
    // A second pattern, and the return items over both patterns.
    let second = prop::sample::select(vec![
        ("proc p open || close file g as e2", "p, f, g"),
        ("proc q read || write file f as e2", "p, f, q"),
        ("proc p send || recv ip g as e2", "p, f, g.dstport"),
        ("proc q fork proc p as e2", "q, p.pid, f"),
    ]);
    (
        (event, path),
        (rel, window, second),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(((exe, op, file), path), (rel, window, second), two, is_path, distinct)| {
                let head = if is_path {
                    format!("proc p[\"{exe}\"] {path} file f[\"{file}\"] as e1{window}")
                } else {
                    format!("proc p[\"{exe}\"] {op} file f[\"{file}\"] as e1{window}")
                };
                let distinct = if distinct { "distinct " } else { "" };
                if two {
                    let (pattern, returns) = second;
                    format!(
                        "{head}\n\
                         {pattern}\n\
                         with e1 {rel} e2\n\
                         return {distinct}{returns}"
                    )
                } else {
                    format!("{head}\nreturn {distinct}p, f")
                }
            },
        )
}

/// A match as `FollowHunt` identifies it: sorted bindings plus, per
/// pattern, each witness's CPR run identity (entity pair, operation, run
/// start) in the snapshot it came from.
pub type RunKey = (
    Vec<(String, EntityId)>,
    Vec<(String, Vec<(EntityId, EntityId, Operation, u64)>)>,
);

/// The run identity of `m`, a match found in `snapshot`.
pub fn run_key(m: &Match, snapshot: &ShardedStore) -> RunKey {
    let mut bindings: Vec<_> = m.bindings.iter().map(|(v, &e)| (v.clone(), e)).collect();
    bindings.sort();
    let mut events: Vec<_> = m
        .events
        .iter()
        .map(|(p, hops)| {
            let runs = hops
                .iter()
                .map(|&pos| {
                    let e = snapshot.event_at(pos);
                    (e.subject, e.object, e.op, e.start)
                })
                .collect();
            (p.clone(), runs)
        })
        .collect();
    events.sort();
    (bindings, events)
}

/// Replaces `cut` bytes of `text` at `at` (both taken modulo the length)
/// with `bytes`, reading the result back as lossy UTF-8.
pub fn splice(text: &str, at: u64, cut: u64, bytes: &[u8]) -> String {
    let mut out = text.as_bytes().to_vec();
    let at = (at % (out.len() as u64 + 1)) as usize;
    let end = at + (cut % 8) as usize;
    out.splice(at..end.min(out.len()), bytes.iter().copied());
    String::from_utf8_lossy(&out).into_owned()
}

/// A few hundred lines of a simulated log with an attack in it: every
/// operation and object kind the parser handles.
pub fn raw_lines() -> &'static [String] {
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
