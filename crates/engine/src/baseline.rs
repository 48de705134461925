//! The comparison baselines of the efficiency experiments (E3/E4).
//!
//! ThreatRaptor's executor is the scheduled one (§II-F, [`crate::Engine`]).
//! The full-length paper measures it against three strategies that give
//! up part of that design; they are reproduced here for the paper-table
//! binaries (`exp_e3`, `exp_e4`) and the tests that check every strategy
//! returns the same rows. No production entry point reaches this module.
//!
//! Every baseline runs the patterns in declaration order, each with only
//! its own filters (no constraint propagation), over one [`AuditStore`],
//! through the same driver and hash join as the engine. They differ in
//! the backend each pattern shape is sent to: the event postings the
//! engine scans, or the property graph
//! ([`GraphDb`](threatraptor_storage::graphdb::GraphDb)) of the paper's
//! Neo4j role, whose path search lives here because no production path
//! reaches it.

use crate::compile::{compile, CompiledPattern, CompiledShape};
use crate::error::EngineError;
use crate::exec::{expand_paths, run_schedule, scan_events, MAX_PATH_MATCHES};
use crate::idset::IdSet;
use crate::join::{PatternRow, Schedule, Witness};
use crate::result::HuntResult;
use threatraptor_audit::event::Operation;
use threatraptor_storage::graphdb::PathQuery;
use threatraptor_storage::store::{AuditStore, EventShard};
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::parser::parse_query;

/// A comparison strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Declaration order without propagation; event patterns through the
    /// relational backend, path patterns through the graph backend.
    Unscheduled,
    /// Everything through the relational backend: path patterns are
    /// expanded hop by hop with subject-index joins (what plain SQL
    /// forces you into).
    RelationalOnly,
    /// Everything through the graph backend: event patterns scan edges
    /// without relational indexes.
    GraphOnly,
}

impl Baseline {
    /// Every baseline, in the order the experiment tables print them.
    pub const ALL: [Baseline; 3] = [
        Baseline::Unscheduled,
        Baseline::RelationalOnly,
        Baseline::GraphOnly,
    ];

    /// Human-readable label (used by the experiment binaries).
    pub fn label(self) -> &'static str {
        match self {
            Baseline::Unscheduled => "Unscheduled",
            Baseline::RelationalOnly => "Relational-only (SQL)",
            Baseline::GraphOnly => "Graph-only (Cypher)",
        }
    }
}

/// Parses, analyzes, compiles, and executes TBQL source under `baseline`.
pub fn hunt(store: &AuditStore, tbql: &str, baseline: Baseline) -> Result<HuntResult, EngineError> {
    let cq = compile(&analyze(&parse_query(tbql)?)?)?;
    Ok(run_schedule(
        &cq,
        &Schedule::declared(&cq),
        &store.entities,
        &mut |pat, subjects, objects| match (&pat.shape, baseline) {
            (CompiledShape::Event { ops }, Baseline::GraphOnly) => {
                event_via_graph(store, pat, ops, subjects, objects)
            }
            (CompiledShape::Event { ops }, _) => {
                scan_events(store, ops, subjects, objects, pat.window)
            }
            (CompiledShape::Path { .. }, Baseline::RelationalOnly) => {
                path_via_sql(store, pat, subjects, objects)
            }
            (CompiledShape::Path { .. }, _) => path_via_graph(store, pat, subjects, objects),
        },
        &|id, attr| store.entity(id).attr(attr),
    ))
}

/// Event pattern through the graph backend: scan all edges, filter by
/// operation and endpoint predicates (no relational indexes — the
/// baseline cost the paper's hybrid design avoids).
fn event_via_graph(
    shard: &EventShard,
    pat: &CompiledPattern,
    ops: &[Operation],
    subjects: &IdSet,
    objects: &IdSet,
) -> Vec<PatternRow> {
    // A graph store has no attribute indexes over edges; it scans.
    // The scan is parallelized across worker threads (crossbeam),
    // as a production graph database would — but only when the edge
    // set is large enough to amortize thread spawns.
    const PARALLEL_SCAN_THRESHOLD: usize = 65_536;
    let graph = shard.graph();
    let n = graph.edge_count();
    let workers = if n < PARALLEL_SCAN_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .clamp(1, 8)
    };
    let chunk = n.div_ceil(workers);
    let mut out: Vec<PatternRow> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let (lo, hi) = (w * chunk, ((w + 1) * chunk).min(n));
            handles.push(scope.spawn(move |_| {
                let mut local = Vec::new();
                for idx in lo..hi {
                    let edge = graph.edge(idx);
                    if !ops.contains(&edge.op) {
                        continue;
                    }
                    if let Some(w) = pat.window {
                        if edge.start < w.lo || edge.end > w.hi {
                            continue;
                        }
                    }
                    if !subjects.contains(edge.src) || !objects.contains(edge.dst) {
                        continue;
                    }
                    local.push(PatternRow {
                        subject: edge.src,
                        object: edge.dst,
                        events: Witness::Event(edge.event_pos),
                        start: edge.start,
                        end: edge.end,
                    });
                }
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scan worker panicked"))
            .collect()
    })
    .expect("crossbeam scope");
    out.sort_unstable_by_key(|r| r.events.first());
    out
}

/// Path pattern through the relational backend: hop-by-hop frontier
/// expansion with subject-postings probes — the join cascade a pure SQL
/// backend would execute.
fn path_via_sql(
    shard: &EventShard,
    pat: &CompiledPattern,
    srcs: &IdSet,
    dsts: &IdSet,
) -> Vec<PatternRow> {
    expand_paths(
        pat,
        srcs,
        dsts,
        // SELECT * FROM event WHERE subject = node (index probe).
        |node| shard.postings().by_subject(node),
        |pos| shard.event_at(pos),
    )
}

/// Path pattern through the graph backend: the graph path query the paper
/// compiles a path pattern to ("since it is difficult to perform graph
/// pattern search using SQL, ThreatRaptor compiles it into a Cypher data
/// query"), a depth-first search over the shard's property graph. Rows
/// come back in search order.
fn path_via_graph(
    shard: &EventShard,
    pat: &CompiledPattern,
    srcs: &IdSet,
    dsts: &IdSet,
) -> Vec<PatternRow> {
    let CompiledShape::Path {
        min_hops,
        max_hops,
        last_op,
    } = pat.shape
    else {
        unreachable!("path_via_graph on an event pattern");
    };
    let query = PathQuery {
        src: Some(srcs.iter().collect()),
        dst: Some(dsts.iter().collect()),
        min_hops,
        max_hops,
        last_op: Some(last_op),
        mid_ops: None,
        time_monotone: true,
        window: pat.window.map(|w| (w.lo, w.hi)),
        max_matches: MAX_PATH_MATCHES,
    };
    let graph = shard.graph();
    query
        .search(graph)
        .into_iter()
        .map(|p| {
            let first = graph.edge(p.edges[0]);
            let last = graph.edge(*p.edges.last().expect("non-empty"));
            PatternRow {
                subject: first.src,
                object: last.dst,
                events: Witness::Path(p.edges.iter().map(|&e| graph.edge(e).event_pos).collect()),
                start: first.start,
                end: last.end,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use threatraptor_audit::entity::EntityId;
    use threatraptor_audit::event::{Event, EventId};
    use threatraptor_tbql::analyze::analyze;
    use threatraptor_tbql::parser::parse_query;

    const IDS: u32 = 10;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Path expansion over the subject postings finds exactly the
        /// paths the graph backend's depth-first search finds (the
        /// record set; the two enumerate in different orders).
        #[test]
        fn path_expansion_matches_the_graph_backend(
            raw in prop::collection::vec((0u8..18, 0u32..IDS, 0u32..IDS, 0u64..5, 0u64..4), 0..60),
            masks in (any::<u32>(), any::<u32>()),
            hops in (1u32..4, 0u32..3),
            last_op in prop::sample::select(vec!["read", "write", "open"]),
        ) {
            let (min, max) = (hops.0, (hops.0 + hops.1).min(3));
            let tbql = format!("proc p ~>({min}~{max})[{last_op}] file f as pp return p, f");
            let cq = compile(&analyze(&parse_query(&tbql).unwrap()).unwrap()).unwrap();
            let pat = &cq.patterns[0];
            // Random ops and endpoints, non-decreasing starts.
            let mut start = 0;
            let events = raw
                .iter()
                .enumerate()
                .map(|(i, &(op, subject, object, gap, len))| {
                    start += gap;
                    Event {
                        id: EventId(i as u32),
                        subject: EntityId(subject),
                        op: Operation::ALL[usize::from(op)],
                        object: EntityId(object),
                        start,
                        end: start + len,
                        bytes: 0,
                        merged: 1,
                        tag: None,
                    }
                })
                .collect();
            let shard = EventShard::build(events, IDS as usize);
            let id_set = |mask: u32| -> IdSet {
                (0..IDS).filter(|i| mask & (1 << i) != 0).map(EntityId).collect()
            };
            let (srcs, dsts) = (id_set(masks.0), id_set(masks.1));
            let key = |rows: Vec<PatternRow>| {
                let mut keys: Vec<_> = rows
                    .into_iter()
                    .map(|r| (r.events.positions().to_vec(), r.subject, r.object, r.start, r.end))
                    .collect();
                keys.sort();
                keys
            };
            let expanded = path_via_sql(&shard, pat, &srcs, &dsts);
            let searched = path_via_graph(&shard, pat, &srcs, &dsts);
            prop_assert_eq!(key(expanded), key(searched));
        }
    }
}
