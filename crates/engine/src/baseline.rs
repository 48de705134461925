//! The comparison baselines of the efficiency experiments (E3/E4).
//!
//! ThreatRaptor's executor is the scheduled one (§II-F, [`crate::Engine`]).
//! The full-length paper measures it against three strategies that give
//! up part of that design; they are reproduced here for the paper-table
//! binaries (`exp_e3`, `exp_e4`) and the tests that check every strategy
//! returns the same rows. No production entry point reaches this module.
//!
//! Every baseline runs the patterns in declaration order, each with only
//! its own filters (no constraint propagation), over the one shard of an
//! [`AuditStore`], through the same driver and hash join as the engine.
//! They differ in the backend each pattern shape is sent to: the event
//! postings the engine scans, or the paper's Neo4j role, a property graph
//! whose edges are the shard's events and whose adjacency list for a node
//! is its subject postings (events ascend by start time, postings by
//! position).

use crate::compile::{compile, CompiledPattern, CompiledShape};
use crate::error::EngineError;
use crate::exec::{expand_paths, run_hunt, scan_events, MAX_PATH_MATCHES};
use crate::idset::IdSet;
use crate::join::{PatternRow, Schedule, Witness};
use crate::result::HuntResult;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::Operation;
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
    let shard = store.shard(0);
    Ok(run_hunt(
        &cq,
        &Schedule::declared(&cq),
        store.catalog(),
        // Nothing is retained, so every scan starts at position 0.
        &mut |pat, subjects, objects, _| {
            let rows = match (&pat.shape, baseline) {
                (CompiledShape::Event { ops }, Baseline::GraphOnly) => {
                    event_via_graph(shard, pat, ops, subjects, objects)
                }
                (CompiledShape::Event { ops }, _) => {
                    scan_events(shard, ops, subjects, objects, pat.window)
                }
                (CompiledShape::Path { .. }, Baseline::RelationalOnly) => {
                    path_via_sql(shard, pat, subjects, objects)
                }
                (CompiledShape::Path { .. }, _) => path_via_graph(shard, pat, subjects, objects),
            };
            let per_shard = vec![rows.len()];
            (rows, per_shard, 0)
        },
        &|id, attr| store.entity(id).attr(attr),
    ))
}

/// Event pattern through the graph backend: scan every edge — the
/// shard's events, in position order — and filter by operation and
/// endpoint predicates (no index on edge properties, the baseline cost
/// the paper's hybrid design avoids).
fn event_via_graph(
    shard: &EventShard,
    pat: &CompiledPattern,
    ops: &[Operation],
    subjects: &IdSet,
    objects: &IdSet,
) -> Vec<PatternRow> {
    // The scan is parallelized across worker threads, as a production
    // graph database would, but only when the edge set is large enough
    // to amortize thread spawns.
    const PARALLEL_SCAN_THRESHOLD: usize = 65_536;
    let n = shard.event_count();
    let workers = if n < PARALLEL_SCAN_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .clamp(1, 8)
    };
    let chunk = n.div_ceil(workers);
    let scan = |w: usize| -> Vec<PatternRow> {
        (w * chunk..((w + 1) * chunk).min(n))
            .map(|pos| (pos, shard.event_at(pos)))
            .filter(|(_, ev)| {
                ops.contains(&ev.op)
                    && pat
                        .window
                        .is_none_or(|w| ev.start >= w.lo && ev.end <= w.hi)
                    && subjects.contains(ev.subject)
                    && objects.contains(ev.object)
            })
            .map(|(pos, ev)| PatternRow {
                subject: ev.subject,
                object: ev.object,
                events: Witness::Event(pos),
                start: ev.start,
                end: ev.end,
            })
            .collect()
    };
    // Worker 0's chunk runs on this thread; the rows keep position order.
    let scan = &scan;
    std::thread::scope(|scope| {
        let rest: Vec<_> = (1..workers).map(|w| scope.spawn(move || scan(w))).collect();
        let mut rows = scan(0);
        for worker in rest {
            rows.extend(worker.join().expect("graph scan worker panicked"));
        }
        rows
    })
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
/// query"), a depth-first search from each source in ascending id order.
/// Rows come back in search order, at most [`MAX_PATH_MATCHES`] of them.
fn path_via_graph(
    shard: &EventShard,
    pat: &CompiledPattern,
    srcs: &IdSet,
    dsts: &IdSet,
) -> Vec<PatternRow> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    for src in srcs.iter() {
        if out.len() >= MAX_PATH_MATCHES {
            break;
        }
        search_from(shard, pat, dsts, src, 0, &mut path, &mut out);
    }
    out
}

/// Extends `path` (event positions, in hop order) by each out-edge of
/// `node` that starts no earlier than `min_start`, fits the window and is
/// not on the path yet; emits the extension when its last hop can end the
/// pattern, and recurses below `max_hops`.
fn search_from(
    shard: &EventShard,
    pat: &CompiledPattern,
    dsts: &IdSet,
    node: EntityId,
    min_start: u64,
    path: &mut Vec<usize>,
    out: &mut Vec<PatternRow>,
) {
    let CompiledShape::Path {
        min_hops,
        max_hops,
        last_op,
    } = pat.shape
    else {
        unreachable!("path search on an event pattern");
    };
    for &pos in shard.postings().by_subject(node) {
        if out.len() >= MAX_PATH_MATCHES {
            return;
        }
        let pos = pos as usize;
        let ev = shard.event_at(pos);
        if ev.start < min_start
            || pat.window.is_some_and(|w| ev.start < w.lo || ev.end > w.hi)
            || path.contains(&pos)
        {
            continue;
        }
        path.push(pos);
        let hops = path.len() as u32;
        if hops >= min_hops && ev.op == last_op && dsts.contains(ev.object) {
            let first = shard.event_at(path[0]);
            out.push(PatternRow {
                subject: first.subject,
                object: ev.object,
                events: Witness::Path(path.as_slice().into()),
                start: first.start,
                end: ev.end,
            });
        }
        if hops < max_hops {
            search_from(shard, pat, dsts, ev.object, ev.end, path, out);
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
            let shard = EventShard::build(events);
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

    /// A shard over `(subject, op, object, start, end)` edges, in order.
    fn shard(edges: &[(u32, Operation, u32, u64, u64)]) -> EventShard {
        let events = edges
            .iter()
            .enumerate()
            .map(|(i, &(subject, op, object, start, end))| Event {
                id: EventId(i as u32),
                subject: EntityId(subject),
                op,
                object: EntityId(object),
                start,
                end,
                bytes: 0,
                merged: 1,
                tag: None,
            })
            .collect();
        EventShard::build(events)
    }

    /// 0 -read-> 1 -write-> 2 -read-> 3 -connect-> 4, each hop five long
    /// and starting after the previous one ends.
    fn chain() -> EventShard {
        shard(&[
            (0, Operation::Read, 1, 10, 15),
            (1, Operation::Write, 2, 20, 25),
            (2, Operation::Read, 3, 30, 35),
            (3, Operation::Connect, 4, 40, 45),
        ])
    }

    fn ids(ids: impl IntoIterator<Item = u32>) -> IdSet {
        ids.into_iter().map(EntityId).collect()
    }

    /// The graph search for `min..=max` hops ending in `last_op`.
    fn search(
        shard: &EventShard,
        (min_hops, max_hops): (u32, u32),
        last_op: Operation,
        window: Option<(u64, u64)>,
        srcs: &IdSet,
        dsts: &IdSet,
    ) -> Vec<PatternRow> {
        let tbql = "proc p ~>(1~1)[read] file f as pp return p, f";
        let mut pat = compile(&analyze(&parse_query(tbql).unwrap()).unwrap())
            .unwrap()
            .patterns
            .remove(0);
        pat.shape = CompiledShape::Path {
            min_hops,
            max_hops,
            last_op,
        };
        pat.window = window.map(|(lo, hi)| threatraptor_tbql::ast::TimeWindow { lo, hi });
        path_via_graph(shard, &pat, srcs, dsts)
    }

    /// The search with any final operation: the union over all of them.
    fn search_any(
        shard: &EventShard,
        hops: (u32, u32),
        window: Option<(u64, u64)>,
        srcs: &IdSet,
        dsts: &IdSet,
    ) -> Vec<PatternRow> {
        Operation::ALL
            .into_iter()
            .flat_map(|op| search(shard, hops, op, window, srcs, dsts))
            .collect()
    }

    #[test]
    fn single_hop_any() {
        let all = ids(0..5);
        assert_eq!(search_any(&chain(), (1, 1), None, &all, &all).len(), 4);
    }

    #[test]
    fn fixed_endpoints_and_length() {
        let paths = search_any(&chain(), (4, 4), None, &ids([0]), &ids([4]));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].events.positions(), [0, 1, 2, 3]);
        assert_eq!(
            (paths[0].subject, paths[0].object),
            (EntityId(0), EntityId(4))
        );
        assert_eq!((paths[0].start, paths[0].end), (10, 45));
    }

    #[test]
    fn last_op_constrains_final_hop() {
        let paths = search(
            &chain(),
            (1, 4),
            Operation::Connect,
            None,
            &ids([0]),
            &ids(0..5),
        );
        // Only the full 4-hop path ends in connect.
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].events.positions().len(), 4);
    }

    #[test]
    fn hop_bounds_respected() {
        let paths = search_any(&chain(), (2, 3), None, &ids([0]), &ids(0..5));
        // 0 -> 2 (ends in write) and 0 -> 3 (ends in read).
        assert_eq!(paths.len(), 2);
        for p in paths {
            assert!((2..=3).contains(&p.events.positions().len()));
        }
    }

    #[test]
    fn time_monotone_blocks_backwards_paths() {
        // 1 -> 2 at t=10, 0 -> 1 at t=100: not a causal chain from 0.
        let g = shard(&[
            (1, Operation::Read, 2, 10, 11),
            (0, Operation::Read, 1, 100, 101),
        ]);
        assert!(search_any(&g, (2, 2), None, &ids([0]), &ids([2])).is_empty());
    }

    #[test]
    fn window_filters_hops() {
        // Only the first edge [10,15] fits in the window.
        let paths = search_any(&chain(), (1, 4), Some((0, 18)), &ids([0]), &ids(0..5));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].events.positions(), [0]);
    }

    #[test]
    fn max_matches_caps_output() {
        // Node 0 has more parallel out edges to node 1 than the cap.
        let edges: Vec<_> = (0..MAX_PATH_MATCHES as u64 + 10)
            .map(|t| (0, Operation::Read, 1, t * 10, t * 10 + 1))
            .collect();
        let all = ids(0..2);
        let paths = search(&shard(&edges), (1, 1), Operation::Read, None, &all, &all);
        assert_eq!(paths.len(), MAX_PATH_MATCHES);
    }

    #[test]
    fn cycle_guard_terminates() {
        // 0 <-> 1 with alternating edges; unguarded search would loop.
        let g = shard(&[
            (0, Operation::Read, 1, 10, 11),
            (1, Operation::Read, 0, 20, 21),
            (0, Operation::Read, 1, 30, 31),
        ]);
        let paths = search_any(&g, (1, 6), None, &ids([0]), &ids(0..2));
        // All paths are finite and each uses distinct edges.
        assert!(!paths.is_empty());
        for p in &paths {
            let mut positions = p.events.positions().to_vec();
            positions.sort_unstable();
            positions.dedup();
            assert_eq!(positions.len(), p.events.positions().len());
        }
    }
}
