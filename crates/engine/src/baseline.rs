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
//! the backend each pattern shape is sent to.

use crate::compile::{compile, CompiledPattern, CompiledShape};
use crate::error::EngineError;
use crate::exec::{expand_paths, parse_ops, run_schedule, scan_pattern};
use crate::idset::IdSet;
use crate::join::{PatternRow, Schedule, Witness};
use crate::result::HuntResult;
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
            (CompiledShape::Path { .. }, Baseline::RelationalOnly) => {
                path_via_sql(store, pat, subjects, objects)
            }
            _ => scan_pattern(store, &cq, pat, subjects, objects),
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
    ops: &[String],
    subjects: &IdSet,
    objects: &IdSet,
) -> Vec<PatternRow> {
    let ops = parse_ops(ops);
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
            let ops = &ops;
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
