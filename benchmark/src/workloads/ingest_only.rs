//! `ingest-only`: raw log text replayed into a fresh streaming store, no
//! readers. The audit parser and the write side of storage (incremental
//! CPR, seal, compaction, index build) do all the work.

use super::{deadline, mean, Checks, Config, Layers, Production, Workload};
use crate::gen;
use crate::stats::ms;
use crate::trace::{self, Recorder, Tracer};
use std::time::Instant;
use threatraptor_audit::sim::scenario::Scenario;
use threatraptor_audit::LogFeed;
use threatraptor_storage::cpr::{IncrementalReducer, ReductionStats};
use threatraptor_storage::{AuditStore, CompactionPolicy, SealPolicy, StreamingStore};

/// Raw audit events per pass. ISSUE.md proposed 300 000 with a seal
/// every 16 000; a pass then takes four seconds and a ten-second run
/// holds two. At this size a run holds a dozen, and the service's default
/// seal threshold still brings seven compactions into every pass.
pub const EVENTS: usize = 100_000;
pub const CHUNK: usize = 500;
pub const SEAL_EVENTS: usize = 4_096;
pub const MAX_SHARDS: usize = 8;
/// Chunks replayed before the timed phase, for lazy initialisation.
const WARMUP_CHUNKS: usize = 40;

pub struct IngestOnly {
    scenario: Scenario,
    /// What batch ingestion of the same log stores, from the oracle.
    batch: (usize, ReductionStats),
}

fn store(policy: SealPolicy) -> StreamingStore {
    StreamingStore::new(true, policy).with_compaction(CompactionPolicy::max_shards(MAX_SHARDS))
}

impl Workload for IngestOnly {
    const NAME: &'static str = "ingest-only";
    const OP: &'static str = "append of one 500-event chunk (incl. seal and compaction stalls)";
    const TAIL: f64 = 99.0;

    fn setup(cfg: &Config) -> IngestOnly {
        let scenario = gen::scenario(cfg.seed, EVENTS / cfg.shrink);
        let mut warm = store(SealPolicy::events(SEAL_EVENTS));
        for chunk in LogFeed::by_events(&scenario.raw, CHUNK).take(WARMUP_CHUNKS) {
            warm.append(&chunk.expect("the simulator's log is well-formed"));
        }
        warm.seal();
        IngestOnly {
            scenario,
            batch: (
                0,
                ReductionStats {
                    before: 0,
                    after: 0,
                },
            ),
        }
    }

    fn oracle(&mut self) -> Checks {
        let batch = AuditStore::ingest(&self.scenario.log, true);
        self.batch = (batch.event_count(), batch.reduction);
        Checks::default()
    }

    /// Whole passes over the log, each into a fresh store, until the time
    /// is up; the last pass stops where the clock finds it. A pass is the
    /// cycle behind `ops_per_s`: the same events, seals and compactions
    /// every time.
    fn production(&self, seconds: f64, rec: Option<&Recorder>) -> Production {
        let tracer = Tracer::new(rec, 0);
        let mut out = Production::default();
        let mut events = 0usize;
        let start = Instant::now();
        let end = deadline(seconds);
        let mut op_id = 0;
        'passes: loop {
            let pass_start = Instant::now();
            let mut store = store(SealPolicy::events(SEAL_EVENTS));
            let mut feed = LogFeed::by_events(&self.scenario.raw, CHUNK);
            loop {
                if Instant::now() >= end {
                    break 'passes;
                }
                let root = tracer.begin("op.ingest_chunk", None, op_id);
                let Some(chunk) = tracer.span("audit.feed", root, op_id, || feed.next()) else {
                    tracer.end(root);
                    break;
                };
                let Ok(chunk) = chunk else {
                    out.checks
                        .check(false, || "the feed rejected a line".into());
                    break 'passes;
                };
                let t0 = Instant::now();
                tracer.span("storage.append_sealing", root, op_id, || {
                    store.append(&chunk)
                });
                out.latencies_ms.push(ms(t0.elapsed()));
                tracer.end(root);
                out.checks.check(true, String::new);
                events += chunk.events.len();
                op_id += 1;
            }
            // A complete pass must store exactly what batch ingestion of
            // the same log stores.
            let got = (store.event_count(), store.reduction());
            out.checks.check(got == self.batch, || {
                format!("streamed {got:?}, batch ingestion {:?}", self.batch)
            });
            out.cycles_s.push(pass_start.elapsed().as_secs_f64());
        }
        out.cycle_work = self.scenario.log.events.len() as f64;
        out.elapsed = start.elapsed();
        out.work = events as f64;
        out
    }

    /// One pass with every layer called by hand: the parser, then CPR on
    /// its own, then the store under a manual seal policy so that append,
    /// seal and snapshot are each timed apart.
    fn staged(&self, seconds: f64, rec: &Recorder) -> Layers {
        let tracer = Tracer::new(Some(rec), 0);
        let from = rec.len();
        let mut store = store(SealPolicy::manual());
        let mut reducer = IncrementalReducer::new(true);
        let mut feed = LogFeed::by_events(&self.scenario.raw, CHUNK);
        let (mut events, mut errors, mut seals) = (0usize, 0usize, 0usize);
        let end = deadline(seconds);
        let mut op_id = 0;
        while Instant::now() < end {
            let root = tracer.begin("op.ingest_chunk", None, op_id);
            let Some(chunk) = tracer.span("audit.parse", root, op_id, || feed.next()) else {
                tracer.end(root);
                break;
            };
            let Ok(chunk) = chunk else {
                tracer.end(root);
                errors += 1;
                break;
            };
            tracer.span("storage.cpr", root, op_id, || reducer.append(&chunk.events));
            tracer.span("storage.append", root, op_id, || store.append(&chunk));
            if store.open_len() >= SEAL_EVENTS {
                tracer.span("storage.cpr", root, op_id, || reducer.take_stable());
                let sealed = tracer.span("storage.seal", root, op_id, || store.seal());
                seals += sealed.is_some() as usize;
                tracer.span("storage.snapshot", root, op_id, || store.snapshot());
            }
            tracer.end(root);
            events += chunk.events.len();
            op_id += 1;
        }
        let totals = trace::totals(&rec.spans(), from);
        let per_event = |span: &str| {
            totals
                .get(span)
                .map_or(0.0, |t| mean(t.total_ns as f64, events))
        };
        Layers::from([
            ("audit.parse_ns_per_event", per_event("audit.parse")),
            ("audit.parse_errors", errors as f64),
            ("storage.cpr_ns_per_event", per_event("storage.cpr")),
            ("storage.cpr_factor", store.reduction().factor()),
            ("storage.seals", seals as f64),
            // Each compaction merges two sealed shards into one.
            ("storage.compactions", (seals - store.sealed_count()) as f64),
        ])
    }
}
