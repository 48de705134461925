//! `hunt-hot`: ad-hoc hunts over a preloaded, sealed store. Two closed
//! loop clients draw from a 12-query mix whose plans all fit the plan
//! cache, so `engine` and the read side of `storage` do the work.

use super::{deadline, mean, Checks, Config, Jobs, Layers, Production, Workload};
use crate::gen::{self, Class, HuntQuery, Mix, ATTACKS};
use crate::oracle::{self, Expected};
use crate::stats::Rng;
use crate::trace::{Recorder, Tracer};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use threatraptor_audit::sim::scenario::Scenario;
use threatraptor_audit::LogFeed;
use threatraptor_engine::compile::compile_with_lint;
use threatraptor_engine::{ExecMode, ShardedEngine};
use threatraptor_service::{HuntJob, HuntServer, IngestConfig, PlanCache, ServerConfig};
use threatraptor_storage::{AuditStore, SealPolicy, ShardedStore};
use threatraptor_tbql::{analyze, lint, parse_query};

/// Raw audit events preloaded.
pub const EVENTS: usize = 100_000;
const PRELOAD_CHUNK: usize = 4_000;
pub const SEAL_EVENTS: usize = 16_000;
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;

pub struct HuntHot {
    seed: u64,
    scenario: Scenario,
    queries: Vec<HuntQuery>,
    /// Reference result per query, from the oracle.
    expected: Vec<Expected>,
    server: HuntServer,
}

struct Client {
    elapsed: Duration,
    cycles_s: Vec<f64>,
    jobs: Jobs,
}

impl HuntHot {
    /// One client: two warm-up cycles (about a second: this container's
    /// second core takes that long to reach full speed once both are
    /// busy), then whole cycles of the mix until the time is up (the last
    /// cycle stops where the clock finds it).
    fn client(&self, id: usize, seconds: f64, ready: &Barrier, rec: Option<&Recorder>) -> Client {
        let tracer = Tracer::new(rec, id);
        let mut mix = Mix::new(
            self.queries.iter().map(|q| q.weight),
            Rng::new(self.seed, 1 + id as u64),
        );
        let cycle_len = mix.cycle_len();
        for qi in mix.by_ref().take(2 * cycle_len) {
            self.server
                .submit(HuntJob::tbql(self.queries[qi].tbql.clone()))
                .wait();
        }
        ready.wait();
        let mut out = Client {
            elapsed: Duration::ZERO,
            cycles_s: Vec::new(),
            jobs: Jobs::default(),
        };
        let start = Instant::now();
        let end = deadline(seconds);
        'cycles: loop {
            let cycle_start = Instant::now();
            for qi in mix.by_ref().take(cycle_len) {
                if Instant::now() >= end {
                    break 'cycles;
                }
                let op_id = (id as u64) << 32 | out.jobs.latencies_ms.len() as u64;
                let job = HuntJob::tbql(self.queries[qi].tbql.clone());
                let want = &self.expected[qi];
                out.jobs
                    .run(&self.server, &tracer, "op.hunt", op_id, job, want);
            }
            out.cycles_s.push(cycle_start.elapsed().as_secs_f64());
        }
        out.elapsed = start.elapsed();
        out
    }
}

impl Workload for HuntHot {
    const NAME: &'static str = "hunt-hot";
    const OP: &'static str = "hunt (submit -> report in hand)";
    const TAIL: f64 = 99.0;

    fn setup(cfg: &Config) -> HuntHot {
        let scenario = gen::scenario(cfg.seed, EVENTS / cfg.shrink);
        let server = HuntServer::new(
            ServerConfig::with_ingest(IngestConfig::with_policy(SealPolicy::events(SEAL_EVENTS)))
                .workers(WORKERS),
        );
        for chunk in LogFeed::by_events(&scenario.raw, PRELOAD_CHUNK) {
            server.append(&chunk.expect("the simulator's log is well-formed"));
        }
        server.seal();
        let queries = gen::hunt_queries(&scenario.log);
        // Warm-up: every plan compiled and cached, every index touched.
        for q in &queries {
            server.submit(HuntJob::tbql(q.tbql.clone())).wait();
        }
        HuntHot {
            seed: cfg.seed,
            scenario,
            queries,
            expected: Vec::new(),
            server,
        }
    }

    fn oracle(&mut self) -> Checks {
        let mut checks = Checks::default();
        let store = AuditStore::ingest(&self.scenario.log, true);
        self.expected = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                // The first four queries are the attacks' references.
                let reference = match q.class {
                    Class::Needle => oracle::expect_attack(&self.scenario, &store, &ATTACKS[i]),
                    _ => oracle::expect(&store, &q.tbql),
                };
                reference.unwrap_or_else(|e| {
                    checks.fail(e);
                    Expected::NOTHING
                })
            })
            .collect();
        checks
    }

    fn production(&self, seconds: f64, rec: Option<&Recorder>) -> Production {
        let before = self.server.cache_stats();
        let ready = Barrier::new(CLIENTS);
        let clients: Vec<Client> = std::thread::scope(|scope| {
            let ready = &ready;
            let handles: Vec<_> = (0..CLIENTS)
                .map(|id| scope.spawn(move || self.client(id, seconds, ready, rec)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let (mut jobs, mut cycles_s, mut elapsed) = (Jobs::default(), Vec::new(), Duration::ZERO);
        for c in clients {
            elapsed = elapsed.max(c.elapsed);
            cycles_s.extend(c.cycles_s);
            jobs.merge(c.jobs);
        }
        let cycle_len: usize = self.queries.iter().map(|q| q.weight).sum();
        let mut out = Production {
            elapsed,
            cycles_s,
            // Every client completes a cycle in the median cycle time.
            cycle_work: (CLIENTS * cycle_len) as f64,
            ..jobs.into_production(before, self.server.cache_stats())
        };
        let hit_ratio = out.layers["service.cache_hit_ratio"];
        if hit_ratio < 0.99 {
            out.checks.fail(format!(
                "plan-cache hit ratio {hit_ratio:.3}: the workload is not hot"
            ));
        }
        out
    }

    fn staged(&self, seconds: f64, rec: &Recorder) -> Layers {
        let tracer = Tracer::new(Some(rec), 0);
        let snapshot = self.server.snapshot();
        let mut layers = Layers::new();

        // What preloading pays per event for partitioning and indexing.
        let log = &self.scenario.log;
        let t0 = Instant::now();
        let built = tracer.span("storage.build", None, 0, || {
            ShardedStore::ingest(log, true, snapshot.shard_count())
        });
        layers.insert(
            "storage.build_ns_per_event",
            mean(t0.elapsed().as_nanos() as f64, log.events.len()),
        );
        drop(built);

        // The cold path, once per query: what a plan-cache miss costs.
        for (i, q) in self.queries.iter().enumerate() {
            let op_id = 1 << 40 | i as u64;
            let root = tracer.begin("op.compile", None, op_id);
            let query = tracer.span("tbql.parse", root, op_id, || parse_query(&q.tbql));
            let query = query.expect("the corpus parses");
            let analyzed = tracer.span("tbql.analyze", root, op_id, || analyze(&query));
            let analyzed = analyzed.expect("the corpus analyzes");
            tracer.span("tbql.lint", root, op_id, || lint(&analyzed));
            tracer
                .span("engine.compile", root, op_id, || {
                    compile_with_lint(&analyzed)
                })
                .expect("the corpus compiles");
            tracer.end(root);
        }

        // The hot path: plan lookup, then execution.
        let cache = PlanCache::new();
        let engine = ShardedEngine::with_threads(&snapshot, 1);
        let mut mix = Mix::new(
            self.queries.iter().map(|q| q.weight),
            Rng::new(self.seed, 1),
        );
        let mut exec_ns = [(0.0, 0usize); Class::ALL.len()];
        let (mut scanned, mut pruned, mut matches) = (0usize, 0usize, 0usize);
        let end = deadline(seconds);
        let mut op_id = 0;
        while Instant::now() < end {
            let q = &self.queries[mix.next().expect("a mix never ends")];
            let root = tracer.begin("op.hunt", None, op_id);
            let (plan, _) = tracer
                .span("service.plan", root, op_id, || cache.plan(&q.tbql))
                .expect("the corpus compiles");
            let t0 = Instant::now();
            let result = tracer
                .span("engine.execute", root, op_id, || {
                    engine.execute(&plan.compiled, ExecMode::Scheduled)
                })
                .expect("the corpus executes");
            let class = &mut exec_ns[q.class as usize];
            class.0 += t0.elapsed().as_nanos() as f64;
            class.1 += 1;
            tracer.end(root);
            scanned += result.stats.total_rows();
            pruned += result.stats.total_rows_pruned();
            matches += result.matches.len();
            op_id += 1;
        }
        for (class, (ns, n)) in Class::ALL.iter().zip(exec_ns) {
            let name = match class {
                Class::Needle => "engine.exec_needle_ns",
                Class::Haystack => "engine.exec_haystack_ns",
                Class::Window => "engine.exec_window_ns",
                Class::Path => "engine.exec_path_ns",
                Class::Distinct => "engine.exec_distinct_ns",
            };
            layers.insert(name, mean(ns, n));
        }
        layers.insert(
            "engine.rows_scanned_per_match",
            mean(scanned as f64, matches),
        );
        layers.insert("engine.rows_pruned", pruned as f64);
        layers
    }
}
