//! `intel-cold`: every operation is a never-seen OSCTI report. The store
//! is small, so execution is cheap; the work is extraction, synthesis,
//! parsing, analysis, compilation, and the caches' miss and evict paths.

use super::hunt_hot::{SEAL_EVENTS, WORKERS};
use super::{deadline, mean, Checks, Config, Jobs, Layers, Production, Workload};
use crate::gen::{self, Report, ReportKind, ATTACKS, REPORT_BLOCK};
use crate::oracle::{self, Expected};
use crate::trace::{Recorder, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use threatraptor_audit::sim::scenario::Scenario;
use threatraptor_audit::LogFeed;
use threatraptor_engine::compile::compile_with_lint;
use threatraptor_engine::{Engine, ExecMode, ShardedEngine};
use threatraptor_nlp::ThreatExtractor;
use threatraptor_service::{HuntJob, HuntServer, IngestConfig, PlanCache, ServerConfig};
use threatraptor_storage::{AuditStore, SealPolicy};
use threatraptor_synth::synthesize;
use threatraptor_tbql::{analyze, lint, parse_query, print_query};

/// Raw audit events preloaded: small, so that execution is negligible.
pub const EVENTS: usize = 20_000;
/// Blocks of 64 distinct report texts, cycled: 2 048 texts, 4x the plan
/// cache (512 plans) and 8x the synthesis memo (256 reports), so a text
/// is long evicted by the time it comes round again.
pub const BLOCKS: usize = 32;
const REPORTS: usize = BLOCKS * REPORT_BLOCK;

pub struct IntelCold {
    scenario: Scenario,
    /// The timed texts, then one more block for warming up.
    reports: Vec<Report>,
    /// Reference result per attack, from the oracle.
    expected: Vec<Expected>,
    /// Where the next production pass takes up the cycle of texts: a pass
    /// that started over would find the previous pass's plans cached.
    cursor: AtomicUsize,
    server: HuntServer,
}

impl IntelCold {
    fn expected(&self, report: &Report) -> &Expected {
        match report.kind {
            ReportKind::True(attack) => &self.expected[attack],
            ReportKind::Decoy(_) | ReportKind::LongDecoy => &Expected::NOTHING,
        }
    }
}

impl Workload for IntelCold {
    const NAME: &'static str = "intel-cold";
    const OP: &'static str = "report (OSCTI text -> matched records)";
    const TAIL: f64 = 99.0;

    fn setup(cfg: &Config) -> IntelCold {
        let scenario = gen::scenario(cfg.seed, EVENTS / cfg.shrink);
        let server = HuntServer::new(
            ServerConfig::with_ingest(IngestConfig::with_policy(SealPolicy::events(SEAL_EVENTS)))
                .workers(WORKERS),
        );
        for chunk in LogFeed::by_events(&scenario.raw, 4_000) {
            server.append(&chunk.expect("the simulator's log is well-formed"));
        }
        server.seal();
        let reports = gen::reports(cfg.seed, BLOCKS + 1);
        for report in &reports[REPORTS..] {
            server.submit(HuntJob::report(report.text.clone())).wait();
        }
        IntelCold {
            scenario,
            reports,
            expected: Vec::new(),
            cursor: AtomicUsize::new(0),
            server,
        }
    }

    /// Runs each attack's narrative, and a nonce-carrying variant of it,
    /// through the layers by hand and the single-store engine, and
    /// requires the result to be exactly the attack's tagged events.
    fn oracle(&mut self) -> Checks {
        let mut checks = Checks::default();
        let store = AuditStore::ingest(&self.scenario.log, true);
        let hunt = |text: &str| -> Result<Expected, String> {
            let extraction = ThreatExtractor::new().extract(text);
            let query = synthesize(&extraction.graph).map_err(|e| format!("synthesis: {e}"))?;
            Engine::new(&store)
                .hunt_query(&query, ExecMode::Scheduled)
                .map(|r| Expected::of(&r))
                .map_err(|e| format!("reference execution: {e}"))
        };
        self.expected = ATTACKS
            .iter()
            .enumerate()
            .map(|(i, attack)| {
                let case = attack.kind.case_name();
                let want = oracle::expect_attack(&self.scenario, &store, attack);
                let nonce = self.reports.iter().find(|r| r.kind == ReportKind::True(i));
                let texts = [attack.report]
                    .into_iter()
                    .chain(nonce.map(|r| r.text.as_str()));
                for text in texts {
                    if hunt(text) != want {
                        checks.fail(format!("{case}: report and analyst query disagree: {text}"));
                    }
                }
                want.unwrap_or_else(|e| {
                    checks.fail(e);
                    Expected::NOTHING
                })
            })
            .collect();
        // A decoy, short or long, must synthesize and must match nothing.
        let short = self
            .reports
            .iter()
            .filter(|r| matches!(r.kind, ReportKind::Decoy(_)));
        let long = self
            .reports
            .iter()
            .filter(|r| r.kind == ReportKind::LongDecoy);
        for decoy in short.take(4).chain(long.take(2)) {
            if hunt(&decoy.text) != Ok(Expected::NOTHING) {
                checks.fail(format!("decoy does not hunt to nothing: {}", decoy.text));
            }
        }
        checks
    }

    fn production(&self, seconds: f64, rec: Option<&Recorder>) -> Production {
        let tracer = Tracer::new(rec, 0);
        let before = self.server.cache_stats();
        let mut jobs = Jobs::default();
        let mut cycles_s = Vec::new();
        let start = Instant::now();
        let end = deadline(seconds);
        let mut block_start = start;
        let first = self.cursor.load(Ordering::Relaxed);
        let texts = self.reports[..REPORTS].iter().cycle().skip(first);
        for (op_id, report) in texts.enumerate() {
            if op_id > 0 && op_id % REPORT_BLOCK == 0 {
                cycles_s.push(block_start.elapsed().as_secs_f64());
                block_start = Instant::now();
            }
            if Instant::now() >= end {
                break;
            }
            let job = HuntJob::report(report.text.clone());
            let want = self.expected(report);
            jobs.run(&self.server, &tracer, "op.report", op_id as u64, job, want);
        }
        // Whole blocks only, so that the next pass starts on a block too.
        let done = jobs.latencies_ms.len().next_multiple_of(REPORT_BLOCK);
        self.cursor
            .store((first + done) % REPORTS, Ordering::Relaxed);
        let mut out = Production {
            elapsed: start.elapsed(),
            cycles_s,
            cycle_work: REPORT_BLOCK as f64,
            ..jobs.into_production(before, self.server.cache_stats())
        };
        let hit_ratio = out.layers["service.cache_hit_ratio"];
        if hit_ratio > 0.05 {
            out.checks.fail(format!(
                "plan-cache hit ratio {hit_ratio:.3}: the workload is not cold"
            ));
        }
        out
    }

    fn staged(&self, seconds: f64, rec: &Recorder) -> Layers {
        let tracer = Tracer::new(Some(rec), 0);
        let snapshot = self.server.snapshot();
        let engine = ShardedEngine::with_threads(&snapshot, 1);
        let cache = PlanCache::new();
        let (mut iocs, mut relations, mut patterns) = (0usize, 0usize, 0usize);
        let (mut scanned, mut matches) = (0usize, 0usize);
        let mut ops = 0usize;
        let end = deadline(seconds);
        for report in self.reports[..REPORTS].iter().cycle() {
            if Instant::now() >= end {
                break;
            }
            let op_id = ops as u64;
            let root = tracer.begin("op.report", None, op_id);
            let extraction = tracer.span("nlp.extract", root, op_id, || {
                ThreatExtractor::new().extract(&report.text)
            });
            let query = tracer
                .span("synth.synthesize", root, op_id, || {
                    synthesize(&extraction.graph)
                })
                .expect("every generated report synthesizes");
            // The server hands synthesis on to planning as text.
            let text = tracer.span("tbql.print", root, op_id, || print_query(&query));
            let parsed = tracer
                .span("tbql.parse", root, op_id, || parse_query(&text))
                .expect("synthesized TBQL parses");
            let analyzed = tracer
                .span("tbql.analyze", root, op_id, || analyze(&parsed))
                .expect("synthesized TBQL analyzes");
            tracer.span("tbql.lint", root, op_id, || lint(&analyzed));
            let (compiled, _) = tracer
                .span("engine.compile", root, op_id, || {
                    compile_with_lint(&analyzed)
                })
                .expect("synthesized TBQL compiles");
            let result = tracer
                .span("engine.execute", root, op_id, || {
                    engine.execute(&compiled, ExecMode::Scheduled)
                })
                .expect("synthesized TBQL executes");
            tracer.end(root);
            // What the same text costs through the plan cache's miss path
            // (outside the operation: it repeats the parse and compile).
            tracer
                .span("probe.plan_miss", None, op_id, || cache.plan(&text))
                .expect("synthesized TBQL compiles");
            iocs += extraction.iocs.len();
            relations += extraction.triplets.len();
            patterns += query.pattern_count();
            scanned += result.stats.total_rows();
            matches += result.matches.len();
            ops += 1;
        }
        Layers::from([
            ("nlp.iocs_per_report", mean(iocs as f64, ops)),
            ("nlp.relations_per_report", mean(relations as f64, ops)),
            ("synth.patterns_per_query", mean(patterns as f64, ops)),
            (
                "engine.rows_scanned_per_match",
                mean(scanned as f64, matches),
            ),
        ])
    }
}
