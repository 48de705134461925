//! `live-mixed`: reads beside writes, the paper's detection path. Chunks
//! arrive on a fixed schedule at a server with 16 standing queries while
//! a second thread submits ad-hoc hunts, also on a schedule. Open loop:
//! nothing waits for the system, latencies count from due times.

use super::hunt_hot::WORKERS;
use super::{deadline, mean, Checks, Config, Layers, Production, Workload};
use crate::gen::{self, ATTACKS};
use crate::oracle::{self, Expected};
use crate::sched::{self, Clock, WallClock};
use crate::stats::{self, ms, Digest};
use crate::trace::{Recorder, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use threatraptor_audit::sim::scenario::Scenario;
use threatraptor_audit::LogChunk;
use threatraptor_engine::{Engine, ExecMode, HuntResult};
use threatraptor_service::{
    FollowHunt, HuntJob, HuntServer, IngestConfig, PlanCache, ServerConfig,
};
use threatraptor_storage::{AuditStore, SealPolicy, StreamingStore};

pub const CHUNK: usize = 250;
/// One chunk per 50 ms: 5 000 raw events per second. Frozen, and never
/// tuned per machine or per commit. ISSUE.md proposed 10 000/s; at that
/// rate the seed code's `append` (which rebuilds the entity tables, so
/// it grows with the stream) made the generator late within ten seconds.
/// At this rate append plus dispatch stay under 40 % of the interval.
pub const CHUNK_INTERVAL: Duration = Duration::from_millis(50);
/// Ad-hoc hunts at 20 per second.
pub const ADHOC_INTERVAL: Duration = Duration::from_millis(50);
pub const SEAL_EVENTS: usize = 4_096;
const WARMUP_CHUNKS: usize = 20;
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(30);

pub struct LiveMixed {
    scenario: Scenario,
    /// The whole schedule: one chunk per tick.
    chunks: Vec<LogChunk>,
    /// Start time of each chunk's first event (the log is start-ordered).
    first_start: Vec<u64>,
    standing: Vec<&'static str>,
    /// Per standing query, the identities a batch hunt over the streamed
    /// log finds, from the oracle.
    expected: Vec<Digest>,
    /// Per attack, its reference result and the chunk that completes it.
    needles: Vec<(Expected, usize)>,
}

fn server() -> HuntServer {
    HuntServer::new(
        ServerConfig::with_ingest(IngestConfig::with_policy(SealPolicy::events(SEAL_EVENTS)))
            .workers(WORKERS),
    )
}

/// What the ad-hoc thread saw of one hunt.
struct Adhoc {
    latency: Duration,
    submit_block: Duration,
    queue_wait: Duration,
}

/// Everything one pass over the schedule observed, times on one clock.
struct Streamed {
    /// How late each chunk's append started.
    lateness: Vec<Duration>,
    /// When each chunk's append returned.
    append_done: Vec<Duration>,
    max_epoch_lag: i64,
    adhoc: Vec<Adhoc>,
    /// Per standing query, each delivery: when received, how many matches.
    deliveries: Vec<Vec<(Duration, usize)>>,
    /// Per standing query, the server's merged result at the end.
    results: Vec<Option<HuntResult>>,
    caught_up_at: Duration,
    checks: Checks,
}

impl LiveMixed {
    /// The chunk that carried the last event a match needed: the one
    /// holding the latest-starting of its witnesses.
    fn completing_chunk(&self, result: &HuntResult, match_index: usize) -> usize {
        let newest = result.matches[match_index]
            .times
            .values()
            .map(|(start, _)| *start)
            .max()
            .unwrap_or(0);
        self.first_start
            .partition_point(|first| *first <= newest)
            .saturating_sub(1)
    }

    /// Runs the schedule against a fresh server: one thread appends, one
    /// hunts ad hoc, one per subscription blocks in `recv`.
    fn stream(&self, server: &HuntServer, rec: Option<&Recorder>) -> Streamed {
        let subs: Vec<_> = self
            .standing
            .iter()
            .map(|q| server.follow(q).expect("the corpus compiles").0)
            .collect();
        let ticks = self.chunks.len();
        let adhoc_ticks = (sched::due(CHUNK_INTERVAL, ticks).as_secs_f64()
            / ADHOC_INTERVAL.as_secs_f64()) as usize;
        let appended = AtomicUsize::new(0);
        let clock = WallClock(Instant::now());
        let epoch_lag = || server.metrics().gauge("dispatcher_epoch_lag").unwrap_or(0);

        std::thread::scope(|scope| {
            let receivers: Vec<_> = subs
                .iter()
                .map(|sub| {
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(event) = sub.recv() {
                            got.push((clock.now(), event.delta.new_matches));
                        }
                        got
                    })
                })
                .collect();
            let appender = scope.spawn(|| {
                let tracer = Tracer::new(rec, 0);
                let mut done = Vec::with_capacity(ticks);
                let mut max_lag = 0;
                let lateness = sched::run_schedule(&clock, CHUNK_INTERVAL, ticks, |i, _| {
                    let op_id = i as u64;
                    let root = tracer.begin("op.append_chunk", None, op_id);
                    tracer.span("service.append", root, op_id, || {
                        server.append(&self.chunks[i])
                    });
                    tracer.end(root);
                    done.push(clock.now());
                    appended.store(i + 1, Ordering::Release);
                    if i % 10 == 9 {
                        max_lag = max_lag.max(epoch_lag());
                    }
                });
                (lateness, done, max_lag)
            });
            let adhoc = scope.spawn(|| {
                let tracer = Tracer::new(rec, 1);
                let mut checks = Checks::default();
                let mut seen = Vec::with_capacity(adhoc_ticks);
                sched::run_schedule(&clock, ADHOC_INTERVAL, adhoc_ticks, |j, due| {
                    let op_id = 1 << 32 | j as u64;
                    let attack = j % ATTACKS.len();
                    let (want, completing) = &self.needles[attack];
                    // Once the completing chunk's append has returned, a
                    // hunt submitted afterwards must find the attack;
                    // before that it finds all of it or none.
                    let must_find = appended.load(Ordering::Acquire) > *completing;
                    let root = tracer.begin("op.adhoc_hunt", None, op_id);
                    let t0 = clock.now();
                    let handle = tracer.span("service.submit", root, op_id, || {
                        server.submit(HuntJob::tbql(ATTACKS[attack].tbql))
                    });
                    let submit_block = clock.now() - t0;
                    let report = tracer.span("service.wait", root, op_id, || handle.wait());
                    let finished = clock.now();
                    tracer.end(root);
                    let got = report.outcome.as_ref().map(Expected::of);
                    let ok = got.as_ref() == Ok(want)
                        || (!must_find && got.as_ref() == Ok(&Expected::NOTHING));
                    checks.check(ok, || {
                        format!(
                            "ad-hoc hunt {j}: got {got:?}, want {want:?} (must find: {must_find})"
                        )
                    });
                    seen.push(Adhoc {
                        latency: finished - due,
                        submit_block,
                        queue_wait: (finished - t0).saturating_sub(report.elapsed),
                    });
                });
                (seen, checks)
            });
            let (lateness, append_done, max_lag) = appender.join().expect("the appender panicked");
            let (adhoc, mut checks) = adhoc.join().expect("the ad-hoc thread panicked");
            if !server.wait_caught_up(CATCH_UP_TIMEOUT) {
                checks.fail("the dispatcher never caught up: a growing backlog".into());
            }
            let caught_up_at = clock.now();
            let final_lag = epoch_lag();
            if final_lag != 0 {
                checks.fail(format!("final epoch lag {final_lag}, want 0"));
            }
            let results = subs.iter().map(|s| server.follow_result(s.id())).collect();
            // Disconnects the subscriptions, which ends the receivers once
            // they have drained what was delivered.
            server.shutdown();
            let deliveries = receivers
                .into_iter()
                .map(|r| r.join().expect("a receiver panicked"))
                .collect();
            Streamed {
                lateness,
                append_done,
                max_epoch_lag: max_lag.max(final_lag),
                adhoc,
                deliveries,
                results,
                caught_up_at,
                checks,
            }
        })
    }
}

impl Workload for LiveMixed {
    const NAME: &'static str = "live-mixed";
    const OP: &'static str =
        "chunk's slowest alert (chunk due -> last delta it completes received)";
    const TAIL: f64 = 95.0;

    fn setup(cfg: &Config) -> LiveMixed {
        let ticks = (cfg.pass_seconds / CHUNK_INTERVAL.as_secs_f64()).ceil() as usize;
        let scenario = gen::scenario(cfg.seed, ticks * CHUNK);
        let mut chunks = gen::chunks(&scenario.raw, CHUNK);
        // The simulator overshoots its target by the round in progress.
        chunks.truncate(ticks);
        let first_start = chunks.iter().map(|c| c.events[0].start).collect();
        let standing = gen::standing_queries();

        // Warm-up on a throwaway server: lazy initialisation only.
        let warm = server();
        let subs: Vec<_> = standing
            .iter()
            .map(|q| warm.follow(q).expect("the corpus compiles"))
            .collect();
        for chunk in chunks.iter().take(WARMUP_CHUNKS) {
            warm.append(chunk);
        }
        warm.wait_caught_up(CATCH_UP_TIMEOUT);
        for attack in &ATTACKS {
            warm.submit(HuntJob::tbql(attack.tbql)).wait();
        }
        warm.shutdown();
        drop(subs);

        LiveMixed {
            scenario,
            chunks,
            first_start,
            standing,
            expected: Vec::new(),
            needles: Vec::new(),
        }
    }

    fn oracle(&mut self) -> Checks {
        let mut checks = Checks::default();
        let store = AuditStore::ingest(&gen::log_of(&self.chunks), true);
        self.expected = self
            .standing
            .iter()
            .map(|q| match Engine::new(&store).hunt(q) {
                Ok(result) => oracle::identities(&result),
                Err(e) => {
                    checks.fail(format!("reference execution failed: {e}: {q}"));
                    Digest::default()
                }
            })
            .collect();
        self.needles = ATTACKS
            .iter()
            .map(|attack| {
                let case = attack.kind.case_name();
                let last = self.scenario.ground_truth(case).into_iter().max();
                let completing = last.map_or(0, |id| id.index() / CHUNK);
                if completing >= self.chunks.len() {
                    checks.fail(format!("{case} ends after the streamed log"));
                }
                let want = oracle::expect_attack(&self.scenario, &store, attack);
                (
                    want.unwrap_or_else(|e| {
                        checks.fail(e);
                        Expected::NOTHING
                    }),
                    completing,
                )
            })
            .collect();
        checks
    }

    /// Streams the whole schedule (`seconds` only says how long that is).
    fn production(&self, _seconds: f64, rec: Option<&Recorder>) -> Production {
        let server = server();
        let streamed = self.stream(&server, rec);
        let mut out = Production {
            elapsed: streamed.caught_up_at,
            work: self.chunks.iter().map(|c| c.events.len()).sum::<usize>() as f64,
            checks: streamed.checks,
            ..Production::default()
        };

        // Exactly-once: what each subscription received, and what the
        // server merged, is what a batch hunt over the same log finds.
        // Then every delivered match is timed from the due time of the
        // chunk that completed it.
        let mut dispatch_ms = Vec::new();
        let mut slowest_alert: Vec<Option<Duration>> = vec![None; self.chunks.len()];
        for (k, (got, result)) in streamed
            .deliveries
            .iter()
            .zip(&streamed.results)
            .enumerate()
        {
            let Some(result) = result else {
                out.checks.fail(format!("standing query {k} has no result"));
                continue;
            };
            let delivered: usize = got.iter().map(|(_, n)| n).sum();
            let identities = oracle::identities(result);
            let want = self.expected[k];
            out.checks.attempted += want.count.max(delivered) as u64;
            if identities != want || delivered != result.matches.len() {
                out.checks.failed += want.count.abs_diff(delivered).max(1) as u64;
                out.checks.messages.push(format!(
                    "standing query {k}: received {delivered}, merged {identities:?}, \
                     batch hunt {want:?}: {}",
                    self.standing[k]
                ));
                continue;
            }
            // Deltas are merged in delivery order.
            let mut next = 0;
            for (received, n) in got {
                for m in next..next + n {
                    let chunk = self.completing_chunk(result, m);
                    let alert = received.saturating_sub(sched::due(CHUNK_INTERVAL, chunk));
                    slowest_alert[chunk] = slowest_alert[chunk].max(Some(alert));
                    dispatch_ms.push(ms(received.saturating_sub(streamed.append_done[chunk])));
                }
                next += n;
            }
        }
        // One sample per chunk, its slowest alert: alerts of one chunk share
        // their fate, so weighting by matches would let one disturbed chunk
        // with a burst of matches set the tail.
        out.latencies_ms = slowest_alert.into_iter().flatten().map(ms).collect();

        let lateness = stats::sorted(streamed.lateness.iter().map(|d| ms(*d)).collect());
        let lateness_p99 = stats::percentile(&lateness, 99.0);
        if lateness_p99 >= ms(CHUNK_INTERVAL) {
            // Not a wrong output, so not a failed operation: every chunk
            // was still appended and timed from its due time.
            eprintln!(
                "warning: generator lateness p99 {lateness_p99:.3} ms: the schedule was not \
                 kept, the latencies are those of an overloaded system"
            );
        }
        let adhoc = &streamed.adhoc;
        let cache = server.cache_stats();
        let p50 = |v: Vec<f64>| if v.is_empty() { 0.0 } else { stats::median(v) };
        let total = |f: fn(&Adhoc) -> Duration| adhoc.iter().map(|a| ms(f(a))).sum::<f64>();
        out.layers.extend([
            ("service.dispatch_ms", p50(dispatch_ms)),
            ("service.max_epoch_lag", streamed.max_epoch_lag as f64),
            ("service.generator_lateness_p99_ms", lateness_p99),
            (
                "service.adhoc_hunt_p50_ms",
                p50(adhoc.iter().map(|a| ms(a.latency)).collect()),
            ),
            (
                "service.submit_block_ms",
                mean(total(|a| a.submit_block), adhoc.len()),
            ),
            (
                "service.queue_wait_ms",
                mean(total(|a| a.queue_wait), adhoc.len()),
            ),
            ("service.cache_hit_ratio", cache.hit_ratio()),
            ("service.cache_evictions", cache.evictions as f64),
        ]);
        out
    }

    /// The dispatcher's work done by hand, unpaced: append, snapshot, one
    /// delta poll per standing query.
    fn staged(&self, seconds: f64, rec: &Recorder) -> Layers {
        let tracer = Tracer::new(Some(rec), 0);
        let cache = PlanCache::new();
        let mut hunts: Vec<FollowHunt> = self
            .standing
            .iter()
            .map(|q| {
                let (plan, _) = cache.plan(q).expect("the corpus compiles");
                FollowHunt::new(plan, ExecMode::Scheduled, 1)
            })
            .collect();
        let mut store = StreamingStore::new(true, SealPolicy::events(SEAL_EVENTS));
        // Rows each poll scanned, in chunk order.
        let mut rows_per_poll = Vec::new();
        let end = deadline(seconds);
        for (i, chunk) in self.chunks.iter().enumerate() {
            if Instant::now() >= end {
                break;
            }
            let op_id = i as u64;
            let root = tracer.begin("op.dispatch_chunk", None, op_id);
            tracer.span("storage.append", root, op_id, || store.append(chunk));
            let snapshot = tracer.span("storage.snapshot", root, op_id, || store.snapshot());
            for hunt in &mut hunts {
                let delta = tracer
                    .span("engine.delta_poll", root, op_id, || hunt.poll(&snapshot))
                    .expect("a standing query polls");
                rows_per_poll.push(delta.delta.map_or(0, |d| d.fresh_rows + d.carry_rows) as f64);
            }
            tracer.end(root);
        }
        let third = rows_per_poll.len() / 3;
        let avg = |rows: &[f64]| mean(rows.iter().sum(), rows.len());
        Layers::from([
            (
                "engine.delta_rows_per_poll_early",
                avg(&rows_per_poll[..third]),
            ),
            (
                "engine.delta_rows_per_poll_late",
                avg(&rows_per_poll[rows_per_poll.len() - third..]),
            ),
            (
                "engine.partials_retained",
                hunts.iter().map(|h| h.retained_partials()).sum::<usize>() as f64,
            ),
            ("storage.cpr_factor", store.reduction().factor()),
        ])
    }
}
