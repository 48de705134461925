//! The event-driven hunt server: one long-lived process serving ad-hoc
//! hunts and standing queries over a live audit stream.
//!
//! [`HuntServer`] ties the service layer's pieces into a server loop,
//! and is the crate's one hunt front door — [`HuntServer::submit`] and
//! [`HuntServer::hunt`] for ad-hoc jobs, [`HuntServer::follow`] for
//! standing queries — so every hunt gets the same panic isolation and
//! the same telemetry:
//!
//! * it owns an [`IngestService`] — collectors push chunks with
//!   [`HuntServer::append`] exactly as before;
//! * ad-hoc hunts go through a **persistent job queue**:
//!   [`HuntServer::submit`] enqueues onto a bounded queue (backpressure
//!   once full) drained by detached workers ([`crate::pool::WorkerPool`])
//!   and returns a [`JobHandle`] the caller can block on
//!   ([`JobHandle::wait`]) or poll ([`JobHandle::try_result`]); each job
//!   executes against the current epoch's snapshot through the shared
//!   [`crate::cache::PlanCache`]. The first retrieval takes the report;
//!   later ones re-run the plan on the same snapshot;
//! * standing queries are **driven by ingest events, not client polls**:
//!   [`HuntServer::follow`] registers a [`FollowHunt`] and hands back a
//!   [`FollowSubscription`] — a per-subscription channel
//!   ([`crossbeam::channel`]). Every append/seal bumps the stream epoch
//!   and wakes the server's dispatcher thread, which takes the epoch's
//!   snapshot and fans it out to every registered follow hunt,
//!   delivering each non-empty delta through its subscription channel.
//!   Delivery inherits the follow layer's exactly-once identity keying:
//!   a subscriber sees each match identity once, with no explicit poll
//!   call anywhere.
//!
//! Every snapshot — dispatcher, jobs, follow seeds, [`HuntServer::snapshot`]
//! — is [`IngestService::snapshot`]'s one build per epoch.
//!
//! Shutdown is graceful: [`HuntServer::shutdown`] stops the queue,
//! drains already-accepted jobs (their handles complete), joins the
//! dispatcher and every worker, and disconnects subscription channels so
//! consumers' receive loops end cleanly.

use crate::cache::{CacheStats, CachedPlan, PlanCache};
use crate::follow::{FollowDelta, FollowHunt};
use crate::ingest::{IngestConfig, IngestService, IngestStatus};
use crate::job::{HuntJob, JobReport, ServiceError};
use crate::pool::WorkerPool;
use crate::profile::{HuntProfile, SlowHuntLog};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use threatraptor_audit::parser::LogChunk;
use threatraptor_engine::{ExecMode, HuntResult, HuntStats, ShardedEngine};
use threatraptor_nlp::{StageTimings, ThreatExtractor};
use threatraptor_obs::{
    Counter, Histogram, MetricsSnapshot, Registry, TraceId, TraceTree, ROOT_SPAN,
};
use threatraptor_storage::{AppendOutcome, ShardedStore};
use threatraptor_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use threatraptor_sync::thread::JoinHandle;
use threatraptor_sync::{Arc, Condvar, Mutex, PoisonError};
use threatraptor_synth::{synthesize, SynthesisError};
use threatraptor_tbql::printer::print_query;

/// Construction parameters for a [`HuntServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// The owned ingest layer's configuration (its seal policy).
    pub ingest: IngestConfig,
    /// Ad-hoc hunt worker threads.
    pub workers: usize,
    /// Bound on queued (accepted, not yet executing) ad-hoc jobs;
    /// submission blocks — backpressure — once reached.
    pub queue_capacity: usize,
    /// How many per-job execution profiles the slow-hunt log retains
    /// (the worst-N by end-to-end latency).
    pub slow_hunt_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ServerConfig {
            ingest: IngestConfig::default(),
            workers: cores,
            queue_capacity: (2 * cores).max(8),
            slow_hunt_capacity: 32,
        }
    }
}

impl ServerConfig {
    /// Default server config over the given ingest configuration.
    pub fn with_ingest(ingest: IngestConfig) -> ServerConfig {
        ServerConfig {
            ingest,
            ..ServerConfig::default()
        }
    }

    /// Sets the worker count (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> ServerConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the job-queue bound (clamped to ≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> ServerConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the slow-hunt log retention (clamped to ≥ 1).
    pub fn slow_hunt_capacity(mut self, capacity: usize) -> ServerConfig {
        self.slow_hunt_capacity = capacity.max(1);
        self
    }
}

/// Identifier of a submitted job, unique within one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// What an `Ok` job ran on (its plan and snapshot, both
/// reference-counted), or the error it failed with.
type Rerun = Result<(Arc<CachedPlan>, ShardedStore), ServiceError>;

/// The header of a finished job and what its outcome is rebuilt from.
#[derive(Debug)]
struct Rebuild {
    job: HuntJob,
    tbql: Option<String>,
    cache_hit: bool,
    elapsed: Duration,
    rerun: Rerun,
}

impl Rebuild {
    /// Re-runs the plan on the pinned snapshot. The executor is
    /// deterministic over a snapshot, so the matches, rows and order are
    /// the first run's; only the `stats` timings are fresh.
    fn report(&self) -> JobReport {
        let rerun = self.rerun.as_ref().map_err(Clone::clone);
        JobReport {
            job: self.job.clone(),
            tbql: self.tbql.clone(),
            outcome: rerun.and_then(|(plan, store)| execute_plan(store, plan)),
            cache_hit: self.cache_hit,
            elapsed: self.elapsed,
        }
    }
}

/// A finished job's record in its handle.
#[derive(Debug)]
struct Completion {
    /// The worker's report, until the first retrieval takes it.
    report: Option<JobReport>,
    rebuild: Arc<Rebuild>,
}

/// Completion slot shared between a [`JobHandle`] and the worker that
/// executes the job.
#[derive(Debug, Default)]
struct JobState {
    slot: Mutex<Option<Completion>>,
    done: Condvar,
}

impl JobState {
    fn complete(&self, report: JobReport, rerun: Rerun) {
        let rebuild = Arc::new(Rebuild {
            job: report.job.clone(),
            tbql: report.tbql.clone(),
            cache_hit: report.cache_hit,
            elapsed: report.elapsed,
            rerun,
        });
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        // First writer wins (a job is executed once; the Shutdown
        // fallback only fires when the queue rejected it).
        if slot.is_none() {
            *slot = Some(Completion {
                report: Some(report),
                rebuild,
            });
        }
        drop(slot);
        self.done.notify_all();
    }
}

/// A submission handle: the caller's side of the job queue.
///
/// The first retrieval takes the report; later ones re-run the plan on
/// the pinned snapshot. A handle pins its plan and snapshot until dropped.
#[derive(Debug)]
pub struct JobHandle {
    id: JobId,
    trace_id: TraceId,
    state: Arc<JobState>,
}

impl JobHandle {
    /// The job's server-unique id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The trace id propagated through submit → queue → worker; the
    /// same id keys the job's [`HuntProfile`] in the slow-hunt log.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// Blocks until the job completes and returns its report.
    pub fn wait(&self) -> JobReport {
        // `Duration::MAX` sets no deadline, so the fallback never runs.
        self.wait_timeout(Duration::MAX)
            .unwrap_or_else(|| self.wait())
    }

    /// Blocks up to `timeout`; `None` if the job is still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobReport> {
        // `None` (a timeout past the clock's range) means no deadline.
        let deadline = Instant::now().checked_add(timeout);
        let mut slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let found = loop {
            if let Some(completion) = slot.as_mut() {
                let Completion { report, rebuild } = completion;
                break report.take().ok_or_else(|| Arc::clone(rebuild));
            }
            let now = Instant::now();
            if deadline.is_some_and(|deadline| now >= deadline) {
                return None;
            }
            let remaining = deadline.map_or(Duration::MAX, |deadline| deadline - now);
            let (guard, _) = self
                .state
                .done
                .wait_timeout(slot, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        };
        drop(slot); // a later retrieval re-runs outside the lock
        Some(found.unwrap_or_else(|rebuild| rebuild.report()))
    }

    /// Non-blocking probe: `Some` once the job has completed.
    pub fn try_result(&self) -> Option<JobReport> {
        self.wait_timeout(Duration::ZERO)
    }
}

/// One delivery to a standing-query subscriber.
#[derive(Debug, Clone)]
pub struct FollowEvent {
    /// The stream epoch the delivering snapshot was taken at (the
    /// snapshot may include a few later appends — epochs only bound the
    /// delivery from below).
    pub epoch: u64,
    /// The newly appeared matches.
    pub delta: FollowDelta,
}

/// The subscriber's side of a standing query: a channel that receives a
/// [`FollowEvent`] for every non-empty delta, pushed by the server's
/// dispatcher — no polling. Dropping the subscription (or shutting the
/// server down) disconnects the channel, ending `recv` loops.
#[derive(Debug)]
pub struct FollowSubscription {
    id: u64,
    tbql: String,
    rx: Receiver<FollowEvent>,
}

impl FollowSubscription {
    /// Subscription id (for [`HuntServer::unfollow`] and
    /// [`HuntServer::follow_result`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Canonical TBQL text of the standing query.
    pub fn tbql(&self) -> &str {
        &self.tbql
    }

    /// Blocks until the next delivery; `Err` once the server is shut
    /// down (or the subscription was removed) *and* the buffer is empty.
    pub fn recv(&self) -> Result<FollowEvent, crossbeam::channel::RecvError> {
        self.rx.recv()
    }

    /// Blocking receive with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<FollowEvent, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<FollowEvent, TryRecvError> {
        self.rx.try_recv()
    }

    /// The underlying channel receiver (for `select`-style integration
    /// or iteration).
    pub fn receiver(&self) -> &Receiver<FollowEvent> {
        &self.rx
    }
}

/// A registered standing query: the hunt state plus the sending half of
/// its subscription channel.
#[derive(Debug)]
struct FollowEntry {
    id: u64,
    hunt: FollowHunt,
    tx: Sender<FollowEvent>,
}

/// Registry handles for the job path, cloned into each submission
/// closure.
#[derive(Debug, Clone)]
struct JobObs {
    /// `jobs_submitted_total` / `jobs_completed_total` /
    /// `jobs_rejected_total`.
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    rejected: Arc<Counter>,
    /// `job_queue_wait_ns`: submit → worker pickup.
    queue_wait_ns: Arc<Histogram>,
    /// `job_exec_ns`: worker execution (resolution + hunt).
    exec_ns: Arc<Histogram>,
    /// `job_latency_ns{status=...}`: submit → completion (wait +
    /// execution), labeled by outcome so panicked or rejected jobs
    /// never pollute the success-latency series.
    latency_ok: Arc<Histogram>,
    latency_error: Arc<Histogram>,
    latency_panicked: Arc<Histogram>,
    latency_rejected: Arc<Histogram>,
    /// `hunt_stage_ns{stage=…}` for job executions, one series per
    /// [`HuntStats::STAGE_NAMES`] entry, in that order (the cache adds
    /// parse/analyze/compile).
    hunt_stages: [Arc<Histogram>; 6],
    /// `hunt_stage_ns{stage=synthesize}`: a report job's extraction,
    /// synthesis and printing.
    synthesize: Arc<Histogram>,
    /// `nlp_stage_ns{stage=…}`, the NLP pipeline's own split of each
    /// synthesis: one series per [`StageTimings::STAGE_NAMES`] entry, in
    /// that order.
    nlp_stages: [Arc<Histogram>; 8],
}

impl JobObs {
    fn new(registry: &Registry) -> JobObs {
        let latency = |status| registry.histogram_labeled("job_latency_ns", &[("status", status)]);
        let stage = |stage| registry.histogram_labeled("hunt_stage_ns", &[("stage", stage)]);
        JobObs {
            submitted: registry.counter("jobs_submitted_total"),
            completed: registry.counter("jobs_completed_total"),
            rejected: registry.counter("jobs_rejected_total"),
            queue_wait_ns: registry.histogram("job_queue_wait_ns"),
            exec_ns: registry.histogram("job_exec_ns"),
            latency_ok: latency("ok"),
            latency_error: latency("error"),
            latency_panicked: latency("panicked"),
            latency_rejected: latency("rejected"),
            hunt_stages: HuntStats::STAGE_NAMES.map(stage),
            synthesize: stage("synthesize"),
            nlp_stages: StageTimings::STAGE_NAMES
                .map(|stage| registry.histogram_labeled("nlp_stage_ns", &[("stage", stage)])),
        }
    }

    /// The latency series for an outcome label.
    fn latency(&self, status: &str) -> &Arc<Histogram> {
        match status {
            "ok" => &self.latency_ok,
            "panicked" => &self.latency_panicked,
            "rejected" => &self.latency_rejected,
            _ => &self.latency_error,
        }
    }
}

/// Outcome label of a completed job, the `status` value of its
/// latency series and profile.
fn outcome_status(outcome: &Result<HuntResult, ServiceError>) -> &'static str {
    match outcome {
        Ok(_) => "ok",
        Err(ServiceError::Worker(_)) => "panicked",
        Err(ServiceError::Shutdown) | Err(ServiceError::Infeasible(_)) => "rejected",
        Err(_) => "error",
    }
}

/// Renders a caught panic payload as text for [`ServiceError::Worker`].
fn panic_text(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".into())
}

/// Synthesizes TBQL text from an OSCTI report: extraction, synthesis
/// and printing, timed together as the `synthesize` stage, with the NLP
/// pipeline's own stage split recorded beside it.
fn synthesize_report(obs: &JobObs, report: &str) -> Result<String, SynthesisError> {
    let start = Instant::now();
    let extraction = ThreatExtractor::new().extract(report);
    for (hist, elapsed) in obs.nlp_stages.iter().zip(extraction.timings.stages()) {
        hist.record_duration(elapsed);
    }
    let tbql = synthesize(&extraction.graph).map(|query| print_query(&query));
    obs.synthesize.record_duration(start.elapsed());
    tbql
}

/// Resolves one job to a compiled plan (synthesizing report jobs first)
/// and executes it against one store snapshot, catching panics into
/// [`ServiceError::Worker`] so the worker survives. Returns the report
/// and what a later retrieval re-runs.
fn execute_job(
    store: ShardedStore,
    cache: &PlanCache,
    obs: &JobObs,
    job: HuntJob,
) -> (JobReport, Rerun) {
    let t0 = Instant::now();
    let resolve = || {
        let tbql = match &job {
            HuntJob::Tbql(src) => src.clone(),
            HuntJob::Report(text) => match synthesize_report(obs, text) {
                Ok(tbql) => tbql,
                Err(e) => return (None, false, Err(ServiceError::Synthesis(e))),
            },
        };
        match cache.plan(&tbql) {
            Ok((plan, cache_hit)) => (Some(plan.tbql.clone()), cache_hit, Ok(plan)),
            Err(e) => (Some(tbql), false, Err(ServiceError::from(e))),
        }
    };
    let (tbql, cache_hit, plan) =
        catch_unwind(AssertUnwindSafe(resolve)).unwrap_or_else(|payload| {
            let error = ServiceError::Worker(panic_text(&*payload));
            (None, false, Err(error))
        });
    let (outcome, rerun) =
        match plan.and_then(|plan| execute_plan(&store, &plan).map(|r| (r, plan))) {
            Ok((result, plan)) => (Ok(result), Ok((plan, store))),
            Err(e) => (Err(e.clone()), Err(e)),
        };
    let report = JobReport {
        job,
        tbql,
        outcome,
        cache_hit,
        elapsed: t0.elapsed(),
    };
    (report, rerun)
}

/// Executes a compiled plan on one snapshot, catching a panic into
/// [`ServiceError::Worker`].
fn execute_plan(store: &ShardedStore, plan: &CachedPlan) -> Result<HuntResult, ServiceError> {
    let execute = || {
        ShardedEngine::new(store)
            .execute(&plan.compiled, ExecMode::Scheduled)
            .map_err(ServiceError::from)
    };
    catch_unwind(AssertUnwindSafe(execute))
        .unwrap_or_else(|payload| Err(ServiceError::Worker(panic_text(&*payload))))
}

/// Lays per-stage child spans under the exec span of a job trace, one
/// per [`HuntStats::STAGE_NAMES`] entry, in that order, except that the
/// scan stage is one `scan:<pattern>` span per pattern (with
/// rows-scanned and shard-count attributes). The stats carry durations, not absolute times, so the
/// spans are placed back-to-back from the exec span's start — their
/// *widths* are the measured stage times; any exec time they don't
/// cover (snapshot resolution, plan-cache lookup) shows as the
/// uncovered tail.
fn record_stage_spans(trace: &mut TraceTree, exec: usize, stats: &HuntStats) {
    let mut cursor = trace.span_start(exec);
    for (name, elapsed) in HuntStats::STAGE_NAMES.into_iter().zip(stats.stages()) {
        if name != "scan" {
            trace.add_span(exec, name, cursor, cursor + elapsed);
            cursor += elapsed;
            continue;
        }
        for p in &stats.patterns {
            let span = trace.add_span(
                exec,
                &format!("scan:{}", p.pattern),
                cursor,
                cursor + p.elapsed,
            );
            trace.set_attr(span, "rows", p.total_rows() as i64);
            trace.set_attr(span, "shards", p.shard_rows.len() as i64);
            cursor += p.elapsed;
        }
    }
}

/// The long-lived, event-driven hunt server. See the module docs.
///
/// ```
/// use threatraptor_audit::LogFeed;
/// use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
/// use threatraptor_service::{HuntJob, HuntServer, ServerConfig};
///
/// let scenario = ScenarioBuilder::new()
///     .seed(42)
///     .attacks(&[AttackKind::DataLeakage])
///     .target_events(3_000)
///     .build();
/// let server = HuntServer::new(ServerConfig::default());
/// // A standing query: deltas arrive on the subscription channel as data
/// // streams in — no poll calls.
/// let (alerts, _) = server.follow(threatraptor_tbql::parser::FIG2_TBQL).unwrap();
/// // An ad-hoc hunt through the job queue.
/// let handle = server.submit(HuntJob::tbql(threatraptor_tbql::parser::FIG2_TBQL));
/// for chunk in LogFeed::by_events(&scenario.raw, 1_000) {
///     server.append(&chunk.unwrap());
/// }
/// assert!(handle.wait().outcome.is_ok());
/// assert!(server.wait_caught_up(std::time::Duration::from_secs(30)));
/// let delivered: usize = alerts.try_recv().map(|e| e.delta.new_matches).unwrap_or(0);
/// let _ = delivered;
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct HuntServer {
    ingest: Arc<IngestService>,
    pool: WorkerPool,
    follows: Arc<Mutex<Vec<FollowEntry>>>,
    /// Set once by [`HuntServer::shutdown`]; checked by the dispatcher
    /// and by submissions.
    shutdown: Arc<AtomicBool>,
    /// Last epoch the dispatcher finished fanning out (lags
    /// [`IngestService::epoch`] by the in-flight work).
    processed: Arc<AtomicU64>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    next_job: AtomicU64,
    next_follow: AtomicU64,
    config: ServerConfig,
    /// Job-path telemetry over the ingest service's registry.
    job_obs: JobObs,
    /// Worst-N per-job execution profiles by end-to-end latency.
    slow_log: Arc<SlowHuntLog>,
}

impl HuntServer {
    /// Starts a server: spawns the worker pool and the follow dispatcher.
    pub fn new(config: ServerConfig) -> HuntServer {
        let ingest = Arc::new(IngestService::new(config.ingest));
        let follows: Arc<Mutex<Vec<FollowEntry>>> = Arc::default();
        let shutdown = Arc::new(AtomicBool::new(false));
        let processed = Arc::new(AtomicU64::new(ingest.epoch()));
        let dispatcher = {
            let ingest = Arc::clone(&ingest);
            let follows = Arc::clone(&follows);
            let shutdown = Arc::clone(&shutdown);
            let processed = Arc::clone(&processed);
            threatraptor_sync::thread::Builder::new()
                .name("hunt-dispatcher".into())
                .spawn(move || dispatch_loop(&ingest, &follows, &shutdown, &processed))
                .expect("spawning the dispatcher thread")
        };
        let job_obs = JobObs::new(ingest.registry());
        HuntServer {
            pool: WorkerPool::new(config.workers, config.queue_capacity, ingest.registry()),
            ingest,
            follows,
            shutdown,
            processed,
            dispatcher: Mutex::new(Some(dispatcher)),
            next_job: AtomicU64::new(0),
            next_follow: AtomicU64::new(0),
            config,
            job_obs,
            slow_log: Arc::new(SlowHuntLog::new(config.slow_hunt_capacity)),
        }
    }

    /// The owned ingest service (appends through it wake the dispatcher
    /// exactly like [`HuntServer::append`]).
    pub fn ingest(&self) -> &Arc<IngestService> {
        &self.ingest
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Appends one parsed chunk; the epoch bump wakes the dispatcher,
    /// which re-evaluates every standing query against one fresh
    /// snapshot and pushes deltas to subscribers.
    pub fn append(&self, chunk: &LogChunk) -> AppendOutcome {
        self.ingest.append(chunk)
    }

    /// Manually seals the open window's stable prefix; also an epoch
    /// bump.
    pub fn seal(&self) -> bool {
        self.ingest.seal()
    }

    /// Current stream state.
    pub fn status(&self) -> IngestStatus {
        self.ingest.status()
    }

    /// An immutable snapshot of everything ingested so far (the ingest
    /// service's one per epoch).
    pub fn snapshot(&self) -> ShardedStore {
        self.ingest.snapshot()
    }

    /// Plan-cache counters (shared by jobs and standing queries).
    pub fn cache_stats(&self) -> CacheStats {
        self.ingest.cache_stats()
    }

    /// The server-wide metrics registry (also reachable through
    /// [`HuntServer::ingest`]).
    pub fn registry(&self) -> &Arc<Registry> {
        self.ingest.registry()
    }

    /// A point-in-time snapshot of every server metric: storage gauges,
    /// plan-cache counters and memo bytes, hunt-stage and serving-stage latency
    /// histograms, job-queue telemetry, and follow-delivery counters.
    /// Render it with [`MetricsSnapshot::to_prometheus`] or
    /// [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let registry = self.ingest.registry();
        registry
            .gauge("follow_subscriptions")
            .set(self.follow_count() as i64);
        // How far the follow dispatcher trails the stream: ingested
        // epochs minus the last epoch fanned out (0 when caught up).
        let lag = self
            .ingest
            .epoch()
            .saturating_sub(self.processed.load(Ordering::Acquire));
        registry.gauge("dispatcher_epoch_lag").set(lag as i64);
        registry
            .gauge("plan_cache_memo_bytes")
            .set(self.cache_stats().memo_bytes as i64);
        self.ingest.metrics()
    }

    /// The retained worst-N execution profiles, slowest first.
    pub fn slow_hunts(&self) -> Vec<Arc<HuntProfile>> {
        self.slow_log.slow_hunts()
    }

    /// The retained profile of a job, if it is (still) among the
    /// worst-N by latency. The job must have completed (profiles are
    /// recorded before the handle resolves, so a profile is visible as
    /// soon as [`JobHandle::wait`] returns).
    pub fn profile(&self, id: JobId) -> Option<Arc<HuntProfile>> {
        self.slow_log.profile(id)
    }

    /// Enqueues an ad-hoc hunt job. Blocks while the bounded queue is
    /// full (backpressure). The job executes against a current-epoch
    /// snapshot resolved when a worker picks it up (shared across a
    /// same-epoch burst of jobs); after [`HuntServer::shutdown`] the
    /// handle completes immediately with [`ServiceError::Shutdown`].
    pub fn submit(&self, job: HuntJob) -> JobHandle {
        // ordering: Relaxed — id allocation needs uniqueness only.
        let id = JobId(self.next_job.fetch_add(1, Ordering::Relaxed));
        let trace_id = TraceId::next();
        let state = Arc::new(JobState::default());
        let handle = JobHandle {
            id,
            trace_id,
            state: Arc::clone(&state),
        };
        self.job_obs.submitted.inc();
        let submitted_at = Instant::now();
        let fallback = (job.clone(), Arc::clone(&state));
        let ingest = Arc::clone(&self.ingest);
        let slow_log = Arc::clone(&self.slow_log);
        let obs = self.job_obs.clone();
        let accepted = !self.shutdown.load(Ordering::Acquire)
            && self
                .pool
                .submit(Box::new(move || {
                    // The trace's root span is backdated to submission,
                    // so the queue wait is part of the profile.
                    let mut trace = TraceTree::started_at(trace_id, "job", submitted_at);
                    trace.set_attr(ROOT_SPAN, "job_id", id.0 as i64);
                    let wait = submitted_at.elapsed();
                    obs.queue_wait_ns.record_duration(wait);
                    trace.add_span(ROOT_SPAN, "queue_wait", Duration::ZERO, wait);
                    let exec_span = trace.begin("exec", ROOT_SPAN);
                    let snapshot = ingest.snapshot();
                    let (report, rerun) = execute_job(snapshot, ingest.cache(), &obs, job);
                    obs.exec_ns.record_duration(report.elapsed);
                    trace.set_attr(exec_span, "cache_hit", report.cache_hit);
                    let mut matches = 0;
                    if let Ok(result) = &report.outcome {
                        matches = result.matches.len();
                        let times = result.stats.stages();
                        for (hist, elapsed) in obs.hunt_stages.iter().zip(times) {
                            hist.record_duration(elapsed);
                        }
                        record_stage_spans(&mut trace, exec_span, &result.stats);
                        trace.set_attr(exec_span, "matches", matches);
                    }
                    trace.end(exec_span);
                    let status = outcome_status(&report.outcome);
                    trace.set_attr(ROOT_SPAN, "status", status);
                    let latency = submitted_at.elapsed();
                    trace.finish();
                    slow_log.record(HuntProfile {
                        job_id: id,
                        trace_id,
                        tbql: report.tbql.clone(),
                        status,
                        cache_hit: report.cache_hit,
                        matches,
                        queue_wait: wait,
                        exec: report.elapsed,
                        latency,
                        trace,
                    });
                    // Record *before* completing the handle: a caller
                    // snapshotting metrics (or reading the slow-hunt
                    // log) right after wait() must see this job.
                    obs.latency(status).record_duration(latency);
                    obs.completed.inc();
                    state.complete(report, rerun);
                }))
                .is_ok();
        if !accepted {
            // Rejected jobs never executed — they get a latency sample
            // in the `rejected` series but no slow-hunt profile.
            self.job_obs.rejected.inc();
            self.job_obs
                .latency("rejected")
                .record_duration(submitted_at.elapsed());
            let (job, state) = fallback;
            let report = JobReport {
                job,
                tbql: None,
                outcome: Err(ServiceError::Shutdown),
                cache_hit: false,
                elapsed: Duration::ZERO,
            };
            state.complete(report, Err(ServiceError::Shutdown));
        }
        handle
    }

    /// Submits a TBQL job and waits for its outcome.
    pub fn hunt(&self, tbql: &str) -> Result<HuntResult, ServiceError> {
        self.submit(HuntJob::tbql(tbql)).wait().outcome
    }

    /// Registers a standing query. The query is compiled once through
    /// the shared cache and seeded with everything ingested so far (the
    /// returned [`FollowDelta`] — matches already present at
    /// registration are *not* re-delivered on the channel). From then on
    /// every append drives deltas to the subscription with no poll call.
    pub fn follow(&self, tbql: &str) -> Result<(FollowSubscription, FollowDelta), ServiceError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServiceError::Shutdown);
        }
        let (plan, _) = self.ingest.cache().plan(tbql).map_err(ServiceError::from)?;
        let tbql = plan.tbql.clone();
        let mut hunt = FollowHunt::new(plan, ExecMode::Scheduled, 1);
        hunt.attach_metrics(self.ingest.registry());
        // ordering: Relaxed — id allocation needs uniqueness only.
        let id = self.next_follow.fetch_add(1, Ordering::Relaxed);
        // Unbounded on purpose: the dispatcher must never block on a slow
        // subscriber (deltas are small — rows of the new matches).
        let (tx, rx) = unbounded();
        // Seed *under the registry lock*: the dispatcher also fans out
        // under it, so no epoch can slip between this seeding snapshot
        // and the entry landing in the registry — an append racing the
        // registration is either covered by the seed or fanned out to
        // the already-registered entry afterwards. (Seeding outside the
        // lock would let a quiet-stream delta fall into the gap.)
        let initial = {
            let mut follows = self.follows.lock().unwrap_or_else(PoisonError::into_inner);
            // Re-check shutdown *under the lock*: shutdown() sets the
            // flag before it takes this lock to clear the registry, so a
            // false flag here guarantees our entry is covered by that
            // clear — no registration can slip in after it and leave a
            // never-disconnecting channel behind.
            if self.shutdown.load(Ordering::Acquire) {
                return Err(ServiceError::Shutdown);
            }
            let initial = hunt.poll(&self.ingest.snapshot())?;
            follows.push(FollowEntry { id, hunt, tx });
            initial
        };
        Ok((FollowSubscription { id, tbql, rx }, initial))
    }

    /// Removes a standing query; its subscription channel disconnects.
    /// Returns whether the id was registered.
    pub fn unfollow(&self, id: u64) -> bool {
        let mut follows = self.follows.lock().unwrap_or_else(PoisonError::into_inner);
        let before = follows.len();
        follows.retain(|entry| entry.id != id);
        follows.len() < before
    }

    /// Number of registered standing queries.
    pub fn follow_count(&self) -> usize {
        self.follows
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The running merged result of a standing query (everything
    /// delivered so far), or `None` for an unknown id.
    pub fn follow_result(&self, id: u64) -> Option<HuntResult> {
        self.follows
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|entry| entry.id == id)
            .and_then(|entry| entry.hunt.result().cloned())
    }

    /// Blocks until the dispatcher has fanned out every epoch ingested
    /// so far (or `timeout` elapses); returns whether it caught up.
    /// Useful at the end of a replay, before reading accumulated
    /// results.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        // `None` (a timeout past the clock's range) means no deadline.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if self.processed.load(Ordering::Acquire) >= self.ingest.epoch() {
                return true;
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return false;
            }
            threatraptor_sync::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Graceful shutdown: stop accepting jobs, drain already-queued jobs
    /// (their handles complete), join the dispatcher and all workers,
    /// disconnect every subscription channel. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&self) {
        // ordering: Release pairs with the Acquire loads in submit(),
        // follow(), and the dispatcher loop — a thread that observes
        // the flag also sees everything shut down before it. (SeqCst
        // would buy nothing: there is no second flag to order against.)
        self.shutdown.store(true, Ordering::Release);
        // Wake the dispatcher so it observes the flag now instead of at
        // its next timeout.
        self.ingest.poke();
        if let Some(handle) = self
            .dispatcher
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
        self.pool.shutdown();
        // Dropping the entries drops the channel senders: subscribers'
        // receive loops end once they drain what was delivered.
        self.follows
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl Drop for HuntServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dispatcher loop: park on the ingest epoch, snapshot once per
/// wakeup, fan the snapshot out to every standing query.
///
/// The registry lock is held across the whole fan-out on purpose: it is
/// what makes [`HuntServer::follow`]'s seed-then-register step race-free
/// (no epoch can be fanned out between a new entry's seeding snapshot
/// and its registration). The cost — registration and `follow_*`
/// accessors stall during a fan-out — is the accepted tradeoff.
fn dispatch_loop(
    ingest: &IngestService,
    follows: &Mutex<Vec<FollowEntry>>,
    shutdown: &AtomicBool,
    processed: &AtomicU64,
) {
    // Dispatcher telemetry lives on the ingest service's registry, like
    // every other server metric.
    let registry = ingest.registry();
    let epochs = registry.counter("follow_epochs_total");
    let deliveries = registry.counter("follow_deliveries_total");
    let delivery_ns = registry.histogram("follow_delivery_ns");
    let dispatch_ns = registry.histogram_labeled("serve_stage_ns", &[("stage", "epoch_dispatch")]);
    // Start from the epoch captured at *construction*, not from a fresh
    // read on this thread: appends can land before this thread's first
    // instruction, and a fresh read would silently mark them processed.
    // ordering: `processed` stores are Release / loads Acquire so that
    // wait_caught_up() observing epoch N also sees every delta the
    // dispatcher delivered for N (fan-out happens-before the bump).
    let mut last = processed.load(Ordering::Acquire);
    while !shutdown.load(Ordering::Acquire) {
        // The timeout is a liveness backstop only (a poke-less exit
        // path); every real wakeup comes from append/seal notifications.
        let current = ingest.wait_epoch_newer(last, Duration::from_secs(1));
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        if current == last {
            continue;
        }
        epochs.inc();
        let mut entries = follows.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.is_empty() {
            // Nothing subscribed: acknowledge the epoch without paying
            // for a snapshot.
            drop(entries);
            last = current;
            processed.store(current, Ordering::Release);
            continue;
        }
        let dispatch_start = Instant::now();
        // One snapshot per epoch, shared by every standing query — and
        // with the ad-hoc job workers, through the ingest service's memo.
        let snapshot = ingest.snapshot();
        entries.retain_mut(|entry| {
            let started = Instant::now();
            match entry.hunt.poll(&snapshot) {
                // Deliver only non-empty deltas; a send failure means the
                // subscriber dropped its receiver — unregister the query.
                Ok(delta) => {
                    delta.unchanged
                        || delta.is_empty()
                        || entry
                            .tx
                            // The subscription channel is unbounded
                            // (see follow()): this send never blocks,
                            // so holding the registry lock across it
                            // cannot stall other threads.
                            // threatraptor-lint: allow L003 — unbounded channel, non-blocking send
                            .send(FollowEvent {
                                epoch: current,
                                delta,
                            })
                            .inspect(|()| {
                                // Delivery latency: epoch observation →
                                // delta on the subscriber's channel.
                                delivery_ns.record_duration(started.elapsed());
                                deliveries.inc();
                            })
                            .is_ok()
                }
                // The plan compiled at registration; an execution error
                // here is unrecoverable for this query. Dropping the
                // entry disconnects the subscriber, which is the signal.
                Err(_) => false,
            }
        });
        drop(entries);
        dispatch_ns.record_duration(dispatch_start.elapsed());
        last = current;
        processed.store(current, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_audit::LogFeed;
    use threatraptor_storage::SealPolicy;
    use threatraptor_tbql::parser::FIG2_TBQL;

    fn scenario() -> threatraptor_audit::sim::scenario::Scenario {
        ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(4_000)
            .build()
    }

    fn server() -> HuntServer {
        HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
            SealPolicy::events(500),
        )))
    }

    /// The acceptance criterion: a registered standing query receives its
    /// delta via its subscription channel after `append`, with no
    /// explicit poll call anywhere.
    #[test]
    fn standing_query_is_driven_by_ingest_events() {
        let sc = scenario();
        let server = server();
        let (alerts, initial) = server.follow(FIG2_TBQL).unwrap();
        assert!(initial.is_empty(), "nothing ingested yet");

        let delivered: usize = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                // Only the subscription channel — no poll calls.
                let mut total = 0;
                while let Ok(event) = alerts.recv() {
                    assert!(!event.delta.is_empty(), "only non-empty deltas ship");
                    total += event.delta.new_matches;
                }
                total
            });
            for chunk in LogFeed::by_events(&sc.raw, 700) {
                server.append(&chunk.unwrap());
            }
            assert!(server.wait_caught_up(Duration::from_secs(60)));
            server.shutdown(); // disconnects the channel; consumer drains
            consumer.join().unwrap()
        });
        assert!(
            delivered > 0,
            "the streamed attack must reach the subscriber"
        );

        // Exactly-once: what was delivered equals a from-scratch batch
        // hunt over the final snapshot — nothing duplicated, nothing
        // dropped. (Raw match count works here because the simulator's
        // timestamps are fine-grained: every batch match has a distinct
        // identity. Workloads with identity collisions — same pair, op,
        // and start on distinct events — alert once per identity; see
        // `tests/streaming_parity.rs::tie_exactly_once`.)
        let batch = threatraptor_engine::ShardedEngine::new(&server.snapshot())
            .hunt(FIG2_TBQL)
            .unwrap();
        assert_eq!(delivered, batch.matches.len());
    }

    #[test]
    fn job_queue_returns_completion_handles() {
        let sc = scenario();
        let server = server();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        let handles: Vec<JobHandle> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    server.submit(HuntJob::tbql(FIG2_TBQL))
                } else {
                    server.submit(HuntJob::tbql(
                        "proc p[\"%/bin/ghost%\"] read file f return p",
                    ))
                }
            })
            .collect();
        for (i, handle) in handles.iter().enumerate() {
            let report = handle.wait();
            let result = report.outcome.expect("valid TBQL executes");
            assert_eq!(result.is_empty(), i % 2 != 0, "job {i}");
            // wait() is repeatable and try_result agrees after completion.
            assert!(handle.try_result().is_some());
        }
        // Ids are unique and dense.
        let mut ids: Vec<u64> = handles.iter().map(|h| h.id().0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    /// Everything a repeated retrieval must reproduce; `stats` timings
    /// are fresh on a re-run, so only its row count is compared.
    fn assert_same_report(first: &JobReport, again: &JobReport) {
        assert_eq!(first.job, again.job);
        assert_eq!(first.tbql, again.tbql);
        assert_eq!(first.cache_hit, again.cache_hit);
        assert_eq!(first.elapsed, again.elapsed);
        match (&first.outcome, &again.outcome) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.columns, b.columns);
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.matches, b.matches);
                assert_eq!(a.stats.total_rows(), b.stats.total_rows());
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("outcomes differ: {a:?} vs {b:?}"),
        }
    }

    const MANY_MATCHES: &str = "proc p write file f return p, f";

    #[test]
    fn later_retrievals_rebuild_the_taken_report() {
        let sc = scenario();
        let server = server();
        let chunks: Vec<LogChunk> = LogFeed::by_events(&sc.raw, 1_000)
            .map(|c| c.unwrap())
            .collect();
        let (head, tail) = chunks.split_at(chunks.len() / 2);
        for chunk in head {
            server.append(chunk);
        }
        let handle = server.submit(HuntJob::tbql(MANY_MATCHES));
        let first = handle.wait();
        let matches = first.outcome.as_ref().unwrap().matches.len();
        assert!(matches > 100, "{matches} matches");
        assert_same_report(&first, &handle.wait());
        assert_same_report(&first, &handle.try_result().unwrap());
        assert_same_report(
            &first,
            &handle.wait_timeout(Duration::from_secs(60)).unwrap(),
        );
        // Later appends grow the live answer, not the job's: a retrieval
        // re-runs on the snapshot the job ran on.
        for chunk in tail {
            server.append(chunk);
        }
        assert!(server.hunt(MANY_MATCHES).unwrap().matches.len() > matches);
        assert_same_report(&first, &handle.wait());
        server.shutdown();
    }

    #[test]
    fn failed_jobs_repeat_their_errors() {
        let server = server();
        let jobs = [
            HuntJob::tbql("totally broken"),
            HuntJob::tbql(
                "proc p read file f as e1 proc p write file g as e2 \
                 with e1 before e2, e2 before e1 return p",
            ),
            HuntJob::report("Nothing interesting happened today."),
        ];
        let mut handles: Vec<JobHandle> = jobs.into_iter().map(|j| server.submit(j)).collect();
        server.shutdown();
        handles.push(server.submit(HuntJob::tbql(MANY_MATCHES)));
        for handle in &handles {
            let first = handle.wait();
            assert!(first.outcome.is_err(), "{:?}", first.outcome);
            assert_same_report(&first, &handle.wait());
            assert_same_report(&first, &handle.try_result().unwrap());
        }
    }

    #[test]
    fn concurrent_waiters_get_equal_reports() {
        let sc = scenario();
        let server = server();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        let handle = server.submit(HuntJob::tbql(MANY_MATCHES));
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| handle.wait());
            let b = scope.spawn(|| handle.wait());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a.outcome.is_ok());
        assert_same_report(&a, &b);
        server.shutdown();
    }

    #[test]
    fn job_wait_without_a_deadline_completes() {
        let server = server();
        let handle = server.submit(HuntJob::tbql(FIG2_TBQL));
        assert!(handle.wait_timeout(Duration::MAX).unwrap().outcome.is_ok());
        server.shutdown();
    }

    #[test]
    fn catch_up_wait_without_a_deadline_returns() {
        let server = server();
        let (_alerts, _) = server.follow(FIG2_TBQL).unwrap();
        for chunk in LogFeed::by_events(&scenario().raw, 2_000) {
            server.append(&chunk.unwrap());
        }
        assert!(server.wait_caught_up(Duration::MAX));
        server.shutdown();
    }

    #[test]
    fn report_jobs_synthesize_then_hunt() {
        let sc = scenario();
        let server = server();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        let ok = server
            .submit(HuntJob::report(threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT))
            .wait();
        assert!(ok.tbql.as_deref().unwrap().contains("%/bin/tar%"));
        assert!(!ok.outcome.unwrap().is_empty());
        let bad = server
            .submit(HuntJob::report("Nothing interesting happened today."))
            .wait();
        assert!(matches!(bad.outcome, Err(ServiceError::Synthesis(_))));
        assert!(bad.tbql.is_none());
        let errors = server
            .metrics()
            .histogram("job_latency_ns", &[("status", "error")])
            .map_or(0, |h| h.count);
        assert_eq!(errors, 1, "the failed synthesis is an error-labeled job");
        server.shutdown();
    }

    /// `(count, sum)` of one `{stage=…}` histogram series.
    fn stage_series(server: &HuntServer, series: &str, stage: &str) -> (u64, u64) {
        let snap = server.metrics();
        let h = snap.histogram(series, &[("stage", stage)]);
        let h = h.unwrap_or_else(|| panic!("missing {series}{{stage={stage}}}"));
        (h.count, h.sum)
    }

    /// A report job synthesizes every time it runs: submitted twice, the
    /// report runs the NLP pipeline twice, and the second job's TBQL
    /// finds the first's plan in the cache.
    #[test]
    fn report_resubmits_synthesize_again() {
        let server = server();
        for name in StageTimings::STAGE_NAMES {
            let (count, _) = stage_series(&server, "nlp_stage_ns", name);
            assert_eq!(count, 0, "{name} is registered up front");
        }
        let report = threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT;
        let first = server.submit(HuntJob::report(report)).wait();
        let second = server.submit(HuntJob::report(report)).wait();
        assert!(first.outcome.is_ok() && second.outcome.is_ok());
        assert!(first.tbql.is_some());
        assert_eq!(first.tbql, second.tbql);
        assert!(!first.cache_hit);
        assert!(second.cache_hit, "the second plan lookup is a hit");
        for name in StageTimings::STAGE_NAMES {
            let (count, _) = stage_series(&server, "nlp_stage_ns", name);
            assert_eq!(count, 2, "{name}: both submissions synthesized");
        }
        server.shutdown();
    }

    /// Every synthesis, failed ones included, records one sample per NLP
    /// stage, inside its `synthesize` stage.
    #[test]
    fn nlp_stages_recorded_once_per_synthesis() {
        let server = server();
        let ok = server.submit(HuntJob::report(threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT));
        assert!(ok.wait().outcome.is_ok());
        let bad = server.submit(HuntJob::report("Nothing interesting happened today."));
        assert!(matches!(
            bad.wait().outcome,
            Err(ServiceError::Synthesis(_))
        ));

        let (synth_count, synth_sum) = stage_series(&server, "hunt_stage_ns", "synthesize");
        assert_eq!(synth_count, 2, "two reports synthesized");
        let mut stage_sum = 0;
        for name in StageTimings::STAGE_NAMES {
            let (count, sum) = stage_series(&server, "nlp_stage_ns", name);
            assert_eq!(count, synth_count, "{name}: one record per synthesis");
            stage_sum += sum;
        }
        assert!(
            stage_sum <= synth_sum,
            "stages ({stage_sum} ns) run inside the synthesize stage ({synth_sum} ns)"
        );
        server.shutdown();
    }

    #[test]
    fn bad_tbql_surfaces_engine_error() {
        let server = server();
        let err = server.hunt("totally broken").unwrap_err();
        assert!(matches!(err, ServiceError::Engine(_)), "{err}");
        server.shutdown();
    }

    #[test]
    fn end_to_end_tbql_and_report_hunts() {
        let sc = scenario();
        let server = server();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        let direct = server.hunt(FIG2_TBQL).unwrap();
        assert!(!direct.is_empty());
        let via_report = server
            .submit(HuntJob::report(threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT))
            .wait()
            .outcome
            .unwrap();
        assert_eq!(direct.rows, via_report.rows);
        server.shutdown();
    }

    #[test]
    fn ad_hoc_hunts_and_standing_queries_share_one_plan() {
        let sc = scenario();
        let server = server();
        let (_alerts, _) = server.follow(FIG2_TBQL).unwrap();
        for chunk in LogFeed::by_events(&sc.raw, 1_500) {
            server.append(&chunk.unwrap());
        }
        assert!(!server.hunt(FIG2_TBQL).unwrap().is_empty());
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        assert_eq!(
            server.cache_stats().misses,
            1,
            "jobs and standing queries must share one compiled plan"
        );
        server.shutdown();
    }

    #[test]
    fn backpressured_queue_completes_every_job() {
        let sc = scenario();
        let server = HuntServer::new(
            ServerConfig::with_ingest(IngestConfig::with_policy(SealPolicy::events(500)))
                .workers(2)
                .queue_capacity(1),
        );
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        // Far more jobs than the queue holds: submission blocks instead
        // of failing, and every handle completes.
        let handles: Vec<JobHandle> = (0..16)
            .map(|_| server.submit(HuntJob::tbql(FIG2_TBQL)))
            .collect();
        assert!(handles.iter().all(|h| h.wait().outcome.is_ok()));
    }

    #[test]
    fn graceful_shutdown_drains_and_rejects() {
        let sc = scenario();
        let server = server();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        let accepted = server.submit(HuntJob::tbql(FIG2_TBQL));
        server.shutdown();
        // The accepted job drained to completion…
        assert!(accepted.wait().outcome.is_ok());
        // …new submissions resolve immediately with Shutdown…
        let rejected = server.submit(HuntJob::tbql(FIG2_TBQL));
        assert!(matches!(
            rejected.try_result().unwrap().outcome,
            Err(ServiceError::Shutdown)
        ));
        // …and so do new standing queries.
        assert!(matches!(
            server.follow(FIG2_TBQL),
            Err(ServiceError::Shutdown)
        ));
        // Idempotent.
        server.shutdown();
    }

    /// Infeasible queries are refused at compile time — before any rows
    /// are scanned — on every entry point: queued submit, direct hunt,
    /// and standing (follow-mode) registration. Every refusal runs the
    /// compile pipeline afresh: the plan cache keeps plans only.
    #[test]
    fn infeasible_hunts_rejected_for_oneshot_and_follow() {
        let sc = scenario();
        let server = server();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        let before = server.cache_stats();
        // Cyclic `before` ordering: E001 under the DBM feasibility check.
        let bad = "proc p read file f as e1 proc p write file g as e2 \
                   with e1 before e2, e2 before e1 return p";
        let first = server.submit(HuntJob::tbql(bad)).wait().outcome;
        let again = server.submit(HuntJob::tbql(bad)).wait().outcome;
        let Err(ServiceError::Infeasible(diags)) = &first else {
            panic!("expected Infeasible, got {first:?}");
        };
        assert!(diags.iter().all(|d| d.code == "E001"), "{diags:?}");
        assert_eq!(first.unwrap_err(), again.unwrap_err(), "equal refusals");
        let err = server.hunt(bad).unwrap_err();
        assert!(matches!(err, ServiceError::Infeasible(_)), "{err}");
        let err = server.follow(bad).unwrap_err();
        assert!(matches!(err, ServiceError::Infeasible(_)));
        assert_eq!(server.follow_count(), 0, "no standing query registered");

        // Both job paths (queued submit and direct hunt) label the
        // outcome "rejected" — like shutdown refusals.
        let snap = server.metrics();
        let rejected = snap
            .histogram("job_latency_ns", &[("status", "rejected")])
            .map(|h| h.count)
            .unwrap_or(0);
        assert_eq!(rejected, 3);
        // Nothing was cached, and no refusal counted as a hit or a miss.
        let stats = server.cache_stats();
        assert_eq!(stats.plans, 0);
        assert_eq!((stats.hits, stats.misses), (before.hits, before.misses));
        server.shutdown();
    }

    #[test]
    fn unfollow_disconnects_the_subscription() {
        let sc = scenario();
        let server = server();
        let (alerts, _) = server.follow(FIG2_TBQL).unwrap();
        assert_eq!(server.follow_count(), 1);
        assert!(server.unfollow(alerts.id()));
        assert!(!server.unfollow(alerts.id()), "second remove is a no-op");
        assert_eq!(server.follow_count(), 0);
        for chunk in LogFeed::by_events(&sc.raw, 2_000) {
            server.append(&chunk.unwrap());
        }
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        assert!(
            matches!(alerts.try_recv(), Err(TryRecvError::Disconnected)),
            "an unfollowed subscription must disconnect, not buffer"
        );
    }

    #[test]
    fn follow_result_tracks_the_running_merge() {
        let sc = scenario();
        let server = server();
        let (alerts, _) = server.follow(FIG2_TBQL).unwrap();
        for chunk in LogFeed::by_events(&sc.raw, 800) {
            server.append(&chunk.unwrap());
        }
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        let running = server.follow_result(alerts.id()).unwrap();
        let batch = threatraptor_engine::ShardedEngine::new(&server.snapshot())
            .hunt(FIG2_TBQL)
            .unwrap();
        assert_eq!(running.matches.len(), batch.matches.len());
        assert!(server.follow_result(u64::MAX).is_none());
    }

    #[test]
    fn dispatcher_follows_run_incrementally() {
        let sc = scenario();
        let server = server();
        let (_alerts, _) = server.follow(FIG2_TBQL).unwrap();
        // Catch up after each append, so the dispatcher polls once per
        // append: had it merged every append into one poll, that poll
        // and the seeding poll would both run from zero.
        for chunk in LogFeed::by_events(&sc.raw, 800) {
            server.append(&chunk.unwrap());
            assert!(server.wait_caught_up(Duration::from_secs(60)));
        }
        // Dispatcher snapshots carry the stream frontier, so polls
        // after the seeding poll scan only the fresh range.
        let metrics = server.metrics();
        let executions = metrics.counter("follow_executions_total").unwrap_or(0);
        assert!(executions > 0, "server follows must execute");
        // From-zero scans are confined to startup: the seeding poll on
        // the empty store, plus dispatcher polls before the first rows
        // stabilize. Steady-state polls all scan the fresh range only.
        let fallbacks = metrics.counter("follow_full_fallback_total").unwrap_or(0);
        assert!(
            fallbacks < executions,
            "steady-state polls must not re-scan from zero \
             ({fallbacks} from-zero polls / {executions} executions)"
        );
        assert!(metrics.gauge("follow_partials_retained").is_some());
    }

    /// Every standing query shares the server's registry, so the
    /// retained-partials gauge is the sum over all of them, and an
    /// unfollowed query takes its share out.
    #[test]
    fn partials_gauge_sums_every_standing_query() {
        let sc = scenario();
        let server = server();
        let queries = [
            FIG2_TBQL,
            "proc p read file f as e1 proc p write file g as e2 return p, f, g",
            "proc p read file f as e1 proc p connect ip i as e2 return p, i",
        ];
        // Held: a dropped subscription unregisters its query.
        let subs: Vec<FollowSubscription> = queries
            .iter()
            .map(|q| server.follow(q).unwrap().0)
            .collect();
        for chunk in LogFeed::by_events(&sc.raw, 800) {
            server.append(&chunk.unwrap());
        }
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        let shares = || -> Vec<(u64, i64)> {
            let follows = server.follows.lock().unwrap();
            follows
                .iter()
                .map(|e| (e.id, e.hunt.retained_partials() as i64))
                .collect()
        };
        let gauge = || server.metrics().gauge("follow_partials_retained").unwrap();
        let before = shares();
        let total: i64 = before.iter().map(|(_, n)| n).sum();
        assert!(
            before.iter().filter(|(_, n)| *n > 0).count() >= 2,
            "{before:?}"
        );
        assert_eq!(gauge(), total);

        let (gone, share) = *before.iter().find(|(_, n)| *n > 0).unwrap();
        assert!(subs.iter().any(|sub| sub.id() == gone));
        assert!(server.unfollow(gone));
        assert_eq!(gauge(), total - share);
        let after: i64 = shares().iter().map(|(_, n)| n).sum();
        assert_eq!(gauge(), after);
    }

    #[test]
    fn result_matches_gauge_sums_every_standing_query() {
        let sc = scenario();
        let server = server();
        let (a, _) = server.follow(FIG2_TBQL).unwrap();
        let (b, _) = server.follow("proc p read file f return p, f").unwrap();
        for chunk in LogFeed::by_events(&sc.raw, 800) {
            server.append(&chunk.unwrap());
        }
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        let gauge = || server.metrics().gauge("follow_result_matches").unwrap();
        let held = |id| server.follow_result(id).unwrap().matches.len() as i64;
        let (held_a, held_b) = (held(a.id()), held(b.id()));
        assert!(held_a > 0 && held_b > 0, "{held_a} {held_b}");
        assert_eq!(gauge(), held_a + held_b);
        assert!(server.unfollow(b.id()));
        assert_eq!(gauge(), held_a);
        server.shutdown();
        assert_eq!(gauge(), 0);
    }

    /// Every snapshot caller shares the ingest service's per-epoch
    /// build: the server's own snapshots, jobs and the dispatcher.
    #[test]
    fn one_snapshot_build_per_epoch() {
        let sc = scenario();
        let server = server();
        let mut feed = LogFeed::by_events(&sc.raw, 1_000);
        server.append(&feed.next().unwrap().unwrap());
        // With nothing subscribed the dispatcher builds no snapshot.
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        let builds = || {
            server
                .metrics()
                .histogram("serve_stage_ns", &[("stage", "snapshot_build")])
                .expect("snapshot_build stage")
                .count
        };
        let before = builds();
        let epoch = server.ingest().epoch();
        let (a, b) = (server.snapshot(), server.snapshot());
        assert!(server
            .submit(HuntJob::tbql(FIG2_TBQL))
            .wait()
            .outcome
            .is_ok());
        assert_eq!(server.ingest().epoch(), epoch);
        assert_eq!(builds(), before + 1);
        // The second call shares the first one's open-window shard.
        let open = |s: &ShardedStore| Arc::clone(s.shards().last().unwrap());
        assert!(Arc::ptr_eq(&open(&a), &open(&b)));

        server.append(&feed.next().unwrap().unwrap());
        server.snapshot();
        assert!(server
            .submit(HuntJob::tbql(FIG2_TBQL))
            .wait()
            .outcome
            .is_ok());
        assert_eq!(builds(), before + 2);
    }

    /// `plan_cache_memo_bytes` is the cache's memo figure: zero before
    /// any hunt, the hunted plans' filled memos after.
    #[test]
    fn memo_bytes_gauge_reports_the_cached_plans() {
        let sc = scenario();
        let server = server();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        let gauge = || server.metrics().gauge("plan_cache_memo_bytes").unwrap();
        assert_eq!(gauge(), 0);
        server.hunt(FIG2_TBQL).unwrap();
        server.hunt("proc p read file f return p, f").unwrap();
        let bytes = gauge();
        assert!(bytes > 0);
        assert_eq!(bytes, server.cache_stats().memo_bytes as i64);
    }

    #[test]
    fn profiles_propagate_trace_context_end_to_end() {
        let sc = scenario();
        let server = server();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        let handle = server.submit(HuntJob::tbql(FIG2_TBQL));
        let report = handle.wait();
        assert!(report.outcome.is_ok());
        // The profile is visible as soon as wait() returns, keyed by
        // the job id, carrying the handle's trace id.
        let profile = server.profile(handle.id()).expect("profile retained");
        assert_eq!(profile.trace_id, handle.trace_id());
        assert_eq!(profile.status, "ok");
        assert!(profile.matches > 0);
        assert!(profile.tbql.is_some(), "resolved TBQL rides the profile");
        // The trace tree has queue_wait and exec under the root, and
        // per-pattern scan spans under exec.
        let names: Vec<&str> = profile
            .trace
            .children(threatraptor_obs::ROOT_SPAN)
            .into_iter()
            .map(|i| profile.trace.nodes()[i].name.as_str())
            .collect();
        assert_eq!(names, vec!["queue_wait", "exec"]);
        let exec = profile
            .trace
            .nodes()
            .iter()
            .position(|n| n.name == "exec")
            .unwrap();
        let stage_names: Vec<&str> = profile
            .trace
            .children(exec)
            .into_iter()
            .map(|i| profile.trace.nodes()[i].name.as_str())
            .collect();
        assert!(stage_names.iter().any(|n| n.starts_with("scan:")));
        for stage in ["resolve", "propagate", "join", "materialize", "project"] {
            assert!(stage_names.contains(&stage), "missing {stage}");
        }
        // Latency bounds the parts and is what slow_hunts ranks by.
        assert!(profile.latency >= profile.queue_wait);
        assert!(profile.latency >= profile.exec);
        // The chrome export of a real profile is parseable JSON.
        let chrome = profile.trace.to_chrome_trace().compact();
        assert!(threatraptor_obs::JsonValue::parse(&chrome).is_ok());
        server.shutdown();
    }

    #[test]
    fn slow_hunt_log_retains_worst_n_under_concurrent_submissions() {
        let sc = scenario();
        let server = HuntServer::new(
            ServerConfig::with_ingest(IngestConfig::with_policy(SealPolicy::events(500)))
                .workers(4)
                .slow_hunt_capacity(5),
        );
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        let handles: Vec<JobHandle> = (0..24)
            .map(|_| server.submit(HuntJob::tbql(FIG2_TBQL)))
            .collect();
        for handle in &handles {
            handle.wait();
        }
        let slow = server.slow_hunts();
        assert_eq!(slow.len(), 5, "exactly worst-N retained");
        // Slowest first, strictly ordered by latency.
        assert!(slow.windows(2).all(|w| w[0].latency >= w[1].latency));
        // The retained five are exactly the five largest latencies the
        // 24 jobs produced (no profile lost, none duplicated).
        let ids: std::collections::BTreeSet<u64> = slow.iter().map(|p| p.job_id.0).collect();
        assert_eq!(ids.len(), 5);
        for p in &slow {
            assert_eq!(server.profile(p.job_id).unwrap().trace_id, p.trace_id);
        }
        server.shutdown();
        // Rejected submissions never land in the slow log.
        let rejected = server.submit(HuntJob::tbql(FIG2_TBQL));
        assert!(rejected.wait().outcome.is_err());
        assert!(server.profile(rejected.id()).is_none());
        assert_eq!(server.slow_hunts().len(), 5);
    }

    #[test]
    fn job_latency_is_labeled_by_outcome() {
        let sc = scenario();
        let server = server();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        server.hunt(FIG2_TBQL).unwrap();
        let err = server.hunt("this is not TBQL");
        assert!(err.is_err());
        let snapshot = server.metrics();
        let count = |snap: &MetricsSnapshot, status: &str| {
            snap.histogram("job_latency_ns", &[("status", status)])
                .map(|h| h.count)
                .unwrap_or(0)
        };
        assert_eq!(count(&snapshot, "ok"), 1);
        assert_eq!(count(&snapshot, "error"), 1);
        assert_eq!(count(&snapshot, "rejected"), 0);
        server.shutdown();
        server.submit(HuntJob::tbql(FIG2_TBQL)).wait();
        assert_eq!(count(&server.metrics(), "rejected"), 1);
    }

    #[test]
    fn dispatcher_epoch_lag_gauge_reports_caught_up() {
        let sc = scenario();
        let server = server();
        let (_alerts, _) = server.follow(FIG2_TBQL).unwrap();
        for chunk in LogFeed::by_events(&sc.raw, 1_000) {
            server.append(&chunk.unwrap());
        }
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        let snapshot = server.metrics();
        assert_eq!(
            snapshot.gauge("dispatcher_epoch_lag"),
            Some(0),
            "caught-up dispatcher has zero lag"
        );
        assert_eq!(snapshot.gauge("follow_subscriptions"), Some(1));
        server.shutdown();
    }

    #[test]
    fn dropped_subscribers_are_unregistered_on_next_delivery() {
        let sc = scenario();
        let server = server();
        let (alerts, _) = server.follow(FIG2_TBQL).unwrap();
        drop(alerts);
        for chunk in LogFeed::by_events(&sc.raw, 800) {
            server.append(&chunk.unwrap());
        }
        assert!(server.wait_caught_up(Duration::from_secs(60)));
        // The attack fired at least one delivery attempt into the dead
        // channel; the dispatcher must have pruned the entry.
        assert_eq!(server.follow_count(), 0);
    }
}
