//! The four workloads. Each builds its inputs and the system under test
//! from the seed, computes its reference results, and can then be run
//! two ways: through the production entry points (`production`), which
//! is where every end-to-end number comes from, and layer by layer with
//! a span around each call (`staged`), which is where per-layer numbers
//! come from.

pub mod hunt_hot;
pub mod ingest_only;
pub mod intel_cold;
pub mod live_mixed;

use crate::oracle::Expected;
use crate::stats::ms;
use crate::trace::{Recorder, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use threatraptor_service::{CacheStats, HuntJob, HuntServer};

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of one pass through the production entry points.
    pub pass_seconds: f64,
    /// Input sizes are divided by this (10 under `--smoke`).
    pub shrink: usize,
}

/// Per-layer numbers by metric name; a layer that a workload leaves idle
/// reports nothing and prints as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Counts operations against their reference checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe());
        }
    }

    /// Records a failure that is not one of the counted operations.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

/// One pass through the production entry points.
#[derive(Debug, Default)]
pub struct Production {
    pub elapsed: Duration,
    /// Units of work completed correctly: hunts, reports or raw events.
    pub work: f64,
    /// Duration in seconds of each complete cycle: a fixed multiset of
    /// `cycle_work` units of work. When present, `ops_per_s` is
    /// `cycle_work` over the median cycle, which a passing disturbance of
    /// the machine does not move; otherwise it is `work / elapsed`.
    pub cycles_s: Vec<f64>,
    pub cycle_work: f64,
    /// Latency of the workload's primary operation, one per sample.
    pub latencies_ms: Vec<f64>,
    pub checks: Checks,
    /// What the production entry points themselves expose about layers.
    pub layers: Layers,
}

/// What a closed-loop client saw of the jobs it put through a server.
#[derive(Debug, Default)]
pub struct Jobs {
    pub latencies_ms: Vec<f64>,
    pub checks: Checks,
    submit_block_ms: f64,
    queue_wait_ms: f64,
}

impl Jobs {
    /// Submits `job`, waits for its report, and checks it against the
    /// reference result; a span named `op` envelops the two calls.
    pub fn run(
        &mut self,
        server: &HuntServer,
        tracer: &Tracer,
        op: &'static str,
        op_id: u64,
        job: HuntJob,
        want: &Expected,
    ) {
        let root = tracer.begin(op, None, op_id);
        let t0 = Instant::now();
        let handle = tracer.span("service.submit", root, op_id, || server.submit(job));
        let submitted = t0.elapsed();
        let report = tracer.span("service.wait", root, op_id, || handle.wait());
        let latency = t0.elapsed();
        tracer.end(root);
        self.latencies_ms.push(ms(latency));
        self.submit_block_ms += ms(submitted);
        self.queue_wait_ms += ms(latency.saturating_sub(report.elapsed));
        let source = report.job.source();
        match &report.outcome {
            Ok(result) if Expected::of(result) == *want => self.checks.check(true, String::new),
            Ok(result) => self.checks.check(false, || {
                format!("got {:?}, want {want:?}: {source}", Expected::of(result))
            }),
            Err(e) => self.checks.check(false, || format!("{e}: {source}")),
        }
    }

    pub fn merge(&mut self, other: Jobs) {
        self.latencies_ms.extend(other.latencies_ms);
        self.checks.merge(other.checks);
        self.submit_block_ms += other.submit_block_ms;
        self.queue_wait_ms += other.queue_wait_ms;
    }

    /// The pass these jobs made up: correct jobs as its work, and what the
    /// server's entry points expose about the service layer, the plan
    /// cache's counters over the pass among it.
    pub fn into_production(self, before: CacheStats, after: CacheStats) -> Production {
        let n = self.latencies_ms.len();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        Production {
            work: (self.checks.attempted - self.checks.failed) as f64,
            layers: Layers::from([
                ("service.cache_hit_ratio", mean(hits as f64, hits + misses)),
                (
                    "service.cache_evictions",
                    (after.evictions - before.evictions) as f64,
                ),
                ("service.submit_block_ms", mean(self.submit_block_ms, n)),
                ("service.queue_wait_ms", mean(self.queue_wait_ms, n)),
            ]),
            latencies_ms: self.latencies_ms,
            checks: self.checks,
            ..Production::default()
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// What `ops_per_s` counts and `op_p50_ms`/`op_tail_ms` time.
    const OP: &'static str;
    /// The percentile `op_tail_ms` reports: the highest that a full-length
    /// run's sample count supports (ten samples beyond it). Fixed per
    /// workload, so that a faster commit does not change what is measured.
    const TAIL: f64;

    /// Generates the inputs, brings the system under test to the state
    /// the timed phase starts from, and warms it up. This is what
    /// `setup_s` times.
    fn setup(cfg: &Config) -> Self;

    /// Computes the reference results (not part of `setup_s`: it is the
    /// benchmark's work, not the program's). Returns what is already
    /// wrong before anything is measured.
    fn oracle(&mut self) -> Checks;

    fn production(&self, seconds: f64, rec: Option<&Recorder>) -> Production;

    fn staged(&self, seconds: f64, rec: &Recorder) -> Layers;
}

impl Production {
    pub fn ops_per_s(&self) -> f64 {
        if self.cycles_s.is_empty() {
            self.work / self.elapsed.as_secs_f64()
        } else {
            self.cycle_work / crate::stats::median(self.cycles_s.clone())
        }
    }
}

pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

pub fn mean(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small run of a workload: set-up, oracle, one production pass.
    fn checks<W: Workload>(seed: u64) -> Checks {
        let cfg = Config {
            seed,
            pass_seconds: 1.0,
            shrink: 20,
        };
        let mut workload = W::setup(&cfg);
        let mut checks = workload.oracle();
        checks.merge(workload.production(cfg.pass_seconds, None).checks);
        checks
    }

    fn correct_under_two_seeds<W: Workload>() {
        for seed in [3, 4] {
            let c = checks::<W>(seed);
            assert!(
                c.attempted > 0,
                "{} seed {seed}: nothing attempted",
                W::NAME
            );
            assert_eq!(c.failed, 0, "{} seed {seed}: {:?}", W::NAME, c.messages);
        }
    }

    /// Another seed gives other inputs (`gen`'s tests) and the same
    /// verdict: every output still passes its reference check.
    #[test]
    fn every_workload_is_correct_whatever_the_seed() {
        correct_under_two_seeds::<hunt_hot::HuntHot>();
        correct_under_two_seeds::<intel_cold::IntelCold>();
        correct_under_two_seeds::<ingest_only::IngestOnly>();
        correct_under_two_seeds::<live_mixed::LiveMixed>();
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check(false, || "wrong rows".into());
        c.fail("backlog".into());
        assert_eq!((c.attempted, c.failed), (2, 2));
        assert_eq!(c.messages, ["wrong rows", "backlog"]);
    }
}
