//! Per-hunt execution profiles and the slow-hunt log.
//!
//! Every ad-hoc job the [`HuntServer`](crate::server::HuntServer)
//! executes produces a [`HuntProfile`]: the job's [`TraceTree`]
//! (queue-wait and exec spans under the job root, per-pattern scan
//! children with rows-scanned attributes) plus the headline numbers an
//! operator triages by. Profiles are retained in a bounded
//! slow-hunt log — the worst-N by end-to-end latency — so "why was
//! this hunt slow?" stays answerable after the fact without keeping
//! every execution forever.

use std::time::Duration;
use threatraptor_sync::{Arc, Mutex, PoisonError};

use crate::server::JobId;
use threatraptor_obs::{TraceId, TraceTree};

/// One executed job's profile.
#[derive(Debug, Clone)]
pub struct HuntProfile {
    /// The job this profile describes.
    pub job_id: JobId,
    /// Trace id shared with the job's [`JobHandle`](crate::JobHandle).
    pub trace_id: TraceId,
    /// The TBQL the job resolved to (`None` when synthesis failed).
    pub tbql: Option<String>,
    /// Outcome label: `ok`, `error`, `panicked`, or `rejected`.
    pub status: &'static str,
    /// Whether the compiled plan came from the cache.
    pub cache_hit: bool,
    /// Complete matches produced (0 on error).
    pub matches: usize,
    /// Submit → worker pickup.
    pub queue_wait: Duration,
    /// Worker execution time.
    pub exec: Duration,
    /// End-to-end latency (submit → completion) — the slow-hunt log's
    /// ranking key.
    pub latency: Duration,
    /// The hierarchical span tree (exportable as Chrome `trace_event`
    /// JSON via [`TraceTree::to_chrome_trace`]).
    pub trace: TraceTree,
}

/// Bounded ring of the worst-N profiles by end-to-end latency.
///
/// All mutation happens under one mutex, so under concurrent
/// completions the retained set is exactly the N largest latencies
/// recorded (ties broken toward earlier job ids).
#[derive(Debug)]
pub(crate) struct SlowHuntLog {
    capacity: usize,
    entries: Mutex<Vec<Arc<HuntProfile>>>,
}

impl SlowHuntLog {
    /// Creates a log retaining at most `capacity` profiles (≥ 1).
    pub(crate) fn new(capacity: usize) -> SlowHuntLog {
        SlowHuntLog {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Records a completed job's profile, evicting the fastest entry
    /// when the log is over capacity.
    pub(crate) fn record(&self, profile: HuntProfile) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        // Kept sorted: latency descending, job id ascending on ties —
        // insertion point by binary search, then truncate to capacity.
        let key = (std::cmp::Reverse(profile.latency), profile.job_id);
        let at = entries.partition_point(|e| (std::cmp::Reverse(e.latency), e.job_id) <= key);
        entries.insert(at, Arc::new(profile));
        entries.truncate(self.capacity);
    }

    /// The retained profiles, slowest first.
    pub(crate) fn slow_hunts(&self) -> Vec<Arc<HuntProfile>> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The retained profile of `id`, if it is (still) among the
    /// worst-N.
    pub(crate) fn profile(&self, id: JobId) -> Option<Arc<HuntProfile>> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|e| e.job_id == id)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_obs::TraceId;

    fn profile(job: u64, latency_us: u64) -> HuntProfile {
        HuntProfile {
            job_id: JobId(job),
            trace_id: TraceId(job),
            tbql: None,
            status: "ok",
            cache_hit: false,
            matches: 0,
            queue_wait: Duration::ZERO,
            exec: Duration::ZERO,
            latency: Duration::from_micros(latency_us),
            trace: TraceTree::with_id(TraceId(job), "job"),
        }
    }

    #[test]
    fn retains_worst_n_sorted() {
        let log = SlowHuntLog::new(3);
        for (job, lat) in [(0, 50), (1, 900), (2, 10), (3, 700), (4, 300)] {
            log.record(profile(job, lat));
        }
        let kept: Vec<(u64, u128)> = log
            .slow_hunts()
            .iter()
            .map(|p| (p.job_id.0, p.latency.as_micros()))
            .collect();
        assert_eq!(kept, vec![(1, 900), (3, 700), (4, 300)]);
        assert!(log.profile(JobId(1)).is_some());
        assert!(log.profile(JobId(2)).is_none(), "evicted: too fast");
    }

    #[test]
    fn ties_prefer_earlier_jobs() {
        let log = SlowHuntLog::new(2);
        for job in [5, 3, 9] {
            log.record(profile(job, 100));
        }
        let kept: Vec<u64> = log.slow_hunts().iter().map(|p| p.job_id.0).collect();
        assert_eq!(kept, vec![3, 5]);
    }

    #[test]
    fn concurrent_records_keep_exactly_the_worst_n() {
        let log = Arc::new(SlowHuntLog::new(8));
        // 16 threads × 16 profiles with distinct latencies 1..=256 µs,
        // interleaved arbitrarily.
        std::thread::scope(|scope| {
            for t in 0..16u64 {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..16u64 {
                        let latency = t * 16 + i + 1;
                        log.record(profile(t * 16 + i, latency));
                    }
                });
            }
        });
        let kept: Vec<u128> = log
            .slow_hunts()
            .iter()
            .map(|p| p.latency.as_micros())
            .collect();
        // Exactly the 8 largest latencies, in descending order.
        assert_eq!(kept, (249u128..=256).rev().collect::<Vec<_>>());
    }
}
