//! Causality-Preserved Reduction (CPR).
//!
//! The paper reduces storage by "merg\[ing\] excessive events between the
//! same pair of entities" using the technique of Xu et al., *High Fidelity
//! Data Reduction for Big Data Security Dependency Analyses* (CCS'16)
//! (§II-B). The preserved property is *causality*: merging a run of events
//! between the same `(subject, object, operation)` must not change the
//! happens-before relation between any event and the events incident on
//! either endpoint.
//!
//! This implementation uses the conservative sufficient condition from the
//! CCS'16 paper: a run of same-key events is merged only while **no other
//! event touches either endpoint** between the run's first and last event.
//! Any interleaving event on the subject or the object closes the run, so
//! every outside observer sees exactly the same ordering before and after
//! reduction.

use std::collections::HashMap;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::{Event, Operation};

/// Key identifying a mergeable run.
type RunKey = (EntityId, EntityId, Operation);

/// Summary of one reduction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionStats {
    /// Events before reduction.
    pub before: usize,
    /// Events after reduction.
    pub after: usize,
}

impl ReductionStats {
    /// Reduction factor (`before / after`), or 1.0 on empty input.
    pub fn factor(&self) -> f64 {
        if self.after == 0 {
            1.0
        } else {
            self.before as f64 / self.after as f64
        }
    }

    /// Fraction of events removed, in `[0, 1)`.
    pub fn removed_ratio(&self) -> f64 {
        if self.before == 0 {
            0.0
        } else {
            (self.before - self.after) as f64 / self.before as f64
        }
    }
}

/// The total order CPR processes events in (and sorts its output by).
#[inline]
fn sort_key(e: &Event) -> (u64, u64, threatraptor_audit::event::EventId) {
    (e.start, e.end, e.id)
}

/// Upper bound on a merged event's total time span (`end - start`, in the
/// log's time unit). A run whose next constituent would stretch it past
/// this bound is closed and a fresh run started.
///
/// Unbounded runs are correct for batch reduction but hostile to
/// streaming: a quiet entity pair can keep one run open for the entire
/// capture, pinning the ingest frontier's watermark at the run's first
/// event and making the open window unboundedly large. The cap makes the
/// frontier sealable — every open run starts within `MAX_RUN_SPAN` of the
/// stream's high-water mark — while being far above observed merged-run
/// spans (simulator workloads top out around `2^23`), so it costs no
/// measurable reduction. Batch and incremental reduction apply the same
/// bound, keeping their outputs byte-identical.
pub const MAX_RUN_SPAN: u64 = 1 << 24;

/// The CPR state machine: events are pushed in [`sort_key`] order, merged
/// runs accumulate in `open`, and closed runs spill into the caller's
/// output buffer. Extracted from the batch [`reduce`] loop so the
/// streaming [`IncrementalReducer`] evolves *the same state in the same
/// order* — byte parity between batch and incremental reduction holds by
/// construction, not by re-implementation.
#[derive(Debug, Clone, Default)]
struct CprMachine {
    /// seq of the most recent activity touching each entity.
    last_touch: HashMap<EntityId, u64>,
    /// Open run per key: (accumulated event, seq of its last constituent).
    open: HashMap<RunKey, (Event, u64)>,
    seq: u64,
}

impl CprMachine {
    /// Feeds one event (the next in sort order); closed runs and
    /// non-mergeable events are appended to `out` in closing order (not
    /// globally sorted — callers sort the final output).
    fn push(&mut self, ev: &Event, out: &mut Vec<Event>) {
        self.seq += 1;
        let seq = self.seq;
        let key: RunKey = (ev.subject, ev.op, ev.object).into_run_key();

        if ev.op.cpr_mergeable() {
            if let Some((acc, last_seq)) = self.open.get_mut(&key) {
                let subj_quiet = self.last_touch.get(&ev.subject) == Some(last_seq);
                let obj_quiet = self.last_touch.get(&ev.object) == Some(last_seq);
                let within_span = acc.end.max(ev.end) - acc.start <= MAX_RUN_SPAN;
                if subj_quiet && obj_quiet && within_span && acc.tag == ev.tag {
                    // Extend the run.
                    acc.end = acc.end.max(ev.end);
                    acc.bytes += ev.bytes;
                    acc.merged += ev.merged;
                    *last_seq = seq;
                    self.last_touch.insert(ev.subject, seq);
                    self.last_touch.insert(ev.object, seq);
                    return;
                }
            }
            // Start a new run (flushing any stale run under this key).
            if let Some((acc, _)) = self.open.remove(&key) {
                out.push(acc);
            }
            self.open.insert(key, (ev.clone(), seq));
        } else {
            // Non-mergeable event: flush the run under this key, if any,
            // then emit as-is.
            if let Some((acc, _)) = self.open.remove(&key) {
                out.push(acc);
            }
            out.push(ev.clone());
        }
        self.last_touch.insert(ev.subject, seq);
        self.last_touch.insert(ev.object, seq);
    }

    /// Closes every open run into `out` (end of stream).
    fn flush(&mut self, out: &mut Vec<Event>) {
        for (_, (acc, _)) in self.open.drain() {
            out.push(acc);
        }
    }

    /// Closes runs that can never accept another constituent: input is
    /// processed in start order, so any future event starts at or after
    /// `now`, and extending a run whose first constituent is more than
    /// [`MAX_RUN_SPAN`] behind `now` would exceed the span bound and be
    /// refused anyway. Closing them early changes *when* they reach the
    /// output buffer, never what the (finally sorted) output contains —
    /// which is why only the incremental reducer bothers: it unpins the
    /// sealing watermark from dormant runs.
    fn expire(&mut self, now: u64, out: &mut Vec<Event>) {
        self.open.retain(|_, (acc, _)| {
            if now.saturating_sub(acc.start) > MAX_RUN_SPAN {
                out.push(acc.clone());
                false
            } else {
                true
            }
        });
    }

    /// Smallest output start among still-open runs (a run's output keeps
    /// its first constituent's start, so this is fixed per run).
    fn open_min_start(&self) -> Option<u64> {
        self.open.values().map(|(acc, _)| acc.start).min()
    }
}

/// Applies CPR to an event stream. Returns the reduced stream (sorted by
/// start time) and the reduction statistics.
///
/// Merging rules:
/// * only data-transfer operations ([`Operation::cpr_mergeable`]) merge —
///   lifecycle events (fork/execute/connect/…) are always preserved;
/// * only events with identical ground-truth tags merge (evaluation
///   metadata must stay exact);
/// * a merged event keeps the **first** constituent's id and start time,
///   extends `end` to the last constituent, sums `bytes`, and counts
///   constituents in `merged`.
pub fn reduce(events: &[Event]) -> (Vec<Event>, ReductionStats) {
    let before = events.len();

    // Process in time order.
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| sort_key(&events[i]));

    let mut machine = CprMachine::default();
    let mut out: Vec<Event> = Vec::with_capacity(events.len());
    for &i in &order {
        machine.push(&events[i], &mut out);
    }
    machine.flush(&mut out);
    out.sort_by_key(sort_key);

    let stats = ReductionStats {
        before,
        after: out.len(),
    };
    (out, stats)
}

/// Incremental CPR over an append-only event stream — the ingest-frontier
/// reducer of [`crate::stream::StreamingStore`].
///
/// The batch [`reduce`] sorts the whole stream by `(start, end, id)` and
/// runs the `CprMachine` over it once. This type runs the *same*
/// machine over a stream that arrives in chunks, holding back just enough
/// input to preserve the exact processing order:
///
/// * events whose start is strictly below the stream's high-water start
///   can never be preceded by future input (appends are start-ordered
///   across chunks — true of audit streams and the raw-log replay feed),
///   so they are fed to the machine immediately, in sorted order;
/// * events *at* the high-water start stay staged — a later chunk may
///   still deliver ties that sort before them;
/// * closed runs accumulate in `done`; a closed output becomes **stable**
///   (safe to seal into an immutable shard) only when its start is
///   strictly below the [`IncrementalReducer::watermark`] — the smallest
///   start any future output could have. Sealing above the watermark
///   could split a run that batch CPR would merge, breaking parity.
///
/// With `use_cpr = false` the reducer is a pass-through that preserves
/// arrival order (matching [`reduce_if`] with `use_cpr = false`), and
/// every appended event is immediately stable.
///
/// For start-ordered appends, `sealed outputs ++ visible()` is
/// byte-identical to `reduce(all appended events).0` at every point in
/// the stream. Out-of-order stragglers (an event starting before the
/// high-water mark) are still ingested — they are processed on arrival —
/// but exact batch parity is no longer guaranteed past that point.
#[derive(Debug, Clone)]
pub struct IncrementalReducer {
    use_cpr: bool,
    machine: CprMachine,
    /// Input at the high-water start, not yet safely orderable.
    staged: Vec<Event>,
    /// Closed outputs not yet taken by a seal, in closing order.
    done: Vec<Event>,
    /// High-water start time over all appended input.
    max_start: u64,
    /// Total events appended (the `before` side of the stats).
    before: usize,
}

impl IncrementalReducer {
    /// An empty reducer. `use_cpr = false` gives order-preserving
    /// pass-through (identity reduction).
    pub fn new(use_cpr: bool) -> IncrementalReducer {
        IncrementalReducer {
            use_cpr,
            machine: CprMachine::default(),
            staged: Vec::new(),
            done: Vec::new(),
            max_start: 0,
            before: 0,
        }
    }

    /// Appends a chunk of events (any order within the chunk; chunks
    /// themselves must be non-decreasing in start time for exact batch
    /// parity).
    pub fn append(&mut self, events: &[Event]) {
        self.before += events.len();
        self.max_start = events
            .iter()
            .map(|e| e.start)
            .fold(self.max_start, u64::max);
        if !self.use_cpr {
            self.done.extend_from_slice(events);
            return;
        }
        self.staged.extend_from_slice(events);
        // Everything strictly below the high-water start is now safely
        // orderable: feed it to the machine in global sort order.
        self.staged.sort_by_key(sort_key);
        let ready = self.staged.partition_point(|e| e.start < self.max_start);
        for ev in self.staged.drain(..ready) {
            self.machine.push(&ev, &mut self.done);
        }
        // Close runs too old to ever extend, so dormant entity pairs do
        // not pin the watermark.
        self.machine.expire(self.max_start, &mut self.done);
    }

    /// The start time below which every output is final: no open run, no
    /// staged event, and (for start-ordered appends) no future input can
    /// produce an output starting earlier.
    pub fn watermark(&self) -> u64 {
        self.machine
            .open_min_start()
            .map_or(self.max_start, |open| open.min(self.max_start))
    }

    /// Takes the stable prefix — closed outputs starting strictly below
    /// the watermark, sorted — leaving everything else open. This is the
    /// seal operation's input; the returned slice is an exact prefix of
    /// what batch [`reduce`] over the full stream will eventually emit.
    pub fn take_stable(&mut self) -> Vec<Event> {
        if !self.use_cpr {
            // Pass-through: arrival order is the output order.
            return std::mem::take(&mut self.done);
        }
        let wm = self.watermark();
        let mut stable = Vec::new();
        self.done.retain(|e| {
            if e.start < wm {
                stable.push(e.clone());
                false
            } else {
                true
            }
        });
        stable.sort_by_key(sort_key);
        stable
    }

    /// The open window as batch CPR would emit it if the stream ended
    /// now: unsealed closed outputs, open-run accumulators, and staged
    /// input, fully reduced and sorted. Non-destructive — appending more
    /// events afterwards continues exactly where the stream left off.
    pub fn visible(&self) -> Vec<Event> {
        if !self.use_cpr {
            return self.done.clone();
        }
        let mut machine = self.machine.clone();
        let mut out = self.done.clone();
        let mut staged = self.staged.clone();
        staged.sort_by_key(sort_key);
        for ev in &staged {
            machine.push(ev, &mut out);
        }
        machine.flush(&mut out);
        out.sort_by_key(sort_key);
        out
    }

    /// Number of events currently in the open window — exactly
    /// `visible().len()`: staged frontier input is run through a cloned
    /// machine so ties that will merge are counted once, not twice. Cost
    /// is proportional to the *staged* set (same-start frontier events),
    /// not the whole window.
    pub fn open_len(&self) -> usize {
        if !self.use_cpr || self.staged.is_empty() {
            return self.done.len() + self.machine.open.len();
        }
        let mut machine = self.machine.clone();
        let mut out = Vec::new();
        let mut staged = self.staged.clone();
        staged.sort_by_key(sort_key);
        for ev in &staged {
            machine.push(ev, &mut out);
        }
        self.done.len() + out.len() + machine.open.len()
    }

    /// Total events appended so far (the `before` of [`ReductionStats`]).
    pub fn appended(&self) -> usize {
        self.before
    }
}

/// Applies CPR when `use_cpr`, otherwise passes the stream through with
/// identity statistics — the ingestion preamble of
/// [`crate::sharded::ShardedStore::ingest`], through which
/// [`crate::store::AuditStore::ingest`] also builds.
pub fn reduce_if(events: &[Event], use_cpr: bool) -> (Vec<Event>, ReductionStats) {
    if use_cpr {
        reduce(events)
    } else {
        let stats = ReductionStats {
            before: events.len(),
            after: events.len(),
        };
        (events.to_vec(), stats)
    }
}

/// Helper converting the natural tuple order into the run key layout.
trait IntoRunKey {
    fn into_run_key(self) -> RunKey;
}

impl IntoRunKey for (EntityId, Operation, EntityId) {
    fn into_run_key(self) -> RunKey {
        (self.0, self.2, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use threatraptor_audit::event::{AttackTag, EventId};

    fn ev(id: u32, s: u32, op: Operation, o: u32, start: u64) -> Event {
        Event {
            id: EventId(id),
            subject: EntityId(s),
            op,
            object: EntityId(o),
            start,
            end: start + 2,
            bytes: 10,
            merged: 1,
            tag: None,
        }
    }

    #[test]
    fn quiet_burst_merges_to_one() {
        let events: Vec<Event> = (0..5)
            .map(|i| ev(i, 0, Operation::Read, 1, i as u64 * 10))
            .collect();
        let (out, stats) = reduce(&events);
        assert_eq!(out.len(), 1);
        assert_eq!(stats.before, 5);
        assert_eq!(stats.after, 1);
        assert_eq!(out[0].merged, 5);
        assert_eq!(out[0].bytes, 50);
        assert_eq!(out[0].start, 0);
        assert_eq!(out[0].end, 42);
        assert_eq!(out[0].id, EventId(0), "keeps first constituent id");
        assert!((stats.factor() - 5.0).abs() < 1e-9);
        assert!((stats.removed_ratio() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn interleaving_event_on_subject_breaks_run() {
        let events = vec![
            ev(0, 0, Operation::Read, 1, 0),
            ev(1, 0, Operation::Read, 1, 10),
            // Subject 0 writes elsewhere: breaks the read run.
            ev(2, 0, Operation::Write, 2, 20),
            ev(3, 0, Operation::Read, 1, 30),
        ];
        let (out, _) = reduce(&events);
        // reads merged [0,1], the write, read [3] alone.
        assert_eq!(out.len(), 3);
        let merged_read = out.iter().find(|e| e.merged == 2).unwrap();
        assert_eq!(merged_read.op, Operation::Read);
    }

    #[test]
    fn interleaving_event_on_object_breaks_run() {
        let events = vec![
            ev(0, 0, Operation::Read, 1, 0),
            // Another process writes the same file: order must survive.
            ev(1, 2, Operation::Write, 1, 10),
            ev(2, 0, Operation::Read, 1, 20),
        ];
        let (out, stats) = reduce(&events);
        assert_eq!(out.len(), 3, "read-write-read must not collapse");
        assert_eq!(stats.after, 3);
    }

    #[test]
    fn non_mergeable_ops_always_preserved() {
        let events = vec![
            ev(0, 0, Operation::Connect, 1, 0),
            ev(1, 0, Operation::Connect, 1, 10),
            ev(2, 0, Operation::Fork, 2, 20),
        ];
        let (out, _) = reduce(&events);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn different_tags_do_not_merge() {
        let mut a = ev(0, 0, Operation::Read, 1, 0);
        let mut b = ev(1, 0, Operation::Read, 1, 10);
        a.tag = Some(AttackTag {
            case: "x".into(),
            step: 1,
        });
        b.tag = Some(AttackTag {
            case: "x".into(),
            step: 2,
        });
        let (out, _) = reduce(&[a, b]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn distinct_pairs_merge_independently() {
        let events = vec![
            ev(0, 0, Operation::Read, 1, 0),
            ev(1, 2, Operation::Read, 3, 5),
            ev(2, 0, Operation::Read, 1, 10),
            ev(3, 2, Operation::Read, 3, 15),
        ];
        let (out, _) = reduce(&events);
        // Each pair's run is uninterrupted on its own endpoints.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| e.merged == 2));
    }

    #[test]
    fn empty_input() {
        let (out, stats) = reduce(&[]);
        assert!(out.is_empty());
        assert_eq!(stats.factor(), 1.0);
        assert_eq!(stats.removed_ratio(), 0.0);
    }

    #[test]
    fn output_sorted_by_start() {
        let events = vec![
            ev(0, 0, Operation::Read, 1, 50),
            ev(1, 2, Operation::Write, 3, 10),
            ev(2, 4, Operation::Fork, 5, 30),
        ];
        let (out, _) = reduce(&events);
        for w in out.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    /// Strategy: small random event streams over few entities.
    fn arb_events() -> impl Strategy<Value = Vec<Event>> {
        prop::collection::vec(
            (
                0u32..4, // subject
                0u32..4, // object
                prop::sample::select(vec![
                    Operation::Read,
                    Operation::Write,
                    Operation::Fork,
                    Operation::Send,
                ]),
            ),
            0..40,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (s, o, op))| {
                    let o = if s == o { (o + 1) % 4 } else { o };
                    ev(i as u32, s, op, o, i as u64 * 10)
                })
                .collect()
        })
    }

    proptest! {
        /// The defining invariant: for every merged event, no *other*
        /// output event touching either endpoint overlaps its window.
        #[test]
        fn no_foreign_activity_inside_merged_windows(events in arb_events()) {
            let (out, stats) = reduce(&events);
            prop_assert!(stats.after <= stats.before);
            // Total constituents and bytes are conserved.
            let merged_total: u32 = out.iter().map(|e| e.merged).sum();
            prop_assert_eq!(merged_total as usize, events.len());
            let bytes_in: u64 = events.iter().map(|e| e.bytes).sum();
            let bytes_out: u64 = out.iter().map(|e| e.bytes).sum();
            prop_assert_eq!(bytes_in, bytes_out);

            for m in out.iter().filter(|e| e.merged > 1) {
                for other in events.iter() {
                    // Skip constituents of m itself.
                    let same_key = other.subject == m.subject
                        && other.object == m.object
                        && other.op == m.op
                        && other.start >= m.start
                        && other.end <= m.end;
                    if same_key {
                        continue;
                    }
                    let shares_endpoint = other.subject == m.subject
                        || other.subject == m.object
                        || other.object == m.subject
                        || other.object == m.object;
                    if shares_endpoint {
                        let strictly_inside = other.start > m.start && other.end < m.end;
                        prop_assert!(
                            !strictly_inside,
                            "event {:?} interleaves merged window [{}, {}]",
                            other.id, m.start, m.end
                        );
                    }
                }
            }
        }

        /// CPR is idempotent: reducing a reduced stream changes nothing.
        #[test]
        fn reduction_is_idempotent(events in arb_events()) {
            let (once, _) = reduce(&events);
            let (twice, stats) = reduce(&once);
            prop_assert_eq!(stats.before, stats.after);
            prop_assert_eq!(once, twice);
        }

        /// Incremental CPR parity: for any chunking of a start-ordered
        /// stream, with seals interleaved at arbitrary points, the sealed
        /// outputs followed by the open window are byte-identical to one
        /// batch reduction of the whole stream.
        #[test]
        fn incremental_matches_batch(events in arb_events(), chunk in 1usize..17) {
            let (batch, stats) = reduce(&events);
            let mut inc = IncrementalReducer::new(true);
            let mut sealed: Vec<Event> = Vec::new();
            for (i, c) in events.chunks(chunk).enumerate() {
                inc.append(c);
                if i % 2 == 0 {
                    sealed.extend(inc.take_stable());
                }
            }
            let mut all = sealed;
            all.extend(inc.visible());
            prop_assert_eq!(all, batch);
            prop_assert_eq!(inc.appended(), stats.before);
        }
    }

    #[test]
    fn span_cap_closes_oversized_runs() {
        // Two quiet same-key events further apart than the span cap must
        // not merge — in batch or incrementally.
        let far = MAX_RUN_SPAN + 100;
        let events = vec![
            ev(0, 0, Operation::Read, 1, 0),
            ev(1, 0, Operation::Read, 1, far),
        ];
        let (out, _) = reduce(&events);
        assert_eq!(out.len(), 2, "span cap must split the run");

        let mut inc = IncrementalReducer::new(true);
        inc.append(&events);
        assert_eq!(inc.visible(), out);
    }

    #[test]
    fn dormant_runs_do_not_pin_the_watermark() {
        let mut inc = IncrementalReducer::new(true);
        // A quiet pair opens a run at t=0...
        inc.append(&[
            ev(0, 0, Operation::Read, 1, 0),
            ev(1, 0, Operation::Read, 1, 10),
        ]);
        // ...then goes dormant while unrelated traffic streams past the
        // span cap. The run must expire and the watermark advance.
        let far = MAX_RUN_SPAN + 1_000;
        inc.append(&[ev(2, 2, Operation::Write, 3, far)]);
        inc.append(&[ev(3, 2, Operation::Write, 3, far + 10)]);
        assert!(
            inc.watermark() >= far,
            "watermark {} pinned",
            inc.watermark()
        );
        let stable = inc.take_stable();
        assert!(
            stable.iter().any(|e| e.merged == 2),
            "the expired run must be sealable: {stable:?}"
        );
    }

    #[test]
    fn open_len_counts_staged_ties_after_merging() {
        // Two same-start mergeable events both stay staged at the
        // high-water mark; they will merge, so the open window holds one
        // event, not two — open_len must agree with visible().
        let mut a = ev(0, 0, Operation::Read, 1, 10);
        let mut b = ev(1, 0, Operation::Read, 1, 10);
        a.end = 14;
        b.end = 12;
        let mut inc = IncrementalReducer::new(true);
        inc.append(&[a]);
        inc.append(&[b]);
        assert_eq!(inc.visible().len(), 1);
        assert_eq!(inc.open_len(), inc.visible().len());
    }

    #[test]
    fn passthrough_reducer_preserves_arrival_order() {
        // With CPR off, the reducer is an order-preserving identity —
        // matching `reduce_if(_, false)`.
        let events = vec![
            ev(0, 0, Operation::Read, 1, 50),
            ev(1, 2, Operation::Write, 3, 10),
            ev(2, 4, Operation::Fork, 5, 30),
        ];
        let mut inc = IncrementalReducer::new(false);
        inc.append(&events[..2]);
        inc.append(&events[2..]);
        assert_eq!(inc.visible(), events);
        // Nothing is open, so the watermark is the high-water start.
        assert_eq!(inc.watermark(), 50);
        assert_eq!(inc.take_stable(), events);
        assert_eq!(inc.open_len(), 0);
        assert_eq!(inc.appended(), 3);
    }
}
