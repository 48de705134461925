//! Hunt results: bindings, matched events, evaluation helpers.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::time::Duration;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::EventId;
use threatraptor_storage::sharded::ShardedStore;

/// One complete match of all patterns: entity bindings plus the events
/// that witnessed each pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Entity variable → bound entity.
    pub bindings: HashMap<String, EntityId>,
    /// Pattern id → witnessing event positions (the store's global
    /// positions); one for event patterns, one per hop for path patterns.
    pub events: HashMap<String, Vec<usize>>,
    /// Pattern id → `(start, end)` window of the witnessing events.
    pub times: HashMap<String, (u64, u64)>,
}

/// Candidate/output row counts of one pattern's join step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Row pairs considered: `|partial| × |fetched|` (just `|fetched|`
    /// for the first pattern, which seeds the partial set).
    pub candidates: usize,
    /// Partial matches surviving the join.
    pub outputs: usize,
}

impl JoinStats {
    /// Output/candidate ratio in `[0, 1]`; zero candidates yield 0.
    pub fn selectivity(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.outputs as f64 / self.candidates as f64
        }
    }
}

/// Actuals of one incremental (delta-mode) execution, carried on
/// [`HuntStats::delta`] when the hunt ran through the delta path
/// ([`crate::delta::DeltaState`]): every standing-query poll.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// First global event position scanned as "fresh": the epoch-delta
    /// range was `[fresh_from, event_count)`. Zero means the poll ran from
    /// position zero (first poll, discontinuity or batch snapshot).
    pub fresh_from: usize,
    /// Rows fetched from the fresh range across all patterns (the seed
    /// scans) — the quantity that stays O(delta) as the store grows.
    pub fresh_rows: usize,
    /// Rows fetched by carry scans (full-range, IN-set-filtered scans
    /// joining an upstream delta forward through later patterns).
    pub carry_rows: usize,
    /// Retained partial bindings consulted by this poll.
    pub carried_partials: usize,
    /// Partial bindings retained after this poll.
    pub retained_partials: usize,
    /// Entities this poll examined to extend its memoized endpoint sets,
    /// summed over the variables: those of each variable's kind appended
    /// since the previous poll (every one on a from-zero poll), zero when
    /// no entity was.
    pub entity_rows: usize,
}

/// One pattern's execution record.
#[derive(Debug, Clone, Default)]
pub struct PatternStats {
    /// Pattern id.
    pub pattern: String,
    /// Rows fetched per shard (index = shard; a store without shards
    /// reports one). Their sum is the pattern's rows fetched, and the
    /// `engine_rows_scanned_total{pattern,shard}` counters are bumped
    /// from these counts.
    pub shard_rows: Vec<usize>,
    /// Propagated IN-set sizes per constrained variable: the distinct
    /// already-bound ids pushed down (empty for the first pattern and
    /// for a baseline).
    pub propagated: Vec<(String, usize)>,
    /// Join candidate/output counts.
    pub join: JoinStats,
    /// Rows the DBM feasible-range clamp excluded — the count the
    /// `engine_rows_pruned_total{pattern}` counter records.
    pub rows_pruned: usize,
    /// Wall time of the pattern's data query (the scan).
    pub elapsed: Duration,
}

impl PatternStats {
    /// Total rows fetched across shards.
    pub fn total_rows(&self) -> usize {
        self.shard_rows.iter().sum()
    }

    /// Adds `other`'s row counts, join counts and scan time to this
    /// record's (shard by shard); `propagated` is left as it is.
    pub fn add(&mut self, other: &PatternStats) {
        if self.shard_rows.len() < other.shard_rows.len() {
            self.shard_rows.resize(other.shard_rows.len(), 0);
        }
        for (total, n) in self.shard_rows.iter_mut().zip(&other.shard_rows) {
            *total += n;
        }
        self.join.candidates += other.join.candidates;
        self.join.outputs += other.join.outputs;
        self.rows_pruned += other.rows_pruned;
        self.elapsed += other.elapsed;
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Default)]
pub struct HuntStats {
    /// One record per executed pattern, in execution order. A hunt
    /// whose partial matches die stops early: the patterns it did not
    /// run have no record.
    pub patterns: Vec<PatternStats>,
    /// Wall time resolving the patterns' endpoint variables to entity id
    /// sets (a full execution evaluates each variable's filter over
    /// the catalog; a delta poll extends its memoized sets and narrows
    /// them to propagated ids).
    pub resolve_elapsed: Duration,
    /// Wall time building cross-pattern IN-set filters (constraint
    /// propagation; zero for a baseline).
    pub propagate_elapsed: Duration,
    /// Wall time joining fetched rows into the partial match set.
    pub join_elapsed: Duration,
    /// Wall time projecting matches into output rows.
    pub project_elapsed: Duration,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Present when this execution ran through the incremental (delta)
    /// path: the fresh-range and retained-partial actuals. `None` for
    /// full executions.
    pub delta: Option<DeltaStats>,
}

impl HuntStats {
    /// Total wall time across all pattern scans.
    pub fn scan_elapsed(&self) -> Duration {
        self.patterns.iter().map(|p| p.elapsed).sum()
    }

    /// Total rows fetched across all patterns.
    pub fn total_rows(&self) -> usize {
        self.patterns.iter().map(PatternStats::total_rows).sum()
    }

    /// Total rows excluded by the DBM feasible-range clamp.
    pub fn total_rows_pruned(&self) -> usize {
        self.patterns.iter().map(|p| p.rows_pruned).sum()
    }

    /// Records the per-stage breakdown into a [`TraceSink`] (one
    /// sample per stage: `resolve`, `scan`, `propagate`, `join`,
    /// `project`).
    ///
    /// [`TraceSink`]: threatraptor_obs::TraceSink
    pub fn record_stages(&self, sink: &threatraptor_obs::TraceSink) {
        sink.record("resolve", self.resolve_elapsed);
        sink.record("scan", self.scan_elapsed());
        sink.record("propagate", self.propagate_elapsed);
        sink.record("join", self.join_elapsed);
        sink.record("project", self.project_elapsed);
    }
}

/// The result of executing a TBQL query.
#[derive(Debug, Clone)]
pub struct HuntResult {
    /// Projected column names (`p1.exename`, …).
    pub columns: Vec<String>,
    /// Projected rows (deduplicated when the query says `distinct`).
    pub rows: Vec<Vec<String>>,
    /// Full matches (before projection).
    pub matches: Vec<Match>,
    /// Statistics.
    pub stats: HuntStats,
}

impl HuntResult {
    /// True when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// All matched event ids (original ids, stable across CPR), read
    /// through the store the result was produced against (positions are
    /// its global positions).
    pub fn matched_event_ids(&self, store: &ShardedStore) -> BTreeSet<EventId> {
        self.matches
            .iter()
            .flat_map(|m| m.events.values().flatten())
            .map(|&pos| store.event_at(pos).id)
            .collect()
    }

    /// Precision/recall of matched events against ground truth.
    ///
    /// Returns `(precision, recall)`; empty result sets yield precision 1
    /// when nothing was expected, 0 otherwise.
    pub fn precision_recall(&self, store: &ShardedStore, ground_truth: &[EventId]) -> (f64, f64) {
        let got = self.matched_event_ids(store);
        let want: BTreeSet<EventId> = ground_truth.iter().copied().collect();
        let tp = got.intersection(&want).count() as f64;
        let precision = if got.is_empty() {
            if want.is_empty() {
                1.0
            } else {
                0.0
            }
        } else {
            tp / got.len() as f64
        };
        let recall = if want.is_empty() {
            1.0
        } else {
            tp / want.len() as f64
        };
        (precision, recall)
    }

    /// Renders the projected rows as an aligned text table (the "system
    /// auditing records" panel of the demo UI).
    pub fn render_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, c) in self.columns.iter().enumerate() {
            write!(out, "| {c:<w$} ", w = widths[i]).unwrap();
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                write!(out, "| {cell:<w$} ", w = widths[i]).unwrap();
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with_rows(rows: Vec<Vec<String>>) -> HuntResult {
        HuntResult {
            columns: vec!["p1.exename".into(), "f1.name".into()],
            rows,
            matches: Vec::new(),
            stats: HuntStats::default(),
        }
    }

    #[test]
    fn table_rendering_aligns() {
        let r = result_with_rows(vec![
            vec!["/bin/tar".into(), "/etc/passwd".into()],
            vec!["/usr/bin/gpg".into(), "/tmp/upload".into()],
        ]);
        let t = r.render_table();
        assert!(t.contains("| p1.exename   |"));
        assert!(t.contains("| /bin/tar     |"));
        let lines: Vec<&str> = t.lines().collect();
        let len = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == len), "{t}");
    }

    #[test]
    fn empty_result() {
        let r = result_with_rows(vec![]);
        assert!(r.is_empty());
        let t = r.render_table();
        assert!(t.contains("p1.exename"));
    }
}
