//! Difference-bound matrices over pattern timestamps.
//!
//! Each pattern in an analyzed query contributes two clocks — the start
//! and end timestamp of its witnessing event (for paths: first-hop start
//! and last-hop end) — plus one shared zero clock. The query's temporal
//! operators and window predicates translate into difference constraints
//! `x − y ≤ c` over those clocks:
//!
//! * `start_i ≤ end_i` (events are well-formed intervals),
//! * `start_i ≥ 0` (timestamps are unsigned),
//! * `window [lo, hi]` on pattern *i* ⇒ `start_i ≥ lo` and `end_i ≤ hi`
//!   (exactly the executor's residual-filter semantics),
//! * `a before b` ⇒ `end_a < start_b`, i.e. `end_a − start_b ≤ −1`
//!   (timestamps are integral nanoseconds, so strict `<` tightens to a
//!   non-strict bound one unit lower). Analysis hands the pairs over as
//!   pattern indices ([`AnalyzedQuery::before`]).
//!
//! The Floyd–Warshall closure of the constraint graph answers two
//! questions the compiler wants before any shard is scanned:
//!
//! 1. **Feasibility** — a negative cycle (negative diagonal entry after
//!    closure) means no timestamp assignment satisfies the query; the
//!    hunt can be rejected without touching the store.
//! 2. **Tightened bounds** — the closed row/column against the zero
//!    clock yields the tightest derivable `[lo, hi]` range per pattern,
//!    which [`ShardedEngine`] uses to clamp per-pattern scans.
//!
//! [`ShardedEngine`]: ../../threatraptor_engine/struct.ShardedEngine.html

use crate::analyze::AnalyzedQuery;

/// Weight used for "no constraint" entries. Chosen so that
/// `INF + INF` cannot overflow `i128` and any `x < INF` survives one
/// addition unscathed.
pub const INF: i128 = i128::MAX / 4;

/// A difference-bound matrix: entry `(i, j)` is the tightest known upper
/// bound on `x_i − x_j` (or [`INF`] when unconstrained). Clock 0 is the
/// zero clock, fixed at value 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dbm {
    n: usize,
    w: Vec<i128>,
}

impl Dbm {
    /// Creates an unconstrained DBM over `clocks` clocks (including the
    /// zero clock), with only the trivial `x_i − x_i ≤ 0` diagonal.
    pub fn new(clocks: usize) -> Dbm {
        assert!(clocks >= 1, "a DBM needs at least the zero clock");
        let mut w = vec![INF; clocks * clocks];
        for i in 0..clocks {
            w[i * clocks + i] = 0;
        }
        Dbm { n: clocks, w }
    }

    /// Adds the constraint `x_i − x_j ≤ bound`, keeping the tighter of
    /// the new and any existing bound.
    pub fn constrain(&mut self, i: usize, j: usize, bound: i128) {
        let cell = &mut self.w[i * self.n + j];
        if bound < *cell {
            *cell = bound;
        }
    }

    /// The current upper bound on `x_i − x_j` ([`INF`] if unconstrained).
    pub fn bound(&self, i: usize, j: usize) -> i128 {
        self.w[i * self.n + j]
    }

    /// Floyd–Warshall closure: tightens every entry to the shortest
    /// constraint-graph path. Returns `false` if a negative cycle exists
    /// (the constraint system is infeasible).
    pub fn close(&mut self) -> bool {
        let n = self.n;
        for k in 0..n {
            for i in 0..n {
                let wik = self.w[i * n + k];
                if wik >= INF {
                    continue;
                }
                for j in 0..n {
                    let wkj = self.w[k * n + j];
                    if wkj >= INF {
                        continue;
                    }
                    let via = wik + wkj;
                    let cell = &mut self.w[i * n + j];
                    if via < *cell {
                        *cell = via;
                    }
                }
            }
        }
        self.feasible()
    }

    /// `true` when no diagonal entry is negative. Only meaningful after
    /// [`close`](Self::close).
    pub fn feasible(&self) -> bool {
        (0..self.n).all(|i| self.w[i * self.n + i] >= 0)
    }

    /// Tightest derivable upper bound on clock `c` relative to the zero
    /// clock (`x_c ≤ bound`), or [`INF`] when unconstrained.
    pub fn upper(&self, c: usize) -> i128 {
        self.bound(c, 0)
    }

    /// Tightest derivable lower bound on clock `c` relative to the zero
    /// clock (`x_c ≥ bound`), or `-INF` when unconstrained.
    pub fn lower(&self, c: usize) -> i128 {
        let b = self.bound(0, c);
        if b >= INF {
            -INF
        } else {
            -b
        }
    }
}

/// Feasible `[lo, hi]` time range for one pattern: any event row
/// witnessing the pattern in a *complete* match must satisfy
/// `row.start ≥ lo && row.end ≤ hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternBounds {
    /// Lower bound on the pattern's start timestamp (ns).
    pub lo: u64,
    /// Upper bound on the pattern's end timestamp (ns).
    pub hi: u64,
}

impl PatternBounds {
    /// The unconstrained range.
    pub fn unbounded() -> PatternBounds {
        PatternBounds {
            lo: 0,
            hi: u64::MAX,
        }
    }
}

/// Result of running the temporal DBM over an analyzed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalAnalysis {
    /// `false` when the temporal constraints admit no assignment
    /// (ordering cycle, empty window, or window-vs-ordering conflict).
    pub feasible: bool,
    /// Tightened per-pattern bounds, parallel to
    /// [`AnalyzedQuery::pattern_ids`]. All-unbounded when infeasible.
    pub bounds: Vec<PatternBounds>,
    /// Indices into [`AnalyzedQuery`]'s `before` list (equivalently the
    /// query's `temporal` clause) of constraints already implied by the
    /// closure of the *remaining* constraints.
    pub redundant_before: Vec<usize>,
}

/// Clock index of pattern `i`'s start timestamp.
fn start_clock(i: usize) -> usize {
    1 + 2 * i
}

/// Clock index of pattern `i`'s end timestamp.
fn end_clock(i: usize) -> usize {
    2 + 2 * i
}

/// Builds the DBM for `aq`, optionally skipping the `before` constraint
/// at index `skip` (used for redundancy probing).
fn build(aq: &AnalyzedQuery, skip: Option<usize>) -> Dbm {
    let p = aq.pattern_ids.len();
    let mut dbm = Dbm::new(1 + 2 * p);
    for (i, pat) in aq.query.patterns.iter().enumerate() {
        let (s, e) = (start_clock(i), end_clock(i));
        // start_i ≤ end_i and start_i ≥ 0.
        dbm.constrain(s, e, 0);
        dbm.constrain(0, s, 0);
        if let Some(w) = pat.window() {
            // start_i ≥ lo  ⇔  0 − start_i ≤ −lo
            dbm.constrain(0, s, -(w.lo as i128));
            // end_i ≤ hi  ⇔  end_i − 0 ≤ hi
            dbm.constrain(e, 0, w.hi as i128);
        }
    }
    for (k, &(ia, ib)) in aq.before.iter().enumerate() {
        if skip == Some(k) {
            continue;
        }
        // end_a < start_b  ⇔  end_a − start_b ≤ −1 over integral ns.
        dbm.constrain(end_clock(ia), start_clock(ib), -1);
    }
    dbm
}

/// Runs the full temporal analysis: build, close, extract bounds, and
/// probe each `before` constraint for redundancy.
pub fn analyze_temporal(aq: &AnalyzedQuery) -> TemporalAnalysis {
    let p = aq.pattern_ids.len();
    let mut dbm = build(aq, None);
    if !dbm.close() {
        return TemporalAnalysis {
            feasible: false,
            bounds: vec![PatternBounds::unbounded(); p],
            redundant_before: Vec::new(),
        };
    }
    let bounds = (0..p)
        .map(|i| {
            let lo = dbm.lower(start_clock(i)).clamp(0, u64::MAX as i128) as u64;
            let hi = dbm.upper(end_clock(i)).clamp(0, u64::MAX as i128) as u64;
            PatternBounds { lo, hi }
        })
        .collect();
    // A `before` constraint is redundant when the closure of the system
    // *without* it already implies end_a − start_b ≤ −1.
    let mut redundant_before = Vec::new();
    for (k, &(ia, ib)) in aq.before.iter().enumerate() {
        let mut probe = build(aq, Some(k));
        if probe.close() && probe.bound(end_clock(ia), start_clock(ib)) <= -1 {
            redundant_before.push(k);
        }
    }
    TemporalAnalysis {
        feasible: true,
        bounds,
        redundant_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parse_query;

    fn temporal(tbql: &str) -> TemporalAnalysis {
        let q = parse_query(tbql).expect("parse");
        let aq = analyze(&q).expect("analyze");
        analyze_temporal(&aq)
    }

    #[test]
    fn raw_dbm_negative_cycle_detected() {
        let mut d = Dbm::new(3);
        d.constrain(1, 2, -1); // x1 − x2 ≤ −1
        d.constrain(2, 1, -1); // x2 − x1 ≤ −1
        assert!(!d.close());
        assert!(!d.feasible());
    }

    #[test]
    fn raw_dbm_chain_tightens_transitively() {
        let mut d = Dbm::new(4);
        d.constrain(1, 2, -5);
        d.constrain(2, 3, -7);
        assert!(d.close());
        assert_eq!(d.bound(1, 3), -12);
        assert_eq!(d.bound(1, 2), -5);
    }

    #[test]
    fn unconstrained_query_is_feasible_and_unbounded() {
        let t = temporal(r#"proc p read file f as e1 return p"#);
        assert!(t.feasible);
        assert_eq!(t.bounds, vec![PatternBounds::unbounded()]);
        assert!(t.redundant_before.is_empty());
    }

    #[test]
    fn ordering_cycle_is_infeasible() {
        let t = temporal(
            r#"proc p read file f as e1
               proc p write file g as e2
               with e1 before e2, e2 before e1
               return p"#,
        );
        assert!(!t.feasible);
    }

    #[test]
    fn empty_window_is_infeasible() {
        let t = temporal(r#"proc p read file f as e1 window [900, 100] return p"#);
        assert!(!t.feasible);
    }

    #[test]
    fn ordering_against_windows_is_infeasible() {
        // e1 must end before e2 starts, but e1 lives at [300, 400] and
        // e2 at [100, 200].
        let t = temporal(
            r#"proc p read file f as e1 window [300, 400]
               proc p write file g as e2 window [100, 200]
               with e1 before e2
               return p"#,
        );
        assert!(!t.feasible);
    }

    #[test]
    fn windows_propagate_through_before_chain() {
        // e1 ends ≤ 200 and e1 < e2 < e3, so e2 starts ≥ … and e3
        // inherits both its own window and the chain.
        let t = temporal(
            r#"proc p read file f as e1 window [100, 200]
               proc p write file g as e2
               proc p execute file h as e3 window [0, 900]
               with e1 before e2, e2 before e3
               return p"#,
        );
        assert!(t.feasible);
        // e1: its own window.
        assert_eq!(t.bounds[0], PatternBounds { lo: 100, hi: 200 });
        // e2: starts after e1 ends (≥ window lo + 1 = 101), ends before
        // e3 starts, and e3 ends ≤ 900 ⇒ e2.end ≤ 899.
        assert_eq!(t.bounds[1], PatternBounds { lo: 101, hi: 899 });
        // e3: starts after e2 which starts after e1 ⇒ ≥ 102.
        assert_eq!(t.bounds[2], PatternBounds { lo: 102, hi: 900 });
        assert!(t.redundant_before.is_empty());
    }

    #[test]
    fn transitive_before_is_redundant() {
        let t = temporal(
            r#"proc p read file f as e1
               proc p write file g as e2
               proc p execute file h as e3
               with e1 before e2, e2 before e3, e1 before e3
               return p"#,
        );
        assert!(t.feasible);
        assert_eq!(t.redundant_before, vec![2]);
    }

    #[test]
    fn duplicate_before_is_redundant() {
        let t = temporal(
            r#"proc p read file f as e1
               proc p write file g as e2
               with e1 before e2, e1 before e2
               return p"#,
        );
        assert!(t.feasible);
        // Each copy is implied by the other; both probe as redundant.
        assert_eq!(t.redundant_before, vec![0, 1]);
    }

    #[test]
    fn window_tightening_respects_u64_domain() {
        let t = temporal(
            r#"proc p read file f as e1
               proc p write file g as e2 window [0, 50]
               with e1 before e2
               return p"#,
        );
        assert!(t.feasible);
        // e1 must fully precede e2 whose start ≤ end ≤ 50 ⇒ e1.end ≤ 49.
        assert_eq!(t.bounds[0], PatternBounds { lo: 0, hi: 49 });
        assert_eq!(t.bounds[1], PatternBounds { lo: 1, hi: 50 });
    }
}
