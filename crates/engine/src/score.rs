//! Pruning scores (paper §II-F).
//!
//! "For each pattern, ThreatRaptor computes a pruning score by counting
//! the number of constraints declared; a pattern with more constraints
//! has a higher score. For a variable-length event path pattern,
//! ThreatRaptor additionally considers the path length; a pattern with a
//! smaller maximum path length has a higher score."
//!
//! Two refinements over the bare count, both selectivity-motivated:
//! constraints are counted at the *variable* level (a filter declared on
//! `p1` in `evt1` constrains every pattern that mentions `p1`), and
//! equality constraints earn a bonus over wildcard (`LIKE`) constraints —
//! an exact IP pins far fewer rows than a substring match.

use threatraptor_tbql::analyze::{Cond, EntityInfo};
use threatraptor_tbql::ast::{CmpOp, TimeWindow};

/// Counts `(total constraints, equality constraints)` in a filter.
fn cond_counts(c: &Cond) -> (i64, i64) {
    match c {
        Cond::Cmp { op, .. } => (1, i64::from(*op == CmpOp::Eq)),
        Cond::And(legs) | Cond::Or(legs) => legs
            .iter()
            .map(cond_counts)
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d)),
    }
}

/// Computes the pruning score of a pattern from its endpoint variables'
/// merged filters, its window, and its maximum path length (1 for event
/// patterns).
///
/// Scale: constraint count dominates, the equality bonus breaks ties
/// between equally-constrained patterns, and the path-length penalty
/// breaks the remaining ties.
pub fn pruning_score(
    subject: &EntityInfo,
    object: &EntityInfo,
    window: Option<TimeWindow>,
    max_len: u32,
) -> i64 {
    let mut constraints = 0i64;
    let mut equalities = 0i64;
    for info in [subject, object] {
        for f in &info.filters {
            let (c, e) = cond_counts(f);
            constraints += c;
            equalities += e;
        }
    }
    if window.is_some() {
        constraints += 1;
    }
    constraints * 1_000 + equalities * 10 - i64::from(max_len)
}

#[cfg(test)]
mod tests {
    use threatraptor_tbql::analyze::analyze;
    use threatraptor_tbql::parser::parse_query;

    fn scores(src: &str) -> Vec<i64> {
        let aq = analyze(&parse_query(src).unwrap()).unwrap();
        let compiled = crate::compile::compile(&aq).unwrap();
        compiled.patterns.iter().map(|p| p.score).collect()
    }

    #[test]
    fn more_filters_score_higher() {
        let s = scores(
            r#"proc p["%a%"] read file f["%b%"] as e1
               proc q read file g as e2
               return p"#,
        );
        assert!(s[0] > s[1]);
    }

    #[test]
    fn variable_level_counting() {
        // evt2 reuses p (filtered at evt1): the filter constrains both.
        let s = scores(
            r#"proc p["%a%"] read file f["%b%"] as e1
               p write file g["%c%"] as e2
               return p"#,
        );
        assert_eq!(s[0], s[1], "shared variable carries its constraint");
    }

    #[test]
    fn equality_beats_like() {
        let s = scores(
            r#"proc p["%tar%"] read file f["%passwd%"] as e1
               proc q["%curl%"] connect ip i["192.168.29.128"] as e2
               return p"#,
        );
        assert!(s[1] > s[0], "the exact IP match is more selective: {s:?}");
    }

    #[test]
    fn window_counts_as_constraint() {
        let s = scores("proc p read file f as e1 window [1, 2] proc q read file g as e2 return p");
        assert!(s[0] > s[1]);
    }

    #[test]
    fn shorter_paths_beat_longer_paths() {
        let s = scores(
            r#"proc p["%a%"] ~>(1~2)[read] file f as e1
               proc q["%a%"] ~>(1~7)[read] file g as e2
               return p"#,
        );
        assert!(s[0] > s[1]);
    }

    #[test]
    fn constraints_dominate_length_and_equality() {
        let s = scores(
            r#"proc p["%a%"] ~>(1~8)[read] file f["%b%"] as e1
               proc q ~>(1~1)[read] file g as e2
               return p"#,
        );
        assert!(s[0] > s[1], "two LIKEs beat zero constraints: {s:?}");
    }
}
