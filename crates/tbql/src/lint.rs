//! Static query lints over analyzed TBQL.
//!
//! The lint pass runs after semantic analysis and before plan
//! compilation. It produces structured [`Diagnostic`] values with stable
//! codes so services and tooling can match on them:
//!
//! | code   | severity | meaning                                              |
//! |--------|----------|------------------------------------------------------|
//! | `E001` | error    | temporal constraints are infeasible (ordering cycle, empty window, window-vs-ordering conflict) |
//! | `E002` | error    | an entity's merged attribute filters can never all hold |
//! | `W001` | warning  | entity variable is unconstrained: single mention, no filter, not returned |
//! | `W002` | warning  | pattern shares no entities or ordering with any returned entity (pure cross product) |
//! | `W003` | warning  | tautological predicate (e.g. `like "%"`) matches every value |
//! | `W004` | warning  | temporal constraint already implied by the DBM closure of the others |
//!
//! Error-level diagnostics make the query a *rejection*: the engine's
//! `compile` refuses it, and the service layer surfaces
//! `ServiceError::Infeasible` without ever touching the store. Warnings
//! ride along with the compiled plan (the plan cache stores the report)
//! and never block execution.

use crate::analyze::{AnalyzedQuery, Cond};
use crate::ast::{CmpOp, EntityRef, Lit, TemporalRel};
use crate::dbm::{analyze_temporal, TemporalAnalysis};
use crate::error::{render_with_source, Span};
use std::collections::{HashMap, HashSet};
use threatraptor_audit::entity::Field;

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the query runs, but likely not as intended.
    Warning,
    /// The query can never produce a match; it is rejected at compile
    /// time.
    Error,
}

impl Severity {
    /// Lowercase label (`"warning"` / `"error"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One structured lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`E0xx` errors, `W0xx` warnings).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Source location.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Renders the diagnostic with a source excerpt and caret line.
    pub fn render(&self, source: &str) -> String {
        let label = format!("{}[{}]", self.severity.label(), self.code);
        render_with_source(&label, &self.message, self.span, source)
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.code,
            self.message
        )
    }
}

/// The lint pass's output: diagnostics plus the temporal analysis the
/// compiler reuses for scan clamping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Findings, errors first, then in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// DBM feasibility and tightened per-pattern bounds.
    pub temporal: TemporalAnalysis,
}

impl LintReport {
    /// `true` when any diagnostic is error-level.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Error-level diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-level diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Renders every diagnostic against the query source.
    pub fn render(&self, source: &str) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render(source))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Runs every lint over an analyzed query.
pub fn lint(aq: &AnalyzedQuery) -> LintReport {
    let temporal = analyze_temporal(aq);
    let mut diagnostics = Vec::new();
    lint_temporal(aq, &temporal, &mut diagnostics);
    lint_filters(aq, &mut diagnostics);
    lint_unused_variables(aq, &mut diagnostics);
    lint_dead_patterns(aq, &mut diagnostics);
    // Errors first, then source order, then code — a stable presentation
    // independent of lint execution order.
    diagnostics.sort_by_key(|d| (std::cmp::Reverse(d.severity), d.span.start, d.code));
    LintReport {
        diagnostics,
        temporal,
    }
}

/// E001 / W004: DBM feasibility and redundancy findings.
fn lint_temporal(aq: &AnalyzedQuery, temporal: &TemporalAnalysis, out: &mut Vec<Diagnostic>) {
    if !temporal.feasible {
        // Attribute empty windows precisely; fall back to the temporal
        // clause for ordering/window conflicts.
        let mut empty_window = false;
        for (i, pat) in aq.query.patterns.iter().enumerate() {
            if let Some(w) = pat.window() {
                if w.lo > w.hi {
                    empty_window = true;
                    out.push(Diagnostic {
                        code: "E001",
                        severity: Severity::Error,
                        span: pat.span(),
                        message: format!(
                            "pattern `{}` window [{}, {}] is empty (lower bound exceeds upper \
                             bound); no event can fall inside it",
                            aq.pattern_ids[i], w.lo, w.hi
                        ),
                    });
                }
            }
        }
        if !empty_window {
            let span = aq
                .query
                .temporal
                .iter()
                .map(|t| t.span)
                .reduce(Span::merge)
                .unwrap_or_default();
            out.push(Diagnostic {
                code: "E001",
                severity: Severity::Error,
                span,
                message: "temporal constraints are infeasible: no timestamps satisfy the \
                          `before` ordering together with the window bounds"
                    .to_string(),
            });
        }
        return;
    }
    for &k in &temporal.redundant_before {
        let Some(tc) = aq.query.temporal.get(k) else {
            continue;
        };
        let rel = match tc.rel {
            TemporalRel::Before => "before",
            TemporalRel::After => "after",
        };
        out.push(Diagnostic {
            code: "W004",
            severity: Severity::Warning,
            span: tc.span,
            message: format!(
                "`{} {} {}` is already implied by the remaining temporal constraints",
                tc.left, rel, tc.right
            ),
        });
    }
}

/// Flattens a conjunction of filters into its comparison leaves,
/// recursing through `And` (an `Or` leg is not a conjunct and is
/// skipped).
fn conjunct_cmps<'a>(filters: &'a [Cond], out: &mut Vec<(Field, CmpOp, &'a Lit)>) {
    for f in filters {
        match f {
            Cond::Cmp { field, op, value } => out.push((*field, *op, value)),
            Cond::And(legs) => conjunct_cmps(legs, out),
            Cond::Or(_) => {}
        }
    }
}

/// Interval/value-set satisfiability for one attribute's conjuncts.
struct AttrState<'a> {
    lo: i128,
    hi: i128,
    int_eq: Option<i64>,
    int_ne: HashSet<i64>,
    str_eq: Option<&'a str>,
    str_ne: HashSet<&'a str>,
}

impl<'a> AttrState<'a> {
    fn new() -> AttrState<'a> {
        AttrState {
            lo: i128::MIN,
            hi: i128::MAX,
            int_eq: None,
            int_ne: HashSet::new(),
            str_eq: None,
            str_ne: HashSet::new(),
        }
    }

    /// Folds one comparison in; returns a conflict description when the
    /// conjunction becomes unsatisfiable.
    fn add(&mut self, op: CmpOp, value: &'a Lit) -> Option<String> {
        match value {
            Lit::Int(v) => {
                let v = *v;
                match op {
                    CmpOp::Eq => {
                        if let Some(prev) = self.int_eq {
                            if prev != v {
                                return Some(format!("= {prev} conflicts with = {v}"));
                            }
                        }
                        self.int_eq = Some(v);
                    }
                    CmpOp::Ne => {
                        self.int_ne.insert(v);
                    }
                    CmpOp::Lt => self.hi = self.hi.min(v as i128 - 1),
                    CmpOp::Le => self.hi = self.hi.min(v as i128),
                    CmpOp::Gt => self.lo = self.lo.max(v as i128 + 1),
                    CmpOp::Ge => self.lo = self.lo.max(v as i128),
                    CmpOp::Like => {}
                }
            }
            Lit::Str(s) => {
                // LIKE without wildcards is an exact match.
                let effective = match op {
                    CmpOp::Like if !s.contains('%') && !s.contains('_') => CmpOp::Eq,
                    other => other,
                };
                match effective {
                    CmpOp::Eq => {
                        if let Some(prev) = self.str_eq {
                            if prev != s {
                                return Some(format!("= \"{prev}\" conflicts with = \"{s}\""));
                            }
                        }
                        self.str_eq = Some(s);
                    }
                    CmpOp::Ne => {
                        self.str_ne.insert(s);
                    }
                    _ => {}
                }
            }
        }
        self.conflict()
    }

    fn conflict(&self) -> Option<String> {
        if let Some(v) = self.int_eq {
            if (v as i128) < self.lo || (v as i128) > self.hi {
                return Some(format!("= {v} falls outside the required range"));
            }
            if self.int_ne.contains(&v) {
                return Some(format!("= {v} conflicts with != {v}"));
            }
        }
        if self.lo > self.hi {
            return Some("range constraints are empty".to_string());
        }
        if self.lo == self.hi && self.int_ne.contains(&(self.lo as i64)) {
            return Some(format!(
                "range pins {} but != {} excludes it",
                self.lo, self.lo
            ));
        }
        if let Some(s) = self.str_eq {
            if self.str_ne.contains(s) {
                return Some(format!("= \"{s}\" conflicts with != \"{s}\""));
            }
        }
        None
    }
}

/// E002 / W003: per-entity merged-filter satisfiability and tautologies.
fn lint_filters(aq: &AnalyzedQuery, out: &mut Vec<Diagnostic>) {
    for (var, info) in &aq.entities {
        let span = first_mention(aq, var).map(|e| e.span).unwrap_or_default();
        // E002: conjunction of Cmp leaves unsatisfiable.
        let mut cmps = Vec::new();
        conjunct_cmps(&info.filters, &mut cmps);
        let mut by_field: HashMap<Field, AttrState<'_>> = HashMap::new();
        for (field, op, value) in cmps {
            let state = by_field.entry(field).or_insert_with(AttrState::new);
            if let Some(detail) = state.add(op, value) {
                out.push(Diagnostic {
                    code: "E002",
                    severity: Severity::Error,
                    span,
                    message: format!(
                        "filters on `{var}` can never match: attribute `{}` {detail}",
                        field.name()
                    ),
                });
                break;
            }
        }
        // W003: a whole filter leg that is always true.
        for f in &info.filters {
            if is_tautology(f) {
                out.push(Diagnostic {
                    code: "W003",
                    severity: Severity::Warning,
                    span,
                    message: format!(
                        "filter on `{var}` is always true (a `%`-only pattern matches every \
                         value) and can be dropped"
                    ),
                });
                break;
            }
        }
    }
}

/// `true` when the filter matches every entity.
fn is_tautology(c: &Cond) -> bool {
    match c {
        Cond::Cmp {
            op: CmpOp::Like,
            value: Lit::Str(s),
            ..
        } => !s.is_empty() && s.chars().all(|c| c == '%'),
        Cond::Cmp { .. } => false,
        Cond::And(legs) => legs.iter().all(is_tautology),
        Cond::Or(legs) => legs.iter().any(is_tautology),
    }
}

/// First pattern mention (subject or object) of an entity variable.
fn first_mention<'a>(aq: &'a AnalyzedQuery, var: &str) -> Option<&'a EntityRef> {
    aq.query
        .patterns
        .iter()
        .find_map(|p| [p.subject(), p.object()].into_iter().find(|e| e.id == var))
}

/// W001: entity variables that constrain nothing.
fn lint_unused_variables(aq: &AnalyzedQuery, out: &mut Vec<Diagnostic>) {
    let returned: HashSet<&str> = aq.returns.iter().map(|(v, _)| v.as_str()).collect();
    for (var, info) in &aq.entities {
        let mentions: usize = aq
            .query
            .patterns
            .iter()
            .map(|p| {
                [p.subject(), p.object()]
                    .iter()
                    .filter(|e| e.id == *var)
                    .count()
            })
            .sum();
        if mentions == 1 && info.filters.is_empty() && !returned.contains(var.as_str()) {
            let span = first_mention(aq, var).map(|e| e.span).unwrap_or_default();
            out.push(Diagnostic {
                code: "W001",
                severity: Severity::Warning,
                span,
                message: format!(
                    "entity `{var}` is unconstrained: it has no filter, is not shared with \
                     another pattern, and is not returned"
                ),
            });
        }
    }
}

/// W002: patterns with no entity or ordering connection to any returned
/// entity — they join as pure cross products.
fn lint_dead_patterns(aq: &AnalyzedQuery, out: &mut Vec<Diagnostic>) {
    let n = aq.query.patterns.len();
    if n <= 1 {
        return;
    }
    // Adjacency: shared entity variable or temporal constraint.
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            let (pi, pj) = (&aq.query.patterns[i], &aq.query.patterns[j]);
            let shares = [pi.subject().id.as_str(), pi.object().id.as_str()]
                .iter()
                .any(|v| *v == pj.subject().id || *v == pj.object().id);
            if shares {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for &(a, b) in &aq.before {
        adj[a].push(b);
        adj[b].push(a);
    }
    // Seed liveness from patterns mentioning a returned entity.
    let returned: HashSet<&str> = aq.returns.iter().map(|(v, _)| v.as_str()).collect();
    let mut live = vec![false; n];
    let mut queue: Vec<usize> = (0..n)
        .filter(|&i| {
            let p = &aq.query.patterns[i];
            returned.contains(p.subject().id.as_str()) || returned.contains(p.object().id.as_str())
        })
        .collect();
    for &i in &queue {
        live[i] = true;
    }
    while let Some(i) = queue.pop() {
        for &j in &adj[i] {
            if !live[j] {
                live[j] = true;
                queue.push(j);
            }
        }
    }
    for i in (0..n).filter(|&i| !live[i]) {
        out.push(Diagnostic {
            code: "W002",
            severity: Severity::Warning,
            span: aq.query.patterns[i].span(),
            message: format!(
                "pattern `{}` shares no entities or temporal ordering with any returned \
                 entity; it only gates or multiplies results",
                aq.pattern_ids[i]
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::{parse_query, FIG2_TBQL};

    fn report(tbql: &str) -> LintReport {
        lint(&analyze(&parse_query(tbql).expect("parse")).expect("analyze"))
    }

    fn codes(r: &LintReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_query_has_no_diagnostics() {
        let r = report(r#"proc p["%tar%"] read file f["/etc/%"] as e1 return p, f"#);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(r.temporal.feasible);
        assert!(!r.has_errors());
    }

    #[test]
    fn fig2_is_clean() {
        let r = report(FIG2_TBQL);
        assert!(!r.has_errors(), "{:?}", r.diagnostics);
    }

    #[test]
    fn ordering_cycle_is_e001() {
        let r = report(
            "proc p read file f as e1 proc p write file g as e2 \
             with e1 before e2, e2 before e1 return p, f, g",
        );
        assert!(r.has_errors());
        assert_eq!(codes(&r), vec!["E001"]);
        assert!(!r.temporal.feasible);
    }

    #[test]
    fn empty_window_is_e001_with_pattern_span() {
        let src = "proc p read file f as e1 window [900, 100] return p, f";
        let r = report(src);
        assert_eq!(codes(&r), vec!["E001"]);
        let d = &r.diagnostics[0];
        assert!(d.message.contains("window [900, 100] is empty"), "{d}");
        assert!(d.render(src).contains("^"));
    }

    #[test]
    fn window_ordering_conflict_is_e001() {
        let r = report(
            "proc p read file f as e1 window [300, 400] \
             proc p write file g as e2 window [100, 200] \
             with e1 before e2 return p, f, g",
        );
        assert_eq!(codes(&r), vec!["E001"]);
        assert!(r.diagnostics[0].message.contains("infeasible"));
    }

    #[test]
    fn contradictory_string_filters_are_e002() {
        let r = report(
            r#"proc p["/bin/tar"] read file f
               proc p["/bin/gzip"] write file g
               return p, f, g"#,
        );
        assert_eq!(codes(&r), vec!["E002"]);
        assert!(r.diagnostics[0].message.contains("exename"));
    }

    #[test]
    fn contradictory_numeric_range_is_e002() {
        let r = report(r#"proc p[pid > 10 && pid < 5] read file f return p, f"#);
        assert_eq!(codes(&r), vec!["E002"]);
        let r = report(r#"proc p[pid = 4 && pid >= 9] read file f return p, f"#);
        assert_eq!(codes(&r), vec!["E002"]);
        let r = report(r#"proc p[pid = 4 && pid != 4] read file f return p, f"#);
        assert_eq!(codes(&r), vec!["E002"]);
    }

    #[test]
    fn eq_vs_ne_string_is_e002() {
        let r = report(r#"proc p[owner = "root" && owner != "root"] read file f return p, f"#);
        assert_eq!(codes(&r), vec!["E002"]);
    }

    #[test]
    fn satisfiable_ranges_are_clean() {
        let r = report(r#"proc p[pid > 10 && pid < 50 && pid != 30] read file f return p, f"#);
        assert!(!r.has_errors(), "{:?}", r.diagnostics);
        // Disjunctions are not conjuncts; never a false positive.
        let r = report(r#"proc p[owner = "root" || owner = "admin"] read file f return p, f"#);
        assert!(!r.has_errors(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unused_variable_is_w001() {
        let r = report("proc p read file f return p");
        assert_eq!(codes(&r), vec!["W001"]);
        assert!(r.diagnostics[0].message.contains("`f`"));
        assert!(!r.has_errors());
    }

    #[test]
    fn returned_or_filtered_or_shared_variables_are_used() {
        // Returned.
        assert!(report("proc p read file f return p, f")
            .diagnostics
            .is_empty());
        // Filtered.
        assert!(report(r#"proc p read file f["/etc/passwd"] return p"#)
            .diagnostics
            .is_empty());
        // Shared across patterns.
        assert!(report("proc p read file f proc q write file f return p, q")
            .diagnostics
            .is_empty());
    }

    #[test]
    fn disconnected_pattern_is_w002() {
        let r = report(
            r#"proc p["%tar%"] read file f
               proc q["%ssh%"] write file g["/tmp/%"]
               return p, f"#,
        );
        assert_eq!(codes(&r), vec!["W002"]);
        assert!(r.diagnostics[0].message.contains("`evt2`"));
    }

    #[test]
    fn temporal_link_keeps_pattern_live() {
        let r = report(
            r#"proc p["%tar%"] read file f as e1
               proc q["%ssh%"] write file g["/tmp/%"] as e2
               with e1 before e2
               return p, f"#,
        );
        assert!(codes(&r).is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn tautological_like_is_w003() {
        let r = report(r#"proc p["%"] read file f return p, f"#);
        assert_eq!(codes(&r), vec!["W003"]);
    }

    #[test]
    fn redundant_transitive_before_is_w004() {
        let r = report(
            "proc p read file f as e1 proc p write file g as e2 \
             proc p execute file h as e3 \
             with e1 before e2, e2 before e3, e1 before e3 \
             return p, f, g, h",
        );
        assert_eq!(codes(&r), vec!["W004"]);
        assert!(r.diagnostics[0].message.contains("e1 before e3"));
    }

    #[test]
    fn errors_sort_before_warnings() {
        let r = report(
            "proc p read file f as e1 window [900, 100] \
             proc p write file g \
             return p, f",
        );
        let cs = codes(&r);
        assert_eq!(cs[0], "E001");
        assert!(cs.contains(&"W001"), "{cs:?}"); // g unconstrained
        assert!(r.has_errors());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), cs.len() - 1);
    }

    #[test]
    fn display_and_render_are_stable() {
        let src = "proc p read file f return p";
        let r = report(src);
        let d = &r.diagnostics[0];
        assert_eq!(d.to_string(), format!("warning[W001]: {}", d.message));
        assert!(r.render(src).contains("warning[W001]"));
    }
}
