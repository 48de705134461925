//! The synthesis driver: screened graph → TBQL query.

use crate::plan::{DefaultPlan, EdgeShape, SynthesisPlan};
use crate::rules::{map_relation, ObjectClass};
use crate::screen::screen;
use std::collections::HashMap;
use std::fmt;
use threatraptor_nlp::graph::ThreatBehaviorGraph;
use threatraptor_nlp::ioc::IocType;
use threatraptor_tbql::ast::{EntityKind, Query};
use threatraptor_tbql::builder::QueryBuilder;

/// Synthesis failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The behavior graph has no edges at all.
    EmptyGraph,
    /// Screening removed every edge (nothing auditable remains).
    NoAuditableBehavior,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::EmptyGraph => {
                f.write_str("threat behavior graph has no relations to synthesize")
            }
            SynthesisError::NoAuditableBehavior => f.write_str(
                "no auditable behavior: every IOC relation was screened out \
                 (hashes, domains, CVEs … are not captured by system auditing)",
            ),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Synthesizes a TBQL query with the default plan.
pub fn synthesize(graph: &ThreatBehaviorGraph) -> Result<Query, SynthesisError> {
    synthesize_with_plan(graph, &DefaultPlan)
}

/// Synthesizes a TBQL query with a custom plan.
pub fn synthesize_with_plan(
    graph: &ThreatBehaviorGraph,
    plan: &dyn SynthesisPlan,
) -> Result<Query, SynthesisError> {
    if graph.edge_count() == 0 {
        return Err(SynthesisError::EmptyGraph);
    }
    let screened = screen(graph);
    if screened.edge_count() == 0 {
        return Err(SynthesisError::NoAuditableBehavior);
    }

    // Entity id assignment, per (node, role): the same IOC can act as a
    // process (subject role) and as a file (object role) — e.g. a dropped
    // binary that later runs.
    let mut proc_ids: HashMap<usize, String> = HashMap::new();
    let mut file_ids: HashMap<usize, String> = HashMap::new();
    let mut ip_ids: HashMap<(usize, usize), String> = HashMap::new();
    let mut order: Vec<String> = Vec::new(); // return-clause order

    let mut builder = QueryBuilder::new();
    let mut pattern_names: Vec<String> = Vec::new();

    // Edges in sequence order. Distinct relation verbs can map to the
    // same operation (`compress` and `read` both become `read`); keep the
    // first pattern per (subject, operations, object) triple.
    let mut edges: Vec<&threatraptor_nlp::graph::BehaviorEdge> = screened.edges.iter().collect();
    edges.sort_by_key(|e| e.seq);
    let mut seen_patterns: std::collections::HashSet<(usize, Vec<&'static str>, usize)> =
        std::collections::HashSet::new();

    let mut i = 0usize;
    for edge in edges.iter() {
        let src = &screened.nodes[edge.src];
        let dst = &screened.nodes[edge.dst];
        let class = ObjectClass::of(dst.ty).expect("screened nodes are auditable");
        let mapping = map_relation(&edge.verb, class);
        if !seen_patterns.insert((edge.src, mapping.ops.clone(), edge.dst)) {
            continue;
        }

        // Subject: always a proc entity.
        let fresh_subj = !proc_ids.contains_key(&edge.src);
        if fresh_subj {
            let id = format!("p{}", proc_ids.len() + 1);
            order.push(id.clone());
            proc_ids.insert(edge.src, id);
        }
        let subj_id = proc_ids[&edge.src].clone();
        let subj_filter = if fresh_subj {
            Some(proc_filter(&src.text))
        } else {
            None
        };

        // Object: file or ip entity.
        let (obj_id, fresh_obj, obj_ty, obj_filter_text) = match class {
            ObjectClass::File => {
                let fresh = !file_ids.contains_key(&edge.dst);
                if fresh {
                    let id = format!("f{}", file_ids.len() + 1);
                    order.push(id.clone());
                    file_ids.insert(edge.dst, id);
                }
                (
                    file_ids[&edge.dst].clone(),
                    fresh,
                    EntityKind::File,
                    file_filter(&dst.text),
                )
            }
            ObjectClass::Net => {
                // Connections are ephemeral per-flow entities: the same
                // C2 *address* across two steps almost never means the
                // same *connection*, so every network mention gets a
                // fresh entity variable with the address filter repeated
                // (entity-ID reuse would demand one shared connection).
                let n = ip_ids.len() + 1;
                let id = format!("i{n}");
                ip_ids.insert((edge.dst, n), id.clone());
                order.push(id.clone());
                (id, true, EntityKind::Network, ip_filter(&dst.text, dst.ty))
            }
        };
        let obj_filter = if fresh_obj {
            Some(obj_filter_text)
        } else {
            None
        };

        i += 1;
        let name = format!("evt{i}");
        let window = plan.window();
        match plan.shape(edge, &mapping.ops) {
            EdgeShape::Event(ops) => {
                let subj_spec = (
                    subj_id.as_str(),
                    fresh_subj.then_some(EntityKind::Process),
                    subj_filter.as_deref(),
                );
                let obj_spec = (
                    obj_id.as_str(),
                    fresh_obj.then_some(obj_ty),
                    obj_filter.as_deref(),
                );
                builder = builder.event(subj_spec, &ops, obj_spec, Some(&name), window);
            }
            EdgeShape::Path { min, max, last_op } => {
                let subj_spec = (
                    subj_id.as_str(),
                    fresh_subj.then_some(EntityKind::Process),
                    subj_filter.as_deref(),
                );
                let obj_spec = (
                    obj_id.as_str(),
                    fresh_obj.then_some(obj_ty),
                    obj_filter.as_deref(),
                );
                builder = builder.path(subj_spec, Some((min, max)), last_op, obj_spec, Some(&name));
            }
        }
        pattern_names.push(name);
    }

    // Temporal chain by sequence order.
    if plan.temporal_chain() {
        for w in pattern_names.windows(2) {
            builder = builder.before(&w[0], &w[1]);
        }
    }

    // Return clause: all entity ids, first-use order.
    let refs: Vec<&str> = order.iter().map(String::as_str).collect();
    Ok(builder.return_entities(true, &refs).build())
}

/// Subject filter: substring match on the executable path.
fn proc_filter(text: &str) -> String {
    format!("%{text}%")
}

/// File filter: substring match on the path (bare file names match any
/// directory).
fn file_filter(text: &str) -> String {
    format!("%{text}%")
}

/// IP filter: exact IP; subnets become prefix patterns on octet
/// boundaries (/32 exact, /24 `a.b.c.%`, /16 `a.b.%`, /8 `a.%`).
fn ip_filter(text: &str, ty: IocType) -> String {
    if ty == IocType::Ip {
        return text.to_string();
    }
    let Some((ip, mask)) = text.split_once('/') else {
        return text.to_string();
    };
    let octets: Vec<&str> = ip.split('.').collect();
    match (mask, octets.as_slice()) {
        ("32", _) => ip.to_string(),
        ("24", [a, b, c, _]) => format!("{a}.{b}.{c}.%"),
        ("16", [a, b, _, _]) => format!("{a}.{b}.%"),
        ("8", [a, _, _, _]) => format!("{a}.%"),
        _ => ip.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PathPatternPlan, TimeWindowPlan};
    use threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT;
    use threatraptor_nlp::ThreatExtractor;
    use threatraptor_tbql::analyze::analyze;
    use threatraptor_tbql::ast::{Pattern, TimeWindow};
    use threatraptor_tbql::printer::print_query;

    fn fig2_graph() -> ThreatBehaviorGraph {
        ThreatExtractor::new().extract(FIG2_OSCTI_TEXT).graph
    }

    #[test]
    fn fig2_synthesis_contains_the_eight_patterns() {
        let q = synthesize(&fig2_graph()).expect("synthesizes");
        let a = analyze(&q).expect("synthesized query analyzes cleanly");
        let text = print_query(&q);

        // The Fig. 2 query, pattern for pattern (entity reuses print
        // bare, without the type keyword or filter).
        for needle in [
            r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1"#,
            r#"p1 write file f2["%/tmp/upload.tar%"] as evt2"#,
            r#"proc p2["%/bin/bzip2%"] read f2 as evt3"#,
            r#"p2 write file f3["%/tmp/upload.tar.bz2%"] as evt4"#,
            r#"proc p3["%/usr/bin/gpg%"] read f3 as evt5"#,
            r#"p3 write file f4["%/tmp/upload%"] as evt6"#,
            r#"proc p4["%/usr/bin/curl%"] read f4 as evt7"#,
            r#"p4 connect ip i1["192.168.29.128"] as evt8"#,
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        assert_eq!(q.pattern_count(), 8, "exactly the Fig. 2 patterns:\n{text}");
        assert!(text.contains(
            "with evt1 before evt2, evt2 before evt3, evt3 before evt4, \
             evt4 before evt5, evt5 before evt6, evt6 before evt7, evt7 before evt8"
        ));
        // Return clause order matches Fig. 2 exactly.
        assert!(text.contains("return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1"));
        assert!(a.distinct);
        assert_eq!(a.before.len(), 7);
    }

    #[test]
    fn screening_failure_reported() {
        let result = ThreatExtractor::new().extract(
            "The sample beacons to update.evil-cdn.net and then resolves cdn.evil-cdn.net.",
        );
        let err = synthesize(&result.graph).unwrap_err();
        assert!(matches!(
            err,
            SynthesisError::NoAuditableBehavior | SynthesisError::EmptyGraph
        ));
        let empty = ThreatBehaviorGraph::default();
        assert_eq!(synthesize(&empty).unwrap_err(), SynthesisError::EmptyGraph);
    }

    #[test]
    fn shared_entities_reuse_ids_without_filters() {
        let q = synthesize(&fig2_graph()).unwrap();
        // f2 appears twice; the second mention must be bare (no filter).
        let mut f2_mentions = 0;
        for p in &q.patterns {
            let Pattern::Event(e) = p else { continue };
            if e.object.id == "f2" {
                f2_mentions += 1;
                if f2_mentions == 2 {
                    assert!(e.object.filter.is_none());
                    assert!(e.object.ty.is_none());
                }
            }
        }
        assert!(f2_mentions >= 2);
    }

    #[test]
    fn path_plan_produces_path_patterns() {
        let q = synthesize_with_plan(
            &fig2_graph(),
            &PathPatternPlan {
                min_hops: 1,
                max_hops: 3,
            },
        )
        .unwrap();
        assert!(q.patterns.iter().all(|p| matches!(p, Pattern::Path(_))));
        assert!(q.temporal.is_empty());
        let text = print_query(&q);
        assert!(text.contains("~>(1~3)[read]"), "{text}");
        analyze(&q).expect("path query analyzes");
    }

    #[test]
    fn window_plan_stamps_every_pattern() {
        let q = synthesize_with_plan(
            &fig2_graph(),
            &TimeWindowPlan {
                window: TimeWindow { lo: 0, hi: 10_000 },
            },
        )
        .unwrap();
        for p in &q.patterns {
            let Pattern::Event(e) = p else { panic!() };
            assert_eq!(e.window, Some(TimeWindow { lo: 0, hi: 10_000 }));
        }
        analyze(&q).expect("windowed query analyzes");
    }

    #[test]
    fn ip_subnet_filters() {
        assert_eq!(ip_filter("10.0.0.1", IocType::Ip), "10.0.0.1");
        assert_eq!(
            ip_filter("192.168.29.128/32", IocType::IpSubnet),
            "192.168.29.128"
        );
        assert_eq!(ip_filter("10.1.2.0/24", IocType::IpSubnet), "10.1.2.%");
        assert_eq!(ip_filter("10.1.0.0/16", IocType::IpSubnet), "10.1.%");
        assert_eq!(ip_filter("10.0.0.0/8", IocType::IpSubnet), "10.%");
        assert_eq!(ip_filter("10.1.2.0/28", IocType::IpSubnet), "10.1.2.0");
    }

    #[test]
    fn dropped_binary_gets_both_roles() {
        let text = "The attacker used /usr/bin/wget to download /tmp/cracker. \
                    Then /tmp/cracker read /etc/shadow.";
        let g = ThreatExtractor::new().extract(text).graph;
        let q = synthesize(&g).unwrap();
        let printed = print_query(&q);
        // /tmp/cracker appears as a file object AND as a proc subject.
        assert!(
            printed.contains(r#"file f1["%/tmp/cracker%"]"#),
            "{printed}"
        );
        assert!(
            printed.contains(r#"proc p2["%/tmp/cracker%"]"#),
            "{printed}"
        );
        analyze(&q).expect("dual-role query analyzes");
    }
}
