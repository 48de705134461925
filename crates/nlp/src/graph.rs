//! Threat behavior graph construction (Algorithm 1, stage 10).
//!
//! "We iterate over all IOC entity-relation triplets sorted by the
//! occurrence offset of the relation verb in OSCTI text, and construct a
//! threat behavior graph. Each edge in the graph is associated with a
//! sequence number, indicating the step order."

use crate::ioc::IocType;
use crate::merge::IocTable;
use crate::relext::Triplet;
use std::fmt;

/// A node: one canonical IOC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IocNode {
    /// Node id (== canonical IOC id).
    pub id: usize,
    /// Canonical IOC text.
    pub text: String,
    /// IOC type.
    pub ty: IocType,
}

/// An edge: one extracted relation, with its step order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BehaviorEdge {
    /// Source node id (subject).
    pub src: usize,
    /// Destination node id (object).
    pub dst: usize,
    /// Relation verb lemma.
    pub verb: String,
    /// 1-based sequence number (step order in the report).
    pub seq: u32,
}

/// The threat behavior graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreatBehaviorGraph {
    /// Nodes, indexed by canonical IOC id.
    pub nodes: Vec<IocNode>,
    /// Edges, ordered by sequence number.
    pub edges: Vec<BehaviorEdge>,
}

impl ThreatBehaviorGraph {
    /// Builds the graph from the canonical IOC table and triplets.
    ///
    /// `ordered_triplets` must already be sorted by document order of the
    /// relation verb (the pipeline sorts by `(block, verb_offset)`).
    /// Duplicate `(src, verb, dst)` edges keep their first occurrence.
    pub fn construct(table: &IocTable, ordered_triplets: &[Triplet]) -> ThreatBehaviorGraph {
        let nodes: Vec<IocNode> = table
            .canon
            .iter()
            .enumerate()
            .map(|(id, ioc)| IocNode {
                id,
                text: ioc.text.clone(),
                ty: ioc.ty,
            })
            .collect();
        let mut edges: Vec<BehaviorEdge> = Vec::new();
        for t in ordered_triplets {
            let dup = edges
                .iter()
                .any(|e| e.src == t.subject.0 && e.dst == t.object.0 && e.verb == t.verb);
            if dup {
                continue;
            }
            edges.push(BehaviorEdge {
                src: t.subject.0,
                dst: t.object.0,
                verb: t.verb.clone(),
                seq: edges.len() as u32 + 1,
            });
        }
        ThreatBehaviorGraph { nodes, edges }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Node lookup by text.
    pub fn node_by_text(&self, text: &str) -> Option<&IocNode> {
        self.nodes.iter().find(|n| n.text == text)
    }

    /// Retains only nodes satisfying `keep` (and edges between them),
    /// renumbering node ids densely and resequencing edges — the
    /// screening primitive used by query synthesis.
    pub fn filter_nodes(&self, keep: impl Fn(&IocNode) -> bool) -> ThreatBehaviorGraph {
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut nodes = Vec::new();
        for n in &self.nodes {
            if keep(n) {
                remap[n.id] = nodes.len();
                nodes.push(IocNode {
                    id: nodes.len(),
                    text: n.text.clone(),
                    ty: n.ty,
                });
            }
        }
        let mut edges = Vec::new();
        for e in &self.edges {
            let (s, d) = (remap[e.src], remap[e.dst]);
            if s != usize::MAX && d != usize::MAX {
                edges.push(BehaviorEdge {
                    src: s,
                    dst: d,
                    verb: e.verb.clone(),
                    seq: edges.len() as u32 + 1,
                });
            }
        }
        ThreatBehaviorGraph { nodes, edges }
    }

    /// Graphviz rendering for inspection.
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph threat_behavior {\n  rankdir=LR;\n");
        for n in &self.nodes {
            s.push_str(&format!(
                "  n{} [label=\"{}\\n({})\"];\n",
                n.id,
                n.text.replace('"', "\\\""),
                n.ty
            ));
        }
        for e in &self.edges {
            s.push_str(&format!(
                "  n{} -> n{} [label=\"{}. {}\"];\n",
                e.src, e.dst, e.seq, e.verb
            ));
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for ThreatBehaviorGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "threat behavior graph: {} nodes, {} edges",
            self.node_count(),
            self.edge_count()
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  {}. {} -[{}]-> {}",
                e.seq, self.nodes[e.src].text, e.verb, self.nodes[e.dst].text
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ioc::Ioc;
    use crate::merge::{merge, CanonId};

    fn table() -> IocTable {
        let mk = |text: &str, ty| Ioc {
            text: text.into(),
            ty,
            start: 0,
            end: text.len(),
        };
        merge(&[
            mk("/bin/tar", IocType::FilePath),
            mk("/etc/passwd", IocType::FilePath),
            mk("/tmp/upload.tar", IocType::FilePath),
        ])
    }

    fn trip(s: usize, verb: &str, o: usize, off: usize) -> Triplet {
        Triplet {
            subject: CanonId(s),
            verb: verb.into(),
            object: CanonId(o),
            verb_offset: off,
        }
    }

    #[test]
    fn construct_assigns_sequence_numbers() {
        let g = ThreatBehaviorGraph::construct(
            &table(),
            &[trip(0, "read", 1, 10), trip(0, "write", 2, 50)],
        );
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edges[0].seq, 1);
        assert_eq!(g.edges[0].verb, "read");
        assert_eq!(g.edges[1].seq, 2);
    }

    #[test]
    fn duplicate_edges_keep_first() {
        let g = ThreatBehaviorGraph::construct(
            &table(),
            &[trip(0, "read", 1, 10), trip(0, "read", 1, 90)],
        );
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn filter_nodes_renumbers() {
        let g = ThreatBehaviorGraph::construct(
            &table(),
            &[trip(0, "read", 1, 10), trip(0, "write", 2, 20)],
        );
        let f = g.filter_nodes(|n| n.text != "/etc/passwd");
        assert_eq!(f.node_count(), 2);
        assert_eq!(f.edge_count(), 1);
        assert_eq!(f.edges[0].verb, "write");
        assert_eq!(f.edges[0].seq, 1);
        // Dense ids.
        for (i, n) in f.nodes.iter().enumerate() {
            assert_eq!(n.id, i);
        }
    }

    #[test]
    fn display_and_dot() {
        let g = ThreatBehaviorGraph::construct(&table(), &[trip(0, "read", 1, 10)]);
        let text = g.to_string();
        assert!(text.contains("/bin/tar -[read]-> /etc/passwd"));
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("n0 -> n1"));
    }

    #[test]
    fn connected_nodes_and_lookup() {
        let g = ThreatBehaviorGraph::construct(&table(), &[trip(0, "read", 1, 10)]);
        assert_eq!(g.edges.len(), 1);
        assert!(g.node_by_text("/bin/tar").is_some());
        assert!(g.node_by_text("/nope").is_none());
    }
}
