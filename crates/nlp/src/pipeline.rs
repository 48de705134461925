//! The threat behavior extraction pipeline (Algorithm 1, end to end).

use crate::annotate::{annotate, restore_iocs};
use crate::coref::resolve_block;
use crate::dep::DepTree;
use crate::depparse::parse;
use crate::graph::ThreatBehaviorGraph;
use crate::ioc::{normalize_defang, Ioc};
use crate::merge::{self, CanonId, IocTable};
use crate::protect::protect;
use crate::relext::{self, CanonMap, Triplet};
use crate::simplify::simplify;
use crate::text::{segment_blocks, segment_sentences};
use crate::token::tokenize;
use std::time::{Duration, Instant};

/// Wall-clock duration of each pipeline stage — the data behind the
/// "lightweight pipeline" claim (experiment E7).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Block + sentence segmentation.
    pub segmentation: Duration,
    /// IOC recognition + protection.
    pub protection: Duration,
    /// Tokenization + dependency parsing + protection removal.
    pub parsing: Duration,
    /// Annotation + simplification.
    pub annotation: Duration,
    /// Coreference resolution.
    pub coref: Duration,
    /// IOC scan & merge.
    pub merge: Duration,
    /// Relation extraction.
    pub relext: Duration,
    /// Graph construction.
    pub construct: Duration,
    /// End-to-end.
    pub total: Duration,
}

impl StageTimings {
    /// Stage names, in the order [`StageTimings::stages`] lists them.
    pub const STAGE_NAMES: [&'static str; 8] = [
        "segmentation",
        "protection",
        "parsing",
        "annotation",
        "coref",
        "merge",
        "relext",
        "construct",
    ];

    /// The per-stage durations, in [`StageTimings::STAGE_NAMES`] order.
    pub fn stages(&self) -> [Duration; 8] {
        [
            self.segmentation,
            self.protection,
            self.parsing,
            self.annotation,
            self.coref,
            self.merge,
            self.relext,
            self.construct,
        ]
    }

    /// Sum of the per-stage durations (excludes `total`, which is
    /// measured independently and so may be slightly larger).
    pub fn stage_sum(&self) -> Duration {
        self.stages().iter().sum()
    }
}

/// Result of one extraction run.
#[derive(Debug, Clone)]
pub struct ExtractionResult {
    /// The threat behavior graph.
    pub graph: ThreatBehaviorGraph,
    /// Canonical IOC table (stage 7 output).
    pub iocs: IocTable,
    /// All extracted triplets, in document order.
    pub triplets: Vec<Triplet>,
    /// Dependency trees per block (for diagnostics / tests).
    pub trees: Vec<Vec<DepTree>>,
    /// Per-stage timings.
    pub timings: StageTimings,
}

/// The extraction pipeline. Stateless apart from the shared compiled IOC
/// rule set; `extract` can be called repeatedly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreatExtractor;

impl ThreatExtractor {
    /// Creates an extractor.
    pub fn new() -> ThreatExtractor {
        ThreatExtractor
    }

    /// Runs Algorithm 1 over an OSCTI document.
    pub fn extract(&self, document: &str) -> ExtractionResult {
        let t_total = Instant::now();
        let mut timings = StageTimings::default();

        let normalized = normalize_defang(document);

        // Stage 1: block segmentation.
        let t = Instant::now();
        let block_spans = segment_blocks(&normalized);
        timings.segmentation += t.elapsed();

        let mut all_block_trees: Vec<Vec<DepTree>> = Vec::with_capacity(block_spans.len());
        let mut mentions: Vec<Ioc> = Vec::new();

        for span in &block_spans {
            let block = span.slice(&normalized);

            // Stage 2: IOC recognition + protection.
            let t = Instant::now();
            let protected = protect(block);
            timings.protection += t.elapsed();

            // Stage 2b: sentence segmentation (on protected text).
            let t = Instant::now();
            let sentence_spans = segment_sentences(&protected.text);
            timings.segmentation += t.elapsed();

            let mut trees: Vec<DepTree> = Vec::with_capacity(sentence_spans.len());
            for ss in sentence_spans {
                // Stage 3: parse, then remove protection.
                let t = Instant::now();
                let tokens = tokenize(ss.slice(&protected.text), ss.start);
                let mut tree = parse(tokens);
                restore_iocs(&mut tree, &protected.slots);
                timings.parsing += t.elapsed();

                // Stages 4–5: annotate + simplify.
                let t = Instant::now();
                annotate(&mut tree);
                simplify(&mut tree);
                timings.annotation += t.elapsed();

                trees.push(tree);
            }

            // Stage 6: coreference within the block.
            let t = Instant::now();
            resolve_block(&mut trees);
            timings.coref += t.elapsed();

            for tree in &trees {
                mentions.extend(tree.nodes.iter().filter_map(|n| n.token.ioc.clone()));
            }
            all_block_trees.push(trees);
        }

        // Stage 7: IOC scan & merge.
        let t = Instant::now();
        let table = merge::merge(&mentions);
        let mut canon: CanonMap = CanonMap::new();
        for (i, m) in mentions.iter().enumerate() {
            canon.insert((m.text.clone(), m.ty), table.mention_canon[i]);
        }
        for (ci, c) in table.canon.iter().enumerate() {
            canon.insert((c.text.clone(), c.ty), CanonId(ci));
        }
        timings.merge += t.elapsed();

        // Stage 8: relation extraction, ordered by (block, verb offset).
        let t = Instant::now();
        let mut triplets: Vec<Triplet> = Vec::new();
        for trees in &all_block_trees {
            let mut block_triplets: Vec<Triplet> = trees
                .iter()
                .flat_map(|tree| relext::extract(tree, &canon))
                .collect();
            block_triplets.sort_by_key(|t| t.verb_offset);
            // Cross-sentence duplicates within a block (coref echoes).
            block_triplets.dedup_by(|a, b| {
                a.subject == b.subject && a.verb == b.verb && a.object == b.object
            });
            triplets.extend(block_triplets);
        }
        timings.relext += t.elapsed();

        // Stage 10: graph construction.
        let t = Instant::now();
        let graph = ThreatBehaviorGraph::construct(&table, &triplets);
        timings.construct += t.elapsed();

        timings.total = t_total.elapsed();
        ExtractionResult {
            graph,
            iocs: table,
            triplets,
            trees: all_block_trees,
            timings,
        }
    }
}

/// The verbatim OSCTI text of the paper's Fig. 2 data-leakage example.
pub const FIG2_OSCTI_TEXT: &str = "\
After the lateral movement stage, the attacker attempts to steal valuable \
assets from the host. This stage mainly involves the behaviors of local and \
remote file system scanning activities, copying and compressing of important \
files, and transferring the files to its C2 host. The details of the data \
leakage attack are as follows. As a first step, the attacker used /bin/tar \
to read user credentials from /etc/passwd. It wrote the gathered information \
to a file /tmp/upload.tar. Then, the attacker leveraged /bin/bzip2 utility \
to compress the tar file. /bin/bzip2 read from /tmp/upload.tar and wrote to \
/tmp/upload.tar.bz2. After compression, the attacker used Gnu Privacy Guard \
(GnuPG) tool to encrypt the zipped file, which corresponds to the launched \
process /usr/bin/gpg reading from /tmp/upload.tar.bz2. /usr/bin/gpg then \
wrote the sensitive information to /tmp/upload. Finally, the attacker \
leveraged the curl utility (/usr/bin/curl) to read the data from \
/tmp/upload. He leaked the gathered sensitive information back to the \
attacker C2 host by using /usr/bin/curl to connect to 192.168.29.128.";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_extraction_end_to_end() {
        let result = ThreatExtractor::new().extract(FIG2_OSCTI_TEXT);
        let g = &result.graph;

        // Fig. 2 lists 9 IOCs.
        let expected_nodes = [
            "/bin/tar",
            "/etc/passwd",
            "/tmp/upload.tar",
            "/bin/bzip2",
            "/tmp/upload.tar.bz2",
            "/usr/bin/gpg",
            "/tmp/upload",
            "/usr/bin/curl",
            "192.168.29.128",
        ];
        for n in expected_nodes {
            assert!(g.node_by_text(n).is_some(), "missing node {n}\n{g}");
        }

        // The 8 edges of the Fig. 2 threat behavior graph.
        let expected_edges = [
            ("/bin/tar", "read", "/etc/passwd"),
            ("/bin/tar", "write", "/tmp/upload.tar"),
            ("/bin/bzip2", "read", "/tmp/upload.tar"),
            ("/bin/bzip2", "write", "/tmp/upload.tar.bz2"),
            ("/usr/bin/gpg", "read", "/tmp/upload.tar.bz2"),
            ("/usr/bin/gpg", "write", "/tmp/upload"),
            ("/usr/bin/curl", "read", "/tmp/upload"),
            ("/usr/bin/curl", "connect", "192.168.29.128"),
        ];
        for (s, v, o) in expected_edges {
            assert!(
                g.edges.iter().any(|e| {
                    g.nodes[e.src].text == s && e.verb == v && g.nodes[e.dst].text == o
                }),
                "missing edge ({s}, {v}, {o})\n{g}"
            );
        }

        // Sequence numbers follow the narrative order for the core chain.
        let seq_of = |s: &str, v: &str, o: &str| {
            g.edges
                .iter()
                .find(|e| g.nodes[e.src].text == s && e.verb == v && g.nodes[e.dst].text == o)
                .map(|e| e.seq)
                .unwrap()
        };
        assert!(
            seq_of("/bin/tar", "read", "/etc/passwd")
                < seq_of("/bin/tar", "write", "/tmp/upload.tar")
        );
        assert!(
            seq_of("/bin/bzip2", "write", "/tmp/upload.tar.bz2")
                < seq_of("/usr/bin/gpg", "read", "/tmp/upload.tar.bz2")
        );
        assert!(
            seq_of("/usr/bin/curl", "read", "/tmp/upload")
                < seq_of("/usr/bin/curl", "connect", "192.168.29.128")
        );
    }

    #[test]
    fn timings_populated() {
        let result = ThreatExtractor::new().extract(FIG2_OSCTI_TEXT);
        assert!(result.timings.total > Duration::ZERO);
        assert!(result.timings.stage_sum() <= result.timings.total * 2);
        // "Lightweight": well under a second for a one-page report.
        assert!(result.timings.total < Duration::from_secs(2));
    }

    #[test]
    fn empty_document() {
        let result = ThreatExtractor::new().extract("");
        assert_eq!(result.graph.node_count(), 0);
        assert_eq!(result.graph.edge_count(), 0);
        assert!(result.triplets.is_empty());
    }

    #[test]
    fn ioc_free_document() {
        let result = ThreatExtractor::new()
            .extract("The quarterly report shows steady progress. Nothing suspicious happened.");
        assert_eq!(result.graph.node_count(), 0);
        assert_eq!(result.graph.edge_count(), 0);
    }

    #[test]
    fn defanged_document() {
        let result = ThreatExtractor::new()
            .extract("The dropper /tmp/stage2 connected to 203[.]0[.]113[.]66 for tasking.");
        assert!(result.graph.node_by_text("203.0.113.66").is_some());
        assert!(result.graph.edges.iter().any(|e| e.verb == "connect"));
    }

    #[test]
    fn bullet_blocks_isolated() {
        let doc = "The attack proceeded as follows:\n\
                   - /usr/bin/wget downloaded /tmp/payload.bin from 203.0.113.66.\n\
                   - /tmp/payload.bin wrote to /etc/cron.d/backdoor.\n";
        let result = ThreatExtractor::new().extract(doc);
        let g = &result.graph;
        assert!(g.node_by_text("/tmp/payload.bin").is_some(), "{g}");
        assert!(
            g.edges
                .iter()
                .any(|e| e.verb == "write" && g.nodes[e.dst].text == "/etc/cron.d/backdoor"),
            "{g}"
        );
    }
}
