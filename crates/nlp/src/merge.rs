//! IOC scan & merge (Algorithm 1, stage 7).
//!
//! "We scan all IOCs in the trees of all blocks, and merge similar ones
//! based on both the character-level overlap and the word vector
//! similarities." Mentions of the same artifact — `/tmp/upload.tar` vs
//! `upload.tar`, `192.168.29.128` vs `192.168.29.128/32` — collapse into
//! one canonical IOC via union-find; the canonical text is the most
//! specific (longest) mention.

use crate::embed::{self, Trigrams, Vector};
use crate::ioc::{Ioc, IocType};
use std::cell::OnceCell;

/// Canonical IOC id after merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonId(pub usize);

/// The merged IOC table.
#[derive(Debug, Clone)]
pub struct IocTable {
    /// Canonical IOCs, indexed by [`CanonId`].
    pub canon: Vec<Ioc>,
    /// For each input mention, its canonical id.
    pub mention_canon: Vec<CanonId>,
}

impl IocTable {
    /// Number of canonical IOCs.
    pub fn len(&self) -> usize {
        self.canon.len()
    }

    /// True when no IOCs were found.
    pub fn is_empty(&self) -> bool {
        self.canon.is_empty()
    }

    /// Finds the canonical id whose text equals `text`, if any.
    pub fn lookup(&self, text: &str) -> Option<CanonId> {
        self.canon.iter().position(|i| i.text == text).map(CanonId)
    }
}

/// Whether two IOC types may merge.
fn type_compatible(a: IocType, b: IocType) -> bool {
    use IocType::*;
    if a == b {
        return true;
    }
    matches!(
        (a, b),
        (FilePath, FileName)
            | (FileName, FilePath)
            | (Ip, IpSubnet)
            | (IpSubnet, Ip)
            | (Url, Domain)
            | (Domain, Url)
    )
}

/// A mention with what the fuzzy test needs, computed at most once per
/// mention rather than once per pair: its trigram set up front, its
/// word vector only when an overlap test first passes.
struct Prepared<'a> {
    ioc: &'a Ioc,
    grams: Trigrams,
    vector: OnceCell<Vector>,
}

impl Prepared<'_> {
    fn vector(&self) -> &Vector {
        self.vector.get_or_init(|| embed::embed(&self.ioc.text))
    }
}

/// Whether two mentions refer to the same artifact.
fn same_artifact(pa: &Prepared, pb: &Prepared) -> bool {
    let (a, b) = (pa.ioc, pb.ioc);
    if !type_compatible(a.ty, b.ty) {
        return false;
    }
    if a.text == b.text {
        return true;
    }
    // File name vs full path: exact basename match.
    let basename = |s: &str| s.rsplit('/').next().unwrap_or(s).to_string();
    match (a.ty, b.ty) {
        (IocType::FilePath, IocType::FileName) => return basename(&a.text) == b.text,
        (IocType::FileName, IocType::FilePath) => return basename(&b.text) == a.text,
        (IocType::Ip, IocType::IpSubnet) => {
            return b.text.split('/').next() == Some(a.text.as_str())
        }
        (IocType::IpSubnet, IocType::Ip) => {
            return a.text.split('/').next() == Some(b.text.as_str())
        }
        (IocType::Url, IocType::Domain) => return a.text.contains(&b.text),
        (IocType::Domain, IocType::Url) => return b.text.contains(&a.text),
        _ => {}
    }
    // Same type, fuzzy: both the character overlap and the vector
    // similarity must clear their thresholds (the paper's "both").
    // Deliberately strict: /tmp/upload.tar and /tmp/upload.tar.bz2 are
    // DIFFERENT artifacts and must not merge.
    pa.grams.overlap(&pb.grams) >= 0.9 && embed::cosine(pa.vector(), pb.vector()) as f64 >= 0.95
}

/// Union-find with path compression.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

/// Merges a list of IOC mentions into a canonical table.
pub fn merge(mentions: &[Ioc]) -> IocTable {
    let prepared: Vec<Prepared> = mentions
        .iter()
        .map(|ioc| Prepared {
            ioc,
            grams: Trigrams::of(&ioc.text),
            vector: OnceCell::new(),
        })
        .collect();
    merge_by(mentions, |i, j| same_artifact(&prepared[i], &prepared[j]))
}

/// Merges `mentions`, unioning every pair `(i, j)` with `i < j` that
/// `same(i, j)` accepts.
fn merge_by(mentions: &[Ioc], mut same: impl FnMut(usize, usize) -> bool) -> IocTable {
    let n = mentions.len();
    let mut dsu = Dsu::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if same(i, j) {
                dsu.union(i, j);
            }
        }
    }
    // One pass in mention order: a class's canonical id is the rank of
    // its first mention, its representative its longest (most specific)
    // text, the earliest on ties.
    let mut root_canon: Vec<Option<usize>> = vec![None; n];
    let mut best: Vec<usize> = Vec::new();
    let mention_canon = (0..n)
        .map(|i| {
            let k = *root_canon[dsu.find(i)].get_or_insert_with(|| {
                best.push(i);
                best.len() - 1
            });
            if mentions[i].text.len() > mentions[best[k]].text.len() {
                best[k] = i;
            }
            CanonId(k)
        })
        .collect();
    IocTable {
        canon: best.into_iter().map(|i| mentions[i].clone()).collect(),
        mention_canon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ioc(text: &str, ty: IocType) -> Ioc {
        Ioc {
            text: text.into(),
            ty,
            start: 0,
            end: text.len(),
        }
    }

    #[test]
    fn exact_duplicates_merge() {
        let t = merge(&[
            ioc("/bin/tar", IocType::FilePath),
            ioc("/bin/tar", IocType::FilePath),
        ]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.mention_canon[0], t.mention_canon[1]);
    }

    #[test]
    fn filename_merges_into_path() {
        let t = merge(&[
            ioc("/tmp/upload.tar", IocType::FilePath),
            ioc("upload.tar", IocType::FileName),
        ]);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.canon[0].text, "/tmp/upload.tar",
            "canonical = most specific"
        );
    }

    #[test]
    fn ip_merges_with_subnet() {
        let t = merge(&[
            ioc("192.168.29.128", IocType::Ip),
            ioc("192.168.29.128/32", IocType::IpSubnet),
        ]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.canon[0].text, "192.168.29.128/32");
    }

    #[test]
    fn similar_but_distinct_artifacts_stay_apart() {
        let t = merge(&[
            ioc("/tmp/upload.tar", IocType::FilePath),
            ioc("/tmp/upload.tar.bz2", IocType::FilePath),
            ioc("/tmp/upload", IocType::FilePath),
        ]);
        assert_eq!(
            t.len(),
            3,
            "the Fig. 2 chain must keep all three files distinct"
        );
    }

    #[test]
    fn incompatible_types_never_merge() {
        let t = merge(&[
            ioc("10.0.0.1", IocType::Ip),
            ioc("/10.0.0.1", IocType::FilePath),
        ]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fig2_ioc_set_merges_to_nine() {
        let mentions = vec![
            ioc("/bin/tar", IocType::FilePath),
            ioc("/etc/passwd", IocType::FilePath),
            ioc("/tmp/upload.tar", IocType::FilePath),
            ioc("/bin/bzip2", IocType::FilePath),
            ioc("/tmp/upload.tar", IocType::FilePath), // repeated mention
            ioc("/tmp/upload.tar.bz2", IocType::FilePath),
            ioc("/usr/bin/gpg", IocType::FilePath),
            ioc("/tmp/upload.tar.bz2", IocType::FilePath),
            ioc("/tmp/upload", IocType::FilePath),
            ioc("/usr/bin/curl", IocType::FilePath),
            ioc("/tmp/upload", IocType::FilePath),
            ioc("192.168.29.128", IocType::Ip),
        ];
        let t = merge(&mentions);
        assert_eq!(t.len(), 9, "Fig. 2 lists exactly 9 distinct IOCs");
    }

    #[test]
    fn lookup_and_accessors() {
        let t = merge(&[ioc("/bin/tar", IocType::FilePath)]);
        assert!(!t.is_empty());
        assert_eq!(t.lookup("/bin/tar"), Some(CanonId(0)));
        assert_eq!(t.lookup("/bin/zzz"), None);
        assert_eq!(t.canon[t.mention_canon[0].0].text, "/bin/tar");
    }

    #[test]
    fn empty_input() {
        let t = merge(&[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    /// Character-trigram Jaccard overlap over hashed string sets, as
    /// `embed::char_overlap` computed it before [`Trigrams`].
    fn hashset_overlap(a: &str, b: &str) -> f64 {
        let grams = |s: &str| -> std::collections::HashSet<String> {
            let chars: Vec<char> = s.chars().collect();
            if chars.len() < 3 {
                return std::iter::once(s.to_string()).collect();
            }
            chars.windows(3).map(|w| w.iter().collect()).collect()
        };
        let ga = grams(a);
        let gb = grams(b);
        if ga.is_empty() && gb.is_empty() {
            return 1.0;
        }
        let inter = ga.intersection(&gb).count() as f64;
        let union = ga.union(&gb).count() as f64;
        inter / union
    }

    /// The pairwise predicate `merge` used before trigram sets and word
    /// vectors were computed once per mention: the oracle.
    fn same_artifact_pairwise(a: &Ioc, b: &Ioc) -> bool {
        if !type_compatible(a.ty, b.ty) {
            return false;
        }
        if a.text == b.text {
            return true;
        }
        let basename = |s: &str| s.rsplit('/').next().unwrap_or(s).to_string();
        match (a.ty, b.ty) {
            (IocType::FilePath, IocType::FileName) => return basename(&a.text) == b.text,
            (IocType::FileName, IocType::FilePath) => return basename(&b.text) == a.text,
            (IocType::Ip, IocType::IpSubnet) => {
                return b.text.split('/').next() == Some(a.text.as_str())
            }
            (IocType::IpSubnet, IocType::Ip) => {
                return a.text.split('/').next() == Some(b.text.as_str())
            }
            (IocType::Url, IocType::Domain) => return a.text.contains(&b.text),
            (IocType::Domain, IocType::Url) => return b.text.contains(&a.text),
            _ => {}
        }
        let overlap = hashset_overlap(&a.text, &b.text);
        let sim = embed::similarity(&a.text, &b.text) as f64;
        overlap >= 0.9 && sim >= 0.95
    }

    fn merge_pairwise(mentions: &[Ioc]) -> IocTable {
        merge_by(mentions, |i, j| {
            same_artifact_pairwise(&mentions[i], &mentions[j])
        })
    }

    const BASES: [&str; 9] = [
        "/tmp/upload.tar",
        "/usr/local/bin/backdoor-helper-service",
        "192.168.29.128",
        "update.evil-cdn-mirror.example.com",
        "http://update.evil-cdn-mirror.example.com/payload.exe",
        "upload.tar",
        "d41d8cd98f00b204e9800998ecf8427e",
        "/home/ünïcödé/café-payload.tar",
        "ab",
    ];

    const TYPES: [IocType; 8] = [
        IocType::FilePath,
        IocType::FileName,
        IocType::Ip,
        IocType::IpSubnet,
        IocType::Url,
        IocType::Domain,
        IocType::Md5,
        IocType::Email,
    ];

    /// A mention built from a base text, one edit, and a type.
    fn mention((base, edit, ty): (usize, usize, usize)) -> Ioc {
        let base = BASES[base];
        let text = match edit {
            0 => base.to_string(),
            1 => format!("{base}x"),
            2 => format!("x{base}"),
            3 => base.rsplit('/').next().unwrap_or(base).to_string(),
            4 => format!("{base}/32"),
            5 => base.replacen('a', "b", 1),
            6 => format!("{base}.bz2"),
            _ => String::new(),
        };
        ioc(&text, TYPES[ty])
    }

    #[test]
    fn near_duplicates_take_the_fuzzy_path() {
        let long = mention((1, 0, 0));
        let longer = mention((1, 1, 0));
        assert!(same_artifact_pairwise(&long, &longer));
        assert_eq!(merge(&[long, longer]).len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// `merge` builds exactly the table the pairwise predicate does.
        #[test]
        fn merge_matches_pairwise_oracle(
            spec in prop::collection::vec((0usize..9, 0usize..8, 0usize..8), 0..16),
        ) {
            let mentions: Vec<Ioc> = spec.into_iter().map(mention).collect();
            let (fast, oracle) = (merge(&mentions), merge_pairwise(&mentions));
            prop_assert_eq!(&fast.canon, &oracle.canon);
            prop_assert_eq!(&fast.mention_canon, &oracle.mention_canon);
        }

        /// `merge_by`'s table rules, for any partition of the mentions:
        /// canon `k` is the `k`-th class by first mention, a class is
        /// represented by its longest text (the earliest on ties), and
        /// `mention_canon[i]` is the class of mention `i`.
        #[test]
        fn merge_by_table_rules(
            spec in prop::collection::vec((0usize..5, 0usize..4), 0..16),
        ) {
            // Mention `i` has class label `spec[i].0`, a text of length
            // `spec[i].1`, and `start == i` to tell tied texts apart.
            let mentions: Vec<Ioc> = spec
                .iter()
                .enumerate()
                .map(|(i, &(_, len))| Ioc { start: i, ..ioc(&"a".repeat(len), IocType::FilePath) })
                .collect();
            let t = merge_by(&mentions, |i, j| spec[i].0 == spec[j].0);
            let mut labels: Vec<usize> = Vec::new();
            for &(label, _) in &spec {
                if !labels.contains(&label) {
                    labels.push(label);
                }
            }
            prop_assert_eq!(t.len(), labels.len());
            for (k, &label) in labels.iter().enumerate() {
                let mut best: Option<usize> = None;
                for (i, &(l, len)) in spec.iter().enumerate() {
                    if l == label && best.is_none_or(|b| len > spec[b].1) {
                        best = Some(i);
                    }
                }
                prop_assert_eq!(t.canon[k].start, best.unwrap());
            }
            for (i, &(label, _)) in spec.iter().enumerate() {
                let k = labels.iter().position(|&l| l == label).unwrap();
                prop_assert_eq!(t.mention_canon[i], CanonId(k));
            }
        }
    }
}
