//! Deterministic rule-based dependency parsing (Algorithm 1, stage 3).
//!
//! The original pipeline calls spaCy's statistical parser; this one is a
//! head-finding rule cascade tuned to the English of threat reports. Rules
//! run as ordered passes over the tagged token sequence; every pass only
//! attaches so-far-unattached tokens, and a final repair pass guarantees a
//! single-rooted, acyclic tree ([`crate::dep::DepTree::validate`] holds on
//! every output).

use crate::dep::{DepLabel, DepNode, DepTree, NodeAnn};
use crate::pos::{tag, PosTag};
use crate::token::Token;

/// Parses a tagged sentence into a dependency tree.
pub fn parse(tokens: Vec<Token>) -> DepTree {
    let tags = tag(&tokens);
    parse_tagged(tokens, tags)
}

/// Parses with externally supplied tags.
fn parse_tagged(tokens: Vec<Token>, tags: Vec<PosTag>) -> DepTree {
    let n = tokens.len();
    let mut p = ParserState {
        heads: vec![None; n],
        labels: vec![DepLabel::Dep; n],
        tags,
        tokens,
    };
    if n == 0 {
        return DepTree {
            nodes: Vec::new(),
            root: 0,
        };
    }
    let runs = p.nominal_runs();
    p.attach_verb_chain();
    let verbs = p.verb_heads();
    let root = p.pick_root(&verbs, &runs);
    p.attach_clauses(&verbs, root);
    p.attach_np_internals(&runs);
    p.attach_appositions(&runs);
    p.attach_prepositions(&runs);
    p.attach_conjunctions(&runs);
    p.attach_subjects(&verbs, &runs);
    p.attach_objects(&verbs, &runs);
    p.attach_punct_and_rest(root);
    p.repair(root);
    p.into_tree(root)
}

/// A maximal nominal run `[start, end]` with its head token index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Run {
    start: usize,
    end: usize, // inclusive
    head: usize,
}

struct ParserState {
    tokens: Vec<Token>,
    tags: Vec<PosTag>,
    heads: Vec<Option<usize>>,
    labels: Vec<DepLabel>,
}

impl ParserState {
    fn n(&self) -> usize {
        self.tokens.len()
    }

    fn attach(&mut self, child: usize, head: usize, label: DepLabel) {
        if child != head && self.heads[child].is_none() {
            self.heads[child] = Some(head);
            self.labels[child] = label;
        }
    }

    fn is_verb(&self, i: usize) -> bool {
        self.tags[i] == PosTag::Verb
    }

    /// Maximal runs of `Det/Adj/Num/Noun/Pron`; head = last nominal.
    fn nominal_runs(&self) -> Vec<Run> {
        let mut runs = Vec::new();
        let mut i = 0usize;
        while i < self.n() {
            let in_np = matches!(
                self.tags[i],
                PosTag::Det | PosTag::Adj | PosTag::Num | PosTag::Noun | PosTag::Pron
            );
            if !in_np {
                i += 1;
                continue;
            }
            let start = i;
            let mut last_nominal = None;
            while i < self.n()
                && matches!(
                    self.tags[i],
                    PosTag::Det | PosTag::Adj | PosTag::Num | PosTag::Noun | PosTag::Pron
                )
            {
                if self.tags[i].is_nominal() {
                    last_nominal = Some(i);
                }
                i += 1;
            }
            let end = i - 1;
            if let Some(head) = last_nominal {
                runs.push(Run { start, end, head });
            }
        }
        runs
    }

    /// AUX tokens attach to the nearest following verb (aux/auxpass);
    /// infinitival `to` attaches as mark; `not` as advmod.
    fn attach_verb_chain(&mut self) {
        for i in 0..self.n() {
            match self.tags[i] {
                PosTag::Aux => {
                    if let Some(v) = self.next_verb_within(i, 3) {
                        let passive = self.is_passive_participle(v);
                        self.attach(
                            i,
                            v,
                            if passive {
                                DepLabel::AuxPass
                            } else {
                                DepLabel::Aux
                            },
                        );
                    }
                }
                PosTag::Part => {
                    if let Some(v) = self.next_verb_within(i, 2) {
                        self.attach(i, v, DepLabel::Mark);
                    }
                }
                _ => {}
            }
        }
    }

    fn next_verb_within(&self, i: usize, dist: usize) -> Option<usize> {
        (i + 1..self.n().min(i + 1 + dist)).find(|&j| self.is_verb(j))
    }

    fn prev_verb(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| self.is_verb(j))
    }

    fn is_passive_participle(&self, v: usize) -> bool {
        let w = self.tokens[v].lower();
        let irregular_participle = matches!(
            w.as_str(),
            "written" | "read" | "sent" | "stolen" | "taken" | "hidden" | "done" | "seen"
        );
        (w.ends_with("ed") || w.ends_with("en") || irregular_participle)
            && (0..v).rev().take(3).any(|j| {
                self.tags[j] == PosTag::Aux
                    && matches!(
                        self.tokens[j].lower().as_str(),
                        "is" | "are" | "was" | "were" | "be" | "been" | "being"
                    )
            })
    }

    fn verb_heads(&self) -> Vec<usize> {
        (0..self.n()).filter(|&i| self.is_verb(i)).collect()
    }

    /// Picks the sentence root: the first verb not marked by `to`, not a
    /// gerund right after a preposition/noun, else the first verb, else
    /// the first copular AUX, else the first nominal-run head, else 0.
    fn pick_root(&self, verbs: &[usize], runs: &[Run]) -> usize {
        for &v in verbs {
            let has_mark = v > 0 && self.tags[v - 1] == PosTag::Part;
            let gerund_after_adp_or_noun = self.tokens[v].lower().ends_with("ing")
                && v > 0
                && matches!(self.tags[v - 1], PosTag::Adp | PosTag::Noun | PosTag::Pron);
            if !has_mark && !gerund_after_adp_or_noun {
                return v;
            }
        }
        if let Some(&v) = verbs.first() {
            return v;
        }
        if let Some(cop) = (0..self.n()).find(|&i| self.tags[i] == PosTag::Aux) {
            return cop;
        }
        if let Some(run) = runs.first() {
            return run.head;
        }
        0
    }

    /// Attaches non-root verbs: xcomp (after `to`), acl (gerund after a
    /// nominal), pcomp (gerund after preposition), conj (after cc /
    /// comma), else conj to root.
    fn attach_clauses(&mut self, verbs: &[usize], root: usize) {
        for &v in verbs {
            if v == root || self.heads[v].is_some() {
                continue;
            }
            // `to <verb>` → xcomp of nearest preceding verb.
            if v > 0 && self.tags[v - 1] == PosTag::Part {
                if let Some(g) = self.prev_verb_excluding(v, v) {
                    self.attach(v, g, DepLabel::Xcomp);
                    continue;
                }
            }
            let w = self.tokens[v].lower();
            if w.ends_with("ing") && v > 0 {
                // Gerund after preposition → pcomp; after a nominal → acl.
                if self.tags[v - 1] == PosTag::Adp {
                    self.attach(v, v - 1, DepLabel::Pcomp);
                    // The preposition needs a head too; give it the
                    // nearest preceding verb or root (prep).
                    let phead = self.prev_verb(v - 1).unwrap_or(root);
                    self.attach(v - 1, phead, DepLabel::Prep);
                    continue;
                }
                if matches!(self.tags[v - 1], PosTag::Noun | PosTag::Pron) {
                    self.attach(v, v - 1, DepLabel::Acl);
                    continue;
                }
            }
            // After a coordinator or comma → conj of previous verb.
            let prev_non_adv = (0..v).rev().find(|&j| self.tags[j] != PosTag::Adv);
            if let Some(j) = prev_non_adv {
                if self.tags[j] == PosTag::Conj
                    || (self.tags[j] == PosTag::Punct && self.tokens[j].text == ",")
                {
                    if let Some(g) = self.prev_verb_excluding(j, v) {
                        self.attach(v, g, DepLabel::Conj);
                        continue;
                    }
                }
            }
            self.attach(v, root, DepLabel::Conj);
        }
    }

    fn prev_verb_excluding(&self, before: usize, exclude: usize) -> Option<usize> {
        (0..before).rev().find(|&j| self.is_verb(j) && j != exclude)
    }

    /// Det/Adj/Num/Compound attachments inside nominal runs.
    fn attach_np_internals(&mut self, runs: &[Run]) {
        for run in runs {
            for i in run.start..=run.end {
                if i == run.head {
                    continue;
                }
                let label = match self.tags[i] {
                    PosTag::Det => DepLabel::Det,
                    PosTag::Adj => DepLabel::Amod,
                    PosTag::Num => DepLabel::Nummod,
                    PosTag::Noun | PosTag::Pron => DepLabel::Compound,
                    _ => DepLabel::Dep,
                };
                self.attach(i, run.head, label);
            }
        }
    }

    /// A nominal run following another run with only `(`/`,` between →
    /// apposition ("the curl utility (/usr/bin/curl)").
    fn attach_appositions(&mut self, runs: &[Run]) {
        for w in runs.windows(2) {
            let (a, b) = (w[0], w[1]);
            let gap = &(a.end + 1..b.start);
            let only_open_punct = gap.clone().all(|i| {
                self.tags[i] == PosTag::Punct && matches!(self.tokens[i].text.as_str(), "(" | ",")
            });
            if !gap.is_empty() && only_open_punct {
                self.attach(b.head, a.head, DepLabel::Appos);
            }
        }
    }

    /// Prepositions attach to the nearest preceding verb (else nominal
    /// head, else root); their object is the head of the next nominal
    /// run. Passive `by` becomes agent.
    fn attach_prepositions(&mut self, runs: &[Run]) {
        for i in 0..self.n() {
            if self.tags[i] != PosTag::Adp || self.heads[i].is_some() {
                continue;
            }
            // Attachment point.
            let head = self
                .prev_verb(i)
                .or_else(|| runs.iter().rev().find(|r| r.head < i).map(|r| r.head))
                .unwrap_or(0);
            let is_agent = self.tokens[i].lower() == "by"
                && self
                    .prev_verb(i)
                    .is_some_and(|v| self.is_passive_participle(v));
            self.attach(
                i,
                head,
                if is_agent {
                    DepLabel::Agent
                } else {
                    DepLabel::Prep
                },
            );
            // Object: head of the next nominal run (if it starts within a
            // few tokens).
            if let Some(run) = runs.iter().find(|r| r.start > i) {
                if run.start <= i + 3 {
                    self.attach(run.head, i, DepLabel::Pobj);
                }
            }
        }
    }

    /// Coordinators attach as cc; nominal conjuncts to the left conjunct.
    fn attach_conjunctions(&mut self, runs: &[Run]) {
        for i in 0..self.n() {
            if self.tags[i] != PosTag::Conj || self.heads[i].is_some() {
                continue;
            }
            // Left conjunct: nearest preceding verb or run head.
            let left_verb = self.prev_verb(i);
            let left_run = runs.iter().rev().find(|r| r.end < i).map(|r| r.head);
            // Right conjunct: verb or run right after.
            let right_verb = self.next_verb_within(i, 2);
            let right_run = runs.iter().find(|r| r.start > i).map(|r| r.head);
            match (right_verb, right_run) {
                // Verb coordination handled in attach_clauses; just place cc.
                (Some(_), _) => {
                    let host = left_verb.unwrap_or(0);
                    self.attach(i, host, DepLabel::Cc);
                }
                (None, Some(rh)) if rh <= i + 4 => {
                    // Nominal coordination.
                    if let Some(lh) = left_run {
                        self.attach(i, lh, DepLabel::Cc);
                        self.attach(rh, lh, DepLabel::Conj);
                    } else {
                        self.attach(i, left_verb.unwrap_or(0), DepLabel::Cc);
                    }
                }
                _ => {
                    self.attach(i, left_verb.or(left_run).unwrap_or(0), DepLabel::Cc);
                }
            }
        }
    }

    /// Subjects: nearest preceding unattached run head with no other verb
    /// in between. Controlled clauses (xcomp/pcomp/acl) have no overt
    /// subject — the NP before them belongs to the governing verb.
    fn attach_subjects(&mut self, verbs: &[usize], runs: &[Run]) {
        for &v in verbs {
            if self.heads[v].is_some()
                && matches!(
                    self.labels[v],
                    DepLabel::Xcomp | DepLabel::Pcomp | DepLabel::Acl
                )
            {
                continue;
            }
            let candidate = runs
                .iter()
                .rev()
                .find(|r| r.head < v && self.heads[r.head].is_none())
                .map(|r| r.head);
            if let Some(s) = candidate {
                // No verb strictly between subject and verb.
                if (s + 1..v).any(|j| self.is_verb(j)) {
                    continue;
                }
                let passive = self.is_passive_participle(v);
                self.attach(
                    s,
                    v,
                    if passive {
                        DepLabel::NsubjPass
                    } else {
                        DepLabel::Nsubj
                    },
                );
            }
        }
        // Copular root ("X is malicious"): subject of the AUX.
        if verbs.is_empty() {
            if let Some(cop) = (0..self.n()).find(|&i| self.tags[i] == PosTag::Aux) {
                if let Some(run) = runs.iter().rev().find(|r| r.head < cop) {
                    self.attach(run.head, cop, DepLabel::Nsubj);
                }
                if let Some(run) = runs.iter().find(|r| r.head > cop) {
                    self.attach(run.head, cop, DepLabel::Attr);
                }
            }
        }
    }

    /// Objects: the first unattached run head after each verb, before the
    /// next verb.
    fn attach_objects(&mut self, verbs: &[usize], runs: &[Run]) {
        for &v in verbs {
            let next_verb = verbs.iter().copied().find(|&u| u > v).unwrap_or(self.n());
            let candidate = runs
                .iter()
                .find(|r| r.head > v && r.head < next_verb && self.heads[r.head].is_none())
                .map(|r| r.head);
            if let Some(o) = candidate {
                self.attach(o, v, DepLabel::Dobj);
            }
        }
    }

    /// Punctuation and leftovers.
    fn attach_punct_and_rest(&mut self, root: usize) {
        for i in 0..self.n() {
            if self.heads[i].is_some() || i == root {
                continue;
            }
            if self.tags[i] == PosTag::Punct {
                // Attach to the previous non-punct token, else next.
                let host = (0..i)
                    .rev()
                    .find(|&j| self.tags[j] != PosTag::Punct)
                    .or_else(|| (i + 1..self.n()).find(|&j| self.tags[j] != PosTag::Punct))
                    .unwrap_or(root);
                self.attach(i, host, DepLabel::Punct);
            } else if self.tags[i] == PosTag::Adv {
                let host = self
                    .prev_verb(i)
                    .or_else(|| self.next_verb_within(i, 3))
                    .unwrap_or(root);
                self.attach(i, host, DepLabel::Advmod);
            } else {
                self.attach(i, root, DepLabel::Dep);
            }
        }
    }

    /// Breaks any accidental cycles and enforces a single root.
    fn repair(&mut self, root: usize) {
        self.heads[root] = None;
        self.labels[root] = DepLabel::Root;
        let n = self.n();
        for i in 0..n {
            // Walk up; if we revisit `i` or exceed n steps, re-root.
            let mut seen = vec![false; n];
            let mut cur = i;
            loop {
                if seen[cur] {
                    // Cycle: cut at `i`.
                    self.heads[i] = Some(root);
                    self.labels[i] = DepLabel::Dep;
                    break;
                }
                seen[cur] = true;
                match self.heads[cur] {
                    Some(h) => cur = h,
                    None => break,
                }
            }
        }
        // Multiple headless nodes → attach extras to root.
        for i in 0..n {
            if i != root && self.heads[i].is_none() {
                self.heads[i] = Some(root);
                self.labels[i] = DepLabel::Dep;
            }
        }
    }

    fn into_tree(self, root: usize) -> DepTree {
        let nodes = self
            .tokens
            .into_iter()
            .zip(self.tags)
            .zip(self.heads.iter().zip(self.labels))
            .map(|((token, pos), (&head, label))| DepNode {
                token,
                pos,
                head,
                label,
                ann: NodeAnn::default(),
            })
            .collect();
        DepTree { nodes, root }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn parse_str(s: &str) -> DepTree {
        parse(tokenize(s, 0))
    }

    fn find(t: &DepTree, text: &str) -> usize {
        t.nodes
            .iter()
            .position(|n| n.token.text == text)
            .unwrap_or_else(|| panic!("no token `{text}` in {}", t.render()))
    }

    fn head_of<'a>(t: &'a DepTree, text: &str) -> (&'a str, DepLabel) {
        let i = find(t, text);
        let n = &t.nodes[i];
        let head = n
            .head
            .map(|h| t.nodes[h].token.text.as_str())
            .unwrap_or("ROOT");
        (head, n.label)
    }

    #[test]
    fn instrument_pattern_fig2_s1() {
        // Protected form of: "the attacker used /bin/tar to read user
        // credentials from /etc/passwd."
        let t = parse_str("the attacker used something to read user credentials from somethingX .");
        assert!(t.validate().is_ok(), "{}", t.render());
        assert_eq!(head_of(&t, "used"), ("ROOT", DepLabel::Root));
        assert_eq!(head_of(&t, "attacker"), ("used", DepLabel::Nsubj));
        assert_eq!(head_of(&t, "something"), ("used", DepLabel::Dobj));
        assert_eq!(head_of(&t, "read"), ("used", DepLabel::Xcomp));
        assert_eq!(head_of(&t, "credentials"), ("read", DepLabel::Dobj));
        assert_eq!(head_of(&t, "from"), ("read", DepLabel::Prep));
        assert_eq!(head_of(&t, "somethingX"), ("from", DepLabel::Pobj));
    }

    #[test]
    fn pronoun_subject_and_to_phrase() {
        // "It wrote the gathered information to a file /tmp/upload.tar."
        let t = parse_str("It wrote the gathered information to a file somethingY .");
        assert!(t.validate().is_ok(), "{}", t.render());
        assert_eq!(head_of(&t, "It"), ("wrote", DepLabel::Nsubj));
        assert_eq!(head_of(&t, "information"), ("wrote", DepLabel::Dobj));
        assert_eq!(head_of(&t, "to"), ("wrote", DepLabel::Prep));
        // NP head of "a file somethingY" is the dummy (last nominal).
        assert_eq!(head_of(&t, "somethingY"), ("to", DepLabel::Pobj));
        assert_eq!(head_of(&t, "file"), ("somethingY", DepLabel::Compound));
    }

    #[test]
    fn ioc_subject_with_verb_coordination() {
        // "/bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2."
        let t = parse_str("somethingA read from somethingB and wrote to somethingC .");
        assert!(t.validate().is_ok(), "{}", t.render());
        assert_eq!(head_of(&t, "read"), ("ROOT", DepLabel::Root));
        assert_eq!(head_of(&t, "somethingA"), ("read", DepLabel::Nsubj));
        assert_eq!(head_of(&t, "somethingB"), ("from", DepLabel::Pobj));
        assert_eq!(head_of(&t, "wrote"), ("read", DepLabel::Conj));
        assert_eq!(head_of(&t, "to"), ("wrote", DepLabel::Prep));
        assert_eq!(head_of(&t, "somethingC"), ("to", DepLabel::Pobj));
    }

    #[test]
    fn gerund_acl_after_noun() {
        // "… which corresponds to the launched process /usr/bin/gpg
        // reading from /tmp/upload.tar.bz2"
        let t = parse_str(
            "which corresponds to the launched process somethingG reading from somethingH",
        );
        assert!(t.validate().is_ok(), "{}", t.render());
        assert_eq!(head_of(&t, "reading"), ("somethingG", DepLabel::Acl));
        assert_eq!(head_of(&t, "somethingH"), ("from", DepLabel::Pobj));
        assert_eq!(head_of(&t, "process"), ("somethingG", DepLabel::Compound));
    }

    #[test]
    fn by_using_pattern() {
        // "He leaked the information by using /usr/bin/curl to connect to
        // 192.168.29.128."
        let t =
            parse_str("He leaked the information by using somethingU to connect to somethingV .");
        assert!(t.validate().is_ok(), "{}", t.render());
        assert_eq!(head_of(&t, "using"), ("by", DepLabel::Pcomp));
        assert_eq!(head_of(&t, "somethingU"), ("using", DepLabel::Dobj));
        assert_eq!(head_of(&t, "connect"), ("using", DepLabel::Xcomp));
        assert_eq!(head_of(&t, "somethingV"), ("to", DepLabel::Pobj));
    }

    #[test]
    fn passive_with_agent() {
        let t = parse_str("somethingP was downloaded by the attacker .");
        assert!(t.validate().is_ok(), "{}", t.render());
        assert_eq!(
            head_of(&t, "somethingP"),
            ("downloaded", DepLabel::NsubjPass)
        );
        assert_eq!(head_of(&t, "was"), ("downloaded", DepLabel::AuxPass));
        assert_eq!(head_of(&t, "by"), ("downloaded", DepLabel::Agent));
        assert_eq!(head_of(&t, "attacker"), ("by", DepLabel::Pobj));
    }

    #[test]
    fn apposition_parenthetical() {
        // "the curl utility (/usr/bin/curl)"
        let t =
            parse_str("the attacker leveraged the curl utility ( somethingQ ) to read the data");
        assert!(t.validate().is_ok(), "{}", t.render());
        assert_eq!(head_of(&t, "somethingQ"), ("utility", DepLabel::Appos));
        assert_eq!(head_of(&t, "utility"), ("leveraged", DepLabel::Dobj));
        assert_eq!(head_of(&t, "read"), ("leveraged", DepLabel::Xcomp));
    }

    #[test]
    fn nominal_coordination() {
        let t = parse_str("the malware reads somethingM and somethingN nightly");
        assert!(t.validate().is_ok(), "{}", t.render());
        assert_eq!(head_of(&t, "somethingM"), ("reads", DepLabel::Dobj));
        assert_eq!(head_of(&t, "somethingN"), ("somethingM", DepLabel::Conj));
        assert_eq!(head_of(&t, "and"), ("somethingM", DepLabel::Cc));
    }

    #[test]
    fn copular_sentence() {
        let t = parse_str("the file is malicious");
        assert!(t.validate().is_ok(), "{}", t.render());
        let root = &t.nodes[t.root];
        assert_eq!(root.token.text, "is");
        assert_eq!(head_of(&t, "file"), ("is", DepLabel::Nsubj));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(parse_str("").nodes.is_empty());
        let t = parse_str("something");
        assert!(t.validate().is_ok());
        let t = parse_str(". . .");
        assert!(t.validate().is_ok(), "{}", t.render());
        let t = parse_str("and or but");
        assert!(t.validate().is_ok(), "{}", t.render());
    }

    #[test]
    fn every_parse_is_a_valid_tree() {
        let sentences = [
            "After the lateral movement stage , the attacker attempts to steal valuable assets from the host .",
            "This stage mainly involves the behaviors of local and remote file system scanning activities .",
            "Then , the attacker leveraged somethingA utility to compress the tar file .",
            "After compression , the attacker used the tool to encrypt the zipped file .",
            "Finally , the attacker leveraged the curl utility ( somethingB ) to read the data from somethingC .",
            "He leaked the gathered sensitive information back to the attacker C2 host by using somethingD to connect to somethingE .",
        ];
        for s in sentences {
            let t = parse_str(s);
            assert!(t.validate().is_ok(), "sentence `{s}`: {}", t.render());
        }
    }
}
