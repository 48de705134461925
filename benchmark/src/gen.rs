//! Seeded input generators. Everything a workload feeds the program is
//! derived here from `--seed`: the simulated host's audit log, the query
//! mix and its order, the OSCTI report texts, and the chunk boundaries.

use crate::stats::Rng;
use threatraptor_audit::sim::scenario::{AttackKind, Scenario, ScenarioBuilder};
use threatraptor_audit::{LogChunk, LogFeed, ParsedLog};
use threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT;
use threatraptor_tbql::parser::FIG2_TBQL;

/// The simulated host's log: benign background with all four scripted
/// attacks buried in it.
pub fn scenario(seed: u64, events: usize) -> Scenario {
    ScenarioBuilder::new()
        .seed(seed)
        .attacks(&AttackKind::ALL)
        .target_events(events)
        .build()
}

/// Parses `raw` into chunks of `size` events (the last may be shorter).
pub fn chunks(raw: &str, size: usize) -> Vec<LogChunk> {
    LogFeed::by_events(raw, size)
        .map(|c| c.expect("the simulator's log is well-formed"))
        .collect()
}

/// The log a sequence of chunks adds up to.
pub fn log_of<'a>(chunks: impl IntoIterator<Item = &'a LogChunk>) -> ParsedLog {
    let mut log = ParsedLog::default();
    for chunk in chunks {
        log.entities.extend_from_slice(&chunk.new_entities);
        log.events.extend_from_slice(&chunk.events);
    }
    log
}

// ---------------------------------------------------------------- attacks --

const PASSWORD_CRACK_TBQL: &str = r#"
proc p1["%/usr/bin/curl%"] connect ip i1["162.125.6.2"] as evt1
p1 write file f1["%/tmp/cloud.jpg%"] as evt2
proc p2["%/usr/bin/wget%"] connect ip i2["192.168.29.128"] as evt3
p2 write file f2["%/tmp/cracker%"] as evt4
proc p3["%/tmp/cracker%"] read file f3["%/etc/shadow%"] as evt5
p3 write file f4["%/tmp/passwords.txt%"] as evt6
with evt1 before evt2, evt2 before evt3, evt3 before evt4,
     evt4 before evt5, evt5 before evt6
return distinct p1, i1, f1, p2, i2, f2, p3, f3, f4
"#;

const MALWARE_DROP_TBQL: &str = r#"
proc p1["%/usr/bin/wget%"] connect ip i1["203.0.113.66"] as evt1
p1 write file f1["%/tmp/.hidden/payload%"] as evt2
proc p2["%/tmp/.hidden/payload%"] connect ip i2["203.0.113.66"] as evt3
p2 write file f2["%/etc/cron.d/backdoor%"] as evt4
with evt1 before evt2, evt2 before evt3, evt3 before evt4
return distinct p1, i1, f1, p2, i2, f2
"#;

const DB_EXFIL_TBQL: &str = r#"
proc p1["%/usr/bin/pg_dump%"] read file f1["%/var/lib/pgdata/base/13400/16384%"] as evt1
p1 write file f2["%/tmp/db.sql%"] as evt2
proc p2["%/bin/gzip%"] read f2 as evt3
p2 write file f3["%/tmp/db.sql.gz%"] as evt4
proc p3["%/usr/bin/scp%"] read f3 as evt5
p3 connect ip i1["198.51.100.77"] as evt6
with evt1 before evt2, evt2 before evt3, evt3 before evt4,
     evt4 before evt5, evt5 before evt6
return distinct p1, f1, f2, p2, f3, p3, i1
"#;

const PASSWORD_CRACK_REPORT: &str = "\
After penetrating the host through the Shellshock vulnerability, the \
attacker staged a password cracking operation. The attacker used \
/usr/bin/curl to connect to 162.125.6.2. It downloaded an image to \
/tmp/cloud.jpg. The C2 address was encoded in the EXIF metadata of the \
image. Then the attacker used /usr/bin/wget to connect to 192.168.29.128. \
It wrote the password cracker to /tmp/cracker. /tmp/cracker read user \
credentials from /etc/shadow. It wrote the recovered passwords to \
/tmp/passwords.txt.";

const MALWARE_DROP_REPORT: &str = "\
The intrusion began over SSH. The attacker used /usr/bin/wget to connect \
to 203.0.113.66. It wrote the payload to /tmp/.hidden/payload. \
/tmp/.hidden/payload connected to 203.0.113.66 for tasking. It wrote a \
persistence entry to /etc/cron.d/backdoor.";

const DB_EXFIL_REPORT: &str = "\
The attacker targeted the production database. The attacker used \
/usr/bin/pg_dump to read the table heap at /var/lib/pgdata/base/13400/16384. \
It wrote the dump to /tmp/db.sql. Then the attacker used /bin/gzip to \
compress /tmp/db.sql. /bin/gzip wrote the compressed archive to \
/tmp/db.sql.gz. Finally, the attacker used /usr/bin/scp to read \
/tmp/db.sql.gz. It connected to 198.51.100.77.";

/// One scripted attack: how the simulator tags it, the query an analyst
/// would write for it, and the OSCTI narrative describing it.
#[derive(Debug, Clone, Copy)]
pub struct Attack {
    pub kind: AttackKind,
    pub tbql: &'static str,
    pub report: &'static str,
}

pub const ATTACKS: [Attack; 4] = [
    Attack {
        kind: AttackKind::DataLeakage,
        tbql: FIG2_TBQL,
        report: FIG2_OSCTI_TEXT,
    },
    Attack {
        kind: AttackKind::PasswordCrack,
        tbql: PASSWORD_CRACK_TBQL,
        report: PASSWORD_CRACK_REPORT,
    },
    Attack {
        kind: AttackKind::MalwareDrop,
        tbql: MALWARE_DROP_TBQL,
        report: MALWARE_DROP_REPORT,
    },
    Attack {
        kind: AttackKind::DbExfil,
        tbql: DB_EXFIL_TBQL,
        report: DB_EXFIL_REPORT,
    },
];

// -------------------------------------------------------------- hunt mix --

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Analyst reference query: a 4–8-pattern join that finds one attack.
    Needle,
    /// Unselective join or scan with thousands of matches.
    Haystack,
    /// `window`/`before`-bounded: the DBM prunes scans.
    Window,
    /// Variable-length path pattern.
    Path,
    /// Many matches projected onto few distinct rows.
    Distinct,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Needle,
        Class::Haystack,
        Class::Window,
        Class::Path,
        Class::Distinct,
    ];
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuntQuery {
    pub name: &'static str,
    pub class: Class,
    /// Occurrences per cycle of the mix.
    pub weight: usize,
    pub tbql: String,
}

/// The 12-query mix of `hunt-hot`, 48 hunts to a cycle. The heaviest
/// query, `hay-postgres`, is one hunt in 48, so the 99th percentile of
/// hunt latency falls in the middle of its latencies and not on a stray
/// outlier. Only the two window queries depend on the log: their windows
/// are cut from its time span.
pub fn hunt_queries(log: &ParsedLog) -> Vec<HuntQuery> {
    let lo = log.events.first().map_or(0, |e| e.start);
    let hi = log.events.last().map_or(0, |e| e.start);
    let at = |permille: u64| lo + (hi - lo) / 1000 * permille;
    let q = |name, class, weight, tbql: &str| HuntQuery {
        name,
        class,
        weight,
        tbql: tbql.trim().to_string(),
    };
    vec![
        q("needle-data-leakage", Class::Needle, 6, ATTACKS[0].tbql),
        q("needle-password-crack", Class::Needle, 6, ATTACKS[1].tbql),
        q("needle-malware-drop", Class::Needle, 6, ATTACKS[2].tbql),
        q("needle-db-exfil", Class::Needle, 6, ATTACKS[3].tbql),
        q(
            "hay-writes",
            Class::Haystack,
            3,
            "proc p write file f return p, f",
        ),
        q(
            "hay-postgres",
            Class::Haystack,
            1,
            r#"proc p["%postgres%"] read file f as e1 proc p write file g as e2
               with e1 before e2 return distinct f, g"#,
        ),
        q(
            "hay-tar",
            Class::Haystack,
            3,
            r#"proc p["%/bin/tar%"] read file f as e1 proc p write file g as e2
               with e1 before e2 return p, f, g"#,
        ),
        q(
            "win-mid",
            Class::Window,
            3,
            &format!(
                "proc p write file f as e1 proc q read file f as e2 window [{}, {}] \
                 with e1 before e2 return distinct p, f, q",
                at(500),
                at(520)
            ),
        ),
        q(
            "win-pair",
            Class::Window,
            3,
            &format!(
                "proc p read file f as e1 window [{}, {}] \
                 proc p write file g as e2 window [{}, {}] \
                 with e1 before e2 return p, f, g",
                at(300),
                at(310),
                at(300),
                at(320)
            ),
        ),
        q(
            "path-tar-upload",
            Class::Path,
            3,
            r#"proc p["%/bin/tar%"] ~>(1~4)[write] file f["%/tmp/upload%"] as flow
               return distinct p, f"#,
        ),
        q(
            "path-make-build",
            Class::Path,
            3,
            r#"proc p["%/usr/bin/make%"] ~>(1~3)[write] file f["%/home/dev/proj/build/%"] as flow
               return distinct p, f"#,
        ),
        q(
            "distinct-reads",
            Class::Distinct,
            5,
            "proc p read file f return distinct p, f",
        ),
    ]
}

/// An endless seeded order over a weighted set: each cycle holds every
/// item `weight` times, freshly shuffled, so the share of each item is
/// exact over a cycle and the order still depends on the seed.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    cycle: Vec<usize>,
    next: usize,
}

impl Mix {
    pub fn new(weights: impl IntoIterator<Item = usize>, rng: Rng) -> Mix {
        let cycle: Vec<usize> = weights
            .into_iter()
            .enumerate()
            .flat_map(|(i, w)| std::iter::repeat_n(i, w))
            .collect();
        let next = cycle.len();
        Mix { rng, cycle, next }
    }

    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }
}

impl Iterator for Mix {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next == self.cycle.len() {
            self.rng.shuffle(&mut self.cycle);
            self.next = 0;
        }
        self.next += 1;
        Some(self.cycle[self.next - 1])
    }
}

// ---------------------------------------------------------------- reports --

/// What a report text is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// One narrative with every IOC replaced by one that occurs nowhere
    /// in the log: must synthesize, must match nothing.
    Decoy(usize),
    /// One narrative untouched but for a nonce sentence: a new text, the
    /// same query, and it must find its attack.
    True(usize),
    /// All four narratives in one text, IOCs replaced: the long report
    /// that sets the latency tail.
    LongDecoy,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    pub kind: ReportKind,
    pub text: String,
}

/// Reports come in blocks of this many, every block with the same make-up
/// in a seeded order: 15 decoys per narrative, 2 true reports, 2 long
/// decoys. A block is therefore a fixed amount of work, and the long
/// reports are 3 % of operations, so the 99th percentile falls among them.
pub const REPORT_BLOCK: usize = 64;

/// `blocks` blocks of distinct OSCTI texts. No IOC of a decoy repeats in
/// another text, so neither a report synthesis nor a plan is ever reused.
pub fn reports(seed: u64, blocks: usize) -> Vec<Report> {
    let mut rng = Rng::new(seed, 0x7e47);
    let mut out = Vec::with_capacity(blocks * REPORT_BLOCK);
    for block in 0..blocks {
        let mut kinds: Vec<ReportKind> = (0..60).map(|i| ReportKind::Decoy(i % 4)).collect();
        kinds.extend([
            ReportKind::True(2 * block % 4),
            ReportKind::True((2 * block + 1) % 4),
            ReportKind::LongDecoy,
            ReportKind::LongDecoy,
        ]);
        rng.shuffle(&mut kinds);
        for kind in kinds {
            // The running index makes every tag, and so every text, unique.
            let tag = (out.len() as u64) << 12 | rng.below(1 << 12);
            let text = match kind {
                ReportKind::Decoy(attack) => substitute_iocs(ATTACKS[attack].report, tag),
                ReportKind::True(attack) => format!(
                    "{} This advisory is tracked as case {tag}.",
                    ATTACKS[attack].report
                ),
                ReportKind::LongDecoy => {
                    let all: Vec<&str> = ATTACKS.iter().map(|a| a.report).collect();
                    substitute_iocs(&all.join(" "), tag)
                }
            };
            out.push(Report { kind, text });
        }
    }
    out
}

fn is_path_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'/' | b'.' | b'_' | b'-')
}

/// Rewrites every file path and IPv4 address of `text` into one derived
/// from `tag`; the same IOC maps to the same replacement throughout.
pub fn substitute_iocs(text: &str, tag: u64) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() + 64);
    let mut i = 0;
    while i < bytes.len() {
        let boundary = i == 0 || !is_path_byte(bytes[i - 1]);
        let starts_token = boundary && (bytes[i] == b'/' || bytes[i].is_ascii_digit());
        if !starts_token {
            // Multi-byte characters are copied whole.
            let ch = text[i..].chars().next().expect("i is a char boundary");
            out.push(ch);
            i += ch.len_utf8();
            continue;
        }
        let mut j = i;
        while j < bytes.len() && is_path_byte(bytes[j]) {
            j += 1;
        }
        // A sentence-final full stop is not part of the IOC.
        let token = text[i..j].trim_end_matches('.');
        let octets: Vec<&str> = token.split('.').collect();
        let is_ip = octets.len() == 4 && octets.iter().all(|o| o.parse::<u8>().is_ok());
        match token.rsplit_once('/') {
            Some((dir, base)) if token.starts_with('/') && !base.is_empty() => {
                out.push_str(&format!("{dir}/q{tag:x}/{base}"));
            }
            _ if is_ip => {
                out.push_str(&format!(
                    "10.{}.{}.{}",
                    (tag >> 8) & 0xff,
                    tag & 0xff,
                    octets[3]
                ));
            }
            _ => out.push_str(token),
        }
        i += token.len();
    }
    out
}

// ------------------------------------------------------- standing queries --

/// The 16 standing queries of `live-mixed`: the four attack references
/// and twelve patterns that fire on benign activity, from a few dozen to
/// a few thousand matches per 100 k events. Event patterns only: path
/// patterns cannot run incrementally.
pub fn standing_queries() -> Vec<&'static str> {
    let mut queries: Vec<&'static str> = vec![
        // One or two per kind of benign round, so that most chunks fire.
        r#"proc p["%/usr/sbin/apache2%"] accept ip i return p, i"#,
        r#"proc p["%/usr/sbin/apache2%"] read file f["%/var/www/html/index.html%"] return p, f"#,
        r#"proc p["%postgres%"] write file f["%pg_wal%"] return p, f"#,
        r#"proc p["%/bin/tar%"] read file f["%/home/dev/data/%"] return p, f"#,
        r#"proc p["%/bin/cat%"] read file f return p, f"#,
        r#"proc p["%/bin/grep%"] read file f["%/var/log/%"] return p, f"#,
        r#"proc p unlink file f return p, f"#,
        r#"proc p["%/usr/bin/ld%"] write file f["%/home/dev/proj/build/app%"] return p, f"#,
        r#"proc p["%/usr/bin/dpkg%"] read file f as e1 proc p write file g as e2
           with e1 before e2 return p, f, g"#,
        r#"proc p["%/usr/sbin/logrotate%"] fork proc c["%/bin/gzip%"] as e1
           proc c write file f as e2 with e1 before e2 return c, f"#,
        r#"proc p["%/bin/bash%"] fork proc c as e1 proc c read file f as e2
           with e1 before e2 return p, c, f"#,
        r#"proc p["%/usr/bin/gcc%"] read file f as e1 proc p write file g as e2
           with e1 before e2 return p, f, g"#,
    ];
    queries.extend(ATTACKS.iter().map(|a| a.tbql));
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitution_rewrites_every_ioc_consistently() {
        let text =
            "He used (/usr/bin/curl) to read /tmp/upload. /tmp/upload went to 192.168.29.128.";
        let out = substitute_iocs(text, 0xab12);
        assert_eq!(
            out,
            "He used (/usr/bin/qab12/curl) to read /tmp/qab12/upload. \
             /tmp/qab12/upload went to 10.171.18.128."
        );
        assert_ne!(out, substitute_iocs(text, 0xab13));
        // Nothing that is not an IOC changes.
        assert_eq!(
            substitute_iocs("Stage 2 began. No IOC here / at all.", 1),
            "Stage 2 began. No IOC here / at all."
        );
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        let inputs = |seed| {
            let sc = scenario(seed, 3_000);
            let queries = hunt_queries(&sc.log);
            let order: Vec<usize> = Mix::new(queries.iter().map(|q| q.weight), Rng::new(seed, 1))
                .take(100)
                .collect();
            let bounds: Vec<(usize, usize)> = chunks(&sc.raw, 250)
                .iter()
                .map(|c| (c.new_entities.len(), c.events.len()))
                .collect();
            (sc.raw, queries, order, reports(seed, 2), bounds)
        };
        let (a, b, c) = (inputs(11), inputs(11), inputs(12));
        assert_eq!(a, b);
        assert_ne!(a.0, c.0, "another seed, another log");
        assert_ne!(a.2, c.2, "another seed, another query order");
        assert_ne!(a.3, c.3, "another seed, other reports");
    }

    #[test]
    fn a_mix_cycle_holds_each_item_weight_times() {
        let mut mix = Mix::new([3, 1, 2], Rng::new(5, 0));
        for _ in 0..4 {
            let mut counts = [0; 3];
            for i in mix.by_ref().take(6) {
                counts[i] += 1;
            }
            assert_eq!(counts, [3, 1, 2]);
        }
    }

    #[test]
    fn reports_are_distinct_and_every_block_has_the_same_make_up() {
        let rs = reports(3, 32);
        let texts: std::collections::HashSet<&str> = rs.iter().map(|r| r.text.as_str()).collect();
        assert_eq!(texts.len(), 32 * REPORT_BLOCK);
        for block in rs.chunks(REPORT_BLOCK) {
            let count = |f: fn(&ReportKind) -> bool| block.iter().filter(|r| f(&r.kind)).count();
            assert_eq!(count(|k| matches!(k, ReportKind::Decoy(_))), 60);
            assert_eq!(count(|k| matches!(k, ReportKind::True(_))), 2);
            assert_eq!(count(|k| matches!(k, ReportKind::LongDecoy)), 2);
        }
    }

    #[test]
    fn every_query_of_the_corpus_parses_and_analyzes() {
        let sc = scenario(1, 2_000);
        let hunts = hunt_queries(&sc.log);
        assert_eq!(hunts.len(), 12);
        assert_eq!(standing_queries().len(), 16);
        for q in hunts
            .iter()
            .map(|q| q.tbql.as_str())
            .chain(standing_queries())
        {
            let parsed = threatraptor_tbql::parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            threatraptor_tbql::analyze(&parsed).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }
}
