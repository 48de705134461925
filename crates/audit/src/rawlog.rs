//! Sysdig-like raw audit log format.
//!
//! The simulator emits one text line per audit event, mimicking the shape
//! of Sysdig capture output: each line is self-describing (carries full
//! subject-process context, operation, object specification, byte counts),
//! so the parser can reconstruct entities and events without out-of-band
//! state — exactly what the paper's log-parsing component does with real
//! Sysdig output.
//!
//! Line layout (11 tab-separated fields):
//!
//! ```text
//! start  end  pid  exe  owner  pstart  cmdline  op  objspec  bytes  tag
//! ```
//!
//! `objspec` encodes the object entity:
//!
//! * file:    `F|<path>`
//! * process: `P|<pid>|<exe>|<owner>|<pstart>|<cmdline>`
//! * network: `N|<srcip>|<sport>|<dstip>|<dport>|<proto>`
//!
//! `tag` is `-` for benign events or `<case>:<step>` for ground-truth
//! attack labels (evaluation metadata; ignored by the query layers).

use crate::event::{AttackTag, Operation};

/// Subject (or object) process context carried on every raw line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawProc {
    /// Kernel pid.
    pub pid: u32,
    /// Executable path.
    pub exe: String,
    /// Owning user.
    pub owner: String,
    /// Command line (no tabs or `|`).
    pub cmdline: String,
    /// Process start time (ns since scenario start).
    pub start_time: u64,
}

/// Object specification of a raw record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawObject {
    /// A file object.
    File {
        /// Absolute path.
        path: String,
    },
    /// A process object (fork/clone/kill/setuid target).
    Process(RawProc),
    /// A network-connection object.
    Network {
        /// Source IP.
        src_ip: String,
        /// Source port.
        src_port: u16,
        /// Destination IP.
        dst_ip: String,
        /// Destination port.
        dst_port: u16,
        /// Transport protocol.
        protocol: String,
    },
}

/// One raw audit record, as produced by the simulator before encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Start timestamp (ns since scenario start).
    pub start: u64,
    /// End timestamp (ns since scenario start).
    pub end: u64,
    /// Subject process.
    pub subject: RawProc,
    /// Operation.
    pub op: Operation,
    /// Object.
    pub object: RawObject,
    /// Bytes transferred (0 when not applicable).
    pub bytes: u64,
    /// Ground-truth label.
    pub tag: Option<AttackTag>,
}

impl RawRecord {
    /// Encodes this record as one log line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut line = String::with_capacity(128);
        self.encode_into(&mut line);
        line
    }

    /// Appends this record's line (no trailing newline) to `out`.
    fn encode_into(&self, out: &mut String) {
        push_decimal(out, self.start);
        out.push('\t');
        push_decimal(out, self.end);
        out.push('\t');
        self.subject.encode_into(out, '\t');
        out.push('\t');
        out.push_str(self.op.name());
        out.push('\t');
        match &self.object {
            RawObject::File { path } => {
                out.push_str("F|");
                out.push_str(path);
            }
            RawObject::Process(p) => {
                out.push_str("P|");
                p.encode_into(out, '|');
            }
            RawObject::Network {
                src_ip,
                src_port,
                dst_ip,
                dst_port,
                protocol,
            } => {
                out.push_str("N|");
                push_connection(out, src_ip, *src_port, dst_ip, *dst_port, protocol);
            }
        }
        out.push('\t');
        push_decimal(out, self.bytes);
        out.push('\t');
        match &self.tag {
            Some(tag) => {
                out.push_str(&tag.case);
                out.push(':');
                push_decimal(out, tag.step.into());
            }
            None => out.push('-'),
        }
    }
}

impl RawProc {
    /// Appends `pid`, `exe`, `owner`, `start_time` and `cmdline` to `out`,
    /// `sep` between them: the subject's fields of a line (`\t`), or the
    /// parts of a process objspec (`|`).
    fn encode_into(&self, out: &mut String, sep: char) {
        push_decimal(out, self.pid.into());
        out.push(sep);
        out.push_str(&self.exe);
        out.push(sep);
        out.push_str(&self.owner);
        out.push(sep);
        push_decimal(out, self.start_time);
        out.push(sep);
        out.push_str(&self.cmdline);
    }
}

/// Appends a connection's 5-tuple to `out` as a network objspec writes
/// it after `N|`: `src_ip|src_port|dst_ip|dst_port|protocol`.
pub(crate) fn push_connection(
    out: &mut String,
    src_ip: &str,
    src_port: u16,
    dst_ip: &str,
    dst_port: u16,
    protocol: &str,
) {
    out.push_str(src_ip);
    out.push('|');
    push_decimal(out, src_port.into());
    out.push('|');
    out.push_str(dst_ip);
    out.push('|');
    push_decimal(out, dst_port.into());
    out.push('|');
    out.push_str(protocol);
}

/// Appends `value` in decimal to `out`, as `write!(out, "{value}")` does,
/// without going through `fmt`.
fn push_decimal(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&digit| char::from(digit)));
}

/// Encodes a slice of records into a newline-terminated log document.
pub fn encode_lines(records: &[RawRecord]) -> String {
    // Pre-size roughly: ~120 bytes per line avoids repeated reallocation.
    let mut out = String::with_capacity(records.len() * 120);
    for rec in records {
        rec.encode_into(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subj() -> RawProc {
        RawProc {
            pid: 101,
            exe: "/bin/tar".into(),
            owner: "root".into(),
            cmdline: "/bin/tar cf /tmp/upload.tar /etc/passwd".into(),
            start_time: 500,
        }
    }

    #[test]
    fn encode_file_event() {
        let rec = RawRecord {
            start: 1000,
            end: 1010,
            subject: subj(),
            op: Operation::Read,
            object: RawObject::File {
                path: "/etc/passwd".into(),
            },
            bytes: 2048,
            tag: None,
        };
        let line = rec.encode();
        assert_eq!(
            line,
            "1000\t1010\t101\t/bin/tar\troot\t500\t/bin/tar cf /tmp/upload.tar /etc/passwd\tread\tF|/etc/passwd\t2048\t-"
        );
    }

    #[test]
    fn encode_network_event_with_tag() {
        let rec = RawRecord {
            start: 5,
            end: 6,
            subject: subj(),
            op: Operation::Connect,
            object: RawObject::Network {
                src_ip: "10.0.0.4".into(),
                src_port: 51000,
                dst_ip: "192.168.29.128".into(),
                dst_port: 443,
                protocol: "tcp".into(),
            },
            bytes: 0,
            tag: Some(AttackTag {
                case: "data_leakage".into(),
                step: 8,
            }),
        };
        let line = rec.encode();
        assert!(line.ends_with("\tN|10.0.0.4|51000|192.168.29.128|443|tcp\t0\tdata_leakage:8"));
    }

    #[test]
    fn encode_process_event() {
        let child = RawProc {
            pid: 102,
            exe: "/bin/bzip2".into(),
            owner: "root".into(),
            cmdline: "/bin/bzip2 /tmp/upload.tar".into(),
            start_time: 2000,
        };
        let rec = RawRecord {
            start: 2000,
            end: 2001,
            subject: subj(),
            op: Operation::Fork,
            object: RawObject::Process(child),
            bytes: 0,
            tag: None,
        };
        let line = rec.encode();
        assert!(line.contains("\tfork\tP|102|/bin/bzip2|root|2000|/bin/bzip2 /tmp/upload.tar\t"));
    }

    #[test]
    fn encode_lines_joins_with_newlines() {
        let rec = RawRecord {
            start: 1,
            end: 2,
            subject: subj(),
            op: Operation::Write,
            object: RawObject::File {
                path: "/tmp/x".into(),
            },
            bytes: 1,
            tag: None,
        };
        let doc = encode_lines(&[rec.clone(), rec]);
        assert_eq!(doc.lines().count(), 2);
        assert!(doc.ends_with('\n'));
    }

    /// FNV-1a, 64 bits.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The encoder's whole output on a simulated log, pinned by hash: a
    /// change to how lines are written must leave every byte as it was.
    #[test]
    fn encoded_scenario_is_unchanged() {
        let raw = crate::sim::scenario::ScenarioBuilder::new()
            .seed(1)
            .target_events(20_000)
            .build()
            .raw;
        assert_eq!(raw.len(), 2_684_300);
        assert_eq!(fnv1a(raw.as_bytes()), 0x5a75_f664_33ea_0b58);
    }
}
