//! Raw-log parser: text lines → system entities + system events.
//!
//! This is the paper's "Log Parsing" component (Fig. 1): it consumes the
//! Sysdig-like text format of [`crate::rawlog`] and produces deduplicated
//! entities with stable ids plus the event stream referencing them.
//!
//! Entity identity:
//! * processes are keyed by `(pid, start_time)` — pids are not reused
//!   within a scenario, but the pair is future-proof;
//! * files are keyed by absolute path;
//! * network connections are keyed by the full 5-tuple.

use crate::entity::{Entity, EntityId, FileEntity, NetworkEntity, ProcessEntity};
use crate::event::{AttackTag, Event, EventId, Operation};
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with 1-based line number and explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Result of parsing a raw log document.
#[derive(Debug, Clone, Default)]
pub struct ParsedLog {
    /// All entities, indexed by [`EntityId`].
    pub entities: Vec<Entity>,
    /// All events, indexed by [`EventId`], in log order.
    pub events: Vec<Event>,
}

impl ParsedLog {
    /// Looks up an entity by id.
    #[inline]
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// Looks up an event by id.
    #[inline]
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// Number of entities of each kind `(files, processes, connections)`.
    pub fn entity_counts(&self) -> (usize, usize, usize) {
        let mut files = 0;
        let mut procs = 0;
        let mut nets = 0;
        for e in &self.entities {
            match e {
                Entity::File(_) => files += 1,
                Entity::Process(_) => procs += 1,
                Entity::Network(_) => nets += 1,
            }
        }
        (files, procs, nets)
    }
}

/// One increment of a chunked parse: the entities and events added since
/// the previous chunk was taken. Entity ids are global and append-only —
/// `new_entities` continues the id sequence of every earlier chunk, and
/// `events` may reference entities from any chunk so far. Produced by
/// [`Parser::take_chunk`] / [`crate::feed::LogFeed`] and consumed by the
/// storage layer's streaming ingest.
#[derive(Debug, Clone, Default)]
pub struct LogChunk {
    /// Entities first referenced in this chunk, in global id order.
    pub new_entities: Vec<Entity>,
    /// Events of this chunk, in log order with global [`EventId`]s.
    pub events: Vec<Event>,
}

impl LogChunk {
    /// True when the chunk carries neither entities nor events.
    pub fn is_empty(&self) -> bool {
        self.new_entities.is_empty() && self.events.is_empty()
    }
}

/// Streaming parser with entity interning.
#[derive(Debug, Default)]
pub struct Parser {
    /// Parsed but not yet handed out: [`Parser::take_chunk`] drains it, so
    /// a parser over an endless log holds one chunk, not the log.
    out: ParsedLog,
    proc_ids: HashMap<(u32, u64), EntityId>,
    file_ids: HashMap<String, EntityId>,
    /// Keyed by the rendered 5-tuple (see [`Parser::intern_network`]).
    net_ids: HashMap<String, EntityId>,
    /// Scratch buffer for rendering a `net_ids` key without allocating.
    net_key: String,
    /// How many entities and events earlier chunks handed out: the next
    /// id is this plus what is pending in `out`.
    taken_entities: usize,
    taken_events: usize,
}

impl Parser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a whole document (newline-separated lines). Blank lines and
    /// lines starting with `#` are skipped. Fails fast on the first
    /// malformed line.
    pub fn parse_document(mut self, text: &str) -> Result<ParsedLog, ParseError> {
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let trimmed = line.trim_end();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            self.parse_line(trimmed, lineno)?;
        }
        Ok(self.out)
    }

    /// Events parsed but not yet handed out by [`Parser::take_chunk`].
    pub fn pending_events(&self) -> usize {
        self.out.events.len()
    }

    /// Takes everything parsed since the last chunk: all pending entities
    /// and all pending events.
    pub fn take_chunk(&mut self) -> LogChunk {
        let chunk = LogChunk {
            new_entities: std::mem::take(&mut self.out.entities),
            events: std::mem::take(&mut self.out.events),
        };
        self.taken_entities += chunk.new_entities.len();
        self.taken_events += chunk.events.len();
        chunk
    }

    fn next_entity_id(&self) -> EntityId {
        EntityId((self.taken_entities + self.out.entities.len()) as u32)
    }

    /// Parses a single line, appending to the accumulated log.
    pub fn parse_line(&mut self, line: &str, lineno: usize) -> Result<(), ParseError> {
        let err = |message: String| ParseError {
            line: lineno,
            message,
        };
        let Some(fields) = split_exact::<11>(line.split('\t')) else {
            return Err(err(format!(
                "expected 11 tab-separated fields, got {}",
                line.split('\t').count()
            )));
        };
        let start: u64 = fields[0]
            .parse()
            .map_err(|_| err(format!("bad start timestamp `{}`", fields[0])))?;
        let end: u64 = fields[1]
            .parse()
            .map_err(|_| err(format!("bad end timestamp `{}`", fields[1])))?;
        if end < start {
            return Err(err(format!(
                "event ends ({end}) before it starts ({start})"
            )));
        }
        let pid: u32 = fields[2]
            .parse()
            .map_err(|_| err(format!("bad pid `{}`", fields[2])))?;
        let exe = fields[3];
        let owner = fields[4];
        let pstart: u64 = fields[5]
            .parse()
            .map_err(|_| err(format!("bad process start time `{}`", fields[5])))?;
        let cmdline = fields[6];
        let op: Operation = fields[7]
            .parse()
            .map_err(|_| err(format!("unknown operation `{}`", fields[7])))?;
        let bytes: u64 = fields[9]
            .parse()
            .map_err(|_| err(format!("bad byte count `{}`", fields[9])))?;
        let tag = parse_tag(fields[10]).map_err(err)?;

        let subject = self.intern_process(pid, exe, owner, cmdline, pstart);
        let object = self.parse_object(fields[8], op, lineno)?;

        let id = EventId((self.taken_events + self.out.events.len()) as u32);
        self.out.events.push(Event {
            id,
            subject,
            op,
            object,
            start,
            end,
            bytes,
            merged: 1,
            tag,
        });
        Ok(())
    }

    fn parse_object(
        &mut self,
        spec: &str,
        op: Operation,
        lineno: usize,
    ) -> Result<EntityId, ParseError> {
        let err = |message: String| ParseError {
            line: lineno,
            message,
        };
        let mut rest = spec.split('|');
        let kind = rest.next().unwrap_or("");
        match kind {
            "F" => {
                if op.object_kind() != crate::entity::EntityKind::File {
                    return Err(err(format!("operation `{op}` cannot target a file")));
                }
                let Some([path]) = split_exact(rest) else {
                    return Err(err(format!("bad file objspec `{spec}`")));
                };
                Ok(self.intern_file(path))
            }
            "P" => {
                if op.object_kind() != crate::entity::EntityKind::Process {
                    return Err(err(format!("operation `{op}` cannot target a process")));
                }
                let Some([pid, exe, owner, pstart, cmdline]) = split_exact(rest) else {
                    return Err(err(format!("bad process objspec `{spec}`")));
                };
                let pid: u32 = pid
                    .parse()
                    .map_err(|_| err(format!("bad object pid `{pid}`")))?;
                let pstart: u64 = pstart
                    .parse()
                    .map_err(|_| err(format!("bad object process start `{pstart}`")))?;
                Ok(self.intern_process(pid, exe, owner, cmdline, pstart))
            }
            "N" => {
                if op.object_kind() != crate::entity::EntityKind::Network {
                    return Err(err(format!("operation `{op}` cannot target a connection")));
                }
                let Some([src_ip, src_port, dst_ip, dst_port, proto]) = split_exact(rest) else {
                    return Err(err(format!("bad network objspec `{spec}`")));
                };
                let src_port: u16 = src_port
                    .parse()
                    .map_err(|_| err(format!("bad source port `{src_port}`")))?;
                let dst_port: u16 = dst_port
                    .parse()
                    .map_err(|_| err(format!("bad destination port `{dst_port}`")))?;
                Ok(self.intern_network(src_ip, src_port, dst_ip, dst_port, proto))
            }
            other => Err(err(format!("unknown object kind `{other}`"))),
        }
    }

    fn intern_process(
        &mut self,
        pid: u32,
        exe: &str,
        owner: &str,
        cmdline: &str,
        start_time: u64,
    ) -> EntityId {
        if let Some(&id) = self.proc_ids.get(&(pid, start_time)) {
            return id;
        }
        let id = self.next_entity_id();
        self.out.entities.push(Entity::Process(ProcessEntity {
            id,
            pid,
            exename: exe.to_string(),
            cmdline: cmdline.to_string(),
            owner: owner.to_string(),
            start_time,
        }));
        self.proc_ids.insert((pid, start_time), id);
        id
    }

    fn intern_file(&mut self, path: &str) -> EntityId {
        if let Some(&id) = self.file_ids.get(path) {
            return id;
        }
        let id = self.next_entity_id();
        self.out.entities.push(Entity::File(FileEntity {
            id,
            name: path.to_string(),
        }));
        self.file_ids.insert(path.to_string(), id);
        id
    }

    fn intern_network(
        &mut self,
        src_ip: &str,
        src_port: u16,
        dst_ip: &str,
        dst_port: u16,
        protocol: &str,
    ) -> EntityId {
        // The 5-tuple rendered with `|` between its parts is as unique as
        // the tuple (the parts came out of a split on `|`), and a reused
        // buffer makes the common case — a known connection — a lookup
        // by `&str` with no allocation.
        use fmt::Write;
        self.net_key.clear();
        write!(
            self.net_key,
            "{src_ip}|{src_port}|{dst_ip}|{dst_port}|{protocol}"
        )
        .expect("writing to a String cannot fail");
        if let Some(&id) = self.net_ids.get(self.net_key.as_str()) {
            return id;
        }
        let id = self.next_entity_id();
        self.out.entities.push(Entity::Network(NetworkEntity {
            id,
            src_ip: src_ip.to_string(),
            src_port,
            dst_ip: dst_ip.to_string(),
            dst_port,
            protocol: protocol.to_string(),
        }));
        self.net_ids.insert(self.net_key.clone(), id);
        id
    }
}

/// The `N` parts of `parts`, or `None` when there are fewer or more.
fn split_exact<'a, const N: usize>(
    mut parts: impl Iterator<Item = &'a str>,
) -> Option<[&'a str; N]> {
    let mut out = [""; N];
    for slot in &mut out {
        *slot = parts.next()?;
    }
    parts.next().is_none().then_some(out)
}

fn parse_tag(field: &str) -> Result<Option<AttackTag>, String> {
    if field == "-" {
        return Ok(None);
    }
    let (case, step) = field
        .rsplit_once(':')
        .ok_or_else(|| format!("bad tag `{field}`"))?;
    let step: u32 = step.parse().map_err(|_| format!("bad tag step `{step}`"))?;
    if case.is_empty() {
        return Err(format!("bad tag `{field}`: empty case"));
    }
    Ok(Some(AttackTag {
        case: case.to_string(),
        step,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rawlog::{encode_lines, RawObject, RawProc, RawRecord};

    fn proc_ctx(pid: u32, exe: &str) -> RawProc {
        RawProc {
            pid,
            exe: exe.into(),
            owner: "root".into(),
            cmdline: exe.into(),
            start_time: 100,
        }
    }

    fn file_read(pid: u32, exe: &str, path: &str, start: u64) -> RawRecord {
        RawRecord {
            start,
            end: start + 5,
            subject: proc_ctx(pid, exe),
            op: Operation::Read,
            object: RawObject::File { path: path.into() },
            bytes: 4096,
            tag: None,
        }
    }

    #[test]
    fn round_trip_single_event() {
        let doc = encode_lines(&[file_read(10, "/bin/cat", "/etc/hosts", 1000)]);
        let log = Parser::new().parse_document(&doc).unwrap();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.entities.len(), 2);
        let ev = &log.events[0];
        assert_eq!(ev.op, Operation::Read);
        assert_eq!(ev.start, 1000);
        assert_eq!(ev.end, 1005);
        let subject = log.entity(ev.subject).as_process().unwrap();
        assert_eq!(subject.exename, "/bin/cat");
        let object = log.entity(ev.object).as_file().unwrap();
        assert_eq!(object.name, "/etc/hosts");
    }

    #[test]
    fn entities_are_interned() {
        let doc = encode_lines(&[
            file_read(10, "/bin/cat", "/etc/hosts", 1000),
            file_read(10, "/bin/cat", "/etc/hosts", 2000),
            file_read(10, "/bin/cat", "/etc/passwd", 3000),
        ]);
        let log = Parser::new().parse_document(&doc).unwrap();
        assert_eq!(log.events.len(), 3);
        // 1 process + 2 files.
        assert_eq!(log.entities.len(), 3);
        assert_eq!(log.events[0].subject, log.events[1].subject);
        assert_eq!(log.events[0].object, log.events[1].object);
        assert_ne!(log.events[0].object, log.events[2].object);
        assert_eq!(log.entity_counts(), (2, 1, 0));
    }

    #[test]
    fn taken_chunks_are_drained_and_ids_continue() {
        let lines = |recs: &[RawRecord]| encode_lines(recs);
        let mut parser = Parser::new();
        let first = lines(&[
            file_read(10, "/bin/cat", "/etc/hosts", 1000),
            file_read(10, "/bin/cat", "/etc/passwd", 2000),
        ]);
        for (i, line) in first.lines().enumerate() {
            parser.parse_line(line, i + 1).unwrap();
        }
        let a = parser.take_chunk();
        assert_eq!((a.new_entities.len(), a.events.len()), (3, 2));
        // Nothing handed out stays behind: an endless feed holds one
        // chunk, not the log.
        assert!(parser.out.entities.is_empty() && parser.out.events.is_empty());

        let second = lines(&[
            file_read(10, "/bin/cat", "/etc/hosts", 3000),
            file_read(11, "/bin/ls", "/tmp/a", 4000),
        ]);
        for (i, line) in second.lines().enumerate() {
            parser.parse_line(line, i + 3).unwrap();
        }
        let b = parser.take_chunk();
        // Known entities are still interned; new ones and the events
        // continue the global id sequences.
        assert_eq!(b.events[0].subject, a.events[0].subject);
        assert_eq!(b.events[0].object, a.events[0].object);
        let ids: Vec<usize> = b.new_entities.iter().map(|e| e.id().index()).collect();
        assert_eq!(ids, [3, 4]);
        assert_eq!((b.events[0].id, b.events[1].id), (EventId(2), EventId(3)));
    }

    #[test]
    fn network_and_process_objects() {
        let conn = RawRecord {
            start: 1,
            end: 2,
            subject: proc_ctx(10, "/usr/bin/curl"),
            op: Operation::Connect,
            object: RawObject::Network {
                src_ip: "10.0.0.4".into(),
                src_port: 50000,
                dst_ip: "192.168.29.128".into(),
                dst_port: 443,
                protocol: "tcp".into(),
            },
            bytes: 0,
            tag: None,
        };
        let fork = RawRecord {
            start: 3,
            end: 4,
            subject: proc_ctx(10, "/usr/bin/curl"),
            op: Operation::Fork,
            object: RawObject::Process(proc_ctx(11, "/bin/sh")),
            bytes: 0,
            tag: None,
        };
        let log = Parser::new()
            .parse_document(&encode_lines(&[conn, fork]))
            .unwrap();
        assert_eq!(log.entity_counts(), (0, 2, 1));
        let net = log.entity(log.events[0].object).as_network().unwrap();
        assert_eq!(net.dst_ip, "192.168.29.128");
        let child = log.entity(log.events[1].object).as_process().unwrap();
        assert_eq!(child.pid, 11);
    }

    #[test]
    fn tags_round_trip() {
        let mut rec = file_read(10, "/bin/tar", "/etc/passwd", 10);
        rec.tag = Some(AttackTag {
            case: "data_leakage".into(),
            step: 1,
        });
        let log = Parser::new().parse_document(&encode_lines(&[rec])).unwrap();
        assert_eq!(
            log.events[0].tag,
            Some(AttackTag {
                case: "data_leakage".into(),
                step: 1
            })
        );
        assert!(log.events[0].is_attack());
    }

    #[test]
    fn blank_and_comment_lines_skipped() {
        let mut doc = String::from("# sysdig-like capture\n\n");
        doc.push_str(&encode_lines(&[file_read(1, "/bin/ls", "/tmp/a", 5)]));
        let log = Parser::new().parse_document(&doc).unwrap();
        assert_eq!(log.events.len(), 1);
    }

    #[test]
    fn malformed_field_count_rejected() {
        let err = Parser::new().parse_document("1\t2\t3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("11 tab-separated"));
    }

    #[test]
    fn bad_timestamps_rejected() {
        let line = "xx\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tread\tF|/tmp/a\t0\t-";
        let err = Parser::new().parse_document(line).unwrap_err();
        assert!(err.message.contains("bad start timestamp"));

        let line = "9\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tread\tF|/tmp/a\t0\t-";
        let err = Parser::new().parse_document(line).unwrap_err();
        assert!(err.message.contains("ends"));
    }

    #[test]
    fn op_object_kind_mismatch_rejected() {
        // `connect` must target a network object, not a file.
        let line = "1\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tconnect\tF|/tmp/a\t0\t-";
        let err = Parser::new().parse_document(line).unwrap_err();
        assert!(err.message.contains("cannot target a file"), "{err}");
    }

    #[test]
    fn unknown_operation_rejected() {
        let line = "1\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tlevitate\tF|/tmp/a\t0\t-";
        let err = Parser::new().parse_document(line).unwrap_err();
        assert!(err.message.contains("unknown operation"));
    }

    #[test]
    fn bad_tag_rejected() {
        let line = "1\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tread\tF|/tmp/a\t0\tnocolon";
        let err = Parser::new().parse_document(line).unwrap_err();
        assert!(err.message.contains("bad tag"));
        let line = "1\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tread\tF|/tmp/a\t0\t:3";
        let err = Parser::new().parse_document(line).unwrap_err();
        assert!(err.message.contains("empty case"));
    }

    #[test]
    fn bad_objspec_rejected() {
        let line = "1\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tread\tQ|/tmp/a\t0\t-";
        let err = Parser::new().parse_document(line).unwrap_err();
        assert!(err.message.contains("unknown object kind"));
        let line = "1\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tconnect\tN|1.2.3.4|80\t0\t-";
        let err = Parser::new().parse_document(line).unwrap_err();
        assert!(err.message.contains("bad network objspec"));
    }
}
