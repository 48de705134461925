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
//!
//! One line walker, `Records`, turns a document into numbered record
//! lines for both [`Parser::parse_document`] and [`crate::feed::LogFeed`]:
//! it splits at `\n` or `\r\n`, trims trailing (Unicode) whitespace, and
//! skips blank and `#` lines while still counting them. Everything else
//! is checked per line by [`Parser::parse_line`], which scans the line's
//! bytes once, cutting at tabs (and the object spec at `|`) into slices
//! of the line: the field count, each number (by `str::parse`, so `+5`
//! is a number and an overflow is an error), `end ≥ start`, the
//! operation name, the tag, and the object spec's kind, its agreement
//! with the operation, its part count, pid and ports. A line that fails
//! a check yields a [`ParseError`] with its line number and adds no
//! event (a line rejected for its object spec has already interned its
//! subject; a feed ends at the error, so no chunk carries it).
//!
//! The three interning maps keep std's keyed (SipHash) hasher: paths,
//! executable names and command lines come from the audited processes,
//! so with an unkeyed hash such a process could choose keys that collide
//! and slow parsing down for everyone. A lookup that hits allocates
//! nothing, and a line whose subject is the previous line's skips the
//! lookup.

use crate::entity::{Entity, EntityId, EntityKind, FileEntity, NetworkEntity, ProcessEntity};
use crate::event::{AttackTag, Event, EventId, Operation};
use crate::rawlog::push_connection;
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
    /// The process `intern_process` saw last: a process issues its system
    /// calls in runs, so most lines repeat the previous line's subject.
    last_proc: Option<((u32, u64), EntityId)>,
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
        for (lineno, line) in Records::new(text) {
            self.parse_line(line, lineno)?;
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
        // A feed cuts chunks of one size, so the next chunk's events get
        // room for as many as this one holds instead of regrowing.
        let room = self.out.events.len();
        let chunk = LogChunk {
            new_entities: std::mem::take(&mut self.out.entities),
            events: std::mem::replace(&mut self.out.events, Vec::with_capacity(room)),
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
        let (fields, count) = cut::<11>(line, b'\t');
        if count != 11 {
            return Err(err(format!(
                "expected 11 tab-separated fields, got {count}"
            )));
        }
        let [start, end, pid, exe, owner, pstart, cmdline, op, spec, bytes, tag] = fields;
        let start: u64 = start
            .parse()
            .map_err(|_| err(format!("bad start timestamp `{start}`")))?;
        let end: u64 = end
            .parse()
            .map_err(|_| err(format!("bad end timestamp `{end}`")))?;
        if end < start {
            return Err(err(format!(
                "event ends ({end}) before it starts ({start})"
            )));
        }
        let pid: u32 = pid.parse().map_err(|_| err(format!("bad pid `{pid}`")))?;
        let pstart: u64 = pstart
            .parse()
            .map_err(|_| err(format!("bad process start time `{pstart}`")))?;
        let op: Operation = op
            .parse()
            .map_err(|_| err(format!("unknown operation `{op}`")))?;
        let bytes: u64 = bytes
            .parse()
            .map_err(|_| err(format!("bad byte count `{bytes}`")))?;
        let tag = parse_tag(tag).map_err(err)?;

        // Validate the object before interning anything: a rejected line
        // leaves no entity behind, and ids still go subject first.
        let object = ObjectSpec::parse(spec, op).map_err(err)?;
        let subject = self.intern_process(pid, exe, owner, cmdline, pstart);
        let object = self.intern_object(object);

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

    /// Interns a validated object. This and [`ObjectSpec::parse`] are
    /// forced inline into [`Parser::parse_line`]: left to the compiler,
    /// validating before interning cost about 7 % of a line's parse time
    /// (release profile, 100 k-event scenario, 2-core x86-64).
    #[inline(always)]
    fn intern_object(&mut self, object: ObjectSpec<'_>) -> EntityId {
        match object {
            ObjectSpec::File(path) => self.intern_file(path),
            ObjectSpec::Process {
                pid,
                exe,
                owner,
                start_time,
                cmdline,
            } => self.intern_process(pid, exe, owner, cmdline, start_time),
            ObjectSpec::Network {
                src_ip,
                src_port,
                dst_ip,
                dst_port,
                protocol,
            } => self.intern_network(src_ip, src_port, dst_ip, dst_port, protocol),
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
        let key = (pid, start_time);
        if let Some((last, id)) = self.last_proc {
            if last == key {
                return id;
            }
        }
        let id = match self.proc_ids.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.next_entity_id();
                self.out.entities.push(Entity::Process(ProcessEntity {
                    id,
                    pid,
                    exename: exe.to_string(),
                    cmdline: cmdline.to_string(),
                    owner: owner.to_string(),
                    start_time,
                }));
                self.proc_ids.insert(key, id);
                id
            }
        };
        self.last_proc = Some((key, id));
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
        // the tuple (the parts came out of a cut at `|`), and a reused
        // buffer makes the common case — a known connection — a lookup
        // by `&str` with no allocation.
        let key = &mut self.net_key;
        key.clear();
        push_connection(key, src_ip, src_port, dst_ip, dst_port, protocol);
        if let Some(&id) = self.net_ids.get(key.as_str()) {
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

/// The lines of a raw log document that hold records, each with its
/// 1-based line number: [`str::lines`] (so a line ends at `\n` or
/// `\r\n`), trailing whitespace trimmed, and blank lines and `#`
/// comments skipped but counted. [`Parser::parse_document`] and
/// [`crate::feed::LogFeed`] both walk a document with it.
#[derive(Debug)]
pub(crate) struct Records<'a>(std::iter::Enumerate<std::str::Lines<'a>>);

impl<'a> Records<'a> {
    pub(crate) fn new(text: &'a str) -> Records<'a> {
        Records(text.lines().enumerate())
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        self.0
            .by_ref()
            .map(|(index, line)| (index + 1, line.trim_end()))
            .find(|(_, line)| !line.is_empty() && !line.starts_with('#'))
    }
}

/// Cuts `text` at every `sep` byte in one pass: the first `N` parts (the
/// rest `""`), and how many parts there are in all. `sep` is ASCII, so
/// each cut falls on a char boundary and the parts are slices of `text`
/// that need no UTF-8 check of their own. The scan reads eight bytes at a
/// time and finds the separators among them with word arithmetic.
fn cut<const N: usize>(text: &str, sep: u8) -> ([&str; N], usize) {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut parts = [""; N];
    let mut count = 0;
    let mut from = 0;
    let mut cut_at = |at: usize| {
        if let Some(part) = parts.get_mut(count) {
            *part = &text[from..at];
        }
        count += 1;
        from = at + 1;
    };
    let seps = u64::from_ne_bytes([sep; 8]);
    let mut words = text.as_bytes().chunks_exact(8);
    let mut base = 0;
    for word in words.by_ref() {
        let mut bytes = [0; 8];
        bytes.copy_from_slice(word);
        // A byte of `x` is zero exactly where `word` holds `sep`; `hits`
        // gets that byte's high bit. Adding 0x7f to a byte's low seven
        // bits never carries into the next byte, so there are no false
        // hits.
        let x = u64::from_le_bytes(bytes) ^ seps;
        let mut hits = !(((x & !HIGH).wrapping_add(!HIGH)) | x) & HIGH;
        while hits != 0 {
            cut_at(base + hits.trailing_zeros() as usize / 8);
            hits &= hits - 1;
        }
        base += 8;
    }
    for (i, &byte) in words.remainder().iter().enumerate() {
        if byte == sep {
            cut_at(base + i);
        }
    }
    if let Some(part) = parts.get_mut(count) {
        *part = &text[from..];
    }
    (parts, count + 1)
}

/// A validated object spec (the ninth field), its parts borrowed from
/// the line: what [`Parser::parse_line`] checks before it interns any
/// entity of the line.
#[derive(Debug, Clone, Copy)]
enum ObjectSpec<'a> {
    File(&'a str),
    Process {
        pid: u32,
        exe: &'a str,
        owner: &'a str,
        start_time: u64,
        cmdline: &'a str,
    },
    Network {
        src_ip: &'a str,
        src_port: u16,
        dst_ip: &'a str,
        dst_port: u16,
        protocol: &'a str,
    },
}

impl<'a> ObjectSpec<'a> {
    /// Parses `spec` as the object of `op`, or says why it cannot be.
    /// Inlined for the reason given at [`Parser::intern_object`].
    #[inline(always)]
    fn parse(spec: &'a str, op: Operation) -> Result<ObjectSpec<'a>, String> {
        let (parts, count) = cut::<6>(spec, b'|');
        match parts[0] {
            "F" => {
                if op.object_kind() != EntityKind::File {
                    return Err(format!("operation `{op}` cannot target a file"));
                }
                if count != 2 {
                    return Err(format!("bad file objspec `{spec}`"));
                }
                Ok(ObjectSpec::File(parts[1]))
            }
            "P" => {
                if op.object_kind() != EntityKind::Process {
                    return Err(format!("operation `{op}` cannot target a process"));
                }
                if count != 6 {
                    return Err(format!("bad process objspec `{spec}`"));
                }
                let [_, pid, exe, owner, pstart, cmdline] = parts;
                let pid: u32 = pid.parse().map_err(|_| format!("bad object pid `{pid}`"))?;
                let start_time: u64 = pstart
                    .parse()
                    .map_err(|_| format!("bad object process start `{pstart}`"))?;
                Ok(ObjectSpec::Process {
                    pid,
                    exe,
                    owner,
                    start_time,
                    cmdline,
                })
            }
            "N" => {
                if op.object_kind() != EntityKind::Network {
                    return Err(format!("operation `{op}` cannot target a connection"));
                }
                if count != 6 {
                    return Err(format!("bad network objspec `{spec}`"));
                }
                let [_, src_ip, src_port, dst_ip, dst_port, protocol] = parts;
                let src_port: u16 = src_port
                    .parse()
                    .map_err(|_| format!("bad source port `{src_port}`"))?;
                let dst_port: u16 = dst_port
                    .parse()
                    .map_err(|_| format!("bad destination port `{dst_port}`"))?;
                Ok(ObjectSpec::Network {
                    src_ip,
                    src_port,
                    dst_ip,
                    dst_port,
                    protocol,
                })
            }
            other => Err(format!("unknown object kind `{other}`")),
        }
    }
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

    /// A well-formed `read` line by `/bin/ls` of `/tmp/a`.
    const READ_LINE: &str = "1\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tread\tF|/tmp/a\t0\t-";

    fn parse_err(doc: &str) -> ParseError {
        Parser::new().parse_document(doc).unwrap_err()
    }

    #[test]
    fn crlf_lines_parse_like_lf_lines() {
        let lf = encode_lines(&[
            file_read(10, "/bin/cat", "/etc/hosts", 1000),
            file_read(11, "/bin/ls", "/tmp/a", 2000),
        ]);
        let crlf = lf.replace('\n', "\r\n");
        let a = Parser::new().parse_document(&lf).unwrap();
        let b = Parser::new().parse_document(&crlf).unwrap();
        assert_eq!((a.entities, a.events), (b.entities, b.events));
    }

    #[test]
    fn trailing_unicode_whitespace_is_trimmed() {
        for space in ["\u{3000}", "\u{a0}", " \u{a0}\u{3000}\t"] {
            let log = Parser::new()
                .parse_document(&format!("{READ_LINE}{space}\n"))
                .unwrap();
            assert_eq!(log.events.len(), 1, "{space:?}");
            assert_eq!(log.events[0].tag, None);
        }
    }

    #[test]
    fn trimmed_trailing_tab_reports_ten_fields() {
        // An empty tag field: trimming takes its tab, leaving ten fields.
        let line = "1\t2\t1\t/bin/ls\troot\t0\t/bin/ls\tread\tF|/tmp/a\t0\t";
        let err = parse_err(line);
        assert_eq!(err.message, "expected 11 tab-separated fields, got 10");
    }

    #[test]
    fn field_count_is_reported_exactly() {
        let ten = READ_LINE.rsplit_once('\t').unwrap().0;
        assert_eq!(
            parse_err(ten).message,
            "expected 11 tab-separated fields, got 10"
        );
        let twelve = format!("{READ_LINE}\textra");
        assert_eq!(
            parse_err(&twelve).message,
            "expected 11 tab-separated fields, got 12"
        );
        assert_eq!(
            parse_err("a\tb\tc\td\te\tf\tg\th\ti\tj\tk\tl\tm\tn").message,
            "expected 11 tab-separated fields, got 14"
        );
    }

    #[test]
    fn a_line_rejected_for_its_objspec_interns_nothing() {
        let mut parser = Parser::new();
        let err = parser
            .parse_line(
                "1\t2\t77\t/bin/new\troot\t0\t/bin/new\tread\tX|/tmp/a\t0\t-",
                1,
            )
            .unwrap_err();
        assert_eq!(err.message, "unknown object kind `X`");
        let chunk = parser.take_chunk();
        assert_eq!((chunk.new_entities.len(), chunk.events.len()), (0, 0));
        // The next accepted line still numbers its subject before its
        // object, from zero.
        parser.parse_line(READ_LINE, 2).unwrap();
        let chunk = parser.take_chunk();
        let ids: Vec<usize> = chunk.new_entities.iter().map(|e| e.id().index()).collect();
        assert_eq!(ids, [0, 1]);
        assert!(chunk.new_entities[0].as_process().is_some());
        assert_eq!(
            (chunk.events[0].subject, chunk.events[0].object),
            (EntityId(0), EntityId(1))
        );
    }

    #[test]
    fn plus_signed_timestamp_is_accepted() {
        let log = Parser::new()
            .parse_document("+5\t7\t1\t/bin/ls\troot\t0\t/bin/ls\tread\tF|/tmp/a\t0\t-")
            .unwrap();
        assert_eq!((log.events[0].start, log.events[0].end), (5, 7));
    }

    #[test]
    fn zero_padded_port_is_the_same_connection() {
        let conn = |sport: &str, start: u64| {
            format!(
                "{start}\t{start}\t1\t/bin/nc\troot\t0\tnc\tconnect\t\
                 N|10.0.0.1|{sport}|10.0.0.2|443|tcp\t0\t-\n"
            )
        };
        let doc = conn("0080", 1) + &conn("80", 2);
        let log = Parser::new().parse_document(&doc).unwrap();
        assert_eq!(log.entity_counts(), (0, 1, 1));
        assert_eq!(log.events[0].object, log.events[1].object);
        let net = log.entity(log.events[0].object).as_network().unwrap();
        assert_eq!(net.src_port, 80);
    }

    #[test]
    fn out_of_range_port_is_rejected() {
        let line =
            "1\t2\t1\t/bin/nc\troot\t0\tnc\tconnect\tN|10.0.0.1|65536|10.0.0.2|443|tcp\t0\t-";
        assert_eq!(parse_err(line).message, "bad source port `65536`");
        let line = "1\t2\t1\t/bin/nc\troot\t0\tnc\tconnect\tN|10.0.0.1|80|10.0.0.2|-1|tcp\t0\t-";
        assert_eq!(parse_err(line).message, "bad destination port `-1`");
    }

    #[test]
    fn skipped_lines_count_toward_line_numbers() {
        let doc = format!("# header\n\n   \n{READ_LINE}\r\n#\nnot a record\n");
        let err = parse_err(&doc);
        assert_eq!(err.line, 6);
        assert_eq!(
            err.to_string(),
            "line 6: expected 11 tab-separated fields, got 1"
        );
    }

    #[test]
    fn non_ascii_text_is_kept_byte_for_byte() {
        let exe = "/usr/bin/naïve-ß";
        let cmdline = "naïve --名前 \u{a0}ok";
        let path = "/tmp/日本語 ファイル\u{3000}x";
        let line = format!("1\t2\t7\t{exe}\tjosé\t0\t{cmdline}\twrite\tF|{path}\t3\t-");
        let log = Parser::new().parse_document(&line).unwrap();
        let subject = log.entity(log.events[0].subject).as_process().unwrap();
        assert_eq!(
            (subject.exename.as_str(), subject.owner.as_str()),
            (exe, "josé")
        );
        assert_eq!(subject.cmdline, cmdline);
        assert_eq!(
            log.entity(log.events[0].object).as_file().unwrap().name,
            path
        );
    }
}
