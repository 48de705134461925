//! The raw-log parser as it stood before its single-scan rewrite, kept
//! as the specification the production parser is checked against
//! (`tests/parser_spec.rs`): field splitting by `str::split`, the
//! operation found by a linear scan of [`Operation::ALL`], and the
//! connection key rendered with `write!`. [`SpecFeed`] is the chunk loop
//! `LogFeed::next` ran at the same time. Only the imports and the
//! operation lookup (which used `Operation::from_str`) differ from that
//! code; the output types are the production crate's.

use std::collections::HashMap;
use std::fmt;
use threatraptor_audit::entity::{
    Entity, EntityId, EntityKind, FileEntity, NetworkEntity, ProcessEntity,
};
use threatraptor_audit::event::{AttackTag, Event, EventId, Operation};
use threatraptor_audit::parser::{LogChunk, ParseError, ParsedLog};

/// `Operation::from_str` before it became a `match`.
fn parse_operation(s: &str) -> Result<Operation, ()> {
    Operation::ALL
        .iter()
        .copied()
        .find(|op| op.name() == s)
        .ok_or(())
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
        let op: Operation = parse_operation(fields[7])
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
                if op.object_kind() != EntityKind::File {
                    return Err(err(format!("operation `{op}` cannot target a file")));
                }
                let Some([path]) = split_exact(rest) else {
                    return Err(err(format!("bad file objspec `{spec}`")));
                };
                Ok(self.intern_file(path))
            }
            "P" => {
                if op.object_kind() != EntityKind::Process {
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
                if op.object_kind() != EntityKind::Network {
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

/// `LogFeed` before the shared line walker: a chunk every `n` events,
/// `Err` once on the first malformed line, then fused.
#[derive(Debug)]
pub struct SpecFeed<'a> {
    parser: Parser,
    lines: std::str::Lines<'a>,
    lineno: usize,
    n: usize,
    done: bool,
}

impl<'a> SpecFeed<'a> {
    /// A feed over `raw` cutting every `n` events (clamped to ≥ 1).
    pub fn by_events(raw: &'a str, n: usize) -> SpecFeed<'a> {
        SpecFeed {
            parser: Parser::new(),
            lines: raw.lines(),
            lineno: 0,
            n: n.max(1),
            done: false,
        }
    }
}

impl Iterator for SpecFeed<'_> {
    type Item = Result<LogChunk, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let Some(line) = self.lines.next() else {
                // End of input: flush whatever is pending, once.
                self.done = true;
                let chunk = self.parser.take_chunk();
                return (!chunk.is_empty()).then_some(Ok(chunk));
            };
            self.lineno += 1;
            let trimmed = line.trim_end();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if let Err(e) = self.parser.parse_line(trimmed, self.lineno) {
                self.done = true;
                return Some(Err(e));
            }
            if self.parser.pending_events() >= self.n {
                return Some(Ok(self.parser.take_chunk()));
            }
        }
    }
}
