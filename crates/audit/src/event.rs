//! System events: interactions between system entities.
//!
//! A system event is `⟨subject, operation, object⟩` (paper §II-A): the
//! subject is always a process; the object can be a file, a process, or a
//! network connection. Events are categorized into file, process, and
//! network events by the type of their object entity.

use crate::entity::{EntityId, EntityKind};
use std::fmt;
use std::str::FromStr;

/// Stable identifier for a system event within one parsed log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u32);

impl EventId {
    /// Returns the id as a `usize`, for direct indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// System-call-level operations recorded by the auditing layer.
///
/// The set mirrors what Sysdig surfaces for the three entity kinds; TBQL
/// operation expressions (`read || write`) range over these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operation {
    /// Process reads from a file.
    Read,
    /// Process writes to a file.
    Write,
    /// Process opens a file (metadata access).
    Open,
    /// Process closes a file descriptor.
    Close,
    /// Process executes a file (execve).
    Execute,
    /// Process renames a file (object = destination path).
    Rename,
    /// Process unlinks (deletes) a file.
    Unlink,
    /// Process changes file permissions.
    Chmod,
    /// Process changes file ownership.
    Chown,
    /// Process memory-maps a file.
    Mmap,
    /// Process creates a child process (object = child).
    Fork,
    /// Process clones a thread/child (object = child).
    Clone,
    /// Process kills/signals another process.
    Kill,
    /// Process sets user id (recorded against itself).
    Setuid,
    /// Process initiates an outbound connection.
    Connect,
    /// Process accepts an inbound connection.
    Accept,
    /// Process sends bytes over a connection.
    Send,
    /// Process receives bytes over a connection.
    Recv,
}

impl Operation {
    /// All operations, in a stable order.
    pub const ALL: [Operation; 18] = [
        Operation::Read,
        Operation::Write,
        Operation::Open,
        Operation::Close,
        Operation::Execute,
        Operation::Rename,
        Operation::Unlink,
        Operation::Chmod,
        Operation::Chown,
        Operation::Mmap,
        Operation::Fork,
        Operation::Clone,
        Operation::Kill,
        Operation::Setuid,
        Operation::Connect,
        Operation::Accept,
        Operation::Send,
        Operation::Recv,
    ];

    /// Lowercase name as used in raw logs and TBQL.
    pub fn name(self) -> &'static str {
        match self {
            Operation::Read => "read",
            Operation::Write => "write",
            Operation::Open => "open",
            Operation::Close => "close",
            Operation::Execute => "execute",
            Operation::Rename => "rename",
            Operation::Unlink => "unlink",
            Operation::Chmod => "chmod",
            Operation::Chown => "chown",
            Operation::Mmap => "mmap",
            Operation::Fork => "fork",
            Operation::Clone => "clone",
            Operation::Kill => "kill",
            Operation::Setuid => "setuid",
            Operation::Connect => "connect",
            Operation::Accept => "accept",
            Operation::Send => "send",
            Operation::Recv => "recv",
        }
    }

    /// The object entity kind this operation targets.
    pub fn object_kind(self) -> EntityKind {
        match self {
            Operation::Read
            | Operation::Write
            | Operation::Open
            | Operation::Close
            | Operation::Execute
            | Operation::Rename
            | Operation::Unlink
            | Operation::Chmod
            | Operation::Chown
            | Operation::Mmap => EntityKind::File,
            Operation::Fork | Operation::Clone | Operation::Kill | Operation::Setuid => {
                EntityKind::Process
            }
            Operation::Connect | Operation::Accept | Operation::Send | Operation::Recv => {
                EntityKind::Network
            }
        }
    }

    /// The event type induced by this operation's object kind.
    pub fn event_type(self) -> EventType {
        match self.object_kind() {
            EntityKind::File => EventType::File,
            EntityKind::Process => EventType::Process,
            EntityKind::Network => EventType::Network,
        }
    }

    /// Whether repeated occurrences of this operation between the same
    /// entity pair are candidates for Causality-Preserved Reduction.
    ///
    /// Data-transfer syscalls arrive in bursts (one per buffer) and can be
    /// merged; lifecycle operations (fork, execute, …) are singular.
    pub fn cpr_mergeable(self) -> bool {
        matches!(
            self,
            Operation::Read | Operation::Write | Operation::Send | Operation::Recv
        )
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Operation {
    type Err = UnknownOperation;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "read" => Operation::Read,
            "write" => Operation::Write,
            "open" => Operation::Open,
            "close" => Operation::Close,
            "execute" => Operation::Execute,
            "rename" => Operation::Rename,
            "unlink" => Operation::Unlink,
            "chmod" => Operation::Chmod,
            "chown" => Operation::Chown,
            "mmap" => Operation::Mmap,
            "fork" => Operation::Fork,
            "clone" => Operation::Clone,
            "kill" => Operation::Kill,
            "setuid" => Operation::Setuid,
            "connect" => Operation::Connect,
            "accept" => Operation::Accept,
            "send" => Operation::Send,
            "recv" => Operation::Recv,
            _ => return Err(UnknownOperation(s.to_string())),
        })
    }
}

/// Error returned when parsing an unknown operation name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownOperation(pub String);

impl fmt::Display for UnknownOperation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown operation `{}`", self.0)
    }
}

impl std::error::Error for UnknownOperation {}

/// Event categories by object entity type (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventType {
    /// Object is a file.
    File,
    /// Object is a process.
    Process,
    /// Object is a network connection.
    Network,
}

/// Ground-truth label attached to attack events by the simulator.
///
/// This is evaluation metadata only: it survives raw-log round-trips (as a
/// trailing comment field) so that experiment harnesses can compute
/// precision/recall, but the storage and query layers never consult it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttackTag {
    /// Attack case identifier, e.g. `data_leakage`.
    pub case: String,
    /// Step number within the attack (1-based).
    pub step: u32,
}

impl fmt::Display for AttackTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.case, self.step)
    }
}

/// A system event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event id within the parsed log.
    pub id: EventId,
    /// Subject entity (always a process).
    pub subject: EntityId,
    /// Operation performed.
    pub op: Operation,
    /// Object entity (file / process / network, per `op.object_kind()`).
    pub object: EntityId,
    /// Start timestamp (ns since scenario start).
    pub start: u64,
    /// End timestamp (ns since scenario start); `end >= start`.
    pub end: u64,
    /// Bytes transferred, where applicable (read/write/send/recv).
    pub bytes: u64,
    /// Number of raw events this record represents (>1 after CPR merging).
    pub merged: u32,
    /// Ground-truth attack label, if any.
    pub tag: Option<AttackTag>,
}

impl Event {
    /// The event's type (file / process / network).
    pub fn event_type(&self) -> EventType {
        self.op.event_type()
    }

    /// True if this event was emitted by an attack script.
    pub fn is_attack(&self) -> bool {
        self.tag.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_name_round_trip() {
        for op in Operation::ALL {
            assert_eq!(op.name().parse::<Operation>().unwrap(), op);
        }
    }

    #[test]
    fn unknown_op_rejected() {
        let err = "teleport".parse::<Operation>().unwrap_err();
        assert_eq!(err, UnknownOperation("teleport".into()));
        assert!(err.to_string().contains("teleport"));
    }

    #[test]
    fn object_kinds() {
        assert_eq!(Operation::Read.object_kind(), EntityKind::File);
        assert_eq!(Operation::Fork.object_kind(), EntityKind::Process);
        assert_eq!(Operation::Connect.object_kind(), EntityKind::Network);
    }

    #[test]
    fn event_types_follow_object_kind() {
        assert_eq!(Operation::Write.event_type(), EventType::File);
        assert_eq!(Operation::Clone.event_type(), EventType::Process);
        assert_eq!(Operation::Send.event_type(), EventType::Network);
    }

    #[test]
    fn cpr_mergeable_set() {
        assert!(Operation::Read.cpr_mergeable());
        assert!(Operation::Send.cpr_mergeable());
        assert!(!Operation::Fork.cpr_mergeable());
        assert!(!Operation::Execute.cpr_mergeable());
        assert!(!Operation::Connect.cpr_mergeable());
    }

    #[test]
    fn attack_tag_display() {
        let tag = AttackTag {
            case: "data_leakage".into(),
            step: 3,
        };
        assert_eq!(tag.to_string(), "data_leakage:3");
    }

    #[test]
    fn event_helpers() {
        let ev = Event {
            id: EventId(0),
            subject: EntityId(1),
            op: Operation::Read,
            object: EntityId(2),
            start: 10,
            end: 20,
            bytes: 4096,
            merged: 1,
            tag: None,
        };
        assert_eq!(ev.event_type(), EventType::File);
        assert!(!ev.is_attack());
        assert_eq!(EventId(3).to_string(), "v3");
        assert_eq!(EventId(3).index(), 3);
    }
}
