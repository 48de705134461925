//! System entities: files, processes, and network connections.
//!
//! Following the convention established by AIQL/SAQL and adopted by the
//! paper (§II-A), a *system entity* is one of a file, a process, or a
//! network connection. Entities carry the attributes the paper lists as
//! representative: file `name` (path), process `exename` (plus pid, owner,
//! command line), and connection `srcip`/`srcport`/`dstip`/`dstport`.

use std::fmt;

/// Stable identifier for a system entity within one parsed log.
///
/// Entity ids are assigned densely by the [`crate::parser::Parser`] in
/// first-seen order, so they double as indexes into entity arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u32);

impl EntityId {
    /// Returns the id as a `usize`, for direct indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The three kinds of system entity the paper's auditing layer captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// A file, identified by its absolute path.
    File,
    /// A process, identified by pid + executable name.
    Process,
    /// A network connection, identified by its 4-tuple + protocol.
    Network,
}

impl EntityKind {
    /// All kinds, in TBQL's keyword order (`proc`, `file`, `ip`).
    pub const ALL: [EntityKind; 3] = [EntityKind::Process, EntityKind::File, EntityKind::Network];

    /// Lowercase keyword used in raw logs and TBQL (`file`, `proc`, `ip`).
    pub fn keyword(self) -> &'static str {
        match self {
            EntityKind::File => "file",
            EntityKind::Process => "proc",
            EntityKind::Network => "ip",
        }
    }

    /// The kind's fields, in schema order.
    pub fn fields(self) -> impl Iterator<Item = Field> {
        FIELDS
            .iter()
            .filter(move |&&(_, kind, ..)| kind == self)
            .map(|&(field, ..)| field)
    }

    /// The default attribute (paper §II-D): `exename` for processes,
    /// `name` for files, `dstip` for connections.
    pub fn default_field(self) -> Field {
        let default = self.fields().find(|field| field.row().4);
        // Unreachable: `FIELDS` marks one default row for each kind
        // (`tests::default_attr_per_kind` reads all three).
        default.expect("every kind has a default attribute")
    }

    /// The field `attr` names on entities of this kind, or the error
    /// that names the kind's valid attributes.
    pub fn field(self, attr: &str) -> Result<Field, String> {
        self.fields()
            .find(|field| field.name() == attr)
            .ok_or_else(|| {
                let valid: Vec<&str> = self.fields().map(Field::name).collect();
                let valid = valid.join(", ");
                format!("{self} entities have no attribute `{attr}` (valid: {valid})")
            })
    }
}

impl fmt::Display for EntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// An entity attribute: one column of the auditing layer's entity
/// tables, under the name TBQL filters and returns it by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Process `exename`.
    Exename,
    /// Process `pid` (integer).
    Pid,
    /// Process `cmdline`.
    Cmdline,
    /// Process `owner`.
    Owner,
    /// File `name`.
    Name,
    /// Network `srcip`.
    SrcIp,
    /// Network `srcport` (integer).
    SrcPort,
    /// Network `dstip`.
    DstIp,
    /// Network `dstport` (integer).
    DstPort,
    /// Network `protocol`.
    Protocol,
}

/// The schema, one row per field in [`Field`]'s declaration order:
/// the field, the kind that has it, its name, whether it is an integer
/// and whether it is the kind's default attribute. Each kind's fields
/// come in the order TBQL lists them.
#[rustfmt::skip]
const FIELDS: [(Field, EntityKind, &str, bool, bool); 10] = [
    (Field::Exename,  EntityKind::Process, "exename",  false, true),
    (Field::Pid,      EntityKind::Process, "pid",      true,  false),
    (Field::Cmdline,  EntityKind::Process, "cmdline",  false, false),
    (Field::Owner,    EntityKind::Process, "owner",    false, false),
    (Field::Name,     EntityKind::File,    "name",     false, true),
    (Field::SrcIp,    EntityKind::Network, "srcip",    false, false),
    (Field::SrcPort,  EntityKind::Network, "srcport",  true,  false),
    (Field::DstIp,    EntityKind::Network, "dstip",    false, true),
    (Field::DstPort,  EntityKind::Network, "dstport",  true,  false),
    (Field::Protocol, EntityKind::Network, "protocol", false, false),
];

impl Field {
    fn row(self) -> (Field, EntityKind, &'static str, bool, bool) {
        FIELDS[self as usize]
    }

    /// The attribute name (also the SQL column name).
    pub fn name(self) -> &'static str {
        self.row().2
    }

    /// Whether the field holds an integer.
    pub fn is_numeric(self) -> bool {
        self.row().3
    }

    /// The field's value on `entity`; `None` on an entity of another kind.
    #[inline]
    pub fn read(self, entity: &Entity) -> Option<Cell<'_>> {
        Some(match (self, entity) {
            (Field::Exename, Entity::Process(p)) => Cell::Str(&p.exename),
            (Field::Pid, Entity::Process(p)) => Cell::Int(p.pid),
            (Field::Cmdline, Entity::Process(p)) => Cell::Str(&p.cmdline),
            (Field::Owner, Entity::Process(p)) => Cell::Str(&p.owner),
            (Field::Name, Entity::File(f)) => Cell::Str(&f.name),
            (Field::SrcIp, Entity::Network(n)) => Cell::Str(&n.src_ip),
            (Field::SrcPort, Entity::Network(n)) => Cell::Int(n.src_port.into()),
            (Field::DstIp, Entity::Network(n)) => Cell::Str(&n.dst_ip),
            (Field::DstPort, Entity::Network(n)) => Cell::Int(n.dst_port.into()),
            (Field::Protocol, Entity::Network(n)) => Cell::Str(&n.protocol),
            _ => return None,
        })
    }
}

/// A field's value on one entity, borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell<'e> {
    /// An integer field's value.
    Int(u32),
    /// A string field's value.
    Str(&'e str),
}

impl From<Cell<'_>> for String {
    /// The value as display text: a string as is, an integer in decimal.
    fn from(cell: Cell<'_>) -> String {
        match cell {
            Cell::Int(i) => i.to_string(),
            Cell::Str(s) => s.to_owned(),
        }
    }
}

/// A process entity: the only kind that can act as an event *subject*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessEntity {
    /// Entity id within the parsed log.
    pub id: EntityId,
    /// Kernel process id (never reused within one scenario).
    pub pid: u32,
    /// Executable path, e.g. `/bin/tar`. This is the default attribute
    /// (`exename`) TBQL filters against.
    pub exename: String,
    /// Full command line, if recorded.
    pub cmdline: String,
    /// Owning user name.
    pub owner: String,
    /// Process start time (ns since scenario start).
    pub start_time: u64,
}

/// A file entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntity {
    /// Entity id within the parsed log.
    pub id: EntityId,
    /// Absolute path. This is the default attribute (`name`).
    pub name: String,
}

/// A network-connection entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkEntity {
    /// Entity id within the parsed log.
    pub id: EntityId,
    /// Source IP (dotted quad).
    pub src_ip: String,
    /// Source port.
    pub src_port: u16,
    /// Destination IP (dotted quad). This is the default attribute
    /// (`dstip`).
    pub dst_ip: String,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol (`tcp` / `udp`).
    pub protocol: String,
}

/// A system entity of any kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entity {
    /// A process.
    Process(ProcessEntity),
    /// A file.
    File(FileEntity),
    /// A network connection.
    Network(NetworkEntity),
}

impl Entity {
    /// The entity's id.
    pub fn id(&self) -> EntityId {
        match self {
            Entity::Process(p) => p.id,
            Entity::File(f) => f.id,
            Entity::Network(n) => n.id,
        }
    }

    /// The entity's kind.
    pub fn kind(&self) -> EntityKind {
        match self {
            Entity::Process(_) => EntityKind::Process,
            Entity::File(_) => EntityKind::File,
            Entity::Network(_) => EntityKind::Network,
        }
    }

    /// Looks up a named attribute as a display string.
    ///
    /// Returns `None` when the attribute does not exist for this entity
    /// kind — the semantic analyzer in `threatraptor-tbql` reports those as
    /// type errors before execution.
    pub fn attr(&self, name: &str) -> Option<String> {
        let field = self.kind().field(name).ok()?;
        field.read(self).map(String::from)
    }

    /// Returns the process entity, if this is one.
    pub fn as_process(&self) -> Option<&ProcessEntity> {
        match self {
            Entity::Process(p) => Some(p),
            _ => None,
        }
    }

    /// Returns the file entity, if this is one.
    pub fn as_file(&self) -> Option<&FileEntity> {
        match self {
            Entity::File(f) => Some(f),
            _ => None,
        }
    }

    /// Returns the network entity, if this is one.
    pub fn as_network(&self) -> Option<&NetworkEntity> {
        match self {
            Entity::Network(n) => Some(n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_process() -> Entity {
        Entity::Process(ProcessEntity {
            id: EntityId(1),
            pid: 42,
            exename: "/bin/tar".into(),
            cmdline: "/bin/tar cf /tmp/upload.tar /etc/passwd".into(),
            owner: "root".into(),
            start_time: 1_000,
        })
    }

    #[test]
    fn default_attr_per_kind() {
        assert_eq!(EntityKind::File.default_field(), Field::Name);
        assert_eq!(EntityKind::Process.default_field(), Field::Exename);
        assert_eq!(EntityKind::Network.default_field(), Field::DstIp);
    }

    #[test]
    fn process_attrs() {
        let p = sample_process();
        assert_eq!(p.attr("exename").as_deref(), Some("/bin/tar"));
        assert_eq!(p.attr("pid").as_deref(), Some("42"));
        assert_eq!(p.attr("owner").as_deref(), Some("root"));
        assert_eq!(p.attr("name"), None, "files' attr is invalid on process");
        assert_eq!(Field::Exename.read(&p), Some(Cell::Str("/bin/tar")));
        assert_eq!(Field::Pid.read(&p), Some(Cell::Int(42)));
        assert_eq!(Field::Name.read(&p), None);
        assert_eq!(p.kind(), EntityKind::Process);
    }

    #[test]
    fn file_attrs() {
        let f = Entity::File(FileEntity {
            id: EntityId(2),
            name: "/etc/passwd".into(),
        });
        assert_eq!(f.attr("name").as_deref(), Some("/etc/passwd"));
        assert_eq!(f.attr("exename"), None);
        assert_eq!(Field::Name.read(&f), Some(Cell::Str("/etc/passwd")));
    }

    #[test]
    fn network_attrs() {
        let n = Entity::Network(NetworkEntity {
            id: EntityId(3),
            src_ip: "10.0.0.5".into(),
            src_port: 50123,
            dst_ip: "192.168.29.128".into(),
            dst_port: 443,
            protocol: "tcp".into(),
        });
        assert_eq!(n.attr("dstip").as_deref(), Some("192.168.29.128"));
        assert_eq!(n.attr("srcport").as_deref(), Some("50123"));
        assert_eq!(n.attr("protocol").as_deref(), Some("tcp"));
        assert_eq!(Field::DstPort.read(&n), Some(Cell::Int(443)));
        assert_eq!(n.kind(), EntityKind::Network);
    }

    #[test]
    fn valid_attr_lists_include_defaults() {
        for kind in EntityKind::ALL {
            assert!(kind.fields().any(|f| f == kind.default_field()));
        }
        // The table lists every field once, at its declaration index, so
        // the kinds' fields together are all ten.
        for (i, &(field, kind, name, numeric, _)) in FIELDS.iter().enumerate() {
            assert_eq!(field as usize, i);
            assert_eq!(kind.field(name), Ok(field));
            assert_eq!(field.is_numeric(), numeric);
        }
        let fields = EntityKind::ALL.map(|k| k.fields().count());
        assert_eq!(fields.iter().sum::<usize>(), 10);
        assert_eq!(
            EntityKind::Network.field("name").unwrap_err(),
            "ip entities have no attribute `name` \
             (valid: srcip, srcport, dstip, dstport, protocol)"
        );
    }

    #[test]
    fn entity_id_display_and_index() {
        assert_eq!(EntityId(7).to_string(), "e7");
        assert_eq!(EntityId(7).index(), 7);
    }

    #[test]
    fn kind_keywords() {
        assert_eq!(EntityKind::File.keyword(), "file");
        assert_eq!(EntityKind::Process.keyword(), "proc");
        assert_eq!(EntityKind::Network.keyword(), "ip");
    }

    #[test]
    fn accessors() {
        let p = sample_process();
        assert!(p.as_process().is_some());
        assert!(p.as_file().is_none());
        assert!(p.as_network().is_none());
    }
}
