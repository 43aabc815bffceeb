//! System entities appearing in syscall logs.
//!
//! Syscall monitoring records interactions between *system entities*: processes, files,
//! sockets, and pipes (Section 1). An entity's node label in the temporal graph is its
//! kind plus its name — e.g. `proc:sshd`, `file:/etc/passwd`, `socket:10.0.0.2:22` —
//! matching how the paper's patterns are drawn (Figure 10).

use std::fmt;

/// The kind of a system entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityKind {
    /// An operating-system process.
    Process,
    /// A regular file or directory.
    File,
    /// A network socket.
    Socket,
    /// An anonymous pipe.
    Pipe,
}

impl EntityKind {
    /// Short prefix used in node labels.
    pub fn prefix(self) -> &'static str {
        match self {
            EntityKind::Process => "proc",
            EntityKind::File => "file",
            EntityKind::Socket => "socket",
            EntityKind::Pipe => "pipe",
        }
    }
}

/// A system entity: a kind plus a human-readable name.
///
/// `Copy`, and free to build: the name is static text, rendered into a label string
/// only when one is asked for. Two entities are equal when their kinds and name parts
/// are; the generators never spell one text two ways (a unit test in `testdata` holds
/// that), so that is equality of label strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Entity {
    /// What kind of entity this is.
    pub kind: EntityKind,
    /// Entity name (executable name, file path, socket address, ...).
    pub name: Name,
}

/// An entity name: `head`, then `index` in decimal if there is one, then `tail` —
/// `/etc/passwd` is a bare head, `/var/spool/bg-17` the head `/var/spool/bg-` and the
/// index 17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name {
    /// The text before the index (all of it without one).
    pub head: &'static str,
    /// The number between `head` and `tail`, if any.
    pub index: Option<u32>,
    /// The text after the index.
    pub tail: &'static str,
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.head)?;
        if let Some(index) = self.index {
            write!(f, "{index}")?;
        }
        f.write_str(self.tail)
    }
}

impl Entity {
    /// Creates a process entity.
    pub fn process(name: &'static str) -> Self {
        Self::named(EntityKind::Process, name)
    }

    /// Creates a file entity.
    pub fn file(name: &'static str) -> Self {
        Self::named(EntityKind::File, name)
    }

    /// Creates a socket entity.
    pub fn socket(name: &'static str) -> Self {
        Self::named(EntityKind::Socket, name)
    }

    /// Creates a pipe entity.
    pub fn pipe(name: &'static str) -> Self {
        Self::named(EntityKind::Pipe, name)
    }

    fn named(kind: EntityKind, name: &'static str) -> Self {
        let name = Name {
            head: name,
            index: None,
            tail: "",
        };
        Self { kind, name }
    }

    /// Creates a `kind` entity named `{head}{index}{tail}`, one of a numbered family
    /// (`Entity::indexed(EntityKind::File, "/tmp/job-", 3, ".tmp")` is
    /// `file:/tmp/job-3.tmp`).
    pub fn indexed(kind: EntityKind, head: &'static str, index: u32, tail: &'static str) -> Self {
        let index = Some(index);
        Self {
            kind,
            name: Name { head, index, tail },
        }
    }

    /// The node label string used in temporal graphs.
    pub fn label_string(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind.prefix(), self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_strings_follow_kind_prefixes() {
        assert_eq!(Entity::process("sshd").label_string(), "proc:sshd");
        assert_eq!(
            Entity::file("/etc/passwd").label_string(),
            "file:/etc/passwd"
        );
        assert_eq!(
            Entity::socket("10.0.0.2:22").label_string(),
            "socket:10.0.0.2:22"
        );
        assert_eq!(Entity::pipe("p1").label_string(), "pipe:p1");
    }

    #[test]
    fn indexed_names_render_head_index_tail() {
        let e = Entity::indexed(EntityKind::File, "/tmp/job-", 30, ".tmp");
        assert_eq!(e.label_string(), "file:/tmp/job-30.tmp");
        assert_eq!(
            Entity::indexed(EntityKind::Process, "agent-", 0, "").label_string(),
            "proc:agent-0"
        );
        assert_ne!(e, Entity::file("/tmp/job-30.tmp"), "equality is by parts");
    }

    #[test]
    fn entities_with_same_kind_and_name_are_equal() {
        assert_eq!(Entity::file("/tmp/x"), Entity::file("/tmp/x"));
        assert_ne!(Entity::file("/tmp/x"), Entity::process("/tmp/x"));
    }

    #[test]
    fn display_matches_label_string() {
        let e = Entity::socket("remote:443");
        assert_eq!(format!("{e}"), e.label_string());
    }
}
