//! Syscall logs and their conversion to temporal graphs.
//!
//! A [`SyscallLog`] is an ordered list of [`SyscallEvent`]s, exactly what a kernel-level
//! monitor emits for one activity. Converting a log to a temporal graph (Figure 1(a))
//! creates one node per distinct entity and one edge per event, with edges ordered by
//! their timestamps.

use crate::entity::{Entity, Name};
use crate::event::{SyscallEvent, SyscallType};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tgraph::{GraphBuilder, Label, LabelInterner, TemporalGraph};

/// An ordered syscall log for one activity (or one background window).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyscallLog {
    events: Vec<SyscallEvent>,
}

impl SyscallLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. The timestamp must be strictly larger than the previous one;
    /// if it is not, it is bumped to keep the total order (data collectors sequentialise
    /// concurrent events, Section 5).
    pub fn record(&mut self, mut event: SyscallEvent) {
        if let Some(last) = self.events.last() {
            if event.ts <= last.ts {
                event.ts = last.ts + 1;
            }
        }
        self.events.push(event);
    }

    /// Convenience: record an event with the next timestamp.
    pub fn record_next(&mut self, subject: Entity, object: Entity, syscall: SyscallType) {
        let ts = self.events.last().map(|e| e.ts + 1).unwrap_or(1);
        self.events.push(SyscallEvent {
            ts,
            subject,
            object,
            syscall,
        });
    }

    /// The events in timestamp order.
    pub fn events(&self) -> &[SyscallEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the first and last event, if any.
    pub fn timespan(&self) -> Option<(u64, u64)> {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => Some((a.ts, b.ts)),
            _ => None,
        }
    }

    /// Converts the log to a temporal graph, interning entity labels in `interner`.
    ///
    /// Distinct entities become nodes (entities are deduplicated by kind + name); every
    /// event becomes one edge in the direction of information flow.
    pub fn to_temporal_graph(&self, interner: &mut LabelInterner) -> TemporalGraph {
        let mut writer = GraphWriter::new(interner);
        writer.append(self, Timestamps::Logged);
        writer.take_graph()
    }

    /// Empties the log, keeping its buffer.
    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }

    /// Removes the first event `matches` accepts, if any; the others keep their
    /// timestamps.
    pub(crate) fn remove_first(&mut self, matches: impl Fn(&SyscallEvent) -> bool) {
        if let Some(i) = self.events.iter().position(matches) {
            self.events.remove(i);
        }
    }
}

/// Where [`GraphWriter::append`] puts a log's edges in time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Timestamps {
    /// At the events' own timestamps.
    Logged,
    /// One tick after the previous edge, whatever the log says: appended logs follow
    /// one another on one clock.
    Next,
}

/// The one log → graph conversion, for a generator's whole run: appends syscall logs
/// to a temporal graph over `interner`, each log over fresh nodes — one per distinct
/// entity of that log, as each activity is its own process instances.
///
/// An entity's label is resolved once per writer, under its [`Identity`] — words, no
/// text: its label string is built and interned on the first appearance, and every
/// later one, in this log or a later one, is one lookup of a few words. The cache sits
/// in front of the interner, which resolves by content, so one text reached through
/// two identities costs one more miss and is still one label. Labels are therefore
/// interned in first-appearance order, as interning every appearance would. Within a
/// log, entity and label are one-to-one (a label is the entity's kind and name), so
/// the log's nodes are kept by label id, in a table every log reuses.
pub(crate) struct GraphWriter<'i> {
    builder: GraphBuilder,
    interner: &'i mut LabelInterner,
    /// Owns no heap memory per entry, so unlike the interner's map its drop order
    /// cannot reshuffle the heap.
    labels: HashMap<Identity, Label, BuildHasherDefault<WordHasher>>,
    /// By label id: `(log, node)` — the label's node, if `log` is the one appending.
    scope: Vec<(usize, usize)>,
    /// Logs appended so far; the current one's number while it is appended.
    logs: usize,
}

impl<'i> GraphWriter<'i> {
    pub(crate) fn new(interner: &'i mut LabelInterner) -> Self {
        Self {
            builder: GraphBuilder::new(),
            interner,
            labels: HashMap::default(),
            scope: Vec::new(),
            logs: 0,
        }
    }

    /// Appends `log`'s events as edges over fresh nodes.
    pub(crate) fn append(&mut self, log: &SyscallLog, at: Timestamps) {
        self.logs += 1;
        for event in &log.events {
            let (src, dst) = event.edge_endpoints();
            let src = self.node(*src);
            let dst = self.node(*dst);
            let ts = match at {
                Timestamps::Logged => event.ts,
                Timestamps::Next => self.last_ts() + 1,
            };
            self.builder
                .add_edge(src, dst, ts)
                .expect("timestamps strictly increase");
        }
    }

    /// The node of `entity` in the log being appended, added on its first appearance.
    fn node(&mut self, entity: Entity) -> usize {
        let label = *self
            .labels
            .entry(Identity::of(entity))
            .or_insert_with(|| self.interner.intern(&entity.label_string()));
        if self.scope.len() <= label.index() {
            self.scope.resize(label.index() + 1, (0, 0));
        }
        let (log, node) = &mut self.scope[label.index()];
        if *log != self.logs {
            *log = self.logs;
            *node = self.builder.add_node(label);
        }
        *node
    }

    /// The timestamp of the last edge appended, 0 before the first.
    pub(crate) fn last_ts(&self) -> u64 {
        self.builder.last_ts().unwrap_or(0)
    }

    /// The graph appended so far; the writer starts an empty one.
    pub(crate) fn take_graph(&mut self) -> TemporalGraph {
        std::mem::take(&mut self.builder).build()
    }
}

/// An entity as words: its kind and index, and where its static name parts start and
/// end. Static text never moves or changes, so equal identities are equal names; equal
/// names at two addresses are two identities of one label.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Identity([u64; 5]);

impl Identity {
    fn of(Entity { kind, name }: Entity) -> Self {
        let Name { head, index, tail } = name;
        let index = index.map_or(0, |index| (1 << 32) | u64::from(index));
        let (head, tail) = (
            head.as_bytes().as_ptr_range(),
            tail.as_bytes().as_ptr_range(),
        );
        Identity([
            index | ((kind as u64) << 33),
            head.start as u64,
            head.end as u64,
            tail.start as u64,
            tail.end as u64,
        ])
    }
}

/// Multiply-xor hasher (the Fx scheme) for the writer's cache, which is probed twice
/// per event: its keys are the generator's own static names, so SipHash's resistance
/// to crafted collisions protects nothing, and costs most of a lookup.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_keeps_timestamps_strictly_increasing() {
        let mut log = SyscallLog::new();
        log.record(SyscallEvent {
            ts: 5,
            subject: Entity::process("a"),
            object: Entity::file("f"),
            syscall: SyscallType::Open,
        });
        log.record(SyscallEvent {
            ts: 5,
            subject: Entity::process("a"),
            object: Entity::file("f"),
            syscall: SyscallType::Read,
        });
        assert_eq!(log.events()[1].ts, 6);
        assert_eq!(log.timespan(), Some((5, 6)));
    }

    #[test]
    fn conversion_deduplicates_entities() {
        let mut log = SyscallLog::new();
        log.record_next(
            Entity::process("bash"),
            Entity::process("gzip"),
            SyscallType::Fork,
        );
        log.record_next(
            Entity::process("gzip"),
            Entity::file("/tmp/a.gz"),
            SyscallType::Read,
        );
        log.record_next(
            Entity::process("gzip"),
            Entity::file("/tmp/a"),
            SyscallType::Write,
        );
        log.record_next(
            Entity::process("gzip"),
            Entity::file("/tmp/a.gz"),
            SyscallType::Unlink,
        );
        let mut interner = LabelInterner::new();
        let g = log.to_temporal_graph(&mut interner);
        assert_eq!(g.node_count(), 4); // bash, gzip, a.gz, a
        assert_eq!(g.edge_count(), 4);
        assert_eq!(interner.len(), 4);
    }

    #[test]
    fn read_edges_point_into_the_process() {
        let mut log = SyscallLog::new();
        log.record_next(
            Entity::process("cat"),
            Entity::file("/etc/passwd"),
            SyscallType::Read,
        );
        let mut interner = LabelInterner::new();
        let g = log.to_temporal_graph(&mut interner);
        let edge = g.edge(0);
        assert_eq!(interner.name(g.label(edge.src)), Some("file:/etc/passwd"));
        assert_eq!(interner.name(g.label(edge.dst)), Some("proc:cat"));
    }

    #[test]
    fn empty_log_produces_empty_graph() {
        let log = SyscallLog::new();
        let mut interner = LabelInterner::new();
        let g = log.to_temporal_graph(&mut interner);
        assert!(g.is_empty());
        assert!(log.is_empty());
    }
}
