//! The per-query state a detection engine owns: registered queries, the label indexes
//! that route an arriving event to the queries it can seed or advance, and each query's
//! in-flight work (the run table).
//!
//! This used to live inline in [`crate::detector::Detector`]; it is its own type so the
//! sharded engine ([`crate::shard::ShardedDetector`]) can hand each shard an independent
//! table holding only that shard's queries — the table *is* the unit of partitioning.
//!
//! Queries can be removed again ([`QueryTable::remove`]): the slot is tombstoned rather
//! than compacted, so query ids stay stable for the engine's lifetime and are never
//! reused — a detection can always be attributed unambiguously, and a stale id fails
//! loudly instead of aliasing a later registration.
//!
//! ## The run table
//!
//! Live temporal runs, open keyword windows and pending `Ntemp` anchors are queued
//! **per query, in spawn order**. A query's window is constant and timestamps never
//! decrease, so spawn order is deadline order: whatever has expired sits at the front
//! of its queue, and the table's `next_deadline` lets the engine skip the expiry
//! sweep with one compare per event. An event is offered only to the queues of the
//! queries whose *advance index* names its labels (the label pair of every pattern edge
//! after the first for temporal queries, the member labels for keyword queries) — for
//! every other run the event is provably a no-op. Removing a query drops its queue with
//! its slot.

use crate::detector::{CompiledQuery, QueryId, SeedKey};
use crate::error::{DeregisterError, RegisterError};
use query::matcher::{label_multiset, NodeSetRun, TemporalRun};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use tgraph::{Label, TemporalEdge};

/// Multiply-xor hasher (the Fx scheme) for the label-keyed routing maps, which are
/// probed on every event. Their keys are the labels of *registered* queries — operator
/// input, bounded by the query count, never stream data — so SipHash's resistance to
/// crafted collisions protects nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct LabelHasher(u64);

impl Hasher for LabelHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&byte| self.write_u32(byte.into()));
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type LabelMap<K, V> = HashMap<K, V, BuildHasherDefault<LabelHasher>>;

/// One unit of a query's in-flight work.
#[derive(Debug, Clone)]
pub(crate) enum Live {
    /// A temporal partial-match run.
    Run(TemporalRun),
    /// An open keyword window.
    Window(NodeSetRun),
    /// An `Ntemp` anchor waiting for its window to close.
    Anchor(TemporalEdge),
}

/// An in-flight item in its query's queue.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    /// Global spawn sequence number: orders items of *different* queries the way one
    /// shared list would (detections inside an event are emitted in this order).
    pub seq: u64,
    /// Last timestamp at which the item can still complete.
    pub deadline: u64,
    pub state: Live,
}

/// A registered query plus its match window and in-flight work.
#[derive(Debug, Clone)]
pub struct Registered {
    query: CompiledQuery,
    window: u64,
    /// A keyword query's label multiset (empty for the other query types), built once
    /// here instead of per window.
    pub(crate) multiset: Vec<(Label, usize)>,
    /// The query's in-flight work in spawn order, hence deadline order. Only
    /// [`Slots`] adds to or removes from it.
    pub(crate) in_flight: VecDeque<InFlight>,
}

impl Registered {
    /// The compiled query.
    #[inline]
    pub fn query(&self) -> &CompiledQuery {
        &self.query
    }

    /// The query's match window in timestamp units (always at least 1).
    #[inline]
    pub fn window(&self) -> u64 {
        self.window
    }
}

/// The queries one `(source label, destination label)` pair routes to.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairRoutes {
    /// Temporal queries whose first edge carries the pair: the event seeds a run.
    pub temporal_seeds: Vec<QueryId>,
    /// Static queries whose first edge carries the pair: the event is an anchor.
    pub static_anchors: Vec<QueryId>,
    /// Temporal queries with a *later* pattern edge carrying the pair: the event can
    /// advance their live runs (and no other temporal run).
    pub temporal_advance: Vec<QueryId>,
}

/// The label-keyed routing half of a [`QueryTable`]: which queries an event with given
/// labels can seed or advance. Every posting list is in ascending id order.
#[derive(Debug, Clone, Default)]
pub(crate) struct LabelIndex {
    /// Temporal and static queries by the label pairs that seed or advance them.
    by_pair: LabelMap<(Label, Label), PairRoutes>,
    /// Keyword queries by each member label (their seed and advance index alike).
    by_member: LabelMap<Label, Vec<QueryId>>,
}

impl LabelIndex {
    /// Everything an event with this label pair routes to among temporal and static
    /// queries — one probe for seeds, anchors and the advance index together.
    pub(crate) fn pair(&self, src: Label, dst: Label) -> Option<&PairRoutes> {
        self.by_pair.get(&(src, dst))
    }

    /// Keyword queries containing this label.
    pub(crate) fn member(&self, label: Label) -> &[QueryId] {
        self.by_member.get(&label).map_or(&[], Vec::as_slice)
    }

    /// Refills `touched` with the keyword queries that have either endpoint label among
    /// their members (ascending, each once): the ones whose windows an event with these
    /// labels can advance, and the ones it opens a window for.
    pub(crate) fn members(&self, src: Label, dst: Label, touched: &mut Vec<QueryId>) {
        touched.clear();
        touched.extend_from_slice(self.member(src));
        if dst != src {
            for query in self.member(dst) {
                if !touched.contains(query) {
                    touched.push(*query);
                }
            }
            touched.sort_unstable();
        }
    }
}

/// The slot half of a [`QueryTable`]: the registrations and the run table. Separate
/// from the [`LabelIndex`] so an engine can walk a posting list while it spawns into,
/// or offers an event to, the queues of the queries that list names.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slots {
    /// One slot per ever-registered query, indexed by id; `None` marks a removed query.
    entries: Vec<Option<Registered>>,
    /// Spawn sequence number the next in-flight item gets.
    next_seq: u64,
    /// A lower bound on every in-flight deadline. Spawns lower it; a sweep makes it
    /// exact (`u64::MAX` with nothing in flight). Being too low — at the start, or
    /// after a completion removed the earliest item — costs one empty sweep.
    next_deadline: u64,
}

impl Slots {
    /// The registered query with id `id` (panics like [`QueryTable::get`]).
    #[inline]
    pub(crate) fn get(&self, id: QueryId) -> &Registered {
        self.entries[id]
            .as_ref()
            .expect("query id points at a removed or unknown query")
    }

    /// A lower bound on the deadlines of everything in flight: nothing can have
    /// expired while the stream's timestamp has not passed it.
    pub(crate) fn next_deadline(&self) -> u64 {
        self.next_deadline
    }

    /// Queues a new in-flight item at the back of `id`'s queue.
    pub(crate) fn spawn(&mut self, id: QueryId, deadline: u64, state: Live) {
        let registered = self.entries[id]
            .as_mut()
            .expect("spawning for a removed or unknown query");
        registered.in_flight.push_back(InFlight {
            seq: self.next_seq,
            deadline,
            state,
        });
        self.next_seq += 1;
        self.next_deadline = self.next_deadline.min(deadline);
    }

    /// Offers an event to `id`'s in-flight items, oldest first: `keep` sees the query
    /// and each item and returns whether the item stays (completed items leave).
    pub(crate) fn offer(
        &mut self,
        id: QueryId,
        mut keep: impl FnMut(&CompiledQuery, &mut InFlight) -> bool,
    ) {
        let registered = self.entries[id]
            .as_mut()
            .expect("label index points at a removed or unknown query");
        if !registered.in_flight.is_empty() {
            let query = &registered.query;
            registered.in_flight.retain_mut(|item| keep(query, item));
        }
    }

    /// Pops every in-flight item whose window closed strictly before `now` (all of them
    /// for `None`, the stream's end) off the front of its queue and hands it to
    /// `retired` — in id order and, per query, spawn order.
    pub(crate) fn retire(&mut self, now: Option<u64>, mut retired: impl FnMut(QueryId, InFlight)) {
        let mut next = u64::MAX;
        for (id, slot) in self.entries.iter_mut().enumerate() {
            let Some(registered) = slot else { continue };
            while let Some(front) = registered.in_flight.front() {
                if now.is_some_and(|ts| front.deadline >= ts) {
                    next = next.min(front.deadline);
                    break;
                }
                let item = registered.in_flight.pop_front().expect("front exists");
                retired(id, item);
            }
        }
        self.next_deadline = next;
    }
}

/// Registered queries, the label-keyed indexes over them, and their in-flight work.
///
/// Queries are keyed on their first edge's `(source label, destination label)` pair
/// (keyword queries on each member label), so per event only the queries whose first
/// edge can match are touched; temporal queries are additionally keyed on the label
/// pair of every later pattern edge, so only runs the event can move are advanced.
/// Registration validates the query: zero windows and trivially-empty queries are
/// rejected with a typed [`RegisterError`]. Removal purges the indexes, drops the
/// query's in-flight work and recomputes the retention-driving static window, but
/// leaves the slot tombstoned so ids never shift or get reused.
#[derive(Debug, Clone, Default)]
pub struct QueryTable {
    pub(crate) index: LabelIndex,
    pub(crate) slots: Slots,
    /// Number of live (non-tombstoned) slots.
    live: usize,
    /// Largest window among *live static* queries only — the only query type that reads
    /// the buffered window (temporal and keyword runs carry their own state), so it
    /// alone determines how much history the graph must retain. Recomputed on removal.
    max_static_window: u64,
}

impl QueryTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query matched within `window` timestamp units, indexing it under its
    /// seed and advance labels. Returns its id (dense over registrations, starting at
    /// 0), or rejects a zero window / trivially-empty query.
    pub fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<QueryId, RegisterError> {
        if window == 0 {
            return Err(RegisterError::ZeroWindow);
        }
        let Some(seed_key) = query.seed_key() else {
            return Err(RegisterError::EmptyQuery);
        };
        let id = self.slots.entries.len();
        let by_pair = &mut self.index.by_pair;
        let multiset = match &query {
            CompiledQuery::NodeSet(set) => label_multiset(set),
            _ => Vec::new(),
        };
        match seed_key {
            SeedKey::TemporalPair(src, dst) => {
                by_pair
                    .entry((src, dst))
                    .or_default()
                    .temporal_seeds
                    .push(id);
                for pair in query.advance_pairs() {
                    by_pair.entry(pair).or_default().temporal_advance.push(id);
                }
            }
            SeedKey::StaticPair(src, dst) => {
                by_pair
                    .entry((src, dst))
                    .or_default()
                    .static_anchors
                    .push(id);
                self.max_static_window = self.max_static_window.max(window);
            }
            SeedKey::NodeSetLabels(labels) => {
                for label in labels {
                    self.index.by_member.entry(label).or_default().push(id);
                }
            }
        }
        self.slots.entries.push(Some(Registered {
            query,
            window,
            multiset,
            in_flight: VecDeque::new(),
        }));
        self.live += 1;
        Ok(id)
    }

    /// Removes a registered query: tombstones its slot (dropping its in-flight work
    /// with it), unlinks it from the indexes (so no future event routes to it), and
    /// recomputes the static-window maximum. Returns the removed registration; errs on
    /// an unknown or already-removed id.
    pub fn remove(&mut self, id: QueryId) -> Result<Registered, DeregisterError> {
        let registered = self
            .slots
            .entries
            .get_mut(id)
            .and_then(Option::take)
            .ok_or(DeregisterError::UnknownQuery { id })?;
        self.live -= 1;
        // Deregistration is rare: sweep every posting list instead of re-deriving the
        // query's keys, dropping the entries nothing routes through any more.
        let unlink = |list: &mut Vec<QueryId>| {
            list.retain(|&q| q != id);
            list.is_empty()
        };
        self.index.by_member.retain(|_, members| !unlink(members));
        self.index.by_pair.retain(|_, routes| {
            !(unlink(&mut routes.temporal_seeds)
                & unlink(&mut routes.static_anchors)
                & unlink(&mut routes.temporal_advance))
        });
        if matches!(registered.query, CompiledQuery::Static(_)) {
            // The removed query may have been the one sizing the retention.
            self.max_static_window = self
                .iter()
                .filter(|(_, r)| matches!(r.query(), CompiledQuery::Static(_)))
                .map(|(_, r)| r.window())
                .max()
                .unwrap_or(0);
        }
        Ok(registered)
    }

    /// Number of live registered queries (removed queries do not count).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no query is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of registrations ever made — the next id to be assigned.
    /// `len() < slot_count()` exactly when queries have been removed.
    pub fn slot_count(&self) -> usize {
        self.slots.entries.len()
    }

    /// Iterates over the live queries as `(id, registration)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &Registered)> {
        self.slots
            .entries
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|r| (id, r)))
    }

    /// The largest window among live *static* queries (0 without any). Only static
    /// matches resolve against the buffered window, so this is what sizes the graph's
    /// retention — temporal and keyword windows live in their runs instead.
    pub fn max_static_window(&self) -> u64 {
        self.max_static_window
    }

    /// The registered query with id `id`.
    ///
    /// # Panics
    /// Panics if `id` was not returned by [`QueryTable::register`] on this table, or
    /// the query was removed.
    #[inline]
    pub fn get(&self, id: QueryId) -> &Registered {
        self.slots.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgminer::baselines::gspan::StaticPattern;
    use tgminer::baselines::nodeset::NodeSetQuery;
    use tgraph::pattern::TemporalPattern;

    fn l(i: u32) -> Label {
        Label(i)
    }

    /// The temporal seed, static anchor and temporal advance postings of a label pair.
    fn pair(table: &QueryTable, src: u32, dst: u32) -> [Vec<QueryId>; 3] {
        table
            .index
            .pair(l(src), l(dst))
            .map_or_else(Default::default, |routes| {
                [
                    routes.temporal_seeds.clone(),
                    routes.static_anchors.clone(),
                    routes.temporal_advance.clone(),
                ]
            })
    }

    #[test]
    fn registration_indexes_queries_under_their_seed_labels() {
        let mut table = QueryTable::new();
        let t = table
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap();
        let s = table
            .register(
                CompiledQuery::Static(StaticPattern {
                    labels: vec![l(0), l(1)],
                    edges: vec![(0, 1)],
                }),
                7,
            )
            .unwrap();
        let n = table
            .register(
                CompiledQuery::NodeSet(NodeSetQuery {
                    labels: vec![l(2), l(2), l(3)],
                }),
                9,
            )
            .unwrap();
        assert_eq!((t, s, n), (0, 1, 2));
        assert_eq!(table.len(), 3);
        assert_eq!(
            table.max_static_window(),
            7,
            "only the static query's window sizes the retention"
        );
        assert_eq!(pair(&table, 0, 1), [vec![t], vec![s], vec![]]);
        // Duplicate member labels index the query once.
        assert_eq!(table.index.member(l(2)), &[n]);
        assert_eq!(table.index.member(l(3)), &[n]);
        assert!(table.index.pair(l(1), l(0)).is_none());
        assert_eq!(table.get(s).window(), 7);
    }

    #[test]
    fn zero_window_and_empty_queries_are_rejected() {
        let mut table = QueryTable::new();
        assert_eq!(
            table.register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                0,
            ),
            Err(RegisterError::ZeroWindow)
        );
        assert_eq!(
            table.register(CompiledQuery::NodeSet(NodeSetQuery { labels: vec![] }), 5),
            Err(RegisterError::EmptyQuery)
        );
        assert_eq!(
            table.register(
                CompiledQuery::Static(StaticPattern {
                    labels: vec![],
                    edges: vec![],
                }),
                5,
            ),
            Err(RegisterError::EmptyQuery)
        );
        // Rejected registrations consume no id.
        assert!(table.is_empty());
        let id = table
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                3,
            )
            .unwrap();
        assert_eq!(id, 0);
    }

    #[test]
    fn removal_tombstones_the_slot_and_purges_the_indexes() {
        let mut table = QueryTable::new();
        let t1 = table
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap();
        let t2 = table
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap();
        let n = table
            .register(
                CompiledQuery::NodeSet(NodeSetQuery {
                    labels: vec![l(4), l(5)],
                }),
                5,
            )
            .unwrap();
        assert_eq!(pair(&table, 0, 1)[0], [t1, t2]);
        let removed = table.remove(t1).unwrap();
        assert_eq!(removed.window(), 5);
        assert_eq!(table.len(), 2);
        assert_eq!(table.slot_count(), 3);
        let live: Vec<QueryId> = table.iter().map(|(id, _)| id).collect();
        assert_eq!(live, [t2, n], "t1 is gone, the others stay live");
        assert_eq!(
            pair(&table, 0, 1)[0],
            [t2],
            "removed queries must not be routed to"
        );
        // Removing the keyword query clears both of its label postings entirely.
        table.remove(n).unwrap();
        assert!(table.index.member(l(4)).is_empty());
        assert!(table.index.member(l(5)).is_empty());
        // Double removal and unknown ids fail loudly; ids are never reused.
        assert!(matches!(
            table.remove(t1),
            Err(DeregisterError::UnknownQuery { id }) if id == t1
        ));
        assert!(matches!(
            table.remove(99),
            Err(DeregisterError::UnknownQuery { id: 99 })
        ));
        let next = table
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap();
        assert_eq!(next, 3, "tombstoned ids are not handed out again");
        assert_eq!(table.iter().map(|(id, _)| id).collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn the_largest_label_id_costs_one_entry_and_routes() {
        // The routing maps are keyed by registered labels, never sized by label id.
        let huge = Label(u32::MAX);
        let mut detector = crate::Detector::new();
        let chain = TemporalPattern::single_edge(huge, l(1))
            .grow_forward(1, huge)
            .unwrap();
        let t = detector
            .register(CompiledQuery::Temporal(chain), 10)
            .unwrap()
            .id;
        let n = detector
            .register(
                CompiledQuery::NodeSet(NodeSetQuery {
                    labels: vec![huge, l(1)],
                }),
                10,
            )
            .unwrap()
            .id;
        let index = &detector.queries().index;
        assert_eq!((index.by_pair.len(), index.by_member.len()), (2, 2));
        assert_eq!(index.pair(huge, l(1)).unwrap().temporal_seeds, [t]);
        assert_eq!(index.pair(l(1), huge).unwrap().temporal_advance, [t]);
        assert_eq!(index.member(huge), [n]);
        let event = |ts, src, dst, src_label, dst_label| tgraph::StreamEvent {
            ts,
            src,
            dst,
            src_label,
            dst_label,
        };
        // The first edge seeds the run and completes the keyword pair; the second,
        // with the huge label on the other end, is offered to the run and completes it.
        let first = detector.on_event(event(1, 0, 1, huge, l(1))).unwrap();
        assert_eq!(first.iter().map(|d| d.query).collect::<Vec<_>>(), [n]);
        let second = detector.on_event(event(2, 1, 2, l(1), huge)).unwrap();
        assert_eq!(
            second[0],
            crate::Detection {
                query: t,
                start_ts: 1,
                end_ts: 2
            }
        );
    }

    #[test]
    fn labels_first_seen_after_registration_route_correctly() {
        let mut detector = crate::Detector::new();
        let early = detector
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        let event = |ts, src, dst, src_label: u32, dst_label: u32| tgraph::StreamEvent {
            ts,
            src,
            dst,
            src_label: l(src_label),
            dst_label: l(dst_label),
        };
        // Labels no registered query names — small, large, and far apart — route to
        // nothing and grow nothing.
        for (ts, src_label, dst_label) in [(1, 7, 9), (2, u32::MAX, 7), (3, 1 << 31, u32::MAX - 1)]
        {
            let out = detector.on_event(event(
                ts,
                10 + 2 * ts as usize,
                11 + 2 * ts as usize,
                src_label,
                dst_label,
            ));
            assert_eq!(out.unwrap(), []);
        }
        assert_eq!(detector.queries().index.by_pair.len(), 1);
        // A query registered mid-stream over labels the stream already carried is
        // routed to from its registration on, next to the earlier one.
        let late = detector
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(u32::MAX), l(7))),
                5,
            )
            .unwrap()
            .id;
        let out = detector.on_event(event(4, 14, 15, u32::MAX, 7)).unwrap();
        assert_eq!(out.iter().map(|d| d.query).collect::<Vec<_>>(), [late]);
        let out = detector.on_event(event(5, 0, 1, 0, 1)).unwrap();
        assert_eq!(out.iter().map(|d| d.query).collect::<Vec<_>>(), [early]);
    }

    #[test]
    fn removing_the_widest_static_query_shrinks_the_retention_window() {
        let static_query = |a: u32, b: u32| {
            CompiledQuery::Static(StaticPattern {
                labels: vec![l(a), l(b)],
                edges: vec![(0, 1)],
            })
        };
        let mut table = QueryTable::new();
        let narrow = table.register(static_query(0, 1), 10).unwrap();
        let wide = table.register(static_query(2, 3), 100).unwrap();
        assert_eq!(table.max_static_window(), 100);
        table.remove(wide).unwrap();
        assert_eq!(
            table.max_static_window(),
            10,
            "retention follows the widest surviving static window"
        );
        table.remove(narrow).unwrap();
        assert_eq!(table.max_static_window(), 0);
    }
}
