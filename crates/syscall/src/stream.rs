//! Replaying generated datasets as ordered event streams.
//!
//! The streaming detection engine (crate `stream`) consumes
//! [`StreamEvent`]s; this adapter turns a materialised monitoring graph — typically
//! [`TestData::graph`] — back into the stream of events that would have produced it,
//! delivered in timestamp order in batches of a configurable size. Replaying a dataset
//! through the detector is how the parity tests check streaming results against the
//! offline search, and how the throughput benchmark drives the engine.
//!
//! [`LabeledTrace`] is the training-side wire format: one behavior execution (or one
//! background window) delivered as events plus its class tag — a monitoring deployment
//! receives labeled example streams, not materialised graph objects. [`labeled_traces`]
//! replays a [`TrainingData`] in that form and [`TrainingData::from_traces`] is its
//! inverse, built on [`graph_of_events`], the inverse of [`events_of_graph`].
//!
//! [`TenantedStreamSource`] is the multi-tenant front: it interleaves several
//! independent per-tenant streams (tenant ids assigned here, from the owning
//! trace/graph) into one batched feed of [`TenantedEvent`]s, preserving each tenant's
//! order while making no promise about the global interleaving — the workload the
//! `stream` crate's tenant demux layer is built to handle.

use crate::behaviors::Behavior;
use crate::dataset::TrainingData;
use crate::testdata::TestData;
use std::collections::HashMap;
use tgraph::{
    GraphBuilder, GraphError, Label, StreamEvent, TemporalGraph, TenantId, TenantedEvent,
};

/// The events a materialised temporal graph would have produced, in timestamp order.
pub fn events_of_graph(graph: &TemporalGraph) -> Vec<StreamEvent> {
    (0..graph.edge_count())
        .map(|idx| graph.event(idx))
        .collect()
}

/// Rebuilds a trace's temporal graph from its event stream — the inverse of
/// [`events_of_graph`] up to node ids, which are remapped densely in first-appearance
/// order (isolated nodes do not survive replay: a trace is its events).
///
/// A node keeps the label it was first announced with; a conflicting re-announcement
/// is a [`GraphError::LabelConflict`], and a timestamp below its predecessor a
/// [`GraphError::NonMonotonicTimestamp`] (ties are legal). This is stricter than the
/// streaming engine, which accepts a reused id under a new label: a graph has one
/// label per node.
pub fn graph_of_events(events: &[StreamEvent]) -> Result<TemporalGraph, GraphError> {
    let mut builder = GraphBuilder::new();
    let mut ids: HashMap<usize, (usize, Label)> = HashMap::new();
    for event in events {
        for (node, label) in [(event.src, event.src_label), (event.dst, event.dst_label)] {
            match ids.get(&node) {
                None => {
                    ids.insert(node, (builder.add_node(label), label));
                }
                Some(&(_, existing)) => {
                    if existing != label {
                        return Err(GraphError::LabelConflict {
                            node,
                            existing: existing.0,
                            new: label.0,
                        });
                    }
                }
            }
        }
        builder.add_edge(ids[&event.src].0, ids[&event.dst].0, event.ts)?;
    }
    Ok(builder.build())
}

/// An ordered, batched event stream over a materialised temporal graph.
#[derive(Debug, Clone)]
pub struct StreamSource {
    events: Vec<StreamEvent>,
    batch_size: usize,
}

impl StreamSource {
    /// A stream replaying `graph`'s edges in timestamp order, `batch_size` events at a
    /// time.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn from_graph(graph: &TemporalGraph, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self::from_events(events_of_graph(graph), batch_size)
    }

    /// A stream replaying a generated test dataset's monitoring graph.
    pub fn from_test_data(data: &TestData, batch_size: usize) -> Self {
        Self::from_graph(&data.graph, batch_size)
    }

    /// A stream over explicit events in their given order — the re-ingest path for
    /// captured histories, e.g. `durable::read_logged_events` pulling a write-ahead
    /// log back into a replayable stream.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn from_events(events: Vec<StreamEvent>, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self { events, batch_size }
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Total number of events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The whole stream's batches from the beginning (the last one may be short). Every
    /// call starts over, so one source replays into several detector pools (every shard
    /// count of a throughput sweep, or the sharded and single-threaded engines of a
    /// parity check) without any cursor bookkeeping.
    pub fn batches(&self) -> std::slice::Chunks<'_, StreamEvent> {
        self.events.chunks(self.batch_size)
    }
}

/// An interleaved multi-tenant event stream: several independent per-tenant streams
/// ([`TenantId`] assigned by this adapter from the owning trace/graph) delivered as
/// one batched sequence of [`TenantedEvent`]s.
///
/// ## Ordering contract
///
/// Within each tenant, events keep that tenant's order (timestamps non-decreasing).
/// Across tenants there is **no** ordering guarantee: depending on the constructor the
/// interleaving is time-merged ([`TenantedStreamSource::merged`] — globally
/// non-decreasing, ties broken by tenant id) or scheduler-style round-robin
/// ([`TenantedStreamSource::replicate_test_data`] — global timestamps jump backwards
/// whenever the rotation wraps). Consumers must demux by tenant and must not assume one
/// global total order — that is exactly the contract the `stream` crate's tenant pool
/// is built for.
#[derive(Debug, Clone)]
pub struct TenantedStreamSource {
    events: Vec<TenantedEvent>,
    batch_size: usize,
    tenants: usize,
}

impl TenantedStreamSource {
    fn new(events: Vec<TenantedEvent>, batch_size: usize, tenants: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            events,
            batch_size,
            tenants,
        }
    }

    /// A deterministic time-merged interleave of per-tenant streams: events are
    /// delivered in ascending `(ts, tenant, per-tenant position)` order, so the global
    /// stream is non-decreasing while every tenant's own order is preserved.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn merged(streams: Vec<(TenantId, Vec<StreamEvent>)>, batch_size: usize) -> Self {
        let tenants = streams.len();
        let mut cursors: Vec<(
            TenantId,
            std::vec::IntoIter<StreamEvent>,
            Option<StreamEvent>,
        )> = streams
            .into_iter()
            .map(|(tenant, events)| {
                let mut iter = events.into_iter();
                let head = iter.next();
                (tenant, iter, head)
            })
            .collect();
        // Stable tie-break: the lowest (ts, tenant) head goes next.
        let mut merged = Vec::new();
        loop {
            let next = cursors
                .iter()
                .enumerate()
                .filter_map(|(i, (tenant, _, head))| head.map(|e| (e.ts, *tenant, i)))
                .min();
            let Some((_, tenant, i)) = next else { break };
            let (_, iter, head) = &mut cursors[i];
            let event = head.take().expect("selected cursor has a head");
            *head = iter.next();
            merged.push(TenantedEvent { tenant, event });
        }
        Self::new(merged, batch_size, tenants)
    }

    /// A scheduler-style round-robin interleave: `chunk` events from each tenant in
    /// rotation until all streams drain. When tenants' timestamp domains overlap, the
    /// global timestamp sequence is *not* monotonic — the harsher (and more realistic)
    /// demux workload.
    ///
    /// # Panics
    /// Panics if `batch_size` or `chunk` is zero.
    fn round_robin(
        streams: Vec<(TenantId, Vec<StreamEvent>)>,
        chunk: usize,
        batch_size: usize,
    ) -> Self {
        assert!(chunk > 0, "round-robin chunk must be positive");
        let tenants = streams.len();
        let total: usize = streams.iter().map(|(_, e)| e.len()).sum();
        let mut queues: Vec<(TenantId, std::collections::VecDeque<StreamEvent>)> = streams
            .into_iter()
            .map(|(tenant, events)| (tenant, events.into()))
            .collect();
        let mut interleaved = Vec::with_capacity(total);
        while interleaved.len() < total {
            for (tenant, queue) in &mut queues {
                for _ in 0..chunk {
                    let Some(event) = queue.pop_front() else {
                        break;
                    };
                    interleaved.push(TenantedEvent {
                        tenant: *tenant,
                        event,
                    });
                }
            }
        }
        Self::new(interleaved, batch_size, tenants)
    }

    /// The tenant-count scaling axis: `tenants` copies of a test dataset's monitoring
    /// graph, one per tenant (ids `0..tenants`), round-robin interleaved in chunks of
    /// `chunk`. Every tenant carries the identical workload, so throughput per tenant
    /// is directly comparable across tenant counts — and since all copies share one
    /// timestamp domain, the interleave is saturated with cross-tenant timestamp
    /// collisions.
    pub fn replicate_test_data(
        data: &TestData,
        tenants: usize,
        chunk: usize,
        batch_size: usize,
    ) -> Self {
        let events = events_of_graph(&data.graph);
        let streams = (0..tenants)
            .map(|t| (TenantId(t as u64), events.clone()))
            .collect();
        Self::round_robin(streams, chunk, batch_size)
    }

    /// A multi-tenant stream over labeled traces: each trace is its own tenant (the
    /// owning trace index becomes the [`TenantId`]), time-merged into one interleaved
    /// feed. This is how a monitoring deployment's per-process event streams arrive —
    /// many concurrent executions, one wire.
    pub fn from_traces(traces: &[LabeledTrace], batch_size: usize) -> Self {
        let streams = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| (TenantId(i as u64), trace.events.clone()))
            .collect();
        Self::merged(streams, batch_size)
    }

    /// Number of tenants the source was built from (including event-less ones).
    pub fn tenant_count(&self) -> usize {
        self.tenants
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Total number of events across all tenants.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The whole stream's batches from the beginning (same contract as
    /// [`StreamSource::batches`]).
    pub fn batches(&self) -> std::slice::Chunks<'_, TenantedEvent> {
        self.events.chunks(self.batch_size)
    }

    /// One tenant's events, in that tenant's delivery order — the isolated
    /// single-tenant stream the tenant-parity law compares against.
    pub fn tenant_events(&self, tenant: TenantId) -> Vec<StreamEvent> {
        self.events
            .iter()
            .filter(|e| e.tenant == tenant)
            .map(|e| e.event)
            .collect()
    }
}

/// The class tag of one labeled training trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLabel {
    /// The trace is one execution of this target behavior (a positive example).
    Behavior(Behavior),
    /// The trace is background activity (a negative example for every behavior).
    Background,
}

/// One labeled training trace: a class tag plus the trace's events in timestamp order.
/// Node ids are scoped to the trace (each trace is an independent execution), and
/// timestamps are strictly increasing *within* the trace only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledTrace {
    /// The trace's class.
    pub label: TraceLabel,
    /// The trace's events.
    pub events: Vec<StreamEvent>,
}

/// A training dataset as labeled traces: every behavior's positive traces (classes in
/// the order [`TrainingData`] stores them) followed by the background traces.
pub fn labeled_traces(data: &TrainingData) -> Vec<LabeledTrace> {
    let trace = |label, graph| LabeledTrace {
        label,
        events: events_of_graph(graph),
    };
    let positives = data.behaviors.iter().flat_map(|dataset| {
        let label = TraceLabel::Behavior(dataset.behavior);
        dataset.graphs.iter().map(move |graph| trace(label, graph))
    });
    let background = data
        .background
        .iter()
        .map(|graph| trace(TraceLabel::Background, graph));
    positives.chain(background).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::testdata::TestDataConfig;
    use tgraph::{Label, LabelInterner, TemporalEdge};

    fn ev(ts: u64, src: usize, dst: usize, sl: u32, dl: u32) -> StreamEvent {
        StreamEvent {
            ts,
            src,
            dst,
            src_label: Label(sl),
            dst_label: Label(dl),
        }
    }

    #[test]
    fn batches_cover_the_graph_in_order() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let source = StreamSource::from_test_data(&data, 97);
        assert_eq!(source.len(), data.graph.edge_count());
        let mut replayed = Vec::new();
        for batch in source.batches() {
            assert!(batch.len() <= 97);
            replayed.extend_from_slice(batch);
        }
        assert_eq!(replayed.len(), data.graph.edge_count());
        for (event, edge) in replayed.iter().zip(data.graph.edges()) {
            assert_eq!(TemporalEdge::from(*event), *edge);
            assert_eq!(event.src_label, data.graph.label(edge.src));
            assert_eq!(event.dst_label, data.graph.label(edge.dst));
        }
    }

    #[test]
    fn batch_size_one_delivers_single_events() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let source = StreamSource::from_test_data(&data, 1);
        assert_eq!(source.batches().len(), source.len());
        assert!(source.batches().all(|batch| batch.len() == 1));
    }

    #[test]
    fn every_batches_call_replays_the_whole_stream() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let source = StreamSource::from_test_data(&data, 53);
        let replayed: usize = source.batches().map(<[StreamEvent]>::len).sum();
        assert_eq!(replayed, source.len());
        // Two iterations deliver identical batches.
        let first: Vec<&[StreamEvent]> = source.batches().collect();
        let second: Vec<&[StreamEvent]> = source.batches().collect();
        assert_eq!(first, second);
        assert!(first.iter().all(|batch| batch.len() <= 53));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_is_rejected() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let _ = StreamSource::from_test_data(&data, 0);
    }

    #[test]
    fn merged_tenant_stream_is_globally_ordered_and_preserves_tenant_order() {
        let mk = |ts: &[u64]| -> Vec<StreamEvent> {
            ts.iter()
                .enumerate()
                .map(|(i, &t)| ev(t, 2 * i, 2 * i + 1, 1, 2))
                .collect()
        };
        let streams = vec![
            (TenantId(0), mk(&[1, 4, 4, 9])),
            (TenantId(1), mk(&[2, 4, 5])),
            (TenantId(2), mk(&[4])),
        ];
        let source = TenantedStreamSource::merged(streams.clone(), 3);
        assert_eq!(source.tenant_count(), 3);
        assert_eq!(source.len(), 8);
        let mut delivered = Vec::new();
        for batch in source.batches() {
            assert!(batch.len() <= 3);
            delivered.extend_from_slice(batch);
        }
        // Globally non-decreasing, ties broken by tenant id.
        let order: Vec<(u64, u64)> = delivered.iter().map(|e| (e.event.ts, e.tenant.0)).collect();
        assert_eq!(
            order,
            vec![
                (1, 0),
                (2, 1),
                (4, 0),
                (4, 0),
                (4, 1),
                (4, 2),
                (5, 1),
                (9, 0)
            ]
        );
        // Per-tenant order (the tenant-parity projection) matches each input stream.
        for (tenant, events) in &streams {
            assert_eq!(&source.tenant_events(*tenant), events);
        }
    }

    #[test]
    fn round_robin_preserves_per_tenant_order_without_global_order() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let source = TenantedStreamSource::replicate_test_data(&data, 3, 7, 64);
        let events = events_of_graph(&data.graph);
        assert_eq!(source.tenant_count(), 3);
        assert_eq!(source.len(), 3 * events.len());
        // Every tenant sees the identical workload, in its own order.
        for t in 0..3 {
            assert_eq!(source.tenant_events(TenantId(t)), events);
        }
        // Identical timestamp domains + rotation => the global sequence genuinely
        // jumps backwards somewhere (the workload the demux layer exists for).
        let global: Vec<u64> = source.batches().flatten().map(|e| e.event.ts).collect();
        assert!(
            global.windows(2).any(|w| w[1] < w[0]),
            "expected a non-monotonic global interleave"
        );
        // Construction is deterministic.
        let again = TenantedStreamSource::replicate_test_data(&data, 3, 7, 64);
        let a: Vec<TenantedEvent> = source.batches().flatten().copied().collect();
        let b: Vec<TenantedEvent> = again.batches().flatten().copied().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_event_sources_replay_verbatim() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let events = events_of_graph(&data.graph);
        let source = StreamSource::from_events(events.clone(), 71);
        assert_eq!(source.len(), events.len());
        let replayed: Vec<StreamEvent> = source.batches().flatten().copied().collect();
        assert_eq!(replayed, events);
    }

    #[test]
    fn from_traces_assigns_tenants_by_trace_index() {
        let training = TrainingData::generate(&DatasetConfig::tiny());
        let traces: Vec<LabeledTrace> = labeled_traces(&training).into_iter().take(4).collect();
        let source = TenantedStreamSource::from_traces(&traces, 32);
        assert_eq!(source.tenant_count(), traces.len());
        assert_eq!(
            source.len(),
            traces.iter().map(|t| t.events.len()).sum::<usize>()
        );
        for (i, trace) in traces.iter().enumerate() {
            assert_eq!(source.tenant_events(TenantId(i as u64)), trace.events);
        }
    }

    #[test]
    fn labeled_traces_cover_every_training_graph_in_order() {
        let config = DatasetConfig::tiny();
        let training = TrainingData::generate(&config);
        let traces = labeled_traces(&training);
        assert_eq!(
            traces.len(),
            12 * config.graphs_per_behavior + config.background_graphs
        );
        // Trace i is graph i of the dataset (behaviors, then background), event for
        // event, tagged with the class that owns it.
        for (trace, graph) in traces.iter().zip(training.all_graphs()) {
            assert_eq!(trace.events, events_of_graph(graph));
        }
        let labels: Vec<TraceLabel> = traces.iter().map(|t| t.label).collect();
        let mut expected = Vec::new();
        for dataset in &training.behaviors {
            expected.extend(vec![
                TraceLabel::Behavior(dataset.behavior);
                dataset.graphs.len()
            ]);
        }
        expected.extend(vec![TraceLabel::Background; config.background_graphs]);
        assert_eq!(labels, expected);
    }

    #[test]
    fn graph_of_events_remaps_nodes_densely_in_first_appearance_order() {
        // Node 7 appears twice, then 9 again: three events over two nodes.
        let graph = graph_of_events(&[ev(1, 7, 9, 0, 1), ev(2, 9, 7, 1, 0), ev(2, 9, 9, 1, 1)])
            .expect("consistent trace");
        assert_eq!(graph.node_count(), 2);
        assert_eq!((graph.label(0), graph.label(1)), (Label(0), Label(1)));
        let edges: Vec<(usize, usize, u64)> =
            graph.edges().iter().map(|e| (e.src, e.dst, e.ts)).collect();
        assert_eq!(edges, vec![(0, 1, 1), (1, 0, 2), (1, 1, 2)]);
        // It inverts `events_of_graph` exactly on a graph whose ids are already dense.
        assert_eq!(graph_of_events(&events_of_graph(&graph)).unwrap(), graph);
    }

    #[test]
    fn graph_of_events_rejects_relabels_and_stale_timestamps() {
        // Node 4 re-announced with a different label.
        assert!(matches!(
            graph_of_events(&[ev(1, 4, 5, 0, 1), ev(2, 4, 5, 9, 1)]),
            Err(GraphError::LabelConflict {
                node: 4,
                existing: 0,
                new: 9
            })
        ));
        // Timestamps must be non-decreasing within a trace (ties are legal).
        assert!(matches!(
            graph_of_events(&[ev(3, 0, 1, 0, 1), ev(2, 1, 0, 1, 0)]),
            Err(GraphError::NonMonotonicTimestamp { .. })
        ));
        assert!(graph_of_events(&[ev(3, 0, 1, 0, 1), ev(3, 1, 0, 1, 0)]).is_ok());
    }
}
