//! Replaying generated datasets as ordered event streams.
//!
//! The streaming detection engine (crate `stream`) consumes
//! [`StreamEvent`]s; this adapter turns a materialised monitoring graph — typically
//! [`TestData::graph`] — back into the stream of events that would have produced it,
//! delivered in timestamp order in batches of a configurable size. Replaying a dataset
//! through the detector is how the parity tests check streaming results against the
//! offline search, and how the throughput benchmark drives the engine.
//!
//! [`LabeledStreamSource`] is the training-side twin: it replays a [`TrainingData`]
//! dataset as a sequence of *labeled traces* — each trace is one behavior execution (or
//! one background window) delivered as events plus its class tag. This is the wire
//! format the online discovery pipeline (`stream::discovery`) ingests: a monitoring
//! deployment receives labeled example streams, not materialised graph objects.
//!
//! [`TenantedStreamSource`] is the multi-tenant front: it interleaves several
//! independent per-tenant streams (tenant ids assigned here, from the owning
//! trace/graph) into one batched feed of [`TenantedEvent`]s, preserving each tenant's
//! order while making no promise about the global interleaving — the workload the
//! `stream` crate's tenant demux layer is built to handle.

use crate::behaviors::Behavior;
use crate::dataset::TrainingData;
use crate::testdata::TestData;
use tgraph::{StreamEvent, TemporalGraph, TenantId, TenantedEvent};

/// The events a materialised temporal graph would have produced, in timestamp order.
pub fn events_of_graph(graph: &TemporalGraph) -> Vec<StreamEvent> {
    graph
        .edges()
        .iter()
        .map(|edge| StreamEvent {
            ts: edge.ts,
            src: edge.src,
            dst: edge.dst,
            src_label: graph.label(edge.src),
            dst_label: graph.label(edge.dst),
        })
        .collect()
}

/// An ordered, batched event stream over a materialised temporal graph.
#[derive(Debug, Clone)]
pub struct StreamSource {
    events: Vec<StreamEvent>,
    batch_size: usize,
    cursor: usize,
    /// Optional delivery counter (`source.events_delivered`), ticked as cursor-driven
    /// batches are handed out. Purely observational.
    delivered: Option<obs::Counter>,
}

impl StreamSource {
    /// A stream replaying `graph`'s edges in timestamp order, `batch_size` events at a
    /// time.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn from_graph(graph: &TemporalGraph, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            events: events_of_graph(graph),
            batch_size,
            cursor: 0,
            delivered: None,
        }
    }

    /// Attaches (or with `None`, detaches) a counter ticked with every event
    /// [`StreamSource::next_batch`] delivers. [`StreamSource::batches`] iterators are
    /// independent of the cursor and do not tick it.
    ///
    /// The counter is an [`obs::Counter`] and therefore monotonic by contract: it is
    /// **cumulative across replays** and is deliberately *not* rewound by
    /// [`StreamSource::reset`] — it answers "events delivered ever", the dashboard
    /// total.
    pub fn set_delivery_counter(&mut self, counter: Option<obs::Counter>) {
        self.delivered = counter;
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
        Self {
            events,
            batch_size,
            cursor: 0,
            delivered: None,
        }
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

    /// Events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Delivers the next batch (the last one may be short), or `None` at end of stream.
    pub fn next_batch(&mut self) -> Option<&[StreamEvent]> {
        if self.cursor >= self.events.len() {
            return None;
        }
        let start = self.cursor;
        let end = (start + self.batch_size).min(self.events.len());
        self.cursor = end;
        if let Some(counter) = &self.delivered {
            counter.add((end - start) as u64);
        }
        Some(&self.events[start..end])
    }

    /// Rewinds the stream to the beginning (e.g. to replay it against another
    /// detector).
    ///
    /// The attached obs delivery counter is **not** rewound: [`obs::Counter`] is
    /// monotonic by contract, so it keeps accumulating across replays (see
    /// [`StreamSource::set_delivery_counter`]).
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// An independent iterator over the whole stream's batches (the last one may be
    /// short), starting from the beginning regardless of this source's cursor. This is
    /// how the same source is replayed into several detector pools (e.g. every shard
    /// count of a throughput sweep, or the sharded and single-threaded engines of a
    /// parity check) without mutable-borrow or `reset` bookkeeping.
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
/// ([`TenantedStreamSource::round_robin`] — global timestamps jump backwards whenever
/// the rotation wraps). Consumers must demux by tenant and must not assume one global
/// total order — that is exactly the contract the `stream` crate's tenant pool is
/// built for.
#[derive(Debug, Clone)]
pub struct TenantedStreamSource {
    events: Vec<TenantedEvent>,
    batch_size: usize,
    cursor: usize,
    tenants: usize,
}

impl TenantedStreamSource {
    fn new(events: Vec<TenantedEvent>, batch_size: usize, tenants: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            events,
            batch_size,
            cursor: 0,
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
    pub fn round_robin(
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

    /// A stream over explicit tenant-tagged events in their given interleaving — the
    /// multi-tenant re-ingest path (e.g. `durable::read_logged_tenant_events`). The
    /// tenant count is the number of distinct tenant ids present.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn from_tenanted_events(events: Vec<TenantedEvent>, batch_size: usize) -> Self {
        let mut tenants: Vec<u64> = events.iter().map(|e| e.tenant.0).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let count = tenants.len();
        Self::new(events, batch_size, count)
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

    /// Events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Delivers the next batch (the last one may be short), or `None` at end of stream.
    pub fn next_batch(&mut self) -> Option<&[TenantedEvent]> {
        if self.cursor >= self.events.len() {
            return None;
        }
        let start = self.cursor;
        let end = (start + self.batch_size).min(self.events.len());
        self.cursor = end;
        Some(&self.events[start..end])
    }

    /// Rewinds the stream to the beginning.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// An independent iterator over the whole stream's batches, ignoring the cursor
    /// (same contract as [`StreamSource::batches`]).
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

impl TraceLabel {
    /// The tagged behavior, or `None` for background traces.
    pub fn behavior(self) -> Option<Behavior> {
        match self {
            TraceLabel::Behavior(behavior) => Some(behavior),
            TraceLabel::Background => None,
        }
    }

    /// Human-readable class name (`"background"` for background traces).
    pub fn name(self) -> &'static str {
        match self {
            TraceLabel::Behavior(behavior) => behavior.name(),
            TraceLabel::Background => "background",
        }
    }
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

/// A training dataset replayed as an ordered sequence of labeled traces — the ingest
/// format of the online discovery pipeline.
#[derive(Debug, Clone)]
pub struct LabeledStreamSource {
    traces: Vec<LabeledTrace>,
    cursor: usize,
}

impl LabeledStreamSource {
    /// Replays a generated training dataset: every behavior's positive traces (in
    /// [`Behavior::all`] order, as [`TrainingData`] stores them) followed by the
    /// background traces.
    pub fn from_training_data(data: &TrainingData) -> Self {
        let mut traces = Vec::new();
        for dataset in &data.behaviors {
            for graph in &dataset.graphs {
                traces.push(LabeledTrace {
                    label: TraceLabel::Behavior(dataset.behavior),
                    events: events_of_graph(graph),
                });
            }
        }
        for graph in &data.background {
            traces.push(LabeledTrace {
                label: TraceLabel::Background,
                events: events_of_graph(graph),
            });
        }
        Self { traces, cursor: 0 }
    }

    /// A source over explicit traces (fixture corpora, captured telemetry).
    pub fn from_traces(traces: Vec<LabeledTrace>) -> Self {
        Self { traces, cursor: 0 }
    }

    /// All traces, independent of the cursor.
    pub fn traces(&self) -> &[LabeledTrace] {
        &self.traces
    }

    /// Number of traces in the source.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the source has no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Traces not yet delivered.
    pub fn remaining(&self) -> usize {
        self.traces.len() - self.cursor
    }

    /// Total number of events across all traces.
    pub fn event_count(&self) -> usize {
        self.traces.iter().map(|t| t.events.len()).sum()
    }

    /// Delivers the next labeled trace, or `None` at end of stream.
    pub fn next_trace(&mut self) -> Option<&LabeledTrace> {
        let trace = self.traces.get(self.cursor)?;
        self.cursor += 1;
        Some(trace)
    }

    /// Rewinds the stream to the first trace.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::testdata::TestDataConfig;
    use tgraph::LabelInterner;

    #[test]
    fn batches_cover_the_graph_in_order() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let mut source = StreamSource::from_test_data(&data, 97);
        assert_eq!(source.len(), data.graph.edge_count());
        let mut replayed = Vec::new();
        while let Some(batch) = source.next_batch() {
            assert!(batch.len() <= 97);
            replayed.extend_from_slice(batch);
        }
        assert_eq!(replayed.len(), data.graph.edge_count());
        for (event, edge) in replayed.iter().zip(data.graph.edges()) {
            assert_eq!(event.edge(), *edge);
            assert_eq!(event.src_label, data.graph.label(edge.src));
            assert_eq!(event.dst_label, data.graph.label(edge.dst));
        }
        assert_eq!(source.remaining(), 0);
        source.reset();
        assert_eq!(source.remaining(), source.len());
    }

    #[test]
    fn batch_size_one_delivers_single_events() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let mut source = StreamSource::from_test_data(&data, 1);
        let first = source.next_batch().unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(source.remaining(), source.len() - 1);
    }

    #[test]
    fn batches_iterator_is_independent_of_the_cursor() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let mut source = StreamSource::from_test_data(&data, 53);
        source.next_batch(); // advance the cursor; the iterator must not care
        let replayed: usize = source.batches().map(<[StreamEvent]>::len).sum();
        assert_eq!(replayed, source.len());
        // Two iterations deliver identical batches.
        let first: Vec<&[StreamEvent]> = source.batches().collect();
        let second: Vec<&[StreamEvent]> = source.batches().collect();
        assert_eq!(first, second);
        assert!(first.iter().all(|batch| batch.len() <= 53));
        assert_eq!(source.remaining(), source.len() - 53, "cursor untouched");
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_is_rejected() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let _ = StreamSource::from_test_data(&data, 0);
    }

    #[test]
    fn delivery_counter_ticks_per_delivered_event() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let registry = obs::MetricsRegistry::new();
        let mut source = StreamSource::from_test_data(&data, 61);
        source.set_delivery_counter(Some(registry.counter("source.events_delivered")));
        while source.next_batch().is_some() {}
        assert_eq!(
            registry.snapshot().counter("source.events_delivered"),
            Some(source.len() as u64)
        );
        // Detached again, replay leaves the counter untouched.
        source.set_delivery_counter(None);
        source.reset();
        while source.next_batch().is_some() {}
        assert_eq!(
            registry.snapshot().counter("source.events_delivered"),
            Some(source.len() as u64)
        );
    }

    #[test]
    fn reset_keeps_obs_counter_cumulative() {
        // `reset()` rewinds the cursor but deliberately does NOT rewind the attached
        // obs counter — `obs::Counter` is monotonic by contract, so replays keep
        // accumulating.
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let registry = obs::MetricsRegistry::new();
        let mut source = StreamSource::from_test_data(&data, 61);
        source.set_delivery_counter(Some(registry.counter("source.events_delivered")));
        let len = source.len() as u64;

        while source.next_batch().is_some() {}
        source.reset();
        assert_eq!(
            registry.snapshot().counter("source.events_delivered"),
            Some(len),
            "obs counter is not rewound by reset"
        );

        while source.next_batch().is_some() {}
        assert_eq!(
            registry.snapshot().counter("source.events_delivered"),
            Some(2 * len),
            "obs counter accumulates across replays"
        );
    }

    #[test]
    fn merged_tenant_stream_is_globally_ordered_and_preserves_tenant_order() {
        let mk = |ts: &[u64]| -> Vec<StreamEvent> {
            ts.iter()
                .enumerate()
                .map(|(i, &t)| StreamEvent {
                    ts: t,
                    src: 2 * i,
                    dst: 2 * i + 1,
                    src_label: tgraph::Label(1),
                    dst_label: tgraph::Label(2),
                })
                .collect()
        };
        let streams = vec![
            (TenantId(0), mk(&[1, 4, 4, 9])),
            (TenantId(1), mk(&[2, 4, 5])),
            (TenantId(2), mk(&[4])),
        ];
        let mut source = TenantedStreamSource::merged(streams.clone(), 3);
        assert_eq!(source.tenant_count(), 3);
        assert_eq!(source.len(), 8);
        let mut delivered = Vec::new();
        while let Some(batch) = source.next_batch() {
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
        assert_eq!(source.remaining(), 0);
        source.reset();
        assert_eq!(source.remaining(), source.len());
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
        // `batches()` is cursor-independent and deterministic.
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

        let tenanted: Vec<TenantedEvent> = events
            .iter()
            .enumerate()
            .map(|(i, &event)| TenantedEvent {
                tenant: TenantId((i % 3) as u64),
                event,
            })
            .collect();
        let source = TenantedStreamSource::from_tenanted_events(tenanted.clone(), 71);
        assert_eq!(source.tenant_count(), 3);
        let replayed: Vec<TenantedEvent> = source.batches().flatten().copied().collect();
        assert_eq!(replayed, tenanted);
    }

    #[test]
    fn from_traces_assigns_tenants_by_trace_index() {
        let config = DatasetConfig::tiny();
        let training = TrainingData::generate(&config);
        let labeled = LabeledStreamSource::from_training_data(&training);
        let traces: Vec<LabeledTrace> = labeled.traces().iter().take(4).cloned().collect();
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
    fn labeled_replay_covers_every_training_trace_in_order() {
        let config = DatasetConfig::tiny();
        let training = TrainingData::generate(&config);
        let mut source = LabeledStreamSource::from_training_data(&training);
        assert_eq!(
            source.len(),
            12 * config.graphs_per_behavior + config.background_graphs
        );
        assert_eq!(
            source.event_count(),
            training.all_graphs().map(|g| g.edge_count()).sum::<usize>()
        );
        // The first trace replays the first behavior's first graph exactly.
        let first = source.next_trace().expect("non-empty source").clone();
        assert_eq!(
            first.label,
            TraceLabel::Behavior(training.behaviors[0].behavior)
        );
        let graph = &training.behaviors[0].graphs[0];
        assert_eq!(first.events, events_of_graph(graph));
        assert_eq!(first.events.len(), graph.edge_count());
        // Background traces come last, and the cursor walks every trace once.
        assert_eq!(source.remaining(), source.len() - 1);
        let mut background = 0usize;
        while let Some(trace) = source.next_trace() {
            if trace.label == TraceLabel::Background {
                assert_eq!(trace.label.behavior(), None);
                assert_eq!(trace.label.name(), "background");
                background += 1;
            }
        }
        assert_eq!(background, config.background_graphs);
        assert_eq!(source.remaining(), 0);
        source.reset();
        assert_eq!(source.remaining(), source.len());
    }
}
