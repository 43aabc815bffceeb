//! The streaming detector: registered behavior queries matched as events arrive.
//!
//! ## Execution model
//!
//! Queries are registered with [`Detector::register`]; each arriving [`StreamEvent`]
//! then goes through five steps:
//!
//! 1. **Retire** what the event's timestamp has left behind — skipped with one compare
//!    while nothing in flight has reached its deadline. Pending `Ntemp` anchors whose
//!    window closed are resolved (their full window is buffered, so the order-free
//!    completion can run over it); expired temporal runs and keyword windows are
//!    dropped. In-flight work is queued per query in spawn order, which is deadline
//!    order, so retiring is popping queue fronts.
//! 2. **Append** the event to the [`IncrementalGraph`] (O(1) amortised), which also
//!    evicts edges that left the retention window (twice the largest registered
//!    *static* query window — enough for the `Ntemp` look-back *and* look-ahead;
//!    temporal and keyword runs carry their own state, so a detector without static
//!    queries stores no edges at all).
//! 3. **Advance** the live temporal partial-match runs the new edge can move: those of
//!    the queries with a pattern edge after the first carrying the event's label pair.
//!    Every other run is left alone (the edge is a no-op for it); completions become
//!    detections.
//! 4. **Advance** the live keyword (`NodeSet`) windows of the queries with either
//!    endpoint label among their members.
//! 5. **Spawn** new work for the event itself: queries are keyed on their first edge's
//!    `(source label, destination label)` pair (or, for keyword queries, on each member
//!    label), so only queries whose first edge can match the event are touched.
//!
//! Temporal and keyword queries are therefore matched fully incrementally; non-temporal
//! queries — whose matches may *precede* their anchor — are anchored incrementally and
//! resolved once their window closes (or at [`Detector::flush`]).
//!
//! Detections inside one event keep the order a single shared run list would give
//! them: by step, and within a step by spawn order across queries.
//!
//! The registered-query state (the query list, the label indexes that route an event
//! to the queries it can seed or advance, and the per-query queues of in-flight work)
//! lives in [`QueryTable`]; the sharded engine ([`crate::shard::ShardedDetector`]) partitions
//! queries by giving each shard its own table and its own `Detector`.
//!
//! ## Core, not engine
//!
//! A `Detector` matches and nothing else: it has no write-ahead recorder, no trace
//! sink and no failpoint. Those belong to the [`crate::Engine`] that owns it — a
//! one-shard [`crate::ShardedDetector`] is the single-stream engine — which logs each
//! input once, traces with global ids, and forwards the per-shard hooks kept here
//! (metric handles, profiler, cost attribution).

use crate::error::{BatchError, DeregisterError, RegisterError};
use crate::instrument::DetectorInstruments;
use crate::registry::{Live, PairRoutes, QueryTable, Slots};
use obs::{Profiler, QueryCost};
use query::matcher::{
    complete_static_anchored, seed_matches, static_window_bounds, window_deadline, NodeSetRun,
    RunStep, TemporalRun, TemporalSpawn,
};
use std::time::Instant;
use tgraph::{GraphError, IncrementalGraph, Label, StreamEvent, TemporalEdge};

/// Rough footprints behind the `memory_bytes` gauge, bytes: a temporal run
/// and each of its partial-match states (node map, timestamps, share of the run's
/// allocation overhead), an open keyword window with its two small vectors, and a
/// pending `Ntemp` anchor. Estimates for capacity planning, not an allocator audit.
const TEMPORAL_RUN_BYTES: usize = 56;
const RUN_STATE_BYTES: usize = 64;
const KEYWORD_WINDOW_BYTES: usize = 144;
const PENDING_ANCHOR_BYTES: usize = 40;

// The compiled-query types live in the `query` crate (the compiler side of the
// miner→compiler→registry dataflow); the detector executes exactly those. Re-exported
// here so streaming callers keep a single import surface.
pub use query::compile::{CompiledQuery, SeedKey};

/// Identifier of a registered query, assigned by [`Detector::register`].
pub type QueryId = usize;

/// An emitted detection: `query` identified an instance spanning `[start_ts, end_ts]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Detection {
    /// The registered query that matched.
    pub query: QueryId,
    /// Timestamp of the instance's first event.
    pub start_ts: u64,
    /// Timestamp of the instance's last event.
    pub end_ts: u64,
}

impl Detection {
    /// `query` identified the instance spanning `interval`.
    fn of(query: QueryId, (start_ts, end_ts): (u64, u64)) -> Self {
        Self {
            query,
            start_ts,
            end_ts,
        }
    }
}

/// A successful registration: the query's id plus its visibility contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// The id the detector will report this query's detections under.
    pub id: QueryId,
    /// The earliest timestamp whose events this query's matching can still
    /// **observe** — its look-back floor.
    ///
    /// This bounds which events can participate in a match; it is *not* a promise of
    /// retroactive detection. New work is only ever seeded by events arriving after
    /// registration, so an instance whose seed/anchor event already passed is never
    /// matched, whatever `visible_from` says. Register queries before streaming
    /// starts for complete coverage; this field reports what a mid-stream
    /// registration gave up.
    ///
    /// * `0` when the query is registered before any event arrived — nothing was
    ///   given up.
    /// * For a *temporal* or *keyword* query registered mid-stream: `last_ts + 1`.
    ///   These query types never read buffered history; every event of a match must
    ///   arrive after registration.
    /// * For a *static* (`Ntemp`) query registered mid-stream: the graph's earliest
    ///   fully-retained timestamp. A static match anchored at a *future* event may use
    ///   look-back edges up to `window - 1` units behind the anchor, reaching into
    ///   buffered history — but never past what an earlier (narrower) retention window
    ///   already evicted. Evicted history cannot be resurrected, so the first `window`
    ///   of look-back may be silently truncated; this field is exactly where the
    ///   truncation ends.
    pub visible_from: u64,
}

/// Per-query attribution state (see [`crate::ShardedDetector::enable_cost_attribution`]).
#[derive(Debug)]
struct CostTracker {
    /// Costs indexed by local [`QueryId`]. Ids are never reused, so a slot is
    /// stable for the detector's lifetime; the vec grows on first touch, and a
    /// registered-but-never-touched query simply has no slot yet (zero cost).
    per_query: Vec<QueryCost>,
    /// One event in this many gets clock-timed per-run measurements.
    interval: u64,
    /// Rolling event index driving the timing-sample decision.
    tick: u64,
}

impl CostTracker {
    /// Books one unit of work against `query` — on the counter `field` picks — plus,
    /// on a clock-timed event, the time since `clock`. A no-op when attribution is off.
    fn charge(
        costs: &mut Option<CostTracker>,
        query: QueryId,
        field: fn(&mut QueryCost) -> &mut u64,
        clock: Option<Instant>,
    ) {
        let Some(costs) = costs else { return };
        if query >= costs.per_query.len() {
            costs.per_query.resize(query + 1, QueryCost::default());
        }
        let slot = &mut costs.per_query[query];
        *field(slot) += 1;
        if let Some(start) = clock {
            slot.sampled_ns = slot
                .sampled_ns
                .saturating_add(start.elapsed().as_nanos() as u64);
            slot.sampled_ops += 1;
        }
    }
}

/// The single-threaded matching core. See the module docs for the execution model and
/// the crate docs for the offline-consistency guarantee.
#[derive(Debug)]
pub struct Detector {
    queries: QueryTable,
    graph: IncrementalGraph,
    dropped_branches: u64,
    /// Per-event scratch, kept so the steady state allocates nothing: anchors that
    /// fell due, one step's completions (both tagged with their spawn sequence number,
    /// to be put in spawn order), and the keyword queries the current event touches.
    due: Vec<(u64, QueryId, TemporalEdge)>,
    completed: Vec<(u64, Detection)>,
    touched: Vec<QueryId>,
    /// Attached metric handles, if any. Attaching them never changes detections —
    /// the uninstrumented hot path pays only `Option`-is-`None` branches.
    instruments: Option<DetectorInstruments>,
    /// Attached scoped-span profiler, if any (same inertness contract): spans are
    /// observation-only and their timing is sampled.
    profiler: Option<Profiler>,
    /// Per-query cost attribution, if enabled (same inertness contract).
    costs: Option<CostTracker>,
    /// Rolling event index for latency sampling (instrumented batches only).
    sample_tick: u64,
    /// Rolling event index for phase-span sampling (profiler attached only).
    profile_tick: u64,
}

impl Default for Detector {
    fn default() -> Self {
        Self::new()
    }
}

impl Detector {
    /// Sampling interval for per-event latency in instrumented batches: one event
    /// in this many is timed. Must be a power of two (used as a mask). Sized by the
    /// <5% contract: a sample costs ~70ns against ~100ns of work per event at 32
    /// queries — one in 16 measures 3–8% of a pass, one in 64 measures 0–4%.
    const LATENCY_SAMPLE: u64 = 64;

    /// An empty detector with no registered queries.
    pub fn new() -> Self {
        // The detector keys its own lookups on first-edge label pairs, so the
        // incremental graph's generic postings index would be maintained for nobody —
        // disable it on the hot path. Retention starts at 0 (nothing to match yet);
        // every registration re-derives it from the largest registered window.
        let mut graph = IncrementalGraph::with_retention(0);
        graph.disable_postings();
        Self::with_graph(graph)
    }

    /// A detector over a caller-configured (empty) incremental graph. This is how the
    /// sharded engine stamps out per-shard detectors from one graph template (see
    /// [`IncrementalGraph::fresh_like`]).
    pub(crate) fn with_graph(graph: IncrementalGraph) -> Self {
        Self {
            queries: QueryTable::new(),
            graph,
            dropped_branches: 0,
            due: Vec::new(),
            completed: Vec::new(),
            touched: Vec::new(),
            instruments: None,
            profiler: None,
            costs: None,
            sample_tick: 0,
            profile_tick: 0,
        }
    }

    /// Attaches (or with `None` detaches) metric handles. Instrumentation is inert:
    /// detections are identical with and without it.
    pub(crate) fn set_instruments(&mut self, instruments: Option<DetectorInstruments>) {
        self.instruments = instruments;
    }

    /// Attaches (or with `None` detaches) a scoped-span profiler. When attached,
    /// batches open a `detector.batch` span and one event in
    /// `LATENCY_SAMPLE` (64) additionally opens the four per-phase spans
    /// (`resolve_static` / `advance_temporal` / `advance_nodesets` / `spawn`);
    /// the profiler's own root sampling applies on top. Profiling is inert:
    /// detections are identical with and without it.
    pub(crate) fn set_profiler(&mut self, profiler: Option<Profiler>) {
        self.profiler = profiler;
    }

    /// Enables per-query cost attribution (the per-shard half of
    /// [`crate::ShardedDetector::enable_cost_attribution`], which documents what is
    /// counted). Calling again only changes the sampling interval.
    pub(crate) fn enable_cost_attribution(&mut self, sample_interval: u64) {
        let interval = sample_interval.max(1);
        match &mut self.costs {
            Some(costs) => costs.interval = interval,
            None => {
                self.costs = Some(CostTracker {
                    per_query: Vec::new(),
                    interval,
                    tick: 0,
                })
            }
        }
    }

    /// The raw measured costs `(per-local-id slice, sample interval)`, if
    /// attribution is enabled. The slice may be shorter than the id space: a
    /// query never touched has no slot yet (zero cost).
    pub(crate) fn cost_attribution(&self) -> Option<(&[QueryCost], u64)> {
        self.costs
            .as_ref()
            .map(|costs| (costs.per_query.as_slice(), costs.interval))
    }

    /// Restores a visibility floor recorded from a previous process (crash recovery):
    /// [`IncrementalGraph::visible_from`] reports at least `floor` afterwards, even if
    /// the replayed history never re-triggered the eviction that originally set it.
    pub(crate) fn restore_visible_floor(&mut self, floor: u64) {
        self.graph.restore_visible_floor(floor);
    }

    /// The buffered edge window and the label table, bytes.
    fn graph_bytes(&self) -> usize {
        self.graph.live_edge_count() * std::mem::size_of::<TemporalEdge>()
            + std::mem::size_of_val(self.graph.labels())
    }

    /// One pass over the run table: live temporal runs, open keyword windows, pending
    /// anchors, and the estimated bytes of all of them.
    fn occupancy(&self) -> [usize; 4] {
        let mut tally = [0; 4];
        let slots = self.queries.iter();
        for item in slots.flat_map(|(_, registered)| &registered.in_flight) {
            let (kind, bytes) = match &item.state {
                Live::Run(run) => (0, TEMPORAL_RUN_BYTES + run.state_count() * RUN_STATE_BYTES),
                Live::Window(_) => (1, KEYWORD_WINDOW_BYTES),
                Live::Anchor(_) => (2, PENDING_ANCHOR_BYTES),
            };
            tally[kind] += 1;
            tally[3] += bytes;
        }
        tally
    }

    /// Registers a query matched within `window` timestamp units.
    ///
    /// Rejects zero windows and trivially-empty queries with a typed error. On success
    /// the returned [`Registration`] carries the query's id and `visible_from` — the
    /// query's look-back floor. A query registered before streaming starts sees
    /// everything (`visible_from == 0`). A query registered mid-stream only seeds on
    /// events arriving from then on (instances whose seed/anchor already passed are
    /// not matched retroactively), and its look-back cannot reach into history the
    /// detector already evicted; `visible_from` reports exactly where that truncated
    /// look-back ends (see [`Registration::visible_from`] for the per-query-type
    /// contract).
    pub fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<Registration, RegisterError> {
        // Visibility is judged against the graph *before* this registration widens the
        // retention window: widening never resurrects evicted history.
        let visible_from = match self.graph.last_ts() {
            None => 0,
            Some(last) => match &query {
                CompiledQuery::Static(_) => self.graph.visible_from(),
                CompiledQuery::Temporal(_) | CompiledQuery::NodeSet(_) => last.saturating_add(1),
            },
        };
        let id = self.queries.register(query, window)?;
        // Only static (`Ntemp`) matches read the buffered window — temporal and keyword
        // runs carry their own state — so retention is twice the largest *static*
        // window: anchors need `window - 1` of look-back still buffered when their
        // `window - 1` of look-ahead closes. A detector without static queries retains
        // nothing (events still validate and announce labels, but edge storage stays
        // empty), which is what makes temporal-only shards cheap.
        self.graph
            .set_retention(Some(self.queries.max_static_window().saturating_mul(2)));
        Ok(Registration { id, visible_from })
    }

    /// Deregisters a query mid-stream: it stops receiving events immediately.
    ///
    /// All of the query's in-flight state is dropped — live temporal runs, open
    /// keyword windows, and pending `Ntemp` anchors whose window had not closed yet.
    /// Detections that would have completed from that state are *not* emitted: a
    /// deregistered query is silent from this call on, exactly as if its remaining
    /// partial matches had expired. Other queries are unaffected, and the graph's
    /// retention shrinks if the removed query was the widest static one (evicted
    /// history cannot be resurrected by a later re-registration).
    ///
    /// Ids are never reused; deregistering an unknown or already-removed id fails with
    /// a typed [`DeregisterError`].
    pub fn deregister(&mut self, id: QueryId) -> Result<(), DeregisterError> {
        // The query's in-flight work goes with its slot, without touching
        // `dropped_branches`: that counter means "capped, possibly missed detections",
        // while cancellation is deliberate.
        self.queries.remove(id)?;
        self.graph
            .set_retention(Some(self.queries.max_static_window().saturating_mul(2)));
        Ok(())
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// The registered-query table (queries, windows, seed indexes).
    pub fn queries(&self) -> &QueryTable {
        &self.queries
    }

    /// Processes one event; returns the detections it triggered.
    ///
    /// Errors (and leaves the detector unchanged) if the event's timestamp decreases
    /// (timestamps must be non-decreasing; equal timestamps are ordered by arrival)
    /// or it relabels a known node.
    pub fn on_event(&mut self, event: StreamEvent) -> Result<Vec<Detection>, GraphError> {
        // A one-event batch has no valid prefix, so the error carries no detections.
        self.on_batch(std::slice::from_ref(&event))
            .map_err(|err| err.error)
    }

    /// The actual five-step execution — shared by the instrumented and plain paths.
    fn process_event(&mut self, event: StreamEvent) -> Result<Vec<Detection>, GraphError> {
        // Reject a bad event *before* touching any state: resolving pending anchors
        // first and then failing would silently consume their detections.
        self.graph.validate(&event)?;
        // Cost attribution: counters are exact on every event; clock-timed per-run
        // measurements happen on one event in `interval`.
        let timed = match &mut self.costs {
            Some(costs) => {
                let tick = costs.tick;
                costs.tick = costs.tick.wrapping_add(1);
                tick % costs.interval == 0
            }
            None => false,
        };
        // Phase spans: one event in LATENCY_SAMPLE gets the per-phase span tree
        // (the profiler's own root sampling applies on top). Spans for every event
        // would cost a clock-read pair per phase — far over the overhead budget.
        let profiler = match &self.profiler {
            Some(profiler) => {
                let tick = self.profile_tick;
                self.profile_tick = self.profile_tick.wrapping_add(1);
                (tick & (Self::LATENCY_SAMPLE - 1) == 0).then(|| profiler.clone())
            }
            None => None,
        };
        let mut out = Vec::new();
        {
            let _span = profiler.as_ref().map(|p| p.enter("resolve_static"));
            if event.ts > self.queries.slots.next_deadline() {
                self.retire_due(Some(event.ts), &mut out, timed);
            }
        }
        self.graph
            .append(event)
            .expect("event was validated just above");
        // One probe of the label index per event; the steps below walk its posting
        // lists while they change the run table.
        let index = &self.queries.index;
        let routes = index.pair(event.src_label, event.dst_label);
        let mut step = EventStep {
            event,
            timed,
            slots: &mut self.queries.slots,
            labels: self.graph.labels(),
            costs: &mut self.costs,
            completed: &mut self.completed,
            dropped_branches: &mut self.dropped_branches,
            out: &mut out,
        };
        {
            let _span = profiler.as_ref().map(|p| p.enter("advance_temporal"));
            let offered = routes.map_or(&[][..], |routes| &routes.temporal_advance);
            step.advance(offered);
        }
        {
            let _span = profiler.as_ref().map(|p| p.enter("advance_nodesets"));
            index.members(event.src_label, event.dst_label, &mut self.touched);
            step.advance(&self.touched);
        }
        {
            let _span = profiler.as_ref().map(|p| p.enter("spawn"));
            step.spawn_for(routes, &self.touched);
        }
        self.attribute_detections(&out);
        Ok(out)
    }

    /// Credits each detection to its query (cost attribution only).
    fn attribute_detections(&mut self, detections: &[Detection]) {
        for detection in detections {
            CostTracker::charge(
                &mut self.costs,
                detection.query,
                |c| &mut c.detections,
                None,
            );
        }
    }

    /// Updates the occupancy and memory gauges: the buffered edge window, label table,
    /// live runs (weighted by their state count) and pending anchors. A
    /// capacity-planning estimate from documented constants, not an allocator
    /// measurement; its high-water mark is what the repo benchmark records.
    fn observe_state(&self, instruments: &DetectorInstruments) {
        let [runs, windows, anchors, in_flight_bytes] = self.occupancy();
        instruments.temporal_runs.set(runs as u64);
        instruments.nodeset_runs.set(windows as u64);
        instruments.pending_static.set(anchors as u64);
        instruments
            .retained_edges
            .set(self.graph.live_edge_count() as u64);
        instruments
            .memory_bytes
            .set((self.graph_bytes() + in_flight_bytes) as u64);
    }

    /// Processes a batch of events, concatenating their detections.
    ///
    /// If an event mid-batch is invalid, the events before it have already been fully
    /// processed; the returned [`BatchError`] carries their detections (they are real
    /// and must not be lost), the failing index, and the underlying error. The detector
    /// stays in the state produced by the valid prefix, so the caller may repair or
    /// skip the offending event and keep streaming.
    pub fn on_batch(&mut self, events: &[StreamEvent]) -> Result<Vec<Detection>, BatchError> {
        // The batch span is the profiler's root (and its sampling point): when it is
        // sampled out, the per-event phase spans inside are suppressed for free.
        let _batch_span = self.profiler.as_ref().map(|p| p.enter("detector.batch"));
        if self.instruments.is_none() {
            // The plain path: `Option`-is-`None` branches only (one for the batch,
            // plus the profiler/attribution nil-checks inside `process_event`), then
            // exactly the pre-instrumentation loop.
            let mut out = Vec::new();
            for (index, &event) in events.iter().enumerate() {
                match self.process_event(event) {
                    Ok(detections) => out.extend(detections),
                    Err(error) => {
                        return Err(BatchError {
                            emitted: out,
                            index,
                            error,
                        })
                    }
                }
            }
            return Ok(out);
        }
        self.instrumented_batch(events)
    }

    /// The instrumented batch loop. Per-event latency is *sampled* — one event in
    /// [`Self::LATENCY_SAMPLE`] gets a clock-read pair and a histogram record; the
    /// rest pay a counter increment and a mask test. A full per-event measurement
    /// costs ~70ns against ~100ns of real work; sampling keeps the whole instrumented
    /// path under the benchmark's 5% budget while the latency distribution stays
    /// statistically faithful. Event/detection *counts* stay
    /// exact (tallied per batch), and gauges update once per batch.
    fn instrumented_batch(&mut self, events: &[StreamEvent]) -> Result<Vec<Detection>, BatchError> {
        let mut out = Vec::new();
        let batch_start = Instant::now();
        let mut failure: Option<(usize, GraphError)> = None;
        let mut processed = 0u64;
        for (index, &event) in events.iter().enumerate() {
            let sampled_start =
                (self.sample_tick & (Self::LATENCY_SAMPLE - 1) == 0).then(Instant::now);
            self.sample_tick = self.sample_tick.wrapping_add(1);
            match self.process_event(event) {
                Ok(detections) => out.extend(detections),
                Err(error) => {
                    failure = Some((index, error));
                    break;
                }
            }
            processed += 1;
            if let Some(start) = sampled_start {
                if let Some(instruments) = &self.instruments {
                    instruments
                        .event_latency_ns
                        .record(start.elapsed().as_nanos() as u64);
                }
            }
        }
        if let Some(instruments) = &self.instruments {
            instruments.events_total.add(processed);
            instruments.detections_total.add(out.len() as u64);
            instruments.batches_total.inc();
            instruments
                .batch_latency_ns
                .record(batch_start.elapsed().as_nanos() as u64);
            if failure.is_some() {
                instruments.batch_errors_total.inc();
            }
            self.observe_state(instruments);
        }
        match failure {
            None => Ok(out),
            Some((index, error)) => Err(BatchError {
                emitted: out,
                index,
                error,
            }),
        }
    }

    /// Declares the stream finished: resolves every still-pending `Ntemp` anchor against
    /// the buffered window and drops all partial-match state. Temporal and keyword runs
    /// that never completed are discarded — exactly as an offline search reaching the
    /// end of the graph would abandon them.
    pub fn flush(&mut self) -> Vec<Detection> {
        let _span = self.profiler.as_ref().map(|p| p.enter("detector.flush"));
        let mut out = Vec::new();
        self.retire_due(None, &mut out, false);
        self.attribute_detections(&out);
        out
    }

    /// Live temporal partial-match runs (for observability and tests).
    pub fn active_temporal_runs(&self) -> usize {
        self.occupancy()[0]
    }

    /// Live keyword windows.
    pub fn active_nodeset_runs(&self) -> usize {
        self.occupancy()[1]
    }

    /// `Ntemp` anchors waiting for their window to close.
    pub fn pending_static_anchors(&self) -> usize {
        self.occupancy()[2]
    }

    /// The incremental graph backing the detector (live window, eviction counters).
    pub fn graph(&self) -> &IncrementalGraph {
        &self.graph
    }

    /// Total partial-match branches dropped by retired temporal runs that hit the
    /// per-run state cap ([`query::matcher::MAX_STATES_PER_RUN`]). Non-zero means some
    /// detections may have been missed on extremely dense seeds; it stays zero on the
    /// generated workloads.
    pub fn dropped_branches(&self) -> u64 {
        self.dropped_branches
    }

    /// Retires in-flight work. With `Some(now)`, what closed strictly before `now`:
    /// due static anchors are resolved (their buffered slice is complete), expired
    /// runs and keyword windows are dropped. With `None`, everything (stream end).
    fn retire_due(&mut self, now: Option<u64>, out: &mut Vec<Detection>, timed: bool) {
        self.queries
            .slots
            .retire(now, |query, item| match item.state {
                Live::Anchor(anchor) => self.due.push((item.seq, query, anchor)),
                unfinished => {
                    if let Live::Run(run) = &unfinished {
                        self.dropped_branches += run.dropped_branches();
                    }
                    CostTracker::charge(&mut self.costs, query, |c| &mut c.dropped, None);
                }
            });
        self.due.sort_unstable_by_key(|&(seq, ..)| seq);
        for &(_, query, anchor) in &self.due {
            let clock = timed.then(Instant::now);
            let registered = self.queries.get(query);
            let CompiledQuery::Static(pattern) = registered.query() else {
                unreachable!("pending static anchor for a non-static query");
            };
            let live = self.graph.live_edges();
            let (lo, hi) = static_window_bounds(live, anchor.ts, registered.window());
            let window = &live[lo..hi];
            let labels = self.graph.labels();
            out.extend(
                complete_static_anchored(pattern, labels, window, anchor, registered.window())
                    .map(|interval| Detection::of(query, interval)),
            );
            CostTracker::charge(&mut self.costs, query, |c| &mut c.advanced, clock);
        }
        self.due.clear();
    }
}

/// What an event's advance and spawn steps change, borrowed apart from the label
/// index so its posting lists can be walked meanwhile.
struct EventStep<'a> {
    event: StreamEvent,
    /// Whether this event's per-run work is clock-timed (cost attribution).
    timed: bool,
    slots: &'a mut Slots,
    labels: &'a [Label],
    costs: &'a mut Option<CostTracker>,
    completed: &'a mut Vec<(u64, Detection)>,
    dropped_branches: &'a mut u64,
    out: &'a mut Vec<Detection>,
}

impl EventStep<'_> {
    /// Offers the event to the in-flight work of the `offered` queries — the ones it
    /// can move — and to nothing else. Completions are emitted in spawn order across
    /// queries — the order one shared run list would have produced them in.
    fn advance(&mut self, offered: &[QueryId]) {
        let (event, timed) = (self.event, self.timed);
        let endpoints = [(event.src, event.src_label), (event.dst, event.dst_label)];
        for &query in offered {
            self.slots.offer(query, |compiled, item| {
                let clock = timed.then(Instant::now);
                let step = match (compiled, &mut item.state) {
                    (CompiledQuery::Temporal(pattern), Live::Run(run)) => {
                        run.advance(pattern, self.labels, event.edge())
                    }
                    (CompiledQuery::NodeSet(_), Live::Window(run)) => {
                        run.advance(event.ts, endpoints)
                    }
                    _ => unreachable!("an advance index names a query of another kind"),
                };
                CostTracker::charge(self.costs, query, |c| &mut c.advanced, clock);
                let RunStep::Complete(interval) = step else {
                    debug_assert_eq!(step, RunStep::Pending, "the expired are retired first");
                    return true;
                };
                if let Live::Run(run) = &item.state {
                    *self.dropped_branches += run.dropped_branches();
                }
                self.completed
                    .push((item.seq, Detection::of(query, interval)));
                false
            });
        }
        self.completed.sort_unstable_by_key(|&(seq, _)| seq);
        self.out
            .extend(self.completed.drain(..).map(|(_, detection)| detection));
    }

    /// Spawns new runs / anchors / keyword windows for the arriving event itself.
    fn spawn_for(&mut self, routes: Option<&PairRoutes>, touched: &[QueryId]) {
        let (event, timed, out) = (self.event, self.timed, &mut *self.out);
        let edge = event.edge();
        let endpoints = [(event.src, event.src_label), (event.dst, event.dst_label)];
        let slots = &mut *self.slots;

        // Temporal queries whose first edge's label pair matches.
        for &query in routes.map_or(&[][..], |routes| &routes.temporal_seeds) {
            let registered = slots.get(query);
            let CompiledQuery::Temporal(pattern) = registered.query() else {
                unreachable!("temporal seed index points at a non-temporal query");
            };
            if !seed_matches(pattern, self.labels, edge) {
                continue; // right labels, wrong loop structure
            }
            let clock = timed.then(Instant::now);
            match TemporalRun::spawn(pattern, edge, registered.window()) {
                TemporalSpawn::Complete(interval) => out.push(Detection::of(query, interval)),
                TemporalSpawn::Active(run) => slots.spawn(query, run.deadline(), Live::Run(run)),
            }
            CostTracker::charge(self.costs, query, |c| &mut c.spawned, clock);
        }

        // Static queries: remember the anchor, resolve when the window closes.
        // Anchoring itself is a push; the attributable work happens at resolution
        // (counted as an advance there), so only `spawned` ticks here.
        for &query in routes.map_or(&[][..], |routes| &routes.static_anchors) {
            let deadline = window_deadline(event.ts, slots.get(query).window());
            slots.spawn(query, deadline, Live::Anchor(edge));
            CostTracker::charge(self.costs, query, |c| &mut c.spawned, None);
        }

        // Keyword queries touched by either endpoint label.
        for &query in touched {
            let registered = slots.get(query);
            let clock = timed.then(Instant::now);
            let mut run = NodeSetRun::spawn(&registered.multiset, event.ts, registered.window());
            // The anchor edge's own endpoints count toward the match.
            match run.advance(event.ts, endpoints) {
                RunStep::Pending => slots.spawn(query, run.deadline(), Live::Window(run)),
                RunStep::Expired => {}
                RunStep::Complete(interval) => out.push(Detection::of(query, interval)),
            }
            CostTracker::charge(self.costs, query, |c| &mut c.spawned, clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::{search_nodeset, search_static, search_temporal};
    use tgminer::baselines::gspan::StaticPattern;
    use tgminer::baselines::nodeset::NodeSetQuery;
    use tgraph::pattern::TemporalPattern;
    use tgraph::{GraphBuilder, Label, TemporalGraph};

    fn l(i: u32) -> Label {
        Label(i)
    }

    fn ev(ts: u64, src: usize, dst: usize, sl: u32, dl: u32) -> StreamEvent {
        StreamEvent {
            ts,
            src,
            dst,
            src_label: l(sl),
            dst_label: l(dl),
        }
    }

    /// Registers a query, asserting validity (the common case in tests).
    fn must_register(detector: &mut Detector, query: CompiledQuery, window: u64) -> QueryId {
        detector.register(query, window).expect("valid query").id
    }

    /// Replays a graph's edges through the detector, returning all detections.
    fn replay(detector: &mut Detector, graph: &TemporalGraph) -> Vec<Detection> {
        let mut out = Vec::new();
        for edge in graph.edges() {
            let event = StreamEvent {
                ts: edge.ts,
                src: edge.src,
                dst: edge.dst,
                src_label: graph.label(edge.src),
                dst_label: graph.label(edge.dst),
            };
            out.extend(detector.on_event(event).expect("valid replayed stream"));
        }
        out.extend(detector.flush());
        out
    }

    fn abc_pattern() -> TemporalPattern {
        TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap()
    }

    /// The search.rs test graph: a forward chain, noise, a reversed occurrence, and a
    /// second forward chain.
    fn test_graph() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(l(0));
        let b1 = b.add_node(l(1));
        let c1 = b.add_node(l(2));
        let noise = b.add_node(l(9));
        let a2 = b.add_node(l(0));
        let b2 = b.add_node(l(1));
        let c2 = b.add_node(l(2));
        let a3 = b.add_node(l(0));
        let b3 = b.add_node(l(1));
        let c3 = b.add_node(l(2));
        b.add_edge(a1, b1, 1).unwrap();
        b.add_edge(b1, c1, 2).unwrap();
        b.add_edge(noise, noise, 5).unwrap();
        b.add_edge(b2, c2, 10).unwrap();
        b.add_edge(a2, b2, 11).unwrap();
        b.add_edge(a3, b3, 20).unwrap();
        b.add_edge(b3, c3, 21).unwrap();
        b.build()
    }

    #[test]
    fn temporal_detections_match_offline_search() {
        let g = test_graph();
        let mut detector = Detector::new();
        let q = must_register(&mut detector, CompiledQuery::Temporal(abc_pattern()), 5);
        let mut streamed: Vec<(u64, u64)> = replay(&mut detector, &g)
            .into_iter()
            .map(|d| (d.start_ts, d.end_ts))
            .collect();
        streamed.sort_unstable();
        let mut offline = search_temporal(&g, &abc_pattern(), 5);
        offline.sort_unstable();
        assert_eq!(streamed, offline);
        assert_eq!(q, 0);
    }

    #[test]
    fn static_detections_match_offline_search_including_lookback() {
        let g = test_graph();
        let pattern = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (1, 2)],
        };
        let mut detector = Detector::new();
        must_register(&mut detector, CompiledQuery::Static(pattern.clone()), 5);
        let mut streamed: Vec<(u64, u64)> = replay(&mut detector, &g)
            .into_iter()
            .map(|d| (d.start_ts, d.end_ts))
            .collect();
        streamed.sort_unstable();
        let mut offline = search_static(&g, &pattern, 5);
        offline.sort_unstable();
        assert_eq!(streamed, offline);
        // The reversed occurrence (B->C before A->B) is only reachable through
        // look-back, so this asserts the buffered-window resolution really works.
        assert!(streamed.contains(&(10, 11)));
    }

    #[test]
    fn nodeset_detections_match_offline_search() {
        let g = test_graph();
        let set = NodeSetQuery {
            labels: vec![l(0), l(1), l(2)],
        };
        let mut detector = Detector::new();
        must_register(&mut detector, CompiledQuery::NodeSet(set.clone()), 5);
        let mut streamed: Vec<(u64, u64)> = replay(&mut detector, &g)
            .into_iter()
            .map(|d| (d.start_ts, d.end_ts))
            .collect();
        streamed.sort_unstable();
        let mut offline = search_nodeset(&g, &set, 5);
        offline.sort_unstable();
        assert_eq!(streamed, offline);
    }

    #[test]
    fn detections_carry_their_query_id() {
        let g = test_graph();
        let mut detector = Detector::new();
        let qa = must_register(&mut detector, CompiledQuery::Temporal(abc_pattern()), 5);
        let qb = must_register(
            &mut detector,
            CompiledQuery::Temporal(TemporalPattern::single_self_loop(l(9))),
            5,
        );
        let detections = replay(&mut detector, &g);
        assert!(detections.iter().any(|d| d.query == qa));
        assert!(detections.iter().any(|d| d.query == qb && d.start_ts == 5));
    }

    #[test]
    fn zero_window_and_empty_queries_are_rejected_with_typed_errors() {
        let mut detector = Detector::new();
        // `window_deadline(ts, 0)` saturates to `deadline == ts` — a single-instant
        // window. Registration refuses to let "no window" degenerate into that.
        assert_eq!(
            detector.register(CompiledQuery::Temporal(abc_pattern()), 0),
            Err(RegisterError::ZeroWindow)
        );
        assert_eq!(
            detector.register(CompiledQuery::NodeSet(NodeSetQuery { labels: vec![] }), 5),
            Err(RegisterError::EmptyQuery)
        );
        assert_eq!(
            detector.register(
                CompiledQuery::Static(StaticPattern {
                    labels: vec![],
                    edges: vec![],
                }),
                5,
            ),
            Err(RegisterError::EmptyQuery)
        );
        assert_eq!(detector.query_count(), 0, "rejected queries consume no id");
        // A window of 1 (single-instant, but explicit) is accepted.
        let reg = detector
            .register(CompiledQuery::Temporal(abc_pattern()), 1)
            .unwrap();
        assert_eq!(reg.id, 0);
        assert_eq!(reg.visible_from, 0, "registered before any event");
    }

    #[test]
    fn mid_stream_registration_reports_truncated_visibility() {
        let mut detector = Detector::new();
        must_register(
            &mut detector,
            CompiledQuery::Static(StaticPattern {
                labels: vec![l(0), l(1)],
                edges: vec![(0, 1)],
            }),
            10,
        );
        // Retention is 2 * 10 = 20; after ts 100 edges with ts <= 80 are evicted.
        for ts in 1..=100u64 {
            detector.on_event(ev(ts, 0, 1, 0, 1)).unwrap();
        }
        assert_eq!(detector.graph().visible_from(), 81);
        // A static query registered now can look back only into retained history.
        let static_reg = detector
            .register(
                CompiledQuery::Static(StaticPattern {
                    labels: vec![l(0), l(1)],
                    edges: vec![(0, 1)],
                }),
                50,
            )
            .unwrap();
        assert_eq!(
            static_reg.visible_from, 81,
            "look-back is truncated at the eviction boundary"
        );
        // Temporal and keyword queries seed only on future events.
        let temporal_reg = detector
            .register(CompiledQuery::Temporal(abc_pattern()), 50)
            .unwrap();
        assert_eq!(temporal_reg.visible_from, 101);
        let nodeset_reg = detector
            .register(
                CompiledQuery::NodeSet(NodeSetQuery {
                    labels: vec![l(0), l(1)],
                }),
                50,
            )
            .unwrap();
        assert_eq!(nodeset_reg.visible_from, 101);
    }

    #[test]
    fn partial_matches_expire_after_the_window() {
        let mut detector = Detector::new();
        must_register(&mut detector, CompiledQuery::Temporal(abc_pattern()), 3);
        // Seed A->B at ts 10; the run may live through ts 12 at most.
        detector.on_event(ev(10, 0, 1, 0, 1)).unwrap();
        assert_eq!(detector.active_temporal_runs(), 1);
        detector.on_event(ev(12, 5, 6, 7, 7)).unwrap();
        assert_eq!(
            detector.active_temporal_runs(),
            1,
            "still inside the window"
        );
        detector.on_event(ev(13, 5, 6, 7, 7)).unwrap();
        assert_eq!(
            detector.active_temporal_runs(),
            0,
            "expired once the window closed"
        );
        // A keyword window expires the same way.
        must_register(
            &mut detector,
            CompiledQuery::NodeSet(NodeSetQuery {
                labels: vec![l(7), l(8)],
            }),
            3,
        );
        detector.on_event(ev(14, 5, 6, 7, 7)).unwrap();
        assert_eq!(detector.active_nodeset_runs(), 1);
        detector.on_event(ev(20, 5, 6, 7, 7)).unwrap();
        // The old window expired; the new event spawned a fresh one.
        assert_eq!(detector.active_nodeset_runs(), 1);
    }

    #[test]
    fn window_eviction_is_bounded_by_twice_the_largest_static_window() {
        let mut detector = Detector::new();
        must_register(
            &mut detector,
            CompiledQuery::Static(StaticPattern {
                labels: vec![l(5), l(6)],
                edges: vec![(0, 1)],
            }),
            10,
        );
        // A temporal query with a much larger window must NOT widen the retention:
        // temporal runs never read the buffered window.
        must_register(&mut detector, CompiledQuery::Temporal(abc_pattern()), 500);
        for ts in 1..=200u64 {
            detector.on_event(ev(ts, 0, 1, 0, 1)).unwrap();
        }
        // Retention is 2 * 10 (the static window): live edges are ts in (180, 200].
        assert_eq!(detector.graph().retention(), Some(20));
        assert_eq!(detector.graph().live_edge_count(), 20);
        assert_eq!(detector.graph().evicted_count(), 180);
    }

    #[test]
    fn temporal_only_detectors_store_no_edges() {
        let mut detector = Detector::new();
        must_register(&mut detector, CompiledQuery::Temporal(abc_pattern()), 10);
        for ts in 1..=200u64 {
            detector.on_event(ev(ts, 0, 1, 0, 1)).unwrap();
        }
        assert_eq!(detector.graph().retention(), Some(0));
        assert_eq!(
            detector.graph().live_edge_count(),
            0,
            "no static query ever reads the window, so nothing is retained"
        );
        // Matching is unaffected: labels and runs live outside the edge store.
        assert!(detector.graph().is_known_node(0));
        assert!(detector.active_temporal_runs() <= 10);
    }

    #[test]
    fn pending_static_anchors_resolve_at_window_close_and_flush() {
        let pattern = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (1, 2)],
        };
        let mut detector = Detector::new();
        let q = must_register(&mut detector, CompiledQuery::Static(pattern), 5);
        // B->C first, then the anchor A->B: only look-back can complete this.
        detector.on_event(ev(10, 1, 2, 1, 2)).unwrap();
        let out = detector.on_event(ev(11, 0, 1, 0, 1)).unwrap();
        assert!(out.is_empty(), "anchor must wait for its window to close");
        assert_eq!(detector.pending_static_anchors(), 1);
        // An event past the deadline (11 + 4) closes the window and resolves the anchor.
        let out = detector.on_event(ev(16, 5, 5, 9, 9)).unwrap();
        assert_eq!(
            out,
            vec![Detection {
                query: q,
                start_ts: 10,
                end_ts: 11
            }]
        );
        assert_eq!(detector.pending_static_anchors(), 0);
        // A trailing anchor resolves at flush instead.
        detector.on_event(ev(20, 1, 2, 1, 2)).unwrap();
        detector.on_event(ev(21, 0, 1, 0, 1)).unwrap();
        let out = detector.flush();
        assert_eq!(
            out,
            vec![Detection {
                query: q,
                start_ts: 20,
                end_ts: 21
            }]
        );
    }

    #[test]
    fn invalid_events_do_not_consume_pending_anchors() {
        // Regression: a due static anchor must survive a rejected event; resolving it
        // first and then failing the append would silently lose its detection.
        let pattern = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (1, 2)],
        };
        let mut detector = Detector::new();
        let q = must_register(&mut detector, CompiledQuery::Static(pattern), 5);
        detector.on_event(ev(10, 1, 2, 1, 2)).unwrap();
        detector.on_event(ev(11, 0, 1, 0, 1)).unwrap();
        assert_eq!(detector.pending_static_anchors(), 1);
        // This event is past the anchor's deadline but relabels node 0 — rejected.
        assert!(detector.on_event(ev(30, 0, 1, 9, 1)).is_err());
        assert_eq!(
            detector.pending_static_anchors(),
            1,
            "anchor must survive the bad event"
        );
        // A valid event then resolves it normally.
        let out = detector.on_event(ev(30, 5, 5, 7, 7)).unwrap();
        assert_eq!(
            out,
            vec![Detection {
                query: q,
                start_ts: 10,
                end_ts: 11
            }]
        );
    }

    #[test]
    fn deregistration_drops_in_flight_detections_of_that_query_only() {
        // One temporal run, one keyword window, and one pending static anchor are all
        // in flight for the victim when it is deregistered; none may fire afterwards.
        let mut detector = Detector::new();
        let victim_t = must_register(&mut detector, CompiledQuery::Temporal(abc_pattern()), 10);
        let victim_s = must_register(
            &mut detector,
            CompiledQuery::Static(StaticPattern {
                labels: vec![l(0), l(1), l(2)],
                edges: vec![(0, 1), (1, 2)],
            }),
            10,
        );
        let victim_n = must_register(
            &mut detector,
            CompiledQuery::NodeSet(NodeSetQuery {
                labels: vec![l(0), l(1), l(2)],
            }),
            10,
        );
        let survivor = must_register(&mut detector, CompiledQuery::Temporal(abc_pattern()), 10);
        // A->B seeds the temporal runs, anchors the static query, opens the windows.
        let out = detector.on_event(ev(1, 0, 1, 0, 1)).unwrap();
        assert!(out.is_empty());
        assert_eq!(detector.active_temporal_runs(), 2);
        assert_eq!(detector.pending_static_anchors(), 1);
        assert_eq!(detector.active_nodeset_runs(), 1);
        detector.deregister(victim_t).unwrap();
        detector.deregister(victim_s).unwrap();
        detector.deregister(victim_n).unwrap();
        assert_eq!(detector.active_temporal_runs(), 1, "victim run dropped");
        assert_eq!(
            detector.pending_static_anchors(),
            0,
            "victim anchor dropped"
        );
        assert_eq!(detector.active_nodeset_runs(), 0, "victim window dropped");
        assert_eq!(detector.query_count(), 1);
        // B->C would have completed every victim; only the survivor fires.
        let mut detections = detector.on_event(ev(2, 1, 2, 1, 2)).unwrap();
        detections.extend(detector.flush());
        assert_eq!(
            detections,
            vec![Detection {
                query: survivor,
                start_ts: 1,
                end_ts: 2
            }]
        );
        // The victim ids are dead for good.
        assert!(matches!(
            detector.deregister(victim_t),
            Err(DeregisterError::UnknownQuery { .. })
        ));
    }

    #[test]
    fn deregistering_one_query_leaves_the_others_parity_equal() {
        // Survivor detections with a deregistered co-tenant must equal a run where the
        // co-tenant never existed.
        let g = test_graph();
        let mut with_cycle = Detector::new();
        let survivor_a = must_register(&mut with_cycle, CompiledQuery::Temporal(abc_pattern()), 5);
        let victim = must_register(
            &mut with_cycle,
            CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
            5,
        );
        with_cycle.deregister(victim).unwrap();
        let cycled: Vec<(u64, u64)> = replay(&mut with_cycle, &g)
            .into_iter()
            .inspect(|d| assert_eq!(d.query, survivor_a, "victim must stay silent"))
            .map(|d| (d.start_ts, d.end_ts))
            .collect();

        let mut never = Detector::new();
        must_register(&mut never, CompiledQuery::Temporal(abc_pattern()), 5);
        let baseline: Vec<(u64, u64)> = replay(&mut never, &g)
            .into_iter()
            .map(|d| (d.start_ts, d.end_ts))
            .collect();
        assert_eq!(cycled, baseline);
    }

    #[test]
    fn re_registration_behaves_like_a_fresh_mid_stream_registration() {
        // register → deregister → re-register: the re-registered query gets a new id
        // and exactly the detections a fresh registration at that point would get.
        let pattern = TemporalPattern::single_edge(l(0), l(1));
        let mut cycled = Detector::new();
        let first = must_register(&mut cycled, CompiledQuery::Temporal(pattern.clone()), 5);
        cycled.on_event(ev(1, 0, 1, 0, 1)).unwrap();
        cycled.deregister(first).unwrap();

        let mut fresh = Detector::new();
        fresh.on_event(ev(1, 0, 1, 0, 1)).unwrap();

        // Both register the query mid-stream, at the same point.
        let re_reg = cycled
            .register(CompiledQuery::Temporal(pattern.clone()), 5)
            .unwrap();
        let fresh_reg = fresh.register(CompiledQuery::Temporal(pattern), 5).unwrap();
        assert_ne!(re_reg.id, first, "ids are never reused");
        assert_eq!(re_reg.visible_from, fresh_reg.visible_from);
        // The suffix completes the single-edge pattern twice; both detectors must
        // attribute identical intervals to their (respective) registration.
        let suffix = [ev(5, 0, 1, 0, 1), ev(6, 0, 1, 0, 1)];
        let run = |detector: &mut Detector, id: QueryId| -> Vec<(u64, u64)> {
            let mut out = detector.on_batch(&suffix).unwrap();
            out.extend(detector.flush());
            out.iter()
                .inspect(|d| assert_eq!(d.query, id))
                .map(|d| (d.start_ts, d.end_ts))
                .collect()
        };
        let cycled_intervals = run(&mut cycled, re_reg.id);
        let fresh_intervals = run(&mut fresh, fresh_reg.id);
        assert_eq!(cycled_intervals, vec![(5, 5), (6, 6)]);
        assert_eq!(cycled_intervals, fresh_intervals);
        assert_eq!(cycled.query_count(), 1);
    }

    #[test]
    fn invalid_events_are_rejected() {
        let mut detector = Detector::new();
        must_register(&mut detector, CompiledQuery::Temporal(abc_pattern()), 5);
        detector.on_event(ev(10, 0, 1, 0, 1)).unwrap();
        // Equal timestamps are legal (non-decreasing order, arrival tie-break) …
        detector.on_event(ev(10, 1, 2, 1, 2)).unwrap();
        // … but going backwards is not.
        assert!(matches!(
            detector.on_event(ev(9, 2, 3, 2, 0)),
            Err(GraphError::NonMonotonicTimestamp { .. })
        ));
        assert!(matches!(
            detector.on_event(ev(11, 0, 1, 3, 1)),
            Err(GraphError::LabelConflict { .. })
        ));
    }

    #[test]
    fn mid_batch_failure_carries_detections_from_the_valid_prefix() {
        // Regression: `on_batch` used to return a bare `Err(GraphError)` on a mid-batch
        // invalid event, throwing away detections that valid earlier events in the SAME
        // batch had already produced.
        let mut detector = Detector::new();
        let q = must_register(
            &mut detector,
            CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
            5,
        );
        let batch = [
            ev(1, 0, 1, 0, 1),  // valid: completes the single-edge pattern
            ev(3, 0, 1, 0, 1),  // valid: completes it again
            ev(2, 0, 1, 0, 1),  // invalid: timestamp goes backwards
            ev(10, 0, 1, 0, 1), // never reached
        ];
        let err = detector.on_batch(&batch).unwrap_err();
        assert_eq!(err.index, 2);
        assert!(matches!(
            err.error,
            GraphError::NonMonotonicTimestamp {
                previous: 3,
                current: 2
            }
        ));
        assert_eq!(
            err.emitted,
            vec![
                Detection {
                    query: q,
                    start_ts: 1,
                    end_ts: 1
                },
                Detection {
                    query: q,
                    start_ts: 3,
                    end_ts: 3
                },
            ],
            "detections from the valid prefix must be carried, not lost"
        );
        // The detector is still usable: the valid prefix was applied, the rest was not.
        let out = detector.on_event(ev(10, 0, 1, 0, 1)).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cost_attribution_counts_exact_work_per_query() {
        let g = test_graph();
        let mut detector = Detector::new();
        let q_abc = must_register(&mut detector, CompiledQuery::Temporal(abc_pattern()), 5);
        let q_loop = must_register(
            &mut detector,
            CompiledQuery::Temporal(TemporalPattern::single_self_loop(l(9))),
            5,
        );
        detector.enable_cost_attribution(1); // time every event
        let detections = replay(&mut detector, &g);
        let (costs, sample_interval) = detector.cost_attribution().expect("attribution enabled");
        assert_eq!(sample_interval, 1);
        assert_eq!(costs.len(), 2, "both queries did work, so both have a slot");

        let abc = costs[q_abc];
        // Three A->B seed edges spawn runs. Only a B->C edge can move one, and a run is
        // offered only those: the ts-2 and ts-21 edges each advance (and complete) the
        // run seeded just before. The ts-5 noise loop is routed past the abc query, the
        // ts-10 B->C edge finds no live run, and the ts-20 A->B edge expires the ts-11
        // run without advancing it — none of the three counts.
        assert_eq!(abc.spawned, 3);
        assert_eq!(abc.advanced, 2, "{abc:?}");
        assert_eq!(abc.detections, 2);
        assert_eq!(
            abc.detections,
            detections.iter().filter(|d| d.query == q_abc).count() as u64
        );
        // The ts-11 chain is reversed (B->C before A->B), so that run never completes.
        assert_eq!(abc.dropped, 1);
        assert!(abc.sampled_ns > 0, "interval 1 times every operation");
        assert_eq!(abc.sampled_ops, 5, "every spawn and every advance is timed");

        let lp = costs[q_loop];
        assert_eq!(lp.spawned, 1, "one noise self-loop seeds it");
        assert_eq!(lp.detections, 1, "single-edge pattern completes at spawn");
        assert_eq!((lp.advanced, lp.dropped), (0, 0));
        assert_eq!((lp.cost_units(), abc.cost_units()), (1, 5));
    }

    #[test]
    fn cost_attribution_and_profiling_are_inert() {
        let g = test_graph();
        let mut plain = Detector::new();
        must_register(&mut plain, CompiledQuery::Temporal(abc_pattern()), 5);
        must_register(
            &mut plain,
            CompiledQuery::NodeSet(NodeSetQuery {
                labels: vec![l(0), l(1), l(2)],
            }),
            5,
        );
        let baseline = replay(&mut plain, &g);

        let mut observed = Detector::new();
        must_register(&mut observed, CompiledQuery::Temporal(abc_pattern()), 5);
        must_register(
            &mut observed,
            CompiledQuery::NodeSet(NodeSetQuery {
                labels: vec![l(0), l(1), l(2)],
            }),
            5,
        );
        observed.enable_cost_attribution(2);
        let profiler = Profiler::new();
        observed.set_profiler(Some(profiler.clone()));
        let detections = replay(&mut observed, &g);
        assert_eq!(
            detections, baseline,
            "attribution + profiling change nothing"
        );
        assert!(
            !profiler.snapshot().is_empty(),
            "phase spans were recorded along the way"
        );
    }

    #[test]
    fn batches_are_equivalent_to_single_events() {
        let g = test_graph();
        let mut one = Detector::new();
        must_register(&mut one, CompiledQuery::Temporal(abc_pattern()), 5);
        let singles = replay(&mut one, &g);

        let mut batched = Detector::new();
        must_register(&mut batched, CompiledQuery::Temporal(abc_pattern()), 5);
        let events: Vec<StreamEvent> = g
            .edges()
            .iter()
            .map(|e| StreamEvent {
                ts: e.ts,
                src: e.src,
                dst: e.dst,
                src_label: g.label(e.src),
                dst_label: g.label(e.dst),
            })
            .collect();
        let mut out = Vec::new();
        for chunk in events.chunks(3) {
            out.extend(batched.on_batch(chunk).unwrap());
        }
        out.extend(batched.flush());
        assert_eq!(singles, out);
    }
}
