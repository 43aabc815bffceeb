//! The sharded streaming detector: registered queries partitioned across shards.
//!
//! ## Shards are partitions, not threads
//!
//! The engine is single-threaded: [`ShardedDetector`] splits the *query set* (not the
//! stream) across N shards and runs them one after another on the caller's thread.
//! Scale-out is one process, with its own write-ahead log, per tenant set — share
//! nothing, coordinate nothing. Within the process:
//!
//! * each shard owns a full [`Detector`] — its own query table, partial-match runs,
//!   pending anchors, and its own [`tgraph::IncrementalGraph`] whose retention is sized
//!   to *that shard's* largest static-query window (a shard with no static queries
//!   stores no edges at all);
//! * the engine assigns every query its id and the owning shard registers it under
//!   that id, so detections leave a shard already carrying the caller's ids;
//! * every event batch goes to every shard in turn, and the per-shard detections merge
//!   into global timestamp order — ascending `(end_ts, start_ts, query)`, i.e. the
//!   order instances complete in the stream.
//!
//! ## Load-balanced assignment
//!
//! Queries are assigned to shards greedily by estimated cost, not round-robin. The cost
//! model is **first-edge label-pair posting frequency** ([`LabelPairStats`], typically
//! counted over historical telemetry): a query seeds a new run every time its first
//! edge's label pair occurs, so a query keyed on a hot pair is proportionally more
//! expensive. Each registration lands on the shard with the lowest
//! accumulated cost — several queries keyed on one hot pair therefore spread across
//! shards instead of piling onto one. Without stats every
//! query costs 1 and the assignment degrades to balance-by-count.
//!
//! ## Consistency
//!
//! Every shard appends every event to its own graph, so all shards agree on stream
//! validity: a mid-batch invalid event fails on every shard at the same index with the
//! same error, and [`ShardedDetector::on_batch`] merges the per-shard partial
//! detections into one [`BatchError`] — nothing emitted by the valid prefix is lost.
//! Detections are invariant under the shard count (checked property-style in
//! `tests/stream_parity.rs`): N shards, 1 shard, and the offline search all identify
//! the same intervals.

use crate::detector::{CompiledQuery, Detection, Detector, QueryId, Registration, SeedKey};
use crate::durability::DurabilitySink;
use crate::engine::Engine;
use crate::error::{BatchError, DeregisterError, RegisterError};
use crate::instrument::DetectorInstruments;
use crate::registry::LabelMap;
use faults::FaultPlan;
use obs::{MetricsRegistry, Profiler, QueryCost, QueryCostReport, ShardStat};
use std::collections::HashMap;
use tgraph::{GraphError, Label, StreamEvent, TemporalGraph, TenantId};

/// Label-pair posting frequencies: the cost model behind query→shard assignment.
///
/// Build one from historical telemetry ([`LabelPairStats::from_graph`] /
/// [`LabelPairStats::from_graphs`]) or accumulate one online with
/// [`LabelPairStats::record`]. Pairs never observed cost 1, so an empty stats object
/// degrades gracefully to balance-by-count.
#[derive(Debug, Clone, Default)]
pub struct LabelPairStats {
    pairs: HashMap<(Label, Label), u64>,
    /// Marginal per-label frequency (a label's total appearances as either endpoint);
    /// used to cost keyword queries, which seed on every event touching any member
    /// label.
    per_label: HashMap<Label, u64>,
}

impl LabelPairStats {
    /// No observations: every query costs 1 (balance-by-count).
    pub fn new() -> Self {
        Self::default()
    }

    /// Frequencies from a materialised graph, edge by edge.
    pub fn from_graph(graph: &TemporalGraph) -> Self {
        Self::from_graphs([graph])
    }

    /// Frequencies over a set of graphs — a training set's, say — edge by edge, counted
    /// in dense tables (labels by id, pairs by packed ids) and moved into maps at the end.
    pub fn from_graphs<'a>(graphs: impl IntoIterator<Item = &'a TemporalGraph>) -> Self {
        let (mut labels, mut pairs) = (Vec::new(), LabelMap::<u64, u64>::default());
        for graph in graphs {
            for edge in graph.edges() {
                let (src, dst) = (graph.label(edge.src), graph.label(edge.dst));
                let key = u64::from(src.id()) << 32 | u64::from(dst.id());
                *pairs.entry(key).or_default() += 1;
                labels.resize(labels.len().max(src.max(dst).index() + 1), 0);
                labels[src.index()] += 1;
                labels[dst.index()] += u64::from(src != dst);
            }
        }
        let pair = |key: u64| (Label((key >> 32) as u32), Label(key as u32));
        let pairs = pairs.into_iter().map(|(key, n)| (pair(key), n)).collect();
        let per_label = (0..).map(Label).zip(labels).filter(|l| l.1 > 0).collect();
        Self { pairs, per_label }
    }

    /// Records one observed edge with these endpoint labels.
    pub fn record(&mut self, src: Label, dst: Label) {
        self.add(src, dst, 1);
    }

    fn add(&mut self, src: Label, dst: Label, count: u64) {
        *self.pairs.entry((src, dst)).or_default() += count;
        *self.per_label.entry(src).or_default() += count;
        if src != dst {
            *self.per_label.entry(dst).or_default() += count;
        }
    }

    /// The observed pair frequencies, sorted by pair — the serializable form of the
    /// cost model. [`LabelPairStats::from_pair_counts`] rebuilds an identical stats
    /// object from it (the per-label marginals are re-derived), which is what makes
    /// query→shard placement reproducible across a crash.
    pub fn pair_counts(&self) -> Vec<((Label, Label), u64)> {
        let mut pairs: Vec<_> = self.pairs.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable();
        pairs
    }

    /// Rebuilds a stats object from serialized pair frequencies; the inverse of
    /// [`LabelPairStats::pair_counts`].
    pub fn from_pair_counts(pairs: impl IntoIterator<Item = ((Label, Label), u64)>) -> Self {
        let mut stats = Self::default();
        for ((src, dst), count) in pairs {
            stats.add(src, dst, count);
        }
        stats
    }

    /// Observed frequency of a label pair, floored at 1 (unseen pairs still cost
    /// something — the query bookkeeping is never free).
    fn pair_weight(&self, src: Label, dst: Label) -> u64 {
        self.pairs.get(&(src, dst)).copied().unwrap_or(0).max(1)
    }

    /// Observed frequency of a label appearing as either endpoint, floored at 1.
    fn label_weight(&self, label: Label) -> u64 {
        self.per_label.get(&label).copied().unwrap_or(0).max(1)
    }

    /// Estimated per-event cost of a query: how often its seed condition
    /// ([`CompiledQuery::seed_key`] — the same condition the registration indexes
    /// route on) fires.
    ///
    /// Temporal and static queries seed on their first edge's label pair; keyword
    /// queries seed on every event touching any member label, so their cost is the sum
    /// of the member labels' marginal frequencies.
    fn query_cost(&self, query: &CompiledQuery) -> u64 {
        match query.seed_key() {
            Some(SeedKey::TemporalPair(src, dst)) | Some(SeedKey::StaticPair(src, dst)) => {
                self.pair_weight(src, dst)
            }
            Some(SeedKey::NodeSetLabels(labels)) => labels
                .into_iter()
                .map(|label| self.label_weight(label))
                .sum::<u64>()
                .max(1),
            None => 1,
        }
    }
}

/// One shard's state: a full detector over this shard's queries, each registered under
/// its global id.
#[derive(Debug, Clone)]
struct Shard {
    detector: Detector,
    /// Registrations ever placed on this shard (the assignment's tie-break).
    placed: usize,
    /// Events this shard has processed (always on — plain integers, no atomics).
    events_processed: u64,
    /// Detections this shard has emitted.
    detections_emitted: u64,
}

impl Shard {
    /// Runs a batch through this shard's detector, counting what it did.
    fn process(&mut self, events: &[StreamEvent]) -> Result<Vec<Detection>, BatchError> {
        let result = self.detector.on_batch(events);
        let (processed, emitted) = match &result {
            Ok(out) => (events.len(), out.len()),
            Err(err) => (err.index, err.emitted.len()),
        };
        self.events_processed += processed as u64;
        self.detections_emitted += emitted as u64;
        result
    }
}

/// Where one registered query lives: its shard, and the estimated cost it contributes
/// to that shard's load while registered.
#[derive(Debug, Clone, Copy)]
struct Placement {
    shard: usize,
    cost: u64,
    /// `false` once the query has been deregistered (ids are never reused).
    active: bool,
}

/// The single-stream engine: [`Detector`] cores over a partition of the registered
/// queries, run in sequence on the caller's thread, with logging and fault injection
/// done once above them. See the module docs for the execution model.
#[derive(Debug)]
pub struct ShardedDetector {
    shards: Vec<Shard>,
    /// Accumulated estimated cost per shard (the greedy assignment's state).
    loads: Vec<u64>,
    stats: LabelPairStats,
    /// Global query id → placement (ids are dense over registrations, never reused).
    placements: Vec<Placement>,
    /// Write-ahead recorder: registrations carry *global* ids and batches are
    /// recorded once for the whole pool, above the shards.
    durability: Option<Box<dyn DurabilitySink>>,
    /// Pool-level profiler handle for `pool.batch` / `pool.merge` spans. The same
    /// handle is forwarded to every shard detector, so shard-phase spans aggregate
    /// into the one span map.
    profiler: Option<Profiler>,
    /// Deterministic fault plan; the `shard.worker` failpoint is consulted at the
    /// top of every batch. Unarmed: one `Option` branch, no behavior change.
    faults: Option<FaultPlan>,
}

impl ShardedDetector {
    /// A pool of `shards` shards balancing queries by count (no frequency stats).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_stats(shards, LabelPairStats::new())
    }

    /// A pool of `shards` shards balancing queries by first-edge label-pair posting
    /// frequency, estimated from `stats`.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_stats(shards: usize, stats: LabelPairStats) -> Self {
        assert!(shards > 0, "a sharded detector needs at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    detector: Detector::new(),
                    placed: 0,
                    events_processed: 0,
                    detections_emitted: 0,
                })
                .collect(),
            loads: vec![0; shards],
            stats,
            placements: Vec::new(),
            durability: None,
            profiler: None,
            faults: None,
        }
    }

    /// A copy without the log and the fault plan: queries, ids, placement, profiler,
    /// cost attribution and shard state. A pool's tenants start as its template's.
    pub(crate) fn replica(&self) -> Self {
        Self {
            shards: self.shards.clone(),
            loads: self.loads.clone(),
            stats: self.stats.clone(),
            placements: self.placements.clone(),
            durability: None,
            profiler: self.profiler.clone(),
            faults: None,
        }
    }

    /// Arms a deterministic [`FaultPlan`] on the pool's `shard.worker` failpoint.
    /// When it fires, the batch is rejected with [`GraphError::FaultInjected`]
    /// *before* durability logging or any shard mutation — re-delivering the batch
    /// advances the schedule and succeeds, so detections stay fault-free-identical.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// Attaches (or with `None` detaches) a pool-level durability recorder. Attach
    /// *before* registering queries so the log carries the full input history.
    /// Recording is inert: detections are identical with and without it.
    pub fn set_durability(&mut self, durability: Option<Box<dyn DurabilitySink>>) {
        self.durability = durability;
    }

    /// Per-shard visibility floors ([`tgraph::IncrementalGraph::visible_from`]), in shard
    /// order — recorded into snapshots so recovery can restore them exactly.
    pub fn shard_visible_floors(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.detector.graph().visible_from())
            .collect()
    }

    /// Restores per-shard visibility floors recorded by
    /// [`ShardedDetector::shard_visible_floors`] in a previous process.
    ///
    /// # Panics
    /// Panics if `floors` does not have one entry per shard.
    pub(crate) fn restore_shard_visible_floors(&mut self, floors: &[u64]) {
        assert_eq!(
            floors.len(),
            self.shards.len(),
            "one recorded floor per shard"
        );
        for (shard, &floor) in self.shards.iter_mut().zip(floors) {
            shard.detector.restore_visible_floor(floor);
        }
    }

    /// Attaches per-shard metric instruments, one [`DetectorInstruments`] set per
    /// shard under the prefix `detector.shard<i>.`. Purely observational: detections
    /// are byte-identical with or without instruments attached.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            let prefix = format!("detector.shard{idx}.");
            shard
                .detector
                .set_instruments(Some(DetectorInstruments::register(registry, &prefix)));
        }
    }

    /// Attaches (or with `None`, detaches) a shared scoped-span [`Profiler`].
    ///
    /// One handle serves the whole pool: the pool times `pool.batch` / `pool.merge`
    /// around the shard loop and the merge, and every shard detector gets a clone so
    /// its per-phase spans (`detector.batch`, `resolve_static`, …) nest under
    /// `pool.batch` in the same aggregated span map. Profiling is inert: detections
    /// are identical with and without it (checked in `tests/instrumentation_parity.rs`).
    pub fn set_profiler(&mut self, profiler: Option<Profiler>) {
        for shard in &mut self.shards {
            shard.detector.set_profiler(profiler.clone());
        }
        self.profiler = profiler;
    }

    /// Enables per-query cost attribution on every shard: exact work counters (runs
    /// spawned, advances, drops, detections) on *every* event, plus clock-timed
    /// per-run wall time on one event in `sample_interval` (`0`/`1` = every event).
    /// `advanced` counts the temporal runs actually *offered* an event (those of the
    /// queries whose advance index names its labels), keyword tracker notes and anchor
    /// resolutions; a run routed past, or one that merely expires, is not an advance.
    /// Attribution is inert: it observes the five-step loop without changing which
    /// runs are visited. Costs accumulate for the engine's lifetime; calling again
    /// only changes the sampling interval. Read the merged result with
    /// [`ShardedDetector::query_cost_report`].
    pub fn enable_cost_attribution(&mut self, sample_interval: u64) {
        for shard in &mut self.shards {
            shard.detector.enable_cost_attribution(sample_interval);
        }
    }

    /// The merged per-query cost report, keyed by query id (shards count under the
    /// ids the engine assigned). `None` unless
    /// [`ShardedDetector::enable_cost_attribution`] was called. Every registration —
    /// live or deregistered — gets a row; queries the stream never touched report
    /// all-zero cost.
    pub fn query_cost_report(&self) -> Option<QueryCostReport> {
        let mut sample_interval = None;
        let mut rows: Vec<(usize, QueryCost)> = (0..self.placements.len())
            .map(|id| (id, QueryCost::default()))
            .collect();
        for shard in &self.shards {
            let Some((costs, interval)) = shard.detector.cost_attribution() else {
                continue;
            };
            sample_interval.get_or_insert(interval);
            for ((_, row), cost) in rows.iter_mut().zip(costs) {
                row.merge(cost);
            }
        }
        Some(QueryCostReport {
            rows,
            sample_interval: sample_interval?,
        })
    }

    /// Per-shard load/occupancy breakdown (always on, no instruments needed).
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        let queries = self.queries_per_shard();
        self.shards
            .iter()
            .enumerate()
            .map(|(idx, shard)| ShardStat {
                shard: idx,
                events: shard.events_processed,
                detections: shard.detections_emitted,
                queries: queries[idx],
                load: self.loads[idx],
            })
            .collect()
    }

    /// Number of shards in the pool.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of live registered queries across all shards (deregistered queries do
    /// not count).
    pub fn query_count(&self) -> usize {
        self.placements.iter().filter(|p| p.active).count()
    }

    /// Number of live queries per shard.
    fn queries_per_shard(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shards.len()];
        for placement in self.placements.iter().filter(|p| p.active) {
            counts[placement.shard] += 1;
        }
        counts
    }

    /// The shard a registered query was assigned to (for a deregistered query: the
    /// shard it last lived on).
    pub fn shard_of(&self, query: QueryId) -> usize {
        self.placements[query].shard
    }

    /// Total partial-match branches dropped across all shards (see
    /// [`Detector::dropped_branches`]).
    pub fn dropped_branches(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.detector.dropped_branches())
            .sum()
    }

    /// Registers a query matched within `window` timestamp units, assigning it to the
    /// least-loaded shard by estimated cost.
    ///
    /// Same contract as [`Detector::register`]: zero windows and trivially-empty
    /// queries are rejected with a typed error, and the returned [`Registration`]
    /// carries the global query id plus `visible_from` — judged against the *owning
    /// shard's* graph, whose retention reflects the windows of the queries already
    /// assigned there.
    pub fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<Registration, RegisterError> {
        let cost = self.stats.query_cost(&query);
        let shard_idx = (0..self.shards.len())
            .min_by_key(|&idx| (self.loads[idx], self.shards[idx].placed, idx))
            .expect("at least one shard");
        let id = self.placements.len();
        let shard = &mut self.shards[shard_idx];
        let registration = shard.detector.register_at(id, query, window)?;
        shard.placed += 1;
        self.placements.push(Placement {
            shard: shard_idx,
            cost,
            active: true,
        });
        self.loads[shard_idx] += cost;
        if let Some(durability) = &mut self.durability {
            let registered = self.shards[shard_idx].detector.queries().get(id);
            let (query, window) = (registered.query(), registered.window());
            durability.record_register(id, query, window, registration.visible_from);
        }
        Ok(registration)
    }

    /// Deregisters a query mid-stream across the pool: same contract as
    /// [`Detector::deregister`] (in-flight partial matches are dropped, other queries
    /// are untouched), plus **shard-load rebalancing** — the query's estimated cost is
    /// returned to its shard, so the freed capacity attracts subsequent registrations
    /// instead of staying phantom-occupied. Ids are never reused; a stale or repeated
    /// id fails with a typed [`DeregisterError`].
    pub fn deregister(&mut self, query: QueryId) -> Result<(), DeregisterError> {
        let placement = match self.placements.get(query) {
            Some(p) if p.active => *p,
            _ => return Err(DeregisterError::UnknownQuery { id: query }),
        };
        self.shards[placement.shard].detector.deregister(query)?;
        self.placements[query].active = false;
        self.loads[placement.shard] -= placement.cost;
        if let Some(durability) = &mut self.durability {
            durability.record_deregister(query);
        }
        Ok(())
    }

    /// Processes one event; returns its detections in global timestamp order.
    ///
    /// Errors (leaving every shard unchanged) if the event's timestamp decreases
    /// (non-decreasing order; arrival tie-break) or it is a self-loop carrying two
    /// labels. Prefer [`ShardedDetector::on_batch`] for throughput — a batch pays the
    /// logging, failpoint and merge bookkeeping once, not per event.
    pub fn on_event(&mut self, event: StreamEvent) -> Result<Vec<Detection>, GraphError> {
        match self.on_batch(std::slice::from_ref(&event)) {
            Ok(out) => Ok(out),
            Err(err) => {
                debug_assert!(err.emitted.is_empty(), "single-event batch has no prefix");
                Err(err.error)
            }
        }
    }

    /// Runs a batch through every shard in turn and merges the per-shard detections
    /// into global timestamp order — ascending `(end_ts, start_ts, query)`.
    ///
    /// Same mid-batch contract as [`Detector::on_batch`]: every shard appends every
    /// event to its own graph, so an invalid event fails on all shards at the same
    /// index, and the returned [`BatchError`] carries the merged detections of the
    /// valid prefix.
    pub fn on_batch(&mut self, events: &[StreamEvent]) -> Result<Vec<Detection>, BatchError> {
        // Failpoint first: an injected fault is a clean rejection — nothing logged,
        // nothing applied — so the whole batch can simply be delivered again.
        if let Some(fault) = self.faults.as_ref().and_then(|p| p.fires("shard.worker")) {
            return Err(BatchError {
                emitted: Vec::new(),
                index: 0,
                error: GraphError::FaultInjected {
                    point: fault.point,
                    occurrence: fault.occurrence,
                },
            });
        }
        // Log-before-apply, once for the whole pool (shards all see the same batch).
        if let Some(durability) = &mut self.durability {
            durability.record_events(events);
        }
        let _batch_span = self.profiler.as_ref().map(|p| p.enter("pool.batch"));
        let mut merged = Vec::new();
        let mut failure: Option<(usize, GraphError)> = None;
        for shard in &mut self.shards {
            match shard.process(events) {
                Ok(detections) => merged.extend(detections),
                Err(err) => {
                    // Shards share validation state, so they all fail identically.
                    debug_assert!(
                        failure
                            .as_ref()
                            .is_none_or(|(index, error)| *index == err.index
                                && *error == err.error),
                        "shards diverged on batch validity"
                    );
                    merged.extend(err.emitted);
                    failure = Some((err.index, err.error));
                }
            }
        }
        let _merge_span = self.profiler.as_ref().map(|p| p.enter("pool.merge"));
        Self::sort_global(&mut merged);
        match failure {
            None => Ok(merged),
            Some((index, error)) => Err(BatchError {
                emitted: merged,
                index,
                error,
            }),
        }
    }

    /// Declares the stream finished on every shard; returns the trailing detections in
    /// global timestamp order.
    pub fn flush(&mut self) -> Vec<Detection> {
        let mut merged = Vec::new();
        for shard in &mut self.shards {
            let out = shard.detector.flush();
            shard.detections_emitted += out.len() as u64;
            merged.extend(out);
        }
        Self::sort_global(&mut merged);
        merged
    }

    /// Global timestamp order: instances sorted by when they complete in the stream.
    fn sort_global(detections: &mut [Detection]) {
        detections.sort_unstable_by_key(|d| (d.end_ts, d.start_ts, d.query));
    }
}

impl Engine for ShardedDetector {
    type Event = StreamEvent;
    type Detection = Detection;
    type BatchError = BatchError;

    fn build((groups, shards): (usize, usize), stats: LabelPairStats) -> Self {
        assert_eq!(groups, 1, "a single-stream engine has one group");
        ShardedDetector::with_stats(shards, stats)
    }
    fn shape(&self) -> (usize, usize) {
        (1, self.shard_count())
    }
    fn stats(&self) -> &LabelPairStats {
        &self.stats
    }
    fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<Registration, RegisterError> {
        ShardedDetector::register(self, query, window)
    }
    fn deregister(&mut self, query: QueryId) -> Result<(), DeregisterError> {
        ShardedDetector::deregister(self, query)
    }
    fn on_batch(&mut self, events: &[StreamEvent]) -> Result<Vec<Detection>, BatchError> {
        ShardedDetector::on_batch(self, events)
    }
    fn flush(&mut self) -> Vec<Detection> {
        ShardedDetector::flush(self)
    }
    fn visible_floors(&self) -> Vec<(TenantId, Vec<u64>)> {
        vec![(TenantId(0), self.shard_visible_floors())]
    }
    fn restore_visible_floors(&mut self, floors: &[(TenantId, Vec<u64>)]) {
        for (_, shard_floors) in floors {
            self.restore_shard_visible_floors(shard_floors);
        }
    }
    fn set_durability(&mut self, sink: Option<Box<dyn DurabilitySink>>) {
        ShardedDetector::set_durability(self, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgminer::baselines::nodeset::NodeSetQuery;
    use tgraph::pattern::TemporalPattern;

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

    fn abc_pattern() -> TemporalPattern {
        TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap()
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        let _ = ShardedDetector::new(0);
    }

    #[test]
    fn hot_pair_queries_spread_across_shards() {
        // Pair (0,1) is 100x hotter than (2,3). Round-robin over registration order
        // would put both hot queries on the same shard; cost-balanced assignment
        // separates them.
        let mut stats = LabelPairStats::new();
        for _ in 0..100 {
            stats.record(l(0), l(1));
        }
        stats.record(l(2), l(3));
        let mut pool = ShardedDetector::with_stats(2, stats);
        let hot_a = pool
            .register(CompiledQuery::Temporal(abc_pattern()), 5)
            .unwrap();
        let cheap_a = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(2), l(3))),
                5,
            )
            .unwrap();
        let cheap_b = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(2), l(3))),
                5,
            )
            .unwrap();
        let hot_b = pool
            .register(CompiledQuery::Temporal(abc_pattern()), 5)
            .unwrap();
        assert_ne!(
            pool.shard_of(hot_a.id),
            pool.shard_of(hot_b.id),
            "the two hot-pair queries must not share a shard"
        );
        assert_eq!(pool.query_count(), 4);
        assert_eq!(pool.queries_per_shard().iter().sum::<usize>(), 4);
        // The cheap queries filled in around the hot ones.
        assert_ne!(pool.shard_of(cheap_a.id), pool.shard_of(hot_a.id));
        assert_eq!(pool.shard_of(cheap_b.id), pool.shard_of(cheap_a.id));
    }

    #[test]
    fn nodeset_cost_uses_label_marginals() {
        let mut stats = LabelPairStats::new();
        stats.record(l(0), l(1));
        stats.record(l(0), l(2));
        stats.record(l(0), l(0)); // self-pair counts its label once
        assert_eq!(stats.pair_weight(l(0), l(1)), 1);
        assert_eq!(stats.pair_weight(l(9), l(9)), 1, "unseen pairs floor at 1");
        assert_eq!(stats.label_weight(l(0)), 3);
        let query = CompiledQuery::NodeSet(NodeSetQuery {
            labels: vec![l(0), l(1), l(1)],
        });
        // Distinct labels 0 and 1: 3 + 1.
        assert_eq!(stats.query_cost(&query), 4);
    }

    #[test]
    fn from_graphs_counts_every_edge_of_every_graph() {
        let graph = |order: &[(usize, usize)]| {
            let mut b = tgraph::GraphBuilder::new();
            for i in 0..3 {
                b.add_node(l(i));
            }
            for (ts, &(src, dst)) in order.iter().enumerate() {
                b.add_edge(src, dst, ts as u64 + 1).unwrap();
            }
            b.build()
        };
        let (a, b) = (graph(&[(0, 1), (1, 2), (0, 1)]), graph(&[(0, 1), (2, 2)]));
        // One graph: what a label-pair postings index of it counts.
        let mut postings: Vec<((Label, Label), u64)> = tgraph::EdgePostings::build(&a)
            .pair_counts()
            .map(|(pair, count)| (pair, count as u64))
            .collect();
        postings.sort_unstable();
        assert_eq!(LabelPairStats::from_graph(&a).pair_counts(), postings);
        // Several: the sum, marginals included.
        let both = LabelPairStats::from_graphs([&a, &b]);
        assert_eq!(
            both.pair_counts(),
            vec![((l(0), l(1)), 3), ((l(1), l(2)), 1), ((l(2), l(2)), 1)]
        );
        assert_eq!(both.label_weight(l(2)), 2);
        assert!(LabelPairStats::from_graphs([]).pair_counts().is_empty());
    }

    #[test]
    fn dense_counting_equals_recording_edge_by_edge() {
        // Random graphs over labels 0..4 and 50,000, with self-loops (a node's edge to
        // itself) and label-equal pairs between two nodes.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let (mut self_loops, mut far_labels) = (0, 0);
        for round in 0..200 {
            let mut graphs = Vec::new();
            for _ in 0..next(4) {
                let mut b = tgraph::GraphBuilder::new();
                let nodes = 1 + next(6);
                for _ in 0..nodes {
                    b.add_node(l(if next(5) == 0 { 50_000 } else { next(4) as u32 }));
                }
                for ts in 1..=next(24) {
                    let (src, dst) = (next(nodes) as usize, next(nodes) as usize);
                    self_loops += usize::from(src == dst);
                    b.add_edge(src, dst, ts).unwrap();
                }
                let graph = b.build();
                far_labels += graph.labels().iter().filter(|&&x| x == l(50_000)).count();
                graphs.push(graph);
            }
            let mut edge_by_edge = LabelPairStats::new();
            for graph in &graphs {
                for edge in graph.edges() {
                    edge_by_edge.record(graph.label(edge.src), graph.label(edge.dst));
                }
            }
            let dense = LabelPairStats::from_graphs(&graphs);
            assert_eq!(dense.pair_counts(), edge_by_edge.pair_counts(), "{round}");
            assert_eq!(dense.pairs, edge_by_edge.pairs, "{round}");
            assert_eq!(dense.per_label, edge_by_edge.per_label, "{round}");
        }
        assert!(self_loops > 0 && far_labels > 0);
    }

    #[test]
    fn detections_are_merged_in_global_timestamp_order() {
        // Shard assignment alternates the two single-edge queries across shards; both
        // match every (0,1) event, so the merged output interleaves the shards.
        let mut pool = ShardedDetector::new(2);
        let qa = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        let qb = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        assert_ne!(pool.shard_of(qa), pool.shard_of(qb));
        let out = pool
            .on_batch(&[ev(1, 0, 1, 0, 1), ev(2, 0, 1, 0, 1)])
            .unwrap();
        let key: Vec<(u64, QueryId)> = out.iter().map(|d| (d.end_ts, d.query)).collect();
        assert_eq!(key, vec![(1, qa), (1, qb), (2, qa), (2, qb)]);
    }

    #[test]
    fn mid_batch_failure_merges_partial_detections_across_shards() {
        let mut pool = ShardedDetector::new(2);
        let qa = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        let qb = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        let batch = [
            ev(1, 0, 1, 0, 1),
            ev(2, 0, 1, 0, 1),
            ev(1, 0, 1, 0, 1), // invalid: timestamp goes backwards
        ];
        let err = pool.on_batch(&batch).unwrap_err();
        assert_eq!(err.index, 2);
        assert!(matches!(
            err.error,
            GraphError::NonMonotonicTimestamp { .. }
        ));
        // Both shards' prefix detections are present, in global order.
        let key: Vec<(u64, QueryId)> = err.emitted.iter().map(|d| (d.end_ts, d.query)).collect();
        assert_eq!(key, vec![(1, qa), (1, qb), (2, qa), (2, qb)]);
        // The pool remains usable past the failure.
        let out = pool.on_event(ev(3, 0, 1, 0, 1)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn a_large_batch_over_three_shards_agrees_with_one_detector() {
        // 1,524 events through three shards: the merged result must equal the
        // one-detector answer, query by query.
        let events: Vec<StreamEvent> = (1..=1_524u64)
            .map(|ts| ev(ts, 2 * ts as usize, 2 * ts as usize + 1, 0, 1))
            .collect();
        let mut single = Detector::new();
        let q = single
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        let mut expected = single.on_batch(&events).unwrap();
        expected.sort_unstable_by_key(|d| (d.end_ts, d.start_ts, d.query));

        let mut pool = ShardedDetector::new(3);
        for _ in 0..3 {
            pool.register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap();
        }
        let merged = pool.on_batch(&events).unwrap();
        assert!(!expected.is_empty());
        for query in 0..3 {
            let per_query: Vec<(u64, u64)> = merged
                .iter()
                .filter(|d| d.query == query)
                .map(|d| (d.start_ts, d.end_ts))
                .collect();
            let baseline: Vec<(u64, u64)> = expected
                .iter()
                .filter(|d| d.query == q)
                .map(|d| (d.start_ts, d.end_ts))
                .collect();
            assert_eq!(per_query, baseline, "query {query} diverged");
        }
    }

    #[test]
    fn per_shard_retention_follows_that_shards_queries() {
        use tgminer::baselines::gspan::StaticPattern;
        let static_query = |a: u32, b: u32| {
            CompiledQuery::Static(StaticPattern {
                labels: vec![l(a), l(b)],
                edges: vec![(0, 1)],
            })
        };
        let mut pool = ShardedDetector::new(2);
        let wide = pool.register(static_query(0, 1), 100).unwrap().id;
        let narrow = pool.register(static_query(2, 3), 5).unwrap().id;
        let wide_shard = pool.shard_of(wide);
        let narrow_shard = pool.shard_of(narrow);
        assert_ne!(wide_shard, narrow_shard);
        assert_eq!(
            pool.shards[wide_shard].detector.graph().retention(),
            Some(200)
        );
        assert_eq!(
            pool.shards[narrow_shard].detector.graph().retention(),
            Some(10),
            "a shard retains only what its own queries need"
        );
    }

    #[test]
    fn deregistration_rebalances_the_freed_shard_load() {
        // The hot query occupies one shard; once it is deregistered, its cost must be
        // returned so the next registrations fill the freed shard first.
        let mut stats = LabelPairStats::new();
        for _ in 0..100 {
            stats.record(l(0), l(1));
        }
        let mut pool = ShardedDetector::with_stats(2, stats);
        let hot = pool
            .register(CompiledQuery::Temporal(abc_pattern()), 5)
            .unwrap();
        let hot_shard = pool.shard_of(hot.id);
        assert_eq!(pool.loads[hot_shard], 100);
        pool.deregister(hot.id).unwrap();
        assert_eq!(
            pool.query_count(),
            0,
            "the deregistered id is no longer live"
        );
        assert_eq!(pool.loads, [0, 0], "freed cost is subtracted");
        assert_eq!(pool.queries_per_shard(), vec![0, 0]);
        // Double deregistration fails loudly; ids are never reused.
        assert!(matches!(
            pool.deregister(hot.id),
            Err(DeregisterError::UnknownQuery { .. })
        ));
        let next = pool
            .register(CompiledQuery::Temporal(abc_pattern()), 5)
            .unwrap();
        assert_ne!(next.id, hot.id);
    }

    #[test]
    fn deregistering_mid_stream_silences_only_that_query() {
        // Two single-edge queries land on different shards; deregistering one mid-batch
        // sequence must leave the other's detections parity-equal to a pool where the
        // victim was never registered (same shard layout).
        let mut pool = ShardedDetector::new(2);
        let survivor = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        let victim = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        assert_ne!(pool.shard_of(survivor), pool.shard_of(victim));
        let mut out = pool.on_batch(&[ev(1, 0, 1, 0, 1)]).unwrap();
        pool.deregister(victim).unwrap();
        out.extend(pool.on_batch(&[ev(2, 0, 1, 0, 1)]).unwrap());
        out.extend(pool.flush());
        let survivor_intervals: Vec<(u64, u64)> = out
            .iter()
            .filter(|d| d.query == survivor)
            .map(|d| (d.start_ts, d.end_ts))
            .collect();
        assert!(
            out.iter()
                .filter(|d| d.query == victim)
                .all(|d| d.end_ts <= 1),
            "the victim is silent from the deregistration on"
        );

        let mut baseline = ShardedDetector::new(2);
        let only = baseline
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        let mut expected = baseline.on_batch(&[ev(1, 0, 1, 0, 1)]).unwrap();
        expected.extend(baseline.on_batch(&[ev(2, 0, 1, 0, 1)]).unwrap());
        expected.extend(baseline.flush());
        let expected_intervals: Vec<(u64, u64)> = expected
            .iter()
            .filter(|d| d.query == only)
            .map(|d| (d.start_ts, d.end_ts))
            .collect();
        assert_eq!(survivor_intervals, expected_intervals);
    }

    #[test]
    fn register_deregister_reregister_matches_a_fresh_registration() {
        // The cycle must leave the pool exactly as if the query had only ever been
        // registered at the final point: same shard layout, same detections.
        let query = || CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1)));
        let mut cycled = ShardedDetector::new(2);
        let co_tenant = cycled.register(query(), 5).unwrap().id;
        let first = cycled.register(query(), 5).unwrap().id;
        cycled.on_batch(&[ev(1, 0, 1, 0, 1)]).unwrap();
        cycled.deregister(first).unwrap();
        let re_registered = cycled.register(query(), 5).unwrap().id;
        // Load rebalancing on removal: the re-registration takes the freed slot, so
        // the layout equals a pool that never saw the cycle.
        assert_eq!(cycled.shard_of(re_registered), pool_shard_of_second());
        assert_eq!(cycled.queries_per_shard(), vec![1, 1]);

        let mut fresh = ShardedDetector::new(2);
        let fresh_co = fresh.register(query(), 5).unwrap().id;
        fresh.on_batch(&[ev(1, 0, 1, 0, 1)]).unwrap();
        let fresh_second = fresh.register(query(), 5).unwrap().id;

        let suffix = [ev(2, 0, 1, 0, 1), ev(3, 0, 1, 0, 1)];
        let mut cycled_out = cycled.on_batch(&suffix).unwrap();
        cycled_out.extend(cycled.flush());
        let mut fresh_out = fresh.on_batch(&suffix).unwrap();
        fresh_out.extend(fresh.flush());
        let per = |out: &[Detection], id: QueryId| -> Vec<(u64, u64)> {
            out.iter()
                .filter(|d| d.query == id)
                .map(|d| (d.start_ts, d.end_ts))
                .collect()
        };
        assert_eq!(
            per(&cycled_out, re_registered),
            per(&fresh_out, fresh_second)
        );
        assert_eq!(per(&cycled_out, co_tenant), per(&fresh_out, fresh_co));
    }

    /// The shard the *second* registration of two equal-cost queries lands on in a
    /// fresh two-shard pool (the greedy assignment is deterministic: loads tie, query
    /// counts tie-break, then the shard index).
    fn pool_shard_of_second() -> usize {
        let mut probe = ShardedDetector::new(2);
        probe
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap();
        let second = probe
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap();
        probe.shard_of(second.id)
    }

    #[test]
    fn cost_report_merges_shard_rows_by_query_id() {
        let mut pool = ShardedDetector::new(2);
        let qa = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        let qb = pool
            .register(
                CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1))),
                5,
            )
            .unwrap()
            .id;
        assert_ne!(pool.shard_of(qa), pool.shard_of(qb));
        assert!(
            pool.query_cost_report().is_none(),
            "no report before attribution is enabled"
        );
        pool.enable_cost_attribution(1);
        pool.on_batch(&[ev(1, 0, 1, 0, 1), ev(2, 2, 3, 0, 1), ev(3, 4, 5, 0, 1)])
            .unwrap();
        pool.flush();
        let report = pool.query_cost_report().expect("attribution is on");
        assert_eq!(report.sample_interval, 1);
        assert_eq!(
            report.rows.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![qa, qb],
            "rows carry global ids in ascending order"
        );
        for &id in &[qa, qb] {
            let cost = report.get(id).unwrap();
            // Each query lives alone on its shard, so its row is exactly that
            // shard's row for the id — three seeds, three detections.
            assert_eq!(cost.spawned, 3, "query {id}");
            assert_eq!(cost.detections, 3, "query {id}");
            assert!(cost.sampled_ns > 0, "interval 1 times every operation");
        }
    }

    #[test]
    fn registration_errors_pass_through_without_consuming_ids() {
        let mut pool = ShardedDetector::new(3);
        assert_eq!(
            pool.register(CompiledQuery::Temporal(abc_pattern()), 0),
            Err(RegisterError::ZeroWindow)
        );
        assert_eq!(
            pool.register(CompiledQuery::NodeSet(NodeSetQuery { labels: vec![] }), 5),
            Err(RegisterError::EmptyQuery)
        );
        assert_eq!(pool.query_count(), 0);
        assert_eq!(pool.loads, [0, 0, 0]);
        let reg = pool
            .register(CompiledQuery::Temporal(abc_pattern()), 5)
            .unwrap();
        assert_eq!(reg.id, 0);
    }
}
