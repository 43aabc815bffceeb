//! Multi-tenant stream demux: the second sharding axis.
//!
//! [`ShardedDetector`] scales the engine along the *query* axis — one totally ordered
//! stream, queries partitioned over shards. A monitoring deployment's input is not one
//! stream, though: it is many independent per-tenant streams (per process, per trace,
//! per host) arriving interleaved on one wire, with **no global timestamp order**
//! across tenants. This module adds the *tenant* axis:
//!
//! * a deterministic hash from [`TenantId`] to one of G tenant-groups, so group
//!   placement is reproducible across runs and machines;
//! * [`TenantPool`] — the demux front-end: it routes each batch's events to per-tenant
//!   detector instances (created lazily on a tenant's first event), each owning its own
//!   [`tgraph::IncrementalGraph`], retention window, and `visible_from`, while all
//!   tenants run the *same* compiled query set. Composed with query-sharding inside
//!   each tenant's [`ShardedDetector`], the engine forms a 2-D grid:
//!   queries × tenant-groups.
//!
//! Groups, like query shards, are partitions, not threads: the pool runs them one
//! after another on the caller's thread. Scale-out is one process, with its own
//! write-ahead log, per tenant set.
//!
//! ## Ordering contract
//!
//! Within one tenant, events must be non-decreasing in timestamp (ties keep arrival
//! order) — the same contract a single [`Detector`](crate::Detector) enforces. Across
//! tenants there is no contract at all: the pool demuxes by tenant id, so the global
//! interleaving (merged, round-robin, adversarial) is irrelevant to results. Detections
//! are merged into global `(end_ts, tenant, start_ts, query)` order — ascending
//! completion time, tenant id as the deterministic tie-break.
//!
//! ## Demux
//!
//! Collectors ship each host's events in chunks, so [`TenantPool::on_batch`] demuxes
//! by *runs* (maximal stretches of consecutive events of one tenant): a stable
//! counting sort of the batch by tenant into the pool's **arena**, one
//! `Vec<StreamEvent>` in which each tenant's sub-stream is a contiguous slice in
//! arrival order, handed to its detector as it is. Per run that costs one tenant
//! lookup (a binary search in its group) and one clock update; per event, one 32-byte
//! copy. The arena and the run list are reused: after warm-up the front door
//! allocates nothing, and staging memory follows the largest batch seen, not the
//! tenant count (a live tenant carries the 16-byte range of its slice, which leaves
//! with it). Fully interleaved input (run length 1) pays the lookup per event, as
//! every batch used to. There is no tenant→slot cache for that shape: it would be
//! state per tenant ever seen, invalidated by every materialisation and eviction,
//! for input that collectors do not produce.
//!
//! ## The tenant-parity law
//!
//! For every tenant T and every demux configuration (any group count, any shards per
//! group, any interleaving of other tenants' events), the detections the pool reports
//! for T are **identical** to running T's events alone through a single
//! [`Detector`](crate::Detector) with the same registrations. This is the correctness
//! anchor of the whole layer, enforced property-style by `tests/tenant_parity.rs` at
//! the workspace root. It holds by construction: per-tenant state is fully isolated
//! (own graph, own runs, own retention), and the shared query set is replicated via a
//! registration journal that replays identically on every tenant.
//!
//! ## Registration semantics
//!
//! [`TenantPool::register`] validates once against a canonical [`QueryTable`] (so ids
//! and typed errors are tenant-independent), appends the operation to a journal, and
//! fans it out to every live tenant. A tenant created later replays the journal before
//! seeing its first event, so it runs the exact same query set under the exact same
//! ids — [`QueryTable`] ids are dense over registrations and never reused, which makes
//! the replay deterministic. A mid-stream registration's `visible_from` is the maximum
//! over live tenants (the most pessimistic look-back floor; `0` when no tenant exists
//! yet).
//!
//! ## Self-healing (opt-in, off by default)
//!
//! * **Poison-event quarantine** ([`PoisonPolicy`]): an event a tenant rejects
//!   identically `max_failures` times in a row moves to a capped dead-letter buffer
//!   and is silently dropped from later deliveries — *before* durability logging, so
//!   the log carries exactly the filtered stream the engines processed and replay
//!   stays parity-exact.
//! * **Tenant quiescence** ([`QuiescencePolicy`]): tenants silent past a horizon
//!   (never less than twice the largest registered window, so no pending match can
//!   still complete) are flushed and evicted, their visibility floors saved; a
//!   returning tenant is recreated through the ordinary journal-replay path with its
//!   floors restored. Each eviction is logged as a `Quiesce` record before it is
//!   applied, because the flush drains pending detections early — replay must drain
//!   them at the same point in the op sequence.

use crate::detector::{CompiledQuery, Detection, QueryId, Registration};
use crate::durability::DurabilitySink;
use crate::engine::Engine;
use crate::error::{DeregisterError, RegisterError, TenantBatchError};
use crate::registry::QueryTable;
use crate::shard::{LabelPairStats, ShardedDetector};
use faults::FaultPlan;
use obs::{
    Counter, Gauge, MetricsRegistry, Profiler, QueryCost, QueryCostReport, SharedSink,
    TenantGroupStat, TraceEvent,
};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use tgraph::{GraphError, StreamEvent, TenantId, TenantedEvent};

/// A detection attributed to the tenant whose stream produced it.
///
/// The global merge order is ascending `(end_ts, tenant, start_ts, query)`: detections
/// complete in stream time first, with the tenant id as the deterministic tie-break
/// (cross-tenant timestamp ties are routine, since tenants share no clock discipline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantDetection {
    /// The tenant whose stream matched.
    pub tenant: TenantId,
    /// The query that matched (global id, identical across tenants).
    pub query: QueryId,
    /// Timestamp of the instance's first edge.
    pub start_ts: u64,
    /// Timestamp of the instance's last edge (when it was detected).
    pub end_ts: u64,
}

impl TenantDetection {
    /// `detection`, attributed to `tenant`.
    fn of(tenant: TenantId, detection: Detection) -> Self {
        Self {
            tenant,
            query: detection.query,
            start_ts: detection.start_ts,
            end_ts: detection.end_ts,
        }
    }
}

/// The tenant-group, of `groups`, that `tenant` belongs to: the splitmix64 finalizer
/// (public-domain constants) modulo `groups`, so low-entropy tenant ids (0, 1, 2, …)
/// spread uniformly, and identically across runs and machines — group assignment is
/// part of the engine's reproducibility contract, not an implementation detail. One
/// group takes every tenant without the division.
fn group_of(tenant: TenantId, groups: usize) -> usize {
    if groups == 1 {
        return 0;
    }
    let mut x = tenant.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x ^ (x >> 31)) % groups as u64) as usize
}

/// Poison-event quarantine policy (see the module docs): an event a tenant rejects
/// identically `max_failures` times in a row is quarantined into a capped dead-letter
/// buffer and dropped from later deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonPolicy {
    /// Consecutive identical rejections before the event is quarantined (min 1).
    pub max_failures: u32,
    /// Dead-letter buffer capacity; beyond it the *oldest* quarantined event is
    /// forgotten (and would be delivered again if ever re-sent).
    pub capacity: usize,
}

/// One dead-letter entry: the event a tenant kept rejecting, held for inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedEvent {
    /// The tenant that rejected the event.
    pub tenant: TenantId,
    /// The rejected event, verbatim.
    pub event: StreamEvent,
    /// How many consecutive times it was rejected before quarantine.
    pub failures: u32,
}

/// Tenant-quiescence policy (see the module docs): tenants whose last event is older
/// than the horizon — measured against the newest timestamp the pool has seen — are
/// flushed and evicted at the start of the next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuiescencePolicy {
    /// Silence horizon in timestamp units. The pool never quiesces inside the replay
    /// horizon: the effective horizon is `max(horizon, 2 × largest window ever
    /// registered)`, so no pending match that could still complete is cut short.
    pub horizon: u64,
}

/// Pool-level self-healing metric handles (see [`TenantPool::instrument`]).
#[derive(Debug, Clone)]
struct PoolInstruments {
    quarantined_total: Counter,
    quiesced_total: Counter,
}

/// One replayable registration-journal entry (see the module docs: tenants created
/// lazily replay the journal so every tenant runs the identical query set).
#[derive(Debug, Clone)]
enum JournalOp {
    Register(CompiledQuery, u64),
    Deregister(QueryId),
}

/// Group-level metric handles (see [`TenantPool::instrument`] for the name table).
#[derive(Debug, Clone)]
struct GroupInstruments {
    events_total: Counter,
    detections_total: Counter,
    tenants: Gauge,
}

/// One run of a batch being demuxed: the consecutive events of one tenant at batch
/// positions `at`. `first` marks the tenant's first run of the batch.
#[derive(Debug)]
struct Run {
    group: usize,
    /// The tenant's position in its group's `tenants`.
    slot: usize,
    at: Range<usize>,
    first: bool,
}

/// One live tenant: its own query-sharded detector and, while a batch is demuxed, where
/// its sub-stream lies in the pool's arena (`0..0` between batches).
#[derive(Debug)]
struct Tenant {
    id: TenantId,
    detector: ShardedDetector,
    staged: Range<usize>,
}

/// One tenant-group: the tenants hashed here.
#[derive(Debug, Default)]
struct Group {
    /// Live tenants, sorted by tenant id (kept sorted so iteration order — and with it
    /// every merge and stats report — is deterministic).
    tenants: Vec<Tenant>,
    /// Events this group's detectors processed.
    events: u64,
    /// Detections this group's detectors emitted.
    detections: u64,
    instruments: Option<GroupInstruments>,
}

impl Group {
    /// Processes group `index`'s share of a staged batch: each of its tenants with a
    /// run in `runs` gets its slice of `arena`, in first-appearance order. Detections
    /// are appended to `detections` unsorted; `failure` keeps the lowest-batch-position
    /// rejection seen so far.
    fn process(
        &mut self,
        index: usize,
        runs: &[Run],
        arena: &[StreamEvent],
        detections: &mut Vec<TenantDetection>,
        failure: &mut Option<(usize, TenantId, GraphError)>,
    ) {
        for first in runs.iter().filter(|r| r.first && r.group == index) {
            let tenant = &mut self.tenants[first.slot];
            let events = &arena[std::mem::take(&mut tenant.staged)];
            let out = match tenant.detector.on_batch(events) {
                Ok(out) => {
                    self.events += events.len() as u64;
                    out
                }
                Err(err) => {
                    self.events += err.index as u64;
                    // The tenant's `err.index`-th event, found in the batch by walking
                    // the tenant's runs.
                    let mine = |r: &&Run| (r.group, r.slot) == (index, first.slot);
                    let mut positions = runs.iter().filter(mine).flat_map(|r| r.at.clone());
                    let at = positions
                        .nth(err.index)
                        .expect("the tenant's runs hold the event");
                    if failure.as_ref().is_none_or(|(lowest, _, _)| at < *lowest) {
                        *failure = Some((at, tenant.id, err.error));
                    }
                    err.emitted
                }
            };
            self.detections += out.len() as u64;
            detections.extend(out.into_iter().map(|d| TenantDetection::of(tenant.id, d)));
        }
    }
}

/// The multi-tenant demux front-end (see the module docs).
///
/// Construction fixes the grid shape: `groups` tenant-groups (tenants hashed onto
/// them) × `shards_per_group` query shards inside every tenant's
/// [`ShardedDetector`]. Tenants themselves are created lazily, on first event.
#[derive(Debug)]
pub struct TenantPool {
    shards_per_tenant: usize,
    stats: LabelPairStats,
    /// Canonical registered-query state: validates registrations, assigns the global
    /// ids every tenant reports under, and answers query-set queries without touching
    /// any tenant.
    canonical: QueryTable,
    /// Every registration/deregistration in order — replayed verbatim onto tenants
    /// created after the fact.
    journal: Vec<JournalOp>,
    groups: Vec<Group>,
    /// The batch being processed, counting-sorted by tenant (see the module docs,
    /// "Demux"); it only grows, to the largest batch seen.
    arena: Vec<StreamEvent>,
    /// The runs of the batch being processed, in batch order.
    runs: Vec<Run>,
    /// Pool-level write-ahead recorder: operations and tenant batches are recorded
    /// once at the demux front-end; per-tenant detectors stay recorder-free.
    durability: Option<Box<dyn DurabilitySink>>,
    /// Pool-level profiler for `tenant.batch` / `tenant.demux` spans; cloned into
    /// every tenant detector (including tenants materialised later) so all spans
    /// aggregate into the one map.
    profiler: Option<Profiler>,
    /// Cost-attribution sampling interval, remembered so tenants materialised after
    /// [`TenantPool::enable_cost_attribution`] join the measurement mid-stream.
    attribution_interval: Option<u64>,
    /// Pool-level trace sink for `poison_quarantined` / `tenant_quiesced` events.
    sink: Option<SharedSink>,
    /// Armed fault plan; `tenant.batch` fires at the very top of [`TenantPool::on_batch`].
    faults: Option<FaultPlan>,
    /// Poison-event quarantine policy; `None` (default) disables quarantine.
    poison: Option<PoisonPolicy>,
    /// Per-tenant consecutive-rejection tracking: the last event the tenant rejected
    /// and how many times in a row. An intervening *different* rejection resets it.
    failing: BTreeMap<TenantId, (StreamEvent, u32)>,
    /// The capped dead-letter buffer, oldest first.
    quarantined: VecDeque<QuarantinedEvent>,
    /// Lifetime quarantine count (outlives the capped buffer; backs the counter).
    quarantine_total: u64,
    /// Tenant-quiescence policy; `None` (default) disables eviction.
    quiescence: Option<QuiescencePolicy>,
    /// Last event timestamp per tenant — the quiescence clock. Entries survive
    /// eviction so a returning tenant's silence is measured from its real history.
    tenant_last_ts: BTreeMap<TenantId, u64>,
    /// Newest timestamp seen on any tenant (the pool-wide "now" silence is measured
    /// against).
    max_seen_ts: u64,
    /// Largest window ever registered (never shrinks): floors the effective
    /// quiescence horizon at twice the replay horizon.
    max_window_seen: u64,
    /// Visibility floors of quiesced tenants, restored (and removed) when the tenant
    /// re-materialises via [`TenantPool::ensure_tenant`]'s journal replay.
    quiesced_floors: BTreeMap<TenantId, Vec<u64>>,
    /// Lifetime quiesce count, mirroring `quarantine_total`.
    quiesce_total: u64,
    instruments: Option<PoolInstruments>,
}

impl TenantPool {
    /// A pool of `groups` tenant-groups whose tenants each shard queries
    /// `shards_per_tenant` ways.
    ///
    /// # Panics
    /// Panics if `groups` or `shards_per_tenant` is zero.
    pub fn new(groups: usize, shards_per_tenant: usize) -> Self {
        Self::with_stats(groups, shards_per_tenant, LabelPairStats::new())
    }

    /// Like [`TenantPool::new`], with label-pair statistics for query-shard balancing
    /// inside every tenant (the same statistics are shared by all tenants, so shard
    /// placement is identical across tenants).
    pub fn with_stats(groups: usize, shards_per_tenant: usize, stats: LabelPairStats) -> Self {
        assert!(
            groups > 0 && shards_per_tenant > 0,
            "a tenant pool needs at least one group and one query shard per tenant"
        );
        Self {
            shards_per_tenant,
            stats,
            canonical: QueryTable::new(),
            journal: Vec::new(),
            groups: (0..groups).map(|_| Group::default()).collect(),
            arena: Vec::new(),
            runs: Vec::new(),
            durability: None,
            profiler: None,
            attribution_interval: None,
            sink: None,
            faults: None,
            poison: None,
            failing: BTreeMap::new(),
            quarantined: VecDeque::new(),
            quarantine_total: 0,
            quiescence: None,
            tenant_last_ts: BTreeMap::new(),
            max_seen_ts: 0,
            max_window_seen: 0,
            quiesced_floors: BTreeMap::new(),
            quiesce_total: 0,
            instruments: None,
        }
    }

    /// Attaches (or with `None`, detaches) a shared scoped-span [`Profiler`] across
    /// the whole grid: the pool times `tenant.demux` / `tenant.batch`, and every
    /// tenant's [`ShardedDetector`] — current and future — gets a clone so pool- and
    /// detector-phase spans aggregate together. Inert: detections are identical with
    /// and without it.
    pub fn set_profiler(&mut self, profiler: Option<Profiler>) {
        for detector in self.detectors_mut() {
            detector.set_profiler(profiler.clone());
        }
        self.profiler = profiler;
    }

    /// Enables sampled per-query cost attribution on every tenant, current and
    /// future (see [`ShardedDetector::enable_cost_attribution`]). Read the summed
    /// result with [`TenantPool::query_cost_report`].
    pub fn enable_cost_attribution(&mut self, sample_interval: u64) {
        self.attribution_interval = Some(sample_interval.max(1));
        for detector in self.detectors_mut() {
            detector.enable_cost_attribution(sample_interval);
        }
    }

    /// The per-query cost report summed across every tenant, keyed by the canonical
    /// global query ids (every tenant runs the same query set, so rows add
    /// meaningfully). `None` unless [`TenantPool::enable_cost_attribution`] was
    /// called. Every registration gets a row, even with zero tenants materialised.
    pub fn query_cost_report(&self) -> Option<QueryCostReport> {
        let sample_interval = self.attribution_interval?;
        let mut merged: BTreeMap<usize, QueryCost> = BTreeMap::new();
        for group in &self.groups {
            for tenant in &group.tenants {
                let Some(report) = tenant.detector.query_cost_report() else {
                    continue;
                };
                for (id, cost) in &report.rows {
                    merged.entry(*id).or_default().merge(cost);
                }
            }
        }
        Some(QueryCostReport {
            rows: (0..self.canonical.slot_count())
                .map(|id| (id, merged.get(&id).copied().unwrap_or_default()))
                .collect(),
            sample_interval,
        })
    }

    /// Attaches (or with `None` detaches) a pool-level durability recorder. Attach
    /// *before* registering queries so the log carries the full input history.
    /// Recording is inert: detections are identical with and without it.
    pub fn set_durability(&mut self, durability: Option<Box<dyn DurabilitySink>>) {
        self.durability = durability;
    }

    /// Attaches (or with `None` detaches) a pool-level trace sink for the
    /// self-healing events `poison_quarantined` and `tenant_quiesced`. Inert:
    /// detections are identical with and without it.
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// Arms (or with `None` disarms) a deterministic fault plan. The pool consults
    /// the `tenant.batch` failpoint at the very top of [`TenantPool::on_batch`],
    /// before any logging or state mutation, so an injected fault is a clean typed
    /// rejection ([`GraphError::FaultInjected`]) and a retrying driver — which
    /// advances the schedule — observes the same stream as a fault-free run.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// Enables (or with `None` disables) poison-event quarantine. Disabling keeps
    /// the already-quarantined events out of the stream but stops new quarantines.
    pub fn set_poison_policy(&mut self, policy: Option<PoisonPolicy>) {
        self.poison = policy;
        if policy.is_none() {
            self.failing.clear();
        }
    }

    /// Enables (or with `None` disables) tenant quiescence. Evictions happen at the
    /// start of the next [`TenantPool::on_batch`] call after a tenant falls outside
    /// the (effective) horizon.
    pub fn set_quiescence(&mut self, policy: Option<QuiescencePolicy>) {
        self.quiescence = policy;
    }

    /// The dead-letter buffer, oldest first.
    pub fn quarantined(&self) -> Vec<QuarantinedEvent> {
        self.quarantined.iter().copied().collect()
    }

    /// Per-tenant, per-shard visibility floors for every materialised tenant, in
    /// (group, tenant) order — recorded into snapshots so recovery can restore them.
    /// Quiesced tenants report the floors saved at their eviction (appended after the
    /// live tenants, in tenant order): their floors must survive a snapshot cut while
    /// they are away, or a recovered pool would recreate them with no look-back bound.
    pub fn tenant_visible_floors(&self) -> Vec<(TenantId, Vec<u64>)> {
        let mut floors: Vec<(TenantId, Vec<u64>)> = self
            .groups
            .iter()
            .flat_map(|group| {
                group
                    .tenants
                    .iter()
                    .map(|tenant| (tenant.id, tenant.detector.shard_visible_floors()))
            })
            .collect();
        floors.extend(
            self.quiesced_floors
                .iter()
                .map(|(tenant, f)| (*tenant, f.clone())),
        );
        floors
    }

    /// Restores per-tenant visibility floors recorded by
    /// [`TenantPool::tenant_visible_floors`] in a previous process. Tenants that have
    /// not re-materialised during replay are created first (journal replay), so a
    /// tenant that went quiet before the snapshot still reports its original floors.
    pub fn restore_tenant_visible_floors(&mut self, floors: &[(TenantId, Vec<u64>)]) {
        for (tenant, shard_floors) in floors {
            let (group, slot) = self.ensure_tenant(*tenant);
            let detector = &mut self.groups[group].tenants[slot].detector;
            detector.restore_shard_visible_floors(shard_floors);
        }
    }

    /// Number of live tenants across all groups.
    pub fn tenant_count(&self) -> usize {
        self.groups.iter().map(|g| g.tenants.len()).sum()
    }

    /// Number of live registered queries (shared by every tenant).
    pub fn query_count(&self) -> usize {
        self.canonical.len()
    }

    /// Attaches group-level metrics. With group index `g`, the pool ticks:
    ///
    /// | name                               | kind    | meaning                        |
    /// |------------------------------------|---------|--------------------------------|
    /// | `tenant.group<g>.events_total`     | counter | events processed by the group  |
    /// | `tenant.group<g>.detections_total` | counter | detections emitted by the group|
    /// | `tenant.group<g>.tenants`          | gauge   | live tenants in the group      |
    /// | `tenant.quarantined_total`         | counter | events moved to the dead letter|
    /// | `tenant.quiesced_total`            | counter | silent-tenant evictions        |
    ///
    /// The pool ticks these itself (not per tenant): tenants inside a group share the
    /// group's handles, so tenant churn never leaks stale gauge series. Attaching is
    /// inert — detections are identical with and without instruments.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        for (idx, group) in self.groups.iter_mut().enumerate() {
            let instruments = GroupInstruments {
                events_total: registry.counter(&format!("tenant.group{idx}.events_total")),
                detections_total: registry.counter(&format!("tenant.group{idx}.detections_total")),
                tenants: registry.gauge(&format!("tenant.group{idx}.tenants")),
            };
            // Late attachment: bring the counters up to the group's lifetime totals so
            // snapshots agree with `group_stats()` regardless of attachment time.
            instruments.events_total.add(group.events);
            instruments.detections_total.add(group.detections);
            instruments.tenants.set(group.tenants.len() as u64);
            group.instruments = Some(instruments);
        }
        // Pool-level self-healing counters: `tenant.quarantined_total` /
        // `tenant.quiesced_total`, caught up to lifetime totals like the group ones.
        let instruments = PoolInstruments {
            quarantined_total: registry.counter("tenant.quarantined_total"),
            quiesced_total: registry.counter("tenant.quiesced_total"),
        };
        instruments.quarantined_total.add(self.quarantine_total);
        instruments.quiesced_total.add(self.quiesce_total);
        self.instruments = Some(instruments);
    }

    /// Per-group event, detection and tenant counts (always on, no instruments needed).
    pub fn group_stats(&self) -> Vec<TenantGroupStat> {
        self.groups
            .iter()
            .enumerate()
            .map(|(idx, group)| TenantGroupStat {
                group: idx,
                tenants: group.tenants.len(),
                events: group.events,
                detections: group.detections,
            })
            .collect()
    }

    /// Registers a query on every tenant (current and future), matched within `window`
    /// timestamp units.
    ///
    /// Validation and id assignment happen once, on the canonical table; the operation
    /// is journaled and fanned out, so every tenant — including tenants that do not
    /// exist yet — runs the query under the same global id. The returned
    /// `visible_from` is the maximum over live tenants' look-back floors (the
    /// pessimistic bound: at least one tenant can see no further back), or `0` when no
    /// tenant has materialised yet.
    pub fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<Registration, RegisterError> {
        let id = self.canonical.register(query.clone(), window)?;
        self.max_window_seen = self.max_window_seen.max(window);
        self.journal
            .push(JournalOp::Register(query.clone(), window));
        let mut visible_from = 0;
        for detector in self.detectors_mut() {
            let registration = detector
                .register(query.clone(), window)
                .expect("canonical table accepted the query");
            debug_assert_eq!(registration.id, id, "journal replay desynchronised ids");
            visible_from = visible_from.max(registration.visible_from);
        }
        if let Some(durability) = &mut self.durability {
            durability.record_register(id, &query, window, visible_from);
        }
        Ok(Registration { id, visible_from })
    }

    /// Deregisters a query on every tenant (current and future): same contract as
    /// [`ShardedDetector::deregister`], applied per tenant — each tenant drops its own
    /// in-flight partial matches for the query, everything else is untouched. Ids are
    /// never reused; a stale or repeated id fails with a typed error and changes
    /// nothing.
    pub fn deregister(&mut self, query: QueryId) -> Result<(), DeregisterError> {
        self.canonical.remove(query)?;
        self.journal.push(JournalOp::Deregister(query));
        if let Some(durability) = &mut self.durability {
            durability.record_deregister(query);
        }
        for detector in self.detectors_mut() {
            detector
                .deregister(query)
                .expect("canonical table knew the query");
        }
        Ok(())
    }

    /// Every live tenant's detector, in (group, tenant) order.
    fn detectors_mut(&mut self) -> impl Iterator<Item = &mut ShardedDetector> {
        let tenants = self.groups.iter_mut().flat_map(|group| &mut group.tenants);
        tenants.map(|tenant| &mut tenant.detector)
    }

    /// Materialises a tenant if this is its first appearance: a fresh
    /// [`ShardedDetector`] (own graphs, own retention) brought up to date by replaying
    /// the registration journal. Returns the tenant's group and its position in the
    /// group's `tenants` (an insertion shifts the positions after it).
    fn ensure_tenant(&mut self, tenant: TenantId) -> (usize, usize) {
        let group_idx = group_of(tenant, self.groups.len());
        let group = &mut self.groups[group_idx];
        let insert_at = match group.tenants.binary_search_by_key(&tenant, |t| t.id) {
            Ok(slot) => return (group_idx, slot),
            Err(insert_at) => insert_at,
        };
        let mut detector = ShardedDetector::with_stats(self.shards_per_tenant, self.stats.clone());
        // New tenants join the pool's observability configuration mid-stream, so a
        // late tenant's work is profiled and attributed like everyone else's.
        detector.set_profiler(self.profiler.clone());
        if let Some(interval) = self.attribution_interval {
            detector.enable_cost_attribution(interval);
        }
        for op in &self.journal {
            match op {
                JournalOp::Register(query, window) => {
                    detector
                        .register(query.clone(), *window)
                        .expect("journaled registration was validated");
                }
                JournalOp::Deregister(id) => {
                    detector
                        .deregister(*id)
                        .expect("journaled deregistration was validated");
                }
            }
        }
        // A tenant coming back from quiescence resumes with the floors it was evicted
        // with (restore ratchets, so replayed evictions can only tighten them).
        if let Some(floors) = self.quiesced_floors.remove(&tenant) {
            detector.restore_shard_visible_floors(&floors);
        }
        let entry = Tenant {
            id: tenant,
            detector,
            staged: 0..0,
        };
        group.tenants.insert(insert_at, entry);
        if let Some(instruments) = &group.instruments {
            instruments.tenants.set(group.tenants.len() as u64);
        }
        (group_idx, insert_at)
    }

    /// Demuxes `batch` by runs into the arena (module docs, "Demux"). Afterwards
    /// `runs` lists the batch's runs, every tenant in it is materialised, and each
    /// one's `staged` names its contiguous, arrival-ordered share of `arena`.
    fn stage(&mut self, batch: &[TenantedEvent]) {
        self.runs.clear();
        if let Some(filler) = batch.first() {
            self.arena
                .resize(self.arena.len().max(batch.len()), filler.event);
        }
        // Pass 1, per run: one tenant lookup, one clock update, the tenant's count.
        let (mut start, live) = (0, self.tenant_count());
        for run in batch.chunk_by(|a, b| a.tenant == b.tenant) {
            let (tenant, at) = (run[0].tenant, start..start + run.len());
            start = at.end;
            let (group, slot) = self.ensure_tenant(tenant);
            let ts = run.iter().map(|te| te.event.ts).max().unwrap_or(0);
            let last = self.tenant_last_ts.entry(tenant).or_insert(ts);
            *last = (*last).max(ts);
            self.max_seen_ts = self.max_seen_ts.max(ts);
            let staged = &mut self.groups[group].tenants[slot].staged;
            let first = staged.end == 0;
            staged.end += at.len();
            self.runs.push(Run {
                group,
                slot,
                at,
                first,
            });
        }
        // A tenant materialised mid-batch shifted the slots after it: resolve them
        // again now that every tenant of the batch exists.
        if self.tenant_count() != live {
            for run in &mut self.runs {
                let tenants = &self.groups[run.group].tenants;
                run.slot = tenants
                    .binary_search_by_key(&batch[run.at.start].tenant, |t| t.id)
                    .expect("pass 1 materialised every tenant of the batch");
            }
        }
        // Pass 2, the counting sort: a tenant's first run turns its count into its
        // offset, and every run is copied behind the tenant's earlier ones.
        let mut offset = 0;
        for run in &self.runs {
            let staged = &mut self.groups[run.group].tenants[run.slot].staged;
            if run.first {
                let count = staged.end;
                *staged = offset..offset;
                offset += count;
            }
            let to = staged.end..staged.end + run.at.len();
            staged.end = to.end;
            for (slot, te) in self.arena[to].iter_mut().zip(&batch[run.at.clone()]) {
                *slot = te.event;
            }
        }
    }

    /// Demuxes an interleaved batch to its tenants and processes every tenant's
    /// sub-stream; returns the merged detections in global
    /// `(end_ts, tenant, start_ts, query)` order.
    ///
    /// Per-tenant event order is the batch's arrival order — the pool never reorders,
    /// so each tenant sees exactly the sub-stream its producer emitted. Unknown
    /// tenants are created on the fly (journal replay, see the module docs).
    ///
    /// On failure the returned [`TenantBatchError`] carries the merged detections of
    /// everything processed: tenants are independent, so healthy tenants complete
    /// their full sub-streams and only failing tenants stop (at their own first
    /// invalid event). The error reports the lowest-global-index rejection.
    pub fn on_batch(
        &mut self,
        events: &[TenantedEvent],
    ) -> Result<Vec<TenantDetection>, TenantBatchError> {
        // Failpoint first: an injected fault rejects the whole batch before any
        // logging or state mutation, so a retrying driver (which advances the fault
        // schedule) observes the same stream as a fault-free run.
        if !events.is_empty() {
            if let Some(fault) = self.faults.as_ref().and_then(|p| p.fires("tenant.batch")) {
                return Err(TenantBatchError {
                    emitted: Vec::new(),
                    index: 0,
                    tenant: events[0].tenant,
                    error: GraphError::FaultInjected {
                        point: fault.point,
                        occurrence: fault.occurrence,
                    },
                });
            }
        }
        let _batch_span = self.profiler.as_ref().map(|p| p.enter("tenant.batch"));

        // Quiesce silent tenants before this batch extends the clock. Evictions are
        // logged before they apply, so replay drains the same pending detections at
        // the same point in the op sequence; the trailing detections the flushes
        // emit merge into this batch's output.
        let mut merged = self.quiesce_silent_tenants();

        // Quarantined poison events are dropped at the front door — before the log —
        // so replay sees exactly the filtered stream the live engines processed.
        let kept: Option<Vec<TenantedEvent>> = (!self.quarantined.is_empty()).then(|| {
            let kept = events.iter().filter(|te| !self.is_quarantined(te));
            kept.copied().collect()
        });
        let batch: &[TenantedEvent] = kept.as_deref().unwrap_or(events);

        // Log-before-apply, once at the demux front-end.
        if let Some(durability) = &mut self.durability {
            durability.record_tenant_events(batch);
        }
        let demux_span = self.profiler.as_ref().map(|p| p.enter("tenant.demux"));
        self.stage(batch);
        drop(demux_span);

        let mut failure: Option<(usize, TenantId, GraphError)> = None;
        for (index, group) in self.groups.iter_mut().enumerate() {
            group.process(index, &self.runs, &self.arena, &mut merged, &mut failure);
        }
        Self::sort_global(&mut merged);
        self.tick_instruments();
        match failure {
            None => Ok(merged),
            Some((index, tenant, error)) => {
                // `index` counts the events the quarantine filter kept: map it back to
                // the caller's batch (the identity when nothing is quarantined).
                let mut passed = (0..events.len()).filter(|&i| !self.is_quarantined(&events[i]));
                let index = passed.nth(index).expect("the rejected event was kept");
                self.note_poison_failure(tenant, events[index].event, &error);
                Err(TenantBatchError {
                    emitted: merged,
                    index,
                    tenant,
                    error,
                })
            }
        }
    }

    /// Evicts every materialised tenant whose last event has fallen outside the
    /// effective quiescence horizon, logging each eviction before applying it.
    /// Returns the evicted tenants' trailing detections, unsorted.
    fn quiesce_silent_tenants(&mut self) -> Vec<TenantDetection> {
        let Some(policy) = self.quiescence else {
            return Vec::new();
        };
        // Never evict inside the replay horizon (2 × largest window): a pending
        // match there could still complete, and cutting it would change detections.
        let effective = policy.horizon.max(self.max_window_seen.saturating_mul(2));
        let cutoff = self.max_seen_ts.saturating_sub(effective);
        let mut stale: Vec<(TenantId, u64, usize)> = Vec::new();
        for (group_idx, group) in self.groups.iter().enumerate() {
            for tenant in &group.tenants {
                let last = self.tenant_last_ts.get(&tenant.id).copied().unwrap_or(0);
                if last < cutoff {
                    stale.push((tenant.id, last, group_idx));
                }
            }
        }
        let mut merged = Vec::new();
        for (tenant, last_ts, group) in stale {
            if let Some(durability) = &mut self.durability {
                durability.record_quiesce(tenant);
            }
            merged.extend(self.quiesce_tenant(tenant));
            self.quiesce_total += 1;
            if let Some(instruments) = &self.instruments {
                instruments.quiesced_total.inc();
            }
            if let Some(sink) = &self.sink {
                sink.emit(&TraceEvent::TenantQuiesced {
                    tenant: tenant.0,
                    group,
                    last_ts,
                    horizon: effective,
                });
            }
        }
        merged
    }

    /// Flushes and evicts `tenant`, saving its visibility floors for the lazy
    /// journal-replay recreation on its next event (see the module docs). Returns
    /// the tenant's trailing detections; a tenant that is not materialised is a
    /// no-op. Public because crash recovery replays logged `Quiesce` records through
    /// this method (discarding the detections — the live run already emitted them).
    pub fn quiesce_tenant(&mut self, tenant: TenantId) -> Vec<TenantDetection> {
        let group_idx = group_of(tenant, self.groups.len());
        let group = &mut self.groups[group_idx];
        let Ok(idx) = group.tenants.binary_search_by_key(&tenant, |t| t.id) else {
            return Vec::new();
        };
        let mut detector = group.tenants.remove(idx).detector;
        let out = detector.flush();
        group.detections += out.len() as u64;
        self.quiesced_floors
            .insert(tenant, detector.shard_visible_floors());
        self.failing.remove(&tenant);
        if let Some(instruments) = &group.instruments {
            instruments.tenants.set(group.tenants.len() as u64);
        }
        out.into_iter()
            .map(|d| TenantDetection::of(tenant, d))
            .collect()
    }

    /// Whether `te` matches a dead-letter entry (same tenant, identical event).
    fn is_quarantined(&self, te: &TenantedEvent) -> bool {
        self.quarantined
            .iter()
            .any(|q| q.tenant == te.tenant && q.event == te.event)
    }

    /// Tracks a batch rejection for poison detection: the same tenant rejecting the
    /// identical event `max_failures` times in a row quarantines it. Injected faults
    /// are harness rejections, not data, and are never counted.
    fn note_poison_failure(&mut self, tenant: TenantId, event: StreamEvent, error: &GraphError) {
        let Some(policy) = self.poison else {
            return;
        };
        if matches!(error, GraphError::FaultInjected { .. }) {
            return;
        }
        let failures = match self.failing.get(&tenant) {
            Some((last, count)) if *last == event => count + 1,
            _ => 1,
        };
        if failures < policy.max_failures.max(1) {
            self.failing.insert(tenant, (event, failures));
            return;
        }
        self.failing.remove(&tenant);
        self.quarantined.push_back(QuarantinedEvent {
            tenant,
            event,
            failures,
        });
        while self.quarantined.len() > policy.capacity.max(1) {
            self.quarantined.pop_front();
        }
        self.quarantine_total += 1;
        if let Some(instruments) = &self.instruments {
            instruments.quarantined_total.inc();
        }
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::PoisonQuarantined {
                tenant: tenant.0,
                ts: event.ts,
                quarantined: self.quarantined.len() as u64,
            });
        }
    }

    /// Declares every tenant's stream finished; returns the trailing detections in
    /// global `(end_ts, tenant, start_ts, query)` order.
    pub fn flush(&mut self) -> Vec<TenantDetection> {
        let mut merged = Vec::new();
        for group in &mut self.groups {
            for tenant in &mut group.tenants {
                let out = tenant.detector.flush();
                group.detections += out.len() as u64;
                merged.extend(out.into_iter().map(|d| TenantDetection::of(tenant.id, d)));
            }
        }
        Self::sort_global(&mut merged);
        self.tick_instruments();
        merged
    }

    /// Global merge order: ascending completion time, tenant id as the deterministic
    /// tie-break (cross-tenant timestamp ties are routine).
    fn sort_global(detections: &mut [TenantDetection]) {
        detections.sort_unstable_by_key(|d| (d.end_ts, d.tenant, d.start_ts, d.query));
    }

    /// Brings attached group counters up to the groups' lifetime totals. Counters are
    /// monotonic, so the pool tracks totals itself and adds only the delta.
    fn tick_instruments(&mut self) {
        for group in &mut self.groups {
            let Some(instruments) = &group.instruments else {
                continue;
            };
            let seen_events = instruments.events_total.get();
            let seen_detections = instruments.detections_total.get();
            instruments
                .events_total
                .add(group.events.saturating_sub(seen_events));
            instruments
                .detections_total
                .add(group.detections.saturating_sub(seen_detections));
        }
    }
}

impl Engine for TenantPool {
    type Event = TenantedEvent;
    type Detection = TenantDetection;
    type BatchError = TenantBatchError;

    fn build((groups, shards): (usize, usize), stats: LabelPairStats) -> Self {
        TenantPool::with_stats(groups, shards, stats)
    }
    fn shape(&self) -> (usize, usize) {
        (self.groups.len(), self.shards_per_tenant)
    }
    fn stats(&self) -> &LabelPairStats {
        &self.stats
    }
    fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<Registration, RegisterError> {
        TenantPool::register(self, query, window)
    }
    fn deregister(&mut self, query: QueryId) -> Result<(), DeregisterError> {
        TenantPool::deregister(self, query)
    }
    fn on_batch(
        &mut self,
        events: &[TenantedEvent],
    ) -> Result<Vec<TenantDetection>, TenantBatchError> {
        TenantPool::on_batch(self, events)
    }
    fn flush(&mut self) -> Vec<TenantDetection> {
        TenantPool::flush(self)
    }
    fn quiesce(&mut self, tenant: TenantId) -> Vec<TenantDetection> {
        self.quiesce_tenant(tenant)
    }
    fn visible_floors(&self) -> Vec<(TenantId, Vec<u64>)> {
        self.tenant_visible_floors()
    }
    fn restore_visible_floors(&mut self, floors: &[(TenantId, Vec<u64>)]) {
        self.restore_tenant_visible_floors(floors);
    }
    fn set_durability(&mut self, sink: Option<Box<dyn DurabilitySink>>) {
        TenantPool::set_durability(self, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use tgraph::pattern::TemporalPattern;
    use tgraph::Label;

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

    fn te(tenant: u64, event: StreamEvent) -> TenantedEvent {
        TenantedEvent {
            tenant: TenantId(tenant),
            event,
        }
    }

    fn edge_query() -> CompiledQuery {
        CompiledQuery::Temporal(TemporalPattern::single_edge(l(0), l(1)))
    }

    fn ab_then_c() -> CompiledQuery {
        CompiledQuery::Temporal(
            TemporalPattern::single_edge(l(0), l(1))
                .grow_forward(1, l(2))
                .unwrap(),
        )
    }

    #[test]
    fn router_is_deterministic_and_covers_all_groups() {
        for t in 0..64 {
            let g = group_of(TenantId(t), 4);
            assert!(g < 4);
            assert_eq!(g, group_of(TenantId(t), 4), "same tenant, same group");
        }
        // Sequential ids spread over every group (splitmix64 mixes low entropy).
        let hit: std::collections::HashSet<usize> =
            (0..64).map(|t| group_of(TenantId(t), 4)).collect();
        assert_eq!(hit.len(), 4, "64 sequential tenants cover all 4 groups");
        // One group accepts everything.
        assert_eq!(group_of(TenantId(123), 1), 0);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_are_rejected() {
        let _ = TenantPool::new(0, 1);
    }

    #[test]
    fn tenants_are_isolated_and_detections_carry_their_tenant() {
        let mut pool = TenantPool::new(2, 1);
        let q = pool.register(edge_query(), 5).unwrap().id;
        // Tenant 0's two events straddle tenant 1's: node ids collide across tenants
        // but must not interact, and tenant 1's lower timestamp is legal mid-batch.
        let batch = [
            te(0, ev(10, 0, 1, 0, 1)),
            te(1, ev(3, 0, 1, 0, 1)),
            te(0, ev(11, 0, 1, 0, 1)),
        ];
        let out = pool.on_batch(&batch).unwrap();
        assert_eq!(
            out,
            vec![
                TenantDetection {
                    tenant: TenantId(1),
                    query: q,
                    start_ts: 3,
                    end_ts: 3
                },
                TenantDetection {
                    tenant: TenantId(0),
                    query: q,
                    start_ts: 10,
                    end_ts: 10
                },
                TenantDetection {
                    tenant: TenantId(0),
                    query: q,
                    start_ts: 11,
                    end_ts: 11
                },
            ]
        );
        assert_eq!(pool.tenant_count(), 2);
    }

    #[test]
    fn merge_order_breaks_timestamp_ties_by_tenant() {
        let mut pool = TenantPool::new(1, 1);
        let q = pool.register(edge_query(), 5).unwrap().id;
        // Both tenants complete an instance at ts 7; tenant id orders the tie.
        let batch = [te(5, ev(7, 0, 1, 0, 1)), te(2, ev(7, 0, 1, 0, 1))];
        let out = pool.on_batch(&batch).unwrap();
        let key: Vec<(u64, u64)> = out.iter().map(|d| (d.end_ts, d.tenant.0)).collect();
        assert_eq!(key, vec![(7, 2), (7, 5)]);
        assert_eq!(out[0].query, q);
    }

    #[test]
    fn late_tenants_replay_the_registration_journal() {
        let mut pool = TenantPool::new(2, 2);
        let qa = pool.register(edge_query(), 5).unwrap().id;
        let qb = pool.register(ab_then_c(), 5).unwrap().id;
        // Tenant 0 materialises now; deregistering qa afterwards fans out to it.
        let first = pool.on_batch(&[te(0, ev(1, 0, 1, 0, 1))]).unwrap();
        assert_eq!(first.len(), 1);
        pool.deregister(qa).unwrap();
        // Tenant 7 materialises *after* the deregistration: journal replay must leave
        // it with qb only, under the same global id.
        let out = pool
            .on_batch(&[
                te(7, ev(1, 0, 1, 0, 1)),
                te(7, ev(2, 1, 2, 1, 2)),
                te(0, ev(2, 0, 1, 0, 1)),
            ])
            .unwrap();
        assert_eq!(
            out,
            vec![TenantDetection {
                tenant: TenantId(7),
                query: qb,
                start_ts: 1,
                end_ts: 2
            }],
            "qa is gone on old and new tenants alike; qb matches under its global id"
        );
        assert_eq!(pool.query_count(), 1);
        assert!(
            pool.deregister(qa).is_err() && pool.deregister(qb).is_ok(),
            "qa is no longer live; qb still was"
        );
    }

    #[test]
    fn mid_stream_registration_reports_the_pessimistic_visible_from() {
        let mut pool = TenantPool::new(1, 1);
        // Before any tenant exists, a registration sees everything (vacuously).
        assert_eq!(pool.register(edge_query(), 5).unwrap().visible_from, 0);
        pool.on_batch(&[te(0, ev(10, 0, 1, 0, 1)), te(1, ev(4, 0, 1, 0, 1))])
            .unwrap();
        // Mid-stream: tenant 0 is at ts 10, tenant 1 at ts 4. The pool-wide floor is
        // the worst (largest) per-tenant floor.
        let reg = pool.register(ab_then_c(), 5).unwrap();
        let mut single = Detector::new();
        single.register(edge_query(), 5).unwrap();
        single.on_event(ev(10, 0, 1, 0, 1)).unwrap();
        let expected = single.register(ab_then_c(), 5).unwrap().visible_from;
        assert_eq!(reg.visible_from, expected);
    }

    #[test]
    fn failing_tenant_does_not_abort_healthy_tenants() {
        let mut pool = TenantPool::new(2, 1);
        let q = pool.register(edge_query(), 5).unwrap().id;
        let batch = [
            te(0, ev(5, 0, 1, 0, 1)),
            te(1, ev(5, 0, 1, 0, 1)),
            te(0, ev(4, 2, 3, 0, 1)), // tenant 0 goes backwards: rejected
            te(1, ev(6, 0, 1, 0, 1)), // tenant 1 is healthy and completes
        ];
        let err = pool.on_batch(&batch).unwrap_err();
        assert_eq!(err.index, 2, "global index of the rejection");
        assert_eq!(err.tenant, TenantId(0));
        assert!(matches!(
            err.error,
            GraphError::NonMonotonicTimestamp { .. }
        ));
        let key: Vec<(u64, u64)> = err.emitted.iter().map(|d| (d.tenant.0, d.end_ts)).collect();
        assert_eq!(
            key,
            vec![(0, 5), (1, 5), (1, 6)],
            "tenant 0's prefix and ALL of tenant 1 are carried"
        );
        // The pool stays usable; tenant 0 resumes from its last good timestamp.
        let out = pool.on_batch(&[te(0, ev(6, 0, 1, 0, 1))]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query, q);
    }

    #[test]
    fn flush_merges_trailing_detections_across_tenants() {
        let mut pool = TenantPool::new(2, 2);
        pool.register(
            CompiledQuery::Static(tgminer::baselines::gspan::StaticPattern {
                labels: vec![l(0), l(1)],
                edges: vec![(0, 1)],
            }),
            5,
        )
        .unwrap();
        // Static queries emit at window close; with no later event the instances are
        // only reported by flush.
        pool.on_batch(&[te(0, ev(1, 0, 1, 0, 1)), te(1, ev(2, 0, 1, 0, 1))])
            .unwrap();
        let out = pool.flush();
        let tenants: Vec<u64> = out.iter().map(|d| d.tenant.0).collect();
        assert_eq!(tenants, vec![0, 1]);
        assert!(pool.flush().is_empty(), "flush drains");
    }

    #[test]
    fn group_stats_and_instruments_track_processing() {
        let mut pool = TenantPool::new(2, 1);
        pool.register(edge_query(), 5).unwrap();
        let registry = MetricsRegistry::new();
        pool.instrument(&registry);
        let batch: Vec<TenantedEvent> = (0..8).map(|t| te(t, ev(1, 0, 1, 0, 1))).collect();
        let out = pool.on_batch(&batch).unwrap();
        assert_eq!(out.len(), 8);
        let stats = pool.group_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|s| s.events).sum::<u64>(), 8);
        assert_eq!(stats.iter().map(|s| s.detections).sum::<u64>(), 8);
        assert_eq!(stats.iter().map(|s| s.tenants).sum::<usize>(), 8);
        let snap = registry.snapshot();
        for stat in &stats {
            let g = stat.group;
            assert_eq!(
                snap.counter(&format!("tenant.group{g}.events_total")),
                Some(stat.events)
            );
            assert_eq!(
                snap.counter(&format!("tenant.group{g}.detections_total")),
                Some(stat.detections)
            );
            assert_eq!(
                snap.gauge(&format!("tenant.group{g}.tenants"))
                    .map(|(v, _)| v),
                Some(stat.tenants as u64)
            );
        }
        // Instrumentation is inert: an uninstrumented pool gives identical detections.
        let mut plain = TenantPool::new(2, 1);
        plain.register(edge_query(), 5).unwrap();
        assert_eq!(plain.on_batch(&batch).unwrap(), out);
    }

    #[test]
    fn cost_report_sums_across_tenants_and_covers_late_arrivals() {
        let mut pool = TenantPool::new(2, 1);
        let q = pool.register(edge_query(), 5).unwrap().id;
        assert!(pool.query_cost_report().is_none());
        pool.enable_cost_attribution(1);
        let profiler = Profiler::new();
        pool.set_profiler(Some(profiler.clone()));
        pool.on_batch(&[
            te(0, ev(1, 0, 1, 0, 1)),
            te(0, ev(2, 0, 1, 0, 1)),
            te(1, ev(1, 0, 1, 0, 1)),
        ])
        .unwrap();
        let report = pool.query_cost_report().expect("attribution is on");
        assert_eq!(report.rows.len(), 1);
        assert_eq!(
            report.get(q).unwrap().spawned,
            3,
            "rows sum over tenants: 2 from tenant 0 + 1 from tenant 1"
        );
        assert_eq!(report.get(q).unwrap().detections, 3);
        // A tenant materialised *after* enabling joins the measurement and the
        // shared profiler mid-stream.
        pool.on_batch(&[te(7, ev(1, 0, 1, 0, 1))]).unwrap();
        let report = pool.query_cost_report().unwrap();
        assert_eq!(report.get(q).unwrap().spawned, 4);
        let snapshot = profiler.snapshot();
        assert!(snapshot.self_ns("tenant.batch") > 0);
        assert!(snapshot.self_ns("tenant.batch;tenant.demux") > 0);
        assert!(
            snapshot
                .spans
                .keys()
                .any(|path| path.contains("pool.batch")),
            "tenant detectors share the pool profiler"
        );
        // Attribution and profiling are inert: a plain pool detects identically.
        let mut plain = TenantPool::new(2, 1);
        plain.register(edge_query(), 5).unwrap();
        let out = plain
            .on_batch(&[
                te(0, ev(1, 0, 1, 0, 1)),
                te(0, ev(2, 0, 1, 0, 1)),
                te(1, ev(1, 0, 1, 0, 1)),
            ])
            .unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn tenant_batch_failpoint_is_a_clean_typed_rejection() {
        let mut pool = TenantPool::new(2, 1);
        let q = pool.register(edge_query(), 5).unwrap().id;
        let plan = FaultPlan::new(7);
        plan.arm("tenant.batch", faults::FaultSchedule::OneShotAt(1));
        pool.set_fault_plan(Some(plan));
        let batch = [te(0, ev(1, 0, 1, 0, 1)), te(1, ev(1, 0, 1, 0, 1))];
        let err = pool.on_batch(&batch).unwrap_err();
        assert!(err.emitted.is_empty(), "rejected before any processing");
        assert_eq!(
            err.tenant,
            TenantId(0),
            "attributed to the batch's first event"
        );
        assert!(matches!(
            err.error,
            GraphError::FaultInjected { ref point, occurrence: 1 } if point == "tenant.batch"
        ));
        assert_eq!(pool.tenant_count(), 0, "nothing was mutated");
        // Re-delivery advances the schedule and matches a fault-free run exactly.
        let out = pool.on_batch(&batch).unwrap();
        assert_eq!(out[0].query, q);
        let mut plain = TenantPool::new(2, 1);
        plain.register(edge_query(), 5).unwrap();
        assert_eq!(out, plain.on_batch(&batch).unwrap());
    }

    #[test]
    fn poison_events_are_quarantined_after_repeated_identical_rejections() {
        let mut pool = TenantPool::new(1, 1);
        pool.register(edge_query(), 5).unwrap();
        pool.set_poison_policy(Some(PoisonPolicy {
            max_failures: 2,
            capacity: 4,
        }));
        let sink = std::sync::Arc::new(obs::CollectingSink::new());
        pool.set_trace_sink(Some(SharedSink::from(sink.clone())));
        let registry = MetricsRegistry::new();
        pool.instrument(&registry);
        pool.on_batch(&[te(0, ev(10, 0, 1, 0, 1))]).unwrap();
        // ts 4 goes backwards for tenant 0: rejected identically on every delivery,
        // and it shadows the rest of the tenant's sub-stream each time.
        let batch = [te(0, ev(4, 2, 3, 0, 1)), te(0, ev(11, 0, 1, 0, 1))];
        assert!(pool.on_batch(&batch).is_err());
        assert!(
            pool.quarantined().is_empty(),
            "one failure is not poison yet"
        );
        assert!(pool.on_batch(&batch).is_err());
        let held = pool.quarantined();
        assert_eq!(held.len(), 1);
        assert_eq!(held[0].tenant, TenantId(0));
        assert_eq!(held[0].event.ts, 4);
        assert_eq!(held[0].failures, 2);
        // Third delivery: the poison event is dropped at the front door and the
        // tenant's remaining sub-stream finally processes.
        let out = pool.on_batch(&batch).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].end_ts, 11);
        assert!(sink.events().iter().any(|e| matches!(
            e,
            TraceEvent::PoisonQuarantined {
                tenant: 0,
                ts: 4,
                quarantined: 1
            }
        )));
        assert_eq!(
            registry.snapshot().counter("tenant.quarantined_total"),
            Some(1)
        );
    }

    #[test]
    fn silent_tenants_are_quiesced_flushed_and_recreated() {
        let static_q = || {
            CompiledQuery::Static(tgminer::baselines::gspan::StaticPattern {
                labels: vec![l(0), l(1)],
                edges: vec![(0, 1)],
            })
        };
        let batches: Vec<Vec<TenantedEvent>> = vec![
            vec![te(1, ev(1, 0, 1, 0, 1))],
            vec![te(2, ev(50, 0, 1, 0, 1))],
            vec![te(2, ev(51, 2, 3, 0, 1))],
            vec![te(1, ev(60, 4, 5, 0, 1))],
        ];
        let mut pool = TenantPool::new(1, 1);
        pool.register(static_q(), 5).unwrap();
        pool.set_quiescence(Some(QuiescencePolicy { horizon: 10 }));
        let sink = std::sync::Arc::new(obs::CollectingSink::new());
        pool.set_trace_sink(Some(SharedSink::from(sink.clone())));
        let registry = MetricsRegistry::new();
        pool.instrument(&registry);
        let mut all = Vec::new();
        for batch in &batches {
            all.extend(pool.on_batch(batch).unwrap());
        }
        // Tenant 1 fell outside the horizon once tenant 2 advanced the clock: it was
        // evicted at the start of the third batch, its pending static detection
        // flushed into that batch's output rather than lost.
        assert!(sink.events().iter().any(|e| matches!(
            e,
            TraceEvent::TenantQuiesced {
                tenant: 1,
                last_ts: 1,
                horizon: 10,
                ..
            }
        )));
        assert_eq!(
            registry.snapshot().counter("tenant.quiesced_total"),
            Some(1)
        );
        assert_eq!(
            pool.tenant_count(),
            2,
            "tenant 1 re-materialised on its ts-60 event"
        );
        all.extend(pool.flush());
        // Union parity: a pool that never quiesces reports the same detections.
        let mut plain = TenantPool::new(1, 1);
        plain.register(static_q(), 5).unwrap();
        let mut expected = Vec::new();
        for batch in &batches {
            expected.extend(plain.on_batch(batch).unwrap());
        }
        expected.extend(plain.flush());
        all.sort_unstable();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn a_runs_newest_timestamp_is_its_tenants_clock() {
        let mut pool = TenantPool::new(1, 1);
        pool.register(edge_query(), 5).unwrap();
        pool.set_quiescence(Some(QuiescencePolicy { horizon: 10 }));
        // Tenant 1's one run spans ts 1..=100: its silence is measured from 100, the
        // run's newest event — from its first, the next sweep would evict it.
        pool.on_batch(&[
            te(1, ev(1, 0, 1, 0, 1)),
            te(1, ev(100, 0, 1, 0, 1)),
            te(2, ev(100, 0, 1, 0, 1)),
        ])
        .unwrap();
        pool.on_batch(&[te(2, ev(101, 0, 1, 0, 1))]).unwrap();
        assert_eq!(
            pool.tenant_count(),
            2,
            "nobody has been silent for 10 ticks"
        );
    }

    #[test]
    fn quiesced_floors_survive_for_snapshots_until_recreation() {
        let mut pool = TenantPool::new(1, 1);
        pool.register(edge_query(), 5).unwrap();
        pool.set_quiescence(Some(QuiescencePolicy { horizon: 10 }));
        pool.on_batch(&[te(1, ev(1, 0, 1, 0, 1))]).unwrap();
        pool.on_batch(&[te(2, ev(100, 0, 1, 0, 1))]).unwrap();
        // Sweep runs at batch start: tenant 1 is evicted on the *next* batch.
        pool.on_batch(&[te(2, ev(101, 0, 1, 0, 1))]).unwrap();
        assert_eq!(pool.tenant_count(), 1);
        let floors = pool.tenant_visible_floors();
        assert!(
            floors.iter().any(|(t, _)| *t == TenantId(1)),
            "evicted tenant's floors stay visible to snapshots"
        );
        // Recreation consumes the saved floors.
        pool.on_batch(&[te(1, ev(120, 0, 1, 0, 1))]).unwrap();
        assert_eq!(pool.tenant_count(), 2);
    }

    #[test]
    fn deregistering_unknown_ids_is_a_typed_error() {
        let mut pool = TenantPool::new(1, 1);
        assert!(matches!(
            pool.deregister(9),
            Err(DeregisterError::UnknownQuery { id: 9 })
        ));
        let q = pool.register(edge_query(), 5).unwrap().id;
        pool.deregister(q).unwrap();
        assert!(matches!(
            pool.deregister(q),
            Err(DeregisterError::UnknownQuery { .. })
        ));
        // Rejected registrations leave no journal residue on future tenants.
        assert!(pool.register(edge_query(), 0).is_err());
        pool.on_batch(&[te(0, ev(1, 0, 1, 0, 1))]).unwrap();
        assert_eq!(pool.tenant_count(), 1);
        assert_eq!(pool.query_count(), 0);
    }
}
