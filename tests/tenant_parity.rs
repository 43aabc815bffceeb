//! The tenant-parity law: for every tenant T and every demux configuration (group
//! count, shards per group, interleaving of the other tenants' events), the detections
//! a [`TenantPool`] reports for T are identical to running T's events alone through a
//! single [`Detector`] with the same registrations.
//!
//! Three layers of evidence:
//!
//! * property tests over random per-tenant t-connected graphs interleaved by a
//!   proptest-generated pick sequence (so the interleaving itself shrinks on failure),
//!   sweeping group counts, shards per group, and batch sizes;
//! * a fixed sweep on generated `TestData` with genuinely mined queries: 3 tenants
//!   carrying identical workloads through 1/2/4 tenant-groups × 1/2/4 query shards,
//!   pinned against the isolated single-detector run;
//! * the front door against a per-event reference: batches cut into runs of 1, 2, 16 or
//!   everything, over up to 64 tenants, with invalid events and a live quarantine — the
//!   pool's result (`Ok` or every field of the error), its dead-letter buffer and its
//!   per-group event counts equal feeding each event, in batch order, to an isolated
//!   per-tenant [`Detector`] that stops at its tenant's first rejection.

mod common;

use behavior_query::obs::{QueryCost, QueryCostReport};
use behavior_query::query::Interval;
use behavior_query::stream::{
    CompiledQuery, Detection, Detector, Engine, PoisonPolicy, QuarantinedEvent, ShardedDetector,
    TenantBatchError, TenantDetection, TenantPool,
};
use behavior_query::syscall::{
    events_of_graph, Behavior, DatasetConfig, TenantedStreamSource, TestData, TestDataConfig,
    TrainingData,
};
use behavior_query::tgminer::baselines::gspan::StaticPattern;
use behavior_query::tgminer::baselines::nodeset::NodeSetQuery;
use behavior_query::tgraph::generator::{
    random_pattern, random_t_connected_graph, RandomGraphSpec,
};
use behavior_query::tgraph::pattern::TemporalPattern;
use behavior_query::tgraph::{GraphError, Label, StreamEvent, TenantId, TenantedEvent};
use common::{interleave, picks_from_seed, query_trio};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::OnceLock;

/// Runs one tenant's events alone through a single-threaded [`Detector`], returning
/// each query's detections as a sorted interval list — the isolated baseline the
/// parity law pins the pool against.
fn isolated_intervals(
    events: &[StreamEvent],
    queries: &[(CompiledQuery, u64)],
) -> Vec<Vec<Interval>> {
    let mut detector = Detector::new();
    for (query, window) in queries {
        detector
            .register(query.clone(), *window)
            .expect("parity queries are valid");
    }
    let mut per_query: Vec<Vec<Interval>> = vec![Vec::new(); queries.len()];
    let mut sink = |detections: Vec<Detection>| {
        for d in detections {
            per_query[d.query].push((d.start_ts, d.end_ts));
        }
    };
    for chunk in events.chunks(64) {
        sink(detector.on_batch(chunk).expect("tenant stream is valid"));
    }
    sink(detector.flush());
    for intervals in &mut per_query {
        intervals.sort_unstable();
    }
    per_query
}

/// Runs an interleaved multi-tenant stream through a [`TenantPool`], returning each
/// tenant's detections as per-query sorted interval lists.
fn pool_intervals(
    interleaved: &[TenantedEvent],
    tenants: &[TenantId],
    queries: &[(CompiledQuery, u64)],
    groups: usize,
    shards: usize,
    batch: usize,
) -> Vec<Vec<Vec<Interval>>> {
    let mut pool = TenantPool::new(groups, shards);
    for (query, window) in queries {
        pool.register(query.clone(), *window)
            .expect("parity queries are valid");
    }
    let mut detections: Vec<TenantDetection> = Vec::new();
    for chunk in interleaved.chunks(batch) {
        detections.extend(pool.on_batch(chunk).expect("tenant streams are valid"));
    }
    detections.extend(pool.flush());
    let mut per_tenant: Vec<Vec<Vec<Interval>>> =
        vec![vec![Vec::new(); queries.len()]; tenants.len()];
    for d in detections {
        let t = tenants
            .iter()
            .position(|&t| t == d.tenant)
            .expect("pool never invents tenants");
        per_tenant[t][d.query].push((d.start_ts, d.end_ts));
    }
    for tenant in &mut per_tenant {
        for intervals in tenant {
            intervals.sort_unstable();
        }
    }
    per_tenant
}

/// Derives the `Ntemp` (order-free) version of a temporal pattern.
fn static_of(pattern: &TemporalPattern) -> StaticPattern {
    StaticPattern {
        labels: pattern.labels().to_vec(),
        edges: pattern.edges().iter().map(|e| (e.src, e.dst)).collect(),
    }
}

/// Derives the keyword version of a temporal pattern.
fn nodeset_of(pattern: &TemporalPattern) -> NodeSetQuery {
    NodeSetQuery {
        labels: pattern.labels().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The law on random tenants: arbitrary interleavings of N independent random
    /// streams, demuxed through any (groups, shards, batch) configuration, give every
    /// tenant exactly its isolated single-detector detections.
    #[test]
    fn random_interleavings_preserve_tenant_parity(
        seed in 0u64..10_000,
        tenant_count in 2usize..5,
        pedges in 1usize..4,
        window in 1u64..25,
        batch in 1usize..17,
        groups in 1usize..5,
        shards in 1usize..3,
        pick_seed in 0u64..u64::MAX,
    ) {
        // Distinct seeds per tenant: the streams genuinely differ, and their
        // timestamp domains overlap (collisions across tenants are the norm).
        let streams: Vec<(TenantId, Vec<StreamEvent>)> = (0..tenant_count)
            .map(|t| {
                let graph = random_t_connected_graph(
                    seed.wrapping_add(t as u64 * 7919),
                    RandomGraphSpec { nodes: 8, edges: 20, label_alphabet: 3 },
                );
                (TenantId(t as u64), events_of_graph(&graph))
            })
            .collect();
        let pattern = random_pattern(seed.wrapping_add(13), pedges, 3);
        let queries = vec![
            (CompiledQuery::Temporal(pattern.clone()), window),
            (CompiledQuery::Static(static_of(&pattern)), window),
            (CompiledQuery::NodeSet(nodeset_of(&pattern)), window),
        ];
        let picks = picks_from_seed(pick_seed, 32);
        let interleaved = interleave(&streams, &picks);
        let tenants: Vec<TenantId> = streams.iter().map(|(t, _)| *t).collect();
        let pooled = pool_intervals(&interleaved, &tenants, &queries, groups, shards, batch);
        for (t, (tenant, events)) in streams.iter().enumerate() {
            let isolated = isolated_intervals(events, &queries);
            prop_assert_eq!(
                &pooled[t], &isolated,
                "tenant {} diverged from its isolated run (seed {}, {} groups, {} shards, batch {})",
                tenant, seed, groups, shards, batch
            );
        }
    }
}

/// The group a tenant hashes to (splitmix64 finalizer modulo the group count), spelled
/// out here because placement is part of the engine's reproducibility contract.
fn group_of(tenant: TenantId, groups: usize) -> usize {
    let mut x = tenant.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x ^ (x >> 31)) % groups as u64) as usize
}

fn attributed(tenant: TenantId, d: Detection) -> TenantDetection {
    TenantDetection {
        tenant,
        query: d.query,
        start_ts: d.start_ts,
        end_ts: d.end_ts,
    }
}

/// What the pool's front door must equal: every event, in batch order, goes to its
/// tenant's own [`Detector`] unless it is quarantined or its tenant already rejected an
/// event of this batch. Poison policy `max_failures: 1`, so the reported rejection is
/// quarantined at once.
struct Reference {
    queries: Vec<(CompiledQuery, u64)>,
    detectors: BTreeMap<TenantId, Detector>,
    /// Dead-letter capacity; `None` without a poison policy.
    capacity: Option<usize>,
    quarantined: VecDeque<QuarantinedEvent>,
    group_events: Vec<u64>,
}

impl Reference {
    fn on_batch(
        &mut self,
        batch: &[TenantedEvent],
    ) -> Result<Vec<TenantDetection>, TenantBatchError> {
        let mut emitted = Vec::new();
        let mut failure: Option<(usize, TenantId, GraphError)> = None;
        let mut stopped = BTreeSet::new();
        for (index, te) in batch.iter().enumerate() {
            let dropped = self
                .quarantined
                .iter()
                .any(|q| q.tenant == te.tenant && q.event == te.event);
            if dropped || stopped.contains(&te.tenant) {
                continue;
            }
            let detector = self.detectors.entry(te.tenant).or_insert_with(|| {
                let mut detector = Detector::new();
                for (query, window) in &self.queries {
                    detector.register(query.clone(), *window).expect("valid");
                }
                detector
            });
            match detector.on_event(te.event) {
                Ok(out) => {
                    let group = group_of(te.tenant, self.group_events.len());
                    self.group_events[group] += 1;
                    emitted.extend(out.into_iter().map(|d| attributed(te.tenant, d)));
                }
                Err(error) => {
                    stopped.insert(te.tenant);
                    failure.get_or_insert((index, te.tenant, error));
                }
            }
        }
        emitted.sort_unstable_by_key(|d| (d.end_ts, d.tenant, d.start_ts, d.query));
        let Some((index, tenant, error)) = failure else {
            return Ok(emitted);
        };
        if let Some(capacity) = self.capacity {
            self.quarantined.push_back(QuarantinedEvent {
                tenant,
                event: batch[index].event,
                failures: 1,
            });
            while self.quarantined.len() > capacity {
                self.quarantined.pop_front();
            }
        }
        Err(TenantBatchError {
            emitted,
            index,
            tenant,
            error,
        })
    }

    fn flush(&mut self) -> Vec<TenantDetection> {
        let mut out = Vec::new();
        for (tenant, detector) in &mut self.detectors {
            let trailing = detector.flush();
            out.extend(trailing.into_iter().map(|d| attributed(*tenant, d)));
        }
        out.sort_unstable_by_key(|d| (d.end_ts, d.tenant, d.start_ts, d.query));
        out
    }
}

/// A seeded producer of run-structured batches over a fixed tenant set. Valid events
/// keep each tenant's clock non-decreasing and label node `n` as `n % 3`.
struct Producer {
    rng: StdRng,
    tenants: Vec<TenantId>,
    clocks: BTreeMap<TenantId, u64>,
}

impl Producer {
    fn next_event(&mut self, tenant: TenantId) -> TenantedEvent {
        let clock = self.clocks.entry(tenant).or_insert(10);
        *clock += self.rng.gen_range(0..3u64);
        let src = self.rng.gen_range(0..6usize);
        let dst = (src + self.rng.gen_range(1..6usize)) % 6;
        TenantedEvent {
            tenant,
            event: StreamEvent {
                ts: *clock,
                src,
                dst,
                src_label: Label(src as u32 % 3),
                dst_label: Label(dst as u32 % 3),
            },
        }
    }

    /// `size` events in runs of `run_len` (the last may be shorter), each run a random
    /// tenant's next events. Then `invalid` events are spoiled — a timestamp of 0 or a
    /// self-loop carrying two labels, at a random run's first event, its last, or one
    /// inside — and every event of `poison` is spliced in at a random position.
    fn batch(
        &mut self,
        size: usize,
        run_len: usize,
        invalid: usize,
        poison: &[TenantedEvent],
    ) -> Vec<TenantedEvent> {
        let mut batch = Vec::with_capacity(size + poison.len());
        let mut runs = Vec::new();
        while batch.len() < size {
            let tenant = *self.tenants.choose(&mut self.rng).expect("tenants");
            let len = run_len.min(size - batch.len());
            runs.push(batch.len()..batch.len() + len);
            batch.extend((0..len).map(|_| self.next_event(tenant)));
        }
        for _ in 0..invalid {
            let run = runs.choose(&mut self.rng).expect("a run").clone();
            let at = match self.rng.gen_range(0..3) {
                0 => run.start,
                1 => run.end - 1,
                _ => self.rng.gen_range(run),
            };
            let event = &mut batch[at].event;
            if self.rng.gen_bool(0.5) {
                event.ts = 0;
            } else {
                (event.dst, event.dst_label) = (event.src, Label(7));
            }
        }
        for te in poison {
            let at = self.rng.gen_range(0..batch.len() + 1);
            batch.insert(at, *te);
        }
        batch
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The front door against the per-event reference (see the file docs): a warm-up
    /// batch materialises some tenants — the rest appear mid-batch, shifting their
    /// group's positions — then three generated batches, then a flush.
    #[test]
    fn runs_invalid_events_and_quarantine_match_a_per_event_reference(
        seed in 0u64..u64::MAX,
        tenant_count in 1usize..65,
        run_choice in 0usize..4,
        size in 1usize..301,
        invalid in 0usize..3,
        quarantine in 0usize..2,
        groups in 1usize..4,
        shards in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Sparse ids in shuffled order: first appearance is not tenant-id order.
        let mut tenants: Vec<TenantId> =
            (0..tenant_count as u64).map(|t| TenantId(t * 7 + 3)).collect();
        tenants.shuffle(&mut rng);
        let queries = query_trio(seed, 2, 8);
        let mut pool = TenantPool::new(groups, shards);
        for (query, window) in &queries {
            pool.register(query.clone(), *window).expect("valid");
        }
        let capacity = (quarantine == 1).then_some(2);
        pool.set_poison_policy(capacity.map(|capacity| PoisonPolicy { max_failures: 1, capacity }));
        let mut reference = Reference {
            queries,
            detectors: BTreeMap::new(),
            capacity,
            quarantined: VecDeque::new(),
            group_events: vec![0; groups],
        };
        let warm = tenants[..rng.gen_range(1..tenants.len() + 1)].to_vec();
        let mut producer = Producer { rng, tenants: warm, clocks: BTreeMap::new() };
        let mut batches = vec![producer.batch(size, 2, 0, &[])];
        // With a policy on, one warmed-up tenant's clock goes backwards: rejected once,
        // quarantined, and from then on dropped wherever later batches repeat it.
        let mut poison = Vec::new();
        if capacity.is_some() {
            let mut te = producer.next_event(producer.tenants[0]);
            te.event.ts = 0;
            batches.push(vec![te]);
            poison = vec![te; 3];
        }
        producer.tenants = tenants;
        let run_len = [1, 2, 16, size][run_choice];
        for _ in 0..3 {
            batches.push(producer.batch(size, run_len, invalid, &poison));
        }
        for (b, batch) in batches.iter().enumerate() {
            let expected = reference.on_batch(batch);
            prop_assert_eq!(pool.on_batch(batch), expected, "batch {} of seed {}", b, seed);
            prop_assert_eq!(
                pool.quarantined(),
                reference.quarantined.iter().copied().collect::<Vec<_>>()
            );
            let events: Vec<u64> = pool.group_stats().iter().map(|s| s.events).collect();
            prop_assert_eq!(&events, &reference.group_events, "batch {} of seed {}", b, seed);
        }
        prop_assert_eq!(pool.flush(), reference.flush());
    }
}

/// The mined-query fixture: tiny training + test data and one query of each type for
/// two behaviors, plus the isolated single-detector baseline. Mining runs once.
struct Fixture {
    test: TestData,
    queries: Vec<(CompiledQuery, u64)>,
    isolated: Vec<Vec<Interval>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        use behavior_query::query::{formulate_queries, QueryOptions};
        let training = TrainingData::generate(&DatasetConfig::tiny());
        let test = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
        let options = QueryOptions {
            query_size: 4,
            top_queries: 1,
            miner_top_k: 8,
            cap_per_graph: 32,
        };
        let window = test.max_duration;
        let mut queries: Vec<(CompiledQuery, u64)> = Vec::new();
        for behavior in [Behavior::GzipDecompress, Behavior::SshdLogin] {
            let formulated = formulate_queries(&training, behavior, &options);
            let temporal = formulated
                .temporal
                .first()
                .expect("mined a pattern")
                .clone();
            queries.push((CompiledQuery::Temporal(temporal), window));
            if let Some(ntemp) = formulated.nontemporal.first() {
                queries.push((CompiledQuery::Static(ntemp.clone()), window));
            }
            queries.push((CompiledQuery::NodeSet(formulated.nodeset.clone()), window));
        }
        let isolated = isolated_intervals(&events_of_graph(&test.graph), &queries);
        Fixture {
            test,
            queries,
            isolated,
        }
    })
}

/// The acceptance sweep: 3 tenants carrying identical mined-query workloads,
/// round-robin interleaved (cross-tenant timestamp collisions by construction),
/// demuxed through 1/2/4 tenant-groups × 1/2/4 query shards. Every tenant must emit
/// exactly the isolated single-detector detection set, in every configuration.
#[test]
fn testdata_tenant_parity_across_groups_and_shards() {
    let fx = fixture();
    const TENANTS: usize = 3;
    let source = TenantedStreamSource::replicate_test_data(&fx.test, TENANTS, 16, 256);
    let interleaved: Vec<TenantedEvent> = source.batches().flatten().copied().collect();
    let tenants: Vec<TenantId> = (0..TENANTS as u64).map(TenantId).collect();
    for groups in [1usize, 2, 4] {
        for shards in [1usize, 2, 4] {
            let pooled = pool_intervals(&interleaved, &tenants, &fx.queries, groups, shards, 256);
            for (t, tenant) in tenants.iter().enumerate() {
                assert_eq!(
                    &pooled[t], &fx.isolated,
                    "tenant {tenant} diverged under {groups} groups x {shards} shards"
                );
            }
        }
    }
}

/// Ground-truth smoke check: the mined queries actually detect instances through the
/// demux layer (parity alone would also hold for always-empty results).
#[test]
fn testdata_multi_tenant_streaming_actually_detects_instances() {
    let fx = fixture();
    let hits: usize = fx.isolated.iter().map(Vec::len).sum();
    assert!(hits > 0, "mined queries detected nothing in the stream");
}

/// Cost rows are counted once, in the pool's one table: its exact counters per query
/// equal the sum of every tenant's isolated one-shard run. Tenant 0 streams throughout,
/// tenant 1 is quiesced halfway and never returns, and tenant 2 arrives at the halfway
/// point; the pool runs 2 groups × 2 shards.
#[test]
fn pool_cost_rows_are_the_sum_of_isolated_tenant_runs() {
    let fx = fixture();
    let events = events_of_graph(&fx.test.graph);
    let (head, tail) = events.split_at(events.len() / 2);
    let exact = |report: Option<QueryCostReport>| -> Vec<[u64; 4]> {
        let rows = report.expect("attribution is on").rows;
        let row = |(_, c): &(usize, QueryCost)| [c.spawned, c.advanced, c.dropped, c.detections];
        rows.iter().map(row).collect()
    };
    let isolated = |events: &[StreamEvent]| {
        let mut engine = ShardedDetector::new(1);
        engine.enable_cost_attribution(1);
        for (query, window) in &fx.queries {
            engine.register(query.clone(), *window).expect("valid");
        }
        for chunk in events.chunks(64) {
            engine.on_batch(chunk).expect("tenant stream is valid");
        }
        engine.flush();
        exact(engine.query_cost_report())
    };
    let mut expected = vec![[0u64; 4]; fx.queries.len()];
    for run in [isolated(&events), isolated(head), isolated(&events)] {
        for (sum, row) in expected.iter_mut().zip(run) {
            for (total, count) in sum.iter_mut().zip(row) {
                *total += count;
            }
        }
    }
    assert!(expected.iter().any(|row| row[3] > 0), "{expected:?}");

    let mut pool = TenantPool::new(2, 2);
    pool.enable_cost_attribution(1);
    for (query, window) in &fx.queries {
        pool.register(query.clone(), *window).expect("valid");
    }
    let stream = |streams: &[(u64, &[StreamEvent])]| {
        let streams: Vec<(TenantId, Vec<StreamEvent>)> = streams
            .iter()
            .map(|&(tenant, events)| (TenantId(tenant), events.to_vec()))
            .collect();
        interleave(&streams, &picks_from_seed(7, 32))
    };
    let first = stream(&[(0, head), (1, head)]);
    let second = stream(&[(0, tail), (2, &events)]);
    for chunk in first.chunks(64) {
        pool.on_batch(chunk).expect("tenant streams are valid");
    }
    Engine::quiesce(&mut pool, TenantId(1));
    for chunk in second.chunks(64) {
        pool.on_batch(chunk).expect("tenant streams are valid");
    }
    pool.flush();
    assert_eq!(pool.tenant_count(), 2, "tenant 1 stayed away");
    assert_eq!(exact(pool.query_cost_report()), expected);
}
