//! The tenant-parity law: for every tenant T and every demux configuration (group
//! count, shards per group, interleaving of the other tenants' events), the detections
//! a [`TenantPool`] reports for T are identical to running T's events alone through a
//! single [`Detector`] with the same registrations.
//!
//! Two layers of evidence:
//!
//! * property tests over random per-tenant t-connected graphs interleaved by a
//!   proptest-generated pick sequence (so the interleaving itself shrinks on failure),
//!   sweeping group counts, shards per group, and batch sizes;
//! * a fixed sweep on generated `TestData` with genuinely mined queries: 3 tenants
//!   carrying identical workloads through 1/2/4 tenant-groups × 1/2/4 query shards,
//!   pinned against the isolated single-detector run.

mod common;

use behavior_query::query::Interval;
use behavior_query::stream::{CompiledQuery, Detector, TenantDetection, TenantPool};
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
use behavior_query::tgraph::{StreamEvent, TenantId, TenantedEvent};
use common::{interleave, picks_from_seed};
use proptest::prelude::*;
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
    let mut sink = |detections: Vec<behavior_query::stream::Detection>| {
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
