//! Canary for `benchmark/README.md` § "Pinned public surface": every `stream` and
//! `durable` item the out-of-workspace benchmark harness calls, and the
//! `IncrementalGraph` methods its `tgraph` layer times, named here with the signature
//! the harness relies on and driven once — so a rename or a changed signature fails
//! `cargo test` before it fails the benchmark build.

mod common;

use behavior_query::durable::{
    read_logged_events, read_logged_tenant_events, recover_pool, recover_sharded, DurableError,
    Recovered, SyncPolicy, Wal, WalConfig, WalRecord,
};
use behavior_query::obs::{MetricsRegistry, Profiler, ShardStat, TenantGroupStat};
use behavior_query::stream::{
    BatchError, CompiledQuery, Detection, Detector, LabelPairStats, RegisterError, Registration,
    ShardedDetector, TenantBatchError, TenantDetection, TenantPool,
};
use behavior_query::syscall::{
    DatasetConfig, StreamSource, TenantedStreamSource, TestData, TestDataConfig, TrainingData,
};
use behavior_query::tgraph::pattern::TemporalPattern;
use behavior_query::tgraph::{
    GraphError, IncrementalGraph, Label, StreamEvent, TemporalGraph, TenantedEvent,
};
use std::path::PathBuf;

type Registered = Result<Registration, RegisterError>;

#[test]
fn every_pinned_stream_and_durable_item_keeps_its_name_and_signature() {
    // `stream`: the engines, the bare detector, the statistics constructor.
    let _: fn(usize, LabelPairStats) -> ShardedDetector = ShardedDetector::with_stats;
    let _: fn(&mut ShardedDetector, CompiledQuery, u64) -> Registered = ShardedDetector::register;
    let _: fn(&mut ShardedDetector, &[StreamEvent]) -> Result<Vec<Detection>, BatchError> =
        ShardedDetector::on_batch;
    let _: fn(&mut ShardedDetector) -> Vec<Detection> = ShardedDetector::flush;
    let _: fn(&mut ShardedDetector, &MetricsRegistry) = ShardedDetector::instrument;
    let _: fn(&mut ShardedDetector, Option<Profiler>) = ShardedDetector::set_profiler;
    let _: fn(&mut ShardedDetector, u64) = ShardedDetector::enable_cost_attribution;
    let _: fn(&ShardedDetector) -> Vec<ShardStat> = ShardedDetector::shard_stats;
    let _: fn(&ShardedDetector) -> u64 = ShardedDetector::dropped_branches;
    let _: fn(usize, usize, LabelPairStats) -> TenantPool = TenantPool::with_stats;
    let _: fn(&mut TenantPool, CompiledQuery, u64) -> Registered = TenantPool::register;
    let _: fn(&mut TenantPool, &[TenantedEvent]) -> Result<Vec<TenantDetection>, TenantBatchError> =
        TenantPool::on_batch;
    let _: fn(&mut TenantPool) -> Vec<TenantDetection> = TenantPool::flush;
    let _: fn(&mut TenantPool, &MetricsRegistry) = TenantPool::instrument;
    let _: fn(&mut TenantPool, Option<Profiler>) = TenantPool::set_profiler;
    let _: fn(&mut TenantPool, u64) = TenantPool::enable_cost_attribution;
    let _: fn(&TenantPool) -> Vec<TenantGroupStat> = TenantPool::group_stats;
    let _: fn() -> Detector = Detector::new;
    let _: fn(&mut Detector, CompiledQuery, u64) -> Registered = Detector::register;
    let _: fn(&mut Detector, &[StreamEvent]) -> Result<Vec<Detection>, BatchError> =
        Detector::on_batch;
    let _: fn(&mut Detector) -> Vec<Detection> = Detector::flush;
    let _: fn(&TemporalGraph) -> LabelPairStats = LabelPairStats::from_graph;
    // `durable`: the per-engine spellings the harness uses, and the log handle.
    let _: fn(&Wal, &mut ShardedDetector, &LabelPairStats) -> Result<(), DurableError> =
        Wal::attach_sharded;
    let _: fn(&Wal, &mut TenantPool, &LabelPairStats) -> Result<(), DurableError> =
        Wal::attach_pool;
    let _: fn(&Wal, &ShardedDetector) -> Result<PathBuf, DurableError> = Wal::snapshot_sharded;
    let _: fn(&Wal, &TenantPool) -> Result<PathBuf, DurableError> = Wal::snapshot_pool;
    let _: fn(&Wal, &MetricsRegistry) = Wal::instrument;
    let _: fn(&Wal) -> Option<DurableError> = Wal::take_error;
    let _: fn(&WalRecord) -> Vec<u8> = WalRecord::encode;
    let _ = [
        SyncPolicy::Never,
        SyncPolicy::EveryNRecords(8),
        SyncPolicy::Always,
    ];

    // One logged, snapshotted, killed and recovered pass per engine on `tiny` data.
    let training = TrainingData::generate(&DatasetConfig::tiny());
    let test = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
    let stats = LabelPairStats::from_graph(&test.graph);
    let first = test.graph.edges()[0];
    let (src, dst) = (test.graph.label(first.src), test.graph.label(first.dst));
    let query = CompiledQuery::Temporal(TemporalPattern::single_edge(src, dst));
    let config = || WalConfig {
        sync: SyncPolicy::EveryNRecords(8),
        ..WalConfig::default()
    };
    let metrics = MetricsRegistry::new();

    let dir = common::temp_dir("pinned-sharded");
    let wal = Wal::create(&dir, config()).expect("log dir");
    wal.instrument(&metrics);
    let mut sharded = ShardedDetector::with_stats(1, stats.clone());
    wal.attach_sharded(&mut sharded, &stats).expect("attach");
    let registration: Registration = sharded.register(query.clone(), 5).expect("valid");
    let source = StreamSource::from_test_data(&test, 256);
    let mut found: Vec<Detection> = Vec::new();
    for batch in source.batches() {
        found.extend(sharded.on_batch(batch).expect("valid stream"));
    }
    wal.snapshot_sharded(&sharded).expect("snapshot");
    assert!(wal.take_error().is_none());
    assert!(found
        .iter()
        .all(|d| d.query == registration.id && d.start_ts <= d.end_ts));
    assert!(
        !found.is_empty() && found.is_sorted(),
        "detections merge in `Ord` order"
    );
    assert_eq!(sharded.shard_stats()[0].events, source.len() as u64);
    assert_eq!(sharded.dropped_branches(), 0);
    assert!(
        dir.join("wal-000000.log").exists(),
        "segments are named wal-*.log"
    );
    assert!(
        metrics
            .snapshot()
            .counter("durable.fsyncs_total")
            .unwrap_or(0)
            > 0
    );
    drop((sharded, wal));
    assert_eq!(
        read_logged_events(&dir).expect("readable").len(),
        source.len()
    );
    let Recovered {
        mut engine,
        wal,
        records_replayed,
        ..
    } = recover_sharded(&dir, config()).expect("recoverable");
    assert!(records_replayed > 0 && wal.take_error().is_none());
    engine.flush();
    std::fs::remove_dir_all(dir).expect("cleanup");

    let dir = common::temp_dir("pinned-pool");
    let wal = Wal::create(&dir, config()).expect("log dir");
    let mut pool = TenantPool::with_stats(1, 1, stats.clone());
    wal.attach_pool(&mut pool, &stats).expect("attach");
    pool.register(query, 5).expect("valid");
    let source = TenantedStreamSource::replicate_test_data(&test, 2, 16, 256);
    let mut found: Vec<TenantDetection> = Vec::new();
    for batch in source.batches() {
        found.extend(pool.on_batch(batch).expect("valid streams"));
    }
    wal.snapshot_pool(&pool).expect("snapshot");
    assert!(found
        .iter()
        .all(|d| d.tenant.0 < 2 && d.start_ts <= d.end_ts));
    assert_eq!(pool.group_stats()[0].events, source.len() as u64);
    drop((pool, wal));
    assert_eq!(
        read_logged_tenant_events(&dir).expect("readable").len(),
        source.len()
    );
    let recovered = recover_pool(&dir, config()).expect("recoverable");
    assert!(recovered.records_replayed > 0);
    std::fs::remove_dir_all(dir).expect("cleanup");

    // The batch records and the error `Display`s the harness prints.
    let event = StreamEvent {
        ts: 1,
        ..source.batches().next().expect("non-empty")[0].event
    };
    assert!(!WalRecord::Batch(vec![event]).encode().is_empty());
    let tenanted = source.batches().next().expect("non-empty")[0];
    assert!(!WalRecord::TenantBatch(vec![tenanted]).encode().is_empty());
    let rejected = Detector::new().on_batch(&[StreamEvent { ts: 9, ..event }, event]);
    assert!(rejected
        .expect_err("time ran backwards")
        .to_string()
        .contains("#1"));
    let rejected = TenantPool::with_stats(1, 1, stats).on_batch(&[
        TenantedEvent {
            event: StreamEvent { ts: 9, ..event },
            ..tenanted
        },
        TenantedEvent { event, ..tenanted },
    ]);
    assert!(rejected
        .expect_err("time ran backwards")
        .to_string()
        .contains("#1"));
}

#[test]
fn every_pinned_incremental_graph_method_keeps_its_name_and_signature() {
    let _: fn(u64) -> IncrementalGraph = IncrementalGraph::with_retention;
    let _: fn(&IncrementalGraph, &StreamEvent) -> Result<(), GraphError> =
        IncrementalGraph::validate;
    let _: fn(&mut IncrementalGraph, StreamEvent) -> Result<u64, GraphError> =
        IncrementalGraph::append;
    let _: fn(&IncrementalGraph) -> usize = IncrementalGraph::live_edge_count;
    let _: fn(&IncrementalGraph) -> usize = IncrementalGraph::node_count;

    // The harness's loop: validate, append, read the live window and the node count.
    // `tgraph.nodes` counts the distinct ids of the retained edges.
    let mut graph = IncrementalGraph::with_retention(3);
    for ts in 1..=5u64 {
        let event = StreamEvent {
            ts,
            src: ts as usize,
            dst: 0,
            src_label: Label(1),
            dst_label: Label(2),
        };
        assert!(graph.validate(&event).is_ok());
        assert_eq!(graph.append(event), Ok(ts - 1));
    }
    assert_eq!((graph.live_edge_count(), graph.node_count()), (3, 4));
}
