//! What "same on-disk format" means: the bytes of every record kind, and of two
//! small logs written through a real [`Wal`], are pinned to what the commit before
//! the log's hot path was rewritten produced.
//!
//! * `every_record_kind_frames_to_the_pinned_bytes` frames one record of every kind
//!   (`[len u32][crc32 u32][payload]`) and compares an FNV-1a of the bytes with a
//!   constant computed on that commit.
//! * `tests/fixtures/wal_format/{sharded,pool}` are log directories that commit
//!   wrote by running [`write_sharded_log`] / [`write_pool_log`]. The same scenarios
//!   run today must write the same files byte for byte, and the committed files
//!   must recover to engines that finish their streams like ones that never stopped.
//!
//! After an *intentional* format change (a new record tag — existing encodings never
//! change), regenerate with
//! `cargo test --test format_pin -- --ignored regenerate_wal_format_fixture` and
//! update the constant from the failure message.

mod common;

use behavior_query::durable::crc32::crc32;
use behavior_query::durable::{
    recover, EngineKind, InitRecord, SnapshotHeader, Wal, WalConfig, WalRecord,
};
use behavior_query::stream::{
    CompiledQuery, Engine, LabelPairStats, QuiescencePolicy, ShardedDetector, TenantPool,
};
use behavior_query::tgminer::baselines::gspan::StaticPattern;
use behavior_query::tgminer::baselines::nodeset::NodeSetQuery;
use behavior_query::tgraph::pattern::{PatternEdge, TemporalPattern};
use behavior_query::tgraph::{Label, StreamEvent, TenantId, TenantedEvent};
use common::{chain_event, pair_query, temp_dir};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// FNV-1a of every framed record of [`pinned_records`], computed on the parent of
/// the commit that introduced this test.
const PINNED_FRAMES_FNV1A: u64 = 0xadf7_a1f4_458a_41c9;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn two_edge_pattern() -> TemporalPattern {
    TemporalPattern::from_parts(
        vec![Label(1), Label(2), Label(3)],
        vec![
            PatternEdge { src: 0, dst: 1 },
            PatternEdge { src: 1, dst: 2 },
        ],
    )
    .expect("canonical pattern")
}

fn queries() -> [CompiledQuery; 3] {
    [
        CompiledQuery::Temporal(two_edge_pattern()),
        pair_query(),
        CompiledQuery::NodeSet(NodeSetQuery {
            labels: vec![Label(2), Label(1)],
        }),
    ]
}

fn tenanted(tenant: u64, i: u64) -> TenantedEvent {
    TenantedEvent {
        tenant: TenantId(tenant),
        event: chain_event(i),
    }
}

fn pinned_records() -> Vec<WalRecord> {
    let init = InitRecord {
        kind: EngineKind::Pool,
        shards: 4,
        groups: 2,
        stats: vec![((Label(1), Label(2)), 9), ((Label(2), Label(2)), 1)],
    };
    let [temporal, _, nodeset] = queries();
    let register = |id, query| WalRecord::Register {
        id,
        window: 25 + id,
        visible_from: 81 * id,
        query,
    };
    vec![
        WalRecord::Init(init.clone()),
        register(0, temporal),
        register(
            1,
            CompiledQuery::Static(StaticPattern {
                labels: vec![Label(7), Label(8), Label(7)],
                edges: vec![(0, 1), (2, 1)],
            }),
        ),
        register(2, nodeset),
        WalRecord::Deregister { id: 1 },
        WalRecord::Batch(Vec::new()),
        WalRecord::Batch(vec![chain_event(u64::from(u32::MAX) + 5)]),
        WalRecord::Batch((1..=4_097).map(chain_event).collect()),
        WalRecord::TenantBatch(vec![tenanted(11, 5), tenanted(0, 5), tenanted(u64::MAX, 6)]),
        WalRecord::SnapshotHeader(SnapshotHeader {
            init,
            max_window: 27,
            last_ts: Some(99),
            tenant_last_ts: vec![(0, 99), (11, 42)],
            floors: vec![(0, vec![81, 0, 3, 4]), (11, vec![0, 0, 0, 9])],
        }),
        WalRecord::SnapshotFooter { ops: 12 },
        WalRecord::Quiesce { tenant: 11 },
    ]
}

#[test]
fn every_record_kind_frames_to_the_pinned_bytes() {
    let mut framed = Vec::new();
    for record in pinned_records() {
        let payload = record.encode();
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        assert_eq!(WalRecord::decode(&payload).expect("decodes"), record);
    }
    assert_eq!(
        fnv1a(&framed),
        PINNED_FRAMES_FNV1A,
        "the framed bytes of some record kind changed: {:#018x}",
        fnv1a(&framed)
    );
}

fn sharded_batches() -> Vec<Vec<StreamEvent>> {
    vec![
        Vec::new(),
        vec![chain_event(1)],
        (2..=4).map(chain_event).collect(),
        (5..=9).map(chain_event).collect(),
        vec![chain_event(10), chain_event(11)],
        (12..=40).map(chain_event).collect(),
    ]
}

/// Batches delivered before the "crash" in both scenarios.
const LOGGED_BATCHES: usize = 5;

/// A two-shard engine with placement statistics: three registrations (one of each
/// query kind), a deregistration, an empty / one-event / several-event batch, a
/// snapshot after the fourth batch and one batch in the segment after it.
fn write_sharded_log(dir: &Path) -> ShardedDetector {
    let stats = LabelPairStats::from_pair_counts([((Label(1), Label(2)), 7)]);
    let mut engine = ShardedDetector::with_stats(2, stats);
    let wal = Wal::create(dir, WalConfig::default()).expect("log dir");
    wal.attach(&mut engine).expect("attach");
    for (query, window) in queries().into_iter().zip([6, 5, 4]) {
        engine.register(query, window).expect("valid query");
    }
    engine.deregister(2).expect("registered");
    for (i, batch) in sharded_batches()[..LOGGED_BATCHES].iter().enumerate() {
        engine.on_batch(batch).expect("valid stream");
        if i == 3 {
            wal.snapshot(&engine).expect("snapshot");
        }
    }
    assert!(wal.take_error().is_none());
    engine
}

fn pool_batches() -> Vec<Vec<TenantedEvent>> {
    vec![
        vec![tenanted(1, 1)],
        vec![tenanted(2, 50), tenanted(3, 50)],
        vec![tenanted(2, 51)], // the sweep at the head of this batch evicts tenant 1
        vec![tenanted(1, 60), tenanted(3, 61)],
        vec![tenanted(2, 62)],
        vec![tenanted(1, 63), tenanted(2, 63), tenanted(3, 64)],
    ]
}

/// A two-group pool under a quiescence policy: tenant batches, a logged `Quiesce`,
/// a snapshot (per-tenant timestamps and floors) and one batch after it.
fn write_pool_log(dir: &Path) -> TenantPool {
    let mut pool = TenantPool::new(2, 1);
    let wal = Wal::create(dir, WalConfig::default()).expect("log dir");
    wal.attach(&mut pool).expect("attach");
    pool.register(pair_query(), 5).expect("valid query");
    pool.set_quiescence(Some(QuiescencePolicy { horizon: 10 }));
    for (i, batch) in pool_batches()[..LOGGED_BATCHES].iter().enumerate() {
        pool.on_batch(batch).expect("valid streams");
        if i == 3 {
            wal.snapshot(&pool).expect("snapshot");
        }
    }
    assert!(wal.take_error().is_none());
    pool
}

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wal_format")
        .join(name)
}

fn files_of(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().into_string().expect("utf-8 file name");
            (name, std::fs::read(entry.path()).expect("readable file"))
        })
        .collect()
}

/// The scenario written today equals the committed directory file for file, and the
/// committed directory recovers and finishes `rest` as `uninterrupted` does.
fn check_fixture<E: Engine>(
    name: &str,
    write: impl Fn(&Path) -> E,
    rest: &[E::Event],
    replayed: u64,
) {
    let fixture = files_of(&fixture_dir(name));
    let live_dir = temp_dir(&format!("format-live-{name}"));
    let mut uninterrupted = write(&live_dir);
    let live = files_of(&live_dir);
    assert_eq!(
        live.keys().collect::<Vec<_>>(),
        fixture.keys().collect::<Vec<_>>(),
        "{name}: file names"
    );
    for (file, bytes) in &fixture {
        assert_eq!(&live[file], bytes, "{name}/{file}: bytes written today");
    }
    assert!(fixture.len() >= 3, "two segments and a snapshot");

    let copy = temp_dir(&format!("format-fixture-{name}"));
    std::fs::create_dir_all(&copy).expect("scratch dir");
    for (file, bytes) in &fixture {
        std::fs::write(copy.join(file), bytes).expect("copy fixture");
    }
    let recovered = recover::<E>(&copy, WalConfig::default()).expect("fixture recovers");
    assert!(recovered.damage.is_none());
    assert_eq!(recovered.records_replayed, replayed, "{name}: ops replayed");
    let mut expected = uninterrupted.on_batch(rest).expect("valid stream");
    expected.extend(uninterrupted.flush());
    let mut engine = recovered.engine;
    let mut resumed = engine.on_batch(rest).expect("valid stream");
    resumed.extend(engine.flush());
    assert!(!expected.is_empty());
    assert_eq!(resumed, expected, "{name}: detections after recovery");
    for dir in [live_dir, copy] {
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}

#[test]
fn logs_written_by_the_parent_commit_are_rewritten_byte_for_byte_and_recover() {
    // Sharded: 3 registrations + 1 deregistration + 3 batches in the snapshot (the
    // empty batch has no event inside the horizon and is pruned), one batch after it.
    // Pool: 1 registration + 3 batches (tenant 1's first fell out of its horizon) +
    // 1 quiesce in the snapshot, one batch after.
    check_fixture(
        "sharded",
        write_sharded_log,
        &sharded_batches()[LOGGED_BATCHES],
        8,
    );
    check_fixture("pool", write_pool_log, &pool_batches()[LOGGED_BATCHES], 6);
}

#[test]
#[ignore = "rewrites tests/fixtures/wal_format; run only for an intentional format change"]
fn regenerate_wal_format_fixture() {
    for name in ["sharded", "pool"] {
        let dir = fixture_dir(name);
        let _ = std::fs::remove_dir_all(&dir);
        match name {
            "sharded" => drop(write_sharded_log(&dir)),
            _ => drop(write_pool_log(&dir)),
        }
    }
}
