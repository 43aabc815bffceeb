//! Scaffolding shared by the parity suites: scratch directories, comparable detection
//! tuples, the generated query and stream fixtures, and the kill/recover runners —
//! written once over [`Engine`], so the same code drives a `ShardedDetector` and a
//! `TenantPool`.
#![allow(dead_code)] // each suite uses its own subset

use behavior_query::durable::{recover, Wal, WalConfig};
use behavior_query::stream::{
    CompiledQuery, Detection, Engine, LabelPairStats, ShardedDetector, TenantDetection,
};
use behavior_query::tgminer::baselines::gspan::StaticPattern;
use behavior_query::tgminer::baselines::nodeset::NodeSetQuery;
use behavior_query::tgraph::generator::random_pattern;
use behavior_query::tgraph::{Label, StreamEvent, TenantId, TenantedEvent};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch directory path (not created), unique per call and per process.
pub fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "bq-parity-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Detections as order-free comparable tuples `(query, start_ts, end_ts)`.
pub type Hit = (usize, u64, u64);

pub fn hits(detections: Vec<Detection>) -> Vec<Hit> {
    detections
        .into_iter()
        .map(|d| (d.query, d.start_ts, d.end_ts))
        .collect()
}

/// Tenant-tagged detections as tuples `(tenant, query, start_ts, end_ts)`.
pub type TenantHit = (u64, usize, u64, u64);

pub fn tenant_hits(detections: Vec<TenantDetection>) -> Vec<TenantHit> {
    detections
        .into_iter()
        .map(|d| (d.tenant.0, d.query, d.start_ts, d.end_ts))
        .collect()
}

/// The three-query workload the parity properties sweep: one temporal pattern plus
/// its order-free and keyword derivatives.
pub fn query_trio(seed: u64, pedges: usize, window: u64) -> Vec<(CompiledQuery, u64)> {
    let pattern = random_pattern(seed, pedges, 3);
    vec![
        (CompiledQuery::Temporal(pattern.clone()), window),
        (
            CompiledQuery::Static(StaticPattern {
                labels: pattern.labels().to_vec(),
                edges: pattern.edges().iter().map(|e| (e.src, e.dst)).collect(),
            }),
            window,
        ),
        (
            CompiledQuery::NodeSet(NodeSetQuery {
                labels: pattern.labels().to_vec(),
            }),
            window,
        ),
    ]
}

/// Deterministic pick sequence for [`interleave`] (a splitmix64 stream).
pub fn picks_from_seed(mut seed: u64, len: usize) -> Vec<usize> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = seed;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) as usize
        })
        .collect()
}

/// Interleaves per-tenant streams into one tenant-tagged stream: each pick selects
/// (mod the number of still-nonempty streams) whose next event goes out. Per-tenant
/// order is preserved; the global order is whatever the picks make it.
pub fn interleave(streams: &[(TenantId, Vec<StreamEvent>)], picks: &[usize]) -> Vec<TenantedEvent> {
    let total: usize = streams.iter().map(|(_, e)| e.len()).sum();
    let mut queues: Vec<(TenantId, VecDeque<StreamEvent>)> = streams
        .iter()
        .map(|(t, e)| (*t, e.iter().copied().collect()))
        .collect();
    let mut out = Vec::with_capacity(total);
    let mut picks = picks.iter().cycle();
    while out.len() < total {
        let nonempty: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].1.is_empty())
            .collect();
        let pick = picks.next().expect("cycled picks never end");
        let i = nonempty[pick % nonempty.len()];
        let (tenant, queue) = &mut queues[i];
        out.push(TenantedEvent {
            tenant: *tenant,
            event: queue.pop_front().expect("selected queue is nonempty"),
        });
    }
    out
}

/// Event `i` of an endless chain of fresh `Label(1) → Label(2)` edges, one per tick.
pub fn chain_event(i: u64) -> StreamEvent {
    StreamEvent {
        ts: i,
        src: 2 * i as usize,
        dst: 2 * i as usize + 1,
        src_label: Label(1),
        dst_label: Label(2),
    }
}

/// The newest timestamp applied by a one-shard engine that was fed (or replayed)
/// [`chain_event`]s `1, 2, …` in order: event `i` carries `ts == i`, so it is the
/// number of events the shard has processed (`None` before the first).
pub fn last_chain_ts(engine: &ShardedDetector) -> Option<u64> {
    let applied = engine.shard_stats()[0].events;
    (applied > 0).then_some(applied)
}

/// The order-free single-edge query every [`chain_event`] matches.
pub fn pair_query() -> CompiledQuery {
    CompiledQuery::Static(StaticPattern {
        labels: vec![Label(1), Label(2)],
        edges: vec![(0, 1)],
    })
}

/// An empty engine of `shape` — `(tenant groups, query shards)` — balancing by count.
pub fn fresh<E: Engine>(shape: (usize, usize)) -> E {
    E::build(shape, LabelPairStats::new())
}

/// Registers `queries` on `engine` and feeds it `batches`, *without* flushing.
pub fn run_prefix<E: Engine>(
    mut engine: E,
    queries: &[(CompiledQuery, u64)],
    batches: &[&[E::Event]],
) -> (E, Vec<E::Detection>) {
    for (query, window) in queries {
        engine
            .register(query.clone(), *window)
            .expect("valid query");
    }
    let mut out = Vec::new();
    for batch in batches {
        out.extend(engine.on_batch(batch).expect("valid stream"));
    }
    (engine, out)
}

/// The reference run: register, every batch, then flush; detections sorted.
pub fn run_uninterrupted<E: Engine>(
    engine: E,
    queries: &[(CompiledQuery, u64)],
    batches: &[&[E::Event]],
) -> Vec<E::Detection> {
    let (mut engine, mut out) = run_prefix(engine, queries, batches);
    out.extend(engine.flush());
    out.sort_unstable();
    out
}

/// Attaches a fresh log to `engine` (through `attach`, so a suite picks the spelling
/// under test), registers `queries`, feeds `kill_at` batches, "crashes" (drops engine
/// and log without flushing), recovers under `config`, finishes the stream, and
/// returns prefix + suffix detections, sorted. Optionally cuts a snapshot after batch
/// `snapshot_at`.
pub fn run_with_kill<E: Engine>(
    mut engine: E,
    attach: impl FnOnce(&Wal, &mut E),
    config: WalConfig,
    queries: &[(CompiledQuery, u64)],
    batches: &[&[E::Event]],
    kill_at: usize,
    snapshot_at: Option<usize>,
) -> Vec<E::Detection> {
    let dir = temp_dir("kill");
    let wal = Wal::create(&dir, config.clone()).expect("log dir");
    attach(&wal, &mut engine);
    let (mut engine, mut out) = run_prefix(engine, queries, &[]);
    for (i, batch) in batches[..kill_at].iter().enumerate() {
        out.extend(engine.on_batch(batch).expect("valid stream"));
        if snapshot_at == Some(i) {
            wal.snapshot(&engine).expect("snapshot");
        }
    }
    assert!(wal.take_error().is_none(), "log append failed");
    drop(engine); // the crash: no flush, no goodbye
    drop(wal);

    let recovered = recover::<E>(&dir, config).expect("recoverable log");
    assert!(recovered.damage.is_none());
    let recovered_ids: Vec<usize> = recovered.registrations.iter().map(|r| r.id).collect();
    assert_eq!(
        recovered_ids,
        (0..queries.len()).collect::<Vec<_>>(),
        "replay must reassign the live ids"
    );
    let mut engine = recovered.engine;
    for batch in &batches[kill_at..] {
        out.extend(engine.on_batch(batch).expect("valid stream"));
    }
    out.extend(engine.flush());
    out.sort_unstable();
    std::fs::remove_dir_all(dir).expect("cleanup");
    out
}
