//! The crash-recovery parity law: killing a durably-logged engine at any record
//! boundary, recovering from its write-ahead log, and finishing the stream produces
//! exactly the detections of an engine that never crashed.
//!
//! Layers of evidence:
//!
//! * property tests over random t-connected streams and all three query types,
//!   killing at a random batch boundary (with and without a snapshot before the
//!   kill), swept over 1/2/4 query shards and 1/2/4 tenant groups;
//! * a snapshot round-trip property: snapshot at a random batch index, recover, and
//!   the recovered engine's registrations (ids, original `visible_from`), retention,
//!   visibility floor, and id allocator all match the live engine;
//! * torn-write and bit-flip corruption: strict recovery stops with a typed error
//!   naming the file and offset, tolerant recovery rebuilds the valid prefix —
//!   neither ever panics or silently skips damage;
//! * a mined-query fixture sweep (the `tenant_parity` corpus) pinning kill-recover
//!   parity on real formulated queries;
//! * the time-travel loop: `read_logged_events` over all segments re-drives a fresh
//!   detector to the same detections via `StreamSource::from_events`;
//! * the placement statistics in the log are the engine's own: attaching through the
//!   older `attach_sharded(det, &stats)` spelling with *different* statistics still
//!   recovers every query onto the shard it lived on;
//! * an id last seen before a snapshot's replay horizon and relabelled after it is
//!   accepted and matched alike by the live and the recovered engines, since neither
//!   keeps anything per node that the pruned history would have to rebuild;
//! * a tenant quiesce the caller starts is logged and replayed like one the
//!   quiescence policy starts, so a kill after it recovers the eviction.
//!
//! The single-stream tests run against a one-shard `ShardedDetector` — the
//! plainest configuration of the single-stream engine.

mod common;

use behavior_query::durable::{
    recover, recover_sharded, recover_tolerant, DurableError, Wal, WalConfig, WalDamage,
};
use behavior_query::obs::MetricsRegistry;
use behavior_query::stream::{
    CompiledQuery, Engine, LabelPairStats, ShardedDetector, TenantDetection, TenantPool,
};
use behavior_query::syscall::{
    events_of_graph, Behavior, DatasetConfig, StreamSource, TestData, TestDataConfig, TrainingData,
};
use behavior_query::tgminer::baselines::gspan::StaticPattern;
use behavior_query::tgraph::generator::{random_t_connected_graph, RandomGraphSpec};
use behavior_query::tgraph::pattern::TemporalPattern;
use behavior_query::tgraph::{Label, StreamEvent, TenantId, TenantedEvent};
use common::{
    chain_event, fresh, hits, interleave, last_chain_ts, pair_query, picks_from_seed, query_trio,
    run_prefix, run_uninterrupted, run_with_kill, temp_dir,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn small_wal() -> WalConfig {
    // Tiny segments so every multi-batch test crosses rotation boundaries too.
    WalConfig {
        max_segment_bytes: 512,
        ..WalConfig::default()
    }
}

/// The kill/recover run of the parity properties: a fresh engine of `shape`, logged
/// through the generic [`Wal::attach`] from its first registration on.
fn killed<E: Engine>(
    shape: (usize, usize),
    queries: &[(CompiledQuery, u64)],
    batches: &[&[E::Event]],
    kill_at: usize,
    snapshot_at: Option<usize>,
) -> Vec<E::Detection> {
    let attach = |wal: &Wal, engine: &mut E| wal.attach(engine).expect("attach");
    run_with_kill(
        fresh::<E>(shape),
        attach,
        small_wal(),
        queries,
        batches,
        kill_at,
        snapshot_at,
    )
}

/// The single-stream engine at its plainest: one shard.
fn one_shard() -> ShardedDetector {
    ShardedDetector::new(1)
}

/// Retained edges of a one-shard engine, read the way an operator would: off the
/// `retained_edges` gauge after an (empty, hence inert) instrumented batch.
fn retained_edges(engine: &mut ShardedDetector) -> u64 {
    let registry = MetricsRegistry::new();
    engine.instrument(&registry);
    engine.on_batch(&[]).expect("an empty batch is valid");
    let snapshot = registry.snapshot();
    let (value, _) = snapshot
        .gauge("detector.shard0.retained_edges")
        .expect("instrumented");
    value
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill-at-a-record-boundary parity, swept over 1/2/4 query shards: the logged
    /// prefix detections plus the recovered suffix detections equal the
    /// uninterrupted run's, as a multiset, for every kill point — with or without a
    /// snapshot before the crash.
    #[test]
    fn killing_at_any_batch_boundary_preserves_detection_parity(
        seed in 0u64..10_000,
        pedges in 1usize..4,
        window in 1u64..25,
        batch in 1usize..17,
        kill_pick in 0usize..1000,
        snap_pick in 0usize..1000,
    ) {
        let graph = random_t_connected_graph(
            seed,
            RandomGraphSpec { nodes: 8, edges: 40, label_alphabet: 3 },
        );
        let events = events_of_graph(&graph);
        let queries = query_trio(seed.wrapping_add(13), pedges, window);
        let batches: Vec<&[StreamEvent]> = events.chunks(batch).collect();
        let kill_at = kill_pick % (batches.len() + 1);
        // Half the cases snapshot somewhere before the kill.
        let snapshot_at = (snap_pick % 2 == 0 && kill_at > 0).then(|| snap_pick % kill_at.max(1));
        for shards in [1usize, 2, 4] {
            let uninterrupted =
                run_uninterrupted(fresh::<ShardedDetector>((1, shards)), &queries, &batches);
            let survived =
                killed::<ShardedDetector>((1, shards), &queries, &batches, kill_at, snapshot_at);
            prop_assert_eq!(
                &survived, &uninterrupted,
                "kill at batch {}/{} (snapshot {:?}, {} shards, seed {}) diverged",
                kill_at, batches.len(), snapshot_at, shards, seed
            );
        }
    }

    /// The same law through the tenant demux layer, swept over 1/2/4 tenant groups.
    #[test]
    fn killed_tenant_pools_recover_to_parity(
        seed in 0u64..10_000,
        tenant_count in 2usize..4,
        window in 1u64..25,
        batch in 1usize..17,
        kill_pick in 0usize..1000,
        snap_pick in 0usize..1000,
        pick_seed in 0u64..u64::MAX,
    ) {
        let streams: Vec<(TenantId, Vec<StreamEvent>)> = (0..tenant_count)
            .map(|t| {
                let graph = random_t_connected_graph(
                    seed.wrapping_add(t as u64 * 7919),
                    RandomGraphSpec { nodes: 8, edges: 20, label_alphabet: 3 },
                );
                (TenantId(t as u64), events_of_graph(&graph))
            })
            .collect();
        let queries = query_trio(seed.wrapping_add(13), 2, window);
        let interleaved = interleave(&streams, &picks_from_seed(pick_seed, 32));
        let batches: Vec<&[TenantedEvent]> = interleaved.chunks(batch).collect();
        let kill_at = kill_pick % (batches.len() + 1);
        let snapshot_at = (snap_pick % 2 == 0 && kill_at > 0).then(|| snap_pick % kill_at.max(1));
        for groups in [1usize, 2, 4] {
            let uninterrupted =
                run_uninterrupted(fresh::<TenantPool>((groups, 2)), &queries, &batches);
            let survived =
                killed::<TenantPool>((groups, 2), &queries, &batches, kill_at, snapshot_at);
            prop_assert_eq!(
                &survived, &uninterrupted,
                "pool kill at batch {}/{} (snapshot {:?}, {} groups, seed {}) diverged",
                kill_at, batches.len(), snapshot_at, groups, seed
            );
        }
    }

    /// Snapshot round-trip: cut a snapshot at a random batch index, keep streaming,
    /// recover — the recovered detector's registrations (ids and original
    /// `visible_from`), retention, visibility floor, and id allocator all match the
    /// live detector, and both engines finish the stream identically.
    #[test]
    fn snapshots_round_trip_registration_and_retention_state(
        seed in 0u64..10_000,
        window in 1u64..25,
        batch in 1usize..17,
        snap_pick in 0usize..1000,
        mid_pick in 0usize..1000,
    ) {
        let graph = random_t_connected_graph(
            seed,
            RandomGraphSpec { nodes: 8, edges: 40, label_alphabet: 3 },
        );
        let events = events_of_graph(&graph);
        let queries = query_trio(seed.wrapping_add(13), 2, window);
        let batches: Vec<&[StreamEvent]> = events.chunks(batch).collect();
        let snapshot_at = snap_pick % batches.len();
        let mid_register_at = mid_pick % batches.len();

        let dir = temp_dir("snapshot-roundtrip");
        let wal = Wal::create(&dir, small_wal()).expect("log dir");
        let mut live = one_shard();
        wal.attach(&mut live).expect("attach");
        let mut live_regs = Vec::new();
        for (query, w) in &queries {
            live_regs.push(live.register(query.clone(), *w).expect("valid query"));
        }
        for (i, chunk) in batches.iter().enumerate() {
            let _ = live.on_batch(chunk).expect("valid stream");
            if i == mid_register_at {
                // A mid-stream registration: its visible_from is a fact recovery
                // must preserve verbatim.
                live_regs.push(
                    live.register(queries[2].0.clone(), window).expect("valid query"),
                );
            }
            if i == snapshot_at {
                wal.snapshot(&live).expect("snapshot");
            }
        }

        let recovered = recover::<ShardedDetector>(&dir, small_wal()).expect("recoverable log");
        prop_assert!(recovered.damage.is_none());
        // Ids are never reused: replay reassigns exactly the live ids, and the
        // recovered registrations surface the ORIGINAL visible_from values.
        prop_assert_eq!(recovered.registrations.len(), live_regs.len());
        for (rec, live_reg) in recovered.registrations.iter().zip(&live_regs) {
            prop_assert_eq!(rec.id, live_reg.id);
            prop_assert_eq!(
                rec.visible_from, live_reg.visible_from,
                "recovered visible_from must be the original registration's"
            );
        }
        let mut rebuilt = recovered.engine;
        prop_assert_eq!(rebuilt.query_count(), live.query_count());
        // Same retention at work (same edges still buffered), same visibility floor.
        prop_assert_eq!(retained_edges(&mut rebuilt), retained_edges(&mut live));
        prop_assert_eq!(rebuilt.shard_visible_floors(), live.shard_visible_floors());
        // The id allocator recovered too: the next registration gets the same id
        // and the same visibility on both engines. `queries[0]` is temporal, so its
        // `visible_from` is `last_ts + 1`: the two engines stand at the same event.
        let live_next = live.register(queries[0].0.clone(), window).expect("valid query");
        let rebuilt_next = rebuilt.register(queries[0].0.clone(), window).expect("valid query");
        prop_assert_eq!(live_next.id, rebuilt_next.id);
        prop_assert_eq!(live_next.visible_from, rebuilt_next.visible_from);
        // And both finish the stream identically.
        let mut live_tail = hits(live.flush());
        let mut rebuilt_tail = hits(rebuilt.flush());
        live_tail.sort_unstable();
        rebuilt_tail.sort_unstable();
        prop_assert_eq!(live_tail, rebuilt_tail);
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}

/// Builds a one-shard log with one registration and `events` single-event batches.
fn build_small_log(tag: &str, events: u64) -> PathBuf {
    let dir = temp_dir(tag);
    let wal = Wal::create(&dir, WalConfig::default()).expect("log dir");
    let mut detector = one_shard();
    wal.attach(&mut detector).expect("attach");
    detector.register(pair_query(), 5).expect("valid query");
    for i in 1..=events {
        detector.on_batch(&[chain_event(i)]).expect("valid stream");
    }
    assert!(wal.take_error().is_none());
    dir
}

/// Frame offsets of the single segment `wal-000000.log`.
fn frame_offsets(dir: &std::path::Path) -> (PathBuf, Vec<u64>) {
    use behavior_query::durable::segment::FrameReader;
    let path = dir.join("wal-000000.log");
    let mut reader = FrameReader::open(&path).expect("segment readable");
    let mut offsets = Vec::new();
    while let Some((offset, _)) = reader.next().expect("intact segment") {
        offsets.push(offset);
    }
    (path, offsets)
}

/// A write torn mid-record: strict recovery stops with a typed error naming the file
/// and the damaged frame's offset; tolerant recovery rebuilds the valid prefix and
/// keeps working. Never a panic, never a silent skip.
#[test]
fn torn_writes_stop_recovery_at_the_last_valid_record() {
    let dir = build_small_log("torn", 5);
    let (path, offsets) = frame_offsets(&dir);
    let last_offset = *offsets.last().expect("log has frames");
    let bytes = std::fs::read(&path).expect("segment readable");
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear the last record");

    match recover::<ShardedDetector>(&dir, WalConfig::default()) {
        Err(DurableError::Damage(WalDamage::TornRecord { file, offset })) => {
            assert_eq!(file, path);
            assert_eq!(offset, last_offset, "damage names the torn frame's offset");
        }
        other => panic!("expected torn-record damage, got {other:?}"),
    }

    let recovered =
        recover_tolerant::<ShardedDetector>(&dir, WalConfig::default()).expect("tolerant");
    assert!(matches!(
        recovered.damage,
        Some(WalDamage::TornRecord { offset, .. }) if offset == last_offset
    ));
    // The engine reflects exactly the records before the tear: the register plus
    // four of the five batches (the fifth was torn).
    let mut detector = recovered.engine;
    assert_eq!(last_chain_ts(&detector), Some(4));
    // Recovery opened a fresh segment — the damaged file is left untouched for
    // inspection, and new appends land after it.
    assert!(dir.join("wal-000001.log").exists());
    detector
        .on_batch(&[chain_event(5)])
        .expect("stream resumes");
    assert_eq!(last_chain_ts(&detector), Some(5));
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// A flipped byte inside a checksummed record: recovery reports the mismatch with
/// its offset (strict) or stops the replay there (tolerant) — the corrupt record and
/// everything after it are never silently applied.
#[test]
fn bit_flips_surface_as_checksum_mismatches_at_the_damaged_offset() {
    let dir = build_small_log("bitflip", 5);
    let (path, offsets) = frame_offsets(&dir);
    // Flip one bit inside the 5th frame's payload (init, register, then batches):
    // batches 1 and 2 stay valid, batch 3 is damaged, batches 4 and 5 follow it.
    let target = offsets[4];
    let mut bytes = std::fs::read(&path).expect("segment readable");
    bytes[target as usize + 12] ^= 0x40;
    std::fs::write(&path, bytes).expect("corrupt the record");

    match recover::<ShardedDetector>(&dir, WalConfig::default()) {
        Err(DurableError::Damage(WalDamage::ChecksumMismatch { file, offset })) => {
            assert_eq!(file, path);
            assert_eq!(offset, target);
        }
        other => panic!("expected checksum damage, got {other:?}"),
    }

    let recovered =
        recover_tolerant::<ShardedDetector>(&dir, WalConfig::default()).expect("tolerant");
    assert!(matches!(
        recovered.damage,
        Some(WalDamage::ChecksumMismatch { offset, .. }) if offset == target
    ));
    // Valid prefix only: the two batches before the corrupt record, nothing after.
    assert_eq!(last_chain_ts(&recovered.engine), Some(2));
    assert_eq!(recovered.records_replayed, 3, "register + two batches");
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// Regression (the latent `visible_from` bug): a query registered mid-stream after
/// evictions records a positive look-back floor; recovery must surface that original
/// floor, not the (higher) floor at recovery time.
#[test]
fn recovered_visible_from_is_the_original_registration_floor() {
    let dir = temp_dir("visible-from");
    let wal = Wal::create(&dir, WalConfig::default()).expect("log dir");
    let mut detector = one_shard();
    wal.attach(&mut detector).expect("attach");
    // Window 10 => retention 20: by ts 100 the graph has evicted deep history.
    detector.register(pair_query(), 10).expect("valid query");
    for i in 1..=100 {
        detector.on_batch(&[chain_event(i)]).expect("valid stream");
    }
    let mid = detector.register(pair_query(), 10).expect("valid query");
    assert!(
        mid.visible_from > 0,
        "the fixture must register after evictions for the regression to bite"
    );
    wal.snapshot(&detector).expect("snapshot");
    // Keep streaming: the live floor moves past the registration-time floor.
    for i in 101..=140 {
        detector.on_batch(&[chain_event(i)]).expect("valid stream");
    }
    assert!(detector.shard_visible_floors()[0] > mid.visible_from);
    drop(detector);
    drop(wal);

    let recovered =
        recover::<ShardedDetector>(&dir, WalConfig::default()).expect("recoverable log");
    let rec = recovered
        .registrations
        .iter()
        .find(|r| r.id == mid.id)
        .expect("mid-stream registration survives recovery");
    assert_eq!(
        rec.visible_from, mid.visible_from,
        "visible_from must be the original registration's floor, not recovery-time"
    );
    assert!(
        recovered.engine.shard_visible_floors()[0] > rec.visible_from,
        "the engine floor has moved on; the registration's record has not"
    );
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// Time travel: the log's full segment history re-drives a fresh detector to the
/// same detections through `StreamSource::from_events`.
#[test]
fn logged_history_replays_through_a_stream_source() {
    use behavior_query::durable::read_logged_events;
    let graph = random_t_connected_graph(
        7,
        RandomGraphSpec {
            nodes: 8,
            edges: 40,
            label_alphabet: 3,
        },
    );
    let events = events_of_graph(&graph);
    let queries = query_trio(11, 2, 10);

    let dir = temp_dir("time-travel");
    // Small segments: the history spans several rotated files.
    let wal = Wal::create(&dir, small_wal()).expect("log dir");
    let mut detector = one_shard();
    wal.attach(&mut detector).expect("attach");
    for (query, window) in &queries {
        detector
            .register(query.clone(), *window)
            .expect("valid query");
    }
    let mut original = Vec::new();
    for chunk in events.chunks(7) {
        original.extend(hits(detector.on_batch(chunk).expect("valid stream")));
    }
    original.extend(hits(detector.flush()));
    original.sort_unstable();

    let logged = read_logged_events(&dir).expect("readable history");
    assert_eq!(logged, events, "the log holds the exact delivered history");
    let source = StreamSource::from_events(logged, 13);
    let mut replay_detector = one_shard();
    for (query, window) in &queries {
        replay_detector
            .register(query.clone(), *window)
            .expect("valid query");
    }
    let mut replayed = Vec::new();
    for batch in source.batches() {
        replayed.extend(hits(replay_detector.on_batch(batch).expect("valid stream")));
    }
    replayed.extend(hits(replay_detector.flush()));
    replayed.sort_unstable();
    assert_eq!(replayed, original);
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// The log records the statistics the engine places queries by — not whatever the
/// caller hands the older `attach_sharded(det, &stats)` spelling. Attached with
/// *different* statistics, snapshotted and killed, the engine still recovers every
/// query onto the shard it lived on (so the next registration lands, and sees, the
/// same), at 2 and at 4 shards, and finishes the stream like one that never stopped.
#[test]
fn attaching_with_foreign_stats_still_recovers_the_engines_own_placement() {
    const PAIRS: [(u32, u32); 4] = [(1, 2), (3, 4), (5, 6), (7, 8)];
    let single_edge = |(a, b): (u32, u32)| {
        CompiledQuery::Static(StaticPattern {
            labels: vec![Label(a), Label(b)],
            edges: vec![(0, 1)],
        })
    };
    let hot_on = |(a, b): (u32, u32)| {
        let mut stats = LabelPairStats::new();
        (0..100).for_each(|_| stats.record(Label(a), Label(b)));
        stats
    };
    let (own, foreign) = (hot_on(PAIRS[0]), hot_on(PAIRS[2]));
    // Eight single-edge queries over four label pairs, narrow and wide windows
    // alternating, so shards differ in retention and hence in visibility floor.
    let queries: Vec<(CompiledQuery, u64)> = (0..8)
        .map(|i| (single_edge(PAIRS[i % 4]), [5, 50][i % 2]))
        .collect();
    let events: Vec<StreamEvent> = (1..=320u64)
        .map(|i| {
            let (a, b) = PAIRS[i as usize % 4];
            StreamEvent {
                src_label: Label(a),
                dst_label: Label(b),
                ..chain_event(i)
            }
        })
        .collect();
    let batches: Vec<&[StreamEvent]> = events.chunks(16).collect();
    let placement = |engine: &ShardedDetector| -> Vec<usize> {
        (0..queries.len()).map(|q| engine.shard_of(q)).collect()
    };
    for shards in [2usize, 4] {
        let built = |stats: &LabelPairStats| ShardedDetector::with_stats(shards, stats.clone());
        let (mut twin, mut expected) = run_prefix(built(&own), &queries, &batches);
        assert_ne!(
            placement(&run_prefix(built(&foreign), &queries, &[]).0),
            placement(&twin),
            "the fixture must place differently under the foreign statistics"
        );

        let dir = temp_dir("foreign-stats");
        let wal = Wal::create(&dir, small_wal()).expect("log dir");
        let mut live = built(&own);
        wal.attach_sharded(&mut live, &foreign).expect("attach");
        let (live, mut survived) = run_prefix(live, &queries, &batches[..10]);
        wal.snapshot_sharded(&live).expect("snapshot");
        let (live, more) = run_prefix(live, &[], &batches[10..14]);
        survived.extend(more);
        assert!(wal.take_error().is_none(), "log append failed");
        drop(live); // the crash
        drop(wal);

        let recovered = recover_sharded(&dir, small_wal()).expect("recoverable log");
        assert_eq!(
            placement(&recovered.engine),
            placement(&twin),
            "{shards} shards"
        );
        let (mut engine, rest) = run_prefix(recovered.engine, &[], &batches[14..]);
        survived.extend(rest);
        assert_eq!(engine.shard_visible_floors(), twin.shard_visible_floors());
        let next = engine.register(single_edge(PAIRS[3]), 50).expect("valid");
        assert_eq!(Ok(next), twin.register(single_edge(PAIRS[3]), 50));
        assert_eq!(engine.shard_of(next.id), twin.shard_of(next.id));
        survived.extend(engine.flush());
        expected.extend(twin.flush());
        survived.sort_unstable();
        expected.sort_unstable();
        assert!(!expected.is_empty());
        assert_eq!(survived, expected, "{shards} shards");
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}

/// A reused id across a snapshot's replay horizon. Node 2 appears once, at tick 1
/// with label 1; with window 5 the log keeps 2 × 5 ticks of history, so the snapshot
/// at tick 40 no longer replays that appearance. At tick 41 node 2 returns with label
/// 7. The live engine and the one recovered from the snapshot (`recover`, which
/// `recover_sharded` and `recover_pool` name per engine) both accept the event, and
/// both detect the `7 → 2` edge it forms: one shard, two shards and a tenant pool.
#[test]
fn an_id_relabelled_past_the_replay_horizon_is_accepted_alike_live_and_recovered() {
    let reused = CompiledQuery::Temporal(TemporalPattern::single_edge(Label(7), Label(2)));
    let queries = vec![(pair_query(), 5), (reused, 5)];
    let mut events: Vec<StreamEvent> = (1..=40).map(chain_event).collect();
    events.push(StreamEvent {
        ts: 41,
        src: chain_event(1).src,
        dst: 1_000,
        src_label: Label(7),
        dst_label: Label(2),
    });
    events.extend((42..=50).map(chain_event));
    let relabel_hit = (1, 41, 41);
    let (kill_at, snapshot_at) = (40, Some(39));

    let batches: Vec<&[StreamEvent]> = events.chunks(1).collect();
    for shards in [1, 2] {
        let live = run_uninterrupted(fresh::<ShardedDetector>((1, shards)), &queries, &batches);
        assert!(hits(live.clone()).contains(&relabel_hit), "{shards} shards");
        let survived =
            killed::<ShardedDetector>((1, shards), &queries, &batches, kill_at, snapshot_at);
        assert_eq!(survived, live, "{shards} shards");
    }

    let tenanted: Vec<TenantedEvent> = events
        .iter()
        .map(|&event| TenantedEvent {
            tenant: TenantId(3),
            event,
        })
        .collect();
    let batches: Vec<&[TenantedEvent]> = tenanted.chunks(1).collect();
    let live = run_uninterrupted(fresh::<TenantPool>((1, 1)), &queries, &batches);
    assert!(live
        .iter()
        .any(|d| (d.query, d.start_ts, d.end_ts) == relabel_hit));
    let survived = killed::<TenantPool>((1, 1), &queries, &batches, kill_at, snapshot_at);
    assert_eq!(survived, live, "tenant pool");
}

/// One step of the caller-quiesce script below.
enum Step {
    Batch(Vec<TenantedEvent>),
    Quiesce(TenantId),
}

fn apply(pool: &mut TenantPool, step: &Step) -> Vec<TenantDetection> {
    match step {
        Step::Batch(batch) => pool.on_batch(batch).expect("valid streams"),
        Step::Quiesce(tenant) => pool.quiesce(*tenant),
    }
}

/// A quiesce the caller starts through [`Engine::quiesce`] is logged like one the
/// quiescence policy starts. Tenants 7 and 8 both send the first edge of a two-edge
/// query; the caller quiesces tenant 7, which drops its pending run; both send the
/// second edge, so only tenant 8 detects. Killed after any step, the pool recovers
/// to one that evicted tenant 7 at the same point, and finishes the stream like the
/// uninterrupted pool — a pool recovered without the eviction would detect for
/// tenant 7 too.
#[test]
fn a_quiesce_the_caller_starts_is_logged_and_recovers_to_parity() {
    let query = CompiledQuery::Temporal(
        TemporalPattern::single_edge(Label(1), Label(2))
            .grow_forward(1, Label(3))
            .expect("a two-edge chain"),
    );
    let edge = |tenant: u64, ts: u64, src: usize, labels: (u32, u32)| TenantedEvent {
        tenant: TenantId(tenant),
        event: StreamEvent {
            ts,
            src,
            dst: src + 1,
            src_label: Label(labels.0),
            dst_label: Label(labels.1),
        },
    };
    let script = [
        Step::Batch(vec![edge(7, 1, 0, (1, 2)), edge(8, 1, 0, (1, 2))]),
        Step::Quiesce(TenantId(7)),
        Step::Batch(vec![edge(7, 2, 1, (2, 3)), edge(8, 2, 1, (2, 3))]),
    ];

    let mut reference = TenantPool::new(1, 1);
    reference.register(query.clone(), 10).expect("valid query");
    let mut expected = Vec::new();
    for step in &script {
        expected.extend(apply(&mut reference, step));
    }
    expected.extend(reference.flush());
    expected.sort_unstable();
    let found: Vec<(u64, u64, u64)> = expected
        .iter()
        .map(|d| (d.tenant.0, d.start_ts, d.end_ts))
        .collect();
    assert_eq!(found, [(8, 1, 2)], "the quiesce dropped tenant 7's run");

    for kill_at in 0..=script.len() {
        let dir = temp_dir("caller-quiesce");
        let wal = Wal::create(&dir, WalConfig::default()).expect("log dir");
        let mut pool = TenantPool::new(1, 1);
        wal.attach(&mut pool).expect("attach");
        pool.register(query.clone(), 10).expect("valid query");
        let mut out = Vec::new();
        for step in &script[..kill_at] {
            out.extend(apply(&mut pool, step));
        }
        assert!(wal.take_error().is_none());
        drop(pool); // the crash
        drop(wal);

        let mut pool = recover::<TenantPool>(&dir, WalConfig::default())
            .expect("recoverable log")
            .engine;
        for step in &script[kill_at..] {
            out.extend(apply(&mut pool, step));
        }
        out.extend(pool.flush());
        out.sort_unstable();
        assert_eq!(out, expected, "killed after {kill_at} steps");
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}

/// The mined-query fixture (same corpus as `tenant_parity`): tiny training + test
/// data and one query of each type for two behaviors. Mining runs once.
struct Fixture {
    test: TestData,
    queries: Vec<(CompiledQuery, u64)>,
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
        Fixture { test, queries }
    })
}

/// The acceptance sweep on real mined queries: kill the logged engine halfway
/// through the fixture stream (snapshotting a quarter in), recover, finish — parity
/// at 1/2/4 shards, with detections provably non-empty.
#[test]
fn fixture_corpus_kill_recover_parity_across_shards() {
    let fx = fixture();
    let events = events_of_graph(&fx.test.graph);
    let batches: Vec<&[StreamEvent]> = events.chunks(256).collect();
    let kill_at = batches.len() / 2;
    let snapshot_at = Some(kill_at / 2);
    for shards in [1usize, 2, 4] {
        let uninterrupted =
            run_uninterrupted(fresh::<ShardedDetector>((1, shards)), &fx.queries, &batches);
        let survived =
            killed::<ShardedDetector>((1, shards), &fx.queries, &batches, kill_at, snapshot_at);
        assert_eq!(
            survived, uninterrupted,
            "fixture kill-recover diverged at {shards} shards"
        );
        assert!(
            !uninterrupted.is_empty(),
            "parity alone would also hold for always-empty results"
        );
    }
}
