//! The chaos-parity law: deterministic fault injection at every durability I/O site
//! and ingest entry point must never change what the engines detect, and must leave
//! the system in one of exactly two states — healthy with a complete log, or typed
//! degraded with an intact prefix log that recovers to parity.
//!
//! Layers of evidence:
//!
//! * property tests arming random fault plans (`wal.append` / `wal.fsync` /
//!   `wal.rotate`, every-Nth / one-shot / seeded-probability schedules) under random
//!   streams, swept over 1/2/4 query shards and tenant groups: live detections stay
//!   byte-equal to the fault-free run, and afterwards either the log holds the full
//!   history (healthy → strict recovery) or a clean prefix (degraded → tolerant
//!   recovery + suffix re-feed reaches parity);
//! * snapshot cadence with segment GC under a kill: automatic snapshots prune and
//!   delete covered segments, yet strict recovery still reaches parity — GC never
//!   deletes a file recovery needs;
//! * degraded-mode accounting: a spent retry budget latches exactly once, with
//!   `wal_error` / `wal_retry` trace events, `durable.io_errors_total`, the
//!   `durable.degraded` gauge, and `dropped_ops` all agreeing;
//! * tolerant-recovery damage accounting: a bit flip in an *early* segment reports
//!   the exact corruption site, the exact count of intact records dropped from later
//!   segments, and the exact unreadable byte span — cross-checked against the
//!   injected corruption;
//! * self-healing ingest: quiesced tenants recover through their logged `Quiesce`
//!   records and return with restored floors; quarantined poison events are filtered
//!   from the log so replay is clean; engine failpoints (`shard.worker`,
//!   `tenant.batch`) reject batches before any logging or mutation, so re-delivery
//!   reaches fault-free parity with each input logged exactly once.

mod common;

use behavior_query::durable::{
    read_logged_events, read_logged_tenant_events, recover, recover_pool, recover_sharded,
    recover_tolerant, RetryPolicy, SnapshotPolicy, SyncPolicy, Wal, WalConfig, WalDamage,
    WalStatus,
};
use behavior_query::faults::{FaultPlan, FaultSchedule};
use behavior_query::obs::{CollectingSink, MetricsRegistry, SharedSink, TraceEvent};
use behavior_query::stream::{
    LabelPairStats, PoisonPolicy, QuiescencePolicy, ShardedDetector, TenantPool,
};
use behavior_query::syscall::events_of_graph;
use behavior_query::tgraph::generator::{random_t_connected_graph, RandomGraphSpec};
use behavior_query::tgraph::{GraphError, StreamEvent, TenantId, TenantedEvent};
use common::{
    chain_event, fresh, hits, interleave, last_chain_ts, pair_query, picks_from_seed, query_trio,
    run_prefix, run_uninterrupted, temp_dir, tenant_hits,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The WAL configuration the chaos properties run under: tiny segments so rotation
/// is exercised, periodic fsync so the `wal.fsync` failpoint is consulted, and a
/// one-retry zero-backoff budget so both the retry-success and the latching path
/// are reachable without sleeping.
fn chaos_wal() -> WalConfig {
    WalConfig {
        max_segment_bytes: 512,
        sync: SyncPolicy::EveryNRecords(2),
        retry: RetryPolicy {
            attempts: 1,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
        },
        ..WalConfig::default()
    }
}

/// A fresh seeded plan arming one durability failpoint. Plans carry hit counters,
/// so every engine run under test builds its own identically-armed copy.
fn durable_plan(seed: u64, point_pick: usize, sched_pick: usize, n: u64, k: u64) -> FaultPlan {
    let point = ["wal.append", "wal.fsync", "wal.rotate"][point_pick % 3];
    let schedule = match sched_pick % 3 {
        0 => FaultSchedule::EveryNth(n),
        1 => FaultSchedule::OneShotAt(k),
        _ => FaultSchedule::Probability(0.3),
    };
    let plan = FaultPlan::new(seed);
    plan.arm(point, schedule);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Durability faults never change detections, and the post-run state is binary:
    /// healthy with the complete history on disk (strict recovery), or typed
    /// degraded with an intact prefix (tolerant recovery). In both cases a fresh
    /// engine over the logged prefix plus the recovered engine over the remaining
    /// suffix reproduces the fault-free run exactly — swept over 1/2/4 shards.
    #[test]
    fn injected_wal_faults_never_change_detections_and_recovery_reaches_parity(
        seed in 0u64..10_000,
        pedges in 1usize..4,
        window in 1u64..25,
        batch in 1usize..17,
        point_pick in 0usize..3,
        sched_pick in 0usize..3,
        n in 1u64..6,
        k in 1u64..30,
    ) {
        let graph = random_t_connected_graph(
            seed,
            RandomGraphSpec { nodes: 8, edges: 40, label_alphabet: 3 },
        );
        let events = events_of_graph(&graph);
        let queries = query_trio(seed.wrapping_add(13), pedges, window);
        let batches: Vec<&[StreamEvent]> = events.chunks(batch).collect();
        for shards in [1usize, 2, 4] {
            let uninterrupted =
                run_uninterrupted(fresh::<ShardedDetector>((1, shards)), &queries, &batches);

            let dir = temp_dir("wal-faults");
            let wal = Wal::create(&dir, chaos_wal()).expect("log dir");
            let mut detector = ShardedDetector::new(shards);
            wal.attach_sharded(&mut detector, &LabelPairStats::new())
                .expect("attach");
            for (query, w) in &queries {
                detector.register(query.clone(), *w).expect("valid query");
            }
            // Arm after registration so the plan's schedule starts at the stream.
            let plan = durable_plan(seed, point_pick, sched_pick, n, k);
            wal.set_fault_plan(plan.clone());

            let mut live = Vec::new();
            for chunk in &batches {
                live.extend(
                    detector.on_batch(chunk).expect("durability faults never fail the engine"),
                );
            }
            live.extend(detector.flush());
            live.sort_unstable();
            prop_assert_eq!(
                &live, &uninterrupted,
                "injected {:?} faults changed live detections ({} shards, seed {})",
                plan.armed_points(), shards, seed
            );

            let status = wal.status();
            let fired = plan.total_fired();
            prop_assert_eq!(
                wal.io_errors(), fired,
                "every fired fault is exactly one counted I/O error"
            );
            drop(detector);
            drop(wal);

            let logged = read_logged_events(&dir).expect("readable log");
            prop_assert!(logged.len() <= events.len());
            prop_assert_eq!(
                &events[..logged.len()], &logged[..],
                "the log must be a prefix of the delivered stream"
            );
            let recovered = match status {
                WalStatus::Healthy => {
                    prop_assert_eq!(
                        logged.len(), events.len(),
                        "a healthy log holds the complete history (fired {})", fired
                    );
                    recover_sharded(&dir, chaos_wal()).expect("strict recovery")
                }
                WalStatus::Degraded => {
                    prop_assert!(fired > 0, "degradation requires at least one fault");
                    recover_tolerant::<ShardedDetector>(&dir, chaos_wal())
                        .expect("tolerant recovery")
                }
            };
            prop_assert!(
                recovered.damage.is_none(),
                "injected faults never tear frames — the log is short, not damaged"
            );
            let mut engine = recovered.engine;
            let logged_batches: Vec<&[StreamEvent]> = logged.chunks(batch).collect();
            let (_, mut combined) =
                run_prefix(fresh::<ShardedDetector>((1, shards)), &queries, &logged_batches);
            for chunk in events[logged.len()..].chunks(batch) {
                combined.extend(engine.on_batch(chunk).expect("valid stream"));
            }
            combined.extend(engine.flush());
            combined.sort_unstable();
            prop_assert_eq!(
                &combined, &uninterrupted,
                "recovery + suffix re-feed diverged ({:?}, {} shards, seed {})",
                status, shards, seed
            );
            std::fs::remove_dir_all(dir).expect("cleanup");
        }
    }

    /// The same law through the tenant demux layer, swept over 1/2/4 tenant groups.
    #[test]
    fn injected_wal_faults_preserve_tenant_pool_parity(
        seed in 0u64..10_000,
        tenant_count in 2usize..4,
        window in 1u64..25,
        batch in 1usize..17,
        point_pick in 0usize..3,
        sched_pick in 0usize..3,
        n in 1u64..6,
        k in 1u64..30,
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
        for groups in [1usize, 2, 4] {
            let uninterrupted =
                run_uninterrupted(fresh::<TenantPool>((groups, 2)), &queries, &batches);

            let dir = temp_dir("pool-faults");
            let wal = Wal::create(&dir, chaos_wal()).expect("log dir");
            let mut pool = TenantPool::new(groups, 2);
            wal.attach_pool(&mut pool, &LabelPairStats::new()).expect("attach");
            for (query, w) in &queries {
                pool.register(query.clone(), *w).expect("valid query");
            }
            let plan = durable_plan(seed, point_pick, sched_pick, n, k);
            wal.set_fault_plan(plan.clone());

            let mut live = Vec::new();
            for chunk in &batches {
                live.extend(pool.on_batch(chunk).expect("durability faults never fail the pool"));
            }
            live.extend(pool.flush());
            live.sort_unstable();
            prop_assert_eq!(&live, &uninterrupted, "live pool detections diverged");

            let status = wal.status();
            drop(pool);
            drop(wal);

            let logged = read_logged_tenant_events(&dir).expect("readable log");
            prop_assert_eq!(
                &interleaved[..logged.len()], &logged[..],
                "the log must be a prefix of the delivered stream"
            );
            let recovered = match status {
                WalStatus::Healthy => {
                    prop_assert_eq!(logged.len(), interleaved.len());
                    recover_pool(&dir, chaos_wal()).expect("strict recovery")
                }
                WalStatus::Degraded => {
                    recover_pool(&dir, chaos_wal()).expect("a degraded log is short, not damaged")
                }
            };
            prop_assert!(recovered.damage.is_none());
            let mut engine = recovered.engine;
            let logged_batches: Vec<&[TenantedEvent]> = logged.chunks(batch).collect();
            let (_, mut combined) =
                run_prefix(fresh::<TenantPool>((groups, 2)), &queries, &logged_batches);
            for chunk in interleaved[logged.len()..].chunks(batch) {
                combined.extend(engine.on_batch(chunk).expect("valid streams"));
            }
            combined.extend(engine.flush());
            combined.sort_unstable();
            prop_assert_eq!(
                &combined, &uninterrupted,
                "pool recovery + suffix re-feed diverged ({:?}, {} groups)", status, groups
            );
            std::fs::remove_dir_all(dir).expect("cleanup");
        }
    }
}

fn tev(tenant: u64, i: u64) -> TenantedEvent {
    TenantedEvent {
        tenant: TenantId(tenant),
        event: chain_event(i),
    }
}

/// Automatic snapshot cadence with segment GC, then a kill: snapshots fire on the
/// record cadence, GC deletes every covered segment and older snapshot, and strict
/// recovery over what remains still reaches parity — GC never deletes a file
/// recovery needs.
#[test]
fn snapshot_cadence_with_gc_survives_a_kill() {
    let config = WalConfig {
        max_segment_bytes: 256,
        snapshot: SnapshotPolicy::every_records(16).with_gc(),
        ..WalConfig::default()
    };
    let dir = temp_dir("gc-kill");
    let wal = Wal::create(&dir, config.clone()).expect("log dir");
    let mut detector = ShardedDetector::new(1);
    wal.attach(&mut detector).expect("attach");
    detector.register(pair_query(), 5).expect("valid query");

    let registry = MetricsRegistry::new();
    wal.instrument(&registry);
    let mut live = Vec::new();
    for i in 1..=200u64 {
        live.extend(hits(
            detector.on_batch(&[chain_event(i)]).expect("valid stream"),
        ));
        if wal.snapshot_due() {
            wal.snapshot(&detector).expect("cadence snapshot");
        }
    }
    let snapshot = registry.snapshot();
    assert!(
        snapshot.counter("durable.snapshots_total").unwrap_or(0) >= 10,
        "the record cadence must have fired repeatedly"
    );
    assert!(
        snapshot.counter("durable.gc_segments_total").unwrap_or(0) > 0,
        "GC must have deleted covered segments"
    );
    assert!(
        !dir.join("wal-000000.log").exists(),
        "the first segment is long covered and must be gone"
    );
    let snapshot_files = std::fs::read_dir(&dir)
        .expect("log dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .count();
    assert_eq!(snapshot_files, 1, "GC keeps only the newest snapshot");
    assert!(wal.take_error().is_none());
    drop(detector); // the crash
    drop(wal);

    let recovered = recover::<ShardedDetector>(&dir, config).expect("strict recovery after GC");
    assert!(recovered.damage.is_none());
    let mut detector = recovered.engine;
    for i in 201..=210u64 {
        live.extend(hits(
            detector.on_batch(&[chain_event(i)]).expect("valid stream"),
        ));
    }
    live.extend(hits(detector.flush()));
    live.sort_unstable();

    let mut reference = ShardedDetector::new(1);
    reference.register(pair_query(), 5).expect("valid query");
    let mut expected = Vec::new();
    for i in 1..=210u64 {
        expected.extend(hits(
            reference.on_batch(&[chain_event(i)]).expect("valid stream"),
        ));
    }
    expected.extend(hits(reference.flush()));
    expected.sort_unstable();
    assert_eq!(
        live, expected,
        "GC-pruned recovery diverged from the fault-free run"
    );
    assert!(
        !expected.is_empty(),
        "parity alone would also hold for empty results"
    );
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// A one-shot fault inside the retry budget heals in place: one `wal_error`
/// (latched: false), one `wal_retry`, and the log stays complete and healthy.
#[test]
fn a_transient_fault_heals_within_the_retry_budget() {
    let dir = temp_dir("transient");
    let wal = Wal::create(&dir, chaos_wal()).expect("log dir");
    let mut detector = ShardedDetector::new(1);
    wal.attach(&mut detector).expect("attach");
    detector.register(pair_query(), 5).expect("valid query");

    let sink = Arc::new(CollectingSink::new());
    wal.set_trace_sink(SharedSink::from(sink.clone()));
    let plan = FaultPlan::new(7);
    plan.arm("wal.append", FaultSchedule::OneShotAt(1));
    wal.set_fault_plan(plan.clone());

    for i in 1..=4u64 {
        detector.on_batch(&[chain_event(i)]).expect("valid stream");
    }
    assert_eq!(wal.status(), WalStatus::Healthy);
    assert_eq!(wal.io_errors(), 1);
    assert_eq!(wal.dropped_ops(), 0);
    assert!(wal.take_error().is_none());

    let events = sink.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::WalError { latched: false, .. })),
        "the transient failure must trace as non-latched"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::WalRetry { attempt: 1, .. })),
        "the retry must trace with its attempt number"
    );
    drop(detector);
    drop(wal);
    assert_eq!(
        read_logged_events(&dir).expect("readable log").len(),
        4,
        "a healed log holds the complete history"
    );
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// A permanently failing append spends the retry budget and latches: sticky
/// degraded status, a latched `wal_error` trace, the error surfaced through
/// `take_error`, later ops counted as dropped, and the metrics registry agreeing
/// with the handle's own counters.
#[test]
fn a_spent_retry_budget_latches_degraded_mode_with_full_accounting() {
    let dir = temp_dir("latch");
    let wal = Wal::create(&dir, chaos_wal()).expect("log dir");
    let mut detector = ShardedDetector::new(1);
    wal.attach(&mut detector).expect("attach");
    detector.register(pair_query(), 5).expect("valid query");

    let sink = Arc::new(CollectingSink::new());
    wal.set_trace_sink(SharedSink::from(sink.clone()));
    let registry = MetricsRegistry::new();
    wal.instrument(&registry);
    let plan = FaultPlan::new(7);
    plan.arm("wal.append", FaultSchedule::EveryNth(1));
    wal.set_fault_plan(plan);

    // The engine keeps detecting; the log degrades underneath it.
    detector.on_batch(&[chain_event(1)]).expect("valid stream");
    assert_eq!(wal.status(), WalStatus::Degraded);
    assert_eq!(
        wal.io_errors(),
        2,
        "first failure plus the one budgeted retry"
    );
    detector.on_batch(&[chain_event(2)]).expect("valid stream");
    assert_eq!(
        wal.dropped_ops(),
        1,
        "post-latch ops are dropped, not retried"
    );
    let error = wal
        .take_error()
        .expect("the latched error surfaces exactly once");
    assert!(error.to_string().contains("injected fault at wal.append"));

    assert!(
        sink.events()
            .iter()
            .any(|e| matches!(e, TraceEvent::WalError { latched: true, .. })),
        "the terminal failure must trace as latched"
    );
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("durable.io_errors_total"), Some(2));
    assert_eq!(snapshot.counter("durable.retries_total"), Some(1));
    assert_eq!(snapshot.gauge("durable.degraded").map(|(v, _)| v), Some(1));

    // Degradation is sticky for the life of the handle even with the plan disarmed.
    detector.on_batch(&[chain_event(3)]).expect("valid stream");
    assert_eq!(wal.status(), WalStatus::Degraded);
    assert_eq!(wal.dropped_ops(), 2);
    drop(detector);
    drop(wal);

    // The registrations landed before the plan was armed; the batches never did.
    // Tolerant recovery rebuilds that prefix and the stream resumes durably.
    let recovered = recover_tolerant::<ShardedDetector>(&dir, chaos_wal()).expect("tolerant");
    assert!(recovered.damage.is_none());
    let mut detector = recovered.engine;
    assert_eq!(last_chain_ts(&detector), None);
    detector
        .on_batch(&[chain_event(1)])
        .expect("stream resumes");
    assert_eq!(recovered.wal.status(), WalStatus::Healthy);
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// Tolerant recovery's damage report is exact: a bit flip in an early segment
/// names the corrupt file and offset, drops precisely the intact records stranded
/// in later segments, and counts precisely the unreadable bytes from the flip to
/// the end of its segment — cross-checked against the injected corruption site.
#[test]
fn tolerant_recovery_accounts_exactly_for_the_injected_corruption() {
    use behavior_query::durable::segment::FrameReader;
    let config = WalConfig {
        max_segment_bytes: 128,
        ..WalConfig::default()
    };
    let dir = temp_dir("accounting");
    let wal = Wal::create(&dir, config.clone()).expect("log dir");
    let mut detector = ShardedDetector::new(1);
    wal.attach(&mut detector).expect("attach");
    detector.register(pair_query(), 5).expect("valid query");
    for i in 1..=30u64 {
        detector.on_batch(&[chain_event(i)]).expect("valid stream");
    }
    assert!(wal.take_error().is_none());
    drop(detector);
    drop(wal);

    // Inventory the intact log: per-segment frame offsets and sizes.
    let mut segments = Vec::new();
    for index in 0u64.. {
        let path = dir.join(format!("wal-{index:06}.log"));
        if !path.exists() {
            break;
        }
        let mut reader = FrameReader::open(&path).expect("segment readable");
        let mut offsets = Vec::new();
        while let Some((offset, _)) = reader.next().expect("intact segment") {
            offsets.push(offset);
        }
        let size = std::fs::read(&path).expect("segment readable").len() as u64;
        segments.push((path, offsets, size));
    }
    assert!(
        segments.len() >= 3,
        "the fixture must span several segments"
    );

    // Flip one bit inside the third frame of the first segment (init, register,
    // then the first batch): exactly one op survives (the register).
    let (path, offsets, size) = &segments[0];
    let target = offsets[2];
    let mut bytes = std::fs::read(path).expect("segment readable");
    bytes[target as usize + 12] ^= 0x40;
    std::fs::write(path, bytes).expect("corrupt the record");
    let expected_dropped: u64 = segments[1..]
        .iter()
        .map(|(_, offsets, _)| offsets.len() as u64)
        .sum();
    let expected_unreadable = size - target;

    let recovered = recover_tolerant::<ShardedDetector>(&dir, config).expect("tolerant");
    match recovered.damage {
        Some(WalDamage::ChecksumMismatch { ref file, offset }) => {
            assert_eq!(file, path, "damage names the corrupt segment");
            assert_eq!(offset, target, "damage names the flipped frame's offset");
        }
        ref other => panic!("expected checksum damage, got {other:?}"),
    }
    assert_eq!(
        recovered.records_dropped, expected_dropped,
        "dropped records must equal the intact frames stranded in later segments"
    );
    assert_eq!(
        recovered.bytes_unreadable, expected_unreadable,
        "unreadable bytes must span the flip to the end of its segment"
    );
    assert_eq!(
        recovered.records_replayed, 1,
        "only the register precedes the flip"
    );
    assert_eq!(last_chain_ts(&recovered.engine), None);
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// Tenant quiescence round-trips through the log: the eviction is a logged
/// `Quiesce` record, so a killed pool recovers with the tenant still evicted, and
/// the tenant's return re-materialises it from the journal — detections staying
/// equal to an unkilled pool running the same policy.
#[test]
fn quiesced_tenants_recover_and_return_through_the_log() {
    let policy = QuiescencePolicy { horizon: 10 };
    let batches: Vec<Vec<TenantedEvent>> = vec![
        vec![tev(1, 1)],
        vec![tev(2, 50)],
        vec![tev(2, 51)], // the sweep at the head of this batch evicts tenant 1
        vec![tev(1, 60)], // …and this one re-materialises it from the journal
    ];

    // The reference: same policy, never killed.
    let mut reference = TenantPool::new(2, 1);
    reference.register(pair_query(), 5).expect("valid query");
    reference.set_quiescence(Some(policy));
    let mut expected = Vec::new();
    for batch in &batches {
        expected.extend(tenant_hits(
            reference.on_batch(batch).expect("valid streams"),
        ));
    }
    expected.extend(tenant_hits(reference.flush()));
    expected.sort_unstable();

    // The chaos run: logged, killed right after the eviction.
    let dir = temp_dir("quiesce");
    let wal = Wal::create(&dir, WalConfig::default()).expect("log dir");
    let mut pool = TenantPool::new(2, 1);
    wal.attach_pool(&mut pool, &LabelPairStats::new())
        .expect("attach");
    pool.register(pair_query(), 5).expect("valid query");
    pool.set_quiescence(Some(policy));
    let sink = Arc::new(CollectingSink::new());
    pool.set_trace_sink(Some(SharedSink::from(sink.clone())));
    let mut live = Vec::new();
    for batch in &batches[..3] {
        live.extend(tenant_hits(pool.on_batch(batch).expect("valid streams")));
    }
    assert!(
        sink.events()
            .iter()
            .any(|e| matches!(e, TraceEvent::TenantQuiesced { tenant: 1, .. })),
        "the eviction must trace"
    );
    assert_eq!(
        pool.tenant_count(),
        1,
        "tenant 1 is evicted, tenant 2 lives"
    );
    assert!(wal.take_error().is_none());
    drop(pool); // the crash
    drop(wal);

    let recovered = recover_pool(&dir, WalConfig::default()).expect("strict recovery");
    assert!(recovered.damage.is_none());
    let mut pool = recovered.engine;
    assert_eq!(
        pool.tenant_count(),
        1,
        "the logged Quiesce record must replay the eviction"
    );
    live.extend(tenant_hits(
        pool.on_batch(&batches[3]).expect("valid streams"),
    ));
    assert_eq!(
        pool.tenant_count(),
        2,
        "the returning tenant re-materialises"
    );
    live.extend(tenant_hits(pool.flush()));
    live.sort_unstable();
    assert_eq!(live, expected, "kill-after-quiesce recovery diverged");
    assert!(!expected.is_empty());
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// Poison quarantine composes with the log: deliveries that fail are logged (and
/// replay to the same rejection), while a quarantined event is filtered *before*
/// logging — so the log's final batch carries only the clean remainder and strict
/// recovery reaches the live engine's exact state.
#[test]
fn quarantined_poison_events_are_filtered_from_the_log() {
    let dir = temp_dir("poison");
    let wal = Wal::create(&dir, WalConfig::default()).expect("log dir");
    let mut pool = TenantPool::new(1, 1);
    wal.attach_pool(&mut pool, &LabelPairStats::new())
        .expect("attach");
    pool.register(pair_query(), 5).expect("valid query");
    pool.set_poison_policy(Some(PoisonPolicy {
        max_failures: 2,
        capacity: 4,
    }));

    pool.on_batch(&[tev(0, 10)]).expect("clean batch");
    // ts 4 after ts 10 is non-monotonic for tenant 0: the batch fails at index 0,
    // twice (at-least-once re-delivery), and the event is quarantined.
    let poisoned = [tev(0, 4), tev(0, 11)];
    assert!(pool.on_batch(&poisoned).is_err());
    assert!(pool.on_batch(&poisoned).is_err());
    let third = pool
        .on_batch(&poisoned)
        .expect("quarantine filters the poison");
    assert!(third.iter().all(|d| d.end_ts == 11));
    let quarantined = pool.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].tenant, TenantId(0));
    assert_eq!(quarantined[0].event.ts, 4);
    assert_eq!(quarantined[0].failures, 2);

    let logged = read_logged_tenant_events(&dir).expect("readable log");
    assert_eq!(
        logged,
        vec![
            tev(0, 10),
            tev(0, 4),
            tev(0, 11),
            tev(0, 4),
            tev(0, 11),
            tev(0, 11)
        ],
        "failing deliveries log as they arrived; the quarantined delivery logs only \
         the clean remainder"
    );
    assert!(wal.take_error().is_none());
    drop(wal);

    // Strict recovery replays the failing batches to the same rejection and lands
    // in the live engine's exact state: the next batch behaves identically.
    let recovered = recover_pool(&dir, WalConfig::default()).expect("strict recovery");
    assert!(recovered.damage.is_none());
    let mut rebuilt = recovered.engine;
    let mut live_next = tenant_hits(pool.on_batch(&[tev(0, 12)]).expect("valid stream"));
    live_next.extend(tenant_hits(pool.flush()));
    live_next.sort_unstable();
    let mut rebuilt_next = tenant_hits(rebuilt.on_batch(&[tev(0, 12)]).expect("valid stream"));
    rebuilt_next.extend(tenant_hits(rebuilt.flush()));
    rebuilt_next.sort_unstable();
    assert_eq!(
        rebuilt_next, live_next,
        "recovered state diverged from live"
    );
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// Engine failpoints reject the batch *before* any logging or mutation: the error
/// is typed, re-delivery advances the schedule and succeeds, detections reach
/// fault-free parity, and each input sits in the log exactly once.
#[test]
fn engine_failpoints_reject_cleanly_and_redelivery_reaches_parity() {
    // The sharded front door.
    let dir = temp_dir("shard-fp");
    let wal = Wal::create(&dir, WalConfig::default()).expect("log dir");
    let mut detector = ShardedDetector::new(2);
    wal.attach_sharded(&mut detector, &LabelPairStats::new())
        .expect("attach");
    detector.register(pair_query(), 5).expect("valid query");
    let plan = FaultPlan::new(3);
    plan.arm("shard.worker", FaultSchedule::OneShotAt(2));
    detector.set_fault_plan(Some(plan));

    let mut live = Vec::new();
    let events: Vec<StreamEvent> = (1..=6).map(chain_event).collect();
    for chunk in events.chunks(2) {
        match detector.on_batch(chunk) {
            Ok(detections) => live.extend(hits(detections)),
            Err(err) => {
                assert!(
                    matches!(err.error, GraphError::FaultInjected { ref point, occurrence: 1 }
                        if point == "shard.worker"),
                    "unexpected error {err:?}"
                );
                assert!(
                    err.emitted.is_empty(),
                    "nothing is applied before the failpoint"
                );
                // At-least-once: the same batch, delivered again, succeeds.
                live.extend(hits(detector.on_batch(chunk).expect("re-delivery")));
            }
        }
    }
    live.extend(hits(detector.flush()));
    live.sort_unstable();
    drop(detector);
    drop(wal);
    assert_eq!(
        read_logged_events(&dir).expect("readable log"),
        events,
        "the rejected delivery logged nothing; the retry logged the batch once"
    );

    let mut reference = ShardedDetector::new(2);
    reference.register(pair_query(), 5).expect("valid query");
    let mut expected = Vec::new();
    for chunk in events.chunks(2) {
        expected.extend(hits(reference.on_batch(chunk).expect("valid stream")));
    }
    expected.extend(hits(reference.flush()));
    expected.sort_unstable();
    assert_eq!(
        live, expected,
        "failpoint re-delivery diverged from fault-free"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // The tenant front door.
    let dir = temp_dir("tenant-fp");
    let wal = Wal::create(&dir, WalConfig::default()).expect("log dir");
    let mut pool = TenantPool::new(2, 1);
    wal.attach_pool(&mut pool, &LabelPairStats::new())
        .expect("attach");
    pool.register(pair_query(), 5).expect("valid query");
    let plan = FaultPlan::new(3);
    plan.arm("tenant.batch", FaultSchedule::OneShotAt(1));
    pool.set_fault_plan(Some(plan));

    let batch = [tev(0, 1), tev(1, 2)];
    let err = pool.on_batch(&batch).expect_err("the one-shot fires first");
    assert!(matches!(err.error, GraphError::FaultInjected { .. }));
    assert!(err.emitted.is_empty());
    assert_eq!(
        err.tenant,
        TenantId(0),
        "attribution falls to the batch's first tenant"
    );
    pool.on_batch(&batch).expect("re-delivery");
    drop(pool);
    drop(wal);
    assert_eq!(
        read_logged_tenant_events(&dir).expect("readable log"),
        batch.to_vec(),
        "the rejected delivery logged nothing"
    );
    std::fs::remove_dir_all(dir).expect("cleanup");
}
