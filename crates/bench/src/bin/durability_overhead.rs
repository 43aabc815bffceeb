//! Durability cost: what does write-ahead logging add to the hot streaming path?
//!
//! Mines a pool of real queries, then replays the test dataset's monitoring graph
//! through a 1-shard [`ShardedDetector`] twice per measurement pass — once bare, once
//! with a [`durable::Wal`] attached — and reports the log-append overhead as the
//! median per-pair slowdown. The pairing discipline matches `stream_throughput`'s
//! instrumentation-overhead measurement: at tiny scale a single run lasts ~1ms, where
//! clock granularity and background-load drift masquerade as double-digit "overhead",
//! so each pass repeats until ≥25ms of work has accumulated, bare/logged passes come
//! in adjacent pairs (drift cancels in the ratio), and the median of 9 pair ratios is
//! reported.
//!
//! A final logged run (instrumented, with a mid-stream snapshot) feeds the
//! `bench-report/v1` artifact `BENCH_durability_overhead_<scale>.json`:
//! `extra.durability_overhead_pct` carries the headline number,
//! `extra.wal_ns_per_event` the same difference per event (what `bench_diff` gates:
//! it does not move when the bare pass gets faster), `extra.wal` the
//! `durable.*` counter values, and `extra.recovery` the measured cost of rebuilding
//! the detector from the log (`recover_sharded`), which doubles as an end-to-end
//! recovery smoke check.
//!
//! `BQ_SCALE` selects the dataset size, `BQ_BENCH_DIR` the artifact directory.
//! `BQ_SYNC` picks the fsync policy every logged run prices in (`never`, the
//! default; `every_n` = every 8th record; `always`) and is stamped into the
//! artifact as `extra.sync_policy` — `bench_diff` skips the log-cost ceiling
//! when baseline and fresh were measured under different policies.
//!
//! `BQ_FAULTS` switches the bin into its chaos smoke mode: the spec (see
//! [`faults::FaultPlan::parse`], e.g. `wal.fsync=every:3`) is armed on one logged
//! run, which must keep detection parity with a bare run and end with the WAL in
//! typed degraded mode with its injected I/O errors counted — exit 1 otherwise.
//! No artifact is written. `BQ_WAL_RETRIES` sets the retry budget (default 0:
//! every retry advances an every-Nth schedule, so a non-zero budget can heal
//! forever and never latch); `BQ_FAULT_SEED` seeds probability schedules.

use bench::{print_header, print_row, secs, test_data, training_data, write_bench_report, Scale};
use durable::{recover_sharded, RetryPolicy, SyncPolicy, Wal, WalConfig, WalStatus};
use faults::FaultPlan;
use obs::{BenchReport, Json, LatencySummary, MetricsRegistry};
use query::{formulate_queries, QueryOptions};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use stream::{CompiledQuery, LabelPairStats, ShardedDetector};
use syscall::{Behavior, StreamSource};

/// Queries registered in every configuration (the mined pool is cycled to this count).
const QUERY_COUNT: usize = 8;

fn wal_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "durability-overhead-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The fsync policy under measurement, from `BQ_SYNC`.
fn sync_policy() -> SyncPolicy {
    match std::env::var("BQ_SYNC").as_deref() {
        Ok("never") | Err(_) => SyncPolicy::Never,
        Ok("every_n") => SyncPolicy::EveryNRecords(8),
        Ok("always") => SyncPolicy::Always,
        Ok(other) => {
            eprintln!("[durability] unknown BQ_SYNC {other:?} (never | every_n | always)");
            std::process::exit(2);
        }
    }
}

/// Every logged run — parity, paired passes, artifact — prices the same policy.
fn wal_config() -> WalConfig {
    WalConfig {
        sync: sync_policy(),
        ..WalConfig::default()
    }
}

/// Registers the standard `QUERY_COUNT`-query workload on `detector`.
fn register_pool(detector: &mut ShardedDetector, pool: &[(String, CompiledQuery)], window: u64) {
    for i in 0..QUERY_COUNT {
        let (_, query) = &pool[i % pool.len()];
        let cycle = (i / pool.len()) as u64;
        let w = (window / (cycle + 1)).max(1);
        detector
            .register(query.clone(), w)
            .expect("mined queries are valid");
    }
}

struct RunResult {
    elapsed: Duration,
    detections: usize,
}

/// One replay of the full stream. With `wal: Some(dir)` the detector logs every
/// registration and batch to a fresh write-ahead log in `dir` before applying it.
fn run_once(
    source: &StreamSource,
    stats: &LabelPairStats,
    pool: &[(String, CompiledQuery)],
    window: u64,
    wal: Option<&PathBuf>,
) -> RunResult {
    let mut detector = ShardedDetector::with_stats(1, stats.clone());
    let wal = wal.map(|dir| {
        let wal = Wal::create(dir, wal_config()).expect("writable log dir");
        wal.attach_sharded(&mut detector, stats)
            .expect("fresh detector");
        wal
    });
    register_pool(&mut detector, pool, window);
    let mut detections = 0usize;
    let start = Instant::now();
    for batch in source.batches() {
        detections += detector
            .on_batch(batch)
            .expect("replayed dataset streams are valid")
            .len();
    }
    detections += detector.flush().len();
    let elapsed = start.elapsed();
    if let Some(wal) = wal {
        assert!(wal.take_error().is_none(), "log append failed");
    }
    RunResult {
        elapsed,
        detections,
    }
}

fn main() {
    let scale = Scale::from_env();
    let training = training_data(scale);
    let test = test_data(scale, &training);
    let window = test.max_duration;
    let events = test.graph.edge_count();
    if events == 0 {
        eprintln!("[durability] test dataset has no events; nothing to replay");
        std::process::exit(2);
    }

    let options = QueryOptions {
        query_size: 4,
        top_queries: 2,
        miner_top_k: 8,
        cap_per_graph: 32,
    };
    let mut pool: Vec<(String, CompiledQuery)> = Vec::new();
    for behavior in [Behavior::GzipDecompress, Behavior::ScpDownload] {
        eprintln!("[setup] formulating queries for {}...", behavior.name());
        let queries = formulate_queries(&training, behavior, &options);
        if let Some(pattern) = queries.temporal.first() {
            pool.push((
                format!("{}/temporal", behavior.name()),
                CompiledQuery::Temporal(pattern.clone()),
            ));
        }
        pool.push((
            format!("{}/nodeset", behavior.name()),
            CompiledQuery::NodeSet(queries.nodeset.clone()),
        ));
        if let Some(pattern) = queries.nontemporal.first() {
            pool.push((
                format!("{}/ntemp", behavior.name()),
                CompiledQuery::Static(pattern.clone()),
            ));
        }
    }
    let stats = LabelPairStats::from_graph(&test.graph);
    let source = StreamSource::from_test_data(&test, 4096);

    println!(
        "durability_overhead (scale {}, {events} events, window {window}, {QUERY_COUNT} queries, \
         sync {})",
        scale.name(),
        sync_policy().name(),
    );

    if let Ok(spec) = std::env::var("BQ_FAULTS") {
        // Fine-grained batches: at tiny scale the measurement source is a single
        // batch, which would give an every-Nth schedule one hit and no chance to
        // fire. 64-event batches drive enough appends (and periodic fsyncs) for
        // the plan to actually bite; batching never changes detection counts.
        let chaos_source = StreamSource::from_test_data(&test, 64);
        fault_smoke(&spec, &chaos_source, &stats, &pool, window);
    }

    // Logging must not change behavior: the bare and logged runs detect identically.
    {
        let bare = run_once(&source, &stats, &pool, window, None);
        let dir = wal_dir("parity");
        let logged = run_once(&source, &stats, &pool, window, Some(&dir));
        std::fs::remove_dir_all(dir).expect("cleanup");
        assert_eq!(
            bare.detections, logged.detections,
            "attaching a log changed the detection count"
        );
    }

    run_measurement(scale, &source, &stats, &pool, window, events);
}

fn run_measurement(
    scale: Scale,
    source: &StreamSource,
    stats: &LabelPairStats,
    pool: &[(String, CompiledQuery)],
    window: u64,
    events: usize,
) {
    // Paired bare/logged passes; each pass accumulates >=25ms of replay work.
    let pass = |logged: bool| {
        let mut total = Duration::ZERO;
        let mut reps = 0u32;
        while reps == 0 || total < Duration::from_millis(25) {
            let dir = logged.then(|| wal_dir("pass"));
            total += run_once(source, stats, pool, window, dir.as_ref()).elapsed;
            if let Some(dir) = dir {
                std::fs::remove_dir_all(dir).expect("cleanup");
            }
            reps += 1;
        }
        total.as_secs_f64() / f64::from(reps)
    };
    let mut pairs: Vec<(f64, f64)> = (0..9).map(|_| (pass(false), pass(true))).collect();
    pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (bare_secs, logged_secs) = pairs[pairs.len() / 2];
    let overhead_pct = (logged_secs / bare_secs - 1.0).max(0.0) * 100.0;
    let wal_ns_per_event = (logged_secs - bare_secs).max(0.0) * 1e9 / events as f64;

    let widths = [12usize, 12, 12, 14];
    print_header(
        &["config", "secs/run", "events/sec", "overhead_pct"],
        &widths,
    );
    print_row(
        &[
            "bare".into(),
            format!("{bare_secs:.4}"),
            format!("{:.0}", events as f64 / bare_secs),
            "-".into(),
        ],
        &widths,
    );
    print_row(
        &[
            "logged".into(),
            format!("{logged_secs:.4}"),
            format!("{:.0}", events as f64 / logged_secs),
            format!("{overhead_pct:.2}"),
        ],
        &widths,
    );

    // The artifact run: logged, instrumented, with a snapshot cut mid-stream, then a
    // timed recovery from the resulting log.
    let registry = MetricsRegistry::new();
    let dir = wal_dir("artifact");
    let wal = Wal::create(&dir, wal_config()).expect("writable log dir");
    wal.instrument(&registry);
    let mut detector = ShardedDetector::with_stats(1, stats.clone());
    wal.attach_sharded(&mut detector, stats)
        .expect("fresh detector");
    detector.instrument(&registry);
    register_pool(&mut detector, pool, window);
    let batch_latency = registry.histogram("bench.batch_latency_ns");
    let batches = source.batches().count();
    let mut detections = 0usize;
    let start = Instant::now();
    for (i, batch) in source.batches().enumerate() {
        let batch_start = Instant::now();
        detections += detector
            .on_batch(batch)
            .expect("replayed dataset streams are valid")
            .len();
        batch_latency.record(batch_start.elapsed().as_nanos() as u64);
        if i == batches / 2 {
            wal.snapshot_sharded(&detector).expect("snapshot");
        }
    }
    detections += detector.flush().len();
    let elapsed = start.elapsed();
    assert!(wal.take_error().is_none(), "log append failed");
    let shard_stats = detector.shard_stats();
    drop(detector);
    drop(wal);

    let recovery_start = Instant::now();
    let recovered = recover_sharded(&dir, wal_config()).expect("recoverable log");
    let recovery = recovery_start.elapsed();
    assert!(recovered.damage.is_none(), "bench log must recover cleanly");
    assert_eq!(
        recovered.engine.query_count(),
        QUERY_COUNT,
        "recovery must rebuild every registration"
    );
    println!(
        "\nrecovery: {} in {} ({} records across {} segments)",
        recovered.registrations.len(),
        secs(recovery),
        recovered.records_replayed,
        recovered.segments_replayed,
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let snapshot = registry.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    let memory_high_water = snapshot
        .gauge("detector.shard0.memory_bytes")
        .map_or(0, |(_, hw)| hw);
    let retained_high_water = snapshot
        .gauge("detector.shard0.retained_edges")
        .map_or(0, |(_, hw)| hw);
    let latency = snapshot
        .histogram("bench.batch_latency_ns")
        .filter(|h| h.count > 0)
        .map(LatencySummary::from_histogram)
        .unwrap_or_default();

    let mut report = BenchReport::new("durability_overhead", scale.name());
    report.events = events as u64;
    report.detections = detections as u64;
    report.elapsed_ns = elapsed.as_nanos() as u64;
    report.events_per_sec = events as f64 / elapsed.as_secs_f64();
    report.latency = latency;
    report.memory_high_water_bytes = memory_high_water;
    report.retained_edges = retained_high_water;
    report.shards = shard_stats;
    report.extra = vec![
        ("durability_overhead_pct".into(), Json::Num(overhead_pct)),
        ("wal_ns_per_event".into(), Json::Num(wal_ns_per_event)),
        ("sync_policy".into(), Json::Str(sync_policy().name().into())),
        (
            "paired_passes".into(),
            Json::Obj(vec![
                ("pairs".into(), Json::from_u64(pairs.len() as u64)),
                ("bare_secs".into(), Json::Num(bare_secs)),
                ("logged_secs".into(), Json::Num(logged_secs)),
            ]),
        ),
        (
            "wal".into(),
            Json::Obj(vec![
                (
                    "records_total".into(),
                    Json::from_u64(counter("durable.records_total")),
                ),
                (
                    "bytes_total".into(),
                    Json::from_u64(counter("durable.bytes_total")),
                ),
                (
                    "rotations_total".into(),
                    Json::from_u64(counter("durable.rotations_total")),
                ),
                (
                    "snapshots_total".into(),
                    Json::from_u64(counter("durable.snapshots_total")),
                ),
                (
                    "fsyncs_total".into(),
                    Json::from_u64(counter("durable.fsyncs_total")),
                ),
            ]),
        ),
        (
            "recovery".into(),
            Json::Obj(vec![
                (
                    "elapsed_ns".into(),
                    Json::from_u64(recovery.as_nanos() as u64),
                ),
                (
                    "records_replayed".into(),
                    Json::from_u64(recovered.records_replayed),
                ),
                (
                    "segments_replayed".into(),
                    Json::from_u64(recovered.segments_replayed),
                ),
                (
                    "registrations".into(),
                    Json::from_u64(recovered.registrations.len() as u64),
                ),
            ]),
        ),
    ];
    if let Err(error) = write_bench_report(&report) {
        eprintln!("[durability] failed to write bench report: {error}");
        std::process::exit(1);
    }
}

/// The `BQ_FAULTS` chaos smoke: one logged run under the armed plan. Detections
/// must match a bare run exactly (durability faults never touch the hot path's
/// results), and the WAL must end in typed degraded mode with every injected
/// fault counted — the self-healing contract, exercised on real mined queries.
/// Exits 0 on success, 1 on any violated expectation; never writes an artifact.
fn fault_smoke(
    spec: &str,
    source: &StreamSource,
    stats: &LabelPairStats,
    pool: &[(String, CompiledQuery)],
    window: u64,
) -> ! {
    let seed = std::env::var("BQ_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let plan = match FaultPlan::parse(spec, seed) {
        Ok(plan) => plan,
        Err(message) => {
            eprintln!("[durability] bad BQ_FAULTS: {message}");
            std::process::exit(2);
        }
    };
    let retries: u32 = std::env::var("BQ_WAL_RETRIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let config = WalConfig {
        sync: sync_policy(),
        retry: RetryPolicy {
            attempts: retries,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
        },
        ..WalConfig::default()
    };
    println!(
        "fault smoke: plan {:?} (seed {seed}, retries {retries}, sync {})",
        plan.armed_points(),
        config.sync.name(),
    );

    let bare = run_once(source, stats, pool, window, None);

    let registry = MetricsRegistry::new();
    let dir = wal_dir("faults");
    let wal = Wal::create(&dir, config).expect("writable log dir");
    wal.instrument(&registry);
    let mut detector = ShardedDetector::with_stats(1, stats.clone());
    wal.attach_sharded(&mut detector, stats)
        .expect("fresh detector");
    register_pool(&mut detector, pool, window);
    wal.set_fault_plan(plan.clone());
    let mut detections = 0usize;
    for batch in source.batches() {
        detections += detector
            .on_batch(batch)
            .expect("durability faults never fail the engine")
            .len();
    }
    detections += detector.flush().len();

    let status = wal.status();
    let io_errors = wal.io_errors();
    let dropped = wal.dropped_ops();
    println!(
        "fault smoke: {} fired, {io_errors} I/O errors, {dropped} dropped ops, status {status:?}",
        plan.total_fired(),
    );
    let snapshot = registry.snapshot();
    let mut failed = false;
    if detections != bare.detections {
        eprintln!(
            "[durability] FAIL: faults changed detections (bare {}, faulted {detections})",
            bare.detections
        );
        failed = true;
    }
    if status != WalStatus::Degraded {
        eprintln!("[durability] FAIL: expected the armed WAL to end degraded, got {status:?}");
        failed = true;
    }
    if io_errors == 0 {
        eprintln!("[durability] FAIL: degraded without counted I/O errors");
        failed = true;
    }
    if snapshot.counter("durable.io_errors_total").unwrap_or(0) != io_errors {
        eprintln!("[durability] FAIL: durable.io_errors_total disagrees with the handle");
        failed = true;
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
    std::process::exit(i32::from(failed));
}
