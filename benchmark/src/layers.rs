//! The per-layer budget of the traced run: each layer priced from outside, by timing
//! public calls and by differential passes (the same replay with one thing added).
//!
//! The single-stream and tenant-pool inputs are both built here at the run's size,
//! whatever engine the workload itself drives, so a layer's numbers mean the same on
//! every workload. Counts come from public results and repeat exactly for one seed;
//! timings are medians of a few passes and have no bound.

use crate::engine::{Engine, TENANTS};
use crate::phases::{
    cycle, dir_bytes, generate_test, run_pass, segment_count, timed_recover, Attach, Harness,
    PassResult, PassSpec, BATCH, LAG_BATCH,
};
use crate::run::{Base, Metric};
use crate::stats::{median, percentile};
use durable::{SyncPolicy, WalConfig};
use obs::MetricValue;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use stream::{CompiledQuery, Detector, LabelPairStats, ShardedDetector, TenantPool};
use syscall::events_of_graph;
use tgminer::{mine, score::LogRatio, MinerConfig, MiningStats};
use tgraph::IncrementalGraph;

/// Growth levels reported (`tgminer.level<k>.*`): the paper's query size.
pub const LEVELS: usize = 6;

/// The flush policy per-layer log measurements share with the `durable` workload.
const STANDARD_SYNC: SyncPolicy = SyncPolicy::EveryNRecords(8);

/// Name, unit and whether higher is better, of every per-layer metric, in report
/// order. Counts of work done read "lower is better"; counts that only describe the
/// input or the sample read "higher".
pub fn names() -> Vec<(String, &'static str, bool)> {
    const HEAD: [(&str, &str, bool); 15] = [
        ("syscall.gen_training_s", "s", false),
        ("syscall.gen_test_s", "s", false),
        ("syscall.source_ns_per_event", "ns", false),
        ("tgraph.append_ns_per_event", "ns", false),
        ("tgraph.live_edges_peak", "count", false),
        ("tgraph.nodes", "count", false),
        ("tgminer.mine_s", "s", false),
        ("tgminer.ns_per_candidate", "ns", false),
        ("tgminer.patterns_processed", "count", false),
        ("tgminer.patterns_expanded", "count", false),
        ("tgminer.extensions_evaluated", "count", false),
        ("tgminer.embeddings_materialized", "count", false),
        ("tgminer.subgraph_tests", "count", false),
        ("tgminer.residual_equiv_tests", "count", false),
        ("tgminer.prune_ratio", "fraction", true),
    ];
    const TAIL: [(&str, &str, bool); 41] = [
        ("query.formulate_overhead_s", "s", false),
        ("query.evaluate_s", "s", false),
        ("query.search_temporal_ns_per_event", "ns", false),
        ("query.search_static_ns_per_event", "ns", false),
        ("query.search_nodeset_ns_per_event", "ns", false),
        ("stream.detector.q0_ns_per_event", "ns", false),
        ("stream.detector.q1_ns_per_event", "ns", false),
        ("stream.detector.q32_ns_per_event", "ns", false),
        ("stream.detector.temporal_ns_per_event", "ns", false),
        ("stream.detector.static_ns_per_event", "ns", false),
        ("stream.detector.nodeset_ns_per_event", "ns", false),
        ("stream.detector.detections", "count", true),
        ("stream.detector.dropped_branches", "count", false),
        ("stream.detector.memory_bytes_peak", "bytes", false),
        ("stream.detector.lag_p99_us", "us", false),
        ("stream.detector.lag_samples", "count", true),
        ("stream.shard.wrapper_overhead_pct", "%", false),
        ("stream.shard.shard2_events_per_s", "events/s", true),
        ("stream.shard.detection_skew", "ratio", false),
        ("stream.tenant.demux_merge_overhead_pct", "%", false),
        ("stream.tenant.groups2_events_per_s", "events/s", true),
        ("stream.tenant.group_skew", "ratio", false),
        ("durable.wal.append_ns_per_event", "ns", false),
        ("durable.wal.encode_ns_per_event", "ns", false),
        ("durable.wal.sync_never_events_per_s", "events/s", true),
        ("durable.wal.sync_always_events_per_s", "events/s", true),
        ("durable.wal.pool_logged_events_per_s", "events/s", true),
        ("durable.wal.bytes", "bytes", false),
        ("durable.wal.segments", "count", false),
        ("durable.wal.fsyncs", "count", false),
        ("durable.wal.batch_p99_us", "us", false),
        ("durable.snapshot.write_ms", "ms", false),
        ("durable.snapshot.bytes", "bytes", false),
        ("durable.recover.decode_s", "s", false),
        ("durable.recover.replay_s", "s", false),
        ("durable.recover.records_replayed", "count", false),
        ("durable.recover.with_snapshot_s", "s", false),
        ("obs.metrics_overhead_pct", "%", false),
        ("obs.profiler_overhead_pct", "%", false),
        ("bench.trace_overhead_pct", "%", false),
        ("bench.spans", "count", true),
    ];
    let own = |(name, unit, higher): (&str, &'static str, bool)| (name.to_string(), unit, higher);
    let mut names: Vec<_> = HEAD.into_iter().map(own).collect();
    for level in 1..=LEVELS {
        for column in ["candidates", "pruned", "embeddings"] {
            names.push((format!("tgminer.level{level}.{column}"), "count", false));
        }
    }
    names.extend(TAIL.into_iter().map(own));
    names
}

/// One pass of `spec` on a fresh engine: its seconds and the pass. A log directory
/// is removed before returning.
fn timed<E: Engine>(
    h: &mut Harness,
    source: &E::Source,
    stats: &LabelPairStats,
    spec: &PassSpec<'_>,
) -> (f64, PassResult<E>) {
    let pass = run_pass::<E>(h, source, stats, spec);
    if let Some(dir) = &pass.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    (pass.elapsed_ns as f64 / 1e9, pass)
}

/// Median seconds of `passes` (at least one) passes of `spec`, and the last pass.
fn repeat<E: Engine>(
    h: &mut Harness,
    passes: usize,
    source: &E::Source,
    stats: &LabelPairStats,
    spec: &PassSpec<'_>,
) -> (f64, PassResult<E>) {
    let (first, mut last) = timed::<E>(h, source, stats, spec);
    let mut seconds = vec![first];
    for _ in 1..passes {
        let (next, pass) = timed::<E>(h, source, stats, spec);
        seconds.push(next);
        last = pass;
    }
    (median(&seconds), last)
}

/// Median seconds of each of several measurements, their repetitions interleaved
/// (A B C, A B C, …) so that drift over the measurement lands on every side alike.
fn interleaved<const N: usize>(
    h: &mut Harness,
    passes: usize,
    mut sides: [&mut dyn FnMut(&mut Harness) -> f64; N],
) -> [f64; N] {
    let mut seconds = [(); N].map(|()| Vec::with_capacity(passes));
    for _ in 0..passes {
        for (side, measure) in sides.iter_mut().enumerate() {
            seconds[side].push(measure(h));
        }
    }
    seconds.map(|side| median(&side))
}

fn overhead_pct(with: f64, without: f64) -> f64 {
    (with - without) / without * 100.0
}

/// Largest share over mean share: 1.0 is a perfectly even split.
fn skew(shares: impl Iterator<Item = u64>) -> f64 {
    let shares: Vec<f64> = shares.map(|s| s as f64).collect();
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    if mean == 0.0 {
        return 1.0;
    }
    shares.iter().fold(0.0f64, |a, &b| a.max(b)) / mean
}

/// One bare `stream::Detector` pass — what `ShardedDetector(1)` wraps.
fn detector_pass(
    h: &mut Harness,
    source: &syscall::StreamSource,
    queries: &[(CompiledQuery, u64)],
) -> f64 {
    let mut detector = Detector::new();
    for (query, window) in queries {
        if let Err(error) = detector.register(query.clone(), *window) {
            h.op(false, || format!("Detector::register: {error}"));
        }
    }
    let mut found = 0usize;
    let start = Instant::now();
    for batch in source.batches() {
        match detector.on_batch(batch) {
            Ok(detections) => {
                h.attempted += 1;
                found += detections.len();
            }
            Err(error) => h.op(false, || format!("Detector::on_batch: {error}")),
        }
    }
    found += detector.flush().len();
    black_box(found);
    start.elapsed().as_secs_f64()
}

pub fn measure<E: Engine>(h: &mut Harness, base: &Base<'_, E>) -> Vec<Metric> {
    let config = base.config;
    let sizes = &config.sizes;
    let passes = sizes.layer_passes;
    let inputs = &base.built.inputs;
    let window = base.window;
    // The differentials register from the first three classes' queries, so a pass
    // costs about the same on every workload however many classes it mined.
    let pool = &base.pool[..base.pool.len().min(9)];
    let mut measured = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        measured.insert(name.to_string(), value);
    };

    // Both input shapes at the run's size. The pool's run already holds the full
    // single stream (it scores accuracy on it); every other run builds the
    // per-tenant stream here.
    let per_tenant;
    let (single, tenant) = match &base.built.evaluation {
        Some(full) => (full, &inputs.test),
        None => {
            let instances = (sizes.instances / TENANTS).max(1);
            per_tenant = generate_test(h, sizes, config.seed, instances, &inputs.training);
            (&inputs.test, &per_tenant)
        }
    };
    let single_stats = LabelPairStats::from_graph(&single.graph);
    let tenant_stats = LabelPairStats::from_graph(&tenant.graph);
    let single_source = ShardedDetector::source(single, BATCH);
    let single_events = single_source.len() as f64;
    let per_event = |seconds: f64| seconds * 1e9 / single_events;

    // syscall: generation is timed in set-up; the source is priced by iteration alone.
    put("syscall.gen_training_s", inputs.gen_training_s);
    put("syscall.gen_test_s", inputs.gen_test_s);
    let start = Instant::now();
    let mut seen = 0usize;
    for batch in single_source.batches() {
        seen += black_box(batch).len();
    }
    black_box(seen);
    put(
        "syscall.source_ns_per_event",
        per_event(start.elapsed().as_secs_f64()),
    );

    // tgraph: the incremental graph alone — validate, append, retention.
    let events = events_of_graph(&single.graph);
    let mut graph = IncrementalGraph::with_retention(window);
    let mut live_peak = 0usize;
    let mut rejected = 0usize;
    let start = Instant::now();
    for event in &events {
        if graph.validate(event).is_err() || graph.append(*event).is_err() {
            rejected += 1;
        }
        live_peak = live_peak.max(graph.live_edge_count());
    }
    put(
        "tgraph.append_ns_per_event",
        per_event(start.elapsed().as_secs_f64()),
    );
    h.op(rejected == 0, || {
        format!("IncrementalGraph rejected {rejected} events")
    });
    put("tgraph.live_edges_peak", live_peak as f64);
    put("tgraph.nodes", graph.node_count() as f64);
    drop((graph, events));

    // tgminer: the miner alone, configured as `formulate_queries` configures it.
    let miner_config = MinerConfig {
        max_edges: base.workload.options.query_size,
        top_k: base.workload.options.miner_top_k,
        cap_per_graph: base.workload.options.cap_per_graph,
        ..MinerConfig::default()
    };
    let mut mining = MiningStats::default();
    let mut mine_s = 0.0;
    for (&class, formulated) in base.workload.classes.iter().zip(base.mined) {
        let span = h.tracer.enter("tgminer::mine");
        let start = Instant::now();
        let result = mine(
            inputs.training.positives(class),
            inputs.training.negatives(),
            &LogRatio::default(),
            &miner_config,
        );
        mine_s += start.elapsed().as_secs_f64();
        h.tracer.exit(span);
        let same = result.stats.patterns_processed == formulated.mining.stats.patterns_processed
            && result.stats.levels == formulated.mining.stats.levels;
        h.op(same, || {
            format!(
                "mining {} directly did other work than formulate_queries did",
                class.name()
            )
        });
        mining.merge(&result.stats);
    }
    let prunes = mining.upper_bound_prunes + mining.subgraph_prunes + mining.supergraph_prunes;
    put("tgminer.mine_s", mine_s);
    put(
        "tgminer.ns_per_candidate",
        mine_s * 1e9 / mining.patterns_processed.max(1) as f64,
    );
    for (name, count) in [
        ("patterns_processed", mining.patterns_processed),
        ("patterns_expanded", mining.patterns_expanded),
        ("extensions_evaluated", mining.extensions_evaluated),
        ("embeddings_materialized", mining.embeddings_materialized),
        ("subgraph_tests", mining.subgraph_tests),
        ("residual_equiv_tests", mining.residual_equiv_tests),
    ] {
        put(&format!("tgminer.{name}"), count as f64);
    }
    put(
        "tgminer.prune_ratio",
        prunes as f64 / mining.patterns_processed.max(1) as f64,
    );
    for level in 1..=LEVELS {
        let row = mining.levels.iter().find(|row| row.level == level);
        let (candidates, pruned, embeddings) =
            row.map_or((0, 0, 0), |r| (r.candidates, r.pruned, r.embeddings));
        put(
            &format!("tgminer.level{level}.candidates"),
            candidates as f64,
        );
        put(&format!("tgminer.level{level}.pruned"), pruned as f64);
        put(
            &format!("tgminer.level{level}.embeddings"),
            embeddings as f64,
        );
    }

    // query: what formulation adds to mining, and the matchers without an engine.
    put("query.formulate_overhead_s", base.formulate_s - mine_s);
    put("query.evaluate_s", base.evaluate_s);
    type Kind = fn(&CompiledQuery) -> bool;
    let kinds: [(&str, Kind); 3] = [
        ("temporal", |q| matches!(q, CompiledQuery::Temporal(_))),
        ("static", |q| matches!(q, CompiledQuery::Static(_))),
        ("nodeset", |q| matches!(q, CompiledQuery::NodeSet(_))),
    ];
    for (kind, is_kind) in kinds {
        let seconds = pool.iter().find(|q| is_kind(q)).map_or(0.0, |query| {
            let span = h.tracer.enter("CompiledQuery::search");
            let start = Instant::now();
            black_box(query.search(&single.graph, window));
            let seconds = start.elapsed().as_secs_f64();
            h.tracer.exit(span);
            seconds
        });
        put(
            &format!("query.search_{kind}_ns_per_event"),
            per_event(seconds),
        );
    }

    // stream.detector: one shard, nothing attached, the registered set varied.
    let none: Vec<(CompiledQuery, u64)> = Vec::new();
    let one = cycle(pool, 1, window);
    let many = cycle(pool, 32, window);
    let eight = cycle(pool, 8, window);
    let mut detector_ns = |h: &mut Harness, name: &str, queries: &[(CompiledQuery, u64)]| {
        let (seconds, pass) = repeat::<ShardedDetector>(
            h,
            passes,
            &single_source,
            &single_stats,
            &PassSpec::bare(queries),
        );
        put(
            &format!("stream.detector.{name}_ns_per_event"),
            per_event(seconds),
        );
        pass
    };
    detector_ns(h, "q0", &none);
    detector_ns(h, "q1", &one);
    let full = detector_ns(h, "q32", &many);
    for (kind, is_kind) in kinds {
        let alone: Vec<(CompiledQuery, u64)> = pool
            .iter()
            .filter(|q| is_kind(q))
            .map(|q| (q.clone(), window))
            .collect();
        detector_ns(h, kind, &alone);
    }
    put("stream.detector.detections", full.detections.len() as f64);
    put(
        "stream.detector.dropped_branches",
        full.engine.dropped_branches() as f64,
    );
    drop(full);
    let many_spec = PassSpec::bare(&many);
    let instrumented = run_pass::<ShardedDetector>(
        h,
        &single_source,
        &single_stats,
        &PassSpec {
            attach: Attach::Metrics,
            ..many_spec.clone()
        },
    );
    let memory_peak: u64 = instrumented
        .metrics
        .entries
        .iter()
        .filter(|(name, _)| name.ends_with(".memory_bytes"))
        .map(|(_, value)| match value {
            MetricValue::Gauge { high_water, .. } => *high_water,
            _ => 0,
        })
        .sum();
    drop(instrumented);
    put("stream.detector.memory_bytes_peak", memory_peak as f64);
    put(
        "stream.detector.lag_p99_us",
        percentile(base.lag_ns, 9_900) as f64 / 1e3,
    );
    put("stream.detector.lag_samples", base.lag_ns.len() as f64);

    // stream.shard: the wrapper against the detector it wraps, and a second shard
    // (informational: two threads on shared cores).
    let [unwrapped, wrapped] = interleaved(
        h,
        passes,
        [&mut |h| detector_pass(h, &single_source, &many), &mut |h| {
            timed::<ShardedDetector>(h, &single_source, &single_stats, &many_spec).0
        }],
    );
    put(
        "stream.shard.wrapper_overhead_pct",
        overhead_pct(wrapped, unwrapped),
    );
    let (seconds, two_shards) = repeat::<ShardedDetector>(
        h,
        passes,
        &single_source,
        &single_stats,
        &PassSpec {
            width: 2,
            ..many_spec.clone()
        },
    );
    put("stream.shard.shard2_events_per_s", single_events / seconds);
    put(
        "stream.shard.detection_skew",
        skew(two_shards.engine.split().iter().map(|s| s.1)),
    );
    drop(two_shards);

    // stream.tenant: the pool against its eight tenants run one after another.
    let eight_spec = PassSpec::bare(&eight);
    let tenant_source = TenantPool::source(tenant, BATCH);
    let tenant_events = tenant_source.len() as f64;
    let one_tenant_source = ShardedDetector::source(tenant, BATCH);
    let [isolated, pooled] = interleaved(
        h,
        passes,
        [
            &mut |h| timed::<ShardedDetector>(h, &one_tenant_source, &tenant_stats, &eight_spec).0,
            &mut |h| timed::<TenantPool>(h, &tenant_source, &tenant_stats, &eight_spec).0,
        ],
    );
    put(
        "stream.tenant.demux_merge_overhead_pct",
        overhead_pct(pooled, isolated * TENANTS as f64),
    );
    let (seconds, two_groups) = repeat::<TenantPool>(
        h,
        passes,
        &tenant_source,
        &tenant_stats,
        &PassSpec {
            width: 2,
            ..eight_spec.clone()
        },
    );
    put(
        "stream.tenant.groups2_events_per_s",
        tenant_events / seconds,
    );
    put(
        "stream.tenant.group_skew",
        skew(two_groups.engine.split().iter().map(|s| s.0)),
    );
    drop(two_groups);

    // durable.wal: the same eight-query replay bare, logged without fsync, and
    // logged with an fsync per record; then the pool's tenant-batch records.
    let with_sync = |sync| WalConfig {
        sync,
        ..WalConfig::default()
    };
    let never_spec = PassSpec {
        wal: Some(with_sync(SyncPolicy::Never)),
        ..eight_spec.clone()
    };
    let always_spec = PassSpec {
        wal: Some(with_sync(SyncPolicy::Always)),
        ..eight_spec.clone()
    };
    let [bare, never, always] = interleaved(
        h,
        passes,
        [
            &mut |h| timed::<ShardedDetector>(h, &single_source, &single_stats, &eight_spec).0,
            &mut |h| timed::<ShardedDetector>(h, &single_source, &single_stats, &never_spec).0,
            &mut |h| timed::<ShardedDetector>(h, &single_source, &single_stats, &always_spec).0,
        ],
    );
    put("durable.wal.append_ns_per_event", per_event(never - bare));
    put("durable.wal.sync_never_events_per_s", single_events / never);
    put(
        "durable.wal.sync_always_events_per_s",
        single_events / always,
    );
    let records: Vec<_> = single_source
        .batches()
        .map(ShardedDetector::record)
        .collect();
    let start = Instant::now();
    for record in &records {
        black_box(record.encode());
    }
    put(
        "durable.wal.encode_ns_per_event",
        per_event(start.elapsed().as_secs_f64()),
    );
    drop(records);
    let (seconds, _) = repeat::<TenantPool>(h, passes, &tenant_source, &tenant_stats, &never_spec);
    put(
        "durable.wal.pool_logged_events_per_s",
        tenant_events / seconds,
    );
    put("durable.wal.bytes", base.wal_bytes as f64);
    put("durable.wal.segments", base.wal_segments as f64);
    // Small batches under the standard flush policy: the stalls a median hides.
    let standard = with_sync(STANDARD_SYNC);
    let stalls = run_pass::<ShardedDetector>(
        h,
        &ShardedDetector::source(single, LAG_BATCH),
        &single_stats,
        &PassSpec {
            wal: Some(standard.clone()),
            attach: Attach::Metrics,
            ..eight_spec.clone()
        },
    );
    put(
        "durable.wal.fsyncs",
        stalls.metrics.counter("durable.fsyncs_total").unwrap_or(0) as f64,
    );
    put(
        "durable.wal.batch_p99_us",
        percentile(&stalls.batch_ns, 9_900) as f64 / 1e3,
    );
    if let Some(dir) = &stalls.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    drop(stalls);

    // durable.snapshot / durable.recover: a snapshot cut mid-stream, a crash at 90%,
    // and what the snapshot saves recovery.
    let batches = single_source.batches().len();
    let crashed = run_pass::<ShardedDetector>(
        h,
        &single_source,
        &single_stats,
        &PassSpec {
            wal: Some(standard.clone()),
            snapshot_after: Some((batches / 2).max(1)),
            stop_after: Some((batches * 9 / 10).max(1)),
            ..eight_spec.clone()
        },
    );
    let (snapshot_s, snapshot_bytes) = crashed.snapshot.unwrap_or((0.0, 0));
    let crashed_dir = crashed.wal_dir.clone();
    drop(crashed);
    put("durable.snapshot.write_ms", snapshot_s * 1e3);
    put("durable.snapshot.bytes", snapshot_bytes as f64);
    put("durable.recover.decode_s", base.decode_s);
    put("durable.recover.replay_s", base.recover_s - base.decode_s);
    put(
        "durable.recover.records_replayed",
        base.records_replayed as f64,
    );
    let mut with_snapshot = Vec::new();
    if let Some(dir) = &crashed_dir {
        h.op(segment_count(dir) > 1 && dir_bytes(dir) > 0, || {
            "the snapshot did not rotate the log".to_string()
        });
        for _ in 0..passes {
            if let Some((seconds, _)) = timed_recover::<ShardedDetector>(h, dir, &standard) {
                with_snapshot.push(seconds);
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    put(
        "durable.recover.with_snapshot_s",
        // No sample (every recovery failed, and was counted) is a metric without a
        // value, which fails the run.
        if with_snapshot.is_empty() {
            f64::NAN
        } else {
            median(&with_snapshot)
        },
    );

    // obs and bench: the workload's own pass with instruments, with the profiler,
    // and with this harness's span recorder off.
    let own = PassSpec {
        wal: base.workload.logged.then(|| base.workload.wal_config()),
        ..PassSpec::bare(base.registered)
    };
    let with_metrics = PassSpec {
        attach: Attach::Metrics,
        ..own.clone()
    };
    let profiled = PassSpec {
        attach: Attach::Profiled,
        ..own.clone()
    };
    let (source, stats) = (&base.built.source, &base.built.stats);
    let [plain, metered, profiled, untraced] = interleaved(
        h,
        passes,
        [
            &mut |h| timed::<E>(h, source, stats, &own).0,
            &mut |h| timed::<E>(h, source, stats, &with_metrics).0,
            &mut |h| timed::<E>(h, source, stats, &profiled).0,
            &mut |h| {
                h.tracer.set_enabled(false);
                let seconds = timed::<E>(h, source, stats, &own).0;
                h.tracer.set_enabled(true);
                seconds
            },
        ],
    );
    put("obs.metrics_overhead_pct", overhead_pct(metered, plain));
    put("obs.profiler_overhead_pct", overhead_pct(profiled, plain));
    put("bench.trace_overhead_pct", overhead_pct(plain, untraced));
    put("bench.spans", h.tracer.spans().len() as f64);

    // Report in table order; a name the table lacks, or one never measured, is a bug
    // the unit tests catch (the latter surfaces as a metric without a value).
    let metrics = names()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = measured.remove(&name).unwrap_or(f64::NAN);
            Metric::new(name, unit, value)
        })
        .collect();
    assert!(
        measured.is_empty(),
        "unlisted per-layer metrics: {measured:?}"
    );
    metrics
}
