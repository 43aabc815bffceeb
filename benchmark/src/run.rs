//! One run of one workload: set up, mine the workload's queries, deploy them on its
//! engine, crash and recover it, and check every output on the way.
//!
//! Every workload walks the same pipeline and reports every end-to-end metric; what
//! differs is the configuration (classes and query size, registered queries, engine
//! shape, whether passes are logged) and which phase receives the time left of
//! `--seconds` after the others have made their minimum number of passes.

use crate::engine::Engine;
use crate::layers;
use crate::phases::{
    accuracy, check_same_detections, check_stream_parity, cycle, dir_bytes, fingerprint,
    generate_inputs, generate_test, mine_classes, peak_rss_mb, query_pool, run_pass, segment_count,
    timed_recover, Fingerprint, Harness, Inputs, PassResult, PassSpec, Sizes, BATCH, LAG_BATCH,
};
use crate::stats::{lower_decile, median, percentile, tail_percentile};
use crate::workloads::{Primary, Workload};
use query::BehaviorQueries;
use std::time::{Duration, Instant};
use stream::{CompiledQuery, LabelPairStats};
use syscall::TestData;

/// A reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How it was measured (repetitions, their median, sample count), for the report.
    pub detail: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            detail: String::new(),
        }
    }

    pub fn with_detail(mut self, detail: String) -> Self {
        self.detail = detail;
        self
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// `--seed`: the monitored stream's.
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Hold the generated inputs against [`PINNED`] (full size, seed 2015).
    pub pin_inputs: bool,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub fingerprint: Option<Fingerprint>,
}

/// The inputs of seed 2015 at full size: a generator change must show up as a
/// failed run, because numbers measured on different inputs do not compare.
/// (`BENCHMARK.json` admits no extra key, so the values live here.)
pub const PINNED_SEED: u64 = 2015;
pub const PINNED: [(usize, Fingerprint); 2] = [
    // One stream of 4,000 behavior instances (every workload but `pool`).
    (
        1,
        Fingerprint {
            training_hash: 0xd6e4_0455_0e5c_69ca,
            training_edges: 40_540,
            stream_hash: 0x387e_47b6_d29d_7e4d,
            stream_events: 629_080,
            stream_nodes: 329_785,
        },
    ),
    // The per-tenant stream of 500 instances that `pool` replicates eight times.
    (
        8,
        Fingerprint {
            training_hash: 0xd6e4_0455_0e5c_69ca,
            training_edges: 40_540,
            stream_hash: 0x8d57_af4c_e8da_0958,
            stream_events: 78_101,
            stream_nodes: 41_235,
        },
    ),
];

/// Everything the set-up phase leaves behind.
pub struct Built<E: Engine> {
    pub inputs: Inputs,
    /// Accuracy is scored on a stream of the full instance count. The pool replays
    /// an eighth of that per tenant — too few instances for a steady recall — so it
    /// generates the full stream as well, for scoring only.
    pub evaluation: Option<TestData>,
    pub stats: LabelPairStats,
    pub source: E::Source,
    pub lag_source: E::Source,
}

/// What the base phases learned, handed to the per-layer measurements.
pub struct Base<'a, E: Engine> {
    pub workload: &'a Workload,
    pub config: &'a RunConfig,
    pub built: &'a Built<E>,
    pub mined: &'a [BehaviorQueries],
    pub pool: &'a [CompiledQuery],
    pub registered: &'a [(CompiledQuery, u64)],
    pub window: u64,
    pub formulate_s: f64,
    pub evaluate_s: f64,
    pub lag_ns: &'a [u64],
    pub recover_s: f64,
    pub decode_s: f64,
    pub records_replayed: u64,
    pub wal_bytes: u64,
    pub wal_segments: u64,
}

fn build<E: Engine>(h: &mut Harness, config: &RunConfig, sizes: &Sizes) -> Built<E> {
    let instances = (sizes.instances / E::tenants()).max(1);
    let inputs = generate_inputs(h, sizes, config.seed, instances);
    let evaluation = (instances != sizes.instances)
        .then(|| generate_test(h, sizes, config.seed, sizes.instances, &inputs.training));
    let stats = LabelPairStats::from_graph(&inputs.test.graph);
    let source = E::source(&inputs.test, BATCH);
    let lag_source = E::source(&inputs.test, LAG_BATCH);
    Built {
        inputs,
        evaluation,
        stats,
        source,
        lag_source,
    }
}

pub fn run<E: Engine>(h: &mut Harness, workload: &Workload, config: &RunConfig) -> Outcome {
    // A traced run reports per-layer metrics only: minimum passes, no filling.
    let (sizes, seconds) = if config.trace {
        (config.sizes.traced(), 0.0)
    } else {
        (config.sizes, config.seconds)
    };
    let mut outcome = Outcome::default();

    // Set-up, several times over: steadier than one shot, and work moved into set-up
    // still shows.
    let mut setup_s = Vec::new();
    let mut built: Option<Built<E>> = None;
    for _ in 0..sizes.setups {
        drop(built.take()); // free the previous inputs first: peak memory is a metric
        let start = Instant::now();
        let fresh = build::<E>(h, config, &sizes);
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some(fresh);
    }
    let built = built.expect("at least one set-up");
    let test = &built.inputs.test;
    let print = fingerprint(&built.inputs);
    outcome.fingerprint = Some(print);
    if config.pin_inputs {
        let pinned = PINNED.iter().find(|(tenants, _)| *tenants == E::tenants());
        h.op(pinned.map(|(_, p)| *p) == Some(print), || {
            format!("inputs of seed {PINNED_SEED} changed: {print:?}, pinned {pinned:?}")
        });
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    // Mine the workload's classes; the queries are what the rest of the run deploys.
    // Every class keeps the seconds of each of its calls: a class's time is taken
    // over its own calls, so a burst that hits one class in one repetition does not
    // land on the whole sum.
    let training = &built.inputs.training;
    let (mined, first_rep) = mine_classes(h, training, workload.classes, &workload.options);
    let formulate_s: f64 = first_rep.iter().sum();
    let mut class_s: Vec<Vec<f64>> = first_rep.into_iter().map(|s| vec![s]).collect();
    let mine_again = |h: &mut Harness, class_s: &mut [Vec<f64>]| {
        let repeated = &workload.classes[..workload.repeated];
        let (_, seconds) = mine_classes(h, training, repeated, &workload.options);
        for (calls, s) in class_s.iter_mut().zip(seconds) {
            calls.push(s);
        }
    };
    let (precision, recall, evaluate_s) =
        accuracy(h, &mined, built.evaluation.as_ref().unwrap_or(test));

    // Deploy: the registered set, and what the offline search says it must find.
    let pool = query_pool(&mined);
    let window = test.max_duration;
    let registered = cycle(&pool, workload.queries, window);
    let span = h.tracer.enter("CompiledQuery::search");
    let expected: Vec<usize> = registered
        .iter()
        .map(|(query, window)| query.search(&test.graph, *window).len())
        .collect();
    h.tracer.exit(span);
    let events = E::event_count(&built.source);
    let bare = PassSpec::bare(&registered);
    let logged = PassSpec {
        wal: Some(workload.wal_config()),
        ..bare.clone()
    };
    let measured = if workload.logged { &logged } else { &bare };

    let reference = run_pass::<E>(h, &built.source, &built.stats, &bare);
    check_stream_parity::<E>(h, "reference pass", &reference.detections, &expected);

    // Crash at 90% of the stream. The log is recovered from below, with no snapshot
    // (the worst case: decode plus full replay).
    let batches = E::batches(&built.source).len();
    let crash_at = (batches * 9 / 10).clamp(1, batches.max(2) - 1);
    let wal_config = workload.wal_config();
    let crash = run_pass::<E>(
        h,
        &built.source,
        &built.stats,
        &PassSpec {
            stop_after: Some(crash_at),
            ..logged.clone()
        },
    );
    let tail_from = reference
        .detections_before
        .get(crash_at)
        .copied()
        .unwrap_or(reference.detections.len());
    check_same_detections(
        h,
        "logged prefix",
        &crash.detections,
        &reference.detections[..tail_from],
    );
    let crash_dir = crash
        .wal_dir
        .clone()
        .expect("a logged pass has a directory");
    let crash_events = crash.events;
    drop(crash);
    let wal_bytes = dir_bytes(&crash_dir);
    let wal_segments = segment_count(&crash_dir);
    let mut decode_s = 0.0;
    if config.trace {
        let span = h.tracer.enter("read_logged_events");
        let start = Instant::now();
        let decoded = E::read_log(&crash_dir);
        decode_s = start.elapsed().as_secs_f64();
        h.tracer.exit(span);
        h.op(decoded.as_ref().ok() == Some(&crash_events), || {
            format!("decoded {decoded:?} events, logged {crash_events}")
        });
    }

    // The timed phases, interleaved in rounds rather than run one after another: a
    // burst of interference on the shared cores then lands on a few samples of every
    // metric, which the deciles shrug off, instead of on most samples of one.
    //   throughput  one full-stream pass on a fresh engine
    //   recovery    one timed recovery of the crashed log
    //   latency     a small-batch pass, every batch a sample
    //   mining      a stream workload's pool mines in a fraction of a second, so it
    //               is repeated in each of the required rounds — not in the further
    //               ones: many cycles of mining next to recovery fragment the heap,
    //               and peak memory then moves 5-13 % from run to run
    // A stream workload goes on for as many rounds as `--seconds` holds.
    let streaming = workload.primary == Primary::Throughput;
    let mut round_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut lag_ns = Vec::new();
    let mut lag_p50_us = Vec::new();
    let mut recovered = None;
    while round_s.len() < sizes.rounds || (streaming && fits(deadline, median(&round_s))) {
        let round = Instant::now();
        // Each pass is dropped before the next phase builds its engine: peak memory
        // is a metric.
        {
            let pass = run_pass::<E>(h, &built.source, &built.stats, measured);
            check_same_detections(
                h,
                "throughput pass",
                &pass.detections,
                &reference.detections,
            );
            remove_log(&pass);
            pass_s.push(pass.elapsed_ns as f64 / 1e9);
        }
        drop(recovered.take()); // closes the previous engine's log before reopening it
        if let Some((seconds, engine)) = timed_recover::<E>(h, &crash_dir, &wal_config) {
            recover_s.push(seconds);
            recovered = Some(engine);
        }
        {
            let pass = run_pass::<E>(h, &built.lag_source, &built.stats, measured);
            check_same_detections(h, "latency pass", &pass.detections, &reference.detections);
            remove_log(&pass);
            lag_p50_us.push(percentile(&pass.batch_ns, 5_000) as f64 / 1e3);
            lag_ns.extend(pass.batch_ns);
        }
        if streaming && (1..sizes.rounds).contains(&round_s.len()) {
            mine_again(h, &mut class_s);
        }
        round_s.push(round.elapsed().as_secs_f64());
    }

    // Recovery-parity law: the recovered engine finishes the stream exactly as the
    // uninterrupted run did.
    let mut records_replayed = 0;
    if let Some(mut recovered) = recovered {
        records_replayed = recovered.records_replayed;
        let mut tail = Vec::new();
        for (index, batch) in E::batches(&built.source).enumerate().skip(crash_at) {
            match recovered.engine.on_batch(batch) {
                Ok(found) => {
                    h.attempted += 1;
                    tail.extend(found);
                }
                Err(error) => h.op(false, || {
                    format!("recovered engine, batch {index}: {error}")
                }),
            }
        }
        tail.extend(recovered.engine.flush());
        check_same_detections(
            h,
            "recovered engine on the rest of the stream",
            &tail,
            &reference.detections[tail_from..],
        );
        let latched = recovered.wal.take_error();
        h.op(latched.is_none(), || {
            format!("the recovered log latched an error: {latched:?}")
        });
    }
    let _ = std::fs::remove_dir_all(&crash_dir);

    let repetition_s = |class_s: &[Vec<f64>]| -> f64 {
        class_s[..workload.repeated]
            .iter()
            .map(|calls| median(calls))
            .sum()
    };
    while !streaming
        && (class_s[0].len() < sizes.mining_reps || fits(deadline, repetition_s(&class_s)))
    {
        mine_again(h, &mut class_s);
    }

    if config.trace {
        let base = Base {
            workload,
            config,
            built: &built,
            mined: &mined,
            pool: &pool,
            registered: &registered,
            window,
            formulate_s,
            evaluate_s,
            lag_ns: &lag_ns,
            recover_s: lower_decile(&recover_s),
            decode_s,
            records_replayed,
            wal_bytes,
            wal_segments,
        };
        outcome.per_layer = layers::measure(h, &base);
    }

    let (lag_tail_pct, lag_tail_ns) = tail_percentile(&lag_ns);
    let mine_s: f64 = class_s.iter().map(|calls| lower_decile(calls)).sum();
    let calls: Vec<String> = class_s.iter().map(|c| c.len().to_string()).collect();
    outcome.end_to_end = vec![
        timing("setup_s", &setup_s, "set-ups"),
        Metric::new("mine_s", "s", mine_s).with_detail(format!(
            "sum over the classes of each one's lower decile of its formulate_queries calls \
             ({} calls); first repetition {formulate_s:.4}",
            calls.join(", ")
        )),
        Metric::new("precision", "fraction", precision),
        Metric::new("recall", "fraction", recall),
        Metric::new(
            "events_per_s",
            "events/s",
            events as f64 / lower_decile(&pass_s),
        )
        .with_detail(format!(
            "{events} events, batch {BATCH}; {}",
            repetitions(&pass_s, "passes")
        )),
        Metric::new("detect_lag_p50_us", "us", lower_decile(&lag_p50_us)).with_detail(format!(
            "lower decile of {} passes' medians (median {:.3}), {} batches of {LAG_BATCH}; \
             p{lag_tail_pct} of them all {:.1} us",
            lag_p50_us.len(),
            median(&lag_p50_us),
            lag_ns.len(),
            lag_tail_ns as f64 / 1e3
        )),
        timing("recover_s", &recover_s, "recoveries"),
        Metric::new(
            "wal_bytes_per_event",
            "bytes",
            wal_bytes as f64 / crash_events.max(1) as f64,
        )
        .with_detail(format!("{wal_bytes} bytes for {crash_events} events")),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    outcome
}

/// Whether one more repetition, taking `seconds`, ends by `deadline`.
fn fits(deadline: Instant, seconds: f64) -> bool {
    Instant::now() + Duration::from_secs_f64(seconds) <= deadline
}

fn remove_log<E: Engine>(pass: &PassResult<E>) {
    if let Some(dir) = &pass.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A timing in seconds reported as the lower decile of its repetitions (see
/// [`lower_decile`]), the median and the count beside it.
fn timing(name: &str, values: &[f64], what: &str) -> Metric {
    Metric::new(name, "s", lower_decile(values)).with_detail(repetitions(values, what))
}

fn repetitions(values: &[f64], what: &str) -> String {
    if values.is_empty() {
        return format!("0 {what}");
    }
    format!(
        "lower decile of {} {what}, median {:.4}",
        values.len(),
        median(values)
    )
}
