//! The building blocks every workload is assembled from: input generation, the
//! mining phase, one replay pass over an engine, timed recovery, and the output
//! checks. Everything here calls the public API of the crates under test from one
//! thread, in a closed loop: the next batch is handed over when the previous one
//! returns.

use crate::engine::Engine;
use crate::stats::Fnv;
use crate::trace::Tracer;
use durable::{Recovered, Wal, WalConfig};
use obs::{MetricsRegistry, MetricsSnapshot, Profiler};
use query::{evaluate_queries, formulate_queries, BehaviorQueries, QueryOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;
use stream::{CompiledQuery, LabelPairStats};
use syscall::{Behavior, DatasetConfig, TestData, TestDataConfig, TrainingData};

/// Cost-attribution sampling interval of profiled passes (as `stream_throughput`).
const ATTRIBUTION_INTERVAL: u64 = 64;

/// How much data a run generates and how many passes each phase makes at least.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub training: DatasetConfig,
    pub test: TestDataConfig,
    /// Behavior instances in the replayed stream (the pool replays an eighth of
    /// this per tenant, so both engines see about the same number of events).
    pub instances: usize,
    /// Times the inputs are generated.
    pub setups: usize,
    /// Measurement rounds at least, each one throughput pass (batch [`BATCH`]), one
    /// timed recovery of the crashed log and one latency pass (batch [`LAG_BATCH`],
    /// every batch a sample, the pass's median kept).
    pub rounds: usize,
    /// Times a mining workload formulates each of its classes at least.
    pub mining_reps: usize,
    /// Passes per side of a per-layer differential measurement.
    pub layer_passes: usize,
}

/// Events per delivered batch in throughput passes.
pub const BATCH: usize = 4096;
/// Events per delivered batch in latency passes.
pub const LAG_BATCH: usize = 256;

impl Sizes {
    /// The measured size: `DatasetConfig::small()` training data and a stream of
    /// about 630 k events.
    pub fn full() -> Self {
        Self {
            training: DatasetConfig::small(),
            test: TestDataConfig::small(),
            instances: 4_000,
            setups: 7,
            rounds: 7,
            mining_reps: 2,
            layer_passes: 3,
        }
    }

    /// The traced run's share: the end-to-end phases make fewer passes (their
    /// numbers come from the untraced run), which leaves the time to the per-layer
    /// differentials.
    pub fn traced(self) -> Self {
        Self {
            setups: 1,
            rounds: self.rounds.min(3),
            mining_reps: 1,
            ..self
        }
    }

    /// Tiny inputs and one pass of everything: drives every code path and every
    /// output check in a couple of seconds. Its timings mean nothing.
    pub fn smoke() -> Self {
        Self {
            training: DatasetConfig::tiny(),
            test: TestDataConfig::tiny(),
            instances: 96,
            setups: 1,
            rounds: 1,
            mining_reps: 1,
            layer_passes: 1,
        }
    }
}

/// Scratch space, operation counts and the span recorder of one run.
#[derive(Debug)]
pub struct Harness {
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
    scratch: PathBuf,
    next_dir: u32,
}

impl Harness {
    /// `scratch` must be a directory of this run's own: it is removed when the
    /// harness is dropped, failed checks and panics included.
    pub fn new(scratch: PathBuf, trace: bool) -> std::io::Result<Self> {
        std::fs::create_dir_all(&scratch)?;
        Ok(Self {
            tracer: Tracer::new(trace),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            scratch,
            next_dir: 0,
        })
    }

    /// Counts one operation (a batch delivered, a class mined, a recovery, an output
    /// check) and records it as failed when `ok` is false.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// A path for a log directory nobody has used yet, under the run's scratch.
    pub fn fresh_dir(&mut self) -> PathBuf {
        self.next_dir += 1;
        self.scratch.join(format!("wal-{:04}", self.next_dir))
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        // Best effort: Drop must not panic, and a leftover directory is reported by
        // the hygiene test, not here.
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    pub training: TrainingData,
    pub test: TestData,
    pub gen_training_s: f64,
    pub gen_test_s: f64,
}

/// Generates the training corpus — `sizes.training` as it stands, so one fixed corpus
/// per size (README, "What the seed varies") — and the held-out test stream of
/// `seed` (`--seed`), with `instances` behavior instances.
pub fn generate_inputs(h: &mut Harness, sizes: &Sizes, seed: u64, instances: usize) -> Inputs {
    let span = h.tracer.enter("TrainingData::generate");
    let start = Instant::now();
    let training = TrainingData::generate(&sizes.training);
    let gen_training_s = start.elapsed().as_secs_f64();
    h.tracer.exit(span);

    let start = Instant::now();
    let test = generate_test(h, sizes, seed, instances, &training);
    let gen_test_s = start.elapsed().as_secs_f64();
    Inputs {
        training,
        test,
        gen_training_s,
        gen_test_s,
    }
}

/// The test stream of `seed ^ 0xBEEF` with `instances` behavior instances, over the
/// training data's labels.
pub fn generate_test(
    h: &mut Harness,
    sizes: &Sizes,
    seed: u64,
    instances: usize,
    training: &TrainingData,
) -> TestData {
    let span = h.tracer.enter("TestData::generate");
    let test = TestData::generate(
        &TestDataConfig {
            instances,
            seed: seed ^ 0xBEEF,
            ..sizes.test
        },
        training.interner.clone(),
    );
    h.tracer.exit(span);
    test
}

/// What identifies the generated inputs: FNV-1a hashes of the training graphs and
/// of the event stream, and their sizes. A changed generator changes these, and
/// numbers measured on different inputs are not comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub training_hash: u64,
    pub training_edges: u64,
    pub stream_hash: u64,
    pub stream_events: u64,
    pub stream_nodes: u64,
}

pub fn fingerprint(inputs: &Inputs) -> Fingerprint {
    let mut training = Fnv::default();
    let mut training_edges = 0u64;
    for graph in inputs.training.all_graphs() {
        training.word(graph.node_count() as u64);
        for label in graph.labels() {
            training.word(u64::from(label.id()));
        }
        for edge in graph.edges() {
            training.word(edge.ts);
            training.word(edge.src as u64);
            training.word(edge.dst as u64);
        }
        training_edges += graph.edge_count() as u64;
    }
    let mut stream = Fnv::default();
    let graph = &inputs.test.graph;
    for edge in graph.edges() {
        stream.word(edge.ts);
        stream.word(edge.src as u64);
        stream.word(edge.dst as u64);
        stream.word(u64::from(graph.label(edge.src).id()));
        stream.word(u64::from(graph.label(edge.dst).id()));
    }
    Fingerprint {
        training_hash: training.finish(),
        training_edges,
        stream_hash: stream.finish(),
        stream_events: graph.edge_count() as u64,
        stream_nodes: graph.node_count() as u64,
    }
}

/// Formulates the behavior query of every class once; returns the queries and the
/// wall time of each class's `formulate_queries` call. A class that comes back with
/// no temporal pattern, or whose search was cut short, is a failed operation.
pub fn mine_classes(
    h: &mut Harness,
    training: &TrainingData,
    classes: &[Behavior],
    options: &QueryOptions,
) -> (Vec<BehaviorQueries>, Vec<f64>) {
    let mut seconds = Vec::with_capacity(classes.len());
    let mut mined = Vec::with_capacity(classes.len());
    for &class in classes {
        let span = h.tracer.enter("formulate_queries");
        let start = Instant::now();
        let queries = formulate_queries(training, class, options);
        seconds.push(start.elapsed().as_secs_f64());
        h.tracer.exit(span);
        h.op(
            !queries.temporal.is_empty() && !queries.mining.stats.budget_exhausted,
            || {
                format!(
                    "mining {}: {} patterns, budget_exhausted {}",
                    class.name(),
                    queries.temporal.len(),
                    queries.mining.stats.budget_exhausted
                )
            },
        );
        mined.push(queries);
    }
    (mined, seconds)
}

/// Macro-averaged TGMiner precision and recall of the mined queries on the held-out
/// test data (the paper's Table 2 definition), and the time the evaluation took.
pub fn accuracy(h: &mut Harness, mined: &[BehaviorQueries], test: &TestData) -> (f64, f64, f64) {
    let start = Instant::now();
    let (mut precision, mut recall) = (0.0, 0.0);
    for queries in mined {
        let span = h.tracer.enter("evaluate_queries");
        let row = evaluate_queries(queries, test).tgminer;
        h.tracer.exit(span);
        precision += row.precision();
        recall += row.recall();
    }
    let n = mined.len() as f64;
    (precision / n, recall / n, start.elapsed().as_secs_f64())
}

/// The deployable pool of a mined class list: per class its best temporal query,
/// its keyword query and its best non-temporal query, class-major — the pool
/// `stream_throughput` registers.
pub fn query_pool(mined: &[BehaviorQueries]) -> Vec<CompiledQuery> {
    let mut pool = Vec::new();
    for queries in mined {
        if let Some(pattern) = queries.temporal.first() {
            pool.push(CompiledQuery::Temporal(pattern.clone()));
        }
        pool.push(CompiledQuery::NodeSet(queries.nodeset.clone()));
        if let Some(pattern) = queries.nontemporal.first() {
            pool.push(CompiledQuery::Static(pattern.clone()));
        }
    }
    pool
}

/// `count` registrations cycled from `pool`; each further trip round the pool
/// divides the window (half, a third, …), as `stream_throughput` does, so repeated
/// queries are not identical work.
pub fn cycle(pool: &[CompiledQuery], count: usize, window: u64) -> Vec<(CompiledQuery, u64)> {
    (0..count)
        .map(|i| {
            let trip = (i / pool.len()) as u64;
            (pool[i % pool.len()].clone(), (window / (trip + 1)).max(1))
        })
        .collect()
}

/// Observability attached to a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// Nothing: the raw hot path (every end-to-end number).
    Bare,
    /// `instrument(&registry)` on the engine and the log.
    Metrics,
    /// Metrics plus the scoped-span profiler and per-query cost attribution.
    Profiled,
}

/// One replay of a source through a fresh engine.
#[derive(Debug, Clone)]
pub struct PassSpec<'a> {
    pub queries: &'a [(CompiledQuery, u64)],
    /// Shards (or tenant groups); 1 keeps the engine on the client thread.
    pub width: usize,
    /// Log every registration and batch to a fresh directory first.
    pub wal: Option<WalConfig>,
    /// Crash: deliver only this many batches, do not flush, drop engine and log.
    pub stop_after: Option<usize>,
    /// Cut a snapshot after this many batches (needs `wal`).
    pub snapshot_after: Option<usize>,
    pub attach: Attach,
}

impl<'a> PassSpec<'a> {
    pub fn bare(queries: &'a [(CompiledQuery, u64)]) -> Self {
        Self {
            queries,
            width: 1,
            wal: None,
            stop_after: None,
            snapshot_after: None,
            attach: Attach::Bare,
        }
    }
}

#[derive(Debug)]
pub struct PassResult<E: Engine> {
    /// First batch handed over → last detection returned (flush included).
    pub elapsed_ns: u64,
    pub events: usize,
    /// `on_batch` wall time of every delivered batch.
    pub batch_ns: Vec<u64>,
    pub detections: Vec<E::Detection>,
    /// `detections.len()` before each delivered batch: where a batch's output starts.
    pub detections_before: Vec<usize>,
    /// The log directory, when the pass was logged. The caller removes it.
    pub wal_dir: Option<PathBuf>,
    /// `(write seconds, file bytes)` of the mid-stream snapshot, if one was cut.
    pub snapshot: Option<(f64, u64)>,
    pub metrics: MetricsSnapshot,
    pub engine: E,
}

pub fn run_pass<E: Engine>(
    h: &mut Harness,
    source: &E::Source,
    stats: &LabelPairStats,
    spec: &PassSpec<'_>,
) -> PassResult<E> {
    h.tracer.next_pass();
    let setup_span = h.tracer.enter("pass.setup");
    let mut engine = E::build(spec.width, stats);
    let registry = MetricsRegistry::new();
    let mut wal_dir = None;
    let mut wal = None;
    if let Some(config) = spec.wal.clone() {
        let dir = h.fresh_dir();
        let span = h.tracer.enter("Wal::create");
        let created = Wal::create(&dir, config);
        h.tracer.exit(span);
        let span = h.tracer.enter("Wal::attach");
        let attached = created.and_then(|wal| engine.attach(&wal, stats).map(|()| wal));
        h.tracer.exit(span);
        wal_dir = Some(dir);
        match attached {
            Ok(attached) => wal = Some(attached),
            Err(error) => h.op(false, || format!("opening the log: {error}")),
        }
    }
    if spec.attach != Attach::Bare {
        engine.instrument(&registry);
        if let Some(wal) = &wal {
            wal.instrument(&registry);
        }
    }
    if spec.attach == Attach::Profiled {
        engine.profile(Profiler::new(), ATTRIBUTION_INTERVAL);
    }
    for (query, window) in spec.queries {
        let span = h.tracer.enter("register");
        let registered = engine.register(query.clone(), *window);
        h.tracer.exit(span);
        if let Err(error) = registered {
            h.op(false, || format!("register: {error}"));
        }
    }
    h.tracer.exit(setup_span);

    let mut detections = Vec::new();
    let mut detections_before = Vec::new();
    let mut batch_ns = Vec::new();
    let mut events = 0usize;
    let mut snapshot = None;
    let pass_span = h.tracer.enter("pass");
    let start = Instant::now();
    for (index, batch) in E::batches(source).enumerate() {
        if spec.stop_after == Some(index) {
            break;
        }
        detections_before.push(detections.len());
        let span = h.tracer.enter("on_batch");
        let handed = Instant::now();
        let result = engine.on_batch(batch);
        batch_ns.push(handed.elapsed().as_nanos() as u64);
        h.tracer.exit(span);
        events += batch.len();
        match result {
            Ok(found) => {
                h.attempted += 1;
                detections.extend(found);
            }
            Err(error) => h.op(false, || format!("batch {index}: {error}")),
        }
        if spec.snapshot_after == Some(index + 1) {
            if let Some(wal) = &wal {
                let span = h.tracer.enter("Wal::snapshot");
                let cut = Instant::now();
                let written = engine.snapshot(wal);
                let seconds = cut.elapsed().as_secs_f64();
                h.tracer.exit(span);
                match written {
                    Ok(path) => snapshot = Some((seconds, file_bytes(&path))),
                    Err(error) => h.op(false, || format!("snapshot: {error}")),
                }
            }
        }
    }
    if spec.stop_after.is_none() {
        let span = h.tracer.enter("flush");
        detections.extend(engine.flush());
        h.tracer.exit(span);
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    h.tracer.exit(pass_span);

    if let Some(wal) = &wal {
        let latched = wal.take_error();
        h.op(latched.is_none(), || {
            format!("the log latched an error: {latched:?}")
        });
    }
    PassResult {
        elapsed_ns,
        events,
        batch_ns,
        detections,
        detections_before,
        wal_dir,
        snapshot,
        metrics: registry.snapshot(),
        engine,
    }
}

/// One timed recovery of the log at `dir`: wall seconds and what came back.
pub fn timed_recover<E: Engine>(
    h: &mut Harness,
    dir: &Path,
    config: &WalConfig,
) -> Option<(f64, Recovered<E>)> {
    let span = h.tracer.enter("recover");
    let start = Instant::now();
    let recovered = E::recover(dir, config.clone());
    let seconds = start.elapsed().as_secs_f64();
    h.tracer.exit(span);
    match recovered {
        Ok(recovered) => {
            h.attempted += 1;
            Some((seconds, recovered))
        }
        Err(error) => {
            h.op(false, || format!("recovery: {error}"));
            None
        }
    }
}

/// Stream-parity law: per tenant and per registered query, the streamed detection
/// count equals the offline search's count on the materialised graph.
pub fn check_stream_parity<E: Engine>(
    h: &mut Harness,
    what: &str,
    detections: &[E::Detection],
    expected: &[usize],
) {
    let tenants = E::tenants();
    let mut counts = vec![0usize; tenants * expected.len()];
    let mut stray = 0usize;
    for detection in detections {
        let (tenant, query) = E::key(detection);
        match counts.get_mut(tenant as usize * expected.len() + query) {
            Some(slot) if query < expected.len() => *slot += 1,
            _ => stray += 1,
        }
    }
    h.op(stray == 0, || {
        format!("{what}: {stray} detections name no registered query or tenant")
    });
    for tenant in 0..tenants {
        let row = &counts[tenant * expected.len()..(tenant + 1) * expected.len()];
        h.op(row == expected, || {
            format!("{what}: tenant {tenant} streamed {row:?}, offline search found {expected:?}")
        });
    }
}

/// Two passes over the same input must emit the same detections (as a multiset:
/// batch size changes when a detection surfaces, never whether).
pub fn check_same_detections<D: Copy + Ord + std::fmt::Debug>(
    h: &mut Harness,
    what: &str,
    got: &[D],
    reference: &[D],
) {
    let mut got = got.to_vec();
    let mut reference = reference.to_vec();
    got.sort_unstable();
    reference.sort_unstable();
    h.op(got == reference, || {
        format!(
            "{what}: {} detections, the reference pass emitted {}",
            got.len(),
            reference.len()
        )
    });
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    dir_files(dir).iter().map(|path| file_bytes(path)).sum()
}

/// Log segment files (`wal-*.log`) inside `dir`.
pub fn segment_count(dir: &Path) -> u64 {
    dir_files(dir)
        .iter()
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("wal-") && name.ends_with(".log"))
        })
        .count() as u64
}

fn dir_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|entry| entry.path())
                .filter(|path| path.is_file())
                .collect()
        })
        .unwrap_or_default()
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |meta| meta.len())
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
