//! Online query discovery: the mine→detect loop closed end to end.
//!
//! The paper's two phases — discover discriminative behavior queries from labeled
//! training graphs (`tgminer`), then run them against system-call streams — were
//! separate crates until this module. [`DiscoveryPipeline`] wires them into one online
//! dataflow:
//!
//! 1. **Ingest** labeled training traces ([`syscall::LabeledStreamSource`]): each trace
//!    arrives as events plus a class tag and is rebuilt into a per-trace
//!    [`TemporalGraph`]; label-pair frequencies are accumulated on the side as the
//!    telemetry that later drives shard balancing.
//! 2. **Mine** one behavior class: its traces are the positive set, the background
//!    traces the negative set, and `tgminer` returns the top-k discriminative temporal
//!    patterns in the miner's stable export order.
//! 3. **Compile** the mined patterns through [`query::compile`] into
//!    [`CompiledQuery`]s — the same executable form the offline search dispatches on.
//! 4. **Deploy**: hot-register the compiled queries on a *running*
//!    [`ShardedDetector`]; [`retire_deployed`] hot-deregisters them again (dropping
//!    their in-flight partial matches, leaving other tenants untouched, and returning
//!    their estimated cost to the shard so the freed capacity attracts the next
//!    registration).
//! 5. **Evaluate**: replay a held-out monitoring stream with ground truth
//!    ([`syscall::TestData`]) through the detector and score each deployed class's
//!    precision/recall with the paper's Section 6.2 definitions — the Table 2 loop,
//!    online.
//!
//! The train/evaluate split is explicit: ingest consumes *training* streams only, and
//! [`DiscoveryPipeline::evaluate_split`] runs the full mine→compile→register→detect→
//! score loop against a held-out stream the miner never saw.

use crate::detector::{CompiledQuery, QueryId, Registration};
use crate::error::{BatchError, DeregisterError, RegisterError};
use crate::instrument::PipelineInstruments;
use crate::shard::{LabelPairStats, ShardedDetector};
use obs::{MetricsRegistry, SharedSink, TraceEvent};
use query::compile::compile_mined;
use query::eval::{evaluate, merge_identified, AccuracyReport};
use query::pipeline::QueryOptions;
use query::search::Interval;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;
use syscall::{Behavior, LabeledStreamSource, LabeledTrace, StreamSource, TestData, TraceLabel};
use tgminer::score::LogRatio;
use tgminer::{mine, MinerConfig, MiningResult};
use tgraph::{GraphBuilder, GraphError, StreamEvent, TemporalGraph};

/// Why a discovery evaluation run failed. Ingestion errors are not represented here:
/// [`DiscoveryPipeline::ingest`] reports them directly as [`GraphError`], before any
/// evaluation starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryError {
    /// A compiled query was rejected at registration (cannot happen for mined queries
    /// with a positive window; surfaced rather than swallowed).
    Register(RegisterError),
    /// The held-out evaluation stream failed mid-batch.
    Evaluate(BatchError),
    /// Evaluation was requested before any behavior class was ingested.
    NoClasses,
}

impl fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscoveryError::Register(e) => write!(f, "mined query rejected: {e}"),
            DiscoveryError::Evaluate(e) => write!(f, "held-out stream failed: {e}"),
            DiscoveryError::NoClasses => {
                write!(f, "no behavior class ingested; nothing to mine")
            }
        }
    }
}

impl std::error::Error for DiscoveryError {}

impl From<RegisterError> for DiscoveryError {
    fn from(e: RegisterError) -> Self {
        DiscoveryError::Register(e)
    }
}

impl From<BatchError> for DiscoveryError {
    fn from(e: BatchError) -> Self {
        DiscoveryError::Evaluate(e)
    }
}

/// One query deployed by the discovery pipeline: which class it detects and the
/// registration the detector handed back for it.
#[derive(Debug, Clone, Copy)]
pub struct DeployedQuery {
    /// The behavior class the query was mined for.
    pub behavior: Behavior,
    /// The registration on the target detector (global id + visibility contract).
    pub registration: Registration,
}

/// Per-class accuracy of deployed queries on a held-out stream.
#[derive(Debug, Clone, Copy)]
pub struct ClassAccuracy {
    /// The behavior class.
    pub behavior: Behavior,
    /// Precision/recall of the class's deployed queries against ground truth.
    pub report: AccuracyReport,
}

/// The result of a full train/evaluate discovery run.
#[derive(Debug, Clone)]
pub struct DiscoveryReport {
    /// Every query deployed during the run, in registration order.
    pub deployed: Vec<DeployedQuery>,
    /// Per-class accuracy on the held-out stream, in deployment order.
    pub classes: Vec<ClassAccuracy>,
}

/// The online discovery pipeline: ingested labeled traces, per-class mining, and
/// deployment onto a running sharded detector. See the module docs for the dataflow.
#[derive(Debug, Clone)]
pub struct DiscoveryPipeline {
    options: QueryOptions,
    /// Positive trace graphs per ingested behavior class, in first-ingest order.
    classes: Vec<(Behavior, Vec<TemporalGraph>)>,
    /// Background (negative) trace graphs.
    background: Vec<TemporalGraph>,
    /// Label-pair frequencies observed across *all* ingested traces — the telemetry
    /// that drives query→shard load balancing at deployment time.
    stats: LabelPairStats,
    /// Per-stage metric handles, when instrumented (see [`PipelineInstruments`]).
    instruments: Option<PipelineInstruments>,
    /// Structured per-stage trace sink, when attached.
    sink: Option<SharedSink>,
}

impl DiscoveryPipeline {
    /// An empty pipeline mining with these query-formulation options.
    pub fn new(options: QueryOptions) -> Self {
        Self {
            options,
            classes: Vec::new(),
            background: Vec::new(),
            stats: LabelPairStats::new(),
            instruments: None,
            sink: None,
        }
    }

    /// Attaches per-stage metric instruments under the `pipeline.` prefix (and
    /// `miner.*` for exported mining counters). Purely observational: mined
    /// patterns, deployments, and scores are identical with or without it.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.instruments = Some(PipelineInstruments::register(registry));
    }

    /// Attaches (or with `None`, detaches) a structured trace sink. The pipeline
    /// emits one [`TraceEvent::PipelineStage`] per ingest/mine/compile/register/
    /// evaluate stage, plus per-growth-level [`TraceEvent::MiningLevel`] telemetry.
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// Emits a [`TraceEvent::PipelineStage`] if a sink is attached.
    fn trace_stage(&self, stage: &str, class: Option<Behavior>, duration_ns: u64) {
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::PipelineStage {
                stage: stage.to_string(),
                class: class.map(|b| b.name().to_string()),
                duration_ns,
            });
        }
    }

    /// Ingests one labeled trace, rebuilding its temporal graph from the event stream.
    ///
    /// Node ids are trace-scoped; a node keeps the label it was first announced with,
    /// and a conflicting re-announcement rejects the trace (leaving the pipeline
    /// unchanged). Isolated nodes do not survive replay — a trace is its events.
    pub fn ingest(&mut self, trace: &LabeledTrace) -> Result<(), GraphError> {
        if self.instruments.is_none() && self.sink.is_none() {
            return self.ingest_inner(trace);
        }
        let started = Instant::now();
        self.ingest_inner(trace)?;
        let duration_ns = started.elapsed().as_nanos() as u64;
        if let Some(instruments) = &self.instruments {
            instruments.ingest_ns.record(duration_ns);
            instruments.traces_ingested.add(1);
        }
        self.trace_stage("ingest", None, duration_ns);
        Ok(())
    }

    /// The uninstrumented ingest body: [`DiscoveryPipeline::ingest`] semantics.
    fn ingest_inner(&mut self, trace: &LabeledTrace) -> Result<(), GraphError> {
        let graph = graph_of_events(&trace.events)?;
        for event in &trace.events {
            self.stats.record(event.src_label, event.dst_label);
        }
        match trace.label {
            TraceLabel::Background => self.background.push(graph),
            TraceLabel::Behavior(behavior) => {
                match self.classes.iter_mut().find(|(b, _)| *b == behavior) {
                    Some((_, graphs)) => graphs.push(graph),
                    None => self.classes.push((behavior, vec![graph])),
                }
            }
        }
        Ok(())
    }

    /// Drains a labeled source into the pipeline; returns the number of traces
    /// ingested. Stops at (and reports) the first inconsistent trace.
    pub fn ingest_source(&mut self, source: &mut LabeledStreamSource) -> Result<usize, GraphError> {
        let mut ingested = 0usize;
        while let Some(trace) = source.next_trace() {
            self.ingest(trace)?;
            ingested += 1;
        }
        Ok(ingested)
    }

    /// The behavior classes ingested so far, in first-ingest order.
    pub fn classes(&self) -> Vec<Behavior> {
        self.classes.iter().map(|(b, _)| *b).collect()
    }

    /// `(positive traces, background traces)` ingested so far.
    pub fn trace_counts(&self) -> (usize, usize) {
        (
            self.classes.iter().map(|(_, g)| g.len()).sum(),
            self.background.len(),
        )
    }

    /// The label-pair telemetry accumulated during ingest (drives shard balancing).
    pub fn stats(&self) -> &LabelPairStats {
        &self.stats
    }

    /// Mines one ingested class: its traces against the background traces, capped at
    /// `options.query_size` edges. Returns the full mining result (work counters
    /// included); a class that was never ingested mines from an empty positive set and
    /// yields no patterns.
    pub fn mine_class(&self, behavior: Behavior) -> MiningResult {
        let empty: &[TemporalGraph] = &[];
        let positives = self
            .classes
            .iter()
            .find(|(b, _)| *b == behavior)
            .map_or(empty, |(_, graphs)| graphs.as_slice());
        let config = MinerConfig {
            max_edges: self.options.query_size,
            top_k: self.options.miner_top_k,
            cap_per_graph: self.options.cap_per_graph,
            ..MinerConfig::default()
        };
        let started = Instant::now();
        let result = mine(positives, &self.background, &LogRatio::default(), &config);
        let duration_ns = started.elapsed().as_nanos() as u64;
        if let Some(instruments) = &self.instruments {
            instruments.mine_ns.record(duration_ns);
            instruments.patterns_mined.add(result.patterns.len() as u64);
            instruments.record_mining(&result.stats);
        }
        if let Some(sink) = &self.sink {
            for level in &result.stats.levels {
                sink.emit(&TraceEvent::MiningLevel {
                    level: level.level,
                    candidates: level.candidates,
                    pruned: level.pruned,
                    embeddings: level.embeddings,
                });
            }
        }
        self.trace_stage("mine", Some(behavior), duration_ns);
        result
    }

    /// Mines and compiles one class: the top `options.top_queries` patterns as
    /// executable queries, in the miner's stable export order. Every returned query
    /// registers without error (the miner→compiler→registry contract).
    pub fn compile_class(&self, behavior: Behavior) -> Vec<CompiledQuery> {
        let mined = self.mine_class(behavior);
        let started = Instant::now();
        let compiled = compile_mined(&mined, self.options.top_queries);
        let duration_ns = started.elapsed().as_nanos() as u64;
        if let Some(instruments) = &self.instruments {
            instruments.compile_ns.record(duration_ns);
        }
        self.trace_stage("compile", Some(behavior), duration_ns);
        compiled
    }

    /// Mines one class and hot-registers its compiled queries on a running detector,
    /// each matched within `window` timestamp units. Returns the deployed queries in
    /// registration order.
    pub fn deploy_class(
        &self,
        detector: &mut ShardedDetector,
        behavior: Behavior,
        window: u64,
    ) -> Result<Vec<DeployedQuery>, RegisterError> {
        let mut deployed = Vec::new();
        for query in self.compile_class(behavior) {
            let started = Instant::now();
            let registration = detector.register(query, window)?;
            let duration_ns = started.elapsed().as_nanos() as u64;
            if let Some(instruments) = &self.instruments {
                instruments.register_ns.record(duration_ns);
                instruments.queries_deployed.add(1);
            }
            self.trace_stage("register", Some(behavior), duration_ns);
            deployed.push(DeployedQuery {
                behavior,
                registration,
            });
        }
        Ok(deployed)
    }

    /// Deploys every ingested class (in first-ingest order) onto `detector`.
    pub fn deploy_all(
        &self,
        detector: &mut ShardedDetector,
        window: u64,
    ) -> Result<Vec<DeployedQuery>, RegisterError> {
        let mut deployed = Vec::new();
        for (behavior, _) in &self.classes {
            deployed.extend(self.deploy_class(detector, *behavior, window)?);
        }
        Ok(deployed)
    }

    /// The full train/evaluate loop against a held-out dataset: build a fresh
    /// `shards`-wide detector balanced by the ingested telemetry, deploy every class
    /// (window = the dataset's longest behavior duration), stream the held-out graph in
    /// `batch_size`-event batches, and score each class against ground truth.
    pub fn evaluate_split(
        &self,
        test: &TestData,
        shards: usize,
        batch_size: usize,
    ) -> Result<DiscoveryReport, DiscoveryError> {
        if self.classes.is_empty() {
            return Err(DiscoveryError::NoClasses);
        }
        let mut detector = ShardedDetector::with_stats(shards, self.stats.clone());
        let deployed = self.deploy_all(&mut detector, test.max_duration)?;
        let started = Instant::now();
        let classes = evaluate_deployed(&mut detector, &deployed, test, batch_size)?;
        let duration_ns = started.elapsed().as_nanos() as u64;
        if let Some(instruments) = &self.instruments {
            instruments.evaluate_ns.record(duration_ns);
        }
        self.trace_stage("evaluate", None, duration_ns);
        Ok(DiscoveryReport { deployed, classes })
    }
}

/// Hot-deregisters previously deployed queries from a running detector: their in-flight
/// partial matches are dropped, other tenants keep streaming undisturbed, and each
/// shard's load estimate is rebalanced by the freed cost.
pub fn retire_deployed(
    detector: &mut ShardedDetector,
    deployed: &[DeployedQuery],
) -> Result<(), DeregisterError> {
    for query in deployed {
        detector.deregister(query.registration.id)?;
    }
    Ok(())
}

/// Streams a held-out dataset through `detector` and scores each deployed class:
/// detections of a class's queries are merged into one identified-interval set
/// (duplicates across the class's queries collapse, as in the offline pipeline) and
/// evaluated against the dataset's ground-truth intervals for that behavior.
///
/// Detections from queries *not* listed in `deployed` — other tenants of the detector —
/// are ignored, not misattributed. Classes are reported in first-deployment order.
fn evaluate_deployed(
    detector: &mut ShardedDetector,
    deployed: &[DeployedQuery],
    test: &TestData,
    batch_size: usize,
) -> Result<Vec<ClassAccuracy>, BatchError> {
    let mut class_order: Vec<Behavior> = Vec::new();
    let mut query_class: HashMap<QueryId, Behavior> = HashMap::new();
    for query in deployed {
        if !class_order.contains(&query.behavior) {
            class_order.push(query.behavior);
        }
        query_class.insert(query.registration.id, query.behavior);
    }

    let mut identified: HashMap<Behavior, Vec<Interval>> = HashMap::new();
    let source = StreamSource::from_test_data(test, batch_size);
    let mut sink = |detections: Vec<crate::detector::Detection>| {
        for detection in detections {
            if let Some(&behavior) = query_class.get(&detection.query) {
                identified
                    .entry(behavior)
                    .or_default()
                    .push((detection.start_ts, detection.end_ts));
            }
        }
    };
    for batch in source.batches() {
        sink(detector.on_batch(batch)?);
    }
    sink(detector.flush());

    Ok(class_order
        .into_iter()
        .map(|behavior| {
            let intervals = merge_identified(identified.remove(&behavior).unwrap_or_default());
            let truth = test.intervals_of(behavior);
            ClassAccuracy {
                behavior,
                report: evaluate(&intervals, &truth),
            }
        })
        .collect())
}

/// Rebuilds a trace's temporal graph from its event stream. Node ids are remapped
/// densely in first-appearance order; labels must be announced consistently.
fn graph_of_events(events: &[StreamEvent]) -> Result<TemporalGraph, GraphError> {
    let mut builder = GraphBuilder::new();
    let mut ids: HashMap<usize, (usize, tgraph::Label)> = HashMap::new();
    for event in events {
        for (node, label) in [(event.src, event.src_label), (event.dst, event.dst_label)] {
            match ids.get(&node) {
                None => {
                    ids.insert(node, (builder.add_node(label), label));
                }
                Some(&(_, existing)) => {
                    if existing != label {
                        return Err(GraphError::LabelConflict {
                            node,
                            existing: existing.0,
                            new: label.0,
                        });
                    }
                }
            }
        }
        builder.add_edge(ids[&event.src].0, ids[&event.dst].0, event.ts)?;
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscall::{DatasetConfig, TestDataConfig, TrainingData};
    use tgraph::Label;

    fn l(i: u32) -> Label {
        Label(i)
    }

    fn ev(ts: u64, src: usize, dst: usize, sl: u32, dl: u32) -> StreamEvent {
        StreamEvent {
            ts,
            src,
            dst,
            src_label: l(sl),
            dst_label: l(dl),
        }
    }

    fn tiny_options() -> QueryOptions {
        QueryOptions {
            query_size: 4,
            top_queries: 2,
            miner_top_k: 8,
            cap_per_graph: 32,
        }
    }

    #[test]
    fn ingest_rebuilds_trace_graphs_and_accumulates_telemetry() {
        let mut pipeline = DiscoveryPipeline::new(tiny_options());
        let trace = LabeledTrace {
            label: TraceLabel::Behavior(Behavior::GzipDecompress),
            // Node 7 appears twice; ids are remapped densely.
            events: vec![ev(1, 7, 9, 0, 1), ev(2, 9, 7, 1, 0)],
        };
        pipeline.ingest(&trace).unwrap();
        pipeline
            .ingest(&LabeledTrace {
                label: TraceLabel::Background,
                events: vec![ev(5, 0, 0, 3, 3)],
            })
            .unwrap();
        assert_eq!(pipeline.classes(), vec![Behavior::GzipDecompress]);
        assert_eq!(pipeline.trace_counts(), (1, 1));
        assert_eq!(pipeline.stats().pair_weight(l(0), l(1)), 1);
        assert_eq!(pipeline.stats().pair_weight(l(1), l(0)), 1);
        assert_eq!(pipeline.stats().pair_weight(l(3), l(3)), 1);
    }

    #[test]
    fn inconsistent_traces_are_rejected() {
        let mut pipeline = DiscoveryPipeline::new(tiny_options());
        // Node 4 re-announced with a different label.
        let conflict = LabeledTrace {
            label: TraceLabel::Background,
            events: vec![ev(1, 4, 5, 0, 1), ev(2, 4, 5, 9, 1)],
        };
        assert!(matches!(
            pipeline.ingest(&conflict),
            Err(GraphError::LabelConflict { node: 4, .. })
        ));
        // Timestamps must be non-decreasing within a trace (ties are legal).
        let stale = LabeledTrace {
            label: TraceLabel::Background,
            events: vec![ev(3, 0, 1, 0, 1), ev(2, 1, 0, 1, 0)],
        };
        assert!(matches!(
            pipeline.ingest(&stale),
            Err(GraphError::NonMonotonicTimestamp { .. })
        ));
        assert_eq!(
            pipeline.trace_counts(),
            (0, 0),
            "rejected traces leave no residue"
        );
    }

    #[test]
    fn ingested_traces_mine_like_the_original_training_graphs() {
        let training = TrainingData::generate(&DatasetConfig::tiny());
        let mut source = LabeledStreamSource::from_training_data(&training);
        let mut pipeline = DiscoveryPipeline::new(tiny_options());
        let ingested = pipeline.ingest_source(&mut source).unwrap();
        assert_eq!(ingested, source.len());
        assert_eq!(pipeline.classes().len(), 12);
        let (positives, background) = pipeline.trace_counts();
        assert_eq!(positives, 12 * training.config.graphs_per_behavior);
        assert_eq!(background, training.config.background_graphs);
        // Mining through the pipeline equals mining the original graphs directly: the
        // event replay loses nothing the miner can see.
        let via_pipeline = pipeline.mine_class(Behavior::GzipDecompress);
        let config = MinerConfig {
            max_edges: 4,
            top_k: 8,
            cap_per_graph: 32,
            ..MinerConfig::default()
        };
        let direct = mine(
            training.positives(Behavior::GzipDecompress),
            training.negatives(),
            &LogRatio::default(),
            &config,
        );
        assert_eq!(via_pipeline.export_top(8), direct.export_top(8));
        assert!(!pipeline.compile_class(Behavior::GzipDecompress).is_empty());
    }

    #[test]
    fn evaluate_split_scores_each_class_against_ground_truth() {
        let training = TrainingData::generate(&DatasetConfig::tiny());
        let test = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
        let mut pipeline = DiscoveryPipeline::new(tiny_options());
        // Train on two classes plus the background.
        for dataset in &training.behaviors {
            if ![Behavior::GzipDecompress, Behavior::Bzip2Decompress].contains(&dataset.behavior) {
                continue;
            }
            for graph in &dataset.graphs {
                pipeline
                    .ingest(&LabeledTrace {
                        label: TraceLabel::Behavior(dataset.behavior),
                        events: syscall::stream::events_of_graph(graph),
                    })
                    .unwrap();
            }
        }
        for graph in training.negatives() {
            pipeline
                .ingest(&LabeledTrace {
                    label: TraceLabel::Background,
                    events: syscall::stream::events_of_graph(graph),
                })
                .unwrap();
        }
        let report = pipeline.evaluate_split(&test, 2, 128).unwrap();
        assert_eq!(report.classes.len(), 2);
        assert!(!report.deployed.is_empty());
        for class in &report.classes {
            assert!(class.report.instances > 0, "held-out data has ground truth");
        }
        // The distinctive class must be detected with real accuracy (Table 2 shape).
        let bzip = report
            .classes
            .iter()
            .find(|c| c.behavior == Behavior::Bzip2Decompress)
            .unwrap();
        assert!(bzip.report.identified > 0, "mined queries detect online");
        assert!(
            bzip.report.precision() > 0.5,
            "precision {}",
            bzip.report.precision()
        );
        assert!(
            bzip.report.recall() > 0.5,
            "recall {}",
            bzip.report.recall()
        );
    }

    #[test]
    fn evaluate_without_classes_is_an_error() {
        let pipeline = DiscoveryPipeline::new(tiny_options());
        let training = TrainingData::generate(&DatasetConfig::tiny());
        let test = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
        assert!(matches!(
            pipeline.evaluate_split(&test, 1, 64),
            Err(DiscoveryError::NoClasses)
        ));
    }

    #[test]
    fn retire_deployed_frees_the_queries_and_their_load() {
        let training = TrainingData::generate(&DatasetConfig::tiny());
        let mut source = LabeledStreamSource::from_training_data(&training);
        let mut pipeline = DiscoveryPipeline::new(tiny_options());
        pipeline.ingest_source(&mut source).unwrap();
        let mut detector = ShardedDetector::with_stats(2, pipeline.stats().clone());
        let deployed = pipeline
            .deploy_class(&mut detector, Behavior::GzipDecompress, 100)
            .unwrap();
        assert!(!deployed.is_empty());
        assert_eq!(detector.query_count(), deployed.len());
        assert!(detector.shard_stats().iter().any(|s| s.load > 0));
        retire_deployed(&mut detector, &deployed).unwrap();
        assert_eq!(detector.query_count(), 0);
        assert!(
            detector.shard_stats().iter().all(|s| s.load == 0),
            "freed cost is rebalanced"
        );
        // Retiring twice fails loudly.
        assert!(retire_deployed(&mut detector, &deployed).is_err());
    }
}
