//! The end-to-end behavior query formulation pipeline (Figure 2).
//!
//! For one target behavior: mine discriminative patterns from its positive graphs versus
//! the background graphs, rank ties by the domain-knowledge interest score, keep the
//! top-k patterns as the behavior query, search the query in the test graph within the
//! behavior's lifetime window, and score precision/recall against the ground truth.
//! The same pipeline is instantiated for the two accuracy baselines (`Ntemp`, `NodeSet`).

use crate::eval::{evaluate_hits, AccuracyReport};
use crate::search::{search_nodeset, search_static_indexed, search_temporal_indexed, Interval};
use syscall::{Behavior, TestData, TrainingData};
use tgminer::baselines::gspan::{mine_nontemporal, StaticPattern};
use tgminer::baselines::nodeset::{mine_nodeset, NodeSetQuery};
use tgminer::ranking::InterestRanker;
use tgminer::score::{InfoGain, LogRatio};
use tgminer::{mine, MinerConfig, MiningResult};
use tgraph::pattern::TemporalPattern;
use tgraph::EdgePostings;

/// Options controlling query formulation.
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Number of edges in the behavior query (the paper fixes 6; Figure 11 sweeps 1–10).
    pub query_size: usize,
    /// Number of top-ranked patterns that together form the behavior query (paper: 5).
    pub top_queries: usize,
    /// How many candidate patterns the miner retains before interest ranking.
    pub miner_top_k: usize,
    /// Embedding cap per (pattern, graph) during TGMiner's mining. The `Ntemp` miner
    /// does not read it: `mine_nontemporal` keeps 64 per graph whatever this is, so at
    /// any other value (the benchmark's stream workloads use 32) the two miners run
    /// with different caps.
    pub cap_per_graph: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            query_size: 6,
            top_queries: 5,
            miner_top_k: 24,
            cap_per_graph: 64,
        }
    }
}

impl QueryOptions {
    /// Same options with a different query size.
    pub fn with_query_size(mut self, query_size: usize) -> Self {
        self.query_size = query_size;
        self
    }
}

/// The behavior queries formulated by the three compared approaches for one behavior.
#[derive(Debug, Clone)]
pub struct BehaviorQueries {
    /// The target behavior.
    pub behavior: Behavior,
    /// TGMiner: top temporal graph patterns.
    pub temporal: Vec<TemporalPattern>,
    /// Ntemp: top non-temporal graph patterns.
    pub nontemporal: Vec<StaticPattern>,
    /// NodeSet: keyword query.
    pub nodeset: NodeSetQuery,
    /// The full TGMiner mining result (kept for efficiency statistics).
    pub mining: MiningResult,
}

/// Mines `behavior`'s positives against the background with the miner configured from
/// `options` — the one place that mapping lives.
fn mine_temporal(
    training: &TrainingData,
    behavior: Behavior,
    options: &QueryOptions,
) -> MiningResult {
    let config = MinerConfig {
        max_edges: options.query_size,
        top_k: options.miner_top_k,
        cap_per_graph: options.cap_per_graph,
        ..MinerConfig::default()
    };
    mine(
        training.positives(behavior),
        training.negatives(),
        &LogRatio::default(),
        &config,
    )
}

/// The interest ranker of a training set: label popularity over all its graphs, its
/// shared-noise labels blacklisted.
fn interest_ranker(training: &TrainingData) -> InterestRanker {
    InterestRanker::from_training(training.all_graphs()).with_blacklist(training.blacklist())
}

/// The top `k` mined patterns in the ranker's selection order.
fn select(ranker: &InterestRanker, mining: &MiningResult, k: usize) -> Vec<TemporalPattern> {
    let selected = ranker.top_queries(mining, k);
    selected.into_iter().map(|p| p.pattern).collect()
}

/// The TGMiner part of query formulation on its own — what an online deployment
/// registers: mines `behavior`'s positives against the background and returns the top
/// `options.top_queries` patterns in [`InterestRanker::rank`] order, with the full
/// mining result. A class the training set lacks yields no patterns.
pub fn formulate_temporal(
    training: &TrainingData,
    behavior: Behavior,
    options: &QueryOptions,
) -> (Vec<TemporalPattern>, MiningResult) {
    let mining = mine_temporal(training, behavior, options);
    let temporal = select(&interest_ranker(training), &mining, options.top_queries);
    (temporal, mining)
}

/// Formulates the TGMiner, Ntemp and NodeSet queries for `behavior` from training data.
pub fn formulate_queries(
    training: &TrainingData,
    behavior: Behavior,
    options: &QueryOptions,
) -> BehaviorQueries {
    let positives = training.positives(behavior);
    let negatives = training.negatives();
    let score = LogRatio::default();

    // TGMiner temporal patterns, as `formulate_temporal` selects them; the ranker is
    // kept for the Ntemp patterns below.
    let mining = mine_temporal(training, behavior, options);
    let ranker = interest_ranker(training);
    let temporal = select(&ranker, &mining, options.top_queries);

    // Ntemp non-temporal patterns, ranked by (score, interest over labels).
    let ntemp = mine_nontemporal(
        positives,
        negatives,
        &score,
        options.query_size,
        options.miner_top_k,
    );
    let mut nontemporal: Vec<(f64, f64, StaticPattern)> = ntemp
        .patterns
        .into_iter()
        .map(|p| {
            let interest: f64 = p.pattern.labels.iter().map(|&l| ranker.interest(l)).sum();
            (p.score, interest, p.pattern)
        })
        .collect();
    nontemporal.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
    });
    let nontemporal = nontemporal
        .into_iter()
        .take(options.top_queries)
        .map(|(_, _, p)| p)
        .collect();

    // NodeSet keyword query: top query_size discriminative labels. Labels are scored
    // with information gain, which is coverage-aware: a label present in every positive
    // trace outranks a rarer one even when both never occur in the background.
    let label_score = InfoGain::new(positives.len(), negatives.len());
    let nodeset = mine_nodeset(positives, negatives, &label_score, options.query_size);

    BehaviorQueries {
        behavior,
        temporal,
        nontemporal,
        nodeset,
        mining,
    }
}

/// Accuracy of the three approaches on one behavior.
#[derive(Debug, Clone, Copy)]
pub struct BehaviorAccuracy {
    /// The target behavior.
    pub behavior: Behavior,
    /// Accuracy of the NodeSet keyword query.
    pub nodeset: AccuracyReport,
    /// Accuracy of the Ntemp non-temporal query.
    pub ntemp: AccuracyReport,
    /// Accuracy of the TGMiner temporal query.
    pub tgminer: AccuracyReport,
}

/// Searches the formulated queries over the test data and scores them.
pub fn evaluate_queries(queries: &BehaviorQueries, test: &TestData) -> BehaviorAccuracy {
    let truth = test.intervals_of(queries.behavior);
    let window = test.max_duration;

    // One label-pair postings index serves seed lookup for every temporal and static
    // query over this test graph.
    let postings = EdgePostings::build(&test.graph);
    let temporal_hits: Vec<Interval> = queries
        .temporal
        .iter()
        .flat_map(|p| search_temporal_indexed(&test.graph, &postings, p, window))
        .collect();
    let ntemp_hits: Vec<Interval> = queries
        .nontemporal
        .iter()
        .flat_map(|p| search_static_indexed(&test.graph, &postings, p, window))
        .collect();
    let nodeset_hits = search_nodeset(&test.graph, &queries.nodeset, window);

    BehaviorAccuracy {
        behavior: queries.behavior,
        nodeset: evaluate_hits(nodeset_hits, &truth),
        ntemp: evaluate_hits(ntemp_hits, &truth),
        tgminer: evaluate_hits(temporal_hits, &truth),
    }
}

/// Convenience: formulate and evaluate in one call.
pub fn formulate_and_evaluate(
    training: &TrainingData,
    test: &TestData,
    behavior: Behavior,
    options: &QueryOptions,
) -> BehaviorAccuracy {
    let queries = formulate_queries(training, behavior, options);
    evaluate_queries(&queries, test)
}

/// A full accuracy sweep: one [`BehaviorAccuracy`] row per evaluated behavior.
///
/// This is the evaluate path behind the accuracy experiment binary
/// (`table2_accuracy`): producing the rows and aggregating them lives here, so no
/// binary carries its own ad-hoc averaging loop (which is where the divide-by-zero
/// `NaN`s used to come from).
#[derive(Debug, Clone, Default)]
pub struct AccuracySummary {
    /// One row per behavior, in evaluation order.
    pub rows: Vec<BehaviorAccuracy>,
}

/// Column averages of an [`AccuracySummary`] (macro averages over behaviors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyAverages {
    /// Average precision of (NodeSet, Ntemp, TGMiner).
    pub precision: [f64; 3],
    /// Average recall of (NodeSet, Ntemp, TGMiner).
    pub recall: [f64; 3],
}

impl AccuracySummary {
    /// Macro-averaged precision and recall per approach, or `None` when the summary
    /// has no rows — the caller must treat an empty sweep as an error rather than
    /// printing `0/0` artifacts.
    pub fn averages(&self) -> Option<AccuracyAverages> {
        if self.rows.is_empty() {
            return None;
        }
        let n = self.rows.len() as f64;
        let mut precision = [0.0f64; 3];
        let mut recall = [0.0f64; 3];
        for row in &self.rows {
            let reports = [row.nodeset, row.ntemp, row.tgminer];
            for (i, report) in reports.iter().enumerate() {
                precision[i] += report.precision();
                recall[i] += report.recall();
            }
        }
        for value in precision.iter_mut().chain(recall.iter_mut()) {
            *value /= n;
        }
        Some(AccuracyAverages { precision, recall })
    }
}

/// Formulates and evaluates every behavior in `behaviors`, invoking `progress` before
/// each one (the experiment binaries report it on stderr; pass `|_| {}` to stay quiet).
pub fn evaluate_behaviors(
    training: &TrainingData,
    test: &TestData,
    behaviors: &[Behavior],
    options: &QueryOptions,
    mut progress: impl FnMut(Behavior),
) -> AccuracySummary {
    AccuracySummary {
        rows: behaviors
            .iter()
            .map(|&behavior| {
                progress(behavior);
                formulate_and_evaluate(training, test, behavior, options)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscall::{DatasetConfig, TestDataConfig};

    fn tiny_setup() -> (TrainingData, TestData) {
        let training = TrainingData::generate(&DatasetConfig::tiny());
        let test = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
        (training, test)
    }

    #[test]
    fn formulated_queries_are_nonempty_and_sized() {
        let (training, _) = tiny_setup();
        let options = QueryOptions {
            query_size: 3,
            top_queries: 3,
            miner_top_k: 8,
            cap_per_graph: 32,
        };
        let queries = formulate_queries(&training, Behavior::GzipDecompress, &options);
        assert!(!queries.temporal.is_empty());
        assert!(queries.temporal.iter().all(|p| p.edge_count() <= 3));
        assert!(!queries.nontemporal.is_empty());
        assert_eq!(queries.nodeset.len(), 3);
        assert!(queries.mining.stats.patterns_processed > 0);
    }

    #[test]
    fn tgminer_queries_find_behavior_instances_accurately() {
        let (training, test) = tiny_setup();
        let options = QueryOptions {
            query_size: 4,
            top_queries: 3,
            miner_top_k: 8,
            cap_per_graph: 32,
        };
        let accuracy =
            formulate_and_evaluate(&training, &test, Behavior::Bzip2Decompress, &options);
        // A distinct behavior: TGMiner must be both precise and complete.
        assert!(
            accuracy.tgminer.precision() > 0.9,
            "precision {}",
            accuracy.tgminer.precision()
        );
        assert!(
            accuracy.tgminer.recall() > 0.6,
            "recall {}",
            accuracy.tgminer.recall()
        );
        assert!(accuracy.tgminer.instances > 0);
    }

    #[test]
    fn formulate_queries_selects_exactly_what_formulate_temporal_does() {
        let (training, _) = tiny_setup();
        let options = QueryOptions {
            query_size: 4,
            top_queries: 3,
            miner_top_k: 8,
            cap_per_graph: 32,
        };
        // The same selection from a dataset that went over the wire as labeled traces.
        let replayed = TrainingData::from_traces(
            &syscall::labeled_traces(&training),
            training.interner.clone(),
        )
        .expect("generated traces are consistent");
        for behavior in Behavior::all() {
            let (temporal, mining) = formulate_temporal(&training, behavior, &options);
            assert!(!temporal.is_empty() && temporal.len() <= 3);
            assert_eq!(
                formulate_queries(&training, behavior, &options).temporal,
                temporal
            );
            assert_eq!(
                formulate_temporal(&replayed, behavior, &options).0,
                temporal
            );
            assert_eq!(
                mining.patterns.len(),
                8,
                "the miner's top-k, before selection"
            );
        }
        // A class the training set lacks mines from nothing and selects nothing.
        let mut background = syscall::labeled_traces(&training);
        background.retain(|trace| trace.label == syscall::TraceLabel::Background);
        let background_only =
            TrainingData::from_traces(&background, training.interner.clone()).unwrap();
        assert!(
            formulate_temporal(&background_only, Behavior::SshdLogin, &options)
                .0
                .is_empty()
        );
    }

    #[test]
    fn summary_averages_match_the_rows_and_reject_empty_sweeps() {
        let (training, test) = tiny_setup();
        let options = QueryOptions {
            query_size: 3,
            top_queries: 2,
            miner_top_k: 8,
            cap_per_graph: 32,
        };
        let mut seen = Vec::new();
        let summary = evaluate_behaviors(
            &training,
            &test,
            &[Behavior::GzipDecompress],
            &options,
            |b| seen.push(b),
        );
        assert_eq!(seen, vec![Behavior::GzipDecompress]);
        assert_eq!(summary.rows.len(), 1);
        assert!(summary.rows[0].tgminer.instances > 0);
        let averages = summary.averages().expect("non-empty sweep");
        let row = &summary.rows[0];
        assert!((averages.precision[2] - row.tgminer.precision()).abs() < 1e-12);
        assert!((averages.recall[0] - row.nodeset.recall()).abs() < 1e-12);
        assert!(AccuracySummary::default().averages().is_none());
    }

    #[test]
    fn temporal_queries_beat_keyword_queries_on_confusable_behaviors() {
        let (training, test) = tiny_setup();
        let options = QueryOptions {
            query_size: 4,
            top_queries: 3,
            miner_top_k: 8,
            cap_per_graph: 32,
        };
        let accuracy = formulate_and_evaluate(&training, &test, Behavior::SshdLogin, &options);
        // sshd-login shares its structure with background decoys: the keyword query must
        // not beat the temporal query on precision.
        assert!(accuracy.tgminer.precision() >= accuracy.nodeset.precision());
    }
}
