//! Online query discovery: the paper's pipeline, deployed on a running engine.
//!
//! Formulating a behavior's queries is `query`'s job and is done once, there: a
//! [`TrainingData`] (generated, or rebuilt from the labeled traces a deployment
//! receives: [`TrainingData::from_traces`]) goes through [`formulate_temporal`] — mine
//! the class against the background, rank, keep the top patterns — and [`compile()`].
//! What only an engine can do is here:
//!
//! * [`deploy_class`] hot-registers a class's compiled queries on a *running*
//!   [`ShardedDetector`], in ranking order ([`deploy_all`]: every class of a training
//!   set); [`retire_deployed`] hot-deregisters them (dropping their in-flight partial
//!   matches, leaving other queries untouched, and returning their estimated cost to
//!   the shard so the freed capacity attracts the next registration);
//! * [`score_deployed`] replays a held-out monitoring stream with ground truth
//!   ([`TestData`]) through the detector and scores each deployed class's
//!   precision/recall with the paper's Section 6.2 definitions — the Table 2 loop,
//!   online;
//! * [`evaluate_split`] is the whole loop in one call against a stream the miner never
//!   saw.

use crate::detector::{CompiledQuery, Detection, QueryId, Registration};
use crate::error::{BatchError, DeregisterError, RegisterError};
use crate::shard::{LabelPairStats, ShardedDetector};
use query::{compile, evaluate_hits, formulate_temporal, AccuracyReport, Interval, QueryOptions};
use std::collections::HashMap;
use std::error::Error;
use syscall::{Behavior, StreamSource, TestData, TrainingData};

/// One deployed query: which class it detects and the registration the detector handed
/// back for it.
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

/// Hot-registers one class's compiled queries on a running detector, each matched
/// within `window` timestamp units. Registration order is the order given — for
/// [`compile()`]d [`formulate_temporal`] output, ranking order — so query ids ascend
/// with rank. Stops at the first rejected query; the ones before it stay registered.
pub fn deploy_class(
    detector: &mut ShardedDetector,
    behavior: Behavior,
    queries: Vec<CompiledQuery>,
    window: u64,
) -> Result<Vec<DeployedQuery>, RegisterError> {
    queries
        .into_iter()
        .map(|query| {
            Ok(DeployedQuery {
                behavior,
                registration: detector.register(query, window)?,
            })
        })
        .collect()
}

/// Hot-deregisters previously deployed queries from a running detector: their in-flight
/// partial matches are dropped, other queries keep streaming undisturbed, and each
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
/// Detections from queries *not* listed in `deployed` — other users of the detector —
/// are ignored, not misattributed. Classes are reported in first-deployment order.
pub fn score_deployed(
    detector: &mut ShardedDetector,
    deployed: &[DeployedQuery],
    test: &TestData,
    batch_size: usize,
) -> Result<Vec<ClassAccuracy>, BatchError> {
    let mut classes: Vec<(Behavior, Vec<Interval>)> = Vec::new();
    let mut slot_of: HashMap<QueryId, usize> = HashMap::new();
    for query in deployed {
        let known = classes.iter().position(|(b, _)| *b == query.behavior);
        let slot = known.unwrap_or_else(|| {
            classes.push((query.behavior, Vec::new()));
            classes.len() - 1
        });
        slot_of.insert(query.registration.id, slot);
    }
    let mut credit = |detections: Vec<Detection>| {
        for detection in detections {
            if let Some(&slot) = slot_of.get(&detection.query) {
                classes[slot].1.push((detection.start_ts, detection.end_ts));
            }
        }
    };
    for batch in StreamSource::from_test_data(test, batch_size).batches() {
        credit(detector.on_batch(batch)?);
    }
    credit(detector.flush());
    Ok(classes
        .into_iter()
        .map(|(behavior, hits)| ClassAccuracy {
            behavior,
            report: evaluate_hits(hits, &test.intervals_of(behavior)),
        })
        .collect())
}

/// Formulates ([`formulate_temporal`]), compiles and deploys every class of
/// `training`, in the order the training set stores them.
pub fn deploy_all(
    detector: &mut ShardedDetector,
    training: &TrainingData,
    options: &QueryOptions,
    window: u64,
) -> Result<Vec<DeployedQuery>, RegisterError> {
    let mut deployed = Vec::new();
    for dataset in &training.behaviors {
        let queries = compile(&formulate_temporal(training, dataset.behavior, options).0);
        deployed.extend(deploy_class(detector, dataset.behavior, queries, window)?);
    }
    Ok(deployed)
}

/// The full train/evaluate loop against a held-out dataset: a fresh `shards`-wide
/// detector balanced by the training set's label-pair frequencies, every class deployed
/// ([`deploy_all`]; window = the dataset's longest behavior duration), the held-out
/// graph streamed in `batch_size`-event batches, each class scored against ground
/// truth. A training set without classes deploys nothing and scores no class.
pub fn evaluate_split(
    training: &TrainingData,
    options: &QueryOptions,
    test: &TestData,
    shards: usize,
    batch_size: usize,
) -> Result<Vec<ClassAccuracy>, Box<dyn Error + Send + Sync>> {
    let stats = LabelPairStats::from_graphs(training.all_graphs());
    let mut detector = ShardedDetector::with_stats(shards, stats);
    let deployed = deploy_all(&mut detector, training, options, test.max_duration)?;
    Ok(score_deployed(&mut detector, &deployed, test, batch_size)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscall::{labeled_traces, DatasetConfig, TestDataConfig, TraceLabel};
    use tgminer::baselines::nodeset::NodeSetQuery;
    use tgraph::pattern::TemporalPattern;
    use tgraph::{Label, LabelInterner, StreamEvent};

    fn tiny_options() -> QueryOptions {
        QueryOptions {
            query_size: 4,
            top_queries: 2,
            miner_top_k: 8,
            cap_per_graph: 32,
        }
    }

    fn tiny_split() -> (TrainingData, TestData) {
        let training = TrainingData::generate(&DatasetConfig::tiny());
        let test = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
        (training, test)
    }

    /// The compiled queries `evaluate_split` would deploy for `behavior`.
    fn queries_of(training: &TrainingData, behavior: Behavior) -> Vec<CompiledQuery> {
        compile(&formulate_temporal(training, behavior, &tiny_options()).0)
    }

    #[test]
    fn deploy_class_registers_in_the_order_given() {
        let edge = |a, b| CompiledQuery::Temporal(TemporalPattern::single_edge(Label(a), Label(b)));
        let mut detector = ShardedDetector::new(2);
        let deployed = deploy_class(
            &mut detector,
            Behavior::GzipDecompress,
            vec![edge(0, 1), edge(2, 3)],
            5,
        )
        .unwrap();
        let ids: Vec<QueryId> = deployed.iter().map(|d| d.registration.id).collect();
        assert_eq!(ids, vec![0, 1], "ids ascend with rank");
        let event = StreamEvent {
            ts: 1,
            src: 0,
            dst: 1,
            src_label: Label(2),
            dst_label: Label(3),
        };
        let hits = detector.on_batch(&[event]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].query, 1, "the second query given is query 1");
        // A rejected query is the error; the ones before it stay registered.
        let empty = CompiledQuery::NodeSet(NodeSetQuery { labels: vec![] });
        assert_eq!(
            deploy_class(
                &mut detector,
                Behavior::SshdLogin,
                vec![edge(4, 5), empty],
                5
            )
            .err(),
            Some(RegisterError::EmptyQuery)
        );
        assert_eq!(detector.query_count(), 3);
    }

    #[test]
    fn evaluate_split_scores_each_class_against_ground_truth() {
        let (training, test) = tiny_split();
        // Train on two classes plus the background, as traces off the wire.
        let kept = [Behavior::GzipDecompress, Behavior::Bzip2Decompress].map(TraceLabel::Behavior);
        let mut traces = labeled_traces(&training);
        traces.retain(|t| t.label == TraceLabel::Background || kept.contains(&t.label));
        let two_classes = TrainingData::from_traces(&traces, training.interner.clone()).unwrap();
        let classes = evaluate_split(&two_classes, &tiny_options(), &test, 2, 128).unwrap();
        assert_eq!(classes.len(), 2);
        for class in &classes {
            assert!(class.report.instances > 0, "held-out data has ground truth");
        }
        // The distinctive class must be detected with real accuracy (Table 2 shape).
        let bzip = classes
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
    fn an_empty_training_set_deploys_nothing_and_scores_no_class() {
        let (_, test) = tiny_split();
        let empty = TrainingData::from_traces(&[], LabelInterner::new()).unwrap();
        let classes = evaluate_split(&empty, &tiny_options(), &test, 1, 64).unwrap();
        assert!(classes.is_empty());
    }

    #[test]
    fn detections_of_undeployed_queries_are_not_credited() {
        let (training, test) = tiny_split();
        let score = |with_stranger: bool| {
            let mut detector = ShardedDetector::new(2);
            if with_stranger {
                // Another user's queries, firing on the same stream, ahead of ours.
                for query in queries_of(&training, Behavior::Bzip2Decompress) {
                    detector.register(query, test.max_duration).unwrap();
                }
            }
            let queries = queries_of(&training, Behavior::GzipDecompress);
            let deployed = deploy_class(
                &mut detector,
                Behavior::GzipDecompress,
                queries,
                test.max_duration,
            )
            .unwrap();
            score_deployed(&mut detector, &deployed, &test, 128).unwrap()
        };
        let (alone, shared) = (score(false), score(true));
        assert_eq!(shared.len(), 1, "only the deployed class is reported");
        assert_eq!(shared[0].behavior, Behavior::GzipDecompress);
        assert!(alone[0].report.identified > 0);
        assert_eq!(shared[0].report, alone[0].report);
    }

    #[test]
    fn retire_deployed_frees_the_queries_and_their_load() {
        let (training, _) = tiny_split();
        let stats = LabelPairStats::from_graphs(training.all_graphs());
        let mut detector = ShardedDetector::with_stats(2, stats);
        let queries = queries_of(&training, Behavior::GzipDecompress);
        let deployed = deploy_class(&mut detector, Behavior::GzipDecompress, queries, 100).unwrap();
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
