//! Cross-crate integration tests: the full behavior-query pipeline from synthetic syscall
//! logs through mining to query evaluation.

use behavior_query::query::{
    evaluate_queries, formulate_and_evaluate, formulate_queries, AccuracySummary, QueryOptions,
};
use behavior_query::syscall::{Behavior, DatasetConfig, TestData, TestDataConfig, TrainingData};
use behavior_query::tgminer::{mine, LogRatio, MinerConfig, MinerVariant};
use behavior_query::tgraph::matching::contains_pattern;

fn tiny_setup() -> (TrainingData, TestData) {
    let training = TrainingData::generate(&DatasetConfig::tiny());
    let test = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
    (training, test)
}

#[test]
fn mined_patterns_actually_occur_in_the_positive_graphs() {
    let (training, _) = tiny_setup();
    for behavior in [Behavior::GzipDecompress, Behavior::FtpdLogin] {
        let positives = training.positives(behavior);
        let negatives = training.negatives();
        let config = MinerConfig {
            max_edges: 3,
            cap_per_graph: 64,
            ..MinerConfig::default()
        };
        let result = mine(positives, negatives, &LogRatio::default(), &config);
        let best = result.best().expect("patterns mined");
        let support = positives
            .iter()
            .filter(|g| contains_pattern(&best.pattern, g))
            .count();
        let measured = support as f64 / positives.len() as f64;
        assert!(
            (measured - best.pos_freq).abs() < 1e-9,
            "{}: reported positive frequency {} but measured {}",
            behavior.name(),
            best.pos_freq,
            measured
        );
    }
}

#[test]
fn every_miner_variant_agrees_on_the_best_score() {
    let (training, _) = tiny_setup();
    let positives = training.positives(Behavior::WgetDownload);
    let negatives = &training.negatives()[..10];
    let mut best_scores = Vec::new();
    for variant in MinerVariant::all() {
        let mut config = variant.config(3);
        config.cap_per_graph = 64;
        let result = mine(positives, negatives, &LogRatio::default(), &config);
        best_scores.push((variant.name(), result.best_score()));
    }
    let reference = best_scores[0].1;
    for (name, score) in &best_scores {
        assert!(
            (score - reference).abs() < 1e-9,
            "{name} found best score {score}, TGMiner found {reference}"
        );
    }
}

#[test]
fn behavior_queries_resolve_to_real_entity_names() {
    let (training, _) = tiny_setup();
    let options = QueryOptions {
        query_size: 3,
        top_queries: 2,
        miner_top_k: 8,
        cap_per_graph: 32,
    };
    let queries = formulate_queries(&training, Behavior::SshdLogin, &options);
    assert!(!queries.temporal.is_empty());
    for pattern in &queries.temporal {
        for &label in pattern.labels() {
            let name = training
                .interner
                .name(label)
                .expect("labels come from the interner");
            assert!(
                name.starts_with("proc:")
                    || name.starts_with("file:")
                    || name.starts_with("socket:")
                    || name.starts_with("pipe:"),
                "unexpected label {name}"
            );
        }
    }
}

#[test]
fn tgminer_is_at_least_as_precise_as_both_baselines_on_a_confusable_behavior() {
    let (training, test) = tiny_setup();
    let options = QueryOptions {
        query_size: 4,
        top_queries: 3,
        miner_top_k: 8,
        cap_per_graph: 32,
    };
    let accuracy = formulate_and_evaluate(&training, &test, Behavior::ScpDownload, &options);
    assert!(accuracy.tgminer.precision() >= accuracy.nodeset.precision());
    assert!(accuracy.tgminer.precision() >= accuracy.ntemp.precision() - 1e-9);
    assert!(accuracy.tgminer.recall() > 0.5);
}

#[test]
fn distinct_behaviors_are_easy_for_everyone() {
    let (training, test) = tiny_setup();
    let options = QueryOptions {
        query_size: 3,
        top_queries: 2,
        miner_top_k: 8,
        cap_per_graph: 32,
    };
    let accuracy = formulate_and_evaluate(&training, &test, Behavior::GzipDecompress, &options);
    assert!(accuracy.tgminer.precision() > 0.9);
    assert!(accuracy.tgminer.recall() > 0.7);
}

#[test]
fn subsampled_training_data_still_yields_working_queries() {
    let (training, test) = tiny_setup();
    let subset = training.subsample(0.5);
    let options = QueryOptions {
        query_size: 3,
        top_queries: 2,
        miner_top_k: 8,
        cap_per_graph: 32,
    };
    let accuracy = formulate_and_evaluate(&subset, &test, Behavior::Bzip2Decompress, &options);
    assert!(accuracy.tgminer.recall() > 0.5);
}

/// Table 2 at `tiny`, as `table2_accuracy` runs it: all twelve behaviors at the paper's
/// query size 6 with default options. It completes, on a bounded amount of search work
/// (a count, not a time), and orders the three approaches as the paper does.
#[test]
fn table2_completes_at_default_settings_and_orders_the_approaches_as_the_paper_does() {
    let (training, test) = tiny_setup();
    let options = QueryOptions::default();
    assert_eq!(options.query_size, 6);
    let mut summary = AccuracySummary::default();
    for behavior in Behavior::all() {
        let queries = formulate_queries(&training, behavior, &options);
        let stats = &queries.mining.stats;
        assert!(!stats.budget_exhausted, "{}", behavior.name());
        assert!(
            stats.patterns_processed <= 20_000,
            "{}: {} candidates — ties with a full top-k are being grown again",
            behavior.name(),
            stats.patterns_processed
        );
        summary.rows.push(evaluate_queries(&queries, &test));
    }
    assert_eq!(summary.rows.len(), 12);
    // (NodeSet, Ntemp, TGMiner) macro averages: Table 2 ranks them in that order.
    let averages = summary.averages().expect("twelve rows");
    for [nodeset, ntemp, tgminer] in [averages.precision, averages.recall] {
        assert!(tgminer >= ntemp && ntemp >= nodeset, "{averages:?}");
    }
    assert!(averages.precision[2] >= 0.95, "{averages:?}");
}
