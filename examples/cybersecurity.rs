//! Cybersecurity scenario (the paper's Example 1 and Figure 10).
//!
//! Run with `cargo run --release --example cybersecurity`.
//!
//! Generates the synthetic syscall training data, mines behavior queries for
//! `sshd-login` (and a couple of other behaviors), prints the discovered discriminative
//! patterns with their entity names, and then searches the 7-day-style test log for
//! sshd-login activity — the "too many logins over a Saturday night" use case.

use behavior_query::query::{evaluate_queries, formulate_queries, QueryOptions};
use behavior_query::syscall::{Behavior, DatasetConfig, TestData, TestDataConfig, TrainingData};

fn main() {
    // Small synthetic datasets keep the example quick; see README.md § "Measuring" for larger runs.
    let training_config = DatasetConfig {
        graphs_per_behavior: 10,
        background_graphs: 40,
        ..DatasetConfig::small()
    };
    let training = TrainingData::generate(&training_config);
    let test = TestData::generate(
        &TestDataConfig {
            instances: 96,
            ..TestDataConfig::small()
        },
        training.interner.clone(),
    );

    let options = QueryOptions {
        query_size: 5,
        top_queries: 3,
        ..QueryOptions::default()
    };
    for behavior in [
        Behavior::SshdLogin,
        Behavior::WgetDownload,
        Behavior::FtpDownload,
    ] {
        println!("==== {} ====", behavior.name());
        let queries = formulate_queries(&training, behavior, &options);

        println!("discovered discriminative temporal patterns (Figure 10 style):");
        for (i, pattern) in queries.temporal.iter().enumerate() {
            println!("  pattern #{i} ({} edges):", pattern.edge_count());
            for (t, edge) in pattern.edges().iter().enumerate() {
                println!(
                    "    t{}: {} -> {}",
                    t + 1,
                    training
                        .interner
                        .name_or_placeholder(pattern.label(edge.src)),
                    training
                        .interner
                        .name_or_placeholder(pattern.label(edge.dst)),
                );
            }
        }

        let accuracy = evaluate_queries(&queries, &test);
        println!(
            "search over the monitoring log: {} instances, TGMiner precision {:.1}% recall {:.1}%",
            accuracy.tgminer.instances,
            accuracy.tgminer.precision() * 100.0,
            accuracy.tgminer.recall() * 100.0,
        );
        println!(
            "baselines: NodeSet precision {:.1}%, Ntemp precision {:.1}%\n",
            accuracy.nodeset.precision() * 100.0,
            accuracy.ntemp.precision() * 100.0,
        );
    }
    println!("Note: precision gaps widen on behaviors whose entities also appear in background");
    println!("activity (sshd-login), exactly the effect Table 2 of the paper reports.");
}
