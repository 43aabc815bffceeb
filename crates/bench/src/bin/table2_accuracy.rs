//! Table 2: query accuracy (precision / recall) of NodeSet, Ntemp, and TGMiner on the
//! 12 behaviors, with query size fixed at 6 and all training data used.
//!
//! An empty dataset exits non-zero instead of printing `0/0` artifacts.

use bench::{pct, print_header, print_row, test_data, training_data, Scale};
use query::{evaluate_behaviors, QueryOptions};
use syscall::Behavior;

fn main() {
    let scale = Scale::from_env();
    let training = training_data(scale);
    let test = test_data(scale, &training);
    if test.instances.is_empty() {
        eprintln!("[table2] test dataset has no behavior instances; nothing to score");
        std::process::exit(2);
    }
    let summary = evaluate_behaviors(
        &training,
        &test,
        &Behavior::all(),
        &QueryOptions::default(),
        |behavior| eprintln!("[table2] evaluating {}...", behavior.name()),
    );

    let widths = [20, 9, 9, 9, 9, 9, 9];
    println!(
        "Table 2: query accuracy on different behaviors (scale: {})",
        scale.name()
    );
    print_header(
        &[
            "behavior",
            "P:NodeSet",
            "P:Ntemp",
            "P:TGMiner",
            "R:NodeSet",
            "R:Ntemp",
            "R:TGMiner",
        ],
        &widths,
    );
    for row in &summary.rows {
        print_row(
            &[
                row.behavior.name().to_string(),
                pct(row.nodeset.precision()),
                pct(row.ntemp.precision()),
                pct(row.tgminer.precision()),
                pct(row.nodeset.recall()),
                pct(row.ntemp.recall()),
                pct(row.tgminer.recall()),
            ],
            &widths,
        );
    }
    let Some(averages) = summary.averages() else {
        eprintln!("[table2] no behavior was evaluated; refusing to print NaN averages");
        std::process::exit(2);
    };
    print_row(
        &[
            "Average".to_string(),
            pct(averages.precision[0]),
            pct(averages.precision[1]),
            pct(averages.precision[2]),
            pct(averages.recall[0]),
            pct(averages.recall[1]),
            pct(averages.recall[2]),
        ],
        &widths,
    );
    println!(
        "\nPaper reference (averages): precision 68.5 / 83.2 / 97.4, recall 78.4 / 91.9 / 91.1"
    );
}
