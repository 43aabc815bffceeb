//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a corresponding binary in
//! `src/bin/` (README.md § "Measuring" has the index). The binaries share the dataset
//! setup and table-printing helpers defined here. They reproduce the paper; the engine
//! is measured by the repo benchmark in `benchmark/`.
//!
//! ## Experiment scale
//!
//! The paper's full datasets (100 graphs per behavior, 10,000 background graphs, 45-edge
//! patterns) take hours to mine. Each binary therefore reads the `BQ_SCALE` environment
//! variable:
//!
//! * `tiny`  — seconds; used by the CI smoke run.
//! * `small` — default; minutes in release mode; reproduces every experiment's *shape*.
//! * `paper` — the paper's nominal sizes (slow; only use for targeted runs).

use syscall::{Behavior, DatasetConfig, SizeClass, TestData, TestDataConfig, TrainingData};

/// Experiment scale selected through the `BQ_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test sized data.
    Tiny,
    /// Reduced data reproducing the experiment shapes (default).
    Small,
    /// Paper-sized data.
    Paper,
}

impl Scale {
    /// Reads the scale from `BQ_SCALE` (`tiny` / `small` / `paper`); unset means small.
    /// Any other value ends the process with exit code 2: a typo must not silently
    /// turn a seconds-long smoke run into minutes of `small` mining.
    pub fn from_env() -> Self {
        match std::env::var("BQ_SCALE") {
            Err(std::env::VarError::NotPresent) => Scale::Small,
            Ok(value) => Self::parse(&value).unwrap_or_else(|message| {
                eprintln!("{message}");
                std::process::exit(2)
            }),
            Err(error) => {
                eprintln!("BQ_SCALE: {error} (valid values: tiny, small, paper)");
                std::process::exit(2)
            }
        }
    }

    /// Parses a `BQ_SCALE` value (case-insensitive); the error names the valid ones.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.to_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            _ => Err(format!(
                "BQ_SCALE: unknown scale {value:?} (valid values: tiny, small, paper)"
            )),
        }
    }

    /// The training-data configuration for this scale.
    pub fn dataset_config(self) -> DatasetConfig {
        match self {
            Scale::Tiny => DatasetConfig::tiny(),
            Scale::Small => DatasetConfig::small(),
            Scale::Paper => DatasetConfig::paper(),
        }
    }

    /// The test-data configuration for this scale.
    pub fn testdata_config(self) -> TestDataConfig {
        match self {
            Scale::Tiny => TestDataConfig::tiny(),
            Scale::Small => TestDataConfig::small(),
            Scale::Paper => TestDataConfig::paper(),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

/// Generates the training data for the selected scale, reporting progress on stderr.
pub fn training_data(scale: Scale) -> TrainingData {
    eprintln!(
        "[setup] generating training data at scale '{}'...",
        scale.name()
    );
    let data = TrainingData::generate(&scale.dataset_config());
    let (nodes, edges) = data.totals();
    eprintln!(
        "[setup] training data: {} graphs, {nodes} nodes, {edges} edges",
        data.behaviors.iter().map(|b| b.graphs.len()).sum::<usize>() + data.background.len()
    );
    data
}

/// Generates the test data for the selected scale, sharing the training interner.
pub fn test_data(scale: Scale, training: &TrainingData) -> TestData {
    eprintln!(
        "[setup] generating test data at scale '{}'...",
        scale.name()
    );
    let data = TestData::generate(&scale.testdata_config(), training.interner.clone());
    eprintln!(
        "[setup] test data: {} nodes, {} edges, {} behavior instances",
        data.graph.node_count(),
        data.graph.edge_count(),
        data.instances.len()
    );
    data
}

/// The behaviors exercised by the efficiency figures, one representative per size class
/// at reduced scales (mining every behavior with every baseline would dominate runtime).
pub fn efficiency_behaviors(scale: Scale) -> Vec<(SizeClass, Vec<Behavior>)> {
    let pick = |class: SizeClass| -> Vec<Behavior> {
        let all = Behavior::by_size_class(class);
        match scale {
            Scale::Paper => all,
            Scale::Small | Scale::Tiny => all.into_iter().take(2).collect(),
        }
    };
    vec![
        (SizeClass::Small, pick(SizeClass::Small)),
        (SizeClass::Medium, pick(SizeClass::Medium)),
        (SizeClass::Large, pick(SizeClass::Large)),
    ]
}

/// Prints a row of a fixed-width text table.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(cell, width)| format!("{cell:>width$}"))
        .collect();
    println!("{}", row.join("  "));
}

/// Prints a table header followed by a separator line.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + widths.len().saturating_sub(1) * 2;
    println!("{}", "-".repeat(total));
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Formats a duration in seconds with three decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_small() {
        // The environment variable is not set in tests.
        assert_eq!(Scale::from_env(), Scale::Small);
        assert_eq!(Scale::Tiny.dataset_config().graphs_per_behavior, 6);
        assert_eq!(Scale::Paper.dataset_config().graphs_per_behavior, 100);
    }

    #[test]
    fn unknown_scales_are_rejected_by_name() {
        assert_eq!(Scale::parse("tiny"), Ok(Scale::Tiny));
        assert_eq!(Scale::parse("Small"), Ok(Scale::Small));
        assert_eq!(Scale::parse("PAPER"), Ok(Scale::Paper));
        for typo in ["tiney", "", "tiny ", "sustained"] {
            let message = Scale::parse(typo).unwrap_err();
            for valid in ["tiny", "small", "paper"] {
                assert!(message.contains(valid), "{message}");
            }
            assert!(message.contains(&format!("{typo:?}")), "{message}");
        }
    }

    #[test]
    fn efficiency_behaviors_cover_all_size_classes() {
        let groups = efficiency_behaviors(Scale::Small);
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|(_, behaviors)| !behaviors.is_empty()));
        let paper_groups = efficiency_behaviors(Scale::Paper);
        let total: usize = paper_groups.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn formatting_helpers_are_stable() {
        assert_eq!(pct(0.974), "97.4");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
