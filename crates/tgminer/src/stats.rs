//! Counters describing the work a mining run performed.
//!
//! These are the quantities the paper's efficiency evaluation reasons about: how many
//! patterns were processed, how many temporal subgraph tests and residual-set
//! equivalence tests ran (Section 4.2 reports >70M and >400M for sshd-login), and how
//! often each pruning condition triggered (Table 3).

use std::time::Duration;

/// Work performed at one pattern-growth level (patterns with `level` edges).
///
/// This is the candidate-frontier diagnostic: when a mining run blows up, the
/// per-level candidate counts show exactly which growth level exploded and how
/// hard.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// Pattern edge count this row describes.
    pub level: usize,
    /// Candidate patterns of this size popped from the DFS.
    pub candidates: u64,
    /// Candidates of this size whose branch was cut by any pruning condition.
    pub pruned: u64,
    /// Embeddings stored for candidates of this size: 0 at the miner's size cap
    /// (above one edge), whose candidates are support-counted, never materialised.
    pub embeddings: u64,
}

/// Work counters accumulated across one mining run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MiningStats {
    /// Patterns popped from the DFS (i.e. processed, whether or not they were pruned).
    pub patterns_processed: u64,
    /// Patterns whose branch was fully explored (not pruned away).
    pub patterns_expanded: u64,
    /// Candidate extensions that were evaluated: child patterns materialised with
    /// their embeddings below the size cap, support-counted at it.
    pub extensions_evaluated: u64,
    /// Temporal subgraph tests executed by the pruning framework.
    pub subgraph_tests: u64,
    /// Residual-graph-set equivalence tests executed by the pruning framework.
    pub residual_equiv_tests: u64,
    /// Branches cut by the naive upper-bound condition (Section 4.1).
    pub upper_bound_prunes: u64,
    /// Branches cut by subgraph pruning (Lemma 4).
    pub subgraph_prunes: u64,
    /// Branches cut by supergraph pruning (Proposition 2).
    pub supergraph_prunes: u64,
    /// Total number of embeddings stored across all patterns (the sum of
    /// [`LevelStats::embeddings`]; candidates at the size cap store none).
    pub embeddings_materialized: u64,
    /// Per-growth-level frontier breakdown, indexed sparsely by edge count (levels
    /// that processed no candidate are absent).
    pub levels: Vec<LevelStats>,
    /// `true` when the run hit [`crate::MinerConfig::frontier_budget`] and aborted
    /// the search early. The returned patterns are the best found *so far* — a
    /// truncated result, not the configured search's optimum.
    pub budget_exhausted: bool,
    /// Wall-clock time of the mining run.
    pub elapsed: Duration,
}

impl MiningStats {
    /// The mutable per-level row for patterns with `level` edges, created on first
    /// touch (rows stay sorted by level).
    pub fn level_mut(&mut self, level: usize) -> &mut LevelStats {
        let index = match self.levels.binary_search_by_key(&level, |l| l.level) {
            Ok(index) => index,
            Err(index) => {
                self.levels.insert(
                    index,
                    LevelStats {
                        level,
                        ..LevelStats::default()
                    },
                );
                index
            }
        };
        &mut self.levels[index]
    }
    /// Empirical probability that subgraph pruning triggered while processing a pattern
    /// (Table 3, first row).
    pub fn subgraph_prune_rate(&self) -> f64 {
        ratio(self.subgraph_prunes, self.patterns_processed)
    }

    /// Empirical probability that supergraph pruning triggered while processing a
    /// pattern (Table 3, second row).
    pub fn supergraph_prune_rate(&self) -> f64 {
        ratio(self.supergraph_prunes, self.patterns_processed)
    }

    /// Empirical probability that the naive upper-bound condition triggered.
    pub fn upper_bound_prune_rate(&self) -> f64 {
        ratio(self.upper_bound_prunes, self.patterns_processed)
    }

    /// Merges counters from another run into this one (used when mining several
    /// behaviors and reporting aggregate statistics).
    pub fn merge(&mut self, other: &MiningStats) {
        self.patterns_processed += other.patterns_processed;
        self.patterns_expanded += other.patterns_expanded;
        self.extensions_evaluated += other.extensions_evaluated;
        self.subgraph_tests += other.subgraph_tests;
        self.residual_equiv_tests += other.residual_equiv_tests;
        self.upper_bound_prunes += other.upper_bound_prunes;
        self.subgraph_prunes += other.subgraph_prunes;
        self.supergraph_prunes += other.supergraph_prunes;
        self.embeddings_materialized += other.embeddings_materialized;
        for level in &other.levels {
            let row = self.level_mut(level.level);
            row.candidates += level.candidates;
            row.pruned += level.pruned;
            row.embeddings += level.embeddings;
        }
        self.budget_exhausted |= other.budget_exhausted;
        self.elapsed += other.elapsed;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominator() {
        let stats = MiningStats::default();
        assert_eq!(stats.subgraph_prune_rate(), 0.0);
        assert_eq!(stats.supergraph_prune_rate(), 0.0);
        assert_eq!(stats.upper_bound_prune_rate(), 0.0);
    }

    #[test]
    fn rates_are_fractions_of_processed_patterns() {
        let stats = MiningStats {
            patterns_processed: 200,
            subgraph_prunes: 120,
            supergraph_prunes: 10,
            ..Default::default()
        };
        assert!((stats.subgraph_prune_rate() - 0.6).abs() < 1e-12);
        assert!((stats.supergraph_prune_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = MiningStats {
            patterns_processed: 5,
            subgraph_tests: 7,
            ..Default::default()
        };
        let b = MiningStats {
            patterns_processed: 3,
            subgraph_tests: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.patterns_processed, 8);
        assert_eq!(a.subgraph_tests, 9);
    }

    #[test]
    fn level_rows_stay_sorted_and_merge_elementwise() {
        let mut a = MiningStats::default();
        a.level_mut(3).candidates = 10;
        a.level_mut(1).candidates = 5;
        a.level_mut(1).pruned = 2;
        assert_eq!(
            a.levels.iter().map(|l| l.level).collect::<Vec<_>>(),
            vec![1, 3],
            "rows are kept in level order regardless of touch order"
        );
        let mut b = MiningStats::default();
        b.level_mut(1).candidates = 7;
        b.level_mut(2).embeddings = 4;
        b.budget_exhausted = true;
        a.merge(&b);
        assert_eq!(
            a.levels,
            vec![
                LevelStats {
                    level: 1,
                    candidates: 12,
                    pruned: 2,
                    embeddings: 0
                },
                LevelStats {
                    level: 2,
                    candidates: 0,
                    pruned: 0,
                    embeddings: 4
                },
                LevelStats {
                    level: 3,
                    candidates: 10,
                    pruned: 0,
                    embeddings: 0
                },
            ]
        );
        assert!(a.budget_exhausted, "exhaustion is sticky across merges");
    }
}
