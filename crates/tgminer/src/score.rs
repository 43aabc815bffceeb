//! Discriminative score functions `F(x, y)` (Problem 1, Section 2).
//!
//! `x` is the pattern frequency in the positive graph set and `y` the frequency in the
//! negative set. All functions here satisfy the partial (anti-)monotonicity the pruning
//! framework requires *on the region of interest* (`x >= y`): fixing `x`, a smaller `y`
//! gives a larger score; fixing `y`, a larger `x` gives a larger score. The naive
//! pruning bound of Section 4.1 is `F(x, 0)`, exposed as [`ScoreFunction::upper_bound`].

/// A discriminative score function with the partial (anti-)monotonicity of Problem 1.
pub trait ScoreFunction: Send + Sync {
    /// Scores a pattern with positive frequency `pos_freq` and negative frequency
    /// `neg_freq` (both in `[0, 1]`).
    fn score(&self, pos_freq: f64, neg_freq: f64) -> f64;

    /// The largest score any supergraph of a pattern with positive frequency `pos_freq`
    /// can achieve (`F(x, 0)`, Section 4.1).
    ///
    /// The bound covers the pattern itself: `score(x, y) <= upper_bound(x)` for every
    /// `y`. `Ntemp` relies on it to test a candidate's bound before it counts the
    /// candidate's negative support, and to skip the offer of a candidate the bound
    /// cuts.
    fn upper_bound(&self, pos_freq: f64) -> f64 {
        self.score(pos_freq, 0.0)
    }

    /// Short human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// The `log(x / (y + ε))` score adopted in the paper's experiments (from GAIA).
#[derive(Debug, Clone, Copy)]
pub struct LogRatio {
    /// Smoothing constant; the paper uses `1e-6`.
    pub epsilon: f64,
}

impl Default for LogRatio {
    fn default() -> Self {
        Self { epsilon: 1e-6 }
    }
}

impl ScoreFunction for LogRatio {
    fn score(&self, pos_freq: f64, neg_freq: f64) -> f64 {
        ((pos_freq + self.epsilon) / (neg_freq + self.epsilon)).ln()
    }

    fn name(&self) -> &'static str {
        "log-ratio"
    }
}

/// A signed, one-sided G-test score: the classical G statistic between the positive and
/// negative frequency, negated when the pattern is *more* frequent in the negatives so
/// that anti-discriminative patterns never outrank discriminative ones.
#[derive(Debug, Clone, Copy)]
pub struct GTest {
    /// Smoothing constant guarding `ln(0)`.
    pub epsilon: f64,
}

impl Default for GTest {
    fn default() -> Self {
        Self { epsilon: 1e-6 }
    }
}

impl ScoreFunction for GTest {
    fn score(&self, pos_freq: f64, neg_freq: f64) -> f64 {
        let e = self.epsilon;
        let x = pos_freq.clamp(0.0, 1.0);
        let y = neg_freq.clamp(0.0, 1.0);
        let g =
            2.0 * (x * ((x + e) / (y + e)).ln() + (1.0 - x) * ((1.0 - x + e) / (1.0 - y + e)).ln());
        if x >= y {
            g.abs()
        } else {
            -g.abs()
        }
    }

    fn name(&self) -> &'static str {
        "g-test"
    }
}

/// Information gain of the "pattern present" feature w.r.t. the positive/negative class,
/// signed like [`GTest`] so anti-discriminative patterns score negatively.
#[derive(Debug, Clone, Copy)]
pub struct InfoGain {
    /// Number of positive graphs (class prior numerator).
    pub positives: usize,
    /// Number of negative graphs.
    pub negatives: usize,
}

impl InfoGain {
    /// Creates an information-gain score for the given class sizes.
    pub fn new(positives: usize, negatives: usize) -> Self {
        Self {
            positives: positives.max(1),
            negatives: negatives.max(1),
        }
    }
}

fn entropy(p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let q = 1.0 - p;
    let mut h = 0.0;
    if p > 0.0 {
        h -= p * p.log2();
    }
    if q > 0.0 {
        h -= q * q.log2();
    }
    h
}

impl ScoreFunction for InfoGain {
    fn score(&self, pos_freq: f64, neg_freq: f64) -> f64 {
        let np = self.positives as f64;
        let nn = self.negatives as f64;
        let total = np + nn;
        let prior = np / total;
        // Counts of graphs containing / not containing the pattern, per class.
        let hit_pos = pos_freq * np;
        let hit_neg = neg_freq * nn;
        let hit = hit_pos + hit_neg;
        let miss = total - hit;
        let h_prior = entropy(prior);
        let h_hit = if hit > 0.0 {
            entropy(hit_pos / hit)
        } else {
            0.0
        };
        let h_miss = if miss > 0.0 {
            entropy((np - hit_pos) / miss)
        } else {
            0.0
        };
        let gain = h_prior - (hit / total) * h_hit - (miss / total) * h_miss;
        if pos_freq >= neg_freq {
            gain
        } else {
            -gain
        }
    }

    fn name(&self) -> &'static str {
        "information-gain"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_ratio_rewards_discriminative_patterns() {
        let f = LogRatio::default();
        assert!(f.score(1.0, 0.0) > f.score(0.5, 0.0));
        assert!(f.score(1.0, 0.0) > f.score(1.0, 0.5));
        assert!(f.score(0.9, 0.01) > 0.0);
        assert!(f.score(0.01, 0.9) < 0.0);
    }

    #[test]
    fn log_ratio_upper_bound_dominates_descendant_scores() {
        let f = LogRatio::default();
        let bound = f.upper_bound(0.7);
        for &(x, y) in &[(0.7, 0.0), (0.6, 0.1), (0.3, 0.3), (0.1, 0.9)] {
            assert!(f.score(x, y) <= bound + 1e-12);
        }
    }

    #[test]
    fn gtest_is_monotone_on_the_discriminative_region() {
        let f = GTest::default();
        // Fixed y, increasing x.
        assert!(f.score(0.9, 0.1) > f.score(0.5, 0.1));
        // Fixed x, decreasing y.
        assert!(f.score(0.9, 0.05) > f.score(0.9, 0.4));
        // Anti-discriminative patterns score negatively.
        assert!(f.score(0.1, 0.9) < 0.0);
    }

    #[test]
    fn gtest_upper_bound_dominates() {
        let f = GTest::default();
        let bound = f.upper_bound(0.8);
        for &(x, y) in &[(0.8, 0.0), (0.8, 0.3), (0.5, 0.2), (0.2, 0.6)] {
            assert!(
                f.score(x, y) <= bound + 1e-9,
                "score({x},{y}) exceeded bound"
            );
        }
    }

    #[test]
    fn info_gain_prefers_pure_patterns() {
        let f = InfoGain::new(100, 100);
        let pure = f.score(1.0, 0.0);
        let mixed = f.score(1.0, 1.0);
        let partial = f.score(0.7, 0.1);
        assert!(pure > partial);
        assert!(partial > mixed);
        assert!(f.score(0.0, 1.0) <= 0.0);
    }

    #[test]
    fn info_gain_upper_bound_dominates() {
        let f = InfoGain::new(100, 1000);
        let bound = f.upper_bound(0.6);
        for &(x, y) in &[(0.6, 0.0), (0.5, 0.05), (0.3, 0.3), (0.1, 0.8)] {
            assert!(f.score(x, y) <= bound + 1e-9);
        }
    }

    #[test]
    fn the_bound_covers_the_pattern_itself() {
        // Every frequency pair a run can produce at a few class sizes.
        for (np, nn) in [(1, 1), (3, 7), (9, 100), (24, 100), (100, 1000)] {
            let scores: [&dyn ScoreFunction; 3] = [
                &LogRatio::default(),
                &GTest::default(),
                &InfoGain::new(np, nn),
            ];
            for f in scores {
                for i in 0..=np {
                    let x = i as f64 / np as f64;
                    let bound = f.upper_bound(x);
                    for j in 0..=nn {
                        let y = j as f64 / nn as f64;
                        assert!(
                            f.score(x, y) <= bound,
                            "{} at {np}/{nn}: score({x}, {y}) = {} > bound {bound}",
                            f.name(),
                            f.score(x, y)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(LogRatio::default().name(), GTest::default().name());
        assert_ne!(GTest::default().name(), InfoGain::new(1, 1).name());
    }
}
