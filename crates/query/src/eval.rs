//! Precision / recall evaluation of behavior queries (Section 6.2).
//!
//! * an identified instance is **correct** if its time interval is fully contained in
//!   the interval of one true behavior instance;
//! * a behavior instance is **discovered** if at least one correct identified instance
//!   falls inside it;
//! * `precision = #correct / #identified`, `recall = #discovered / #instances`.

use crate::search::Interval;

/// Accuracy of one behavior query on one test dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Total number of identified instances returned by the query.
    pub identified: usize,
    /// How many identified instances were correct.
    pub correct: usize,
    /// How many true behavior instances were discovered.
    pub discovered: usize,
    /// Total number of true behavior instances.
    pub instances: usize,
}

impl AccuracyReport {
    /// `#correct / #identified` (1.0 when nothing was identified and nothing exists,
    /// 0.0 when nothing was identified but instances exist — the query found nothing).
    pub fn precision(&self) -> f64 {
        if self.identified == 0 {
            if self.instances == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.correct as f64 / self.identified as f64
        }
    }

    /// `#discovered / #instances`.
    pub fn recall(&self) -> f64 {
        if self.instances == 0 {
            1.0
        } else {
            self.discovered as f64 / self.instances as f64
        }
    }
}

/// Evaluates a set of identified instances against the ground-truth intervals of the
/// target behavior.
pub fn evaluate(identified: &[Interval], truth: &[Interval]) -> AccuracyReport {
    let mut correct = 0usize;
    let mut discovered = vec![false; truth.len()];
    for &(start, end) in identified {
        let mut hit = false;
        for (i, &(t_start, t_end)) in truth.iter().enumerate() {
            if start >= t_start && end <= t_end {
                hit = true;
                discovered[i] = true;
                break;
            }
        }
        if hit {
            correct += 1;
        }
    }
    AccuracyReport {
        identified: identified.len(),
        correct,
        discovered: discovered.iter().filter(|&&d| d).count(),
        instances: truth.len(),
    }
}

/// Merges identified instances coming from several query patterns, removing duplicates.
pub fn merge_identified(mut all: Vec<Interval>) -> Vec<Interval> {
    all.sort_unstable();
    all.dedup();
    all
}

/// Scores everything a behavior's queries hit — offline search results or streamed
/// detections alike: duplicates across the queries collapse, then [`evaluate`].
pub fn evaluate_hits(hits: Vec<Interval>, truth: &[Interval]) -> AccuracyReport {
    evaluate(&merge_identified(hits), truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_query_scores_one() {
        let truth = vec![(10, 20), (30, 40)];
        let identified = vec![(11, 19), (30, 40)];
        let report = evaluate(&identified, &truth);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
    }

    #[test]
    fn false_positives_lower_precision_only() {
        let truth = vec![(10, 20)];
        let identified = vec![(11, 19), (50, 60)];
        let report = evaluate(&identified, &truth);
        assert!((report.precision() - 0.5).abs() < 1e-12);
        assert_eq!(report.recall(), 1.0);
    }

    #[test]
    fn undiscovered_instances_lower_recall_only() {
        let truth = vec![(10, 20), (30, 40)];
        let identified = vec![(11, 19)];
        let report = evaluate(&identified, &truth);
        assert_eq!(report.precision(), 1.0);
        assert!((report.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_is_not_correct() {
        // The identified interval must be *fully contained* in a true interval.
        let truth = vec![(10, 20)];
        let identified = vec![(5, 15)];
        let report = evaluate(&identified, &truth);
        assert_eq!(report.precision(), 0.0);
        assert_eq!(report.recall(), 0.0);
    }

    #[test]
    fn multiple_hits_on_one_instance_count_once_for_recall() {
        let truth = vec![(10, 20)];
        let identified = vec![(10, 12), (13, 15), (16, 20)];
        let report = evaluate(&identified, &truth);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
        assert_eq!(report.discovered, 1);
        assert_eq!(report.correct, 3);
    }

    #[test]
    fn empty_results_handle_edge_cases() {
        let nothing = evaluate(&[], &[]);
        assert_eq!(nothing.precision(), 1.0);
        assert_eq!(nothing.recall(), 1.0);
        let missed = evaluate(&[], &[(1, 2)]);
        assert_eq!(missed.precision(), 0.0);
        assert_eq!(missed.recall(), 0.0);
    }

    #[test]
    fn merge_identified_deduplicates_and_sorts() {
        let merged = merge_identified(vec![(5, 6), (1, 2), (5, 6)]);
        assert_eq!(merged, vec![(1, 2), (5, 6)]);
        // Scoring hits merges first: the duplicate is one identified instance.
        let report = evaluate_hits(vec![(5, 6), (1, 2), (5, 6)], &[(0, 3)]);
        assert_eq!((report.identified, report.correct), (2, 1));
    }
}
