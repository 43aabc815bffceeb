//! The top-k collection and the admission rule — the one place either miner compares
//! a score or a bound with the pruning threshold `F*`.
//!
//! [`TopK`] holds the k best patterns reached so far: decreasing score, equal scores
//! in the order they were reached (the first one reached wins a tie). `F*` is the
//! k-th best score once k patterns are held and −∞ before that. [`TopK::admits`] is
//! the single predicate over it — *could a pattern scoring `x` enter now?* — and it
//! serves both directions: [`TopK::offer`] keeps a pattern iff its score is admitted,
//! and every prune site cuts a branch iff the best score the branch could still reach
//! (the naive bound of Section 4.1, or a registered branch's best score) is not.
//!
//! That makes pruning on a *tie* exact: every descendant of a pattern has positive
//! support at most its ancestor's, so it scores at most the ancestor's bound; `F*`
//! never decreases; and a full top-k admits only `score > F*`. A branch whose bound
//! fails `admits` therefore can never change the top-k, its order or its scores —
//! while an unfilled top-k (`F*` = −∞) admits everything and prunes nothing.

/// One mined pattern with its statistics.
#[derive(Debug, Clone)]
pub struct Scored<P> {
    /// The pattern.
    pub pattern: P,
    /// Discriminative score `F(pos_freq, neg_freq)`.
    pub score: f64,
    /// Frequency in the positive set.
    pub pos_freq: f64,
    /// Frequency in the negative set.
    pub neg_freq: f64,
}

/// The k best patterns reached so far, sorted by decreasing score.
#[derive(Debug)]
pub struct TopK<P> {
    k: usize,
    held: Vec<Scored<P>>,
}

impl<P> TopK<P> {
    /// An empty collection that will hold at most `k` patterns.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            held: Vec::new(),
        }
    }

    /// Whether a pattern scoring `x` would be kept if offered now: always while fewer
    /// than k are held, afterwards only if `x` beats the k-th best score (a NaN, which
    /// compares with nothing, is admitted).
    pub fn admits(&self, x: f64) -> bool {
        let f_star = self.held.last().map_or(f64::NEG_INFINITY, |p| p.score);
        !(self.held.len() >= self.k && x <= f_star)
    }

    /// Offers a pattern; `pattern` is only called on admission.
    pub fn offer(&mut self, score: f64, pos_freq: f64, neg_freq: f64, pattern: impl FnOnce() -> P) {
        if !self.admits(score) {
            return;
        }
        // After every held pattern scoring at least as much: first reached wins a tie.
        let at = self
            .held
            .partition_point(|p| p.score.total_cmp(&score).is_ge());
        self.held.insert(
            at,
            Scored {
                pattern: pattern(),
                score,
                pos_freq,
                neg_freq,
            },
        );
        self.held.truncate(self.k);
    }

    /// The held patterns, best first.
    pub fn into_patterns(self) -> Vec<Scored<P>> {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(top: TopK<&'static str>) -> Vec<(&'static str, f64)> {
        top.into_patterns()
            .into_iter()
            .map(|p| (p.pattern, p.score))
            .collect()
    }

    #[test]
    fn an_unfilled_top_k_admits_everything() {
        let mut top = TopK::new(2);
        for x in [f64::NEG_INFINITY, -1.0, f64::NAN, f64::INFINITY] {
            assert!(top.admits(x), "{x}");
        }
        top.offer(f64::NEG_INFINITY, 0.0, 0.0, || "floor");
        // One of two held: still unfilled, so even a tie with the held score enters.
        assert!(top.admits(f64::NEG_INFINITY));
        top.offer(f64::NEG_INFINITY, 0.0, 0.0, || "tie");
        assert_eq!(
            held(top),
            [("floor", f64::NEG_INFINITY), ("tie", f64::NEG_INFINITY)]
        );
    }

    #[test]
    fn a_tie_cannot_enter_a_full_top_k() {
        let mut top = TopK::new(2);
        top.offer(2.0, 1.0, 0.0, || "a");
        top.offer(1.0, 1.0, 0.0, || "b");
        assert!(!top.admits(1.0), "a tie with F* is not admitted");
        assert!(!top.admits(0.5));
        assert!(top.admits(1.5));
        assert!(top.admits(f64::NAN), "a NaN compares with nothing");
        let mut built = false;
        top.offer(1.0, 1.0, 0.0, || {
            built = true;
            "late tie"
        });
        assert!(!built, "a rejected pattern is never built");
        // A better pattern displaces the k-th; one tying the best goes after it.
        top.offer(2.0, 1.0, 0.0, || "c");
        assert_eq!(held(top), [("a", 2.0), ("c", 2.0)]);
    }

    #[test]
    fn k_zero_holds_nothing() {
        let mut top = TopK::new(0);
        top.offer(1.0, 1.0, 0.0, || "a");
        assert!(held(top).is_empty());
    }
}
