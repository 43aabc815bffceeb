//! Order statistics and the input fingerprint hash.

/// The median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller reports a measured phase, and a phase
/// with no samples is a harness bug, not a value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The lower decile of repeated timings of one thing (below ten repetitions: the
/// fastest), or NaN for no samples: the number every timed end-to-end metric reports.
///
/// Interference on the shared cores only ever adds time, and comes in stretches that
/// can cover most of a run, so the fast end of the repetitions estimates the
/// program's own speed far more steadily than the median does (README, "Why the
/// lower decile"). Computed as Python's `statistics.quantiles(values, n=10)[0]`,
/// but never below the fastest sample, where that method extrapolates.
pub fn lower_decile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    cut(&sorted, 1, 10).max(sorted[0])
}

/// The `i`-th of the `parts - 1` cut points dividing `sorted` into `parts` groups of
/// equal probability: Python's `statistics.quantiles`, "exclusive" method.
fn cut(sorted: &[f64], i: usize, parts: usize) -> f64 {
    let len = sorted.len();
    if len < 2 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / parts).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * parts) as f64;
    let parts = parts as f64;
    (sorted[j - 1] * (parts - delta) + sorted[j] * delta) / parts
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method) — the same
/// rule the acceptance check applies to ten runs. With fewer than two values both
/// quartiles are the single value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (cut(&sorted, 1, 4), cut(&sorted, 3, 4))
}

/// Interquartile range as a share of the median — the spread the acceptance check
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The percentile ladder tail latencies are read from, in basis points (integer
/// arithmetic: `100.0 * (1.0 - 0.9)` is not ten).
const PERCENTILES_BP: [usize; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The value at `basis_points` of the way through the sorted samples (5,000 is the
/// median, upper middle for an even count).
pub fn percentile(samples: &[u64], basis_points: usize) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() * basis_points / 10_000).min(sorted.len() - 1)]
}

/// The highest percentile of the ladder that still has at least ten samples beyond
/// it, with its value: a p99.9 read off 2,000 samples is two samples, not a
/// percentile. Falls back to the median when even that is too thin.
pub fn tail_percentile(samples: &[u64]) -> (f64, u64) {
    let n = samples.len();
    let bp = PERCENTILES_BP
        .iter()
        .rev()
        .copied()
        .find(|bp| n * (10_000 - bp) >= 100_000)
        .unwrap_or(5_000);
    (bp as f64 / 100.0, percentile(samples, bp))
}

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_pythons_exclusive_method() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        // The reported decile: statistics.quantiles(range(1, 21), n=10)[0] == 2.1;
        // of [1..10] it is 1.1; below ten samples the fastest (no extrapolation).
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert!((lower_decile(&twenty) - 2.1).abs() < 1e-12);
        assert!((lower_decile(&ten) - 1.1).abs() < 1e-12);
        assert_eq!(lower_decile(&[7.0, 1.0, 5.0, 2.0, 6.0, 3.0, 4.0]), 1.0);
        assert_eq!(lower_decile(&[2.0, 1.0]), 1.0);
        assert_eq!(lower_decile(&[3.0]), 3.0);
        assert!(lower_decile(&[]).is_nan());
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let samples = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 19 samples: p50 leaves 9.5 beyond it — too thin even for p90 (1.9).
        assert_eq!(tail_percentile(&samples(19)).0, 50.0);
        // 100 samples: p90 leaves exactly ten.
        assert_eq!(tail_percentile(&samples(100)), (90.0, 91));
        // 999 samples: p99 would leave 9.99.
        assert_eq!(tail_percentile(&samples(999)).0, 90.0);
        assert_eq!(tail_percentile(&samples(1_000)), (99.0, 991));
        assert_eq!(tail_percentile(&samples(10_000)).0, 99.9);
        assert_eq!(tail_percentile(&samples(100_000)).0, 99.99);
        assert_eq!(percentile(&[5, 1, 9], 5_000), 5);
        assert_eq!(percentile(&[1, 2, 3, 4], 5_000), 3);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // FNV-1a 64 of the empty input is the offset basis; of one zero byte it is
        // basis * prime (xor with 0 is the identity).
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut one = Fnv::default();
        one.word(0);
        let mut expected = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..8 {
            expected = expected.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(one.finish(), expected);
        let mut other = Fnv::default();
        other.word(1);
        assert_ne!(one.finish(), other.finish());
    }
}
