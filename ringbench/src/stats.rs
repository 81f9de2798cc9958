//! Order statistics with the benchmark's tail rule.
//!
//! A timing is reported as its median plus the highest percentile of a
//! fixed ladder that still has at least [`MIN_BEYOND`] samples beyond it,
//! so a tail figure is never one or two outliers. The ladder is fixed (not
//! `1 - 10/n`) so that runs with similar sample counts report the same
//! percentile and stay comparable.

/// Percentile ladder in permille, highest first.
const LADDER_PERMILLE: [u64; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: u64 = 10;

/// The highest ladder percentile (in percent) with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median lacks them.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    LADDER_PERMILLE
        .iter()
        .find(|&&pm| n * (1000 - pm) / 1000 >= MIN_BEYOND)
        .map(|&pm| pm as f64 / 10.0)
}

/// Nearest-rank `p`-th percentile (0 < p ≤ 100) of ascending `sorted`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and rule-chosen tail of one sample set.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile [`tail_percentile`] chose (50 when it chose none).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarises `samples` (sorted in place). Infinite samples — operations
/// that failed or never completed — sort last and so count as missing
/// every latency limit.
#[must_use]
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(samples.len()).unwrap_or(50.0);
    Summary {
        n: samples.len(),
        p50: percentile(samples, 50.0),
        tail_pct,
        tail: percentile(samples, tail_pct),
    }
}

/// Median of `samples` (sorted in place); NaN when empty.
#[must_use]
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn chosen_tail_leaves_at_least_ten_samples_beyond() {
        for n in [20usize, 150, 1000, 2617, 12_345] {
            let mut v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let s = summarize(&mut v);
            let beyond = v.iter().filter(|&&x| x > s.tail).count();
            assert!(beyond >= MIN_BEYOND as usize, "n={n} beyond={beyond}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1000, 500.0, 99.0, 990.0));
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        let mut v: Vec<f64> = (1..=89).map(f64::from).collect();
        v.extend([f64::INFINITY; 11]);
        let s = summarize(&mut v);
        assert_eq!(s.tail_pct, 90.0);
        assert!(s.tail.is_infinite());
    }
}
