//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of n samples
//! is the sample at rank ⌈p·n⌉ (1-based) of the sorted list. A reported
//! tail percentile must have at least [`MIN_BEYOND`] samples above its rank,
//! so that it is a measured value and not the run's maximum in disguise.

/// Samples a tail percentile needs beyond its rank to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first, with their labels.
const TAILS: [(&str, f64); 6] = [
    ("p99.9", 0.999),
    ("p99", 0.99),
    ("p95", 0.95),
    ("p90", 0.90),
    ("p75", 0.75),
    ("p50", 0.50),
];

/// 1-based nearest rank of percentile `q` among `n` samples (`n > 0`).
pub fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps q·n that is integral on paper (0.9 × 100) from
    // rounding up to the next rank through binary floating point.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Nearest-rank percentile `q` of `samples` (sorted ascending, nonempty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest tail percentile of `n` samples that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer (`n < 20`).
pub fn tail_quantile(n: usize) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .copied()
        .find(|&(_, q)| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// Median, reported tail and sample count of one timing distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Label of the reported tail (`"p99"`, ..., or `"max"` when no
    /// percentile has enough samples beyond it).
    pub tail_label: &'static str,
    /// Value of the reported tail.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). Returns `None` for no samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (tail_label, tail) = match tail_quantile(n) {
            Some((label, q)) => (label, percentile(&sorted, q)),
            None => ("max", sorted[n - 1]),
        };
        Some(Summary {
            n,
            p50: percentile(&sorted, 0.5),
            tail_label,
            tail,
        })
    }
}

/// Nearest-rank median of `samples` (any order, nonempty), or 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        // 19 samples: the median has only 9 above it.
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20).map(|t| t.0), Some("p50"));
        // p75 of 40 is rank 30 with 10 beyond; p90 of 99 has 9 beyond.
        assert_eq!(tail_quantile(40).map(|t| t.0), Some("p75"));
        assert_eq!(tail_quantile(99).map(|t| t.0), Some("p75"));
        assert_eq!(tail_quantile(100).map(|t| t.0), Some("p90"));
        assert_eq!(tail_quantile(999).map(|t| t.0), Some("p95"));
        assert_eq!(tail_quantile(1000).map(|t| t.0), Some("p99"));
        assert_eq!(tail_quantile(10_000).map(|t| t.0), Some("p99.9"));
        for n in 1..3000 {
            if let Some((_, q)) = tail_quantile(n) {
                assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn summary_falls_back_to_max() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail_label, s.tail), (3, 2.0, "max", 3.0));
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert_eq!((s.tail_label, s.tail), ("p99", 989.0));
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }
}
