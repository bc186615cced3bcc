//! Log-bucketed latency histogram with percentile estimation.
//!
//! Delay distributions under congestion are heavy-tailed, so the QoS
//! experiments report percentiles (p50/p95/p99), not just means. The
//! histogram uses logarithmically spaced buckets — constant relative
//! resolution (20 buckets/decade, each ~12% wide), constant memory,
//! O(1) insertion — the standard latency-recording trade-off.

use serde::{Deserialize, Serialize};

/// Buckets per decade; 20 gives ~12% bucket width (10^(1/20)).
const BUCKETS_PER_DECADE: usize = 20;
/// Decades covered: 1 ns .. 10^8 ns (100 ms) plus an overflow bucket.
const DECADES: usize = 9;
const BUCKETS: usize = BUCKETS_PER_DECADE * DECADES + 1;

/// A latency histogram over nanosecond samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns <= 1 {
            return 0;
        }
        let idx = ((ns as f64).log10() * BUCKETS_PER_DECADE as f64).floor() as usize;
        idx.min(BUCKETS - 1)
    }

    /// Lower edge of a bucket in nanoseconds.
    fn bucket_floor(idx: usize) -> f64 {
        10f64.powf(idx as f64 / BUCKETS_PER_DECADE as f64)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Estimates the `q`-quantile (0.0–1.0) in nanoseconds: the lower
    /// edge of the bucket containing the quantile rank (an underestimate
    /// of less than 11% relative, 1 - 10^(-1/20), by construction). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(BUCKETS - 1)
    }

    /// Convenience: p50/p95/p99 in nanoseconds.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// Merges another histogram into this one (ensemble aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000); // 1 ms
        for q in [0.01, 0.5, 0.99] {
            let v = h.quantile(q);
            assert!((0.93..=1.0).contains(&(v / 1_000_000.0)), "q={q} gave {v}");
        }
    }

    #[test]
    fn percentiles_order_correctly() {
        let mut h = LatencyHistogram::new();
        // 90 fast samples, 9 medium, 1 slow.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..9 {
            h.record(100_000);
        }
        h.record(10_000_000);
        let (p50, p95, p99) = h.percentiles();
        assert!(p50 < p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 < 2_000.0);
        assert!((50_000.0..200_000.0).contains(&p95), "{p95}");
        // p99 of 100 samples is the 99th smallest — still the medium tier;
        // only the max captures the single slow outlier.
        assert!((50_000.0..200_000.0).contains(&p99), "{p99}");
        assert!(h.quantile(1.0) >= 5_000_000.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(100);
        b.record(1_000_000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.quantile(0.9) > 500_000.0);
        assert!(a.quantile(0.1) < 200.0);
    }

    #[test]
    fn overflow_bucket_catches_huge_samples() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert!(h.quantile(0.5) >= 10f64.powi(8));
    }

    proptest! {
        /// The quantile estimate is within one bucket (≤ ~13%) below the
        /// true value for a uniform batch of identical samples.
        #[test]
        fn relative_error_bound(ns in 2u64..100_000_000) {
            let mut h = LatencyHistogram::new();
            for _ in 0..10 {
                h.record(ns);
            }
            let est = h.quantile(0.5);
            prop_assert!(est <= ns as f64 * 1.0001, "overestimate: {est} vs {ns}");
            prop_assert!(est >= ns as f64 * 0.85, "too low: {est} vs {ns}");
        }

        /// Quantiles are monotone in q.
        #[test]
        fn quantiles_monotone(samples in proptest::collection::vec(1u64..10_000_000, 1..200)) {
            let mut h = LatencyHistogram::new();
            for s in samples {
                h.record(s);
            }
            let mut prev = 0.0;
            for i in 0..=20 {
                let q = i as f64 / 20.0;
                let v = h.quantile(q);
                prop_assert!(v >= prev, "q={q}: {v} < {prev}");
                prev = v;
            }
        }
    }
}
