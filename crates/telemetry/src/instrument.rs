//! The four instrument kinds: counter, gauge, histogram, time series.
//!
//! Instruments are plain data — no interior mutability, no atomics. The
//! simulator is single-threaded per run (ensembles parallelise across whole
//! runs), so a `&mut` registry is always available on the recording path.

use serde::Serialize;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&mut self, delta: u64) {
        self.value += delta;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A last-value-wins measurement (queue depth, utilization, ...).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&mut self, value: f64) {
        self.value = value;
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are ascending bucket *boundaries* with half-open `[lo, hi)`
/// semantics: bucket `i` counts samples `v` with `bounds[i-1] <= v <
/// bounds[i]` (bucket 0 takes `v < bounds[0]`), and one extra overflow
/// bucket catches `v >= bounds[last]`. A sample exactly equal to a
/// boundary therefore lands in the bucket *above* it, deterministically —
/// every boundary belongs to exactly one bucket, which is what keeps
/// merged shard deltas and golden snapshots stable. Bounds are fixed at
/// registration, so recording is a binary search plus an increment — no
/// reallocation on the hot path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with explicit ascending `[lo, hi)` bucket boundaries.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Exponential bounds `start, start·factor, start·factor², ...`.
    pub fn exponential(start: u64, factor: u64, count: usize) -> Self {
        assert!(start > 0 && factor > 1 && count > 0);
        let mut bounds = Vec::with_capacity(count);
        let mut b = start;
        for _ in 0..count {
            bounds.push(b);
            b = b.saturating_mul(factor);
        }
        bounds.dedup(); // saturation can repeat u64::MAX
        Self::new(bounds)
    }

    /// Linear bounds `start, start+step, start+2·step, ...`.
    pub fn linear(start: u64, step: u64, count: usize) -> Self {
        assert!(step > 0 && count > 0);
        Self::new((0..count as u64).map(|i| start + i * step).collect())
    }

    /// Records one sample into its half-open `[lo, hi)` bucket.
    #[inline]
    pub fn record(&mut self, value: u64) {
        // Index of the first bound strictly above `value`: a sample equal
        // to a bound belongs to the bucket that *starts* at it.
        let idx = self.bounds.partition_point(|&b| value >= b);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Mean of all samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The bucket boundaries (each is the inclusive lower edge of the
    /// bucket above it and the exclusive upper edge of the one below).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries, overflow last).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Exclusive upper edge of the bucket containing the `q`-quantile
    /// (0 ≤ q ≤ 1) — a conservative "the quantile is below this" bound.
    /// The overflow bucket reports the observed maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// Merges `other` into `self`; bucket layouts must match.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "cannot merge: bucket mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A bounded time series of `(t_ns, value)` points.
///
/// Two mechanisms keep memory fixed regardless of run length:
///
/// * points closer than `interval_ns` to the previous accepted point are
///   dropped at the door (sampling interval);
/// * when `capacity` is reached the series *downsamples*: every other point
///   is discarded and the interval doubles, so the series always spans the
///   whole run at progressively coarser resolution instead of truncating
///   its tail.
#[derive(Debug, Clone, Serialize)]
pub struct TimeSeries {
    interval_ns: u64,
    capacity: usize,
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// A series accepting at most one point per `interval_ns`, holding at
    /// most `capacity` points (minimum 2).
    pub fn new(interval_ns: u64, capacity: usize) -> Self {
        Self {
            interval_ns: interval_ns.max(1),
            capacity: capacity.max(2),
            points: Vec::new(),
        }
    }

    /// Offers a point; it may be dropped by the sampling interval.
    #[inline]
    pub fn push(&mut self, t_ns: u64, value: f64) {
        if let Some(&(last_t, _)) = self.points.last() {
            if t_ns < last_t.saturating_add(self.interval_ns) {
                return;
            }
        }
        if self.points.len() >= self.capacity {
            self.downsample();
        }
        self.points.push((t_ns, value));
    }

    /// Halves the resolution: keeps even-indexed points, doubles the interval.
    fn downsample(&mut self) {
        let mut keep = 0;
        self.points.retain(|_| {
            let k = keep % 2 == 0;
            keep += 1;
            k
        });
        self.interval_ns = self.interval_ns.saturating_mul(2);
    }

    /// The recorded points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Current minimum spacing between accepted points.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest recorded value, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::default();
        c.add(3);
        c.add(0);
        c.add(4);
        assert_eq!(c.get(), 7);
        let mut g = Gauge::default();
        g.set(1.5);
        g.set(-2.0);
        assert_eq!(g.get(), -2.0);
    }

    #[test]
    fn histogram_buckets_are_half_open() {
        let mut h = Histogram::new(vec![10, 20, 40]);
        // Exactly on a boundary lands in the bucket that *starts* there.
        h.record(10);
        h.record(20);
        h.record(40); // overflow: 40 >= last bound
                      // One below a boundary stays in the bucket it closes.
        h.record(9);
        h.record(19);
        h.record(39);
        h.record(0); // bottom bucket
                     // [0,10) = {9,0} / [10,20) = {10,19} / [20,40) = {20,39} / [40,∞) = {40}
        assert_eq!(h.counts(), &[2, 2, 2, 1]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(40));
    }

    #[test]
    fn histogram_quantiles_walk_buckets() {
        let mut h = Histogram::new(vec![1, 2, 4, 8]);
        for v in [1, 1, 2, 2, 2, 3, 5, 100] {
            h.record(v);
        }
        // Buckets: [1,2) = {1,1}, [2,4) = {2,2,2,3}, [4,8) = {5},
        // overflow = {100}; the quantile reports the containing bucket's
        // exclusive upper edge.
        assert_eq!(h.quantile(0.0), Some(2));
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(0.75), Some(4));
        // Overflow bucket reports the observed max, not a bound.
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(Histogram::new(vec![1]).quantile(0.5), None);
    }

    #[test]
    fn histogram_constructors() {
        assert_eq!(Histogram::exponential(1, 2, 5).bounds(), &[1, 2, 4, 8, 16]);
        assert_eq!(Histogram::linear(10, 10, 3).bounds(), &[10, 20, 30]);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(vec![10, 20]);
        let mut b = Histogram::new(vec![10, 20]);
        a.record(5);
        b.record(15);
        b.record(25);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.total(), 3);
        assert_eq!(a.max(), Some(25));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(vec![10, 10]);
    }

    #[test]
    fn series_respects_sampling_interval() {
        let mut s = TimeSeries::new(100, 64);
        s.push(0, 1.0);
        s.push(50, 2.0); // dropped: within interval
        s.push(100, 3.0);
        s.push(199, 4.0); // dropped
        s.push(200, 5.0);
        assert_eq!(s.points(), &[(0, 1.0), (100, 3.0), (200, 5.0)]);
    }

    #[test]
    fn series_downsamples_instead_of_truncating() {
        let cap = 8;
        let mut s = TimeSeries::new(10, cap);
        for i in 0..100u64 {
            s.push(i * 10, i as f64);
        }
        // Never exceeds capacity, interval coarsened by doubling...
        assert!(s.len() <= cap);
        assert!(s.interval_ns() > 10);
        assert_eq!(
            (s.interval_ns() / 10).count_ones(),
            1,
            "interval doubles: 10·2^k"
        );
        // ...and still spans the whole run: first point kept, last point recent.
        assert_eq!(s.points()[0].0, 0);
        assert!(s.points().last().unwrap().0 >= 900);
        // Points remain strictly ordered in time.
        assert!(s.points().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn series_max_value() {
        let mut s = TimeSeries::new(1, 16);
        assert_eq!(s.max_value(), None);
        s.push(0, 1.0);
        s.push(10, 9.0);
        s.push(20, 4.0);
        assert_eq!(s.max_value(), Some(9.0));
    }
}
