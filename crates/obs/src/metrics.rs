//! Lock-free instruments: counters, gauges, and log-scaled latency
//! histograms. Each carries its `layer.operation` name and is
//! const-constructed, so the catalogue in [`crate::names`] is a list of
//! statics.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::span::Span;

/// Monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter named `name`.
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, value: AtomicU64::new(0) }
    }

    /// The `layer.operation` name `STATS` reports it under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depths, open connections).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge named `name`.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge { name, value: AtomicI64::new(0) }
    }

    /// The `layer.operation` name `STATS` reports it under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Replace the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Four sub-buckets per power of two over u64 nanoseconds: values
/// 0..=3 get their own bucket, then each octave splits in four.
const BUCKETS: usize = 252;

/// Log-scaled histogram of durations in nanoseconds.
///
/// Recording is a single `fetch_add` per instrument field; quantiles
/// are derived at snapshot time by walking cumulative bucket counts.
/// The bucket midpoint used as each bucket's representative is at most
/// 12.5% from any value the bucket can hold, which is ample for
/// latency percentiles.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // floor(log2 v) >= 2
    let sub = ((v >> (exp - 2)) & 3) as usize;
    (exp - 1) * 4 + sub
}

/// Inclusive value range covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < 4 {
        return (i as u64, i as u64);
    }
    let exp = i / 4 + 1;
    let sub = (i % 4) as u64;
    let width = 1u64 << (exp - 2);
    let lo = (1u64 << exp) + sub * width;
    // `width - 1` first: the top bucket's `lo + width` is 2^64.
    (lo, lo + (width - 1))
}

impl Histogram {
    /// An empty histogram named `name`.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The `layer.operation` name `STATS` reports it under, and the
    /// name its slow spans carry in the slow ring.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Start timing a region: the [`Span`] records its wall time here
    /// when dropped.
    pub fn span(&self) -> Span<'_> {
        Span::start(self)
    }

    /// Record one duration in nanoseconds.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max_nanos(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile (`0.0 < q <= 1.0`) in nanoseconds, or
    /// `None` when empty. Concurrent recording can skew the answer by
    /// at most the in-flight updates; snapshots tolerate that.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                let (lo, hi) = bucket_bounds(i);
                return Some(lo + (hi - lo) / 2);
            }
        }
        // Counts raced ahead of bucket updates; report the max seen.
        Some(self.max_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new("t.count");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new("t.level");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_index_matches_bounds() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1_000, 123_456, u64::MAX / 2] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                (lo..=hi).contains(&v),
                "value {v} fell in bucket {i} with bounds [{lo}, {hi}]"
            );
        }
        // Bucket bounds tile the space with no gaps.
        let mut expected_lo = 0u64;
        for i in 0..BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "gap before bucket {i}");
            expected_lo = hi + 1;
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let h = Histogram::new("t.lat");
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=1000u64 {
            h.record(v * 1_000); // 1us .. 1ms
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        // Within bucket resolution of the true values.
        assert!((400_000..=650_000).contains(&p50), "p50 = {p50}");
        assert!((800_000..=1_200_000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max_nanos(), 1_000_000);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = Histogram::new("t.lat");
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_nanos(), u64::MAX);
        assert!(h.quantile(1.0).unwrap() >= h.quantile(0.01).unwrap());
    }
}
