//! Fixed-bucket log-scale histograms.
//!
//! The bucket layout is HDR-style: values below 2³ land in one exact
//! bucket each; above that, every power-of-two octave is split into
//! 8 linear sub-buckets, so the relative quantization error is bounded
//! by 1/8 ≈ 12.5% at any magnitude up to `u64::MAX`. The whole table is
//! 496 buckets — flat `AtomicU64`s, no allocation after construction —
//! and recording is a single relaxed `fetch_add` into one bucket (plus
//! one into the running sum), which is what makes the histogram safe on
//! per-event hot paths and trivially mergeable: merging is bucket-wise
//! addition, and a quiescent snapshot's `count` equals the exact number
//! of recorded ops.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total buckets: one exact bucket per value below `SUB`, then 8 per
/// octave for the remaining `64 - SUB_BITS` octaves.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Bucket index for a recorded value. Total over all of `u64`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    // Highest set bit m >= SUB_BITS: octave (m - SUB_BITS + 1) with the
    // next SUB_BITS bits selecting the linear sub-bucket.
    let m = 63 - v.leading_zeros();
    let octave = (m - SUB_BITS + 1) as usize;
    let sub = ((v >> (m - SUB_BITS)) - SUB) as usize;
    (octave << SUB_BITS) + sub
}

/// Inclusive upper bound of bucket `i` (the value reported for any
/// sample that landed in it — quantiles round *up* to a bucket edge).
fn bucket_high(i: usize) -> u64 {
    let octave = (i >> SUB_BITS) as u32;
    let sub = i as u64 & (SUB - 1);
    if octave == 0 {
        return sub;
    }
    ((SUB + sub + 1) << (octave - 1)).wrapping_sub(1)
}

/// A lock-free fixed-bucket log-scale histogram. See the module docs
/// for the layout and consistency contract.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    /// Running sum of recorded values (wrapping; for means, not totals).
    sum: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh empty histogram (one heap allocation of 496 words).
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the array through a Vec.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> =
            v.into_boxed_slice().try_into().expect("exact length");
        Histogram {
            buckets,
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample: one relaxed `fetch_add` into its bucket and
    /// one into the running sum.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records the elapsed nanoseconds since `start` (saturating at
    /// `u64::MAX`); the common latency-instrumentation shape.
    #[inline]
    pub fn record_since(&self, start: std::time::Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record(ns);
    }

    /// Point-in-time copy. Bucket loads are relaxed: concurrent
    /// recorders may or may not be included (each op atomically lands
    /// in exactly one bucket, so nothing is torn or double-counted),
    /// and once recording quiesces `count` equals the exact number of
    /// recorded ops.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut count = 0u64;
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push((bucket_high(i), n));
            }
        }
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Adds every bucket of `other` into `self` (bucket-wise; both
    /// histograms share the fixed layout so merging never re-quantizes).
    pub fn merge_from(&self, other: &HistSnapshot) {
        for &(high, n) in &other.buckets {
            self.buckets[bucket_of(high)].fetch_add(n, Ordering::Relaxed);
        }
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
    }

    /// Zeroes all buckets (bench/test harnesses only; concurrent
    /// recorders may interleave).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time histogram: `(bucket upper bound, count)` for every
/// non-empty bucket, ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Total recorded ops (sum of bucket counts).
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// `(inclusive upper bound, count)` per non-empty bucket, ascending
    /// by bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// The quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)` (so
    /// `quantile(1.0)` is an upper bound on the maximum sample). Zero
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(high, n) in &self.buckets {
            cum += n;
            if cum >= target {
                return high;
            }
        }
        self.buckets.last().map(|&(high, _)| high).unwrap_or(0)
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_total_and_monotone() {
        // Every probe value lands in a bucket whose bound is >= the
        // value and within 12.5% relative slack.
        let probes: Vec<u64> = (0..64)
            .flat_map(|s| {
                let base = 1u64 << s;
                [
                    base,
                    base + base / 3,
                    base + base / 2,
                    base.saturating_sub(1),
                ]
            })
            .chain([0, 1, 2, 3, 7, 8, 9, u64::MAX, u64::MAX - 1])
            .collect();
        for &v in &probes {
            let i = bucket_of(v);
            assert!(i < BUCKETS, "v={v} -> bucket {i}");
            let high = bucket_high(i);
            assert!(high >= v, "v={v} high={high}");
            if i > 0 {
                let prev_high = bucket_high(i - 1);
                assert!(prev_high < v, "v={v} belongs above bucket {}", i - 1);
            }
            // Relative quantization error <= 1/8 (exact below 8).
            if v >= 8 {
                assert!(
                    (high - v) as f64 <= v as f64 / 8.0 + 1.0,
                    "v={v} high={high}: quantization too coarse"
                );
            }
        }
        // Bucket bounds strictly increase across the whole table.
        for i in 1..BUCKETS {
            assert!(bucket_high(i) > bucket_high(i - 1), "bucket {i}");
        }
    }

    #[test]
    fn record_snapshot_quantile() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert!((s.mean() - 500.5).abs() < 1e-9);
        // Quantiles land within one bucket (12.5%) of the true order
        // statistic, and never below it.
        for (q, truth) in [(0.5, 500u64), (0.9, 900), (0.99, 990), (1.0, 1000)] {
            let est = s.quantile(q);
            assert!(est >= truth, "q={q}: {est} < {truth}");
            assert!(
                est as f64 <= truth as f64 * 1.13 + 1.0,
                "q={q}: {est} vs {truth}"
            );
        }
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [5u64, 100, 100, 4096, 1 << 40] {
            a.record(v);
        }
        for v in [5u64, 77, 1 << 40] {
            b.record(v);
        }
        a.merge_from(&b.snapshot());
        let merged = a.snapshot();
        assert_eq!(merged.count, 8);
        // Merging re-inserts at bucket upper bounds, which stay in the
        // same buckets, so counts add exactly.
        let direct = Histogram::new();
        for v in [5u64, 100, 100, 4096, 1 << 40, 5, 77, 1 << 40] {
            direct.record(v);
        }
        assert_eq!(
            merged.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            direct
                .snapshot()
                .buckets
                .iter()
                .map(|&(_, n)| n)
                .sum::<u64>()
        );
        assert_eq!(merged.buckets.len(), direct.snapshot().buckets.len());
    }

    #[test]
    fn reset_empties() {
        let h = Histogram::new();
        h.record(9);
        h.reset();
        assert_eq!(h.snapshot(), HistSnapshot::default());
    }
}
