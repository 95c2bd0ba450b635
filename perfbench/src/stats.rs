//! The harness's own arithmetic: order statistics, registry-histogram
//! deltas and answer digests.

use psi::obs::HistSnapshot;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; fewer would make it the luck of one or two stalls.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (any order).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile of a tail, refused (`None`) when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    (n > 0 && n - rank(n, q) >= MIN_BEYOND).then(|| quantile(samples, q))
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a registry histogram recorded between two snapshots (bucket-wise
/// difference), so instruments are never reset.
pub fn hist_delta(after: Option<&HistSnapshot>, before: Option<&HistSnapshot>) -> HistSnapshot {
    let Some(after) = after else {
        return HistSnapshot::default();
    };
    let prior = |high: u64| {
        before
            .and_then(|b| b.buckets.iter().find(|&&(h, _)| h == high))
            .map_or(0, |&(_, n)| n)
    };
    let buckets: Vec<(u64, u64)> = after
        .buckets
        .iter()
        .map(|&(high, n)| (high, n - prior(high)))
        .filter(|&(_, n)| n > 0)
        .collect();
    HistSnapshot {
        count: buckets.iter().map(|&(_, n)| n).sum(),
        sum: after.sum.wrapping_sub(before.map_or(0, |b| b.sum)),
        buckets,
    }
}

/// An order-sensitive fingerprint of an answer: its row count and a
/// mixed hash of the rows in order. Oracles are kept as digests so that
/// the harness's memory stays small next to the program's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

pub fn digest(rows: impl IntoIterator<Item = u64>) -> Digest {
    let mut d = Digest { rows: 0, hash: 0 };
    for r in rows {
        let mut z = r.wrapping_add(d.rows).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        d.hash = (d.hash ^ z ^ (z >> 32)).rotate_left(17).wrapping_mul(5);
        d.rows += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_is_refused_with_fewer_than_ten_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&thousand, 0.99), Some(990.0));
        assert_eq!(tail_quantile(&thousand[..999], 0.99), None);
        assert_eq!(tail_quantile(&thousand[..100], 0.9), Some(90.0));
        assert_eq!(tail_quantile(&thousand[..99], 0.9), None);
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn histogram_delta_subtracts_bucketwise() {
        let h = psi::obs::Histogram::new();
        h.record(10);
        h.record(1000);
        let before = h.snapshot();
        h.record(1000);
        h.record(5);
        let d = hist_delta(Some(&h.snapshot()), Some(&before));
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 1005);
        assert_eq!(d.buckets.len(), 2);
        assert_eq!(hist_delta(Some(&before), None).count, 2);
        assert_eq!(hist_delta(None, Some(&before)).count, 0);
    }

    #[test]
    fn digest_sees_every_row_and_its_order() {
        let a = digest([1, 5, 9]);
        assert_eq!(a, digest(vec![1, 5, 9]));
        assert_ne!(a, digest([1, 5]));
        assert_ne!(a, digest([1, 6, 9]));
        assert_ne!(a, digest([5, 1, 9]));
        assert_eq!(digest([]).rows, 0);
    }
}
