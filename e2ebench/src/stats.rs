//! Quantiles, histogram deltas and digests.
//!
//! There is one percentile rule: the serving registry's ceil-rank rule.
//! Streams of latencies go through the public [`LatencyHistogram`];
//! short lists of exact samples (unit wall times, desk rounds) use
//! [`ceil_rank`], the same rule without buckets.

use spikefolio_serve::{HistogramSnapshot, LatencyHistogram};

/// The `q`-quantile (`0 < q ≤ 1`) of `values` by the ceil-rank rule:
/// the smallest sample with at least `⌈q·n⌉` samples at or below it.
/// Returns `NaN` for an empty list.
pub fn ceil_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// A histogram's count, mean and ceil-rank percentiles (µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Observations.
    pub count: u64,
    /// Mean (µs).
    pub mean_us: f64,
    /// Median (µs).
    pub p50_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
}

impl Summary {
    fn of(snap: &HistogramSnapshot) -> Self {
        Self { count: snap.count, mean_us: snap.mean_us, p50_us: snap.p50_us, p99_us: snap.p99_us }
    }
}

/// Summarizes a stream of nanosecond samples through a
/// [`LatencyHistogram`].
pub fn summarize_ns(samples: &[u64]) -> Summary {
    let h = LatencyHistogram::new();
    for &ns in samples {
        h.observe_ns(ns);
    }
    Summary::of(&h.snapshot())
}

/// What a cumulative histogram observed between two snapshots of it.
///
/// Bucket counts are exact; the mean is exact up to float rounding. The
/// percentiles are the registry's, taken over the delta's buckets; only
/// the exact-maximum cap is lost, since a delta has no exact maximum.
///
/// # Panics
///
/// Panics if `after` is not a later snapshot of the histogram `before`
/// came from (a bucket count went down).
pub fn delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> Summary {
    let count_of = |snap: &HistogramSnapshot, upper: u64| {
        snap.buckets.iter().find(|&&(u, _)| u == upper).map_or(0, |&(_, n)| n)
    };
    let grows = "histogram bucket counts only grow";
    for &(upper, n) in &before.buckets {
        assert!(count_of(after, upper) >= n, "{grows}");
    }
    let h = LatencyHistogram::new();
    for &(upper, n_after) in &after.buckets {
        for _ in 0..n_after - count_of(before, upper) {
            h.observe_ns(upper);
        }
    }
    let count = after.count.checked_sub(before.count).expect(grows);
    let mut out = Summary::of(&h.snapshot());
    out.mean_us = if count == 0 {
        0.0
    } else {
        (after.mean_us * after.count as f64 - before.mean_us * before.count as f64) / count as f64
    };
    out
}

/// 64-bit FNV-1a, the digest of every output the benchmark checks.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Feeds an integer.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Feeds a float by its bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_rank_picks_the_sample_at_the_rounded_up_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(ceil_rank(&v, 0.5), 3.0);
        assert_eq!(ceil_rank(&v, 0.9), 5.0);
        assert_eq!(ceil_rank(&v, 0.2), 1.0);
        assert_eq!(ceil_rank(&v, 0.21), 2.0);
        assert_eq!(ceil_rank(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(ceil_rank(&[7.0], 0.99), 7.0);
        assert!(ceil_rank(&[], 0.5).is_nan());
    }

    #[test]
    fn stream_percentiles_follow_the_registry_rule() {
        // 100 samples of 1..=100 µs: ceil-rank p50 is the 50th sample and
        // p99 the 99th, each reported at its bucket's upper bound (≤12.5%
        // above) and never above the exact maximum.
        let ns: Vec<u64> = (1..=100).map(|us| us * 1000).collect();
        let s = summarize_ns(&ns);
        assert_eq!(s.count, 100);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
        assert!(s.p50_us >= 50.0 && s.p50_us <= 50.0 * 1.125, "{}", s.p50_us);
        assert!(s.p99_us >= 99.0 && s.p99_us <= 100.0, "{}", s.p99_us);
    }

    #[test]
    fn delta_sees_only_what_happened_between_snapshots() {
        let h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.observe_ns(1_000); // 1 µs, phase one
        }
        let before = h.snapshot();
        for _ in 0..10 {
            h.observe_ns(2_000_000); // 2 ms, phase two
        }
        let after = h.snapshot();
        let d = delta(&before, &after);
        assert_eq!(d.count, 10);
        assert!((d.mean_us - 2000.0).abs() < 1e-6, "{}", d.mean_us);
        assert!(d.p50_us >= 2000.0 && d.p50_us <= 2000.0 * 1.125, "{}", d.p50_us);
        // The cumulative view is dominated by phase one.
        assert!(after.p50_us < 2.0);
        let none = delta(&after, &after);
        assert_eq!((none.count, none.mean_us, none.p99_us), (0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn delta_rejects_snapshots_in_the_wrong_order() {
        let h = LatencyHistogram::new();
        let empty = h.snapshot();
        h.observe_ns(5_000);
        let _ = delta(&h.snapshot(), &empty);
    }

    #[test]
    fn digest_distinguishes_one_flipped_bit() {
        let a = Digest::default().f64(1.5).str("x").finish();
        let b = Digest::default().f64(f64::from_bits(1.5f64.to_bits() ^ 1)).str("x").finish();
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().f64(1.5).str("x").finish());
    }
}
