//! Log-bucketed lock-free histograms.
//!
//! A [`Histogram`] is a fixed array of atomic bucket counters over `u64`
//! samples (the workspace records microseconds). Values below
//! [`LINEAR_BUCKETS`] get one exact bucket each; everything above lands in
//! log-spaced buckets with [`SUB_BUCKET_BITS`] sub-buckets per power of two,
//! so any sample is off by at most [`MAX_RELATIVE_ERROR`] of its true value
//! when read back through [`HistogramSnapshot::percentile`].
//!
//! Recording is a single `fetch_add` per counter — no locks, no allocation,
//! no ordering stronger than `Relaxed` — which is what lets the serve crate
//! put one of these on its request hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Samples smaller than this get an exact bucket each (one per value).
pub const LINEAR_BUCKETS: u64 = 16;

/// Log₂ of the sub-buckets per power of two in the logarithmic range.
pub const SUB_BUCKET_BITS: u32 = 4;

/// Sub-buckets per power of two (`2^SUB_BUCKET_BITS`).
pub(crate) const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// First exponent of the logarithmic range (`LINEAR_BUCKETS == 2^4`).
const FIRST_EXP: u32 = 4;

/// Total bucket count: 16 exact buckets plus 16 sub-buckets for each of the
/// 60 exponents `4..=63`.
pub(crate) const NUM_BUCKETS: usize =
    LINEAR_BUCKETS as usize + (64 - FIRST_EXP as usize) * SUB_BUCKETS as usize;

/// Worst-case relative error of [`HistogramSnapshot::percentile`]: half a
/// bucket's width, `(1/SUB_BUCKETS) / 2 = 1/32`, comfortably inside the 5 %
/// budget the sweep telemetry is specified against.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / (2.0 * SUB_BUCKETS as f64);

/// The bucket index of `value`.
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < LINEAR_BUCKETS {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let sub = (value >> (exp - SUB_BUCKET_BITS)) & (SUB_BUCKETS - 1);
    LINEAR_BUCKETS as usize + (exp - FIRST_EXP) as usize * SUB_BUCKETS as usize + sub as usize
}

/// The smallest value that lands in bucket `index`.
pub(crate) fn bucket_lower(index: usize) -> u64 {
    if index < LINEAR_BUCKETS as usize {
        return index as u64;
    }
    let log = index - LINEAR_BUCKETS as usize;
    let exp = FIRST_EXP + (log / SUB_BUCKETS as usize) as u32;
    let sub = (log % SUB_BUCKETS as usize) as u64;
    (1u64 << exp) + (sub << (exp - SUB_BUCKET_BITS))
}

/// The exclusive upper bound of bucket `index` (`u64::MAX` for the last).
pub(crate) fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1)
    }
}

/// The value a bucket reports for every sample it holds: exact in the linear
/// range, the bucket midpoint in the logarithmic range.
pub(crate) fn bucket_value(index: usize) -> u64 {
    let lower = bucket_lower(index);
    if index < LINEAR_BUCKETS as usize {
        return lower;
    }
    let upper = bucket_upper(index);
    lower + (upper - lower) / 2
}

/// A lock-free log-bucketed histogram of `u64` samples.
///
/// All methods take `&self`; recording from any number of threads
/// concurrently is safe and wait-free (one relaxed `fetch_add` per counter).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, AtomicU64::default);
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample. Atomics-only: safe on any hot path.
    pub fn record(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Concurrent recording may land
    /// between bucket reads; the snapshot is still a valid histogram of a
    /// sample set within one in-flight record of the true one.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub(crate) fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (exact, not bucketed).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample (exact; `0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds every counter of `other` into `self`. Merging shard snapshots is
    /// exact: bucket boundaries are global constants, so the merge of two
    /// snapshots equals the snapshot of the combined sample stream.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The `q`-quantile by nearest rank, reported as the holding bucket's
    /// representative value (exact below [`LINEAR_BUCKETS`], at most
    /// [`MAX_RELATIVE_ERROR`] off above it). `0` on an empty snapshot.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(index);
            }
        }
        // Unreachable when count equals the bucket total; a snapshot taken
        // mid-record can be one short, in which case the max bucket answers.
        bucket_value(self.buckets.iter().rposition(|&n| n > 0).unwrap_or(0))
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs, the
    /// shape Prometheus histogram exposition wants.
    pub(crate) fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cumulative += n;
                out.push((bucket_upper(index), cumulative));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let probes: Vec<u64> = (0..2000)
            .chain((0..63).map(|e| 1u64 << e))
            .chain((0..63).map(|e| (1u64 << e) + 1))
            .chain((1..64).map(|e| (1u64 << e) - 1))
            .chain([u64::MAX, u64::MAX - 1])
            .collect();
        for v in probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(
                bucket_lower(i) <= v,
                "value {v} below bucket {i} lower bound {}",
                bucket_lower(i)
            );
            assert!(
                v <= bucket_upper(i),
                "value {v} above bucket {i} upper bound {}",
                bucket_upper(i)
            );
        }
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_contiguous() {
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_upper(i),
                bucket_lower(i + 1),
                "gap between buckets {i} and {}",
                i + 1
            );
            assert!(bucket_lower(i) < bucket_lower(i + 1));
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn overflow_extremes_are_recorded() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.percentile(0.01), 0, "zero is exact");
        assert!(
            s.percentile(1.0) >= u64::MAX / 2,
            "the top bucket must hold u64::MAX"
        );
    }

    #[test]
    fn percentiles_match_an_exact_reservoir_within_bucket_error() {
        // A spread of magnitudes: exact small values, mid-range, huge.
        let mut samples: Vec<u64> = (1..=200u64)
            .map(|i| i * i * 37 % 100_000 + 1)
            .chain((1..=50).map(|i| i * 1_000_000))
            .collect();
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        for q in [0.05, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let approx = snap.percentile(q) as f64;
            let tolerance = exact * MAX_RELATIVE_ERROR + 1.0;
            assert!(
                (approx - exact).abs() <= tolerance,
                "q={q}: approx {approx} vs exact {exact} (tolerance {tolerance})"
            );
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let (a, b, combined) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..500u64 {
            let v = i * 13 + 1;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            combined.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, combined.snapshot());
        assert_eq!(merged.count(), 500);
        assert_eq!(merged.sum(), combined.snapshot().sum());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("recorder thread");
        }
        let s = h.snapshot();
        assert_eq!(s.count(), threads * per_thread);
        // Every sample counted exactly once: the bucket total matches.
        let bucket_total: u64 = s.cumulative_buckets().last().map(|&(_, c)| c).unwrap_or(0);
        assert_eq!(bucket_total, threads * per_thread);
        // Exact sum of 0..N-1.
        let n = threads * per_thread;
        assert_eq!(s.sum(), n * (n - 1) / 2);
    }

    #[test]
    fn cumulative_buckets_are_monotonic() {
        let h = Histogram::new();
        for v in [1u64, 1, 5, 900, 70_000, 70_001, u64::MAX] {
            h.record(v);
        }
        let buckets = h.snapshot().cumulative_buckets();
        assert!(!buckets.is_empty());
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "upper bounds must increase");
            assert!(pair[0].1 <= pair[1].1, "cumulative counts must not fall");
        }
        assert_eq!(buckets.last().map(|&(_, c)| c), Some(7));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.cumulative_buckets().is_empty());
    }
}
