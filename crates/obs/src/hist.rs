//! Lock-free log-bucketed histograms.
//!
//! A [`Histogram`] holds a fixed array of atomic bucket counters covering the
//! whole `u64` range: values below 8 get exact buckets, and every octave
//! above is split into 8 logarithmic sub-buckets, so any bucket's upper bound
//! exceeds its lower bound by at most a factor of 9/8. Recording is four
//! relaxed atomic RMWs (bucket, count, sum, max/min) — no locks, no
//! allocation — and a [`HistogramSnapshot`] reads the buckets into plain
//! memory for quantile queries.
//!
//! Quantiles are reported as the *upper bound* of the bucket holding the
//! target rank (clamped to the recorded maximum): for any recorded
//! distribution, `quantile(q)` is `>=` the true rank-`q` value and at most
//! `1/8` above it in relative terms — the property the proptest in this
//! module pins down against a sorted-vector oracle.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket bits per octave: 8 sub-buckets, ≤ 12.5% relative bucket width.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets `0..SUB`, then 8 sub-buckets for each of the 61 octaves
/// `2^3..=2^63`: covers every `u64`.
const BUCKETS: usize = (SUB as usize) + 61 * (SUB as usize);

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) | ((v >> (msb - SUB_BITS)) as usize & 7)
    }
}

/// Inclusive `(lo, hi)` value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB as usize {
        (i as u64, i as u64)
    } else {
        let shift = (i >> SUB_BITS) as u32 - 1;
        let lo = (SUB + (i as u64 & 7)) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }
}

/// A lock-free histogram of `u64` samples (latencies in µs, round counts,
/// page counts, ...).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one sample. Lock-free: four relaxed atomic RMWs.
    pub fn record(&self, v: u64) {
        if !crate::ENABLED {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Records a `Duration` in whole microseconds.
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Folds `other`'s recorded samples into this histogram, bucket-wise:
    /// every bucket count is added, `count`/`sum` are added, and `max`/`min`
    /// are widened. Because every [`Histogram`] shares the same fixed bucket
    /// layout, the merged histogram is exactly what recording both sample
    /// streams into one instrument would have produced — the primitive
    /// behind [`crate::Registry::merge`].
    ///
    /// Reads `other` with relaxed loads: exact once its recording threads are
    /// quiesced, may miss a few in-flight samples otherwise (never corrupts).
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(&other.buckets) {
            let c = src.load(Ordering::Relaxed);
            if c > 0 {
                dst.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        // `min` idles at `u64::MAX`, so merging an empty histogram is a no-op.
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Samples recorded so far (exact).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets and totals. Taken with relaxed
    /// loads: exact once recording threads are quiesced; during concurrent
    /// recording it may tear by a few in-flight samples (never corrupts).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: match self.min.load(Ordering::Relaxed) {
                u64::MAX => 0,
                m => m,
            },
        }
    }
}

/// A point-in-time view of a [`Histogram`], with quantile queries.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding rank `round(q * (count - 1))`, clamped to the recorded max.
    /// `>=` the true rank value, and at most 1/8 above it (relative); 0 when
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > target {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets, as `(lo, hi, count)` with inclusive value
    /// bounds, in ascending value order — what `serve_load --metrics` prints
    /// as the repair-rounds histogram.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn bucket_index_and_bounds_agree_across_the_range() {
        let probes: Vec<u64> = (0..200)
            .chain((3..64).flat_map(|s| {
                let base = 1u64 << s;
                [base - 1, base, base + 1, base + (base >> 1)]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        for v in probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket {i} = [{lo}, {hi}]");
            // Relative bucket width is bounded by 1/8.
            assert!(hi - lo <= lo.max(1) / SUB + 1, "bucket {i} too wide");
        }
        // Bucket bounds tile the range contiguously.
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_bounds(i).1 + 1, bucket_bounds(i + 1).0);
        }
        assert_eq!(bucket_bounds(0).0, 0);
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.quantile(0.5), 0);
        assert!(s.nonzero_buckets().is_empty());
    }

    proptest! {
        /// The satellite's quantile error bound: against a sorted-vector
        /// oracle, every reported quantile is >= the true rank value and at
        /// most one bucket width (1/8 relative) above it.
        #[test]
        fn quantiles_match_sorted_oracle_within_bucket_error(
            values in proptest::collection::vec(0u64..1_000_000, 1..400),
            q_pcts in proptest::collection::vec(0u32..101, 1..8),
        ) {
            if crate::ENABLED {
                let h = Histogram::new();
                for &v in &values {
                    h.record(v);
                }
                let mut sorted = values.clone();
                sorted.sort_unstable();
                let snap = h.snapshot();
                prop_assert_eq!(snap.count, values.len() as u64);
                prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
                prop_assert_eq!(snap.min, *sorted.first().unwrap());
                prop_assert_eq!(snap.max, *sorted.last().unwrap());
                for &pct in &q_pcts {
                    let q = pct as f64 / 100.0;
                    let truth = sorted[((sorted.len() - 1) as f64 * q).round() as usize];
                    let got = snap.quantile(q);
                    prop_assert!(got >= truth, "q={} reported {} < true {}", q, got, truth);
                    prop_assert!(
                        got <= truth + truth / SUB + 1,
                        "q={} reported {} above error bound for true {}",
                        q, got, truth
                    );
                }
            }
        }
    }

    proptest! {
        /// The `merge_from` satellite: merging two independently recorded
        /// histograms must be indistinguishable from recording the union
        /// stream into one — identical buckets/totals, and therefore every
        /// merged quantile equals the union stream's within one log bucket
        /// (the same 1/8 relative bound a single histogram carries).
        #[test]
        fn merged_quantiles_equal_union_stream_within_bucket_error(
            left in proptest::collection::vec(0u64..1_000_000, 0..200),
            right in proptest::collection::vec(0u64..1_000_000, 1..200),
            q_pcts in proptest::collection::vec(0u32..101, 1..8),
        ) {
            if crate::ENABLED {
                let a = Histogram::new();
                let b = Histogram::new();
                for &v in &left {
                    a.record(v);
                }
                for &v in &right {
                    b.record(v);
                }
                a.merge_from(&b);
                let union_h = Histogram::new();
                let mut union: Vec<u64> = left.iter().chain(&right).copied().collect();
                for &v in &union {
                    union_h.record(v);
                }
                union.sort_unstable();
                let merged = a.snapshot();
                let oracle = union_h.snapshot();
                // Bucket-for-bucket identical to the union recording...
                prop_assert_eq!(merged.nonzero_buckets(), oracle.nonzero_buckets());
                prop_assert_eq!(
                    (merged.count, merged.sum, merged.min, merged.max),
                    (oracle.count, oracle.sum, oracle.min, oracle.max)
                );
                // ...hence every quantile is within one log bucket of the
                // union stream's true rank value.
                for &pct in &q_pcts {
                    let q = pct as f64 / 100.0;
                    let truth = union[((union.len() - 1) as f64 * q).round() as usize];
                    let got = merged.quantile(q);
                    prop_assert!(got >= truth, "q={} merged {} < true {}", q, got, truth);
                    prop_assert!(
                        got <= truth + truth / SUB + 1,
                        "q={} merged {} above one-bucket bound for true {}",
                        q, got, truth
                    );
                }
            }
        }
    }

    #[test]
    fn merge_from_empty_is_identity() {
        let a = Histogram::new();
        a.record(7);
        a.record(900);
        let before = a.snapshot();
        a.merge_from(&Histogram::new());
        let after = a.snapshot();
        assert_eq!(before.nonzero_buckets(), after.nonzero_buckets());
        assert_eq!(
            (before.count, before.sum, before.min, before.max),
            (after.count, after.sum, after.min, after.max)
        );
    }

    #[test]
    fn concurrent_recording_counts_are_deterministic() {
        // The satellite's determinism check: whatever the interleaving, the
        // per-bucket counts, total count, and sum equal the sequential
        // totals once the recording threads are joined.
        let h = Arc::new(Histogram::new());
        const THREADS: u64 = 8;
        const PER: u64 = 5_000;
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        // Same multiset for every thread.
                        h.record(i % 1000);
                        let _ = t;
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let snap = h.snapshot();
        if !crate::ENABLED {
            assert_eq!(snap.count, 0);
            return;
        }
        assert_eq!(snap.count, THREADS * PER);
        assert_eq!(snap.sum, THREADS * (0..PER).map(|i| i % 1000).sum::<u64>());
        // Compare against a sequentially built oracle bucket-for-bucket.
        let oracle = Histogram::new();
        for _ in 0..THREADS {
            for i in 0..PER {
                oracle.record(i % 1000);
            }
        }
        assert_eq!(snap.nonzero_buckets(), oracle.snapshot().nonzero_buckets());
        assert_eq!((snap.min, snap.max), (0, 999));
    }
}
