//! Sample summaries: nearest-rank percentiles that carry their sample counts,
//! windowed views of the server's log-bucketed histograms, and the
//! attempted/failed tally behind `error_rate`.

use greedy_obs::HistogramSnapshot;

use crate::report::Json;

/// A percentile named in parts per thousand: 500 is the median, 990 is p99,
/// 999 is p99.9. Integer per-mille keeps the rank arithmetic exact.
pub type PerMille = u64;

pub const P50: PerMille = 500;
pub const P99: PerMille = 990;
pub const P999: PerMille = 999;

/// A timing is only reported at a percentile that leaves at least this many
/// samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// One selected percentile and the counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub per_mille: PerMille,
    pub value: f64,
    /// Samples the percentile was selected from.
    pub samples: usize,
    /// Samples ranked strictly above the selected one.
    pub beyond: usize,
}

impl Percentile {
    /// Whether this percentile may be reported: a tail needs at least
    /// [`MIN_BEYOND`] samples beyond it; the median always qualifies.
    pub fn reportable(&self) -> bool {
        self.per_mille <= P50 || self.beyond >= MIN_BEYOND
    }
}

/// 1-based nearest rank of percentile `pm` among `n` samples: `ceil(pm·n/1000)`,
/// at least 1.
pub fn nearest_rank(pm: PerMille, n: usize) -> usize {
    let n = n as u64;
    ((pm * n).div_ceil(1000)).clamp(1, n.max(1)) as usize
}

/// The lower median of a non-empty list (the list's middle value after
/// sorting).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

/// An unordered sample set; percentiles sort a copy on demand.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile, or `None` for an empty set.
    pub fn percentile(&self, pm: PerMille) -> Option<Percentile> {
        if self.values.is_empty() {
            return None;
        }
        let sorted = self.sorted();
        let n = sorted.len();
        let rank = nearest_rank(pm, n);
        Some(Percentile {
            per_mille: pm,
            value: sorted[rank - 1],
            samples: n,
            beyond: n - rank,
        })
    }

    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Percentile `pm` scaled by `scale` (1e6 turns seconds into µs), with
    /// the sample counts behind it: `null` for an empty set, and a `null`
    /// value when too few samples lie beyond the percentile.
    pub fn summary(&self, pm: PerMille, scale: f64) -> Json {
        let Some(p) = self.percentile(pm) else {
            return Json::Null;
        };
        Json::obj([
            (
                "value",
                if p.reportable() {
                    Json::Num(p.value * scale)
                } else {
                    Json::Null
                },
            ),
            ("samples", Json::Int(p.samples as u64)),
            ("beyond", Json::Int(p.beyond as u64)),
        ])
    }
}

/// A uniform random sample of at most `capacity` values from a stream of
/// unknown length (Algorithm R), so a client that makes a million calls keeps
/// a fixed, small record of their latencies.
#[derive(Debug, Clone)]
pub struct Reservoir {
    values: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            values: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: seed | 1,
        }
    }

    pub fn offer(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < self.capacity {
            self.values.push(v);
            return;
        }
        // xorshift64: deterministic in the seed.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if (j as usize) < self.capacity {
            self.values[j as usize] = v;
        }
    }

    /// Values offered so far, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn into_samples(self) -> Samples {
        Samples {
            values: self.values,
        }
    }
}

/// The samples a server histogram gained between two snapshots, as
/// `(lo, hi, count)` buckets: the measurement window's share of an
/// instrument that also counted the warm-up.
#[derive(Debug, Clone)]
pub struct HistWindow {
    buckets: Vec<(u64, u64, u64)>,
    pub count: u64,
    pub sum: u64,
}

impl HistWindow {
    pub fn between(before: &HistogramSnapshot, after: &HistogramSnapshot) -> Self {
        let earlier = before.nonzero_buckets();
        let buckets: Vec<(u64, u64, u64)> = after
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, hi, c)| {
                let prior = earlier.iter().find(|b| b.0 == lo).map_or(0, |b| b.2);
                (lo, hi, c.saturating_sub(prior))
            })
            .filter(|b| b.2 > 0)
            .collect();
        Self {
            count: buckets.iter().map(|b| b.2).sum(),
            sum: after.sum.saturating_sub(before.sum),
            buckets,
        }
    }

    /// Nearest-rank percentile read as the upper bound of the bucket holding
    /// the rank (the histogram's own convention: at most 1/8 above the true
    /// value); 0 for an empty window.
    pub fn percentile(&self, pm: PerMille) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = nearest_rank(pm, self.count as usize) as u64;
        let mut seen = 0;
        for &(_, hi, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return hi as f64;
            }
        }
        self.buckets.last().map_or(0.0, |b| b.1 as f64)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Operations attempted and failed in one run. A failure is a client call or
/// subscriber stream that errored, a static solve that differs from the
/// sequential result, or a correctness gate that did not hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Counts one operation: a pass when `passed`, else a failure described
    /// by `why`.
    pub fn check(&mut self, passed: bool, why: impl FnOnce() -> String) {
        if passed {
            self.ok()
        } else {
            self.fail(why())
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greedy_obs::Histogram;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        // 0.99 * 100 in floating point is 99.00000000000001; per-mille
        // arithmetic must still pick rank 99, not 100.
        assert_eq!(nearest_rank(P99, 100), 99);
        assert_eq!(nearest_rank(P50, 100), 50);
        assert_eq!(nearest_rank(P50, 101), 51);
        assert_eq!(nearest_rank(P999, 1000), 999);
        assert_eq!(nearest_rank(P999, 1001), 1000);
        assert_eq!(nearest_rank(P50, 1), 1);
    }

    #[test]
    fn percentile_reports_its_sample_count_and_tail() {
        // Shuffled 1..=1000: p99 is the 990th value, with 10 beyond it.
        let s = samples((1..=1000).map(|i| ((i * 7919) % 1000 + 1) as f64));
        let p = s.percentile(P99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        assert_eq!(p.beyond, 10);
        assert!(p.reportable());
        let med = s.percentile(P50).unwrap();
        assert_eq!((med.value, med.beyond), (500.0, 500));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let s = samples((1..=999).map(f64::from));
        // p99 of 999 is rank 990: only 9 samples beyond.
        let p = s.percentile(P99).unwrap();
        assert_eq!((p.value, p.beyond), (990.0, 9));
        assert!(!p.reportable());
        // A median of three is still a median.
        assert!(samples([3.0, 1.0, 2.0])
            .percentile(P50)
            .unwrap()
            .reportable());
        assert!(Samples::new().percentile(P50).is_none());
    }

    #[test]
    fn summary_scales_and_carries_counts() {
        let s = samples((1..=20).map(|ms| f64::from(ms) / 1e3));
        let text = s.summary(P50, 1e3).to_string();
        assert_eq!(text, "{\"value\": 10, \"samples\": 20, \"beyond\": 10}");
        // p99 of 20 leaves nothing beyond it: no value, counts kept.
        let tail = s.summary(P99, 1e3).to_string();
        assert_eq!(tail, "{\"value\": null, \"samples\": 20, \"beyond\": 0}");
        assert_eq!(Samples::new().summary(P50, 1.0), Json::Null);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 7);
        for i in 0..100_000 {
            r.offer(f64::from(i));
        }
        assert_eq!(r.seen(), 100_000);
        let s = r.clone().into_samples();
        assert_eq!(s.len(), 1000);
        // The kept median sits near the stream's median.
        let med = s.percentile(P50).unwrap().value;
        assert!((40_000.0..60_000.0).contains(&med), "median {med}");
        // Same seed, same stream: same sample.
        let mut again = Reservoir::new(1000, 7);
        for i in 0..100_000 {
            again.offer(f64::from(i));
        }
        assert_eq!(again.into_samples().values(), s.values());
        // A short stream is kept whole.
        let mut short = Reservoir::new(1000, 7);
        short.offer(3.0);
        assert_eq!(short.into_samples().values(), &[3.0]);
    }

    #[test]
    fn histogram_window_excludes_samples_before_it() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(1000); // warm-up: slow
        }
        let before = h.snapshot();
        for v in 1..=100 {
            h.record(v); // window: fast
        }
        let w = HistWindow::between(&before, &h.snapshot());
        assert_eq!(w.count, 100);
        assert_eq!(w.sum, (1..=100).sum::<u64>());
        let p50 = w.percentile(P50);
        assert!((50.0..=50.0 * 9.0 / 8.0 + 1.0).contains(&p50), "p50 {p50}");
        assert!(w.percentile(P99) <= 112.0);
        assert_eq!(HistWindow::between(&before, &before).percentile(P50), 0.0);
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for i in 0..8 {
            t.check(i != 3, || format!("call {i} failed"));
        }
        let mut gates = Tally::default();
        gates.ok();
        gates.fail("final state differs");
        t.absorb(gates);
        assert_eq!((t.attempted, t.failed), (10, 2));
        assert_eq!(t.error_rate(), 0.2);
        assert_eq!(t.failures, vec!["call 3 failed", "final state differs"]);
    }
}
