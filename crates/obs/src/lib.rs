//! # greedy-obs
//!
//! Dependency-free observability primitives for the serving stack: atomic
//! [`Counter`]s and [`Gauge`]s, a lock-free log-bucketed [`Histogram`] with
//! p50/p90/p99/max snapshots, a [`Registry`] with deterministic
//! Prometheus-style text exposition (several registries render as one via
//! [`Registry::merge`]), a [`FlightRecorder`] ring that keeps the last K
//! structured records (the server stores one per-round commit timeline in
//! it), and an [`EventJournal`] ring of typed, timestamped
//! rare-but-diagnostic events (arena rebuilds, WAL checkpoints, fsync
//! stalls, subscriber resyncs).
//!
//! Design rules, in the same spirit as `greedy_server`:
//!
//! * **Pure `std`.** No shims, no third-party crates — this crate can sit
//!   under the serving layer without widening its dependency surface.
//! * **Lock-free hot path.** Recording into a counter, gauge, or histogram
//!   is a handful of relaxed atomic RMWs; no recording call ever takes a
//!   lock. The registry's mutex guards *registration and rendering* only —
//!   call sites hold `Arc`s to their instruments and never touch it again.
//! * **Compile-out switch.** Building with the `obs-off` feature turns every
//!   recording call into a no-op (`ENABLED` is `false`), so instrumented
//!   code can measure its own observability overhead honestly.
//!
//! Counts and sums are exact: every `record` is a `fetch_add`, so once the
//! recording threads are quiesced a snapshot's `count`/`sum` equal the
//! number/total of calls regardless of interleaving. Quantiles are read from
//! log-spaced bucket upper bounds and are conservative overestimates by at
//! most 1/8 relative error (see [`Histogram`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod journal;
pub mod recorder;
pub mod registry;

pub use hist::{Histogram, HistogramSnapshot};
pub use journal::{Event, EventJournal, EventKind};
pub use recorder::FlightRecorder;
pub use registry::Registry;

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// `false` when the crate was built with the `obs-off` feature: every
/// recording call below compiles to a no-op, and instrumentation guarded by
/// `if greedy_obs::ENABLED` folds away entirely (including its
/// `Instant::now()` reads).
pub const ENABLED: bool = cfg!(not(feature = "obs-off"));

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if !ENABLED {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level that can move both ways (subscriber count, staged
/// depth). Signed so transient dips below a racy zero cannot wrap.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        if !ENABLED {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        if !ENABLED {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_and_gauges_count() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), if ENABLED { 5 } else { 0 });
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), if ENABLED { 1 } else { 0 });
        g.set(-3);
        assert_eq!(g.get(), if ENABLED { -3 } else { 0 });
    }

    #[test]
    fn concurrent_counter_totals_are_exact() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), if ENABLED { 80_000 } else { 0 });
    }
}
