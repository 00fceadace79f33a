//! # greedy-obs
//!
//! Dependency-free observability primitives for the serving stack: atomic
//! [`Counter`]s and [`Gauge`]s, a lock-free log-bucketed [`Histogram`] with
//! p50/p90/p99/max snapshots, a [`Registry`] with deterministic
//! Prometheus-style text exposition, a [`FlightRecorder`] ring that keeps
//! the last K structured records (the server stores one per-round commit
//! timeline in it), and an [`EventJournal`] ring of typed, timestamped
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
//! * **Always on.** There is no switch that turns recording off: a number
//!   read from a registry means the same thing in every build and every
//!   configuration.
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
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
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
        assert_eq!(c.get(), 80_000);
    }
}
