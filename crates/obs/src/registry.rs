//! Process-wide metric registry with Prometheus-style text exposition.
//!
//! The registry's mutex guards registration and rendering only: call sites
//! register once at startup, hold the returned `Arc`s, and record through
//! them without ever touching the registry again. `render_text` walks a
//! `BTreeMap`, so the exposition is deterministic — two renders of the same
//! quiesced registry are byte-for-byte identical, which is what the server's
//! "TCP `Request::Metrics` equals `ServerHandle::metrics_text()`" check
//! relies on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;
use crate::{Counter, Gauge};

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of counters, gauges, and histograms.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = match self.metrics.lock() {
            Ok(m) => m.len(),
            Err(p) => p.get_ref().len(),
        };
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // Registration and rendering never panic while holding the lock;
        // recover the map anyway rather than cascade.
        match self.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registered metric names, in render order.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Renders every metric in Prometheus text-exposition style, sorted by
    /// name. Counters and gauges emit one `# TYPE` line and one value line;
    /// histograms emit `_count`/`_sum`/`_min`/`_max` plus
    /// `{quantile="0.5"|"0.9"|"0.99"}` lines read from a point-in-time
    /// snapshot.
    pub fn render_text(&self) -> String {
        let m = self.lock();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let _ = writeln!(out, "{name}_count {}", s.count);
                    let _ = writeln!(out, "{name}_sum {}", s.sum);
                    let _ = writeln!(out, "{name}_min {}", s.min);
                    let _ = writeln!(out, "{name}_max {}", s.max);
                    for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", s.quantile(q));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("requests_total");
        let b = r.counter("requests_total");
        a.add(3);
        assert_eq!(b.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    /// The satellite's text-exposition roundtrip: render, parse the plain
    /// value lines back, and check every registered instrument appears with
    /// the value it holds — then render again and require byte equality.
    #[test]
    fn text_exposition_roundtrips() {
        let r = Registry::new();
        r.counter("b_rounds_total").add(7);
        r.gauge("a_subscribers").set(2);
        let h = r.histogram("c_latency_us");
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }

        let text = r.render_text();
        assert_eq!(text, r.render_text(), "rendering must be deterministic");

        let mut parsed = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.split_once(' ').expect("value line");
            parsed.insert(name.to_string(), value.parse::<i64>().unwrap());
        }
        assert_eq!(parsed["b_rounds_total"], 7);
        assert_eq!(parsed["a_subscribers"], 2);
        assert_eq!(parsed["c_latency_us_count"], 4);
        assert_eq!(parsed["c_latency_us_sum"], 1060);
        assert_eq!(parsed["c_latency_us_min"], 10);
        assert_eq!(parsed["c_latency_us_max"], 1000);
        // Rank-0.5 of [10, 20, 30, 1000] is 30, whose bucket is [30, 31].
        let p50 = parsed["c_latency_us{quantile=\"0.5\"}"];
        assert!((30..=31).contains(&p50), "p50 {p50} outside bucket bound");
        assert_eq!(parsed["c_latency_us{quantile=\"0.99\"}"], 1000);
        // Names render sorted, so the gauge (a_) precedes the counter (b_).
        let a = text.find("a_subscribers").unwrap();
        let b = text.find("b_rounds_total").unwrap();
        assert!(a < b);
    }
}
