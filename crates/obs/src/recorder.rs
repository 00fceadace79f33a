//! Flight recorder: a bounded ring of the last K structured records.
//!
//! The server pushes one per-round commit timeline per committed round; the
//! ring keeps the most recent K so a post-mortem (or `serve_load --metrics`)
//! can see exactly where the last few rounds spent their time without
//! unbounded memory growth.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A fixed-capacity ring of the most recent records.
#[derive(Debug)]
pub struct FlightRecorder<T> {
    inner: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T: Clone> FlightRecorder<T> {
    /// A recorder keeping the last `capacity` records (capacity 0 keeps
    /// none and makes `push` a no-op).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Appends a record, evicting the oldest once full.
    pub fn push(&self, record: T) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn recent(&self) -> Vec<T> {
        self.lock().iter().cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_the_last_k_in_order() {
        let r = FlightRecorder::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.recent(), vec![2, 3, 4]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let r = FlightRecorder::new(0);
        r.push(1);
        assert!(r.recent().is_empty());
    }

    #[test]
    fn concurrent_push_and_recent_stress() {
        // Several pushers race several readers: every `recent()` view must
        // be internally consistent (strictly increasing per pusher, never
        // over capacity), and once the pushers are joined the ring holds
        // exactly the last `capacity` records pushed.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};

        const CAP: usize = 64;
        const PUSHERS: u64 = 4;
        const PER: u64 = 2_000;
        const READERS: usize = 3;
        let r = Arc::new(FlightRecorder::new(CAP));
        let stop = Arc::new(AtomicBool::new(false));
        // Every reader makes its first observation before any pusher
        // starts, so none can miss the ring by starting after the pushers
        // finish.
        let started = Arc::new(Barrier::new(READERS + 1));

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let r = r.clone();
                let stop = stop.clone();
                let started = started.clone();
                std::thread::spawn(move || {
                    let mut views = 0u64;
                    let mut observe = || {
                        let view: Vec<(u64, u64)> = r.recent();
                        assert!(view.len() <= CAP, "ring exceeded capacity");
                        // Per-pusher sequence numbers must come out strictly
                        // increasing: eviction is oldest-first, so a pusher's
                        // surviving records keep their push order.
                        for p in 0..PUSHERS {
                            let seqs: Vec<u64> = view
                                .iter()
                                .filter(|&&(id, _)| id == p)
                                .map(|&(_, s)| s)
                                .collect();
                            assert!(
                                seqs.windows(2).all(|w| w[0] < w[1]),
                                "pusher {p} order torn: {seqs:?}"
                            );
                        }
                        views += 1;
                    };
                    observe();
                    started.wait();
                    while !stop.load(Ordering::Relaxed) {
                        observe();
                    }
                    views
                })
            })
            .collect();
        started.wait();
        let pushers: Vec<_> = (0..PUSHERS)
            .map(|p| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for s in 0..PER {
                        r.push((p, s));
                    }
                })
            })
            .collect();
        for t in pushers {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for t in readers {
            assert!(t.join().unwrap() > 0, "reader never observed the ring");
        }

        let last = r.recent();
        assert_eq!(last.len(), CAP, "quiesced ring holds exactly capacity");
        // The globally last push is some pusher's final record; eviction
        // only ever removes older entries, so it must have survived.
        assert!(
            last.iter().any(|&(_, s)| s == PER - 1),
            "the final record was evicted"
        );
    }
}
