//! The delta feed: exact in-process round deltas, a replay ring, and the
//! push-style subscriber hub.
//!
//! After each committed round the engine thread hands the feed one
//! [`FullDelta`] — the *exact*, uncapped record of what the round changed
//! (the wire caps in [`crate::protocol`] apply only when a delta is encoded
//! into a [`DeltaFrame`]). The feed keeps the last
//! [`DeltaFeed::ring_capacity`] deltas in a ring keyed by round id, so a
//! subscriber that reconnects with a recent base round can be caught up by
//! replay instead of a full snapshot.
//!
//! Publication never blocks on subscribers: each subscriber has a bounded
//! channel fed with `try_send`. A full channel marks the subscriber
//! *lagging* (its forwarder notices and resyncs from a snapshot); a
//! disconnected one is pruned on the spot. Commit latency is therefore
//! independent of how many subscribers exist or how slowly they drain.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use greedy_engine::prelude::BatchReport;
use greedy_obs::{Counter, EventJournal, EventKind, Gauge};

use crate::protocol::{
    DeltaFrame, MatchFlip, MAX_DELTA_MATCH_FLIPS, MAX_DELTA_MIS_FLIPS, SUBSCRIBE_FRESH,
};

/// The exact, uncapped record of one committed round: everything needed to
/// advance a replica from `round - 1` to `round`. Unlike the wire-capped
/// [`DeltaFrame`], this is never truncated — it is the in-process carrier
/// the ring, the round recorder, and (eventually) a WAL all share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullDelta {
    /// Round this delta advances a replica to.
    pub round: u64,
    /// Effective insertions of the round.
    pub inserted: u64,
    /// Effective deletions of the round.
    pub deleted: u64,
    /// Vertices whose MIS membership toggled, sorted ascending.
    pub mis_flips: Vec<u32>,
    /// Edges whose matching membership flipped, sorted by slot id.
    pub match_flips: Vec<MatchFlip>,
}

impl FullDelta {
    /// Extracts the round's exact delta from the engine's batch report.
    pub fn from_report(round: u64, report: &BatchReport) -> Self {
        Self {
            round,
            inserted: report.edges_inserted as u64,
            deleted: report.edges_deleted as u64,
            mis_flips: report.mis_changed.clone(),
            match_flips: report
                .matching_changed
                .iter()
                .map(|d| MatchFlip {
                    slot: d.slot,
                    u: d.edge.u,
                    v: d.edge.v,
                    matched: d.matched,
                })
                .collect(),
        }
    }

    /// Encodes the delta for the wire, truncating the flip lists at the
    /// frame caps. A returned frame with `truncated == true` must not be
    /// folded — the push path streams a snapshot instead of sending one.
    pub fn to_wire(&self) -> DeltaFrame {
        let truncated = self.mis_flips.len() > MAX_DELTA_MIS_FLIPS
            || self.match_flips.len() > MAX_DELTA_MATCH_FLIPS;
        DeltaFrame {
            round: self.round,
            inserted: self.inserted,
            deleted: self.deleted,
            mis_flips: self
                .mis_flips
                .iter()
                .copied()
                .take(MAX_DELTA_MIS_FLIPS)
                .collect(),
            match_flips: self
                .match_flips
                .iter()
                .copied()
                .take(MAX_DELTA_MATCH_FLIPS)
                .collect(),
            truncated,
        }
    }
}

/// Bound on each subscriber's in-flight channel. Deep enough to ride out a
/// forwarder busy writing a large frame; shallow enough that a stalled
/// subscriber goes lagging (and later resyncs) instead of buffering
/// unboundedly.
const SUBSCRIBER_CHANNEL_DEPTH: usize = 256;

struct SubscriberSlot {
    sender: mpsc::SyncSender<Arc<FullDelta>>,
    lagging: Arc<AtomicBool>,
}

/// Observability handles attached by [`DeltaFeed::instrument`]. Cloned out
/// of the lock before fan-out, so the publish path's retain closure records
/// without re-entering the feed state.
#[derive(Clone)]
struct FeedInstruments {
    /// Currently registered subscribers (inc on subscribe, dec on prune,
    /// reset on close — a just-disconnected subscriber counts until the next
    /// publish prunes it, mirroring [`DeltaFeed::subscriber_count`]).
    subscribers: Arc<Gauge>,
    /// Deltas dropped on full subscriber channels (each drop forces that
    /// subscriber through a snapshot resync).
    lagged: Arc<Counter>,
    /// Subscribers pruned after their receiver disconnected.
    pruned: Arc<Counter>,
}

/// Lag and prune transitions are rare (each lag forces a resync, each prune
/// ends a subscription), so they also land in the shared event journal with
/// the round that exposed them — attached separately from the instruments
/// because tests exercise either alone.
type JournalHandle = Option<Arc<EventJournal>>;

struct FeedInner {
    /// The last `ring_capacity` deltas, oldest first; rounds are contiguous
    /// because the scheduler commits them in sequence.
    ring: VecDeque<Arc<FullDelta>>,
    /// Highest round ever published (0 before the first).
    last_round: u64,
    subscribers: Vec<SubscriberSlot>,
    closed: bool,
    instruments: Option<FeedInstruments>,
    journal: JournalHandle,
}

/// What [`DeltaFeed::subscribe_from`] hands a forwarder.
pub struct Subscription {
    /// Live deltas, in round order, starting strictly after the backlog.
    pub receiver: mpsc::Receiver<Arc<FullDelta>>,
    /// Set by the feed when this subscriber's channel overflowed (deltas
    /// were dropped); the forwarder clears it and resyncs from a snapshot.
    pub lagging: Arc<AtomicBool>,
    /// Ring replay covering rounds `from+1 ..= last_round` when the ring
    /// still holds them all; `None` means the subscriber is too far behind
    /// (or asked for [`SUBSCRIBE_FRESH`]) and must start from a snapshot.
    pub backlog: Option<Vec<Arc<FullDelta>>>,
}

/// The shared hub: ring of recent deltas + registered subscribers.
pub struct DeltaFeed {
    inner: Mutex<FeedInner>,
    ring_capacity: usize,
}

impl DeltaFeed {
    /// A feed retaining the last `ring_capacity` round deltas for replay.
    pub fn new(ring_capacity: usize) -> Self {
        Self::with_base_round(ring_capacity, 0)
    }

    /// A feed whose first published round will be `base_round + 1` — used by
    /// a recovered server so round numbering continues from the log. Without
    /// this, a subscriber reconnecting with its replica already *at* the
    /// recovered round would look like it came from the future
    /// (`from > last_round`) and be bounced through a spurious full-snapshot
    /// resync instead of an empty backlog.
    pub fn with_base_round(ring_capacity: usize, base_round: u64) -> Self {
        assert!(ring_capacity >= 1, "the ring must hold at least one round");
        Self {
            inner: Mutex::new(FeedInner {
                ring: VecDeque::with_capacity(ring_capacity),
                last_round: base_round,
                subscribers: Vec::new(),
                closed: false,
                instruments: None,
                journal: None,
            }),
            ring_capacity,
        }
    }

    /// Rounds the ring retains.
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// Attaches fan-out observability: the subscriber gauge plus the lagged
    /// and pruned counters (see [`crate::metrics::ServerMetrics`]).
    pub fn instrument(&self, subscribers: Arc<Gauge>, lagged: Arc<Counter>, pruned: Arc<Counter>) {
        crate::rounds::lock_unpoisoned(&self.inner).instruments = Some(FeedInstruments {
            subscribers,
            lagged,
            pruned,
        });
    }

    /// Attaches the shared event journal: every lag (dropped delta) and
    /// prune (disconnected subscriber) is journalled with its round.
    pub fn attach_journal(&self, journal: Arc<EventJournal>) {
        crate::rounds::lock_unpoisoned(&self.inner).journal = Some(journal);
    }

    /// Publishes one committed round: appends to the ring (evicting the
    /// oldest entry at capacity) and offers the delta to every subscriber
    /// without blocking. A subscriber whose channel is full is marked
    /// lagging; one whose receiver is gone is pruned.
    pub fn publish(&self, delta: Arc<FullDelta>) {
        let mut inner = crate::rounds::lock_unpoisoned(&self.inner);
        if inner.ring.len() == self.ring_capacity {
            inner.ring.pop_front();
        }
        inner.last_round = delta.round;
        inner.ring.push_back(delta.clone());
        let instr = inner.instruments.clone();
        let journal = inner.journal.clone();
        let round = delta.round;
        inner.subscribers.retain(|sub| {
            match sub.sender.try_send(delta.clone()) {
                Ok(()) => true,
                Err(mpsc::TrySendError::Full(_)) => {
                    // The delta is dropped for this subscriber; its forwarder
                    // sees the flag (or the round gap) and resyncs.
                    sub.lagging.store(true, Ordering::SeqCst);
                    if let Some(i) = &instr {
                        i.lagged.inc();
                    }
                    if let Some(j) = &journal {
                        j.record(EventKind::FeedLag { round });
                    }
                    true
                }
                Err(mpsc::TrySendError::Disconnected(_)) => {
                    if let Some(i) = &instr {
                        i.pruned.inc();
                        i.subscribers.dec();
                    }
                    if let Some(j) = &journal {
                        j.record(EventKind::FeedPrune { round });
                    }
                    false
                }
            }
        });
    }

    /// Registers a subscriber whose base state is round `from`
    /// ([`SUBSCRIBE_FRESH`] = none). Registration and backlog capture happen
    /// under one lock, so the backlog and the live channel are contiguous:
    /// no round can fall between them. Returns `None` once the feed is
    /// closed.
    pub fn subscribe_from(&self, from: u64) -> Option<Subscription> {
        let mut inner = crate::rounds::lock_unpoisoned(&self.inner);
        if inner.closed {
            return None;
        }
        let backlog = if from == SUBSCRIBE_FRESH || from > inner.last_round {
            // No base state — or a claimed round this feed never published,
            // which only a confused client sends: resync it from a snapshot
            // rather than silently diverge.
            None
        } else if from == inner.last_round {
            Some(Vec::new())
        } else if inner.ring.front().is_some_and(|d| d.round <= from + 1) {
            Some(
                inner
                    .ring
                    .iter()
                    .filter(|d| d.round > from)
                    .cloned()
                    .collect(),
            )
        } else {
            None
        };
        let (sender, receiver) = mpsc::sync_channel(SUBSCRIBER_CHANNEL_DEPTH);
        let lagging = Arc::new(AtomicBool::new(false));
        inner.subscribers.push(SubscriberSlot {
            sender,
            lagging: lagging.clone(),
        });
        if let Some(i) = &inner.instruments {
            i.subscribers.inc();
        }
        Some(Subscription {
            receiver,
            lagging,
            backlog,
        })
    }

    /// Number of currently registered subscribers (pruning happens on
    /// publish, so a just-disconnected one may still be counted).
    pub fn subscriber_count(&self) -> usize {
        crate::rounds::lock_unpoisoned(&self.inner)
            .subscribers
            .len()
    }

    /// Closes the feed: refuses new subscribers and drops every sender, so
    /// each receiver drains its already-queued deltas and then disconnects.
    /// Called after the engine thread has exited, which is what guarantees
    /// the final round's delta is already queued everywhere it should be.
    pub fn close(&self) {
        let mut inner = crate::rounds::lock_unpoisoned(&self.inner);
        inner.closed = true;
        inner.subscribers.clear();
        if let Some(i) = &inner.instruments {
            i.subscribers.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(round: u64) -> Arc<FullDelta> {
        Arc::new(FullDelta {
            round,
            inserted: 1,
            deleted: 0,
            mis_flips: vec![round as u32],
            match_flips: Vec::new(),
        })
    }

    #[test]
    fn ring_replay_covers_recent_rounds_only() {
        let feed = DeltaFeed::new(3);
        for r in 1..=5 {
            feed.publish(delta(r));
        }
        // Ring holds rounds 3..=5: a base of round 2 replays exactly 3..=5.
        let sub = feed.subscribe_from(2).unwrap();
        let rounds: Vec<u64> = sub.backlog.unwrap().iter().map(|d| d.round).collect();
        assert_eq!(rounds, vec![3, 4, 5]);
        // A base of round 1 needs round 2, which was evicted.
        assert!(feed.subscribe_from(1).unwrap().backlog.is_none());
        // Up to date: empty backlog, not a resync.
        assert_eq!(feed.subscribe_from(5).unwrap().backlog.unwrap().len(), 0);
        // Fresh (or from the future): snapshot required.
        assert!(feed
            .subscribe_from(SUBSCRIBE_FRESH)
            .unwrap()
            .backlog
            .is_none());
        assert!(feed.subscribe_from(9).unwrap().backlog.is_none());
    }

    #[test]
    fn base_at_exact_retention_edge_replays_from_the_ring() {
        // Ring capacity 3, rounds 1..=5 published: the ring retains 3..=5,
        // so round 3 is the oldest retained round. A subscriber whose base
        // *is* that oldest round needs exactly 4..=5 — all still in the ring
        // — and must get them by replay, not a spurious snapshot resync.
        let feed = DeltaFeed::new(3);
        for r in 1..=5 {
            feed.publish(delta(r));
        }
        let sub = feed.subscribe_from(3).unwrap();
        let rounds: Vec<u64> = sub
            .backlog
            .expect("edge base replays")
            .iter()
            .map(|d| d.round)
            .collect();
        assert_eq!(rounds, vec![4, 5]);
        // The true edge is one round further back: a base of 2 still works
        // (its first missing round, 3, is the oldest retained delta), but a
        // base of 1 needs evicted round 2 — snapshot resync is the only
        // safe path there.
        let sub = feed.subscribe_from(2).unwrap();
        let rounds: Vec<u64> = sub
            .backlog
            .expect("first-missing-round-retained base replays")
            .iter()
            .map(|d| d.round)
            .collect();
        assert_eq!(rounds, vec![3, 4, 5]);
        assert!(feed.subscribe_from(1).unwrap().backlog.is_none());
    }

    #[test]
    fn empty_ring_round_zero_base_gets_empty_backlog_not_resync() {
        // A fresh feed has published nothing: a subscriber whose base is
        // round 0 (the pre-traffic state every server starts from) is
        // already up to date — empty backlog, no snapshot stream.
        let feed = DeltaFeed::new(4);
        let sub = feed.subscribe_from(0).unwrap();
        assert_eq!(sub.backlog.expect("round-0 base is current").len(), 0);
        // But a claimed future round on the same empty ring must resync.
        assert!(feed.subscribe_from(1).unwrap().backlog.is_none());
    }

    #[test]
    fn recovered_base_round_is_current_not_future() {
        // A feed reopened at a recovered round: a subscriber already at that
        // round is up to date (empty backlog); one exactly one round behind
        // has its missing round nowhere (not yet republished) and resyncs.
        let feed = DeltaFeed::with_base_round(4, 41);
        assert_eq!(feed.subscribe_from(41).unwrap().backlog.unwrap().len(), 0);
        assert!(feed.subscribe_from(40).unwrap().backlog.is_none());
        let sub = feed.subscribe_from(41).unwrap();
        feed.publish(delta(42));
        assert_eq!(sub.receiver.try_recv().unwrap().round, 42);
    }

    #[test]
    fn backlog_and_live_channel_are_contiguous() {
        let feed = DeltaFeed::new(8);
        feed.publish(delta(1));
        let sub = feed.subscribe_from(0).unwrap();
        assert_eq!(sub.backlog.as_ref().unwrap().len(), 1);
        feed.publish(delta(2));
        assert_eq!(sub.receiver.try_recv().unwrap().round, 2);
    }

    #[test]
    fn overflow_marks_lagging_and_disconnect_prunes() {
        let feed = DeltaFeed::new(4);
        let sub = feed.subscribe_from(SUBSCRIBE_FRESH).unwrap();
        for r in 1..=(SUBSCRIBER_CHANNEL_DEPTH as u64 + 5) {
            feed.publish(delta(r));
        }
        assert!(sub.lagging.load(Ordering::SeqCst), "overflow must flag");
        assert_eq!(feed.subscriber_count(), 1);
        drop(sub);
        feed.publish(delta(999));
        assert_eq!(feed.subscriber_count(), 0, "disconnect must prune");
    }

    #[test]
    fn close_drains_queued_then_disconnects() {
        let feed = DeltaFeed::new(4);
        let sub = feed.subscribe_from(SUBSCRIBE_FRESH).unwrap();
        feed.publish(delta(1));
        feed.publish(delta(2));
        feed.close();
        assert_eq!(sub.receiver.recv().unwrap().round, 1);
        assert_eq!(sub.receiver.recv().unwrap().round, 2);
        assert!(sub.receiver.recv().is_err(), "closed feed must disconnect");
        assert!(feed.subscribe_from(0).is_none(), "closed feed refuses subs");
    }

    #[test]
    fn instruments_track_subscribe_lag_and_prune() {
        let feed = DeltaFeed::new(4);
        let gauge = Arc::new(Gauge::new());
        let lagged = Arc::new(Counter::new());
        let pruned = Arc::new(Counter::new());
        feed.instrument(gauge.clone(), lagged.clone(), pruned.clone());

        let sub = feed.subscribe_from(SUBSCRIBE_FRESH).unwrap();
        assert_eq!(gauge.get(), 1);
        for r in 1..=(SUBSCRIBER_CHANNEL_DEPTH as u64 + 3) {
            feed.publish(delta(r));
        }
        assert_eq!(lagged.get(), 3, "each dropped delta counts");
        drop(sub);
        feed.publish(delta(999));
        assert_eq!((pruned.get(), gauge.get()), (1, 0));

        let _sub = feed.subscribe_from(SUBSCRIBE_FRESH).unwrap();
        assert_eq!(gauge.get(), 1);
        feed.close();
        assert_eq!(gauge.get(), 0, "close resets the gauge");
    }

    #[test]
    fn wire_encoding_truncates_at_caps() {
        let exact = FullDelta {
            round: 7,
            inserted: 2,
            deleted: 1,
            mis_flips: vec![1, 2, 3],
            match_flips: vec![MatchFlip {
                slot: 0,
                u: 1,
                v: 2,
                matched: true,
            }],
        };
        let frame = exact.to_wire();
        assert!(!frame.truncated);
        assert_eq!(frame.mis_flips, exact.mis_flips);
        assert_eq!(frame.match_flips, exact.match_flips);

        let oversized = FullDelta {
            mis_flips: (0..(MAX_DELTA_MIS_FLIPS as u32 + 1)).collect(),
            ..exact
        };
        let frame = oversized.to_wire();
        assert!(frame.truncated);
        assert_eq!(frame.mis_flips.len(), MAX_DELTA_MIS_FLIPS);
    }
}
