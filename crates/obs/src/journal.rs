//! Structured event journal: a bounded ring of typed, timestamped
//! rare-but-diagnostic events.
//!
//! Counters tell you *how often* something happened; the journal tells you
//! *when, in what order, and with what parameters* — for transitions rare
//! enough that keeping the individual occurrences is cheap and losing them
//! is expensive: arena rebuilds and relocations, WAL checkpoints and
//! recovery outcomes, fsync stalls, subscriber lag/resync/prune. The server
//! and the engine feed one shared [`EventJournal`]; the `Metrics` exposition
//! appends its rendering as comment lines, and `serve_load --metrics` dumps
//! it next to the metrics text.
//!
//! Rendering is deterministic: an event's line is a pure function of the
//! event (the timestamp is captured at record time, never re-sampled), so
//! two renders of a quiesced journal are byte-for-byte identical — the same
//! property the registry exposition already guarantees.
//!
//! Recording is one short mutex'd ring push plus two atomic reads; the
//! `obs-off` feature compiles every record call into a no-op, like the rest
//! of this crate.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::recorder::FlightRecorder;

/// Default ring capacity: deep enough to cover a long diagnostic window of
/// genuinely rare events, bounded so a pathological event storm (e.g. every
/// round relocating) degrades to losing history, never to growing memory.
pub const EVENT_JOURNAL_CAPACITY: usize = 256;

/// What happened, with the parameters worth keeping.
///
/// Arena reasons are free-form `&'static str` labels supplied by the caller
/// (e.g. `"insert_overflow"`, `"dead_space"`) so this crate stays decoupled
/// from the engine's trigger taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The slack-CSR arena was rebuilt from scratch.
    ArenaRebuild {
        /// Trigger label (`"insert_overflow"`, `"dead_space"`, `"shrink"`,
        /// `"initial"`).
        reason: &'static str,
        /// Arena entries after the rebuild (live + slack).
        capacity: u64,
        /// Parallel block tasks the rebuild fanned out.
        tasks: u64,
    },
    /// One vertex segment overflowed and was relocated to the arena tail.
    ArenaRelocation {
        /// The relocated vertex.
        vertex: u64,
        /// Its new segment capacity.
        new_cap: u64,
    },
    /// A WAL checkpoint was written (periodic or final).
    WalCheckpoint {
        /// Round the checkpoint captures.
        round: u64,
    },
    /// A server recovered its state from the WAL at startup.
    WalRecovery {
        /// Round the recovered state is at.
        round: u64,
        /// Log records replayed on top of the checkpoint.
        replayed: u64,
        /// Whether a torn/corrupt log tail was truncated.
        tail_truncated: bool,
    },
    /// A WAL fsync took suspiciously long (see the recorder's threshold).
    WalFsyncStall {
        /// Round whose sync stalled.
        round: u64,
        /// How long the sync took, in microseconds.
        micros: u64,
    },
    /// A subscriber's channel overflowed; it will be resynced.
    FeedLag {
        /// Round whose delta was dropped for that subscriber.
        round: u64,
    },
    /// A subscriber was caught up by a full snapshot stream.
    FeedResync {
        /// Round of the snapshot it was resynced to.
        round: u64,
    },
    /// A disconnected subscriber was pruned from the fan-out.
    FeedPrune {
        /// Round whose publish noticed the disconnect.
        round: u64,
    },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::ArenaRebuild {
                reason,
                capacity,
                tasks,
            } => write!(
                f,
                "arena_rebuild reason={reason} capacity={capacity} tasks={tasks}"
            ),
            EventKind::ArenaRelocation { vertex, new_cap } => {
                write!(f, "arena_relocation vertex={vertex} new_cap={new_cap}")
            }
            EventKind::WalCheckpoint { round } => write!(f, "wal_checkpoint round={round}"),
            EventKind::WalRecovery {
                round,
                replayed,
                tail_truncated,
            } => write!(
                f,
                "wal_recovery round={round} replayed={replayed} tail_truncated={tail_truncated}"
            ),
            EventKind::WalFsyncStall { round, micros } => {
                write!(f, "wal_fsync_stall round={round} micros={micros}")
            }
            EventKind::FeedLag { round } => write!(f, "feed_lag round={round}"),
            EventKind::FeedResync { round } => write!(f, "feed_resync round={round}"),
            EventKind::FeedPrune { round } => write!(f, "feed_prune round={round}"),
        }
    }
}

/// One journal entry: a kind plus when it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (0-based, never reused): `recent()` returning
    /// seqs 40..=295 tells you 40 older events were evicted.
    pub seq: u64,
    /// Microseconds since the journal was created.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The event's deterministic one-line rendering, comment-prefixed so the
    /// metrics-exposition parsers (which read `name value` lines) skip it.
    pub fn render_line(&self) -> String {
        format!(
            "# event seq={} at_us={} {}",
            self.seq, self.at_us, self.kind
        )
    }
}

/// The bounded ring of recent events. Ordinary value, no globals: the server
/// creates one per [`crate::Registry`]-carrying metrics bundle and hands
/// `Arc` clones to every feeder.
#[derive(Debug)]
pub struct EventJournal {
    ring: FlightRecorder<Event>,
    /// Next sequence number (also the total ever recorded).
    seq: AtomicU64,
    epoch: Instant,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::new(EVENT_JOURNAL_CAPACITY)
    }
}

impl EventJournal {
    /// A journal retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: FlightRecorder::new(capacity),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Appends one event, stamping its sequence number and timestamp. A
    /// no-op in `obs-off` builds.
    pub fn record(&self, kind: EventKind) {
        if !crate::ENABLED {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.ring.push(Event {
            seq,
            at_us: self.epoch.elapsed().as_micros() as u64,
            kind,
        });
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        self.ring.recent()
    }

    /// Events ever recorded (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The journal as deterministic text: a header line with the totals,
    /// then one [`Event::render_line`] per retained event, oldest first.
    /// Every line is `#`-prefixed, so the rendering can ride inside a
    /// metrics exposition without confusing `name value` parsers.
    pub fn render_text(&self) -> String {
        let events = self.recent();
        let mut out = format!(
            "# event_journal retained={} total={}\n",
            events.len(),
            self.total_recorded()
        );
        for e in &events {
            out.push_str(&e.render_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_sequenced_and_bounded() {
        let j = EventJournal::new(3);
        for round in 0..5 {
            j.record(EventKind::WalCheckpoint { round });
        }
        if !crate::ENABLED {
            assert!(j.is_empty());
            assert_eq!(j.total_recorded(), 0);
            return;
        }
        assert_eq!(j.total_recorded(), 5);
        let recent = j.recent();
        assert_eq!(recent.len(), 3, "ring keeps the last 3");
        let seqs: Vec<u64> = recent.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert!(
            recent.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "timestamps are monotone in ring order"
        );
        assert_eq!(recent[2].kind, EventKind::WalCheckpoint { round: 4 });
    }

    #[test]
    fn rendering_is_deterministic_and_comment_prefixed() {
        let j = EventJournal::new(8);
        j.record(EventKind::ArenaRebuild {
            reason: "dead_space",
            capacity: 1024,
            tasks: 4,
        });
        j.record(EventKind::WalRecovery {
            round: 41,
            replayed: 7,
            tail_truncated: true,
        });
        j.record(EventKind::FeedLag { round: 12 });
        let text = j.render_text();
        assert_eq!(text, j.render_text(), "rendering must be deterministic");
        assert!(text.lines().all(|l| l.starts_with('#')));
        if crate::ENABLED {
            assert!(text.contains("arena_rebuild reason=dead_space capacity=1024 tasks=4"));
            assert!(text.contains("wal_recovery round=41 replayed=7 tail_truncated=true"));
            assert!(text.contains("feed_lag round=12"));
            assert!(text.starts_with("# event_journal retained=3 total=3\n"));
        } else {
            assert_eq!(text, "# event_journal retained=0 total=0\n");
        }
    }

    #[test]
    fn concurrent_recording_never_loses_or_duplicates_seqs() {
        let j = std::sync::Arc::new(EventJournal::new(4096));
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        j.record(EventKind::FeedResync {
                            round: t * 1000 + i,
                        });
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        if !crate::ENABLED {
            return;
        }
        assert_eq!(j.total_recorded(), 2000);
        let mut seqs: Vec<u64> = j.recent().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000, "every event kept a unique seq");
    }
}
