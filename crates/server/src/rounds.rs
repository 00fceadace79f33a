//! The round scheduler: group-committing writers into engine batches.
//!
//! Writers do not call the engine; they stage edge updates into a mutex'd
//! staging buffer and block. A dedicated engine thread ([`RoundScheduler::
//! drive`]) drains the buffer into **one** [`Engine::apply_batch`] call per
//! round — the bulk-synchronous pseudo-streaming pattern: a round flushes as
//! soon as [`RoundConfig::max_batch_updates`] updates have accumulated
//! (throughput bound) or [`RoundConfig::max_delay`] after the first staged
//! update (latency bound), whichever comes first. After the batch is applied
//! the engine thread publishes the new snapshot and wakes every writer whose
//! updates rode in that round with the round's [`RoundDelta`].
//!
//! Batching is what turns per-update costs into per-round costs: the engine's
//! repair work is proportional to the *affected* state, and its parallel sort
//! and merge machinery amortizes over the whole batch, so k writers' updates
//! cost one repair, not k.
//!
//! Locking discipline: the staging mutex is held only to splice vectors and
//! bump counters — never across `apply_batch`, snapshot construction, or
//! publication. Writers therefore contend with each other only for
//! `Vec::extend`-length critical sections, and queries (which go through
//! [`crate::snapshot::SnapshotCell`], not this module) never touch this lock
//! at all.

use std::collections::HashMap;
use std::mem;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use greedy_engine::prelude::{EdgeBatch, Engine};
use greedy_graph::edge_list::Edge;

use crate::feed::{DeltaFeed, FullDelta};
use crate::metrics::{RoundTrace, ServerMetrics};
use crate::protocol::RoundDelta;
use crate::snapshot::{PublishedSnapshot, SnapshotCell};
use crate::wal::Wal;

/// Locks a mutex, recovering from poison. The serving layer's shared state
/// is only ever mutated in small, atomic critical sections (splice a vector,
/// bump a counter, push a record), so a panic mid-section cannot leave it
/// half-updated in a way later readers would misread — recovering the guard
/// is strictly better than cascading the panic into every thread that shares
/// the lock (which is what turned one bad connection into a failed
/// `shutdown()` drain).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Flush policy for the round scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundConfig {
    /// Flush as soon as this many updates are staged.
    pub max_batch_updates: usize,
    /// Flush this long after the first update of a round was staged, even if
    /// the round is not full — bounds a lone writer's commit latency.
    pub max_delay: Duration,
}

impl Default for RoundConfig {
    fn default() -> Self {
        Self {
            max_batch_updates: 4096,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Error returned to writers that arrive after shutdown began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuttingDown;

/// One committed round, as recorded when
/// [`crate::serve::ServerConfig::record_rounds`] is on: the exact batch the
/// engine applied plus the snapshot published for it. Tests replay these to
/// prove every published snapshot equals a recompute of the committed edge
/// set.
#[derive(Debug, Clone)]
pub struct CommittedRound {
    /// Round id (starts at 1; snapshot round 0 is the pre-traffic state).
    pub round: u64,
    /// Insertions the round applied, in staging order.
    pub insertions: Vec<Edge>,
    /// Deletions the round applied, in staging order.
    pub deletions: Vec<Edge>,
    /// The snapshot published for this round.
    pub snapshot: std::sync::Arc<PublishedSnapshot>,
    /// The round's exact, uncapped delta (the same `Arc` the feed's ring
    /// holds) — what the replay tests fold over round 0 to re-derive every
    /// published snapshot.
    pub delta: std::sync::Arc<FullDelta>,
}

/// Where the engine thread delivers each committed round. Bundled so
/// [`RoundScheduler::drive`] publishes all sinks at one point in the commit
/// sequence: snapshot first (queries see the round before its delta is
/// offered to subscribers), then the recorder, then the feed.
pub struct CommitSinks<'a> {
    /// The swap-published snapshot slot queries read.
    pub cell: &'a SnapshotCell,
    /// Coherence-audit recorder ([`crate::serve::ServerConfig::record_rounds`]).
    pub record: Option<&'a Mutex<Vec<CommittedRound>>>,
    /// Subscriber hub + replay ring.
    pub feed: &'a DeltaFeed,
    /// Write-ahead log; when present, the round's record is appended (and
    /// made as durable as the fsync policy promises) **before** any other
    /// sink sees the round and before any writer is woken — the WAL's
    /// ordering guarantee. A WAL write failure is fail-stop: the engine
    /// thread exits without acking the round, so no writer ever holds an
    /// acknowledgment for a round that is not in the log.
    pub wal: Option<&'a Mutex<Wal>>,
    /// Observability sink: each committed round's timeline (stage wait,
    /// apply, repair, WAL, publish, feed) is folded into the histograms and
    /// the flight recorder.
    pub metrics: &'a ServerMetrics,
}

/// Per-round rendezvous between the engine thread and the writers waiting on
/// that round. The delta sits behind an `Arc` so each waiter leaves the
/// scheduler lock with a pointer clone and deep-copies outside it.
struct Slot {
    result: Option<std::sync::Arc<RoundDelta>>,
    waiters: usize,
}

struct State {
    insertions: Vec<Edge>,
    deletions: Vec<Edge>,
    /// Updates staged for the open round (`insertions.len() +
    /// deletions.len()`).
    staged: usize,
    /// When the open round received its first update (starts the delay
    /// clock).
    opened_at: Option<Instant>,
    /// Id the currently staged updates will commit as.
    staging_round: u64,
    /// Highest committed round id.
    committed_round: u64,
    slots: HashMap<u64, Slot>,
    shutdown: bool,
    /// Set by the engine thread on exit; any writer still waiting then (none,
    /// in correct operation) errors out instead of hanging.
    engine_exited: bool,
}

/// The group-commit coordinator shared by all connection threads and the
/// engine thread.
pub struct RoundScheduler {
    state: Mutex<State>,
    /// Wakes the engine thread (staging filled, or shutdown requested).
    engine_wake: Condvar,
    /// Wakes writers (a round committed) — and, on engine exit, any
    /// stragglers.
    commit_wake: Condvar,
    config: RoundConfig,
}

impl RoundScheduler {
    /// A scheduler with the given flush policy, starting at round 1.
    pub fn new(config: RoundConfig) -> Self {
        Self::with_base_round(config, 0)
    }

    /// A scheduler whose first committed round will be `base_round + 1` —
    /// how a recovered server resumes its round numbering where the log left
    /// off instead of restarting at 1 (round ids are durable identifiers
    /// once a WAL exists: subscribers, checkpoints, and log records all key
    /// on them).
    pub fn with_base_round(config: RoundConfig, base_round: u64) -> Self {
        assert!(config.max_batch_updates >= 1, "rounds must hold an update");
        Self {
            state: Mutex::new(State {
                insertions: Vec::new(),
                deletions: Vec::new(),
                staged: 0,
                opened_at: None,
                staging_round: base_round + 1,
                committed_round: base_round,
                slots: HashMap::new(),
                shutdown: false,
                engine_exited: false,
            }),
            engine_wake: Condvar::new(),
            commit_wake: Condvar::new(),
            config,
        }
    }

    /// The flush policy.
    pub fn config(&self) -> RoundConfig {
        self.config
    }

    /// Highest committed round id.
    pub fn committed_round(&self) -> u64 {
        lock_unpoisoned(&self.state).committed_round
    }

    /// Stages a writer's updates and blocks until the round containing them
    /// commits; returns that round's delta. An empty submission stages
    /// nothing and reports the last committed round immediately.
    pub fn submit(
        &self,
        insertions: Vec<Edge>,
        deletions: Vec<Edge>,
    ) -> Result<RoundDelta, ShuttingDown> {
        let count = insertions.len() + deletions.len();
        let mut s = lock_unpoisoned(&self.state);
        if s.shutdown {
            return Err(ShuttingDown);
        }
        if count == 0 {
            return Ok(RoundDelta {
                round: s.committed_round,
                ..RoundDelta::default()
            });
        }
        s.insertions.extend(insertions);
        s.deletions.extend(deletions);
        s.staged += count;
        let first_of_round = s.opened_at.is_none();
        if first_of_round {
            s.opened_at = Some(Instant::now());
        }
        let ticket = s.staging_round;
        s.slots
            .entry(ticket)
            .or_insert(Slot {
                result: None,
                waiters: 0,
            })
            .waiters += 1;
        // Wake the engine thread when the round fills, and on the round's
        // first update so its delay clock is armed against a live engine
        // wait rather than an unbounded sleep.
        if first_of_round || s.staged >= self.config.max_batch_updates {
            self.engine_wake.notify_one();
        }
        loop {
            if let Some(slot) = s.slots.get_mut(&ticket) {
                if let Some(delta) = slot.result.clone() {
                    slot.waiters -= 1;
                    if slot.waiters == 0 {
                        s.slots.remove(&ticket);
                    }
                    // The deep copy of the (possibly large) delta happens
                    // outside the scheduler lock.
                    drop(s);
                    return Ok((*delta).clone());
                }
            }
            if s.engine_exited {
                return Err(ShuttingDown);
            }
            s = self
                .commit_wake
                .wait(s)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Begins shutdown: new submissions are refused, the engine thread
    /// commits whatever is staged in one final round and then exits.
    pub fn shutdown(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.shutdown = true;
        self.engine_wake.notify_all();
    }

    /// True once [`RoundScheduler::shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        lock_unpoisoned(&self.state).shutdown
    }

    /// The engine thread's body: waits for rounds to fill (or time out, or
    /// shutdown), applies each as one batch, logs it to the WAL (when
    /// configured) *before* any publication, publishes the round into every
    /// sink, and wakes the round's writers. Returns the engine once shutdown
    /// has drained the staging buffer (writing a final checkpoint when a WAL
    /// is attached), so the caller can inspect final state.
    ///
    /// However `drive` exits — clean drain, WAL fail-stop, or a panic inside
    /// `apply_batch` — a drop guard marks the scheduler shut down and wakes
    /// every blocked writer with [`ShuttingDown`]; nobody waits on a dead
    /// engine.
    pub fn drive(&self, mut engine: Engine, sinks: CommitSinks<'_>) -> Engine {
        // Armed for the whole drive: runs on normal return AND on unwind, so
        // a panicking engine thread cannot strand writers on the condvar.
        let _exit_guard = EngineExitGuard(self);
        let mut last_round = self.committed_round();
        loop {
            let (insertions, deletions, round, opened_at) = {
                let mut s = lock_unpoisoned(&self.state);
                loop {
                    if s.staged >= self.config.max_batch_updates {
                        break;
                    }
                    if s.staged > 0 {
                        let deadline =
                            s.opened_at.expect("open round has a start") + self.config.max_delay;
                        let now = Instant::now();
                        if s.shutdown || now >= deadline {
                            break;
                        }
                        let (guard, _) = self
                            .engine_wake
                            .wait_timeout(s, deadline - now)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                        s = guard;
                    } else if s.shutdown {
                        // Nothing staged and shutdown requested: done (the
                        // exit guard wakes any straggler). The final
                        // checkpoint happens outside the staging lock.
                        drop(s);
                        if let Some(wal) = sinks.wal {
                            let mut wal = lock_unpoisoned(wal);
                            if let Err(e) = wal.checkpoint(last_round, &engine) {
                                eprintln!("wal: final checkpoint failed: {e}");
                            }
                        }
                        return engine;
                    } else {
                        s = self
                            .engine_wake
                            .wait(s)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                }
                let insertions = mem::take(&mut s.insertions);
                let deletions = mem::take(&mut s.deletions);
                s.staged = 0;
                let opened_at = s.opened_at.take();
                let round = s.staging_round;
                s.staging_round += 1;
                (insertions, deletions, round, opened_at)
            };
            let t_drain = Instant::now();

            // All engine work happens outside the staging lock: writers keep
            // staging the *next* round while this one is applied.
            let batch = EdgeBatch {
                insertions,
                deletions,
            };
            let staged_updates = (batch.insertions.len() + batch.deletions.len()) as u64;
            let report = engine.apply_batch(&batch);
            let t_apply = Instant::now();
            let full = std::sync::Arc::new(FullDelta::from_report(round, &report));

            // Durability first: the round's record must be on the log (and
            // as synced as the policy promises) before queries, subscribers,
            // or — crucially — the writers waiting for the ack can see it.
            // An unloggable round is fail-stop: exit without acking, so the
            // writers get `ShuttingDown` instead of a commit the disk never
            // saw.
            if let Some(wal) = sinks.wal {
                let mut wal = lock_unpoisoned(wal);
                if let Err(e) = wal.append_round(round, &batch.insertions, &batch.deletions, &full)
                {
                    eprintln!("wal: append for round {round} failed, stopping engine: {e}");
                    return engine;
                }
                let checkpointed = match wal.maybe_checkpoint(round, &engine) {
                    Ok(did) => did,
                    Err(e) => {
                        eprintln!(
                            "wal: periodic checkpoint at round {round} failed, stopping engine: {e}"
                        );
                        return engine;
                    }
                };
                sinks.metrics.record_wal_append(checkpointed);
                // How far the disk trails the ack we are about to give: 0
                // under `PerRound`, sawtooths in `0..k` under
                // `EveryRounds(k)`.
                sinks
                    .metrics
                    .set_durable_lag(round.saturating_sub(wal.durable_round()));
            }
            let t_wal = Instant::now();

            // `server_snapshot` is copy-on-write: its cost is the pages the
            // round touched, not O(n) — cheap enough to take every round.
            let snapshot = std::sync::Arc::new(PublishedSnapshot {
                round,
                state: engine.server_snapshot(),
                stats: *engine.stats(),
            });
            sinks.cell.publish_arc(snapshot.clone());
            sinks.metrics.note_publish();
            if let Some(rec) = sinks.record {
                lock_unpoisoned(rec).push(CommittedRound {
                    round,
                    insertions: batch.insertions,
                    deletions: batch.deletions,
                    snapshot,
                    delta: full.clone(),
                });
            }
            let t_publish = Instant::now();
            sinks.feed.publish(full);
            let t_feed = Instant::now();
            let engine_t = engine.last_batch_timings();
            let us = |from: Instant, to: Instant| to.duration_since(from).as_micros() as u64;
            sinks.metrics.record_round(
                &RoundTrace {
                    round,
                    updates: staged_updates,
                    stage_wait_us: opened_at.map_or(0, |at| us(at, t_drain)),
                    apply_us: us(t_drain, t_apply),
                    repair_us: engine_t.matching_repair_us + engine_t.mis_repair_us,
                    wal_us: us(t_apply, t_wal),
                    publish_us: us(t_wal, t_publish),
                    feed_us: us(t_publish, t_feed),
                    total_us: us(t_drain, t_feed),
                    mis_rounds: report.mis_repair.rounds,
                    matching_rounds: report.matching_repair.rounds,
                    max_frontier: report
                        .mis_repair
                        .max_frontier
                        .max(report.matching_repair.max_frontier),
                    decided: report.mis_repair.decided + report.matching_repair.decided,
                    flips: report.mis_repair.flips + report.matching_repair.flips,
                    pages: engine.last_publication_pages() as u64,
                },
                (report.edges_inserted + report.edges_deleted) as u64,
            );
            last_round = round;

            let truncated = report.matching_changed.len() > crate::protocol::MAX_DELTA_SLOTS;
            let delta = std::sync::Arc::new(RoundDelta {
                round,
                inserted: report.edges_inserted as u64,
                deleted: report.edges_deleted as u64,
                mis_changed: report.mis_changed.len() as u64,
                matching_changed: report.matching_changed.len() as u64,
                // Stable slot ids of the flipped edges — already sorted by
                // slot in the engine's report; truncated so the commit
                // acknowledgment always fits a protocol frame (the count
                // above stays exact, and `truncated` says so explicitly).
                matching_slots: report
                    .matching_changed
                    .iter()
                    .take(crate::protocol::MAX_DELTA_SLOTS)
                    .map(|d| d.slot)
                    .collect(),
                truncated,
            });
            let mut s = lock_unpoisoned(&self.state);
            s.committed_round = round;
            if let Some(slot) = s.slots.get_mut(&round) {
                slot.result = Some(delta);
            }
            self.commit_wake.notify_all();
        }
    }
}

/// Drop guard armed for the lifetime of [`RoundScheduler::drive`]: whether
/// the engine thread returns normally, fail-stops on a WAL error, or panics
/// inside `apply_batch`, the scheduler is marked shut down + exited and both
/// condvars are broadcast, so every writer blocked on a round (and every
/// submitter yet to arrive) gets [`ShuttingDown`] instead of hanging on a
/// condvar no one will ever signal again.
struct EngineExitGuard<'a>(&'a RoundScheduler);

impl Drop for EngineExitGuard<'_> {
    fn drop(&mut self) {
        let mut s = lock_unpoisoned(&self.0.state);
        s.shutdown = true;
        s.engine_exited = true;
        drop(s);
        self.0.engine_wake.notify_all();
        self.0.commit_wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greedy_engine::prelude::Engine;
    use std::sync::Arc;
    use std::thread;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect()
    }

    fn spawn_engine(
        scheduler: &Arc<RoundScheduler>,
        cell: &Arc<SnapshotCell>,
        n: usize,
        seed: u64,
    ) -> thread::JoinHandle<Engine> {
        let engine = Engine::new(n, seed);
        let scheduler = scheduler.clone();
        let cell = cell.clone();
        thread::spawn(move || {
            scheduler.drive(
                engine,
                CommitSinks {
                    cell: &cell,
                    record: None,
                    feed: &DeltaFeed::new(4),
                    wal: None,
                    metrics: &ServerMetrics::new(),
                },
            )
        })
    }

    fn fresh_cell(n: usize, seed: u64) -> Arc<SnapshotCell> {
        let engine = Engine::new(n, seed);
        Arc::new(SnapshotCell::new(PublishedSnapshot {
            round: 0,
            state: engine.server_snapshot(),
            stats: *engine.stats(),
        }))
    }

    #[test]
    fn single_writer_commits_and_reads_back() {
        let scheduler = Arc::new(RoundScheduler::new(RoundConfig {
            max_batch_updates: 100,
            max_delay: Duration::from_millis(1),
        }));
        let cell = fresh_cell(10, 3);
        let engine = spawn_engine(&scheduler, &cell, 10, 3);

        let delta = scheduler.submit(edges(&[(0, 1), (2, 3)]), vec![]).unwrap();
        assert_eq!(delta.round, 1);
        assert_eq!(delta.inserted, 2);
        let snap = cell.load();
        assert_eq!(snap.round, 1);
        assert_eq!(snap.state.num_edges(), 2);

        scheduler.shutdown();
        let final_engine = engine.join().unwrap();
        assert_eq!(final_engine.num_edges(), 2);
    }

    #[test]
    fn full_round_flushes_without_waiting_for_delay() {
        let scheduler = Arc::new(RoundScheduler::new(RoundConfig {
            max_batch_updates: 2,
            max_delay: Duration::from_secs(3600), // delay flush effectively off
        }));
        let cell = fresh_cell(10, 1);
        let engine = spawn_engine(&scheduler, &cell, 10, 1);
        let delta = scheduler.submit(edges(&[(0, 1), (1, 2)]), vec![]).unwrap();
        assert_eq!(delta.round, 1);
        scheduler.shutdown();
        engine.join().unwrap();
    }

    #[test]
    fn concurrent_writers_share_rounds_and_all_get_answers() {
        let scheduler = Arc::new(RoundScheduler::new(RoundConfig {
            max_batch_updates: 64,
            max_delay: Duration::from_millis(1),
        }));
        let cell = fresh_cell(1_000, 7);
        let engine = spawn_engine(&scheduler, &cell, 1_000, 7);
        let writers: Vec<_> = (0..8u32)
            .map(|w| {
                let scheduler = scheduler.clone();
                thread::spawn(move || {
                    let mut rounds = Vec::new();
                    for i in 0..20u32 {
                        let e = edges(&[(w * 100 + i, w * 100 + i + 50)]);
                        rounds.push(scheduler.submit(e, vec![]).unwrap().round);
                    }
                    rounds
                })
            })
            .collect();
        let mut all_rounds = Vec::new();
        for w in writers {
            let rounds = w.join().unwrap();
            assert!(
                rounds.windows(2).all(|p| p[0] < p[1]),
                "a writer's rounds must be strictly increasing"
            );
            all_rounds.extend(rounds);
        }
        scheduler.shutdown();
        let engine = engine.join().unwrap();
        // 160 distinct edges were inserted, in far fewer than 160 rounds.
        assert_eq!(engine.num_edges(), 160);
        let committed = scheduler.committed_round();
        assert!(
            committed < 160,
            "group commit collapsed writers into rounds"
        );
        assert!(all_rounds.iter().all(|&r| r >= 1 && r <= committed));
        assert_eq!(cell.load().round, committed);
    }

    #[test]
    fn empty_submission_answers_immediately() {
        let scheduler = RoundScheduler::new(RoundConfig::default());
        let delta = scheduler.submit(vec![], vec![]).unwrap();
        assert_eq!(delta.round, 0);
        assert_eq!(delta.inserted, 0);
    }

    #[test]
    fn shutdown_refuses_new_writers_but_drains_staged() {
        let scheduler = Arc::new(RoundScheduler::new(RoundConfig {
            max_batch_updates: 1_000_000,
            max_delay: Duration::from_secs(3600),
        }));
        let cell = fresh_cell(10, 2);
        // Stage an update that can only commit via the shutdown drain.
        let staged = {
            let scheduler = scheduler.clone();
            thread::spawn(move || scheduler.submit(edges(&[(4, 5)]), vec![]))
        };
        // Wait until the update is actually staged before shutting down.
        while scheduler.state.lock().unwrap().staged == 0 {
            thread::yield_now();
        }
        let engine = spawn_engine(&scheduler, &cell, 10, 2);
        scheduler.shutdown();
        let delta = staged.join().unwrap().expect("staged update must commit");
        assert_eq!((delta.round, delta.inserted), (1, 1));
        let engine = engine.join().unwrap();
        assert_eq!(engine.num_edges(), 1);
        assert_eq!(
            scheduler.submit(edges(&[(0, 1)]), vec![]),
            Err(ShuttingDown)
        );
    }

    #[test]
    fn engine_panic_wakes_blocked_writers_with_shutting_down() {
        let scheduler = Arc::new(RoundScheduler::new(RoundConfig {
            max_batch_updates: 100,
            max_delay: Duration::from_millis(1),
        }));
        let cell = fresh_cell(10, 5);
        let engine = spawn_engine(&scheduler, &cell, 10, 5);
        // An out-of-range edge: `serve.rs` validates vertex ids at the
        // connection layer, the raw scheduler does not, so this batch panics
        // `apply_batch` on the engine thread mid-`drive`. Before the exit
        // guard existed this writer hung forever on the commit condvar.
        let res = scheduler.submit(edges(&[(1_000, 1_001)]), vec![]);
        assert_eq!(res, Err(ShuttingDown));
        assert!(engine.join().is_err(), "engine thread must have panicked");
        // Later submitters are refused rather than staged into a dead queue.
        assert_eq!(
            scheduler.submit(edges(&[(0, 1)]), vec![]),
            Err(ShuttingDown)
        );
    }

    #[test]
    fn base_round_constructor_resumes_numbering() {
        let scheduler = Arc::new(RoundScheduler::with_base_round(
            RoundConfig {
                max_batch_updates: 100,
                max_delay: Duration::from_millis(1),
            },
            41,
        ));
        assert_eq!(scheduler.committed_round(), 41);
        let cell = fresh_cell(10, 3);
        let engine = spawn_engine(&scheduler, &cell, 10, 3);
        let delta = scheduler.submit(edges(&[(0, 1)]), vec![]).unwrap();
        assert_eq!(delta.round, 42);
        scheduler.shutdown();
        engine.join().unwrap();
        assert_eq!(scheduler.committed_round(), 42);
    }
}
