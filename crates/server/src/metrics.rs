//! Server observability: the named instrument set over [`greedy_obs`], plus
//! the per-round flight recorder.
//!
//! One [`ServerMetrics`] lives behind the server's `Arc<Shared>`, and every
//! server is built with one: there is no switch that turns it off. Its one
//! [`Registry`] holds the `server_*` instruments and the engine's `engine_*`
//! set. Every hot path (the engine thread's commit sequence, query dispatch,
//! the feed's fan-out) holds `Arc`s to its instruments and records
//! lock-free. The registry itself is only locked to render
//! [`ServerMetrics::render_text`] — what `ServerHandle::metrics_text()` and
//! the `Request::Metrics` wire frame both return, byte-for-byte identically
//! on a quiesced server.
//!
//! ## Metric names
//!
//! Commit-pipeline histograms (one sample per committed round, µs unless
//! noted):
//!
//! | name | what |
//! |---|---|
//! | `server_commit_stage_wait_us` | first staged update → round drained |
//! | `server_commit_apply_us` | the whole `Engine::apply_batch` call |
//! | `server_commit_repair_us` | MIS + matching repair portion of apply |
//! | `server_commit_wal_us` | WAL append + periodic checkpoint |
//! | `server_commit_publish_us` | snapshot build + swap-publish + record |
//! | `server_commit_feed_us` | delta fan-out to subscribers |
//! | `server_commit_total_us` | drain → all sinks published |
//! | `server_commit_batch_updates` | updates the round carried (count) |
//! | `server_publish_pages` | copy-on-write pages the round repacked |
//! | `server_repair_rounds_mis` | MIS repair rounds, Algorithm 2's steps (count) |
//! | `server_repair_rounds_matching` | matching repair rounds, Algorithm 4's steps (count) |
//! | `server_repair_max_frontier` | peak single-round ready set (count) |
//!
//! Read path: `server_query_us`, `server_snapshot_age_us` (one sample per
//! membership query). Counters: `server_rounds_committed_total`,
//! `server_updates_effective_total`, `server_repair_decided_total`,
//! `server_repair_flips_total`, `server_queries_total`,
//! `server_connections_total`, `server_feed_lagged_total`,
//! `server_feed_pruned_total`, `server_feed_resyncs_total`,
//! `server_wal_appends_total`, `server_wal_checkpoints_total`. Gauge:
//! `server_feed_subscribers`.
//!
//! `server_repair_rounds_mis` is the paper's observable. Each repair round
//! accepts the pending vertices with no earlier pending neighbor and knocks
//! out their pending neighbors, so a repair counts root-set peels of its
//! pending sub-DAG, and a from-scratch build counts exactly the dependence
//! length. Blelloch–Fineman–Shun bound the greedy MIS dependence depth by
//! O(log² n) w.h.p., so the histogram's max over any run should sit well
//! under `log2(n)²` — `serve_load --metrics` prints exactly that
//! comparison. The matching rounds are the same steps on the line graph.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use greedy_engine::prelude::EngineMetrics;
use greedy_obs::{Counter, EventJournal, EventKind, FlightRecorder, Gauge, Histogram, Registry};

/// How many per-round timelines the flight recorder retains.
pub const FLIGHT_RECORDER_ROUNDS: usize = 128;

/// One committed round's timeline, as kept by the flight recorder and fed
/// into the commit histograms. All durations in whole microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Round id.
    pub round: u64,
    /// Updates the round carried (insertions + deletions staged).
    pub updates: u64,
    /// First staged update → round drained by the engine thread.
    pub stage_wait_us: u64,
    /// Full `Engine::apply_batch` duration.
    pub apply_us: u64,
    /// MIS + matching repair portion of apply (subset of `apply_us`).
    pub repair_us: u64,
    /// WAL append + periodic checkpoint (0 when serving memory-only).
    pub wal_us: u64,
    /// Snapshot build + swap-publish + round recording.
    pub publish_us: u64,
    /// Delta fan-out to subscribers.
    pub feed_us: u64,
    /// Drain → all sinks published.
    pub total_us: u64,
    /// MIS repair rounds: root-set peels of the pending vertices (the
    /// repair's `RepairStats::rounds`).
    pub mis_rounds: u64,
    /// Matching repair rounds: root-set peels of the pending edges.
    pub matching_rounds: u64,
    /// Peak single-round ready set across both repairs.
    pub max_frontier: u64,
    /// Item decisions across both repairs, knock-outs included.
    pub decided: u64,
    /// Decision flips across both repairs.
    pub flips: u64,
    /// Copy-on-write pages the round's publication repacked.
    pub pages: u64,
}

/// The server's instrument set. Construction registers every metric, the
/// engine's included, so a rendered exposition always lists the full set
/// (zeros included) — the CI smoke check relies on nothing being silently
/// absent.
pub struct ServerMetrics {
    registry: Registry,
    recorder: FlightRecorder<RoundTrace>,
    /// The structured event journal every rare-transition feeder (engine
    /// arena, WAL, feed) appends to; rendered as comment lines at the tail
    /// of the exposition.
    journal: Arc<EventJournal>,
    /// The engine-internals instrument set, registered in `registry`. The
    /// engine thread records into a clone attached via
    /// `Engine::attach_metrics`.
    engine: EngineMetrics,
    /// Micros since `epoch` of the latest snapshot publication; `u64::MAX`
    /// until the first (age reads as 0 before any publication).
    last_publish_us: AtomicU64,
    epoch: Instant,

    // Commit pipeline (engine thread only).
    commit_stage_wait_us: Arc<Histogram>,
    commit_apply_us: Arc<Histogram>,
    commit_repair_us: Arc<Histogram>,
    commit_wal_us: Arc<Histogram>,
    commit_publish_us: Arc<Histogram>,
    commit_feed_us: Arc<Histogram>,
    commit_total_us: Arc<Histogram>,
    commit_batch_updates: Arc<Histogram>,
    publish_pages: Arc<Histogram>,
    repair_rounds_mis: Arc<Histogram>,
    repair_rounds_matching: Arc<Histogram>,
    repair_max_frontier: Arc<Histogram>,
    rounds_committed: Arc<Counter>,
    updates_effective: Arc<Counter>,
    repair_decided: Arc<Counter>,
    repair_flips: Arc<Counter>,
    wal_appends: Arc<Counter>,
    wal_checkpoints: Arc<Counter>,
    /// `committed_round - durable_round`: how many acked rounds the disk is
    /// behind. Pinned at 0 under `FsyncPolicy::PerRound` (and without a
    /// WAL); oscillates in `0..k` under `EveryRounds(k)`.
    durable_lag: Arc<Gauge>,

    // Read path (connection workers).
    query_us: Arc<Histogram>,
    snapshot_age_us: Arc<Histogram>,
    queries: Arc<Counter>,
    connections: Arc<Counter>,

    // Feed fan-out.
    feed_lagged: Arc<Counter>,
    feed_pruned: Arc<Counter>,
    feed_resyncs: Arc<Counter>,
    feed_subscribers: Arc<Gauge>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// A fresh instrument set with every metric registered.
    pub fn new() -> Self {
        let registry = Registry::new();
        let journal = Arc::new(EventJournal::default());
        Self {
            engine: EngineMetrics::new(&registry, journal.clone()),
            journal,
            recorder: FlightRecorder::new(FLIGHT_RECORDER_ROUNDS),
            last_publish_us: AtomicU64::new(u64::MAX),
            epoch: Instant::now(),
            commit_stage_wait_us: registry.histogram("server_commit_stage_wait_us"),
            commit_apply_us: registry.histogram("server_commit_apply_us"),
            commit_repair_us: registry.histogram("server_commit_repair_us"),
            commit_wal_us: registry.histogram("server_commit_wal_us"),
            commit_publish_us: registry.histogram("server_commit_publish_us"),
            commit_feed_us: registry.histogram("server_commit_feed_us"),
            commit_total_us: registry.histogram("server_commit_total_us"),
            commit_batch_updates: registry.histogram("server_commit_batch_updates"),
            publish_pages: registry.histogram("server_publish_pages"),
            repair_rounds_mis: registry.histogram("server_repair_rounds_mis"),
            repair_rounds_matching: registry.histogram("server_repair_rounds_matching"),
            repair_max_frontier: registry.histogram("server_repair_max_frontier"),
            rounds_committed: registry.counter("server_rounds_committed_total"),
            updates_effective: registry.counter("server_updates_effective_total"),
            repair_decided: registry.counter("server_repair_decided_total"),
            repair_flips: registry.counter("server_repair_flips_total"),
            wal_appends: registry.counter("server_wal_appends_total"),
            wal_checkpoints: registry.counter("server_wal_checkpoints_total"),
            durable_lag: registry.gauge("server_durable_lag"),
            query_us: registry.histogram("server_query_us"),
            snapshot_age_us: registry.histogram("server_snapshot_age_us"),
            queries: registry.counter("server_queries_total"),
            connections: registry.counter("server_connections_total"),
            feed_lagged: registry.counter("server_feed_lagged_total"),
            feed_pruned: registry.counter("server_feed_pruned_total"),
            feed_resyncs: registry.counter("server_feed_resyncs_total"),
            feed_subscribers: registry.gauge("server_feed_subscribers"),
            registry,
        }
    }

    /// Folds one committed round into the histograms/counters and the flight
    /// recorder. Engine thread only.
    pub fn record_round(&self, t: &RoundTrace, effective_updates: u64) {
        self.commit_stage_wait_us.record(t.stage_wait_us);
        self.commit_apply_us.record(t.apply_us);
        self.commit_repair_us.record(t.repair_us);
        self.commit_wal_us.record(t.wal_us);
        self.commit_publish_us.record(t.publish_us);
        self.commit_feed_us.record(t.feed_us);
        self.commit_total_us.record(t.total_us);
        self.commit_batch_updates.record(t.updates);
        self.publish_pages.record(t.pages);
        self.repair_rounds_mis.record(t.mis_rounds);
        self.repair_rounds_matching.record(t.matching_rounds);
        self.repair_max_frontier.record(t.max_frontier);
        self.rounds_committed.inc();
        self.updates_effective.add(effective_updates);
        self.repair_decided.add(t.decided);
        self.repair_flips.add(t.flips);
        self.recorder.push(*t);
    }

    /// Stamps "a snapshot was just published" for the age metric.
    pub fn note_publish(&self) {
        self.last_publish_us
            .store(self.epoch.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    /// Age of the published snapshot right now, in µs (0 before the first
    /// publication).
    pub fn snapshot_age_us(&self) -> u64 {
        match self.last_publish_us.load(Ordering::Relaxed) {
            u64::MAX => 0,
            at => (self.epoch.elapsed().as_micros() as u64).saturating_sub(at),
        }
    }

    /// Folds one membership query: its service latency plus the age of the
    /// snapshot that answered it.
    pub fn record_query(&self, latency_us: u64) {
        self.queries.inc();
        self.query_us.record(latency_us);
        self.snapshot_age_us.record(self.snapshot_age_us());
    }

    /// One accepted connection.
    pub fn record_connection(&self) {
        self.connections.inc();
    }

    /// One full-snapshot resync served to a subscriber, to the snapshot at
    /// `round`.
    pub fn record_feed_resync(&self, round: u64) {
        self.feed_resyncs.inc();
        self.journal.record(EventKind::FeedResync { round });
    }

    /// WAL append done; `checkpointed` when the periodic checkpoint fired.
    pub fn record_wal_append(&self, checkpointed: bool) {
        self.wal_appends.inc();
        if checkpointed {
            self.wal_checkpoints.inc();
        }
    }

    /// Updates the durable-lag gauge (`committed_round - durable_round`)
    /// after a round's WAL append.
    pub fn set_durable_lag(&self, lag: u64) {
        self.durable_lag.set(lag.min(i64::MAX as u64) as i64);
    }

    /// Full-snapshot resyncs served so far (the stats path reads this
    /// without rendering the whole registry).
    pub fn feed_resyncs(&self) -> u64 {
        self.feed_resyncs.get()
    }

    /// The feed-instrumentation handles (subscriber gauge, lagged/pruned
    /// counters) for [`crate::feed::DeltaFeed::instrument`].
    pub fn feed_instruments(&self) -> (Arc<Gauge>, Arc<Counter>, Arc<Counter>) {
        (
            self.feed_subscribers.clone(),
            self.feed_lagged.clone(),
            self.feed_pruned.clone(),
        )
    }

    /// The underlying registry (for direct reads in tests and `serve_load`):
    /// every `server_*` and `engine_*` instrument, as
    /// [`ServerMetrics::render_text`] renders them.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared structured event journal (arena rebuilds, WAL checkpoints
    /// and recovery, fsync stalls, subscriber lag/resync/prune).
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// The engine-internals instrument set; `serve_on` attaches a clone to
    /// the engine so `apply_batch` records arena and repair internals here.
    pub fn engine_metrics(&self) -> &EngineMetrics {
        &self.engine
    }

    /// Repair-rounds histogram of the MIS (the paper's depth observable).
    pub fn repair_rounds_mis(&self) -> &Histogram {
        &self.repair_rounds_mis
    }

    /// Commit-latency histogram over whole rounds.
    pub fn commit_total_us(&self) -> &Histogram {
        &self.commit_total_us
    }

    /// The last [`FLIGHT_RECORDER_ROUNDS`] round timelines, oldest first.
    pub fn recent_rounds(&self) -> Vec<RoundTrace> {
        self.recorder.recent()
    }

    /// The full text exposition: the registry's `server_*` and `engine_*`
    /// instruments in one name-sorted listing, followed by the event journal
    /// as `#` comment lines. Deterministic on a quiesced server, like each
    /// part.
    pub fn render_text(&self) -> String {
        let mut out = self.registry.render_text();
        out.push_str(&self.journal.render_text());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_registered_up_front() {
        let m = ServerMetrics::new();
        let names = m.registry().names();
        for required in [
            "server_commit_stage_wait_us",
            "server_commit_apply_us",
            "server_commit_repair_us",
            "server_commit_wal_us",
            "server_commit_publish_us",
            "server_commit_feed_us",
            "server_commit_total_us",
            "server_commit_batch_updates",
            "server_publish_pages",
            "server_repair_rounds_mis",
            "server_repair_rounds_matching",
            "server_repair_max_frontier",
            "server_rounds_committed_total",
            "server_updates_effective_total",
            "server_repair_decided_total",
            "server_repair_flips_total",
            "server_queries_total",
            "server_connections_total",
            "server_feed_lagged_total",
            "server_feed_pruned_total",
            "server_feed_resyncs_total",
            "server_wal_appends_total",
            "server_wal_checkpoints_total",
            "server_durable_lag",
            "server_feed_subscribers",
            "server_query_us",
            "server_snapshot_age_us",
        ] {
            assert!(
                names.iter().any(|n| n == required),
                "metric {required} missing from the registry"
            );
        }
        // A fresh registry renders every name too (zeros, not absences).
        let text = m.render_text();
        assert!(text.contains("server_rounds_committed_total 0"));
        assert!(text.contains("server_commit_total_us_count 0"));
        assert!(text.contains("server_durable_lag 0"));
        // The one registry also carries the engine set, and the exposition
        // the journal.
        assert!(names.iter().any(|n| n == "engine_rebuilds_total"));
        assert!(text.contains("engine_rebuilds_total 0"));
        assert!(text.contains("engine_arena_capacity 0"));
        assert!(text.contains("# event_journal retained=0 total=0"));
    }

    #[test]
    fn round_traces_land_in_histograms_and_recorder() {
        let m = ServerMetrics::new();
        for round in 1..=3u64 {
            m.record_round(
                &RoundTrace {
                    round,
                    updates: 10 * round,
                    stage_wait_us: 5,
                    apply_us: 100,
                    repair_us: 60,
                    wal_us: 0,
                    publish_us: 7,
                    feed_us: 1,
                    total_us: 113,
                    mis_rounds: round,
                    matching_rounds: 1,
                    max_frontier: 4,
                    decided: 8,
                    flips: 2,
                    pages: round,
                },
                10 * round,
            );
        }
        assert_eq!(m.recent_rounds().len(), 3);
        assert_eq!(m.recent_rounds()[2].round, 3);
        assert_eq!(m.repair_rounds_mis().snapshot().max, 3);
        assert_eq!(m.commit_total_us().count(), 3);
        let pages = m.registry().histogram("server_publish_pages").snapshot();
        assert_eq!((pages.count, pages.max), (3, 3));
        let text = m.render_text();
        assert!(text.contains("server_rounds_committed_total 3"));
        assert!(text.contains("server_updates_effective_total 60"));
        assert_eq!(text, m.render_text(), "exposition must be deterministic");
    }

    #[test]
    fn snapshot_age_is_zero_before_first_publish() {
        let m = ServerMetrics::new();
        assert_eq!(m.snapshot_age_us(), 0);
        m.note_publish();
        // Age is now measured from the publish stamp; just ensure it reads.
        let _ = m.snapshot_age_us();
    }
}
