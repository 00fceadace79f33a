//! The TCP front-end: accept loop, per-connection workers, and the typed
//! [`Client`].
//!
//! [`serve`] binds a listener, spawns the engine thread (running
//! [`RoundScheduler::drive`]) and a thread-per-connection accept loop, and
//! hands back a [`ServerHandle`]. Connection threads speak the
//! [`crate::protocol`] framing: writes go through the scheduler (blocking
//! until their round commits), queries and stats are answered entirely from
//! the published snapshot — they never touch the scheduler, the staging lock,
//! or the engine.
//!
//! Shutdown (either [`ServerHandle::shutdown`] or a client's
//! [`Request::Shutdown`]) is drain-then-close: the scheduler stops admitting
//! writers, the engine thread commits whatever is staged as one final round
//! and exits, then every connection socket is shut down so blocked readers
//! unblock, and all threads are joined — no thread outlives the handle.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use greedy_engine::prelude::Engine;
use greedy_graph::edge_list::Edge;

use crate::feed::{DeltaFeed, FullDelta};
use crate::metrics::{RoundTrace, ServerMetrics};
use crate::protocol::{read_frame, write_frame, Request, Response, StatsReply};
use crate::replica::{snapshot_chunks, ReplicaState, SnapshotAssembler};
use crate::rounds::{lock_unpoisoned, CommitSinks, CommittedRound, RoundConfig, RoundScheduler};
use crate::snapshot::{PublishedSnapshot, SnapshotCell};
use crate::wal::{self, Wal, WalConfig};

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Round flush policy (see [`RoundConfig`]).
    pub rounds: RoundConfig,
    /// Record every committed round (exact batch + published snapshot +
    /// exact delta) for post-hoc coherence audits. Costs one batch clone per
    /// round — meant for tests and verification runs, not production
    /// serving.
    pub record_rounds: bool,
    /// Committed-round deltas retained in the subscriber replay ring: a
    /// subscriber reconnecting with a base at most this many rounds old is
    /// caught up by replay instead of a full snapshot stream.
    pub delta_ring: usize,
    /// Write-ahead log (see [`WalConfig`]). `None` serves memory-only, as
    /// before. `Some`: if the directory already holds a log, the server
    /// **recovers from it** (checkpoint + replay, byte-verified) and serves
    /// the recovered state — the engine argument only seeds a brand-new
    /// directory; either way every committed round is logged before it is
    /// acked, and a final checkpoint is written on clean shutdown.
    pub wal: Option<WalConfig>,
    /// Maintain the observability registry (per-stage commit histograms,
    /// repair-round depth histograms, read-path latency, feed counters, and
    /// the per-round flight recorder). On by default — recording costs a few
    /// relaxed atomics per event. Off, the commit path skips even the clock
    /// reads, and `metrics_text()`/[`Request::Metrics`] report a constant
    /// "disabled" line. (Building with the `obs-off` feature disables
    /// recording at compile time regardless of this flag.)
    pub metrics: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            rounds: RoundConfig::default(),
            record_rounds: false,
            delta_ring: 64,
            wal: None,
            metrics: true,
        }
    }
}

/// Everything a connection thread needs, shared behind one `Arc`.
struct Shared {
    scheduler: RoundScheduler,
    cell: SnapshotCell,
    feed: DeltaFeed,
    stop: AtomicBool,
    addr: SocketAddr,
    num_vertices: usize,
    next_conn_id: AtomicU64,
    /// Sockets of *live* connections, keyed by connection id: a worker
    /// removes its entry when it exits, and server exit read-shuts the rest
    /// so blocked readers unblock without cutting off in-flight responses.
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
    /// Connection worker threads; finished ones are pruned on every accept,
    /// the rest are joined on exit.
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    record: Option<Mutex<Vec<CommittedRound>>>,
    /// The write-ahead log, locked by the engine thread on every commit (and
    /// by nobody else while the server runs).
    wal: Option<Mutex<Wal>>,
    /// Highest round whose log record is durable (always 0 without a WAL);
    /// shared with the stats path as [`StatsReply::durable_round`].
    durable: Arc<AtomicU64>,
    /// The observability registry + flight recorder (`None` when
    /// [`ServerConfig::metrics`] is off). Shared by the engine thread (commit
    /// traces), every connection worker (query latency), and the stats /
    /// metrics exposition paths.
    metrics: Option<Arc<ServerMetrics>>,
}

impl Shared {
    /// Flags shutdown; the polling accept loop observes the flag within
    /// [`ACCEPT_POLL`] — deliberately no self-connect nudge, which would
    /// fail exactly when shutdown matters most (fd/port exhaustion).
    fn trigger_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.scheduler.shutdown();
    }
}

/// A running server: owns the engine thread, the accept loop, and every
/// connection worker. Dropping the handle shuts the server down and joins
/// them all; [`ServerHandle::shutdown`] does the same but returns the final
/// engine and the recorded rounds.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    engine_thread: Option<JoinHandle<Engine>>,
}

/// What [`ServerHandle::shutdown`] hands back.
pub struct ShutdownReport {
    /// The engine in its final state (every committed round applied).
    pub engine: Engine,
    /// The committed rounds, when [`ServerConfig::record_rounds`] was on.
    pub rounds: Vec<CommittedRound>,
}

impl ServerHandle {
    /// The bound address (useful with the `:0` ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The latest published snapshot, as a query thread would see it.
    pub fn snapshot(&self) -> Arc<PublishedSnapshot> {
        self.shared.cell.load()
    }

    /// Highest committed round id.
    pub fn committed_round(&self) -> u64 {
        self.shared.scheduler.committed_round()
    }

    /// Highest round whose WAL record is durable on disk (0 when serving
    /// without a WAL).
    pub fn durable_round(&self) -> u64 {
        self.shared.durable.load(Ordering::SeqCst)
    }

    /// The observability registry (`None` when [`ServerConfig::metrics`] is
    /// off).
    pub fn metrics(&self) -> Option<&ServerMetrics> {
        self.shared.metrics.as_deref()
    }

    /// The full metrics text exposition — byte-for-byte what a quiesced
    /// server answers to [`Request::Metrics`]. A constant "disabled" line
    /// when [`ServerConfig::metrics`] is off.
    pub fn metrics_text(&self) -> String {
        metrics_text(&self.shared)
    }

    /// The flight recorder's retained round timelines, oldest first (empty
    /// when metrics are off).
    pub fn recent_rounds(&self) -> Vec<RoundTrace> {
        self.shared
            .metrics
            .as_deref()
            .map(ServerMetrics::recent_rounds)
            .unwrap_or_default()
    }

    /// The newest `last_k` retained round timelines, oldest first — exactly
    /// what the [`Request::Trace`] wire frame returns (the wire body is
    /// [`crate::protocol::encode_round_traces`] over this same vector).
    pub fn trace(&self, last_k: u64) -> Vec<RoundTrace> {
        recent_rounds_tail(&self.shared, last_k)
    }

    /// Drains staged updates into a final round, stops accepting, closes
    /// every connection, joins every thread, and returns the final engine
    /// plus the recorded rounds.
    pub fn shutdown(mut self) -> ShutdownReport {
        let engine = self
            .join_all()
            .expect("server threads already joined")
            .expect("engine thread panicked; no final engine to report");
        let rounds = match &self.shared.record {
            Some(rec) => std::mem::take(&mut *lock_unpoisoned(rec)),
            None => Vec::new(),
        };
        ShutdownReport { engine, rounds }
    }

    /// The shutdown/join sequence; `Some` on the first call. The inner
    /// option is `None` only if the engine thread itself panicked — every
    /// other thread is still drained and joined (a panicked connection
    /// worker or a poisoned registry must not turn shutdown into a cascade
    /// panic; the panic already surfaced on the thread that hit it).
    fn join_all(&mut self) -> Option<Option<Engine>> {
        if self.engine_thread.is_none() && self.accept_thread.is_none() {
            return None;
        }
        self.shared.trigger_shutdown();
        // The engine thread exits only after committing all staged updates,
        // so writers blocked in submit() get their answers first.
        let engine = self.engine_thread.take().map(|h| h.join().ok());
        // Close the feed only *after* the engine thread is gone: every
        // committed round's delta is already queued, and queued messages
        // survive the senders being dropped, so subscribers flush the full
        // stream before their workers see the disconnect and exit.
        self.shared.feed.close();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Unblock idle connection readers. Read-side only: a worker that
        // just got its round's result may still be writing the response,
        // and that write must reach the client before the worker exits.
        for (_, s) in lock_unpoisoned(&self.shared.conn_streams).drain() {
            let _ = s.shutdown(Shutdown::Read);
        }
        // Reap the workers (each closes its own socket on the way out). A
        // worker that panicked is reaped like any other; its `Err` is
        // deliberately dropped rather than re-thrown into the shutdown path.
        let workers: Vec<JoinHandle<()>> = lock_unpoisoned(&self.shared.conn_handles)
            .drain(..)
            .collect();
        for h in workers {
            let _ = h.join();
        }
        Some(engine.flatten())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.engine_thread.is_some() || self.accept_thread.is_some() {
            let _ = self.join_all();
        }
    }
}

/// Starts a server for `engine` on an OS-assigned local port.
pub fn serve(engine: Engine, config: ServerConfig) -> io::Result<ServerHandle> {
    serve_on(engine, config, "127.0.0.1:0")
}

/// Starts a server for `engine` on `addr`.
pub fn serve_on<A: ToSocketAddrs>(
    engine: Engine,
    config: ServerConfig,
    addr: A,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    // Recover-or-create the WAL before anything is published: a directory
    // with a log in it is authoritative over the engine argument.
    let (mut engine, base_round, mut wal_writer, recovery) = match &config.wal {
        None => (engine, 0, None, None),
        Some(wal_cfg) => match wal::recover(&wal_cfg.dir)? {
            Some(recovered) => {
                let writer = Wal::reopen(wal_cfg.clone(), &recovered)?;
                let outcome = (
                    recovered.round,
                    recovered.replayed,
                    recovered.tail_truncated,
                );
                (
                    recovered.engine,
                    recovered.round,
                    Some(writer),
                    Some(outcome),
                )
            }
            None => {
                let writer = Wal::create(wal_cfg.clone(), &engine, 0)?;
                (engine, 0, Some(writer), None)
            }
        },
    };
    let durable = wal_writer
        .as_ref()
        .map(|w| w.durable_handle())
        .unwrap_or_default();
    let metrics = config.metrics.then(|| Arc::new(ServerMetrics::new()));
    if let Some(m) = &metrics {
        // The journal's first entry is how the server came up; the engine
        // gets its instrument clone before the engine thread starts, so even
        // round 1's `apply_batch` records arena internals (and the clone's
        // first record picks up the initial build + recovery replay history).
        if let Some((round, replayed, tail_truncated)) = recovery {
            m.journal().record(greedy_obs::EventKind::WalRecovery {
                round,
                replayed,
                tail_truncated,
            });
        }
        engine.attach_metrics(m.engine_metrics().clone());
        if let Some(w) = &mut wal_writer {
            w.attach_journal(m.journal().clone());
        }
    }
    let feed = DeltaFeed::with_base_round(config.delta_ring, base_round);
    if let Some(m) = &metrics {
        let (subscribers, lagged, pruned) = m.feed_instruments();
        feed.instrument(subscribers, lagged, pruned);
        feed.attach_journal(m.journal().clone());
    }
    let shared = Arc::new(Shared {
        scheduler: RoundScheduler::with_base_round(config.rounds, base_round),
        cell: SnapshotCell::new(PublishedSnapshot {
            round: base_round,
            state: engine.server_snapshot(),
            stats: *engine.stats(),
        }),
        feed,
        stop: AtomicBool::new(false),
        addr: listener.local_addr()?,
        num_vertices: engine.num_vertices(),
        next_conn_id: AtomicU64::new(0),
        conn_streams: Mutex::new(HashMap::new()),
        conn_handles: Mutex::new(Vec::new()),
        record: config.record_rounds.then(|| Mutex::new(Vec::new())),
        wal: wal_writer.map(Mutex::new),
        durable,
        metrics,
    });

    let engine_thread = {
        let shared = shared.clone();
        thread::Builder::new()
            .name("greedy-server-engine".into())
            .spawn(move || {
                shared.scheduler.drive(
                    engine,
                    CommitSinks {
                        cell: &shared.cell,
                        record: shared.record.as_ref(),
                        feed: Some(&shared.feed),
                        wal: shared.wal.as_ref(),
                        metrics: shared.metrics.as_deref(),
                    },
                )
            })?
    };
    let accept_thread = {
        let shared = shared.clone();
        thread::Builder::new()
            .name("greedy-server-accept".into())
            .spawn(move || accept_loop(listener, shared))?
    };

    Ok(ServerHandle {
        shared,
        accept_thread: Some(accept_thread),
        engine_thread: Some(engine_thread),
    })
}

/// How often the accept loop re-checks the stop flag while no connection is
/// pending. Polling (nonblocking accept + short sleep) is what makes
/// shutdown *unconditionally* live: the only portable way to interrupt a
/// blocking accept(2) is a self-connect, and under the exact conditions
/// where shutdown matters most (fd or port exhaustion) that connect fails.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Upper bound on any single response write. Commit acknowledgments are a
/// few dozen bytes and query responses at most a few MB, so on any live
/// peer a write finishes orders of magnitude faster than this; the bound
/// exists so a peer that stops reading cannot block its worker forever —
/// which would also wedge [`ServerHandle::shutdown`], since a read-side
/// socket shutdown does not interrupt a blocked writer.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    if listener.set_nonblocking(true).is_err() {
        // Without nonblocking accept the stop flag could never be observed;
        // refuse connections rather than strand the shutdown path.
        return;
    }
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
                continue;
            }
            // Other accept failures — an aborted handshake, or fd exhaustion
            // (EMFILE) that fails *instantly*: sleep here too, or the loop
            // would busy-spin a starved machine even harder.
            Err(_) => {
                thread::sleep(ACCEPT_POLL);
                continue;
            }
        };
        // The per-connection sockets do block (only the listener polls).
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        // Responses are small frames; leaving Nagle on would stall every
        // commit acknowledgment behind the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        // A peer that stops *reading* must not wedge its worker (and thereby
        // server shutdown) in a blocked send: bound every response write.
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        // Reap workers that already finished, so the registries stay
        // proportional to *live* connections.
        {
            let mut handles = lock_unpoisoned(&shared.conn_handles);
            let (done, live): (Vec<_>, Vec<_>) = handles.drain(..).partition(|h| h.is_finished());
            *handles = live;
            for h in done {
                let _ = h.join();
            }
        }
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        // Register the socket *before* the worker runs, so the worker's
        // deregistration can never race ahead of the registration. A
        // connection whose socket cannot be registered (fd exhaustion) is
        // refused outright: an unregistered worker could never be unblocked
        // at shutdown.
        match stream.try_clone() {
            Ok(clone) => {
                lock_unpoisoned(&shared.conn_streams).insert(conn_id, clone);
            }
            Err(_) => continue,
        }
        if let Some(m) = &shared.metrics {
            m.record_connection();
        }
        let worker = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("greedy-server-conn".into())
                .spawn(move || handle_connection(conn_id, stream, &shared))
        };
        match worker {
            Ok(handle) => lock_unpoisoned(&shared.conn_handles).push(handle),
            Err(_) => {
                lock_unpoisoned(&shared.conn_streams).remove(&conn_id);
            }
        }
    }
}

/// One connection's request loop: read a frame, dispatch, answer, repeat.
/// On exit the socket is shut down explicitly — the registry holds a clone
/// of the fd, so merely dropping our halves would leave the connection open
/// from the client's point of view.
fn handle_connection(conn_id: u64, stream: TcpStream, shared: &Shared) {
    connection_loop(&stream, shared);
    let _ = stream.shutdown(Shutdown::Both);
    lock_unpoisoned(&shared.conn_streams).remove(&conn_id);
}

fn connection_loop(stream: &TcpStream, shared: &Shared) {
    let (reader, writer) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(r), Ok(w)) => (r, w),
        _ => return,
    };
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(writer);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Clean close between frames, or the socket was shut down under
            // us during server exit.
            Ok(None) => return,
            Err(e) => {
                // Malformed framing: report and drop the connection — frame
                // boundaries are unrecoverable once the prefix is wrong.
                let _ = send(&mut writer, &Response::Error(format!("bad frame: {e}")));
                return;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                let _ = send(&mut writer, &Response::Error(format!("bad request: {e}")));
                return;
            }
        };
        if let Request::Subscribe { from } = request {
            // The connection switches to push-only: the subscriber loop owns
            // the writer until the client disconnects or the feed closes.
            run_subscriber(from, &mut writer, shared);
            return;
        }
        let is_shutdown = matches!(request, Request::Shutdown);
        let response = dispatch(request, shared);
        if send(&mut writer, &response).is_err() {
            return;
        }
        if is_shutdown {
            shared.trigger_shutdown();
            return;
        }
    }
}

/// Serves a subscribed connection: replays the ring backlog (or streams a
/// full snapshot when the subscriber is fresh or too far behind), then
/// forwards one [`Response::Delta`] per committed round until the client
/// disconnects or the feed closes at shutdown.
///
/// Liveness rules: the commit path only ever `try_send`s to this worker's
/// channel, so a subscriber stalled mid-write can never slow a round down —
/// its channel overflows, the feed flags it lagging, and this loop resyncs
/// it from the latest snapshot once it drains. A subscriber that went away
/// entirely fails its next write here (bounded by [`WRITE_TIMEOUT`]) and the
/// feed prunes its channel on the following publish.
fn run_subscriber(from: u64, writer: &mut BufWriter<TcpStream>, shared: &Shared) {
    let sub = match shared.feed.subscribe_from(from) {
        Some(sub) => sub,
        None => {
            let _ = send(writer, &Response::Error("server is shutting down".into()));
            return;
        }
    };
    // Round of the state the subscriber currently holds. `SUBSCRIBE_FRESH`
    // never reaches a forward: a fresh subscriber has no backlog, so the
    // snapshot branch below overwrites `last` before the first delta.
    let mut last = from;
    let mut need_snapshot = false;
    match &sub.backlog {
        Some(deltas) => {
            for delta in deltas {
                match forward_delta(writer, delta, &mut last) {
                    Ok(true) => {}
                    Ok(false) => {
                        need_snapshot = true;
                        break;
                    }
                    Err(_) => return,
                }
            }
        }
        None => need_snapshot = true,
    }
    loop {
        if need_snapshot {
            // Clear the lag flag *before* loading the snapshot: a flag set
            // after this point refers to a round the snapshot may predate,
            // so it must survive into the next iteration and resync again.
            sub.lagging.store(false, Ordering::SeqCst);
            let snap = shared.cell.load();
            if let Some(m) = &shared.metrics {
                m.record_feed_resync(snap.round);
            }
            for chunk in snapshot_chunks(snap.round, &snap.state) {
                if send(writer, &Response::Snapshot(chunk)).is_err() {
                    return;
                }
            }
            last = snap.round;
            need_snapshot = false;
        }
        let delta = match sub.receiver.recv() {
            // Feed closed at shutdown; every queued delta was drained first.
            Ok(d) => d,
            Err(_) => return,
        };
        if sub.lagging.swap(false, Ordering::SeqCst) {
            // The channel overflowed, so deltas were dropped somewhere at or
            // after this one: resync rather than hunt for the gap.
            need_snapshot = true;
            continue;
        }
        if delta.round <= last {
            // Stale leftovers from before a resync.
            continue;
        }
        match forward_delta(writer, &delta, &mut last) {
            Ok(true) => {}
            Ok(false) => need_snapshot = true,
            Err(_) => return,
        }
    }
}

/// Forwards one delta if it contiguously advances `last` and fits a wire
/// frame untruncated. `Ok(false)` means it cannot be forwarded (round gap,
/// or flip lists over the wire caps) and the caller must resync the
/// subscriber from a snapshot; `Err` means the connection is gone.
fn forward_delta(
    writer: &mut BufWriter<TcpStream>,
    delta: &FullDelta,
    last: &mut u64,
) -> io::Result<bool> {
    if delta.round != *last + 1 {
        return Ok(false);
    }
    let frame = delta.to_wire();
    if frame.truncated {
        return Ok(false);
    }
    send(writer, &Response::Delta(frame))?;
    *last = delta.round;
    Ok(true)
}

fn send(writer: &mut BufWriter<TcpStream>, response: &Response) -> io::Result<()> {
    write_frame(writer, &response.encode())?;
    writer.flush()
}

/// The exposition both `ServerHandle::metrics_text()` and the
/// [`Request::Metrics`] wire frame serve — one renderer, so the two can
/// never drift.
fn metrics_text(shared: &Shared) -> String {
    match &shared.metrics {
        Some(m) => m.render_text(),
        None => "# metrics disabled\n".to_string(),
    }
}

/// The newest `last_k` flight-recorder traces, oldest first — what both
/// `ServerHandle::trace` and the [`Request::Trace`] wire frame return.
/// `last_k` is clamped to what the recorder retains, so a lying client can
/// never size an allocation with it.
fn recent_rounds_tail(shared: &Shared, last_k: u64) -> Vec<RoundTrace> {
    let all = shared
        .metrics
        .as_deref()
        .map(ServerMetrics::recent_rounds)
        .unwrap_or_default();
    let take = usize::try_from(last_k).unwrap_or(usize::MAX).min(all.len());
    all[all.len() - take..].to_vec()
}

fn dispatch(request: Request, shared: &Shared) -> Response {
    match request {
        Request::InsertEdges(pairs) => submit_updates(shared, &pairs, true),
        Request::DeleteEdges(pairs) => submit_updates(shared, &pairs, false),
        // The two query arms time themselves into the registry; the Stats and
        // Metrics arms deliberately touch *no* instrument, so scraping the
        // registry never perturbs it (and a quiesced server answers
        // `Request::Metrics` byte-identically to `metrics_text()`).
        Request::QueryMis(vertices) => {
            let t0 = shared.metrics.as_ref().map(|_| Instant::now());
            let snap = shared.cell.load();
            let response = match check_vertices(&vertices, shared.num_vertices) {
                Some(err) => err,
                None => Response::MisMembership {
                    round: snap.round,
                    in_mis: vertices.iter().map(|&v| snap.state.in_mis(v)).collect(),
                },
            };
            if let (Some(m), Some(t0)) = (&shared.metrics, t0) {
                m.record_query(t0.elapsed().as_micros() as u64);
            }
            response
        }
        Request::QueryMatched(vertices) => {
            let t0 = shared.metrics.as_ref().map(|_| Instant::now());
            let snap = shared.cell.load();
            let response = match check_vertices(&vertices, shared.num_vertices) {
                Some(err) => err,
                None => Response::Matched {
                    round: snap.round,
                    partners: vertices
                        .iter()
                        .map(|&v| snap.state.partner_of(v).unwrap_or(u32::MAX))
                        .collect(),
                },
            };
            if let (Some(m), Some(t0)) = (&shared.metrics, t0) {
                m.record_query(t0.elapsed().as_micros() as u64);
            }
            response
        }
        Request::Stats => {
            let snap = shared.cell.load();
            let durable = shared.durable.load(Ordering::SeqCst);
            let mut reply = StatsReply {
                round: snap.round,
                durable_round: durable,
                // Without a WAL `durable` stays 0, which would make every
                // round look lost; lag is only meaningful against the rounds
                // a log claims to hold.
                durable_lag: if shared.wal.is_some() {
                    snap.round.saturating_sub(durable)
                } else {
                    0
                },
                num_vertices: snap.state.num_vertices() as u64,
                num_edges: snap.state.num_edges() as u64,
                mis_size: snap.state.mis_size() as u64,
                matching_size: snap.state.matching_size() as u64,
                batches: snap.stats.batches,
                edges_inserted: snap.stats.edges_inserted,
                edges_deleted: snap.stats.edges_deleted,
                subscribers: shared.feed.subscriber_count() as u64,
                resyncs: 0,
                commit_p50_us: 0,
                commit_p99_us: 0,
            };
            if let Some(m) = &shared.metrics {
                reply.resyncs = m.feed_resyncs();
                let commit = m.commit_total_us().snapshot();
                reply.commit_p50_us = commit.quantile(0.50);
                reply.commit_p99_us = commit.quantile(0.99);
            }
            Response::Stats(reply)
        }
        Request::Metrics => Response::Metrics(metrics_text(shared)),
        Request::Trace { last_k } => Response::Trace(recent_rounds_tail(shared, last_k)),
        Request::Shutdown => Response::ShuttingDown,
        // Handled by the connection loop before dispatch (it hijacks the
        // writer); kept here only for match exhaustiveness.
        Request::Subscribe { .. } => {
            Response::Error("subscribe must start a push connection".into())
        }
    }
}

/// Rejects oversized queries and out-of-range vertex ids with a domain
/// error (the connection stays usable); `None` means the query is valid.
fn check_vertices(vertices: &[u32], n: usize) -> Option<Response> {
    if vertices.len() > crate::protocol::MAX_QUERY_VERTICES {
        // Bounding the query bounds the response under the frame cap.
        return Some(Response::Error(format!(
            "query of {} vertices exceeds the {} cap",
            vertices.len(),
            crate::protocol::MAX_QUERY_VERTICES
        )));
    }
    vertices
        .iter()
        .find(|&&v| v as usize >= n)
        .map(|&v| Response::Error(format!("vertex {v} out of range for n={n}")))
}

/// Validates and stages a writer's updates, blocking until their round
/// commits.
fn submit_updates(shared: &Shared, pairs: &[(u32, u32)], insert: bool) -> Response {
    let n = shared.num_vertices;
    if let Some(&(u, v)) = pairs
        .iter()
        .find(|&&(u, v)| u as usize >= n || v as usize >= n)
    {
        // Domain error: the connection stays usable.
        return Response::Error(format!("edge ({u}, {v}) out of range for n={n}"));
    }
    let edges: Vec<Edge> = pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect();
    let staged = if insert {
        shared.scheduler.submit(edges, Vec::new())
    } else {
        shared.scheduler.submit(Vec::new(), edges)
    };
    match staged {
        Ok(delta) => Response::Committed(delta),
        Err(_) => Response::Error("server is shutting down".into()),
    }
}

// ------------------------------------------------------------------ client

/// A blocking typed client for the wire protocol. Used in-process by the
/// tests and the `serve_load` driver, and usable from any process that can
/// reach the socket.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Bounds how long any single call may wait for its response; writers
    /// otherwise block for as long as their round takes to commit.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    fn call(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, &request.encode())?;
        self.writer.flush()?;
        match read_frame(&mut self.reader)? {
            Some(payload) => Response::decode(&payload),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    fn unexpected(response: Response) -> io::Error {
        match response {
            Response::Error(msg) => io::Error::other(msg),
            other => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response {other:?}"),
            ),
        }
    }

    /// Stages insertions; blocks until their round commits.
    pub fn insert_edges(
        &mut self,
        pairs: &[(u32, u32)],
    ) -> io::Result<crate::protocol::RoundDelta> {
        match self.call(&Request::InsertEdges(pairs.to_vec()))? {
            Response::Committed(d) => Ok(d),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Stages deletions; blocks until their round commits.
    pub fn delete_edges(
        &mut self,
        pairs: &[(u32, u32)],
    ) -> io::Result<crate::protocol::RoundDelta> {
        match self.call(&Request::DeleteEdges(pairs.to_vec()))? {
            Response::Committed(d) => Ok(d),
            other => Err(Self::unexpected(other)),
        }
    }

    /// MIS membership of `vertices` from the published snapshot; returns the
    /// snapshot's round id and one bit per queried vertex.
    pub fn query_mis(&mut self, vertices: &[u32]) -> io::Result<(u64, Vec<bool>)> {
        match self.call(&Request::QueryMis(vertices.to_vec()))? {
            Response::MisMembership { round, in_mis } => Ok((round, in_mis)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Matched partners of `vertices` (`None` = unmatched) from the published
    /// snapshot, with its round id.
    pub fn query_matched(&mut self, vertices: &[u32]) -> io::Result<(u64, Vec<Option<u32>>)> {
        match self.call(&Request::QueryMatched(vertices.to_vec()))? {
            Response::Matched { round, partners } => Ok((
                round,
                partners
                    .into_iter()
                    .map(|p| (p != u32::MAX).then_some(p))
                    .collect(),
            )),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Server/engine counters from the published snapshot.
    pub fn stats(&mut self) -> io::Result<StatsReply> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(Self::unexpected(other)),
        }
    }

    /// The server's metrics text exposition (see
    /// `ServerHandle::metrics_text`). Scraping is read-only: it perturbs no
    /// counter, so on a quiesced server repeated calls return identical
    /// bytes.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(Self::unexpected(other)),
        }
    }

    /// The newest `last_k` flight-recorder round timelines, oldest first
    /// (see `ServerHandle::trace`). The server clamps `last_k` to what its
    /// recorder retains, so asking for `u64::MAX` means "everything".
    pub fn trace(&mut self, last_k: u64) -> io::Result<Vec<RoundTrace>> {
        match self.call(&Request::Trace { last_k })? {
            Response::Trace(traces) => Ok(traces),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Asks the server to shut down (staged updates still commit).
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Turns this connection into a push-style subscription with no base
    /// state: the server streams a full snapshot, then one delta per
    /// committed round. Consumes the client — a subscribed connection
    /// carries no further requests.
    pub fn subscribe_fresh(self) -> io::Result<Subscriber> {
        self.subscribe(crate::protocol::SUBSCRIBE_FRESH, None)
    }

    /// Subscribes with `base` as the state already held: the server replays
    /// the missing rounds from its delta ring when they are still buffered,
    /// and falls back to a full snapshot stream when the base is too far
    /// behind.
    pub fn subscribe_from(self, base: ReplicaState) -> io::Result<Subscriber> {
        let from = base.round();
        self.subscribe(from, Some(base))
    }

    fn subscribe(mut self, from: u64, replica: Option<ReplicaState>) -> io::Result<Subscriber> {
        write_frame(&mut self.writer, &Request::Subscribe { from }.encode())?;
        self.writer.flush()?;
        Ok(Subscriber {
            reader: self.reader,
            replica,
            resyncs: 0,
        })
    }
}

/// The receiving end of a subscribed connection: folds the server's pushed
/// delta frames (and, on resync, snapshot chunk streams) into a
/// [`ReplicaState`] that tracks the published state round by round.
pub struct Subscriber {
    reader: BufReader<TcpStream>,
    replica: Option<ReplicaState>,
    resyncs: u64,
}

impl Subscriber {
    /// The reconstructed state, once the first delta or snapshot arrived.
    pub fn state(&self) -> Option<&ReplicaState> {
        self.replica.as_ref()
    }

    /// Full-snapshot resyncs absorbed so far (0 for a subscriber that only
    /// ever folded deltas).
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Bounds how long [`Subscriber::next_round`] may block.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Blocks until the replica advances — one folded delta, or a completed
    /// snapshot stream (counted in [`Subscriber::resyncs`]). `Ok(None)`
    /// means the server closed the feed (shutdown) after delivering every
    /// committed round. A truncated delta or a round gap is a protocol
    /// violation here — the server resyncs instead of sending either — and
    /// fails with `InvalidData` rather than silently diverging.
    pub fn next_round(&mut self) -> io::Result<Option<&ReplicaState>> {
        let mut assembler: Option<SnapshotAssembler> = None;
        loop {
            let payload = match read_frame(&mut self.reader)? {
                Some(p) => p,
                None => return Ok(None),
            };
            match Response::decode(&payload)? {
                Response::Delta(frame) => {
                    if assembler.is_some() {
                        return Err(invalid("delta frame inside a snapshot stream"));
                    }
                    let replica = self
                        .replica
                        .as_mut()
                        .ok_or_else(|| invalid("delta frame before any snapshot"))?;
                    replica.fold(&frame).map_err(|e| invalid(e.to_string()))?;
                    return Ok(self.replica.as_ref());
                }
                Response::Snapshot(chunk) => {
                    let asm = assembler.get_or_insert_with(SnapshotAssembler::new);
                    if let Some(state) = asm.push(chunk).map_err(invalid)? {
                        self.replica = Some(state);
                        self.resyncs += 1;
                        return Ok(self.replica.as_ref());
                    }
                }
                Response::Error(msg) => return Err(io::Error::other(msg)),
                other => return Err(invalid(format!("unexpected response {other:?}"))),
            }
        }
    }
}

fn invalid<S: Into<String>>(msg: S) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}
