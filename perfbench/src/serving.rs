//! The serving workloads: `serve_bulk` (4,096-update writer calls, each
//! followed by a burst of reader queries, no WAL) and `serve_durable`
//! (64-update writer calls beside a delta-stream subscriber, per-round fsync
//! WAL). Both serve the single-arena `Engine` over real TCP with two
//! connections.
//!
//! Thread placement is fixed, so that a run measures the server rather than
//! where the scheduler happened to put its threads: the client threads and
//! the server's connection threads share one CPU, so every request and reply
//! hands over on that CPU, and the engine thread, with the workers its
//! parallel repair starts, may run on every CPU.

use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use greedy_engine::prelude::{EdgeBatch, Engine};
use greedy_graph::csr::Graph;
use greedy_graph::gen::random::random_edge_list;
use greedy_obs::HistogramSnapshot;
use greedy_prims::random::hash64;
use greedy_server::prelude::{
    serve, Client, CommittedRound, DeltaFeed, FsyncPolicy, FullDelta, PublishedSnapshot,
    ReplicaState, RoundConfig, ServerConfig, ServerHandle, ServerMetrics, SnapshotCell, Subscriber,
    Wal, WalConfig,
};
use greedy_server::wal::{list_segments, recover, segment_file};

use crate::host::{
    allowed_cpus, cpu_s, peak_rss_mib, pin_thread, threads_named, CpuClock, Lap, Probe, WindowCost,
};
use crate::reference::Reference;
use crate::report::{Json, RunDir, RunResult};
use crate::stats::{median, HistWindow, Reservoir, Samples, Tally, P50, P99, P999};
use crate::trace::SpanLog;
use crate::RunConfig;

/// Vertices and edges of the served graph.
const N: usize = 100_000;
const M: usize = 500_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Client traffic before the window opens, excluded from every metric.
const WARMUP: Duration = Duration::from_secs(2);
/// Connections of every serving workload: the writer's and the reader's or
/// subscriber's.
const CONNECTIONS: usize = 2;
const QUERY_VERTICES: u64 = 32;
/// Reader queries after each bulk writer call: about as long as the call.
const QUERY_BURST: usize = 1024;
/// The server's engine thread (thread names keep their first 15 bytes).
const ENGINE_THREAD: &str = "greedy-server-engine";
/// WAL cadence of `serve_durable`.
const SEGMENT_ROUNDS: u64 = 256;
const CHECKPOINT_EVERY: u64 = 512;
/// `serve_durable` must see at least this many checkpoints and segment
/// rotations in every window.
const MIN_WAL_EVENTS: u64 = 3;
/// How often the coordinator lists the WAL directory for new segments.
const WAL_POLL: Duration = Duration::from_millis(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Bulk,
    Durable,
}

impl Mode {
    /// Updates per writer call. 4,096 is `RoundConfig::max_batch_updates`,
    /// so a bulk call flushes its round at once; 64 waits out the delay
    /// window.
    fn batch(self) -> usize {
        match self {
            Mode::Bulk => RoundConfig::default().max_batch_updates,
            Mode::Durable => 64,
        }
    }

    /// Writer calls the traced run records and replays: enough for several
    /// checkpoints at the durable cadence, few enough that the recorded
    /// snapshots stay a few hundred MiB.
    fn capture_calls(self) -> usize {
        match self {
            Mode::Bulk => 400,
            Mode::Durable => 3 * CHECKPOINT_EVERY as usize,
        }
    }

    /// Client threads: the bulk writer sends the reader's bursts itself; the
    /// durable subscriber follows the stream on a thread of its own.
    fn client_threads(self) -> usize {
        match self {
            Mode::Bulk => 1,
            Mode::Durable => 2,
        }
    }

    /// Writer calls per run of the host-speed reference. A bulk call takes
    /// several times as long as the reference loop; a durable call about as
    /// long, and runs every eighth keep the commit rate high enough for the
    /// WAL regime checks.
    fn ref_every(self) -> usize {
        match self {
            Mode::Bulk => 1,
            Mode::Durable => 8,
        }
    }

    /// Distinct batches the writer cycles through.
    fn pool(self) -> usize {
        match self {
            Mode::Bulk => 64,
            Mode::Durable => 512,
        }
    }
}

/// One writer call: sent at `lap.start`, acknowledged at `lap.end`, and the
/// round the ack named.
#[derive(Debug, Clone, Copy)]
struct Call {
    lap: Lap,
    round: u64,
    updates: u64,
}

/// Where the serving threads run: `home` for the client and connection
/// threads, `all` for the engine thread.
#[derive(Debug, Clone)]
struct Placement {
    home: usize,
    all: Vec<usize>,
}

impl Placement {
    fn new() -> io::Result<Self> {
        let all = allowed_cpus()?;
        Ok(Self { home: all[0], all })
    }

    /// Starts a server whose connection threads stay on `home` and whose
    /// engine thread may use every CPU. Threads inherit the affinity of the
    /// thread that starts them: the acceptor, started while this thread is
    /// pinned, starts the connection threads.
    fn serve(&self, engine: Engine, config: ServerConfig) -> io::Result<ServerHandle> {
        pin_thread(0, &[self.home])?;
        let served = serve(engine, config);
        pin_thread(0, &self.all)?;
        let handle = served?;
        // A thread takes its name once it runs, which may be after `serve`
        // returns.
        let named = Instant::now();
        loop {
            match threads_named(ENGINE_THREAD)?.as_slice() {
                [engine] => {
                    pin_thread(*engine, &self.all)?;
                    return Ok(handle);
                }
                [] if named.elapsed() < Duration::from_secs(5) => {
                    thread::sleep(Duration::from_millis(1))
                }
                other => {
                    return Err(io::Error::other(format!(
                        "expected one {ENGINE_THREAD} thread, found {}",
                        other.len()
                    )))
                }
            }
        }
    }

    /// Pins the calling client thread to `home`, recording a failure.
    fn pin_client(&self, tally: &mut Tally) {
        if let Err(e) = pin_thread(0, &[self.home]) {
            tally.fail(format!(
                "cannot pin a client thread to CPU {}: {e}",
                self.home
            ));
        }
    }
}

/// The other client: a reader or a delta-stream subscriber.
enum Side {
    Reader(Client),
    Subscriber(Subscriber),
}

struct Served {
    handle: ServerHandle,
    writer: Client,
    side: Side,
}

/// Set-up timings of one set-up, in seconds.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    /// CPU time of the whole process over the set-up: what `setup_s`
    /// reports, as it leaves out what the hypervisor steals (see README.md).
    cpu: f64,
    /// Wall time of the whole set-up.
    total: f64,
    edge_list: f64,
    csr: f64,
    from_graph: f64,
}

/// Builds the graph, the engine, the server (and its WAL) and connects both
/// clients: everything before the first timed call.
fn set_up(
    mode: Mode,
    place: &Placement,
    seed: u64,
    wal_dir: Option<&Path>,
    record_rounds: bool,
    log: &mut SpanLog,
    request: u64,
) -> io::Result<(Served, Graph, SetupTimes)> {
    let root = log.reserve();
    let cpu0 = cpu_s(CpuClock::Process);
    let t0 = Instant::now();
    let edges = random_edge_list(N, M, seed);
    let t1 = Instant::now();
    let graph = Graph::from_edge_list(&edges);
    let t2 = Instant::now();
    let engine = Engine::from_graph(&graph, seed);
    let t3 = Instant::now();
    let config = ServerConfig {
        record_rounds,
        wal: wal_dir.map(|dir| WalConfig {
            segment_rounds: SEGMENT_ROUNDS,
            checkpoint_every: CHECKPOINT_EVERY,
            ..WalConfig::durable(dir)
        }),
        ..ServerConfig::default()
    };
    let handle = place.serve(engine, config)?;
    let t4 = Instant::now();
    let writer = Client::connect(handle.addr())?;
    let side = match mode {
        Mode::Bulk => Side::Reader(Client::connect(handle.addr())?),
        Mode::Durable => {
            let mut sub = Client::connect(handle.addr())?.subscribe_fresh()?;
            // Connected means holding the base state.
            sub.next_round()?;
            Side::Subscriber(sub)
        }
    };
    let t5 = Instant::now();
    let cpu = cpu_s(CpuClock::Process) - cpu0;
    log.record("graph.edge_list", Some(root), request, t0, t1);
    log.record("graph.csr_build", Some(root), request, t1, t2);
    log.record("engine.from_graph", Some(root), request, t2, t3);
    log.record("serve.start", Some(root), request, t3, t4);
    log.record("client.connect", Some(root), request, t4, t5);
    log.record_reserved(root, "setup", None, request, t0, t5);
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok((
        Served {
            handle,
            writer,
            side,
        },
        graph,
        SetupTimes {
            cpu,
            total: secs(t0, t5),
            edge_list: secs(t0, t1),
            csr: secs(t1, t2),
            from_graph: secs(t2, t3),
        },
    ))
}

/// Writer batches: distinct hashed pairs absent from the base graph, so every
/// insert call inserts exactly its batch and the matching delete call
/// removes exactly it again.
fn writer_batches(graph: &Graph, seed: u64, mode: Mode) -> Vec<Vec<(u32, u32)>> {
    let n = graph.num_vertices() as u64;
    (0..mode.pool() as u64)
        .map(|k| {
            let mut seen = HashSet::new();
            let mut batch = Vec::with_capacity(mode.batch());
            let mut i = 0u64;
            while batch.len() < mode.batch() {
                let key = hash64(seed ^ 0xB47C_4000, k << 32 | i);
                i += 1;
                let u = (hash64(key, 1) % n) as u32;
                let v = (hash64(key, 2) % n) as u32;
                if u == v || graph.has_edge(u, v) || !seen.insert((u.min(v), u.max(v))) {
                    continue;
                }
                batch.push((u, v));
            }
            batch
        })
        .collect()
}

/// Closed loop: insert a batch, delete the same batch, next batch, until
/// `stop` is set or `max_calls` calls are done; stops only after a delete,
/// so the served graph ends equal to the base graph. `between` runs after
/// every call and stops the loop by returning false.
fn run_writer(
    mut client: Client,
    batches: &[Vec<(u32, u32)>],
    stop: &AtomicBool,
    max_calls: usize,
    mut log: SpanLog,
    mut between: impl FnMut() -> bool,
) -> (Vec<Call>, Tally, SpanLog) {
    let mut calls = Vec::new();
    let mut tally = Tally::default();
    let mut k = 0usize;
    'outer: while !stop.load(Ordering::Relaxed) && calls.len() < max_calls {
        let batch = &batches[k % batches.len()];
        for insert in [true, false] {
            let (result, lap) = Lap::time(|| {
                if insert {
                    client.insert_edges(batch)
                } else {
                    client.delete_edges(batch)
                }
            });
            let name = if insert {
                "client.insert"
            } else {
                "client.delete"
            };
            match result {
                Ok(d) => {
                    log.record(name, None, d.round, lap.start, lap.end);
                    let applied = if insert { d.inserted } else { d.deleted };
                    tally.check(applied == batch.len() as u64 && !d.truncated, || {
                        format!(
                            "round {}: {name} of {} edges applied {applied}",
                            d.round,
                            batch.len()
                        )
                    });
                    calls.push(Call {
                        lap,
                        round: d.round,
                        updates: batch.len() as u64,
                    });
                }
                Err(e) => {
                    tally.fail(format!("{name} failed: {e}"));
                    break 'outer;
                }
            }
            if !between() {
                break 'outer;
            }
        }
        k += 1;
    }
    (calls, tally, log)
}

/// The measurement window as the client threads see it, in nanoseconds
/// since the run's epoch (`u64::MAX` until opened or closed).
struct WindowClock {
    epoch: Instant,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl WindowClock {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            start_ns: AtomicU64::new(u64::MAX),
            end_ns: AtomicU64::new(u64::MAX),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open(&self) -> Instant {
        let t = Instant::now();
        self.start_ns.store(self.ns(t), Ordering::SeqCst);
        t
    }

    fn close(&self) -> Instant {
        let t = Instant::now();
        self.end_ns.store(self.ns(t), Ordering::SeqCst);
        t
    }

    fn contains(&self, t: Instant) -> bool {
        let n = self.ns(t);
        n >= self.start_ns.load(Ordering::SeqCst) && n < self.end_ns.load(Ordering::SeqCst)
    }
}

/// Reader latencies kept per run: a uniform sample, so the benchmark's own
/// memory stays flat however fast the server answers.
const READER_SAMPLES: usize = 100_000;

/// What the second connection saw: a reader's sampled window latencies,
/// window completions and CPU time per query of each window burst, or a
/// subscriber's `(round, fold instant)` per step, the CPU time of its thread
/// per window step, and its final replica.
struct SideOut {
    queries: Reservoir,
    queries_done: u64,
    cpu: Samples,
    folds: Vec<(u64, Instant)>,
    state: Option<ReplicaState>,
    resyncs: u64,
    tally: Tally,
    log: SpanLog,
}

impl SideOut {
    fn new(log: SpanLog, seed: u64) -> Self {
        Self {
            queries: Reservoir::new(READER_SAMPLES, seed),
            queries_done: 0,
            cpu: Samples::new(),
            folds: Vec::new(),
            state: None,
            resyncs: 0,
            tally: Tally::default(),
            log,
        }
    }
}

/// The host-speed reference, run on the writer's thread after every
/// `every`-th call; keeps the CPU time of the runs that start in the window.
struct RefRuns<'a> {
    reference: Reference,
    every: usize,
    calls: usize,
    clock: &'a WindowClock,
    cpu: Samples,
}

impl<'a> RefRuns<'a> {
    fn new(every: usize, clock: &'a WindowClock) -> Self {
        Self {
            reference: Reference::new(N, M),
            every,
            calls: 0,
            clock,
            cpu: Samples::new(),
        }
    }

    fn after_call(&mut self) {
        self.calls += 1;
        if self.calls.is_multiple_of(self.every) {
            let start = Instant::now();
            let t = self.reference.time();
            if self.clock.contains(start) {
                self.cpu.push(t);
            }
        }
    }
}

/// The bulk workload's reader: 32-vertex queries, alternating MIS
/// membership and matched partners, sent one at a time in bursts between the
/// writer's calls.
struct Reader<'a> {
    client: Client,
    seed: u64,
    clock: &'a WindowClock,
    next: u64,
    last_round: u64,
    out: SideOut,
}

impl<'a> Reader<'a> {
    fn new(client: Client, seed: u64, clock: &'a WindowClock, log: SpanLog) -> Self {
        Self {
            client,
            seed,
            clock,
            next: 0,
            last_round: 0,
            out: SideOut::new(log, seed),
        }
    }

    /// Sends [`QUERY_BURST`] queries; false once one has failed. Nothing
    /// else runs meanwhile, so the process's CPU time over the burst is the
    /// queries' own, client and server side.
    fn burst(&mut self) -> bool {
        let begin = Instant::now();
        let cpu0 = cpu_s(CpuClock::Process);
        for _ in 0..QUERY_BURST {
            let i = self.next;
            self.next += 1;
            let vertices: Vec<u32> = (0..QUERY_VERTICES)
                .map(|j| {
                    (hash64(self.seed ^ 0x5EAD_0000, i * QUERY_VERTICES + j) % N as u64) as u32
                })
                .collect();
            let mis = i.is_multiple_of(2);
            let send = Instant::now();
            let result = if mis {
                self.client
                    .query_mis(&vertices)
                    .map(|(r, bits)| (r, bits.len()))
            } else {
                self.client
                    .query_matched(&vertices)
                    .map(|(r, p)| (r, p.len()))
            };
            let reply = Instant::now();
            let name = if mis {
                "client.query_mis"
            } else {
                "client.query_matched"
            };
            let out = &mut self.out;
            match result {
                Ok((round, len)) => {
                    out.log.record(name, None, i, send, reply);
                    // One connection never sees its snapshots move backwards.
                    let last = self.last_round;
                    out.tally.check(len == vertices.len() && round >= last, || {
                        format!("{name}: {len} answers at round {round} after round {last}")
                    });
                    self.last_round = round;
                    if self.clock.contains(send) {
                        out.queries.offer(micros(send, reply));
                    }
                    if self.clock.contains(reply) {
                        out.queries_done += 1;
                    }
                }
                Err(e) => {
                    out.tally.fail(format!("{name} failed: {e}"));
                    return false;
                }
            }
        }
        if self.clock.contains(begin) {
            let cpu = cpu_s(CpuClock::Process) - cpu0;
            self.out.cpu.push(cpu / QUERY_BURST as f64);
        }
        true
    }
}

/// Follows the delta stream until the server closes it at shutdown.
fn run_subscriber(mut sub: Subscriber, clock: &WindowClock, log: SpanLog) -> SideOut {
    let mut out = SideOut::new(log, 0);
    loop {
        let start = Instant::now();
        let cpu0 = cpu_s(CpuClock::Thread);
        match sub.next_round() {
            Ok(Some(state)) => {
                let round = state.round();
                let at = Instant::now();
                out.log.record("client.next_round", None, round, start, at);
                out.folds.push((round, at));
                if clock.contains(at) {
                    out.cpu.push(cpu_s(CpuClock::Thread) - cpu0);
                }
            }
            Ok(None) => {
                out.tally.ok();
                break;
            }
            Err(e) => {
                out.tally.fail(format!("subscriber stream failed: {e}"));
                break;
            }
        }
    }
    out.state = sub.state().cloned();
    out.resyncs = sub.resyncs();
    out
}

/// The server instruments a window reads, at one instant.
struct RegistryView {
    stage_wait: HistogramSnapshot,
    commit_total: HistogramSnapshot,
    batch_updates: HistogramSnapshot,
    query: HistogramSnapshot,
    checkpoints: u64,
}

impl RegistryView {
    fn read(handle: &ServerHandle) -> Self {
        let m: &ServerMetrics = handle
            .metrics()
            .expect("the default server config keeps metrics on");
        let r = m.registry();
        Self {
            stage_wait: r.histogram("server_commit_stage_wait_us").snapshot(),
            commit_total: r.histogram("server_commit_total_us").snapshot(),
            batch_updates: r.histogram("server_commit_batch_updates").snapshot(),
            query: r.histogram("server_query_us").snapshot(),
            checkpoints: r.counter("server_wal_checkpoints_total").get(),
        }
    }
}

/// What the server and host counted between the window's two ends.
struct Window {
    secs: f64,
    before: RegistryView,
    after: RegistryView,
    cost: WindowCost,
    rss_mib: f64,
    rotations: u64,
}

fn micros(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64 / 1e3
}

/// Sets up, runs the clients through the warm-up and the window, shuts down,
/// checks every gate, and (traced) replays the recorded rounds.
pub fn run(cfg: &RunConfig, mode: Mode) -> io::Result<RunResult> {
    let epoch = Instant::now();
    let mut res = RunResult::default();
    let mut log = SpanLog::new(cfg.trace, epoch, 0);
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    let client_threads = mode.client_threads();
    res.tally
        .check(client_threads <= nproc && CONNECTIONS <= nproc, || {
            format!("{client_threads} client threads and {CONNECTIONS} connections exceed nproc = {nproc}")
        });
    let place = Placement::new()?;
    let run_dir = RunDir::create_in(&crate::report::bench_dir().join("scratch"))?;

    let mut setups = Vec::new();
    let mut kept: Option<(Served, Graph, Option<std::path::PathBuf>)> = None;
    for i in 0..SETUPS {
        if let Some((served, _, wal_dir)) = kept.take() {
            drop((served.writer, served.side));
            let _ = served.handle.shutdown();
            if let Some(dir) = wal_dir {
                std::fs::remove_dir_all(dir)?;
            }
        }
        // A durable server gets a directory of its own or the run fails: it
        // never falls back to serving without a WAL.
        let wal_dir = match mode {
            Mode::Durable => Some(run_dir.subdir(&format!("wal-{i}"))?),
            Mode::Bulk => None,
        };
        let (served, graph, t) = set_up(
            mode,
            &place,
            cfg.seed,
            wal_dir.as_deref(),
            false,
            &mut log,
            i as u64,
        )?;
        setups.push(t);
        kept = Some((served, graph, wal_dir));
    }
    let (served, graph, wal_dir) = kept.expect("SETUPS > 0");
    let Served {
        handle,
        writer,
        side,
    } = served;
    let t_setup = epoch.elapsed().as_secs_f64();
    let batches = writer_batches(&graph, cfg.seed, mode);
    let stop = AtomicBool::new(false);
    let clock = WindowClock::new(epoch);
    let window_len = Duration::from_secs(cfg.seconds);

    let (calls, writer_tally, writer_log, side, ref_cpu, last, report, win) =
        thread::scope(|s| -> io::Result<_> {
            let (reader, subscriber) = match side {
                Side::Reader(c) => (Some(c), None),
                Side::Subscriber(sub) => (None, Some(sub)),
            };
            let writer_thread = {
                let (stop, batches, clock, place, seed) =
                    (&stop, &batches, &clock, &place, cfg.seed);
                let wlog = SpanLog::new(cfg.trace, epoch, 1);
                let rlog = SpanLog::new(cfg.trace, epoch, 2);
                s.spawn(move || {
                    let mut pinned = Tally::default();
                    place.pin_client(&mut pinned);
                    let mut refs = RefRuns::new(mode.ref_every(), clock);
                    let (calls, mut tally, log, side) = match reader {
                        Some(c) => {
                            let mut reader = Reader::new(c, seed, clock, rlog);
                            let (calls, tally, log) =
                                run_writer(writer, batches, stop, usize::MAX, wlog, || {
                                    refs.after_call();
                                    reader.burst()
                                });
                            (calls, tally, log, Some(reader.out))
                        }
                        None => {
                            let (calls, tally, log) =
                                run_writer(writer, batches, stop, usize::MAX, wlog, || {
                                    refs.after_call();
                                    true
                                });
                            (calls, tally, log, None)
                        }
                    };
                    tally.absorb(pinned);
                    (calls, tally, log, side, refs.cpu)
                })
            };
            let subscriber_thread = subscriber.map(|sub| {
                let (place, clock) = (&place, &clock);
                let slog = SpanLog::new(cfg.trace, epoch, 2);
                s.spawn(move || {
                    let mut pinned = Tally::default();
                    place.pin_client(&mut pinned);
                    let mut out = run_subscriber(sub, clock, slog);
                    out.tally.absorb(pinned);
                    out
                })
            });
            // Any early return drops `handle`, which shuts the server down
            // and so ends every client thread before the scope joins them.
            thread::sleep(WARMUP);
            let before = RegistryView::read(&handle);
            let probe0 = Probe::now()?;
            let start = clock.open();
            let mut rotations = 0;
            match &wal_dir {
                Some(dir) => {
                    let mut seen: HashSet<u64> = list_segments(dir)?.into_iter().collect();
                    while start.elapsed() < window_len {
                        thread::sleep(WAL_POLL.min(window_len.saturating_sub(start.elapsed())));
                        for seg in list_segments(dir)? {
                            if seen.insert(seg) {
                                rotations += 1;
                            }
                        }
                    }
                }
                None => thread::sleep(window_len),
            }
            let end = clock.close();
            stop.store(true, Ordering::Relaxed);
            let probe1 = Probe::now()?;
            let after = RegistryView::read(&handle);
            let rss_mib = peak_rss_mib()?;
            let (calls, writer_tally, writer_log, reader_out, ref_cpu) =
                writer_thread.join().expect("writer thread panicked");
            let last = handle.snapshot();
            // A subscriber stops when shutdown closes the feed, after it has
            // received every committed round.
            let report = handle.shutdown();
            let side = match subscriber_thread {
                Some(t) => t.join().expect("subscriber thread panicked"),
                None => reader_out.expect("a bulk run has a reader"),
            };
            let win = Window {
                secs: end.duration_since(start).as_secs_f64(),
                before,
                after,
                cost: WindowCost::between(&probe0, &probe1),
                rss_mib,
                rotations,
            };
            Ok((
                calls,
                writer_tally,
                writer_log,
                side,
                ref_cpu,
                last,
                report,
                win,
            ))
        })?;
    let t_traffic = epoch.elapsed().as_secs_f64();
    res.tally.absorb(writer_tally);
    res.tally.absorb(side.tally);
    log.absorb(writer_log);
    log.absorb(side.log);

    // ---- correctness gates
    let gates = &mut res.tally;
    let first_round = calls.first().map_or(0, |c| c.round);
    gates.check(
        first_round == 1 && calls.windows(2).all(|w| w[1].round == w[0].round + 1),
        || "writer calls did not each commit a round of their own".into(),
    );
    let b = mode.batch() as u64;
    let per_round = &win.after.batch_updates;
    gates.check(per_round.min == b && per_round.max == b, || {
        format!(
            "rounds held {}..={} updates, not {b}",
            per_round.min, per_round.max
        )
    });
    let fresh = Engine::from_graph(&graph, cfg.seed).server_snapshot();
    gates.check(
        report.engine.server_snapshot() == fresh && last.state == fresh,
        || "final served state differs from Engine::from_graph on the final edge list".into(),
    );
    if mode == Mode::Durable {
        gates.check(
            side.state
                .as_ref()
                .is_some_and(|s| s.round() == last.round && s.to_snapshot() == last.state),
            || "subscriber's final folded state differs from the final snapshot".into(),
        );
        let dir = wal_dir.as_deref().expect("durable runs have a WAL");
        match recover(dir) {
            Ok(Some(rec)) => gates.check(
                rec.round == last.round && rec.engine.server_snapshot() == last.state,
                || {
                    format!(
                        "WAL recovery reached round {} with a different state",
                        rec.round
                    )
                },
            ),
            Ok(None) => gates.fail("WAL directory held nothing to recover"),
            Err(e) => gates.fail(format!("WAL recovery failed: {e}")),
        }
        let checkpoints = win.after.checkpoints - win.before.checkpoints;
        gates.check(
            checkpoints >= MIN_WAL_EVENTS && win.rotations >= MIN_WAL_EVENTS,
            || {
                format!(
                    "window saw {checkpoints} checkpoints and {} segment rotations (need {MIN_WAL_EVENTS} each)",
                    win.rotations
                )
            },
        );
    }

    let t_gates = epoch.elapsed().as_secs_f64();
    // ---- end-to-end metrics
    let win_s = win.secs;
    let (mut commit, mut commit_cpu) = (Samples::new(), Samples::new());
    let mut acked = 0u64;
    for c in &calls {
        if clock.contains(c.lap.start) {
            commit.push(c.lap.wall_s());
            commit_cpu.push(c.lap.cpu_s);
        }
        if clock.contains(c.lap.end) {
            acked += c.updates;
        }
    }
    let mut side_lat = Samples::new();
    let mut side_done = side.queries_done;
    let mut after_ack = Samples::new();
    match mode {
        Mode::Bulk => {
            res.meta("reader_calls_in_window", Json::Int(side.queries.seen()));
            side_lat = side.queries.clone().into_samples();
        }
        Mode::Durable => {
            // Feed latency: writer send until the subscriber holds the acked
            // round (the first fold at or past it, should a resync skip it).
            for c in calls.iter().filter(|c| clock.contains(c.lap.start)) {
                let i = side.folds.partition_point(|&(r, _)| r < c.round);
                match side.folds.get(i) {
                    Some(&(_, end)) => {
                        side_lat.push(micros(c.lap.start, end));
                        after_ack.push(micros(c.lap.end, end));
                    }
                    None => res
                        .tally
                        .fail(format!("round {} never reached the subscriber", c.round)),
                }
            }
            side_done = side.folds.iter().filter(|f| clock.contains(f.1)).count() as u64;
        }
    }
    // CPU time in units of the host-speed reference's, from the same window.
    let med = |s: &Samples| s.percentile(P50).map(|p| p.value);
    if let Some(r) = med(&ref_cpu) {
        if let Some(c) = med(&commit_cpu) {
            res.e2e.insert("main_cpu_ref", c / r);
        }
        if let Some(c) = med(&side.cpu) {
            res.e2e.insert("side_cpu_ref", c / r);
        }
    }
    res.e2e
        .insert("setup_s", median(setups.iter().map(|t| t.cpu).collect()));
    res.e2e.insert("peak_rss_mb", win.rss_mib);

    // The per-workload figures, each percentile with its sample count. Wall
    // times, tails and rates swing with the host's steal and speed far more
    // than the reference ratios do, so they are reported here, not gated.
    res.meta("updates_per_s", Json::Num(acked as f64 / win_s));
    res.meta("commit_p50_us", commit.summary(P50, 1e6));
    res.meta("commit_p99_us", commit.summary(P99, 1e6));
    res.meta("commit_cpu_us", commit_cpu.summary(P50, 1e6));
    res.meta("ref_cpu_us", ref_cpu.summary(P50, 1e6));
    match mode {
        Mode::Bulk => {
            res.meta("queries_per_s", Json::Num(side_done as f64 / win_s));
            res.meta("query_p50_us", side_lat.summary(P50, 1.0));
            res.meta("query_p999_us", side_lat.summary(P999, 1.0));
            res.meta("query_cpu_us", side.cpu.summary(P50, 1e6));
        }
        Mode::Durable => {
            res.meta("rounds_folded_per_s", Json::Num(side_done as f64 / win_s));
            res.meta("feed_p50_us", side_lat.summary(P50, 1.0));
            res.meta("feed_p99_us", side_lat.summary(P99, 1.0));
            res.meta("fold_cpu_us", side.cpu.summary(P50, 1e6));
        }
    }
    res.meta("window_s", Json::Num(win_s));
    res.meta("setups", Json::Int(setups.len() as u64));
    res.meta(
        "setup_wall_s",
        Json::Num(median(setups.iter().map(|t| t.total).collect())),
    );
    res.meta("writer_calls_in_window", Json::Int(commit.len() as u64));
    res.meta("updates_per_call", Json::Int(b));
    res.meta("client_threads", Json::Int(client_threads as u64));
    res.meta("connections", Json::Int(CONNECTIONS as u64));
    res.meta(
        "placement",
        Json::obj([
            ("clients_and_connections_cpu", Json::Int(place.home as u64)),
            ("engine_cpus", Json::Int(place.all.len() as u64)),
        ]),
    );
    res.meta("host.steal_frac", Json::Num(win.cost.steal_frac));
    res.meta("proc.cpu_user_s", Json::Num(win.cost.cpu_user_s));
    res.meta("proc.cpu_sys_s", Json::Num(win.cost.cpu_sys_s));

    // ---- per-layer metrics (traced runs)
    if cfg.trace {
        let layers = &mut res.layers;
        let pick = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
        layers.insert("graph.edge_list_s", pick(|t| t.edge_list));
        layers.insert("graph.csr_build_s", pick(|t| t.csr));
        layers.insert("engine.from_graph_s", pick(|t| t.from_graph));
        let hist = |f: fn(&RegistryView) -> &HistogramSnapshot| {
            HistWindow::between(f(&win.before), f(&win.after))
        };
        let stage = hist(|v| &v.stage_wait);
        let total = hist(|v| &v.commit_total);
        let per_round = hist(|v| &v.batch_updates);
        let query = hist(|v| &v.query);
        // An instrument that counted nothing in the window leaves its
        // metrics unmeasured, which fails the run.
        let mut windows = vec![
            ("rounds.stage_wait_us.p50", &stage, P50),
            ("rounds.stage_wait_us.p99", &stage, P99),
            ("rounds.commit_us.p50", &total, P50),
            ("rounds.commit_us.p99", &total, P99),
        ];
        if mode == Mode::Bulk {
            windows.push(("serve.query_us.p50", &query, P50));
            windows.push(("serve.query_us.p999", &query, P999));
        }
        for (name, w, pm) in windows {
            if w.count > 0 {
                layers.insert(name, w.percentile(pm));
            }
        }
        if per_round.count > 0 {
            layers.insert("rounds.updates_per_round", per_round.mean());
        }
        if mode == Mode::Durable {
            layers.insert(
                "wal.checkpoints",
                (win.after.checkpoints - win.before.checkpoints) as f64,
            );
            if let Some(p) = after_ack.percentile(P50) {
                layers.insert("feed.after_ack_us.p50", p.value);
            }
            if let Some(p) = after_ack.percentile(P99) {
                layers.insert("feed.after_ack_us.p99", p.value);
            }
            // The stream starts with one snapshot; any further one is a
            // resync.
            layers.insert("feed.resyncs", side.resyncs.saturating_sub(1) as f64);
        }
        layers.insert("proc.cpu_user_s", win.cost.cpu_user_s);
        layers.insert("proc.cpu_sys_s", win.cost.cpu_sys_s);
        layers.insert("host.steal_frac", win.cost.steal_frac);
        if let Some(p) = commit.percentile(P50) {
            layers.insert("client.main_wall_us.p50", p.value * 1e6);
        }
        if let Some(p) = side_lat.percentile(P50) {
            layers.insert("client.side_wall_us.p50", p.value);
        }
        for (name, s) in [
            ("client.main_cpu_us.p50", &commit_cpu),
            ("client.side_cpu_us.p50", &side.cpu),
            ("host.ref_cpu_us.p50", &ref_cpu),
        ] {
            if let Some(v) = med(s) {
                layers.insert(name, v * 1e6);
            }
        }
        res.meta("samples.rounds.commit_us", Json::Int(total.count));
        res.meta("samples.serve.query_us", Json::Int(query.count));
        res.meta(
            "samples.feed.after_ack_us",
            Json::Int(after_ack.len() as u64),
        );

        // Recording every round of the window would hold hundreds of MiB of
        // snapshots, so the traced run records a fixed number of writer
        // calls on a server of its own, then replays them in process.
        let capture_wal = match mode {
            Mode::Durable => Some(run_dir.subdir("wal-capture")?),
            Mode::Bulk => None,
        };
        let mut quiet = SpanLog::new(false, epoch, 3);
        let (served, _, _) = set_up(
            mode,
            &place,
            cfg.seed,
            capture_wal.as_deref(),
            true,
            &mut quiet,
            0,
        )?;
        drop(served.side);
        let never = AtomicBool::new(false);
        let (_, tally, _) = run_writer(
            served.writer,
            &batches,
            &never,
            mode.capture_calls(),
            quiet,
            || true,
        );
        res.tally.absorb(tally);
        let recorded = served.handle.shutdown().rounds;
        let replay_wal = match mode {
            Mode::Durable => Some(run_dir.subdir("replay-wal")?),
            Mode::Bulk => None,
        };
        replay(
            cfg.seed,
            &graph,
            &recorded,
            replay_wal.as_deref(),
            &mut log,
            &mut res,
        )?;
    }
    res.meta(
        "phases_s",
        Json::obj([
            ("setup", Json::Num(t_setup)),
            ("traffic", Json::Num(t_traffic - t_setup)),
            ("gates", Json::Num(t_gates - t_traffic)),
            ("replay", Json::Num(epoch.elapsed().as_secs_f64() - t_gates)),
        ]),
    );
    res.spans = cfg.trace.then_some(log);
    drop(run_dir);
    Ok(res)
}

/// Bytes a segmented log grew by, seen once per record as the newest
/// segment's first round and length.
#[derive(Debug, Default)]
struct LogGrowth {
    last: Option<(u64, u64)>,
}

impl LogGrowth {
    /// Bytes added since the previous call: the growth of the same segment,
    /// or the whole of a segment that has started since.
    fn observe(&mut self, segment: u64, len: u64) -> u64 {
        let prior = match self.last {
            Some((s, l)) if s == segment => l,
            _ => 0,
        };
        self.last = Some((segment, len));
        len.saturating_sub(prior)
    }
}

/// Bytes the WAL in `dir` gained since `growth` last looked.
fn wal_growth(dir: &Path, growth: &mut LogGrowth) -> io::Result<u64> {
    let newest = list_segments(dir)?.last().copied().unwrap_or(0);
    let len = std::fs::metadata(segment_file(dir, newest))?.len();
    Ok(growth.observe(newest, len))
}

/// Replays the recorded rounds in commit order through the public calls of
/// each layer, timing each call as a span, and checks that every round
/// publishes the snapshot and delta the server published. The first tenth
/// of the rounds warms the replay up and is left out of the percentiles.
fn replay(
    seed: u64,
    graph: &Graph,
    rounds: &[CommittedRound],
    wal_dir: Option<&Path>,
    log: &mut SpanLog,
    res: &mut RunResult,
) -> io::Result<()> {
    let mut engine = Engine::from_graph(graph, seed);
    let cell = SnapshotCell::new(PublishedSnapshot {
        round: 0,
        state: engine.server_snapshot(),
        stats: *engine.stats(),
    });
    let feed = DeltaFeed::new(ServerConfig::default().delta_ring);
    let mut replica = ReplicaState::from_snapshot(0, &engine.server_snapshot());
    let mut wal = match wal_dir {
        Some(dir) => {
            let cfg = WalConfig {
                dir: dir.to_path_buf(),
                fsync: FsyncPolicy::Off,
                segment_rounds: SEGMENT_ROUNDS,
                checkpoint_every: CHECKPOINT_EVERY,
                retain_all: false,
            };
            let t0 = Instant::now();
            let w = Wal::create(cfg, &engine, 0)?;
            let t1 = Instant::now();
            log.record("wal.create", None, 0, t0, t1);
            res.layers
                .insert("wal.create_s", t1.duration_since(t0).as_secs_f64());
            Some((w, dir))
        }
        None => None,
    };

    let mut arena = Samples::new();
    let mut matching = Samples::new();
    let mut mis = Samples::new();
    let mut repack = Samples::new();
    let mut publish = Samples::new();
    let mut feed_publish = Samples::new();
    let mut fold = Samples::new();
    let mut write = Samples::new();
    let mut fsync = Samples::new();
    let mut checkpoint_ms = Samples::new();
    let (mut mis_rounds, mut matching_rounds, mut frontier) = (0u64, 0u64, 0u64);
    let (mut decided, mut flips, mut pages, mut counted) = (0u64, 0u64, 0u64, 0u64);
    let (mut wal_bytes, mut wal_updates) = (0u64, 0u64);
    let mut growth = LogGrowth::default();
    let mut arena_before = None;
    let mut arena_after = (0u64, 0u64);
    let mut mismatches = 0u64;

    for rec in rounds {
        let round = rec.round;
        let measured = round > rounds.len() as u64 / 10;
        if measured && arena_before.is_none() {
            arena_before = Some((engine.graph().rebuilds(), engine.graph().relocations()));
        }
        let batch = EdgeBatch {
            insertions: rec.insertions.clone(),
            deletions: rec.deletions.clone(),
        };
        let root = log.reserve();
        let t0 = Instant::now();
        let report = engine.apply_batch(&batch);
        let t1 = Instant::now();
        let timings = engine.last_batch_timings();
        let snap = Arc::new(PublishedSnapshot {
            round,
            state: engine.server_snapshot(),
            stats: *engine.stats(),
        });
        cell.publish_arc(snap.clone());
        let t2 = Instant::now();
        let full = Arc::new(FullDelta::from_report(round, &report));
        feed.publish(full.clone());
        let t3 = Instant::now();
        let frame = full.to_wire();
        let t4 = Instant::now();
        let folded = replica.fold(&frame);
        let t5 = Instant::now();
        log.record("engine.apply_batch", Some(root), round, t0, t1);
        log.record("serve.publish", Some(root), round, t1, t2);
        log.record("feed.publish", Some(root), round, t2, t3);
        log.record("feed.fold", Some(root), round, t4, t5);
        let mut t_end = t5;
        if let Some((w, dir)) = wal.as_mut() {
            let a = Instant::now();
            w.append_round(round, &batch.insertions, &batch.deletions, &full)?;
            let b = Instant::now();
            w.sync()?;
            let c = Instant::now();
            let did = w.maybe_checkpoint(round, &engine)?;
            let d = Instant::now();
            log.record("wal.append", Some(root), round, a, b);
            log.record("wal.sync", Some(root), round, b, c);
            if did {
                log.record("wal.checkpoint", Some(root), round, c, d);
                checkpoint_ms.push(d.duration_since(c).as_secs_f64() * 1e3);
            }
            t_end = d;
            // Every round is observed, so a segment that opened during the
            // warm-up is not counted again when the measured rounds start.
            let grown = wal_growth(dir, &mut growth)?;
            if measured {
                write.push(micros(a, b));
                fsync.push(micros(b, c));
                wal_bytes += grown;
                wal_updates += (batch.insertions.len() + batch.deletions.len()) as u64;
            }
        }
        log.record_reserved(root, "replay.round", None, round, t0, t_end);

        let same = *snap == *rec.snapshot
            && *full == *rec.delta
            && folded.is_ok()
            && replica.to_snapshot() == snap.state;
        if !same {
            mismatches += 1;
        }
        if measured {
            arena.push(timings.graph_us as f64);
            matching.push(timings.matching_repair_us as f64);
            mis.push(timings.mis_repair_us as f64);
            repack.push(timings.page_repack_us as f64);
            publish.push(micros(t1, t2));
            feed_publish.push(micros(t2, t3));
            fold.push(micros(t4, t5));
            mis_rounds = mis_rounds.max(report.mis_repair.rounds);
            matching_rounds = matching_rounds.max(report.matching_repair.rounds);
            frontier = frontier
                .max(report.mis_repair.max_frontier)
                .max(report.matching_repair.max_frontier);
            decided += report.mis_repair.decided + report.matching_repair.decided;
            flips += report.mis_repair.flips + report.matching_repair.flips;
            pages += engine.last_publication_pages() as u64;
            counted += 1;
            arena_after = (engine.graph().rebuilds(), engine.graph().relocations());
        }
    }
    if let Some((w, _)) = wal {
        w.close()?;
    }
    res.tally.check(mismatches == 0 && !rounds.is_empty(), || {
        format!(
            "replay of {} recorded rounds diverged from the published snapshot or delta in {mismatches}",
            rounds.len()
        )
    });

    // With no measured round the replay's metrics stay unmeasured, which
    // fails the run.
    let l = &mut res.layers;
    if let Some((before_rebuilds, before_relocations)) = arena_before {
        l.insert(
            "engine.rebuilds",
            arena_after.0.saturating_sub(before_rebuilds) as f64,
        );
        l.insert(
            "engine.relocations",
            arena_after.1.saturating_sub(before_relocations) as f64,
        );
        l.insert("engine.mis_rounds.max", mis_rounds as f64);
        l.insert("engine.matching_rounds.max", matching_rounds as f64);
        l.insert("engine.max_frontier", frontier as f64);
        l.insert("engine.decided", decided as f64);
        l.insert("engine.flips", flips as f64);
        l.insert("engine.pages", pages as f64 / counted as f64);
    }
    if decided > 0 {
        l.insert("engine.flip_ratio", flips as f64 / decided as f64);
    }
    if wal_updates > 0 {
        l.insert(
            "wal.bytes_per_update",
            wal_bytes as f64 / wal_updates as f64,
        );
    }
    if let Some(max) = checkpoint_ms.max() {
        l.insert("wal.checkpoint_ms.max", max);
    }
    let table: [(&'static str, &Samples, u64); 14] = [
        ("engine.arena_us.p50", &arena, P50),
        ("engine.arena_us.p99", &arena, P99),
        ("engine.matching_repair_us.p50", &matching, P50),
        ("engine.matching_repair_us.p99", &matching, P99),
        ("engine.mis_repair_us.p50", &mis, P50),
        ("engine.mis_repair_us.p99", &mis, P99),
        ("engine.repack_us.p50", &repack, P50),
        ("serve.publish_us.p50", &publish, P50),
        ("feed.publish_us.p50", &feed_publish, P50),
        ("feed.fold_us.p50", &fold, P50),
        ("wal.write_us.p50", &write, P50),
        ("wal.write_us.p99", &write, P99),
        ("wal.fsync_us.p50", &fsync, P50),
        ("wal.fsync_us.p99", &fsync, P99),
    ];
    for (name, samples, pm) in table {
        if let Some(p) = samples.percentile(pm) {
            res.layers.insert(name, p.value);
            res.meta.push((
                format!("samples.{name}"),
                Json::obj([
                    ("samples", Json::Int(p.samples as u64)),
                    ("beyond", Json::Int(p.beyond as u64)),
                ]),
            ));
        }
    }
    if let Some(p) = checkpoint_ms.percentile(P50) {
        res.layers.insert("wal.checkpoint_ms.p50", p.value);
        res.meta("samples.wal.checkpoint_ms", Json::Int(p.samples as u64));
    }
    res.meta("replayed_rounds", Json::Int(rounds.len() as u64));
    res.meta("replay_measured_rounds", Json::Int(counted));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use greedy_graph::gen::random::random_graph;

    #[test]
    fn writer_batches_are_full_distinct_and_absent_from_the_graph() {
        let graph = random_graph(5_000, 25_000, 9);
        for mode in [Mode::Bulk, Mode::Durable] {
            let batches = writer_batches(&graph, 9, mode);
            assert_eq!(batches.len(), mode.pool());
            for batch in &batches {
                assert_eq!(batch.len(), mode.batch());
                let mut keys: Vec<(u32, u32)> =
                    batch.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(keys.len(), batch.len(), "pairs repeat within a batch");
                assert!(batch.iter().all(|&(u, v)| u != v && !graph.has_edge(u, v)));
            }
            assert_eq!(
                batches,
                writer_batches(&graph, 9, mode),
                "not deterministic in the seed"
            );
        }
    }

    #[test]
    fn wal_bytes_per_update_counts_each_measured_record_once() {
        let graph = random_graph(2_000, 8_000, 5);
        let batches = writer_batches(&graph, 5, Mode::Durable);
        let run_dir = RunDir::create_in(&crate::report::bench_dir().join("scratch")).unwrap();
        let mut engine = Engine::from_graph(&graph, 5);
        let wal = |dir: &Path, segment_rounds, engine: &Engine| {
            let cfg = WalConfig {
                dir: dir.to_path_buf(),
                fsync: FsyncPolicy::Off,
                segment_rounds,
                checkpoint_every: 0,
                retain_all: true,
            };
            Wal::create(cfg, engine, 0).unwrap()
        };
        // One record per segment, so each of these files is exactly one
        // framed record; the other log keeps three records per segment.
        let single_dir = run_dir.subdir("single").unwrap();
        let shared_dir = run_dir.subdir("shared").unwrap();
        let mut single = wal(&single_dir, 1, &engine);
        let mut shared = wal(&shared_dir, 3, &engine);
        let mut growth = LogGrowth::default();
        // Rounds 1 and 2 are warm-up; round 3 shares its segment with them.
        let (mut bytes, mut updates, mut framed, mut framed_updates) = (0, 0, 0, 0);
        for round in 1..=8u64 {
            let pairs = batches[(round as usize - 1) / 2].iter().copied();
            let batch = if round % 2 == 1 {
                EdgeBatch::from_pairs(pairs, [])
            } else {
                EdgeBatch::from_pairs([], pairs)
            };
            let report = engine.apply_batch(&batch);
            let delta = FullDelta::from_report(round, &report);
            for w in [&mut single, &mut shared] {
                w.append_round(round, &batch.insertions, &batch.deletions, &delta)
                    .unwrap();
            }
            let grown = wal_growth(&shared_dir, &mut growth).unwrap();
            let record = std::fs::metadata(segment_file(&single_dir, round))
                .unwrap()
                .len();
            assert_eq!(grown, record, "round {round}");
            if round > 2 {
                bytes += grown;
                updates += batch.insertions.len() + batch.deletions.len();
                framed += record;
                framed_updates += 64;
            }
        }
        single.close().unwrap();
        shared.close().unwrap();
        assert_eq!(updates, framed_updates);
        assert_eq!(bytes as f64 / updates as f64, framed as f64 / 384.0);
        // An insert record carries 8 bytes per edge, plus its delta.
        assert!(bytes as f64 / updates as f64 > 8.0);
    }

    #[test]
    fn window_clock_admits_only_instants_between_open_and_close() {
        let clock = WindowClock::new(Instant::now());
        let before = Instant::now();
        assert!(
            !clock.contains(before),
            "nothing is inside an unopened window"
        );
        let start = clock.open();
        let inside = Instant::now();
        assert!(clock.contains(start) && clock.contains(inside));
        let end = clock.close();
        assert!(!clock.contains(before));
        assert!(!clock.contains(end));
        assert!(!clock.contains(Instant::now()));
    }

    #[test]
    fn summary_reports_counts_and_hides_thin_tails() {
        let mut s = Samples::new();
        for v in 1..=500 {
            s.push(f64::from(v));
        }
        let med = s.summary(P50, 1.0).to_string();
        assert_eq!(med, "{\"value\": 250, \"samples\": 500, \"beyond\": 250}");
        // p99 of 500 leaves 5 beyond: reported without a value.
        let tail = s.summary(P99, 1.0).to_string();
        assert_eq!(tail, "{\"value\": null, \"samples\": 500, \"beyond\": 5}");
        assert_eq!(Samples::new().summary(P50, 1.0), Json::Null);
    }
}
