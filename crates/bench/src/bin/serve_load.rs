//! Load generator for the `greedy_server` update/query service.
//!
//! Spawns a server over a real TCP socket, then N writer clients (each
//! submitting mixed insert/delete batches that group-commit into rounds),
//! M reader clients (each hammering MIS/matching membership queries against
//! the published snapshot), and K push subscribers (each reconstructing the
//! served state purely from the delta stream), for a fixed duration.
//! Reports:
//!
//! * round throughput (committed rounds/s) and update throughput (submitted
//!   and effective updates/s);
//! * query latency percentiles (p50/p90/p99), measured per call at the
//!   reader and folded into a shared lock-free [`greedy_obs::Histogram`]
//!   (no per-call `Vec` growth in the timing loop);
//! * delta-subscription throughput (rounds folded/s) and resync count;
//! * a coherence audit: the final served state must be byte-identical to a
//!   from-scratch greedy engine on the final edge set (always); every
//!   subscriber's delta-reconstructed state must be byte-identical to the
//!   published snapshot of each round it lands on and to the final engine
//!   state (whenever `--subscribers` > 0); and with `--verify` every
//!   recorded round's published snapshot is replayed and checked the same
//!   way. Any divergence exits nonzero.
//! * a publication microbenchmark at 500k vertices comparing the engine's
//!   copy-on-write snapshot export (O(pages touched)) against a full O(n)
//!   rebuild.
//!
//! The headline numbers are merged into `results/BENCH_quick.json` (entries
//! `server_rounds_per_s`, `server_updates_per_s`, `server_query_p50_us`,
//! `server_query_p99_us`, `server_subscribe_deltas_per_s`,
//! `server_subscribe_resyncs`, `server_publish_cow_us`,
//! `server_publish_full_us`, and — with `--wal-bench` or `--quick` — the
//! WAL commit-cost entries `server_wal_{sync,off}_rounds_per_s` and
//! `server_wal_{sync,off}_commit_p99_us`), next to the sort/engine
//! trajectory entries `run_all --quick` writes; re-runs replace the
//! previous entries instead of accumulating.
//!
//! `--metrics` adds the server-side observability report after the load
//! phase: it scrapes the registry twice — once over TCP via
//! `Request::Metrics`, once in-process via `ServerHandle::metrics_text()` —
//! and exits nonzero unless the two are byte-identical; prints the
//! per-stage commit-latency percentile table (stage wait / apply / repair /
//! wal / publish / feed), the repair-rounds histogram with the paper's
//! `log2(n)^2` depth bound for comparison, and validates that every metric
//! that cannot be zero after the load (committed rounds, query samples,
//! WAL appends when serving durably, and the engine internals —
//! rebuilds observed, arena occupancy, repair work) is in fact nonzero —
//! exiting nonzero otherwise. It also requests a `Trace` frame over the
//! live socket and requires its body to be byte-identical to
//! `encode_round_traces` over the in-process flight recorder, and dumps
//! the structured event journal to `results/events_quick.txt` (CI uploads
//! it next to the metrics dump). The full exposition is dumped to
//! `results/metrics_quick.txt`.
//!
//! `--crash-recover` runs a different job entirely: it spawns this binary
//! as a child that serves over a write-ahead log and `abort()`s mid-stream,
//! then recovers the directory, independently replays the full logged
//! history (both reconstruction paths), and restarts a server from it —
//! exiting nonzero on any divergence.
//!
//! ```text
//! cargo run --release -p greedy_bench --bin serve_load -- --quick
//! cargo run --release -p greedy_bench --bin serve_load -- --quick --crash-recover
//! cargo run --release -p greedy_bench --bin serve_load -- --scale small \
//!     --writers 4 --readers 4 --duration-secs 3
//! ```

use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use greedy_bench::{merge_quick_entries, Scale};
use greedy_engine::prelude::{EdgeBatch, Engine, ServerSnapshot};
use greedy_graph::csr::Graph;
use greedy_graph::edge_list::Edge;
use greedy_graph::gen::random::random_graph;
use greedy_obs::Histogram;
use greedy_prims::random::hash64;
use greedy_server::prelude::*;
use greedy_server::protocol::read_frame;
use greedy_server::wal;

struct LoadConfig {
    n: usize,
    m: usize,
    writers: usize,
    readers: usize,
    /// Push subscribers reconstructing state purely from the delta stream.
    subscribers: usize,
    batch: usize,
    duration: Duration,
    seed: u64,
    /// Record every round and replay them all after shutdown.
    verify_rounds: bool,
    /// Run the 500k-vertex snapshot-publication microbenchmark.
    publish_bench: bool,
    max_batch_updates: usize,
    max_delay: Duration,
    /// Pause between reader queries. Readers are latency *samplers*; left
    /// unpaced (0) they are closed-loop saturators that — on small machines
    /// — time-share the engine thread off the CPU and measure scheduler
    /// contention instead of the service.
    reader_pace: Duration,
    /// Serve with a write-ahead log in this directory (and recover from it
    /// if it already holds a log).
    data_dir: Option<PathBuf>,
    /// Crash-recovery audit: spawn this binary as a child that aborts
    /// mid-stream, then recover its data dir, independently replay the full
    /// log, and restart a server from it — exiting nonzero on any
    /// divergence.
    crash_recover: bool,
    /// Internal: run as the aborting child of `--crash-recover`.
    crash_child: bool,
    /// Measure WAL commit cost (rounds/s + commit p99) with per-round fsync
    /// vs fsync off, and merge `server_wal_*` rows into BENCH_quick.json.
    wal_bench: bool,
    /// Server-side observability report: byte-compare the TCP and in-process
    /// expositions, print per-stage commit percentiles and the repair-rounds
    /// vs `log2(n)^2` check, validate zero-where-impossible metrics, and dump
    /// the exposition to `results/metrics_quick.txt`.
    metrics_report: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            m: 500_000,
            writers: 4,
            readers: 4,
            subscribers: 0,
            batch: 2_048,
            duration: Duration::from_secs(3),
            seed: 42,
            verify_rounds: false,
            publish_bench: false,
            max_batch_updates: 8_192,
            max_delay: Duration::from_millis(2),
            reader_pace: Duration::from_millis(1),
            data_dir: None,
            crash_recover: false,
            crash_child: false,
            wal_bench: false,
            metrics_report: false,
        }
    }
}

/// Bound on the per-subscriber audit tail: materialized snapshots are O(n)
/// each, so an unbounded per-round history would dominate memory on long
/// runs. The quick CI run commits far fewer rounds than this, so there the
/// tail covers every round.
const MAX_SUBSCRIBER_SAMPLES: usize = 1_024;

#[derive(Default)]
struct SubscriberRun {
    /// Rounds the replica advanced through (deltas folded + snapshot
    /// resyncs).
    advances: u64,
    resyncs: u64,
    /// Tail of reconstructed states, newest last.
    samples: std::collections::VecDeque<(u64, ServerSnapshot)>,
    final_state: Option<(u64, ServerSnapshot)>,
}

fn parse_args() -> LoadConfig {
    let mut cfg = LoadConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = take("--scale");
                let scale = Scale::parse(&v)
                    .unwrap_or_else(|| panic!("unknown scale '{v}' (tiny|small|medium|paper)"));
                (cfg.n, cfg.m) = scale.random_size();
            }
            "--writers" => cfg.writers = take("--writers").parse().expect("bad --writers"),
            "--readers" => cfg.readers = take("--readers").parse().expect("bad --readers"),
            "--subscribers" => {
                cfg.subscribers = take("--subscribers").parse().expect("bad --subscribers")
            }
            "--batch" => cfg.batch = take("--batch").parse().expect("bad --batch"),
            "--duration-secs" => {
                cfg.duration =
                    Duration::from_secs_f64(take("--duration-secs").parse().expect("bad duration"))
            }
            "--seed" => cfg.seed = take("--seed").parse().expect("bad --seed"),
            "--reader-pace-us" => {
                cfg.reader_pace =
                    Duration::from_micros(take("--reader-pace-us").parse().expect("bad pace"))
            }
            "--verify" => cfg.verify_rounds = true,
            "--publish-bench" => cfg.publish_bench = true,
            "--data-dir" => cfg.data_dir = Some(PathBuf::from(take("--data-dir"))),
            "--crash-recover" => cfg.crash_recover = true,
            "--crash-child" => cfg.crash_child = true,
            "--wal-bench" => cfg.wal_bench = true,
            "--metrics" => cfg.metrics_report = true,
            // CI smoke mode: tiny graph, short run, full per-round audit —
            // finishes in a couple of seconds.
            "--quick" => {
                (cfg.n, cfg.m) = Scale::Tiny.random_size();
                cfg.writers = 2;
                cfg.readers = 2;
                cfg.subscribers = 2;
                cfg.batch = 512;
                cfg.duration = Duration::from_millis(1_500);
                cfg.verify_rounds = true;
                cfg.publish_bench = true;
                cfg.wal_bench = true;
                cfg.reader_pace = Duration::from_micros(300);
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --scale tiny|small|medium --writers N --readers M --subscribers K \
                     --batch B --duration-secs S --seed X --reader-pace-us U --verify \
                     --publish-bench --data-dir DIR --crash-recover --wal-bench --metrics \
                     --quick"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag '{other}' (try --help)"),
        }
    }
    assert!(cfg.writers >= 1, "need at least one writer");
    cfg
}

fn main() {
    let cfg = parse_args();
    if cfg.crash_child {
        run_crash_child(&cfg);
    }
    if cfg.crash_recover {
        run_crash_recover(&cfg);
        return;
    }
    eprintln!(
        "== serve_load: n={} m={} writers={} readers={} subscribers={} batch={} duration={:?} \
         verify={}",
        cfg.n,
        cfg.m,
        cfg.writers,
        cfg.readers,
        cfg.subscribers,
        cfg.batch,
        cfg.duration,
        cfg.verify_rounds
    );

    let base = random_graph(cfg.n, cfg.m, cfg.seed);
    run_load(Engine::from_graph(&base, cfg.seed), &base, &cfg);
}

fn run_load(engine: Engine, base: &Graph, cfg: &LoadConfig) {
    let handle = serve(
        engine,
        ServerConfig {
            rounds: RoundConfig {
                max_batch_updates: cfg.max_batch_updates,
                max_delay: cfg.max_delay,
            },
            record_rounds: cfg.verify_rounds,
            wal: cfg.data_dir.clone().map(WalConfig::durable),
            ..ServerConfig::default()
        },
    )
    .expect("failed to start server");
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();

    // Writers: alternate a fresh hashed insert batch with a deletion of the
    // previous one, so the graph size stays bounded and both update paths
    // (and both repair paths) run hot the whole time.
    let writers: Vec<_> = (0..cfg.writers)
        .map(|w| {
            let stop = stop.clone();
            let (n, batch, seed) = (cfg.n as u64, cfg.batch, cfg.seed);
            thread::spawn(move || -> (u64, u64) {
                let mut client = Client::connect(addr).expect("writer connect");
                let mut submitted = 0u64;
                let mut rounds_seen = 0u64;
                let mut last_round = 0u64;
                let mut prev: Vec<(u32, u32)> = Vec::new();
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let delta = if !prev.is_empty() && k % 2 == 1 {
                        let batch = std::mem::take(&mut prev);
                        submitted += batch.len() as u64;
                        client.delete_edges(&batch).expect("writer delete")
                    } else {
                        let fresh: Vec<(u32, u32)> = (0..batch)
                            .map(|i| {
                                let key = k * batch as u64 + i as u64;
                                (
                                    (hash64(seed ^ (w as u64) << 32, 2 * key) % n) as u32,
                                    (hash64(seed ^ (w as u64) << 32, 2 * key + 1) % n) as u32,
                                )
                            })
                            .collect();
                        submitted += fresh.len() as u64;
                        let delta = client.insert_edges(&fresh).expect("writer insert");
                        prev = fresh;
                        delta
                    };
                    if delta.round > last_round {
                        rounds_seen += 1;
                        last_round = delta.round;
                    }
                    k += 1;
                }
                (submitted, rounds_seen)
            })
        })
        .collect();

    // Readers: batched membership queries against the published snapshot,
    // individually timed into one shared lock-free histogram — constant
    // memory however long the run, and the percentiles come from the full
    // sample population instead of a sorted sample vector.
    let query_hist = Arc::new(Histogram::new());
    let readers: Vec<_> = (0..cfg.readers)
        .map(|r| {
            let stop = stop.clone();
            let hist = query_hist.clone();
            let (n, seed, pace) = (cfg.n as u64, cfg.seed, cfg.reader_pace);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connect");
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let vs: Vec<u32> = (0..32)
                        .map(|i| (hash64(seed ^ 0xBEEF ^ (r as u64), k * 32 + i) % n) as u32)
                        .collect();
                    let t = Instant::now();
                    if k.is_multiple_of(2) {
                        client.query_mis(&vs).expect("reader query");
                    } else {
                        client.query_matched(&vs).expect("reader query");
                    }
                    hist.record_duration_us(t.elapsed());
                    k += 1;
                    if !pace.is_zero() {
                        thread::sleep(pace);
                    }
                }
            })
        })
        .collect();

    // Subscribers: reconstruct the served state purely from the push-style
    // delta stream and keep a bounded tail of (round, snapshot) samples for
    // the post-run audit. They run until shutdown closes the feed, which
    // flushes the final round, so each one ends on the final committed
    // state.
    let subscribers: Vec<_> = (0..cfg.subscribers)
        .map(|_| {
            thread::spawn(move || -> SubscriberRun {
                let mut sub = Client::connect(addr)
                    .expect("subscriber connect")
                    .subscribe_fresh()
                    .expect("subscribe");
                // Fail loudly instead of hanging if the feed ever wedges.
                sub.set_timeout(Some(Duration::from_secs(60)))
                    .expect("subscriber timeout");
                let mut run = SubscriberRun::default();
                while let Some(state) = sub.next_round().expect("subscriber stream") {
                    run.advances += 1;
                    run.samples.push_back((state.round(), state.to_snapshot()));
                    if run.samples.len() > MAX_SUBSCRIBER_SAMPLES {
                        run.samples.pop_front();
                    }
                }
                run.resyncs = sub.resyncs();
                run.final_state = sub.state().map(|s| (s.round(), s.to_snapshot()));
                run
            })
        })
        .collect();

    thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let mut submitted = 0u64;
    for w in writers {
        let (s, _) = w.join().expect("writer panicked");
        submitted += s;
    }
    let elapsed = started.elapsed();
    for r in readers {
        r.join().expect("reader panicked");
    }
    let queries = query_hist.snapshot();

    // The observability report scrapes the live server, so it must run
    // after the load quiesces (no writer/reader traffic left to race the
    // byte-for-byte comparison) and before shutdown tears the socket down.
    if cfg.metrics_report {
        metrics_report(&handle, addr, cfg);
    }

    let report = handle.shutdown();
    // Subscriber streams end when shutdown closes the feed, so join them
    // only after `shutdown()` returns.
    let subscriber_runs: Vec<SubscriberRun> = subscribers
        .into_iter()
        .map(|s| s.join().expect("subscriber panicked"))
        .collect();
    let stats = *report.engine.stats();
    let effective = stats.edges_inserted + stats.edges_deleted;
    let rounds = stats.batches;
    let secs = elapsed.as_secs_f64();

    // Coherence audit: final served state == from-scratch greedy recompute.
    let final_edges = report.engine.graph().to_edge_list();
    let final_graph = Graph::from_edges(report.engine.num_vertices(), final_edges.edges());
    let scratch = Engine::from_graph(&final_graph, cfg.seed);
    assert_eq!(
        scratch.server_snapshot(),
        report.engine.server_snapshot(),
        "final served state diverges from a from-scratch recompute"
    );
    if cfg.verify_rounds {
        // Replay every recorded round and compare each published snapshot.
        // All mismatches are collected (not just the first), reported, and
        // turned into a nonzero exit so CI fails the job on any
        // non-identical replayed snapshot.
        let mut replay = Engine::from_graph(base, cfg.seed);
        let mut mismatched: Vec<u64> = Vec::new();
        for round in &report.rounds {
            replay.apply_batch(&EdgeBatch {
                insertions: round.insertions.clone(),
                deletions: round.deletions.clone(),
            });
            if replay.server_snapshot() != round.snapshot.state {
                mismatched.push(round.round);
            }
        }
        if mismatched.is_empty() {
            eprintln!(
                "   verified: all {} published snapshots byte-identical to replay",
                report.rounds.len()
            );
        } else {
            eprintln!(
                "   VERIFY FAILED: {} of {} published snapshots diverge from replay \
                 (rounds {:?})",
                mismatched.len(),
                report.rounds.len(),
                mismatched
            );
            std::process::exit(1);
        }
    }

    // Subscriber audit: every delta-reconstructed state a subscriber landed
    // on must be byte-identical to the snapshot the server published for
    // that round, and each subscriber must end on the final committed state
    // (shutdown flushes the feed, so the stream always reaches it).
    let final_snapshot = report.engine.server_snapshot();
    let by_round: std::collections::HashMap<u64, &ServerSnapshot> = report
        .rounds
        .iter()
        .map(|r| (r.round, &r.snapshot.state))
        .collect();
    let mut sub_divergence = false;
    for (i, run) in subscriber_runs.iter().enumerate() {
        match &run.final_state {
            Some((round, state)) if *state != final_snapshot => {
                eprintln!(
                    "   SUBSCRIBE FAILED: subscriber {i} ended on round {round} with a \
                     state diverging from the final committed state"
                );
                sub_divergence = true;
            }
            None if rounds > 0 => {
                eprintln!(
                    "   SUBSCRIBE FAILED: subscriber {i} reconstructed no state over \
                     {rounds} committed rounds"
                );
                sub_divergence = true;
            }
            _ => {}
        }
        let mut checked = 0usize;
        for (round, state) in &run.samples {
            if let Some(published) = by_round.get(round) {
                checked += 1;
                if state != *published {
                    eprintln!(
                        "   SUBSCRIBE FAILED: subscriber {i} diverges from the published \
                         snapshot at round {round}"
                    );
                    sub_divergence = true;
                }
            }
        }
        if cfg.verify_rounds && !sub_divergence {
            eprintln!(
                "   verified: subscriber {i} byte-identical on {checked} sampled rounds \
                 ({} advances, {} resyncs)",
                run.advances, run.resyncs
            );
        }
    }
    if sub_divergence {
        std::process::exit(1);
    }

    let pct = |p: f64| -> u64 { queries.quantile(p) };
    let rounds_per_s = rounds as f64 / secs;
    let submitted_per_s = submitted as f64 / secs;
    let effective_per_s = effective as f64 / secs;
    eprintln!("   elapsed            {secs:.3} s");
    eprintln!("   rounds             {rounds} ({rounds_per_s:.0}/s)");
    eprintln!(
        "   updates submitted  {submitted} ({submitted_per_s:.0}/s), effective {effective} \
         ({effective_per_s:.0}/s)"
    );
    eprintln!(
        "   queries            {} (p50 {} us, p90 {} us, p99 {} us)",
        queries.count,
        pct(0.50),
        pct(0.90),
        pct(0.99)
    );
    let deltas_folded: u64 = subscriber_runs
        .iter()
        .map(|r| r.advances.saturating_sub(r.resyncs))
        .sum();
    let resyncs_total: u64 = subscriber_runs.iter().map(|r| r.resyncs).sum();
    let subscribe_deltas_per_s = deltas_folded as f64 / secs;
    if cfg.subscribers > 0 {
        eprintln!(
            "   subscribers        {} (deltas folded {deltas_folded}, \
             {subscribe_deltas_per_s:.0}/s, resyncs {resyncs_total})",
            cfg.subscribers
        );
    }

    let clients = cfg.writers + cfg.readers;
    let mut rows = vec![
        quick_row(
            "server_rounds_per_s",
            clients,
            cfg.n,
            cfg.m,
            rounds_per_s,
            "rounds/s",
        ),
        quick_row(
            "server_updates_per_s",
            clients,
            cfg.n,
            cfg.m,
            submitted_per_s,
            "updates/s",
        ),
        quick_row(
            "server_query_p50_us",
            clients,
            cfg.n,
            cfg.m,
            pct(0.50) as f64,
            "us",
        ),
        quick_row(
            "server_query_p99_us",
            clients,
            cfg.n,
            cfg.m,
            pct(0.99) as f64,
            "us",
        ),
    ];
    if cfg.subscribers > 0 {
        rows.push(quick_row(
            "server_subscribe_deltas_per_s",
            cfg.subscribers,
            cfg.n,
            cfg.m,
            subscribe_deltas_per_s,
            "deltas/s",
        ));
        rows.push(quick_row(
            "server_subscribe_resyncs",
            cfg.subscribers,
            cfg.n,
            cfg.m,
            resyncs_total as f64,
            "resyncs",
        ));
    }
    if cfg.publish_bench {
        let (cow_us, full_us, pages, pb_n, pb_m) = publication_bench(cfg.seed);
        eprintln!(
            "   publish (n={pb_n})  cow {cow_us:.1} us ({pages} pages touched) vs full \
             rebuild {full_us:.1} us ({:.0}x)",
            full_us / cow_us.max(1e-9)
        );
        rows.push(quick_row(
            "server_publish_cow_us",
            1,
            pb_n,
            pb_m,
            cow_us,
            "us",
        ));
        rows.push(quick_row(
            "server_publish_full_us",
            1,
            pb_n,
            pb_m,
            full_us,
            "us",
        ));
    }
    // Exact name prefixes, not the bare "server_" family prefix: the
    // `server_wal_*` rows are produced (and merged) separately below, and a
    // blanket "server_" claim here would silently delete them on every run
    // that skips the WAL bench.
    merge_quick_entries(
        Path::new("results/BENCH_quick.json"),
        cfg.seed,
        &[
            "server_rounds",
            "server_updates",
            "server_query",
            "server_subscribe",
            "server_publish",
        ],
        "server",
        &rows,
    );
    eprintln!(
        "   merged {} server_* entries into results/BENCH_quick.json",
        rows.len()
    );

    if cfg.wal_bench {
        let wal_rows = wal_bench(cfg.seed);
        merge_quick_entries(
            Path::new("results/BENCH_quick.json"),
            cfg.seed,
            &["server_wal_"],
            "server_wal",
            &wal_rows,
        );
        eprintln!(
            "   merged {} server_wal_* entries into results/BENCH_quick.json",
            wal_rows.len()
        );
    }
}

/// The `--metrics` report against the still-running (but quiesced) server:
/// byte-compare the two exposition paths, print the per-stage commit table
/// and the repair-rounds-vs-`log2(n)^2` depth check, validate that metrics
/// which cannot be zero after this load are nonzero, and dump the full
/// exposition to `results/metrics_quick.txt`. Any failed check exits 1.
fn metrics_report(handle: &ServerHandle, addr: std::net::SocketAddr, cfg: &LoadConfig) {
    eprintln!("== metrics report");

    // Acceptance check 1: the wire frame and the in-process dump must be the
    // same bytes. The server is quiesced and scraping touches no instrument,
    // so any difference is a real divergence between the two paths.
    let mut client = Client::connect(addr).expect("metrics connect");
    let over_wire = client.metrics().expect("metrics request");
    let in_process = handle.metrics_text();
    if over_wire != in_process {
        eprintln!(
            "   METRICS FAILED: TCP exposition ({} bytes) != in-process exposition ({} bytes)",
            over_wire.len(),
            in_process.len()
        );
        std::process::exit(1);
    }
    eprintln!(
        "   wire == in-process: {} bytes, byte-identical",
        over_wire.len()
    );

    // Dump the exposition for the CI artifact.
    let _ = std::fs::create_dir_all("results");
    let dump = Path::new("results/metrics_quick.txt");
    std::fs::write(dump, &in_process).expect("write metrics dump");
    eprintln!("   exposition dumped to {}", dump.display());

    // Acceptance check 2: a `Trace` frame over real TCP must carry exactly
    // `encode_round_traces` over the in-process flight recorder — one
    // canonical encoder, zero drift between the wire and the handle.
    let mut raw = TcpStream::connect(addr).expect("trace connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("trace timeout");
    let payload = Request::Trace { last_k: u64::MAX }.encode();
    raw.write_all(&(payload.len() as u32).to_le_bytes())
        .expect("trace frame length");
    raw.write_all(&payload).expect("trace frame body");
    let reply = read_frame(&mut raw)
        .expect("trace read")
        .expect("a trace frame");
    let expected = encode_round_traces(&handle.recent_rounds());
    if reply.first() != Some(&11) || reply[1..] != expected[..] {
        eprintln!(
            "   METRICS FAILED: TCP trace body ({} bytes) != in-process flight-recorder \
             encoding ({} bytes)",
            reply.len().saturating_sub(1),
            expected.len()
        );
        std::process::exit(1);
    }
    eprintln!(
        "   trace frame == flight recorder: {} rounds, byte-identical",
        handle.recent_rounds().len()
    );

    // Event-journal dump. The journal also rides the exposition above; the
    // standalone file is what CI uploads next to metrics_quick.txt.
    let metrics = handle.metrics().expect("every server keeps a registry");
    let events = Path::new("results/events_quick.txt");
    std::fs::write(events, metrics.journal().render_text()).expect("write events dump");
    eprintln!("   event journal dumped to {}", events.display());

    // Per-stage commit-latency percentile table, one row per pipeline stage.
    let registry = metrics.registry();
    eprintln!("   commit pipeline (us per round):");
    eprintln!(
        "     {:<10} {:>8} {:>8} {:>8} {:>8}",
        "stage", "p50", "p90", "p99", "max"
    );
    for (label, name) in [
        ("stage-wait", "server_commit_stage_wait_us"),
        ("apply", "server_commit_apply_us"),
        ("repair", "server_commit_repair_us"),
        ("wal", "server_commit_wal_us"),
        ("publish", "server_commit_publish_us"),
        ("feed", "server_commit_feed_us"),
        ("total", "server_commit_total_us"),
    ] {
        let s = registry.histogram(name).snapshot();
        eprintln!(
            "     {:<10} {:>8} {:>8} {:>8} {:>8}",
            label,
            s.quantile(0.50),
            s.quantile(0.90),
            s.quantile(0.99),
            s.max
        );
    }

    // The paper's depth observable: greedy MIS repair rounds per batch are
    // O(log^2 n) w.h.p. (Blelloch–Fineman–Shun), so the histogram's maximum
    // should sit well under log2(n)^2.
    let depth = metrics.repair_rounds_mis().snapshot();
    let bound = (cfg.n as f64).log2().powi(2);
    eprintln!("   repair rounds per batch (MIS):");
    for (lo, hi, count) in depth.nonzero_buckets() {
        if lo == hi {
            eprintln!("     {lo:>6}        x{count}");
        } else {
            eprintln!("     {lo:>6}-{hi:<6} x{count}");
        }
    }
    eprintln!(
        "   depth check: observed max {} vs log2(n)^2 = {:.0} (n={}, ratio {:.3})",
        depth.max,
        bound,
        cfg.n,
        depth.max as f64 / bound
    );
    if (depth.max as f64) > bound {
        eprintln!(
            "   METRICS FAILED: repair rounds exceeded the paper's O(log^2 n) scale \
             ({} > {:.0})",
            depth.max, bound
        );
        std::process::exit(1);
    }

    // Zero-where-impossible validation. The load phase committed rounds and
    // (with readers) answered queries, so these must all have samples.
    let value = |name: &str| -> u64 {
        in_process
            .lines()
            .find_map(|line| {
                let (n, v) = line.split_once(' ')?;
                (n == name).then(|| v.parse().ok())?
            })
            .unwrap_or_else(|| panic!("metric {name} missing from the exposition"))
    };
    let mut failures: Vec<String> = Vec::new();
    let rounds = value("server_rounds_committed_total");
    let mut require = |name: &str, why: &str| {
        if value(name) == 0 {
            failures.push(format!("{name} is 0 but {why}"));
        }
    };
    require("server_rounds_committed_total", "writers committed rounds");
    require("server_commit_total_us_count", "rounds were committed");
    require("server_commit_apply_us_count", "rounds were committed");
    require("server_repair_rounds_mis_count", "rounds were committed");
    require("server_updates_effective_total", "writers inserted edges");
    require("server_connections_total", "clients connected");
    if cfg.readers > 0 {
        require("server_queries_total", "readers issued queries");
        require("server_query_us_count", "queries were recorded");
        require("server_snapshot_age_us_count", "queries were recorded");
    }
    if cfg.subscribers > 0 {
        require("server_feed_resyncs_total", "fresh subscribers were seeded");
    }
    if cfg.data_dir.is_some() {
        require("server_wal_appends_total", "rounds were logged to the WAL");
    }
    // Engine internals, in the same registry: after real traffic
    // the arena must exist, hold live vertices, have been built at least
    // once, and repair must have run every round.
    require("engine_rebuilds_total", "the arena was built at least once");
    require("engine_arena_capacity", "the arena holds segments");
    require("engine_arena_live", "live vertices occupy the arena");
    require(
        "engine_mis_repair_work_count",
        "MIS repair ran on every round",
    );
    if value("server_commit_total_us_count") != rounds {
        failures.push(format!(
            "server_commit_total_us_count {} != server_rounds_committed_total {rounds}",
            value("server_commit_total_us_count")
        ));
    }
    if failures.is_empty() {
        eprintln!("   validation: all required metrics present and nonzero");
    } else {
        for f in &failures {
            eprintln!("   METRICS FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// WAL commit-cost microbenchmark: the same single-writer load served twice
/// over a write-ahead log, once with per-round fsync and once with fsync
/// off, reporting committed rounds/s and the p99 client-observed commit
/// latency for each. Everything but the fsync policy is identical, so the
/// gap between the two runs is the honest price of the durability
/// guarantee ("no round is acked before it is on disk").
fn wal_bench(seed: u64) -> Vec<String> {
    const N: usize = 10_000;
    const M: usize = 40_000;
    let run = |fsync: FsyncPolicy, tag: &str| -> (f64, f64) {
        let dir = std::env::temp_dir().join(format!(
            "greedy_serve_load_walbench_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let base = random_graph(N, M, seed ^ 0x3A1);
        let handle = serve(
            Engine::from_graph(&base, seed),
            ServerConfig {
                wal: Some(WalConfig {
                    fsync,
                    ..WalConfig::durable(dir.clone())
                }),
                ..ServerConfig::default()
            },
        )
        .expect("wal bench serve");
        let mut client = Client::connect(handle.addr()).expect("wal bench connect");
        let mut latencies_us: Vec<u64> = Vec::new();
        let mut prev: Vec<(u32, u32)> = Vec::new();
        let mut k = 0u64;
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(700) {
            let timed = if !prev.is_empty() && k % 2 == 1 {
                let batch = std::mem::take(&mut prev);
                let t = Instant::now();
                client.delete_edges(&batch).expect("wal bench delete");
                t.elapsed()
            } else {
                let fresh: Vec<(u32, u32)> = (0..64u64)
                    .map(|i| {
                        let key = k * 64 + i;
                        (
                            (hash64(seed ^ 0x11AD, 2 * key) % N as u64) as u32,
                            (hash64(seed ^ 0x11AD, 2 * key + 1) % N as u64) as u32,
                        )
                    })
                    .collect();
                let t = Instant::now();
                client.insert_edges(&fresh).expect("wal bench insert");
                prev = fresh;
                t.elapsed()
            };
            latencies_us.push(timed.as_micros() as u64);
            k += 1;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let report = handle.shutdown();
        let rounds = report.engine.stats().batches;
        let _ = std::fs::remove_dir_all(&dir);
        latencies_us.sort_unstable();
        let p99 = if latencies_us.is_empty() {
            0
        } else {
            latencies_us[((latencies_us.len() - 1) as f64 * 0.99).round() as usize]
        };
        (rounds as f64 / elapsed, p99 as f64)
    };
    let (sync_rps, sync_p99) = run(FsyncPolicy::PerRound, "sync");
    let (off_rps, off_p99) = run(FsyncPolicy::Off, "off");
    eprintln!(
        "   wal (n={N})       fsync per-round {sync_rps:.0} rounds/s (commit p99 {sync_p99:.0} us) \
         vs off {off_rps:.0} rounds/s (commit p99 {off_p99:.0} us)"
    );
    vec![
        quick_row(
            "server_wal_sync_rounds_per_s",
            1,
            N,
            M,
            sync_rps,
            "rounds/s",
        ),
        quick_row("server_wal_sync_commit_p99_us", 1, N, M, sync_p99, "us"),
        quick_row("server_wal_off_rounds_per_s", 1, N, M, off_rps, "rounds/s"),
        quick_row("server_wal_off_commit_p99_us", 1, N, M, off_p99, "us"),
    ]
}

/// The aborting child of `--crash-recover`: serves with a per-round-fsync
/// WAL in `--data-dir`, lets two writers hammer it for a while, then pulls
/// the plug with `abort()` — no shutdown, no final checkpoint, no log
/// close. Everything the parent finds on disk afterwards is exactly what a
/// crash leaves behind.
fn run_crash_child(cfg: &LoadConfig) -> ! {
    let dir = cfg
        .data_dir
        .clone()
        .expect("--crash-child requires --data-dir");
    let wal_cfg = WalConfig {
        fsync: FsyncPolicy::PerRound,
        segment_rounds: 64,
        checkpoint_every: 0,
        // Keep every segment so the parent can audit the FULL history from
        // the base checkpoint, not just the recovery suffix.
        retain_all: true,
        dir,
    };
    let base = random_graph(5_000, 10_000, cfg.seed);
    let handle = serve(
        Engine::from_graph(&base, cfg.seed),
        ServerConfig {
            wal: Some(wal_cfg),
            ..ServerConfig::default()
        },
    )
    .expect("crash child serve");
    let addr = handle.addr();
    for w in 0..2u64 {
        let seed = cfg.seed;
        thread::spawn(move || {
            let mut client = Client::connect(addr).expect("child writer connect");
            let mut prev: Vec<(u32, u32)> = Vec::new();
            let mut k = 0u64;
            loop {
                if !prev.is_empty() && k % 2 == 1 {
                    let batch = std::mem::take(&mut prev);
                    let _ = client.delete_edges(&batch);
                } else {
                    let fresh: Vec<(u32, u32)> = (0..256u64)
                        .map(|i| {
                            let key = k * 256 + i;
                            (
                                (hash64(seed ^ 0xC4A5 ^ (w << 48), 2 * key) % 5_000) as u32,
                                (hash64(seed ^ 0xC4A5 ^ (w << 48), 2 * key + 1) % 5_000) as u32,
                            )
                        })
                        .collect();
                    let _ = client.insert_edges(&fresh);
                    prev = fresh;
                }
                k += 1;
            }
        });
    }
    thread::sleep(Duration::from_millis(600));
    std::process::abort();
}

/// Crash-recovery audit: spawn this binary as a child that serves with a
/// WAL and aborts mid-stream, then (1) recover the directory, (2)
/// independently replay the FULL logged history from the base checkpoint —
/// batch-replay through a fresh engine AND delta-fold through a replica —
/// and require byte-identical agreement with the recovered state, and (3)
/// restart a real server from the directory and check it serves that state
/// and continues the round numbering. Any divergence panics, so the
/// process exits nonzero and CI fails.
fn run_crash_recover(cfg: &LoadConfig) {
    let dir = cfg.data_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("greedy_serve_load_crash_{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("== serve_load --crash-recover: data dir {}", dir.display());

    let exe = std::env::current_exe().expect("current_exe");
    let status = std::process::Command::new(exe)
        .arg("--crash-child")
        .arg("--data-dir")
        .arg(&dir)
        .arg("--seed")
        .arg(cfg.seed.to_string())
        .status()
        .expect("spawn crash child");
    assert!(
        !status.success(),
        "the child is supposed to abort mid-stream, but exited cleanly ({status})"
    );

    let recovered = wal::recover(&dir)
        .expect("recovery must not error on a crashed directory")
        .expect("the crashed child must have left a log behind");
    assert!(
        recovered.round > 0,
        "the child aborted before committing a single round; nothing was audited"
    );
    assert_eq!(
        recovered.checkpoint_round, 0,
        "the child never checkpoints, so recovery must come from the base checkpoint"
    );
    eprintln!(
        "   recovered round {} ({} records replayed{})",
        recovered.round,
        recovered.replayed,
        if recovered.tail_truncated {
            ", torn tail truncated"
        } else {
            ""
        }
    );

    // Independent audit: rebuild from the base checkpoint and the raw log,
    // through BOTH reconstruction paths, and compare byte-for-byte.
    let ckpt = wal::load_checkpoint(&wal::checkpoint_file(&dir, 0)).expect("base checkpoint");
    let mut replay = Engine::from_graph(
        &Graph::from_edges(ckpt.num_vertices, &ckpt.edges),
        ckpt.seed,
    );
    let mut replica = ckpt.replica;
    let (records, _torn) = wal::read_log_records(&dir, 0).expect("read raw log");
    let mut last = 0u64;
    for rec in records.iter().take_while(|r| r.round <= recovered.round) {
        replay.apply_batch(&EdgeBatch {
            insertions: rec.insertions.clone(),
            deletions: rec.deletions.clone(),
        });
        replica.fold(&rec.delta).expect("logged delta must fold");
        last = rec.round;
    }
    assert_eq!(
        last, recovered.round,
        "the raw log must reach the recovered round"
    );
    let audited = replay.server_snapshot();
    assert_eq!(
        audited,
        recovered.engine.server_snapshot(),
        "recovered state diverges from an independent full-history batch replay"
    );
    assert_eq!(
        replica.to_snapshot(),
        audited,
        "delta-folded replica diverges from the batch-replayed engine"
    );
    eprintln!("   audit: full-history replay (batches AND deltas) byte-identical at round {last}");

    // Restart a real server from the directory. The engine argument is a
    // decoy: the directory is authoritative.
    let handle = serve(
        Engine::new(1, cfg.seed),
        ServerConfig {
            wal: Some(WalConfig::durable(dir.clone())),
            ..ServerConfig::default()
        },
    )
    .expect("restart from the recovered directory");
    assert_eq!(handle.committed_round(), recovered.round);
    assert_eq!(
        handle.snapshot().state,
        audited,
        "restarted server does not serve the recovered state"
    );
    let mut client = Client::connect(handle.addr()).expect("connect to restarted server");
    let delta = client
        .insert_edges(&[(1, 2)])
        .expect("post-recovery insert");
    assert_eq!(
        delta.round,
        recovered.round + 1,
        "round ids must continue after recovery, not restart"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "   crash-recovery audit passed: state byte-identical, rounds resumed at {}",
        recovered.round + 1
    );
}

/// What a round's snapshot publication costs at 500k vertices: the
/// copy-on-write export (`server_snapshot` — O(pages) refcount bumps, with
/// only the round's touched pages freshly repacked beforehand) versus the
/// from-scratch O(n) repack (`rebuild_server_snapshot`) the serving layer
/// previously paid on every commit. A small batch is applied first so the
/// touched-page count reflects a realistic round.
fn publication_bench(seed: u64) -> (f64, f64, usize, usize, usize) {
    const N: usize = 500_000;
    const M: usize = 500_000;
    let base = random_graph(N, M, seed ^ 0x51AB);
    let mut engine = Engine::from_graph(&base, seed);
    let insertions: Vec<Edge> = (0..64u64)
        .map(|i| {
            Edge::new(
                (hash64(seed ^ 0x9B1D, 2 * i) % N as u64) as u32,
                (hash64(seed ^ 0x9B1D, 2 * i + 1) % N as u64) as u32,
            )
        })
        .collect();
    engine.apply_batch(&EdgeBatch {
        insertions,
        deletions: Vec::new(),
    });
    let pages = engine.last_publication_pages();
    let reps = 32u32;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(engine.server_snapshot());
    }
    let cow_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(engine.rebuild_server_snapshot());
    }
    let full_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    (cow_us, full_us, pages, N, M)
}

/// One trajectory row. Unlike `run_all`'s timing rows (whose metric key is
/// `"seconds"`), server rows carry a rate or latency, so the metric key is
/// `"value"` with an explicit `"unit"`.
fn quick_row(name: &str, clients: usize, n: usize, m: usize, value: f64, unit: &str) -> String {
    format!(
        "    {{\"name\": \"{name}\", \"threads\": {clients}, \"n\": {n}, \"m\": {m}, \
         \"value\": {value:.3}, \"unit\": \"{unit}\"}}"
    )
}
