//! The delta path's correctness spine: folding the per-round delta stream
//! over the round-0 snapshot must reproduce, byte for byte, every snapshot
//! the server published — at every rayon pool size, and end-to-end over a
//! real socket.

use std::thread;
use std::time::Duration;

use greedy_engine::prelude::{EdgeBatch, Engine};
use greedy_graph::gen::random::random_graph;
use greedy_prims::random::hash64;
use greedy_server::prelude::*;

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

/// 1, 2, 3, 7, and whatever this machine reports — the same sweep the
/// umbrella determinism suite uses.
fn sweep_threads() -> Vec<usize> {
    let machine = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t = vec![1, 2, 3, 7, machine];
    t.sort_unstable();
    t.dedup();
    t
}

/// Drives a fresh engine through a deterministic 10-round update stream
/// (inserts + deletions drawn from present edges) and returns each round's
/// exact delta plus each round's published snapshot.
fn run_stream(threads: usize) -> (Vec<FullDelta>, Vec<greedy_engine::prelude::ServerSnapshot>) {
    in_pool(threads, || {
        let base = random_graph(2_000, 6_000, 41);
        let mut engine = Engine::from_graph(&base, 13);
        let mut deltas = Vec::new();
        let mut snapshots = vec![engine.server_snapshot()];
        for round in 1..=10u64 {
            let mut batch = EdgeBatch::new();
            for i in 0..60 {
                batch.insert(
                    (hash64(201, round * 1_000 + 2 * i) % 2_000) as u32,
                    (hash64(201, round * 1_000 + 2 * i + 1) % 2_000) as u32,
                );
            }
            for i in 0..25 {
                let x = (hash64(202, round * 1_000 + 2 * i) % 2_000) as u32;
                let adj = engine.graph().neighbors(x);
                if !adj.is_empty() {
                    let w =
                        adj[(hash64(202, round * 1_000 + 2 * i + 1) % adj.len() as u64) as usize];
                    batch.delete(x, w);
                }
            }
            let report = engine.apply_batch(&batch);
            deltas.push(FullDelta::from_report(round, &report));
            snapshots.push(engine.server_snapshot());
        }
        (deltas, snapshots)
    })
}

/// The property test the tentpole hangs on, swept across pool sizes: the
/// delta stream is schedule-independent, and folding it over round 0
/// re-derives every published snapshot byte for byte.
#[test]
fn folded_delta_stream_matches_snapshots_at_every_thread_count() {
    let (ref_deltas, ref_snapshots) = run_stream(1);
    assert!(
        ref_deltas.iter().any(|d| !d.match_flips.is_empty())
            && ref_deltas.iter().any(|d| !d.mis_flips.is_empty()),
        "the stream never flipped anything — the test is vacuous"
    );
    for threads in sweep_threads() {
        let (deltas, snapshots) = run_stream(threads);
        assert_eq!(
            deltas, ref_deltas,
            "delta stream changed with {threads} threads"
        );
        assert_eq!(
            snapshots, ref_snapshots,
            "snapshots changed with {threads} threads"
        );
        let mut replica = ReplicaState::from_snapshot(0, &snapshots[0]);
        for (delta, expected) in deltas.iter().zip(&snapshots[1..]) {
            let frame = delta.to_wire();
            assert!(!frame.truncated, "stream deltas must fit the wire");
            replica.fold(&frame).expect("contiguous stream must fold");
            assert_eq!(
                &replica.to_snapshot(),
                expected,
                "replica diverged at round {} with {threads} threads",
                delta.round
            );
        }
    }
}

/// Server-side version of the same property: every delta the round recorder
/// captured, folded over the pre-traffic snapshot, reproduces every
/// published snapshot — under concurrent writers over real sockets.
#[test]
fn recorded_delta_stream_refolds_every_published_snapshot() {
    let base = random_graph(1_500, 4_000, 17);
    let handle = serve(
        Engine::from_graph(&base, 29),
        ServerConfig {
            rounds: RoundConfig {
                max_batch_updates: 64,
                max_delay: Duration::from_millis(1),
            },
            record_rounds: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let round0 = handle.snapshot();
    assert_eq!(round0.round, 0);

    let writers: Vec<_> = (0..6u64)
        .map(|w| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..25u64 {
                    let a = (hash64(301, w * 1_000 + 2 * i) % 1_500) as u32;
                    let b = (hash64(301, w * 1_000 + 2 * i + 1) % 1_500) as u32;
                    if i % 4 == 3 {
                        client.delete_edges(&[(a, b)]).unwrap();
                    } else {
                        client.insert_edges(&[(a, b)]).unwrap();
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let report = handle.shutdown();
    assert!(!report.rounds.is_empty());

    let mut replica = ReplicaState::from_snapshot(0, &round0.state);
    for committed in &report.rounds {
        assert_eq!(
            committed.delta.round, committed.round,
            "recorded delta must be keyed by its round"
        );
        let frame = committed.delta.to_wire();
        assert!(!frame.truncated);
        replica.fold(&frame).expect("recorded stream must fold");
        assert_eq!(
            replica.to_snapshot(),
            committed.snapshot.state,
            "folded replica diverges from the published snapshot at round {}",
            committed.round
        );
        assert_eq!(
            replica.num_edges() as usize,
            committed.snapshot.state.num_edges()
        );
    }
    assert_eq!(
        replica.to_snapshot(),
        report.engine.server_snapshot(),
        "final folded state must equal the final engine state"
    );
}

/// The serving layer's only whole-WAL-directory byte check: two servers fed
/// the same single-writer stream publish byte-identical snapshots, emit a
/// byte-identical wire delta stream, report the same stats counters, and
/// leave byte-identical WAL directories (round records *and* checkpoints).
/// One sequential writer pins the round boundaries: each submit blocks until
/// its round commits, so round k holds exactly call k's updates in every run.
#[test]
fn server_rounds_and_wal_bytes_repeat_byte_for_byte() {
    use greedy_engine::prelude::ServerSnapshot;
    use greedy_server::wal::{FsyncPolicy, WalConfig};

    let base = random_graph(1_200, 3_500, 53);
    let config = |dir: std::path::PathBuf| ServerConfig {
        rounds: RoundConfig {
            max_batch_updates: 4096,
            max_delay: Duration::from_millis(1),
        },
        record_rounds: true,
        wal: Some(WalConfig {
            dir,
            fsync: FsyncPolicy::Off,
            segment_rounds: 3,
            checkpoint_every: 4,
            retain_all: false,
        }),
        ..ServerConfig::default()
    };
    // Drives one fresh server through 10 deterministic single-writer rounds
    // and returns (per-round published snapshots, wire delta stream, final
    // stats reply without its latency percentiles, WAL directory bytes keyed
    // by file name).
    type WalFiles = Vec<(String, Vec<u8>)>;
    let run = |run_id: usize| -> (Vec<ServerSnapshot>, Vec<DeltaFrame>, StatsReply, WalFiles) {
        let dir = std::env::temp_dir().join(format!(
            "greedy_repeat_run{}_{}",
            run_id,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = serve(Engine::from_graph(&base, 31), config(dir.clone())).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for round in 1..=10u64 {
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for i in 0..40 {
                inserts.push((
                    (hash64(501, round * 1_000 + 2 * i) % 1_200) as u32,
                    (hash64(501, round * 1_000 + 2 * i + 1) % 1_200) as u32,
                ));
            }
            for i in 0..15 {
                deletes.push((
                    (hash64(502, round * 1_000 + 2 * i) % 1_200) as u32,
                    (hash64(502, round * 1_000 + 2 * i + 1) % 1_200) as u32,
                ));
            }
            client.insert_edges(&inserts).unwrap();
            client.delete_edges(&deletes).unwrap();
        }
        // Commit latency is wall-clock: everything else in the reply is a
        // counter and must repeat.
        let stats = StatsReply {
            commit_p50_us: 0,
            commit_p99_us: 0,
            ..client.stats().unwrap()
        };
        drop(client);
        let report = handle.shutdown();
        let snapshots: Vec<ServerSnapshot> = report
            .rounds
            .iter()
            .map(|c| c.snapshot.state.clone())
            .collect();
        let deltas: Vec<DeltaFrame> = report.rounds.iter().map(|c| c.delta.to_wire()).collect();
        let mut files: WalFiles = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&dir);
        (snapshots, deltas, stats, files)
    };

    let (ref_snapshots, ref_deltas, ref_stats, ref_files) = run(0);
    assert_eq!(ref_snapshots.len(), 20, "one round per client call");
    assert_eq!(ref_stats.round, 20);
    assert!(
        ref_files.iter().any(|(n, _)| n.contains("checkpoint")),
        "the cadence must have written a mid-stream checkpoint"
    );

    let (snapshots, deltas, stats, files) = run(1);
    assert_eq!(snapshots, ref_snapshots, "published snapshots changed");
    assert_eq!(deltas, ref_deltas, "recorded delta stream changed");
    assert_eq!(stats, ref_stats, "stats counters changed");
    assert_eq!(files, ref_files, "WAL directory bytes changed");
}

/// End-to-end over the socket: a push subscriber's reconstructed state is
/// byte-identical to the recorded published snapshot of every round it
/// lands on, including the final one.
#[test]
fn tcp_subscriber_reconstruction_is_byte_identical() {
    let handle = serve(
        Engine::from_graph(&random_graph(1_000, 3_000, 7), 19),
        ServerConfig {
            rounds: RoundConfig {
                max_batch_updates: 32,
                max_delay: Duration::from_millis(1),
            },
            record_rounds: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut subscriber = Client::connect(addr).unwrap().subscribe_fresh().unwrap();
    let collector = thread::spawn(move || {
        let mut states = Vec::new();
        while let Some(state) = subscriber.next_round().unwrap() {
            states.push((state.round(), state.to_snapshot()));
        }
        (states, subscriber.resyncs())
    });

    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..20u64 {
                    let a = (hash64(401, w * 1_000 + 2 * i) % 1_000) as u32;
                    let b = (hash64(401, w * 1_000 + 2 * i + 1) % 1_000) as u32;
                    client.insert_edges(&[(a, b)]).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let report = handle.shutdown();
    let (states, resyncs) = collector.join().unwrap();

    assert!(!states.is_empty(), "the subscriber saw no rounds");
    // Every state the subscriber reconstructed must match the published
    // snapshot of the same round, byte for byte.
    let mut checked = 0usize;
    for (round, snapshot) in &states {
        if let Some(committed) = report.rounds.iter().find(|c| c.round == *round) {
            assert_eq!(
                snapshot, &committed.snapshot.state,
                "subscriber state diverges from round {round}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no subscriber round overlapped the record");
    // The feed drains fully at shutdown: the last reconstructed state is the
    // final committed round's.
    let (last_round, last_state) = states.last().unwrap();
    assert_eq!(*last_round, report.rounds.last().unwrap().round);
    assert_eq!(last_state, &report.engine.server_snapshot());
    // With a live subscriber attached from the start, reconstruction should
    // be delta-driven: at most the initial seeding snapshot.
    assert!(
        resyncs <= 1,
        "an attached subscriber resynced {resyncs} times"
    );
}
