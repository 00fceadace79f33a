//! Crash-recovery correctness for the write-ahead log.
//!
//! The contract under test: for any update stream and a crash after any
//! prefix of committed rounds, `wal::recover` rebuilds state byte-identical
//! to a from-scratch engine that applied the same prefix — and a damaged
//! log tail (torn final record, bit-flipped CRC) truncates the replay at
//! the last valid record instead of panicking or diverging. A server
//! restarted from a damaged log must cut the damage away, so the rounds it
//! logs after the restart survive the next crash.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use greedy_engine::prelude::{EdgeBatch, Engine};
use greedy_prims::random::hash64;
use greedy_server::prelude::*;
use greedy_server::wal::{self, FsyncPolicy, Wal, WalConfig};
use proptest::prelude::*;

/// A unique, empty scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "greedy_wal_recovery_{}_{}",
        name,
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn quick_wal(dir: PathBuf) -> WalConfig {
    WalConfig {
        dir,
        // Fsync off in tests: the page-cache view is the file view within
        // one process, and what recovery reads is the file, so durability
        // policy does not change any assertion here.
        fsync: FsyncPolicy::Off,
        segment_rounds: 4,
        checkpoint_every: 0,
        retain_all: false,
    }
}

/// The deterministic update stream every test replays: round `r` inserts a
/// handful of pseudorandom edges and deletes a couple of earlier ones.
fn round_batch(n: u32, stream: u64, r: u64) -> EdgeBatch {
    let mut batch = EdgeBatch::new();
    for i in 0..8 {
        batch.insert(
            (hash64(stream, r * 100 + 2 * i) % n as u64) as u32,
            (hash64(stream, r * 100 + 2 * i + 1) % n as u64) as u32,
        );
    }
    for i in 0..3 {
        // Deleting edges that may not exist is fine: the engine counts only
        // effective deletions, absent edges are no-ops.
        batch.delete(
            (hash64(stream ^ 7, r * 100 + i) % n as u64) as u32,
            (hash64(stream ^ 9, r * 100 + i) % n as u64) as u32,
        );
    }
    batch
}

/// Runs `rounds` rounds through an engine + WAL exactly as the scheduler's
/// commit path does (append each round's batch + exact delta), then stops
/// WITHOUT a final checkpoint — i.e. crashes. Returns the engine as it was
/// at the crash.
fn run_and_crash(cfg: &WalConfig, n: usize, seed: u64, stream: u64, rounds: u64) -> Engine {
    let mut engine = Engine::new(n, seed);
    let mut wal = Wal::create(cfg.clone(), &engine, 0).expect("wal create");
    for r in 1..=rounds {
        let batch = round_batch(n as u32, stream, r);
        let report = engine.apply_batch(&batch);
        let delta = FullDelta::from_report(r, &report);
        wal.append_round(r, &batch.insertions, &batch.deletions, &delta)
            .expect("wal append");
        wal.maybe_checkpoint(r, &engine).expect("wal checkpoint");
    }
    // Dropping the writer without close()/checkpoint(): the crash.
    engine
}

/// XORs `mask` into byte `offset` of the record that follows the first
/// `skip` records of the segment starting at round `first`.
fn flip_record_byte(dir: &Path, first: u64, skip: usize, offset: usize, mask: u8) {
    let path = wal::segment_file(dir, first);
    let mut bytes = fs::read(&path).expect("read segment");
    let mut pos = 0usize;
    for _ in 0..skip {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
    }
    bytes[pos + offset] ^= mask;
    fs::write(&path, &bytes).expect("write corrupted segment");
}

/// Flips one payload byte of the record that follows the first `skip`
/// records of the segment starting at round `first`: its CRC fails.
fn corrupt_record(dir: &Path, first: u64, skip: usize) {
    flip_record_byte(dir, first, skip, 8 + 2, 0x10);
}

/// Flips the top bit of that record's length prefix: the length is beyond
/// any record's, so no reader can find where the next record starts.
fn corrupt_length(dir: &Path, first: u64, skip: usize) {
    flip_record_byte(dir, first, skip, 3, 0x80);
}

/// The from-scratch referee: a fresh engine that applies the same prefix.
fn replay_prefix(n: usize, seed: u64, stream: u64, rounds: u64) -> Engine {
    let mut engine = Engine::new(n, seed);
    for r in 1..=rounds {
        engine.apply_batch(&round_batch(n as u32, stream, r));
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash after ANY prefix of rounds, with any (small) checkpoint
    /// cadence: recovery == from-scratch replay of that prefix, byte for
    /// byte.
    #[test]
    fn recovery_equals_replay_after_any_crash_prefix(
        rounds in 0u64..20,
        stream in 1u64..1_000,
        checkpoint_every in 0u64..7,
    ) {
        let dir = scratch(&format!("prop_{rounds}_{stream}_{checkpoint_every}"));
        let cfg = WalConfig { checkpoint_every, ..quick_wal(dir.clone()) };
        let crashed = run_and_crash(&cfg, 300, 11, stream, rounds);
        let recovered = wal::recover(&dir).expect("recover").expect("log exists");
        prop_assert_eq!(recovered.round, rounds);
        prop_assert!(!recovered.tail_truncated);
        prop_assert_eq!(
            recovered.engine.server_snapshot(),
            crashed.server_snapshot()
        );
        let referee = replay_prefix(300, 11, stream, rounds);
        prop_assert_eq!(
            recovered.engine.server_snapshot(),
            referee.server_snapshot()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_final_record_is_truncated_not_fatal() {
    let dir = scratch("torn");
    let cfg = quick_wal(dir.clone());
    run_and_crash(&cfg, 200, 5, 77, 6);
    // Tear mid-record: a crash half way through the final append.
    wal::tear_log_tail(&dir, 5).expect("tear");
    let recovered = wal::recover(&dir).expect("recover").expect("log exists");
    assert_eq!(recovered.round, 5, "the torn round must be dropped");
    assert!(recovered.tail_truncated);
    let referee = replay_prefix(200, 5, 77, 5);
    assert_eq!(
        recovered.engine.server_snapshot(),
        referee.server_snapshot()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_record_truncates_the_log_there() {
    let dir = scratch("bitflip");
    let cfg = WalConfig {
        // One big segment so all six rounds share a file and the flip can
        // land in the middle of it.
        segment_rounds: 1_000,
        ..quick_wal(dir.clone())
    };
    run_and_crash(&cfg, 200, 5, 78, 6);
    // Flip a payload byte of the 4th record (round 4): rounds 1..=3 stay
    // valid, 4..=6 must be discarded.
    let seg = wal::list_segments(&dir).expect("list")[0];
    corrupt_record(&dir, seg, 3);
    let recovered = wal::recover(&dir).expect("recover").expect("log exists");
    assert_eq!(recovered.round, 3, "replay must stop before the bad CRC");
    assert!(recovered.tail_truncated);
    let referee = replay_prefix(200, 5, 78, 3);
    assert_eq!(
        recovered.engine.server_snapshot(),
        referee.server_snapshot()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Logs six rounds in segments of rounds 1..=4 and 5..=6, crashes, and
/// applies `damage`, after which recovery reaches round `recovered`. A
/// server restarted from the directory then logs rounds up to 9 and crashes
/// again: the second recovery must reach round 9 and equal a from-scratch
/// replay, with the damage cut away and `segments` left on disk.
fn restart_after_damage(
    name: &str,
    stream: u64,
    damage: impl Fn(&Path),
    recovered: u64,
    segments: &[u64],
) {
    let dir = scratch(name);
    let cfg = quick_wal(dir.clone());
    run_and_crash(&cfg, 200, 5, stream, 6);
    damage(&dir);
    let first = wal::recover(&dir).expect("recover").expect("log exists");
    assert_eq!((first.round, first.tail_truncated), (recovered, true));

    let mut wal = Wal::reopen(cfg, &first).expect("wal reopen");
    let mut engine = first.engine;
    for r in recovered + 1..=9 {
        let batch = round_batch(200, stream, r);
        let delta = FullDelta::from_report(r, &engine.apply_batch(&batch));
        wal.append_round(r, &batch.insertions, &batch.deletions, &delta)
            .expect("wal append");
    }
    drop(wal);
    let second = wal::recover(&dir).expect("recover").expect("log exists");
    assert_eq!(second.round, 9, "rounds logged after the restart were lost");
    assert!(!second.tail_truncated, "the damage must be cut away");
    assert_eq!(
        second.engine.server_snapshot(),
        replay_prefix(200, 5, stream, 9).server_snapshot()
    );
    assert_eq!(wal::list_segments(&dir).expect("list"), segments);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rounds_logged_after_recovering_a_torn_tail_survive_the_next_crash() {
    // Round 6 is torn.
    let tear = |dir: &Path| wal::tear_log_tail(dir, 5).expect("tear");
    restart_after_damage("torn_restart", 79, tear, 5, &[1, 5, 6]);
}

#[test]
fn rounds_logged_after_recovering_a_corrupt_record_survive_the_next_crash() {
    // Round 3 is corrupt: rounds 3..=6 are unreadable, and the segment that
    // starts at round 5 is stale.
    let flip = |dir: &Path| corrupt_record(dir, 1, 2);
    restart_after_damage("bitflip_restart", 80, flip, 2, &[1, 3, 7]);
}

#[test]
fn reopen_refuses_to_cut_records_a_checkpoint_covers() {
    let dir = scratch("covered_damage");
    let cfg = WalConfig {
        checkpoint_every: 5,
        retain_all: true,
        ..quick_wal(dir.clone())
    };
    // The length prefix of round 5, the first record of `wal-5`, is corrupt,
    // so no skip can reach round 6 behind it. Recovery still reaches round 5
    // from the round-5 checkpoint, and cutting the log at round 5 would
    // remove round 5.
    run_and_crash(&cfg, 200, 5, 81, 6);
    corrupt_length(&dir, 5, 0);
    let recovered = wal::recover(&dir).expect("recover").expect("log exists");
    assert_eq!((recovered.round, recovered.tail_truncated), (5, true));
    let log = || {
        let segments = wal::list_segments(&dir).expect("list");
        segments
            .into_iter()
            .map(|s| fs::read(wal::segment_file(&dir, s)).expect("read"))
            .collect::<Vec<_>>()
    };
    let before = log();
    assert!(Wal::reopen(cfg, &recovered).is_err());
    assert_eq!(log(), before, "a refused cut must leave the log untouched");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damage_a_checkpoint_covers_does_not_hide_later_rounds() {
    let dir = scratch("covered_damage_later_rounds");
    let cfg = WalConfig {
        checkpoint_every: 5,
        retain_all: true,
        ..quick_wal(dir.clone())
    };
    // Round 3 is corrupt in `wal-1`, which `retain_all` keeps, but the
    // round-5 checkpoint covers it: recovery reads from `wal-5`, the
    // segment that holds round 6, and reaches round 6 intact.
    run_and_crash(&cfg, 200, 5, 81, 6);
    corrupt_record(&dir, 1, 2);
    let recovered = wal::recover(&dir).expect("recover").expect("log exists");
    assert_eq!((recovered.round, recovered.tail_truncated), (6, false));
    assert_eq!(
        recovered.engine.server_snapshot(),
        replay_prefix(200, 5, 81, 6).server_snapshot()
    );
    assert!(Wal::reopen(cfg, &recovered).is_ok());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn covered_damage_in_the_replay_segment_is_skipped() {
    let dir = scratch("covered_damage_skipped");
    let cfg = WalConfig {
        checkpoint_every: 5,
        retain_all: true,
        ..quick_wal(dir.clone())
    };
    // Round 5, the first record of `wal-5`, fails its CRC, but the round-5
    // checkpoint holds it and its length prefix still leads to round 6:
    // recovery skips it and replays round 6.
    run_and_crash(&cfg, 200, 5, 81, 6);
    corrupt_record(&dir, 5, 0);
    let recovered = wal::recover(&dir).expect("recover").expect("log exists");
    assert_eq!((recovered.round, recovered.tail_truncated), (6, false));
    assert_eq!(
        recovered.engine.server_snapshot(),
        replay_prefix(200, 5, 81, 6).server_snapshot()
    );
    assert!(Wal::reopen(cfg, &recovered).is_ok());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_truncate_superseded_segments_and_recovery_still_works() {
    let dir = scratch("truncate");
    let cfg = WalConfig {
        segment_rounds: 3,
        checkpoint_every: 5,
        ..quick_wal(dir.clone())
    };
    run_and_crash(&cfg, 250, 9, 123, 13);
    // Rounds 1..=13 with a checkpoint every 5: the newest checkpoint is at
    // round 10, and every segment wholly before round 11 is deleted.
    let checkpoints = wal::list_checkpoints(&dir).expect("list checkpoints");
    assert_eq!(*checkpoints.last().unwrap(), 10);
    assert_eq!(checkpoints.len(), 1, "older checkpoints are deleted");
    let segments = wal::list_segments(&dir).expect("list segments");
    assert!(
        segments.iter().all(|&first| first >= 8),
        "segments wholly covered by the round-10 checkpoint must be gone, kept: {segments:?}"
    );
    let recovered = wal::recover(&dir).expect("recover").expect("log exists");
    assert_eq!(recovered.round, 13);
    assert_eq!(recovered.checkpoint_round, 10);
    let referee = replay_prefix(250, 9, 123, 13);
    assert_eq!(
        recovered.engine.server_snapshot(),
        referee.server_snapshot()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn server_restart_resumes_rounds_and_state_from_the_log() {
    let dir = scratch("restart");
    let config = ServerConfig {
        wal: Some(WalConfig {
            fsync: FsyncPolicy::PerRound,
            ..WalConfig::durable(dir.clone())
        }),
        ..ServerConfig::default()
    };

    // First life: commit a few rounds, remember the state, shut down
    // cleanly (which writes a final checkpoint).
    let handle = serve(Engine::new(60, 4), config.clone()).expect("serve");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.insert_edges(&[(1, 2), (3, 4)]).expect("insert");
    client.insert_edges(&[(5, 6)]).expect("insert");
    client.delete_edges(&[(1, 2)]).expect("delete");
    // Every acked round was logged and fsynced inside its commit, so the
    // WAL stage is real time here, and the stages must still tile.
    let traces = handle.recent_rounds();
    assert_eq!(traces.len(), 3);
    common::assert_stages_tile(&traces);
    let stats = client.stats().expect("stats");
    assert!(
        stats.durable_round >= stats.round,
        "per-round fsync: every acked round is durable (round {}, durable {})",
        stats.round,
        stats.durable_round
    );
    let report = handle.shutdown();
    let first_life = report.engine.server_snapshot();
    let last_round = stats.round;

    // Second life: the engine argument is a decoy — the directory is
    // authoritative, so the recovered server must serve the first life's
    // state and CONTINUE its round numbering, not restart at 1.
    let handle = serve(Engine::new(60, 4), config).expect("re-serve");
    // How this server came up is the journal's first entry.
    let text = handle.metrics_text();
    assert!(
        text.contains(&format!(
            "wal_recovery round={last_round} replayed=0 tail_truncated=false"
        )),
        "recovery outcome must be journalled, got:\n{text}"
    );
    assert_eq!(handle.committed_round(), last_round);
    assert_eq!(handle.snapshot().round, last_round);
    assert_eq!(handle.snapshot().state, first_life);
    assert!(handle.durable_round() >= last_round);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let delta = client.insert_edges(&[(7, 8)]).expect("insert");
    assert_eq!(delta.round, last_round + 1, "round ids must not restart");
    let report = handle.shutdown();
    assert_eq!(report.engine.num_edges(), 3); // {3,4} {5,6} {7,8}
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn durable_lag_is_nonzero_under_group_commit_and_zero_per_round() {
    // Group commit fsyncs every 3rd round: after exactly one committed
    // round nothing is synced yet, so the disk verifiably trails the ack.
    let dir = scratch("lag");
    let config = ServerConfig {
        wal: Some(WalConfig {
            fsync: FsyncPolicy::EveryRounds(3),
            ..WalConfig::durable(dir.clone())
        }),
        ..ServerConfig::default()
    };
    let handle = serve(Engine::new(40, 6), config).expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.insert_edges(&[(0, 1)]).expect("insert");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.round, 1);
    assert_eq!(stats.durable_round, 0, "round 1 must not be synced yet");
    assert_eq!(stats.durable_lag, 1, "StatsReply must expose the lag");
    assert!(
        handle.metrics_text().contains("server_durable_lag 1"),
        "the gauge must show the unsynced round"
    );
    // Two more rounds trip the group fsync: the sawtooth returns to zero.
    client.insert_edges(&[(2, 3)]).expect("insert");
    client.insert_edges(&[(4, 5)]).expect("insert");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.round, 3);
    assert_eq!(stats.durable_round, 3);
    assert_eq!(stats.durable_lag, 0);
    assert!(handle.metrics_text().contains("server_durable_lag 0"));
    handle.shutdown();

    // Per-round fsync never shows lag.
    let dir2 = scratch("lag_per_round");
    let config = ServerConfig {
        wal: Some(WalConfig::durable(dir2.clone())),
        ..ServerConfig::default()
    };
    let handle = serve(Engine::new(40, 6), config).expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.insert_edges(&[(0, 1)]).expect("insert");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.durable_lag, 0, "PerRound acks only durable rounds");
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

#[test]
fn recovery_after_unclean_server_stop_replays_every_acked_round() {
    let dir = scratch("unclean");
    let config = ServerConfig {
        wal: Some(WalConfig {
            fsync: FsyncPolicy::EveryRounds(2),
            // Keep every segment and checkpoint: the test deletes the final
            // checkpoint below, and replay-from-base needs the full log.
            retain_all: true,
            ..WalConfig::durable(dir.clone())
        }),
        ..ServerConfig::default()
    };
    let handle = serve(Engine::new(40, 8), config).expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut last = 0;
    for r in 0..5u32 {
        last = client
            .insert_edges(&[(r, r + 10), (r + 1, r + 20)])
            .expect("insert")
            .round;
    }
    let report = handle.shutdown();
    // Simulate the crash by discarding the *final checkpoint's* claim to be
    // the newest state: delete every checkpoint except the base one, so
    // recovery must come from log replay alone.
    for ck in wal::list_checkpoints(&dir).expect("list") {
        if ck != 0 {
            let _ = fs::remove_file(dir.join(format!("checkpoint-{ck:020}.ckpt")));
        }
    }
    let recovered = wal::recover(&dir).expect("recover").expect("log exists");
    assert_eq!(recovered.round, last);
    assert_eq!(recovered.checkpoint_round, 0);
    assert_eq!(recovered.replayed, last);
    assert_eq!(
        recovered.engine.server_snapshot(),
        report.engine.server_snapshot()
    );
    let _ = fs::remove_dir_all(&dir);
}
