//! The write-ahead log: per-round durability and crash recovery for the
//! serving layer.
//!
//! Every committed round already produces the exact record a log needs: the
//! batch the engine applied plus the round's uncapped [`FullDelta`] (whose
//! wire encoding, [`DeltaFrame`], is proven byte-identical to replay by the
//! `delta_replay` suite). This module appends that record to a segmented log
//! *before* the scheduler acks the commit to its writers, writes periodic
//! compact checkpoints as the existing [`SnapshotChunk`] stream plus the
//! graph's edge set, and rebuilds a crashed server from checkpoint + log
//! replay — verifying the recovered state byte-identical to the last logged
//! round via [`ReplicaState::fold`].
//!
//! ## On-disk layout
//!
//! A data directory holds two kinds of files, both built from one record
//! framing — `[len: u32][crc32: u32][payload]`, CRC over the payload:
//!
//! * `wal-<first-round>.log` — log segments. Each record is tag
//!   `TAG_ROUND`: the round id, the round's insertions and deletions, and
//!   the round's delta in the exact wire [`DeltaFrame`] encoding
//!   ([`crate::protocol`]'s encoder, uncapped, so the record never
//!   truncates). Rounds are contiguous within and across segments; a new
//!   segment starts every [`WalConfig::segment_rounds`] records.
//! * `checkpoint-<round>.ckpt` — compact checkpoints: a header record
//!   (round, vertices, seed, edge count), the edge set in chunked records,
//!   and the published state as the verbatim [`SnapshotChunk`] stream.
//!   Checkpoints are written to a temp file, fsynced, then renamed, so a
//!   crash mid-checkpoint never destroys the previous one. After a
//!   checkpoint lands, segments and checkpoints it supersedes are deleted
//!   (unless [`WalConfig::retain_all`] keeps them for audits).
//!
//! ## Recovery
//!
//! [`recover`] loads the newest valid checkpoint, rebuilds the engine with
//! [`Engine::from_graph`] (state is a pure function of edge set + seed —
//! the paper's uniqueness fact is what makes the checkpoint this small),
//! then replays every logged round after it: each record's batch goes
//! through [`Engine::apply_batch`] while its delta is folded into a
//! [`ReplicaState`], and the two reconstructions must land byte-identical.
//! A torn final record (crash mid-write) or a corrupt CRC truncates the log
//! at the last valid record — recovery never panics on a damaged tail.
//!
//! ## Durability policy
//!
//! [`FsyncPolicy`] picks what "durable" costs: `PerRound` fsyncs before the
//! commit is acked (no acked round is ever lost), `EveryRounds(k)` group-
//! syncs (bounded loss window, most of the throughput back), `Off` leaves
//! syncing to rotations and checkpoints. The scheduler exposes the highest
//! fsynced round as `durable_round` in [`crate::protocol::StatsReply`].

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use greedy_engine::prelude::{EdgeBatch, Engine};
use greedy_graph::csr::Graph;
use greedy_graph::edge_list::Edge;
use greedy_obs::{EventJournal, EventKind};

use crate::feed::FullDelta;
use crate::protocol::{self, malformed, Cursor, DeltaFrame, SnapshotChunk};
use crate::replica::{snapshot_chunks, ReplicaState, SnapshotAssembler};

/// Hard ceiling on one WAL record's payload (256 MiB). Records are normally
/// a few KB; the ceiling only exists so a corrupt length prefix read back
/// from disk cannot demand an absurd allocation.
const MAX_RECORD_LEN: u32 = 256 << 20;

/// Record header: `u32` payload length + `u32` CRC of the payload.
const RECORD_HEADER: usize = 8;

/// Tag of a round record in a log segment.
const TAG_ROUND: u8 = 1;
/// Tag of a checkpoint's header record.
const TAG_CKPT_HEADER: u8 = 2;
/// Tag of a checkpoint's edge-chunk record.
const TAG_CKPT_EDGES: u8 = 3;
/// Tag of a checkpoint's snapshot-chunk record.
const TAG_CKPT_SNAPSHOT: u8 = 4;

/// Edges per checkpoint edge-chunk record (8 MB of pairs).
const CKPT_EDGE_CHUNK: usize = 1 << 20;

/// An fsync slower than this (µs) is journalled as a
/// [`EventKind::WalFsyncStall`] — a healthy local disk syncs a few-KB
/// append in well under a millisecond, so 50 ms means the device (or the
/// writeback queue in front of it) is in trouble.
const FSYNC_STALL_US: u64 = 50_000;

/// When to fsync appended round records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync every round, before the commit is acked: an acknowledged write
    /// is never lost. The honest (and slowest) policy.
    PerRound,
    /// Group commit: fsync once every `n` rounds (and at rotation,
    /// checkpoint, and shutdown). At most `n - 1` acked rounds are exposed
    /// to loss on a crash.
    EveryRounds(u64),
    /// Never fsync on append; rotations and checkpoints still sync. A crash
    /// loses whatever the OS had not flushed.
    Off,
}

/// Write-ahead-log configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Directory holding segments and checkpoints. Created if missing; if it
    /// already holds a valid log, the server recovers from it instead of
    /// serving the engine it was handed.
    pub dir: PathBuf,
    /// Fsync policy for round records.
    pub fsync: FsyncPolicy,
    /// Round records per segment before rotating to a new file.
    pub segment_rounds: u64,
    /// Rounds between periodic checkpoints (0 = checkpoint only on clean
    /// shutdown). Each checkpoint truncates the log behind it.
    pub checkpoint_every: u64,
    /// Keep superseded segments and checkpoints instead of deleting them.
    /// Meant for audits (a full-history replay can then be compared against
    /// checkpoint + tail recovery); production serving wants this off.
    pub retain_all: bool,
}

impl WalConfig {
    /// A per-round-durable WAL in `dir` with the default segment/checkpoint
    /// cadence.
    pub fn durable<P: Into<PathBuf>>(dir: P) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::PerRound,
            segment_rounds: 4096,
            checkpoint_every: 0,
            retain_all: false,
        }
    }
}

// ------------------------------------------------------------------ crc32

/// CRC-32 (IEEE 802.3, reflected), the standard polynomial every WAL format
/// uses. Table-driven; the table is built in a `const` so the hot path is a
/// byte-indexed lookup.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --------------------------------------------------------- record framing

/// Appends one framed record (`len + crc + payload`) to `buf`.
fn frame_record(buf: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() as u64 <= MAX_RECORD_LEN as u64);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// How reading one record from a byte slice ended.
enum RecordRead<'a> {
    /// A valid record's payload, plus the offset just past it.
    Ok(&'a [u8], usize),
    /// Clean end of file (exactly at a record boundary).
    Eof,
    /// A torn or corrupt record: everything from this offset on must be
    /// ignored (and, on the write path, truncated away).
    Damaged(&'static str),
}

/// Reads the record starting at `pos` in `data`.
fn read_record(data: &[u8], pos: usize) -> RecordRead<'_> {
    if pos == data.len() {
        return RecordRead::Eof;
    }
    if data.len() - pos < RECORD_HEADER {
        return RecordRead::Damaged("torn record header");
    }
    let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
    let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
    if len == 0 || len > MAX_RECORD_LEN {
        return RecordRead::Damaged("corrupt record length");
    }
    let start = pos + RECORD_HEADER;
    let end = match start.checked_add(len as usize) {
        Some(e) if e <= data.len() => e,
        _ => return RecordRead::Damaged("torn record payload"),
    };
    let payload = &data[start..end];
    if crc32(payload) != crc {
        return RecordRead::Damaged("record CRC mismatch");
    }
    RecordRead::Ok(payload, end)
}

// ----------------------------------------------------------- round records

/// One logged round, as read back from a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Round id (monotonic, contiguous across the whole log).
    pub round: u64,
    /// Insertions the round applied, in staging order.
    pub insertions: Vec<Edge>,
    /// Deletions the round applied, in staging order.
    pub deletions: Vec<Edge>,
    /// The round's exact delta in wire encoding (never truncated — the WAL
    /// writes the full lists, unlike the capped push path).
    pub delta: DeltaFrame,
}

fn encode_round_record(
    round: u64,
    insertions: &[Edge],
    deletions: &[Edge],
    delta: &FullDelta,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        64 + 8 * (insertions.len() + deletions.len())
            + 4 * delta.mis_flips.len()
            + 13 * delta.match_flips.len(),
    );
    buf.push(TAG_ROUND);
    protocol::put_u64(&mut buf, round);
    put_edges(&mut buf, insertions);
    put_edges(&mut buf, deletions);
    protocol::put_delta_parts(
        &mut buf,
        delta.round,
        delta.inserted,
        delta.deleted,
        &delta.mis_flips,
        &delta.match_flips,
        false,
    );
    buf
}

fn decode_round_record(payload: &[u8]) -> io::Result<WalRecord> {
    let mut c = Cursor::new(payload);
    if c.u8()? != TAG_ROUND {
        return Err(malformed("not a round record".into()));
    }
    let round = c.u64()?;
    let insertions = read_edges(&mut c)?;
    let deletions = read_edges(&mut c)?;
    let delta = protocol::read_delta_body(&mut c)?;
    c.finish()?;
    if delta.round != round {
        return Err(malformed(format!(
            "round record {round} carries a delta for round {}",
            delta.round
        )));
    }
    if delta.truncated {
        // The WAL never writes truncated deltas; one on disk is corruption.
        return Err(malformed("logged delta claims truncation".into()));
    }
    Ok(WalRecord {
        round,
        insertions,
        deletions,
        delta,
    })
}

fn put_edges(buf: &mut Vec<u8>, edges: &[Edge]) {
    protocol::put_list_len(buf, edges.len());
    for e in edges {
        protocol::put_u32(buf, e.u);
        protocol::put_u32(buf, e.v);
    }
}

fn read_edges(c: &mut Cursor<'_>) -> io::Result<Vec<Edge>> {
    Ok(c.pairs()?
        .into_iter()
        .map(|(u, v)| Edge::new(u, v))
        .collect())
}

// ------------------------------------------------------------- file names

fn segment_path(dir: &Path, first_round: u64) -> PathBuf {
    dir.join(format!("wal-{first_round:020}.log"))
}

fn checkpoint_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("checkpoint-{round:020}.ckpt"))
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Path of the checkpoint file capturing `round`, for audits that read a
/// specific checkpoint directly (recovery itself picks the newest valid one).
pub fn checkpoint_file(dir: &Path, round: u64) -> PathBuf {
    checkpoint_path(dir, round)
}

/// Path of the log segment whose first round is `first_round`.
pub fn segment_file(dir: &Path, first_round: u64) -> PathBuf {
    segment_path(dir, first_round)
}

/// Rounds of the checkpoints in `dir`, ascending.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<u64>> {
    list_numbered(dir, "checkpoint-", ".ckpt")
}

/// First rounds of the log segments in `dir`, ascending.
pub fn list_segments(dir: &Path) -> io::Result<Vec<u64>> {
    list_numbered(dir, "wal-", ".log")
}

fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(n) = entry
            .file_name()
            .to_str()
            .and_then(|s| parse_numbered(s, prefix, suffix))
        {
            out.push(n);
        }
    }
    out.sort_unstable();
    Ok(out)
}

// ------------------------------------------------------------ checkpoints

/// A loaded checkpoint: everything needed to rebuild the engine and verify
/// the rebuild.
pub struct Checkpoint {
    /// Round the checkpoint captures.
    pub round: u64,
    /// Engine seed (the priorities; state is unique given edges + seed).
    pub seed: u64,
    /// The graph's edge set at `round`, canonical order.
    pub edges: Vec<Edge>,
    /// Vertex count.
    pub num_vertices: usize,
    /// The published MIS/matching state at `round`, reassembled from the
    /// stored [`SnapshotChunk`] stream.
    pub replica: ReplicaState,
}

fn encode_checkpoint(round: u64, engine: &Engine) -> Vec<u8> {
    let edge_list = engine.graph().to_edge_list();
    let edges = edge_list.edges();
    let mut out = Vec::new();

    let mut header = Vec::with_capacity(33);
    header.push(TAG_CKPT_HEADER);
    protocol::put_u64(&mut header, round);
    protocol::put_u64(&mut header, engine.num_vertices() as u64);
    protocol::put_u64(&mut header, engine.seed());
    protocol::put_u64(&mut header, edges.len() as u64);
    frame_record(&mut out, &header);

    for chunk in edges.chunks(CKPT_EDGE_CHUNK.max(1)) {
        let mut rec = Vec::with_capacity(5 + 8 * chunk.len());
        rec.push(TAG_CKPT_EDGES);
        put_edges(&mut rec, chunk);
        frame_record(&mut out, &rec);
    }

    for chunk in snapshot_chunks(round, &engine.server_snapshot()) {
        let mut rec = Vec::new();
        rec.push(TAG_CKPT_SNAPSHOT);
        protocol::put_snapshot_chunk(&mut rec, &chunk);
        frame_record(&mut out, &rec);
    }
    out
}

/// Loads and fully validates one checkpoint file (header, edge chunks,
/// snapshot stream, per-record CRCs). Any damage is an error — recovery
/// falls back to an older checkpoint.
pub fn load_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let data = fs::read(path)?;
    let mut pos = 0usize;
    let mut header: Option<(u64, u64, u64, u64)> = None;
    let mut edges: Vec<Edge> = Vec::new();
    let mut assembler = SnapshotAssembler::new();
    let mut replica: Option<ReplicaState> = None;
    loop {
        let (payload, next) = match read_record(&data, pos) {
            RecordRead::Ok(p, n) => (p, n),
            RecordRead::Eof => break,
            RecordRead::Damaged(why) => {
                return Err(malformed(format!("damaged checkpoint record: {why}")))
            }
        };
        pos = next;
        let mut c = Cursor::new(payload);
        match c.u8()? {
            TAG_CKPT_HEADER => {
                if header.is_some() {
                    return Err(malformed("duplicate checkpoint header".into()));
                }
                header = Some((c.u64()?, c.u64()?, c.u64()?, c.u64()?));
                c.finish()?;
            }
            TAG_CKPT_EDGES => {
                if header.is_none() {
                    return Err(malformed("edge chunk before checkpoint header".into()));
                }
                edges.extend(read_edges(&mut c)?);
                c.finish()?;
            }
            TAG_CKPT_SNAPSHOT => {
                if replica.is_some() {
                    return Err(malformed("snapshot chunk after final chunk".into()));
                }
                let chunk: SnapshotChunk = protocol::read_snapshot_chunk_body(&mut c)?;
                c.finish()?;
                replica = assembler.push(chunk).map_err(malformed)?;
            }
            tag => return Err(malformed(format!("unknown checkpoint tag {tag}"))),
        }
    }
    let (round, n, seed, num_edges) =
        header.ok_or_else(|| malformed("checkpoint has no header".into()))?;
    let replica =
        replica.ok_or_else(|| malformed("checkpoint snapshot stream incomplete".into()))?;
    if edges.len() as u64 != num_edges {
        return Err(malformed(format!(
            "checkpoint header promises {num_edges} edges, found {}",
            edges.len()
        )));
    }
    if replica.round() != round || replica.num_vertices() as u64 != n {
        return Err(malformed(
            "checkpoint snapshot disagrees with header".into(),
        ));
    }
    Ok(Checkpoint {
        round,
        seed,
        edges,
        num_vertices: n as usize,
        replica,
    })
}

// ------------------------------------------------------------- the writer

struct Segment {
    file: File,
    records: u64,
}

/// The append side of the log, driven by the engine thread (one writer, no
/// internal locking — the scheduler serializes rounds by construction).
pub struct Wal {
    cfg: WalConfig,
    seg: Option<Segment>,
    /// Round the next appended record must carry.
    next_round: u64,
    /// Highest round written (not necessarily synced).
    last_written: u64,
    /// Rounds appended since the last fsync.
    unsynced: u64,
    /// Highest round guaranteed on disk, shared with the stats path.
    durable: Arc<AtomicU64>,
    /// Round of the newest checkpoint on disk.
    last_checkpoint: u64,
    /// Event journal for checkpoints and fsync stalls (`None` until the
    /// server attaches its shared journal).
    journal: Option<Arc<EventJournal>>,
}

impl Wal {
    /// Opens `cfg.dir` for a fresh log: creates the directory and writes the
    /// base checkpoint (round `base_round`) capturing `engine`'s current
    /// state, so recovery always has a floor even if no round ever commits.
    pub fn create(cfg: WalConfig, engine: &Engine, base_round: u64) -> io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        let mut wal = Self {
            cfg,
            seg: None,
            next_round: base_round + 1,
            last_written: base_round,
            unsynced: 0,
            durable: Arc::new(AtomicU64::new(0)),
            last_checkpoint: 0,
            journal: None,
        };
        wal.checkpoint(base_round, engine)?;
        wal.durable.store(base_round, Ordering::SeqCst);
        Ok(wal)
    }

    /// Reopens the log of a just-recovered directory: appends continue at
    /// `recovered.round + 1` in a fresh segment (never into a possibly
    /// torn tail).
    pub fn reopen(cfg: WalConfig, recovered: &Recovered) -> io::Result<Self> {
        let wal = Self {
            cfg,
            seg: None,
            next_round: recovered.round + 1,
            last_written: recovered.round,
            unsynced: 0,
            durable: Arc::new(AtomicU64::new(recovered.round)),
            last_checkpoint: recovered.checkpoint_round,
            journal: None,
        };
        Ok(wal)
    }

    /// Attaches the shared event journal: checkpoints and fsync stalls are
    /// recorded from here on.
    pub fn attach_journal(&mut self, journal: Arc<EventJournal>) {
        self.journal = Some(journal);
    }

    /// The shared durable-round counter ([`crate::protocol::StatsReply::durable_round`]).
    pub fn durable_handle(&self) -> Arc<AtomicU64> {
        self.durable.clone()
    }

    /// Highest round guaranteed on disk.
    pub fn durable_round(&self) -> u64 {
        self.durable.load(Ordering::SeqCst)
    }

    /// Round of the newest checkpoint.
    pub fn last_checkpoint(&self) -> u64 {
        self.last_checkpoint
    }

    /// Appends one committed round — batch + exact delta — and makes it as
    /// durable as the fsync policy promises, *before* the caller may ack the
    /// round. Errors are fatal to the serving loop: an unloggable round must
    /// never be acknowledged.
    pub fn append_round(
        &mut self,
        round: u64,
        insertions: &[Edge],
        deletions: &[Edge],
        delta: &FullDelta,
    ) -> io::Result<()> {
        assert_eq!(round, self.next_round, "WAL rounds must be contiguous");
        if self
            .seg
            .as_ref()
            .is_some_and(|s| s.records >= self.cfg.segment_rounds.max(1))
        {
            self.rotate()?;
        }
        if self.seg.is_none() {
            // New segments truncate: the only way the file can already exist
            // is a recovered torn tail, whose bytes must not survive.
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(segment_path(&self.cfg.dir, round))?;
            self.seg = Some(Segment { file, records: 0 });
        }
        let mut framed = Vec::new();
        frame_record(
            &mut framed,
            &encode_round_record(round, insertions, deletions, delta),
        );
        let seg = self.seg.as_mut().expect("segment just opened");
        seg.file.write_all(&framed)?;
        seg.records += 1;
        self.last_written = round;
        self.next_round = round + 1;
        self.unsynced += 1;
        let sync_now = match self.cfg.fsync {
            FsyncPolicy::PerRound => true,
            FsyncPolicy::EveryRounds(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Off => false,
        };
        if sync_now {
            self.sync()?;
        }
        Ok(())
    }

    /// Fsyncs the open segment and advances the durable counter. A sync
    /// slower than `FSYNC_STALL_US` (50 ms) is journalled — the one commit-path
    /// stall a healthy server should never show.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(seg) = &self.seg {
            let t0 = Instant::now();
            seg.file.sync_data()?;
            if let Some(j) = &self.journal {
                let micros = t0.elapsed().as_micros() as u64;
                if micros >= FSYNC_STALL_US {
                    j.record(EventKind::WalFsyncStall {
                        round: self.last_written,
                        micros,
                    });
                }
            }
        }
        self.unsynced = 0;
        self.durable.fetch_max(self.last_written, Ordering::SeqCst);
        Ok(())
    }

    /// Closes the current segment (synced) so the next append starts a new
    /// one.
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.seg = None;
        Ok(())
    }

    /// Writes a checkpoint if the periodic cadence says one is due.
    pub fn maybe_checkpoint(&mut self, round: u64, engine: &Engine) -> io::Result<bool> {
        if self.cfg.checkpoint_every == 0
            || round < self.last_checkpoint + self.cfg.checkpoint_every
        {
            return Ok(false);
        }
        self.checkpoint(round, engine)?;
        Ok(true)
    }

    /// Writes a checkpoint of `engine` at `round` (temp file + fsync +
    /// rename, so the previous checkpoint survives any crash), then
    /// truncates segments and checkpoints the new one supersedes.
    pub fn checkpoint(&mut self, round: u64, engine: &Engine) -> io::Result<()> {
        // The log must be on disk through `round` before the checkpoint that
        // claims it: otherwise a crash between rename and sync could leave a
        // checkpoint ahead of its own log.
        self.sync()?;
        let bytes = encode_checkpoint(round, engine);
        let tmp = self.cfg.dir.join(format!("checkpoint-{round:020}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        let final_path = checkpoint_path(&self.cfg.dir, round);
        fs::rename(&tmp, &final_path)?;
        // Make the rename itself durable.
        if let Ok(d) = File::open(&self.cfg.dir) {
            let _ = d.sync_all();
        }
        self.last_checkpoint = round;
        // State through `round` is now durable via the checkpoint even if
        // round records were never synced.
        self.durable.fetch_max(round, Ordering::SeqCst);
        if let Some(j) = &self.journal {
            j.record(EventKind::WalCheckpoint { round });
        }
        if !self.cfg.retain_all {
            self.truncate_superseded(round)?;
        }
        Ok(())
    }

    /// Deletes checkpoints older than `round` and segments wholly covered by
    /// the checkpoint at `round` (a segment is kept while it may hold the
    /// first round after the checkpoint).
    fn truncate_superseded(&mut self, round: u64) -> io::Result<()> {
        for ck in list_checkpoints(&self.cfg.dir)? {
            if ck < round {
                let _ = fs::remove_file(checkpoint_path(&self.cfg.dir, ck));
            }
        }
        let segments = list_segments(&self.cfg.dir)?;
        for pair in segments.windows(2) {
            // Segment `pair[0]` ends at `pair[1] - 1`; it is dead once the
            // next segment already starts at or before round + 1.
            if pair[1] <= round + 1 {
                let _ = fs::remove_file(segment_path(&self.cfg.dir, pair[0]));
            }
        }
        Ok(())
    }

    /// Syncs and closes the log (used on clean shutdown, after the final
    /// checkpoint).
    pub fn close(mut self) -> io::Result<()> {
        self.sync()?;
        self.seg = None;
        Ok(())
    }
}

// -------------------------------------------------------------- recovery

/// What [`recover`] rebuilt.
pub struct Recovered {
    /// The engine, restored to the last recoverable round.
    pub engine: Engine,
    /// The last recoverable round (checkpoint round + replayed records).
    pub round: u64,
    /// Round of the checkpoint recovery started from.
    pub checkpoint_round: u64,
    /// Log records replayed on top of the checkpoint.
    pub replayed: u64,
    /// True when a torn or corrupt record cut the replay short — the log's
    /// valid prefix was recovered and the damaged tail discarded.
    pub tail_truncated: bool,
}

/// Reads every round record after `after` from the segments in `dir`, in
/// round order, stopping (without error) at the first torn or corrupt
/// record or round gap. Returns the records and whether the log was
/// damaged. Public so audits (and `serve_load --crash-recover`) can replay
/// the raw log independently of [`recover`].
pub fn read_log_records(dir: &Path, after: u64) -> io::Result<(Vec<WalRecord>, bool)> {
    let mut records = Vec::new();
    let mut damaged = false;
    let mut next_expected: Option<u64> = None;
    'segments: for first in list_segments(dir)? {
        let data = fs::read(segment_path(dir, first))?;
        let mut pos = 0usize;
        loop {
            let (payload, next) = match read_record(&data, pos) {
                RecordRead::Ok(p, n) => (p, n),
                RecordRead::Eof => break,
                RecordRead::Damaged(_) => {
                    damaged = true;
                    break 'segments;
                }
            };
            pos = next;
            let record = match decode_round_record(payload) {
                Ok(r) => r,
                Err(_) => {
                    damaged = true;
                    break 'segments;
                }
            };
            if let Some(expected) = next_expected {
                if record.round != expected {
                    // A gap (or regression) means the tail is not replayable.
                    damaged = true;
                    break 'segments;
                }
            }
            next_expected = Some(record.round + 1);
            if record.round > after {
                records.push(record);
            }
        }
    }
    Ok((records, damaged))
}

/// Rebuilds a server's engine from the data directory: newest valid
/// checkpoint, then log replay, with the recovered state verified
/// byte-identical to the delta-folded replica at the last logged round.
/// `Ok(None)` means the directory holds no log at all (fresh start).
pub fn recover(dir: &Path) -> io::Result<Option<Recovered>> {
    if !dir.exists() {
        return Ok(None);
    }
    let checkpoints = list_checkpoints(dir)?;
    if checkpoints.is_empty() {
        if list_segments(dir)?.is_empty() {
            return Ok(None);
        }
        return Err(malformed(
            "data directory has log segments but no checkpoint".into(),
        ));
    }
    // Newest checkpoint first; fall back on damage (a crash can only damage
    // files mid-write, and checkpoints rename into place, but a torn disk is
    // exactly what recovery must absorb).
    let mut checkpoint = None;
    for &round in checkpoints.iter().rev() {
        match load_checkpoint(&checkpoint_path(dir, round)) {
            Ok(c) => {
                checkpoint = Some(c);
                break;
            }
            Err(e) => {
                eprintln!(
                    "wal: checkpoint {} unusable ({e}); trying an older one",
                    checkpoint_path(dir, round).display()
                );
            }
        }
    }
    let checkpoint = checkpoint.ok_or_else(|| malformed("no usable checkpoint".into()))?;

    // Rebuild the engine from the checkpointed edge set: state is unique
    // given edges + seed, and the stored snapshot stream must agree — a
    // byte-identical check that the checkpoint is internally consistent.
    let graph = Graph::from_edges(checkpoint.num_vertices, &checkpoint.edges);
    let mut engine = Engine::from_graph(&graph, checkpoint.seed);
    if engine.server_snapshot() != checkpoint.replica.to_snapshot() {
        return Err(malformed(format!(
            "checkpoint at round {} is internally inconsistent: rebuilt state \
             diverges from its stored snapshot",
            checkpoint.round
        )));
    }

    let (records, tail_truncated) = read_log_records(dir, checkpoint.round)?;
    let mut replica = checkpoint.replica;
    let mut replayed = 0u64;
    let mut round = checkpoint.round;
    for record in &records {
        if record.round != round + 1 {
            // First record after the checkpoint is missing: nothing past the
            // checkpoint is replayable (read_log_records already guarantees
            // contiguity within what it returned).
            break;
        }
        engine.apply_batch(&EdgeBatch {
            insertions: record.insertions.clone(),
            deletions: record.deletions.clone(),
        });
        replica.fold(&record.delta).map_err(|e| {
            malformed(format!(
                "logged delta for round {} unfoldable: {e}",
                record.round
            ))
        })?;
        round = record.round;
        replayed += 1;
    }
    // The recovery guarantee: the engine rebuilt by batch replay and the
    // replica rebuilt by delta folding — two independent reconstructions —
    // agree byte-for-byte at the last logged round.
    if engine.server_snapshot() != replica.to_snapshot() {
        return Err(malformed(format!(
            "recovered state at round {round} diverges from the delta-folded replica"
        )));
    }
    Ok(Some(Recovered {
        engine,
        round,
        checkpoint_round: checkpoint.round,
        replayed,
        tail_truncated,
    }))
}

/// Truncation helper for tests and audits: cuts `len` bytes off the end of
/// the newest segment in `dir`, simulating a crash mid-write.
pub fn tear_log_tail(dir: &Path, len: u64) -> io::Result<()> {
    let last = list_segments(dir)?
        .pop()
        .ok_or_else(|| malformed("no segment to tear".into()))?;
    let path = segment_path(dir, last);
    let size = fs::metadata(&path)?.len();
    let f = OpenOptions::new().write(true).open(&path)?;
    f.set_len(size.saturating_sub(len))?;
    f.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_framing_roundtrips_and_detects_damage() {
        let mut buf = Vec::new();
        frame_record(&mut buf, b"hello");
        frame_record(&mut buf, b"world!");
        let RecordRead::Ok(p1, next) = read_record(&buf, 0) else {
            panic!("first record must read back");
        };
        assert_eq!(p1, b"hello");
        let RecordRead::Ok(p2, end) = read_record(&buf, next) else {
            panic!("second record must read back");
        };
        assert_eq!(p2, b"world!");
        assert!(matches!(read_record(&buf, end), RecordRead::Eof));

        // Flip a payload byte: CRC must catch it.
        let mut bad = buf.clone();
        bad[RECORD_HEADER + 1] ^= 0x40;
        assert!(matches!(read_record(&bad, 0), RecordRead::Damaged(_)));
        // Truncate mid-payload: torn.
        let torn = &buf[..RECORD_HEADER + 3];
        assert!(matches!(read_record(torn, 0), RecordRead::Damaged(_)));
        // Truncate mid-header: torn.
        assert!(matches!(read_record(&buf[..3], 0), RecordRead::Damaged(_)));
    }

    #[test]
    fn round_records_roundtrip() {
        let delta = FullDelta {
            round: 42,
            inserted: 3,
            deleted: 1,
            mis_flips: vec![1, 5, 9],
            match_flips: vec![crate::protocol::MatchFlip {
                slot: 7,
                u: 1,
                v: 5,
                matched: true,
            }],
        };
        let ins = vec![Edge::new(1, 5), Edge::new(2, 9)];
        let del = vec![Edge::new(0, 3)];
        let payload = encode_round_record(42, &ins, &del, &delta);
        let rec = decode_round_record(&payload).unwrap();
        assert_eq!(rec.round, 42);
        assert_eq!(rec.insertions, ins);
        assert_eq!(rec.deletions, del);
        assert_eq!(rec.delta.mis_flips, delta.mis_flips);
        assert_eq!(rec.delta.match_flips, delta.match_flips);
        assert!(!rec.delta.truncated);
    }
}
