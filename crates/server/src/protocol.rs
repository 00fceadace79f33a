//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every message is one frame: a little-endian `u32` payload length, then the
//! payload — a one-byte tag followed by the tag's fixed-layout body. Integers
//! are little-endian; lists are a `u32` count followed by the elements. The
//! same framing carries [`Request`]s client→server and [`Response`]s
//! server→client, so both sides share one reader/writer pair. A connection
//! that sends [`Request::Subscribe`] becomes push-only: the server streams
//! [`Response::Delta`] frames (one per committed round) plus, when the
//! subscriber has no usable base state, [`Response::Snapshot`] chunk streams.
//!
//! Robustness rules, enforced by [`read_frame`] and the decoders:
//!
//! * a frame longer than [`MAX_FRAME_LEN`] is rejected before any allocation
//!   (a lying length prefix cannot balloon memory);
//! * a payload must be consumed *exactly* — trailing bytes, truncated lists,
//!   and unknown tags all decode to `InvalidData`;
//! * list counts are checked against the bytes actually present before the
//!   list is allocated.
//!
//! On a malformed frame the server answers with [`Response::Error`] and
//! closes the connection; well-formed traffic on other connections is
//! unaffected.

use std::io::{self, Read, Write};

use crate::metrics::RoundTrace;

/// Hard ceiling on a frame's payload length (16 MiB — a 1M-edge batch is
/// ~8 MB, so real traffic fits with headroom).
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Hard ceiling on vertices per membership query (2M). Responses echo one
/// `u32` per queried vertex plus a fixed header, so this bound keeps every
/// legal query's *response* safely under [`MAX_FRAME_LEN`] too — without it
/// a maximum-size request could demand a response just over the frame cap.
/// The server answers oversized queries with a domain `Error` and keeps the
/// connection open.
pub const MAX_QUERY_VERTICES: usize = 1 << 21;

/// Hard ceiling on slot ids carried in one [`RoundDelta`] (2M ≈ 8 MB). A
/// matching cascade can flip far more edges than the batch contained, and a
/// commit acknowledgment that outgrew [`MAX_FRAME_LEN`] would kill the
/// writer's connection *after* its updates committed; instead the id list is
/// truncated to this bound (earliest slot ids kept — the list is sorted)
/// while [`RoundDelta::matching_changed`] always reports the true count and
/// [`RoundDelta::truncated`] says explicitly that the list is incomplete.
/// The cap is **wire-only**: in-process deltas (the server's ring, the
/// recorded rounds) are always exact and uncapped.
pub const MAX_DELTA_SLOTS: usize = 1 << 21;

/// Hard ceiling on MIS flips carried in one [`DeltaFrame`] (2M × 4 B = 8 MB).
pub const MAX_DELTA_MIS_FLIPS: usize = 1 << 21;

/// Hard ceiling on matching flips carried in one [`DeltaFrame`] (512k × 13 B
/// ≈ 6.5 MB; together with a maximal MIS flip list the frame stays under
/// [`MAX_FRAME_LEN`]). A delta that cannot fit is sent `truncated`, which
/// subscribers refuse to fold — the server pushes a full snapshot stream
/// instead.
pub const MAX_DELTA_MATCH_FLIPS: usize = 1 << 19;

/// Vertices per full-snapshot chunk frame (1M: 4 MB of partners + 128 KiB of
/// MIS words per chunk). Always a multiple of 64 so every chunk's bit words
/// align to whole vertices.
pub const SNAPSHOT_CHUNK_VERTICES: usize = 1 << 20;

/// `from` value in [`Request::Subscribe`] meaning "I have no base state —
/// start with a full snapshot stream".
pub const SUBSCRIBE_FRESH: u64 = u64::MAX;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Stage edge insertions; answered with [`Response::Committed`] once the
    /// round containing them has been applied.
    InsertEdges(Vec<(u32, u32)>),
    /// Stage edge deletions; answered like insertions.
    DeleteEdges(Vec<(u32, u32)>),
    /// MIS membership of the listed vertices, from the published snapshot.
    QueryMis(Vec<u32>),
    /// Matched partner of the listed vertices, from the published snapshot.
    QueryMatched(Vec<u32>),
    /// Server/engine counters.
    Stats,
    /// The full metrics registry as a Prometheus-style text exposition —
    /// byte-for-byte what `ServerHandle::metrics_text()` returns.
    Metrics,
    /// Ask the server to shut down (staged updates are still committed).
    Shutdown,
    /// Turn this connection into a push-style delta feed. `from` is the
    /// round id of the state the subscriber already holds
    /// ([`SUBSCRIBE_FRESH`] = none): the server replays rounds `from+1..`
    /// from its delta ring when they are still buffered, and otherwise
    /// (lagging too far, or no base state) streams a full snapshot first.
    /// After the backlog the connection carries one [`Response::Delta`] per
    /// committed round; the client sends nothing further.
    Subscribe {
        /// Round of the subscriber's base state, or [`SUBSCRIBE_FRESH`].
        from: u64,
    },
    /// The flight recorder's most recent per-round commit timelines —
    /// answered with [`Response::Trace`] carrying at most `last_k` records
    /// (the newest ones; the recorder itself retains a bounded window, so a
    /// huge `last_k` just means "everything retained").
    Trace {
        /// Upper bound on records returned; the server clamps it to what the
        /// recorder holds, so a lying value cannot size any allocation.
        last_k: u64,
    },
}

/// What a committed round did for the updates a writer contributed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundDelta {
    /// Id of the round the updates landed in.
    pub round: u64,
    /// Effective insertions across the whole round.
    pub inserted: u64,
    /// Effective deletions across the whole round.
    pub deleted: u64,
    /// Vertices whose MIS membership flipped in the round.
    pub mis_changed: u64,
    /// Total number of edges whose matching membership flipped in the round
    /// (never truncated, unlike the id list below).
    pub matching_changed: u64,
    /// Stable slot ids of the edges whose matching membership flipped in
    /// the round, sorted ascending and truncated to [`MAX_DELTA_SLOTS`] so
    /// the acknowledgment always fits a frame. Slot ids are the engine's
    /// dense update-stable edge identifiers, so clients can correlate flips
    /// across rounds without re-deriving hashed edge keys.
    pub matching_slots: Vec<u32>,
    /// True when `matching_slots` was cut at the cap — the explicit signal
    /// (not just `matching_changed != matching_slots.len()`) that this delta
    /// is incomplete and must not be folded into a replica.
    pub truncated: bool,
}

/// One matching membership flip, as carried by push-style [`DeltaFrame`]s:
/// the stable slot id, the edge's endpoints, and its membership *after* the
/// round (an edge deleted while matched appears with `matched == false`
/// under the slot it held).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchFlip {
    /// Stable slot id of the edge (its freed id when the edge was deleted).
    pub slot: u32,
    /// Canonical endpoints (`u < v`).
    pub u: u32,
    /// Canonical endpoints (`u < v`).
    pub v: u32,
    /// Matching membership after the round.
    pub matched: bool,
}

/// A push-style round delta: everything a subscriber needs to advance its
/// replica from round `round - 1` to `round`. MIS membership of each listed
/// vertex *toggles*; matching flips rewrite the endpoints' partner entries
/// (clear the `matched == false` flips first, then set the `true` ones).
///
/// A frame with `truncated == true` had a flip list cut at
/// [`MAX_DELTA_MIS_FLIPS`] / [`MAX_DELTA_MATCH_FLIPS`] and **must not be
/// folded** — the server only ever sends one when directly asked to encode
/// an oversized delta; the push path falls back to a snapshot stream
/// instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaFrame {
    /// Round this delta advances the replica to.
    pub round: u64,
    /// Effective insertions of the round (net edge count moves by
    /// `inserted - deleted`).
    pub inserted: u64,
    /// Effective deletions of the round.
    pub deleted: u64,
    /// Vertices whose MIS membership toggled, sorted ascending.
    pub mis_flips: Vec<u32>,
    /// Edges whose matching membership flipped, sorted by slot id.
    pub match_flips: Vec<MatchFlip>,
    /// True when either flip list was cut at its cap.
    pub truncated: bool,
}

/// One chunk of a full-snapshot stream: the authoritative state of vertices
/// `start .. start + partners.len()` at `round`, with `mis_words` packing
/// the same range's MIS bits (start is 64-aligned; the final chunk of the
/// stream sets `last`). Chunks arrive in ascending `start` order and a
/// complete stream covers every vertex exactly once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// Round of the snapshot being streamed.
    pub round: u64,
    /// Total vertices of the snapshot (every chunk repeats the header).
    pub num_vertices: u64,
    /// Edges present in the snapshot.
    pub num_edges: u64,
    /// First vertex this chunk covers (a multiple of 64).
    pub start: u64,
    /// MIS bits of the covered range, `partners.len().div_ceil(64)` words.
    pub mis_words: Vec<u64>,
    /// Partner entries of the covered range (`u32::MAX` = unmatched).
    pub partners: Vec<u32>,
    /// True on the stream's final chunk.
    pub last: bool,
}

/// Server/engine counters, read from the published snapshot (never from the
/// engine thread).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Round id of the snapshot the numbers describe.
    pub round: u64,
    /// Highest round whose write-ahead-log record is durable on disk (0 when
    /// the server runs without a WAL). Under the per-round fsync policy this
    /// tracks `round`; under group fsync it may trail by the group size; with
    /// fsync off it advances only when a rotation or checkpoint syncs.
    pub durable_round: u64,
    /// Vertices in the graph.
    pub num_vertices: u64,
    /// Edges currently present.
    pub num_edges: u64,
    /// Current MIS size.
    pub mis_size: u64,
    /// Current matching size.
    pub matching_size: u64,
    /// Batches (rounds) the engine has applied.
    pub batches: u64,
    /// Cumulative effective edge insertions.
    pub edges_inserted: u64,
    /// Cumulative effective edge deletions.
    pub edges_deleted: u64,
    /// Currently registered delta-feed subscribers.
    pub subscribers: u64,
    /// Full-snapshot resyncs served to subscribers.
    pub resyncs: u64,
    /// p50 of whole-round commit latency in µs, from the server's metrics
    /// histograms (0 before the first round).
    pub commit_p50_us: u64,
    /// p99 of whole-round commit latency in µs (same caveats).
    pub commit_p99_us: u64,
    /// `round - durable_round`: committed rounds not yet durable on disk.
    /// 0 when serving memory-only or under the per-round fsync policy;
    /// bounded by the group size under group fsync.
    pub durable_lag: u64,
}

/// Wire version of the [`StatsReply`] body: a tagged field block (version
/// byte, field count, then `u8` field id + `u64` value per field). Fields
/// the decoder does not know are skipped, so adding one is no longer a
/// protocol break. The block rides response tag 10.
pub const STATS_VERSION: u8 = 2;

/// Field ids of the [`StatsReply`] wire block, in `(id, value)` order. Ids
/// are append-only: never reuse or renumber one. Ids 15 and 16 are reserved:
/// they carried the shard count and the per-shard staging high-water mark of
/// the vertex-partitioned engine, and are no longer sent.
const STATS_FIELDS: usize = 14;

impl StatsReply {
    /// Field block `(id, value)` pairs in encode order.
    fn fields(&self) -> [(u8, u64); STATS_FIELDS] {
        [
            (1, self.round),
            (2, self.durable_round),
            (3, self.num_vertices),
            (4, self.num_edges),
            (5, self.mis_size),
            (6, self.matching_size),
            (7, self.batches),
            (8, self.edges_inserted),
            (9, self.edges_deleted),
            (10, self.subscribers),
            (11, self.resyncs),
            (12, self.commit_p50_us),
            (13, self.commit_p99_us),
            (14, self.durable_lag),
        ]
    }

    fn encode_body(&self, buf: &mut Vec<u8>) {
        buf.push(STATS_VERSION);
        let fields = self.fields();
        put_list_len(buf, fields.len());
        for (id, value) in fields {
            buf.push(id);
            put_u64(buf, value);
        }
    }

    fn set_field(&mut self, id: u8, value: u64) {
        match id {
            1 => self.round = value,
            2 => self.durable_round = value,
            3 => self.num_vertices = value,
            4 => self.num_edges = value,
            5 => self.mis_size = value,
            6 => self.matching_size = value,
            7 => self.batches = value,
            8 => self.edges_inserted = value,
            9 => self.edges_deleted = value,
            10 => self.subscribers = value,
            11 => self.resyncs = value,
            12 => self.commit_p50_us = value,
            13 => self.commit_p99_us = value,
            14 => self.durable_lag = value,
            // Unknown id: a field from a newer server, or a reserved one (15
            // and 16) from an older one. Skipped, not fatal — that is the
            // point of the versioned block.
            _ => {}
        }
    }

    /// Decodes the versioned (response tag 10) field-block stats body.
    fn decode_body(c: &mut Cursor<'_>) -> io::Result<Self> {
        let mut s = StatsReply::default();
        let version = c.u8()?;
        if version < STATS_VERSION {
            return Err(malformed(format!("bad stats version {version}")));
        }
        let count = c.list_len(9)?;
        for _ in 0..count {
            let id = c.u8()?;
            let value = c.u64()?;
            s.set_field(id, value);
        }
        Ok(s)
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The round containing the writer's updates has been applied and its
    /// snapshot published.
    Committed(RoundDelta),
    /// MIS membership bits, one per queried vertex, plus the snapshot round.
    MisMembership {
        /// Round id of the snapshot that answered the query.
        round: u64,
        /// Membership of each queried vertex, in query order.
        in_mis: Vec<bool>,
    },
    /// Matched partners (`u32::MAX` = unmatched), plus the snapshot round.
    Matched {
        /// Round id of the snapshot that answered the query.
        round: u64,
        /// Partner of each queried vertex, in query order.
        partners: Vec<u32>,
    },
    /// Counters.
    Stats(StatsReply),
    /// The metrics registry text exposition.
    Metrics(String),
    /// Acknowledges a [`Request::Shutdown`]; the connection closes after.
    ShuttingDown,
    /// Push-style round delta on a subscribed connection.
    Delta(DeltaFrame),
    /// Flight-recorder timelines, oldest first ([`Request::Trace`]). The
    /// body is the versioned block of [`encode_round_traces`], so the wire
    /// bytes are identical to an in-process encoding of
    /// `ServerHandle::recent_rounds()` on a quiesced server.
    Trace(Vec<RoundTrace>),
    /// One chunk of a full-snapshot stream on a subscribed connection.
    Snapshot(SnapshotChunk),
    /// The request could not be served; the connection closes after a
    /// protocol-level error, stays open for domain errors (e.g. a vertex id
    /// out of range).
    Error(String),
}

/// Version byte of the [`Response::Trace`] body. Bump only on an
/// incompatible re-layout; appending fields bumps [`TRACE_FIELDS`] instead
/// (decoders skip fields they do not know, like the stats block's ids).
pub const TRACE_VERSION: u8 = 1;

/// `u64` fields per trace record: [`RoundTrace`]'s fields in declaration
/// order, then the reserved position 15. Append-only: new fields go at the
/// end so old decoders can skip them.
pub const TRACE_FIELDS: u8 = 16;

/// One record's fields in wire order ([`RoundTrace`] declaration order).
fn trace_fields(t: &RoundTrace) -> [u64; TRACE_FIELDS as usize] {
    [
        t.round,
        t.updates,
        t.stage_wait_us,
        t.apply_us,
        t.repair_us,
        t.wal_us,
        t.publish_us,
        t.feed_us,
        t.total_us,
        t.mis_rounds,
        t.matching_rounds,
        t.max_frontier,
        t.decided,
        t.flips,
        t.pages,
        // Position 15 is reserved: it carried the vertex-partitioned engine's
        // cross-shard exchange rounds and is always written as 0, so the
        // record layout (and TRACE_FIELDS) stays the same.
        0,
    ]
}

/// The versioned binary encoding of a trace list: version byte, fields per
/// record, `u64` record count, then [`TRACE_FIELDS`] little-endian `u64`s per
/// record. This is the **canonical** encoding for flight-recorder timelines:
/// the [`Response::Trace`] wire body is exactly these bytes, so a TCP client
/// and an in-process `ServerHandle::recent_rounds()` caller can compare
/// recordings byte for byte.
pub fn encode_round_traces(traces: &[RoundTrace]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + 8 + traces.len() * 8 * TRACE_FIELDS as usize);
    buf.push(TRACE_VERSION);
    buf.push(TRACE_FIELDS);
    put_u64(&mut buf, traces.len() as u64);
    for t in traces {
        for f in trace_fields(t) {
            put_u64(&mut buf, f);
        }
    }
    buf
}

/// Decodes a trace body written by [`encode_round_traces`]. The record count
/// is checked against the bytes actually present before any allocation, and
/// records from a newer encoder (more fields per record) have their unknown
/// tail fields skipped.
pub(crate) fn read_trace_body(c: &mut Cursor<'_>) -> io::Result<Vec<RoundTrace>> {
    let version = c.u8()?;
    if version < TRACE_VERSION {
        return Err(malformed(format!("bad trace version {version}")));
    }
    let fields = c.u8()? as usize;
    if fields < TRACE_FIELDS as usize {
        return Err(malformed(format!(
            "trace records carry {fields} fields, need at least {TRACE_FIELDS}"
        )));
    }
    let count = c.u64()?;
    c.check_list(count, fields * 8)?;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let mut vals = [0u64; TRACE_FIELDS as usize];
        for v in &mut vals {
            *v = c.u64()?;
        }
        for _ in TRACE_FIELDS as usize..fields {
            let _ = c.u64()?;
        }
        out.push(RoundTrace {
            round: vals[0],
            updates: vals[1],
            stage_wait_us: vals[2],
            apply_us: vals[3],
            repair_us: vals[4],
            wal_us: vals[5],
            publish_us: vals[6],
            feed_us: vals[7],
            total_us: vals[8],
            mis_rounds: vals[9],
            matching_rounds: vals[10],
            max_frontier: vals[11],
            decided: vals[12],
            flips: vals[13],
            pages: vals[14],
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------- encoding

pub(crate) fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_list_len(buf: &mut Vec<u8>, len: usize) {
    put_u32(buf, u32::try_from(len).expect("list longer than u32::MAX"));
}

pub(crate) fn put_pairs(buf: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    put_list_len(buf, pairs.len());
    for &(u, v) in pairs {
        put_u32(buf, u);
        put_u32(buf, v);
    }
}

pub(crate) fn put_vertices(buf: &mut Vec<u8>, vs: &[u32]) {
    put_list_len(buf, vs.len());
    for &v in vs {
        put_u32(buf, v);
    }
}

/// Encodes a delta body (everything after the tag byte of a
/// [`Response::Delta`] frame) from its parts. Shared by the wire path and
/// the write-ahead log, so a WAL record *is* the wire encoding — one format,
/// one set of decode checks. The WAL passes the exact, uncapped flip lists
/// with `truncated == false`; the wire path passes the capped ones.
pub(crate) fn put_delta_parts(
    buf: &mut Vec<u8>,
    round: u64,
    inserted: u64,
    deleted: u64,
    mis_flips: &[u32],
    match_flips: &[MatchFlip],
    truncated: bool,
) {
    put_u64(buf, round);
    put_u64(buf, inserted);
    put_u64(buf, deleted);
    put_vertices(buf, mis_flips);
    put_list_len(buf, match_flips.len());
    for f in match_flips {
        put_u32(buf, f.slot);
        put_u32(buf, f.u);
        put_u32(buf, f.v);
        buf.push(f.matched as u8);
    }
    buf.push(truncated as u8);
}

/// Decodes a delta body written by [`put_delta_parts`].
pub(crate) fn read_delta_body(c: &mut Cursor<'_>) -> io::Result<DeltaFrame> {
    let round = c.u64()?;
    let inserted = c.u64()?;
    let deleted = c.u64()?;
    let mis_flips = c.vertices()?;
    let len = c.list_len(13)?;
    let mut match_flips = Vec::with_capacity(len);
    for _ in 0..len {
        match_flips.push(MatchFlip {
            slot: c.u32()?,
            u: c.u32()?,
            v: c.u32()?,
            matched: c.boolean()?,
        });
    }
    Ok(DeltaFrame {
        round,
        inserted,
        deleted,
        mis_flips,
        match_flips,
        truncated: c.boolean()?,
    })
}

/// Encodes a snapshot-chunk body (everything after the tag byte of a
/// [`Response::Snapshot`] frame). Shared by the wire path and the WAL's
/// checkpoint files, which store the chunk stream verbatim.
pub(crate) fn put_snapshot_chunk(buf: &mut Vec<u8>, s: &SnapshotChunk) {
    put_u64(buf, s.round);
    put_u64(buf, s.num_vertices);
    put_u64(buf, s.num_edges);
    put_u64(buf, s.start);
    put_list_len(buf, s.mis_words.len());
    for &w in &s.mis_words {
        put_u64(buf, w);
    }
    put_vertices(buf, &s.partners);
    buf.push(s.last as u8);
}

/// Decodes a snapshot-chunk body, with the same structural checks the wire
/// decoder applies (64-aligned start, bit words covering the partners).
pub(crate) fn read_snapshot_chunk_body(c: &mut Cursor<'_>) -> io::Result<SnapshotChunk> {
    let round = c.u64()?;
    let num_vertices = c.u64()?;
    let num_edges = c.u64()?;
    let start = c.u64()?;
    let mis_words = c.words()?;
    let partners = c.vertices()?;
    let last = c.boolean()?;
    if start % 64 != 0 {
        return Err(malformed(format!("chunk start {start} not 64-aligned")));
    }
    if mis_words.len() != partners.len().div_ceil(64) {
        return Err(malformed(format!(
            "chunk carries {} bit words for {} partners",
            mis_words.len(),
            partners.len()
        )));
    }
    Ok(SnapshotChunk {
        round,
        num_vertices,
        num_edges,
        start,
        mis_words,
        partners,
        last,
    })
}

impl Request {
    /// Serializes the request payload (tag + body, without the length
    /// prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::InsertEdges(pairs) => {
                buf.push(1);
                put_pairs(&mut buf, pairs);
            }
            Request::DeleteEdges(pairs) => {
                buf.push(2);
                put_pairs(&mut buf, pairs);
            }
            Request::QueryMis(vs) => {
                buf.push(3);
                put_vertices(&mut buf, vs);
            }
            Request::QueryMatched(vs) => {
                buf.push(4);
                put_vertices(&mut buf, vs);
            }
            Request::Stats => buf.push(5),
            Request::Shutdown => buf.push(6),
            Request::Subscribe { from } => {
                buf.push(7);
                put_u64(&mut buf, *from);
            }
            Request::Metrics => buf.push(8),
            Request::Trace { last_k } => {
                buf.push(9);
                put_u64(&mut buf, *last_k);
            }
        }
        buf
    }

    /// Parses a request payload. Fails with `InvalidData` on unknown tags,
    /// truncation, or trailing bytes.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            1 => Request::InsertEdges(c.pairs()?),
            2 => Request::DeleteEdges(c.pairs()?),
            3 => Request::QueryMis(c.vertices()?),
            4 => Request::QueryMatched(c.vertices()?),
            5 => Request::Stats,
            6 => Request::Shutdown,
            7 => Request::Subscribe { from: c.u64()? },
            8 => Request::Metrics,
            9 => Request::Trace { last_k: c.u64()? },
            tag => return Err(malformed(format!("unknown request tag {tag}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response payload (tag + body, without the length
    /// prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Committed(d) => {
                buf.push(1);
                put_u64(&mut buf, d.round);
                put_u64(&mut buf, d.inserted);
                put_u64(&mut buf, d.deleted);
                put_u64(&mut buf, d.mis_changed);
                put_u64(&mut buf, d.matching_changed);
                put_vertices(&mut buf, &d.matching_slots);
                buf.push(d.truncated as u8);
            }
            Response::MisMembership { round, in_mis } => {
                buf.push(2);
                put_u64(&mut buf, *round);
                put_list_len(&mut buf, in_mis.len());
                buf.extend(in_mis.iter().map(|&b| b as u8));
            }
            Response::Matched { round, partners } => {
                buf.push(3);
                put_u64(&mut buf, *round);
                put_vertices(&mut buf, partners);
            }
            Response::Stats(s) => {
                buf.push(10);
                s.encode_body(&mut buf);
            }
            Response::Metrics(text) => {
                buf.push(9);
                put_list_len(&mut buf, text.len());
                buf.extend_from_slice(text.as_bytes());
            }
            Response::ShuttingDown => buf.push(5),
            Response::Delta(d) => {
                buf.push(7);
                put_delta_parts(
                    &mut buf,
                    d.round,
                    d.inserted,
                    d.deleted,
                    &d.mis_flips,
                    &d.match_flips,
                    d.truncated,
                );
            }
            Response::Snapshot(s) => {
                buf.push(8);
                put_snapshot_chunk(&mut buf, s);
            }
            Response::Trace(traces) => {
                buf.push(11);
                buf.extend_from_slice(&encode_round_traces(traces));
            }
            Response::Error(msg) => {
                buf.push(6);
                put_list_len(&mut buf, msg.len());
                buf.extend_from_slice(msg.as_bytes());
            }
        }
        buf
    }

    /// Parses a response payload; the strictness rules match
    /// [`Request::decode`].
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            1 => Response::Committed(RoundDelta {
                round: c.u64()?,
                inserted: c.u64()?,
                deleted: c.u64()?,
                mis_changed: c.u64()?,
                matching_changed: c.u64()?,
                matching_slots: c.vertices()?,
                truncated: c.boolean()?,
            }),
            2 => {
                let round = c.u64()?;
                let len = c.list_len(1)?;
                let mut in_mis = Vec::with_capacity(len);
                for _ in 0..len {
                    in_mis.push(match c.u8()? {
                        0 => false,
                        1 => true,
                        b => return Err(malformed(format!("bad bool byte {b}"))),
                    });
                }
                Response::MisMembership { round, in_mis }
            }
            3 => Response::Matched {
                round: c.u64()?,
                partners: c.vertices()?,
            },
            // Tag 4 is reserved: it carried the pre-versioning fixed-layout
            // stats body and is rejected as unknown.
            10 => Response::Stats(StatsReply::decode_body(&mut c)?),
            5 => Response::ShuttingDown,
            9 => {
                let len = c.list_len(1)?;
                let bytes = c.bytes(len)?;
                let text = String::from_utf8(bytes.to_vec())
                    .map_err(|_| malformed("metrics text is not UTF-8".to_string()))?;
                Response::Metrics(text)
            }
            7 => Response::Delta(read_delta_body(&mut c)?),
            8 => Response::Snapshot(read_snapshot_chunk_body(&mut c)?),
            11 => Response::Trace(read_trace_body(&mut c)?),
            6 => {
                let len = c.list_len(1)?;
                let bytes = c.bytes(len)?;
                let msg = String::from_utf8(bytes.to_vec())
                    .map_err(|_| malformed("error message is not UTF-8".to_string()))?;
                Response::Error(msg)
            }
            tag => return Err(malformed(format!("unknown response tag {tag}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ----------------------------------------------------------------- framing

/// Writes one frame (length prefix + payload). The caller flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| malformed("frame too long".into()))?;
    if len > MAX_FRAME_LEN {
        return Err(malformed(format!("frame of {len} bytes exceeds cap")));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame's payload. `Ok(None)` means the peer closed the stream
/// cleanly *between* frames; mid-frame EOF, a zero length, and an oversized
/// length are `InvalidData` errors.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read(&mut len_bytes)? {
        0 => return Ok(None),
        mut got => {
            while got < 4 {
                match r.read(&mut len_bytes[got..])? {
                    0 => return Err(malformed("EOF inside frame length".into())),
                    k => got += k,
                }
            }
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 {
        return Err(malformed("zero-length frame".into()));
    }
    if len > MAX_FRAME_LEN {
        return Err(malformed(format!("frame of {len} bytes exceeds cap")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|_| malformed("EOF inside frame payload".into()))?;
    Ok(Some(payload))
}

pub(crate) fn malformed(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Strict little-endian reader over a payload slice. `pub(crate)` so the
/// write-ahead log ([`crate::wal`]) decodes its records with the same strict
/// checks the wire decoders use.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| malformed("truncated payload".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// A strict boolean byte: anything but 0/1 is malformed.
    pub(crate) fn boolean(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("bad bool byte {b}"))),
        }
    }

    /// Reads a list count and checks `count * elem_size` bytes are actually
    /// present, so a lying count cannot trigger a huge allocation.
    pub(crate) fn list_len(&mut self, elem_size: usize) -> io::Result<usize> {
        let count = self.u32()? as usize;
        let need = count
            .checked_mul(elem_size)
            .ok_or_else(|| malformed("list count overflow".into()))?;
        if self.pos + need > self.buf.len() {
            return Err(malformed(format!(
                "list claims {count} elements but payload has {} bytes left",
                self.buf.len() - self.pos
            )));
        }
        Ok(count)
    }

    /// Checks that a `u64` element count's worth of bytes is actually
    /// present — the [`Cursor::list_len`] guard for counts wider than `u32`.
    pub(crate) fn check_list(&self, count: u64, elem_size: usize) -> io::Result<()> {
        let need = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(elem_size))
            .ok_or_else(|| malformed("list count overflow".into()))?;
        if self.pos + need > self.buf.len() {
            return Err(malformed(format!(
                "list claims {count} elements but payload has {} bytes left",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    pub(crate) fn vertices(&mut self) -> io::Result<Vec<u32>> {
        let len = self.list_len(4)?;
        (0..len).map(|_| self.u32()).collect()
    }

    pub(crate) fn words(&mut self) -> io::Result<Vec<u64>> {
        let len = self.list_len(8)?;
        (0..len).map(|_| self.u64()).collect()
    }

    pub(crate) fn pairs(&mut self) -> io::Result<Vec<(u32, u32)>> {
        let len = self.list_len(8)?;
        (0..len).map(|_| Ok((self.u32()?, self.u32()?))).collect()
    }

    /// Asserts the payload was consumed exactly.
    pub(crate) fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::InsertEdges(vec![(0, 1), (7, 7), (u32::MAX, 3)]));
        roundtrip_request(Request::DeleteEdges(vec![]));
        roundtrip_request(Request::QueryMis(vec![0, 5, 9]));
        roundtrip_request(Request::QueryMatched(vec![2]));
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Subscribe { from: 0 });
        roundtrip_request(Request::Subscribe { from: 41 });
        roundtrip_request(Request::Subscribe {
            from: SUBSCRIBE_FRESH,
        });
        roundtrip_request(Request::Trace { last_k: 0 });
        roundtrip_request(Request::Trace { last_k: 32 });
        roundtrip_request(Request::Trace { last_k: u64::MAX });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Committed(RoundDelta {
            round: 9,
            inserted: 3,
            deleted: 1,
            mis_changed: 4,
            matching_changed: 3,
            matching_slots: vec![0, 17, u32::MAX - 1],
            truncated: false,
        }));
        roundtrip_response(Response::Committed(RoundDelta {
            truncated: true,
            ..RoundDelta::default()
        }));
        roundtrip_response(Response::Committed(RoundDelta::default()));
        roundtrip_response(Response::MisMembership {
            round: 1,
            in_mis: vec![true, false, true],
        });
        roundtrip_response(Response::Matched {
            round: 2,
            partners: vec![u32::MAX, 0],
        });
        roundtrip_response(Response::Stats(StatsReply {
            round: 4,
            durable_round: 3,
            num_vertices: 10,
            num_edges: 20,
            mis_size: 5,
            matching_size: 4,
            batches: 4,
            edges_inserted: 25,
            edges_deleted: 5,
            subscribers: 2,
            resyncs: 1,
            commit_p50_us: 340,
            commit_p99_us: 1200,
            durable_lag: 1,
        }));
        roundtrip_response(Response::Stats(StatsReply::default()));
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Metrics(String::new()));
        roundtrip_response(Response::Metrics(
            "# TYPE server_rounds_committed_total counter\nserver_rounds_committed_total 7\n"
                .into(),
        ));
        roundtrip_response(Response::Error("nope".into()));
        roundtrip_response(Response::Delta(DeltaFrame {
            round: 12,
            inserted: 40,
            deleted: 2,
            mis_flips: vec![0, 3, 900],
            match_flips: vec![
                MatchFlip {
                    slot: 4,
                    u: 1,
                    v: 2,
                    matched: false,
                },
                MatchFlip {
                    slot: 9,
                    u: 0,
                    v: 7,
                    matched: true,
                },
            ],
            truncated: false,
        }));
        roundtrip_response(Response::Delta(DeltaFrame::default()));
        roundtrip_response(Response::Delta(DeltaFrame {
            truncated: true,
            ..DeltaFrame::default()
        }));
        roundtrip_response(Response::Snapshot(SnapshotChunk {
            round: 3,
            num_vertices: 130,
            num_edges: 12,
            start: 64,
            mis_words: vec![0b1011, 0b1],
            partners: (0..66)
                .map(|v| if v % 2 == 0 { v + 1 } else { v - 1 })
                .collect(),
            last: true,
        }));
        roundtrip_response(Response::Snapshot(SnapshotChunk::default()));
    }

    /// Stats compatibility: the reserved pre-versioning tag 4 is rejected
    /// as an unknown tag, while a field block carrying ids this decoder does
    /// not know — the reserved ids 15 and 16 an older server still sends,
    /// or a newer server's additions — decodes with those ids skipped.
    #[test]
    fn legacy_and_future_stats_frames_decode() {
        // The retired fixed layout: tag 4 then nine u64s.
        let mut buf = vec![4u8];
        for x in [4u64, 3, 10, 20, 5, 4, 4, 25, 5] {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        let err = Response::decode(&buf).expect_err("tag 4 is reserved");
        assert!(
            err.to_string().contains("unknown response tag 4"),
            "tag 4 must be rejected as unknown, got: {err}"
        );

        let expected = StatsReply {
            round: 4,
            durable_round: 3,
            num_vertices: 10,
            num_edges: 20,
            mis_size: 5,
            matching_size: 4,
            batches: 4,
            edges_inserted: 25,
            edges_deleted: 5,
            ..StatsReply::default()
        };
        // The current field block plus the reserved ids 15 and 16 and an
        // unknown id 200.
        let mut body = Vec::new();
        expected.encode_body(&mut body);
        let extra = [(15u8, 4u64), (16, 9), (200, 77)];
        // Patch the count up and append the extra fields.
        let count = u32::from_le_bytes(body[1..5].try_into().unwrap());
        body[1..5].copy_from_slice(&(count + extra.len() as u32).to_le_bytes());
        for (id, value) in extra {
            body.push(id);
            body.extend_from_slice(&value.to_le_bytes());
        }
        let mut buf = vec![10u8];
        buf.extend_from_slice(&body);
        assert_eq!(
            Response::decode(&buf).unwrap(),
            Response::Stats(expected),
            "unknown field ids must be skipped, not fatal"
        );

        // A truncated field block is still malformed.
        let mut buf = Response::Stats(StatsReply::default()).encode();
        buf.truncate(buf.len() - 1);
        assert!(Response::decode(&buf).is_err());
    }

    #[test]
    fn malformed_subscription_frames_are_rejected() {
        // Subscribe with a truncated `from`.
        let mut buf = Request::Subscribe { from: 5 }.encode();
        buf.truncate(buf.len() - 1);
        assert!(Request::decode(&buf).is_err());
        // Subscribe with trailing garbage.
        let mut buf = Request::Subscribe { from: 5 }.encode();
        buf.push(0);
        assert!(Request::decode(&buf).is_err());

        // Delta with a non-boolean `matched` byte.
        let mut buf = Response::Delta(DeltaFrame {
            match_flips: vec![MatchFlip {
                slot: 1,
                u: 2,
                v: 3,
                matched: true,
            }],
            ..DeltaFrame::default()
        })
        .encode();
        let matched_at = buf.len() - 2; // [matched byte][truncated byte]
        buf[matched_at] = 7;
        assert!(Response::decode(&buf).is_err());
        // Delta with a non-boolean `truncated` byte.
        let mut buf = Response::Delta(DeltaFrame::default()).encode();
        let last = buf.len() - 1;
        buf[last] = 2;
        assert!(Response::decode(&buf).is_err());
        // Delta whose match-flip count lies about the bytes present.
        let mut buf = vec![7u8];
        buf.extend_from_slice(&1u64.to_le_bytes()); // round
        buf.extend_from_slice(&0u64.to_le_bytes()); // inserted
        buf.extend_from_slice(&0u64.to_le_bytes()); // deleted
        buf.extend_from_slice(&0u32.to_le_bytes()); // mis_flips: empty
        buf.extend_from_slice(&1000u32.to_le_bytes()); // match_flips: lie
        buf.push(0);
        assert!(Response::decode(&buf).is_err());

        // Snapshot chunk with a misaligned start.
        let mut chunk = SnapshotChunk {
            start: 32,
            mis_words: vec![0],
            partners: vec![u32::MAX; 3],
            ..SnapshotChunk::default()
        };
        assert!(Response::decode(&Response::Snapshot(chunk.clone()).encode()).is_err());
        // Snapshot chunk whose word count does not cover its partners.
        chunk.start = 64;
        chunk.mis_words = vec![0, 0];
        assert!(Response::decode(&Response::Snapshot(chunk).encode()).is_err());
    }

    #[test]
    fn trace_frames_roundtrip_and_reject_malformed_bodies() {
        let trace = |round: u64| RoundTrace {
            round,
            updates: 10 * round,
            stage_wait_us: 5,
            apply_us: 100,
            repair_us: 60,
            wal_us: 3,
            publish_us: 7,
            feed_us: 1,
            total_us: 113,
            mis_rounds: round,
            matching_rounds: 1,
            max_frontier: 4,
            decided: 8,
            flips: 2,
            pages: 3,
        };
        roundtrip_response(Response::Trace(vec![]));
        roundtrip_response(Response::Trace(vec![trace(1), trace(2), trace(3)]));

        // The wire body after the tag byte IS the canonical encoding.
        let traces = vec![trace(7), trace(8)];
        let wire = Response::Trace(traces.clone()).encode();
        assert_eq!(wire[0], 11);
        assert_eq!(&wire[1..], &encode_round_traces(&traces)[..]);
        // The reserved position 15 is the last field of every record: 0.
        assert_eq!(trace_fields(&trace(7))[15], 0);

        // A count lying about the records present is rejected before any
        // allocation can be sized from it.
        let mut buf = vec![11u8, TRACE_VERSION, TRACE_FIELDS];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Response::decode(&buf).is_err());
        let mut buf = vec![11u8, TRACE_VERSION, TRACE_FIELDS];
        buf.extend_from_slice(&3u64.to_le_bytes()); // claims 3, carries 1
        for f in 0..TRACE_FIELDS as u64 {
            buf.extend_from_slice(&f.to_le_bytes());
        }
        assert!(Response::decode(&buf).is_err());

        // Truncated mid-record.
        let mut buf = Response::Trace(vec![trace(1)]).encode();
        buf.truncate(buf.len() - 3);
        assert!(Response::decode(&buf).is_err());
        // Trailing garbage.
        let mut buf = Response::Trace(vec![trace(1)]).encode();
        buf.push(0);
        assert!(Response::decode(&buf).is_err());

        // A stale version or a narrower record layout is malformed...
        let mut buf = Response::Trace(vec![]).encode();
        buf[1] = 0;
        assert!(Response::decode(&buf).is_err());
        let mut buf = Response::Trace(vec![]).encode();
        buf[2] = TRACE_FIELDS - 1;
        assert!(Response::decode(&buf).is_err());
        // ...but a *wider* record (a future encoder appended fields) decodes
        // with the unknown tail skipped.
        let mut buf = vec![11u8, TRACE_VERSION, TRACE_FIELDS + 1];
        buf.extend_from_slice(&1u64.to_le_bytes());
        for f in trace_fields(&trace(5)) {
            buf.extend_from_slice(&f.to_le_bytes());
        }
        buf.extend_from_slice(&999u64.to_le_bytes()); // the unknown field
        assert_eq!(
            Response::decode(&buf).unwrap(),
            Response::Trace(vec![trace(5)])
        );
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        // Unknown tag.
        assert!(Request::decode(&[99]).is_err());
        // Truncated list.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&5u32.to_le_bytes());
        assert!(Request::decode(&buf).is_err());
        // Trailing garbage.
        let mut buf = Request::Stats.encode();
        buf.push(0);
        assert!(Request::decode(&buf).is_err());
        // Bad bool byte in a response.
        let mut buf = vec![2u8];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(7);
        assert!(Response::decode(&buf).is_err());
        // Empty payload.
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn frames_enforce_length_rules() {
        // Zero-length frame.
        let wire = 0u32.to_le_bytes();
        assert!(read_frame(&mut wire.as_slice()).is_err());
        // Oversized length prefix rejected before allocation.
        let wire = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(read_frame(&mut wire.as_slice()).is_err());
        // EOF between frames is a clean close...
        assert_eq!(read_frame(&mut [].as_slice()).unwrap(), None);
        // ...but EOF inside a frame is an error.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        wire.pop();
        assert!(read_frame(&mut wire.as_slice()).is_err());
        let wire = [3u8, 0]; // half a length prefix
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }
}
