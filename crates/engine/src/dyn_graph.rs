//! Mutable adjacency under batched edge updates: a flat slack-CSR arena with
//! a stable edge-slot allocator.
//!
//! [`DynGraph`] is the representation the engine edits between snapshots. It
//! keeps the same logical invariants as [`greedy_graph::csr::Graph`] — per
//! vertex a strictly sorted, symmetric, loop- and duplicate-free neighbor
//! list — but stores them in **one flat arena** instead of `Vec<Vec<u32>>`:
//!
//! * `nbr` / `slot` are two parallel arrays; vertex `v` owns the *segment*
//!   its packed header names (start, live length, capacity — one load per
//!   touched vertex), its live entries front-packed and sorted at the
//!   segment's front. The tail of each segment is *slack* (PMA-style gaps),
//!   so a batch insert usually shuffles entries locally inside the segment
//!   instead of touching anything else;
//! * a vertex that outgrows its segment is **relocated**: its merged list is
//!   appended at the arena tail with fresh slack — an O(degree) local move
//!   that orphans the old segment as *dead space*. When dead space piles up
//!   (or a batch overflows most of the segments it touches, or deletions
//!   leave the arena mostly empty), the whole arena is **rebuilt in
//!   parallel** with fresh per-vertex slack — O(n + m) work, amortized,
//!   fanned out over vertex blocks with [`par_map_blocks`];
//! * every live edge `{u, v}` owns a **stable dense slot id**, handed out by
//!   a free-list allocator: the id survives every batch that does not delete
//!   the edge itself (local shuffles, relocations, and arena rebuilds move
//!   the *arc entries*, never the id), and freed ids are recycled
//!   deterministically. Both arcs of an edge carry its slot (`slot[i]` is
//!   the slot of edge `{v, nbr[i]}`), so slot lookup is the same binary
//!   search as a membership probe.
//!
//! Stable slot ids are what let the matching repair run as a
//! [`greedy_core::dag::ConflictDag`] over dense edge items (see
//! `crate::matching`); the flat layout cuts the pointer chase on the hot
//! membership probes.
//!
//! A batch costs work in proportion to what it touches, on the calling
//! thread: the batch is canonicalized on packed `u64` keys (self-loops
//! dropped, endpoints ordered, sorted, duplicates removed) and filtered
//! against the current edge set; slots are allocated or freed in that
//! canonical order; the batch's arcs are sorted by `(source, target)`; and
//! one ascending pass over the source groups merges, relocates or compacts
//! each touched segment in place. A call allocates a few buffers of the
//! batch's size and nothing per touched vertex. Only the rebuild fans out
//! over threads. Every step is deterministic, so the adjacency *and the
//! slot assignment* are byte-identical across thread counts.

use greedy_graph::csr::Graph;
use greedy_graph::edge_list::{Edge, EdgeList};
use greedy_obs::{EventJournal, EventKind};
use greedy_prims::scan::counts_to_offsets;
use greedy_prims::sort::sort_by_key_parallel;
use greedy_prims::util::{blocks, default_num_blocks, par_map_blocks};
use rayon::prelude::*;
use std::sync::Arc;

/// Sentinel key marking a free slot in the allocator table. Never collides
/// with a live edge's packed key: `u64::MAX` packs to the self-loop
/// `{u32::MAX, u32::MAX}`, which no canonical batch admits.
const FREE_KEY: u64 = u64::MAX;

/// Why a full arena rebuild ran. Every `DynGraph::rebuild` site names its
/// trigger so the per-reason counters (and the event journal's
/// `arena_rebuild` entries) can tell amortization pathologies apart: a
/// workload rebuilding on `DeadSpace` every batch is thrashing relocations,
/// one rebuilding on `InsertOverflow` is growing densely — same counter
/// total, opposite fixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildTrigger {
    /// The initial bulk build from an existing graph ([`DynGraph::from_graph`]).
    Initial,
    /// An insert batch overflowed most of the segments it touched, so one
    /// parallel rebuild beat thrashing the tail with relocations.
    InsertOverflow,
    /// Dead space orphaned by relocations passed the compaction threshold.
    DeadSpace,
    /// Mass deletion left the arena mostly non-live; compacted to track the
    /// live edge set.
    Shrink,
}

impl RebuildTrigger {
    /// Every trigger, in counter order.
    pub const ALL: [RebuildTrigger; 4] = [
        RebuildTrigger::Initial,
        RebuildTrigger::InsertOverflow,
        RebuildTrigger::DeadSpace,
        RebuildTrigger::Shrink,
    ];

    /// The trigger's stable snake_case label, used as the metric-name suffix
    /// and the journal event's `reason=` field.
    pub fn label(self) -> &'static str {
        match self {
            RebuildTrigger::Initial => "initial",
            RebuildTrigger::InsertOverflow => "insert_overflow",
            RebuildTrigger::DeadSpace => "dead_space",
            RebuildTrigger::Shrink => "shrink",
        }
    }

    fn index(self) -> usize {
        match self {
            RebuildTrigger::Initial => 0,
            RebuildTrigger::InsertOverflow => 1,
            RebuildTrigger::DeadSpace => 2,
            RebuildTrigger::Shrink => 3,
        }
    }
}

/// One effective edge update, as reported by [`DynGraph::insert_edges`] /
/// [`DynGraph::delete_edges`]: the canonical edge plus the stable slot id it
/// was assigned (insert) or gave up (delete).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotUpdate {
    /// The canonical edge (`u <= v`).
    pub edge: Edge,
    /// Its stable slot id.
    pub slot: u32,
}

/// An undirected graph under batched edge insertions and deletions, stored
/// as a flat slack-CSR arena with stable per-edge slot ids.
///
/// The vertex set is fixed at construction; edges come and go in batches.
#[derive(Debug, Clone)]
pub struct DynGraph {
    /// Neighbor arena; live entries of `v` are `nbr[segs[v].live()]`,
    /// strictly sorted.
    nbr: Vec<u32>,
    /// Slot arena, parallel to `nbr`: `slot[i]` is the slot id of the edge
    /// `{v, nbr[i]}` for `i` inside `v`'s live prefix.
    slot: Vec<u32>,
    /// Segment header per vertex. Segments are disjoint but **not** ordered
    /// by vertex id — a relocated vertex lives at the arena tail.
    segs: Vec<Seg>,
    /// Arena entries belonging to no segment (orphaned by relocations).
    dead: usize,
    num_edges: usize,
    /// Slot table: packed canonical key of the live edge occupying each slot,
    /// or [`FREE_KEY`]. Indexed by slot id; never shrinks, so ids are dense.
    slot_key: Vec<u64>,
    /// Freed slot ids, reused LIFO. Deterministic: frees and allocations both
    /// walk canonical batch order.
    free_slots: Vec<u32>,
    /// Full arena rebuilds performed so far (amortization observability).
    rebuilds: u64,
    /// Rebuilds by [`RebuildTrigger`], indexed by `RebuildTrigger::index`.
    rebuilds_by: [u64; 4],
    /// Single-segment tail relocations performed so far.
    relocations: u64,
    /// Parallel block tasks the most recent rebuild fanned out — tests assert
    /// even small-vertex rebalances split into multiple tasks.
    last_rebuild_tasks: usize,
    /// Optional event journal: rebuilds and relocations are rare enough to
    /// keep individually (see [`EventJournal`]). Excluded from `PartialEq`
    /// (logical equality) like the rest of the history-dependent state.
    journal: Option<Arc<EventJournal>>,
}

/// Logical equality: same vertex count and same live adjacency. Slack layout
/// and slot assignment are history-dependent and deliberately excluded.
impl PartialEq for DynGraph {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices() == other.num_vertices()
            && self.num_edges == other.num_edges
            && (0..self.num_vertices() as u32).all(|v| self.neighbors(v) == other.neighbors(v))
    }
}

impl Eq for DynGraph {}

/// One vertex's segment header: where the segment starts in the arena, its
/// live length and its capacity (live entries + slack). Packed into 16 bytes
/// so a touched vertex costs one load.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    start: usize,
    len: u32,
    cap: u32,
}

impl Seg {
    /// A segment of capacity `cap` at `start` holding `len` live entries.
    ///
    /// # Panics
    /// Panics if `cap` does not fit the header's `u32`.
    fn new(start: usize, len: usize, cap: usize) -> Self {
        debug_assert!(len <= cap);
        Self {
            start,
            len: len as u32,
            cap: u32::try_from(cap).expect("segment capacity exceeds u32"),
        }
    }

    fn len(self) -> usize {
        self.len as usize
    }

    fn cap(self) -> usize {
        self.cap as usize
    }

    /// Arena range of the live prefix.
    fn live(self) -> std::ops::Range<usize> {
        self.start..self.start + self.len()
    }
}

/// Slack granted to a vertex on rebuild/relocation, as a function of its live
/// degree: half the degree again, at least 2 — so repeated inserts into one
/// vertex amortize, and a previously-empty vertex can absorb a couple of
/// arcs without moving.
fn slack_for(len: usize) -> usize {
    (len / 2).max(2)
}

/// Packs an arc `(source, target)` into the sort key that groups by source
/// with sorted targets inside every group.
#[inline]
fn arc_key(source: u32, target: u32) -> u64 {
    ((source as u64) << 32) | target as u64
}

/// An insertion arc: `(source, target, slot of the edge)`.
type InsArc = (u32, u32, u32);

/// The canonical edge a packed key (`Edge::sort_key`) stands for.
#[inline]
fn key_edge(key: u64) -> Edge {
    Edge::new((key >> 32) as u32, key as u32)
}

impl DynGraph {
    /// An edgeless dynamic graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "DynGraph::new: too many vertices for u32 ids"
        );
        Self {
            nbr: Vec::new(),
            slot: Vec::new(),
            segs: vec![Seg::default(); n],
            dead: 0,
            num_edges: 0,
            slot_key: Vec::new(),
            free_slots: Vec::new(),
            rebuilds: 0,
            rebuilds_by: [0; 4],
            relocations: 0,
            last_rebuild_tasks: 0,
            journal: None,
        }
    }

    /// Builds the dynamic form of a CSR graph. Edge `i` of the graph's
    /// canonical edge list gets slot `i`. An edgeless graph has nothing to
    /// build in bulk, so it gets [`DynGraph::new`]'s empty arena.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut g = Self::new(graph.num_vertices());
        let edges = graph.to_edge_list().into_parts().1;
        if edges.is_empty() {
            return g;
        }
        let updates: Vec<SlotUpdate> = edges
            .iter()
            .map(|&e| SlotUpdate {
                edge: e,
                slot: g.alloc_slot(e),
            })
            .collect();
        // A bulk build expands and sorts its arcs in parallel.
        let mut arcs: Vec<InsArc> = updates
            .par_iter()
            .flat_map_iter(|u| [(u.edge.u, u.edge.v, u.slot), (u.edge.v, u.edge.u, u.slot)])
            .collect();
        sort_by_key_parallel(&mut arcs, |&(s, t, _)| arc_key(s, t));
        g.rebuild(&arcs, RebuildTrigger::Initial);
        g.num_edges = edges.len();
        g
    }

    /// Snapshots the current edge set back into CSR form (compacts the live
    /// prefixes; the slack never leaves the arena).
    pub fn to_graph(&self) -> Graph {
        let degrees: Vec<usize> = self.segs.iter().map(|s| s.len()).collect();
        let offsets = counts_to_offsets(&degrees);
        let neighbors: Vec<u32> = (0..self.num_vertices() as u32)
            .into_par_iter()
            .flat_map_iter(|v| self.neighbors(v).iter().copied())
            .collect();
        Graph::from_csr_arrays(offsets, neighbors)
    }

    /// The current edge set as a canonical [`EdgeList`].
    pub fn to_edge_list(&self) -> EdgeList {
        self.to_graph().to_edge_list()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.segs.len()
    }

    /// Number of undirected edges currently present.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of slots ever allocated (live + free). Slot ids are dense in
    /// `0..num_slots()`; this is the item count of the matching's
    /// conflict DAG.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.slot_key.len()
    }

    /// The degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.segs[v as usize].len()
    }

    /// The sorted neighbors of vertex `v` — a contiguous arena slice.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.nbr[self.segs[v as usize].live()]
    }

    /// The slot ids of `v`'s incident edges, parallel to
    /// [`DynGraph::neighbors`].
    #[inline]
    pub fn neighbor_slots(&self, v: u32) -> &[u32] {
        &self.slot[self.segs[v as usize].live()]
    }

    /// True if `{u, v}` is currently an edge: one binary search in the
    /// smaller endpoint's live prefix, touching only the neighbor arena.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.find_arc(u, v).is_some()
    }

    /// The stable slot id of edge `{u, v}`, or `None` when absent.
    #[inline]
    pub fn edge_slot(&self, u: u32, v: u32) -> Option<u32> {
        self.find_arc(u, v).map(|i| self.slot[i])
    }

    /// Arena index of an arc of `{u, v}`, or `None` when absent: one binary
    /// search in the smaller endpoint's live prefix, each endpoint's header
    /// read once.
    #[inline]
    fn find_arc(&self, u: u32, v: u32) -> Option<usize> {
        if u == v {
            return None;
        }
        let (su, sv) = (self.segs[u as usize], self.segs[v as usize]);
        let (seg, target) = if su.len <= sv.len { (su, v) } else { (sv, u) };
        let live = seg.live();
        self.nbr[live.clone()]
            .binary_search(&target)
            .ok()
            .map(|i| live.start + i)
    }

    /// The edge occupying `slot`, or `None` when the slot is free.
    ///
    /// # Panics
    /// Panics if `slot` was never allocated.
    pub fn slot_edge(&self, slot: u32) -> Option<Edge> {
        let key = self.slot_key[slot as usize];
        (key != FREE_KEY).then(|| key_edge(key))
    }

    /// Every live edge with its slot, in slot-id order.
    pub fn live_slot_updates(&self) -> Vec<SlotUpdate> {
        (0..self.slot_key.len() as u32)
            .into_par_iter()
            .filter_map(|slot| {
                let key = self.slot_key[slot as usize];
                (key != FREE_KEY).then(|| SlotUpdate {
                    edge: key_edge(key),
                    slot,
                })
            })
            .collect()
    }

    /// Full arena rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Rebuilds attributed to one trigger; the four reasons sum to
    /// [`DynGraph::rebuilds`].
    pub fn rebuilds_for(&self, trigger: RebuildTrigger) -> u64 {
        self.rebuilds_by[trigger.index()]
    }

    /// Single-segment relocations (local overflow fixes) performed so far.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Arena entries belonging to no segment (orphaned by relocations and
    /// reclaimed by the next rebuild).
    pub fn dead_entries(&self) -> usize {
        self.dead
    }

    /// Freed slot ids currently awaiting reuse.
    pub fn free_list_len(&self) -> usize {
        self.free_slots.len()
    }

    /// Feeds arena rebuilds and relocations into `journal` from here on.
    pub fn attach_journal(&mut self, journal: Arc<EventJournal>) {
        self.journal = Some(journal);
    }

    /// Parallel block tasks the most recent rebuild fanned out over
    /// [`par_map_blocks`] (0 before any rebuild).
    pub fn last_rebuild_tasks(&self) -> usize {
        self.last_rebuild_tasks
    }

    /// Total arena size (live + slack + dead entries).
    pub fn arena_capacity(&self) -> usize {
        self.nbr.len()
    }

    /// Inserts a batch of edges. Self-loops, duplicates within the batch, and
    /// edges already present are ignored. Returns the edges actually added,
    /// canonical and sorted, each with its freshly assigned stable slot.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, before anything is mutated.
    pub fn insert_edges(&mut self, edges: &[Edge]) -> Vec<SlotUpdate> {
        let mut keys = self.canonical_keys(edges);
        keys.retain(|&k| {
            let e = key_edge(k);
            !self.has_edge(e.u, e.v)
        });
        if keys.is_empty() {
            return Vec::new();
        }
        let mut updates = Vec::with_capacity(keys.len());
        let mut arcs: Vec<InsArc> = Vec::with_capacity(2 * keys.len());
        for &k in &keys {
            let edge = key_edge(k);
            let slot = self.alloc_slot(edge);
            updates.push(SlotUpdate { edge, slot });
            arcs.extend([(edge.u, edge.v, slot), (edge.v, edge.u, slot)]);
        }
        // Arcs are distinct, so an unstable sort yields the unique order.
        arcs.sort_unstable_by_key(|&(s, t, _)| arc_key(s, t));
        let groups = || arcs.chunk_by(|a, b| a.0 == b.0);
        let (mut fits, mut overflows) = (0usize, 0usize);
        for add in groups() {
            let seg = self.segs[add[0].0 as usize];
            if seg.len() + add.len() <= seg.cap() {
                fits += 1;
            } else {
                overflows += 1;
            }
        }
        // A batch that overflows most of what it touches (the dense-growth
        // case — e.g. the first batch into a fresh graph) rebuilds outright:
        // one parallel pass beats thrashing the tail with relocations.
        if overflows > fits.max(4) {
            self.rebuild(&arcs, RebuildTrigger::InsertOverflow);
        } else {
            // In-segment merges never change the arena's length, so the
            // relocations, made in ascending vertex order, append at the
            // same offsets whatever else the pass does.
            for add in groups() {
                let v = add[0].0;
                let seg = self.segs[v as usize];
                let new_len = seg.len() + add.len();
                if new_len <= seg.cap() {
                    let span = seg.start..seg.start + new_len;
                    merge_into_segment(&mut self.nbr[span.clone()], &mut self.slot[span], add);
                    self.segs[v as usize].len = new_len as u32;
                } else {
                    self.relocate_with_merge(v, add);
                }
            }
            // Relocations orphan their old segments; compact once the dead
            // space dominates (amortized: a third of the arena must die
            // between rebuilds).
            if self.dead > 64 && self.dead * 3 > self.nbr.len() {
                self.rebuild(&[], RebuildTrigger::DeadSpace);
            }
        }
        self.num_edges += updates.len();
        updates
    }

    /// Deletes a batch of edges. Self-loops, duplicates within the batch, and
    /// edges not present are ignored. Returns the edges actually removed,
    /// canonical and sorted, each with the slot id it held (now freed).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, before anything is mutated.
    pub fn delete_edges(&mut self, edges: &[Edge]) -> Vec<SlotUpdate> {
        let keys = self.canonical_keys(edges);
        // The slot lookup doubles as the presence filter.
        let mut updates = Vec::with_capacity(keys.len());
        for &k in &keys {
            let edge = key_edge(k);
            if let Some(slot) = self.edge_slot(edge.u, edge.v) {
                updates.push(SlotUpdate { edge, slot });
            }
        }
        if updates.is_empty() {
            return Vec::new();
        }
        let mut arcs: Vec<u64> = Vec::with_capacity(2 * updates.len());
        for u in &updates {
            self.free_slot(u.slot);
            arcs.extend([arc_key(u.edge.u, u.edge.v), arc_key(u.edge.v, u.edge.u)]);
        }
        arcs.sort_unstable();
        for gone in arcs.chunk_by(|a, b| a >> 32 == b >> 32) {
            let v = (gone[0] >> 32) as usize;
            let live = self.segs[v].live();
            let new_len =
                remove_from_segment(&mut self.nbr[live.clone()], &mut self.slot[live], gone);
            self.segs[v].len = new_len as u32;
        }
        self.num_edges -= updates.len();

        // Compact when the arena is mostly non-live, so memory tracks the
        // live edge set. The bound leaves the baseline slack (≈ live/2 + 2n)
        // alone and keeps rebuild cost amortized.
        let live_entries = 2 * self.num_edges;
        if self.nbr.len() > 64 && self.nbr.len() > 3 * live_entries + 4 * self.num_vertices() {
            self.rebuild(&[], RebuildTrigger::Shrink);
        }
        updates
    }

    /// Checks every representation invariant; returns a description of the
    /// first violation. Meant for tests and the property suite — O(m log m).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.nbr.len() != self.slot.len() {
            return Err("nbr and slot arenas differ in length".into());
        }
        // Segments must be disjoint and, with the dead space, tile the arena.
        let mut spans: Vec<(usize, usize, u32)> = (0..n)
            .map(|v| (self.segs[v].start, self.segs[v].cap(), v as u32))
            .collect();
        spans.sort_unstable();
        let mut covered = 0usize;
        for w in spans.windows(2) {
            let (start, cap, v) = w[0];
            if start + cap > w[1].0 {
                return Err(format!("segment of {v} overlaps the next segment"));
            }
        }
        for &(start, cap, _) in &spans {
            if start + cap > self.nbr.len() {
                return Err("segment exceeds the arena".into());
            }
            covered += cap;
        }
        if covered + self.dead != self.nbr.len() {
            return Err(format!(
                "segments cover {covered} + dead {} != arena {}",
                self.dead,
                self.nbr.len()
            ));
        }
        let mut live_arcs = 0usize;
        for v in 0..n as u32 {
            let seg = self.segs[v as usize];
            let len = seg.len();
            if len > seg.cap() {
                return Err(format!("vertex {v} live prefix exceeds its segment"));
            }
            live_arcs += len;
            let nbrs = self.neighbors(v);
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of {v} is not strictly sorted"));
            }
            for (&w, &s) in nbrs.iter().zip(self.neighbor_slots(v)) {
                if w == v {
                    return Err(format!("self-loop at {v}"));
                }
                if w as usize >= n {
                    return Err(format!("vertex {v} has out-of-range neighbor {w}"));
                }
                let key = Edge::new(v, w).canonical().sort_key();
                if self.slot_key.get(s as usize) != Some(&key) {
                    return Err(format!(
                        "arc {v}->{w} carries slot {s} but the slot table disagrees"
                    ));
                }
                if self.edge_slot(w, v) != Some(s) {
                    return Err(format!("arc {v}->{w} has no symmetric twin with slot {s}"));
                }
            }
        }
        if live_arcs != 2 * self.num_edges {
            return Err(format!(
                "live arc count {live_arcs} != 2 * num_edges {}",
                self.num_edges
            ));
        }
        let free = self.slot_key.iter().filter(|&&k| k == FREE_KEY).count();
        if free != self.free_slots.len() {
            return Err(format!(
                "{free} slots marked free but the free list holds {}",
                self.free_slots.len()
            ));
        }
        if self.slot_key.len() - free != self.num_edges {
            return Err("live slot count != num_edges".into());
        }
        let mut seen = vec![false; self.slot_key.len()];
        for &s in &self.free_slots {
            if self.slot_key[s as usize] != FREE_KEY {
                return Err(format!("free list holds live slot {s}"));
            }
            if std::mem::replace(&mut seen[s as usize], true) {
                return Err(format!("free list holds slot {s} twice"));
            }
        }
        Ok(())
    }

    /// Allocates a slot for canonical edge `e`: recycles the most recently
    /// freed id, else grows the table.
    fn alloc_slot(&mut self, e: Edge) -> u32 {
        debug_assert!(e.u < e.v, "alloc_slot: edge must be canonical");
        let key = e.sort_key();
        match self.free_slots.pop() {
            Some(s) => {
                debug_assert_eq!(self.slot_key[s as usize], FREE_KEY);
                self.slot_key[s as usize] = key;
                s
            }
            None => {
                let s = u32::try_from(self.slot_key.len()).expect("slot ids exceed u32");
                self.slot_key.push(key);
                s
            }
        }
    }

    /// Returns `slot` to the free list.
    fn free_slot(&mut self, slot: u32) {
        debug_assert_ne!(self.slot_key[slot as usize], FREE_KEY);
        self.slot_key[slot as usize] = FREE_KEY;
        self.free_slots.push(slot);
    }

    /// Canonicalizes a raw batch into packed keys (`Edge::sort_key`):
    /// self-loops dropped, endpoints ordered, sorted, duplicates removed.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    fn canonical_keys(&self, edges: &[Edge]) -> Vec<u64> {
        let n = self.num_vertices();
        let mut keys = Vec::with_capacity(edges.len());
        for e in edges.iter().filter(|e| !e.is_self_loop()) {
            let e = e.canonical();
            assert!(
                (e.v as usize) < n,
                "DynGraph: edge ({}, {}) out of range for n={n}",
                e.u,
                e.v
            );
            keys.push(e.sort_key());
        }
        // Keys are unique after the dedup, so stability does not matter.
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Local overflow fix: appends `v`'s merged list (old live prefix + the
    /// sorted `add` arcs) at the arena tail with fresh slack, orphaning the
    /// old segment as dead space. O(degree), touches nothing else.
    fn relocate_with_merge(&mut self, v: u32, add: &[InsArc]) {
        let old = self.segs[v as usize];
        let new_len = old.len() + add.len();
        let new_cap = new_len + slack_for(new_len);
        let new_start = self.nbr.len();
        self.nbr.resize(new_start + new_cap, 0);
        self.slot.resize(new_start + new_cap, 0);
        // The old segment lies entirely before `new_start` (the pre-resize
        // arena length), so splitting there yields disjoint read/write
        // regions for the merge.
        let (head_n, tail_n) = self.nbr.split_at_mut(new_start);
        let (head_s, tail_s) = self.slot.split_at_mut(new_start);
        merge_live_with_arcs(
            &head_n[old.live()],
            &head_s[old.live()],
            add,
            &mut tail_n[..new_len],
            &mut tail_s[..new_len],
        );
        self.dead += old.cap();
        self.segs[v as usize] = Seg::new(new_start, new_len, new_cap);
        self.relocations += 1;
        if let Some(j) = &self.journal {
            j.record(EventKind::ArenaRelocation {
                vertex: u64::from(v),
                new_cap: new_cap as u64,
            });
        }
    }

    /// Rebuilds the whole arena with fresh per-vertex slack, merging the
    /// pending insertion `arcs` (may be empty — pure compaction) into the
    /// live prefixes on the way. Fanned out over contiguous vertex blocks
    /// with [`par_map_blocks`]; each block writes a disjoint region of the
    /// new arena, so the copy is race-free and deterministic.
    fn rebuild(&mut self, arcs: &[InsArc], trigger: RebuildTrigger) {
        let n = self.num_vertices();
        // Additions per vertex (sparse -> dense walk of the source groups).
        let mut add_range: Vec<std::ops::Range<usize>> = vec![0..0; n];
        let mut at = 0;
        for add in arcs.chunk_by(|a, b| a.0 == b.0) {
            add_range[add[0].0 as usize] = at..at + add.len();
            at += add.len();
        }
        let caps: Vec<usize> = (0..n)
            .into_par_iter()
            .map(|v| {
                let new_len = self.segs[v].len() + add_range[v].len();
                new_len + slack_for(new_len)
            })
            .collect();
        let new_start = counts_to_offsets(&caps);
        let total = new_start[n];
        let mut new_nbr = vec![0u32; total];
        let mut new_slot = vec![0u32; total];

        // One coarse task per vertex block; block b owns the new-arena region
        // [new_start[block.start], new_start[block.end]).
        let vblocks = blocks(n, 8, default_num_blocks());
        self.last_rebuild_tasks = vblocks.len();
        let mut tasks = Vec::with_capacity(vblocks.len());
        {
            let mut rest_nbr: &mut [u32] = &mut new_nbr;
            let mut rest_slot: &mut [u32] = &mut new_slot;
            let mut consumed = 0usize;
            for vb in vblocks {
                let end = new_start[vb.end];
                let (chunk_n, rem_n) = std::mem::take(&mut rest_nbr).split_at_mut(end - consumed);
                let (chunk_s, rem_s) = std::mem::take(&mut rest_slot).split_at_mut(end - consumed);
                rest_nbr = rem_n;
                rest_slot = rem_s;
                let base = consumed;
                consumed = end;
                tasks.push((vb, base, chunk_n, chunk_s));
            }
        }
        let this = &*self;
        let new_start_ref = &new_start;
        let add_range_ref = &add_range;
        par_map_blocks(tasks, &|(vb, base, chunk_n, chunk_s): (
            std::ops::Range<usize>,
            usize,
            &mut [u32],
            &mut [u32],
        )| {
            for v in vb {
                let dst = new_start_ref[v] - base;
                let old = this.segs[v];
                let add = &arcs[add_range_ref[v].clone()];
                let new_len = old.len() + add.len();
                merge_live_with_arcs(
                    &this.nbr[old.live()],
                    &this.slot[old.live()],
                    add,
                    &mut chunk_n[dst..dst + new_len],
                    &mut chunk_s[dst..dst + new_len],
                );
            }
        });
        for (v, seg) in self.segs.iter_mut().enumerate() {
            *seg = Seg::new(new_start[v], seg.len() + add_range[v].len(), caps[v]);
        }
        self.nbr = new_nbr;
        self.slot = new_slot;
        self.dead = 0;
        self.rebuilds += 1;
        self.rebuilds_by[trigger.index()] += 1;
        if let Some(j) = &self.journal {
            j.record(EventKind::ArenaRebuild {
                reason: trigger.label(),
                capacity: self.nbr.len() as u64,
                tasks: self.last_rebuild_tasks as u64,
            });
        }
    }
}

/// Front-to-back merge of a sorted live prefix with sorted, disjoint
/// insertion arcs into a separate destination region of exactly
/// `src_n.len() + add.len()` entries — the copy both segment relocation and
/// the arena rebuild perform per vertex.
fn merge_live_with_arcs(
    src_n: &[u32],
    src_s: &[u32],
    add: &[InsArc],
    dst_n: &mut [u32],
    dst_s: &mut [u32],
) {
    debug_assert_eq!(src_n.len() + add.len(), dst_n.len());
    let (mut i, mut j, mut w) = (0, 0, 0);
    while i < src_n.len() && j < add.len() {
        if src_n[i] < add[j].1 {
            dst_n[w] = src_n[i];
            dst_s[w] = src_s[i];
            i += 1;
        } else {
            debug_assert_ne!(src_n[i], add[j].1, "target already present");
            dst_n[w] = add[j].1;
            dst_s[w] = add[j].2;
            j += 1;
        }
        w += 1;
    }
    while i < src_n.len() {
        dst_n[w] = src_n[i];
        dst_s[w] = src_s[i];
        i += 1;
        w += 1;
    }
    for &(_, t, s) in &add[j..] {
        dst_n[w] = t;
        dst_s[w] = s;
        w += 1;
    }
}

/// Merges the sorted, disjoint `add` arcs into a segment's live prefix, in
/// place, back to front — the local shuffle across the segment's slack. The
/// slices span the merged result: the first `len - add.len()` entries are
/// the live prefix, the rest is slack the merge fills.
fn merge_into_segment(seg_n: &mut [u32], seg_s: &mut [u32], add: &[InsArc]) {
    let mut i = seg_n.len() - add.len();
    let mut j = add.len();
    let mut w = seg_n.len();
    while j > 0 {
        if i > 0 && seg_n[i - 1] > add[j - 1].1 {
            w -= 1;
            i -= 1;
            seg_n[w] = seg_n[i];
            seg_s[w] = seg_s[i];
        } else {
            debug_assert!(
                i == 0 || seg_n[i - 1] != add[j - 1].1,
                "target already present"
            );
            w -= 1;
            j -= 1;
            seg_n[w] = add[j].1;
            seg_s[w] = add[j].2;
        }
    }
}

/// Removes the targets of the sorted packed `gone` arcs (one source, all
/// present) from a live prefix, compacting toward the front. Returns the
/// new live length.
fn remove_from_segment(live_n: &mut [u32], live_s: &mut [u32], gone: &[u64]) -> usize {
    let mut w = 0usize;
    let mut j = 0usize;
    for i in 0..live_n.len() {
        if j < gone.len() && gone[j] as u32 == live_n[i] {
            j += 1;
        } else {
            live_n[w] = live_n[i];
            live_s[w] = live_s[i];
            w += 1;
        }
    }
    debug_assert_eq!(j, gone.len(), "remove_from_segment: target not present");
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use greedy_graph::gen::random::{random_edge_list, random_graph};
    use greedy_prims::random::hash64;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect()
    }

    fn edges_of(updates: &[SlotUpdate]) -> Vec<Edge> {
        updates.iter().map(|u| u.edge).collect()
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = DynGraph::new(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.to_graph(), Graph::empty(4));
        g.validate().unwrap();
        let built = DynGraph::from_graph(&Graph::empty(4));
        assert_eq!((built.rebuilds(), built.arena_capacity()), (0, 0));
        assert_eq!(built.to_graph(), Graph::empty(4));
        built.validate().unwrap();
    }

    #[test]
    fn insert_dedups_canonicalizes_and_skips_loops() {
        let mut g = DynGraph::new(5);
        let added = g.insert_edges(&edges(&[(1, 0), (0, 1), (2, 2), (3, 4), (4, 3)]));
        assert_eq!(edges_of(&added), edges(&[(0, 1), (3, 4)]));
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(2, 2));
        // Re-inserting present edges is a no-op.
        let added = g.insert_edges(&edges(&[(0, 1), (1, 2)]));
        assert_eq!(edges_of(&added), edges(&[(1, 2)]));
        assert_eq!(g.num_edges(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn delete_skips_absent_edges() {
        let mut g = DynGraph::new(4);
        g.insert_edges(&edges(&[(0, 1), (1, 2), (2, 3)]));
        let removed = g.delete_edges(&edges(&[(1, 2), (0, 3), (2, 1)]));
        assert_eq!(edges_of(&removed), edges(&[(1, 2)]));
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(1, 2));
        assert!(g.has_edge(0, 1) && g.has_edge(2, 3));
        g.validate().unwrap();
    }

    #[test]
    fn csr_roundtrip_after_updates() {
        let base = random_graph(200, 600, 7);
        let mut g = DynGraph::from_graph(&base);
        assert_eq!(g.to_graph(), base);
        g.insert_edges(&edges(&[(0, 199), (5, 17)]));
        g.delete_edges(&[base.to_edge_list().edges()[0]]);
        let snap = g.to_graph();
        assert!(snap.validate().is_ok());
        assert_eq!(snap.num_edges(), g.num_edges());
        assert_eq!(DynGraph::from_graph(&snap), g);
        g.validate().unwrap();
    }

    #[test]
    fn batched_updates_match_rebuilt_graph() {
        // Applying random insert/delete batches must leave exactly the edge
        // set a from-scratch build of the surviving edges produces.
        let n = 300;
        let mut g = DynGraph::new(n);
        let mut reference: std::collections::BTreeSet<(u32, u32)> = Default::default();
        for round in 0..10u64 {
            let ins = random_edge_list(n, 150, hash64(1, round)).into_parts().1;
            let del: Vec<Edge> = random_edge_list(n, 80, hash64(2, round)).into_parts().1;
            g.delete_edges(&del);
            for e in &del {
                let c = e.canonical();
                if !c.is_self_loop() {
                    reference.remove(&(c.u, c.v));
                }
            }
            g.insert_edges(&ins);
            for e in &ins {
                let c = e.canonical();
                if !c.is_self_loop() {
                    reference.insert((c.u, c.v));
                }
            }
            let expected: Vec<Edge> = reference.iter().map(|&(u, v)| Edge::new(u, v)).collect();
            assert_eq!(
                g.to_graph(),
                Graph::from_edges(n, &expected),
                "round {round}"
            );
            assert_eq!(g.num_edges(), reference.len());
            g.validate().unwrap();
        }
    }

    #[test]
    fn slots_are_stable_across_unrelated_batches() {
        let mut g = DynGraph::new(100);
        let first = g.insert_edges(&edges(&[(0, 1), (2, 3), (4, 5)]));
        let before: Vec<(Edge, u32)> = first.iter().map(|u| (u.edge, u.slot)).collect();
        // Unrelated inserts and deletes — including ones that force local
        // shuffles and relocations — must not move the original slots.
        g.insert_edges(&edges(&[(0, 7), (0, 9), (2, 9), (4, 80)]));
        g.delete_edges(&edges(&[(0, 7)]));
        g.insert_edges(&edges(&(10..60).map(|i| (i, i + 20)).collect::<Vec<_>>()));
        for (e, s) in before {
            assert_eq!(g.edge_slot(e.u, e.v), Some(s), "slot of {e:?} moved");
            assert_eq!(g.slot_edge(s), Some(e));
        }
        g.validate().unwrap();
    }

    #[test]
    fn freed_slots_are_recycled_deterministically() {
        let mut g = DynGraph::new(10);
        let a = g.insert_edges(&edges(&[(0, 1), (1, 2)]));
        g.delete_edges(&edges(&[(0, 1), (1, 2)]));
        // LIFO recycling: the most recently freed id goes out first.
        let b = g.insert_edges(&edges(&[(3, 4)]));
        assert_eq!(b[0].slot, a[1].slot);
        let c = g.insert_edges(&edges(&[(5, 6)]));
        assert_eq!(c[0].slot, a[0].slot);
        g.validate().unwrap();
    }

    #[test]
    fn heavy_single_vertex_growth_relocates_locally() {
        // A star grown one batch at a time overflows its hub segment
        // repeatedly; the overflow fix must be the O(degree) relocation, not
        // a full rebuild per batch, and the structure stays valid.
        let mut g = DynGraph::new(2_000);
        for b in 0..40u32 {
            let batch: Vec<Edge> = (0..40).map(|i| Edge::new(0, 1 + b * 40 + i)).collect();
            g.insert_edges(&batch);
        }
        assert_eq!(g.degree(0), 1_600);
        assert!(
            g.relocations() >= 5,
            "hub growth performed only {} relocations",
            g.relocations()
        );
        assert!(
            g.rebuilds() <= 5,
            "{} full rebuilds for 40 hub batches — overflow handling is not local",
            g.rebuilds()
        );
        g.validate().unwrap();
    }

    #[test]
    fn small_rebalance_still_fans_out_in_blocks() {
        // ROADMAP's shim-grain note: coarse fan-outs must ride
        // `par_map_blocks`, because the shim's `par_iter` runs short vectors
        // sequentially. A 64-vertex arena rebalance must therefore split
        // into multiple block tasks (the prims-level regression test proves
        // those tasks land on distinct threads).
        let mut g = DynGraph::new(64);
        // Dense enough that the first batch overflows every fresh segment
        // and takes the bulk-rebuild path.
        let batch: Vec<Edge> = (0u32..64)
            .flat_map(|u| {
                (u + 1..64)
                    .filter(move |v| (u + v) % 3 == 0)
                    .map(move |v| Edge::new(u, v))
            })
            .collect();
        g.insert_edges(&batch);
        assert!(g.rebuilds() >= 1, "the dense batch never rebuilt the arena");
        assert!(
            g.last_rebuild_tasks() >= 2,
            "a 64-vertex rebalance ran as {} block task(s) — the fan-out is not splitting",
            g.last_rebuild_tasks()
        );
        g.validate().unwrap();
    }

    #[test]
    fn mass_deletion_compacts_the_arena() {
        let base = random_graph(500, 5_000, 3);
        let mut g = DynGraph::from_graph(&base);
        let cap_before = g.arena_capacity();
        let all: Vec<Edge> = base.to_edge_list().into_parts().1;
        g.delete_edges(&all[..4_800]);
        assert!(
            g.arena_capacity() < cap_before / 2,
            "arena stayed at {} of {cap_before} after deleting 96% of edges",
            g.arena_capacity()
        );
        g.validate().unwrap();
    }

    #[test]
    fn relocation_garbage_is_eventually_collected() {
        // Streams of hub-heavy inserts keep relocating segments; the dead
        // space they orphan must be bounded by the rebuild trigger instead
        // of growing without limit.
        let mut g = DynGraph::new(50);
        for b in 0..200u64 {
            let v = 1 + (hash64(3, b) % 49) as u32;
            g.insert_edges(&[Edge::new(0, v)]);
            if b % 3 == 0 {
                g.delete_edges(&[Edge::new(0, v)]);
            }
        }
        assert!(
            g.arena_capacity() <= 6 * (2 * g.num_edges() + 2 * 50) + 64,
            "arena of {} entries for {} live edges — dead space is leaking",
            g.arena_capacity(),
            g.num_edges()
        );
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_rejects_out_of_range() {
        DynGraph::new(3).insert_edges(&edges(&[(0, 3)]));
    }

    /// Order-sensitive hash of every live edge with its slot id.
    fn slot_fingerprint(g: &DynGraph) -> u64 {
        g.live_slot_updates()
            .iter()
            .fold(0, |h, u| hash64(h ^ u.edge.sort_key(), u64::from(u.slot)))
    }

    #[test]
    fn batch_stream_pins_slot_ids_and_layout() {
        // A fixed stream of mixed batches on a small graph: in-segment
        // merges, hub relocations, slot recycling and dead-space rebuilds.
        // Slot ids reach clients in every round delta and WAL record, so
        // the batch path must hand out exactly these ids and leave exactly
        // this arena layout behind.
        let n = 120u64;
        let mut g = DynGraph::from_graph(&random_graph(n as usize, 300, 11));
        let mut fingerprints = Vec::new();
        for b in 0..24u64 {
            let hub = (b % 4) as u32;
            let ins: Vec<Edge> = (0..16)
                .map(|i| Edge::new(hub, (hash64(b, i) % n) as u32))
                .chain((0..16).map(|i| {
                    Edge::new(
                        (hash64(b + 100, i) % n) as u32,
                        (hash64(b + 200, i) % n) as u32,
                    )
                }))
                .collect();
            let live = g.live_slot_updates();
            let del: Vec<Edge> = (0..12)
                .map(|i| live[(hash64(b + 300, i) % live.len() as u64) as usize].edge)
                .collect();
            g.delete_edges(&del);
            g.insert_edges(&ins);
            g.validate().unwrap();
            fingerprints.push(slot_fingerprint(&g));
        }
        // Captured from the batch path before it became one sequential
        // pass; the rewrite had to reproduce them unchanged.
        assert_eq!(
            fingerprints,
            [
                360851179418918403,
                15347076476503500972,
                11359830419137125804,
                71219963748706727,
                12245133555153056431,
                1440902878390055690,
                3379806654043343184,
                1662928842105226609,
                4337650021911357202,
                5249596426358968727,
                326715518544392292,
                17219904874368251222,
                14668325548671902480,
                3885702327547395111,
                1734115076704144487,
                4531731652480353186,
                16274588610249015276,
                11702763798170320931,
                1854288932754550915,
                16249312270363398418,
                18064659664898770921,
                14462997942922641009,
                5439454850030979925,
                14961425593389911510,
            ]
        );
        assert_eq!(
            (g.arena_capacity(), g.dead_entries(), g.relocations()),
            (1_769, 21, 98)
        );
        assert_eq!(RebuildTrigger::ALL.map(|t| g.rebuilds_for(t)), [1, 0, 1, 0]);
    }

    #[test]
    fn rebuild_triggers_are_attributed_and_sum_to_total() {
        // Initial bulk build.
        let base = random_graph(200, 2_000, 9);
        let mut g = DynGraph::from_graph(&base);
        assert_eq!(g.rebuilds_for(RebuildTrigger::Initial), 1);
        // Mass deletion shrinks.
        let all: Vec<Edge> = base.to_edge_list().into_parts().1;
        g.delete_edges(&all[..1_900]);
        assert!(
            g.rebuilds_for(RebuildTrigger::Shrink) >= 1,
            "no shrink rebuild"
        );
        // A dense batch into a fresh graph overflows most touched segments.
        let mut h = DynGraph::new(64);
        let batch: Vec<Edge> = (0u32..64)
            .flat_map(|u| (u + 1..64).map(move |v| Edge::new(u, v)))
            .collect();
        h.insert_edges(&batch);
        assert!(
            h.rebuilds_for(RebuildTrigger::InsertOverflow) >= 1,
            "dense growth not attributed to insert_overflow"
        );
        for g in [&g, &h] {
            let by_reason: u64 = RebuildTrigger::ALL.iter().map(|&t| g.rebuilds_for(t)).sum();
            assert_eq!(
                by_reason,
                g.rebuilds(),
                "per-reason counts must tile the total"
            );
        }
    }

    #[test]
    fn attached_journal_sees_rebuilds_and_relocations() {
        let journal = Arc::new(EventJournal::default());
        let mut g = DynGraph::new(2_000);
        g.attach_journal(journal.clone());
        // Hub growth: repeated relocations, occasionally a dead-space rebuild.
        for b in 0..40u32 {
            let batch: Vec<Edge> = (0..40).map(|i| Edge::new(0, 1 + b * 40 + i)).collect();
            g.insert_edges(&batch);
        }
        let events = journal.recent();
        let relocations = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ArenaRelocation { vertex: 0, .. }))
            .count();
        assert!(
            relocations as u64 >= g.relocations().min(5),
            "hub relocations missing from the journal"
        );
        assert!(
            events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::ArenaRebuild {
                        reason, capacity, ..
                    } => Some((reason, capacity)),
                    _ => None,
                })
                .all(|(reason, capacity)| !reason.is_empty() && capacity > 0),
            "rebuild events must carry their trigger label and capacity"
        );
    }
}
