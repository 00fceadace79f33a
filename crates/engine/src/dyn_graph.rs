//! Mutable adjacency under batched edge updates: a flat slack-CSR arena with
//! a stable edge-slot allocator.
//!
//! [`DynGraph`] is the representation the engine edits between snapshots. It
//! keeps the same logical invariants as [`greedy_graph::csr::Graph`] — per
//! vertex a strictly sorted, symmetric, loop- and duplicate-free neighbor
//! list — but stores them in **one flat arena** instead of `Vec<Vec<u32>>`:
//!
//! * `nbr` / `slot` are two parallel arrays; vertex `v` owns the *segment*
//!   `seg_start[v] .. seg_start[v] + seg_cap[v]`, its live entries
//!   front-packed and sorted in the first `seg_len[v]` positions. The tail
//!   of each segment is *slack* (PMA-style gaps), so a batch insert usually
//!   shuffles entries locally inside the segment instead of touching
//!   anything else;
//! * a vertex that outgrows its segment is **relocated**: its merged list is
//!   appended at the arena tail with fresh slack — an O(degree) local move
//!   that orphans the old segment as *dead space*. When dead space piles up
//!   (or a batch touches so many overflowing vertices that local moves would
//!   thrash), the whole arena is **rebuilt in parallel** with fresh
//!   per-vertex slack — an amortized cost fanned out over vertex blocks with
//!   [`par_map_blocks`];
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
//! Batch updates keep the workspace's sorting discipline: the batch is
//! canonicalized (self-loops dropped, endpoints ordered, duplicates removed)
//! with the parallel radix sort from `greedy_prims::sort`, filtered against
//! the current edge set in parallel, expanded into arcs, radix-sorted by
//! source, and merged per touched vertex — one in-segment merge per vertex,
//! fanned out with [`par_map_blocks`] so distinct vertices update
//! concurrently while each segment stays a single owner's work. Every phase
//! (including slot allocation and segment relocation, which walk the
//! canonical batch in order) is deterministic, so the adjacency *and the
//! slot assignment* are byte-identical across thread counts.

use greedy_graph::csr::Graph;
use greedy_graph::edge_list::{Edge, EdgeList};
use greedy_obs::{EventJournal, EventKind};
use greedy_prims::pack::par_dedup_adjacent;
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
    /// Neighbor arena; live entries of `v` are
    /// `nbr[seg_start[v] .. seg_start[v] + seg_len[v]]`, strictly sorted.
    nbr: Vec<u32>,
    /// Slot arena, parallel to `nbr`: `slot[i]` is the slot id of the edge
    /// `{v, nbr[i]}` for `i` inside `v`'s live prefix.
    slot: Vec<u32>,
    /// Segment start per vertex. Segments are disjoint but **not** ordered by
    /// vertex id — a relocated vertex lives at the arena tail.
    seg_start: Vec<usize>,
    /// Segment capacity per vertex (live entries + slack).
    seg_cap: Vec<usize>,
    /// Live entries per vertex.
    seg_len: Vec<usize>,
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

/// Slack granted to a vertex on rebuild/relocation, as a function of its live
/// degree: half the degree again, at least 2 — so repeated inserts into one
/// vertex amortize, and a previously-empty vertex can absorb a couple of
/// arcs without moving.
fn slack_for(len: usize) -> usize {
    (len / 2).max(2)
}

/// Packs an arc `(source, target)` into the radix key that groups by source
/// with sorted targets inside every group.
#[inline]
fn arc_key(source: u32, target: u32) -> u64 {
    ((source as u64) << 32) | target as u64
}

/// An insertion arc: `(source, target, slot of the edge)`.
type InsArc = (u32, u32, u32);

/// Per-source arc group ranges; sources strictly increasing.
type ArcGroups = Vec<(u32, std::ops::Range<usize>)>;

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
            seg_start: vec![0; n],
            seg_cap: vec![0; n],
            seg_len: vec![0; n],
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
        let (arcs, groups) = arcs_of(&updates);
        g.rebuild(&arcs, &groups, RebuildTrigger::Initial);
        g.num_edges = edges.len();
        g
    }

    /// Snapshots the current edge set back into CSR form (compacts the live
    /// prefixes; the slack never leaves the arena).
    pub fn to_graph(&self) -> Graph {
        let offsets = counts_to_offsets(&self.seg_len);
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
        self.seg_len.len()
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
        self.seg_len[v as usize]
    }

    /// The sorted neighbors of vertex `v` — a contiguous arena slice.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let start = self.seg_start[v as usize];
        &self.nbr[start..start + self.seg_len[v as usize]]
    }

    /// The slot ids of `v`'s incident edges, parallel to
    /// [`DynGraph::neighbors`].
    #[inline]
    pub fn neighbor_slots(&self, v: u32) -> &[u32] {
        let start = self.seg_start[v as usize];
        &self.slot[start..start + self.seg_len[v as usize]]
    }

    /// True if `{u, v}` is currently an edge: one binary search in the
    /// smaller endpoint's live prefix, touching only the neighbor arena.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The stable slot id of edge `{u, v}`, or `None` when absent.
    #[inline]
    pub fn edge_slot(&self, u: u32, v: u32) -> Option<u32> {
        if u == v {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a)
            .binary_search(&b)
            .ok()
            .map(|i| self.neighbor_slots(a)[i])
    }

    /// The edge occupying `slot`, or `None` when the slot is free.
    ///
    /// # Panics
    /// Panics if `slot` was never allocated.
    pub fn slot_edge(&self, slot: u32) -> Option<Edge> {
        let key = self.slot_key[slot as usize];
        (key != FREE_KEY).then(|| Edge::new((key >> 32) as u32, key as u32))
    }

    /// Every live edge with its slot, in slot-id order.
    pub fn live_slot_updates(&self) -> Vec<SlotUpdate> {
        self.slot_key
            .par_iter()
            .enumerate()
            .filter_map(|(s, &key)| {
                (key != FREE_KEY).then(|| SlotUpdate {
                    edge: Edge::new((key >> 32) as u32, key as u32),
                    slot: s as u32,
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
    pub fn insert_edges(&mut self, edges: &[Edge]) -> Vec<SlotUpdate> {
        let batch = self.canonical_batch(edges, /* want_present: */ false);
        if batch.is_empty() {
            return Vec::new();
        }
        let updates: Vec<SlotUpdate> = batch
            .iter()
            .map(|&e| SlotUpdate {
                edge: e,
                slot: self.alloc_slot(e),
            })
            .collect();
        let (arcs, groups) = arcs_of(&updates);
        let (fits, overflows): (Vec<_>, Vec<_>) = groups.into_iter().partition(|&(v, ref r)| {
            self.seg_len[v as usize] + r.len() <= self.seg_cap[v as usize]
        });
        // A batch that overflows most of what it touches (the dense-growth
        // case — e.g. the first batch into a fresh graph) rebuilds outright:
        // one parallel pass beats thrashing the tail with relocations.
        if overflows.len() > fits.len().max(4) {
            let mut groups = fits;
            groups.extend(overflows);
            groups.sort_unstable_by_key(|&(v, _)| v);
            self.rebuild(&arcs, &groups, RebuildTrigger::InsertOverflow);
        } else {
            self.merge_insert_groups(&arcs, &fits);
            for &(v, ref range) in &overflows {
                self.relocate_with_merge(v, &arcs[range.clone()]);
            }
            // Relocations orphan their old segments; compact once the dead
            // space dominates (amortized: a third of the arena must die
            // between rebuilds).
            if self.dead > 64 && self.dead * 3 > self.nbr.len() {
                self.rebuild(&[], &[], RebuildTrigger::DeadSpace);
            }
        }
        self.num_edges += updates.len();
        updates
    }

    /// Deletes a batch of edges. Self-loops, duplicates within the batch, and
    /// edges not present are ignored. Returns the edges actually removed,
    /// canonical and sorted, each with the slot id it held (now freed).
    pub fn delete_edges(&mut self, edges: &[Edge]) -> Vec<SlotUpdate> {
        let batch = self.canonical_batch(edges, /* want_present: */ true);
        if batch.is_empty() {
            return Vec::new();
        }
        let updates: Vec<SlotUpdate> = batch
            .par_iter()
            .map(|&e| SlotUpdate {
                edge: e,
                slot: self.edge_slot(e.u, e.v).expect("filtered to present edges"),
            })
            .collect();

        // Arcs grouped by source; one in-segment compaction per touched
        // vertex, distinct segments in parallel.
        let mut arcs: Vec<(u32, u32)> = batch
            .par_iter()
            .flat_map_iter(|e| [(e.u, e.v), (e.v, e.u)])
            .collect();
        sort_by_key_parallel(&mut arcs, |&(u, v)| arc_key(u, v));
        let groups = group_by_source(arcs.len(), |i| arcs[i].0);
        let segments = split_segments(
            &mut self.nbr,
            &mut self.slot,
            &self.seg_start,
            &self.seg_cap,
            groups.iter().map(|&(v, _)| v),
        );
        let tasks: Vec<_> = segments
            .into_iter()
            .zip(&groups)
            .map(|((seg_n, seg_s), &(v, ref range))| {
                let targets: Vec<u32> = arcs[range.clone()].iter().map(|&(_, t)| t).collect();
                (seg_n, seg_s, self.seg_len[v as usize], targets)
            })
            .collect();
        let new_lens = par_map_blocks(tasks, &|(seg_n, seg_s, live, targets): (
            &mut [u32],
            &mut [u32],
            usize,
            Vec<u32>,
        )| {
            remove_from_segment(seg_n, seg_s, live, &targets)
        });
        for (&(v, _), new_len) in groups.iter().zip(new_lens) {
            self.seg_len[v as usize] = new_len;
        }
        self.num_edges -= updates.len();
        for u in &updates {
            self.free_slot(u.slot);
        }

        // Compact when the arena is mostly non-live, so memory tracks the
        // live edge set. The bound leaves the baseline slack (≈ live/2 + 2n)
        // alone and keeps rebuild cost amortized.
        let live_entries = 2 * self.num_edges;
        if self.nbr.len() > 64 && self.nbr.len() > 3 * live_entries + 4 * self.num_vertices() {
            self.rebuild(&[], &[], RebuildTrigger::Shrink);
        }
        updates
    }

    /// Checks every representation invariant; returns a description of the
    /// first violation. Meant for tests and the property suite — O(m log m).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.seg_start.len() != n || self.seg_cap.len() != n || self.seg_len.len() != n {
            return Err("per-vertex arrays have the wrong length".into());
        }
        if self.nbr.len() != self.slot.len() {
            return Err("nbr and slot arenas differ in length".into());
        }
        // Segments must be disjoint and, with the dead space, tile the arena.
        let mut spans: Vec<(usize, usize, u32)> = (0..n)
            .map(|v| (self.seg_start[v], self.seg_cap[v], v as u32))
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
            let len = self.seg_len[v as usize];
            if len > self.seg_cap[v as usize] {
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

    /// Canonicalizes a raw batch and keeps the edges whose presence in the
    /// current graph matches `want_present`: radix sort + parallel dedup +
    /// parallel membership filter.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    fn canonical_batch(&self, edges: &[Edge], want_present: bool) -> Vec<Edge> {
        let n = self.num_vertices();
        let mut batch: Vec<Edge> = edges
            .par_iter()
            .filter(|e| !e.is_self_loop())
            .map(|e| e.canonical())
            .collect();
        for e in &batch {
            assert!(
                (e.v as usize) < n,
                "DynGraph: edge ({}, {}) out of range for n={n}",
                e.u,
                e.v
            );
        }
        sort_by_key_parallel(&mut batch, |e| e.sort_key());
        let batch = par_dedup_adjacent(batch);
        batch
            .into_par_iter()
            .filter(|e| self.has_edge(e.u, e.v) == want_present)
            .collect()
    }

    /// In-segment path: every listed vertex has room, so each group merges
    /// into its own segment (a local back-to-front shuffle across the slack),
    /// distinct segments in parallel.
    fn merge_insert_groups(&mut self, arcs: &[InsArc], groups: &[(u32, std::ops::Range<usize>)]) {
        let segments = split_segments(
            &mut self.nbr,
            &mut self.slot,
            &self.seg_start,
            &self.seg_cap,
            groups.iter().map(|&(v, _)| v),
        );
        let tasks: Vec<_> = segments
            .into_iter()
            .zip(groups)
            .map(|((seg_n, seg_s), &(v, ref range))| {
                (seg_n, seg_s, self.seg_len[v as usize], &arcs[range.clone()])
            })
            .collect();
        par_map_blocks(tasks, &|(seg_n, seg_s, live, add): (
            &mut [u32],
            &mut [u32],
            usize,
            &[InsArc],
        )| {
            merge_into_segment(seg_n, seg_s, live, add);
        });
        for &(v, ref range) in groups {
            self.seg_len[v as usize] += range.len();
        }
    }

    /// Local overflow fix: appends `v`'s merged list (old live prefix + the
    /// sorted `add` arcs) at the arena tail with fresh slack, orphaning the
    /// old segment as dead space. O(degree), touches nothing else.
    fn relocate_with_merge(&mut self, v: u32, add: &[InsArc]) {
        let v = v as usize;
        let live = self.seg_len[v];
        let old_start = self.seg_start[v];
        let new_len = live + add.len();
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
            &head_n[old_start..old_start + live],
            &head_s[old_start..old_start + live],
            add,
            &mut tail_n[..new_len],
            &mut tail_s[..new_len],
        );
        self.dead += self.seg_cap[v];
        self.seg_start[v] = new_start;
        self.seg_cap[v] = new_cap;
        self.seg_len[v] = new_len;
        self.relocations += 1;
        if let Some(j) = &self.journal {
            j.record(EventKind::ArenaRelocation {
                vertex: v as u64,
                new_cap: new_cap as u64,
            });
        }
    }

    /// Rebuilds the whole arena with fresh per-vertex slack, merging the
    /// pending insertion `arcs` (may be empty — pure compaction) into the
    /// live prefixes on the way. Fanned out over contiguous vertex blocks
    /// with [`par_map_blocks`]; each block writes a disjoint region of the
    /// new arena, so the copy is race-free and deterministic.
    fn rebuild(
        &mut self,
        arcs: &[InsArc],
        groups: &[(u32, std::ops::Range<usize>)],
        trigger: RebuildTrigger,
    ) {
        let n = self.num_vertices();
        // Additions per vertex (sparse -> dense walk of the sorted groups).
        let mut add_range: Vec<std::ops::Range<usize>> = vec![0..0; n];
        for &(v, ref r) in groups {
            add_range[v as usize] = r.clone();
        }
        let caps: Vec<usize> = self
            .seg_len
            .par_iter()
            .zip(add_range.par_iter())
            .map(|(&len, r)| {
                let new_len = len + r.len();
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
                let live = this.seg_len[v];
                let src = this.seg_start[v];
                let add = &arcs[add_range_ref[v].clone()];
                merge_live_with_arcs(
                    &this.nbr[src..src + live],
                    &this.slot[src..src + live],
                    add,
                    &mut chunk_n[dst..dst + live + add.len()],
                    &mut chunk_s[dst..dst + live + add.len()],
                );
            }
        });
        for (len, r) in self.seg_len.iter_mut().zip(&add_range) {
            *len += r.len();
        }
        self.nbr = new_nbr;
        self.slot = new_slot;
        self.seg_start = new_start[..n].to_vec();
        self.seg_cap = caps;
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

/// Hands out exclusive `(nbr, slot)` sub-slices of the listed vertices'
/// segments — the ownership split that lets per-vertex merges run in
/// parallel without synchronization. Segments are disjoint but not ordered
/// by vertex id (relocations move vertices to the tail), so the split walks
/// them in arena order and restores the caller's order at the end.
fn split_segments<'a>(
    nbr: &'a mut [u32],
    slot: &'a mut [u32],
    seg_start: &[usize],
    seg_cap: &[usize],
    sources: impl Iterator<Item = u32>,
) -> Vec<(&'a mut [u32], &'a mut [u32])> {
    let mut order: Vec<(usize, usize, usize)> = sources
        .enumerate()
        .map(|(i, v)| (seg_start[v as usize], seg_cap[v as usize], i))
        .collect();
    order.sort_unstable();
    let mut out: Vec<Option<(&'a mut [u32], &'a mut [u32])>> =
        (0..order.len()).map(|_| None).collect();
    let mut rest_nbr = nbr;
    let mut rest_slot = slot;
    let mut consumed = 0usize;
    for (start, cap, i) in order {
        let (_, rem_n) = std::mem::take(&mut rest_nbr).split_at_mut(start - consumed);
        let (_, rem_s) = std::mem::take(&mut rest_slot).split_at_mut(start - consumed);
        let (seg_n, rem_n) = rem_n.split_at_mut(cap);
        let (seg_s, rem_s) = rem_s.split_at_mut(cap);
        rest_nbr = rem_n;
        rest_slot = rem_s;
        consumed = start + cap;
        out[i] = Some((seg_n, seg_s));
    }
    out.into_iter()
        .map(|s| s.expect("every source got its segment"))
        .collect()
}

/// Expands effective insertions into `(source, target, slot)` arcs grouped by
/// source (radix sort), plus the per-source group ranges.
fn arcs_of(updates: &[SlotUpdate]) -> (Vec<InsArc>, ArcGroups) {
    let mut arcs: Vec<InsArc> = updates
        .par_iter()
        .flat_map_iter(|u| [(u.edge.u, u.edge.v, u.slot), (u.edge.v, u.edge.u, u.slot)])
        .collect();
    sort_by_key_parallel(&mut arcs, |&(s, t, _)| arc_key(s, t));
    let groups = group_by_source(arcs.len(), |i| arcs[i].0);
    (arcs, groups)
}

/// Walks sorted arcs and returns `(source, range)` per maximal same-source
/// run. Sources come out strictly increasing.
fn group_by_source(len: usize, source_at: impl Fn(usize) -> u32) -> ArcGroups {
    let mut groups = Vec::new();
    let mut start = 0;
    while start < len {
        let source = source_at(start);
        let mut end = start + 1;
        while end < len && source_at(end) == source {
            end += 1;
        }
        groups.push((source, start..end));
        start = end;
    }
    groups
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

/// Merges the sorted, disjoint `add` arcs into the segment's live prefix of
/// length `live`, in place, back to front — the local shuffle across the
/// segment's slack. The caller guarantees `live + add.len()` fits the
/// segment.
fn merge_into_segment(seg_n: &mut [u32], seg_s: &mut [u32], live: usize, add: &[InsArc]) {
    let mut i = live;
    let mut j = add.len();
    let mut w = live + add.len();
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

/// Removes the sorted `targets` (all present) from the segment's live prefix
/// of length `live`, compacting toward the front. Returns the new live
/// length.
fn remove_from_segment(
    seg_n: &mut [u32],
    seg_s: &mut [u32],
    live: usize,
    targets: &[u32],
) -> usize {
    let mut w = 0usize;
    let mut j = 0usize;
    for i in 0..live {
        if j < targets.len() && targets[j] == seg_n[i] {
            j += 1;
        } else {
            seg_n[w] = seg_n[i];
            seg_s[w] = seg_s[i];
            w += 1;
        }
    }
    debug_assert_eq!(j, targets.len(), "remove_from_segment: target not present");
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
