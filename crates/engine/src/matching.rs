//! Incremental maintenance of the greedy maximal matching, on the shared
//! parallel round machinery.
//!
//! The maintained invariant is greedy on the line graph: edge `e` is matched
//! iff no adjacent edge with earlier priority is. Earlier revisions ran this
//! fixed point as a *sequential* priority heap because edges had no stable
//! dense ids; the slack-CSR [`DynGraph`] now assigns every live edge a stable
//! [`slot`](crate::dyn_graph::SlotUpdate) id, so the matching is simply a
//! [`ConflictDag`] over slots — items are slot ids, two slots conflict when
//! their edges share an endpoint — driven by the same
//! [`repair_fixed_point_with_scratch`] rounds that repair the MIS. MIS and
//! matching share one round engine and one [`RepairScratch`].
//!
//! Priorities are carried over unchanged from the heap implementation:
//! `(hash64(seed ⊕ SALT, key), key)` for the packed canonical endpoint key,
//! so the order is a property of the *edge* (stable under deletion and
//! re-insertion, independent of which slot the edge currently occupies) and
//! the maintained matching stays equal to the static greedy oracle. Free
//! slots are inert: they sit in no adjacency list, are never seeded, and thus
//! never enter a repair.
//!
//! Two flat per-vertex arrays, kept up to date by the driver's hooks, make
//! the repair cheap without allocating: the earliest accepted partner, which
//! turns a decision into two O(1) probes, and the number of pending incident
//! slots, which lets a pending-conflict walk skip an endpoint with none.
//!
//! Per batch, the dirty frontier is: every freshly inserted slot, plus —
//! for each deleted edge that was *matched* — every surviving slot incident
//! to its endpoints (a deleted unmatched edge constrained nothing and needs
//! no repair). The round driver propagates to later conflicting slots
//! whenever a decision flips, and every parallel step is order-preserving,
//! so the repaired matching is byte-identical across thread counts.

use greedy_core::dag::{repair_fixed_point_with_scratch, ConflictDag, RepairScratch, RepairStats};
use greedy_graph::edge_list::Edge;
use rayon::prelude::*;

use crate::dyn_graph::{DynGraph, SlotUpdate};
use crate::priority::edge_priority;

/// One net matching change of a batch: the stable slot id, its edge, and the
/// membership *after* the batch. For an edge that was deleted while matched,
/// `slot` is the id it held (now freed) and `matched` is `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchDelta {
    /// Stable slot id of the edge (its freed id when the edge was deleted).
    pub slot: u32,
    /// The canonical edge.
    pub edge: Edge,
    /// Matching membership after the batch.
    pub matched: bool,
}

/// [`ConflictDag`] view of the current edge set: items are slot ids, two
/// slots conflict when their edges share an endpoint.
struct MatchingDag<'a> {
    graph: &'a DynGraph,
    seed: u64,
    /// Cached [`edge_priority`] per slot — priority queries are loads, not
    /// hashes. Stale at free slots (inert) and filled for every live slot.
    prio: &'a [(u64, u64)],
    /// Per-vertex far endpoint of the **earliest accepted incident edge**,
    /// `u32::MAX` when none — maintained through [`ConflictDag::on_flip`],
    /// which makes [`ConflictDag::decide`] two O(1) partner probes instead
    /// of two adjacency walks (the same trick the retired sequential heap
    /// used). At the fixed point each vertex has at most one accepted
    /// incident edge, so this is exactly the matching's partner array.
    partner: &'a mut [u32],
    /// Per-vertex number of **pending** incident slots, maintained through
    /// the enter/retire hooks, so the pending-conflict walk skips an
    /// endpoint with none. All zero between repairs (the pending set drains
    /// to nothing).
    pending_count: &'a mut [u32],
}

/// True when an endpoint of `e` has an accepted incident edge earlier than
/// `p`, read off the earliest-accepted `partner` array: the greedy rule's
/// block test for an edge of priority `p`.
fn blocked(partner: &[u32], seed: u64, e: Edge, p: (u64, u64)) -> bool {
    [e.u, e.v].into_iter().any(|x| {
        let m = partner[x as usize];
        m != u32::MAX && edge_priority(seed, Edge::new(x, m)) < p
    })
}

impl ConflictDag for MatchingDag<'_> {
    /// `(hash, packed canonical key)` — the edge's own identity breaks ties,
    /// not its slot, so the order survives delete + re-insert cycles.
    type Priority = (u64, u64);

    fn len(&self) -> usize {
        self.graph.num_slots()
    }

    fn priority(&self, item: u32) -> (u64, u64) {
        self.prio[item as usize]
    }

    fn for_each_conflict(&self, item: u32, f: &mut dyn FnMut(u32)) {
        if let Some(e) = self.graph.slot_edge(item) {
            for x in [e.u, e.v] {
                for &s in self.graph.neighbor_slots(x) {
                    if s != item {
                        f(s);
                    }
                }
            }
        }
    }

    /// Blocked iff either endpoint's earliest accepted incident edge is
    /// earlier than `item`. Equivalent to the default conflict scan: the
    /// earliest accepted incident edge is the only possible earlier blocker
    /// at that endpoint, and a strict comparison excludes `item` itself.
    fn decide(&self, item: u32, _accepted: &[bool]) -> bool {
        let e = self.graph.slot_edge(item).expect("decided slot is live");
        !blocked(self.partner, self.seed, e, self.prio[item as usize])
    }

    /// The default flag filter over each endpoint's slots, skipping an
    /// endpoint with no pending incident slot. The skip is exact because the
    /// driver never walks an item the counts include (the trait's contract),
    /// so a zero count means no other pending slot there.
    fn for_each_pending_conflict(&self, item: u32, pending_flag: &[bool], f: &mut dyn FnMut(u32)) {
        let e = self.graph.slot_edge(item).expect("walked slot is live");
        for x in [e.u, e.v] {
            if self.pending_count[x as usize] == 0 {
                continue;
            }
            for &s in self.graph.neighbor_slots(x) {
                if s != item && pending_flag[s as usize] {
                    f(s);
                }
            }
        }
    }

    fn on_enter_pending(&mut self, item: u32) {
        let e = self.graph.slot_edge(item).expect("pending slot is live");
        self.pending_count[e.u as usize] += 1;
        self.pending_count[e.v as usize] += 1;
    }

    fn on_retire_pending(&mut self, item: u32) {
        let e = self.graph.slot_edge(item).expect("pending slot is live");
        self.pending_count[e.u as usize] -= 1;
        self.pending_count[e.v as usize] -= 1;
    }

    /// Keeps the earliest-accepted invariant: a flip *in* is unblocked, so
    /// it is earlier than every accepted incident edge and becomes the new
    /// minimum at both endpoints outright; a flip *out* rescans an endpoint
    /// only when the flipped edge was that endpoint's recorded minimum.
    fn on_flip(&mut self, item: u32, accepted_now: bool, accepted: &[bool]) {
        let e = self.graph.slot_edge(item).expect("flipped slot is live");
        if accepted_now {
            self.partner[e.u as usize] = e.v;
            self.partner[e.v as usize] = e.u;
        } else {
            for (x, y) in [(e.u, e.v), (e.v, e.u)] {
                if self.partner[x as usize] == y {
                    let mut best: Option<((u64, u64), u32)> = None;
                    for (&w, &s) in self
                        .graph
                        .neighbors(x)
                        .iter()
                        .zip(self.graph.neighbor_slots(x))
                    {
                        if accepted[s as usize] {
                            let p = self.prio[s as usize];
                            if best.is_none_or(|(bp, _)| p < bp) {
                                best = Some((p, w));
                            }
                        }
                    }
                    self.partner[x as usize] = best.map_or(u32::MAX, |(_, w)| w);
                }
            }
        }
    }
}

/// The matched-edge state: per-slot membership flags (the fixed point the
/// round machinery maintains) plus the derived per-vertex partner array the
/// serving export copies out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MatchingState {
    /// `matched[s]` — slot `s`'s edge is in the matching. Indexed by slot id;
    /// grows with the slot table, `false` at free slots.
    matched: Vec<bool>,
    /// Cached [`edge_priority`] per slot, refreshed when a slot is (re)used
    /// by an insertion. Values at free slots are stale and never read (free
    /// slots are inert in the DAG).
    prio: Vec<(u64, u64)>,
    /// Matched partner per vertex, `u32::MAX` when unmatched.
    partner: Vec<u32>,
    /// Per-vertex pending incident slot counts for the repair's conflict
    /// walk; all zero between repairs.
    pending_count: Vec<u32>,
    size: usize,
}

impl MatchingState {
    /// An empty matching over `n` vertices.
    #[cfg(test)]
    pub fn new(n: usize) -> Self {
        Self::from_matched_slots(n, 0, &[], &[])
    }

    /// The state of a matching already at the greedy fixed point: slot `s`
    /// holds `edges[s]`, and `matched_slots` are the matched slots. Fills
    /// the per-slot priority cache as [`MatchingState::repair_batch`] does
    /// for inserted slots.
    pub(crate) fn from_matched_slots(
        n: usize,
        seed: u64,
        edges: &[Edge],
        matched_slots: &[u32],
    ) -> Self {
        let mut matched = vec![false; edges.len()];
        let mut partner = vec![u32::MAX; n];
        for &s in matched_slots {
            let e = edges[s as usize];
            matched[s as usize] = true;
            partner[e.u as usize] = e.v;
            partner[e.v as usize] = e.u;
        }
        Self {
            matched,
            prio: edges.par_iter().map(|&e| edge_priority(seed, e)).collect(),
            partner,
            pending_count: vec![0; n],
            size: matched_slots.len(),
        }
    }

    /// Number of matched edges.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The raw partner array (`u32::MAX` = unmatched) — the serving export
    /// copies this directly.
    pub(crate) fn partners(&self) -> &[u32] {
        &self.partner
    }

    /// True when edge `{u, v}` is currently matched.
    #[inline]
    pub fn is_matched(&self, u: u32, v: u32) -> bool {
        self.partner[u as usize] == v
    }

    /// The matching as canonical edges, sorted lexicographically.
    pub fn matched_edges(&self) -> Vec<Edge> {
        self.partner
            .iter()
            .enumerate()
            .filter(|&(v, &p)| p != u32::MAX && (v as u32) < p)
            .map(|(v, &p)| Edge::new(v as u32, p))
            .collect()
    }

    /// Repairs the matching after `deleted` edges left and `inserted` edges
    /// entered `graph` (both lists effective, already applied to the graph).
    /// Runs the shared round machinery over the slot-indexed conflict DAG
    /// with the caller's scratch. Returns the net-changed edges (membership
    /// flipped relative to batch entry) sorted by slot id, plus the repair's
    /// work counters.
    pub fn repair_batch(
        &mut self,
        graph: &DynGraph,
        seed: u64,
        deleted: &[SlotUpdate],
        inserted: &[SlotUpdate],
        scratch: &mut RepairScratch,
    ) -> (Vec<MatchDelta>, RepairStats) {
        self.matched.resize(graph.num_slots(), false);
        self.prio.resize(graph.num_slots(), (u64::MAX, u64::MAX));
        for upd in inserted {
            self.prio[upd.slot as usize] = edge_priority(seed, upd.edge);
        }

        // (edge, slot at touch time, membership at batch entry) — first
        // occurrence per edge wins when computing the net delta.
        let mut touched: Vec<(Edge, u32, bool)> = Vec::new();
        let mut seeds: Vec<u32> = Vec::new();

        // Seed pre-filter: an edge that is *blocked at batch entry* — some
        // endpoint's currently matched edge has earlier priority — already
        // holds its fixed-point decision (`false`), so it needs no seeding:
        // if its blocker ever flips out during this repair, the flip
        // propagates to it through the round driver. The partner array is
        // exactly the entry state the repair starts from (deleted matched
        // edges are cleared out of it first), so this is an O(1) test that
        // keeps the pending set proportional to the edges that can actually
        // flip — the same trick that made the retired sequential heap's
        // blocked-test cheap, applied at seed time.

        // A deleted edge that was matched frees both endpoints; every
        // surviving incident slot with *later* priority that is not blocked
        // elsewhere may flip in, so those are seeded. (Earlier incident
        // slots were unmatched — the deleted edge would have been blocked
        // otherwise — and an unmatched item's removal changes no earlier
        // decision. A deleted unmatched edge blocked nothing and needs no
        // repair at all.) The deleted slot itself is already free — dead
        // slots never enter the repair — so its flip out of the matching is
        // applied right here. Note its priority is recomputed from the
        // edge, not read from the cache: a same-batch insertion may have
        // recycled the slot already.
        for upd in deleted {
            if self.matched[upd.slot as usize] {
                self.matched[upd.slot as usize] = false;
                self.size -= 1;
                self.clear_partner(upd.edge);
                touched.push((upd.edge, upd.slot, true));
                let gone = edge_priority(seed, upd.edge);
                for x in [upd.edge.u, upd.edge.v] {
                    for (&w, &s) in graph.neighbors(x).iter().zip(graph.neighbor_slots(x)) {
                        let p = self.prio[s as usize];
                        if p > gone && !blocked(&self.partner, seed, Edge::new(x, w), p) {
                            seeds.push(s);
                        }
                    }
                }
            }
        }
        // An inserted slot is a new item whose decision starts `false`; if
        // it is not blocked at entry the driver re-decides it and
        // propagates onward when it flips in. (On slot reuse within a batch
        // the deletion loop above already reset the recycled flag.)
        for upd in inserted {
            debug_assert!(!self.matched[upd.slot as usize]);
            if !blocked(&self.partner, seed, upd.edge, self.prio[upd.slot as usize]) {
                seeds.push(upd.slot);
            }
        }

        let mut dag = MatchingDag {
            graph,
            seed,
            prio: &self.prio,
            partner: &mut self.partner,
            pending_count: &mut self.pending_count,
        };
        let (changed, stats) =
            repair_fixed_point_with_scratch(&mut dag, &mut self.matched, &seeds, scratch);

        // The partner array was maintained in-flight by the DAG's flip hook;
        // only the size and the first-touch bookkeeping derive from the net
        // changed set.
        for &s in &changed {
            let e = graph.slot_edge(s).expect("changed slot is live");
            if self.matched[s as usize] {
                self.size += 1;
                touched.push((e, s, false));
            } else {
                self.size -= 1;
                touched.push((e, s, true));
            }
        }

        // Net delta versus batch entry. An edge can be touched twice only
        // via delete + re-insert in one batch; the deletion was pushed
        // first, and the stable sort keeps it first, so keeping the first
        // occurrence keys the delta off the true entry state.
        touched.sort_by_key(|&(edge, _, _)| edge.sort_key());
        touched.dedup_by_key(|&mut (edge, _, _)| edge.sort_key());
        let mut deltas: Vec<MatchDelta> = Vec::new();
        for (edge, slot, before) in touched {
            let current = graph.edge_slot(edge.u, edge.v);
            let now = current.is_some_and(|s| self.matched[s as usize]);
            if now != before {
                deltas.push(MatchDelta {
                    slot: current.unwrap_or(slot),
                    edge,
                    matched: now,
                });
            }
        }
        // Keyed on `(slot, edge)` — a batch can free a matched edge's slot
        // and re-issue it to a different edge, putting the same slot id in
        // the delta twice; the edge key makes the order total.
        deltas.sort_unstable_by_key(|d| (d.slot, d.edge.sort_key()));
        (deltas, stats)
    }

    /// Clears the partner entries pointing across `e` after the matched edge
    /// was deleted.
    #[inline]
    fn clear_partner(&mut self, e: Edge) {
        debug_assert!(self.is_matched(e.u, e.v) && self.is_matched(e.v, e.u));
        self.partner[e.u as usize] = u32::MAX;
        self.partner[e.v as usize] = u32::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::priority::edge_permutation;
    use greedy_core::matching::sequential::sequential_matching;
    use greedy_graph::gen::random::random_graph;

    fn scratch() -> RepairScratch {
        RepairScratch::new()
    }

    /// The repair driver's full-seed run: every live slot inserted into an
    /// empty matching.
    fn seed_all(g: &DynGraph, seed: u64, sc: &mut RepairScratch) -> (MatchingState, RepairStats) {
        let mut state = MatchingState::new(g.num_vertices());
        let (_, stats) = state.repair_batch(g, seed, &[], &g.live_slot_updates(), sc);
        (state, stats)
    }

    /// From-scratch oracle: the static sequential greedy matching under the
    /// engine's hashed edge order.
    fn oracle(graph: &DynGraph, seed: u64) -> Vec<Edge> {
        let el = graph.to_edge_list();
        let pi = edge_permutation(seed, &el);
        let mut m: Vec<Edge> = sequential_matching(&el, &pi)
            .into_iter()
            .map(|id| el.edge(id as usize))
            .collect();
        m.sort_unstable_by_key(|e| e.sort_key());
        m
    }

    #[test]
    fn scratch_matching_equals_sequential_oracle() {
        for seed in 0..4 {
            let graph = random_graph(300, 1_000, seed);
            let g = DynGraph::from_graph(&graph);
            let (state, stats) = seed_all(&g, seed + 31, &mut scratch());
            assert_eq!(state.matched_edges(), oracle(&g, seed + 31), "seed {seed}");
            assert!(stats.rounds >= 1, "from-scratch run must take rounds");
            assert_eq!(
                state.matched_edges(),
                Engine::from_graph(&graph, seed + 31).matching(),
                "seed {seed}: full-seed repair vs the engine's static build"
            );
        }
    }

    #[test]
    fn insert_and_delete_repair_to_oracle() {
        let mut g = DynGraph::from_graph(&random_graph(150, 400, 2));
        let seed = 99;
        let mut sc = scratch();
        let (mut state, _) = seed_all(&g, seed, &mut sc);
        // A few single-edge updates, each checked against the oracle.
        for (ins, del) in [
            (vec![Edge::new(0, 149)], vec![]),
            (vec![], vec![Edge::new(0, 149)]),
            (vec![Edge::new(7, 90), Edge::new(7, 91)], vec![]),
            (vec![], vec![Edge::new(7, 90)]),
        ] {
            let deleted = g.delete_edges(&del);
            let inserted = g.insert_edges(&ins);
            let before = state.matched_edges();
            let (changed, _) = state.repair_batch(&g, seed, &deleted, &inserted, &mut sc);
            assert_eq!(state.matched_edges(), oracle(&g, seed));
            // The reported delta is exactly the symmetric difference, and
            // each entry's `matched` flag reflects the post-batch state.
            let after = state.matched_edges();
            let mut sym: Vec<Edge> = before
                .iter()
                .filter(|e| !after.contains(e))
                .chain(after.iter().filter(|e| !before.contains(e)))
                .copied()
                .collect();
            sym.sort_unstable_by_key(|e| e.sort_key());
            let mut reported: Vec<Edge> = changed.iter().map(|d| d.edge).collect();
            reported.sort_unstable_by_key(|e| e.sort_key());
            assert_eq!(reported, sym);
            for d in &changed {
                assert_eq!(d.matched, after.contains(&d.edge), "flag of {:?}", d.edge);
            }
        }
    }

    #[test]
    fn deleting_matched_edge_lets_neighbors_in() {
        // Path 0-1-2-3; force a state, delete the matched middle edge.
        let mut g = DynGraph::new(4);
        g.insert_edges(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
        for seed in 0..20 {
            let mut sc = scratch();
            let (mut state, _) = seed_all(&g, seed, &mut sc);
            let m = state.matched_edges();
            let deleted = g.delete_edges(&[m[0]]);
            let (_, _) = state.repair_batch(&g, seed, &deleted, &[], &mut sc);
            assert_eq!(state.matched_edges(), oracle(&g, seed), "seed {seed}");
            let re_inserted = g.insert_edges(&[m[0]]);
            let (_, _) = state.repair_batch(&g, seed, &[], &re_inserted, &mut sc);
            assert_eq!(state.matched_edges(), oracle(&g, seed), "seed {seed} back");
        }
    }

    #[test]
    fn delete_and_reinsert_in_one_batch_reports_net_delta() {
        // An edge deleted and re-inserted (reusing its slot) whose final
        // membership equals its entry membership must NOT appear in the
        // delta — the net report keys off batch entry, like the old
        // hashed-key report did.
        let mut g = DynGraph::new(4);
        g.insert_edges(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
        for seed in 0..10 {
            let mut sc = scratch();
            let (mut state, _) = seed_all(&g, seed, &mut sc);
            let before = state.matched_edges();
            let e = before[0];
            let deleted = g.delete_edges(&[e]);
            let inserted = g.insert_edges(&[e]);
            let (changed, _) = state.repair_batch(&g, seed, &deleted, &inserted, &mut sc);
            assert_eq!(state.matched_edges(), before, "state must return");
            assert!(
                changed.is_empty(),
                "seed {seed}: net delta must be empty, got {changed:?}"
            );
        }
    }

    #[test]
    fn pending_counts_drain_to_zero_between_repairs() {
        // A count left nonzero would make later walks scan for nothing; a
        // count that underflowed would skip live conflicts.
        let drained = |state: &MatchingState| state.pending_count.iter().all(|&c| c == 0);
        let mut g = DynGraph::from_graph(&random_graph(400, 1_600, 8));
        let seed = 21;
        let mut sc = scratch();
        let (mut state, _) = seed_all(&g, seed, &mut sc);
        assert!(drained(&state));
        let mut decided = 0;
        for round in 0..20u32 {
            let (a, b) = (round * 7 % 400, (round * 13 + 100) % 400);
            let matched = state.matched_edges();
            let deleted = g.delete_edges(&matched[..matched.len().min(5)]);
            let inserted = g.insert_edges(&[Edge::new(a, b), Edge::new(a, (b + 1) % 400)]);
            let (_, stats) = state.repair_batch(&g, seed, &deleted, &inserted, &mut sc);
            decided += stats.decided;
            assert!(drained(&state), "round {round}");
            assert_eq!(state.clone(), state, "round {round}");
        }
        assert!(decided > 0, "the stream never entered a pending slot");
    }

    #[test]
    fn empty_batches_are_noops() {
        let g = DynGraph::from_graph(&random_graph(50, 120, 3));
        let mut sc = scratch();
        let (mut state, _) = seed_all(&g, 5, &mut sc);
        let before = state.clone();
        let (changed, stats) = state.repair_batch(&g, 5, &[], &[], &mut sc);
        assert!(changed.is_empty());
        assert_eq!(stats.decided, 0);
        assert_eq!(state, before);
    }
}
