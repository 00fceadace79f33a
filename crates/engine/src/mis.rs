//! Incremental maintenance of the greedy MIS.
//!
//! The maintained invariant is the greedy fixed point: vertex `v` is in the
//! MIS iff none of its earlier-priority neighbors is. This module adapts the
//! engine's [`DynGraph`] to [`greedy_core::dag::ConflictDag`] and drives
//! [`greedy_core::dag::repair_fixed_point`] — the paper's round machinery
//! generalized to start from a dirty frontier — over it. A vertex's priority
//! is its rank in the engine's vertex order π
//! ([`vertex_permutation`](crate::priority::vertex_permutation)): the vertex
//! set never changes, so ranks stay valid across updates.
//!
//! Per batch, the dirty frontier is simply the endpoints of every effectively
//! inserted or deleted edge: a vertex's decision depends only on its
//! earlier-priority neighbors, so an edge change can affect (directly) only
//! its two endpoints, and the driver propagates transitively to later
//! vertices whenever a decision actually flips.

use greedy_core::dag::{repair_fixed_point_with_scratch, ConflictDag, RepairScratch, RepairStats};

use crate::dyn_graph::DynGraph;

/// [`ConflictDag`] view of a dynamic graph under the vertex order π.
pub(crate) struct MisDag<'a> {
    graph: &'a DynGraph,
    /// `rank[v]` = position of `v` in π; distinct, so no tie-break is needed.
    rank: &'a [u32],
}

impl ConflictDag for MisDag<'_> {
    type Priority = u32;

    fn len(&self) -> usize {
        self.graph.num_vertices()
    }

    fn priority(&self, v: u32) -> u32 {
        self.rank[v as usize]
    }

    fn for_each_conflict(&self, v: u32, f: &mut dyn FnMut(u32)) {
        for &w in self.graph.neighbors(v) {
            f(w);
        }
    }

    /// A direct scan of `v`'s adjacency slice that stops at the first
    /// accepted earlier neighbor. The trait default reaches the neighbors
    /// through [`ConflictDag::for_each_conflict`]'s `dyn FnMut` callback,
    /// which cannot stop early, so it would walk every neighbor of every
    /// re-decided vertex on the repair path.
    fn decide(&self, v: u32, accepted: &[bool]) -> bool {
        let pv = self.priority(v);
        !self
            .graph
            .neighbors(v)
            .iter()
            .any(|&w| accepted[w as usize] && self.priority(w) < pv)
    }
}

/// Re-decides `seeds` (endpoints of the batch's edge changes) and everything
/// downstream, mutating `in_mis` to the greedy fixed point on the current
/// graph. The engine passes its long-lived `scratch` so a tiny batch costs
/// O(Δ), not O(n). Returns the net-changed vertices (sorted) and repair
/// counters.
pub(crate) fn repair_mis(
    graph: &DynGraph,
    rank: &[u32],
    in_mis: &mut [bool],
    seeds: &[u32],
    scratch: &mut RepairScratch,
) -> (Vec<u32>, RepairStats) {
    let mut dag = MisDag { graph, rank };
    repair_fixed_point_with_scratch(&mut dag, in_mis, seeds, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::priority::vertex_permutation;
    use greedy_core::mis::sequential::sequential_mis;
    use greedy_graph::edge_list::Edge;
    use greedy_graph::gen::random::random_graph;

    fn mis_of(flags: &[bool]) -> Vec<u32> {
        flags
            .iter()
            .enumerate()
            .filter_map(|(v, &a)| a.then_some(v as u32))
            .collect()
    }

    /// The repair driver's full-seed run: every vertex re-decided from an
    /// all-`false` state.
    fn seed_all(graph: &DynGraph, rank: &[u32], scratch: &mut RepairScratch) -> Vec<bool> {
        let mut in_mis = vec![false; graph.num_vertices()];
        let all: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        repair_mis(graph, rank, &mut in_mis, &all, scratch);
        in_mis
    }

    #[test]
    fn scratch_mis_equals_sequential_under_hashed_order() {
        for seed in 0..4 {
            let g = random_graph(400, 1_500, seed);
            let dyn_g = DynGraph::from_graph(&g);
            let pi = vertex_permutation(400, seed + 7);
            let flags = seed_all(&dyn_g, pi.rank(), &mut RepairScratch::new());
            assert_eq!(mis_of(&flags), sequential_mis(&g, &pi), "seed {seed}");
            assert_eq!(
                mis_of(&flags),
                Engine::from_graph(&g, seed + 7).mis(),
                "seed {seed}: full-seed repair vs the engine's static build"
            );
        }
    }

    #[test]
    fn single_edge_insert_repairs_to_scratch_result() {
        let g = random_graph(200, 500, 1);
        let mut dyn_g = DynGraph::from_graph(&g);
        let pi = vertex_permutation(200, 5);
        let mut scratch = RepairScratch::new();
        let mut flags = seed_all(&dyn_g, pi.rank(), &mut scratch);
        for (u, v) in [(0u32, 150u32), (3, 77), (180, 2)] {
            let added = dyn_g.insert_edges(&[Edge::new(u, v)]);
            if added.is_empty() {
                continue;
            }
            let before = flags.clone();
            let (changed, _) = repair_mis(&dyn_g, pi.rank(), &mut flags, &[u, v], &mut scratch);
            let expected = sequential_mis(&dyn_g.to_graph(), &pi);
            assert_eq!(mis_of(&flags), expected, "after inserting ({u}, {v})");
            let flipped: Vec<u32> = (0..200u32)
                .filter(|&x| before[x as usize] != flags[x as usize])
                .collect();
            assert_eq!(changed, flipped, "reported delta must be the net flips");
        }
    }
}
