//! The fixed random priorities the engine maintains its state under.
//!
//! The paper's determinism hinges on the priorities being *fixed*: the greedy
//! MIS/matching under a fixed total order is unique, so any repair schedule
//! must land on the same state. A dynamic engine additionally needs the
//! priorities to be **stable across updates** — an edge deleted and
//! re-inserted must come back with the same priority, and inserting one edge
//! must not shift any other edge's priority.
//!
//! * The vertex set never changes, so a vertex's priority is its rank in π,
//!   the [`vertex_permutation`]. π sorts vertices by `(hash64(seed, v), v)`
//!   and equals `random_permutation(n, seed)`, so a from-scratch oracle can
//!   be built with the workspace's existing algorithms. The engine builds π
//!   once and keeps its ranks.
//! * The edge set changes, and ranks of `0..m` do not survive that, so edge
//!   `{u, v}` gets the stateless [`edge_priority`]
//!   `(hash64(seed ⊕ SALT, key), key)` for the canonical packed key
//!   `u << 32 | v` — independent of when (or whether) the edge is currently
//!   present. [`edge_permutation`] materializes that order over a concrete
//!   canonical [`EdgeList`].
//!
//! `Engine::from_graph` builds its initial state with the static prefix
//! solvers under both orders, and the equivalence tests run the sequential
//! algorithms under them as oracles against the incrementally maintained
//! state.

use greedy_graph::edge_list::{Edge, EdgeList};
use greedy_prims::permutation::{par_random_permutation, Permutation};
use greedy_prims::random::hash64;
use greedy_prims::sort::sort_by_key_parallel;
use rayon::prelude::*;

/// Decorrelates the edge-priority stream from the vertex order drawn from
/// the same engine seed.
const EDGE_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The canonical packed id of an edge (endpoints ordered, `u` in the high
/// half). Stable across updates — it depends only on the endpoints.
#[inline]
pub fn edge_key(e: Edge) -> u64 {
    e.canonical().sort_key()
}

/// The priority key of edge `e`; lexicographically smaller = earlier.
#[inline]
pub fn edge_priority(seed: u64, e: Edge) -> (u64, u64) {
    let key = edge_key(e);
    (hash64(seed ^ EDGE_SEED_SALT, key), key)
}

/// The vertex order the engine maintains MIS under, as a [`Permutation`] —
/// identical to `greedy_core::ordering::random_permutation(n, seed)`.
pub fn vertex_permutation(n: usize, seed: u64) -> Permutation {
    par_random_permutation(n, seed)
}

/// The edge order the engine maintains the matching under, restricted to a
/// concrete canonical [`EdgeList`]: edge ids sorted by [`edge_priority`].
///
/// # Panics
/// Panics if `edges` is not canonical (the id → key map must be injective
/// and monotone for the stable sort to reproduce the engine's tie-breaking).
pub fn edge_permutation(seed: u64, edges: &EdgeList) -> Permutation {
    assert!(
        edges.is_canonical(),
        "edge_permutation: edge list must be canonical"
    );
    let mut keyed: Vec<(u64, u32)> = (0..edges.num_edges() as u32)
        .into_par_iter()
        .map(|id| (edge_priority(seed, edges.edge(id as usize)).0, id))
        .collect();
    // Stable sort by hash; ids are in canonical (key) order, so hash
    // collisions fall back to key order — the same tie-break as
    // `edge_priority`'s second component.
    sort_by_key_parallel(&mut keyed, |&(h, _)| h);
    Permutation::from_order(keyed.par_iter().map(|&(_, id)| id).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_priority_is_orientation_invariant_and_stable() {
        let e = edge_priority(7, Edge::new(3, 9));
        assert_eq!(e, edge_priority(7, Edge::new(9, 3)));
        assert_eq!(e, edge_priority(7, Edge::new(3, 9)));
        assert_ne!(e, edge_priority(8, Edge::new(3, 9)));
        assert_ne!(e, edge_priority(7, Edge::new(3, 8)));
    }

    #[test]
    fn edge_permutation_orders_ids_by_priority() {
        let el = EdgeList::from_pairs(50, (0..49).map(|i| (i, i + 1))).canonicalize();
        let pi = edge_permutation(3, &el);
        assert_eq!(pi.len(), el.num_edges());
        for pos in 1..pi.len() {
            let a = el.edge(pi.element_at(pos - 1) as usize);
            let b = el.edge(pi.element_at(pos) as usize);
            assert!(edge_priority(3, a) < edge_priority(3, b), "position {pos}");
        }
    }

    #[test]
    #[should_panic(expected = "must be canonical")]
    fn edge_permutation_rejects_non_canonical() {
        let el = EdgeList::from_pairs(4, vec![(2, 1)]);
        edge_permutation(1, &el);
    }
}
