//! The fixed random priorities the engine maintains its state under.
//!
//! The paper's determinism hinges on the priorities being *fixed*: the greedy
//! MIS/matching under a fixed total order is unique, so any repair schedule
//! must land on the same state. A dynamic engine additionally needs the
//! priorities to be **stable across updates** — an edge deleted and
//! re-inserted must come back with the same priority, and inserting one edge
//! must not shift any other edge's priority. Index-based permutations (ranks
//! of `0..m`) do not survive a changing edge set, so the engine draws
//! priorities from the stateless hash [`hash64`] instead:
//!
//! * vertex `v` gets `(hash64(seed, v), v)` — exactly the key order
//!   [`par_random_permutation`] sorts by, so the engine's order *is* the
//!   order `random_permutation(n, seed)` encodes, and a from-scratch oracle
//!   can be built with the workspace's existing algorithms;
//! * edge `{u, v}` gets `(hash64(seed ⊕ SALT, key), key)` for the canonical
//!   packed key `u << 32 | v` — independent of when (or whether) the edge is
//!   currently present.
//!
//! [`vertex_permutation`] and [`edge_permutation`] materialize those orders
//! as [`Permutation`]s over a concrete vertex set / edge list.
//! `Engine::from_graph` builds its initial state with the static prefix
//! solvers under them, and the equivalence tests run the sequential
//! algorithms under them as oracles against the incrementally maintained
//! state.

use greedy_graph::edge_list::{Edge, EdgeList};
use greedy_prims::permutation::{par_random_permutation, Permutation};
use greedy_prims::random::hash64;
use greedy_prims::sort::sort_by_key_parallel;
use rayon::prelude::*;

/// Decorrelates the edge-priority stream from the vertex-priority stream
/// drawn from the same engine seed.
const EDGE_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The priority key of vertex `v`; lexicographically smaller = earlier.
#[inline]
pub fn vertex_priority(seed: u64, v: u32) -> (u64, u32) {
    (hash64(seed, v as u64), v)
}

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
    let mut keyed: Vec<(u64, u32)> = edges
        .edges()
        .par_iter()
        .enumerate()
        .map(|(id, &e)| (edge_priority(seed, e).0, id as u32))
        .collect();
    // Stable sort by hash; ids are in canonical (key) order, so hash
    // collisions fall back to key order — the same tie-break as
    // `edge_priority`'s second component.
    sort_by_key_parallel(&mut keyed, |&(h, _)| h);
    Permutation::from_order(keyed.into_par_iter().map(|(_, id)| id).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_order_matches_random_permutation() {
        // The engine compares (hash, id) pairs; the permutation sorts by the
        // same key. Ranks must therefore order vertices identically.
        let n = 5_000;
        let pi = vertex_permutation(n, 9);
        for pair in [(0u32, 1u32), (17, 4_999), (123, 124), (2_500, 0)] {
            let (a, b) = pair;
            assert_eq!(
                vertex_priority(9, a) < vertex_priority(9, b),
                pi.rank_of(a) < pi.rank_of(b),
                "vertices {a}, {b}"
            );
        }
    }

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
