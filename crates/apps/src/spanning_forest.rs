//! Greedy spanning forest.
//!
//! The paper's conclusion singles out spanning forest as the next greedy
//! sequential algorithm its technique should apply to. The sequential greedy
//! algorithm processes edges in order and keeps an edge iff it does not close
//! a cycle among the kept edges; the result (for a fixed order) is the
//! lexicographically-first spanning forest. This module runs that loop over
//! a union–find; it has no parallel version yet.

use greedy_graph::edge_list::EdgeList;
use greedy_prims::permutation::Permutation;

use crate::union_find::UnionFind;

/// Computes the greedy spanning forest: edge ids kept, sorted ascending.
/// Edges are considered in the order given by π.
pub fn spanning_forest(edges: &EdgeList, pi: &Permutation) -> Vec<u32> {
    let m = edges.num_edges();
    assert_eq!(
        pi.len(),
        m,
        "spanning_forest: permutation covers {} elements but there are {} edges",
        pi.len(),
        m
    );
    let mut uf = UnionFind::new(edges.num_vertices());
    let mut kept = Vec::new();
    for pos in 0..m {
        let e = pi.element_at(pos);
        let edge = edges.edge(e as usize);
        if uf.union(edge.u, edge.v) {
            kept.push(e);
        }
    }
    kept.sort_unstable();
    kept
}

/// True if `forest` (edge ids) is a spanning forest of `edges`: acyclic and
/// connecting every connected component of the graph.
pub fn verify_spanning_forest(edges: &EdgeList, forest: &[u32]) -> bool {
    let n = edges.num_vertices();
    // Acyclicity and forest size per component via union–find.
    let mut uf_forest = UnionFind::new(n);
    for &e in forest {
        if e as usize >= edges.num_edges() {
            return false;
        }
        let edge = edges.edge(e as usize);
        if !uf_forest.union(edge.u, edge.v) {
            return false; // cycle
        }
    }
    // Spanning: the forest must connect exactly what the graph connects.
    let mut uf_graph = UnionFind::new(n);
    for e in edges.edges() {
        uf_graph.union(e.u, e.v);
    }
    if uf_graph.num_sets() != uf_forest.num_sets() {
        return false;
    }
    // Same partition: every graph edge must stay within one forest component.
    edges.edges().iter().all(|e| uf_forest.same_set(e.u, e.v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use greedy_core::ordering::{identity_permutation, random_edge_permutation};
    use greedy_graph::gen::random::random_edge_list;
    use greedy_graph::gen::structured::{complete_edge_list, cycle_edge_list, path_edge_list};
    use greedy_graph::EdgeList;

    #[test]
    fn empty_graph() {
        let el = EdgeList::empty(4);
        let pi = identity_permutation(0);
        assert!(spanning_forest(&el, &pi).is_empty());
        assert!(verify_spanning_forest(&el, &[]));
    }

    #[test]
    fn path_takes_every_edge() {
        let el = path_edge_list(10);
        let pi = random_edge_permutation(el.num_edges(), 1);
        let f = spanning_forest(&el, &pi);
        assert_eq!(f.len(), 9);
        assert!(verify_spanning_forest(&el, &f));
    }

    #[test]
    fn cycle_drops_exactly_one_edge() {
        let el = cycle_edge_list(12);
        let pi = random_edge_permutation(el.num_edges(), 2);
        let f = spanning_forest(&el, &pi);
        assert_eq!(f.len(), 11);
        assert!(verify_spanning_forest(&el, &f));
        // The dropped edge is the one with the lowest priority (latest):
        // every earlier edge is acyclic when added under greedy order.
        let dropped: Vec<u32> = (0..12u32).filter(|e| !f.contains(e)).collect();
        assert_eq!(dropped.len(), 1);
        assert_eq!(pi.rank_of(dropped[0]), 11);
    }

    #[test]
    fn forest_size_matches_components() {
        let el = random_edge_list(500, 700, 5); // sparse: several components
        let pi = random_edge_permutation(el.num_edges(), 6);
        let f = spanning_forest(&el, &pi);
        assert!(verify_spanning_forest(&el, &f));
        // |forest| = n - #components(graph including isolated vertices).
        let mut uf = UnionFind::new(500);
        for e in el.edges() {
            uf.union(e.u, e.v);
        }
        assert_eq!(f.len(), 500 - uf.num_sets());
    }

    #[test]
    fn complete_graph_forest_is_a_tree() {
        let el = complete_edge_list(20);
        let pi = random_edge_permutation(el.num_edges(), 7);
        let f = spanning_forest(&el, &pi);
        assert_eq!(f.len(), 19);
        assert!(verify_spanning_forest(&el, &f));
    }

    #[test]
    fn verify_detects_cycles_and_non_spanning() {
        let el = cycle_edge_list(4); // edges 0..4 forming a cycle
        assert!(!verify_spanning_forest(&el, &[0, 1, 2, 3])); // cycle
        assert!(!verify_spanning_forest(&el, &[0, 1])); // not spanning
        assert!(verify_spanning_forest(&el, &[0, 1, 2]));
        assert!(!verify_spanning_forest(&el, &[9])); // out of range
    }
}
