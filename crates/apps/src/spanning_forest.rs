//! Greedy spanning forest with prefix-based parallelism.
//!
//! The paper's conclusion singles out spanning forest as the next greedy
//! sequential algorithm its technique should apply to. The sequential greedy
//! algorithm processes edges in order and keeps an edge iff it does not close
//! a cycle among the kept edges; the result (for a fixed order) is the
//! lexicographically-first spanning forest.
//!
//! The prefix-based parallelization here mirrors Algorithm 3: take the next
//! prefix of edges in priority order, determine inside the prefix which edges
//! are accepted — resolving dependences with the same
//! "earliest-undecided-first" rule using a union–find over the components
//! formed by *earlier accepted* edges — then merge and move on. For every
//! prefix size the output equals the sequential forest, which the tests
//! verify edge-for-edge.

use greedy_core::mis::prefix::PrefixPolicy;
use greedy_graph::edge_list::EdgeList;
use greedy_prims::permutation::Permutation;

use crate::union_find::UnionFind;

/// Computes the sequential greedy spanning forest: edge ids kept, sorted
/// ascending. Edges are considered in the order given by π.
pub fn sequential_spanning_forest(edges: &EdgeList, pi: &Permutation) -> Vec<u32> {
    let m = edges.num_edges();
    assert_eq!(
        pi.len(),
        m,
        "sequential_spanning_forest: permutation covers {} elements but there are {} edges",
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

/// Computes the same spanning forest with prefix-based rounds: each round
/// processes the next prefix of edges in priority order against the
/// union–find of all previously accepted edges, resolving the edges *within*
/// the prefix in priority order (the intra-prefix work is small for small
/// prefixes, exactly as in the MIS/MM algorithms).
pub fn spanning_forest(edges: &EdgeList, pi: &Permutation, policy: PrefixPolicy) -> Vec<u32> {
    let m = edges.num_edges();
    assert_eq!(
        pi.len(),
        m,
        "spanning_forest: permutation covers {} elements but there are {} edges",
        pi.len(),
        m
    );
    let order = pi.order();
    // Only the adaptive policy reads the maximum degree, and it is an O(n + m)
    // count: take it once, not once per prefix.
    let max_degree = match policy {
        PrefixPolicy::Adaptive { .. } => edges.max_degree() as usize,
        _ => 0,
    };
    let mut uf = UnionFind::new(edges.num_vertices());
    let mut kept = Vec::new();
    let mut start = 0usize;
    let mut round: u64 = 0;

    while start < m {
        let remaining = m - start;
        let k = policy.prefix_size(m, remaining, max_degree, round);
        round += 1;
        let prefix = &order[start..start + k];

        // Resolve the prefix. Edges whose endpoints are already connected by
        // earlier accepted edges are rejected outright (this is the cheap,
        // parallelizable filter); the survivors are resolved against each
        // other in priority order, which is the part that the sequential
        // algorithm interleaves but a prefix keeps small.
        let survivors: Vec<u32> = prefix
            .iter()
            .copied()
            .filter(|&e| {
                let edge = edges.edge(e as usize);
                !uf.same_set(edge.u, edge.v)
            })
            .collect();
        for &e in &survivors {
            let edge = edges.edge(e as usize);
            if uf.union(edge.u, edge.v) {
                kept.push(e);
            }
        }
        start += k;
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

    fn policies() -> Vec<PrefixPolicy> {
        vec![
            PrefixPolicy::Fixed(1),
            PrefixPolicy::Fixed(17),
            PrefixPolicy::FractionOfInput(0.05),
            PrefixPolicy::FractionOfInput(1.0),
            PrefixPolicy::default(),
        ]
    }

    #[test]
    fn empty_graph() {
        let el = EdgeList::empty(4);
        let pi = identity_permutation(0);
        assert!(sequential_spanning_forest(&el, &pi).is_empty());
        assert!(spanning_forest(&el, &pi, PrefixPolicy::default()).is_empty());
        assert!(verify_spanning_forest(&el, &[]));
    }

    #[test]
    fn path_takes_every_edge() {
        let el = path_edge_list(10);
        let pi = random_edge_permutation(el.num_edges(), 1);
        let f = sequential_spanning_forest(&el, &pi);
        assert_eq!(f.len(), 9);
        assert!(verify_spanning_forest(&el, &f));
    }

    #[test]
    fn cycle_drops_exactly_one_edge() {
        let el = cycle_edge_list(12);
        let pi = random_edge_permutation(el.num_edges(), 2);
        let f = sequential_spanning_forest(&el, &pi);
        assert_eq!(f.len(), 11);
        assert!(verify_spanning_forest(&el, &f));
        // The dropped edge is the one with the lowest priority (latest):
        // every earlier edge is acyclic when added under greedy order.
        let dropped: Vec<u32> = (0..12u32).filter(|e| !f.contains(e)).collect();
        assert_eq!(dropped.len(), 1);
        assert_eq!(pi.rank_of(dropped[0]), 11);
    }

    #[test]
    fn every_policy_matches_sequential() {
        for seed in 0..4 {
            let el = random_edge_list(300, 1_200, seed);
            let pi = random_edge_permutation(el.num_edges(), seed + 13);
            let expected = sequential_spanning_forest(&el, &pi);
            for policy in policies() {
                assert_eq!(
                    spanning_forest(&el, &pi, policy),
                    expected,
                    "policy {policy:?} diverged on seed {seed}"
                );
            }
        }
    }

    #[test]
    fn forest_size_matches_components() {
        let el = random_edge_list(500, 700, 5); // sparse: several components
        let pi = random_edge_permutation(el.num_edges(), 6);
        let f = sequential_spanning_forest(&el, &pi);
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
        let f = spanning_forest(&el, &pi, PrefixPolicy::Fixed(9));
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
