//! Algorithm 1: the sequential greedy MIS.
//!
//! Process the vertices in the order given by π; add a vertex to the MIS iff
//! none of its earlier neighbors was added. The result is the
//! lexicographically-first MIS for π and is the reference every parallel
//! implementation in this crate must reproduce exactly.

use greedy_graph::csr::Graph;
use greedy_prims::permutation::Permutation;

use crate::mis::{collect_in_vertices, VertexState};
use crate::stats::WorkStats;

/// Runs the sequential greedy MIS (Algorithm 1). Returns the MIS as a sorted
/// vertex list.
///
/// # Panics
/// Panics if `pi.len() != graph.num_vertices()`.
pub fn sequential_mis(graph: &Graph, pi: &Permutation) -> Vec<u32> {
    sequential_mis_with_stats(graph, pi).0
}

/// Runs the sequential greedy MIS and reports work counters.
///
/// The counters follow the paper's accounting: the sequential algorithm
/// examines each vertex exactly once (`vertex_work == n`, `rounds == n`) and
/// traverses the adjacency list only of the vertices it accepts.
pub fn sequential_mis_with_stats(graph: &Graph, pi: &Permutation) -> (Vec<u32>, WorkStats) {
    let n = graph.num_vertices();
    assert_eq!(
        pi.len(),
        n,
        "sequential_mis: permutation covers {} elements but the graph has {} vertices",
        pi.len(),
        n
    );
    let mut state = vec![VertexState::Undecided; n];
    let mut stats = WorkStats::new();
    stats.rounds = n as u64;
    stats.steps = n as u64;

    for pos in 0..n {
        let v = pi.element_at(pos);
        stats.vertex_work += 1;
        if state[v as usize] != VertexState::Undecided {
            continue;
        }
        // v has no earlier neighbor in the MIS (it would have been marked
        // Out), so it joins the MIS and knocks out its neighbors.
        state[v as usize] = VertexState::In;
        for &w in graph.neighbors(v) {
            stats.edge_work += 1;
            if state[w as usize] == VertexState::Undecided {
                state[w as usize] = VertexState::Out;
            }
        }
    }
    (collect_in_vertices(&state), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::verify::verify_mis;
    use crate::ordering::{identity_permutation, random_permutation};
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::structured::{complete_graph, path_graph, star_graph};
    use greedy_graph::Graph;

    #[test]
    fn empty_graph_returns_empty_set() {
        let g = Graph::empty(0);
        let pi = identity_permutation(0);
        assert!(sequential_mis(&g, &pi).is_empty());
    }

    #[test]
    fn edgeless_graph_returns_all_vertices() {
        let g = Graph::empty(5);
        let pi = identity_permutation(5);
        assert_eq!(sequential_mis(&g, &pi), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn complete_graph_returns_first_vertex_in_order() {
        let g = complete_graph(10);
        // With the identity order, vertex 0 is first.
        assert_eq!(sequential_mis(&g, &identity_permutation(10)), vec![0]);
        // With a random order, the single MIS vertex is the earliest in π.
        let pi = random_permutation(10, 3);
        let mis = sequential_mis(&g, &pi);
        assert_eq!(mis, vec![pi.element_at(0)]);
    }

    #[test]
    fn path_graph_identity_order_takes_alternating_vertices() {
        let g = path_graph(6);
        assert_eq!(sequential_mis(&g, &identity_permutation(6)), vec![0, 2, 4]);
    }

    #[test]
    fn star_graph_depends_on_whether_center_is_early() {
        let g = star_graph(6);
        // Identity order: center (0) first, so MIS = {0}.
        assert_eq!(sequential_mis(&g, &identity_permutation(6)), vec![0]);
        // Order that puts the center last: all leaves join.
        let order: Vec<u32> = vec![1, 2, 3, 4, 5, 0];
        let pi = greedy_prims::permutation::Permutation::from_order(order);
        assert_eq!(sequential_mis(&g, &pi), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn result_is_a_valid_mis_on_random_graphs() {
        for seed in 0..5 {
            let g = random_graph(300, 900, seed);
            let pi = random_permutation(300, seed + 100);
            let mis = sequential_mis(&g, &pi);
            assert!(verify_mis(&g, &mis), "seed {seed}");
        }
    }

    #[test]
    fn stats_match_the_sequential_accounting() {
        let g = random_graph(200, 600, 1);
        let pi = random_permutation(200, 2);
        let (mis, stats) = sequential_mis_with_stats(&g, &pi);
        assert_eq!(stats.vertex_work, 200);
        assert_eq!(stats.rounds, 200);
        // Edge work only charges the adjacency of accepted vertices.
        let expected_edge_work: u64 = mis.iter().map(|&v| g.degree(v) as u64).sum();
        assert_eq!(stats.edge_work, expected_edge_work);
    }

    #[test]
    fn different_orders_can_give_different_sets() {
        let g = path_graph(4);
        let a = sequential_mis(&g, &identity_permutation(4));
        let order: Vec<u32> = vec![1, 3, 0, 2];
        let b = sequential_mis(
            &g,
            &greedy_prims::permutation::Permutation::from_order(order),
        );
        assert_ne!(a, b);
        assert!(verify_mis(&g, &a));
        assert!(verify_mis(&g, &b));
    }

    #[test]
    #[should_panic(expected = "permutation covers")]
    fn mismatched_permutation_panics() {
        let g = path_graph(4);
        sequential_mis(&g, &identity_permutation(3));
    }
}
