//! The sequential greedy maximal matching.
//!
//! Process the edges in the order given by π; accept an edge iff neither of
//! its endpoints is already matched. This is the linear-time algorithm the
//! paper's Section 5 starts from, and the reference result every parallel
//! matching implementation must reproduce exactly.

use greedy_graph::edge_list::EdgeList;
use greedy_prims::permutation::Permutation;

use crate::stats::WorkStats;

/// Runs the sequential greedy maximal matching. Returns the matched edge ids,
/// sorted ascending.
///
/// # Panics
/// Panics if `pi.len() != edges.num_edges()`.
pub fn sequential_matching(edges: &EdgeList, pi: &Permutation) -> Vec<u32> {
    sequential_matching_with_stats(edges, pi).0
}

/// Runs the sequential greedy maximal matching with work counters
/// (`vertex_work` counts edge examinations, so it equals m; `rounds` = m).
pub fn sequential_matching_with_stats(edges: &EdgeList, pi: &Permutation) -> (Vec<u32>, WorkStats) {
    let m = edges.num_edges();
    assert_eq!(
        pi.len(),
        m,
        "sequential_matching: permutation covers {} elements but there are {} edges",
        pi.len(),
        m
    );
    let mut vertex_matched = vec![false; edges.num_vertices()];
    let mut in_matching = vec![false; m];
    let mut stats = WorkStats::new();
    stats.rounds = m as u64;
    stats.steps = m as u64;

    for pos in 0..m {
        let e = pi.element_at(pos);
        stats.vertex_work += 1;
        let edge = edges.edge(e as usize);
        if !vertex_matched[edge.u as usize] && !vertex_matched[edge.v as usize] {
            in_matching[e as usize] = true;
            vertex_matched[edge.u as usize] = true;
            vertex_matched[edge.v as usize] = true;
        }
        stats.edge_work += 2;
    }
    let matching: Vec<u32> = in_matching
        .iter()
        .enumerate()
        .filter_map(|(e, &m)| m.then_some(e as u32))
        .collect();
    (matching, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::verify::verify_maximal_matching;
    use crate::ordering::{identity_permutation, random_edge_permutation};
    use greedy_graph::gen::random::random_edge_list;
    use greedy_graph::gen::structured::{path_edge_list, star_edge_list};
    use greedy_graph::EdgeList;

    #[test]
    fn empty_edge_list() {
        let el = EdgeList::empty(5);
        assert!(sequential_matching(&el, &identity_permutation(0)).is_empty());
    }

    #[test]
    fn single_edge() {
        let el = EdgeList::from_pairs(2, vec![(0, 1)]);
        assert_eq!(sequential_matching(&el, &identity_permutation(1)), vec![0]);
    }

    #[test]
    fn path_identity_order_takes_alternating_edges() {
        // Edges of P5: (0,1), (1,2), (2,3), (3,4); greedy in id order takes
        // edge 0 then edge 2.
        let el = path_edge_list(5);
        assert_eq!(
            sequential_matching(&el, &identity_permutation(4)),
            vec![0, 2]
        );
    }

    #[test]
    fn star_takes_exactly_one_edge() {
        let el = star_edge_list(6);
        let pi = random_edge_permutation(el.num_edges(), 3);
        let mm = sequential_matching(&el, &pi);
        assert_eq!(mm.len(), 1);
        assert_eq!(mm[0], pi.element_at(0), "the earliest star edge must win");
    }

    #[test]
    fn result_is_maximal_matching_on_random_graphs() {
        for seed in 0..5 {
            let el = random_edge_list(200, 700, seed);
            let pi = random_edge_permutation(el.num_edges(), seed + 9);
            let mm = sequential_matching(&el, &pi);
            assert!(verify_maximal_matching(&el, &mm), "seed {seed}");
        }
    }

    #[test]
    fn stats_count_each_edge_once() {
        let el = random_edge_list(100, 300, 1);
        let pi = random_edge_permutation(300, 2);
        let (_, stats) = sequential_matching_with_stats(&el, &pi);
        assert_eq!(stats.vertex_work, 300);
        assert_eq!(stats.rounds, 300);
    }

    #[test]
    #[should_panic(expected = "permutation covers")]
    fn mismatched_permutation_panics() {
        let el = path_edge_list(4);
        sequential_matching(&el, &identity_permutation(7));
    }
}
