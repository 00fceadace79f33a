//! Priority-DAG analysis: dependence length and longest directed path.
//!
//! The priority DAG of (G, π) orients every edge from its earlier endpoint to
//! its later one. Two quantities matter in the paper's analysis:
//!
//! * the **longest directed path**, which upper-bounds the dependence length
//!   (Lemma 3.3 bounds it per prefix);
//! * the **dependence length** — the number of iterations Algorithm 2 needs,
//!   i.e. the number of times the root set must be peeled before the DAG is
//!   empty. Theorem 3.5: O(log² n) w.h.p. for random π on *any* graph.
//!   It is the step count of the linear-work
//!   [`crate::mis::rootset::rootset_mis_with_stats`].
//!
//! The complete graph separates the two: its longest path is n−1 while its
//! dependence length is 1 (the single earliest vertex decides everyone).
//! The `dependence_length` experiment regenerates that comparison.

use greedy_graph::csr::Graph;
use greedy_prims::permutation::Permutation;

use crate::mis::rootset::rootset_mis_with_stats;

/// The length (number of vertices) of the longest directed path in the
/// priority DAG of (graph, π).
///
/// Computed by dynamic programming over vertices in priority order:
/// `depth(v) = 1 + max(depth(u))` over earlier neighbors `u`.
pub fn priority_dag_longest_path(graph: &Graph, pi: &Permutation) -> usize {
    let n = graph.num_vertices();
    assert_eq!(
        pi.len(),
        n,
        "priority_dag_longest_path: permutation covers {} elements but the graph has {} vertices",
        pi.len(),
        n
    );
    if n == 0 {
        return 0;
    }
    let rank = pi.rank();
    let mut depth = vec![0u32; n];
    let mut longest = 0u32;
    for pos in 0..n {
        let v = pi.element_at(pos) as usize;
        let mut d = 1u32;
        for &w in graph.neighbors(v as u32) {
            if rank[w as usize] < rank[v] {
                d = d.max(depth[w as usize] + 1);
            }
        }
        depth[v] = d;
        longest = longest.max(d);
    }
    longest as usize
}

/// The dependence length of (graph, π): the number of rounds Algorithm 2
/// takes, equivalently the number of root-set peels of the priority DAG.
pub fn dependence_length(graph: &Graph, pi: &Permutation) -> usize {
    rootset_mis_with_stats(graph, pi).1.rounds as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::{identity_permutation, random_permutation};
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::structured::{complete_graph, path_graph, star_graph};
    use greedy_graph::Graph;

    #[test]
    fn longest_path_empty_and_edgeless() {
        assert_eq!(
            priority_dag_longest_path(&Graph::empty(0), &identity_permutation(0)),
            0
        );
        assert_eq!(
            priority_dag_longest_path(&Graph::empty(5), &identity_permutation(5)),
            1
        );
    }

    #[test]
    fn longest_path_of_complete_graph_is_n() {
        // Every pair is comparable, so the DAG is a total order: path of n vertices.
        let g = complete_graph(12);
        let pi = random_permutation(12, 1);
        assert_eq!(priority_dag_longest_path(&g, &pi), 12);
    }

    #[test]
    fn complete_graph_separates_path_from_dependence() {
        // The paper's motivating example: longest path Ω(n), dependence O(1).
        let g = complete_graph(40);
        let pi = random_permutation(40, 2);
        assert_eq!(priority_dag_longest_path(&g, &pi), 40);
        assert_eq!(dependence_length(&g, &pi), 1);
    }

    #[test]
    fn path_graph_identity_order() {
        // Orientation 0→1→2→…: the whole path is directed, and the identity
        // order is the adversarial one — only one new root appears per round
        // (vertex 0, then 2, then 4, …), so the dependence length is ~n/2.
        // A random order instead gives the O(log² n) behaviour.
        let g = path_graph(10);
        let pi = identity_permutation(10);
        assert_eq!(priority_dag_longest_path(&g, &pi), 10);
        assert_eq!(dependence_length(&g, &pi), 5);
        let random = dependence_length(&path_graph(512), &random_permutation(512, 3));
        assert!(
            random < 40,
            "random-order dependence length {random} should be polylog"
        );
    }

    #[test]
    fn dependence_length_below_longest_path() {
        for seed in 0..3 {
            let g = random_graph(400, 2_000, seed);
            let pi = random_permutation(400, seed + 5);
            assert!(dependence_length(&g, &pi) <= priority_dag_longest_path(&g, &pi));
        }
    }

    #[test]
    fn theorem_bound_shape_on_random_graph() {
        // Not a proof, but the measured dependence length should be within a
        // small constant of log²n for a random order (Theorem 3.5).
        let g = random_graph(3_000, 15_000, 6);
        let pi = random_permutation(3_000, 7);
        let dep = dependence_length(&g, &pi);
        let log = 3_000f64.log2().ceil() as usize;
        let log_sq = log * log;
        assert!(
            dep <= 2 * log_sq,
            "dependence length {dep} far above log²n = {log_sq}"
        );
    }

    #[test]
    fn star_graph_dependence_is_tiny() {
        let g = star_graph(1_000);
        let pi = random_permutation(1_000, 8);
        assert!(dependence_length(&g, &pi) <= 2);
    }
}
