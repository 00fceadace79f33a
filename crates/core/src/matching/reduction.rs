//! Maximal matching via MIS on the line graph — the reduction of Lemma 5.1.
//!
//! An edge is in the greedy matching of G under the edge order π exactly when
//! the corresponding line-graph vertex is in the greedy MIS of L(G) under the
//! same order. The paper uses this correspondence for its round bound and
//! explicitly *avoids* it as an implementation (L(G) can be much larger than
//! G); we implement it anyway as the oracle the property tests compare every
//! matching implementation against.

use greedy_graph::edge_list::EdgeList;
use greedy_graph::line_graph::line_graph;
use greedy_prims::permutation::Permutation;

use crate::mis::sequential::sequential_mis;

/// Computes the greedy maximal matching of `edges` under π by building the
/// line graph and running the sequential greedy MIS on it. Returns sorted
/// edge ids — identical to
/// [`crate::matching::sequential::sequential_matching`].
pub fn matching_via_line_graph(edges: &EdgeList, pi: &Permutation) -> Vec<u32> {
    assert_eq!(
        pi.len(),
        edges.num_edges(),
        "matching_via_line_graph: permutation covers {} elements but there are {} edges",
        pi.len(),
        edges.num_edges()
    );
    let lg = line_graph(edges);
    sequential_mis(&lg, pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::prefix::prefix_matching;
    use crate::matching::rootset::rootset_matching;
    use crate::matching::sequential::sequential_matching;
    use crate::mis::prefix::PrefixPolicy;
    use crate::ordering::random_edge_permutation;
    use greedy_graph::gen::random::random_edge_list;
    use greedy_graph::gen::structured::{cycle_edge_list, path_edge_list, star_edge_list};

    #[test]
    fn agrees_with_sequential_matching_on_random_graphs() {
        for seed in 0..4 {
            let el = random_edge_list(150, 500, seed);
            let pi = random_edge_permutation(el.num_edges(), seed + 77);
            assert_eq!(
                matching_via_line_graph(&el, &pi),
                sequential_matching(&el, &pi),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn agrees_on_structured_graphs() {
        for el in [path_edge_list(30), cycle_edge_list(29), star_edge_list(25)] {
            let pi = random_edge_permutation(el.num_edges(), 5);
            assert_eq!(
                matching_via_line_graph(&el, &pi),
                sequential_matching(&el, &pi)
            );
        }
    }

    #[test]
    fn oracle_for_parallel_implementations() {
        let el = random_edge_list(120, 400, 9);
        let pi = random_edge_permutation(el.num_edges(), 10);
        let oracle = matching_via_line_graph(&el, &pi);
        assert_eq!(rootset_matching(&el, &pi), oracle);
        assert_eq!(prefix_matching(&el, &pi, PrefixPolicy::Fixed(37)), oracle);
    }
}
