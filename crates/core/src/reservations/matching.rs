//! Maximal matching as a deterministic-reservations loop: the loop of
//! [`crate::matching::prefix`] (the `maximalMatching` plug-in of the PBBS
//! deterministic-reservations benchmark), run at a fixed granularity. An edge
//! with a matched endpoint is out; otherwise it reserves both endpoints with
//! its rank and joins the matching iff it holds both — the earliest live edge
//! at both endpoints, exactly as the sequential greedy algorithm decides.

use greedy_graph::edge_list::EdgeList;
use greedy_prims::permutation::Permutation;

use crate::matching::prefix::prefix_matching_with_stats;
use crate::mis::prefix::PrefixPolicy;
use crate::stats::WorkStats;

/// Computes the greedy maximal matching with the deterministic reservations
/// framework, in prefixes of `granularity` edges: [`prefix_matching_with_stats`]
/// at [`PrefixPolicy::Fixed`]`(granularity)`. Identical output to
/// [`crate::matching::sequential::sequential_matching`].
pub fn reservation_matching_with_granularity(
    edges: &EdgeList,
    pi: &Permutation,
    granularity: usize,
) -> (Vec<u32>, WorkStats) {
    prefix_matching_with_stats(edges, pi, PrefixPolicy::Fixed(granularity.max(1)))
}

/// [`reservation_matching_with_granularity`] with a default granularity of
/// max(1024, m/50).
pub fn reservation_matching(edges: &EdgeList, pi: &Permutation) -> Vec<u32> {
    let m = edges.num_edges();
    reservation_matching_with_granularity(edges, pi, (m / 50).max(1024)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::sequential::sequential_matching;
    use crate::matching::verify::verify_maximal_matching;
    use crate::ordering::{identity_permutation, random_edge_permutation};
    use greedy_graph::gen::random::random_edge_list;
    use greedy_graph::gen::rmat::{rmat_edge_list, RmatParams};
    use greedy_graph::gen::structured::{
        complete_edge_list, cycle_edge_list, path_edge_list, star_edge_list,
    };
    use greedy_graph::EdgeList;

    #[test]
    fn empty_and_single_edge() {
        let el = EdgeList::empty(3);
        assert!(reservation_matching(&el, &identity_permutation(0)).is_empty());
        let el = EdgeList::from_pairs(2, vec![(0, 1)]);
        assert_eq!(reservation_matching(&el, &identity_permutation(1)), vec![0]);
    }

    #[test]
    fn matches_sequential_on_random_graphs_across_granularities() {
        for seed in 0..4 {
            let el = random_edge_list(300, 1_200, seed);
            let pi = random_edge_permutation(el.num_edges(), seed + 23);
            let expected = sequential_matching(&el, &pi);
            for granularity in [1usize, 29, 200, 2_000] {
                let (mm, _) = reservation_matching_with_granularity(&el, &pi, granularity);
                assert_eq!(mm, expected, "seed {seed} granularity {granularity}");
                assert!(verify_maximal_matching(&el, &mm));
            }
        }
    }

    #[test]
    fn matches_sequential_on_structured_graphs() {
        for el in [
            path_edge_list(60),
            cycle_edge_list(57),
            star_edge_list(45),
            complete_edge_list(18),
            rmat_edge_list(9, 3_000, RmatParams::default(), 2),
        ] {
            let pi = random_edge_permutation(el.num_edges(), 5);
            assert_eq!(
                reservation_matching(&el, &pi),
                sequential_matching(&el, &pi)
            );
        }
    }

    #[test]
    fn identity_order_also_matches() {
        let el = random_edge_list(200, 800, 9);
        let pi = identity_permutation(el.num_edges());
        assert_eq!(
            reservation_matching(&el, &pi),
            sequential_matching(&el, &pi)
        );
    }

    #[test]
    fn granularity_one_behaves_sequentially() {
        let el = random_edge_list(100, 400, 3);
        let pi = random_edge_permutation(el.num_edges(), 4);
        let (_, stats) = reservation_matching_with_granularity(&el, &pi, 1);
        assert_eq!(stats.rounds, 400);
        assert_eq!(stats.vertex_work, 400);
    }
}
