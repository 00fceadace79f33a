//! MIS as a deterministic-reservations loop: the prefix loop of
//! [`crate::mis::prefix`] (Algorithm 3), run at a fixed granularity. Within
//! a prefix, a vertex with an earlier neighbor in the MIS is out, a vertex
//! with an undecided earlier neighbor retries in the next step, and any
//! other vertex joins — the decision the sequential greedy algorithm makes.
//! This is the MIS plug-in of the PBBS deterministic-reservations benchmark.
//! It needs no reservation cell, because each decision is written only by
//! its own vertex; it returns exactly the lexicographically-first MIS.

use greedy_graph::csr::Graph;
use greedy_prims::permutation::Permutation;

use crate::mis::prefix::{prefix_mis_with_stats, PrefixPolicy};
use crate::stats::WorkStats;

/// Computes the lexicographically-first MIS with the deterministic
/// reservations framework, in prefixes of `granularity` vertices:
/// [`prefix_mis_with_stats`] at [`PrefixPolicy::Fixed`]`(granularity)`, so
/// the counters are `prefix_mis`'s. Identical output to
/// [`crate::mis::sequential::sequential_mis`].
pub fn reservation_mis_with_granularity(
    graph: &Graph,
    pi: &Permutation,
    granularity: usize,
) -> (Vec<u32>, WorkStats) {
    prefix_mis_with_stats(graph, pi, PrefixPolicy::Fixed(granularity.max(1)))
}

/// [`reservation_mis_with_granularity`] with a default granularity of
/// max(1024, n/50), matching the prefix sizes that work well in Figure 1.
pub fn reservation_mis(graph: &Graph, pi: &Permutation) -> Vec<u32> {
    let n = graph.num_vertices();
    reservation_mis_with_granularity(graph, pi, (n / 50).max(1024)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::sequential::sequential_mis;
    use crate::mis::verify::verify_mis;
    use crate::ordering::{identity_permutation, random_permutation};
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::rmat::rmat_graph;
    use greedy_graph::gen::structured::{complete_graph, cycle_graph, path_graph, star_graph};
    use greedy_graph::Graph;

    #[test]
    fn empty_and_edgeless() {
        assert!(reservation_mis(&Graph::empty(0), &identity_permutation(0)).is_empty());
        assert_eq!(
            reservation_mis(&Graph::empty(5), &identity_permutation(5)),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn matches_sequential_on_random_graphs_across_granularities() {
        for seed in 0..4 {
            let g = random_graph(400, 1_600, seed);
            let pi = random_permutation(400, seed + 17);
            let expected = sequential_mis(&g, &pi);
            for granularity in [1usize, 13, 100, 1_000] {
                let (mis, _) = reservation_mis_with_granularity(&g, &pi, granularity);
                assert_eq!(mis, expected, "seed {seed} granularity {granularity}");
                assert!(verify_mis(&g, &mis));
            }
        }
    }

    #[test]
    fn matches_sequential_on_structured_graphs() {
        for g in [
            path_graph(80),
            cycle_graph(81),
            star_graph(60),
            complete_graph(40),
            rmat_graph(9, 2_000, 1),
        ] {
            let pi = random_permutation(g.num_vertices(), 3);
            assert_eq!(reservation_mis(&g, &pi), sequential_mis(&g, &pi));
        }
    }

    #[test]
    fn identity_order_also_matches() {
        let g = random_graph(300, 1_000, 5);
        let pi = identity_permutation(300);
        assert_eq!(reservation_mis(&g, &pi), sequential_mis(&g, &pi));
    }

    #[test]
    fn granularity_one_has_n_rounds() {
        let g = random_graph(150, 500, 6);
        let pi = random_permutation(150, 7);
        let (_, stats) = reservation_mis_with_granularity(&g, &pi, 1);
        assert_eq!(stats.rounds, 150);
        assert_eq!(stats.vertex_work, 150);
    }
}
