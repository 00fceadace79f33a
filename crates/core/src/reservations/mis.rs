//! MIS as a deterministic-reservations loop.
//!
//! The loop body for iterate `i` (the vertex with priority rank `i`) decides
//! in `reserve` and publishes in `commit`. In `reserve` it looks at the
//! earlier neighbors: if any is in the MIS the vertex is out, if any is
//! still undecided the iterate retries in the next step, otherwise the
//! vertex joins the MIS. `commit` then publishes the decision. No
//! reservation cell is needed — the decision is owner-written — and since a
//! decision reads only states that earlier commit phases published, every
//! step, and every counter, is independent of the schedule. This is the MIS
//! plug-in of the PBBS deterministic-reservations benchmark, and it returns
//! exactly the lexicographically-first MIS.

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

use greedy_graph::csr::Graph;
use greedy_prims::permutation::Permutation;

use crate::reservations::speculative_for::{speculative_for, ReservationStep};
use crate::stats::WorkStats;

// Published states, read by later neighbors.
const UNDECIDED: u8 = 0;
const IN_MIS: u8 = 1;
const OUT: u8 = 2;
// Decided in this step's reserve phase, published by its commit phase;
// later neighbors read both as undecided.
const JOINS: u8 = 3;
const LEAVES: u8 = 4;

struct MisStep<'a> {
    graph: &'a Graph,
    /// rank → vertex id (the iterate order).
    order: &'a [u32],
    /// vertex id → rank.
    rank: &'a [u32],
    state: Vec<AtomicU8>,
}

impl ReservationStep for MisStep<'_> {
    fn reserve(&self, i: usize) -> bool {
        let v = self.order[i];
        let mut decision = JOINS;
        for &w in self.graph.neighbors(v) {
            if self.rank[w as usize] < i as u32 {
                match self.state[w as usize].load(Relaxed) {
                    IN_MIS => {
                        decision = LEAVES;
                        break;
                    }
                    OUT => {}
                    _ => decision = UNDECIDED,
                }
            }
        }
        self.state[v as usize].store(decision, Relaxed);
        true
    }

    fn commit(&self, i: usize) -> bool {
        let state = &self.state[self.order[i] as usize];
        match state.load(Relaxed) {
            JOINS => state.store(IN_MIS, Relaxed),
            LEAVES => state.store(OUT, Relaxed),
            _ => return false,
        }
        true
    }
}

/// Computes the lexicographically-first MIS with the deterministic
/// reservations framework, in prefixes of `granularity` vertices. Identical
/// output to [`crate::mis::sequential::sequential_mis`].
pub fn reservation_mis_with_granularity(
    graph: &Graph,
    pi: &Permutation,
    granularity: usize,
) -> (Vec<u32>, WorkStats) {
    let n = graph.num_vertices();
    assert_eq!(
        pi.len(),
        n,
        "reservation_mis: permutation covers {} elements but the graph has {} vertices",
        pi.len(),
        n
    );
    let step = MisStep {
        graph,
        order: pi.order(),
        rank: pi.rank(),
        state: (0..n).map(|_| AtomicU8::new(UNDECIDED)).collect(),
    };
    let stats = speculative_for(&step, n, granularity.max(1));
    let mis = step
        .state
        .iter()
        .enumerate()
        .filter_map(|(v, s)| (s.load(Relaxed) == IN_MIS).then_some(v as u32))
        .collect();
    (mis, stats)
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
