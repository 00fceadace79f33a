//! The prefix-based parallel greedy maximal matching.
//!
//! The edge-side analogue of Algorithm 3, resolved with deterministic
//! reservations, the technique of the paper's companion work ("Internally
//! deterministic parallel algorithms can be fast", its reference \[2\]); the
//! MIS loop needs none, because only a vertex writes its own decision.
//! Each round takes the next prefix of edges in priority order and resolves
//! it with reserve/commit steps. In **reserve**, an edge with a matched
//! endpoint is out and finishes; any other edge writes its rank into both
//! endpoints' cells with a write-with-min. In **commit**, an edge that holds
//! both cells joins the matching; one that lost a cell frees the cell it
//! holds and retries. The earliest unfinished edge always holds both cells,
//! and an edge joins exactly when every earlier adjacent edge is out — the
//! sequential greedy rule — so the matching is the sequential one for every
//! prefix size and thread count, and one attempt reads two cells and no
//! adjacency. The cells use `Relaxed` atomics by the memory-ordering note of
//! [`crate::mis::prefix`]. This is the implementation benchmarked in Figures
//! 2 and 4 of the paper.
//!
//! The counters of [`prefix_matching_with_stats`], which depend only on the
//! input, the order and the policy, and at `PrefixPolicy::Fixed(1)` equal
//! the sequential algorithm's:
//!
//! * `rounds` — prefixes;
//! * `steps` — reserve/commit steps, summed over prefixes;
//! * `vertex_work` — reservation attempts: one per unfinished edge per step;
//! * `edge_work` — endpoint cells read: two per attempt, as
//!   [`crate::matching::sequential::sequential_matching_with_stats`] counts
//!   two endpoint reads per edge.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

use greedy_graph::edge_list::{Edge, EdgeList};
use greedy_prims::permutation::Permutation;
use rayon::prelude::*;

use crate::mis::prefix::PrefixPolicy;
use crate::stats::WorkStats;

/// Runs the prefix-based parallel greedy maximal matching. Returns the same
/// matching as [`crate::matching::sequential::sequential_matching`], as
/// sorted edge ids.
pub fn prefix_matching(edges: &EdgeList, pi: &Permutation, policy: PrefixPolicy) -> Vec<u32> {
    prefix_matching_with_stats(edges, pi, policy).0
}

/// A vertex cell that no edge has reserved in the current step.
const FREE: u32 = u32::MAX;
/// A vertex cell of a matched vertex. No rank equals it or [`FREE`]
/// (`m < MATCHED` is asserted), so a commit comparing a cell with its own
/// rank cannot mistake either for its reservation.
const MATCHED: u32 = u32::MAX - 1;

/// The reservation state: an edge is named by its rank `i`. No cell
/// becomes [`MATCHED`] during a reserve phase, and during a commit phase
/// only the rank a cell holds writes it while every other edge compares it
/// with its own rank; so no decision depends on the schedule.
struct MatchingStep<'a> {
    edges: &'a [Edge],
    /// rank → edge id.
    order: &'a [u32],
    /// One cell per vertex: [`FREE`], [`MATCHED`], or a reserving rank.
    cells: Vec<AtomicU32>,
    /// The matching, as a bitset over edge ids.
    in_matching: Vec<AtomicU64>,
}

impl MatchingStep<'_> {
    fn endpoints(&self, i: u32) -> (&AtomicU32, &AtomicU32) {
        let e = self.edges[self.order[i as usize] as usize];
        (&self.cells[e.u as usize], &self.cells[e.v as usize])
    }

    /// Reserves both endpoints of edge `i`. Returns `true` if the edge is
    /// finished: an endpoint is already matched, so it is out.
    fn reserve(&self, i: u32) -> bool {
        let (u, v) = self.endpoints(i);
        if u.load(Relaxed) == MATCHED || v.load(Relaxed) == MATCHED {
            return true;
        }
        u.fetch_min(i, Relaxed);
        v.fetch_min(i, Relaxed);
        false
    }

    /// Commits edge `i` if it holds both cells, and frees a cell it holds
    /// otherwise. Returns `true` if the edge is finished (it joined the
    /// matching); `false` means retry in the next step.
    fn commit(&self, i: u32) -> bool {
        let (u, v) = self.endpoints(i);
        let (holds_u, holds_v) = (u.load(Relaxed) == i, v.load(Relaxed) == i);
        if holds_u && holds_v {
            u.store(MATCHED, Relaxed);
            v.store(MATCHED, Relaxed);
            let e = self.order[i as usize] as usize;
            self.in_matching[e / 64].fetch_or(1 << (e % 64), Relaxed);
            return true;
        }
        if holds_u {
            u.store(FREE, Relaxed);
        }
        if holds_v {
            v.store(FREE, Relaxed);
        }
        false
    }
}

/// Runs the prefix-based matching with counters (see the module docs):
/// `rounds` = prefixes, `steps` = reserve/commit steps, `vertex_work` =
/// reservation attempts, `edge_work` = endpoint cells read (two per attempt).
///
/// # Panics
/// Panics if `pi.len() != edges.num_edges()`.
pub fn prefix_matching_with_stats(
    edges: &EdgeList,
    pi: &Permutation,
    policy: PrefixPolicy,
) -> (Vec<u32>, WorkStats) {
    let m = edges.num_edges();
    assert_eq!(
        pi.len(),
        m,
        "prefix_matching: permutation covers {} elements but there are {} edges",
        pi.len(),
        m
    );
    assert!(m < MATCHED as usize, "prefix_matching: too many edges");
    let step = MatchingStep {
        edges: edges.edges(),
        order: pi.order(),
        cells: (0..edges.num_vertices())
            .map(|_| AtomicU32::new(FREE))
            .collect(),
        in_matching: (0..m.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
    };
    let mut stats = WorkStats::new();
    // The unfinished edges of the current prefix, as (rank, finished) pairs
    // in priority order. One buffer serves every step of every prefix.
    let mut pending: Vec<(u32, bool)> = Vec::new();
    let k = policy.prefix_size(m);
    for start in (0..m).step_by(k) {
        stats.rounds += 1;
        pending.extend((start..m.min(start + k)).map(|i| (i as u32, false)));
        while !pending.is_empty() {
            stats.steps += 1;
            stats.vertex_work += pending.len() as u64;
            pending
                .par_iter_mut()
                .for_each(|(i, finished)| *finished = step.reserve(*i));
            pending.par_iter_mut().for_each(|(i, finished)| {
                if !*finished {
                    *finished = step.commit(*i);
                }
            });
            let before = pending.len();
            pending.retain(|&(_, finished)| !finished);
            assert!(
                pending.len() < before,
                "prefix_matching: no progress in a step"
            );
        }
    }
    stats.edge_work = 2 * stats.vertex_work;

    let mut matching = Vec::new();
    for (w, word) in step.in_matching.into_iter().enumerate() {
        let mut bits = word.into_inner();
        while bits != 0 {
            matching.push((64 * w) as u32 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    (matching, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::sequential::{sequential_matching, sequential_matching_with_stats};
    use crate::matching::verify::verify_maximal_matching;
    use crate::ordering::{identity_permutation, random_edge_permutation};
    use greedy_graph::gen::random::random_edge_list;
    use greedy_graph::gen::rmat::{rmat_edge_list, RmatParams};
    use greedy_graph::gen::structured::{
        complete_edge_list, cycle_edge_list, grid_edge_list, path_edge_list, star_edge_list,
    };
    use greedy_graph::EdgeList;

    fn policies() -> Vec<PrefixPolicy> {
        vec![
            PrefixPolicy::Fixed(1),
            PrefixPolicy::Fixed(13),
            PrefixPolicy::Fixed(500),
            PrefixPolicy::FractionOfInput(0.01),
            PrefixPolicy::FractionOfInput(1.0),
            PrefixPolicy::default(),
        ]
    }

    #[test]
    fn empty_edge_list() {
        let el = EdgeList::empty(4);
        assert!(prefix_matching(&el, &identity_permutation(0), PrefixPolicy::default()).is_empty());
    }

    #[test]
    fn every_policy_matches_sequential_on_random_graph() {
        let el = random_edge_list(300, 1_200, 1);
        let pi = random_edge_permutation(el.num_edges(), 2);
        let expected = sequential_matching(&el, &pi);
        for policy in policies() {
            let mm = prefix_matching(&el, &pi, policy);
            assert_eq!(mm, expected, "policy {policy:?} diverged from sequential");
            assert!(verify_maximal_matching(&el, &mm));
        }
    }

    #[test]
    fn every_policy_matches_sequential_on_structured_graphs() {
        let lists: Vec<(&str, EdgeList)> = vec![
            ("path", path_edge_list(50)),
            ("cycle", cycle_edge_list(44)),
            ("star", star_edge_list(40)),
            ("complete", complete_edge_list(14)),
            ("grid", grid_edge_list(7, 8)),
        ];
        for (name, el) in lists {
            let pi = random_edge_permutation(el.num_edges(), 8);
            let expected = sequential_matching(&el, &pi);
            for policy in policies() {
                assert_eq!(
                    prefix_matching(&el, &pi, policy),
                    expected,
                    "policy {policy:?} diverged on {name}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_on_rmat() {
        let el = rmat_edge_list(9, 4_000, RmatParams::default(), 5);
        let pi = random_edge_permutation(el.num_edges(), 6);
        let expected = sequential_matching(&el, &pi);
        for policy in [
            PrefixPolicy::Fixed(128),
            PrefixPolicy::FractionOfInput(0.05),
        ] {
            assert_eq!(prefix_matching(&el, &pi, policy), expected);
        }
    }

    #[test]
    fn prefix_matching_counters_match_the_parent() {
        // `(rounds, steps, vertex_work, edge_work)` pinned from the earlier
        // implementation, which ran on a generic reservations driver: giving
        // the matching its own reserve/commit loop must not move the paper's
        // work accounting.
        type Counters = (u64, u64, u64, u64);
        let pinned: [(&str, &str, [Counters; 4]); 4] = [
            (
                "random",
                "random",
                [
                    (8000, 8000, 8000, 16000),
                    (125, 134, 8019, 16038),
                    (50, 64, 8081, 16162),
                    (1, 6, 17690, 35380),
                ],
            ),
            (
                "random",
                "identity",
                [
                    (8000, 8000, 8000, 16000),
                    (125, 262, 11366, 22732),
                    (50, 120, 11646, 23292),
                    (1, 12, 35626, 71252),
                ],
            ),
            (
                "rmat",
                "random",
                [
                    (13335, 13335, 13335, 26670),
                    (209, 225, 13363, 26726),
                    (50, 70, 13473, 26946),
                    (1, 7, 30022, 60044),
                ],
            ),
            (
                "rmat",
                "identity",
                [
                    (13335, 13335, 13335, 26670),
                    (209, 511, 21125, 42250),
                    (50, 233, 31022, 62044),
                    (1, 97, 608366, 1216732),
                ],
            ),
        ];
        let policies = [
            PrefixPolicy::Fixed(1),
            PrefixPolicy::Fixed(64),
            PrefixPolicy::default(),
            PrefixPolicy::FractionOfInput(1.0),
        ];
        for (graph, order, expected) in pinned {
            let el = match graph {
                "random" => random_edge_list(2_000, 8_000, 9),
                _ => rmat_edge_list(11, 16_000, RmatParams::default(), 5),
            };
            let m = el.num_edges();
            let pi = match order {
                "random" => random_edge_permutation(m, 10),
                _ => identity_permutation(m),
            };
            let mm = sequential_matching(&el, &pi);
            for (policy, want) in policies.into_iter().zip(expected) {
                let (got, s) = prefix_matching_with_stats(&el, &pi, policy);
                assert_eq!(got, mm, "{policy:?} on {graph} under the {order} order");
                assert_eq!(
                    (s.rounds, s.steps, s.vertex_work, s.edge_work),
                    want,
                    "{policy:?} on {graph} under the {order} order"
                );
            }
        }
    }

    #[test]
    fn prefix_size_one_is_sequential_round_count() {
        let el = random_edge_list(200, 800, 3);
        let pi = random_edge_permutation(el.num_edges(), 4);
        let (_, stats) = prefix_matching_with_stats(&el, &pi, PrefixPolicy::Fixed(1));
        assert_eq!(stats.rounds, el.num_edges() as u64);
        assert_eq!(stats.vertex_work, el.num_edges() as u64);
        assert_eq!(stats, sequential_matching_with_stats(&el, &pi).1);
    }

    #[test]
    fn full_prefix_has_one_round_and_few_steps() {
        let el = random_edge_list(600, 2_500, 5);
        let pi = random_edge_permutation(el.num_edges(), 6);
        let (_, stats) = prefix_matching_with_stats(&el, &pi, PrefixPolicy::FractionOfInput(1.0));
        assert_eq!(stats.rounds, 1);
        assert!(stats.steps < 60, "steps = {}", stats.steps);
    }

    #[test]
    fn work_grows_and_rounds_shrink_with_prefix_size() {
        let el = random_edge_list(1_000, 4_000, 7);
        let pi = random_edge_permutation(el.num_edges(), 8);
        let (_, small) = prefix_matching_with_stats(&el, &pi, PrefixPolicy::Fixed(16));
        let (_, large) = prefix_matching_with_stats(&el, &pi, PrefixPolicy::Fixed(1_000));
        assert!(small.rounds > large.rounds);
        assert!(small.vertex_work <= large.vertex_work);
    }
}
