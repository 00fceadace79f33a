//! The prefix-based parallel greedy maximal matching.
//!
//! The edge-side analogue of Algorithm 3, resolved with deterministic
//! reservations, the technique of the paper's companion work ("Internally
//! deterministic parallel algorithms can be fast", its reference \[2\]); the
//! MIS loop needs none, because only a vertex writes its own decision.
//! Each round takes the next prefix of edges in priority order and resolves
//! it in three kinds of parallel pass:
//!
//! * **filter** — once per prefix, one pass over its edges reads each edge's
//!   endpoints and their matched bytes. An edge with a matched endpoint is
//!   out and finishes here; every other edge becomes a pending entry that
//!   carries its rank and both endpoints, so no later pass reads the edge
//!   list or the order again until the edge joins;
//! * **reserve** — a pending edge with a matched endpoint is out and
//!   finishes; any other writes its rank into both endpoints' cells with a
//!   write-with-min;
//! * **commit** — a pending edge that holds both cells joins the matching
//!   and sets both matched bytes; one that lost a cell frees the cell it
//!   holds and retries in the next reserve/commit step.
//!
//! The earliest unfinished edge always holds both cells, and an edge joins
//! exactly when every earlier adjacent edge is out — the sequential greedy
//! rule — so the matching is the sequential one for every prefix size and
//! thread count, and one attempt reads two endpoints and no adjacency. This
//! is the implementation benchmarked in Figures 2 and 4 of the paper. Its
//! filter-then-reserve shape is that of GBBS's maximal matching (Dhulipala,
//! Blelloch, Shun, arXiv 1805.05208).
//!
//! # Matched bytes and rank cells
//!
//! Each vertex has two fields:
//!
//! * a **matched byte**, set once, by the commit of the edge that matches
//!   the vertex;
//! * a **rank cell**, free or the rank of an edge that reserved the
//!   vertex in the current step. A commit compares a cell only with its own
//!   edge's rank, and the holder of a cell either joins, after which no
//!   edge reserves the vertex again, or frees it; so every unmatched
//!   vertex's cell is free again when a step ends.
//!
//! # Why the filter needs no locked op
//!
//! The matched bytes are written only in commit passes and read only in
//! filter and reserve passes, so during a filter pass nothing writes them,
//! and the filter itself writes nothing shared: each part only appends to
//! its own output buffer. Plain loads therefore see exactly the bytes the
//! previous commit published (by the memory-ordering note of
//! [`crate::mis::prefix`], which also lets every atomic here be `Relaxed`).
//! Only the reserve, where edges of one step compete for a cell, needs the
//! locked write-with-min, and it runs over the survivors alone: on a
//! uniform random graph with m = 5n at the default 2 % prefix, about one
//! edge in ten still has two unmatched endpoints when its prefix starts.
//!
//! # Counters
//!
//! The counters of [`prefix_matching_with_stats`] depend only on the
//! input, the order and the policy, and at `PrefixPolicy::Fixed(1)` equal
//! the sequential algorithm's:
//!
//! * `rounds` — prefixes;
//! * `steps` — steps, summed over prefixes. The filter is its prefix's
//!   first step, and each reserve/commit pair after it is one more;
//! * `vertex_work` — attempts: one per unfinished edge per step. An edge
//!   the filter drops counts one attempt in its prefix's first step, as if
//!   it had reached the reserve and been found out there; so the filter
//!   moves no counter;
//! * `edge_work` — endpoints read: two per attempt, as
//!   [`crate::matching::sequential::sequential_matching_with_stats`] counts
//!   two endpoint reads per edge.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};

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

/// A rank cell that no edge holds. No rank equals it (`m < FREE` is
/// asserted).
const FREE: u32 = u32::MAX;

/// An unfinished edge of the current prefix, named by its rank, with the
/// endpoints the filter read.
struct Pending {
    rank: u32,
    u: u32,
    v: u32,
    /// Set in a step once the edge is out or has joined.
    finished: bool,
}

/// The reservation state. Within a pass, each decision reads only what
/// the previous pass published: no matched byte is written while it can
/// be read, and during a commit pass only the rank a cell holds writes it
/// while every other edge compares it with its own rank; so no decision
/// depends on the schedule.
struct MatchingStep<'a> {
    edges: &'a [Edge],
    /// rank → edge id.
    order: &'a [u32],
    /// One byte per vertex, set once the vertex is matched.
    matched: Vec<AtomicBool>,
    /// One cell per vertex: [`FREE`] or a reserving rank.
    cells: Vec<AtomicU32>,
    /// The matching, as a bitset over edge ids.
    in_matching: Vec<AtomicU64>,
}

impl MatchingStep<'_> {
    fn is_matched(&self, x: u32) -> bool {
        self.matched[x as usize].load(Relaxed)
    }

    /// Reads edge `i` and returns its pending entry if both endpoints are
    /// unmatched; `None` means the edge is out.
    fn filter(&self, i: u32) -> Option<Pending> {
        let Edge { u, v } = self.edges[self.order[i as usize] as usize];
        (!self.is_matched(u) && !self.is_matched(v)).then_some(Pending {
            rank: i,
            u,
            v,
            finished: false,
        })
    }

    /// Reserves both endpoints of `p`. Returns `true` if the edge is
    /// finished: an endpoint is matched, so it is out.
    fn reserve(&self, p: &Pending) -> bool {
        if self.is_matched(p.u) || self.is_matched(p.v) {
            return true;
        }
        self.cells[p.u as usize].fetch_min(p.rank, Relaxed);
        self.cells[p.v as usize].fetch_min(p.rank, Relaxed);
        false
    }

    /// Commits `p` if it holds both cells, and frees a cell it holds
    /// otherwise. Returns `true` if the edge is finished (it joined the
    /// matching); `false` means retry in the next step.
    fn commit(&self, p: &Pending) -> bool {
        let (u, v) = (&self.cells[p.u as usize], &self.cells[p.v as usize]);
        let (holds_u, holds_v) = (u.load(Relaxed) == p.rank, v.load(Relaxed) == p.rank);
        if holds_u && holds_v {
            self.matched[p.u as usize].store(true, Relaxed);
            self.matched[p.v as usize].store(true, Relaxed);
            let e = self.order[p.rank as usize] as usize;
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
/// `rounds` = prefixes, `steps` = the filter plus the reserve/commit steps,
/// `vertex_work` = attempts, `edge_work` = endpoints read (two per attempt).
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
    assert!(m < FREE as usize, "prefix_matching: too many edges");
    let n = edges.num_vertices();
    let step = MatchingStep {
        edges: edges.edges(),
        order: pi.order(),
        matched: (0..n).map(|_| AtomicBool::new(false)).collect(),
        cells: (0..n).map(|_| AtomicU32::new(FREE)).collect(),
        in_matching: (0..m.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
    };
    let mut stats = WorkStats::new();
    let k = policy.prefix_size(m);
    for start in (0..m).step_by(k) {
        let end = m.min(start + k);
        stats.rounds += 1;
        // The filter is the prefix's first step, with every edge of the
        // prefix an attempt in it.
        stats.steps += 1;
        stats.vertex_work += (end - start) as u64;
        let mut pending: Vec<Pending> = (start as u32..end as u32)
            .into_par_iter()
            .filter_map(|i| step.filter(i))
            .collect();
        while !pending.is_empty() {
            pending
                .par_iter_mut()
                .for_each(|p| p.finished = step.reserve(p));
            pending.par_iter_mut().for_each(|p| {
                if !p.finished {
                    p.finished = step.commit(p);
                }
            });
            let before = pending.len();
            pending.retain(|p| !p.finished);
            assert!(
                pending.len() < before,
                "prefix_matching: no progress in a step"
            );
            if !pending.is_empty() {
                stats.steps += 1;
                stats.vertex_work += pending.len() as u64;
            }
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
        // work accounting. The star and path rows were pinned from the loop that
        // reserved over every edge of a prefix, before the filter pass: on the
        // star the filter drops every prefix after the first whole, before any
        // reservation, and on the path under the identity nearly every edge that
        // goes out is found out by a later step's reserve instead.
        type Counters = (u64, u64, u64, u64);
        let pinned: [(&str, &str, [Counters; 4]); 7] = [
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
            (
                "star",
                "random",
                [
                    (1999, 1999, 1999, 3998),
                    (32, 33, 2062, 4124),
                    (50, 51, 2038, 4076),
                    (1, 2, 3997, 7994),
                ],
            ),
            (
                "star",
                "identity",
                [
                    (1999, 1999, 1999, 3998),
                    (32, 33, 2062, 4124),
                    (50, 51, 2038, 4076),
                    (1, 2, 3997, 7994),
                ],
            ),
            (
                "path",
                "identity",
                [
                    (1999, 1999, 1999, 3998),
                    (32, 1031, 33799, 67598),
                    (50, 1049, 21979, 43958),
                    (1, 1000, 1000999, 2001998),
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
                "star" => star_edge_list(2_000),
                "path" => path_edge_list(2_000),
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
