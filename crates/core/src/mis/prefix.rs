//! Algorithm 3: the prefix-based parallel greedy MIS.
//!
//! Instead of processing *all* remaining vertices each round (Algorithm 2),
//! each round processes only a prefix of the remaining vertices in priority
//! order, running the parallel greedy steps inside the prefix until it is
//! fully decided. Smaller prefixes do less redundant work (a prefix of one
//! vertex is exactly the sequential algorithm); larger prefixes expose more
//! parallelism. Whatever the prefix size, the returned MIS is identical to
//! the sequential one. This is the implementation the paper benchmarks
//! (Section 6).
//!
//! # Vertex states
//!
//! Each vertex has one state byte, holding one of four codes:
//!
//! * **Undecided** — in a later prefix, with no neighbor in the MIS yet;
//! * **Pending** — in the current prefix and not yet decided. A vertex gets
//!   it when its prefix's active list is built, unless an earlier prefix
//!   already knocked it out;
//! * **In** — in the MIS;
//! * **Out** — some neighbor is in the MIS.
//!
//! A step decides every pending vertex in one parallel pass over the
//! active list, reading its neighbors' state bytes:
//!
//! * an In neighbor puts it Out. That neighbor is always earlier: a later
//!   vertex cannot be accepted while an earlier neighbor is pending, and a
//!   vertex stays pending from its prefix's start until it is decided;
//! * an earlier Pending neighbor makes it wait for the next step. Only here
//!   is a rank read;
//! * Undecided and Out neighbors are skipped.
//!
//! A vertex with no In and no earlier Pending neighbor is In. Each
//! decision is stored beside its vertex id in the active list and reaches
//! the state bytes only after the pass, so no decision reads another one
//! made in the same step.
//!
//! # Knock-out inside the pass
//!
//! A vertex that decides In at once stores Out into its Undecided
//! neighbors, while its adjacency is still in cache. Those neighbors all
//! lie in later prefixes, and no decision tells Undecided from Out, so a
//! concurrent decision that reads such a byte before or after the store
//! decides the same: the MIS and every counter are the same for every
//! schedule and thread count. The only read that tells a knocked-out byte
//! from an Undecided one is the build of its own prefix's active list. That
//! build runs after the pass's parallel terminal has returned, and every
//! write of the pass happens-before it (the memory-ordering note of
//! [`crate::reservations::speculative_for`]), so `Relaxed` atomics suffice.

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

use greedy_graph::csr::Graph;
use greedy_prims::permutation::Permutation;
use rayon::prelude::*;

use crate::stats::WorkStats;

/// How the prefix size is chosen each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefixPolicy {
    /// A fixed number of positions per round (the knob swept in Figures 1/2;
    /// `Fixed(1)` degenerates to the sequential algorithm).
    Fixed(usize),
    /// A fixed fraction of the *input* size per round.
    FractionOfInput(f64),
    /// A fixed fraction of the *remaining* vertices per round (the δ of
    /// Algorithm 3 in its literal form).
    FractionOfRemaining(f64),
    /// The analysis schedule of Corollary 3.2: in super-round `i` use a
    /// prefix of `c · 2^i · ln(n) / Δ` vertices, doubling as the maximum
    /// degree halves. `c` is the constant multiplier.
    Adaptive {
        /// Multiplier on the `2^i · ln(n)/Δ` schedule.
        c: f64,
    },
}

impl PrefixPolicy {
    /// The prefix size to use when `remaining` vertices are left, given the
    /// original input size `n` and the a-priori maximum degree `max_degree`.
    pub fn prefix_size(&self, n: usize, remaining: usize, max_degree: usize, round: u64) -> usize {
        let raw = match *self {
            PrefixPolicy::Fixed(k) => k,
            PrefixPolicy::FractionOfInput(f) => (f * n as f64).ceil() as usize,
            PrefixPolicy::FractionOfRemaining(f) => (f * remaining as f64).ceil() as usize,
            PrefixPolicy::Adaptive { c } => {
                let delta = max_degree.max(1) as f64;
                let ln_n = (n.max(2) as f64).ln();
                let factor = 2f64.powi(round.min(62) as i32);
                (c * factor * ln_n / delta).ceil() as usize
            }
        };
        raw.clamp(1, remaining)
    }
}

impl Default for PrefixPolicy {
    /// A prefix of n/50 per round: large enough to parallelize well, small
    /// enough to stay near the work-optimal region found in Figure 1(c).
    fn default() -> Self {
        PrefixPolicy::FractionOfInput(0.02)
    }
}

/// Runs the prefix-based parallel greedy MIS (Algorithm 3). Returns the
/// lexicographically-first MIS for π — the identical set to
/// [`crate::mis::sequential::sequential_mis`] for every policy.
pub fn prefix_mis(graph: &Graph, pi: &Permutation, policy: PrefixPolicy) -> Vec<u32> {
    prefix_mis_with_stats(graph, pi, policy).0
}

/// A vertex of a later prefix with no neighbor in the MIS yet.
const UNDECIDED: u8 = 0;
/// A vertex in the MIS.
const IN: u8 = 1;
/// A vertex with a neighbor in the MIS.
const OUT: u8 = 2;
/// A vertex of the current prefix that is not yet decided.
const PENDING: u8 = 3;

/// Runs the prefix-based parallel greedy MIS and reports work counters:
/// `rounds` = prefixes processed, `steps` = inner parallel steps summed over
/// prefixes, `vertex_work` = vertex examinations (≥ n; equal to n at prefix
/// size 1), `edge_work` = adjacency inspections: a vertex's degree each
/// step it is active, and once more when it is accepted, for its knock-out.
pub fn prefix_mis_with_stats(
    graph: &Graph,
    pi: &Permutation,
    policy: PrefixPolicy,
) -> (Vec<u32>, WorkStats) {
    let n = graph.num_vertices();
    assert_eq!(
        pi.len(),
        n,
        "prefix_mis: permutation covers {} elements but the graph has {} vertices",
        pi.len(),
        n
    );
    // Only the adaptive policy reads the maximum degree; skip that O(n)
    // pass otherwise.
    let max_degree = match policy {
        PrefixPolicy::Adaptive { .. } => graph.max_degree(),
        _ => 0,
    };
    let rank = pi.rank();
    let order = pi.order();

    let mut state: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(UNDECIDED)).collect();
    let mut stats = WorkStats::new();
    // The current prefix's pending vertices, each beside its decision of
    // the current step. One buffer serves every step of every prefix.
    let mut active: Vec<(u32, u8)> = Vec::new();
    // `start` is the first position in π not yet covered by a prefix.
    let mut start = 0usize;

    while start < n {
        let k = policy.prefix_size(n, n - start, max_degree, stats.rounds);
        let prefix = &order[start..start + k];
        start += k;
        stats.rounds += 1;

        // Earlier prefixes may already have knocked some of the prefix's
        // vertices out; the rest become pending.
        for &v in prefix {
            let s = state[v as usize].get_mut();
            if *s == UNDECIDED {
                *s = PENDING;
                active.push((v, PENDING));
            }
        }
        // Work accounting matches the paper's normalization: the sequential
        // algorithm (prefix size 1) examines each vertex exactly once, so a
        // vertex already decided when its prefix arrives is charged here and
        // the pending ones are charged per inner step below.
        stats.vertex_work += (k - active.len()) as u64;

        // Run the parallel greedy steps (Algorithm 2) inside the prefix. All
        // vertices earlier than the prefix are already decided, so a prefix
        // vertex only ever waits on earlier vertices *inside* the prefix.
        while !active.is_empty() {
            stats.steps += 1;
            stats.vertex_work += active.len() as u64;
            stats.edge_work += active
                .par_iter_mut()
                .map(|(v, decision)| {
                    let neighbors = graph.neighbors(*v);
                    *decision = decide(*v, neighbors, rank, &state);
                    let degree = neighbors.len() as u64;
                    if *decision == IN {
                        2 * degree
                    } else {
                        degree
                    }
                })
                .sum::<u64>();

            let before = active.len();
            active.retain(|&(v, decision)| {
                if decision != PENDING {
                    *state[v as usize].get_mut() = decision;
                }
                decision == PENDING
            });
            assert!(
                active.len() < before,
                "prefix_mis: no progress within a prefix step"
            );
        }
    }

    let mis = state
        .into_iter()
        .enumerate()
        .filter_map(|(v, s)| (s.into_inner() == IN).then_some(v as u32))
        .collect();
    (mis, stats)
}

/// Decides pending vertex `v` for the current step from its neighbors'
/// state bytes (see the module docs): [`OUT`] next to an In neighbor,
/// [`PENDING`] while an earlier neighbor is pending, and otherwise [`IN`],
/// after storing [`OUT`] into every Undecided neighbor.
fn decide(v: u32, neighbors: &[u32], rank: &[u32], state: &[AtomicU8]) -> u8 {
    let mut waits = false;
    for &w in neighbors {
        match state[w as usize].load(Relaxed) {
            IN => return OUT,
            PENDING if !waits => waits = rank[w as usize] < rank[v as usize],
            _ => {}
        }
    }
    if waits {
        return PENDING;
    }
    // Only knock-outs write during the pass, and they all store Out, so a
    // load and a store need no read-modify-write.
    for &w in neighbors {
        let s = &state[w as usize];
        if s.load(Relaxed) == UNDECIDED {
            s.store(OUT, Relaxed);
        }
    }
    IN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::sequential::sequential_mis;
    use crate::mis::verify::verify_mis;
    use crate::ordering::{identity_permutation, random_permutation};
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::rmat::rmat_graph;
    use greedy_graph::gen::structured::{
        complete_graph, cycle_graph, grid_graph, path_graph, star_graph,
    };
    use greedy_graph::Graph;

    fn policies() -> Vec<PrefixPolicy> {
        vec![
            PrefixPolicy::Fixed(1),
            PrefixPolicy::Fixed(7),
            PrefixPolicy::Fixed(100),
            PrefixPolicy::Fixed(usize::MAX / 2),
            PrefixPolicy::FractionOfInput(0.01),
            PrefixPolicy::FractionOfInput(1.0),
            PrefixPolicy::FractionOfRemaining(0.25),
            PrefixPolicy::Adaptive { c: 4.0 },
            PrefixPolicy::default(),
        ]
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert!(prefix_mis(&g, &identity_permutation(0), PrefixPolicy::default()).is_empty());
    }

    #[test]
    fn every_policy_matches_sequential_on_random_graph() {
        let g = random_graph(500, 2_000, 1);
        let pi = random_permutation(500, 2);
        let expected = sequential_mis(&g, &pi);
        for policy in policies() {
            let mis = prefix_mis(&g, &pi, policy);
            assert_eq!(mis, expected, "policy {policy:?} diverged from sequential");
            assert!(verify_mis(&g, &mis));
        }
    }

    #[test]
    fn every_policy_matches_sequential_on_structured_graphs() {
        let graphs: Vec<(&str, Graph)> = vec![
            ("path", path_graph(60)),
            ("cycle", cycle_graph(61)),
            ("star", star_graph(50)),
            ("complete", complete_graph(40)),
            ("grid", grid_graph(8, 9)),
        ];
        for (name, g) in graphs {
            let n = g.num_vertices();
            // The identity and reversed orders make long chains of earlier
            // pending neighbors inside a prefix.
            let orders = [
                ("random", random_permutation(n, 11)),
                ("identity", identity_permutation(n)),
                (
                    "reversed",
                    Permutation::from_order((0..n as u32).rev().collect()),
                ),
            ];
            for (order, pi) in orders {
                let expected = sequential_mis(&g, &pi);
                for policy in policies() {
                    assert_eq!(
                        prefix_mis(&g, &pi, policy),
                        expected,
                        "policy {policy:?} diverged on {name} under the {order} order"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_sequential_on_rmat() {
        let g = rmat_graph(10, 6_000, 3);
        let pi = random_permutation(g.num_vertices(), 4);
        let expected = sequential_mis(&g, &pi);
        for policy in [PrefixPolicy::Fixed(64), PrefixPolicy::FractionOfInput(0.05)] {
            assert_eq!(prefix_mis(&g, &pi, policy), expected);
        }
    }

    #[test]
    fn prefix_mis_counters_match_the_parent() {
        // `(rounds, steps, vertex_work, edge_work)` pinned from the earlier
        // implementation, which knocked out at the end of each prefix:
        // moving the knock-out into the deciding pass must not move the
        // paper's work accounting.
        type Counters = (u64, u64, u64, u64);
        let pinned: [(&str, &str, [Counters; 5]); 4] = [
            (
                "random",
                "random",
                [
                    (2000, 575, 2000, 7528),
                    (32, 45, 2036, 8096),
                    (50, 60, 2016, 7780),
                    (1, 10, 5265, 44858),
                    (11, 25, 2192, 9976),
                ],
            ),
            (
                "random",
                "identity",
                [
                    (2000, 527, 2000, 7770),
                    (32, 46, 2028, 8158),
                    (50, 63, 2021, 8092),
                    (1, 8, 4895, 42020),
                    (11, 22, 2130, 9532),
                ],
            ),
            (
                "rmat",
                "random",
                [
                    (2048, 517, 2048, 9042),
                    (32, 44, 2084, 9906),
                    (50, 61, 2068, 9512),
                    (1, 9, 5353, 72602),
                    (12, 23, 2205, 12400),
                ],
            ),
            (
                "rmat",
                "identity",
                [
                    (2048, 527, 2048, 10502),
                    (32, 98, 2635, 24092),
                    (50, 117, 2371, 19174),
                    (1, 22, 22549, 268752),
                    (12, 40, 3541, 29788),
                ],
            ),
        ];
        let policies = [
            PrefixPolicy::Fixed(1),
            PrefixPolicy::Fixed(64),
            PrefixPolicy::default(),
            PrefixPolicy::FractionOfInput(1.0),
            PrefixPolicy::Adaptive { c: 4.0 },
        ];
        for (graph, order, expected) in pinned {
            let g = match graph {
                "random" => random_graph(2_000, 8_000, 9),
                _ => rmat_graph(11, 16_000, 5),
            };
            let n = g.num_vertices();
            let pi = match order {
                "random" => random_permutation(n, 10),
                _ => identity_permutation(n),
            };
            let mis = sequential_mis(&g, &pi);
            for (policy, want) in policies.into_iter().zip(expected) {
                let (got, s) = prefix_mis_with_stats(&g, &pi, policy);
                assert_eq!(got, mis, "{policy:?} on {graph} under the {order} order");
                assert_eq!(
                    (s.rounds, s.steps, s.vertex_work, s.edge_work),
                    want,
                    "{policy:?} on {graph} under the {order} order"
                );
            }
        }
    }

    #[test]
    fn prefix_size_one_is_the_sequential_algorithm() {
        let g = random_graph(300, 1_200, 5);
        let pi = random_permutation(300, 6);
        let (_, stats) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::Fixed(1));
        // One round per vertex and no redundant examinations: work equals the
        // input size exactly, as for the sequential algorithm (Figure 1a's
        // left endpoint).
        assert_eq!(stats.rounds, 300);
        assert_eq!(stats.vertex_work, 300);
    }

    #[test]
    fn full_prefix_has_few_rounds() {
        let g = random_graph(1_000, 4_000, 7);
        let pi = random_permutation(1_000, 8);
        let (_, stats) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::FractionOfInput(1.0));
        assert_eq!(stats.rounds, 1);
        // The single round's inner steps equal the dependence length, which
        // is small for random orders.
        assert!(stats.steps < 60, "steps = {}", stats.steps);
    }

    #[test]
    fn work_grows_and_rounds_shrink_with_prefix_size() {
        // The monotone tradeoff behind Figures 1(a) and 1(b).
        let g = random_graph(2_000, 8_000, 9);
        let pi = random_permutation(2_000, 10);
        let (_, small) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::Fixed(16));
        let (_, large) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::Fixed(1_000));
        assert!(small.rounds > large.rounds);
        assert!(small.vertex_work <= large.vertex_work);
    }

    #[test]
    fn policy_prefix_size_respects_bounds() {
        for policy in policies() {
            for remaining in [1usize, 5, 100, 10_000] {
                let k = policy.prefix_size(10_000, remaining, 17, 3);
                assert!(
                    k >= 1 && k <= remaining,
                    "policy {policy:?} gave k={k} for remaining={remaining}"
                );
            }
        }
    }

    #[test]
    fn adaptive_policy_grows_with_round() {
        let p = PrefixPolicy::Adaptive { c: 1.0 };
        let a = p.prefix_size(1_000_000, 1_000_000, 1_000, 0);
        let b = p.prefix_size(1_000_000, 1_000_000, 1_000, 12);
        assert!(
            b > a,
            "adaptive prefix should double each super-round ({a} vs {b})"
        );
    }

    #[test]
    fn edgeless_graph_takes_everything_in_one_round_per_prefix() {
        let g = Graph::empty(100);
        let pi = identity_permutation(100);
        let (mis, stats) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::Fixed(10));
        assert_eq!(mis.len(), 100);
        assert_eq!(stats.rounds, 10);
        assert_eq!(stats.steps, 10);
    }
}
