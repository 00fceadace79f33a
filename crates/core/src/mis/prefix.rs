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
//! * **Out** — some neighbor is in the MIS, or, in [`prefix_mis_induced`],
//!   the vertex lies outside the induced subgraph.
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
//! from an Undecided one is the build of its own prefix's active list, which
//! runs after the pass (see the memory-ordering note below).
//!
//! # Memory ordering
//!
//! Each pass is one parallel terminal of the rayon shim, and a terminal
//! returns only after every helper thread has left its job: a helper
//! records its exit under the pool's `state` mutex, and the caller checks
//! for it under the same mutex (`Pool::retire` in the shim). Every write of
//! one pass therefore happens-before every read after it, in the caller or
//! in the next pass, so the solvers' shared state may use `Relaxed`
//! atomics: within a pass it needs only each cell's own modification
//! order. [`crate::matching::prefix`] and [`crate::mis::rootset`] rely on
//! the same rule.

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

use greedy_graph::csr::Graph;
use greedy_prims::permutation::Permutation;
use rayon::prelude::*;

use crate::stats::WorkStats;

/// How long the prefixes of a solve are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefixPolicy {
    /// A fixed number of positions per round (the knob swept in Figures 1/2;
    /// `Fixed(1)` degenerates to the sequential algorithm).
    Fixed(usize),
    /// A fixed fraction of the *input* size per round.
    FractionOfInput(f64),
}

impl PrefixPolicy {
    /// The prefix length for an input of `n` items, in `1..=n.max(1)`. A
    /// solve takes every prefix at this length; only its last prefix may be
    /// shorter.
    pub fn prefix_size(&self, n: usize) -> usize {
        let k = match *self {
            PrefixPolicy::Fixed(k) => k,
            PrefixPolicy::FractionOfInput(f) => (f * n as f64).ceil() as usize,
        };
        k.clamp(1, n.max(1))
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
    let state = (0..n).map(|_| AtomicU8::new(UNDECIDED)).collect();
    solve(graph, pi.order(), pi.rank(), state, policy.prefix_size(n))
}

/// Runs the prefix-based parallel greedy MIS, at the default prefix size,
/// on the subgraph of `graph` induced by `keep`, where π orders `keep`'s
/// positions: position `i` stands for vertex `keep[i]`. Returns the MIS as
/// sorted vertex ids of `graph` — the set [`prefix_mis`] returns on
/// `graph.induced_subgraph(keep)`, mapped back.
///
/// No subgraph is built: the solve walks `graph`'s own adjacency, and every
/// vertex outside `keep` starts Out, which every decision skips.
///
/// # Panics
/// Panics if π does not cover `keep.len()` positions, or if `keep` lists a
/// vertex twice or one outside `graph`.
pub fn prefix_mis_induced(graph: &Graph, keep: &[u32], pi: &Permutation) -> Vec<u32> {
    let n = graph.num_vertices();
    assert_eq!(
        pi.len(),
        keep.len(),
        "prefix_mis_induced: permutation covers {} elements but `keep` lists {} vertices",
        pi.len(),
        keep.len()
    );
    let mut state: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(OUT)).collect();
    for &v in keep {
        assert!(
            (v as usize) < n,
            "prefix_mis_induced: vertex {v} out of range"
        );
        let s = state[v as usize].get_mut();
        assert!(*s == OUT, "prefix_mis_induced: vertex {v} listed twice");
        *s = UNDECIDED;
    }
    let order: Vec<u32> = pi.order().iter().map(|&i| keep[i as usize]).collect();
    // Only pending vertices read ranks, and they all lie in `keep`.
    let mut rank = vec![0u32; n];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    let prefix_size = PrefixPolicy::default().prefix_size(keep.len());
    solve(graph, &order, &rank, state, prefix_size).0
}

/// The solver loop behind both entry points: decides the vertices of
/// `order` in prefixes of `prefix_size` positions, from the initial state
/// bytes `state`. `rank` inverts `order` on every vertex it lists.
fn solve(
    graph: &Graph,
    order: &[u32],
    rank: &[u32],
    mut state: Vec<AtomicU8>,
    prefix_size: usize,
) -> (Vec<u32>, WorkStats) {
    let mut stats = WorkStats::new();
    // The current prefix's pending vertices, each beside its decision of
    // the current step. One buffer serves every step of every prefix.
    let mut active: Vec<(u32, u8)> = Vec::new();
    for prefix in order.chunks(prefix_size) {
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
        stats.vertex_work += (prefix.len() - active.len()) as u64;

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
        let pinned: [(&str, &str, [Counters; 4]); 4] = [
            (
                "random",
                "random",
                [
                    (2000, 575, 2000, 7528),
                    (32, 45, 2036, 8096),
                    (50, 60, 2016, 7780),
                    (1, 10, 5265, 44858),
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
    fn induced_mis_equals_prefix_mis_on_the_induced_subgraph() {
        let g = random_graph(600, 3_000, 12);
        // Random subsets in random order, one of them also sorted, every
        // vertex in reverse order, and no vertex at all.
        let mut keeps: Vec<Vec<u32>> = (0..3)
            .map(|i| random_permutation(600, i + 20).order()[..200 * (i as usize + 1)].to_vec())
            .collect();
        let mut sorted = keeps[0].clone();
        sorted.sort_unstable();
        keeps.extend([sorted, (0..600).rev().collect(), Vec::new()]);
        for (i, keep) in keeps.iter().enumerate() {
            let pi = random_permutation(keep.len(), i as u64 + 30);
            let (sub, mapping) = g.induced_subgraph(keep);
            let mut expected: Vec<u32> = prefix_mis(&sub, &pi, PrefixPolicy::default())
                .into_iter()
                .map(|v| mapping[v as usize])
                .collect();
            expected.sort_unstable();
            assert_eq!(prefix_mis_induced(&g, keep, &pi), expected, "keep set {i}");
        }
    }

    #[test]
    #[should_panic(expected = "permutation covers 3 elements")]
    fn induced_mis_rejects_a_permutation_of_the_wrong_length() {
        prefix_mis_induced(&path_graph(4), &[0, 1], &identity_permutation(3));
    }

    #[test]
    #[should_panic(expected = "vertex 4 out of range")]
    fn induced_mis_rejects_an_out_of_range_vertex() {
        prefix_mis_induced(&path_graph(4), &[0, 4], &identity_permutation(2));
    }

    #[test]
    #[should_panic(expected = "vertex 1 listed twice")]
    fn induced_mis_rejects_a_repeated_vertex() {
        prefix_mis_induced(&path_graph(4), &[1, 2, 1], &identity_permutation(3));
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
    fn prefix_size_is_clamped_to_the_input() {
        assert_eq!(PrefixPolicy::Fixed(7).prefix_size(100), 7);
        assert_eq!(PrefixPolicy::Fixed(usize::MAX).prefix_size(100), 100);
        assert_eq!(PrefixPolicy::Fixed(0).prefix_size(100), 1);
        assert_eq!(PrefixPolicy::FractionOfInput(0.02).prefix_size(1_001), 21);
        assert_eq!(PrefixPolicy::FractionOfInput(0.0).prefix_size(100), 1);
        for policy in policies() {
            assert_eq!(policy.prefix_size(0), 1, "{policy:?}");
        }
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
