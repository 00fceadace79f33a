//! The linear-work root-set implementation of Algorithm 2 (Lemma 4.2).
//!
//! Instead of re-scanning every remaining vertex each round, this version
//! keeps the current *root set* of the priority DAG explicitly. Each step:
//!
//! 1. the roots join the MIS;
//! 2. their undecided neighbors are knocked out (claimed with a CAS so each
//!    vertex is knocked out exactly once);
//! 3. the later neighbors of the knocked-out vertices are `misCheck`ed. A
//!    check walks the vertex's adjacency with a per-vertex cursor that skips
//!    later neighbors and earlier knocked-out ones and stops at the first
//!    earlier neighbor still undecided. The cursor never moves back, so
//!    every arc is crossed at most once over the whole run (the
//!    amortization of Lemma 4.1);
//! 4. the checks whose cursor reaches the end produce the next root set
//!    (deduplicated with a per-step stamp, mirroring the paper's use of an
//!    arbitrary concurrent write to pick a unique responsible neighbor).
//!
//! The initial roots are the vertices whose first check reaches the end.
//! Total work is O(n + m); the number of steps equals the dependence length.
//!
//! Each phase is its own parallel terminal, and every write of one phase
//! happens-before every read of the next (the memory-ordering note of
//! [`crate::mis::prefix`]), so `Relaxed` atomics suffice.
//! The knock-out CAS and the stamp swap stay read-modify-writes: within a
//! phase they make each claim unique.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering::Relaxed};

use greedy_graph::csr::Graph;
use greedy_prims::permutation::Permutation;
use rayon::prelude::*;

use crate::stats::WorkStats;

const UNDECIDED: u8 = 0;
const IN_MIS: u8 = 1;
const OUT: u8 = 2;

/// Runs the root-set (linear-work) parallel greedy MIS. Returns the
/// lexicographically-first MIS for π, identical to the sequential algorithm.
pub fn rootset_mis(graph: &Graph, pi: &Permutation) -> Vec<u32> {
    rootset_mis_with_stats(graph, pi).0
}

/// Runs the root-set parallel greedy MIS with work counters.
/// `stats.rounds` equals the dependence length of (graph, π).
pub fn rootset_mis_with_stats(graph: &Graph, pi: &Permutation) -> (Vec<u32>, WorkStats) {
    let n = graph.num_vertices();
    assert_eq!(
        pi.len(),
        n,
        "rootset_mis: permutation covers {} elements but the graph has {} vertices",
        pi.len(),
        n
    );
    let rank = pi.rank();

    let state: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(UNDECIDED)).collect();
    let cursor: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let stamp: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();

    // misCheck: advances x's cursor past its later neighbors and its
    // knocked-out earlier ones; x is a root iff the cursor reaches the end.
    let is_root = |x: u32| {
        let neighbors = graph.neighbors(x);
        let rx = rank[x as usize];
        let mut i = cursor[x as usize].load(Relaxed);
        while let Some(&w) = neighbors.get(i) {
            if rank[w as usize] < rx && state[w as usize].load(Relaxed) != OUT {
                break;
            }
            i += 1;
        }
        cursor[x as usize].store(i, Relaxed);
        i == neighbors.len()
    };

    let mut stats = WorkStats::new();
    let mut checks = n as u64;
    let mut roots: Vec<u32> = (0..n as u32)
        .into_par_iter()
        .filter(|&v| is_root(v))
        .collect();
    stats.vertex_work += n as u64;

    while !roots.is_empty() {
        stats.rounds += 1;
        stats.steps += 1;
        stats.vertex_work += roots.len() as u64;

        // Phase 1: accept the roots.
        roots.par_iter().for_each(|&r| {
            state[r as usize].store(IN_MIS, Relaxed);
        });

        // Phase 2: knock out their undecided neighbors (each claimed once).
        let knocked: Vec<u32> = roots
            .par_iter()
            .flat_map_iter(|&r| graph.neighbors(r).iter().copied())
            .filter(|&w| {
                state[w as usize]
                    .compare_exchange(UNDECIDED, OUT, Relaxed, Relaxed)
                    .is_ok()
            })
            .collect();
        stats.edge_work += roots.iter().map(|&r| graph.degree(r) as u64).sum::<u64>();

        // Phase 3: the later neighbors of knocked-out vertices are the only
        // vertices whose root status may have changed; claim each of them
        // once for this step.
        let step_id = stats.steps;
        let candidates: Vec<u32> = knocked
            .par_iter()
            .flat_map_iter(|&w| {
                graph
                    .neighbors(w)
                    .iter()
                    .copied()
                    .filter(move |&x| rank[x as usize] > rank[w as usize])
            })
            .filter(|&x| {
                state[x as usize].load(Relaxed) == UNDECIDED
                    && stamp[x as usize].swap(step_id, Relaxed) != step_id
            })
            .collect();
        stats.edge_work += knocked.iter().map(|&w| graph.degree(w) as u64).sum::<u64>();

        // Phase 4: misCheck each candidate.
        roots = candidates
            .par_iter()
            .copied()
            .filter(|&x| is_root(x))
            .collect();
        stats.vertex_work += candidates.len() as u64;
        checks += candidates.len() as u64;
    }

    // Every vertex must be decided when the root set drains.
    let mis: Vec<u32> = (0..n as u32)
        .filter(|&v| {
            let s = state[v as usize].load(Relaxed);
            debug_assert_ne!(
                s, UNDECIDED,
                "rootset_mis: vertex {v} left undecided — root propagation is broken"
            );
            s == IN_MIS
        })
        .collect();
    // A check reads every neighbor its cursor passes, and one more when it
    // stops short of the end: each MIS vertex passed exactly one check, and
    // every other check stopped short.
    let crossed: u64 = cursor.into_iter().map(|c| c.into_inner() as u64).sum();
    stats.edge_work += crossed + checks - mis.len() as u64;
    (mis, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::rounds::rounds_mis_with_stats;
    use crate::mis::sequential::sequential_mis;
    use crate::mis::verify::verify_mis;
    use crate::ordering::{identity_permutation, random_permutation};
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::rmat::rmat_graph;
    use greedy_graph::gen::structured::{
        complete_graph, cycle_graph, grid_graph, path_graph, star_graph,
    };
    use greedy_graph::Graph;

    #[test]
    fn empty_and_edgeless() {
        assert!(rootset_mis(&Graph::empty(0), &identity_permutation(0)).is_empty());
        assert_eq!(
            rootset_mis(&Graph::empty(4), &identity_permutation(4)),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..6 {
            let g = random_graph(500, 2_500, seed);
            let pi = random_permutation(500, seed + 50);
            let mis = rootset_mis(&g, &pi);
            assert_eq!(mis, sequential_mis(&g, &pi), "seed {seed}");
            assert!(verify_mis(&g, &mis));
        }
    }

    #[test]
    fn matches_sequential_on_structured_graphs() {
        let graphs: Vec<(&str, Graph)> = vec![
            ("path", path_graph(80)),
            ("cycle", cycle_graph(81)),
            ("star", star_graph(64)),
            ("complete", complete_graph(48)),
            ("grid", grid_graph(9, 11)),
        ];
        for (name, g) in graphs {
            for seed in 0..3 {
                let pi = random_permutation(g.num_vertices(), seed);
                assert_eq!(
                    rootset_mis(&g, &pi),
                    sequential_mis(&g, &pi),
                    "mismatch on {name} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_on_rmat() {
        let g = rmat_graph(10, 8_000, 2);
        let pi = random_permutation(g.num_vertices(), 3);
        assert_eq!(rootset_mis(&g, &pi), sequential_mis(&g, &pi));
    }

    #[test]
    fn step_count_equals_rounds_algorithm_dependence_length() {
        // Both implementations execute Algorithm 2 step by step, so their
        // round counts must agree (the dependence length of (G, π)).
        for seed in 0..3 {
            let g = random_graph(400, 1_600, seed);
            let pi = random_permutation(400, seed + 7);
            let (_, a) = rootset_mis_with_stats(&g, &pi);
            let (_, b) = rounds_mis_with_stats(&g, &pi);
            assert_eq!(a.rounds, b.rounds, "seed {seed}");
        }
    }

    #[test]
    fn edge_work_is_near_linear() {
        // Lemma 4.2: O(m) total work. Allow a generous constant factor for
        // the two directions and the check accounting.
        let g = random_graph(2_000, 10_000, 4);
        let pi = random_permutation(2_000, 5);
        let (_, stats) = rootset_mis_with_stats(&g, &pi);
        let arcs = 2 * g.num_edges() as u64;
        assert!(
            stats.edge_work <= 4 * arcs,
            "edge work {} not linear in arcs {arcs}",
            stats.edge_work
        );
    }

    #[test]
    fn identity_order_on_path() {
        let g = path_graph(33);
        let pi = identity_permutation(33);
        assert_eq!(rootset_mis(&g, &pi), sequential_mis(&g, &pi));
    }

    #[test]
    fn complete_graph_one_step() {
        let g = complete_graph(32);
        let pi = random_permutation(32, 9);
        let (mis, stats) = rootset_mis_with_stats(&g, &pi);
        assert_eq!(mis.len(), 1);
        assert_eq!(stats.rounds, 1);
    }
}
