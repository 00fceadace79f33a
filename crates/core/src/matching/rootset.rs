//! The linear-work root-set maximal matching (Lemma 5.3).
//!
//! Each vertex keeps its incident edges **sorted by priority** (a bucket sort
//! over the random edge priorities, as the paper prescribes) plus a cursor
//! that advances past edges already decided, so every incidence entry is
//! crossed O(1) times. An edge is *ready* when it is the earliest remaining
//! edge at **both** of its endpoints — the `mmCheck` of Lemma 5.2. Each step:
//!
//! 1. the ready edges join the matching and saturate their endpoints;
//! 2. every edge incident to a newly saturated vertex dies;
//! 3. the far endpoints of the dead edges are re-checked for a newly ready
//!    edge (deduplicated per step), producing the next ready set.
//!
//! The number of steps equals the dependence length of the edge priority DAG,
//! and the total work is O(n + m).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use greedy_graph::edge_list::EdgeList;
use greedy_prims::permutation::Permutation;
use greedy_prims::sort::sort_by_key_parallel;
use rayon::prelude::*;

use crate::stats::WorkStats;

/// Runs the root-set (linear-work) parallel greedy maximal matching. Returns
/// the same matching as the sequential greedy algorithm for π.
pub fn rootset_matching(edges: &EdgeList, pi: &Permutation) -> Vec<u32> {
    rootset_matching_with_stats(edges, pi).0
}

/// Runs the root-set matching with counters (`rounds` = steps of the outer
/// loop = dependence length of the edge priority DAG).
pub fn rootset_matching_with_stats(edges: &EdgeList, pi: &Permutation) -> (Vec<u32>, WorkStats) {
    let m = edges.num_edges();
    let n = edges.num_vertices();
    assert_eq!(
        pi.len(),
        m,
        "rootset_matching: permutation covers {} elements but there are {} edges",
        pi.len(),
        m
    );
    let rank = pi.rank();
    let mut stats = WorkStats::new();

    // Per-vertex incidence lists sorted by edge priority (earliest first),
    // stored flat as a CSR-style array: one parallel radix sort of all 2m
    // arcs by the packed `(vertex, priority)` key groups arcs by vertex *and*
    // orders each vertex's arcs by rank in the same linear-work pass — the
    // bucket sort of Lemma 5.3. The key is precomputed into the records
    // (vertex in the high half, rank in the low half) so each rank lookup
    // happens once, not once per radix pass.
    let mut arcs: Vec<(u64, u32)> = (0..m as u32)
        .into_par_iter()
        .flat_map_iter(|id| {
            let e = edges.edge(id as usize);
            let r = rank[id as usize] as u64;
            [
                (((e.u as u64) << 32) | r, id),
                (((e.v as u64) << 32) | r, id),
            ]
        })
        .collect();
    sort_by_key_parallel(&mut arcs, |&(k, _)| k);
    // Arcs are grouped by vertex (the key's high half), so each vertex's
    // offset is a binary search away — computed in parallel rather than with
    // a serial counting scan.
    let inc_offsets: Vec<usize> = (0..(n + 1) as u64)
        .into_par_iter()
        .map(|v| arcs.partition_point(|&(k, _)| (k >> 32) < v))
        .collect();
    let inc: Vec<u32> = arcs.par_iter().map(|&(_, e)| e).collect();
    let incidence = |v: u32| &inc[inc_offsets[v as usize]..inc_offsets[v as usize + 1]];
    stats.edge_work += 2 * m as u64;

    // Vertex saturation + per-vertex cursor into its sorted incidence list.
    let vertex_matched: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let cursor: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let stamp: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let in_matching: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();
    let edge_work = AtomicU64::new(0);

    // An edge is dead if either endpoint is saturated.
    let edge_dead = |e: u32| {
        let edge = edges.edge(e as usize);
        vertex_matched[edge.u as usize].load(Ordering::SeqCst)
            || vertex_matched[edge.v as usize].load(Ordering::SeqCst)
    };

    // First remaining (not dead) edge at vertex `v`, advancing the cursor
    // past dead edges (the amortized scan of Lemma 5.2).
    let first_alive = |v: u32| -> Option<u32> {
        if vertex_matched[v as usize].load(Ordering::SeqCst) {
            return None;
        }
        let list = incidence(v);
        let mut i = cursor[v as usize].load(Ordering::SeqCst);
        let mut scanned = 0u64;
        while i < list.len() && edge_dead(list[i]) {
            i += 1;
            scanned += 1;
        }
        cursor[v as usize].store(i, Ordering::SeqCst);
        edge_work.fetch_add(scanned + 1, Ordering::Relaxed);
        (i < list.len()).then(|| list[i])
    };

    // mmCheck: the ready edge at v, if any — the first alive edge at v that
    // is also the first alive edge at its other endpoint.
    let mm_check = |v: u32| -> Option<u32> {
        let e = first_alive(v)?;
        let other = edges.edge(e as usize).other(v);
        (first_alive(other) == Some(e)).then_some(e)
    };

    // Initial ready set: check every vertex once. A ready edge is discovered
    // from both of its endpoints, so deduplicate.
    let mut ready: Vec<u32> = (0..n as u32).into_par_iter().filter_map(mm_check).collect();
    sort_by_key_parallel(&mut ready, |&e| e as u64);
    ready.dedup();
    stats.vertex_work += n as u64;

    while !ready.is_empty() {
        stats.rounds += 1;
        stats.steps += 1;
        stats.vertex_work += ready.len() as u64;

        // Phase 1: accept the ready edges and saturate their endpoints.
        ready.par_iter().for_each(|&e| {
            in_matching[e as usize].store(true, Ordering::SeqCst);
            let edge = edges.edge(e as usize);
            vertex_matched[edge.u as usize].store(true, Ordering::SeqCst);
            vertex_matched[edge.v as usize].store(true, Ordering::SeqCst);
        });

        // Phase 2: every edge incident to a newly saturated endpoint is now
        // dead; re-check the far endpoint of each such edge (once per step).
        let step_id = stats.steps;
        let candidates: Vec<u32> = ready
            .par_iter()
            .flat_map_iter(|&e| {
                let edge = edges.edge(e as usize);
                [edge.u, edge.v].into_iter()
            })
            .flat_map_iter(|v| {
                incidence(v)
                    .iter()
                    .map(move |&f| edges.edge(f as usize).other(v))
            })
            .filter(|&w| {
                !vertex_matched[w as usize].load(Ordering::SeqCst)
                    && stamp[w as usize].swap(step_id, Ordering::SeqCst) != step_id
            })
            .collect();
        edge_work.fetch_add(
            ready
                .iter()
                .map(|&e| {
                    let edge = edges.edge(e as usize);
                    (incidence(edge.u).len() + incidence(edge.v).len()) as u64
                })
                .sum::<u64>(),
            Ordering::Relaxed,
        );

        // Phase 3: mmCheck the candidate vertices; the ready edges they find
        // form the next step's set (deduplicated, since both endpoints of a
        // newly ready edge may be candidates).
        let mut next_ready: Vec<u32> = candidates.par_iter().filter_map(|&v| mm_check(v)).collect();
        sort_by_key_parallel(&mut next_ready, |&e| e as u64);
        next_ready.dedup();
        stats.vertex_work += candidates.len() as u64;

        ready = next_ready;
    }

    stats.edge_work += edge_work.load(Ordering::Relaxed);
    let matching: Vec<u32> = (0..m as u32)
        .filter(|&e| in_matching[e as usize].load(Ordering::SeqCst))
        .collect();
    (matching, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dependence_length;
    use crate::matching::sequential::sequential_matching;
    use crate::matching::verify::verify_maximal_matching;
    use crate::ordering::{identity_permutation, random_edge_permutation};
    use greedy_graph::gen::random::random_edge_list;
    use greedy_graph::gen::rmat::{rmat_edge_list, RmatParams};
    use greedy_graph::gen::structured::{
        complete_edge_list, cycle_edge_list, grid_edge_list, path_edge_list, star_edge_list,
    };
    use greedy_graph::line_graph::line_graph;
    use greedy_graph::EdgeList;

    #[test]
    fn empty_edge_list() {
        let el = EdgeList::empty(4);
        assert!(rootset_matching(&el, &identity_permutation(0)).is_empty());
    }

    #[test]
    fn single_edge() {
        let el = EdgeList::from_pairs(2, vec![(0, 1)]);
        assert_eq!(rootset_matching(&el, &identity_permutation(1)), vec![0]);
    }

    #[test]
    fn matches_sequential_on_structured_graphs() {
        let lists: Vec<(&str, EdgeList)> = vec![
            ("path", path_edge_list(60)),
            ("cycle", cycle_edge_list(57)),
            ("star", star_edge_list(45)),
            ("complete", complete_edge_list(18)),
            ("grid", grid_edge_list(8, 9)),
        ];
        for (name, el) in lists {
            for seed in 0..3 {
                let pi = random_edge_permutation(el.num_edges(), seed);
                assert_eq!(
                    rootset_matching(&el, &pi),
                    sequential_matching(&el, &pi),
                    "mismatch on {name} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..6 {
            let el = random_edge_list(400, 1_600, seed);
            let pi = random_edge_permutation(el.num_edges(), seed + 31);
            let mm = rootset_matching(&el, &pi);
            assert_eq!(mm, sequential_matching(&el, &pi), "seed {seed}");
            assert!(verify_maximal_matching(&el, &mm));
        }
    }

    #[test]
    fn matches_sequential_on_rmat() {
        let el = rmat_edge_list(10, 6_000, RmatParams::default(), 4);
        let pi = random_edge_permutation(el.num_edges(), 5);
        assert_eq!(rootset_matching(&el, &pi), sequential_matching(&el, &pi));
    }

    #[test]
    fn step_count_matches_line_graph_dependence_length() {
        // Lemma 5.1: the matching's rounds are the dependence length of the
        // line graph under the same order, here counted by the MIS root-set
        // loop over L(G).
        for seed in 0..3 {
            let el = random_edge_list(250, 900, seed);
            let pi = random_edge_permutation(el.num_edges(), seed + 3);
            let (_, a) = rootset_matching_with_stats(&el, &pi);
            assert_eq!(
                a.rounds as usize,
                dependence_length(&line_graph(&el), &pi),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn work_is_near_linear() {
        let el = random_edge_list(2_000, 8_000, 9);
        let pi = random_edge_permutation(el.num_edges(), 10);
        let (_, stats) = rootset_matching_with_stats(&el, &pi);
        let m = el.num_edges() as u64;
        assert!(
            stats.edge_work <= 12 * m,
            "edge work {} not close to linear in m = {m}",
            stats.edge_work
        );
    }

    #[test]
    fn identity_order_on_path() {
        let el = path_edge_list(41);
        let pi = identity_permutation(el.num_edges());
        assert_eq!(rootset_matching(&el, &pi), sequential_matching(&el, &pi));
    }
}
