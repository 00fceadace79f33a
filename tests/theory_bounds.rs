//! Integration tests for the paper's theory section: the dependence length is
//! polylogarithmic for random orders (Theorem 3.5), degrees shrink after
//! processing a large-enough prefix (Lemma 3.1 / Corollary 3.2), and the
//! complete graph separates dependence length from the longest DAG path.

use greedy_core::analysis::{dependence_length, priority_dag_longest_path};
use greedy_core::mis::rootset::rootset_mis_with_stats;
use greedy_parallel::prelude::*;

#[test]
fn dependence_length_is_polylog_on_random_graphs() {
    // Theorem 3.5: O(log Δ · log n). Check the measured value stays within a
    // small constant of log²n across sizes (a growth-rate check, not a proof).
    for (n, m) in [(1_000usize, 5_000usize), (4_000, 20_000), (16_000, 80_000)] {
        let graph = random_graph(n, m, 7);
        let pi = random_permutation(n, 8);
        let dep = dependence_length(&graph, &pi);
        let log = (n as f64).log2();
        assert!(
            (dep as f64) < 3.0 * log * log,
            "n={n}: dependence length {dep} exceeds 3·log²n = {:.0}",
            3.0 * log * log
        );
    }
}

#[test]
fn dependence_length_is_polylog_on_rmat_graphs() {
    let graph = rmat_graph(14, 80_000, 3);
    let pi = random_permutation(graph.num_vertices(), 4);
    let dep = dependence_length(&graph, &pi);
    let log = (graph.num_vertices() as f64).log2();
    assert!(
        (dep as f64) < 3.0 * log * log,
        "dependence length {dep} exceeds 3·log²n"
    );
}

#[test]
fn complete_graph_has_long_path_but_constant_dependence() {
    let graph = complete_graph(300);
    let pi = random_permutation(300, 1);
    assert_eq!(priority_dag_longest_path(&graph, &pi), 300);
    assert_eq!(dependence_length(&graph, &pi), 1);
}

#[test]
fn dependence_never_exceeds_longest_path() {
    for seed in 0..3 {
        let graph = random_graph(1_000, 4_000, seed);
        let pi = random_permutation(1_000, seed + 9);
        assert!(dependence_length(&graph, &pi) <= priority_dag_longest_path(&graph, &pi));
    }
}

#[test]
fn round_trace_accounts_for_every_mis_vertex() {
    // The rounds of Algorithm 2 together accept exactly the sequential
    // greedy MIS, and every round accepts at least one vertex (the earliest
    // undecided vertex is always a root).
    let graph = rmat_graph(11, 10_000, 5);
    let pi = random_permutation(graph.num_vertices(), 6);
    let (mis, stats) = rootset_mis_with_stats(&graph, &pi);
    assert_eq!(mis, sequential_mis(&graph, &pi));
    let rounds = stats.rounds as usize;
    assert!(
        (1..=mis.len()).contains(&rounds),
        "every round must accept at least one vertex"
    );
    // Early rounds accept the bulk of the MIS: the first round's roots, the
    // vertices with no earlier neighbor, exceed an average round's share.
    let rank = pi.rank();
    let first_round = graph
        .vertices()
        .filter(|&v| {
            graph
                .neighbors(v)
                .iter()
                .all(|&w| rank[w as usize] > rank[v as usize])
        })
        .count();
    assert!(first_round * rounds > mis.len());
}

#[test]
fn degrees_shrink_after_processing_a_prefix() {
    // Lemma 3.1: after processing an (ℓ/d)-prefix, remaining degrees are at
    // most d w.h.p. Simulate: process the first k vertices of the order
    // sequentially, remove MIS vertices and neighbors, and measure the
    // maximum degree among survivors in the induced subgraph.
    let n = 20_000;
    let graph = random_graph(n, 200_000, 11); // average degree 20
    let pi = random_permutation(n, 12);
    let d = 10usize; // target degree bound
    let ell = 3.0 * (n as f64).ln(); // ℓ = 3 ln n
    let prefix_len = ((ell / d as f64) * n as f64).ceil() as usize;

    // Sequential greedy over the prefix only.
    let mut state = vec![0u8; n]; // 0 undecided, 1 in, 2 out
    for pos in 0..prefix_len.min(n) {
        let v = pi.element_at(pos);
        if state[v as usize] == 0 {
            state[v as usize] = 1;
            for &w in graph.neighbors(v) {
                if state[w as usize] == 0 {
                    state[w as usize] = 2;
                }
            }
        } else {
            state[v as usize] = 2.max(state[v as usize]);
        }
    }
    // Survivors: vertices after the prefix that are still undecided.
    let survivors: Vec<u32> = (0..n as u32)
        .filter(|&v| state[v as usize] == 0 && pi.rank_of(v) as usize >= prefix_len)
        .collect();
    let (sub, _) = graph.induced_subgraph(&survivors);
    assert!(
        sub.max_degree() <= d,
        "max surviving degree {} exceeds the Lemma 3.1 bound {d}",
        sub.max_degree()
    );
}

#[test]
fn matching_dependence_is_polylog_via_line_graph_bound() {
    // Lemma 5.1 transfers the bound to matching: rounds of Algorithm 4 are
    // O(log² m) w.h.p.
    use greedy_core::matching::rootset::rootset_matching_with_stats;
    let edges = random_graph(4_000, 20_000, 13).to_edge_list();
    let pi = random_edge_permutation(edges.num_edges(), 14);
    let (_, stats) = rootset_matching_with_stats(&edges, &pi);
    let log = (edges.num_edges() as f64).log2();
    assert!(
        (stats.rounds as f64) < 3.0 * log * log,
        "matching rounds {} exceed 3·log²m",
        stats.rounds
    );
}
