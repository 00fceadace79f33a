//! Integration tests: every maximal-matching implementation returns the
//! identical greedy matching, and it agrees with the MIS-on-the-line-graph
//! oracle of Lemma 5.1.

use greedy_core::matching::reduction::matching_via_line_graph;
use greedy_parallel::prelude::*;
use proptest::prelude::*;

fn check_all_equal(edges: &EdgeList, pi: &Permutation) {
    let reference = sequential_matching(edges, pi);
    assert!(
        verify_maximal_matching(edges, &reference),
        "sequential result must be a valid maximal matching"
    );
    let implementations: Vec<(&str, Vec<u32>)> = vec![
        ("rootset", rootset_matching(edges, pi)),
        (
            "prefix_fixed_1",
            prefix_matching(edges, pi, PrefixPolicy::Fixed(1)),
        ),
        (
            "prefix_fixed_23",
            prefix_matching(edges, pi, PrefixPolicy::Fixed(23)),
        ),
        (
            "prefix_2pct",
            prefix_matching(edges, pi, PrefixPolicy::FractionOfInput(0.02)),
        ),
        (
            "prefix_full",
            prefix_matching(edges, pi, PrefixPolicy::FractionOfInput(1.0)),
        ),
    ];
    for (name, mm) in implementations {
        assert_eq!(
            mm, reference,
            "{name} diverged from the sequential greedy matching"
        );
    }
}

#[test]
fn equivalence_on_random_graphs() {
    for seed in 0..4 {
        let edges = random_graph(500, 2_000, seed).to_edge_list();
        let pi = random_edge_permutation(edges.num_edges(), seed + 10);
        check_all_equal(&edges, &pi);
    }
}

#[test]
fn equivalence_on_rmat_graphs() {
    for seed in 0..2 {
        let edges = rmat_graph(10, 5_000, seed).to_edge_list();
        let pi = random_edge_permutation(edges.num_edges(), seed + 20);
        check_all_equal(&edges, &pi);
    }
}

#[test]
fn equivalence_on_structured_graphs() {
    let graphs: Vec<Graph> = vec![
        complete_graph(24),
        path_graph(200),
        cycle_graph(201),
        star_graph(150),
        grid_graph(12, 13),
        Graph::empty(10),
    ];
    for graph in graphs {
        let edges = graph.to_edge_list();
        let pi = random_edge_permutation(edges.num_edges(), 5);
        check_all_equal(&edges, &pi);
    }
}

#[test]
fn line_graph_oracle_agrees() {
    // Lemma 5.1: greedy MM on G under π == greedy MIS on L(G) under π.
    for seed in 0..3 {
        let edges = random_graph(200, 700, seed).to_edge_list();
        let pi = random_edge_permutation(edges.num_edges(), seed + 40);
        assert_eq!(
            sequential_matching(&edges, &pi),
            matching_via_line_graph(&edges, &pi),
            "seed {seed}"
        );
    }
}

#[test]
fn matching_size_within_factor_two_of_any_matching() {
    // A maximal matching is at least half the size of a maximum matching; as
    // a cheap proxy, compare two greedy matchings under different orders —
    // they can differ in size by at most a factor of two.
    let edges = random_graph(1_000, 5_000, 7).to_edge_list();
    let a = sequential_matching(&edges, &random_edge_permutation(edges.num_edges(), 1)).len();
    let b = sequential_matching(&edges, &random_edge_permutation(edges.num_edges(), 2)).len();
    assert!(
        a * 2 >= b && b * 2 >= a,
        "sizes {a} and {b} differ by more than 2x"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_all_matching_implementations_agree(
        n in 2usize..100,
        edge_pairs in proptest::collection::vec((0u32..100, 0u32..100), 0..300),
        perm_seed in any::<u64>(),
        prefix in 1usize..40,
    ) {
        let pairs: Vec<(u32, u32)> = edge_pairs
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let edges = EdgeList::from_pairs(n, pairs).canonicalize();
        let pi = random_edge_permutation(edges.num_edges(), perm_seed);

        let reference = sequential_matching(&edges, &pi);
        prop_assert!(verify_maximal_matching(&edges, &reference));
        prop_assert_eq!(&rootset_matching(&edges, &pi), &reference);
        prop_assert_eq!(&prefix_matching(&edges, &pi, PrefixPolicy::Fixed(prefix)), &reference);
        prop_assert_eq!(&matching_via_line_graph(&edges, &pi), &reference);
    }
}
