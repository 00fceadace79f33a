//! Integration tests: every MIS implementation returns the identical
//! lexicographically-first MIS, across graph families, seeds, and prefix
//! policies, and the result is a valid MIS. Property-based variants generate
//! arbitrary graphs.

use greedy_parallel::prelude::*;
use proptest::prelude::*;

fn all_parallel_mis(graph: &Graph, pi: &Permutation) -> Vec<(&'static str, Vec<u32>)> {
    vec![
        ("rounds", rounds_mis(graph, pi)),
        ("rootset", rootset_mis(graph, pi)),
        (
            "prefix_fixed_1",
            prefix_mis(graph, pi, PrefixPolicy::Fixed(1)),
        ),
        (
            "prefix_fixed_37",
            prefix_mis(graph, pi, PrefixPolicy::Fixed(37)),
        ),
        (
            "prefix_1pct",
            prefix_mis(graph, pi, PrefixPolicy::FractionOfInput(0.01)),
        ),
        (
            "prefix_full",
            prefix_mis(graph, pi, PrefixPolicy::FractionOfInput(1.0)),
        ),
    ]
}

fn check_all_equal(graph: &Graph, pi: &Permutation) {
    let reference = sequential_mis(graph, pi);
    assert!(
        verify_mis(graph, &reference),
        "sequential result must be a valid MIS"
    );
    for (name, mis) in all_parallel_mis(graph, pi) {
        assert_eq!(
            mis, reference,
            "{name} diverged from the sequential greedy MIS"
        );
    }
}

#[test]
fn equivalence_on_random_graphs() {
    for seed in 0..4 {
        let graph = random_graph(800, 4_000, seed);
        let pi = random_permutation(graph.num_vertices(), seed + 100);
        check_all_equal(&graph, &pi);
    }
}

#[test]
fn equivalence_on_rmat_graphs() {
    for seed in 0..3 {
        let graph = rmat_graph(11, 8_000, seed);
        let pi = random_permutation(graph.num_vertices(), seed + 200);
        check_all_equal(&graph, &pi);
    }
}

#[test]
fn equivalence_on_structured_graphs() {
    let graphs: Vec<Graph> = vec![
        complete_graph(60),
        path_graph(300),
        cycle_graph(301),
        star_graph(200),
        grid_graph(17, 19),
        Graph::empty(50),
        Graph::empty(0),
    ];
    for graph in graphs {
        for seed in [1, 7] {
            let pi = random_permutation(graph.num_vertices(), seed);
            check_all_equal(&graph, &pi);
        }
    }
}

#[test]
fn equivalence_under_adversarial_identity_order() {
    // The theorem needs a random order, but correctness (same result as
    // sequential) must hold for every order, including the identity.
    use greedy_core::ordering::identity_permutation;
    for graph in [
        path_graph(200),
        star_graph(100),
        complete_graph(40),
        random_graph(300, 900, 3),
        Graph::empty(20),
    ] {
        let pi = identity_permutation(graph.num_vertices());
        check_all_equal(&graph, &pi);
    }
}

#[test]
fn luby_is_valid_but_independent_of_pi() {
    let graph = random_graph(2_000, 10_000, 9);
    let luby = luby_mis(&graph, 1);
    assert!(verify_mis(&graph, &luby));
    assert_eq!(
        luby,
        luby_mis(&graph, 1),
        "Luby must be deterministic in its seed"
    );
}

#[test]
fn mis_size_is_identical_across_seeds_only_for_same_order() {
    // Different priority orders may give different sets (and sizes); the same
    // order always gives the same set. This guards against accidentally
    // ignoring π.
    let graph = random_graph(1_000, 6_000, 2);
    let a = sequential_mis(&graph, &random_permutation(1_000, 1));
    let b = sequential_mis(&graph, &random_permutation(1_000, 2));
    assert_ne!(
        a, b,
        "two different random orders almost surely give different MISs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_all_implementations_agree(
        n in 1usize..120,
        edge_pairs in proptest::collection::vec((0u32..120, 0u32..120), 0..400),
        perm_seed in any::<u64>(),
        prefix in 1usize..50,
    ) {
        let pairs: Vec<(u32, u32)> = edge_pairs
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let edges = EdgeList::from_pairs(n, pairs).canonicalize();
        let graph = Graph::from_edge_list(&edges);
        let pi = random_permutation(n, perm_seed);

        let reference = sequential_mis(&graph, &pi);
        prop_assert!(verify_mis(&graph, &reference));
        prop_assert_eq!(&rounds_mis(&graph, &pi), &reference);
        prop_assert_eq!(&rootset_mis(&graph, &pi), &reference);
        prop_assert_eq!(&prefix_mis(&graph, &pi, PrefixPolicy::Fixed(prefix)), &reference);
        prop_assert_eq!(&prefix_mis(&graph, &pi, PrefixPolicy::FractionOfInput(1.0)), &reference);
    }

    #[test]
    fn prop_luby_returns_valid_mis(
        n in 1usize..100,
        edge_pairs in proptest::collection::vec((0u32..100, 0u32..100), 0..300),
        seed in any::<u64>(),
    ) {
        let pairs: Vec<(u32, u32)> = edge_pairs
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let graph = Graph::from_edge_list(&EdgeList::from_pairs(n, pairs).canonicalize());
        let mis = luby_mis(&graph, seed);
        prop_assert!(verify_mis(&graph, &mis));
    }
}
