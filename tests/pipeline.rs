//! Cross-crate pipeline tests: generator → CSR/edge-list conversions → core
//! algorithms → applications, exercising the public API the way a downstream
//! user would.

use greedy_parallel::prelude::*;

#[test]
fn generate_save_load_and_solve() {
    // Generate, save the CSR arrays, load a graph back from them, and check
    // the algorithms produce identical results on the reloaded graph.
    let graph = rmat_graph(12, 30_000, 2);
    let reloaded =
        Graph::from_csr_arrays(graph.offsets().to_vec(), graph.neighbor_array().to_vec());
    assert!(reloaded.validate().is_ok());
    assert_eq!(graph, reloaded);

    let pi = random_permutation(graph.num_vertices(), 3);
    assert_eq!(
        sequential_mis(&graph, &pi),
        prefix_mis(&reloaded, &pi, PrefixPolicy::default())
    );
}

#[test]
fn edge_list_roundtrip_preserves_matching() {
    // Edge list → CSR → edge list gives back the same canonical list, so
    // edge ids, and with them the matching, survive the conversion.
    let edges = random_graph(1_000, 4_000, 5).to_edge_list();
    let reloaded = Graph::from_edge_list(&edges).to_edge_list();
    assert_eq!(edges, reloaded);

    let pi = random_edge_permutation(edges.num_edges(), 6);
    assert_eq!(
        sequential_matching(&edges, &pi),
        sequential_matching(&reloaded, &pi)
    );
}

#[test]
fn stats_are_consistent_with_algorithm_outputs() {
    let graph = random_graph(5_000, 25_000, 7);
    assert_eq!(graph.num_vertices(), 5_000);
    assert_eq!(graph.num_edges(), 25_000);
    let degree_sum: usize = graph.vertices().map(|v| graph.degree(v)).sum();
    assert_eq!(degree_sum, 2 * 25_000);

    // The MIS of a graph with max degree Δ has at least n/(Δ+1) vertices.
    let pi = random_permutation(5_000, 8);
    let mis = prefix_mis(&graph, &pi, PrefixPolicy::default());
    assert!(mis.len() >= 5_000 / (graph.max_degree() + 1));
}

#[test]
fn full_application_chain_on_one_input() {
    // One input flows through every application: MIS-based scheduling and
    // coloring, MM-based vertex cover, and the spanning forest.
    let graph = random_graph(2_000, 10_000, 9);
    let edges = graph.to_edge_list();

    let coloring = greedy_coloring(&graph, 1);
    assert!(coloring.is_proper(&graph));

    let schedule = schedule_tasks(&graph, 1);
    assert!(schedule.is_valid(&graph));
    // Both are iterated MIS with the same layer seeds, so the batch structure
    // and the color classes coincide.
    assert_eq!(schedule.num_batches(), coloring.num_colors as usize);
    assert!(schedule.num_batches() <= graph.max_degree() + 1);

    let edge_pi = random_edge_permutation(edges.num_edges(), 3);
    let matching = prefix_matching(&edges, &edge_pi, PrefixPolicy::default());
    let cover = vertex_cover_from_matching(&edges, &matching);
    assert_eq!(cover.len(), 2 * matching.len());
    assert!(greedy_apps::vertex_cover::is_vertex_cover(&edges, &cover));

    let forest = spanning_forest(&edges, &edge_pi);
    assert!(greedy_apps::spanning_forest::verify_spanning_forest(
        &edges, &forest
    ));
}

#[test]
fn workstats_expose_the_figure_quantities() {
    // The quantities the bench harness prints must be derivable from the
    // public WorkStats type.
    let graph = random_graph(3_000, 12_000, 4);
    let pi = random_permutation(3_000, 5);
    let (_, stats) = prefix_mis_with_stats(&graph, &pi, PrefixPolicy::Fixed(64));
    assert!(stats.work_per_element(3_000) >= 1.0);
    assert!(stats.rounds_per_element(3_000) <= 1.0);
    assert!(stats.total_work() >= stats.vertex_work);
}
