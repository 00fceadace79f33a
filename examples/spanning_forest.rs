//! Greedy spanning forest — the problem the paper's conclusion names for its
//! technique next — and the 2-approximate vertex cover from the greedy
//! maximal matching.
//!
//! The sequential greedy algorithm keeps an edge iff it does not close a
//! cycle among previously kept edges. The forest here is that sequential
//! loop over a union–find; it has no parallel version yet.
//!
//! Run with: `cargo run --release --example spanning_forest`

use std::time::Instant;

use greedy_apps::spanning_forest::verify_spanning_forest;
use greedy_apps::vertex_cover::{approx_vertex_cover, is_vertex_cover};
use greedy_parallel::prelude::*;

fn main() {
    let graph = random_graph(100_000, 400_000, 8);
    let edges = graph.to_edge_list();
    let pi = random_edge_permutation(edges.num_edges(), 23);
    println!(
        "input: {} vertices, {} edges",
        graph.num_vertices(),
        edges.num_edges()
    );

    let t = Instant::now();
    let forest = spanning_forest(&edges, &pi);
    let forest_time = t.elapsed();
    assert!(verify_spanning_forest(&edges, &forest));
    println!(
        "sequential greedy spanning forest: {} edges in {forest_time:?}",
        forest.len()
    );

    // An application of the greedy maximal matching: the classic
    // 2-approximate vertex cover.
    let t = Instant::now();
    let cover = approx_vertex_cover(&edges, 31);
    let cover_time = t.elapsed();
    assert!(is_vertex_cover(&edges, &cover));
    println!(
        "\n2-approx vertex cover from the greedy maximal matching: {} vertices in {cover_time:?}",
        cover.len()
    );
}
