//! The 2-approximate vertex cover from the greedy maximal matching: the
//! endpoints of a maximal matching cover every edge, with at most twice as
//! many vertices as an optimal cover.
//!
//! Run with: `cargo run --release --example vertex_cover`

use std::time::Instant;

use greedy_apps::vertex_cover::{approx_vertex_cover, is_vertex_cover};
use greedy_parallel::prelude::*;

fn main() {
    let graph = random_graph(100_000, 400_000, 8);
    let edges = graph.to_edge_list();
    println!(
        "input: {} vertices, {} edges",
        graph.num_vertices(),
        edges.num_edges()
    );

    let t = Instant::now();
    let cover = approx_vertex_cover(&edges, 31);
    let cover_time = t.elapsed();
    assert!(is_vertex_cover(&edges, &cover));
    println!(
        "2-approx vertex cover from the greedy maximal matching: {} vertices in {cover_time:?}",
        cover.len()
    );
}
