//! Determinism across schedules and thread counts.
//!
//! The paper's second practical claim: "once an ordering is fixed, the
//! approach guarantees the same result whether run in parallel or
//! sequentially, or choosing any schedule of the iterations that respects the
//! dependences." This example runs every MIS and MM implementation, under
//! several prefix policies, inside rayon pools of different sizes — and shows
//! they all return bit-identical results, while Luby's algorithm (which
//! re-randomizes) returns a different, though valid, MIS.
//!
//! Run with: `cargo run --release --example determinism_demo`

use greedy_parallel::prelude::*;

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn main() {
    let graph = random_graph(100_000, 500_000, 5);
    let edges = graph.to_edge_list();
    let pi = random_permutation(graph.num_vertices(), 17);
    let edge_pi = random_edge_permutation(edges.num_edges(), 18);

    println!(
        "input: {} vertices, {} edges; vertex order seed 17, edge order seed 18\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Reference results from the purely sequential algorithms.
    let mis_ref = sequential_mis(&graph, &pi);
    let mm_ref = sequential_matching(&edges, &edge_pi);
    println!("sequential greedy MIS: {} vertices", mis_ref.len());
    println!("sequential greedy MM:  {} edges\n", mm_ref.len());

    let thread_counts = [1usize, 2, 4, 8];
    let policies = [
        ("prefix 0.1%", PrefixPolicy::FractionOfInput(0.001)),
        ("prefix 2%", PrefixPolicy::FractionOfInput(0.02)),
        ("prefix 100%", PrefixPolicy::FractionOfInput(1.0)),
    ];

    for &threads in &thread_counts {
        for (name, policy) in policies {
            let (mis, mm) = in_pool(threads, || {
                (
                    prefix_mis(&graph, &pi, policy),
                    prefix_matching(&edges, &edge_pi, policy),
                )
            });
            assert_eq!(mis, mis_ref);
            assert_eq!(mm, mm_ref);
            println!("{threads:>2} thread(s), {name:<12} -> identical MIS and MM");
        }
        let rooted = in_pool(threads, || rootset_mis(&graph, &pi));
        assert_eq!(rooted, mis_ref);
        println!("{threads:>2} thread(s), root-set         -> identical MIS");
    }

    // Luby's algorithm is a correct MIS but a *different* one: it does not
    // correspond to any fixed sequential order.
    let luby = luby_mis(&graph, 99);
    assert!(verify_mis(&graph, &luby));
    println!(
        "\nLuby's algorithm: valid MIS of {} vertices, equal to the greedy result? {}",
        luby.len(),
        luby == mis_ref
    );
}
