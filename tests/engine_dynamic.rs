//! Integration tests for the batch-dynamic engine: after every batch of edge
//! insertions/deletions, the incrementally repaired MIS and matching must
//! equal a from-scratch run of the static greedy algorithms on the updated
//! graph — the uniqueness property that makes incremental maintenance
//! verifiable at all.
//!
//! The property test sweeps 120 random (graph, seed, update-stream) cases of
//! 10 mixed batches each — 1,200 batches total — and the R-MAT / uniform
//! tests add power-law and sparse-uniform topologies at larger sizes.

use greedy_engine::prelude::*;
use greedy_graph::edge_list::Edge;
use greedy_parallel::prelude::*;
use greedy_prims::random::hash64;
use proptest::prelude::*;

/// Asserts the engine's maintained states equal the from-scratch greedy
/// results on its current graph, and that they verify as MIS / maximal
/// matching.
fn assert_equals_scratch(engine: &Engine, context: &str) {
    let snap = engine.snapshot();
    let pi = vertex_permutation(engine.num_vertices(), engine.seed());
    let expected_mis = sequential_mis(&snap.graph, &pi);
    assert_eq!(snap.mis, expected_mis, "MIS != scratch ({context})");
    assert!(
        verify_mis(&snap.graph, &snap.mis),
        "invalid MIS ({context})"
    );

    let el = snap.graph.to_edge_list();
    let pe = edge_permutation(engine.seed(), &el);
    let ids = sequential_matching(&el, &pe);
    let mut expected_matching: Vec<Edge> = ids.iter().map(|&id| el.edge(id as usize)).collect();
    expected_matching.sort_unstable_by_key(|e| e.sort_key());
    assert_eq!(
        snap.matching, expected_matching,
        "matching != scratch ({context})"
    );
    assert!(
        verify_maximal_matching(&el, &ids),
        "invalid matching ({context})"
    );
}

/// One deterministic mixed batch: `n_ins` random insertions plus `n_del`
/// deletions of currently present edges (when any exist).
fn mixed_batch(engine: &Engine, stream_seed: u64, round: u64, n_ins: u64, n_del: u64) -> EdgeBatch {
    let n = engine.num_vertices() as u64;
    let mut batch = EdgeBatch::new();
    for i in 0..n_ins {
        let u = hash64(stream_seed, round * 1_000 + 2 * i) % n;
        let v = hash64(stream_seed, round * 1_000 + 2 * i + 1) % n;
        batch.insert(u as u32, v as u32);
    }
    let present = engine.graph().to_edge_list().into_parts().1;
    if !present.is_empty() {
        for i in 0..n_del {
            let e = present[(hash64(stream_seed ^ 0xDE1E7E, round * 1_000 + i)
                % present.len() as u64) as usize];
            batch.delete(e.u, e.v);
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]
    #[test]
    fn prop_engine_equals_scratch_under_mixed_batches(
        n in 4usize..80,
        m in 0usize..160,
        seed in any::<u64>(),
    ) {
        let mut engine = Engine::from_graph(&random_graph(n, m, seed), seed ^ 0xBA7C4);
        assert_equals_scratch(&engine, "initial");
        for round in 0..10u64 {
            let batch = mixed_batch(&engine, seed, round, 12, 6);
            let before_mis = engine.mis();
            let before_matching = engine.matching();
            let report = engine.apply_batch(&batch);
            assert_equals_scratch(&engine, &format!("n={n} m={m} seed={seed} round={round}"));

            // The reported deltas are exactly the symmetric differences.
            let after_mis = engine.mis();
            let mis_diff: Vec<u32> = (0..n as u32)
                .filter(|v| before_mis.binary_search(v).is_ok() != after_mis.binary_search(v).is_ok())
                .collect();
            prop_assert_eq!(&report.mis_changed, &mis_diff);
            let after_matching = engine.matching();
            let mut matching_diff: Vec<Edge> = before_matching
                .iter()
                .filter(|e| !after_matching.contains(e))
                .chain(after_matching.iter().filter(|e| !before_matching.contains(e)))
                .copied()
                .collect();
            matching_diff.sort_unstable_by_key(|e| e.sort_key());
            let mut reported: Vec<Edge> =
                report.matching_changed.iter().map(|d| d.edge).collect();
            reported.sort_unstable_by_key(|e| e.sort_key());
            prop_assert_eq!(&reported, &matching_diff);
            // Each delta's slot id resolves back to its edge (stable-id
            // contract), and its membership flag matches the new state.
            for d in &report.matching_changed {
                prop_assert_eq!(d.matched, after_matching.contains(&d.edge));
                if d.matched {
                    prop_assert_eq!(engine.graph().slot_edge(d.slot), Some(d.edge));
                }
            }
        }
    }
}

#[test]
fn engine_equals_scratch_on_rmat_stream() {
    // Power-law topology: high-degree hubs stress the repair frontiers.
    let g = rmat_graph(10, 3_000, 13);
    let mut engine = Engine::from_graph(&g, 21);
    assert_equals_scratch(&engine, "rmat initial");
    for round in 0..12u64 {
        let batch = mixed_batch(&engine, 0x5EED, round, 40, 25);
        engine.apply_batch(&batch);
        assert_equals_scratch(&engine, &format!("rmat round {round}"));
    }
    assert_eq!(engine.stats().batches, 12);
}

#[test]
fn engine_equals_scratch_on_uniform_stream() {
    let g = random_graph(2_000, 6_000, 17);
    let mut engine = Engine::from_graph(&g, 23);
    assert_equals_scratch(&engine, "uniform initial");
    for round in 0..8u64 {
        let batch = mixed_batch(&engine, 0xFEED, round, 60, 40);
        let report = engine.apply_batch(&batch);
        assert_equals_scratch(&engine, &format!("uniform round {round}"));
        // Incrementality: a small batch must not re-decide the whole graph.
        assert!(
            report.mis_repair.decided < engine.num_vertices() as u64,
            "round {round}: repair re-decided {} of {} vertices",
            report.mis_repair.decided,
            engine.num_vertices()
        );
    }
}

#[test]
fn engine_grows_from_empty_to_dense_and_back() {
    let n = 60;
    let mut engine = Engine::new(n, 3);
    assert_equals_scratch(&engine, "empty");
    // Grow to the complete graph in batches of rows, checking each step.
    for u in 0..n as u32 {
        let batch = EdgeBatch::from_pairs((u + 1..n as u32).map(|v| (u, v)), []);
        engine.apply_batch(&batch);
    }
    assert_equals_scratch(&engine, "complete");
    assert_eq!(engine.num_edges(), n * (n - 1) / 2);
    assert_eq!(engine.mis().len(), 1, "complete graph has a singleton MIS");
    // Drain it again.
    let all: Vec<(u32, u32)> = engine
        .graph()
        .to_edge_list()
        .edges()
        .iter()
        .map(|e| (e.u, e.v))
        .collect();
    engine.apply_batch(&EdgeBatch::from_pairs([], all));
    assert_equals_scratch(&engine, "drained");
    assert_eq!(engine.mis().len(), n);
}

#[test]
fn from_graph_equals_one_batch_build() {
    // `Engine::from_graph` builds both states with the static prefix
    // solvers; an empty engine that receives every edge in one batch gets
    // them from the repair driver. The greedy fixed point is unique, so the
    // two must agree, serving export included.
    let mut graphs: Vec<(String, Graph)> = (0..4)
        .map(|s| (format!("random seed {s}"), random_graph(2_000, 8_000, s)))
        .collect();
    graphs.extend([
        ("rmat".to_string(), rmat_graph(11, 8_000, 5)),
        ("complete".to_string(), complete_graph(60)),
        ("star".to_string(), star_graph(300)),
        ("path".to_string(), path_graph(500)),
        ("edgeless".to_string(), Graph::empty(40)),
        (
            "single edge".to_string(),
            Graph::from_edges(2, &[Edge::new(0, 1)]),
        ),
    ]);
    for (i, (name, g)) in graphs.iter().enumerate() {
        let seed = 0xC0FFEE + i as u64;
        let built = Engine::from_graph(g, seed);
        assert_equals_scratch(&built, name);

        let mut batched = Engine::new(g.num_vertices(), seed);
        let all = g.to_edge_list().into_parts().1;
        batched.apply_batch(&EdgeBatch {
            insertions: all,
            deletions: Vec::new(),
        });
        assert_eq!(built.mis(), batched.mis(), "MIS ({name})");
        assert_eq!(built.matching(), batched.matching(), "matching ({name})");
        assert_eq!(
            built.server_snapshot(),
            batched.server_snapshot(),
            "serving export ({name})"
        );
    }
}
