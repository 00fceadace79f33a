//! Integration tests: results are independent of the rayon pool size — the
//! "internally deterministic" property the paper emphasizes — for MIS, MM,
//! and the applications built on them.

use greedy_parallel::prelude::*;

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

#[test]
fn mis_is_thread_count_independent() {
    let graph = random_graph(3_000, 15_000, 1);
    let pi = random_permutation(graph.num_vertices(), 2);
    let reference = sequential_mis(&graph, &pi);
    for threads in [1, 2, 3, 4, 8] {
        for policy in [PrefixPolicy::default(), PrefixPolicy::Fixed(1024)] {
            let result = in_pool(threads, || prefix_mis(&graph, &pi, policy));
            assert_eq!(
                result, reference,
                "MIS at {policy:?} changed with {threads} threads"
            );
        }
        let rooted = in_pool(threads, || rootset_mis(&graph, &pi));
        assert_eq!(
            rooted, reference,
            "root-set MIS changed with {threads} threads"
        );
    }
}

#[test]
fn matching_is_thread_count_independent() {
    // Prefixes above the pool's splitting grain make the filter pass collect
    // its survivors from parts of uneven length at the odd thread counts, and
    // the R-MAT hubs make many edges of one step contend for the same cell.
    let inputs = [
        (
            "random",
            random_graph(2_000, 8_000, 3).to_edge_list(),
            [PrefixPolicy::default(), PrefixPolicy::Fixed(1024)],
        ),
        (
            "rmat",
            rmat_graph(12, 20_000, 13).to_edge_list(),
            [
                PrefixPolicy::Fixed(1024),
                PrefixPolicy::FractionOfInput(1.0),
            ],
        ),
    ];
    let mut thread_counts = sweep_threads();
    thread_counts.extend([4, 8]);
    thread_counts.sort_unstable();
    thread_counts.dedup();
    for (graph, edges, policies) in &inputs {
        let pi = random_edge_permutation(edges.num_edges(), 4);
        let reference = sequential_matching(edges, &pi);
        for &threads in &thread_counts {
            for &policy in policies {
                let result = in_pool(threads, || prefix_matching(edges, &pi, policy));
                assert_eq!(
                    result, reference,
                    "matching on {graph} at {policy:?} changed with {threads} threads"
                );
            }
            let rooted = in_pool(threads, || rootset_matching(edges, &pi));
            assert_eq!(
                rooted, reference,
                "root-set matching on {graph} changed with {threads} threads"
            );
        }
    }
}

#[test]
fn luby_with_fixed_seed_is_thread_count_independent() {
    // Luby re-randomizes per round, but our per-(round, vertex) hashing makes
    // it deterministic for a fixed seed regardless of schedule.
    let graph = random_graph(2_000, 8_000, 5);
    let reference = in_pool(1, || luby_mis(&graph, 6));
    for threads in [2, 4] {
        assert_eq!(in_pool(threads, || luby_mis(&graph, 6)), reference);
    }
}

#[test]
fn coloring_and_schedule_are_thread_count_independent() {
    let graph = random_graph(1_500, 6_000, 7);
    let coloring_ref = in_pool(1, || greedy_coloring(&graph, 8));
    let schedule_ref = in_pool(1, || schedule_tasks(&graph, 9));
    for threads in [2, 4] {
        assert_eq!(
            in_pool(threads, || greedy_coloring(&graph, 8)),
            coloring_ref
        );
        assert_eq!(in_pool(threads, || schedule_tasks(&graph, 9)), schedule_ref);
    }
}

#[test]
fn generators_are_thread_count_independent() {
    let a = in_pool(1, || random_graph(5_000, 20_000, 11));
    let b = in_pool(4, || random_graph(5_000, 20_000, 11));
    assert_eq!(a, b, "uniform generator must not depend on thread count");
    let a = in_pool(1, || rmat_graph(12, 20_000, 11));
    let b = in_pool(4, || rmat_graph(12, 20_000, 11));
    assert_eq!(a, b, "rMat generator must not depend on thread count");
    let a = in_pool(1, || random_permutation(10_000, 3));
    let b = in_pool(4, || random_permutation(10_000, 3));
    assert_eq!(a, b, "permutation must not depend on thread count");
}

/// Thread counts the sort-subsystem determinism tests sweep: 1, 2, 3, 7, and
/// whatever this machine reports as its available parallelism.
fn sweep_threads() -> Vec<usize> {
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t = vec![1, 2, 3, 7, machine];
    t.sort_unstable();
    t.dedup();
    t
}

/// The work counters of the prefix solvers depend only on the input, the
/// order and the prefix size: every step decides from what the previous
/// phase published, never from a write racing in the same phase.
#[test]
fn work_counters_are_thread_count_independent() {
    let graph = random_graph(20_000, 100_000, 29);
    let edges = graph.to_edge_list();
    let pi = random_permutation(graph.num_vertices(), 30);
    let edge_pi = random_edge_permutation(edges.num_edges(), 31);
    let counters = || {
        let mut stats = vec![
            prefix_matching_with_stats(&edges, &edge_pi, PrefixPolicy::default()).1,
            prefix_matching_with_stats(&edges, &edge_pi, PrefixPolicy::Fixed(64)).1,
            prefix_mis_with_stats(&graph, &pi, PrefixPolicy::default()).1,
            prefix_mis_with_stats(&graph, &pi, PrefixPolicy::Fixed(64)).1,
        ];
        for granularity in [2_000, 20_000] {
            let policy = PrefixPolicy::Fixed(granularity);
            stats.push(prefix_matching_with_stats(&edges, &edge_pi, policy).1);
            stats.push(prefix_mis_with_stats(&graph, &pi, policy).1);
        }
        stats
    };
    let reference = in_pool(1, counters);
    for threads in sweep_threads() {
        for _ in 0..5 {
            assert_eq!(
                in_pool(threads, counters),
                reference,
                "work counters changed with {threads} threads"
            );
        }
    }
}

#[test]
fn par_random_permutation_is_byte_identical_across_thread_counts() {
    let reference = in_pool(1, || {
        greedy_prims::permutation::par_random_permutation(50_000, 17)
    });
    for threads in sweep_threads() {
        let p = in_pool(threads, || {
            greedy_prims::permutation::par_random_permutation(50_000, 17)
        });
        assert_eq!(
            p.order(),
            reference.order(),
            "permutation order changed with {threads} threads"
        );
        assert_eq!(
            p.rank(),
            reference.rank(),
            "permutation rank changed with {threads} threads"
        );
    }
}

#[test]
fn csr_build_is_byte_identical_across_thread_counts() {
    // Generate the raw edges once, outside any pool, then build CSR at every
    // pool size: offsets and neighbor arrays must match exactly.
    let edges = greedy_graph::gen::random::random_edge_list(20_000, 80_000, 23);
    let reference = in_pool(1, || greedy_graph::csr::Graph::from_edge_list(&edges));
    for threads in sweep_threads() {
        let g = in_pool(threads, || greedy_graph::csr::Graph::from_edge_list(&edges));
        assert_eq!(
            g.offsets(),
            reference.offsets(),
            "CSR offsets changed with {threads} threads"
        );
        assert_eq!(
            g.neighbor_array(),
            reference.neighbor_array(),
            "CSR neighbors changed with {threads} threads"
        );
    }
}

#[test]
fn parallel_sorts_are_byte_identical_across_thread_counts() {
    use greedy_prims::random::hash64;
    use greedy_prims::sort::sort_by_key_parallel;

    // Duplicate-heavy keyed records: stability makes the answer unique, so
    // every thread count must produce the same bytes: those of std's stable
    // sort.
    let input: Vec<(u64, u32)> = (0..120_000u32)
        .map(|i| (hash64(5, i as u64) % 997, i))
        .collect();
    let mut expected = input.clone();
    expected.sort_by_key(|&(k, _)| k);
    for threads in sweep_threads() {
        let radix = in_pool(threads, || {
            let mut v = input.clone();
            sort_by_key_parallel(&mut v, |&(k, _)| k);
            v
        });
        assert_eq!(radix, expected, "radix sort changed with {threads} threads");
    }
}

#[test]
fn engine_state_is_byte_identical_across_thread_counts() {
    use greedy_prims::random::hash64;

    // Replay the same update stream through a fresh engine at every pool
    // size: the snapshots (graph arrays, MIS, matching) and every per-batch
    // report must match byte for byte. Batches are built from the engine's
    // evolving state (deletions drawn from currently *present* edges so the
    // delete-merge and deletion-repair paths really run); that construction
    // is itself deterministic, so every pool size replays the same stream —
    // and if it ever did not, the final state comparison would catch it.
    let base = random_graph(3_000, 9_000, 31);
    let run = |threads: usize| {
        in_pool(threads, || {
            let mut engine = Engine::from_graph(&base, 7);
            let reports: Vec<BatchReport> = (0..6u64)
                .map(|round| {
                    let mut batch = EdgeBatch::new();
                    for i in 0..50 {
                        batch.insert(
                            (hash64(91, round * 100 + 2 * i) % 3_000) as u32,
                            (hash64(91, round * 100 + 2 * i + 1) % 3_000) as u32,
                        );
                    }
                    for i in 0..30 {
                        let x = (hash64(92, round * 100 + 2 * i) % 3_000) as u32;
                        let adj = engine.graph().neighbors(x);
                        if !adj.is_empty() {
                            let w = adj
                                [(hash64(92, round * 100 + 2 * i + 1) % adj.len() as u64) as usize];
                            batch.delete(x, w);
                        }
                    }
                    engine.apply_batch(&batch)
                })
                .collect();
            (engine.snapshot(), reports)
        })
    };
    let (reference_snapshot, reference_reports) = run(1);
    for threads in sweep_threads() {
        let (snapshot, reports) = run(threads);
        assert_eq!(
            snapshot.graph.offsets(),
            reference_snapshot.graph.offsets(),
            "engine graph offsets changed with {threads} threads"
        );
        assert_eq!(
            snapshot.graph.neighbor_array(),
            reference_snapshot.graph.neighbor_array(),
            "engine graph neighbors changed with {threads} threads"
        );
        assert_eq!(
            snapshot.mis, reference_snapshot.mis,
            "engine MIS changed with {threads} threads"
        );
        assert_eq!(
            snapshot.matching, reference_snapshot.matching,
            "engine matching changed with {threads} threads"
        );
        assert_eq!(
            reports, reference_reports,
            "engine batch reports changed with {threads} threads"
        );
    }
}

#[test]
fn matching_slot_deltas_are_thread_count_independent() {
    use greedy_prims::random::hash64;

    // The per-batch matching deltas are keyed by stable slot ids. Slot
    // allocation (free-list recycling included) and the round-machinery
    // repair must both be schedule-independent, so the full (slot, edge,
    // membership) delta stream has to match byte for byte at every pool
    // size — this is what lets downstream consumers correlate flips across
    // rounds without re-deriving hashed edge keys.
    let base = random_graph(1_000, 3_000, 19);
    let run = |threads: usize| {
        in_pool(threads, || {
            let mut engine = Engine::from_graph(&base, 5);
            (0..8u64)
                .map(|round| {
                    let mut batch = EdgeBatch::new();
                    for i in 0..40 {
                        batch.insert(
                            (hash64(71, round * 100 + 2 * i) % 1_000) as u32,
                            (hash64(71, round * 100 + 2 * i + 1) % 1_000) as u32,
                        );
                    }
                    // Deletions drawn from the *matched* edges so the
                    // deletion-repair path (freed slots + reseeded
                    // neighborhoods) runs every round.
                    let matched = engine.matching();
                    for i in 0..10u64 {
                        if !matched.is_empty() {
                            let e = matched
                                [(hash64(72, round * 100 + i) % matched.len() as u64) as usize];
                            batch.delete(e.u, e.v);
                        }
                    }
                    engine.apply_batch(&batch).matching_changed
                })
                .collect::<Vec<_>>()
        })
    };
    let reference = run(1);
    assert!(
        reference.iter().any(|deltas| !deltas.is_empty()),
        "the stream never flipped a matching edge — the test is vacuous"
    );
    for threads in sweep_threads() {
        assert_eq!(
            run(threads),
            reference,
            "matching slot deltas changed with {threads} threads"
        );
    }
}

#[test]
fn delta_stream_folds_identically_at_every_thread_count() {
    use greedy_prims::random::hash64;
    use greedy_server::prelude::{FullDelta, ReplicaState};

    // End-to-end over the serving delta path: the per-round wire deltas are
    // byte-identical at every pool size, and folding them over the round-0
    // snapshot reproduces the engine's copy-on-write published snapshot
    // after every round — the replica a push subscriber reconstructs is the
    // same bytes no matter how the repairs were scheduled.
    let base = random_graph(2_500, 8_000, 43);
    let run = |threads: usize| {
        in_pool(threads, || {
            let mut engine = Engine::from_graph(&base, 11);
            let round0 = engine.server_snapshot();
            let mut replica = ReplicaState::from_snapshot(0, &round0);
            let mut frames = Vec::new();
            for round in 1..=6u64 {
                let mut batch = EdgeBatch::new();
                for i in 0..60 {
                    batch.insert(
                        (hash64(95, round * 200 + 2 * i) % 2_500) as u32,
                        (hash64(95, round * 200 + 2 * i + 1) % 2_500) as u32,
                    );
                }
                for i in 0..20u64 {
                    let matched = engine.matching();
                    if !matched.is_empty() {
                        let e =
                            matched[(hash64(96, round * 200 + i) % matched.len() as u64) as usize];
                        batch.delete(e.u, e.v);
                    }
                }
                let report = engine.apply_batch(&batch);
                let frame = FullDelta::from_report(round, &report).to_wire();
                replica.fold(&frame).expect("contiguous stream must fold");
                assert_eq!(
                    replica.to_snapshot(),
                    engine.server_snapshot(),
                    "folded replica diverged at round {round} ({threads} threads)"
                );
                frames.push(frame);
            }
            frames
        })
    };
    let reference = run(1);
    assert!(
        reference
            .iter()
            .any(|f| !f.mis_flips.is_empty() && !f.match_flips.is_empty()),
        "the stream never flipped anything — the test is vacuous"
    );
    for threads in sweep_threads() {
        assert_eq!(
            run(threads),
            reference,
            "delta frames changed with {threads} threads"
        );
    }
}
