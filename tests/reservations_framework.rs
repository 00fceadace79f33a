//! Integration tests for the deterministic-reservations framework as a
//! *generic* tool: a user-defined greedy loop (first-come bucket claiming,
//! i.e. greedy hashing with collisions resolved in priority order) must give
//! exactly the sequential loop's answer for every granularity, and the
//! reservation-based MIS/MM backends must stay consistent with the paper's
//! core implementations under thread-pool changes.

use std::sync::atomic::{AtomicU32, Ordering};

use greedy_core::reservations::reserve_cell::ReserveTable;
use greedy_core::reservations::speculative_for::{speculative_for, ReservationStep};
use greedy_parallel::prelude::*;

/// Greedy bucket claiming: item `i` wants bucket `want[i]`; processing items
/// in order, an item gets its bucket iff no earlier item already took it.
struct BucketClaim<'a> {
    want: &'a [u32],
    cells: ReserveTable,
    owner: Vec<AtomicU32>,
}

impl ReservationStep for BucketClaim<'_> {
    fn reserve(&self, i: usize) -> bool {
        let b = self.want[i] as usize;
        if self.owner[b].load(Ordering::SeqCst) != u32::MAX {
            return true; // bucket already taken by an earlier item
        }
        self.cells.reserve(b, i as u64);
        true
    }

    fn commit(&self, i: usize) -> bool {
        let b = self.want[i] as usize;
        if self.owner[b].load(Ordering::SeqCst) != u32::MAX {
            if self.cells.holds(b, i as u64) {
                self.cells.reset(b);
            }
            return true; // lost: an earlier item owns the bucket
        }
        if self.cells.holds(b, i as u64) {
            self.owner[b].store(i as u32, Ordering::SeqCst);
            self.cells.reset(b);
            true
        } else {
            false
        }
    }
}

fn sequential_bucket_claim(want: &[u32], num_buckets: usize) -> Vec<u32> {
    let mut owner = vec![u32::MAX; num_buckets];
    for (i, &b) in want.iter().enumerate() {
        if owner[b as usize] == u32::MAX {
            owner[b as usize] = i as u32;
        }
    }
    owner
}

#[test]
fn custom_greedy_loop_matches_sequential_for_every_granularity() {
    let num_buckets = 64;
    let want: Vec<u32> = (0..2_000u64)
        .map(|i| (greedy_prims::random::hash64(3, i) % num_buckets as u64) as u32)
        .collect();
    let expected = sequential_bucket_claim(&want, num_buckets);

    for granularity in [1usize, 5, 64, 500, 4_000] {
        let step = BucketClaim {
            want: &want,
            cells: ReserveTable::new(num_buckets),
            owner: (0..num_buckets).map(|_| AtomicU32::new(u32::MAX)).collect(),
        };
        let stats = speculative_for(&step, want.len(), granularity);
        let got: Vec<u32> = step
            .owner
            .iter()
            .map(|o| o.load(Ordering::SeqCst))
            .collect();
        assert_eq!(got, expected, "granularity {granularity}");
        assert!(stats.vertex_work >= want.len() as u64);
    }
}

#[test]
fn reservation_backends_agree_with_core_across_pools() {
    let graph = random_graph(2_000, 8_000, 1);
    let edges = graph.to_edge_list();
    let pi = random_permutation(graph.num_vertices(), 2);
    let edge_pi = random_edge_permutation(edges.num_edges(), 3);
    let mis_ref = sequential_mis(&graph, &pi);
    let mm_ref = sequential_matching(&edges, &edge_pi);

    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let (mis, mm) = pool.install(|| {
            (
                reservation_mis(&graph, &pi),
                reservation_matching(&edges, &edge_pi),
            )
        });
        assert_eq!(mis, mis_ref, "{threads} threads");
        assert_eq!(mm, mm_ref, "{threads} threads");
    }
}

#[test]
fn reservation_mis_handles_adversarial_structures() {
    use greedy_core::ordering::identity_permutation;
    for graph in [
        complete_graph(50),
        star_graph(200),
        path_graph(300),
        Graph::empty(20),
    ] {
        let pi = identity_permutation(graph.num_vertices());
        assert_eq!(reservation_mis(&graph, &pi), sequential_mis(&graph, &pi));
        let pi = random_permutation(graph.num_vertices(), 9);
        assert_eq!(reservation_mis(&graph, &pi), sequential_mis(&graph, &pi));
    }
}
