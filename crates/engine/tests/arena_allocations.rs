//! The arena's batch path allocates a bounded number of buffers per call,
//! whatever the batch size: [`DynGraph::insert_edges`] and
//! [`DynGraph::delete_edges`] walk the touched segments on the calling
//! thread, so neither allocates per touched vertex nor per parallel task.
//!
//! A counting `#[global_allocator]` sees every allocation in the process.
//! This file therefore holds exactly one test, so no other test allocates
//! while a call is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use greedy_engine::prelude::*;
use greedy_graph::edge_list::Edge;
use greedy_graph::gen::random::random_graph;
use greedy_prims::random::hash64;

/// Counts every call that hands out memory: `alloc`, `alloc_zeroed` and
/// `realloc`.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no memory it hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`, and
        // the caller's guarantees for `layout` and `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations one batch call that does not rebuild the arena may
/// make, at any batch size: a handful of per-call buffers, the returned
/// update list, and the rare growth of the arena tail by a relocation.
const MAX_ALLOCATIONS: usize = 16;

/// `len` distinct edges absent from `g`, hashed from `seed`.
fn fresh_batch(g: &DynGraph, len: usize, seed: u64) -> Vec<Edge> {
    let n = g.num_vertices() as u64;
    let mut batch: Vec<Edge> = Vec::with_capacity(len);
    let mut keys = std::collections::HashSet::new();
    for i in 0.. {
        if batch.len() == len {
            break;
        }
        let e = Edge::new(
            (hash64(seed, 2 * i) % n) as u32,
            (hash64(seed, 2 * i + 1) % n) as u32,
        )
        .canonical();
        if !e.is_self_loop() && !g.has_edge(e.u, e.v) && keys.insert(e.sort_key()) {
            batch.push(e);
        }
    }
    batch
}

/// Runs one batch call and returns `(allocations, rebuilt, edges applied)`.
fn counted(
    g: &mut DynGraph,
    call: impl FnOnce(&mut DynGraph) -> Vec<SlotUpdate>,
) -> (usize, bool, usize) {
    let rebuilds = g.rebuilds();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let applied = call(g).len();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    (allocations, g.rebuilds() != rebuilds, applied)
}

#[test]
fn batch_calls_allocate_a_bounded_number_of_buffers() {
    let graph = random_graph(100_000, 500_000, 42);
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon pool");
        pool.install(|| {
            let mut g = DynGraph::from_graph(&graph);
            let warm_up = fresh_batch(&g, 4_096, 1);
            assert_eq!(g.insert_edges(&warm_up).len(), warm_up.len());
            assert_eq!(g.delete_edges(&warm_up).len(), warm_up.len());
            for len in [64, 4_096] {
                let batch = fresh_batch(&g, len, len as u64);
                let insert = counted(&mut g, |g| g.insert_edges(&batch));
                let delete = counted(&mut g, |g| g.delete_edges(&batch));
                for (call, (allocations, rebuilt, applied)) in
                    [("insert", insert), ("delete", delete)]
                {
                    assert_eq!(
                        applied, len,
                        "{call} of {len} fresh edges at {threads} threads"
                    );
                    assert!(
                        rebuilt || allocations <= MAX_ALLOCATIONS,
                        "{call} of {len} edges at {threads} threads made {allocations} allocations \
                         (at most {MAX_ALLOCATIONS} allowed)"
                    );
                }
                assert!(
                    !(insert.1 && delete.1),
                    "both {len}-edge calls rebuilt the arena, so neither was checked"
                );
            }
        });
    }
}
