//! # greedy-engine
//!
//! A batch-dynamic maintenance engine for the greedy MIS and maximal
//! matching of *"Greedy Sequential Maximal Independent Set and Matching are
//! Parallel on Average"* (Blelloch, Fineman, Shun; SPAA 2012).
//!
//! The paper's central fact makes dynamic maintenance both possible and
//! checkable: under **fixed random priorities** the greedy MIS/matching is
//! *unique* — the lexicographically-first solution — so after any batch of
//! edge insertions and deletions there is exactly one correct repaired state,
//! and it must equal a from-scratch greedy run on the new graph. This crate
//! maintains that state incrementally, in the bulk-synchronous
//! pseudo-streaming style: updates arrive as batches, each batch is applied
//! atomically, and only the *affected* part of the solution is recomputed.
//!
//! ## Pieces
//!
//! * [`dyn_graph::DynGraph`] — a flat **slack-CSR** arena (per-vertex
//!   segments with PMA-style gaps behind one packed header per vertex,
//!   local in-segment shuffles on insert, amortized parallel rebuilds on
//!   overflow). A batch insert or delete is one pass on the calling thread
//!   over the batch's arcs sorted by `(source, target)`, with no per-vertex
//!   allocation; only the rebuild fans out over threads. Convertible
//!   to/from [`greedy_graph::csr::Graph`]. A free-list allocator gives
//!   every live edge a **stable dense slot id** that survives unrelated
//!   batches;
//! * [`priority`] — the orders the states are maintained under: vertices by
//!   their rank in the hashed vertex permutation π, edges by an
//!   update-stable hash of their endpoint pair. Both are materialized as
//!   [`greedy_prims::permutation::Permutation`]s for the static algorithms:
//!   the engine's initial build runs the prefix solvers under them, and the
//!   tests run the sequential oracles;
//! * incremental repair — MIS *and* matching both ride the reusable round
//!   machinery [`greedy_core::dag::repair_fixed_point`] (the rounds
//!   algorithm generalized to a dirty frontier) and share one
//!   [`greedy_core::dag::RepairScratch`]: the stable slot ids make the
//!   matching a [`greedy_core::dag::ConflictDag`] over dense edge items,
//!   retiring the old sequential priority-heap repair;
//! * [`engine::Engine`] — the service-facing facade:
//!   [`apply_batch`](engine::Engine::apply_batch) /
//!   [`snapshot`](engine::Engine::snapshot) /
//!   [`stats`](engine::Engine::stats), reporting per-batch changed-vertex
//!   deltas and changed-edge deltas keyed by stable slot id.
//!
//! ## Example
//!
//! ```
//! use greedy_engine::prelude::*;
//! use greedy_graph::gen::random::random_graph;
//!
//! let mut engine = Engine::from_graph(&random_graph(1_000, 3_000, 7), 42);
//! let mut batch = EdgeBatch::new();
//! batch.insert(0, 500).insert(1, 501).delete(0, 500);
//! let report = engine.apply_batch(&batch);
//! assert!(report.edges_inserted <= 2);
//!
//! // The maintained state is exactly the from-scratch greedy result.
//! let snap = engine.snapshot();
//! assert_eq!(snap.mis, {
//!     use greedy_core::mis::sequential::sequential_mis;
//!     let pi = vertex_permutation(engine.num_vertices(), engine.seed());
//!     sequential_mis(&snap.graph, &pi)
//! });
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dyn_graph;
pub mod engine;
pub mod matching;
pub mod metrics;
mod mis;
pub mod priority;
pub mod snapshot;

/// Commonly used items.
pub mod prelude {
    pub use crate::dyn_graph::{DynGraph, RebuildTrigger, SlotUpdate};
    pub use crate::engine::{BatchReport, BatchTimings, EdgeBatch, Engine, EngineStats, Snapshot};
    pub use crate::matching::MatchDelta;
    pub use crate::metrics::EngineMetrics;
    pub use crate::priority::{edge_permutation, edge_priority, vertex_permutation};
    pub use crate::snapshot::ServerSnapshot;
}
