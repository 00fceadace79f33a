//! # greedy-parallel
//!
//! Umbrella crate for the reproduction of *"Greedy Sequential Maximal
//! Independent Set and Matching are Parallel on Average"* (Blelloch, Fineman,
//! Shun; SPAA 2012).
//!
//! The workspace is organized as:
//!
//! * [`greedy_prims`] — the parallel primitives the workspace runs: random
//!   permutations, radix sort, pack, scan.
//! * [`greedy_graph`] — graph substrate: CSR graphs, edge lists,
//!   generators, line graphs.
//! * [`greedy_core`] — the paper's algorithms: sequential greedy MIS/MM,
//!   parallel-rounds, prefix-based (the matching by deterministic
//!   reservations), linear-work root-set implementations, the Luby baseline,
//!   verifiers, dependence-length analysis.
//! * [`greedy_apps`] — applications: graph coloring, task scheduling,
//!   vertex cover, and the sequential greedy spanning forest.
//! * [`greedy_engine`] — batch-dynamic maintenance of greedy MIS/matching
//!   under streaming edge-update batches.
//! * [`greedy_server`] — batching update/query TCP service over the engine
//!   (group-committed rounds, snapshot-published reads), with a write-ahead
//!   log, a delta feed for subscribers and a delta-folding replica.
//!
//! This crate re-exports those crates and provides a [`prelude`] so examples
//! and downstream users can `use greedy_parallel::prelude::*;`.
//!
//! ## Quickstart
//!
//! ```
//! use greedy_parallel::prelude::*;
//!
//! // A sparse uniform random graph.
//! let graph = random_graph(1_000, 5_000, 42);
//! // A random vertex order (the paper's permutation π).
//! let pi = random_permutation(graph.num_vertices(), 7);
//!
//! // Deterministic parallel greedy MIS with the default prefix policy.
//! let mis = prefix_mis(&graph, &pi, PrefixPolicy::default());
//! assert!(verify_mis(&graph, &mis));
//!
//! // It is exactly the sequential greedy result.
//! let seq = sequential_mis(&graph, &pi);
//! assert_eq!(mis, seq);
//! ```

pub use greedy_apps;
pub use greedy_core;
pub use greedy_engine;
pub use greedy_graph;
pub use greedy_prims;
pub use greedy_server;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use greedy_apps::coloring::greedy_coloring;
    pub use greedy_apps::scheduling::{schedule_tasks, TaskSchedule};
    pub use greedy_apps::spanning_forest::spanning_forest;
    pub use greedy_apps::vertex_cover::vertex_cover_from_matching;
    pub use greedy_core::analysis::{dependence_length, priority_dag_longest_path};
    pub use greedy_core::matching::prefix::{prefix_matching, prefix_matching_with_stats};
    pub use greedy_core::matching::rootset::rootset_matching;
    pub use greedy_core::matching::rounds::rounds_matching;
    pub use greedy_core::matching::sequential::sequential_matching;
    pub use greedy_core::matching::verify::{verify_matching, verify_maximal_matching};
    pub use greedy_core::mis::luby::luby_mis;
    pub use greedy_core::mis::prefix::{prefix_mis, prefix_mis_with_stats, PrefixPolicy};
    pub use greedy_core::mis::rootset::rootset_mis;
    pub use greedy_core::mis::rounds::rounds_mis;
    pub use greedy_core::mis::sequential::sequential_mis;
    pub use greedy_core::mis::verify::{verify_mis, verify_same_set};
    pub use greedy_core::ordering::{random_edge_permutation, random_permutation};
    pub use greedy_core::stats::WorkStats;
    pub use greedy_engine::prelude::{
        BatchReport, DynGraph, EdgeBatch, Engine, EngineStats, ServerSnapshot, Snapshot,
    };
    pub use greedy_graph::csr::Graph;
    pub use greedy_graph::edge_list::EdgeList;
    pub use greedy_graph::gen::random::random_graph;
    pub use greedy_graph::gen::rmat::{rmat_graph, RmatParams};
    pub use greedy_graph::gen::structured::{
        complete_graph, cycle_graph, grid_graph, path_graph, star_graph,
    };
    pub use greedy_prims::permutation::Permutation;
}
