//! # greedy-core
//!
//! The algorithms of *"Greedy Sequential Maximal Independent Set and Matching
//! are Parallel on Average"* (Blelloch, Fineman, Shun; SPAA 2012).
//!
//! ## Maximal independent set (MIS)
//!
//! Given an undirected graph `G` and a total order π on its vertices, the
//! sequential greedy algorithm repeatedly takes the earliest remaining vertex,
//! adds it to the MIS, and removes it and its neighbors. The set it returns is
//! the *lexicographically first* MIS for π. This crate provides three
//! implementations that all return **exactly that same set**:
//!
//! * [`mis::sequential::sequential_mis`] — Algorithm 1, the plain loop.
//! * [`mis::prefix::prefix_mis`] — Algorithm 3: rounds operate on a prefix of
//!   the remaining vertices, trading extra work for parallelism. This is the
//!   implementation the paper uses for its experiments.
//! * [`mis::rootset::rootset_mis`] — Algorithm 2 in linear work (Lemma 4.2):
//!   every vertex is decided as soon as all of its earlier neighbors are
//!   decided, with the root set of the priority DAG kept explicitly. Its
//!   step count is the *dependence length* of (G, π).
//!
//! [`mis::luby::luby_mis`] implements Luby's Algorithm A as the comparison
//! baseline (it returns a valid MIS, but not the lexicographically first one).
//!
//! ## Maximal matching (MM)
//!
//! The same family for maximal matching on a random edge order
//! (Algorithm 4): [`matching::sequential::sequential_matching`],
//! [`matching::prefix::prefix_matching`] and the linear-work
//! [`matching::rootset::rootset_matching`] (Lemma 5.3), plus the line-graph
//! reduction [`matching::reduction::matching_via_line_graph`] used as a test
//! oracle.
//!
//! ## Analysis
//!
//! [`analysis`] measures the quantities the paper's theory bounds: the
//! dependence length of the priority DAG and the length of its longest
//! directed path (Theorem 3.5).
//!
//! ```
//! use greedy_core::prelude::*;
//! use greedy_graph::gen::random::random_graph;
//!
//! let g = random_graph(500, 2_000, 1);
//! let pi = random_permutation(g.num_vertices(), 7);
//!
//! let seq = sequential_mis(&g, &pi);
//! let par = prefix_mis(&g, &pi, PrefixPolicy::default());
//! assert_eq!(seq, par);               // determinism: same set, any schedule
//! assert!(verify_mis(&g, &par));      // independent and maximal
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod dag;
pub mod matching;
pub mod mis;
pub mod ordering;
pub mod stats;

/// Commonly used items.
pub mod prelude {
    pub use crate::analysis::{dependence_length, priority_dag_longest_path};
    pub use crate::dag::{greedy_from_scratch, repair_fixed_point, ConflictDag, RepairStats};
    pub use crate::matching::prefix::{prefix_matching, prefix_matching_with_stats};
    pub use crate::matching::rootset::rootset_matching;
    pub use crate::matching::sequential::sequential_matching;
    pub use crate::matching::verify::{verify_matching, verify_maximal_matching};
    pub use crate::mis::luby::luby_mis;
    pub use crate::mis::prefix::{prefix_mis, prefix_mis_with_stats, PrefixPolicy};
    pub use crate::mis::rootset::rootset_mis;
    pub use crate::mis::sequential::sequential_mis;
    pub use crate::mis::verify::{verify_mis, verify_same_set};
    pub use crate::ordering::{random_edge_permutation, random_permutation};
    pub use crate::stats::WorkStats;
    pub use greedy_prims::permutation::Permutation;
}
