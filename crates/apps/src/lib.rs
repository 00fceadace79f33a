//! # greedy-apps
//!
//! Applications built on the deterministic parallel greedy MIS/MM algorithms
//! of `greedy-core`:
//!
//! * [`coloring`] — greedy graph coloring by iterated MIS (the classic use of
//!   MIS as a subroutine), deterministic for a fixed seed.
//! * [`scheduling`] — the paper's motivating example: vertices are tasks,
//!   edges are conflicts, and each MIS layer is a batch of tasks that can run
//!   concurrently.
//! * [`vertex_cover`] — the textbook 2-approximate vertex cover obtained from
//!   a maximal matching.
//! * [`spanning_forest`] — the sequential greedy spanning forest, the problem
//!   the paper's conclusion names for its technique next ("we believe our
//!   approach can be applied to sequential greedy algorithms for other
//!   problems, e.g. spanning forest"); it has no parallel version yet.
//! * [`union_find`] — the union–find substrate used by the spanning forest.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coloring;
pub mod scheduling;
pub mod spanning_forest;
pub mod union_find;
pub mod vertex_cover;
