//! # greedy-graph
//!
//! Graph substrate for the `greedy-parallel` workspace: compact CSR graphs,
//! edge lists, graph generators and line graphs.
//!
//! The SPAA 2012 paper evaluates its algorithms on two inputs — a sparse
//! uniform random graph (n = 10⁷, m = 5·10⁷) and an R-MAT graph
//! (n = 2²⁴, m = 5·10⁷) with a power-law degree distribution. This crate
//! implements both generators (plus several structured graphs used as
//! adversarial test cases), the conversions between edge lists and CSR form,
//! and the line-graph construction used by the maximal-matching ↔ MIS
//! reduction.
//!
//! ## Representation
//!
//! * [`csr::Graph`] — an undirected graph in compressed-sparse-row form.
//!   Vertices are `u32` ids; each undirected edge `{u, v}` is stored as two
//!   directed arcs. The adjacency of every vertex is sorted, self-loops are
//!   dropped and parallel edges are merged at construction time.
//! * [`edge_list::EdgeList`] — a list of canonical undirected edges
//!   `(min, max)` together with the number of vertices; the form consumed by
//!   the maximal-matching algorithms (edge ids are indices into this list).
//!
//! ```
//! use greedy_graph::gen::random::random_graph;
//!
//! let g = random_graph(1_000, 4_000, 1);
//! assert_eq!(g.num_vertices(), 1_000);
//! assert!(g.num_edges() <= 4_000);
//! assert!(g.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod edge_list;
pub mod gen;
pub mod line_graph;

pub use csr::Graph;
pub use edge_list::EdgeList;
