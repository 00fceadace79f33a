//! Maximal matching algorithms.
//!
//! All implementations take an [`greedy_graph::edge_list::EdgeList`] (edge
//! ids are indices into the list) and a priority permutation π over the edge
//! ids, and return the matching as a sorted `Vec<u32>` of edge ids. The
//! [`sequential`] loop, the [`prefix`] solver and the [`rootset`] form of
//! Algorithm 4 all return the same matching — the one the sequential greedy
//! algorithm produces for π — while [`reduction`] recomputes it through the
//! MIS-on-the-line-graph reduction as a test oracle.

pub mod prefix;
pub mod reduction;
pub mod rootset;
pub mod sequential;
pub mod verify;
