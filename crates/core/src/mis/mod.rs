//! Maximal independent set algorithms.
//!
//! All implementations take a CSR [`greedy_graph::csr::Graph`] and a priority
//! permutation π over its vertices, and return the set of MIS vertices as a
//! sorted `Vec<u32>`. The [`sequential`] loop (Algorithm 1), the
//! [`prefix`] solver (Algorithm 3) and the [`rootset`] form of Algorithm 2
//! all return the lexicographically-first MIS for π — the same set
//! regardless of schedule, prefix size, or thread count — while [`luby`]
//! returns some valid MIS (the comparison baseline).

pub mod luby;
pub mod prefix;
pub mod rootset;
pub mod sequential;
pub mod verify;

/// The decision state of a vertex during MIS construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VertexState {
    /// Not yet decided.
    Undecided,
    /// Accepted into the MIS.
    In,
    /// Rejected: some neighbor is in the MIS.
    Out,
}

/// Collects the vertices marked [`VertexState::In`], sorted ascending.
pub(crate) fn collect_in_vertices(state: &[VertexState]) -> Vec<u32> {
    state
        .iter()
        .enumerate()
        .filter_map(|(v, &s)| (s == VertexState::In).then_some(v as u32))
        .collect()
}
