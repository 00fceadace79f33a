//! Incremental graph construction.
//!
//! [`GraphBuilder`] accumulates edges one at a time and produces a
//! canonical [`EdgeList`] / CSR [`Graph`]. It is the convenient entry point
//! for examples and for constructing conflict graphs in the scheduling
//! application, where edges are discovered incrementally.
//!
//! Both build paths ([`GraphBuilder::build_edge_list`] via
//! [`EdgeList::canonicalize`], [`GraphBuilder::build_graph`] via
//! [`Graph::from_edges`]) bucket their accumulated edges with the parallel
//! radix sort in `greedy_prims::sort`, so batch-accumulated graphs pay the
//! same parallel construction cost as the generators.

use crate::csr::Graph;
use crate::edge_list::{Edge, EdgeList};

/// Accumulates edges and builds a [`Graph`] or [`EdgeList`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with capacity for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::with_capacity(num_edges),
        }
    }

    /// Number of vertices the builder was created with (grows on demand via
    /// [`GraphBuilder::ensure_vertex`]).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges added so far (duplicates included).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Ensures vertex `v` exists, growing the vertex count if needed.
    pub fn ensure_vertex(&mut self, v: u32) -> &mut Self {
        self.num_vertices = self.num_vertices.max(v as usize + 1);
        self
    }

    /// Adds an undirected edge `{u, v}`; grows the vertex count if needed.
    /// Self-loops are accepted here and dropped at build time.
    pub fn add_edge(&mut self, u: u32, v: u32) -> &mut Self {
        self.ensure_vertex(u).ensure_vertex(v);
        self.edges.push(Edge::new(u, v));
        self
    }

    /// Builds a canonical [`EdgeList`] (self-loops and duplicates removed).
    pub fn build_edge_list(&self) -> EdgeList {
        EdgeList::new(self.num_vertices, self.edges.clone()).canonicalize()
    }

    /// Builds a CSR [`Graph`].
    pub fn build_graph(&self) -> Graph {
        Graph::from_edges(self.num_vertices, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_grows_vertices() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(3, 7);
        assert_eq!(b.num_vertices(), 8);
        let g = b.build_graph();
        assert_eq!(g.num_vertices(), 8);
        assert!(g.has_edge(3, 7));
    }

    #[test]
    fn builder_deduplicates_at_build() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(1, 0)
            .add_edge(0, 1)
            .add_edge(2, 2);
        assert_eq!(b.num_edges(), 4);
        let el = b.build_edge_list();
        assert_eq!(el.num_edges(), 1);
        let g = b.build_graph();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn empty_builder() {
        let b = GraphBuilder::new(3);
        let g = b.build_graph();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert!(b.build_edge_list().is_empty());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = GraphBuilder::new(5);
        let mut b = GraphBuilder::with_capacity(5, 100);
        a.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(a.build_graph(), b.build_graph());
    }

    #[test]
    fn chaining_api() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        assert_eq!(b.build_graph().num_edges(), 2);
    }
}
