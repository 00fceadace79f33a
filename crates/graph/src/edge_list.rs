//! Undirected edge lists.
//!
//! An [`EdgeList`] is the form the maximal-matching algorithms consume: edges
//! are identified by their index in the list, and the random priority
//! permutation π is a permutation of those indices. It is also the
//! intermediate form every generator produces before building a CSR
//! [`crate::csr::Graph`].

use greedy_prims::pack::par_dedup_adjacent;
use greedy_prims::sort::sort_by_key_parallel;
use rayon::prelude::*;

/// An undirected edge between two vertices, stored canonically
/// (`u() <= v()` after [`Edge::canonical`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
}

impl Edge {
    /// Creates an edge between `u` and `v` (unordered).
    pub fn new(u: u32, v: u32) -> Self {
        Self { u, v }
    }

    /// The same edge with endpoints ordered so `u <= v`.
    pub fn canonical(self) -> Self {
        if self.u <= self.v {
            self
        } else {
            Self {
                u: self.v,
                v: self.u,
            }
        }
    }

    /// True when both endpoints are the same vertex.
    pub fn is_self_loop(self) -> bool {
        self.u == self.v
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(self, x: u32) -> u32 {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!(
                "Edge::other: {x} is not an endpoint of ({}, {})",
                self.u, self.v
            )
        }
    }

    /// True when the two edges share at least one endpoint.
    pub fn adjacent_to(self, other: Edge) -> bool {
        self.u == other.u || self.u == other.v || self.v == other.u || self.v == other.v
    }

    /// The edge's endpoints packed into a single `u64` (`u` in the high half),
    /// so that sorting by this key is exactly the lexicographic `(u, v)`
    /// order. This is the radix key the parallel sort subsystem uses to
    /// bucket edges and arcs.
    #[inline]
    pub fn sort_key(self) -> u64 {
        ((self.u as u64) << 32) | self.v as u64
    }
}

/// A list of undirected edges over vertices `0..num_vertices`.
///
/// After [`EdgeList::canonicalize`] the list contains no self-loops and no
/// duplicate edges, each stored as `(min, max)`, sorted lexicographically.
/// Edge ids are simply indices into [`EdgeList::edges`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an edge list over `num_vertices` vertices.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range.
    pub fn new(num_vertices: usize, edges: Vec<Edge>) -> Self {
        for e in &edges {
            assert!(
                (e.u as usize) < num_vertices && (e.v as usize) < num_vertices,
                "EdgeList::new: edge ({}, {}) out of range for n={num_vertices}",
                e.u,
                e.v
            );
        }
        Self {
            num_vertices,
            edges,
        }
    }

    /// Creates an edge list from `(u, v)` pairs.
    pub fn from_pairs(num_vertices: usize, pairs: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let edges = pairs.into_iter().map(|(u, v)| Edge::new(u, v)).collect();
        Self::new(num_vertices, edges)
    }

    /// An empty edge list over `num_vertices` vertices.
    pub fn empty(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently stored (may include duplicates/self-loops
    /// before [`EdgeList::canonicalize`]).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when there are no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with id `e`.
    #[inline]
    pub fn edge(&self, e: usize) -> Edge {
        self.edges[e]
    }

    /// Removes self-loops and duplicate edges, canonicalizes endpoint order,
    /// and sorts edges lexicographically. Returns `self` for chaining.
    ///
    /// The resulting order is deterministic (independent of the input order
    /// and of thread count), which keeps downstream experiments reproducible.
    pub fn canonicalize(mut self) -> Self {
        self.edges = self
            .edges
            .par_iter()
            .filter(|e| !e.is_self_loop())
            .map(|e| e.canonical())
            .collect();
        sort_by_key_parallel(&mut self.edges, |e| e.sort_key());
        self.edges = par_dedup_adjacent(std::mem::take(&mut self.edges));
        self
    }

    /// True if the list is in canonical form: no self-loops, all edges with
    /// `u <= v`, sorted, and deduplicated.
    pub fn is_canonical(&self) -> bool {
        self.edges.windows(2).all(|w| w[0] < w[1]) && self.edges.iter().all(|e| e.u < e.v)
    }

    /// Per-vertex degrees (each edge contributes to both endpoints).
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for e in &self.edges {
            deg[e.u as usize] += 1;
            if e.u != e.v {
                deg[e.v as usize] += 1;
            }
        }
        deg
    }

    /// Builds per-vertex incidence lists: for each vertex, the ids of the
    /// edges incident to it, in increasing edge-id order.
    pub fn incidence_lists(&self) -> Vec<Vec<u32>> {
        let mut inc = vec![Vec::new(); self.num_vertices];
        for (id, e) in self.edges.iter().enumerate() {
            inc[e.u as usize].push(id as u32);
            if e.u != e.v {
                inc[e.v as usize].push(id as u32);
            }
        }
        inc
    }

    /// Consumes the list, returning `(num_vertices, edges)`.
    pub fn into_parts(self) -> (usize, Vec<Edge>) {
        (self.num_vertices, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_canonical_orders_endpoints() {
        assert_eq!(Edge::new(5, 2).canonical(), Edge::new(2, 5));
        assert_eq!(Edge::new(2, 5).canonical(), Edge::new(2, 5));
        assert_eq!(Edge::new(3, 3).canonical(), Edge::new(3, 3));
    }

    #[test]
    fn edge_other_and_adjacent() {
        let e = Edge::new(1, 2);
        assert_eq!(e.other(1), 2);
        assert_eq!(e.other(2), 1);
        assert!(e.adjacent_to(Edge::new(2, 3)));
        assert!(e.adjacent_to(Edge::new(0, 1)));
        assert!(!e.adjacent_to(Edge::new(3, 4)));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        Edge::new(1, 2).other(3);
    }

    #[test]
    fn canonicalize_removes_loops_and_duplicates() {
        let el = EdgeList::from_pairs(5, vec![(1, 0), (0, 1), (2, 2), (3, 4), (4, 3), (0, 1)]);
        let canon = el.canonicalize();
        assert_eq!(canon.edges(), &[Edge::new(0, 1), Edge::new(3, 4)]);
        assert!(canon.is_canonical());
    }

    #[test]
    fn canonicalize_empty() {
        let el = EdgeList::empty(3).canonicalize();
        assert!(el.is_empty());
        assert!(el.is_canonical());
        assert_eq!(el.num_vertices(), 3);
    }

    #[test]
    fn degrees_count_both_endpoints() {
        let el = EdgeList::from_pairs(4, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(el.degrees(), vec![3, 2, 2, 1]);
    }

    #[test]
    fn incidence_lists_cover_all_edges() {
        let el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]);
        let inc = el.incidence_lists();
        assert_eq!(inc[0], vec![0]);
        assert_eq!(inc[1], vec![0, 1]);
        assert_eq!(inc[2], vec![1, 2]);
        assert_eq!(inc[3], vec![2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        EdgeList::from_pairs(2, vec![(0, 2)]);
    }

    #[test]
    fn into_parts_roundtrip() {
        let el = EdgeList::from_pairs(3, vec![(0, 1)]);
        let (n, edges) = el.into_parts();
        assert_eq!(n, 3);
        assert_eq!(edges, vec![Edge::new(0, 1)]);
    }
}
