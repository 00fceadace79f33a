//! Compressed-sparse-row (CSR) undirected graphs.
//!
//! [`Graph`] is the representation the MIS algorithms operate on: a flat
//! offsets array plus a flat neighbor array, the same layout the paper's PBBS
//! implementation uses. Every undirected edge `{u, v}` is stored twice (as the
//! directed arcs `u→v` and `v→u`), adjacencies are sorted, self-loops are
//! dropped and parallel edges merged during construction.

use greedy_prims::pack::par_dedup_adjacent;
use greedy_prims::sort::sort_by_key_parallel;
use rayon::prelude::*;

use crate::edge_list::{Edge, EdgeList};

/// Errors detected by [`Graph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Offsets array has the wrong length or is not monotone.
    BadOffsets(String),
    /// A neighbor id is out of range.
    NeighborOutOfRange {
        /// The offending vertex.
        vertex: u32,
        /// The out-of-range neighbor value.
        neighbor: u32,
    },
    /// A vertex's adjacency list is not sorted or contains duplicates.
    UnsortedAdjacency(u32),
    /// A self-loop was found.
    SelfLoop(u32),
    /// Arc `u→v` present without its reverse `v→u`.
    Asymmetric {
        /// Source of the unpaired arc.
        u: u32,
        /// Target of the unpaired arc.
        v: u32,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::BadOffsets(msg) => write!(f, "bad offsets: {msg}"),
            GraphError::NeighborOutOfRange { vertex, neighbor } => {
                write!(f, "vertex {vertex} has out-of-range neighbor {neighbor}")
            }
            GraphError::UnsortedAdjacency(v) => {
                write!(f, "adjacency of vertex {v} is not strictly sorted")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at vertex {v}"),
            GraphError::Asymmetric { u, v } => {
                write!(f, "arc {u}->{v} present without its reverse")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected graph in CSR form.
///
/// The adjacency of vertex `v` is `neighbors[offsets[v]..offsets[v+1]]`,
/// sorted in increasing order. The graph is simple (no self-loops, no
/// parallel edges) and symmetric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an arbitrary collection of undirected edges.
    ///
    /// Self-loops are dropped and parallel edges merged. The construction is
    /// parallel (counting sort by source vertex) and deterministic.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        assert!(
            num_vertices <= u32::MAX as usize,
            "Graph::from_edges: too many vertices for u32 ids"
        );
        // Expand each undirected edge into its two arcs, skipping self-loops.
        let mut arcs: Vec<(u32, u32)> = edges
            .par_iter()
            .filter(|e| !e.is_self_loop())
            .flat_map_iter(|e| [(e.u, e.v), (e.v, e.u)])
            .collect();
        // Sorting arcs lexicographically groups them by source and sorts each
        // adjacency, and makes deduplication a linear pass. The parallel LSD
        // radix sort on the packed `source << 32 | target` key skips digit
        // passes above the vertex-id width, so this costs ~2·⌈log₂n/11⌉
        // linear passes rather than a comparison sort.
        sort_by_key_parallel(&mut arcs, |&(u, v)| ((u as u64) << 32) | v as u64);
        let arcs = par_dedup_adjacent(arcs);

        let mut offsets = vec![0usize; num_vertices + 1];
        for &(u, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let neighbors: Vec<u32> = arcs.par_iter().map(|&(_, v)| v).collect();
        Self { offsets, neighbors }
    }

    /// Builds a graph from an [`EdgeList`].
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        Self::from_edges(edges.num_vertices(), edges.edges())
    }

    /// An edgeless graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The sorted neighbors of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// True if `{u, v}` is an edge (binary search on the smaller adjacency).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32)
            .into_par_iter()
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.num_vertices() as u32
    }

    /// All undirected edges in canonical `(u < v)` lexicographic order.
    pub fn to_edge_list(&self) -> EdgeList {
        let edges: Vec<Edge> = (0..self.num_vertices() as u32)
            .into_par_iter()
            .flat_map_iter(|u| {
                self.neighbors(u)
                    .iter()
                    .copied()
                    .filter(move |&v| u < v)
                    .map(move |v| Edge::new(u, v))
            })
            .collect();
        EdgeList::new(self.num_vertices(), edges)
    }

    /// Builds a graph directly from already-valid CSR arrays: `offsets` of
    /// length `n + 1` and the concatenated, per-vertex-sorted `neighbors`.
    /// This is the zero-copy path back from flat external layouts (the
    /// batch-dynamic engine's slack-CSR arena compacts straight into these
    /// arrays); full validation runs in debug builds.
    pub fn from_csr_arrays(offsets: Vec<usize>, neighbors: Vec<u32>) -> Self {
        let g = Self { offsets, neighbors };
        debug_assert!(
            g.validate().is_ok(),
            "from_csr_arrays: input violates CSR invariants: {:?}",
            g.validate()
        );
        g
    }

    /// The CSR offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat neighbor array.
    pub fn neighbor_array(&self) -> &[u32] {
        &self.neighbors
    }

    /// The vertex-induced subgraph on `keep`, relabeling kept vertices by
    /// their index in `keep`. Returns the subgraph and the mapping from new
    /// ids to original ids.
    ///
    /// # Panics
    /// Panics if `keep` contains duplicates or out-of-range vertices.
    pub fn induced_subgraph(&self, keep: &[u32]) -> (Graph, Vec<u32>) {
        let n = self.num_vertices();
        let mut new_id = vec![u32::MAX; n];
        for (i, &v) in keep.iter().enumerate() {
            assert!(
                (v as usize) < n,
                "induced_subgraph: vertex {v} out of range"
            );
            assert!(
                new_id[v as usize] == u32::MAX,
                "induced_subgraph: vertex {v} listed twice"
            );
            new_id[v as usize] = i as u32;
        }
        let edges: Vec<Edge> = (0..keep.len() as u32)
            .into_par_iter()
            .flat_map_iter(|i| {
                let new_id = &new_id;
                self.neighbors(keep[i as usize])
                    .iter()
                    .copied()
                    .filter_map(move |w| {
                        let nw = new_id[w as usize];
                        (nw != u32::MAX && i < nw).then_some(Edge::new(i, nw))
                    })
            })
            .collect();
        (Graph::from_edges(keep.len(), &edges), keep.to_vec())
    }

    /// Checks all structural invariants. Returns the first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.num_vertices();
        if self.offsets.is_empty() {
            return Err(GraphError::BadOffsets("offsets array is empty".into()));
        }
        if self.offsets[0] != 0 {
            return Err(GraphError::BadOffsets("offsets[0] != 0".into()));
        }
        if *self.offsets.last().unwrap() != self.neighbors.len() {
            return Err(GraphError::BadOffsets(format!(
                "offsets[n] = {} but neighbor array has length {}",
                self.offsets.last().unwrap(),
                self.neighbors.len()
            )));
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::BadOffsets("offsets not monotone".into()));
        }
        for u in 0..n as u32 {
            let adj = self.neighbors(u);
            for &v in adj {
                if v as usize >= n {
                    return Err(GraphError::NeighborOutOfRange {
                        vertex: u,
                        neighbor: v,
                    });
                }
                if v == u {
                    return Err(GraphError::SelfLoop(u));
                }
            }
            if adj.windows(2).any(|w| w[0] >= w[1]) {
                return Err(GraphError::UnsortedAdjacency(u));
            }
        }
        // Symmetry: every arc must have its reverse.
        for u in 0..n as u32 {
            for &v in self.neighbors(u) {
                if self.neighbors(v).binary_search(&u).is_err() {
                    return Err(GraphError::Asymmetric { u, v });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)])
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn from_edges_removes_self_loops_and_duplicates() {
        let g = Graph::from_edges(
            4,
            &[
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(2, 2),
                Edge::new(0, 1),
                Edge::new(2, 3),
            ],
        );
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(2, 2));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(3, 2));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn to_edge_list_roundtrip() {
        let g = triangle();
        let el = g.to_edge_list();
        assert!(el.is_canonical());
        assert_eq!(el.num_edges(), 3);
        let g2 = Graph::from_edge_list(&el);
        assert_eq!(g, g2);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = Graph::from_edges(
            5,
            &[
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(3, 4),
            ],
        );
        let (sub, mapping) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1)); // originally 1-2
        assert!(sub.has_edge(1, 2)); // originally 2-3
        assert!(!sub.has_edge(0, 2));
        assert_eq!(mapping, vec![1, 2, 3]);
        assert!(sub.validate().is_ok());
    }

    #[test]
    fn induced_subgraph_empty_selection() {
        let g = triangle();
        let (sub, mapping) = g.induced_subgraph(&[]);
        assert_eq!(sub.num_vertices(), 0);
        assert_eq!(sub.num_edges(), 0);
        assert!(mapping.is_empty());
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn induced_subgraph_rejects_duplicates() {
        triangle().induced_subgraph(&[0, 0]);
    }

    #[test]
    fn max_degree_star() {
        let edges: Vec<Edge> = (1..10).map(|i| Edge::new(0, i)).collect();
        let g = Graph::from_edges(10, &edges);
        assert_eq!(g.max_degree(), 9);
        assert_eq!(g.degree(0), 9);
        assert_eq!(g.degree(5), 1);
    }

    #[test]
    fn validate_catches_asymmetry() {
        let g = Graph {
            offsets: vec![0, 1, 1],
            neighbors: vec![1],
        };
        assert!(matches!(
            g.validate(),
            Err(GraphError::Asymmetric { u: 0, v: 1 })
        ));
    }

    #[test]
    fn validate_catches_self_loop() {
        let g = Graph {
            offsets: vec![0, 1],
            neighbors: vec![0],
        };
        assert!(matches!(g.validate(), Err(GraphError::SelfLoop(0))));
    }

    #[test]
    fn validate_catches_bad_offsets() {
        let g = Graph {
            offsets: vec![0, 2],
            neighbors: vec![1],
        };
        assert!(matches!(g.validate(), Err(GraphError::BadOffsets(_))));
    }

    #[test]
    fn validate_catches_out_of_range_neighbor() {
        let g = Graph {
            offsets: vec![0, 1, 2],
            neighbors: vec![5, 0],
        };
        assert!(matches!(
            g.validate(),
            Err(GraphError::NeighborOutOfRange {
                vertex: 0,
                neighbor: 5
            })
        ));
    }

    #[test]
    fn graph_error_display_is_informative() {
        let e = GraphError::SelfLoop(3);
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::Asymmetric { u: 1, v: 2 };
        assert!(e.to_string().contains("1->2"));
    }
}
