//! Greedy graph coloring by iterated MIS.
//!
//! Repeatedly compute an MIS of the still-uncolored subgraph and give every
//! vertex of that MIS the next color. Because each layer is the
//! lexicographically-first MIS for a seeded random order, the whole coloring
//! is deterministic — the same colors come out regardless of the number of
//! threads — which is exactly the "internally deterministic parallelism" the
//! paper argues for.

use greedy_core::mis::prefix::prefix_mis_induced;
use greedy_core::ordering::random_permutation;
use greedy_graph::csr::Graph;
use greedy_prims::random::hash64;

/// A proper vertex coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// `colors[v]` is the color (0-based) of vertex `v`.
    pub colors: Vec<u32>,
    /// The number of colors used.
    pub num_colors: u32,
}

impl Coloring {
    /// True if no edge of `graph` joins two vertices of the same color and
    /// every vertex received a color below `num_colors`.
    pub fn is_proper(&self, graph: &Graph) -> bool {
        if self.colors.len() != graph.num_vertices() {
            return false;
        }
        if self.colors.iter().any(|&c| c >= self.num_colors) {
            return false;
        }
        graph.vertices().all(|v| {
            graph
                .neighbors(v)
                .iter()
                .all(|&w| self.colors[v as usize] != self.colors[w as usize])
        })
    }

    /// Number of vertices holding each color.
    pub fn class_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_colors as usize];
        for &c in &self.colors {
            sizes[c as usize] += 1;
        }
        sizes
    }
}

/// Colors `graph` by repeatedly extracting the lexicographically-first MIS of
/// the remaining vertices (priorities reseeded per layer from `seed`).
///
/// Uses the prefix-based MIS internally, so each layer is computed in
/// parallel yet the final coloring is deterministic in `seed`.
pub fn greedy_coloring(graph: &Graph, seed: u64) -> Coloring {
    let n = graph.num_vertices();
    let mut colors = vec![u32::MAX; n];
    // Uncolored vertices, as original ids.
    let mut alive: Vec<u32> = (0..n as u32).collect();
    let mut color = 0u32;

    while !alive.is_empty() {
        // The layer's order ranks the uncolored vertices by their position
        // in `alive`, and its MIS is that of the subgraph they induce.
        let pi = random_permutation(alive.len(), hash64(seed, color as u64));
        let layer = prefix_mis_induced(graph, &alive, &pi);
        debug_assert!(!layer.is_empty(), "an MIS of a nonempty graph is nonempty");
        for &v in &layer {
            colors[v as usize] = color;
        }
        alive.retain(|&v| colors[v as usize] == u32::MAX);
        color += 1;
    }

    Coloring {
        colors,
        num_colors: color,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::rmat::rmat_graph;
    use greedy_graph::gen::structured::{
        complete_bipartite_graph, complete_graph, cycle_graph, path_graph, star_graph,
    };
    use greedy_graph::Graph;

    #[test]
    fn empty_graph() {
        let c = greedy_coloring(&Graph::empty(0), 1);
        assert_eq!(c.num_colors, 0);
        assert!(c.colors.is_empty());
        assert!(c.is_proper(&Graph::empty(0)));
    }

    #[test]
    fn edgeless_graph_uses_one_color() {
        let g = Graph::empty(10);
        let c = greedy_coloring(&g, 1);
        assert_eq!(c.num_colors, 1);
        assert!(c.is_proper(&g));
        assert_eq!(c.class_sizes(), vec![10]);
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let g = complete_graph(7);
        let c = greedy_coloring(&g, 2);
        assert_eq!(c.num_colors, 7);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn bipartite_graph_uses_two_colors() {
        let g = complete_bipartite_graph(5, 7);
        let c = greedy_coloring(&g, 3);
        assert_eq!(c.num_colors, 2);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn path_and_cycle_use_few_colors() {
        let p = greedy_coloring(&path_graph(50), 4);
        assert!(p.is_proper(&path_graph(50)));
        assert!(p.num_colors <= 3);
        let c = greedy_coloring(&cycle_graph(51), 4);
        assert!(c.is_proper(&cycle_graph(51)));
        assert!(c.num_colors <= 3);
    }

    #[test]
    fn star_uses_two_colors() {
        let g = star_graph(20);
        let c = greedy_coloring(&g, 5);
        assert_eq!(c.num_colors, 2);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn random_graph_coloring_is_proper_and_bounded() {
        let g = random_graph(500, 2_500, 6);
        let c = greedy_coloring(&g, 7);
        assert!(c.is_proper(&g));
        // Iterated MIS never needs more than Δ+1 colors.
        assert!(c.num_colors as usize <= g.max_degree() + 1);
        assert_eq!(c.class_sizes().iter().sum::<usize>(), 500);
    }

    #[test]
    fn rmat_graph_coloring_is_proper() {
        let g = rmat_graph(9, 3_000, 1);
        let c = greedy_coloring(&g, 8);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn deterministic_in_seed() {
        let g = random_graph(300, 1_200, 9);
        assert_eq!(greedy_coloring(&g, 1), greedy_coloring(&g, 1));
    }

    #[test]
    fn is_proper_detects_bad_colorings() {
        let g = path_graph(3);
        let bad = Coloring {
            colors: vec![0, 0, 1],
            num_colors: 2,
        };
        assert!(!bad.is_proper(&g));
        let wrong_len = Coloring {
            colors: vec![0],
            num_colors: 1,
        };
        assert!(!wrong_len.is_proper(&g));
        let out_of_range = Coloring {
            colors: vec![5, 5, 5],
            num_colors: 0,
        };
        assert!(!out_of_range.is_proper(&Graph::empty(3)));
    }
}
