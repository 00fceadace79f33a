//! Priority orders (the permutation π).
//!
//! The paper's guarantee — polylogarithmic dependence length — holds for a
//! *uniformly random* order of the vertices (MIS) or edges (MM). These
//! helpers construct such orders deterministically from a seed, so every
//! experiment is reproducible and every implementation sees the identical π.

use greedy_prims::permutation::{par_random_permutation, Permutation};

/// A uniformly random priority order over `n` vertices, deterministic in
/// `seed` and independent of the number of threads.
pub fn random_permutation(n: usize, seed: u64) -> Permutation {
    par_random_permutation(n, seed)
}

/// A uniformly random priority order over `m` edges (for maximal matching).
pub fn random_edge_permutation(m: usize, seed: u64) -> Permutation {
    par_random_permutation(m, seed)
}

/// The identity order (vertex `i` has priority `i`). Useful for constructing
/// adversarial orders in tests — e.g. the identity order on a path graph has
/// dependence length Θ(n), whereas a random order has O(log² n).
pub fn identity_permutation(n: usize) -> Permutation {
    Permutation::identity(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greedy_graph::gen::random::random_graph;

    #[test]
    fn vertex_permutation_has_graph_size() {
        let g = random_graph(100, 300, 1);
        let pi = random_permutation(g.num_vertices(), 5);
        assert_eq!(pi.len(), 100);
        assert!(pi.validate());
    }

    #[test]
    fn edge_permutation_has_edge_count() {
        let g = random_graph(100, 300, 1);
        let el = g.to_edge_list();
        let pi = random_edge_permutation(el.num_edges(), 5);
        assert_eq!(pi.len(), el.num_edges());
    }

    #[test]
    fn identity_is_identity() {
        let p = identity_permutation(10);
        for i in 0..10u32 {
            assert_eq!(p.rank_of(i), i);
        }
    }

    #[test]
    fn permutations_are_seed_deterministic() {
        assert_eq!(random_permutation(1000, 1), random_permutation(1000, 1));
        assert_ne!(random_permutation(1000, 1), random_permutation(1000, 2));
    }

    #[test]
    fn from_rank_roundtrip() {
        let p = Permutation::from_rank(vec![2, 0, 1]);
        assert_eq!(p.rank_of(0), 2);
        assert_eq!(p.rank_of(1), 0);
        assert_eq!(p.element_at(0), 1);
    }
}
