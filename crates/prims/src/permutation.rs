//! Random permutations of `0..n`.
//!
//! The paper's central object is a uniformly random total order π on vertices
//! (for MIS) or edges (for MM). A [`Permutation`] stores both directions of
//! the bijection: `order[k]` is the element in position `k` (the k-th highest
//! priority), and `rank[v]` is the position of element `v`. The greedy
//! algorithms only ever compare ranks, so `rank` is the array they index.
//!
//! One construction builds π: [`par_random_permutation`] sorts the elements
//! by a per-index hash key (ties broken by index). For a fixed seed it is
//! deterministic and thread-count independent, and the resulting permutation
//! is (essentially) uniform: collisions in 64-bit keys are vanishingly rare
//! and resolved deterministically. Every experiment, the engine and the
//! benchmark build their orders with it.

use rayon::prelude::*;

use crate::random::hash64;
use crate::sort::sort_by_key_parallel;
use crate::util::{blocks, par_map_blocks};

/// A permutation of `0..n`, stored in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    /// `order[k]` = the element placed at position `k` (position 0 = highest priority).
    order: Vec<u32>,
    /// `rank[v]` = the position of element `v` in the order.
    rank: Vec<u32>,
}

impl Permutation {
    /// Builds a permutation from the position-to-element map `order`.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: Vec<u32>) -> Self {
        let n = order.len();
        let rank = match par_validated_inverse(&order) {
            Ok(rank) => rank,
            Err(InverseError::OutOfRange(v)) => {
                panic!("from_order: element {v} out of range for n={n}")
            }
            Err(InverseError::Duplicate(v)) => panic!("from_order: element {v} appears twice"),
        };
        Self { order, rank }
    }

    /// Builds a permutation from the element-to-position map `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is not a permutation of `0..rank.len()`.
    pub fn from_rank(rank: Vec<u32>) -> Self {
        let n = rank.len();
        let order = match par_validated_inverse(&rank) {
            Ok(order) => order,
            Err(InverseError::OutOfRange(pos)) => {
                panic!("from_rank: position {pos} out of range for n={n}")
            }
            Err(InverseError::Duplicate(pos)) => panic!("from_rank: position {pos} assigned twice"),
        };
        Self { order, rank }
    }

    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let order: Vec<u32> = (0..n as u32).collect();
        Self {
            rank: order.clone(),
            order,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the permutation is over the empty set.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The element at position `pos` (0 = highest priority / earliest).
    #[inline]
    pub fn element_at(&self, pos: usize) -> u32 {
        self.order[pos]
    }

    /// The position (priority rank; smaller = earlier) of element `v`.
    #[inline]
    pub fn rank_of(&self, v: u32) -> u32 {
        self.rank[v as usize]
    }

    /// Position-to-element view (`order`).
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Element-to-position view (`rank`).
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }

    /// Returns true if element `a` comes before (has higher priority than) `b`.
    #[inline]
    pub fn precedes(&self, a: u32, b: u32) -> bool {
        self.rank[a as usize] < self.rank[b as usize]
    }

    /// The first `k` elements of the order — the "δ-prefix" of the paper when
    /// `k = ⌈δ·n⌉`.
    pub fn prefix(&self, k: usize) -> &[u32] {
        &self.order[..k.min(self.order.len())]
    }

    /// Verifies the internal bijection invariant; used by tests and
    /// debug assertions.
    pub fn validate(&self) -> bool {
        if self.order.len() != self.rank.len() {
            return false;
        }
        self.order
            .iter()
            .enumerate()
            .all(|(pos, &v)| (v as usize) < self.rank.len() && self.rank[v as usize] == pos as u32)
    }
}

/// A validation failure detected by [`par_validated_inverse`].
enum InverseError {
    /// A value `>= n` was found.
    OutOfRange(u32),
    /// A value appeared twice.
    Duplicate(u32),
}

/// Below this length the inverse is built with the plain sequential scatter;
/// the parallel version pays three passes of setup that only win above it.
const INVERSE_SEQUENTIAL_CUTOFF: usize = 1 << 15;

/// Computes the inverse of a permutation given as `values` (so
/// `out[values[i]] = i`), validating that `values` really is a permutation of
/// `0..n`. Returns the offending value otherwise.
///
/// The parallel path replaces the serial O(n) rank-build tail that used to
/// follow the parallel key sort in permutation construction. It is one
/// counting-sort-style pass, in the same safe disjoint-sub-slice pattern as
/// `sort/radix.rs`:
///
/// 1. the input is split into blocks; each block histograms its values into
///    contiguous *value ranges* (one per bucket) and reports any
///    out-of-range value;
/// 2. a scratch array of `(value, position)` pairs is carved into disjoint
///    per-(bucket, block) segments — the exclusive scan of the count matrix
///    realized as sub-slices — and each block scatters its pairs in order;
/// 3. each bucket owns a disjoint `bucket_width`-wide sub-slice of the
///    output; it replays its (now contiguous) pairs, writing `position` at
///    `value - bucket_start` and flagging a slot written twice as a
///    duplicate.
///
/// No task ever writes another task's slots, so the pass needs no
/// synchronization and no `unsafe`, and the output is identical at every
/// thread count.
fn par_validated_inverse(values: &[u32]) -> Result<Vec<u32>, InverseError> {
    let n = values.len();
    if n < INVERSE_SEQUENTIAL_CUTOFF {
        let mut out = vec![u32::MAX; n];
        for (pos, &v) in values.iter().enumerate() {
            if (v as usize) >= n {
                return Err(InverseError::OutOfRange(v));
            }
            if out[v as usize] != u32::MAX {
                return Err(InverseError::Duplicate(v));
            }
            out[v as usize] = pos as u32;
        }
        return Ok(out);
    }

    let num_buckets = rayon::current_num_threads().saturating_mul(4).max(1);
    let bucket_width = n.div_ceil(num_buckets);
    let num_buckets = n.div_ceil(bucket_width);
    let in_ranges = blocks(n, INVERSE_SEQUENTIAL_CUTOFF / 4, num_buckets);

    // Phase 1: per-block value-range histograms + out-of-range detection.
    let histograms: Vec<(Vec<usize>, Option<u32>)> =
        par_map_blocks(in_ranges.clone(), &|r: std::ops::Range<usize>| {
            let mut counts = vec![0usize; num_buckets];
            let mut bad = None;
            for &v in &values[r] {
                if (v as usize) < n {
                    counts[v as usize / bucket_width] += 1;
                } else if bad.is_none() {
                    bad = Some(v);
                }
            }
            (counts, bad)
        });
    if let Some(v) = histograms.iter().find_map(|(_, bad)| *bad) {
        return Err(InverseError::OutOfRange(v));
    }

    // Phase 2: carve a (value, position) scratch array into disjoint
    // per-(bucket, block) segments, bucket-major, and scatter in parallel.
    let mut scratch: Vec<(u32, u32)> = vec![(0, 0); n];
    let mut segments: Vec<Vec<&mut [(u32, u32)]>> = (0..in_ranges.len())
        .map(|_| Vec::with_capacity(num_buckets))
        .collect();
    let mut rest = scratch.as_mut_slice();
    for bucket in 0..num_buckets {
        for (block, (counts, _)) in histograms.iter().enumerate() {
            let (seg, tail) = rest.split_at_mut(counts[bucket]);
            segments[block].push(seg);
            rest = tail;
        }
    }
    debug_assert!(rest.is_empty());
    type ScatterTask<'s> = (std::ops::Range<usize>, Vec<&'s mut [(u32, u32)]>);
    let tasks: Vec<ScatterTask<'_>> = in_ranges.into_iter().zip(segments).collect();
    par_map_blocks(tasks, &|(r, mut segs): ScatterTask<'_>| {
        let mut cursor = vec![0usize; num_buckets];
        for pos in r {
            let v = values[pos];
            let b = v as usize / bucket_width;
            segs[b][cursor[b]] = (v, pos as u32);
            cursor[b] += 1;
        }
    });

    // Phase 3: every bucket writes its own value range of the output.
    type BucketTask<'s> = (usize, &'s [(u32, u32)], &'s mut [u32]);
    let mut out = vec![u32::MAX; n];
    let mut bucket_tasks: Vec<BucketTask<'_>> = Vec::with_capacity(num_buckets);
    {
        let mut pairs_rest: &[(u32, u32)] = &scratch;
        let mut out_rest = out.as_mut_slice();
        for bucket in 0..num_buckets {
            let bucket_len: usize = histograms.iter().map(|(c, _)| c[bucket]).sum();
            let (pairs, pt) = pairs_rest.split_at(bucket_len);
            pairs_rest = pt;
            let width = bucket_width.min(out_rest.len());
            let (slots, ot) = out_rest.split_at_mut(width);
            out_rest = ot;
            bucket_tasks.push((bucket * bucket_width, pairs, slots));
        }
    }
    let duplicates: Vec<Option<u32>> =
        par_map_blocks(bucket_tasks, &|(base, pairs, slots): BucketTask<'_>| {
            let mut dup = None;
            for &(v, pos) in pairs {
                let slot = v as usize - base;
                if slots[slot] != u32::MAX && dup.is_none() {
                    dup = Some(v);
                }
                slots[slot] = pos;
            }
            dup
        });
    if let Some(v) = duplicates.into_iter().flatten().next() {
        return Err(InverseError::Duplicate(v));
    }
    Ok(out)
}

/// Deterministic parallel random permutation of `0..n`.
///
/// Each element is keyed with `hash64(seed, element)` and the `(key, element)`
/// pairs are sorted by key with the parallel LSD radix sort
/// ([`sort_by_key_parallel`]); since the input is generated in element order
/// and the sort is stable, key collisions resolve to the lower element —
/// the same `(key, element)` order as before, without a comparison sort.
/// The result is independent of the number of threads.
pub fn par_random_permutation(n: usize, seed: u64) -> Permutation {
    assert!(
        n <= u32::MAX as usize,
        "par_random_permutation: n too large for u32 ids"
    );
    let mut keyed: Vec<(u64, u32)> = (0..n as u32)
        .into_par_iter()
        .map(|v| (hash64(seed, v as u64), v))
        .collect();
    sort_by_key_parallel(&mut keyed, |&(k, _)| k);
    let order: Vec<u32> = keyed.par_iter().map(|&(_, v)| v).collect();
    Permutation::from_order(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(10);
        assert!(p.validate());
        for i in 0..10u32 {
            assert_eq!(p.rank_of(i), i);
            assert_eq!(p.element_at(i as usize), i);
        }
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.validate());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn from_order_and_from_rank_agree() {
        let order = vec![2u32, 0, 3, 1];
        let p = Permutation::from_order(order.clone());
        let q = Permutation::from_rank(p.rank().to_vec());
        assert_eq!(p, q);
        assert!(p.validate());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn from_order_rejects_duplicates() {
        Permutation::from_order(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_order_rejects_out_of_range() {
        Permutation::from_order(vec![0, 5, 1]);
    }

    #[test]
    fn parallel_rank_build_matches_sequential_scatter() {
        // Well above INVERSE_SEQUENTIAL_CUTOFF: exercises the blocked
        // inverse-scatter. validate() checks the full bijection.
        let p = par_random_permutation(200_000, 21);
        assert!(p.validate());
        let q = Permutation::from_rank(p.rank().to_vec());
        assert_eq!(p, q);
        // The parallel path must agree with the sequential scatter exactly.
        let order = p.order().to_vec();
        let mut expected = vec![u32::MAX; order.len()];
        for (pos, &v) in order.iter().enumerate() {
            expected[v as usize] = pos as u32;
        }
        assert_eq!(p.rank(), &expected[..]);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn from_order_rejects_duplicates_above_parallel_cutoff() {
        let mut order: Vec<u32> = (0..100_000).collect();
        order[99_999] = 5;
        Permutation::from_order(order);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_order_rejects_out_of_range_above_parallel_cutoff() {
        let mut order: Vec<u32> = (0..100_000).collect();
        order[12_345] = 100_000;
        Permutation::from_order(order);
    }

    #[test]
    fn par_random_permutation_is_valid_and_deterministic() {
        let a = par_random_permutation(10_000, 3);
        let b = par_random_permutation(10_000, 3);
        assert!(a.validate());
        assert_eq!(a, b);
        assert_ne!(a, par_random_permutation(10_000, 4));
    }

    #[test]
    fn par_random_permutation_spreads_elements() {
        // Sanity: the permutation should not be close to the identity.
        let p = par_random_permutation(10_000, 9);
        let fixed = (0..10_000u32).filter(|&v| p.rank_of(v) == v).count();
        assert!(fixed < 50, "too many fixed points: {fixed}");
    }

    #[test]
    fn prefix_returns_earliest_elements() {
        let p = par_random_permutation(100, 1);
        let pre = p.prefix(10);
        assert_eq!(pre.len(), 10);
        for (pos, &v) in pre.iter().enumerate() {
            assert_eq!(p.rank_of(v) as usize, pos);
        }
        // Prefix longer than n is clamped.
        assert_eq!(p.prefix(1000).len(), 100);
    }

    #[test]
    fn precedes_is_consistent_with_ranks() {
        let p = par_random_permutation(50, 2);
        for a in 0..50u32 {
            for b in 0..50u32 {
                assert_eq!(p.precedes(a, b), p.rank_of(a) < p.rank_of(b));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_par_permutation_valid(n in 0usize..5000, seed in any::<u64>()) {
            let p = par_random_permutation(n, seed);
            prop_assert!(p.validate());
            prop_assert_eq!(p.len(), n);
        }
    }
}
