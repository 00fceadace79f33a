//! Prefix sums (scans).
//!
//! An exclusive scan turns per-bucket counts into offsets. The engine's arena
//! takes its segment offsets from [`counts_to_offsets`], and
//! [`crate::pack::par_pack`] and the counting sort scan their counts with
//! [`exclusive_scan_in_place`]. Those count vectors hold one entry per block
//! or per key, so the scans themselves run sequentially.

/// A commutative-enough monoid for scanning. Only associativity and an
/// identity are required; the instances here, integer addition, are also
/// commutative.
pub trait ScanMonoid: Copy + Send + Sync {
    /// The identity element (`combine(identity(), x) == x`).
    fn identity() -> Self;
    /// The associative combine operation.
    fn combine(self, other: Self) -> Self;
}

impl ScanMonoid for u64 {
    fn identity() -> Self {
        0
    }
    fn combine(self, other: Self) -> Self {
        self + other
    }
}

impl ScanMonoid for u32 {
    fn identity() -> Self {
        0
    }
    fn combine(self, other: Self) -> Self {
        self + other
    }
}

impl ScanMonoid for usize {
    fn identity() -> Self {
        0
    }
    fn combine(self, other: Self) -> Self {
        self + other
    }
}

/// In-place sequential exclusive scan; returns the total.
///
/// ```
/// use greedy_prims::scan::exclusive_scan_in_place;
/// let mut v = vec![2u64, 2, 2];
/// assert_eq!(exclusive_scan_in_place(&mut v), 6);
/// assert_eq!(v, vec![0, 2, 4]);
/// ```
pub fn exclusive_scan_in_place<T: ScanMonoid>(data: &mut [T]) -> T {
    let mut acc = T::identity();
    for x in data.iter_mut() {
        let next = acc.combine(*x);
        *x = acc;
        acc = next;
    }
    acc
}

/// Scan-based conversion of per-bucket counts into CSR-style offsets.
///
/// Returns a vector of length `counts.len() + 1` whose last element is the
/// total. This is the shape needed to build adjacency offset arrays.
///
/// ```
/// use greedy_prims::scan::counts_to_offsets;
/// assert_eq!(counts_to_offsets(&[2u64, 0, 3]), vec![0, 2, 2, 5]);
/// ```
pub fn counts_to_offsets<T: ScanMonoid>(counts: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = T::identity();
    for &c in counts {
        out.push(acc);
        acc = acc.combine(c);
    }
    out.push(acc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exclusive_scan_empty() {
        let mut data: Vec<u64> = Vec::new();
        assert_eq!(exclusive_scan_in_place(&mut data), 0);
        assert!(data.is_empty());
    }

    #[test]
    fn exclusive_scan_single() {
        let mut data = vec![7u64];
        assert_eq!(exclusive_scan_in_place(&mut data), 7);
        assert_eq!(data, vec![0]);
    }

    #[test]
    fn counts_to_offsets_basic() {
        let offsets = counts_to_offsets(&[1u64, 2, 3, 0, 4]);
        assert_eq!(offsets, vec![0, 1, 3, 6, 6, 10]);
    }

    #[test]
    fn counts_to_offsets_empty() {
        assert_eq!(counts_to_offsets::<u64>(&[]), vec![0]);
    }

    #[test]
    fn works_for_usize_and_u32() {
        let mut a = vec![1usize, 2, 3];
        assert_eq!(exclusive_scan_in_place(&mut a), 6);
        assert_eq!(a, vec![0, 1, 3]);
        let mut b = vec![1u32, 2, 3];
        assert_eq!(exclusive_scan_in_place(&mut b), 6);
        assert_eq!(b, vec![0, 1, 3]);
    }

    proptest! {
        #[test]
        fn prop_scan_total_is_sum(input in proptest::collection::vec(0u64..1000, 0..2000)) {
            let mut scanned = input.clone();
            let total = exclusive_scan_in_place(&mut scanned);
            prop_assert_eq!(total, input.iter().sum::<u64>());
        }
    }
}
