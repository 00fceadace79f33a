//! Sorting subsystem: the stable parallel sort-by-key entry point, its
//! parallel LSD radix sort, and a counting sort.
//!
//! The root-set matching keeps each vertex's incidence list sorted by edge
//! priority, which Lemma 5.3 needs in linear work; graph construction (edge
//! list → CSR) and the engine's arena build sort arcs by source vertex; and
//! the random priority permutation itself is a sort of `(hash, element)`
//! pairs. All of those hot paths funnel through [`sort_by_key_parallel`],
//! which dispatches to the parallel LSD radix sort in [`radix`] — linear
//! work per digit pass, stable, and thread-count independent.
//! [`counting_sort_by_key`] and [`is_sorted_by_key`] are the sequential
//! references the sort tests check it against.

use crate::scan::exclusive_scan_in_place;

pub mod radix;

pub use radix::par_radix_sort_by_key;

/// Stable parallel sort of `items` by a `u64` key.
///
/// This is the workhorse behind permutation construction, edge-list → CSR
/// bucketing, and incidence-list ordering. It dispatches to the parallel LSD
/// radix sort ([`par_radix_sort_by_key`]) above the sequential cutoff and to
/// `std`'s stable sort below it. Guarantees, at every size and thread count:
///
/// * **stable** — records with equal keys keep their input order;
/// * **deterministic** — the output is the unique stable order by `key`, so
///   it is byte-identical across thread counts.
pub fn sort_by_key_parallel<T, F>(items: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Send + Sync,
{
    par_radix_sort_by_key(items, key);
}

/// Stable counting sort of `items` by `key(item) ∈ 0..num_keys`.
///
/// Runs in `O(items.len() + num_keys)` time. Returns the sorted vector.
///
/// # Panics
/// Panics if any `key(item) >= num_keys`; the key range is part of the
/// contract, and a silent clamp or skip would corrupt downstream offset
/// arithmetic.
///
/// ```
/// use greedy_prims::sort::counting_sort_by_key;
/// let sorted = counting_sort_by_key(&[(2u32, 'a'), (0, 'b'), (2, 'c')], 3, |&(k, _)| k);
/// assert_eq!(sorted, vec![(0, 'b'), (2, 'a'), (2, 'c')]);
/// ```
pub fn counting_sort_by_key<T, F>(items: &[T], num_keys: usize, key: F) -> Vec<T>
where
    T: Copy,
    F: Fn(&T) -> u32,
{
    let mut counts = vec![0usize; num_keys];
    for item in items {
        let k = key(item) as usize;
        assert!(
            k < num_keys,
            "counting_sort_by_key: key {k} >= num_keys {num_keys}"
        );
        counts[k] += 1;
    }
    exclusive_scan_in_place(&mut counts);
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    if items.is_empty() {
        return out;
    }
    out.resize(items.len(), items[0]);
    for item in items {
        let k = key(item) as usize;
        out[counts[k]] = *item;
        counts[k] += 1;
    }
    out
}

/// Checks whether `items` is sorted according to `key` (non-decreasing).
pub fn is_sorted_by_key<T, K: Ord, F: Fn(&T) -> K>(items: &[T], key: F) -> bool {
    items.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counting_sort_empty() {
        let out = counting_sort_by_key::<u32, _>(&[], 10, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn counting_sort_is_stable() {
        // Pairs with equal keys must keep their relative order.
        let items = vec![(1u32, 0usize), (0, 1), (1, 2), (0, 3), (1, 4)];
        let out = counting_sort_by_key(&items, 2, |&(k, _)| k);
        assert_eq!(out, vec![(0, 1), (0, 3), (1, 0), (1, 2), (1, 4)]);
    }

    #[test]
    fn counting_sort_matches_std_sort() {
        let items: Vec<u32> = (0..10_000)
            .map(|i| (i * 2654435761u64 % 997) as u32)
            .collect();
        let sorted = counting_sort_by_key(&items, 997, |&x| x);
        let mut expected = items.clone();
        expected.sort();
        assert_eq!(sorted, expected);
    }

    #[test]
    #[should_panic(expected = "counting_sort_by_key: key 5 >= num_keys 5")]
    fn counting_sort_rejects_out_of_range_key() {
        counting_sort_by_key(&[0u32, 5, 1], 5, |&x| x);
    }

    #[test]
    fn sort_by_key_parallel_matches_sequential() {
        let mut a: Vec<u64> = (0..60_000).map(|i| i * 2654435761 % 100_000).collect();
        let mut b = a.clone();
        a.sort();
        sort_by_key_parallel(&mut b, |&x| x);
        assert_eq!(a, b);
    }

    #[test]
    fn sort_by_key_parallel_agrees_with_counting_sort_at_boundary_key() {
        // Every key equal to num_keys - 1: the counting sort's last bucket.
        let items: Vec<(u32, u32)> = (0..5_000u32).map(|i| (99, i)).collect();
        let counted = counting_sort_by_key(&items, 100, |&(k, _)| k);
        let mut parallel = items.clone();
        sort_by_key_parallel(&mut parallel, |&(k, _)| k as u64);
        assert_eq!(counted, parallel);
    }

    #[test]
    fn is_sorted_detects_order() {
        assert!(is_sorted_by_key(&[1, 2, 2, 3], |&x| x));
        assert!(!is_sorted_by_key(&[3, 1], |&x| x));
        assert!(is_sorted_by_key::<u32, _, _>(&[], |&x| x));
    }

    proptest! {
        #[test]
        fn prop_counting_sort_sorted_and_permutation(
            items in proptest::collection::vec(0u32..200, 0..2000)
        ) {
            let sorted = counting_sort_by_key(&items, 200, |&x| x);
            prop_assert!(is_sorted_by_key(&sorted, |&x| x));
            let mut a = items.clone();
            let mut b = sorted.clone();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }

        // Both sorts are stable, so on any in-range input they must agree
        // exactly — including keys at the top of the range (num_keys - 1,
        // here 199, which the half-open strategy bound 0..200 does generate).
        #[test]
        fn prop_parallel_sort_agrees_with_counting_sort(
            items in proptest::collection::vec((0u32..200, any::<u32>()), 0..3000)
        ) {
            let counted = counting_sort_by_key(&items, 200, |&(k, _)| k);
            let mut parallel = items.clone();
            sort_by_key_parallel(&mut parallel, |&(k, _)| k as u64);
            prop_assert_eq!(counted, parallel);
        }

        #[test]
        fn prop_parallel_sort_agrees_with_counting_sort_tiny_range(
            items in proptest::collection::vec((0u32..2, any::<u32>()), 0..2500)
        ) {
            let counted = counting_sort_by_key(&items, 2, |&(k, _)| k);
            let mut parallel = items.clone();
            sort_by_key_parallel(&mut parallel, |&(k, _)| k as u64);
            prop_assert_eq!(counted, parallel);
        }
    }
}
