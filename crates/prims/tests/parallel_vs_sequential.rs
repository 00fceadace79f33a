//! Every parallel primitive must return exactly what its sequential flavor
//! returns — the determinism contract the crate-level docs promise. Each
//! primitive is exercised on the four canonical shapes: empty input, a single
//! element, all-equal elements, and a ~100k-element pseudorandom input (large
//! enough to clear `SEQUENTIAL_CUTOFF` and split across real worker threads).

use greedy_prims::pack::{pack, par_pack};
use greedy_prims::permutation::par_random_permutation;
use greedy_prims::random::hash64;
use greedy_prims::sort::{counting_sort_by_key, is_sorted_by_key, sort_by_key_parallel};

const BIG: usize = 100_000;

/// The four canonical input shapes for a `u64` primitive.
fn shapes_u64() -> Vec<Vec<u64>> {
    vec![
        vec![],
        vec![17],
        vec![3; 1000],
        (0..BIG as u64).map(|i| hash64(1, i) % 1_000).collect(),
    ]
}

#[test]
fn par_pack_equals_pack() {
    for data in shapes_u64() {
        // Flags derived deterministically from values and position.
        let flags: Vec<bool> = data
            .iter()
            .enumerate()
            .map(|(i, &x)| (x + i as u64).is_multiple_of(3))
            .collect();
        assert_eq!(pack(&data, &flags), par_pack(&data, &flags));
    }
}

#[test]
fn parallel_sort_equals_sequential_sort() {
    for data in shapes_u64() {
        let mut seq = data.clone();
        let mut par = data.clone();
        seq.sort_unstable();
        sort_by_key_parallel(&mut par, |&x| x);
        assert_eq!(
            seq,
            par,
            "sort_by_key_parallel diverged on len {}",
            data.len()
        );
        assert!(is_sorted_by_key(&par, |&x| x));
    }
}

#[test]
fn counting_sort_equals_comparison_sort() {
    for data in shapes_u64() {
        let keys: Vec<u32> = data.iter().map(|&x| (x % 512) as u32).collect();
        let sorted = counting_sort_by_key(&keys, 512, |&k| k);
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }
}

#[test]
fn permutations_valid_on_all_shapes() {
    // The shared contract: validity, determinism per seed, and seed
    // sensitivity.
    for n in [0usize, 1, 1000, BIG] {
        let par = par_random_permutation(n, 11);
        assert!(par.validate(), "permutation invalid for n={n}");
        assert_eq!(par.len(), n);
        assert_eq!(par, par_random_permutation(n, 11));
        if n > 100 {
            assert_ne!(par, par_random_permutation(n, 12));
        }
    }
}
