//! Every parallel primitive must return exactly what its sequential flavor
//! returns — the determinism contract the crate-level docs promise. Each
//! primitive is exercised on the four canonical shapes: empty input, a single
//! element, all-equal elements, and a ~100k-element pseudorandom input (large
//! enough to clear `SEQUENTIAL_CUTOFF` and split across real worker threads).

use greedy_prims::pack::{pack, pack_index, par_filter, par_pack, par_pack_index};
use greedy_prims::permutation::{par_random_permutation, random_permutation};
use greedy_prims::random::hash64;
use greedy_prims::reduce::{par_count, par_max, par_min, par_sum};
use greedy_prims::scan::{
    exclusive_scan, exclusive_scan_in_place, inclusive_scan, par_exclusive_scan,
    par_exclusive_scan_in_place,
};
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
fn par_scan_equals_sequential_scan() {
    for data in shapes_u64() {
        let (seq, seq_total) = exclusive_scan(&data);
        let (par, par_total) = par_exclusive_scan(&data);
        assert_eq!(seq, par, "exclusive scan diverged on len {}", data.len());
        assert_eq!(seq_total, par_total);

        let mut in_place_seq = data.clone();
        let mut in_place_par = data.clone();
        let t1 = exclusive_scan_in_place(&mut in_place_seq);
        let t2 = par_exclusive_scan_in_place(&mut in_place_par);
        assert_eq!(in_place_seq, in_place_par);
        assert_eq!(t1, t2);

        // Inclusive scan is the exclusive scan shifted by one element.
        let incl = inclusive_scan(&data);
        assert_eq!(incl.len(), data.len());
        if let (Some(&last_incl), true) = (incl.last(), !data.is_empty()) {
            assert_eq!(last_incl, seq_total);
        }
    }
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
        assert_eq!(pack_index(&flags), par_pack_index(&flags));
        let seq_filter: Vec<u64> = data.iter().copied().filter(|&x| x % 2 == 0).collect();
        assert_eq!(seq_filter, par_filter(&data, |&x| x % 2 == 0));
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
fn par_reductions_equal_sequential_reductions() {
    for data in shapes_u64() {
        assert_eq!(par_sum(&data), data.iter().sum::<u64>());
        assert_eq!(par_max(&data), data.iter().copied().max());
        assert_eq!(par_min(&data), data.iter().copied().min());
        assert_eq!(
            par_count(&data, |&x| x % 7 == 0),
            data.iter().filter(|&&x| x % 7 == 0).count()
        );
    }
}

#[test]
fn permutations_valid_on_all_shapes() {
    // The sequential (Fisher–Yates) and parallel (sort-by-hash) constructions
    // intentionally produce different permutations; the shared contract is
    // validity, determinism per seed, and seed sensitivity.
    for n in [0usize, 1, 1000, BIG] {
        let seq = random_permutation(n, 11);
        let par = par_random_permutation(n, 11);
        assert!(seq.validate(), "sequential permutation invalid for n={n}");
        assert!(par.validate(), "parallel permutation invalid for n={n}");
        assert_eq!(seq.len(), n);
        assert_eq!(par.len(), n);
        assert_eq!(seq, random_permutation(n, 11));
        assert_eq!(par, par_random_permutation(n, 11));
        if n > 100 {
            assert_ne!(seq, random_permutation(n, 12));
            assert_ne!(par, par_random_permutation(n, 12));
        }
    }
}
