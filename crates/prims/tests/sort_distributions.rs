//! Distribution torture battery for the parallel sorting subsystem.
//!
//! Every distribution is run through the prims-level LSD radix sort
//! ([`sort_by_key_parallel`] / [`par_radix_sort_by_key`]) and checked
//! against `std`'s sort for exact value equality. The sort promises
//! stability, so for keyed records the expectation is `std`'s *stable*
//! `sort_by_key`, payloads included; any reordering of equal keys is a
//! failure. Each case runs at several pinned pool sizes so the parallel code
//! paths (not just the sequential fallbacks) face every distribution.

use greedy_prims::random::hash64;
use greedy_prims::sort::{par_radix_sort_by_key, sort_by_key_parallel};

/// Records: (key, payload). The payload is the original index, which makes
/// stability violations visible as payload mismatches.
type Rec = (u64, u32);

fn with_payloads(keys: impl IntoIterator<Item = u64>) -> Vec<Rec> {
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u32))
        .collect()
}

/// The torture distributions. `N` is large enough to clear the radix sort's
/// sequential cutoff (32768).
fn distributions() -> Vec<(&'static str, Vec<Rec>)> {
    const N: u64 = 60_000;
    vec![
        ("empty", with_payloads([])),
        ("single", with_payloads([42])),
        ("all_equal", with_payloads((0..N).map(|_| 7))),
        ("already_sorted", with_payloads(0..N)),
        ("reverse_sorted", with_payloads((0..N).rev())),
        ("duplicate_heavy", with_payloads((0..N).map(|i| i % 7))),
        (
            "u64_max_boundary",
            with_payloads((0..N).map(|i| match i % 5 {
                0 => u64::MAX,
                1 => u64::MAX - 1,
                2 => 0,
                3 => 1 << 63,
                _ => hash64(3, i),
            })),
        ),
        ("random_wide", with_payloads((0..N).map(|i| hash64(1, i)))),
    ]
}

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build pool")
        .install(f)
}

fn pool_sizes() -> Vec<usize> {
    vec![1, 2, 3, 7]
}

#[test]
fn radix_sort_matches_std_stable_sort_on_all_distributions() {
    for (name, input) in distributions() {
        let mut expected = input.clone();
        expected.sort_by_key(|&(k, _)| k); // std stable sort: the oracle
        for threads in pool_sizes() {
            let mut got = input.clone();
            in_pool(threads, || sort_by_key_parallel(&mut got, |&(k, _)| k));
            assert_eq!(
                got, expected,
                "radix vs std diverged: {name}, {threads} threads"
            );
        }
    }
}

#[test]
fn radix_sort_direct_entry_point_agrees() {
    // `par_radix_sort_by_key` is the engine behind `sort_by_key_parallel`;
    // exercise the public entry point on the nastiest two distributions.
    for (name, input) in distributions() {
        if name != "u64_max_boundary" && name != "duplicate_heavy" {
            continue;
        }
        let mut expected = input.clone();
        expected.sort_by_key(|&(k, _)| k);
        let mut got = input.clone();
        in_pool(4, || par_radix_sort_by_key(&mut got, |&(k, _)| k));
        assert_eq!(got, expected, "direct radix diverged: {name}");
    }
}

#[test]
fn sorts_preserve_multiset_even_under_adversarial_payloads() {
    // Same key everywhere but payloads arranged to catch lost/duplicated
    // writes in the scatter phases: the payload sum and count must survive.
    let input: Vec<Rec> = (0..50_000u32).map(|i| (5, i ^ 0xAAAA)).collect();
    let expect_sum: u64 = input.iter().map(|&(_, p)| p as u64).sum();
    let mut got = input;
    in_pool(4, || sort_by_key_parallel(&mut got, |&(k, _)| k));
    assert_eq!(got.len(), 50_000);
    assert_eq!(got.iter().map(|&(_, p)| p as u64).sum::<u64>(), expect_sum);
}
