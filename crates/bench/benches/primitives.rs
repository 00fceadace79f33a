//! Criterion micro-benchmarks of the parallel primitives substrate:
//! prefix sums, packing, random permutations, the sorting subsystem
//! (parallel radix sort vs std), and the
//! edge-list → CSR build that rides on it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use greedy_graph::csr::Graph;
use greedy_graph::gen::random::random_edge_list;
use greedy_prims::pack::{pack, par_pack};
use greedy_prims::permutation::{par_random_permutation, random_permutation};
use greedy_prims::random::hash64;
use greedy_prims::scan::{exclusive_scan, par_exclusive_scan};
use greedy_prims::sort::{counting_sort_by_key, sort_by_key_parallel};

const N: usize = 1_000_000;

fn bench_scan(c: &mut Criterion) {
    let data: Vec<u64> = (0..N as u64).map(|i| i % 97).collect();
    let mut group = c.benchmark_group("primitives/scan");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::from_parameter("sequential"), |b| {
        b.iter(|| exclusive_scan(black_box(&data)))
    });
    group.bench_function(BenchmarkId::from_parameter("parallel"), |b| {
        b.iter(|| par_exclusive_scan(black_box(&data)))
    });
    group.finish();
}

fn bench_pack(c: &mut Criterion) {
    let data: Vec<u64> = (0..N as u64).collect();
    let flags: Vec<bool> = data.iter().map(|&x| x % 3 == 0).collect();
    let mut group = c.benchmark_group("primitives/pack");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::from_parameter("sequential"), |b| {
        b.iter(|| pack(black_box(&data), black_box(&flags)))
    });
    group.bench_function(BenchmarkId::from_parameter("parallel"), |b| {
        b.iter(|| par_pack(black_box(&data), black_box(&flags)))
    });
    group.finish();
}

fn bench_permutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives/random_permutation");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::from_parameter("fisher_yates"), |b| {
        b.iter(|| random_permutation(black_box(N), 5))
    });
    group.bench_function(BenchmarkId::from_parameter("parallel_sort_based"), |b| {
        b.iter(|| par_random_permutation(black_box(N), 5))
    });
    group.finish();
}

fn bench_counting_sort(c: &mut Criterion) {
    let keys: Vec<u32> = (0..N as u64)
        .map(|i| (i * 2654435761 % 1024) as u32)
        .collect();
    let mut group = c.benchmark_group("primitives/counting_sort");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::from_parameter("1024_buckets"), |b| {
        b.iter(|| counting_sort_by_key(black_box(&keys), 1024, |&k| k))
    });
    group.finish();
}

fn bench_sort_subsystem(c: &mut Criterion) {
    // The permutation hot path's exact record shape: (64-bit hash, element).
    let pairs: Vec<(u64, u32)> = (0..N as u64).map(|i| (hash64(7, i), i as u32)).collect();
    let mut group = c.benchmark_group("primitives/sort_u64_keyed_pairs");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::from_parameter("radix_parallel"), |b| {
        b.iter(|| {
            let mut v = black_box(&pairs).clone();
            sort_by_key_parallel(&mut v, |&(k, _)| k);
            v
        })
    });
    group.bench_function(BenchmarkId::from_parameter("std_unstable"), |b| {
        b.iter(|| {
            let mut v = black_box(&pairs).clone();
            v.sort_unstable();
            v
        })
    });
    group.finish();
}

fn bench_csr_build(c: &mut Criterion) {
    // Edge-list → CSR at the `small` experiment scale; dominated by the
    // radix bucketing of 1M arcs.
    let edges = random_edge_list(100_000, 500_000, 42);
    let mut group = c.benchmark_group("primitives/csr_build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(2 * edges.num_edges() as u64));
    group.bench_function(BenchmarkId::from_parameter("100k_500k"), |b| {
        b.iter(|| Graph::from_edge_list(black_box(&edges)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scan,
    bench_pack,
    bench_permutation,
    bench_counting_sort,
    bench_sort_subsystem,
    bench_csr_build
);
criterion_main!(benches);
