//! Runs every experiment binary in sequence at the configured scale and
//! writes each one's CSV to `results/<experiment>_<graph>.csv`.
//!
//! This is the one-command regeneration path for EXPERIMENTS.md:
//!
//! ```text
//! cargo run --release -p greedy_bench --bin run_all -- --scale small
//! ```
//!
//! In `--quick` mode it additionally times the two setup-phase hot paths the
//! sort subsystem owns — random-permutation construction and edge-list → CSR
//! build — the prefix and sequential matching kernels (`core_*` rows), the
//! engine's batch paths and the rayon shim's per-call fork cost (`prims_*`
//! rows), and writes them to `results/BENCH_quick.json`. CI
//! uploads that file as an artifact on every run, giving future PRs a perf
//! trajectory to compare against. Adding `--compare` diffs the fresh rows
//! against the trajectory file's pre-run contents (the committed baseline in
//! CI) and prints a warning — never a failure — for every throughput row
//! that regressed by more than 25%.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;

use greedy_bench::{
    compare_quick_entries, engine_matching_heavy_batch, engine_mixed_batch, merge_quick_entries,
    read_quick_entries, run_on_threads, secs, time_best_of, HarnessConfig,
};
use greedy_core::matching::prefix::prefix_matching;
use greedy_core::matching::sequential::sequential_matching;
use greedy_core::mis::prefix::PrefixPolicy;
use greedy_core::ordering::random_edge_permutation;
use greedy_engine::prelude::{DynGraph, Engine};
use greedy_graph::csr::Graph;
use greedy_graph::gen::random::{random_edge_list, random_graph};
use greedy_prims::permutation::par_random_permutation;
use greedy_prims::random::hash64;
use rayon::prelude::*;

fn main() {
    let cfg = HarnessConfig::from_args();
    let scale = cfg.scale.name();
    let out_dir = PathBuf::from("results");
    fs::create_dir_all(&out_dir).expect("cannot create results/ directory");

    // (binary, graphs to run it on)
    let experiments: &[(&str, &[&str])] = &[
        ("fig1_mis_prefix", &["random", "rmat"]),
        ("fig2_mm_prefix", &["random", "rmat"]),
        ("fig3_mis_threads", &["random", "rmat"]),
        ("fig4_mm_threads", &["random", "rmat"]),
        ("dependence_length", &["random"]),
        ("ablation_mis_impls", &["random", "rmat"]),
        ("ablation_grain_size", &["random"]),
    ];

    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();

    if cfg.quick {
        // `--compare` diffs the fresh rows against whatever the trajectory
        // file held *before* this run — in CI that is the committed
        // baseline — so snapshot it ahead of the merge.
        let baseline = cfg
            .compare
            .then(|| read_quick_entries(&out_dir.join("BENCH_quick.json")));
        write_quick_bench(&cfg, &out_dir);
        if let Some(baseline) = baseline {
            compare_against_baseline(&baseline, &out_dir);
        }
    }

    for (bin, graphs) in experiments {
        for graph in *graphs {
            let out_path = out_dir.join(format!("{bin}_{graph}.csv"));
            eprintln!(
                "== running {bin} --graph {graph} --scale {scale} -> {}",
                out_path.display()
            );
            let threads = cfg
                .threads
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let output = Command::new(exe_dir.join(bin))
                .args([
                    "--graph",
                    graph,
                    "--scale",
                    scale,
                    "--seed",
                    &cfg.seed.to_string(),
                ])
                .args([
                    "--threads",
                    &threads,
                    "--reps",
                    &cfg.reps.to_string(),
                    "--csv",
                ])
                .output()
                .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
            if !output.status.success() {
                eprintln!(
                    "experiment {bin} ({graph}) failed:\n{}",
                    String::from_utf8_lossy(&output.stderr)
                );
                std::process::exit(1);
            }
            fs::write(&out_path, &output.stdout)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", out_path.display()));
        }
    }
    eprintln!("all experiments written to {}", out_dir.display());
}

/// The `--compare` step: diff the freshly merged `BENCH_quick.json` rows
/// against the pre-merge snapshot and warn on >25% throughput regressions.
/// Warning only, never a failure: quick-mode numbers from a shared CI box
/// are too noisy for a hard gate, but the warning makes a persistent
/// regression visible in the job log while the uploaded artifact keeps the
/// exact rows for the trajectory.
fn compare_against_baseline(baseline: &[String], out_dir: &Path) {
    if baseline.is_empty() {
        eprintln!("== compare: no baseline rows to diff against, skipping");
        return;
    }
    let fresh = read_quick_entries(&out_dir.join("BENCH_quick.json"));
    let warnings = compare_quick_entries(baseline, &fresh, 25.0);
    if warnings.is_empty() {
        eprintln!(
            "== compare: no >25% throughput regressions across {} baseline rows",
            baseline.len()
        );
    } else {
        for w in &warnings {
            eprintln!("   PERF WARNING: {w}");
        }
        eprintln!(
            "== compare: {} row(s) regressed >25% vs the baseline (warning only)",
            warnings.len()
        );
    }
}

/// One timed entry of the quick-bench trajectory file.
struct QuickEntry {
    name: &'static str,
    threads: usize,
    n: usize,
    m: usize,
    seconds: f64,
}

/// Times the permutation and CSR-build hot paths, the prefix and sequential
/// matching kernels, the batch-dynamic engine's mixed-batch and
/// matching-heavy update paths, and the rayon shim's per-call fork cost (each
/// at every `--threads` value), plus the membership-probe microbench, and
/// writes `results/BENCH_quick.json`.
///
/// Sizes are fixed (1M-element permutation, 100k/500k uniform graph, 1k-edge
/// engine batches, 1M membership probes) regardless of `--scale`, so the
/// numbers are comparable across runs and across PRs; at these sizes the
/// whole sweep takes a few seconds.
fn write_quick_bench(cfg: &HarnessConfig, out_dir: &Path) {
    const PERM_N: usize = 1_000_000;
    const CSR_N: usize = 100_000;
    const CSR_M: usize = 500_000;
    const ENGINE_BATCH: u64 = 1_000;
    const ENGINE_ROUNDS: u64 = 5;
    let reps = cfg.reps.max(2);
    let edges = random_edge_list(CSR_N, CSR_M, cfg.seed);
    let edge_pi = random_edge_permutation(edges.num_edges(), cfg.seed);
    let mut entries: Vec<QuickEntry> = Vec::new();
    let mut kernels: Vec<PerCall> = Vec::new();
    for &threads in &cfg.threads {
        let (perm_time, perm) = run_on_threads(threads, || {
            time_best_of(reps, || par_random_permutation(PERM_N, cfg.seed))
        });
        assert_eq!(perm.len(), PERM_N);
        entries.push(QuickEntry {
            name: "par_random_permutation",
            threads,
            n: PERM_N,
            m: 0,
            seconds: secs(perm_time),
        });
        let (csr_time, graph) = run_on_threads(threads, || {
            time_best_of(reps, || Graph::from_edge_list(&edges))
        });
        entries.push(QuickEntry {
            name: "csr_from_edge_list",
            threads,
            n: CSR_N,
            m: graph.num_edges(),
            seconds: secs(csr_time),
        });
        // The paper's matching kernel at the default 2 % prefix, beside the
        // sequential loop whose result it must reproduce.
        let (mut seq_mm, mut prefix_mm) = (Vec::new(), Vec::new());
        kernels.extend(run_on_threads(threads, || {
            let m = edges.num_edges();
            let mut prefix =
                || prefix_mm = prefix_matching(&edges, &edge_pi, PrefixPolicy::default());
            let mut seq = || seq_mm = sequential_matching(&edges, &edge_pi);
            [
                per_call("core_prefix_matching", threads, CSR_N, m, 1, &mut prefix),
                per_call("core_sequential_matching", threads, CSR_N, m, 1, &mut seq),
            ]
        }));
        assert_eq!(prefix_mm, seq_mm, "prefix matching differs from sequential");
        // Batch-dynamic engine: a *fixed* stream of mixed batches (1k hashed
        // inserts + 500 deletes sampled from the live graph) applied to a
        // maintained 100k/500k graph; reported as mean seconds per batch.
        // The stream is the same regardless of `--reps` (each batch mutates
        // the engine, so best-of over reps would compare different
        // workloads), keeping the entry comparable across runs and PRs.
        let (engine_time, engine_edges) = run_on_threads(threads, || {
            let base = random_graph(CSR_N, CSR_M, cfg.seed);
            let mut engine = Engine::from_graph(&base, cfg.seed);
            let start = std::time::Instant::now();
            for round in 1..=ENGINE_ROUNDS {
                let batch = engine_mixed_batch(&engine, round, ENGINE_BATCH, ENGINE_BATCH / 2);
                engine.apply_batch(&batch);
            }
            (start.elapsed() / ENGINE_ROUNDS as u32, engine.num_edges())
        });
        entries.push(QuickEntry {
            name: "engine_apply_batch_1500",
            threads,
            n: CSR_N,
            m: engine_edges,
            seconds: secs(engine_time),
        });
        // Matching-heavy stream: the deletions target currently *matched*
        // edges, so every batch drives the matching's round-machinery
        // repair (freed slots + reseeded neighborhoods) — this entry tracks
        // the matching path separately from the mixed-batch entry above.
        let (match_time, match_edges) = run_on_threads(threads, || {
            let base = random_graph(CSR_N, CSR_M, cfg.seed);
            let mut engine = Engine::from_graph(&base, cfg.seed);
            let start = std::time::Instant::now();
            for round in 1..=ENGINE_ROUNDS {
                let batch =
                    engine_matching_heavy_batch(&engine, round, ENGINE_BATCH, ENGINE_BATCH / 2);
                engine.apply_batch(&batch);
            }
            (start.elapsed() / ENGINE_ROUNDS as u32, engine.num_edges())
        });
        entries.push(QuickEntry {
            name: "engine_matching_repair_1500",
            threads,
            n: CSR_N,
            m: match_edges,
            seconds: secs(match_time),
        });
        kernels.extend(run_on_threads(threads, || prims_per_call(threads)));
    }

    // Storage-layout microbench: random membership probes against the
    // engine's flat slack-CSR arena. Sequential by design (a probe is one
    // lookup), so one entry. The arena's layout cannot fragment as the graph
    // churns, so this entry's trajectory is the one that must stay flat over
    // time.
    {
        const PROBES: u64 = 1_000_000;
        let graph = random_graph(CSR_N, CSR_M, cfg.seed);
        let flat = DynGraph::from_graph(&graph);
        let probe_pair = |i: u64| {
            (
                (hash64(cfg.seed ^ 0x9E0B, 2 * i) % CSR_N as u64) as u32,
                (hash64(cfg.seed ^ 0x9E0B, 2 * i + 1) % CSR_N as u64) as u32,
            )
        };
        let (flat_time, flat_hits) = time_best_of(reps, || {
            (0..PROBES)
                .filter(|&i| {
                    let (u, v) = probe_pair(i);
                    flat.has_edge(u, v)
                })
                .count()
        });
        let csr_hits = (0..PROBES)
            .filter(|&i| {
                let (u, v) = probe_pair(i);
                graph.has_edge(u, v)
            })
            .count();
        assert_eq!(flat_hits, csr_hits, "arena and CSR probes disagree");
        entries.push(QuickEntry {
            name: "membership_probe_flat",
            threads: 1,
            n: CSR_N,
            m: graph.num_edges(),
            seconds: secs(flat_time),
        });
    }

    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"threads\": {}, \"n\": {}, \"m\": {}, \"seconds\": {:.6}}}",
                e.name, e.threads, e.n, e.m, e.seconds
            )
        })
        .chain(kernels.iter().map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"threads\": {}, \"n\": {}, \"m\": {}, \"value\": {:.3}, \
                 \"unit\": \"us\", \"reps\": {}, \"min\": {:.3}, \"max\": {:.3}}}",
                p.name,
                p.threads,
                p.n,
                p.m,
                p.median(),
                p.us.len(),
                p.us[0],
                p.us[p.us.len() - 1]
            )
        }))
        .collect();
    // Merge rather than rewrite: `serve_load` owns the `server_*` rows of
    // the same file, and neither binary may destroy the other's trajectory.
    let path = out_dir.join("BENCH_quick.json");
    merge_quick_entries(
        &path,
        cfg.seed,
        &[
            "par_random_permutation",
            "csr_from_edge_list",
            "core_",
            "engine_",
            "membership_probe",
            "prims_",
        ],
        "run_all",
        &rows,
    );
    eprintln!("quick perf trajectory written to {}", path.display());
    for e in &entries {
        eprintln!(
            "  {:>24} threads={:<2} {:>9.3} ms",
            e.name,
            e.threads,
            e.seconds * 1e3
        );
    }
    for p in &kernels {
        eprintln!(
            "  {:>24} threads={:<2} {:>9.3} us",
            p.name,
            p.threads,
            p.median()
        );
    }
}

/// A kernel's cost per call in microseconds, one sample per rep, sorted.
struct PerCall {
    name: &'static str,
    threads: usize,
    n: usize,
    m: usize,
    us: Vec<f64>,
}

impl PerCall {
    fn median(&self) -> f64 {
        self.us[self.us.len() / 2]
    }
}

/// Makes `calls` untimed calls of `op`, then `REPS` reps of `calls` timed
/// back-to-back calls each; a rep's sample is their mean wall time per call.
fn per_call(
    name: &'static str,
    threads: usize,
    n: usize,
    m: usize,
    calls: u32,
    op: &mut dyn FnMut(),
) -> PerCall {
    const REPS: usize = 7;
    (0..calls).for_each(|_| op());
    let mut us: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = std::time::Instant::now();
            (0..calls).for_each(|_| op());
            start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
        })
        .collect();
    us.sort_by(f64::total_cmp);
    PerCall {
        name,
        threads,
        n,
        m,
        us,
    }
}

/// Times the shim's two fork points on the current pool: `rayon::join` of
/// two trivial closures, and `par_iter().map().sum()` over 4,096 `u64`s,
/// 1,000 calls per rep; the row is the median rep. At one thread both run
/// sequentially, which is the base the parallel rows are measured against.
fn prims_per_call(threads: usize) -> Vec<PerCall> {
    const CALLS: u32 = 1_000;
    const SUM_N: usize = 4_096;
    let data: Vec<u64> = (0..SUM_N as u64).collect();
    let expected: u64 = data.iter().map(|&x| x * 3).sum();
    let mut join = || {
        black_box(rayon::join(|| black_box(1u64), || black_box(2u64)));
    };
    let mut sum = || {
        let sum: u64 = black_box(&data).par_iter().map(|&x| x * 3).sum();
        assert_eq!(sum, expected);
    };
    vec![
        per_call("prims_join_us", threads, 2, 0, CALLS, &mut join),
        per_call("prims_par_sum_4096_us", threads, SUM_N, 0, CALLS, &mut sum),
    ]
}
