//! Runs the paper's experiments ([`greedy_bench::experiments`]) in this
//! process at the configured scale and writes each one's CSV to
//! `results/<experiment>_<graph>.csv`. Each selected input is generated
//! once and shared by every experiment that runs on it.
//!
//! ```text
//! cargo run --release -p greedy_bench --bin run_all -- --scale small
//! cargo run --release -p greedy_bench --bin run_all -- fig1_mis_prefix --graph rmat
//! ```
//!
//! Experiment names on the command line select experiments (all run when
//! none is named) and `--graph random|rmat` restricts the inputs; an
//! unknown name, or a selection with nothing to run, exits 2 before any
//! work. The flags are [`greedy_bench::HarnessConfig`]'s.
//!
//! In `--quick` mode it additionally times the two setup-phase hot paths the
//! sort subsystem owns — random-permutation construction and edge-list → CSR
//! build — the prefix and sequential matching kernels and the root-set MIS
//! (`core_*` rows), the engine's construction, batch paths and arena batch
//! calls (`engine_*` rows) and the rayon shim's per-call fork cost
//! (`prims_*` rows), and writes them to `results/BENCH_quick.json`. CI
//! uploads that file as an artifact on every run, giving future PRs a perf
//! trajectory to compare against. Adding `--compare` diffs the fresh rows
//! against the trajectory file's pre-run contents (the committed baseline in
//! CI) and prints a warning — never a failure — for every timing or rate
//! row, the median-of-7 kernel rows included, that regressed by more than
//! 25%.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};

use greedy_bench::experiments::{select, Runner};
use greedy_bench::{
    compare_quick_entries, engine_matching_heavy_batch, engine_mixed_batch, merge_quick_entries,
    read_quick_entries, run_on_threads, secs, time_best_of, ExperimentGraph, HarnessConfig,
};
use greedy_core::matching::prefix::prefix_matching;
use greedy_core::matching::sequential::sequential_matching;
use greedy_core::mis::prefix::{prefix_mis, PrefixPolicy};
use greedy_core::mis::rootset::rootset_mis;
use greedy_core::mis::sequential::sequential_mis;
use greedy_core::ordering::{random_edge_permutation, random_permutation};
use greedy_engine::prelude::{edge_permutation, vertex_permutation, DynGraph, Engine};
use greedy_graph::csr::Graph;
use greedy_graph::edge_list::Edge;
use greedy_graph::gen::random::{random_edge_list, random_graph};
use greedy_prims::permutation::par_random_permutation;
use greedy_prims::random::hash64;
use rayon::prelude::*;

fn main() {
    let cfg = HarnessConfig::from_args();
    let selected = select(&cfg).unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        std::process::exit(2);
    });

    let out_dir = PathBuf::from("results");
    fs::create_dir_all(&out_dir).expect("cannot create results/ directory");

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

    // `select` groups the pairs by graph, so each input is generated at
    // most once, on first use, and freed before the next one is built.
    for group in selected.chunk_by(|a, b| a.1 == b.1) {
        let mut input = None;
        for &(experiment, kind) in group {
            let out_path = out_dir.join(format!("{}_{}.csv", experiment.name, kind.name()));
            eprintln!(
                "== {} on {} at {} scale -> {}",
                experiment.name,
                kind.name(),
                cfg.scale.name(),
                out_path.display()
            );
            let csv = match experiment.run {
                Runner::OnInput(run) => run(
                    &cfg,
                    input.get_or_insert_with(|| {
                        ExperimentGraph::generate(kind, cfg.scale, cfg.seed)
                    }),
                ),
                Runner::OwnInputs(run) => run(&cfg),
            };
            fs::write(&out_path, csv)
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
/// MIS and matching kernels, the root-set MIS, the batch-dynamic engine's
/// construction, its mixed-batch and matching-heavy update paths and its
/// arena's 4,096-edge insert and delete, and the rayon shim's per-call fork
/// cost (each at every `--threads` value),
/// plus the membership-probe microbench, and writes
/// `results/BENCH_quick.json`.
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
    let vertex_pi = random_permutation(CSR_N, cfg.seed);
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
        // The paper's MIS and matching kernels at the default 2 % prefix,
        // each beside the sequential loop whose result it must reproduce.
        let (mut seq_mis, mut prefix_mis_set) = (Vec::new(), Vec::new());
        let (mut seq_mm, mut prefix_mm) = (Vec::new(), Vec::new());
        kernels.extend(run_on_threads(threads, || {
            let m = graph.num_edges();
            let mut prefix =
                || prefix_mis_set = prefix_mis(&graph, &vertex_pi, PrefixPolicy::default());
            let mut seq = || seq_mis = sequential_mis(&graph, &vertex_pi);
            [
                per_call("core_prefix_mis", threads, CSR_N, m, 1, &mut prefix),
                per_call("core_sequential_mis", threads, CSR_N, m, 1, &mut seq),
            ]
        }));
        assert_eq!(
            prefix_mis_set, seq_mis,
            "prefix MIS differs from sequential"
        );
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
        // Algorithm 2 in linear work (Lemma 4.2), and the engine's build of
        // both states, on the same graph. Each result must be the sequential
        // one under its order.
        let (mut rootset, mut engine) = (Vec::new(), Engine::new(0, cfg.seed));
        kernels.extend(run_on_threads(threads, || {
            let m = graph.num_edges();
            let mut peel = || rootset = rootset_mis(&graph, &vertex_pi);
            let mut build = || engine = Engine::from_graph(&graph, cfg.seed);
            [
                per_call("core_rootset_mis", threads, CSR_N, m, 1, &mut peel),
                per_call("engine_from_graph", threads, CSR_N, m, 1, &mut build),
            ]
        }));
        assert_eq!(rootset, seq_mis, "root-set MIS differs from sequential");
        let engine_pi = vertex_permutation(CSR_N, cfg.seed);
        assert_eq!(
            engine.mis(),
            sequential_mis(&graph, &engine_pi),
            "engine MIS differs from sequential"
        );
        let engine_el = graph.to_edge_list();
        let engine_edge_pi = edge_permutation(cfg.seed, &engine_el);
        let mut expected_mm: Vec<Edge> = sequential_matching(&engine_el, &engine_edge_pi)
            .into_iter()
            .map(|id| engine_el.edge(id as usize))
            .collect();
        expected_mm.sort_unstable_by_key(|e| e.sort_key());
        assert_eq!(
            engine.matching(),
            expected_mm,
            "engine matching differs from sequential"
        );
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
        kernels.extend(run_on_threads(threads, || {
            arena_per_call(threads, &graph, cfg.seed)
        }));
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

/// Times the arena's batch path on `graph`: `DynGraph::insert_edges`, then
/// `delete_edges`, of the same 4,096 fresh edges, each call asserted to
/// apply all of them. One untimed pair, then `REPS` reps of `CALLS` pairs;
/// a rep's sample is the mean wall time per call of each kind.
fn arena_per_call(threads: usize, graph: &Graph, seed: u64) -> [PerCall; 2] {
    const BATCH: usize = 4_096;
    const CALLS: u32 = 10;
    const REPS: usize = 7;
    let mut g = DynGraph::from_graph(graph);
    let n = graph.num_vertices() as u64;
    let mut keys = std::collections::HashSet::new();
    let batch: Vec<Edge> = (0..)
        .map(|i| {
            Edge::new(
                (hash64(seed ^ 0xA7E4, 2 * i) % n) as u32,
                (hash64(seed ^ 0xA7E4, 2 * i + 1) % n) as u32,
            )
            .canonical()
        })
        .filter(|e| !e.is_self_loop() && !g.has_edge(e.u, e.v) && keys.insert(e.sort_key()))
        .take(BATCH)
        .collect();
    let pair = |g: &mut DynGraph| {
        let start = std::time::Instant::now();
        assert_eq!(g.insert_edges(&batch).len(), BATCH, "insert dropped edges");
        let inserted = start.elapsed();
        assert_eq!(g.delete_edges(&batch).len(), BATCH, "delete dropped edges");
        (inserted, start.elapsed() - inserted)
    };
    pair(&mut g);
    let (mut insert_us, mut delete_us) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut ins, mut del) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
        for _ in 0..CALLS {
            let (i, d) = pair(&mut g);
            ins += i;
            del += d;
        }
        insert_us.push(ins.as_secs_f64() * 1e6 / f64::from(CALLS));
        delete_us.push(del.as_secs_f64() * 1e6 / f64::from(CALLS));
    }
    [
        ("engine_arena_insert_4096", insert_us),
        ("engine_arena_delete_4096", delete_us),
    ]
    .map(|(name, mut us)| {
        us.sort_by(f64::total_cmp);
        PerCall {
            name,
            threads,
            n: graph.num_vertices(),
            m: graph.num_edges(),
            us,
        }
    })
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
