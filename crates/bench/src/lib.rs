//! # greedy-bench
//!
//! The experiments that regenerate every figure of the SPAA 2012 paper
//! (Figures 1–4), the Theorem 3.5 dependence-length check and two ablations
//! ([`experiments`]), run in one process by the `run_all` binary, and the
//! per-layer ledger `results/BENCH_quick.json` that `run_all` and
//! `serve_load` write.
//!
//! The harness provides:
//! * the two paper inputs at configurable scale ([`ExperimentGraph`]): the
//!   sparse uniform random graph and the rMat graph;
//! * `run_all`'s command line ([`HarnessConfig`]);
//! * timing helpers ([`time_best_of`]) and thread-pool control
//!   ([`run_on_threads`]);
//! * the ledger's merge and compare steps ([`merge_quick_entries`],
//!   [`compare_quick_entries`]).
//!
//! Scales: the paper uses n = 10⁷ / m = 5·10⁷ (random) and n = 2²⁴ /
//! m = 5·10⁷ (rMat). Both axes of Figures 1 and 2 are normalized by the input
//! size, so the curves keep their shape at smaller scales; the default
//! `small` scale finishes in seconds on a laptop, `medium` in minutes, and
//! `paper` reproduces the original sizes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use greedy_engine::prelude::{EdgeBatch, Engine};
use greedy_graph::csr::Graph;
use greedy_graph::edge_list::EdgeList;
use greedy_graph::gen::random::random_edge_list;
use greedy_graph::gen::rmat::{rmat_edge_list, RmatParams};
use greedy_prims::random::hash64;

pub mod experiments;

/// Which of the paper's two inputs to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Sparse uniform random graph (paper: n = 10⁷, m = 5·10⁷).
    Random,
    /// R-MAT power-law graph (paper: n = 2²⁴, m = 5·10⁷).
    Rmat,
}

impl GraphKind {
    /// Parses `random` / `rmat`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "random" | "uniform" | "gnm" => Some(GraphKind::Random),
            "rmat" | "r-mat" | "powerlaw" => Some(GraphKind::Rmat),
            _ => None,
        }
    }

    /// Short display name used in CSV output.
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Random => "random",
            GraphKind::Rmat => "rmat",
        }
    }
}

/// Input scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// n = 10⁴, m = 5·10⁴ (random); n = 2¹⁴ (rMat). Milliseconds per
    /// experiment — the `--quick` smoke-test scale.
    Tiny,
    /// n = 10⁵, m = 5·10⁵ (random); n = 2¹⁷ (rMat). Seconds per experiment.
    Small,
    /// n = 10⁶, m = 5·10⁶ (random); n = 2²⁰ (rMat). Minutes per experiment.
    Medium,
    /// The paper's sizes: n = 10⁷, m = 5·10⁷ (random); n = 2²⁴ (rMat).
    Paper,
}

impl Scale {
    /// Parses `tiny` / `small` / `medium` / `paper`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" | "t" | "quick" => Some(Scale::Tiny),
            "small" | "s" => Some(Scale::Small),
            "medium" | "m" => Some(Scale::Medium),
            "paper" | "full" | "large" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Short name, as accepted by [`Scale::parse`] and used in CSV output.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }

    /// `(n, m)` for the uniform random input at this scale.
    pub fn random_size(self) -> (usize, usize) {
        match self {
            Scale::Tiny => (10_000, 50_000),
            Scale::Small => (100_000, 500_000),
            Scale::Medium => (1_000_000, 5_000_000),
            Scale::Paper => (10_000_000, 50_000_000),
        }
    }

    /// `(log2 n, m)` for the rMat input at this scale.
    pub fn rmat_size(self) -> (u32, usize) {
        match self {
            Scale::Tiny => (14, 50_000),
            Scale::Small => (17, 500_000),
            Scale::Medium => (20, 5_000_000),
            Scale::Paper => (24, 50_000_000),
        }
    }
}

/// A generated experiment input: the edge list (for matching experiments) and
/// the CSR graph (for MIS experiments).
pub struct ExperimentGraph {
    /// Which generator produced it.
    pub kind: GraphKind,
    /// Scale it was generated at.
    pub scale: Scale,
    /// The canonical edge list (edge ids are indices).
    pub edges: EdgeList,
    /// The CSR form.
    pub graph: Graph,
}

impl ExperimentGraph {
    /// Generates the requested input. Deterministic in `seed`.
    pub fn generate(kind: GraphKind, scale: Scale, seed: u64) -> Self {
        let edges = match kind {
            GraphKind::Random => {
                let (n, m) = scale.random_size();
                random_edge_list(n, m, seed)
            }
            GraphKind::Rmat => {
                let (log_n, m) = scale.rmat_size();
                rmat_edge_list(log_n, m, RmatParams::default(), seed)
            }
        };
        let graph = Graph::from_edge_list(&edges);
        Self {
            kind,
            scale,
            edges,
            graph,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.num_edges()
    }
}

/// `run_all`'s command line.
///
/// Experiment names (see [`experiments::EXPERIMENTS`]) select experiments;
/// with none, all run. Recognized flags (all optional):
/// `--graph random|rmat` (run only on that input), `--scale
/// tiny|small|medium|paper`, `--seed <u64>`, `--threads <list>`
/// (comma-separated), `--reps <k>`, `--quick` (tiny scale, 1 rep, minimal
/// thread sweep — the smoke-test mode), `--compare` (diff fresh
/// `BENCH_quick.json` rows against the committed baseline and warn on large
/// regressions).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// The only input to run on, or `None` for every experiment's inputs.
    pub kind: Option<GraphKind>,
    /// Input scale.
    pub scale: Scale,
    /// Generator / permutation seed.
    pub seed: u64,
    /// Thread counts to sweep for the scaling experiments.
    pub threads: Vec<usize>,
    /// Repetitions per measurement (best time is reported).
    pub reps: usize,
    /// The experiments named on the command line; empty selects all.
    pub experiments: Vec<String>,
    /// True when `--quick` smoke-test mode was requested; `run_all` uses this
    /// to also emit the `BENCH_quick.json` perf-trajectory file.
    pub quick: bool,
    /// True when `--compare` was requested; `run_all` uses this to diff the
    /// freshly written `BENCH_quick.json` rows against the committed baseline
    /// and warn (never fail) on large regressions.
    pub compare: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            kind: None,
            scale: Scale::Small,
            seed: 42,
            threads: default_thread_sweep(),
            reps: 3,
            experiments: Vec::new(),
            quick: false,
            compare: false,
        }
    }
}

/// The default thread sweep: powers of two up to the machine's logical CPUs.
pub fn default_thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut t = 1;
    let mut out = Vec::new();
    while t < max {
        out.push(t);
        t *= 2;
    }
    out.push(max);
    out
}

impl HarnessConfig {
    /// Parses the process arguments; unknown flags abort with a usage
    /// message so typos never silently fall back to defaults.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator (exposed for tests).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut cfg = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut take = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match arg.as_str() {
                "--graph" => {
                    let v = take("--graph");
                    cfg.kind = Some(
                        GraphKind::parse(&v)
                            .unwrap_or_else(|| panic!("unknown graph kind '{v}' (random|rmat)")),
                    );
                }
                "--scale" => {
                    let v = take("--scale");
                    cfg.scale = Scale::parse(&v)
                        .unwrap_or_else(|| panic!("unknown scale '{v}' (tiny|small|medium|paper)"));
                }
                "--seed" => {
                    let v = take("--seed");
                    cfg.seed = v.parse().unwrap_or_else(|_| panic!("bad seed '{v}'"));
                }
                "--threads" => {
                    let v = take("--threads");
                    cfg.threads = v
                        .split(',')
                        .map(|t| {
                            t.trim()
                                .parse()
                                .unwrap_or_else(|_| panic!("bad thread count '{t}'"))
                        })
                        .collect();
                }
                "--reps" => {
                    let v = take("--reps");
                    cfg.reps = v.parse().unwrap_or_else(|_| panic!("bad reps '{v}'"));
                }
                // Smoke-test mode: tiny input, one rep, a two-point thread
                // sweep — every experiment finishes in seconds, so CI can run
                // `run_all -- --quick` as a cheap end-to-end job.
                "--quick" => {
                    cfg.scale = Scale::Tiny;
                    cfg.reps = 1;
                    cfg.quick = true;
                    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
                    cfg.threads = if max > 1 { vec![1, max] } else { vec![1] };
                }
                "--compare" => cfg.compare = true,
                "--help" | "-h" => {
                    let names: Vec<&str> =
                        experiments::EXPERIMENTS.iter().map(|e| e.name).collect();
                    eprintln!(
                        "usage: run_all [EXPERIMENT ...] --graph random|rmat \
                         --scale tiny|small|medium|paper --seed N --threads 1,2,4 --reps K \
                         --quick --compare\nexperiments: {}",
                        names.join(" ")
                    );
                    std::process::exit(0);
                }
                other if other.starts_with('-') => panic!("unknown flag '{other}' (try --help)"),
                name => cfg.experiments.push(name.to_string()),
            }
        }
        assert!(cfg.reps >= 1, "--reps must be at least 1");
        assert!(
            !cfg.threads.is_empty(),
            "--threads must list at least one count"
        );
        cfg
    }
}

/// A deterministic mixed engine batch: `inserts` hashed endpoint pairs plus
/// `deletes` edges sampled from the engine's *current* graph (random vertex,
/// random incident neighbor — O(1) per sample), so the deletions actually
/// exercise the delete-merge and deletion-repair paths instead of being
/// filtered out as absent.
pub fn engine_mixed_batch(engine: &Engine, round: u64, inserts: u64, deletes: u64) -> EdgeBatch {
    let n = engine.num_vertices() as u64;
    let mut batch = EdgeBatch::new();
    for i in 0..inserts {
        batch.insert(
            (hash64(round, 2 * i) % n) as u32,
            (hash64(round, 2 * i + 1) % n) as u32,
        );
    }
    for i in 0..deletes {
        let x = (hash64(round ^ 0xD00D, 2 * i) % n) as u32;
        let adj = engine.graph().neighbors(x);
        if !adj.is_empty() {
            let w = adj[(hash64(round ^ 0xD00D, 2 * i + 1) % adj.len() as u64) as usize];
            batch.delete(x, w);
        }
    }
    batch
}

/// A deterministic *matching-heavy* engine batch: `inserts` hashed endpoint
/// pairs plus `deletes` edges sampled from the engine's **current matching**.
/// Deleting matched edges is the expensive matching-repair case — every
/// deletion frees both endpoints and reseeds their whole surviving
/// neighborhoods — so streams built from this batch keep the matching's
/// round-machinery repair hot rather than letting deletions fall on
/// unmatched edges that need no repair at all.
pub fn engine_matching_heavy_batch(
    engine: &Engine,
    round: u64,
    inserts: u64,
    deletes: u64,
) -> EdgeBatch {
    let n = engine.num_vertices() as u64;
    let mut batch = EdgeBatch::new();
    for i in 0..inserts {
        batch.insert(
            (hash64(round ^ 0x3A7C, 2 * i) % n) as u32,
            (hash64(round ^ 0x3A7C, 2 * i + 1) % n) as u32,
        );
    }
    let matched = engine.matching();
    for i in 0..deletes {
        if !matched.is_empty() {
            let e = matched[(hash64(round ^ 0x4DA7, 2 * i) % matched.len() as u64) as usize];
            batch.delete(e.u, e.v);
        }
    }
    batch
}

/// Runs `f` `reps` times and returns the best (minimum) wall-clock duration
/// together with the result of the final run.
pub fn time_best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    assert!(reps >= 1);
    let mut best = Duration::MAX;
    let mut result = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed());
        result = Some(r);
    }
    (best, result.unwrap())
}

/// Runs `f` inside a dedicated rayon pool of `num_threads` threads: the
/// calling thread plus `num_threads - 1` workers, stopped again on return.
pub fn run_on_threads<T: Send>(num_threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(num_threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

/// The prefix-size fractions swept by the Figure 1/2 experiments (x-axis of
/// the plots, as a fraction of the input size). Matches the paper's log-scale
/// sweep from effectively-sequential to fully-parallel.
pub fn prefix_fraction_sweep() -> Vec<f64> {
    vec![
        1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.2, 0.5, 1.0,
    ]
}

/// Formats a duration as fractional seconds with microsecond resolution.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Merges `rows` (pre-rendered one-line JSON entry objects) into the
/// `results/BENCH_quick.json` perf-trajectory file, *replacing* any existing
/// entries whose `"name"` starts with one of `owned_prefixes` and preserving
/// everything else — so `run_all` and `serve_load` can each refresh their own
/// rows without destroying the other's. Creates the file when missing; if an
/// existing file is not in the expected line-structured shape it is left
/// untouched and the rows go to a `BENCH_quick_<suffix>.json` sidecar
/// instead (trajectory data is never silently destroyed).
pub fn merge_quick_entries(
    path: &std::path::Path,
    seed: u64,
    owned_prefixes: &[&str],
    sidecar_suffix: &str,
    rows: &[String],
) {
    use std::fs;
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).expect("cannot create results directory");
    }
    let fresh = || {
        format!(
            "{{\n  \"schema\": 1,\n  \"seed\": {seed},\n  \"reps\": 1,\n  \"host_threads\": {},\n  \
             \"entries\": [\n{}\n  ]\n}}\n",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            rows.join(",\n")
        )
    };
    let owned = |line: &str| {
        owned_prefixes
            .iter()
            .any(|p| line.contains(&format!("\"name\": \"{p}")))
    };
    let (target, content) = match fs::read_to_string(path) {
        Ok(text) => match split_quick_entries(&text) {
            Some((head, entries, tail)) => {
                let mut kept: Vec<String> = entries.into_iter().filter(|e| !owned(e)).collect();
                kept.extend(rows.iter().cloned());
                (
                    path.to_path_buf(),
                    format!("{head}\n{}\n{tail}", kept.join(",\n")),
                )
            }
            None => {
                let sidecar = path.with_file_name(format!("BENCH_quick_{sidecar_suffix}.json"));
                eprintln!(
                    "   (existing {} not in the expected shape; leaving it intact and \
                     writing {} instead)",
                    path.display(),
                    sidecar.display()
                );
                (sidecar, fresh())
            }
        },
        Err(_) => (path.to_path_buf(), fresh()),
    };
    fs::write(&target, content)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", target.display()));
}

/// Reads the entry lines of a `BENCH_quick.json` trajectory file, or an
/// empty list when the file is missing or not in the expected
/// line-structured shape. This is how `run_all --compare` snapshots the
/// committed baseline before [`merge_quick_entries`] overwrites its rows.
pub fn read_quick_entries(path: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| split_quick_entries(&text).map(|(_, entries, _)| entries))
        .unwrap_or_default()
}

/// Extracts a `"key": "string"` field from a one-line JSON entry object.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts a `"key": number` field from a one-line JSON entry object.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Diffs fresh trajectory rows against a baseline snapshot and returns one
/// warning line per throughput regression larger than `threshold_pct`.
///
/// Only rows whose metric measures throughput are compared: timing rows
/// (`"seconds"`, or a median of several reps carrying `"reps"`; lower is
/// better) and rate rows (`"unit"` ending in `/s`, higher is better).
/// Latency percentiles and counts are skipped — on a shared CI box they are
/// too noisy to diff meaningfully. Rows present on only one side are
/// skipped too, so renaming or adding entries never produces a spurious
/// warning. The caller decides what to do with the warnings; nothing here
/// exits or fails.
pub fn compare_quick_entries(
    baseline: &[String],
    fresh: &[String],
    threshold_pct: f64,
) -> Vec<String> {
    // (name, threads) -> (metric, higher_is_better)
    let index = |rows: &[String]| -> std::collections::BTreeMap<(String, u64), (f64, bool)> {
        let mut map = std::collections::BTreeMap::new();
        for line in rows {
            let Some(name) = json_str_field(line, "name") else {
                continue;
            };
            let threads = json_num_field(line, "threads").unwrap_or(0.0) as u64;
            if let Some(seconds) = json_num_field(line, "seconds") {
                map.insert((name, threads), (seconds, false));
            } else if let (Some(value), Some(unit)) =
                (json_num_field(line, "value"), json_str_field(line, "unit"))
            {
                if json_num_field(line, "reps").is_some() {
                    map.insert((name, threads), (value, false));
                } else if unit.ends_with("/s") {
                    map.insert((name, threads), (value, true));
                }
            }
        }
        map
    };
    let old = index(baseline);
    let mut warnings = Vec::new();
    for ((name, threads), (new_v, higher_is_better)) in index(fresh) {
        let Some(&(old_v, _)) = old.get(&(name.clone(), threads)) else {
            continue;
        };
        if old_v <= 0.0 || new_v <= 0.0 {
            continue;
        }
        let regression_pct = if higher_is_better {
            (old_v - new_v) / old_v * 100.0
        } else {
            (new_v - old_v) / old_v * 100.0
        };
        if regression_pct > threshold_pct {
            warnings.push(format!(
                "{name} (threads={threads}): {old_v:.4} -> {new_v:.4}, \
                 {regression_pct:.0}% throughput regression"
            ));
        }
    }
    warnings
}

/// Splits the trajectory file into (head incl. `"entries": [`, entry lines
/// without trailing commas, tail from `]` on). The file is line-structured
/// by construction — one entry object per line.
fn split_quick_entries(text: &str) -> Option<(String, Vec<String>, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let open = lines
        .iter()
        .position(|l| l.trim_end().ends_with("\"entries\": ["))?;
    let close = (open + 1..lines.len()).find(|&i| lines[i].trim() == "]")?;
    let head = lines[..=open].join("\n");
    let entries = lines[open + 1..close]
        .iter()
        .map(|l| l.trim_end().trim_end_matches(',').to_string())
        .filter(|l| !l.trim().is_empty())
        .collect();
    let tail = lines[close..].join("\n") + "\n";
    Some((head, entries, tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_kind_and_scale_parse() {
        assert_eq!(GraphKind::parse("random"), Some(GraphKind::Random));
        assert_eq!(GraphKind::parse("RMAT"), Some(GraphKind::Rmat));
        assert_eq!(GraphKind::parse("bogus"), None);
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("x"), None);
        for kind in [GraphKind::Random, GraphKind::Rmat] {
            assert_eq!(GraphKind::parse(kind.name()), Some(kind));
        }
        for scale in [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Paper] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
    }

    #[test]
    #[should_panic(expected = "tiny")]
    fn config_rejects_unknown_scale() {
        HarnessConfig::parse(["--scale", "huge"].into_iter().map(String::from));
    }

    #[test]
    fn config_parses_flags() {
        let cfg = HarnessConfig::parse(
            [
                "--graph",
                "rmat",
                "--scale",
                "small",
                "--seed",
                "7",
                "--threads",
                "1,2,4",
                "--reps",
                "2",
                "fig3_mis_threads",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(cfg.kind, Some(GraphKind::Rmat));
        assert_eq!(cfg.scale, Scale::Small);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, vec![1, 2, 4]);
        assert_eq!(cfg.reps, 2);
        assert_eq!(cfg.experiments, ["fig3_mis_threads"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn config_rejects_unknown_flag() {
        HarnessConfig::parse(["--bogus".to_string()]);
    }

    #[test]
    fn default_thread_sweep_is_sane() {
        let sweep = default_thread_sweep();
        assert!(!sweep.is_empty());
        assert_eq!(sweep[0].min(1), 1);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn experiment_graph_generates_both_kinds() {
        for kind in [GraphKind::Random, GraphKind::Rmat] {
            let input = ExperimentGraph::generate(kind, Scale::Tiny, 3);
            assert_eq!((input.kind, input.scale), (kind, Scale::Tiny));
            match kind {
                GraphKind::Random => {
                    let (n, m) = Scale::Tiny.random_size();
                    assert_eq!((input.num_vertices(), input.num_edges()), (n, m));
                }
                GraphKind::Rmat => {
                    let (log_n, m) = Scale::Tiny.rmat_size();
                    assert_eq!(input.num_vertices(), 1 << log_n);
                    assert!(input.num_edges() <= m);
                }
            }
            assert_eq!(input.graph, Graph::from_edge_list(&input.edges));
            let again = ExperimentGraph::generate(kind, Scale::Tiny, 3);
            assert_eq!(
                again.edges, input.edges,
                "{kind:?} is not deterministic in its seed"
            );
        }
    }

    #[test]
    fn time_best_of_returns_minimum() {
        let (d, x) = time_best_of(3, || 42);
        assert_eq!(x, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn run_on_threads_controls_pool_size() {
        let inside = run_on_threads(2, rayon::current_num_threads);
        assert_eq!(inside, 2);
    }

    #[test]
    fn prefix_sweep_is_sorted_and_in_range() {
        let sweep = prefix_fraction_sweep();
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert!(sweep.iter().all(|&f| f > 0.0 && f <= 1.0));
        assert_eq!(*sweep.last().unwrap(), 1.0);
    }

    #[test]
    fn config_parses_compare_flag() {
        let cfg = HarnessConfig::parse(["--quick", "--compare"].into_iter().map(String::from));
        assert!(cfg.quick);
        assert!(cfg.compare);
        assert!(!HarnessConfig::parse(std::iter::empty()).compare);
    }

    #[test]
    fn compare_warns_on_throughput_regressions_only() {
        let row = |name: &str, threads: usize, metric: &str| {
            format!(
                "    {{\"name\": \"{name}\", \"threads\": {threads}, \"n\": 10, \"m\": 20, \
                 {metric}}}"
            )
        };
        let baseline = vec![
            row("sort_pass", 1, "\"seconds\": 1.000000"),
            row("sort_pass", 4, "\"seconds\": 0.250000"),
            row(
                "server_rounds_per_s",
                2,
                "\"value\": 1000.000, \"unit\": \"rounds/s\"",
            ),
            row(
                "server_query_p99_us",
                2,
                "\"value\": 10.000, \"unit\": \"us\"",
            ),
            row("renamed_away", 1, "\"seconds\": 1.000000"),
            row(
                "core_prefix_mis",
                1,
                "\"value\": 1000.000, \"unit\": \"us\", \"reps\": 7, \"min\": 990.000, \
                 \"max\": 1010.000",
            ),
        ];
        let fresh = vec![
            // 50% slower: warns.
            row("sort_pass", 1, "\"seconds\": 1.500000"),
            // 20% slower: under the threshold, silent.
            row("sort_pass", 4, "\"seconds\": 0.300000"),
            // Rate halved: warns.
            row(
                "server_rounds_per_s",
                2,
                "\"value\": 500.000, \"unit\": \"rounds/s\"",
            ),
            // Latency rows are skipped however much they move.
            row(
                "server_query_p99_us",
                2,
                "\"value\": 900.000, \"unit\": \"us\"",
            ),
            // No baseline counterpart: skipped.
            row("brand_new", 1, "\"seconds\": 9.000000"),
            // A median-of-reps kernel row three times slower: warns.
            row(
                "core_prefix_mis",
                1,
                "\"value\": 3000.000, \"unit\": \"us\", \"reps\": 7, \"min\": 2990.000, \
                 \"max\": 3010.000",
            ),
        ];
        let warnings = compare_quick_entries(&baseline, &fresh, 25.0);
        assert_eq!(warnings.len(), 3, "got: {warnings:?}");
        assert!(warnings.iter().any(|w| w.starts_with("core_prefix_mis")));
        assert!(warnings
            .iter()
            .any(|w| w.starts_with("server_rounds_per_s")));
        assert!(warnings
            .iter()
            .any(|w| w.starts_with("sort_pass (threads=1)")));

        // Improvements never warn.
        assert!(compare_quick_entries(&fresh, &baseline, 25.0)
            .iter()
            .all(|w| !w.starts_with("sort_pass")));
        // An empty baseline (file missing / first run) is silent.
        assert!(compare_quick_entries(&[], &fresh, 25.0).is_empty());
    }
}
