//! The paper's experiments: Figures 1–4, the Theorem 3.5 check and two
//! ablations, each a function from the configuration (and, for all but the
//! Theorem 3.5 check, one generated paper input) to its CSV text.
//!
//! [`EXPERIMENTS`] lists them with the graph kinds they run on, and
//! [`select`] picks the (experiment, graph) pairs a command line asks for.
//! `run_all` writes each pair's CSV to `results/<experiment>_<graph>.csv`.

use greedy_core::analysis::{dependence_length, priority_dag_longest_path};
use greedy_core::matching::prefix::{prefix_matching, prefix_matching_with_stats};
use greedy_core::matching::sequential::sequential_matching;
use greedy_core::matching::verify::verify_maximal_matching;
use greedy_core::mis::luby::{luby_mis, luby_mis_with_stats};
use greedy_core::mis::prefix::{prefix_mis, prefix_mis_with_stats, PrefixPolicy};
use greedy_core::mis::rootset::rootset_mis_with_stats;
use greedy_core::mis::sequential::{sequential_mis, sequential_mis_with_stats};
use greedy_core::mis::verify::{verify_mis, verify_same_set};
use greedy_core::ordering::{random_edge_permutation, random_permutation};
use greedy_core::stats::WorkStats;
use greedy_graph::csr::Graph;
use greedy_graph::gen::random::random_graph;
use greedy_graph::gen::rmat::rmat_graph;
use greedy_graph::gen::structured::{complete_graph, path_graph, star_graph};

use crate::{
    prefix_fraction_sweep, run_on_threads, secs, time_best_of, ExperimentGraph, GraphKind,
    HarnessConfig,
};

/// How an experiment gets its input.
pub enum Runner {
    /// Runs on the generated paper input of each of its graph kinds.
    OnInput(fn(&HarnessConfig, &ExperimentGraph) -> String),
    /// Builds its own inputs; its graph kind only names the output file.
    OwnInputs(fn(&HarnessConfig) -> String),
}

/// One experiment: the stem of its CSV files, the inputs it runs on, and
/// the function that computes its CSV text.
pub struct Experiment {
    /// Name on the command line and stem of `<name>_<graph>.csv`.
    pub name: &'static str,
    /// The paper inputs it runs on, one CSV each.
    pub graphs: &'static [GraphKind],
    /// Computes the CSV text, header line first.
    pub run: Runner,
}

const BOTH: &[GraphKind] = &[GraphKind::Random, GraphKind::Rmat];
const RANDOM: &[GraphKind] = &[GraphKind::Random];

/// Every experiment, in the order `run_all` runs them on each input.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1_mis_prefix",
        graphs: BOTH,
        run: Runner::OnInput(fig1_mis_prefix),
    },
    Experiment {
        name: "fig2_mm_prefix",
        graphs: BOTH,
        run: Runner::OnInput(fig2_mm_prefix),
    },
    Experiment {
        name: "fig3_mis_threads",
        graphs: BOTH,
        run: Runner::OnInput(fig3_mis_threads),
    },
    Experiment {
        name: "fig4_mm_threads",
        graphs: BOTH,
        run: Runner::OnInput(fig4_mm_threads),
    },
    Experiment {
        name: "dependence_length",
        graphs: RANDOM,
        run: Runner::OwnInputs(dependence_length_sweep),
    },
    Experiment {
        name: "ablation_mis_impls",
        graphs: BOTH,
        run: Runner::OnInput(ablation_mis_impls),
    },
    Experiment {
        name: "ablation_grain_size",
        graphs: RANDOM,
        run: Runner::OnInput(ablation_grain_size),
    },
];

/// The (experiment, graph) pairs `cfg` selects, grouped by graph kind so
/// that each input is generated once: every experiment named in
/// `cfg.experiments` (all of them when none is named) on each of its graph
/// kinds that `cfg.kind` allows. An unknown name, or a selection with
/// nothing to run, is an error.
pub fn select(cfg: &HarnessConfig) -> Result<Vec<(&'static Experiment, GraphKind)>, String> {
    if let Some(unknown) = cfg
        .experiments
        .iter()
        .find(|name| !EXPERIMENTS.iter().any(|e| e.name == name.as_str()))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        return Err(format!(
            "unknown experiment '{unknown}' (one of: {})",
            valid.join(", ")
        ));
    }
    let pairs: Vec<_> = [GraphKind::Random, GraphKind::Rmat]
        .into_iter()
        .filter(|&kind| cfg.kind.is_none_or(|k| k == kind))
        .flat_map(|kind| {
            EXPERIMENTS
                .iter()
                .filter(move |e| {
                    e.graphs.contains(&kind)
                        && (cfg.experiments.is_empty()
                            || cfg.experiments.iter().any(|name| name == e.name))
                })
                .map(move |e| (e, kind))
        })
        .collect();
    if pairs.is_empty() {
        return Err(format!(
            "nothing to run: none of {} runs on the {} input",
            cfg.experiments.join(", "),
            cfg.kind.map_or("selected", GraphKind::name)
        ));
    }
    Ok(pairs)
}

/// Figure 1: the prefix-based MIS over a sweep of prefix sizes, reporting
/// work/n (Figure 1a, 1d), rounds/n (1b, 1e) and time per vertex (1c, 1f).
/// Work/n rises from 1 toward 2–3, rounds/n falls from 1 toward 1/n, and
/// time/n is U-shaped with an interior optimum.
fn fig1_mis_prefix(cfg: &HarnessConfig, input: &ExperimentGraph) -> String {
    let n = input.num_vertices();
    let pi = random_permutation(n, cfg.seed.wrapping_add(1));
    let reference = sequential_mis(&input.graph, &pi);
    let mut csv = String::from(
        "graph,prefix_fraction,prefix_size,work_per_n,rounds_per_n,time_seconds,\
         time_ns_per_vertex,mis_size\n",
    );
    for fraction in prefix_fraction_sweep() {
        let policy = PrefixPolicy::FractionOfInput(fraction);
        let (elapsed, (mis, stats)) = time_best_of(cfg.reps, || {
            prefix_mis_with_stats(&input.graph, &pi, policy)
        });
        assert!(
            verify_same_set(&mis, &reference),
            "prefix-based MIS diverged from the sequential result at fraction {fraction}"
        );
        csv += &format!(
            "{},{:e},{},{:.4},{:.6e},{:.6},{:.1},{}\n",
            input.kind.name(),
            fraction,
            policy.prefix_size(n),
            stats.work_per_element(n),
            stats.rounds_per_element(n),
            secs(elapsed),
            secs(elapsed) * 1e9 / n as f64,
            mis.len()
        );
    }
    csv
}

/// Figure 2: the prefix-based maximal matching over a sweep of prefix
/// sizes, reporting work/m (Figure 2a, 2d), rounds/m (2b, 2e) and time per
/// edge (2c, 2f).
fn fig2_mm_prefix(cfg: &HarnessConfig, input: &ExperimentGraph) -> String {
    let m = input.num_edges();
    let pi = random_edge_permutation(m, cfg.seed.wrapping_add(2));
    let reference = sequential_matching(&input.edges, &pi);
    let mut csv = String::from(
        "graph,prefix_fraction,prefix_size,work_per_m,rounds_per_m,time_seconds,\
         time_ns_per_edge,matching_size\n",
    );
    for fraction in prefix_fraction_sweep() {
        let policy = PrefixPolicy::FractionOfInput(fraction);
        let (elapsed, (mm, stats)) = time_best_of(cfg.reps, || {
            prefix_matching_with_stats(&input.edges, &pi, policy)
        });
        assert!(
            verify_same_set(&mm, &reference),
            "prefix-based MM diverged from the sequential result at fraction {fraction}"
        );
        csv += &format!(
            "{},{:e},{},{:.4},{:.6e},{:.6},{:.1},{}\n",
            input.kind.name(),
            fraction,
            policy.prefix_size(m),
            stats.work_per_element(m),
            stats.rounds_per_element(m),
            secs(elapsed),
            secs(elapsed) * 1e9 / m as f64,
            mm.len()
        );
    }
    csv
}

/// Figure 3: MIS time against thread count for the prefix-based algorithm
/// at a 2 % prefix, Luby's Algorithm A, and the sequential loop (flat).
/// On the paper's 32 cores the prefix-based algorithm is 4–8× faster than
/// Luby at every thread count and beats the sequential loop from a couple
/// of threads on.
fn fig3_mis_threads(cfg: &HarnessConfig, input: &ExperimentGraph) -> String {
    let pi = random_permutation(input.num_vertices(), cfg.seed.wrapping_add(1));
    // The near-optimal prefix fraction found by the Figure 1 sweep.
    let policy = PrefixPolicy::FractionOfInput(0.02);
    // The sequential loop does not depend on the pool size; time it once.
    let (serial_time, serial_mis) = time_best_of(cfg.reps, || sequential_mis(&input.graph, &pi));
    assert!(verify_mis(&input.graph, &serial_mis));
    let mut csv = String::from("graph,threads,prefix_based_seconds,luby_seconds,serial_seconds\n");
    for &threads in &cfg.threads {
        let (prefix_time, luby_time) = run_on_threads(threads, || {
            let (pt, pmis) = time_best_of(cfg.reps, || prefix_mis(&input.graph, &pi, policy));
            assert_eq!(
                pmis, serial_mis,
                "prefix-based MIS must equal the serial result"
            );
            let (lt, lmis) = time_best_of(cfg.reps, || luby_mis(&input.graph, cfg.seed));
            assert!(verify_mis(&input.graph, &lmis));
            (pt, lt)
        });
        csv += &format!(
            "{},{},{:.6},{:.6},{:.6}\n",
            input.kind.name(),
            threads,
            secs(prefix_time),
            secs(luby_time),
            secs(serial_time)
        );
    }
    csv
}

/// Figure 4: maximal-matching time against thread count for the
/// prefix-based algorithm at a 2 % prefix and the sequential loop (flat).
/// On the paper's 32 cores the prefix-based algorithm overtakes the
/// sequential one at about 4 threads.
fn fig4_mm_threads(cfg: &HarnessConfig, input: &ExperimentGraph) -> String {
    let pi = random_edge_permutation(input.num_edges(), cfg.seed.wrapping_add(2));
    let policy = PrefixPolicy::FractionOfInput(0.02);
    let (serial_time, serial_mm) =
        time_best_of(cfg.reps, || sequential_matching(&input.edges, &pi));
    assert!(verify_maximal_matching(&input.edges, &serial_mm));
    let mut csv = String::from("graph,threads,prefix_based_seconds,serial_seconds\n");
    for &threads in &cfg.threads {
        let prefix_time = run_on_threads(threads, || {
            let (pt, pmm) = time_best_of(cfg.reps, || prefix_matching(&input.edges, &pi, policy));
            assert_eq!(
                pmm, serial_mm,
                "prefix-based MM must equal the serial result"
            );
            pt
        });
        csv += &format!(
            "{},{},{:.6},{:.6}\n",
            input.kind.name(),
            threads,
            secs(prefix_time),
            secs(serial_time)
        );
    }
    csv
}

/// The check behind Theorem 3.5: the dependence length (rounds of
/// Algorithm 2) and the longest path of the priority DAG for growing n on
/// random orders over several graph families. The theorem bounds the
/// dependence length by O(log² n) w.h.p. for any graph. The complete graph
/// shows why the longest path is the wrong measure (it is n − 1 while the
/// dependence length stays 1); the path graph is the adversarial-structure
/// case. Runs its own size sweep, whatever `--scale` says.
fn dependence_length_sweep(cfg: &HarnessConfig) -> String {
    let mut csv = String::from("family,n,m,dependence_length,longest_dag_path,log2n_squared\n");
    for n in [1_000usize, 4_000, 16_000, 64_000] {
        let mut families: Vec<(&str, Graph)> = vec![
            ("random", random_graph(n, 5 * n, cfg.seed)),
            (
                "rmat",
                rmat_graph((n as f64).log2().ceil() as u32, 5 * n, cfg.seed),
            ),
            ("path", path_graph(n)),
            ("star", star_graph(n)),
        ];
        // The complete graph is only feasible at small n.
        if n <= 2_000 {
            families.push(("complete", complete_graph(n)));
        }
        for (family, graph) in families {
            let pi = random_permutation(graph.num_vertices(), cfg.seed.wrapping_add(n as u64));
            let log = (graph.num_vertices().max(2) as f64).log2();
            csv += &format!(
                "{},{},{},{},{},{:.1}\n",
                family,
                graph.num_vertices(),
                graph.num_edges(),
                dependence_length(&graph, &pi),
                priority_dag_longest_path(&graph, &pi),
                log * log
            );
        }
    }
    csv
}

/// Ablation A1: the MIS implementations of Section 4 on one input and one
/// order — the sequential loop (Algorithm 1), prefixes of three sizes
/// (Algorithm 3), the linear-work root set (Algorithm 2 as Lemma 4.2 runs
/// it) and Luby's Algorithm A — with time, work and rounds. All but Luby
/// must return the sequential set.
fn ablation_mis_impls(cfg: &HarnessConfig, input: &ExperimentGraph) -> String {
    let graph = &input.graph;
    let pi = random_permutation(input.num_vertices(), cfg.seed.wrapping_add(1));
    let (seq_time, (seq_mis, seq_stats)) =
        time_best_of(cfg.reps, || sequential_mis_with_stats(graph, &pi));
    let mut csv = String::from(
        "implementation,time_seconds,rounds,steps,vertex_work,edge_work,mis_size,\
         same_as_sequential\n",
    );
    let mut report = |name: &str, time: f64, stats: WorkStats, mis: &[u32]| {
        csv += &format!(
            "{},{:.6},{},{},{},{},{},{}\n",
            name,
            time,
            stats.rounds,
            stats.steps,
            stats.vertex_work,
            stats.edge_work,
            mis.len(),
            mis == seq_mis
        );
    };
    report("sequential", secs(seq_time), seq_stats, &seq_mis);

    for (label, policy) in [
        ("prefix_0.2%", PrefixPolicy::FractionOfInput(0.002)),
        ("prefix_2%", PrefixPolicy::FractionOfInput(0.02)),
        ("prefix_100%", PrefixPolicy::FractionOfInput(1.0)),
    ] {
        let (t, (mis, stats)) =
            time_best_of(cfg.reps, || prefix_mis_with_stats(graph, &pi, policy));
        report(label, secs(t), stats, &mis);
    }

    let (t, (mis, stats)) = time_best_of(cfg.reps, || rootset_mis_with_stats(graph, &pi));
    report("rootset_linear_work", secs(t), stats, &mis);

    let (t, (mis, stats)) = time_best_of(cfg.reps, || luby_mis_with_stats(graph, cfg.seed));
    report("luby", secs(t), stats, &mis);
    csv
}

/// Ablation A2: where parallelism starts to pay off inside a prefix. The
/// paper notes a bump in its time-vs-prefix curves where its inner loop
/// switches from sequential to parallel execution (grain 256). For prefix
/// sizes across that region this times the prefix-based MIS in a
/// one-thread pool (loop overhead, no parallelism) and in the largest
/// `--threads` pool, and reports the ratio: below the crossover the one
/// thread wins, above it the full pool does.
fn ablation_grain_size(cfg: &HarnessConfig, input: &ExperimentGraph) -> String {
    let n = input.num_vertices();
    let pi = random_permutation(n, cfg.seed.wrapping_add(1));
    let max_threads = *cfg.threads.iter().max().unwrap_or(&1);
    let mut csv =
        String::from("graph,prefix_size,one_thread_seconds,full_pool_seconds,parallel_speedup\n");
    for prefix_size in [16usize, 64, 256, 1_024, 4_096, 16_384, 65_536] {
        let prefix_size = prefix_size.min(n.max(1));
        let policy = PrefixPolicy::Fixed(prefix_size);
        let time_on = |threads| {
            run_on_threads(threads, || {
                time_best_of(cfg.reps, || prefix_mis(&input.graph, &pi, policy)).0
            })
        };
        let (one, full) = (time_on(1), time_on(max_threads));
        csv += &format!(
            "{},{},{:.6},{:.6},{:.3}\n",
            input.kind.name(),
            prefix_size,
            secs(one),
            secs(full),
            secs(one) / secs(full).max(1e-12)
        );
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(args: &[&str]) -> Result<Vec<String>, String> {
        let cfg = HarnessConfig::parse(args.iter().map(|a| a.to_string()));
        Ok(select(&cfg)?
            .into_iter()
            .map(|(e, kind)| format!("{}_{}", e.name, kind.name()))
            .collect())
    }

    #[test]
    fn selection_defaults_to_every_pair_grouped_by_graph() {
        let all = pairs(&[]).unwrap();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            [
                "ablation_grain_size_random",
                "ablation_mis_impls_random",
                "ablation_mis_impls_rmat",
                "dependence_length_random",
                "fig1_mis_prefix_random",
                "fig1_mis_prefix_rmat",
                "fig2_mm_prefix_random",
                "fig2_mm_prefix_rmat",
                "fig3_mis_threads_random",
                "fig3_mis_threads_rmat",
                "fig4_mm_threads_random",
                "fig4_mm_threads_rmat",
            ]
        );
        // Grouped by graph, so `run_all` generates each input once.
        let first_rmat = all.iter().position(|p| p.ends_with("_rmat")).unwrap();
        assert!(all[..first_rmat].iter().all(|p| p.ends_with("_random")));
        assert!(all[first_rmat..].iter().all(|p| p.ends_with("_rmat")));
    }

    #[test]
    fn selection_narrows_by_name_and_graph() {
        assert_eq!(
            pairs(&["fig1_mis_prefix", "--graph", "rmat"]).unwrap(),
            ["fig1_mis_prefix_rmat"]
        );
        assert_eq!(
            pairs(&["dependence_length", "fig4_mm_threads"]).unwrap(),
            [
                "fig4_mm_threads_random",
                "dependence_length_random",
                "fig4_mm_threads_rmat"
            ]
        );
    }

    #[test]
    fn selection_rejects_unknown_names_and_empty_selections() {
        let err = pairs(&["fig9_bogus"]).unwrap_err();
        assert!(err.contains("fig9_bogus"), "{err}");
        assert!(
            EXPERIMENTS.iter().all(|e| err.contains(e.name)),
            "the error lists every valid name: {err}"
        );
        let err = pairs(&["dependence_length", "--graph", "rmat"]).unwrap_err();
        assert!(err.contains("nothing to run"), "{err}");
    }
}
