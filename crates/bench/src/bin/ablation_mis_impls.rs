//! Ablation A1 — comparing the MIS implementations of Section 4.
//!
//! For the same input and the same priority order, measures time, work, and
//! rounds for: the sequential greedy algorithm (Algorithm 1), the naïve
//! synchronous-rounds algorithm (Algorithm 2 as written), the prefix-based
//! algorithm (Algorithm 3, the paper's experimental implementation), the
//! linear-work root-set algorithm (Lemma 4.2), and Luby's Algorithm A.
//!
//! All but Luby must return the identical vertex set; the ablation quantifies
//! what each implementation strategy costs or saves.

use greedy_bench::{print_csv_header, secs, time_best_of, ExperimentGraph, HarnessConfig};
use greedy_core::mis::luby::luby_mis_with_stats;
use greedy_core::mis::prefix::{prefix_mis_with_stats, PrefixPolicy};
use greedy_core::mis::rootset::rootset_mis_with_stats;
use greedy_core::mis::rounds::rounds_mis_with_stats;
use greedy_core::mis::sequential::sequential_mis_with_stats;
use greedy_core::ordering::random_permutation;
use greedy_core::reservations::mis::reservation_mis_with_granularity;
use greedy_core::stats::WorkStats;

fn main() {
    let cfg = HarnessConfig::from_args();
    let input = ExperimentGraph::generate(cfg.kind, cfg.scale, cfg.seed);
    let n = input.num_vertices();
    let pi = random_permutation(n, cfg.seed.wrapping_add(1));

    if !cfg.csv_only {
        eprintln!(
            "# Ablation A1 ({}) — MIS implementation comparison: n = {}, m = {}",
            input.kind.name(),
            n,
            input.num_edges()
        );
    }
    print_csv_header(&[
        "implementation",
        "time_seconds",
        "rounds",
        "steps",
        "vertex_work",
        "edge_work",
        "mis_size",
        "same_as_sequential",
    ]);

    let (seq_time, (seq_mis, seq_stats)) =
        time_best_of(cfg.reps, || sequential_mis_with_stats(&input.graph, &pi));
    let report = |name: &str, time: f64, stats: WorkStats, mis: &[u32]| {
        println!(
            "{},{:.6},{},{},{},{},{},{}",
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

    let (t, (mis, stats)) = time_best_of(cfg.reps, || rounds_mis_with_stats(&input.graph, &pi));
    report("rounds_naive", secs(t), stats, &mis);

    for (label, policy) in [
        ("prefix_0.2%", PrefixPolicy::FractionOfInput(0.002)),
        ("prefix_2%", PrefixPolicy::FractionOfInput(0.02)),
        ("prefix_100%", PrefixPolicy::FractionOfInput(1.0)),
    ] {
        let (t, (mis, stats)) = time_best_of(cfg.reps, || {
            prefix_mis_with_stats(&input.graph, &pi, policy)
        });
        report(label, secs(t), stats, &mis);
    }

    let (t, (mis, stats)) = time_best_of(cfg.reps, || rootset_mis_with_stats(&input.graph, &pi));
    report("rootset_linear_work", secs(t), stats, &mis);

    let (t, (mis, stats)) = time_best_of(cfg.reps, || {
        reservation_mis_with_granularity(&input.graph, &pi, (n / 50).max(1024))
    });
    report("deterministic_reservations", secs(t), stats, &mis);

    let (t, (mis, stats)) = time_best_of(cfg.reps, || luby_mis_with_stats(&input.graph, cfg.seed));
    report("luby", secs(t), stats, &mis);
}
