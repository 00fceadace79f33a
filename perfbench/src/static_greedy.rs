//! The `static_greedy` workload: the paper's own experiment. A uniform random
//! graph with n = 10⁶ and m = 5·10⁶, seeded vertex and edge orders, and
//! repeated prefix MIS and prefix matching solves at the default 2 % prefix
//! on the default pool. No engine, server or WAL code runs here.

use std::io;
use std::thread;
use std::time::Instant;

use greedy_core::prelude::*;
use greedy_graph::csr::Graph;
use greedy_graph::edge_list::EdgeList;
use greedy_graph::gen::random::random_edge_list;
use greedy_prims::random::hash64;

use crate::host::{cpu_s, peak_rss_mib, CpuClock, Lap, Probe, WindowCost};
use crate::reference::Reference;
use crate::report::{Json, RunResult};
use crate::stats::{median, Samples, Tally, P50};
use crate::trace::SpanLog;
use crate::RunConfig;

/// Vertices and edges of the input (the harness's `Scale::Medium`).
const N: usize = 1_000_000;
const M: usize = 5_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Input {
    edges: EdgeList,
    graph: Graph,
    vertex_order: Permutation,
    edge_order: Permutation,
}

/// Seconds spent in each set-up step.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    /// CPU time of the whole process over the set-up: what `setup_s`
    /// reports, as it leaves out what the hypervisor steals (see README.md).
    cpu: f64,
    /// Wall time of the whole set-up.
    total: f64,
    edge_list: f64,
    csr: f64,
    vertex_order: f64,
    edge_order: f64,
}

fn set_up(seed: u64, log: &mut SpanLog, request: u64) -> io::Result<(Input, SetupTimes)> {
    let root = log.reserve();
    let cpu0 = cpu_s(CpuClock::Process);
    let t0 = Instant::now();
    let edges = random_edge_list(N, M, seed);
    let t1 = Instant::now();
    let graph = Graph::from_edge_list(&edges);
    let t2 = Instant::now();
    let vertex_order = random_permutation(graph.num_vertices(), hash64(seed, 1));
    let t3 = Instant::now();
    let edge_order = random_edge_permutation(edges.num_edges(), hash64(seed, 2));
    let t4 = Instant::now();
    let cpu = cpu_s(CpuClock::Process) - cpu0;
    log.record("graph.edge_list", Some(root), request, t0, t1);
    log.record("graph.csr_build", Some(root), request, t1, t2);
    log.record("prims.vertex_order", Some(root), request, t2, t3);
    log.record("prims.edge_order", Some(root), request, t3, t4);
    log.record_reserved(root, "setup", None, request, t0, t4);
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok((
        Input {
            edges,
            graph,
            vertex_order,
            edge_order,
        },
        SetupTimes {
            cpu,
            total: secs(t0, t4),
            edge_list: secs(t0, t1),
            csr: secs(t1, t2),
            vertex_order: secs(t2, t3),
            edge_order: secs(t3, t4),
        },
    ))
}

/// The two solves a run repeats.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Solve {
    Mis,
    Matching,
}

/// Runs one prefix solve, recorded as span `name`, and checks it against
/// the sequential result.
fn solve(
    which: Solve,
    name: &'static str,
    input: &Input,
    reference: &[u32],
    tally: &mut Tally,
    log: &mut SpanLog,
    request: u64,
) -> io::Result<(Lap, WorkStats)> {
    let policy = PrefixPolicy::default();
    let ((result, stats), lap) = Lap::time(|| match which {
        Solve::Mis => prefix_mis_with_stats(&input.graph, &input.vertex_order, policy),
        Solve::Matching => prefix_matching_with_stats(&input.edges, &input.edge_order, policy),
    });
    log.record(name, None, request, lap.start, lap.end);
    let valid = match which {
        Solve::Mis => verify_mis(&input.graph, &result),
        Solve::Matching => verify_maximal_matching(&input.edges, &result),
    };
    tally.check(result == reference && valid, || {
        format!("{name} solve {request} differs from the sequential result")
    });
    Ok((lap, stats))
}

fn put_stats(res: &mut RunResult, prefix: &'static [&'static str; 4], s: &WorkStats) {
    for (name, v) in prefix
        .iter()
        .zip([s.rounds, s.steps, s.vertex_work, s.edge_work])
    {
        res.layers.insert(name, v as f64);
    }
}

pub fn run(cfg: &RunConfig) -> io::Result<RunResult> {
    let epoch = Instant::now();
    let mut res = RunResult::default();
    let mut log = SpanLog::new(cfg.trace, epoch, 0);
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    let threads = rayon::current_num_threads();
    res.tally.check(threads == nproc, || {
        format!("default pool runs {threads} threads, nproc = {nproc}")
    });

    let mut setups = Vec::new();
    let mut input = None;
    for i in 0..SETUPS {
        drop(input.take());
        let (inp, t) = set_up(cfg.seed, &mut log, i as u64)?;
        setups.push(t);
        input = Some(inp);
    }
    let input = input.expect("SETUPS > 0");

    // The sequential loops are the reference every solve must equal.
    let t0 = Instant::now();
    let seq_mis = sequential_mis(&input.graph, &input.vertex_order);
    let t1 = Instant::now();
    let seq_mm = sequential_matching(&input.edges, &input.edge_order);
    let t2 = Instant::now();
    log.record("core.seq_mis", None, 0, t0, t1);
    log.record("core.seq_mm", None, 0, t1, t2);
    res.tally.check(verify_mis(&input.graph, &seq_mis), || {
        "sequential MIS is not a maximal independent set".into()
    });
    res.tally
        .check(verify_maximal_matching(&input.edges, &seq_mm), || {
            "sequential matching is not maximal".into()
        });

    // The host-speed reference, on a graph of the input's size, runs between
    // solves for about a fifth of the window.
    let mut yardstick = Reference::new(N, M);
    let mut ref_cpu = Samples::new();
    let mut ref_total = 0.0;
    yardstick.run();

    // Warm-up: one solve of each, checked but not timed.
    let mut scratch = SpanLog::new(false, epoch, 3);
    for (which, name, reference) in [
        (Solve::Mis, "core.prefix_mis", &seq_mis),
        (Solve::Matching, "core.prefix_matching", &seq_mm),
    ] {
        solve(
            which,
            name,
            &input,
            reference,
            &mut res.tally,
            &mut scratch,
            0,
        )?;
    }

    // Wall and CPU seconds of each solve.
    let (mut mis, mut mis_cpu) = (Samples::new(), Samples::new());
    let (mut mm, mut mm_cpu) = (Samples::new(), Samples::new());
    let (mut mis_stats, mut mm_stats) = (Vec::new(), Vec::new());
    let (mut mis_total, mut mm_total) = (0.0, 0.0);
    let probe0 = Probe::now()?;
    let start = Instant::now();
    // Each solve goes to the kind that is furthest below its share of the
    // window: a third for MIS and two thirds for matching, whose solves take
    // about twelve times as long, so that its median still rests on four or
    // five of them. The window closes after the solve that runs past it, and
    // not before one solve of each kind.
    let mut request = 1;
    while start.elapsed().as_secs_f64() < cfg.seconds as f64 || mm.len() == 0 {
        let (which, name, reference, laps, cpu, stats, total) = if 2.0 * mis_total <= mm_total {
            (
                Solve::Mis,
                "core.prefix_mis",
                &seq_mis,
                &mut mis,
                &mut mis_cpu,
                &mut mis_stats,
                &mut mis_total,
            )
        } else {
            (
                Solve::Matching,
                "core.prefix_matching",
                &seq_mm,
                &mut mm,
                &mut mm_cpu,
                &mut mm_stats,
                &mut mm_total,
            )
        };
        let (lap, s) = solve(
            which,
            name,
            &input,
            reference,
            &mut res.tally,
            &mut log,
            request as u64,
        )?;
        laps.push(lap.wall_s());
        cpu.push(lap.cpu_s);
        *total += lap.wall_s();
        stats.push(s);
        if ref_total <= (mis_total + mm_total) / 4.0 {
            let t = yardstick.time();
            ref_cpu.push(t);
            ref_total += t;
        }
        request += 1;
    }
    let window_s = start.elapsed().as_secs_f64();
    let cost = WindowCost::between(&probe0, &Probe::now()?);
    let rss_mib = peak_rss_mib()?;

    let med = |laps: &Samples| laps.percentile(P50).expect("at least one solve").value * 1e6;
    res.e2e
        .insert("setup_s", median(setups.iter().map(|t| t.cpu).collect()));
    res.e2e.insert("peak_rss_mb", rss_mib);
    res.e2e
        .insert("main_cpu_ref", med(&mis_cpu) / med(&ref_cpu));
    res.e2e.insert("side_cpu_ref", med(&mm_cpu) / med(&ref_cpu));

    res.meta("window_s", Json::Num(window_s));
    res.meta("setups", Json::Int(setups.len() as u64));
    res.meta(
        "setup_wall_s",
        Json::Num(median(setups.iter().map(|t| t.total).collect())),
    );
    res.meta("pool_threads", Json::Int(threads as u64));
    res.meta("mis_s", mis.summary(P50, 1.0));
    res.meta("mm_s", mm.summary(P50, 1.0));
    res.meta("mis_cpu_s", mis_cpu.summary(P50, 1.0));
    res.meta("mm_cpu_s", mm_cpu.summary(P50, 1.0));
    res.meta("ref_cpu_s", ref_cpu.summary(P50, 1.0));
    let list = |s: &Samples| Json::Arr(s.values().iter().map(|&v| Json::Num(v)).collect());
    res.meta("mis_solves_s", list(&mis));
    res.meta("mm_solves_s", list(&mm));
    res.meta(
        "work_stats_repeat",
        Json::Bool(
            mis_stats.windows(2).all(|w| w[0] == w[1]) && mm_stats.windows(2).all(|w| w[0] == w[1]),
        ),
    );
    res.meta("host.steal_frac", Json::Num(cost.steal_frac));
    res.meta("proc.cpu_user_s", Json::Num(cost.cpu_user_s));
    res.meta("proc.cpu_sys_s", Json::Num(cost.cpu_sys_s));

    if cfg.trace {
        let pick = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
        let l = &mut res.layers;
        l.insert("graph.edge_list_s", pick(|t| t.edge_list));
        l.insert("graph.csr_build_s", pick(|t| t.csr));
        l.insert("prims.vertex_order_s", pick(|t| t.vertex_order));
        l.insert("prims.edge_order_s", pick(|t| t.edge_order));
        l.insert("core.seq_mis_s", t1.duration_since(t0).as_secs_f64());
        l.insert("core.seq_mm_s", t2.duration_since(t1).as_secs_f64());
        l.insert("proc.cpu_user_s", cost.cpu_user_s);
        l.insert("proc.cpu_sys_s", cost.cpu_sys_s);
        l.insert("host.steal_frac", cost.steal_frac);
        l.insert("client.main_wall_us.p50", med(&mis));
        l.insert("client.side_wall_us.p50", med(&mm));
        l.insert("client.main_cpu_us.p50", med(&mis_cpu));
        l.insert("client.side_cpu_us.p50", med(&mm_cpu));
        l.insert("host.ref_cpu_us.p50", med(&ref_cpu));
        if let (Some(m), Some(e)) = (mis_stats.last(), mm_stats.last()) {
            put_stats(
                &mut res,
                &[
                    "core.mis_rounds",
                    "core.mis_steps",
                    "core.mis_vertex_work",
                    "core.mis_edge_work",
                ],
                m,
            );
            put_stats(
                &mut res,
                &[
                    "core.mm_rounds",
                    "core.mm_steps",
                    "core.mm_vertex_work",
                    "core.mm_edge_work",
                ],
                e,
            );
        }
        // The same solves on a one-thread pool: the speed-up is these over
        // main_p50_us and side_p50_us.
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .map_err(|e| io::Error::other(format!("one-thread pool: {e:?}")))?;
        let (t_mis, t_mm) = one.install(|| -> io::Result<(f64, f64)> {
            let mut tally = Tally::default();
            let (a, _) = solve(
                Solve::Mis,
                "rayon.mis_1t",
                &input,
                &seq_mis,
                &mut tally,
                &mut log,
                0,
            )?;
            let (b, _) = solve(
                Solve::Matching,
                "rayon.mm_1t",
                &input,
                &seq_mm,
                &mut tally,
                &mut log,
                0,
            )?;
            res.tally.absorb(tally);
            Ok((a.wall_s(), b.wall_s()))
        })?;
        res.layers.insert("rayon.mis_1t_s", t_mis);
        res.layers.insert("rayon.mm_1t_s", t_mm);
    }
    res.spans = cfg.trace.then_some(log);
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_input(seed: u64) -> Input {
        let edges = random_edge_list(2_000, 8_000, seed);
        let graph = Graph::from_edge_list(&edges);
        Input {
            vertex_order: random_permutation(graph.num_vertices(), seed),
            edge_order: random_edge_permutation(edges.num_edges(), seed),
            edges,
            graph,
        }
    }

    #[test]
    fn a_solve_that_differs_from_the_sequential_result_counts_as_failed() {
        let input = small_input(3);
        let seq_mis = sequential_mis(&input.graph, &input.vertex_order);
        let seq_mm = sequential_matching(&input.edges, &input.edge_order);
        let mut tally = Tally::default();
        let mut log = SpanLog::new(true, Instant::now(), 0);
        let (_, stats) = solve(
            Solve::Mis,
            "core.prefix_mis",
            &input,
            &seq_mis,
            &mut tally,
            &mut log,
            1,
        )
        .unwrap();
        solve(
            Solve::Matching,
            "core.prefix_matching",
            &input,
            &seq_mm,
            &mut tally,
            &mut log,
            1,
        )
        .unwrap();
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        assert!(stats.rounds > 0 && stats.vertex_work >= 2_000);
        assert_eq!(log.spans().len(), 2);
        // A wrong reference makes the same solve a failure.
        let wrong = &seq_mis[1..];
        solve(
            Solve::Mis,
            "core.prefix_mis",
            &input,
            wrong,
            &mut tally,
            &mut log,
            2,
        )
        .unwrap();
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert_eq!(tally.error_rate(), 1.0 / 3.0);
    }
}
