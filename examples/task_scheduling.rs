//! Task scheduling with conflict graphs — the application the paper's
//! introduction uses to motivate MIS: "if the vertices represent tasks and
//! each edge represents the constraint that two tasks cannot run in parallel,
//! the MIS finds a maximal set of tasks to run in parallel."
//!
//! This example builds a synthetic workload of tasks that contend for shared
//! resources, derives the conflict graph (two tasks conflict iff they touch a
//! common resource), and schedules it into conflict-free batches with
//! iterated deterministic MIS.
//!
//! Run with: `cargo run --release --example task_scheduling`

use greedy_graph::edge_list::Edge;
use greedy_parallel::prelude::*;

/// A synthetic task touching a few shared resources.
struct Task {
    id: u32,
    resources: Vec<u32>,
}

fn synthetic_workload(num_tasks: usize, num_resources: usize, seed: u64) -> Vec<Task> {
    use greedy_prims::random::hash64;
    (0..num_tasks as u32)
        .map(|id| {
            // Each task touches 1–3 resources, skewed so some resources are hot.
            let k = 1 + (hash64(seed, id as u64) % 3) as usize;
            let resources = (0..k)
                .map(|j| {
                    let r = hash64(seed ^ 0xABCD, (id as u64) * 4 + j as u64);
                    // Square the uniform draw to bias toward low-numbered
                    // (hot) resources, giving a power-law-ish conflict graph.
                    let f = (r % 1_000_000) as f64 / 1_000_000.0;
                    ((f * f) * num_resources as f64) as u32
                })
                .collect();
            Task { id, resources }
        })
        .collect()
}

fn conflict_graph(tasks: &[Task], num_resources: usize) -> Graph {
    // Tasks conflict when they share a resource: group tasks by resource and
    // connect every pair within a group.
    let mut by_resource: Vec<Vec<u32>> = vec![Vec::new(); num_resources];
    for task in tasks {
        for &r in &task.resources {
            by_resource[r as usize].push(task.id);
        }
    }
    let mut edges = Vec::new();
    for group in &by_resource {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                edges.push(Edge::new(a, b));
            }
        }
    }
    Graph::from_edges(tasks.len(), &edges)
}

fn main() {
    let num_tasks = 20_000;
    let num_resources = 2_000;
    let tasks = synthetic_workload(num_tasks, num_resources, 1);
    let conflicts = conflict_graph(&tasks, num_resources);
    println!(
        "workload: {} tasks, {} resources, {} pairwise conflicts (max task degree {})",
        num_tasks,
        num_resources,
        conflicts.num_edges(),
        conflicts.max_degree()
    );

    let t = std::time::Instant::now();
    let schedule = schedule_tasks(&conflicts, 7);
    let elapsed = t.elapsed();

    assert!(
        schedule.is_valid(&conflicts),
        "schedule must be conflict-free and complete"
    );
    println!(
        "\nscheduled into {} conflict-free batches in {elapsed:?}",
        schedule.num_batches()
    );

    let sizes: Vec<usize> = schedule.batches.iter().map(|b| b.len()).collect();
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let smallest = sizes.iter().copied().min().unwrap_or(0);
    println!(
        "batch sizes: first = {}, largest = {largest}, smallest = {smallest}",
        sizes[0]
    );
    println!(
        "average parallelism (tasks per batch): {:.1}",
        num_tasks as f64 / schedule.num_batches() as f64
    );
    for (i, size) in sizes.iter().enumerate().take(8) {
        println!("  batch {i:>2}: {size} tasks");
    }
    if sizes.len() > 8 {
        println!("  ... ({} more batches)", sizes.len() - 8);
    }

    // Determinism: rerunning produces the identical schedule (same seed), so
    // a production system can cache or replay it.
    assert_eq!(schedule, schedule_tasks(&conflicts, 7));
    println!("\nre-running the scheduler reproduces the identical schedule (deterministic).");
}
