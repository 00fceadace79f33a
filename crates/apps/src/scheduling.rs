//! Conflict-graph task scheduling — the paper's motivating example.
//!
//! "If the vertices represent tasks and each edge represents the constraint
//! that two tasks cannot run in parallel, the MIS finds a maximal set of
//! tasks to run in parallel" (Section 1). Iterating produces a schedule: a
//! sequence of batches, each batch an independent set, jointly covering all
//! tasks. Because every batch is the deterministic greedy MIS, the schedule
//! is reproducible across thread counts.

use greedy_graph::csr::Graph;

use crate::coloring::greedy_coloring;

/// A schedule: tasks grouped into conflict-free batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSchedule {
    /// The batches in execution order; each batch lists task (vertex) ids.
    pub batches: Vec<Vec<u32>>,
}

impl TaskSchedule {
    /// Number of batches (the schedule's makespan in batch units).
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Total number of scheduled tasks.
    pub fn num_tasks(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// The batch index assigned to each task.
    pub fn batch_of(&self, num_tasks: usize) -> Vec<u32> {
        let mut assignment = vec![u32::MAX; num_tasks];
        for (i, batch) in self.batches.iter().enumerate() {
            for &t in batch {
                assignment[t as usize] = i as u32;
            }
        }
        assignment
    }

    /// True if the schedule is valid for `conflicts`: every task appears in
    /// exactly one batch and no batch contains two conflicting tasks.
    pub fn is_valid(&self, conflicts: &Graph) -> bool {
        let n = conflicts.num_vertices();
        let mut seen = vec![false; n];
        for batch in &self.batches {
            let mut in_batch = vec![false; n];
            for &t in batch {
                if t as usize >= n || seen[t as usize] {
                    return false;
                }
                seen[t as usize] = true;
                in_batch[t as usize] = true;
            }
            for &t in batch {
                if conflicts.neighbors(t).iter().any(|&w| in_batch[w as usize]) {
                    return false;
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Schedules the tasks of a conflict graph into conflict-free batches by
/// iterated greedy MIS: batch `i` is color class `i` of
/// [`greedy_coloring`]`(conflicts, seed)`, tasks in ascending order.
/// Deterministic in `seed`.
pub fn schedule_tasks(conflicts: &Graph, seed: u64) -> TaskSchedule {
    let coloring = greedy_coloring(conflicts, seed);
    let mut batches = vec![Vec::new(); coloring.num_colors as usize];
    for (task, &color) in coloring.colors.iter().enumerate() {
        batches[color as usize].push(task as u32);
    }
    TaskSchedule { batches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::structured::{complete_graph, path_graph, star_graph};
    use greedy_graph::Graph;

    #[test]
    fn empty_conflict_graph() {
        let s = schedule_tasks(&Graph::empty(0), 1);
        assert_eq!(s.num_batches(), 0);
        assert_eq!(s.num_tasks(), 0);
        assert!(s.is_valid(&Graph::empty(0)));
    }

    #[test]
    fn independent_tasks_run_in_one_batch() {
        let g = Graph::empty(8);
        let s = schedule_tasks(&g, 1);
        assert_eq!(s.num_batches(), 1);
        assert_eq!(s.num_tasks(), 8);
        assert!(s.is_valid(&g));
    }

    #[test]
    fn fully_conflicting_tasks_serialize() {
        let g = complete_graph(6);
        let s = schedule_tasks(&g, 2);
        assert_eq!(s.num_batches(), 6);
        assert!(s.is_valid(&g));
        assert!(s.batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn star_conflicts_need_two_batches() {
        let g = star_graph(10);
        let s = schedule_tasks(&g, 3);
        assert_eq!(s.num_batches(), 2);
        assert!(s.is_valid(&g));
    }

    #[test]
    fn random_conflicts_schedule_everything_validly() {
        let g = random_graph(400, 2_000, 4);
        let s = schedule_tasks(&g, 5);
        assert!(s.is_valid(&g));
        assert_eq!(s.num_tasks(), 400);
        assert!(s.num_batches() <= g.max_degree() + 1);
        let assignment = s.batch_of(400);
        assert!(assignment.iter().all(|&b| b != u32::MAX));
    }

    #[test]
    fn schedule_is_deterministic() {
        let g = random_graph(200, 800, 6);
        assert_eq!(schedule_tasks(&g, 7), schedule_tasks(&g, 7));
    }

    #[test]
    fn path_conflicts_need_at_most_three_batches() {
        let g = path_graph(30);
        let s = schedule_tasks(&g, 8);
        assert!(s.is_valid(&g));
        assert!(s.num_batches() <= 3);
    }

    #[test]
    fn is_valid_rejects_bad_schedules() {
        let g = path_graph(3);
        // Conflicting tasks 0 and 1 in the same batch.
        let bad = TaskSchedule {
            batches: vec![vec![0, 1], vec![2]],
        };
        assert!(!bad.is_valid(&g));
        // Missing task.
        let missing = TaskSchedule {
            batches: vec![vec![0], vec![2]],
        };
        assert!(!missing.is_valid(&g));
        // Duplicate task.
        let dup = TaskSchedule {
            batches: vec![vec![0, 2], vec![1], vec![2]],
        };
        assert!(!dup.is_valid(&g));
    }
}
