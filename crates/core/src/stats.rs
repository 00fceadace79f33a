//! Work and round instrumentation.
//!
//! The paper's Figures 1 and 2 plot three quantities against the prefix size:
//! the **total work** performed, the **number of rounds** of the outer loop
//! (its proxy for parallelism), and the running time. [`WorkStats`] collects
//! exactly those counters so the benchmark harness can regenerate the
//! figures, and so tests can assert the expected monotone behaviour
//! (bigger prefixes ⇒ more work, fewer rounds).

/// Counters collected by the instrumented algorithm variants.
///
/// Conventions (matching the paper's normalization):
/// * `vertex_work` counts one unit every time an algorithm examines an
///   element (a vertex for MIS, an edge for MM) in some step. The sequential
///   greedy algorithm examines every element exactly once, so its
///   `vertex_work` equals the input size; Figure 1(a)/2(a) plot
///   `vertex_work / input size`.
/// * `edge_work` counts neighbor inspections (adjacency-list traversals).
/// * `rounds` counts iterations of the *outer* loop: prefixes processed for
///   the prefix-based algorithms, synchronous rounds for the root-set
///   algorithms, and `input size` for the sequential algorithms. Figure
///   1(b)/2(b) plot `rounds / input size`.
/// * `steps` counts iterations of the *inner* loop summed over all rounds
///   (the dependence length contribution of each prefix); for the root-set
///   algorithms `steps == rounds`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Outer-loop iterations (prefix rounds).
    pub rounds: u64,
    /// Inner-loop iterations summed over all rounds.
    pub steps: u64,
    /// Element examinations (vertices for MIS, edges for MM).
    pub vertex_work: u64,
    /// Neighbor/adjacency inspections.
    pub edge_work: u64,
}

impl WorkStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total work proxy: element examinations plus neighbor inspections.
    pub fn total_work(&self) -> u64 {
        self.vertex_work + self.edge_work
    }

    /// Work normalized by the input size, the y-axis of Figures 1(a)/1(d)
    /// and 2(a)/2(d).
    pub fn work_per_element(&self, input_size: usize) -> f64 {
        if input_size == 0 {
            0.0
        } else {
            self.vertex_work as f64 / input_size as f64
        }
    }

    /// Rounds normalized by the input size, the y-axis of Figures 1(b)/1(e)
    /// and 2(b)/2(e).
    pub fn rounds_per_element(&self, input_size: usize) -> f64 {
        if input_size == 0 {
            0.0
        } else {
            self.rounds as f64 / input_size as f64
        }
    }
}

impl std::fmt::Display for WorkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rounds={} steps={} vertex_work={} edge_work={}",
            self.rounds, self.steps, self.vertex_work, self.edge_work
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_quantities() {
        let s = WorkStats {
            rounds: 50,
            steps: 100,
            vertex_work: 200,
            edge_work: 0,
        };
        assert!((s.work_per_element(100) - 2.0).abs() < 1e-12);
        assert!((s.rounds_per_element(100) - 0.5).abs() < 1e-12);
        assert_eq!(s.work_per_element(0), 0.0);
        assert_eq!(s.rounds_per_element(0), 0.0);
        assert_eq!(s.total_work(), 200);
    }

    #[test]
    fn display_contains_all_fields() {
        let s = WorkStats {
            rounds: 7,
            steps: 8,
            vertex_work: 9,
            edge_work: 10,
        };
        let text = s.to_string();
        for needle in ["rounds=7", "steps=8", "vertex_work=9", "edge_work=10"] {
            assert!(text.contains(needle));
        }
    }
}
