//! Engine-internals instrumentation: an ordinary [`EngineMetrics`] value the
//! serving layer attaches to an [`Engine`](crate::engine::Engine) — no
//! globals, no background threads.
//!
//! The engine's data structures already keep exact cumulative counters
//! (rebuilds, relocations, per-trigger attribution) because its tests assert
//! amortization bounds against them. This module turns those into registry
//! instruments once per batch: cumulative counts become counter deltas,
//! point-in-time arena levels become gauges, and per-batch repair work
//! becomes histogram samples — so the server's exposition shows the engine's
//! internals next to its own commit pipeline.
//!
//! Everything is registered up front in [`EngineMetrics::new`], in the
//! registry the caller hands it (the server's own), mirroring that
//! registry's policy: a metric that was never recorded renders as zero
//! instead of silently disappearing, which is what lets the bench harness
//! hard-fail on impossible values.

use std::sync::Arc;

use greedy_core::dag::RepairStats;
use greedy_obs::{Counter, EventJournal, Gauge, Histogram, Registry};

use crate::dyn_graph::{DynGraph, RebuildTrigger};

/// Registry-backed instruments over the engine's internals, recorded once
/// per applied batch (see [`Engine::attach_metrics`]).
///
/// Cloning shares the instruments (they are `Arc`s): the server builds one
/// at startup, so every name is registered before the engine exists, and
/// hands a clone to the engine. The cumulative-to-delta bookkeeping is
/// per-clone, so exactly one clone — the attached one — must do the
/// recording.
///
/// [`Engine::attach_metrics`]: crate::engine::Engine::attach_metrics
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    journal: Arc<EventJournal>,
    arena_capacity: Arc<Gauge>,
    arena_live: Arc<Gauge>,
    arena_dead: Arc<Gauge>,
    arena_slack: Arc<Gauge>,
    free_slots: Arc<Gauge>,
    matching_pending_cap: Arc<Gauge>,
    rebuilds_total: Arc<Counter>,
    /// Per-trigger rebuild counters, indexed like [`RebuildTrigger::ALL`].
    /// Text exposition has no labels, so the trigger rides in the name:
    /// `engine_rebuilds_<label>_total`.
    rebuilds_by: [Arc<Counter>; 4],
    relocations_total: Arc<Counter>,
    mis_repair_work: Arc<Histogram>,
    mis_repair_frontier: Arc<Histogram>,
    matching_repair_work: Arc<Histogram>,
    matching_repair_frontier: Arc<Histogram>,
    /// Last cumulative counts pulled from the graph, for delta conversion.
    seen_rebuilds: u64,
    seen_rebuilds_by: [u64; 4],
    seen_relocations: u64,
}

/// The registry name of a per-trigger rebuild counter.
pub fn rebuild_counter_name(trigger: RebuildTrigger) -> String {
    format!("engine_rebuilds_{}_total", trigger.label())
}

impl EngineMetrics {
    /// Instruments registered in `r`, feeding rare structural events (arena
    /// rebuilds/relocations) into `journal`. Pass the server's registry and
    /// shared journal, so the `engine_*` names render in the server's one
    /// exposition and engine events interleave with WAL and feed events in
    /// timestamp order.
    pub fn new(r: &Registry, journal: Arc<EventJournal>) -> Self {
        Self {
            arena_capacity: r.gauge("engine_arena_capacity"),
            arena_live: r.gauge("engine_arena_live"),
            arena_dead: r.gauge("engine_arena_dead"),
            arena_slack: r.gauge("engine_arena_slack"),
            free_slots: r.gauge("engine_free_slots"),
            matching_pending_cap: r.gauge("engine_matching_pending_index_cap"),
            rebuilds_total: r.counter("engine_rebuilds_total"),
            rebuilds_by: RebuildTrigger::ALL.map(|t| r.counter(&rebuild_counter_name(t))),
            relocations_total: r.counter("engine_relocations_total"),
            mis_repair_work: r.histogram("engine_mis_repair_work"),
            mis_repair_frontier: r.histogram("engine_mis_repair_frontier"),
            matching_repair_work: r.histogram("engine_matching_repair_work"),
            matching_repair_frontier: r.histogram("engine_matching_repair_frontier"),
            journal,
            seen_rebuilds: 0,
            seen_rebuilds_by: [0; 4],
            seen_relocations: 0,
        }
    }

    /// The event journal structural events feed into.
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Records one applied batch: arena levels as gauges, cumulative
    /// structural counts as counter deltas (the first call therefore picks
    /// up pre-attach history — the initial build, recovery replay), and the
    /// batch's repair work as histogram samples.
    pub(crate) fn record_batch(
        &mut self,
        graph: &DynGraph,
        matching_pending_cap: usize,
        mis: &RepairStats,
        matching: &RepairStats,
    ) {
        let capacity = graph.arena_capacity() as i64;
        let live = 2 * graph.num_edges() as i64;
        let dead = graph.dead_entries() as i64;
        self.arena_capacity.set(capacity);
        self.arena_live.set(live);
        self.arena_dead.set(dead);
        self.arena_slack.set(capacity - live - dead);
        self.free_slots.set(graph.free_list_len() as i64);
        self.matching_pending_cap.set(matching_pending_cap as i64);

        let rebuilds = graph.rebuilds();
        self.rebuilds_total.add(rebuilds - self.seen_rebuilds);
        self.seen_rebuilds = rebuilds;
        for (i, &t) in RebuildTrigger::ALL.iter().enumerate() {
            let now = graph.rebuilds_for(t);
            self.rebuilds_by[i].add(now - self.seen_rebuilds_by[i]);
            self.seen_rebuilds_by[i] = now;
        }
        let relocations = graph.relocations();
        self.relocations_total
            .add(relocations - self.seen_relocations);
        self.seen_relocations = relocations;

        self.mis_repair_work.record(mis.decided);
        self.mis_repair_frontier.record(mis.max_frontier);
        self.matching_repair_work.record(matching.decided);
        self.matching_repair_frontier.record(matching.max_frontier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EdgeBatch, Engine};
    use greedy_graph::gen::random::random_graph;

    /// Instruments over a fresh registry, with that registry for reads.
    fn fresh() -> (Registry, EngineMetrics) {
        let registry = Registry::new();
        let metrics = EngineMetrics::new(&registry, Arc::new(EventJournal::default()));
        (registry, metrics)
    }

    #[test]
    fn every_engine_metric_is_registered_up_front() {
        let (registry, _metrics) = fresh();
        let names = registry.names();
        let mut required = vec![
            "engine_arena_capacity".to_string(),
            "engine_arena_live".to_string(),
            "engine_arena_dead".to_string(),
            "engine_arena_slack".to_string(),
            "engine_free_slots".to_string(),
            "engine_matching_pending_index_cap".to_string(),
            "engine_rebuilds_total".to_string(),
            "engine_relocations_total".to_string(),
            "engine_mis_repair_work".to_string(),
            "engine_mis_repair_frontier".to_string(),
            "engine_matching_repair_work".to_string(),
            "engine_matching_repair_frontier".to_string(),
        ];
        required.extend(RebuildTrigger::ALL.map(rebuild_counter_name));
        for name in required {
            assert!(names.contains(&name), "{name} not registered up front");
        }
    }

    #[test]
    fn attached_engine_records_internals() {
        let mut engine = Engine::from_graph(&random_graph(300, 1_200, 3), 7);
        let (r, metrics) = fresh();
        engine.attach_metrics(metrics);
        engine.apply_batch(&EdgeBatch::from_pairs(
            [(0, 299), (1, 298), (2, 297)],
            [(0, 299)],
        ));
        assert!(
            r.counter("engine_rebuilds_total").get() >= 1,
            "the first record must pick up the initial bulk build"
        );
        let by_reason: u64 = RebuildTrigger::ALL
            .iter()
            .map(|&t| r.counter(&rebuild_counter_name(t)).get())
            .sum();
        assert_eq!(
            by_reason,
            r.counter("engine_rebuilds_total").get(),
            "per-trigger counters must tile the total"
        );
        assert!(r.gauge("engine_arena_capacity").get() > 0);
        assert!(r.gauge("engine_arena_live").get() > 0);
        assert!(
            r.gauge("engine_arena_capacity").get()
                >= r.gauge("engine_arena_live").get() + r.gauge("engine_arena_dead").get(),
            "levels must tile the arena"
        );
        assert!(r.histogram("engine_mis_repair_work").snapshot().count >= 1);
        assert!(r.histogram("engine_matching_repair_work").snapshot().count >= 1);
    }

    #[test]
    fn repeated_batches_do_not_double_count_structural_history() {
        let mut engine = Engine::from_graph(&random_graph(100, 400, 5), 9);
        let (r, metrics) = fresh();
        engine.attach_metrics(metrics);
        engine.apply_batch(&EdgeBatch::from_pairs([(0, 99)], []));
        let after_first = r.counter("engine_rebuilds_total").get();
        // An empty batch performs no structural work; the cumulative-to-delta
        // conversion must not re-add the history.
        engine.apply_batch(&EdgeBatch::new());
        assert_eq!(r.counter("engine_rebuilds_total").get(), after_first);
    }
}
