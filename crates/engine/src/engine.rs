//! The service-facing batch-dynamic engine.
//!
//! [`Engine`] owns a [`DynGraph`] plus the greedy MIS and maximal-matching
//! states for it under fixed random priorities (vertices by their rank in
//! the order π, edges by a hash of their endpoints), and exposes the three
//! calls a traffic-serving front-end needs: [`Engine::apply_batch`] (ingest
//! a batch of edge updates, repair both states, report the deltas),
//! [`Engine::snapshot`] (a consistent CSR view plus both solution sets), and
//! [`Engine::stats`] (cumulative work counters for capacity planning).
//!
//! After every batch the maintained states are **exactly** what a
//! from-scratch greedy run on the updated graph produces (the paper's unique
//! lexicographically-first solutions under the fixed priorities) — the
//! property the equivalence test suite checks against the static algorithms
//! — and they are byte-identical across thread counts.

use greedy_core::dag::{RepairScratch, RepairStats};
use greedy_core::matching::prefix::prefix_matching;
use greedy_core::mis::prefix::{prefix_mis, PrefixPolicy};
use greedy_graph::csr::Graph;
use greedy_graph::edge_list::Edge;

use crate::dyn_graph::DynGraph;
use crate::matching::{MatchDelta, MatchingState};
use crate::metrics::EngineMetrics;
use crate::mis::repair_mis;
use crate::priority::{edge_permutation, vertex_permutation};
use crate::snapshot::{ServerSnapshot, PAGE_VERTICES};

/// A batch of edge updates, applied atomically: deletions first, then
/// insertions (so a batch may delete and re-insert the same edge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    /// Edges to insert (any orientation; self-loops and duplicates ignored).
    pub insertions: Vec<Edge>,
    /// Edges to delete (any orientation; absent edges ignored).
    pub deletions: Vec<Edge>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a batch from `(u, v)` pairs.
    pub fn from_pairs(
        insertions: impl IntoIterator<Item = (u32, u32)>,
        deletions: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        Self {
            insertions: insertions
                .into_iter()
                .map(|(u, v)| Edge::new(u, v))
                .collect(),
            deletions: deletions
                .into_iter()
                .map(|(u, v)| Edge::new(u, v))
                .collect(),
        }
    }

    /// Adds an insertion.
    pub fn insert(&mut self, u: u32, v: u32) -> &mut Self {
        self.insertions.push(Edge::new(u, v));
        self
    }

    /// Adds a deletion.
    pub fn delete(&mut self, u: u32, v: u32) -> &mut Self {
        self.deletions.push(Edge::new(u, v));
        self
    }

    /// True when the batch carries no updates.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }
}

/// What one [`Engine::apply_batch`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Edges actually added (canonical, sorted; duplicates and already
    /// present edges excluded).
    pub edges_inserted: usize,
    /// Edges actually removed.
    pub edges_deleted: usize,
    /// Vertices whose MIS membership flipped, sorted ascending.
    pub mis_changed: Vec<u32>,
    /// Edges whose matching membership flipped, keyed by their stable slot
    /// ids and sorted by slot (deleted matched edges appear here too, under
    /// the slot they held).
    pub matching_changed: Vec<MatchDelta>,
    /// Round/re-decision counters of the MIS repair.
    pub mis_repair: RepairStats,
    /// Round/re-decision counters of the matching repair (same round
    /// machinery as the MIS since the slot refactor).
    pub matching_repair: RepairStats,
}

/// Cumulative counters across the engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Batches applied.
    pub batches: u64,
    /// Effective edge insertions across all batches.
    pub edges_inserted: u64,
    /// Effective edge deletions across all batches.
    pub edges_deleted: u64,
    /// Net MIS membership flips across all batches.
    pub mis_vertices_changed: u64,
    /// Net matching membership flips across all batches.
    pub matching_edges_changed: u64,
    /// Vertex decisions made by the MIS repairs of all batches, knock-outs
    /// included ([`RepairStats::decided`]). The initial build runs no
    /// repair, so a new engine reads 0.
    pub mis_redecisions: u64,
    /// Edge decisions made by the matching repairs of all batches,
    /// knock-outs included. A new engine reads 0.
    pub matching_redecisions: u64,
}

/// Wall-clock breakdown of the most recent [`Engine::apply_batch`] call,
/// in whole microseconds.
///
/// Kept out of [`BatchReport`] on purpose: reports are equality-compared in
/// determinism tests and timings are inherently nondeterministic. Read the
/// breakdown through [`Engine::last_batch_timings`] instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchTimings {
    /// Structural graph update (deletions + insertions).
    pub graph_us: u64,
    /// Matching repair to the fixed point.
    pub matching_repair_us: u64,
    /// MIS seed computation + repair to the fixed point.
    pub mis_repair_us: u64,
    /// Copy-on-write page repack of the serving export.
    pub page_repack_us: u64,
}

/// A consistent view of the engine's state after some batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The current graph in CSR form.
    pub graph: Graph,
    /// The greedy MIS, sorted ascending.
    pub mis: Vec<u32>,
    /// The greedy maximal matching, canonical edges sorted lexicographically.
    pub matching: Vec<Edge>,
}

/// Batch-dynamic maintenance of greedy MIS and maximal matching.
#[derive(Debug, Clone)]
pub struct Engine {
    graph: DynGraph,
    seed: u64,
    /// `vertex_rank[v]` = position of `v` in [`vertex_permutation`]: the MIS
    /// priorities.
    vertex_rank: Vec<u32>,
    /// MIS membership flags (the maintained fixed point).
    in_mis: Vec<bool>,
    /// Matching state (the maintained fixed point).
    matching: MatchingState,
    /// Repair working memory shared by the MIS (vertex-indexed) and matching
    /// (slot-indexed) repairs — both ride the same round machinery, and the
    /// scratch's flags are all-clear between repairs, so one allocation
    /// sized to the larger item space serves both. Kept across batches so a
    /// tiny batch's repair costs O(Δ) instead of re-zeroing O(n) flags.
    scratch: RepairScratch,
    /// Current MIS size, maintained by flips (so exports never recount).
    mis_size: usize,
    /// The maintained copy-on-write serving export: after each batch only
    /// the pages touched by the batch's deltas are repacked, so
    /// [`Engine::server_snapshot`] is O(pages touched), not O(n).
    serving: ServerSnapshot,
    /// Pages the most recent batch repacked (MIS + partner), for tests and
    /// benches asserting publication really is O(pages touched).
    last_publication_pages: usize,
    /// Wall-clock breakdown of the most recent batch (not in the report —
    /// see [`BatchTimings`]).
    last_timings: BatchTimings,
    stats: EngineStats,
    /// Optional internals instrumentation, recorded once per batch. Like
    /// [`BatchTimings`], deliberately outside [`BatchReport`]: reports stay
    /// equality-comparable in determinism tests.
    metrics: Option<EngineMetrics>,
}

impl Engine {
    /// An engine over an edgeless graph on `n` vertices. With no edges every
    /// vertex is in the MIS and the matching is empty.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::from_graph(&Graph::empty(n), seed)
    }

    /// An engine initialized from an existing graph, then maintained
    /// incrementally.
    ///
    /// Both states are built by the paper's static prefix solvers under the
    /// engine's orders, not by the repair driver: [`prefix_mis`] under
    /// [`vertex_permutation`], and [`prefix_matching`] over the canonical
    /// edge list under [`edge_permutation`]. [`DynGraph::from_graph`] gives
    /// edge `i` of that list slot `i`, so the matching's edge ids are its
    /// slot ids. The build makes no repair decisions, so [`EngineStats`]
    /// starts at zero.
    pub fn from_graph(graph: &Graph, seed: u64) -> Self {
        let n = graph.num_vertices();
        let el = graph.to_edge_list();
        let dyn_graph = DynGraph::from_graph(graph);
        debug_assert_eq!(dyn_graph.num_slots(), el.num_edges());

        let pi = vertex_permutation(n, seed);
        let mis = prefix_mis(graph, &pi, PrefixPolicy::default());
        let mut in_mis = vec![false; n];
        for &v in &mis {
            in_mis[v as usize] = true;
        }
        let matched = prefix_matching(&el, &edge_permutation(seed, &el), PrefixPolicy::default());
        let matching = MatchingState::from_matched_slots(n, seed, el.edges(), &matched);
        let serving =
            ServerSnapshot::build(el.num_edges(), &in_mis, matching.partners(), matched.len());
        Self {
            // Sized to the larger item space now, so the first batch's
            // repair does not grow it.
            scratch: RepairScratch::with_capacity(n.max(dyn_graph.num_slots())),
            graph: dyn_graph,
            seed,
            vertex_rank: pi.rank().to_vec(),
            in_mis,
            matching,
            mis_size: mis.len(),
            serving,
            last_publication_pages: 0,
            last_timings: BatchTimings::default(),
            stats: EngineStats::default(),
            metrics: None,
        }
    }

    /// Attaches engine-internals instrumentation: arena gauges, rebuild and
    /// relocation counters (per [`crate::dyn_graph::RebuildTrigger`]), and
    /// repair-work histograms are recorded after every
    /// [`Engine::apply_batch`]; arena rebuilds/relocations additionally feed
    /// the metrics' event journal as they happen. The caller reads the
    /// instruments through the registry it built `metrics` over.
    pub fn attach_metrics(&mut self, metrics: EngineMetrics) {
        self.graph.attach_journal(metrics.journal().clone());
        self.metrics = Some(metrics);
    }

    /// Applies one batch of edge updates and repairs both maintained states
    /// to the greedy fixed point on the updated graph.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range for the engine's vertex set.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> BatchReport {
        let t0 = std::time::Instant::now();
        // Graph first: deletions, then insertions (batch semantics). Each
        // effective update comes back with its stable slot id.
        let deleted = self.graph.delete_edges(&batch.deletions);
        let inserted = self.graph.insert_edges(&batch.insertions);
        let t_graph = std::time::Instant::now();

        // Matching repair reads the pre-repair matched state of the deleted
        // slots, so it runs directly off the effective lists.
        let (matching_changed, matching_repair) = self.matching.repair_batch(
            &self.graph,
            self.seed,
            &deleted,
            &inserted,
            &mut self.scratch,
        );
        let t_matching = std::time::Instant::now();

        // MIS dirty frontier: endpoints of effective changes whose decision
        // can actually move under the greedy rule at batch entry. An edge
        // change affects endpoint `x` only through the *earlier* endpoint
        // `y`, and only one way per direction: inserting `{x, y}` can evict
        // `x` only if both are in the MIS (x later); deleting it can admit
        // `x` only if `x` was out and the earlier `y` in. Everything else
        // keeps its fixed-point decision, and knock-on changes propagate
        // through the round driver's flip wake-ups.
        let rank = |x: u32| self.vertex_rank[x as usize];
        let mut seeds: Vec<u32> = Vec::new();
        for upd in &deleted {
            for (x, y) in [(upd.edge.u, upd.edge.v), (upd.edge.v, upd.edge.u)] {
                if !self.in_mis[x as usize] && self.in_mis[y as usize] && rank(y) < rank(x) {
                    seeds.push(x);
                }
            }
        }
        for upd in &inserted {
            for (x, y) in [(upd.edge.u, upd.edge.v), (upd.edge.v, upd.edge.u)] {
                if self.in_mis[x as usize] && self.in_mis[y as usize] && rank(y) < rank(x) {
                    seeds.push(x);
                }
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        let (mis_changed, mis_repair) = repair_mis(
            &self.graph,
            &self.vertex_rank,
            &mut self.in_mis,
            &seeds,
            &mut self.scratch,
        );
        let t_mis = std::time::Instant::now();

        self.stats.batches += 1;
        self.stats.edges_inserted += inserted.len() as u64;
        self.stats.edges_deleted += deleted.len() as u64;
        self.stats.mis_vertices_changed += mis_changed.len() as u64;
        self.stats.matching_edges_changed += matching_changed.len() as u64;
        self.stats.mis_redecisions += mis_repair.decided;
        self.stats.matching_redecisions += matching_repair.decided;

        // Copy-on-write publication: repack exactly the snapshot pages this
        // batch's deltas touched. MIS flips dirty their own page; a matching
        // flip moves the partner entries of both endpoints (any partner entry
        // that changed is an endpoint of some flipped edge, because at the
        // fixed point each vertex has at most one matched incident edge).
        for &v in &mis_changed {
            self.mis_size = if self.in_mis[v as usize] {
                self.mis_size + 1
            } else {
                self.mis_size - 1
            };
        }
        let mut mis_pages: Vec<usize> = mis_changed
            .iter()
            .map(|&v| v as usize / PAGE_VERTICES)
            .collect();
        mis_pages.dedup(); // mis_changed is sorted, so pages arrive sorted
        let mut partner_pages: Vec<usize> = matching_changed
            .iter()
            .flat_map(|d| [d.edge.u, d.edge.v])
            .map(|v| v as usize / PAGE_VERTICES)
            .collect();
        partner_pages.sort_unstable();
        partner_pages.dedup();
        self.serving.refresh_mis_pages(&mis_pages, &self.in_mis);
        self.serving
            .refresh_partner_pages(&partner_pages, self.matching.partners());
        self.serving
            .set_counts(self.graph.num_edges(), self.mis_size, self.matching.size());
        self.last_publication_pages = mis_pages.len() + partner_pages.len();
        self.last_timings = BatchTimings {
            graph_us: t_graph.duration_since(t0).as_micros() as u64,
            matching_repair_us: t_matching.duration_since(t_graph).as_micros() as u64,
            mis_repair_us: t_mis.duration_since(t_matching).as_micros() as u64,
            page_repack_us: t_mis.elapsed().as_micros() as u64,
        };
        if let Some(m) = &mut self.metrics {
            m.record_batch(&self.graph, &mis_repair, &matching_repair);
        }

        BatchReport {
            edges_inserted: inserted.len(),
            edges_deleted: deleted.len(),
            mis_changed,
            matching_changed,
            mis_repair,
            matching_repair,
        }
    }

    /// A consistent snapshot of the current graph and both solution sets.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            graph: self.graph.to_graph(),
            mis: self.mis(),
            matching: self.matching(),
        }
    }

    /// The serving-shaped export: MIS bitset + matching partner array as
    /// copy-on-write pages. The engine maintains the pages across batches
    /// (only pages a batch's deltas touch get repacked), so this call is a
    /// per-page `Arc` clone — O(pages touched) amortized publication, never
    /// an O(n) copy. This is what the server publishes after each round.
    pub fn server_snapshot(&self) -> ServerSnapshot {
        self.serving.clone()
    }

    /// The old O(n) publication path: packs every page from the flat
    /// maintained state. Kept as the audit oracle (the COW export must stay
    /// byte-identical to it) and as the baseline the publication bench
    /// measures the paged path against.
    pub fn rebuild_server_snapshot(&self) -> ServerSnapshot {
        ServerSnapshot::build(
            self.num_edges(),
            &self.in_mis,
            self.matching.partners(),
            self.matching.size(),
        )
    }

    /// Snapshot pages the most recent [`Engine::apply_batch`] repacked —
    /// the real per-round publication cost, proportional to the deltas'
    /// page span and never to `n`.
    pub fn last_publication_pages(&self) -> usize {
        self.last_publication_pages
    }

    /// Wall-clock breakdown of the most recent [`Engine::apply_batch`] call
    /// (all zeros before the first batch). Nondeterministic by nature, hence
    /// separate from [`BatchReport`].
    pub fn last_batch_timings(&self) -> BatchTimings {
        self.last_timings
    }

    /// Current MIS size (O(1), maintained by flips).
    pub fn mis_size(&self) -> usize {
        self.mis_size
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Flags the most recent MIS repair's scratch reset cleared —
    /// proportional to the vertices that repair touched, never to `n`
    /// (see [`RepairScratch`]). Exposed so benches and tests can assert
    /// small batches really pay O(Δ).
    pub fn mis_scratch_reset_items(&self) -> usize {
        self.scratch.last_reset_items()
    }

    /// The current greedy MIS, sorted ascending.
    pub fn mis(&self) -> Vec<u32> {
        self.in_mis
            .iter()
            .enumerate()
            .filter_map(|(v, &m)| m.then_some(v as u32))
            .collect()
    }

    /// The current greedy maximal matching, canonical and sorted.
    pub fn matching(&self) -> Vec<Edge> {
        self.matching.matched_edges()
    }

    /// Number of matched edges (O(1), without materializing the matching).
    pub fn matching_size(&self) -> usize {
        self.matching.size()
    }

    /// True when vertex `v` is currently in the MIS.
    pub fn in_mis(&self, v: u32) -> bool {
        self.in_mis[v as usize]
    }

    /// Number of vertices (fixed at construction).
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges currently present.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// The priority seed the engine was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Read access to the dynamic graph.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{edge_permutation, vertex_permutation};
    use greedy_core::analysis::dependence_length;
    use greedy_core::matching::rootset::rootset_matching_with_stats;
    use greedy_core::matching::sequential::sequential_matching;
    use greedy_core::mis::sequential::sequential_mis;
    use greedy_core::mis::verify::verify_mis;
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::rmat::rmat_graph;
    use greedy_graph::gen::structured::{complete_graph, star_graph};

    /// Checks both maintained states against from-scratch static runs.
    fn assert_consistent(engine: &Engine) {
        let snap = engine.snapshot();
        let pi = vertex_permutation(engine.num_vertices(), engine.seed());
        assert_eq!(snap.mis, sequential_mis(&snap.graph, &pi), "MIS diverged");
        assert!(verify_mis(&snap.graph, &snap.mis));
        let el = snap.graph.to_edge_list();
        let pe = edge_permutation(engine.seed(), &el);
        let mut expected: Vec<Edge> = sequential_matching(&el, &pe)
            .into_iter()
            .map(|id| el.edge(id as usize))
            .collect();
        expected.sort_unstable_by_key(|e| e.sort_key());
        assert_eq!(snap.matching, expected, "matching diverged");
    }

    #[test]
    fn empty_engine_has_full_mis() {
        let engine = Engine::new(5, 1);
        assert_eq!(engine.mis(), vec![0, 1, 2, 3, 4]);
        assert!(engine.matching().is_empty());
        assert_eq!(engine.num_edges(), 0);
        assert_consistent(&engine);
    }

    #[test]
    fn from_scratch_rounds_equal_dependence_length() {
        // The repair driver seeded with every item runs Algorithm 2 on its
        // conflict DAG: the MIS over the vertex order, the matching over the
        // edge order (Algorithm 4, whose rounds are the line graph's
        // dependence length). Its result is the engine's static build.
        let seed = 17;
        for g in [
            random_graph(2_000, 8_000, 3),
            rmat_graph(11, 8_000, 4),
            complete_graph(60),
            star_graph(300),
        ] {
            let (n, m) = (g.num_vertices(), g.num_edges());
            let dyn_g = DynGraph::from_graph(&g);
            let pi = vertex_permutation(n, seed);
            let mut in_mis = vec![false; n];
            let all: Vec<u32> = (0..n as u32).collect();
            let mut sc = RepairScratch::new();
            let (_, mis) = repair_mis(&dyn_g, pi.rank(), &mut in_mis, &all, &mut sc);
            assert_eq!(
                mis.rounds as usize,
                dependence_length(&g, &pi),
                "MIS rounds, n = {n}, m = {m}"
            );
            assert_eq!(mis.decided as usize, n, "each vertex is decided once");

            let mut matching_state = MatchingState::new(n);
            let (_, matching) = matching_state.repair_batch(
                &dyn_g,
                seed,
                &[],
                &dyn_g.live_slot_updates(),
                &mut RepairScratch::new(),
            );
            let el = dyn_g.to_edge_list();
            let edge_pi = edge_permutation(seed, &el);
            assert_eq!(
                matching.rounds,
                rootset_matching_with_stats(&el, &edge_pi).1.rounds,
                "matching rounds, n = {n}, m = {m}"
            );
            assert_eq!(matching.decided as usize, m, "each edge is decided once");

            let engine = Engine::from_graph(&g, seed);
            assert_eq!(
                (in_mis, matching_state),
                (engine.in_mis, engine.matching),
                "full-seed repair vs the static build, n = {n}, m = {m}"
            );
        }
    }

    #[test]
    fn engine_from_graph_is_consistent() {
        for seed in 0..3 {
            let g = random_graph(250, 800, seed);
            let engine = Engine::from_graph(&g, seed + 40);
            assert_consistent(&engine);
        }
    }

    #[test]
    fn mixed_batches_stay_consistent() {
        let mut engine = Engine::from_graph(&random_graph(120, 300, 1), 77);
        let batches = [
            EdgeBatch::from_pairs([(0, 60), (1, 61), (2, 62)], []),
            EdgeBatch::from_pairs([], [(0, 60), (1, 61)]),
            EdgeBatch::from_pairs([(5, 50), (5, 51), (5, 52)], [(2, 62)]),
            // Delete and re-insert the same edge in one batch.
            EdgeBatch::from_pairs([(5, 50)], [(5, 50)]),
        ];
        for (i, batch) in batches.iter().enumerate() {
            let report = engine.apply_batch(batch);
            assert_consistent(&engine);
            assert_eq!(
                engine.stats().batches,
                i as u64 + 1,
                "batch counter tracks calls"
            );
            // Deltas must be internally consistent with the report counters.
            assert!(report.mis_repair.rounds >= u64::from(!report.mis_changed.is_empty()));
        }
        assert_eq!(engine.stats().edges_inserted, 3 + 3 + 1);
    }

    #[test]
    fn reports_net_deltas() {
        let mut engine = Engine::new(4, 3);
        // Path 0-1-2-3 appears in one batch.
        let report = engine.apply_batch(&EdgeBatch::from_pairs([(0, 1), (1, 2), (2, 3)], []));
        assert_eq!(report.edges_inserted, 3);
        assert!(!report.mis_changed.is_empty(), "some vertex left the MIS");
        assert!(!report.matching_changed.is_empty(), "some edge got matched");
        assert_consistent(&engine);
        // Applying an empty batch changes nothing.
        let report = engine.apply_batch(&EdgeBatch::new());
        assert_eq!(report.edges_inserted + report.edges_deleted, 0);
        assert!(report.mis_changed.is_empty());
        assert!(report.matching_changed.is_empty());
    }

    #[test]
    fn duplicate_and_absent_updates_are_ignored() {
        let mut engine = Engine::new(6, 9);
        engine.apply_batch(&EdgeBatch::from_pairs([(0, 1)], []));
        let report = engine.apply_batch(&EdgeBatch::from_pairs(
            [(0, 1), (1, 0), (2, 2)],
            [(3, 4), (4, 4)],
        ));
        assert_eq!(report.edges_inserted, 0, "present/loop inserts ignored");
        assert_eq!(report.edges_deleted, 0, "absent/loop deletes ignored");
        assert!(report.mis_changed.is_empty());
        assert!(report.matching_changed.is_empty());
    }

    #[test]
    fn small_batch_repair_resets_o_delta_scratch() {
        // The engine-held scratch means a tiny batch's repair resets work
        // proportional to what it touched — not an O(n) re-zeroing.
        let n = 20_000;
        let mut engine = Engine::from_graph(&random_graph(n, 60_000, 4), 13);
        assert_eq!(
            engine.mis_scratch_reset_items(),
            0,
            "the static build does not use the repair scratch"
        );
        engine.apply_batch(&EdgeBatch::from_pairs(
            [(0, 10_000), (1, 15_000)],
            [(0, 10_000)],
        ));
        assert!(
            engine.mis_scratch_reset_items() < n / 10,
            "2-edge batch reset {} of {n} flags",
            engine.mis_scratch_reset_items()
        );
        assert_consistent(&engine);
    }

    #[test]
    fn drain_graph_restores_full_mis() {
        let g = random_graph(80, 200, 5);
        let mut engine = Engine::from_graph(&g, 11);
        let all: Vec<(u32, u32)> = g
            .to_edge_list()
            .edges()
            .iter()
            .map(|e| (e.u, e.v))
            .collect();
        let report = engine.apply_batch(&EdgeBatch::from_pairs([], all));
        assert_eq!(report.edges_deleted, g.num_edges());
        assert_eq!(engine.num_edges(), 0);
        assert_eq!(engine.mis().len(), 80, "edgeless graph: everyone is in");
        assert!(engine.matching().is_empty());
        assert_consistent(&engine);
    }
}
