//! The priority-DAG abstraction behind the round-synchronous greedy
//! algorithms, exposed as a reusable trait.
//!
//! Both problems in this workspace are instances of one scheme: items carry
//! fixed random priorities, items conflict pairwise, and the greedy rule is
//! *"an item is accepted iff none of its earlier conflicting items is
//! accepted"*. For MIS the items are vertices and conflicts are edges; for
//! maximal matching the items are edges and conflicts are shared endpoints
//! (MIS on the line graph). The fixed priorities induce a DAG over conflicts
//! (earlier item → later item), and the greedy result is the unique fixed
//! point of the rule — the lexicographically-first MIS of the conflict graph.
//!
//! [`ConflictDag`] captures exactly that structure, and
//! [`repair_fixed_point`] is the round machinery of Algorithm 2 generalized
//! to start from *any* consistent partial state: given a set of items whose
//! decisions may have become stale (because conflicts were added or removed),
//! it re-decides them in priority order, in synchronous rounds, propagating
//! to later conflicting items whenever a decision flips, until the fixed
//! point is reached.
//!
//! Each round is Algorithm 2's step over the pending items. The *ready*
//! items, those with no earlier pending conflict, are decided by the rule;
//! every pending conflict of a ready item that is accepted is then rejected
//! in the same round (the *knock-out*). Both leave the pending set, and a
//! decision flip wakes the later conflicts it may change.
//!
//! Two ways to use it:
//!
//! * **from scratch** — seed every item with all decisions `false`; the run
//!   is then exactly Algorithm 2 (each round accepts the roots of the
//!   remaining DAG and rejects their later conflicts), and the number of
//!   rounds is the dependence length of the DAG, not its longest path;
//! * **incrementally** — keep the previous fixed point, seed only the items
//!   touched by a batch of conflict insertions/deletions. This is what the
//!   batch-dynamic `greedy_engine` crate does; the repaired state is provably
//!   equal to a from-scratch run on the updated conflict structure (changes
//!   can only propagate from an item to *later* items, so re-deciding the
//!   seeds and their downstream suffices).
//!
//! The driver keeps its work proportional to the affected sub-DAG: pending
//! items carry incrementally-maintained in-degree counters (earlier pending
//! conflicts), so the per-round ready test is a zero check rather than a
//! conflict-list rescan, and a flip wakes only the later conflicts whose
//! decision would actually change against the current state. Implementations
//! can further override [`ConflictDag::decide`] (with auxiliary state kept
//! via [`ConflictDag::on_flip`]) and the pending-conflict walk (with counts
//! kept via the enter and retire hooks). The engine's edge-slot matching
//! uses both: a decision reads two partner entries, and a walk skips every
//! endpoint with no pending incident edge.
//!
//! Every parallel step is deterministic (order-preserving parallel maps, no
//! data races), so the repaired state is byte-identical across thread counts.

use rayon::prelude::*;

/// A set of items with fixed priorities and a symmetric conflict relation.
///
/// Implementors provide the *structure*; the greedy rule itself lives in
/// [`repair_fixed_point`]. Priorities must be a total order that does not
/// change while a repair is running.
///
/// The priority key is an associated type so that each item space keeps its
/// natural order: vertex-indexed DAGs (MIS) use the vertex's `u32` rank in a
/// permutation, while edge-indexed DAGs (the engine's matching over stable
/// edge slots) use `(u64, u64)` — random hash then the packed canonical
/// endpoint key, so the order is a property of the *edge*, not of the slot
/// its current incarnation happens to occupy.
pub trait ConflictDag: Sync {
    /// The priority key; lexicographically smaller = earlier (decided first).
    type Priority: Ord + Copy + Send + Sync;

    /// Number of items. Items are dense ids `0..len()`.
    fn len(&self) -> usize;

    /// True when there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The priority key of `item`. Must be distinct across all items that can
    /// conflict or be seeded — pair a random hash with a per-item unique
    /// component to break ties. (Items that are never seeded and conflict
    /// with nothing — e.g. free slots of an edge-slot DAG — are inert and may
    /// share a sentinel key.)
    fn priority(&self, item: u32) -> Self::Priority;

    /// Calls `f` on every item conflicting with `item` (both earlier and
    /// later ones; the driver filters by priority).
    fn for_each_conflict(&self, item: u32, f: &mut dyn FnMut(u32));

    /// The greedy rule for `item` against the current `accepted` state:
    /// accepted iff no earlier conflicting item is. The default scans the
    /// conflict list; implementations that maintain auxiliary state through
    /// [`ConflictDag::on_flip`] can override it with an O(1) test (the
    /// engine's matching keeps the per-vertex earliest accepted incident
    /// edge, so its test reads two partner entries instead of walking two
    /// adjacency lists). An override must return exactly what the default
    /// would — the driver's correctness argument depends on the rule, not
    /// on how it is evaluated.
    fn decide(&self, item: u32, accepted: &[bool]) -> bool {
        let p = self.priority(item);
        let mut blocked = false;
        self.for_each_conflict(item, &mut |w| {
            if accepted[w as usize] && self.priority(w) < p {
                blocked = true;
            }
        });
        !blocked
    }

    /// Hook invoked by the driver immediately after it applies a decision
    /// flip of `item` (its flag in `accepted` is already updated). Sequential
    /// and deterministic; implementations use it to keep the auxiliary state
    /// behind a custom [`ConflictDag::decide`] in sync. The default does
    /// nothing.
    fn on_flip(&mut self, _item: u32, _accepted_now: bool, _accepted: &[bool]) {}

    /// Calls `f` on every **pending** item conflicting with `item` — the
    /// walk behind the driver's in-degree bookkeeping and its knock-out
    /// step. The default filters
    /// [`ConflictDag::for_each_conflict`] through the flag array; an
    /// implementation that counts its pending items through the enter and
    /// retire hooks can override it to skip the parts of the conflict list
    /// that hold none (the engine's matching counts pending slots per
    /// vertex). Must enumerate exactly the pending conflicts, each once —
    /// duplicates would corrupt the in-degree counters.
    ///
    /// The driver never walks an item that the hooks count as pending: it
    /// walks an entering item before [`ConflictDag::on_enter_pending`], and
    /// every other walked item has already been retired. The knock-out
    /// collects all its targets before it retires any of them, so no walk
    /// sees the counts change under it.
    fn for_each_pending_conflict(&self, item: u32, pending_flag: &[bool], f: &mut dyn FnMut(u32)) {
        self.for_each_conflict(item, &mut |w| {
            if pending_flag[w as usize] {
                f(w);
            }
        });
    }

    /// Hook invoked when `item` joins the pending set, *after* the driver's
    /// in-degree count walk over `item` (so pending counts kept here never
    /// include the item whose walk reads them). Default does nothing.
    fn on_enter_pending(&mut self, _item: u32) {}

    /// Hook invoked when `item` leaves the pending set (decided or knocked
    /// out, before the release walks of its round). A knocked-out item is
    /// retired only after the knock-out walk that found it has ended.
    /// Default does nothing.
    fn on_retire_pending(&mut self, _item: u32) {}
}

/// Work counters reported by [`repair_fixed_point`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Synchronous rounds until the fixed point. A round decides the ready
    /// items and knocks out the pending conflicts of those it accepts, so a
    /// from-scratch run counts the dependence length of the DAG (root-set
    /// peels, Algorithm 2's rounds); a repair counts the same peels over
    /// the pending items, including those its flips wake.
    pub rounds: u64,
    /// Item decisions performed: ready items decided by the rule plus
    /// pending items knocked out by an accepted earlier conflict. An item
    /// may be decided more than once when a stale earlier conflict settles
    /// after it; a from-scratch run decides each item once.
    pub decided: u64,
    /// Decision flips applied (size of the gross change stream, not the net
    /// changed set).
    pub flips: u64,
    /// Largest single-round ready set — the peak number of items one round
    /// decides by the rule in parallel. Knocked-out items are not counted.
    pub max_frontier: u64,
}

/// Reusable working memory for [`repair_fixed_point_with_scratch`].
///
/// A repair needs three dense arrays over the items: the pending flags, the
/// first-touch flags, and the pending in-degree counters (earlier *pending*
/// conflicts per pending item — the round driver's ready test). Allocating
/// and zeroing them per call costs O(n) even when the repair itself only
/// touches O(Δ) items — the dominant cost of a tiny batch on a large
/// structure. A `RepairScratch` keeps the arrays alive between repairs and
/// resets them in O(items touched): the pending flags and in-degree counters
/// self-clear as the rounds drain, and the touched flags are cleared by
/// walking the first-touch list. Holding one per maintained state (as
/// `greedy_engine::Engine` does) makes a small repair's cost proportional to
/// the affected sub-DAG, not to the whole item set.
#[derive(Debug, Clone, Default)]
pub struct RepairScratch {
    pending_flag: Vec<bool>,
    touched_flag: Vec<bool>,
    /// `indeg[v]` = number of earlier-priority conflicts of `v` currently
    /// pending; maintained incrementally (+1 when such a conflict enters
    /// pending, -1 when it retires), so the per-round ready test is a plain
    /// zero check instead of a conflict-list rescan. Nonzero only while `v`
    /// is pending, hence self-clearing.
    indeg: Vec<u32>,
    /// Flags cleared while resetting after the last repair — the O(Δ) bound
    /// the reuse buys, exposed so tests can assert a small repair on a large
    /// DAG never pays an O(n) reset.
    last_reset_items: usize,
}

impl RepairScratch {
    /// An empty scratch; the flag arrays grow lazily to the DAG size on
    /// first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for a DAG of `n` items, so the first repair does
    /// not pay the growth either.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            pending_flag: vec![false; n],
            touched_flag: vec![false; n],
            indeg: vec![0; n],
            last_reset_items: 0,
        }
    }

    /// Number of flags the reset after the most recent repair had to clear —
    /// proportional to the items that repair touched, never to the DAG size.
    pub fn last_reset_items(&self) -> usize {
        self.last_reset_items
    }

    /// Grows (never shrinks) the flag arrays to cover `n` items. Existing
    /// entries are all `false`/`0` between repairs, so growth keeps the
    /// all-clear invariant.
    fn ensure(&mut self, n: usize) {
        if self.pending_flag.len() < n {
            self.pending_flag.resize(n, false);
            self.touched_flag.resize(n, false);
            self.indeg.resize(n, 0);
        }
    }
}

/// Re-decides `seeds` (and everything downstream of any decision flip) under
/// the greedy rule, mutating `accepted` in place until the fixed point.
///
/// Allocates fresh working memory per call; batch-dynamic callers repairing
/// the same structure repeatedly should hold a [`RepairScratch`] and call
/// [`repair_fixed_point_with_scratch`] so a small repair costs O(Δ), not
/// O(n).
///
/// Returns the **net** changed items — those whose final decision differs
/// from their decision on entry — sorted ascending, plus work counters.
///
/// Correctness contract: on entry, every item *not* in `seeds` must already
/// hold the greedy fixed-point decision for the current conflict structure
/// unless one of its earlier conflicts is seeded. Seeding every endpoint of
/// each inserted/deleted conflict satisfies this, as does seeding all items
/// over an all-`false` state (the from-scratch run).
///
/// # Panics
/// Panics if `accepted.len() != dag.len()` or a seed id is out of range.
pub fn repair_fixed_point<D: ConflictDag>(
    dag: &mut D,
    accepted: &mut [bool],
    seeds: &[u32],
) -> (Vec<u32>, RepairStats) {
    let mut scratch = RepairScratch::new();
    repair_fixed_point_with_scratch(dag, accepted, seeds, &mut scratch)
}

/// [`repair_fixed_point`] with caller-owned working memory: the dense flag
/// arrays live in `scratch` and are reset in O(items touched) on the way
/// out, so repeated small repairs on a large DAG never pay a per-call O(n).
///
/// # Panics
/// Panics if `accepted.len() != dag.len()` or a seed id is out of range.
pub fn repair_fixed_point_with_scratch<D: ConflictDag>(
    dag: &mut D,
    accepted: &mut [bool],
    seeds: &[u32],
    scratch: &mut RepairScratch,
) -> (Vec<u32>, RepairStats) {
    let n = dag.len();
    assert_eq!(
        accepted.len(),
        n,
        "repair_fixed_point: state covers {} items but the DAG has {n}",
        accepted.len()
    );
    scratch.ensure(n);

    let mut stats = RepairStats::default();
    let pending_flag = &mut scratch.pending_flag;
    let indeg = &mut scratch.indeg;

    // Adds `v` to the pending set, updating the in-degree bookkeeping on
    // both sides: `v` counts its earlier pending conflicts, and registers
    // itself with its later pending conflicts. Entries and retirements are
    // symmetric, so every counter returns to zero as the rounds drain —
    // the self-clearing property the O(Δ) scratch reset relies on. An item
    // that enters with no earlier pending conflict is a ready candidate.
    fn enter<D: ConflictDag>(
        dag: &mut D,
        v: u32,
        pending_flag: &mut [bool],
        indeg: &mut [u32],
        candidates: &mut Vec<u32>,
    ) {
        debug_assert!(!pending_flag[v as usize]);
        debug_assert_eq!(indeg[v as usize], 0);
        pending_flag[v as usize] = true;
        let pv = dag.priority(v);
        let mut earlier = 0u32;
        dag.for_each_pending_conflict(v, pending_flag, &mut |w| {
            if w != v {
                if dag.priority(w) < pv {
                    earlier += 1;
                } else {
                    indeg[w as usize] += 1;
                }
            }
        });
        indeg[v as usize] = earlier;
        dag.on_enter_pending(v);
        if earlier == 0 {
            candidates.push(v);
        }
    }

    // Every pending item with in-degree 0 is in `candidates`: it was pushed
    // when its in-degree last reached 0, by its entry or by a release.
    let mut candidates: Vec<u32> = Vec::with_capacity(seeds.len());
    let mut pending_count = 0usize;
    for &s in seeds {
        assert!(
            (s as usize) < n,
            "repair_fixed_point: seed {s} out of range"
        );
        if !pending_flag[s as usize] {
            enter(dag, s, pending_flag, indeg, &mut candidates);
            pending_count += 1;
        }
    }

    // First-touch snapshot, so the net changed set can be computed without
    // copying the whole state: `touched[i]` pairs an item with its decision
    // before its first re-decision in this repair.
    let touched_flag = &mut scratch.touched_flag;
    let mut touched: Vec<(u32, bool)> = Vec::new();
    let mut knocked: Vec<u32> = Vec::new();
    let mut flipped: Vec<u32> = Vec::new();
    let mut wake: Vec<u32> = Vec::new();

    while !candidates.is_empty() {
        stats.rounds += 1;

        // An item is ready when no *earlier* conflicting item is still
        // pending — i.e. its maintained in-degree is zero: its earlier
        // conflicts cannot change this round, so its decision reads a
        // settled frontier. The globally earliest pending item is always
        // ready, so every round makes progress. The counter check replaces
        // a per-round conflict-list rescan, and the candidate list a
        // per-round pass over the pending set, so a round costs O(ready +
        // released), not O(pending). A candidate may have gained an earlier
        // pending conflict since it was pushed; it is pushed again once its
        // in-degree returns to 0.
        let ready: Vec<u32> = candidates
            .drain(..)
            .filter(|&v| pending_flag[v as usize] && indeg[v as usize] == 0)
            .collect();
        debug_assert!(!ready.is_empty(), "pending candidates without a ready item");

        // Greedy rule, computed in parallel against the pre-round state. Two
        // ready items are never earlier/later conflicts of one another (the
        // earlier one would have blocked the later one's readiness), so the
        // reads are race-free even conceptually.
        let accepted_ref = &*accepted;
        let dag_ref = &*dag;
        let decisions: Vec<bool> = ready
            .par_iter()
            .map(|&v| dag_ref.decide(v, accepted_ref))
            .collect();

        // Retire the ready items: clear their flags and run the retire hook
        // first (ready items never conflict with one another, but their
        // walks below share later pending targets).
        for &v in &ready {
            pending_flag[v as usize] = false;
            dag.on_retire_pending(v);
        }
        // Knock-out, Algorithm 2's second step: a ready item that is
        // accepted rejects every pending conflict in this round. All of
        // them are later than it (it is ready) and none can be accepted
        // while it is. Each leaves the pending set now, before any release
        // walk, so no release counts a hold on an item that is gone.
        knocked.clear();
        for (&v, _) in ready.iter().zip(&decisions).filter(|&(_, &dec)| dec) {
            let from = knocked.len();
            dag.for_each_pending_conflict(v, pending_flag, &mut |w| knocked.push(w));
            for &w in &knocked[from..] {
                pending_flag[w as usize] = false;
                indeg[w as usize] = 0;
                dag.on_retire_pending(w);
            }
        }
        // Release the holds of the items that left: a rejected ready item
        // and a knocked-out item may still hold later pending conflicts.
        // An accepted ready item holds none: every pending conflict it held
        // was just knocked out. A conflict whose last hold this was becomes
        // a ready candidate.
        let rejected = ready.iter().zip(&decisions).filter(|&(_, &dec)| !dec);
        for v in rejected.map(|(&v, _)| v).chain(knocked.iter().copied()) {
            let pv = dag.priority(v);
            dag.for_each_pending_conflict(v, pending_flag, &mut |w| {
                if dag.priority(w) > pv {
                    indeg[w as usize] -= 1;
                    if indeg[w as usize] == 0 {
                        candidates.push(w);
                    }
                }
            });
        }
        pending_count -= ready.len() + knocked.len();
        stats.decided += (ready.len() + knocked.len()) as u64;
        stats.max_frontier = stats.max_frontier.max(ready.len() as u64);

        // Apply every decision of the round, then propagate: every *later*
        // conflict of a flipped item must be re-checked. Flips go first so
        // a wake reads the round's final state; in particular it never
        // re-enters an item the round knocked out, which is rejected by an
        // accepted ready item. Sequential, but linear in the flip frontier
        // — the parallel work above dominates.
        flipped.clear();
        let knocked_out = knocked.iter().map(|&w| (w, false));
        for (v, dec) in ready.iter().copied().zip(decisions).chain(knocked_out) {
            if !touched_flag[v as usize] {
                touched_flag[v as usize] = true;
                touched.push((v, accepted[v as usize]));
            }
            if accepted[v as usize] != dec {
                accepted[v as usize] = dec;
                stats.flips += 1;
                dag.on_flip(v, dec, accepted);
                flipped.push(v);
            }
        }
        for &v in &flipped {
            let dec = accepted[v as usize];
            let pv = dag.priority(v);
            // A flip only invalidates later conflicts on one side of the
            // rule: flipping *in* newly blocks only currently-accepted later
            // conflicts, and flipping *out* can unblock only
            // currently-unaccepted ones — a later conflict whose decision
            // sits on the other side keeps its value under the greedy rule
            // no matter what. On top of that, a candidate is only woken when
            // its decision would change *against the current state*
            // (`decide(w) != accepted[w]`): a candidate that stays blocked
            // by some other accepted item is already rule-consistent, and if
            // that blocker ever flips out, its own wake walk re-examines the
            // candidate. Together the filters keep the pending set
            // proportional to the real flip cascade instead of the flip
            // frontier's whole neighborhood.
            //
            // Collect first — `enter` needs the flag array the walk borrows
            // — then enter one at a time, so each entry's in-degree count
            // sees exactly the previously-entered items (entering two
            // mutually-conflicting wake-ups in one go would double-count
            // their edge).
            wake.clear();
            dag.for_each_conflict(v, &mut |w| {
                // Flag and state loads first — the priority lookup is the
                // wide one, and most conflicts fail the cheap tests.
                if !pending_flag[w as usize] && accepted[w as usize] == dec && dag.priority(w) > pv
                {
                    wake.push(w);
                }
            });
            for &w in &wake {
                if !pending_flag[w as usize] && dag.decide(w, accepted) != accepted[w as usize] {
                    enter(dag, w, pending_flag, indeg, &mut candidates);
                    pending_count += 1;
                }
            }
        }
    }
    debug_assert_eq!(pending_count, 0, "the rounds ended with items pending");

    // Reset the scratch in O(items touched): the pending flags self-cleared
    // as the rounds drained (the loop only exits once the pending set is
    // empty), so only the first-touch flags need clearing — and the
    // first-touch list enumerates them exactly.
    scratch.last_reset_items = touched.len();
    let mut changed: Vec<u32> = Vec::new();
    for (v, before) in touched {
        scratch.touched_flag[v as usize] = false;
        if accepted[v as usize] != before {
            changed.push(v);
        }
    }
    changed.sort_unstable();
    (changed, stats)
}

/// Runs the greedy rule from scratch over `dag`: all items seeded, state
/// starting all-`false`. Returns the accepted flags and the stats (whose
/// `rounds` is the dependence length of the DAG).
pub fn greedy_from_scratch<D: ConflictDag>(dag: &mut D) -> (Vec<bool>, RepairStats) {
    let mut accepted = vec![false; dag.len()];
    let seeds: Vec<u32> = (0..dag.len() as u32).collect();
    let (_, stats) = repair_fixed_point(dag, &mut accepted, &seeds);
    (accepted, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dependence_length;
    use crate::mis::sequential::sequential_mis;
    use crate::ordering::random_permutation;
    use greedy_graph::csr::Graph;
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::rmat::rmat_graph;
    use greedy_graph::gen::structured::{complete_graph, path_graph, star_graph};
    use greedy_prims::permutation::Permutation;

    /// MIS as a ConflictDag: vertices with permutation ranks as priorities.
    struct MisDag<'a> {
        graph: &'a Graph,
        pi: &'a Permutation,
    }

    impl ConflictDag for MisDag<'_> {
        type Priority = (u64, u32);
        fn len(&self) -> usize {
            self.graph.num_vertices()
        }
        fn priority(&self, v: u32) -> (u64, u32) {
            (self.pi.rank_of(v) as u64, v)
        }
        fn for_each_conflict(&self, v: u32, f: &mut dyn FnMut(u32)) {
            for &w in self.graph.neighbors(v) {
                f(w);
            }
        }
    }

    fn mis_of(accepted: &[bool]) -> Vec<u32> {
        accepted
            .iter()
            .enumerate()
            .filter_map(|(v, &a)| a.then_some(v as u32))
            .collect()
    }

    #[test]
    fn from_scratch_equals_sequential_greedy() {
        for seed in 0..5 {
            let g = random_graph(400, 1_600, seed);
            let pi = random_permutation(400, seed + 11);
            let mut dag = MisDag { graph: &g, pi: &pi };
            let (accepted, stats) = greedy_from_scratch(&mut dag);
            assert_eq!(mis_of(&accepted), sequential_mis(&g, &pi), "seed {seed}");
            assert!(stats.rounds >= 1);
        }
    }

    #[test]
    fn from_scratch_on_structured_graphs() {
        for (g, n) in [
            (path_graph(50), 50),
            (star_graph(33), 33),
            (complete_graph(20), 20),
        ] {
            let pi = random_permutation(n, 3);
            let mut dag = MisDag { graph: &g, pi: &pi };
            let (accepted, _) = greedy_from_scratch(&mut dag);
            assert_eq!(mis_of(&accepted), sequential_mis(&g, &pi));
        }
    }

    #[test]
    fn from_scratch_rounds_equal_dependence_length() {
        // With the knock-out step a from-scratch run is Algorithm 2: each
        // round accepts the roots of the remaining DAG and rejects their
        // later neighbors, so it counts root-set peels, not the longest
        // path. Identity orders separate the two: the path takes n/2 peels
        // against a longest path of n, the complete graph 1 against n.
        // `dependence_length` counts the same peels with the root-set loop
        // of Lemma 4.2, an independent implementation of Algorithm 2.
        let mut cases: Vec<(Graph, Permutation)> = (0..4)
            .map(|seed| {
                let g = random_graph(2_000, 8_000, seed);
                let pi = random_permutation(2_000, seed + 40);
                (g, pi)
            })
            .chain((0..3).map(|seed| {
                let g = random_graph(400, 1_600, seed);
                let pi = random_permutation(400, seed + 7);
                (g, pi)
            }))
            .collect();
        let rmat = rmat_graph(11, 16_000, 5);
        let rmat_pi = random_permutation(rmat.num_vertices(), 6);
        cases.push((rmat, rmat_pi));
        for g in [star_graph(200), path_graph(300), complete_graph(150)] {
            let n = g.num_vertices();
            cases.push((g.clone(), random_permutation(n, 7)));
            cases.push((g, Permutation::identity(n)));
        }
        for (g, pi) in &cases {
            let mut dag = MisDag { graph: g, pi };
            let (accepted, stats) = greedy_from_scratch(&mut dag);
            assert_eq!(mis_of(&accepted), sequential_mis(g, pi));
            assert_eq!(
                stats.rounds as usize,
                dependence_length(g, pi),
                "n = {}, m = {}",
                g.num_vertices(),
                g.num_edges()
            );
            assert_eq!(stats.decided as usize, g.num_vertices());
        }
    }

    #[test]
    fn empty_seed_set_is_a_noop() {
        let g = random_graph(100, 300, 1);
        let pi = random_permutation(100, 2);
        let mut dag = MisDag { graph: &g, pi: &pi };
        let (mut accepted, _) = greedy_from_scratch(&mut dag);
        let before = accepted.clone();
        let (changed, stats) = repair_fixed_point(&mut dag, &mut accepted, &[]);
        assert!(changed.is_empty());
        assert_eq!(stats.rounds, 0);
        assert_eq!(accepted, before);
    }

    #[test]
    fn reseeding_a_fixed_point_changes_nothing() {
        // Re-deciding every item of an already-consistent state must leave it
        // untouched and report an empty net change set.
        let g = random_graph(300, 1_200, 4);
        let pi = random_permutation(300, 5);
        let mut dag = MisDag { graph: &g, pi: &pi };
        let (mut accepted, _) = greedy_from_scratch(&mut dag);
        let before = accepted.clone();
        let seeds: Vec<u32> = (0..300).collect();
        let (changed, _) = repair_fixed_point(&mut dag, &mut accepted, &seeds);
        assert!(changed.is_empty(), "changed = {changed:?}");
        assert_eq!(accepted, before);
    }

    #[test]
    fn net_change_set_reports_only_real_flips() {
        // Corrupt one vertex's decision, reseed it: the repair must restore
        // the fixed point and report exactly the vertices whose final state
        // differs from the corrupted entry state.
        let g = path_graph(10);
        let pi = Permutation::identity(10);
        let mut dag = MisDag { graph: &g, pi: &pi };
        let (mut accepted, _) = greedy_from_scratch(&mut dag);
        // Path with identity order: MIS = {0, 2, 4, 6, 8}.
        assert_eq!(mis_of(&accepted), vec![0, 2, 4, 6, 8]);
        // Corrupt vertex 4 to false; downstream (5..) is then stale too, but
        // the repair only needs the corrupted vertex as a seed.
        accepted[4] = false;
        let (changed, _) = repair_fixed_point(&mut dag, &mut accepted, &[4]);
        assert_eq!(mis_of(&accepted), vec![0, 2, 4, 6, 8]);
        assert_eq!(changed, vec![4], "net change is the restored vertex only");
    }

    #[test]
    fn scratch_reuse_matches_fresh_and_resets_in_o_delta() {
        // A reused scratch must (a) produce exactly the same repairs as the
        // allocating path and (b) reset in work proportional to the repair,
        // not the DAG — the property that makes tiny batches on big graphs
        // cheap for the batch-dynamic engine.
        let n = 20_000;
        let g = random_graph(n, 60_000, 9);
        let pi = random_permutation(n, 10);
        let mut dag = MisDag { graph: &g, pi: &pi };
        let (mut fresh, _) = greedy_from_scratch(&mut dag);
        let mut reused = fresh.clone();
        let mut scratch = RepairScratch::with_capacity(dag.len());
        for v in [5u32, 499, 13_000, 19_999] {
            fresh[v as usize] = !fresh[v as usize];
            reused[v as usize] = !reused[v as usize];
            let (c1, s1) = repair_fixed_point(&mut dag, &mut fresh, &[v]);
            let (c2, s2) =
                repair_fixed_point_with_scratch(&mut dag, &mut reused, &[v], &mut scratch);
            assert_eq!(fresh, reused, "state diverged after seeding {v}");
            assert_eq!((c1, s1), (c2, s2), "report diverged after seeding {v}");
            assert!(
                scratch.last_reset_items() < n / 10,
                "single-seed repair reset {} of {n} flags",
                scratch.last_reset_items()
            );
        }
        // The scratch also drives a full from-scratch run correctly.
        let mut rebuilt = vec![false; dag.len()];
        let seeds: Vec<u32> = (0..dag.len() as u32).collect();
        let _ = repair_fixed_point_with_scratch(&mut dag, &mut rebuilt, &seeds, &mut scratch);
        assert_eq!(rebuilt, fresh);
    }

    #[test]
    #[should_panic(expected = "state covers")]
    fn mismatched_state_length_panics() {
        let g = path_graph(4);
        let pi = Permutation::identity(4);
        let mut dag = MisDag { graph: &g, pi: &pi };
        let mut accepted = vec![false; 3];
        let _ = repair_fixed_point(&mut dag, &mut accepted, &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seed_panics() {
        let g = path_graph(4);
        let pi = Permutation::identity(4);
        let mut dag = MisDag { graph: &g, pi: &pi };
        let mut accepted = vec![false; 4];
        let _ = repair_fixed_point(&mut dag, &mut accepted, &[9]);
    }

    #[test]
    fn zero_item_dag() {
        let g = Graph::empty(0);
        let pi = Permutation::identity(0);
        let mut dag = MisDag { graph: &g, pi: &pi };
        let (accepted, stats) = greedy_from_scratch(&mut dag);
        assert!(accepted.is_empty());
        assert_eq!(stats.rounds, 0);
    }
}
