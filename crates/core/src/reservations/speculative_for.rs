//! The `speculative_for` deterministic-reservations loop.
//!
//! A greedy sequential loop `for i in 0..n { body(i) }` whose iterations may
//! conflict is parallelized with the schedule of the paper's Algorithm 3:
//! take the next prefix of the iterates, then run *steps* over its
//! unfinished iterates until every one has finished. A step is a
//! [`ReservationStep::reserve`] phase (each iterate claims the shared state
//! it needs via priority writes), a barrier, then a
//! [`ReservationStep::commit`] phase (each iterate checks it still holds its
//! claims and applies its update). Priority writes resolve in iterate order,
//! so the earliest unfinished iterate always wins, and the result is
//! identical to the sequential loop's.
//!
//! The prefix size is the same work/parallelism dial as in Algorithm 3:
//! size 1 is the sequential loop; the full range is the maximally
//! speculative loop.
//!
//! # Memory ordering
//!
//! Each phase is one parallel terminal of the rayon shim, and a terminal
//! returns only after every helper thread has left its job: a helper
//! records its exit under the pool's `state` mutex, and the caller checks
//! for it under the same mutex (`Pool::retire` in the shim). Every write of
//! one phase therefore happens-before every read of the next, so a step's
//! shared state may use `Relaxed` atomics: within a phase it needs only
//! each cell's own modification order.

use rayon::prelude::*;

use crate::mis::prefix::PrefixPolicy;
use crate::stats::WorkStats;

/// One speculative loop body. `i` is the iterate index in the *sequential*
/// order (0 = highest priority). Implementations use interior mutability
/// (atomics; a priority reservation is one `fetch_min`) for shared state.
/// The schedule cannot change a step's decisions, nor the driver's
/// counters, if no phase reads what another iterate writes in that same
/// phase, apart from priority cells whose winner is already fixed.
pub trait ReservationStep: Sync {
    /// Phase 1 of a step: reserve whatever iterate `i` needs. Returning
    /// `false` means the iterate is finished: it has nothing left to do, and
    /// its `commit` is not called.
    fn reserve(&self, i: usize) -> bool;

    /// Phase 2 of a step: check the reservations and apply the update.
    /// Returning `true` means iterate `i` is finished (successfully or
    /// because it discovered it has nothing to do); `false` means retry in
    /// the next step.
    fn commit(&self, i: usize) -> bool;
}

/// Runs iterates `0..num_iterates` of `step` with deterministic
/// reservations, in prefixes of `granularity` iterates: the driver at
/// [`PrefixPolicy::Fixed`]`(granularity)`. Returns its counters (`rounds` =
/// prefixes, `steps` = reserve/commit steps, `vertex_work` = reservation
/// attempts, summed over steps).
///
/// # Panics
/// Panics if `granularity == 0`, or if a step makes no progress (which would
/// mean the `ReservationStep` implementation can livelock).
pub fn speculative_for<S: ReservationStep>(
    step: &S,
    num_iterates: usize,
    granularity: usize,
) -> WorkStats {
    assert!(
        granularity > 0,
        "speculative_for: granularity must be positive"
    );
    speculative_prefixes(step, num_iterates, PrefixPolicy::Fixed(granularity), 0)
}

/// Marks an iterate of the step buffer as finished.
const FINISHED: usize = 1 << (usize::BITS - 1);

/// The driver: runs iterates `0..num_iterates` of `step` in the prefixes
/// `policy` chooses (`max_degree` feeds [`PrefixPolicy::Adaptive`]), with the
/// counters of [`speculative_for`].
pub(crate) fn speculative_prefixes<S: ReservationStep>(
    step: &S,
    num_iterates: usize,
    policy: PrefixPolicy,
    max_degree: usize,
) -> WorkStats {
    assert!(
        num_iterates < FINISHED,
        "speculative_for: too many iterates"
    );
    let mut stats = WorkStats::new();
    // The unfinished iterates of the current prefix, in priority order. One
    // buffer serves every step of every prefix.
    let mut pending: Vec<usize> = Vec::new();
    let mut start = 0usize;
    while start < num_iterates {
        let k = policy.prefix_size(num_iterates, num_iterates - start, max_degree, stats.rounds);
        stats.rounds += 1;
        pending.extend(start..start + k);
        start += k;
        while !pending.is_empty() {
            stats.steps += 1;
            stats.vertex_work += pending.len() as u64;
            pending.par_iter_mut().for_each(|i| {
                if !step.reserve(*i) {
                    *i |= FINISHED;
                }
            });
            pending.par_iter_mut().for_each(|i| {
                if *i & FINISHED == 0 && step.commit(*i) {
                    *i |= FINISHED;
                }
            });
            let before = pending.len();
            pending.retain(|&i| i & FINISHED == 0);
            assert!(
                pending.len() < before,
                "speculative_for: no progress in a step — the step implementation livelocks"
            );
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// A trivially conflict-free step: every iterate adds its index to a sum.
    struct SumStep {
        total: AtomicU64,
    }

    impl ReservationStep for SumStep {
        fn reserve(&self, _i: usize) -> bool {
            true
        }
        fn commit(&self, i: usize) -> bool {
            self.total.fetch_add(i as u64, Ordering::Relaxed);
            true
        }
    }

    #[test]
    fn conflict_free_loop_runs_every_iterate_once() {
        for granularity in [1usize, 7, 100, 10_000] {
            let step = SumStep {
                total: AtomicU64::new(0),
            };
            let stats = speculative_for(&step, 1_000, granularity);
            assert_eq!(step.total.load(Ordering::Relaxed), 1_000 * 999 / 2);
            assert_eq!(stats.vertex_work, 1_000);
            assert_eq!(stats.rounds as usize, 1_000usize.div_ceil(granularity));
        }
    }

    #[test]
    fn empty_loop() {
        let step = SumStep {
            total: AtomicU64::new(0),
        };
        let stats = speculative_for(&step, 0, 16);
        assert_eq!(stats.rounds, 0);
        assert_eq!(step.total.load(Ordering::Relaxed), 0);
    }

    /// A step where iterate i must observe that all iterates j < i in the
    /// same "group" have committed before it can commit — exercising retries.
    struct ChainStep {
        committed: Vec<AtomicUsize>, // 0 = pending, 1 = done
    }

    impl ReservationStep for ChainStep {
        fn reserve(&self, _i: usize) -> bool {
            true
        }
        fn commit(&self, i: usize) -> bool {
            if i == 0 || self.committed[i - 1].load(Ordering::SeqCst) == 1 {
                self.committed[i].store(1, Ordering::SeqCst);
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn chained_dependences_retry_until_resolved() {
        let n = 200;
        let step = ChainStep {
            committed: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        };
        let stats = speculative_for(&step, n, 50);
        assert!(step.committed.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        // Every iterate runs at least once; how many retries occur depends on
        // the schedule (none when commits happen to execute in index order),
        // but the loop must always terminate with all iterates done.
        assert!(stats.vertex_work >= n as u64);
        assert!(stats.rounds >= (n as u64).div_ceil(50));
    }

    #[test]
    #[should_panic(expected = "granularity must be positive")]
    fn zero_granularity_panics() {
        let step = SumStep {
            total: AtomicU64::new(0),
        };
        speculative_for(&step, 10, 0);
    }

    /// A step that never commits: must be detected as a livelock rather than
    /// spinning forever.
    struct StuckStep;
    impl ReservationStep for StuckStep {
        fn reserve(&self, _i: usize) -> bool {
            true
        }
        fn commit(&self, _i: usize) -> bool {
            false
        }
    }

    #[test]
    #[should_panic(expected = "no progress")]
    fn livelock_is_detected() {
        speculative_for(&StuckStep, 5, 5);
    }
}
