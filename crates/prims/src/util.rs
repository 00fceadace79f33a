//! Chunking and grain-size helpers shared by the parallel primitives.
//!
//! Rayon adapts its splitting automatically, but the blocked two-pass
//! algorithms in this crate (scan, pack, counting sort) need explicit block
//! boundaries so that per-block partial results can be combined
//! deterministically. These helpers compute those boundaries.

/// Default grain size: the smallest amount of work a parallel primitive hands
/// to a single task.
///
/// The paper's implementation notes a loop grain size of 256 (Section 6); we
/// use a slightly larger default because our per-element work is often a
/// handful of instructions. Primitives accept an explicit grain where the
/// caller wants to reproduce the paper's sequential-to-parallel "bump"
/// (see the `ablation_grain_size` experiment).
pub const DEFAULT_GRAIN: usize = 1024;

/// Below this input size parallel primitives run their sequential fallback
/// outright, to avoid paying any scheduling overhead.
pub const SEQUENTIAL_CUTOFF: usize = 2048;

/// Splits `0..len` into roughly equal contiguous blocks of at least
/// `min_block` elements, returning the half-open ranges.
///
/// The number of blocks is capped at `max_blocks` (usually a small multiple of
/// the number of threads). Returns a single block when `len <= min_block`.
///
/// ```
/// use greedy_prims::util::blocks;
/// let b = blocks(10, 4, 8);
/// assert_eq!(b, vec![0..5, 5..10]);
/// ```
pub fn blocks(len: usize, min_block: usize, max_blocks: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let min_block = min_block.max(1);
    let max_blocks = max_blocks.max(1);
    let nblocks = (len / min_block).clamp(1, max_blocks);
    let block_size = len.div_ceil(nblocks);
    let mut out = Vec::with_capacity(nblocks);
    let mut start = 0;
    while start < len {
        let end = (start + block_size).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// A reasonable default block count for two-pass blocked algorithms:
/// a small multiple of the available parallelism.
pub fn default_num_blocks() -> usize {
    rayon::current_num_threads().saturating_mul(8).max(1)
}

/// Applies `f` to every coarse task in `tasks`, in parallel, returning the
/// results in task order.
///
/// This is the fork–join fan-out for *blocked* algorithms (scan, radix sort)
/// that hand out a handful of tasks — typically a small multiple of the
/// thread count — where each task is a large contiguous block of work.
/// `par_iter` over such a short task list does not split (its grain size is
/// tuned for per-element work), so this helper recurses with [`rayon::join`]
/// instead. Forking stops once the current thread budget
/// ([`rayon::current_num_threads`]) is exhausted, so a `t`-thread pool never
/// runs more than `t` tasks concurrently even when given `4t` tasks —
/// thread-count-labeled measurements stay honest.
pub fn par_map_blocks<I, R, F>(tasks: Vec<I>, f: &F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    par_map_blocks_bounded(tasks, f, rayon::current_num_threads())
}

fn par_map_blocks_bounded<I, R, F>(mut tasks: Vec<I>, f: &F, budget: usize) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    if tasks.len() <= 1 || budget <= 1 {
        return tasks.into_iter().map(f).collect();
    }
    let right = tasks.split_off(tasks.len() / 2);
    let right_budget = budget / 2;
    let left_budget = budget - right_budget;
    let (mut a, b) = rayon::join(
        || par_map_blocks_bounded(tasks, f, left_budget),
        || par_map_blocks_bounded(right, f, right_budget),
    );
    a.extend(b);
    a
}

/// Rounds `x` up to the next power of two (saturating at `usize::MAX/2 + 1`).
///
/// ```
/// use greedy_prims::util::next_power_of_two;
/// assert_eq!(next_power_of_two(0), 1);
/// assert_eq!(next_power_of_two(5), 8);
/// assert_eq!(next_power_of_two(8), 8);
/// ```
pub fn next_power_of_two(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

/// Integer ceiling of log2, with `ceil_log2(0) == 0` and `ceil_log2(1) == 0`.
///
/// ```
/// use greedy_prims::util::ceil_log2;
/// assert_eq!(ceil_log2(1), 0);
/// assert_eq!(ceil_log2(2), 1);
/// assert_eq!(ceil_log2(3), 2);
/// assert_eq!(ceil_log2(1024), 10);
/// ```
pub fn ceil_log2(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_cover_range_exactly() {
        for len in [0usize, 1, 2, 7, 100, 1000, 12345] {
            for min_block in [1usize, 3, 64, 1024] {
                for max_blocks in [1usize, 2, 7, 64] {
                    let bs = blocks(len, min_block, max_blocks);
                    if len == 0 {
                        assert!(bs.is_empty());
                        continue;
                    }
                    assert_eq!(bs.first().unwrap().start, 0);
                    assert_eq!(bs.last().unwrap().end, len);
                    for w in bs.windows(2) {
                        assert_eq!(w[0].end, w[1].start, "blocks must be contiguous");
                    }
                    assert!(bs.len() <= max_blocks);
                }
            }
        }
    }

    #[test]
    fn blocks_single_when_small() {
        let bs = blocks(10, 100, 8);
        assert_eq!(bs, vec![0..10]);
    }

    #[test]
    fn ceil_log2_matches_naive() {
        for x in 1usize..1000 {
            let naive = (x as f64).log2().ceil() as u32;
            assert_eq!(ceil_log2(x), naive, "x={x}");
        }
    }

    #[test]
    fn next_power_of_two_basics() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(1025), 2048);
    }

    #[test]
    fn default_num_blocks_positive() {
        assert!(default_num_blocks() >= 1);
    }

    #[test]
    fn par_map_blocks_preserves_task_order() {
        for threads in [1usize, 2, 3, 7] {
            let got = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| par_map_blocks((0..37usize).collect(), &|i| i * i));
            let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn sixty_four_coarse_tasks_split_across_threads() {
        // Regression for the shim-grain trap: the rayon shim's `par_iter`
        // does not split collections shorter than its 256-element grain, so
        // a 64-task coarse fan-out routed through it would run entirely on
        // the calling thread. `par_map_blocks` must actually distribute
        // those 64 tasks — this is the fan-out shape of the engine's
        // 64-vertex arena rebalance, which depends on this property.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| {
                par_map_blocks((0..64usize).collect(), &|_| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    // Make each task coarse enough that helpers get a chance
                    // to steal before the first thread drains everything.
                    std::thread::sleep(std::time::Duration::from_micros(500));
                })
            });
        assert!(
            seen.lock().unwrap().len() >= 2,
            "64 coarse tasks under a 4-thread pool all ran on one thread"
        );
    }

    #[test]
    fn par_map_blocks_never_exceeds_thread_budget() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let threads = 3;
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                par_map_blocks((0..32usize).collect(), &|_| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            });
        assert!(
            peak.load(Ordering::SeqCst) <= threads,
            "observed {} concurrent tasks under a {threads}-thread pool",
            peak.load(Ordering::SeqCst)
        );
    }
}
