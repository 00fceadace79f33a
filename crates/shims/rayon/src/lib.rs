//! Offline stand-in for the `rayon` crate.
//!
//! This workspace must build in environments with no crates.io access, so the
//! shims under `crates/shims/` provide the API subset the workspace uses.
//! This one reimplements the rayon surface the algorithms rely on with **real
//! data parallelism** on a pool of persistent worker threads:
//!
//! * a parallel iterator ([`Par`]) over slices, mutable slices and integer
//!   ranges, with the adapters the workspace uses (`map`, `filter`,
//!   `filter_map`, `flat_map_iter`, `copied`) and parallel terminals
//!   (`collect`, `for_each`, `sum`, `count`, `max`, `all`, `any`);
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] and
//!   [`current_num_threads`], so callers can pin a computation to a given
//!   parallelism level (thread-count sweeps in the experiment harness);
//! * [`join`] for fork–join recursion.
//!
//! # Execution model
//!
//! A source is split eagerly into contiguous parts (a small multiple of the
//! effective thread count). Adapters wrap each part's *sequential* iterator
//! lazily, so an adapter chain costs the same as the equivalent `std::iter`
//! chain. A terminal operation hands the parts to the current pool and
//! combines per-part results **in part order**, which keeps every operation
//! deterministic: results never depend on thread interleaving.
//!
//! A pool of `t` threads is `t - 1` workers that park on a condvar between
//! jobs, plus the thread that calls in. A terminal and a [`join`] are the
//! only two fork points: the caller posts the job, wakes idle workers, and
//! claims parts from the same atomic counter as they do, so it only ever
//! waits on parts that are already running and nested parallel calls cannot
//! deadlock. When the work is done before a worker wakes, the caller has run
//! all of it and the fork cost no more than a lock and a wake-up. A panic in
//! any part reaches the caller with its original payload, after every worker
//! has left the job. Nobody spins, so an idle pool costs no CPU time.
//!
//! Parallel calls run on the innermost installed pool; a part running on a
//! built pool's worker forks onto that same pool. Elsewhere they run on the
//! global pool, which starts `available_parallelism - 1` workers on first
//! use and keeps them for the life of the process (workers inherit the CPU
//! affinity of the thread that starts them). A built pool owns its workers
//! and stops them when dropped.
//!
//! The shim has no parallel slice sort: every sort in the workspace goes
//! through `greedy_prims::sort::sort_by_key_parallel`.

use std::sync::Arc;

mod pool;

use pool::run_parts;
pub use pool::{current_num_threads, join, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

/// Smallest part a source is split into; below this, splitting overhead
/// dominates any parallel win.
const MIN_PART: usize = 256;

/// How many parts to split a source of `len` items into.
fn split_count(len: usize) -> usize {
    let threads = current_num_threads();
    if threads <= 1 || len <= MIN_PART {
        return 1;
    }
    (threads * 4).min(len.div_ceil(MIN_PART)).max(1)
}

// ---------------------------------------------------------------------------
// Parallel iterator
// ---------------------------------------------------------------------------

/// A parallel iterator: an ordered list of sequential parts that terminal
/// operations consume on worker threads.
pub struct Par<I> {
    parts: Vec<I>,
}

/// Splits `0..len` into part boundaries.
fn part_bounds(len: usize) -> Vec<(usize, usize)> {
    let pieces = split_count(len);
    let chunk = len.div_ceil(pieces.max(1)).max(1);
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    loop {
        let end = (start + chunk).min(len);
        out.push((start, end));
        if end == len {
            break;
        }
        start = end;
    }
    out
}

impl<I> Par<I>
where
    I: Iterator + Send,
    I::Item: Send,
{
    /// Applies `f` to every item.
    pub fn map<R, F>(self, f: F) -> Par<Map<I, F>>
    where
        F: Fn(I::Item) -> R + Send + Sync,
    {
        let f = Arc::new(f);
        Par {
            parts: self
                .parts
                .into_iter()
                .map(|p| Map {
                    inner: p,
                    f: Arc::clone(&f),
                })
                .collect(),
        }
    }

    /// Keeps items satisfying `pred` (which, as in rayon, sees `&Item`).
    pub fn filter<F>(self, pred: F) -> Par<Filter<I, F>>
    where
        F: Fn(&I::Item) -> bool + Send + Sync,
    {
        let pred = Arc::new(pred);
        Par {
            parts: self
                .parts
                .into_iter()
                .map(|p| Filter {
                    inner: p,
                    pred: Arc::clone(&pred),
                })
                .collect(),
        }
    }

    /// Maps items to `Option`s and keeps the `Some` payloads.
    pub fn filter_map<R, F>(self, f: F) -> Par<FilterMap<I, F>>
    where
        F: Fn(I::Item) -> Option<R> + Send + Sync,
    {
        let f = Arc::new(f);
        Par {
            parts: self
                .parts
                .into_iter()
                .map(|p| FilterMap {
                    inner: p,
                    f: Arc::clone(&f),
                })
                .collect(),
        }
    }

    /// Maps each item to a sequential iterator and flattens, rayon-style.
    pub fn flat_map_iter<II, F>(self, f: F) -> Par<FlatMapIter<I, F, II>>
    where
        F: Fn(I::Item) -> II + Send + Sync,
        II: IntoIterator,
        II::Item: Send,
    {
        let f = Arc::new(f);
        Par {
            parts: self
                .parts
                .into_iter()
                .map(|p| FlatMapIter {
                    inner: p,
                    f: Arc::clone(&f),
                    cur: None,
                })
                .collect(),
        }
    }

    /// Copies referenced items.
    pub fn copied<'a, T>(self) -> Par<std::iter::Copied<I>>
    where
        I: Iterator<Item = &'a T>,
        T: Copy + Send + Sync + 'a,
    {
        Par {
            parts: self.parts.into_iter().map(|p| p.copied()).collect(),
        }
    }

    // -- terminals ---------------------------------------------------------

    /// Runs `f` on every item, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I::Item) + Send + Sync,
    {
        run_parts(self.parts, |p| p.for_each(&f));
    }

    /// Collects into `C` preserving the sequential order.
    pub fn collect<C>(self) -> C
    where
        C: FromParallel<I::Item>,
    {
        C::from_part_results(run_parts(self.parts, |p| p.collect::<Vec<_>>()))
    }

    /// Number of items.
    pub fn count(self) -> usize {
        run_parts(self.parts, |p| p.count()).into_iter().sum()
    }

    /// Sums the items.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<I::Item> + std::iter::Sum<S> + Send,
    {
        run_parts(self.parts, |p| p.sum::<S>()).into_iter().sum()
    }

    /// Maximum item, `None` when empty.
    pub fn max(self) -> Option<I::Item>
    where
        I::Item: Ord,
    {
        run_parts(self.parts, |p| p.max())
            .into_iter()
            .flatten()
            .max()
    }

    /// True when `pred` holds for every item.
    pub fn all<F>(self, pred: F) -> bool
    where
        F: Fn(I::Item) -> bool + Send + Sync,
    {
        run_parts(self.parts, |mut p| p.all(&pred))
            .into_iter()
            .all(|b| b)
    }

    /// True when `pred` holds for some item.
    pub fn any<F>(self, pred: F) -> bool
    where
        F: Fn(I::Item) -> bool + Send + Sync,
    {
        run_parts(self.parts, |mut p| p.any(&pred))
            .into_iter()
            .any(|b| b)
    }
}

/// How a container is assembled from ordered per-part results.
pub trait FromParallel<T> {
    /// Concatenates the per-part buffers, in order.
    fn from_part_results(parts: Vec<Vec<T>>) -> Self;
}

impl<T> FromParallel<T> for Vec<T> {
    fn from_part_results(parts: Vec<Vec<T>>) -> Self {
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

// -- lazy per-part adapters -------------------------------------------------

/// Per-part `map` adapter.
pub struct Map<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<I, R, F> Iterator for Map<I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> R,
{
    type Item = R;
    fn next(&mut self) -> Option<R> {
        self.inner.next().map(|x| (self.f)(x))
    }
}

/// Per-part `filter` adapter.
pub struct Filter<I, F> {
    inner: I,
    pred: Arc<F>,
}

impl<I, F> Iterator for Filter<I, F>
where
    I: Iterator,
    F: Fn(&I::Item) -> bool,
{
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        self.inner.find(|x| (self.pred)(x))
    }
}

/// Per-part `filter_map` adapter.
pub struct FilterMap<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<I, R, F> Iterator for FilterMap<I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> Option<R>,
{
    type Item = R;
    fn next(&mut self) -> Option<R> {
        loop {
            match (self.f)(self.inner.next()?) {
                Some(x) => return Some(x),
                None => continue,
            }
        }
    }
}

/// Per-part `flat_map_iter` adapter.
pub struct FlatMapIter<I, F, II: IntoIterator> {
    inner: I,
    f: Arc<F>,
    cur: Option<II::IntoIter>,
}

impl<I, F, II> Iterator for FlatMapIter<I, F, II>
where
    I: Iterator,
    F: Fn(I::Item) -> II,
    II: IntoIterator,
{
    type Item = II::Item;
    fn next(&mut self) -> Option<II::Item> {
        loop {
            if let Some(c) = &mut self.cur {
                if let Some(x) = c.next() {
                    return Some(x);
                }
            }
            self.cur = Some((self.f)(self.inner.next()?).into_iter());
        }
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// Concrete parallel iterator type.
    type Iter;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

macro_rules! impl_range_source {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = Par<std::ops::Range<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                let len = (self.end as u128).saturating_sub(self.start as u128) as usize;
                let parts = part_bounds(len)
                    .into_iter()
                    .map(|(s, e)| (self.start + s as $t)..(self.start + e as $t))
                    .collect();
                Par { parts }
            }
        }
    )*};
}

impl_range_source!(u32, u64, usize);

/// Parallel operations on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T`.
    fn par_iter(&self) -> Par<std::slice::Iter<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Par<std::slice::Iter<'_, T>> {
        let parts = part_bounds(self.len())
            .into_iter()
            .map(|(s, e)| self[s..e].iter())
            .collect();
        Par { parts }
    }
}

/// Parallel operations on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut T`.
    fn par_iter_mut(&mut self) -> Par<std::slice::IterMut<'_, T>>;
}

/// Splits a mutable slice into at most `pieces` contiguous sub-slices.
fn split_mut<T>(mut s: &mut [T], chunk: usize) -> Vec<&mut [T]> {
    let mut parts = Vec::new();
    while s.len() > chunk {
        let (a, b) = s.split_at_mut(chunk);
        parts.push(a);
        s = b;
    }
    parts.push(s);
    parts
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> Par<std::slice::IterMut<'_, T>> {
        let len = self.len();
        let chunk = len.div_ceil(split_count(len).max(1)).max(1);
        let parts = split_mut(self, chunk)
            .into_iter()
            .map(|s| s.iter_mut())
            .collect();
        Par { parts }
    }
}

/// Everything callers need in scope: the source and adapter traits.
pub mod prelude {
    pub use crate::{FromParallel, IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::pool::default_threads;
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..100_000u64).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v.len(), 100_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    }

    #[test]
    fn filter_and_count() {
        let n = (0..1_000_000u32)
            .into_par_iter()
            .filter(|&x| x % 3 == 0)
            .count();
        assert_eq!(n, 333_334);
    }

    #[test]
    fn sum_max_all_any() {
        let data: Vec<u64> = (0..50_000).collect();
        assert_eq!(data.par_iter().sum::<u64>(), 50_000 * 49_999 / 2);
        assert_eq!(data.par_iter().copied().max(), Some(49_999));
        assert!(data.par_iter().all(|&x| x < 50_000));
        assert!(data.par_iter().any(|&x| x == 12_345));
        assert!(!data.par_iter().any(|&x| x > 60_000));
    }

    #[test]
    fn empty_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(empty.par_iter().count(), 0);
        assert_eq!(empty.par_iter().copied().max(), None);
        let c: Vec<u32> = (0u32..0).into_par_iter().collect();
        assert!(c.is_empty());
        assert!(empty.par_iter().all(|_| false));
        assert!(!empty.par_iter().any(|_| true));
    }

    #[test]
    fn flat_map_iter_flattens_in_order() {
        let v: Vec<u32> = (0u32..4)
            .into_par_iter()
            .flat_map_iter(|x| [x * 10, x * 10 + 1])
            .collect();
        assert_eq!(v, vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn par_iter_mut_writes() {
        let mut v = vec![0u64; 100_000];
        v.par_iter_mut().for_each(|x| *x = 7);
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn pool_pins_thread_count() {
        let inside = ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap()
            .install(current_num_threads);
        assert_eq!(inside, 3);
        // Restored after install.
        assert_eq!(current_num_threads(), default_threads());
    }

    #[test]
    fn nested_install_restores_outer() {
        let pool2 = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let pool5 = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let (inner, outer) = pool2.install(|| {
            let inner = pool5.install(current_num_threads);
            (inner, current_num_threads())
        });
        assert_eq!(inner, 5);
        assert_eq!(outer, 2);
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn results_independent_of_pool_size() {
        let run = |threads: usize| -> Vec<u64> {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    (0..100_000u64)
                        .into_par_iter()
                        .filter(|&x| x % 7 == 0)
                        .map(|x| x * 3)
                        .collect()
                })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }
}
