//! Offline stand-in for the `rayon` crate.
//!
//! This workspace must build in environments with no crates.io access, so the
//! shims under `crates/shims/` provide the API subset the workspace uses.
//! This one reimplements the rayon surface the algorithms rely on with **real
//! data parallelism** on `std::thread::scope`:
//!
//! * a parallel iterator ([`Par`]) over slices, mutable slices, chunks,
//!   integer ranges, and vectors, with the adapters the workspace uses
//!   (`map`, `filter`, `filter_map`, `flat_map_iter`, `copied`, `zip`,
//!   `enumerate`) and parallel terminals (`collect`, `for_each`, `sum`,
//!   `count`, `min`, `max`, `all`, `any`, `reduce`);
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
//! chain. A terminal operation distributes the parts over scoped worker
//! threads and combines per-part results **in part order**, which keeps every
//! operation deterministic: results never depend on thread interleaving.
//!
//! One deviation from real rayon, acceptable for the workloads here: `zip`
//! and `enumerate` materialize their input (they are only applied directly
//! to cheap sources in this workspace).
//!
//! The shim has no parallel slice sort: every sort in the workspace goes
//! through `greedy_prims::sort::sort_by_key_parallel`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Thread accounting and the worker driver
// ---------------------------------------------------------------------------

thread_local! {
    /// Thread count pinned by the innermost `ThreadPool::install`, if any.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The number of threads parallel operations on this thread will use: the
/// innermost installed pool's size, or the machine's available parallelism.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(|c| c.get())
        .unwrap_or_else(default_threads)
}

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

/// Consumes each part with `f` on a scoped worker pool and returns the
/// per-part results in part order. Workers inherit the caller's installed
/// pool size so nested parallel calls see the same thread budget.
fn run_parts<I, R, F>(parts: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let threads = current_num_threads().min(parts.len());
    if threads <= 1 {
        return parts.into_iter().map(f).collect();
    }
    let inherited = POOL_THREADS.with(|c| c.get());
    let n = parts.len();
    let slots: Vec<Mutex<Option<I>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    {
        let (f, slots, results, next) = (&f, &slots, &results, &next);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || {
                    POOL_THREADS.with(|c| c.set(inherited));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let part = slots[i].lock().unwrap().take().unwrap();
                        let r = f(part);
                        *results[i].lock().unwrap() = Some(r);
                    }
                });
            }
        });
    }
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().unwrap())
        .collect()
}

/// Runs `a` and `b`, potentially in parallel, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    let inherited = POOL_THREADS.with(|c| c.get());
    std::thread::scope(|scope| {
        let hb = scope.spawn(move || {
            POOL_THREADS.with(|c| c.set(inherited));
            b()
        });
        let ra = a();
        (ra, hb.join().unwrap())
    })
}

// ---------------------------------------------------------------------------
// Thread pools
// ---------------------------------------------------------------------------

/// Error building a thread pool. The shim's pools cannot actually fail to
/// build; the type exists for API compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count; `0` means the machine default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A logical thread pool: a parallelism budget that [`ThreadPool::install`]
/// pins for the duration of a closure. Workers are spawned per operation
/// (scoped threads), not kept alive, which is indistinguishable to callers
/// beyond constant-factor overhead.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

/// Restores the caller's pool size when `install` unwinds or returns.
struct PoolGuard(Option<usize>);

impl Drop for PoolGuard {
    fn drop(&mut self) {
        POOL_THREADS.with(|c| c.set(self.0));
    }
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count pinned as the parallelism
    /// budget for all parallel operations it performs.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let prev = POOL_THREADS.with(|c| c.replace(Some(self.num_threads)));
        let _guard = PoolGuard(prev);
        op()
    }

    /// This pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
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

/// Splits an owned vector into per-part consuming iterators.
fn vec_parts<T>(v: Vec<T>) -> Vec<std::vec::IntoIter<T>> {
    let len = v.len();
    let bounds = part_bounds(len);
    if bounds.len() <= 1 {
        return vec![v.into_iter()];
    }
    let mut it = v.into_iter();
    bounds
        .iter()
        .map(|&(s, e)| it.by_ref().take(e - s).collect::<Vec<_>>().into_iter())
        .collect()
}

impl<T: Send> Par<std::vec::IntoIter<T>> {
    /// Builds a parallel iterator over an owned vector's elements.
    pub fn from_vec(v: Vec<T>) -> Self {
        Par {
            parts: vec_parts(v),
        }
    }
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

    /// Pairs items with their global index. Materializes the input (it is
    /// only used directly on sources in this workspace).
    pub fn enumerate(self) -> Par<std::vec::IntoIter<(usize, I::Item)>> {
        let v: Vec<(usize, I::Item)> = self.parts.into_iter().flatten().enumerate().collect();
        Par::from_vec(v)
    }

    /// Pairs items of two parallel iterators elementwise. Materializes both
    /// inputs (they are only cheap sources in this workspace).
    pub fn zip<J>(self, other: Par<J>) -> Par<std::vec::IntoIter<(I::Item, J::Item)>>
    where
        J: Iterator + Send,
        J::Item: Send,
    {
        let a: Vec<I::Item> = self.parts.into_iter().flatten().collect();
        let b: Vec<J::Item> = other.parts.into_iter().flatten().collect();
        Par::from_vec(a.into_iter().zip(b).collect())
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

    /// Minimum item, `None` when empty.
    pub fn min(self) -> Option<I::Item>
    where
        I::Item: Ord,
    {
        run_parts(self.parts, |p| p.min())
            .into_iter()
            .flatten()
            .min()
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

    /// Reduces with `op`, seeding every part (and the final combine) with
    /// `identity`, exactly like rayon's `reduce`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> I::Item
    where
        ID: Fn() -> I::Item + Send + Sync,
        OP: Fn(I::Item, I::Item) -> I::Item + Send + Sync,
    {
        run_parts(self.parts, |p| p.fold(identity(), &op))
            .into_iter()
            .fold(identity(), &op)
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

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = Par<std::vec::IntoIter<T>>;
    fn into_par_iter(self) -> Self::Iter {
        Par::from_vec(self)
    }
}

/// Parallel operations on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T`.
    fn par_iter(&self) -> Par<std::slice::Iter<'_, T>>;
    /// Parallel iterator over contiguous chunks of up to `size` elements.
    fn par_chunks(&self, size: usize) -> Par<std::vec::IntoIter<&[T]>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Par<std::slice::Iter<'_, T>> {
        let parts = part_bounds(self.len())
            .into_iter()
            .map(|(s, e)| self[s..e].iter())
            .collect();
        Par { parts }
    }

    fn par_chunks(&self, size: usize) -> Par<std::vec::IntoIter<&[T]>> {
        assert!(size > 0, "par_chunks: chunk size must be positive");
        Par::from_vec(self.chunks(size).collect())
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
    fn sum_min_max_all_any() {
        let data: Vec<u64> = (0..50_000).collect();
        assert_eq!(data.par_iter().sum::<u64>(), 50_000 * 49_999 / 2);
        assert_eq!(data.par_iter().copied().min(), Some(0));
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
    fn zip_and_enumerate() {
        let a = [1u32, 2, 3, 4];
        let b = [10u32, 20, 30, 40];
        let s: Vec<u32> = a
            .par_iter()
            .zip(b.par_iter())
            .map(|(&x, &y)| x + y)
            .collect();
        assert_eq!(s, vec![11, 22, 33, 44]);
        let e: Vec<(usize, u32)> = b.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        assert_eq!(e, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    fn flat_map_iter_flattens_in_order() {
        let v: Vec<u32> = vec![0u32, 1, 2, 3]
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
    fn reduce_with_identity() {
        let h = vec![1u64; 10_000]
            .into_par_iter()
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(h, 10_000);
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
