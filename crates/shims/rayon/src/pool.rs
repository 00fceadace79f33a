//! Worker pools: the threads every parallel call runs on (the crate docs'
//! "Execution model" describes them from the caller's side).
//!
//! A fork posts its job to the pool with a number of *tickets*, how many
//! workers may join in, and wakes up to that many parked workers. The job
//! lives on the caller's stack: before the caller returns, it revokes the
//! unused tickets and waits until every worker that took one has left, so no
//! worker touches the job after it is gone. Only then does it re-raise a
//! panic caught in the job.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

thread_local! {
    /// The pool this thread's parallel calls run on when it is not the
    /// global one: the innermost [`ThreadPool::install`], or, on a worker,
    /// the worker's own pool.
    static CURRENT: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
}

pub(crate) fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The implicit pool: sized to the machine's available parallelism and
/// started on first use. Its workers live as long as the process.
fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // The handles are dropped on purpose: the global workers are never
        // stopped, so there is nothing to join.
        let (pool, _workers) =
            Pool::start(default_threads()).expect("cannot start the global pool's worker threads");
        pool
    })
}

/// Runs `f` with the pool this thread's parallel calls use.
fn with_pool<R>(f: impl FnOnce(&Pool) -> R) -> R {
    match CURRENT.with(|c| c.borrow().clone()) {
        Some(pool) => f(&pool),
        None => f(global()),
    }
}

/// The number of threads parallel operations on this thread will use: the
/// installed pool's size, or the global pool's (the machine's available
/// parallelism).
pub fn current_num_threads() -> usize {
    CURRENT
        .with(|c| c.borrow().as_ref().map(|p| p.threads))
        .unwrap_or_else(|| global().threads)
}

/// A panic's payload, carried from the part that raised it to the caller.
type Payload = Box<dyn Any + Send>;

/// Work a caller shares with its pool's workers.
trait Job: Sync {
    /// Claims and runs parts of the job until none is left unclaimed.
    fn help(&self);
}

/// A job as the pool sees it while it is posted: the job and the first
/// panic any helper caught in it.
struct Task<'a, J> {
    job: &'a J,
    panic: Mutex<Option<Payload>>,
}

impl<J: Job> Task<'_, J> {
    /// Helps with the job, keeping a panic for the caller instead of
    /// unwinding into the worker loop.
    fn run(&self) {
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| self.job.help())) {
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(p);
        }
    }
}

/// A posted [`Task`] with its type and lifetime erased.
#[derive(Clone, Copy)]
struct JobRef {
    task: *const (),
    run: unsafe fn(*const ()),
}

// SAFETY: `task` points at a `Task<J>` with `J: Job`, so `Task<J>` is `Sync`
// (a shared reference to it may be used from any thread), and `run` is a
// plain function pointer. That the task outlives every use is the fork
// protocol's guarantee, stated at `JobRef::new`.
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    ///
    /// The task must stay alive, and stay where it is, until no thread can
    /// call [`JobRef::run`] on the result any more.
    unsafe fn new<J: Job>(task: &Task<'_, J>) -> Self {
        unsafe fn run<J: Job>(task: *const ()) {
            // SAFETY: `JobRef::new`'s caller keeps the `Task<J>` alive.
            unsafe { (*task.cast::<Task<'_, J>>()).run() }
        }
        JobRef {
            task: (task as *const Task<'_, J>).cast(),
            run: run::<J>,
        }
    }

    /// # Safety
    ///
    /// The task this was made from must still be alive.
    unsafe fn run(self) {
        // SAFETY: forwarded to the caller.
        unsafe { (self.run)(self.task) }
    }
}

/// One pool's shared state: its jobs and its parked workers.
struct Pool {
    /// The parallelism budget: the workers plus the thread that calls in.
    threads: usize,
    state: Mutex<State>,
    /// Idle workers park here until a job is posted or the pool stops.
    work: Condvar,
    /// A caller parks here until the last helper has left its job.
    left: Condvar,
}

#[derive(Default)]
struct State {
    /// The jobs whose callers have not returned, oldest first.
    jobs: Vec<Posted>,
    next_id: u64,
    /// Workers parked on `work`.
    idle: usize,
    stop: bool,
}

struct Posted {
    id: u64,
    job: JobRef,
    /// How many more workers may join; zero once the caller revokes them.
    tickets: usize,
    /// Workers inside the job right now.
    helpers: usize,
    /// Whether the caller is parked on `left` until `helpers` is zero.
    waiting: bool,
}

impl State {
    fn index(&self, id: u64) -> usize {
        self.jobs
            .iter()
            .position(|p| p.id == id)
            .expect("a posted job stays posted until its caller retires it")
    }
}

impl Pool {
    /// Starts a pool of `threads` threads: `threads - 1` workers, plus the
    /// caller of every fork.
    fn start(threads: usize) -> std::io::Result<(Arc<Pool>, Vec<JoinHandle<()>>)> {
        let pool = Arc::new(Pool {
            threads,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            left: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads.saturating_sub(1));
        for i in 1..threads {
            let worker = Arc::clone(&pool);
            let spawned = thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || worker.serve());
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    pool.stop(workers);
                    return Err(e);
                }
            }
        }
        Ok((pool, workers))
    }

    /// Locks the state. No code panics while holding this lock, and a fork
    /// must not unwind while workers may still be in its job, so a poisoned
    /// lock is recovered instead of unwrapped.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's life: help with the newest job that admits a helper,
    /// park when there is none, and exit once the pool stops. Parts it runs
    /// fork onto this same pool.
    fn serve(self: Arc<Self>) {
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&self)));
        let mut state = self.lock();
        loop {
            if let Some(p) = state.jobs.iter_mut().rev().find(|p| p.tickets > 0) {
                p.tickets -= 1;
                p.helpers += 1;
                let (id, job) = (p.id, p.job);
                drop(state);
                // SAFETY: the job's caller does not return before this
                // worker has decremented `helpers` below.
                unsafe { job.run() };
                state = self.lock();
                let i = state.index(id);
                let p = &mut state.jobs[i];
                p.helpers -= 1;
                if p.helpers == 0 && p.waiting {
                    self.left.notify_all();
                }
            } else if state.stop {
                return;
            } else {
                state.idle += 1;
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.idle -= 1;
            }
        }
    }

    /// Stops the workers once the jobs in hand are done, and joins them.
    fn stop(&self, workers: Vec<JoinHandle<()>>) {
        self.lock().stop = true;
        self.work.notify_all();
        let me = thread::current().id();
        for worker in workers {
            // A worker that drops its own pool cannot wait for itself.
            if worker.thread().id() != me {
                // The loop catches every panic of a job, so `join` fails
                // only if the pool's own code is wrong; a `Drop` must not
                // panic over it.
                let _ = worker.join();
            }
        }
    }

    /// Runs `first` on the calling thread while up to `helpers` workers
    /// help with `job`; then runs what no worker claimed, waits until every
    /// worker has left the job, and re-raises the first panic (`first`'s
    /// before the job's).
    fn fork<J: Job, R>(&self, job: &J, helpers: usize, first: impl FnOnce() -> R) -> R {
        debug_assert!(
            helpers > 0 && self.threads > 1,
            "a fork needs a worker to offer to"
        );
        let task = Task {
            job,
            panic: Mutex::new(None),
        };
        let tickets = helpers.min(self.threads - 1);
        let id = {
            let mut state = self.lock();
            let id = state.next_id;
            state.next_id += 1;
            state.jobs.push(Posted {
                id,
                // SAFETY: `task` is not moved and outlives this call, and
                // this call returns (or unwinds) only after the job is
                // retired below: its tickets revoked, so no worker can take
                // it, and `helpers` back at zero, so none is still in it.
                job: unsafe { JobRef::new(&task) },
                tickets,
                helpers: 0,
                waiting: false,
            });
            let wake = tickets.min(state.idle);
            drop(state);
            for _ in 0..wake {
                self.work.notify_one();
            }
            id
        };
        let r = panic::catch_unwind(AssertUnwindSafe(first));
        self.retire(id, &task);
        match r {
            Err(p) => panic::resume_unwind(p),
            Ok(r) => match task
                .panic
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
            {
                Some(p) => panic::resume_unwind(p),
                None => r,
            },
        }
    }

    /// Revokes job `id`'s tickets, runs what no worker claimed on this
    /// thread, and returns once no worker is in the job any more.
    fn retire<J: Job>(&self, id: u64, task: &Task<'_, J>) {
        let helped = {
            let mut state = self.lock();
            let i = state.index(id);
            if state.jobs[i].helpers == 0 {
                state.jobs.remove(i);
                false
            } else {
                state.jobs[i].tickets = 0;
                true
            }
        };
        task.run();
        if !helped {
            return;
        }
        let mut state = self.lock();
        loop {
            let i = state.index(id);
            if state.jobs[i].helpers == 0 {
                state.jobs.remove(i);
                return;
            }
            state.jobs[i].waiting = true;
            state = self
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Consumes each part with `f` on the current pool and returns the per-part
/// results in part order.
pub(crate) fn run_parts<I, R, F>(parts: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    with_pool(|pool| {
        let n = parts.len();
        if n <= 1 || pool.threads <= 1 {
            return parts.into_iter().map(f).collect();
        }
        let job = Parts {
            slots: parts
                .into_iter()
                .map(|p| Mutex::new(Slot::Todo(p)))
                .collect(),
            next: AtomicUsize::new(0),
            f: &f,
        };
        pool.fork(&job, n - 1, || job.help());
        job.slots
            .into_iter()
            .map(|s| match s.into_inner() {
                Ok(Slot::Done(r)) => r,
                _ => unreachable!("fork returns only after every part ran"),
            })
            .collect()
    })
}

/// One part of a [`Parts`] job.
enum Slot<I, R> {
    Todo(I),
    Claimed,
    Done(R),
}

/// The job of a parallel terminal: parts claimed in index order.
struct Parts<'f, I, R, F> {
    slots: Vec<Mutex<Slot<I, R>>>,
    /// The next unclaimed part.
    next: AtomicUsize,
    f: &'f F,
}

impl<I, R, F> Parts<'_, I, R, F> {
    fn slot(&self, i: usize) -> MutexGuard<'_, Slot<I, R>> {
        // A slot is only ever assigned whole, so it is valid even if a
        // panic poisoned its lock.
        self.slots[i].lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<I: Send, R: Send, F: Fn(I) -> R + Sync> Job for Parts<'_, I, R, F> {
    fn help(&self) {
        loop {
            // Relaxed: the counter only hands out indices; a part's data is
            // published through its slot's lock.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.slots.len() {
                return;
            }
            let Slot::Todo(part) = std::mem::replace(&mut *self.slot(i), Slot::Claimed) else {
                unreachable!("the counter hands out each part once");
            };
            let r = (self.f)(part);
            *self.slot(i) = Slot::Done(r);
        }
    }
}

/// The job of a [`join`]: its second closure, for whichever thread comes
/// first.
struct Forked<B, RB> {
    b: Mutex<Option<B>>,
    rb: Mutex<Option<RB>>,
}

impl<B: FnOnce() -> RB + Send, RB: Send> Job for Forked<B, RB> {
    fn help(&self) {
        let b = self.b.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(b) = b {
            let rb = b();
            *self.rb.lock().unwrap_or_else(PoisonError::into_inner) = Some(rb);
        }
    }
}

/// Runs `a` and `b`, potentially in parallel, and returns both results.
///
/// `a` runs on the calling thread; `b` on an idle worker of the current pool
/// if one takes it first, otherwise on the calling thread after `a`. If
/// either panics, the panic is re-raised once both are done, `a`'s first.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    with_pool(|pool| {
        if pool.threads <= 1 {
            return (a(), b());
        }
        let job = Forked {
            b: Mutex::new(Some(b)),
            rb: Mutex::new(None),
        };
        let ra = pool.fork(&job, 1, a);
        let rb = job.rb.into_inner().unwrap_or_else(PoisonError::into_inner);
        (ra, rb.expect("fork returns only after `b` ran"))
    })
}

// ---------------------------------------------------------------------------
// Built pools
// ---------------------------------------------------------------------------

/// Error building a thread pool: a worker thread could not be spawned.
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

    /// Builds the pool, starting its `num_threads - 1` workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => default_threads(),
            n => n,
        };
        let (pool, workers) = Pool::start(threads).map_err(|_| ThreadPoolBuildError)?;
        Ok(ThreadPool { pool, workers })
    }
}

/// A pool of `num_threads - 1` persistent workers. Parallel calls made
/// inside [`ThreadPool::install`] run on the calling thread and these
/// workers, and so do the parallel calls made by parts running on them.
/// Dropping the pool stops and joins its workers.
pub struct ThreadPool {
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.pool.threads)
            .finish()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.pool.stop(std::mem::take(&mut self.workers));
    }
}

/// Restores the caller's pool when `install` unwinds or returns.
struct Restore(Option<Arc<Pool>>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

impl ThreadPool {
    /// Runs `op` on the calling thread with this pool pinned: every parallel
    /// operation it performs runs on this pool, with its thread count as the
    /// parallelism budget.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let prev = CURRENT.with(|c| c.replace(Some(Arc::clone(&self.pool))));
        let _restore = Restore(prev);
        op()
    }

    /// This pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.pool.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::collections::HashSet;

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
    }

    #[test]
    #[should_panic(expected = "item 3000 failed")]
    fn a_terminal_reraises_the_original_payload() {
        pool(2).install(|| {
            (0..10_000u32).into_par_iter().for_each(|x| {
                if x == 3_000 {
                    panic!("item {x} failed");
                }
            })
        });
    }

    #[test]
    #[should_panic(expected = "right side failed")]
    fn join_reraises_the_original_payload() {
        pool(2).install(|| join(|| 1, || -> u32 { panic!("right side failed") }));
    }

    #[test]
    fn a_pool_serves_later_calls_after_a_panic() {
        let pool = pool(2);
        for _ in 0..3 {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| {
                    (0..10_000u64)
                        .into_par_iter()
                        .map(|x| if x == 9_999 { panic!("last item") } else { x })
                        .sum::<u64>()
                })
            }));
            assert!(caught.is_err());
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| join(|| -> u32 { panic!("left side") }, || 2))
            }));
            assert!(caught.is_err());
        }
        let sum: u64 = pool.install(|| (0..10_000u64).into_par_iter().sum());
        assert_eq!(sum, 10_000 * 9_999 / 2);
        assert_eq!(pool.install(|| join(|| 1, || 2)), (1, 2));
    }

    #[test]
    fn terminals_reuse_the_pools_threads() {
        let seen: Mutex<HashSet<thread::ThreadId>> = Mutex::new(HashSet::new());
        pool(2).install(|| {
            for _ in 0..1_000 {
                let ids: Vec<thread::ThreadId> = (0..1_024u32)
                    .into_par_iter()
                    .map(|_| thread::current().id())
                    .collect();
                seen.lock().unwrap().extend(ids);
            }
        });
        let seen = seen.into_inner().unwrap().len();
        assert!(seen <= 2, "1,000 terminals ran on {seen} threads");
    }

    #[test]
    fn nested_calls_complete_with_identical_results() {
        let run = |threads: usize| -> Vec<u64> {
            pool(threads).install(|| {
                (0..1_024u64)
                    .into_par_iter()
                    .map(|i| {
                        assert_eq!(current_num_threads(), threads);
                        let inner: u64 = (0..i % 600).into_par_iter().map(|j| j * i).sum();
                        let (a, b) = join(
                            || (0..300u64).into_par_iter().map(|j| j ^ i).sum::<u64>(),
                            || join(|| i * 2, || i + 1),
                        );
                        inner + a + b.0 + b.1
                    })
                    .collect()
            })
        };
        let expected: Vec<u64> = (0..1_024u64)
            .map(|i| {
                let inner: u64 = (0..i % 600).map(|j| j * i).sum();
                let a: u64 = (0..300u64).map(|j| j ^ i).sum();
                inner + a + i * 2 + i + 1
            })
            .collect();
        for threads in [2, 3, 7] {
            assert_eq!(run(threads), expected, "threads={threads}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropping_a_pool_stops_its_workers() {
        let threads = || {
            std::fs::read_dir("/proc/self/task")
                .expect("/proc/self/task")
                .count()
        };
        let before = threads();
        for _ in 0..200 {
            let pool = pool(2);
            assert_eq!(pool.install(|| join(|| 1, || 2)), (1, 2));
        }
        let after = threads();
        // Other tests start and stop pools meanwhile; a leak would add 200.
        assert!(
            after < before + 50,
            "{before} threads before building and dropping 200 pools, {after} after"
        );
    }
}
