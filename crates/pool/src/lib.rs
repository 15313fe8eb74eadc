//! copse-pool — the shared worker-pool runtime.
//!
//! Every data-parallel loop in this workspace — per-prime residue rows
//! inside the BGV kernels, diagonals inside a Halevi–Shoup MatMul,
//! queries inside a server batch — used to either run serially or
//! spawn fresh scoped threads per call. This crate replaces both with
//! one **persistent, process-wide pool** of plain `std` threads (the
//! offline shim policy rules out rayon) and a scoped fork-join API on
//! top of it:
//!
//! * [`WorkerPool::scope_chunks`] — split `0..n` into at most `chunks`
//!   contiguous ranges and run a shared worker over them;
//! * [`WorkerPool::scope_indices`] — per-index map with the results
//!   flattened back into index order;
//! * [`WorkerPool::scope_chunks_mut`] — like `scope_chunks`, but each
//!   task additionally receives the matching disjoint sub-slice of a
//!   mutable buffer (in-place kernels such as pointwise
//!   multiply-accumulate).
//!
//! One observability hook rides on the same machinery:
//! [`set_task_context`] / [`with_task_context`] propagate an opaque
//! per-task context from a scoping thread to every task its scope
//! forks — transitively through nested scopes — which the meter layer
//! uses to attribute FHE ops back to the evaluation pass that forked
//! them. The pool keeps no tallies of its own: concurrent passes share
//! its workers, so a process-wide count would mix their work.
//!
//! ## Determinism contract
//!
//! Parallel execution must be **bitwise identical** to sequential
//! execution — `Parallelism::sequential()` stays the differential
//! oracle for every kernel built on this pool. The pool guarantees its
//! half of that contract structurally:
//!
//! * results are collected **in task order**, never in completion
//!   order — task `i` writes slot `i`, so the returned `Vec` is
//!   independent of scheduling;
//! * tasks receive **contiguous, disjoint** index ranges produced by
//!   [`chunk_ranges`], the same split for the same `(n, chunks)` pair
//!   on every call;
//! * the pool never reorders, duplicates, or drops a task.
//!
//! Callers owe the other half: chunked *reductions* must combine
//! partial results in chunk order (or use operations that are exactly
//! associative and commutative, as modular arithmetic is — floating
//! point is not).
//!
//! ## Panics, nesting, and the caller's role
//!
//! The scoping thread is itself a worker: it runs the first task
//! inline and then **helps** — executing queued tasks (from any scope)
//! until its own scope completes. That makes nested scopes
//! deadlock-free: a worker blocked on an inner scope drains the queue
//! instead of sleeping. A panicking task does not poison the pool; the
//! first panic payload is captured and re-thrown on the scoping thread
//! after every task of the scope has finished, matching
//! `std::thread::scope` semantics.
//!
//! [`in_worker`] reports whether the current thread is already
//! executing a pool task; kernel layers use it to fork only at the
//! outermost level (an inner μs-scale row loop gains nothing from
//! forking when the outer stage already saturates the pool).
//!
//! The process-wide handle is [`global`], sized to
//! `available_parallelism` and spawned lazily on first parallel scope
//! — fully sequential programs never start a thread.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A lifetime-erased unit of queued work.
type Job = Box<dyn FnOnce() + Send>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// FIFO of pending jobs; guarded by one mutex so completion
    /// accounting (see [`ScopeState`]) can piggyback on it without a
    /// second lock ordering.
    queue: Mutex<VecDeque<Job>>,
    /// Notified on every push, every task completion, and shutdown.
    signal: Condvar,
    shutdown: AtomicBool,
}

/// Per-scope completion accounting.
struct ScopeState {
    /// Tasks not yet finished. The final decrement happens while the
    /// shared queue mutex is held, so a waiter that observed a nonzero
    /// count under the same lock cannot miss the wakeup.
    remaining: AtomicUsize,
    /// First panic payload from any task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

thread_local! {
    /// Whether this thread is currently executing a pool task.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// `true` while the current thread is executing a task submitted to a
/// [`WorkerPool`] (on a pool worker *or* on a scoping thread helping
/// its own scope). Kernel layers consult this to fork only at the
/// outermost level.
pub fn in_worker() -> bool {
    IN_POOL_JOB.with(Cell::get)
}

/// Marks the current thread as inside a pool task for the duration of
/// `f`, restoring the previous state afterwards (nesting-safe).
fn run_as_pool_job(f: impl FnOnce()) {
    let prev = IN_POOL_JOB.with(|c| c.replace(true));
    f();
    IN_POOL_JOB.with(|c| c.set(prev));
}

/// An opaque per-task context value, propagated from a scoping thread
/// to every task its scope forks (see [`set_task_context`]).
pub type TaskContext = Arc<dyn Any + Send + Sync>;

thread_local! {
    /// The context the current thread's work is attributed to.
    static TASK_CONTEXT: RefCell<Option<TaskContext>> = const { RefCell::new(None) };
}

/// Installs `context` as the current thread's task context until the
/// returned guard drops (the previous context is then restored, so
/// installs nest). Every `scope_*` call forked while the guard is live
/// carries the context to its tasks — transitively, across worker
/// threads and nested scopes — where [`with_task_context`] can read
/// it. The meter layer uses this to attribute FHE ops recorded on pool
/// workers back to the evaluation pass that forked them.
pub fn set_task_context(context: TaskContext) -> TaskContextGuard {
    TaskContextGuard {
        prev: TASK_CONTEXT.with(|c| c.replace(Some(context))),
    }
}

/// Calls `f` with the current thread's task context, if any. The
/// context is passed by reference — no `Arc` clone per call, cheap
/// enough for per-operation hot paths.
pub fn with_task_context<R>(f: impl FnOnce(Option<&TaskContext>) -> R) -> R {
    TASK_CONTEXT.with(|c| f(c.borrow().as_ref()))
}

/// Guard returned by [`set_task_context`]; restores the previously
/// installed context when dropped.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct TaskContextGuard {
    prev: Option<TaskContext>,
}

impl std::fmt::Debug for TaskContextGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskContextGuard").finish_non_exhaustive()
    }
}

impl Drop for TaskContextGuard {
    fn drop(&mut self) {
        TASK_CONTEXT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// A persistent pool of worker threads with scoped fork-join.
///
/// `WorkerPool::new(t)` spawns `t - 1` OS threads; the thread calling
/// a `scope_*` method participates as the `t`-th worker. `t = 1` is a
/// valid degenerate pool that runs everything inline on the caller.
///
/// ```
/// let pool = copse_pool::WorkerPool::new(4);
/// // Results come back in index order regardless of scheduling.
/// let squares = pool.scope_indices(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// // Most callers share the process-wide pool instead:
/// let sums = copse_pool::global().scope_chunks(10, 3, |r| r.sum::<usize>());
/// assert_eq!(sums.iter().sum::<usize>(), 45);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// Splits `0..n` into at most `chunks` contiguous ranges of nearly
/// equal size (empty ranges are omitted). The split is a pure function
/// of `(n, chunks)` — part of the determinism contract.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(n.max(1));
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

impl WorkerPool {
    /// Creates a pool with `threads` total workers (the scoping caller
    /// counts as one, so `threads - 1` OS threads are spawned).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("copse-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Total workers, including the scoping caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `worker` over the [`chunk_ranges`] split of `0..n` using
    /// at most `chunks` tasks, returning per-chunk results **in chunk
    /// order**. With one chunk (or a one-thread pool) everything runs
    /// inline on the caller.
    ///
    /// # Panics
    ///
    /// Re-throws the first panic raised by any task, after all tasks
    /// of the scope have finished.
    pub fn scope_chunks<R, F>(&self, n: usize, chunks: usize, worker: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let ranges = chunk_ranges(n, chunks);
        if ranges.len() <= 1 || self.workers.is_empty() {
            return ranges.into_iter().map(worker).collect();
        }
        let worker = &worker;
        self.scope(
            ranges
                .into_iter()
                .map(|range| Box::new(move || worker(range)) as Box<dyn FnOnce() -> R + Send + '_>)
                .collect(),
        )
    }

    /// Runs `f(i)` for every `i in 0..n` in at most `chunks` parallel
    /// tasks, returning results in index order.
    ///
    /// # Panics
    ///
    /// Propagates task panics like [`WorkerPool::scope_chunks`].
    pub fn scope_indices<R, F>(&self, n: usize, chunks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut per_chunk = self.scope_chunks(n, chunks, |range| range.map(&f).collect::<Vec<R>>());
        let mut out = Vec::with_capacity(n);
        for chunk in &mut per_chunk {
            out.append(chunk);
        }
        out
    }

    /// Like [`WorkerPool::scope_chunks`] over `0..data.len()`, but each
    /// task additionally receives the sub-slice of `data` matching its
    /// range — the disjoint split makes in-place parallel mutation
    /// safe without interior mutability.
    ///
    /// # Panics
    ///
    /// Propagates task panics like [`WorkerPool::scope_chunks`].
    pub fn scope_chunks_mut<T, R, F>(&self, data: &mut [T], chunks: usize, worker: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(Range<usize>, &mut [T]) -> R + Sync,
    {
        let ranges = chunk_ranges(data.len(), chunks);
        if ranges.len() <= 1 || self.workers.is_empty() {
            return ranges
                .into_iter()
                .map(|r| worker(r.clone(), &mut data[r]))
                .collect();
        }
        let worker = &worker;
        let mut tasks: Vec<Box<dyn FnOnce() -> R + Send + '_>> = Vec::with_capacity(ranges.len());
        let mut rest = data;
        for range in ranges {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            rest = tail;
            tasks.push(Box::new(move || worker(range, head)));
        }
        self.scope(tasks)
    }

    /// Fork-join core: runs every task (task 0 inline on the caller,
    /// the rest queued), helps the pool until all of them finished,
    /// and returns their results in task order.
    fn scope<'env, R: Send>(&self, tasks: Vec<Box<dyn FnOnce() -> R + Send + 'env>>) -> Vec<R> {
        let n = tasks.len();
        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        if n == 0 {
            return Vec::new();
        }
        if n == 1 || self.workers.is_empty() {
            for (slot, task) in results.iter_mut().zip(tasks) {
                *slot = Some(task());
            }
            return results.into_iter().map(|r| r.expect("task ran")).collect();
        }

        let state = ScopeState {
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
        };
        // The scoping thread's task context rides along to every task
        // of the scope, wherever it executes (worker thread, helping
        // scoper, or inline) — nested scopes re-capture and so forward
        // it transitively.
        let context = TASK_CONTEXT.with(|c| c.borrow().clone());
        // Each task writes exactly its own slot; the address is passed
        // as a raw pointer because the tasks are lifetime-erased below.
        let slots = SendPtr(results.as_mut_ptr());
        {
            let shared = &*self.shared;
            let state = &state;
            let context = &context;
            let mut jobs: Vec<Job> = Vec::with_capacity(n);
            for (i, task) in tasks.into_iter().enumerate() {
                let wrapper = move || {
                    let _ctx = context.clone().map(set_task_context);
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    match outcome {
                        // SAFETY: slot `i` belongs to this task alone,
                        // and `scope` keeps `results` alive (and does
                        // not read it) until `remaining` hits zero.
                        Ok(value) => unsafe { *slots.get().add(i) = Some(value) },
                        Err(payload) => {
                            let mut first = state.panic.lock().expect("panic slot");
                            first.get_or_insert(payload);
                        }
                    }
                    // The final decrement is made visible under the
                    // queue mutex so a waiter that just observed a
                    // nonzero count cannot sleep through the last
                    // completion.
                    let _guard = shared.queue.lock().expect("pool queue");
                    state.remaining.fetch_sub(1, Ordering::AcqRel);
                    shared.signal.notify_all();
                };
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(wrapper);
                // SAFETY: the job only borrows `state`, `results`, and
                // the caller's task captures, all of which outlive it:
                // `scope` blocks until `remaining == 0`, i.e. until
                // every job (queued or stolen) has run to completion,
                // and the pool cannot shut down mid-scope because
                // `scope` holds `&self`.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                jobs.push(job);
            }
            let first = jobs.remove(0);
            {
                let mut queue = shared.queue.lock().expect("pool queue");
                queue.extend(jobs);
                shared.signal.notify_all();
            }
            // The caller is a worker too: run the first task inline,
            // then help until the scope drains.
            run_as_pool_job(first);
            self.help_until(state);
        }
        if let Some(payload) = state.panic.lock().expect("panic slot").take() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| r.expect("scope completed every task"))
            .collect()
    }

    /// Executes queued jobs (from any scope) until `state`'s scope has
    /// no tasks left, sleeping only when the queue is empty.
    fn help_until(&self, state: &ScopeState) {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().expect("pool queue");
        loop {
            if state.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            if let Some(job) = queue.pop_front() {
                drop(queue);
                run_as_pool_job(job);
                queue = shared.queue.lock().expect("pool queue");
            } else {
                queue = shared.signal.wait(queue).expect("pool queue");
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let _guard = self.shared.queue.lock().expect("pool queue");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.signal.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Raw-pointer wrapper asserting cross-thread transfer is safe (each
/// task dereferences a distinct, live slot).
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: see `SendPtr` — usage is confined to disjoint slot writes
// synchronised by the scope's completion counter.
unsafe impl<T> Sync for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock().expect("pool queue");
    loop {
        if let Some(job) = queue.pop_front() {
            drop(queue);
            run_as_pool_job(job);
            queue = shared.queue.lock().expect("pool queue");
        } else if shared.shutdown.load(Ordering::Acquire) {
            return;
        } else {
            queue = shared.signal.wait(queue).expect("pool queue");
        }
    }
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// Worker floor for the global pool: callers legitimately request
/// parallel degrees above the core count (determinism-under-
/// concurrency tests, a 4-thread bench on a 2-core runner), and a
/// parked worker costs only its stack. Without the floor, a
/// single-core host would get a zero-worker pool and silently turn
/// every parallel path into the sequential one — including the tests
/// meant to exercise real interleaving.
const GLOBAL_MIN_THREADS: usize = 4;

/// The process-wide shared pool, created lazily on first use and sized
/// to the host's `available_parallelism` (with a small floor, and
/// overridable via the `COPSE_POOL_THREADS` environment variable).
/// Every layer of the workspace (FHE kernels, stage loops, server
/// batch workers) forks into this one pool, so concurrent consumers
/// share the host's cores instead of oversubscribing them.
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(|| {
        let threads = std::env::var("COPSE_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .max(GLOBAL_MIN_THREADS)
            });
        WorkerPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    fn pool(threads: usize) -> WorkerPool {
        WorkerPool::new(threads)
    }

    #[test]
    fn chunks_cover_range_without_overlap() {
        for n in [0usize, 1, 5, 64, 100] {
            for t in [1usize, 2, 7, 32] {
                let ranges = chunk_ranges(n, t);
                let mut covered = vec![false; n];
                for r in &ranges {
                    for i in r.clone() {
                        assert!(!covered[i], "overlap at {i}");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n} t={t}");
                assert!(ranges.len() <= t.max(1));
            }
        }
    }

    #[test]
    fn chunk_sizes_are_balanced() {
        let sizes: Vec<usize> = chunk_ranges(10, 3).iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn results_come_back_in_task_order() {
        let p = pool(4);
        for n in [0usize, 1, 2, 3, 17, 100] {
            let out = p.scope_indices(n, 4, |i| i * i);
            assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>(), "n = {n}");
            let chunked = p.scope_chunks(n, 3, |r| (r.start, r.end));
            let flat: Vec<usize> = chunked.iter().flat_map(|&(s, e)| [s, e]).collect();
            assert!(flat.windows(2).all(|w| w[0] <= w[1]), "ordered chunks");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let p = pool(8);
        let counter = AtomicUsize::new(0);
        let _ = p.scope_chunks(1000, 8, |range| {
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn one_thread_pool_runs_inline() {
        let p = pool(1);
        let caller = std::thread::current().id();
        let ids = p.scope_chunks(64, 8, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        assert!(!in_worker(), "flag restored outside scopes");
    }

    #[test]
    fn two_tasks_really_run_on_two_threads() {
        // A rendezvous only two concurrent threads can pass: if the
        // caller ran both chunks serially the barrier would deadlock
        // (and the test harness would time out) instead of passing.
        let p = pool(2);
        let barrier = Barrier::new(2);
        let ids = p.scope_chunks(2, 2, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1], "distinct threads ran the chunks");
    }

    #[test]
    fn panics_propagate_after_scope_completion() {
        let p = pool(4);
        let completed = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&completed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            p.scope_indices(8, 4, |i| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
                seen.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        let payload = outcome.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("exploded"), "got {message}");
        // Every non-panicking task still ran (scope waits for all).
        assert_eq!(completed.load(Ordering::SeqCst), 7);
        // The pool survives and serves the next scope.
        assert_eq!(p.scope_indices(4, 4, |i| i + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let p = pool(3);
        let out = p.scope_indices(6, 3, |i| {
            assert!(in_worker(), "outer task runs as a pool job");
            let inner: usize = p.scope_indices(5, 3, |j| i * j).into_iter().sum();
            inner
        });
        let want: Vec<usize> = (0..6).map(|i| i * 10).collect(); // 0+1+2+3+4 = 10
        assert_eq!(out, want);
    }

    #[test]
    fn scope_chunks_mut_hands_out_disjoint_subslices() {
        let p = pool(4);
        let mut data: Vec<u64> = (0..100).collect();
        let sums = p.scope_chunks_mut(&mut data, 4, |range, slice| {
            assert_eq!(slice.len(), range.len());
            let mut sum = 0u64;
            for (offset, x) in slice.iter_mut().enumerate() {
                assert_eq!(*x, (range.start + offset) as u64, "aligned sub-slice");
                *x *= 2;
                sum += *x;
            }
            sum
        });
        assert_eq!(data, (0..100).map(|i| i * 2).collect::<Vec<u64>>());
        assert_eq!(sums.iter().sum::<u64>(), (0..100u64).map(|i| i * 2).sum());
    }

    #[test]
    fn in_worker_is_false_on_plain_threads_and_true_in_tasks() {
        assert!(!in_worker());
        let p = pool(2);
        let flags = p.scope_indices(4, 2, |_| in_worker());
        assert!(flags.into_iter().all(|f| f));
        assert!(!in_worker());
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_the_host() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
        assert_eq!(
            global().scope_indices(10, 4, |i| i),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn heavy_contention_stays_correct() {
        let p = pool(4);
        let total = AtomicU64::new(0);
        for round in 0..50u64 {
            let out = p.scope_chunks(64, 4, |range| range.map(|i| i as u64 * round).sum::<u64>());
            total.fetch_add(out.iter().sum::<u64>(), Ordering::Relaxed);
        }
        let per_round: u64 = (0..64u64).sum();
        let want: u64 = (0..50u64).map(|r| per_round * r).sum();
        assert_eq!(total.load(Ordering::Relaxed), want);
    }

    #[test]
    fn task_context_reaches_every_task_transitively() {
        let p = pool(4);
        let tally: TaskContext = Arc::new(AtomicU64::new(0));
        assert!(with_task_context(|c| c.is_none()), "clean slate");
        {
            let _guard = set_task_context(Arc::clone(&tally));
            p.scope_indices(8, 4, |_| {
                // Outer tasks see the scoper's context...
                with_task_context(|c| {
                    let counter = c
                        .expect("context propagated")
                        .downcast_ref::<AtomicU64>()
                        .expect("same payload");
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                // ...and forward it through nested scopes, wherever
                // those tasks land.
                p.scope_indices(3, 3, |_| {
                    with_task_context(|c| {
                        c.expect("nested context")
                            .downcast_ref::<AtomicU64>()
                            .expect("same payload")
                            .fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
        }
        assert!(with_task_context(|c| c.is_none()), "guard restored");
        let counter = Arc::downcast::<AtomicU64>(tally).expect("downcast");
        assert_eq!(counter.load(Ordering::Relaxed), 8 + 8 * 3);
    }

    #[test]
    fn context_guards_nest_and_restore() {
        let a: TaskContext = Arc::new(1u32);
        let b: TaskContext = Arc::new(2u32);
        let read = || with_task_context(|c| c.and_then(|c| c.downcast_ref::<u32>().copied()));
        assert_eq!(read(), None);
        let outer = set_task_context(a);
        assert_eq!(read(), Some(1));
        {
            let _inner = set_task_context(b);
            assert_eq!(read(), Some(2));
        }
        assert_eq!(read(), Some(1), "inner drop restores outer");
        drop(outer);
        assert_eq!(read(), None);
    }

    #[test]
    fn tasks_that_panic_do_not_leak_context() {
        let p = pool(2);
        let ctx: TaskContext = Arc::new(7u32);
        {
            let _guard = set_task_context(ctx);
            let _ = catch_unwind(AssertUnwindSafe(|| {
                p.scope_indices(4, 2, |i| {
                    if i == 1 {
                        panic!("boom");
                    }
                })
            }));
        }
        // Workers that ran a panicking task must have restored their
        // thread-local context (next scope starts clean).
        let leaks = p.scope_indices(4, 2, |_| with_task_context(|c| c.is_some()));
        assert!(leaks.into_iter().all(|leaked| !leaked));
    }

    #[test]
    fn zero_and_tiny_scopes_are_fine() {
        let p = pool(4);
        let empty: Vec<usize> = p.scope_indices(0, 4, |i| i);
        assert!(empty.is_empty());
        assert_eq!(p.scope_indices(1, 4, |i| i + 41), vec![41]);
        let mut nothing: [u8; 0] = [];
        let r: Vec<()> = p.scope_chunks_mut(&mut nothing, 4, |_, _| ());
        assert!(r.is_empty());
    }
}
