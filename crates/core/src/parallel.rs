//! Thread-level parallelism helpers for the stage layer.
//!
//! The paper's runtime inherits multithreading from NTL; here the
//! equivalent is the shared [`copse_pool`] worker-pool runtime.
//! COPSE's stages expose embarrassingly parallel loops (diagonals
//! within a MatMul, bit planes, prefix rounds, queries within a
//! batch); [`map_chunks`] and [`map_indices`] split those index ranges
//! into contiguous chunks and fork them onto the **process-wide
//! persistent pool** ([`copse_pool::global`]) — no per-call thread
//! spawning, and every layer of the system (stage loops here, the
//! per-prime kernels inside `copse-fhe`, the server's batch workers)
//! shares one set of OS threads instead of oversubscribing the host.
//!
//! Determinism: chunk results are collected in chunk order and
//! combined on the caller, so a parallel map is **bitwise identical**
//! to its sequential counterpart — [`Parallelism::sequential`] remains
//! the differential oracle for every kernel built on these helpers.

use std::ops::Range;

pub use copse_pool::chunk_ranges;

/// Threading configuration for the evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of worker threads (1 = fully sequential).
    pub threads: usize,
}

impl Parallelism {
    /// Sequential execution.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// As many threads as the host advertises.
    pub fn max_available() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// `true` when more than one thread is configured.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Below this many items a parallel map runs sequentially. With the
/// persistent pool the old thread-spawn cost is gone, so the threshold
/// only guards degenerate scopes where queue dispatch would exceed the
/// work itself — which is why it is far lower than the spawn-per-call
/// era's 32. (Per-*item* cost still varies wildly: a ClearBackend op
/// is nanoseconds, a BGV rotation is milliseconds; the pool's
/// caller-helps scheduling keeps the overhead of a mispredicted fork
/// to a few queue operations.)
pub const MIN_PARALLEL_ITEMS: usize = 4;

/// Runs `worker` over the chunks of `0..n` on the shared worker pool
/// and returns the per-chunk results in chunk order. With one thread,
/// one chunk, or fewer than [`MIN_PARALLEL_ITEMS`] items, everything
/// runs inline on the caller and the pool is left untouched.
pub fn map_chunks<R, F>(parallelism: Parallelism, n: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let threads = if n < MIN_PARALLEL_ITEMS {
        1
    } else {
        parallelism.threads
    };
    if threads <= 1 {
        return chunk_ranges(n, 1).into_iter().map(worker).collect();
    }
    copse_pool::global().scope_chunks(n, threads, worker)
}

/// Runs `f(i)` for every `i in 0..n`, in parallel chunks, returning
/// results in index order.
pub fn map_indices<R, F>(parallelism: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut chunks = map_chunks(parallelism, n, |range| range.map(&f).collect::<Vec<R>>());
    let mut out = Vec::with_capacity(n);
    for chunk in &mut chunks {
        out.append(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn map_indices_preserves_order() {
        let out = map_indices(Parallelism { threads: 4 }, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_runs_every_item_once() {
        let counter = AtomicUsize::new(0);
        let _ = map_chunks(Parallelism { threads: 8 }, 1000, |range| {
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn sequential_path_runs_on_the_caller_thread() {
        // With one thread the closure runs on the caller's thread.
        let caller = std::thread::current().id();
        let ids = map_chunks(Parallelism::sequential(), 10, |_| {
            std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn tiny_workloads_stay_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let ids = map_chunks(Parallelism { threads: 8 }, MIN_PARALLEL_ITEMS - 1, |_| {
            std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn at_the_threshold_two_pool_threads_really_run() {
        // A rendezvous only two concurrently running threads can pass:
        // were both chunks executed serially on one thread, the
        // barrier would hang rather than report a wrong answer.
        let barrier = Barrier::new(2);
        let ids = map_chunks(Parallelism { threads: 2 }, MIN_PARALLEL_ITEMS, |range| {
            if range.start == 0 || range.end == MIN_PARALLEL_ITEMS {
                barrier.wait();
            }
            std::thread::current().id()
        });
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1], "chunks ran on distinct pool threads");
    }

    #[test]
    fn zero_items_is_fine() {
        let out: Vec<usize> = map_indices(Parallelism { threads: 4 }, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallelism_constructors() {
        assert!(!Parallelism::sequential().is_parallel());
        assert!(Parallelism::max_available().threads >= 1);
    }
}
