//! Shared long-lived worker pool for batched cryptographic operations.
//!
//! The paper's `-PP` variants parallelize threshold decryption across
//! ciphertexts (§8.3, 6 cores). PR-2 did this with an ad-hoc
//! spawn-per-batch `parallel_map` in `pivot-core`; every batch paid thread
//! creation and teardown, and nothing but partial decryption could use it.
//! This crate replaces that with one process-wide pool of long-lived
//! workers shared by every party thread and every batched operation
//! (nonce powers, `encrypt_batch`, `mul_plain_batch`, partial decryption,
//! combination).
//!
//! The pool has one FIFO queue and one entry point, [`WorkerPool::map`]:
//! every job is a chunk of a batch some caller is blocked on, so there is
//! no background work to rank below it.
//!
//! Determinism contract: [`WorkerPool::map`] is *order-preserving* — the
//! output vector is indexed exactly like the input regardless of which
//! worker ran which chunk — so a parallel run produces bit-identical
//! results to the serial run whenever the per-item closure is a pure
//! function of its input.

pub mod idle;

use crossbeam::channel::unbounded;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on pool size: protects against pathological
/// `crypto_threads` values; real configurations sit far below it.
pub const MAX_WORKERS: usize = 64;

/// A boxed unit of work. Jobs are `'static`: [`WorkerPool::map`] erases
/// borrow lifetimes internally and blocks until every chunk reports
/// completion, which is what makes the erasure sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    /// Batch chunks, in submission order.
    jobs: VecDeque<Job>,
    /// Set when the owning pool is dropped; parked workers exit.
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

/// A pool of long-lived worker threads fed from one shared FIFO queue.
///
/// Workers are spawned lazily up to the largest parallelism any caller has
/// requested (capped at [`MAX_WORKERS`]), then live for the life of the
/// pool — batches never pay spawn/teardown again.
pub struct WorkerPool {
    shared: Arc<Shared>,
    spawned: Mutex<usize>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut q = self.shared.queue.lock().expect("pool lock poisoned");
        q.closed = true;
        drop(q);
        self.shared.available.notify_all();
    }
}

impl WorkerPool {
    /// Create an empty pool; workers spawn on first demand.
    pub fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue::default()),
                available: Condvar::new(),
            }),
            spawned: Mutex::new(0),
        }
    }

    /// Number of workers currently alive.
    pub fn workers(&self) -> usize {
        *self.spawned.lock().expect("pool lock poisoned")
    }

    /// Make sure at least `n` workers exist (capped at [`MAX_WORKERS`]).
    fn ensure_workers(&self, n: usize) {
        let n = n.min(MAX_WORKERS);
        let mut spawned = self.spawned.lock().expect("pool lock poisoned");
        while *spawned < n {
            let shared = Arc::clone(&self.shared);
            let id = *spawned;
            std::thread::Builder::new()
                .name(format!("pivot-crypto-{id}"))
                .spawn(move || loop {
                    let job = {
                        let mut q = shared.queue.lock().expect("pool lock poisoned");
                        loop {
                            if let Some(job) = q.jobs.pop_front() {
                                break Some(job);
                            }
                            if q.closed {
                                break None;
                            }
                            q = shared.available.wait(q).expect("pool lock poisoned");
                        }
                    };
                    match job {
                        // Jobs contain their own panic handling; this
                        // catch is a backstop so a worker never dies.
                        Some(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                        None => break,
                    }
                })
                .expect("spawn crypto worker");
            *spawned += 1;
        }
    }

    fn submit(&self, job: Job) {
        let mut q = self.shared.queue.lock().expect("pool lock poisoned");
        q.jobs.push_back(job);
        let depth = q.jobs.len();
        drop(q);
        // Occupancy tick for the trace timeline (no-op unless a trace
        // collector is live somewhere in the process).
        if pivot_trace::enabled() {
            pivot_trace::runtime_gauge("worker_queue_depth", depth as f64);
        }
        self.shared.available.notify_one();
    }

    /// Order-preserving parallel map: apply `f` to every item using at
    /// most `threads` workers, returning outputs in input order.
    ///
    /// Falls back to a plain serial loop when `threads <= 1` or the batch
    /// is trivially small, so callers can pass their configured thread
    /// count unconditionally. Panics in `f` are forwarded to the caller
    /// after all chunks have finished (no worker is left running borrowed
    /// data).
    pub fn map<T, U, F>(&self, threads: usize, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let threads = threads.max(1).min(items.len());
        if threads <= 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        self.ensure_workers(threads);

        let chunk = items.len().div_ceil(threads);
        let n_chunks = items.len().div_ceil(chunk);
        let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
        let (done_tx, done_rx) = unbounded::<(usize, Option<Box<dyn Any + Send>>)>();

        {
            // One writer per chunk: disjoint &mut [Option<U>] slices.
            let slots = out.chunks_mut(chunk);
            for ((ci, slice), slot) in items.chunks(chunk).enumerate().zip(slots) {
                let f = &f;
                let done = done_tx.clone();
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        for (dst, item) in slot.iter_mut().zip(slice) {
                            *dst = Some(f(item));
                        }
                    }));
                    let _ = done.send((ci, result.err()));
                });
                // SAFETY: the job borrows `items`, `f`, and a disjoint
                // chunk of `out`. We block below until every chunk has
                // reported on `done_rx`, so no borrow outlives this call;
                // panics inside `f` are caught and reported, never
                // unwinding a worker past the borrowed data.
                let job: Job = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + '_>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(job)
                };
                self.submit(job);
            }
        }

        let mut panic: Option<Box<dyn Any + Send>> = None;
        for _ in 0..n_chunks {
            let (_ci, err) = done_rx.recv().expect("worker pool disconnected");
            if let Some(p) = err {
                panic = Some(p);
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out.into_iter()
            .map(|v| v.expect("every chunk filled its slots"))
            .collect()
    }
}

/// The process-wide shared pool. All parties of an in-process run and all
/// batched operations draw from this single set of workers.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let pool = WorkerPool::new();
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.map(4, &items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_for_any_thread_count() {
        let pool = WorkerPool::new();
        let items: Vec<u64> = (0..97).collect(); // non-divisible length
        let serial = pool.map(1, &items, |&x| x * x + 1);
        for threads in [2, 3, 5, 8, 97, 200] {
            assert_eq!(pool.map(threads, &items, |&x| x * x + 1), serial);
        }
    }

    #[test]
    fn map_borrows_caller_state() {
        let pool = WorkerPool::new();
        let offset = 100u64;
        let items: Vec<u64> = (0..50).collect();
        let out = pool.map(3, &items, |&x| x + offset);
        assert_eq!(out[49], 149);
    }

    #[test]
    fn empty_and_single_item_batches() {
        let pool = WorkerPool::new();
        let empty: Vec<u64> = Vec::new();
        assert!(pool.map(8, &empty, |&x| x).is_empty());
        assert_eq!(pool.map(8, &[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn workers_are_reused_across_batches() {
        let pool = WorkerPool::new();
        let items: Vec<u64> = (0..64).collect();
        for _ in 0..10 {
            pool.map(4, &items, |&x| x + 1);
        }
        assert!(pool.workers() <= 4, "spawned {} workers", pool.workers());
    }

    #[test]
    fn panic_in_map_propagates_after_batch_completes() {
        let pool = WorkerPool::new();
        let items: Vec<u64> = (0..40).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(4, &items, |&x| {
                if x == 17 {
                    panic!("boom at 17");
                }
                x
            })
        }));
        assert!(result.is_err());
        // Pool stays usable after a panicked batch.
        assert_eq!(pool.map(4, &items[..4], |&x| x), vec![0, 1, 2, 3]);
    }

    #[test]
    fn worker_count_is_capped() {
        let pool = WorkerPool::new();
        let items: Vec<u64> = (0..200).collect();
        pool.map(10_000, &items, |&x| x);
        assert!(pool.workers() <= MAX_WORKERS);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
    }
}
