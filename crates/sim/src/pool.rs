//! Persistent epoch-barrier worker pool.
//!
//! The engine's three parallel phases (compute, send-staging, delivery
//! placement) used to each open a fresh [`std::thread::scope`] every
//! round — spawn lead + join tail per phase per round, which the trace
//! plane measured at 26–35% of flood wall time at 2–8 workers
//! (`docs/BENCH_HISTORY.md`). This module replaces that with a pool
//! spawned **once per [`Engine::run`](crate::Engine::run)**: workers
//! park on a condvar and each phase is published to them as an *epoch*
//! — a monotone counter plus a job pointer. Dispatch is two uncontended
//! lock acquisitions and one `notify_all` per phase instead of N thread
//! spawns, so the per-phase synchronization cost becomes an epoch
//! *wait*, not a spawn/join.
//!
//! # Execution model
//!
//! [`WorkerPool::new(workers)`](WorkerPool::new) spawns `workers` OS
//! threads. [`WorkerPool::run(job)`](WorkerPool::run) publishes `job`
//! (a `Fn(usize) + Sync` borrowed for the duration of the call), bumps
//! the epoch, and wakes every worker; worker `i` invokes `job(i + 1)`
//! while the calling thread runs `job(0)` inline — the caller is chunk
//! 0's worker, so a pool driving `c` chunks needs only `c - 1` threads.
//! `run` returns after **all** chunks finish; the job borrow never
//! escapes the call.
//!
//! # Panic contract
//!
//! A panic in any chunk (caller's or worker's) is caught, the barrier
//! still completes — every other chunk runs to its end, `run` waits for
//! all of them — and the first captured payload is re-raised from `run`
//! on the calling thread. Workers never die to a job panic, so the pool
//! stays usable and `Drop` (which joins all workers) cannot hang. This
//! is what lets an engine panic inside a pooled phase unwind cleanly
//! through `Engine::run` into the runner's `catch_unwind`, becoming a
//! `CellFailed` event instead of a deadlocked barrier or leaked thread.
//!
//! # Counters
//!
//! The pool counts worker **wakeups** (a worker observed a new epoch
//! and ran its chunk) and **idle ticks** (a worker's condvar wait
//! returned without a new epoch — spurious wakeups). Both feed the
//! trace plane's per-round samples; they are *observability* values and
//! are deliberately excluded from trace structure equality and hashing,
//! which must stay bit-identical across thread counts.
//!
//! # Why `unsafe`, and why it is sound
//!
//! Workers are `'static` threads but jobs borrow from the caller's
//! stack, so the job reference's lifetime is erased before being placed
//! in the shared slot (`JobPtr`). Soundness rests on the barrier
//! protocol, not on types:
//!
//! * the pointer is published under the mutex *before* workers are
//!   woken, and workers read it under the same mutex — no data race on
//!   the slot;
//! * `run` does not return (and therefore the borrow it erased does not
//!   end) until `remaining == 0`, i.e. until every worker has finished
//!   invoking the job and will not touch the pointer again — even when
//!   a chunk panicked, `run` waits for the full barrier *before*
//!   resuming the unwind;
//! * workers only invoke the pointer between observing a fresh epoch
//!   and decrementing `remaining`; outside that window they treat the
//!   slot as opaque.
//!
//! All `unsafe` in the crate lives in this module; the engine itself
//! stays safe code (chunk work is handed over via owned per-chunk work
//! items, see `engine.rs`).

#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A lifetime-erased pointer to the current epoch's job.
///
/// Constructed only inside [`WorkerPool::run`], which guarantees the
/// pointee outlives every dereference (see module docs).
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared invocation from many threads is
// the whole point) and the barrier protocol bounds its lifetime; the
// raw pointer itself is plain data.
unsafe impl Send for JobPtr {}

/// Pool state guarded by the single mutex.
struct State {
    /// Monotone epoch counter; bumped once per published job.
    epoch: u64,
    /// The current epoch's job; `Some` exactly while an epoch is live.
    job: Option<JobPtr>,
    /// Workers that have not yet finished the current epoch's job.
    remaining: usize,
    /// Set by `Drop`; workers exit their loop when they observe it.
    shutdown: bool,
    /// First panic payload captured from a worker chunk this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Total worker wakeups that found a new epoch to run.
    wakeups: u64,
    /// Total condvar waits that returned without a new epoch.
    idle: u64,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a new epoch is published (or on shutdown).
    go: Condvar,
    /// Signalled when the last worker of an epoch finishes.
    done: Condvar,
}

/// A pool of persistent worker threads driven by epoch barriers.
///
/// See the module docs for the execution model and panic contract.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` persistent threads. The pool drives
    /// `workers + 1` chunks per [`run`](Self::run): worker `i` runs
    /// chunk `i + 1`, the caller runs chunk 0 inline.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
                panic: None,
                wakeups: 0,
                idle: 0,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kw-sim-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i + 1))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads (excluding the caller).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs one epoch: every chunk index in `0..=workers()` gets one
    /// `job(index)` invocation, chunk 0 on the calling thread. Returns
    /// once all chunks have finished; re-raises the first chunk panic.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            job(0);
            return;
        }
        // SAFETY: erasing the borrow's lifetime; `run` does not return
        // until every worker has finished with the pointer (the
        // `remaining == 0` wait below), so the pointee outlives all
        // dereferences. See module docs.
        let erased = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job as *const _)
        });
        {
            let mut state = self.shared.state.lock().expect("pool mutex");
            debug_assert!(state.remaining == 0 && state.job.is_none());
            state.job = Some(erased);
            state.remaining = self.handles.len();
            state.epoch += 1;
            self.shared.go.notify_all();
        }
        // The caller is chunk 0's worker. Defer its panic: the barrier
        // must complete before the job borrow may end.
        let mine = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_panic = {
            let mut state = self.shared.state.lock().expect("pool mutex");
            while state.remaining > 0 {
                state = self.shared.done.wait(state).expect("pool mutex");
            }
            state.job = None;
            state.panic.take()
        };
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Cumulative `(wakeups, idle ticks)` across the pool's lifetime.
    pub fn counters(&self) -> (u64, u64) {
        let state = self.shared.state.lock().expect("pool mutex");
        (state.wakeups, state.idle)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex");
            state.shutdown = true;
            self.shared.go.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker only exits via shutdown; it cannot be panicked
            // by a job (payloads are captured), so join cannot fail
            // except on external thread kill — ignore rather than
            // double-panic in Drop.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool mutex");
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    state.wakeups += 1;
                    break state.job.expect("job published with epoch");
                }
                state = shared.go.wait(state).expect("pool mutex");
                if !state.shutdown && state.epoch == seen_epoch {
                    state.idle += 1;
                }
            }
        };
        // SAFETY: between the epoch observation above and the
        // `remaining` decrement below, `run` guarantees the pointee is
        // alive (it waits for the barrier before returning).
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));
        let mut state = shared.state.lock().expect("pool mutex");
        if let Err(payload) = result {
            if state.panic.is_none() {
                state.panic = Some(payload);
            }
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_chunk_runs_exactly_once_per_epoch() {
        let pool = WorkerPool::new(3);
        let counts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "chunk {i}");
        }
    }

    #[test]
    fn epochs_reuse_workers_without_stale_state() {
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(&|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 300);
        let (wakeups, _) = pool.counters();
        assert_eq!(wakeups, 200, "2 workers x 100 epochs");
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let hits = AtomicUsize::new(0);
        pool.run(&|i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|i| {
                if i == 2 {
                    panic!("chunk 2 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload");
        assert_eq!(msg, "chunk 2 exploded");
        // The barrier completed and workers survived: the pool is
        // immediately reusable for a clean epoch.
        let ok = AtomicUsize::new(0);
        pool.run(&|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn caller_chunk_panic_still_completes_the_barrier() {
        let pool = WorkerPool::new(2);
        let others = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|i| {
                if i == 0 {
                    panic!("driver chunk exploded");
                }
                others.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        assert_eq!(
            others.load(Ordering::SeqCst),
            2,
            "workers ran to completion"
        );
        pool.run(&|_| {});
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(4);
        pool.run(&|_| {});
        drop(pool); // must not hang or leak; join happens here
    }

    #[test]
    fn counters_track_wakeups() {
        let pool = WorkerPool::new(2);
        let (w0, _) = pool.counters();
        assert_eq!(w0, 0);
        pool.run(&|_| {});
        pool.run(&|_| {});
        let (w1, _) = pool.counters();
        assert_eq!(w1, 4);
    }
}
