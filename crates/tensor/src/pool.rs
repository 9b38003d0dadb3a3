//! A shared, lazily-initialized persistent worker pool for the dense kernels.
//!
//! Every parallel kernel in this crate (GEMM, SYRK, tiled Cholesky, im2col
//! in `spdkfac-nn`) dispatches work through one process-wide pool instead of
//! spawning scoped threads per call. The pool is sized by the
//! `SPDKFAC_THREADS` environment variable (read once, at first use) and
//! defaults to [`std::thread::available_parallelism`]. `SPDKFAC_THREADS=1`
//! disables parallel dispatch entirely — every kernel then runs serially on
//! the calling thread, which is also the fallback whenever the work is too
//! small to amortise a dispatch.
//!
//! # Determinism
//!
//! [`parallel_for`] distributes *task indices*, not data: every kernel built
//! on it assigns each output region to exactly one task and runs the serial
//! loop order inside that task. Which OS thread executes a task is
//! scheduler-dependent, but the floating-point result is bit-identical to
//! the serial execution for any thread count — the trajectory-equivalence
//! guarantees of the trainers do not depend on `SPDKFAC_THREADS`.
//!
//! # Nesting
//!
//! Tasks must never block on the pool (a task waiting for queued sub-tasks
//! while every worker waits likewise would deadlock), so a `parallel_for`
//! issued from inside a pool task runs serially on that task's thread. The
//! pool is safe to use concurrently from many caller threads (the
//! distributed trainers drive it from one thread per rank).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};

/// Number of parallel lanes (caller + persistent workers) the pool uses.
///
/// This is the value of `SPDKFAC_THREADS` if set and valid, otherwise
/// [`std::thread::available_parallelism`] (or 1 when unavailable).
pub fn threads() -> usize {
    global().lanes
}

/// `true` when the pool will actually fan work out (more than one lane).
pub fn is_parallel() -> bool {
    threads() > 1
}

/// Runs `f(0), f(1), …, f(tasks - 1)`, distributing task indices across the
/// persistent pool. The call returns after every task has completed.
///
/// Tasks must write to disjoint data; the kernels in this crate guarantee
/// that by partitioning output rows/blocks by task index. Runs serially on
/// the calling thread when the pool has one lane, when `tasks <= 1`, or when
/// invoked from inside another pool task (see module docs on nesting).
///
/// # Panics
///
/// Propagates a panic from any task (the first observed one aborts the
/// remaining tasks early and `parallel_for` panics on the caller).
pub fn parallel_for<F: Fn(usize) + Sync>(tasks: usize, f: F) {
    global().run(tasks, &f);
}

/// A `*mut f64` window that tasks may write through concurrently, provided
/// they touch disjoint ranges.
///
/// The kernels hand each task a row/block range keyed by its task index, so
/// ranges never overlap. The borrow that created the window outlives the
/// `parallel_for` call because the call joins every task before returning.
pub struct SharedSlice<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [f64]>,
}

unsafe impl Send for SharedSlice<'_> {}
unsafe impl Sync for SharedSlice<'_> {}

impl<'a> SharedSlice<'a> {
    /// Wraps a mutable slice for disjoint multi-task writes.
    pub fn new(data: &'a mut [f64]) -> Self {
        SharedSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Total length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrows `range` as a mutable subslice.
    ///
    /// # Safety
    ///
    /// Callers must guarantee that no two concurrent tasks request
    /// overlapping ranges and that `range` is in bounds.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [f64] {
        debug_assert!(range.end <= self.len, "SharedSlice range out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

thread_local! {
    /// Set while this thread is executing pool work (worker threads always,
    /// caller threads during their participation). Nested `parallel_for`
    /// calls observe it and degrade to serial execution.
    static IN_POOL_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Shared state of one fork-join region, owned by the caller's stack frame.
/// Helpers reach it through a raw pointer; the caller does not return until
/// every helper that received the pointer has signalled completion, so the
/// pointer never dangles.
struct Region {
    /// Erased task body.
    f: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Total number of tasks.
    tasks: usize,
    /// Set when any task panicked; stops further task claims.
    panicked: AtomicBool,
    /// Helpers still holding a reference to this region.
    active_helpers: Mutex<usize>,
    done: Condvar,
}

impl Region {
    /// Claims and runs tasks until the index space is exhausted.
    fn work(&self) {
        let f = unsafe { &*self.f };
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                break;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                break;
            }
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Message handed to a worker: a pointer to the caller's [`Region`].
struct RegionPtr(*const Region);
unsafe impl Send for RegionPtr {}

struct Pool {
    /// Parallel lanes: the calling thread plus `lanes - 1` workers.
    lanes: usize,
    injector: Mutex<mpsc::Sender<RegionPtr>>,
}

impl Pool {
    fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let nested = IN_POOL_TASK.with(|t| t.get());
        if self.lanes <= 1 || tasks == 1 || nested {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        // SAFETY: erases the borrow lifetime of `f`. The pointer is only
        // dereferenced by helpers enlisted below, and `run` does not return
        // until every one of them has signalled completion, so the borrow is
        // live for every dereference.
        let f_erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
        let region = Region {
            f: f_erased,
            next: AtomicUsize::new(0),
            tasks,
            panicked: AtomicBool::new(false),
            active_helpers: Mutex::new(0),
            done: Condvar::new(),
        };
        // The caller is one lane; enlist at most one helper per extra task.
        let helpers = (self.lanes - 1).min(tasks - 1);
        *region.active_helpers.lock().expect("pool lock") = helpers;
        {
            let tx = self.injector.lock().expect("pool injector");
            for _ in 0..helpers {
                tx.send(RegionPtr(&region)).expect("pool worker hung up");
            }
        }
        // Participate, then wait for every enlisted helper to drop its
        // reference (they may still be between dequeue and decrement even
        // after all task indices are claimed).
        IN_POOL_TASK.with(|t| t.set(true));
        region.work();
        IN_POOL_TASK.with(|t| t.set(false));
        let mut active = region.active_helpers.lock().expect("pool lock");
        while *active > 0 {
            active = region.done.wait(active).expect("pool wait");
        }
        drop(active);
        if region.panicked.load(Ordering::Relaxed) {
            panic!("spdkfac_tensor::pool: a worker task panicked");
        }
    }
}

fn configured_lanes() -> usize {
    match std::env::var("SPDKFAC_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1,
        },
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let lanes = configured_lanes();
        let (tx, rx) = mpsc::channel::<RegionPtr>();
        let rx = std::sync::Arc::new(Mutex::new(rx));
        for w in 1..lanes {
            let rx = std::sync::Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("spdkfac-pool-{w}"))
                .spawn(move || {
                    IN_POOL_TASK.with(|t| t.set(true));
                    loop {
                        // Hold the receiver lock only while dequeuing.
                        let msg = { rx.lock().expect("pool receiver").recv() };
                        let Ok(RegionPtr(region)) = msg else {
                            return; // injector dropped: process is exiting
                        };
                        // SAFETY: the caller blocks in `Pool::run` until
                        // `active_helpers` reaches zero, so `region` is live
                        // for the whole body of this iteration.
                        let region = unsafe { &*region };
                        region.work();
                        let mut active = region.active_helpers.lock().expect("pool lock");
                        *active -= 1;
                        if *active == 0 {
                            region.done.notify_one();
                        }
                    }
                })
                .expect("failed to spawn pool worker");
        }
        Pool {
            lanes,
            injector: Mutex::new(tx),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} hit count");
        }
    }

    #[test]
    fn zero_and_one_task_degenerate_cases() {
        parallel_for(0, |_| panic!("must not run"));
        let ran = AtomicBool::new(false);
        parallel_for(1, |i| {
            assert_eq!(i, 0);
            ran.store(true, Ordering::Relaxed);
        });
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn nested_calls_run_serially_and_complete() {
        let total = AtomicU64::new(0);
        parallel_for(8, |_| {
            parallel_for(8, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let sums: Vec<u64> = std::thread::scope(|s| {
            (0..4u64)
                .map(|t| {
                    s.spawn(move || {
                        let acc = AtomicU64::new(0);
                        parallel_for(32, |i| {
                            acc.fetch_add(t * 1000 + i as u64, Ordering::Relaxed);
                        });
                        acc.load(Ordering::Relaxed)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (t, s) in sums.iter().enumerate() {
            let expect = (t as u64) * 1000 * 32 + (0..32).sum::<u64>();
            assert_eq!(*s, expect, "caller {t}");
        }
    }

    #[test]
    fn shared_slice_disjoint_writes() {
        let mut data = vec![0.0f64; 1024];
        let shared = SharedSlice::new(&mut data);
        assert_eq!(shared.len(), 1024);
        assert!(!shared.is_empty());
        parallel_for(16, |t| {
            let chunk = unsafe { shared.slice_mut(t * 64..(t + 1) * 64) };
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (t * 64 + k) as f64;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn task_panic_propagates() {
        let res = std::panic::catch_unwind(|| {
            parallel_for(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(res.is_err(), "panic must propagate to the caller");
    }

    #[test]
    fn reports_at_least_one_thread() {
        assert!(threads() >= 1);
    }
}
