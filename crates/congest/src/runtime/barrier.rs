//! A hybrid spin/park sense-reversing barrier with panic poisoning.
//!
//! `std::sync::Barrier` parks every waiter on a mutex/condvar — a
//! syscall-heavy handshake that dominates light simulation rounds (the
//! `n ≤ 600` cells of the `smoke` bench suite, recorded in `BENCH.json`,
//! spent more time in the barrier than in protocol code). When every worker has its own core, a short spin phase
//! catches the common case where the stragglers are microseconds away and
//! no syscall is needed at all.
//!
//! Pure spinning is catastrophic the moment workers are *oversubscribed*
//! (more workers than cores): a spinning waiter burns the very timeslice
//! the straggler needs, and `yield_now` loops degrade into a
//! `sched_yield` storm (observed: a 50× slowdown on a single-core
//! container). So the barrier adapts at construction: with enough cores it
//! spins briefly and then parks; oversubscribed it skips the spin phase and
//! parks immediately, costing exactly one condvar round-trip per barrier —
//! half of what the old two-barrier protocol paid.
//!
//! Poisoning: if a worker panics (a protocol bug — duplicate port send,
//! silent-round send, arbitrary user panic), every other worker would
//! otherwise block forever on a barrier the panicked worker never reaches.
//! [`SpinBarrier::poison`] (called from a drop guard on the unwinding
//! thread) wakes and panics every current and future waiter, so
//! `std::thread::scope` can join and propagate the original panic.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Spin iterations before parking, when workers are not oversubscribed.
const SPIN_LIMIT: u32 = 4096;

/// A reusable barrier for a fixed set of `total` threads.
pub(crate) struct SpinBarrier {
    total: usize,
    /// Spin budget before parking; 0 when oversubscribed.
    spin_limit: u32,
    /// Threads arrived in the current generation.
    count: AtomicUsize,
    /// Completed generations; waiters spin/park until it advances.
    generation: AtomicU64,
    poisoned: AtomicBool,
    /// Park support: waiters that exhausted the spin budget sleep on the
    /// condvar; the generation check happens under the mutex, so a leader
    /// advancing the generation (also under the mutex) cannot slip between
    /// the check and the wait.
    lock: Mutex<()>,
    cv: Condvar,
}

impl SpinBarrier {
    pub(crate) fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        SpinBarrier {
            total,
            spin_limit: if total <= cores { SPIN_LIMIT } else { 0 },
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// The barrier's internal mutex guards no data, so a panic while
    /// holding it (a poisoned-barrier panic) leaves nothing inconsistent.
    fn guard(&self) -> MutexGuard<'_, ()> {
        self.lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until all `total` threads have called `wait` for this
    /// generation. Panics if the barrier is (or becomes) poisoned.
    ///
    /// The last thread to arrive resets the arrival count *before*
    /// advancing the generation, so a fast thread re-entering `wait` for
    /// the next generation cannot race the reset. Sequentially-consistent
    /// atomics make the barrier a full synchronization point: all writes
    /// before any thread's `wait` happen-before all reads after any
    /// thread's `wait` returns.
    pub(crate) fn wait(&self) {
        self.check_poison();
        if self.total <= 1 {
            return;
        }
        let generation = self.generation.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.total {
            self.count.store(0, Ordering::SeqCst);
            // Advance under the mutex so a parked (or about-to-park)
            // waiter cannot miss the wakeup.
            let _g = self.guard();
            self.generation.store(generation + 1, Ordering::SeqCst);
            self.cv.notify_all();
        } else {
            for _ in 0..self.spin_limit {
                if self.generation.load(Ordering::SeqCst) != generation {
                    self.check_poison();
                    return;
                }
                self.check_poison();
                std::hint::spin_loop();
            }
            let mut g = self.guard();
            while self.generation.load(Ordering::SeqCst) == generation
                && !self.poisoned.load(Ordering::SeqCst)
            {
                g = self
                    .cv
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            drop(g);
        }
        self.check_poison();
    }

    /// Marks the barrier poisoned; every thread waiting in [`wait`] (and
    /// every later caller) panics.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        let _g = self.guard();
        self.cv.notify_all();
    }

    fn check_poison(&self) {
        assert!(
            !self.poisoned.load(Ordering::SeqCst),
            "parallel runtime: a worker thread panicked, poisoning the round barrier"
        );
    }

    /// A guard that poisons the barrier if its owning thread unwinds.
    /// Workers hold one for their whole lifetime so a protocol panic in any
    /// shard aborts all shards instead of deadlocking them.
    pub(crate) fn poison_guard(&self) -> PoisonGuard<'_> {
        PoisonGuard { barrier: self }
    }
}

pub(crate) struct PoisonGuard<'a> {
    barrier: &'a SpinBarrier,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.barrier.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    #[test]
    fn barrier_synchronizes_generations() {
        let rounds = 200u64;
        let threads = 4usize;
        let barrier = SpinBarrier::new(threads);
        let counter = Counter::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for r in 0..rounds {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        // Between the two waits every thread observes the
                        // full per-round quota.
                        let seen = counter.load(Ordering::SeqCst);
                        assert_eq!(seen, (r + 1) * threads as u64);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn single_thread_barrier_is_free() {
        let b = SpinBarrier::new(1);
        b.wait();
        b.wait();
    }

    #[test]
    fn poisoned_barrier_panics_waiters() {
        let barrier = SpinBarrier::new(2);
        let result = std::thread::scope(|s| {
            let h = s.spawn(|| {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    barrier.wait();
                }));
                caught.is_err()
            });
            // Give the waiter a moment to start waiting, then poison.
            std::thread::sleep(std::time::Duration::from_millis(10));
            barrier.poison();
            h.join().expect("no double panic")
        });
        assert!(result, "waiter must panic when the barrier is poisoned");
    }

    #[test]
    fn guard_poisons_on_unwind() {
        let barrier = SpinBarrier::new(2);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = barrier.poison_guard();
            panic!("protocol bug");
        }));
        assert!(barrier.poisoned.load(Ordering::SeqCst));
    }

    /// A barrier with a pinned spin budget, bypassing the core-count
    /// heuristic so both waiter paths are testable on any box.
    fn with_spin_limit(total: usize, spin_limit: u32) -> SpinBarrier {
        SpinBarrier {
            spin_limit,
            ..SpinBarrier::new(total)
        }
    }

    /// Poisons a 2-thread barrier while the waiter sits in the given
    /// wait path and asserts the waiter panics out of it.
    fn poison_reaches_waiter(barrier: &SpinBarrier) {
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    barrier.wait();
                }))
                .is_err()
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            barrier.poison();
            assert!(
                h.join().expect("no double panic"),
                "waiter must panic when the barrier is poisoned"
            );
        });
    }

    #[test]
    fn poison_reaches_a_spinning_waiter() {
        // Unbounded spin budget: the waiter is guaranteed to still be in
        // the spin loop (never parks) when the poison lands, so this
        // covers the spin-path check_poison exit.
        poison_reaches_waiter(&with_spin_limit(2, u32::MAX));
    }

    #[test]
    fn poison_reaches_a_parked_waiter() {
        // Zero spin budget: the waiter parks on the condvar immediately,
        // so this covers the wakeup-then-panic park path.
        poison_reaches_waiter(&with_spin_limit(2, 0));
    }

    #[test]
    fn oversubscribed_barrier_parks_instead_of_spinning() {
        // 16 workers on however few cores this box has: must still make
        // fast progress (the old yield-loop design degraded ~50× here).
        let barrier = SpinBarrier::new(16);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    for _ in 0..50 {
                        barrier.wait();
                    }
                });
            }
        });
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "oversubscribed barrier too slow: {:?}",
            t0.elapsed()
        );
    }
}
