//! A fork–join thread pool on `std` primitives only.
//!
//! The reproduction runs work in parallel in two places, the macroblock
//! rows of one frame (the slice schedule) and the sessions of one fleet
//! round. Both hand out a batch of independent items and wait for every
//! one of them before going on, and [`Pool::for_each_mut`] is exactly
//! that: it runs a closure once per item of a borrowed slice and returns
//! when all of them are done.
//!
//! * The calling thread is worker 0, so a pool of `n` workers spawns
//!   `n − 1` helper threads, and a one-worker pool runs inline.
//! * Item `i`'s home worker is `i % workers`, so a fleet session keeps
//!   returning to the same worker. A worker that runs out of home items
//!   takes its siblings' remaining ones, which balances uneven item
//!   costs (a high-motion session encodes several times slower than a
//!   static one); [`Pool::migrations`] counts the items taken that way.
//! * A call allocates nothing: the helpers run the caller's borrowed
//!   closure in place, and items are claimed through per-worker atomic
//!   cursors.
//! * A panicking item does not stop the batch. The first panic is
//!   re-raised on the caller's thread once every item is done, and the
//!   pool stays usable.
//!
//! The workspace is offline and carries no external scheduler crates.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One call's work as a worker runs it: its home items, then whatever
/// its siblings have left. Never unwinds.
type Work<'a> = dyn Fn(usize) + Sync + 'a;

struct Shared {
    state: Mutex<State>,
    /// Signalled when a batch is published or the pool shuts down.
    start: Condvar,
    /// Signalled when the last helper leaves a batch.
    done: Condvar,
    /// Per worker: how many of its home items the current call has
    /// handed out (the next one is `home + claimed × workers`).
    claimed: Vec<AtomicUsize>,
    /// Items run by a worker other than their home worker.
    migrations: AtomicU64,
}

struct State {
    /// Bumped once per published batch.
    epoch: u64,
    /// The current batch, from publication until the calling thread has
    /// finished its own share; no helper joins a batch after that.
    work: Option<&'static Work<'static>>,
    /// Helpers that joined the current batch and have not yet left it.
    active: usize,
    shutdown: bool,
}

/// Locks the pool state. Nothing panics while holding the lock, and the
/// caller must never unwind while a helper still holds its closure, so
/// a poisoned lock is recovered instead of panicked on; every update
/// leaves the state valid.
fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fixed-size fork–join pool: the calling thread plus `workers − 1`
/// helper threads. Dropping the pool joins the helpers.
pub struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.shared.claimed.len())
            .finish()
    }
}

impl Pool {
    /// A pool of `workers` workers, counting the calling thread: spawns
    /// `workers − 1` helper threads and returns once all of them are
    /// running.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or a helper thread cannot be spawned.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                work: None,
                active: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            claimed: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            migrations: AtomicU64::new(0),
        });
        // Every helper has started before the pool is handed out, so a
        // helper's start-up allocations never land inside a caller's
        // allocation-free steady state.
        let started = Arc::new(Barrier::new(workers));
        let helpers = (1..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                let started = Arc::clone(&started);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{id}"))
                    .spawn(move || {
                        started.wait();
                        helper_loop(id, &shared)
                    })
                    .expect("spawn pool helper")
            })
            .collect();
        started.wait();
        Pool { shared, helpers }
    }

    /// Items run by a worker other than their home worker, over the
    /// pool's lifetime: the observable effect of helping.
    pub fn migrations(&self) -> u64 {
        self.shared.migrations.load(Ordering::Relaxed)
    }

    /// Runs `f(i, &mut items[i])` exactly once for every index and
    /// returns when all of them are done, so `f` and the items may
    /// borrow from the caller's stack. Item `i` starts on worker
    /// `i % workers`; a worker that runs out of its own items takes its
    /// siblings' remaining ones.
    ///
    /// If an item panics, the other items still run, and the first
    /// panic is re-raised here once they are all done; the pool stays
    /// usable.
    pub fn for_each_mut<T, F>(&mut self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let shared = &*self.shared;
        let workers = shared.claimed.len();
        let len = items.len();
        for claimed in &shared.claimed {
            claimed.store(0, Ordering::Relaxed);
        }
        let items = Items(items.as_mut_ptr());
        let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let work = |worker: usize| {
            let mut migrated = 0;
            for off in 0..workers {
                let home = (worker + off) % workers;
                loop {
                    let k = shared.claimed[home].fetch_add(1, Ordering::Relaxed);
                    let i = home + k * workers;
                    if i >= len {
                        break;
                    }
                    // SAFETY: `i < len`, so the pointer is inside the
                    // caller's slice, which `for_each_mut` borrows
                    // mutably until every worker has left `work`. Index
                    // `i` belongs to worker `i % workers` (`home`), and
                    // the `fetch_add` on that worker's cursor hands each
                    // `k`, hence each `i`, to exactly one claimant per
                    // call, so this is the only reference to item `i`.
                    let item = unsafe { &mut *items.at(i) };
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                        panic
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(payload);
                    }
                    migrated += u64::from(off > 0);
                }
            }
            if migrated > 0 {
                shared.migrations.fetch_add(migrated, Ordering::Relaxed);
            }
        };
        if workers == 1 || len < 2 {
            work(0);
        } else {
            run_with_helpers(shared, &work);
        }
        if let Some(payload) = panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared).shutdown = true;
        self.shared.start.notify_all();
        for helper in self.helpers.drain(..) {
            // Helpers never unwind (`Work` catches item panics), and a
            // panic here would abort an unwinding caller.
            let _ = helper.join();
        }
    }
}

/// The caller's slice as the workers of one call share it.
struct Items<T>(*mut T);

// SAFETY: the only field is the slice pointer. Workers reach items only
// through indices claimed from the per-worker cursors, and each index is
// claimed exactly once per call, so no two threads ever touch one item;
// `T: Send` because the claiming worker may not be the slice's owner.
unsafe impl<T: Send> Sync for Items<T> {}

impl<T> Items<T> {
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

/// Publishes `work` to the helpers, runs worker 0's share on the calling
/// thread, and returns only once no helper is running `work` any more.
fn run_with_helpers(shared: &Shared, work: &Work<'_>) {
    /// Retracts the batch and waits out every helper that joined it, on
    /// return and on unwind alike.
    struct Retract<'a>(&'a Shared);
    impl Drop for Retract<'_> {
        fn drop(&mut self) {
            let mut state = lock(self.0);
            state.work = None;
            while state.active > 0 {
                state = self
                    .0
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    // SAFETY: only the lifetime is erased. Helpers reach the closure only
    // through `State::work` and run it only while counted in
    // `State::active`, both under the state lock. `Retract`, armed before
    // any helper can see the closure, clears `State::work` and waits for
    // `active` to reach zero before this function returns or unwinds, so
    // no helper calls `work` after its borrow ends.
    let erased = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(work) };
    let retract = Retract(shared);
    {
        let mut state = lock(shared);
        state.epoch += 1;
        state.work = Some(erased);
    }
    shared.start.notify_all();
    work(0);
    drop(retract);
}

/// A helper's life: wait for a batch it has not seen, run its share,
/// leave, repeat until shutdown.
fn helper_loop(id: usize, shared: &Shared) {
    let mut seen = 0;
    loop {
        let work = {
            let mut state = lock(shared);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen {
                    seen = state.epoch;
                    if let Some(work) = state.work {
                        state.active += 1;
                        break work;
                    }
                }
                state = shared
                    .start
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        work(id);
        let mut state = lock(shared);
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn every_item_runs_exactly_once_on_borrowed_items() {
        for workers in [1, 2, 3, 8] {
            let mut pool = Pool::new(workers);
            for len in [0, 1, workers - 1, workers + 1, 200] {
                let mut items = [0u32; 200];
                pool.for_each_mut(&mut items[..len], |i, x| *x += i as u32 + 1);
                for (i, x) in items.iter().enumerate() {
                    let want = if i < len { i as u32 + 1 } else { 0 };
                    assert_eq!(*x, want, "{workers} workers, {len} items, item {i}");
                }
            }
        }
    }

    #[test]
    fn one_worker_runs_inline_and_never_migrates() {
        let mut pool = Pool::new(1);
        let mut ran_on: Vec<Option<ThreadId>> = vec![None; 50];
        pool.for_each_mut(&mut ran_on, |_, t| *t = Some(std::thread::current().id()));
        let caller = std::thread::current().id();
        assert!(ran_on.iter().all(|t| *t == Some(caller)));
        assert_eq!(pool.migrations(), 0);
    }

    #[test]
    fn siblings_take_a_slow_workers_items() {
        // Worker 0's first item blocks until another thread has run one
        // of worker 0's items, which only taking it over can achieve.
        let workers = 4;
        let mut pool = Pool::new(workers);
        let caller = std::thread::current().id();
        let taken = AtomicBool::new(false);
        pool.for_each_mut(&mut [0u8; 64], |i, _| {
            if i % workers != 0 {
                return;
            }
            if std::thread::current().id() != caller {
                taken.store(true, Ordering::SeqCst);
            } else if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !taken.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
        });
        assert!(
            taken.load(Ordering::SeqCst),
            "no sibling took worker 0's items"
        );
        assert!(pool.migrations() > 0);
    }

    #[test]
    fn a_panic_is_reraised_after_the_batch_and_the_pool_survives() {
        for workers in [1, 3] {
            let mut pool = Pool::new(workers);
            let completed = AtomicUsize::new(0);
            let mut items = [0u8; 12];
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.for_each_mut(&mut items, |i, _| {
                    if i == 0 {
                        panic!("item failed");
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    completed.fetch_add(1, Ordering::SeqCst);
                });
            }));
            assert!(result.is_err(), "the item's panic must reach the caller");
            assert_eq!(
                completed.load(Ordering::SeqCst),
                11,
                "the other items ran first"
            );
            let mut after = [0u8; 5];
            pool.for_each_mut(&mut after, |_, x| *x = 1);
            assert_eq!(after, [1; 5]);
        }
    }

    #[test]
    fn back_to_back_small_batches_all_return() {
        // A lost wake-up between calls would hang one of these. Each
        // item runs long enough that helpers often join a call before
        // the caller has finished it alone.
        for workers in [2, 3, 4] {
            let mut pool = Pool::new(workers);
            let mut items = [0u32; 3];
            for call in 0..10_000 {
                let len = 1 + call % 3;
                pool.for_each_mut(&mut items[..len], |_, x| {
                    let until = Instant::now() + Duration::from_micros(20);
                    while Instant::now() < until {
                        std::hint::spin_loop();
                    }
                    *x += 1;
                });
            }
            assert_eq!(items, [10_000, 6_666, 3_333]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Pool::new(0);
    }
}
