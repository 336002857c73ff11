//! A work-stealing thread pool on `std` primitives only.
//!
//! The serving layer schedules one job per (session, frame); sessions
//! have wildly different per-frame costs (a high-motion garden session
//! encodes several times slower than a static akiyo one), so static
//! partitioning leaves workers idle. The classic fix is work stealing:
//!
//! * every worker owns a deque; jobs submitted with an affinity hint
//!   land there (sessions keep returning to the same worker while the
//!   fleet is balanced — warm caches),
//! * a global injector takes hint-less overflow work,
//! * an idle worker drains its own deque back-to-front (newest first),
//!   then the injector, then **steals from the front** of its siblings'
//!   deques — the oldest, coldest jobs, which is the end the owner is
//!   not touching.
//!
//! The pool is bounded: at most `queue_capacity` jobs may be in flight
//! (queued + running), and [`WorkStealingPool::submit`] **blocks** when
//! the bound is hit. That blocking is the backpressure signal the
//! session manager leans on — a producer that outruns the fleet is
//! stalled instead of ballooning the queues.
//!
//! The slice-parallel encoder borrows the same pool through
//! [`WorkStealingPool::run_scoped`], which accepts non-`'static` jobs
//! and blocks until every one of them has completed — a structured
//! fork/join on top of the streaming scheduler.
//!
//! Everything is `Mutex` + `Condvar`, in the same spirit as the
//! crossbeam-free batch runner in `pbpair-eval`; the workspace is
//! offline and carries no external scheduler crates.

use pbpair_telemetry::{Counter, Gauge, Telemetry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work: boxed closure, run exactly once on some worker.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared pool state guarded by the central mutex.
struct Inner {
    /// Hint-less jobs any worker may take.
    injector: VecDeque<Job>,
    /// Jobs in flight: queued (injector + all locals) plus running.
    in_flight: usize,
    /// Lifetime totals, for observability.
    submitted: u64,
    /// Jobs executed by a worker other than the submit hint — how often
    /// stealing (or injector pickup) actually rebalanced load.
    migrated: u64,
    /// First panic of a [`WorkStealingPool::submit`]ted job since the
    /// last [`WorkStealingPool::wait_idle`], which re-raises it.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Signalled when `in_flight` drops below capacity.
    space: Condvar,
    /// Signalled when `in_flight` reaches zero.
    idle: Condvar,
    /// Per-worker deques. Owner pops from the back, thieves steal from
    /// the front. Separate locks so stealing never contends with the
    /// central mutex.
    locals: Vec<Mutex<VecDeque<(usize, Job)>>>,
    capacity: usize,
    /// Scheduler telemetry (timing scope: queue depth and steal counts
    /// are scheduling artifacts, never part of the deterministic report).
    tel: Option<PoolTelemetry>,
}

/// Timing-scope handles the pool updates as it schedules.
struct PoolTelemetry {
    /// Jobs in flight, sampled at each submit (gauge: last + max).
    queue_depth: Gauge,
    /// Jobs executed away from their submit hint.
    steals: Counter,
}

/// Fixed-size work-stealing pool. Dropping the pool shuts it down and
/// joins every worker (queued jobs still run first).
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkStealingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingPool")
            .field("workers", &self.workers())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl WorkStealingPool {
    /// Spawns `workers` threads with an in-flight bound of
    /// `queue_capacity` jobs.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `queue_capacity == 0`.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        WorkStealingPool::with_telemetry(workers, queue_capacity, &Telemetry::disabled())
    }

    /// Like [`WorkStealingPool::new`], but reporting queue depth
    /// (`serve.queue_depth` gauge) and steals (`serve.steals` timing
    /// counter) into the given telemetry context.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `queue_capacity == 0`.
    pub fn with_telemetry(workers: usize, queue_capacity: usize, tel: &Telemetry) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        assert!(queue_capacity > 0, "queue capacity must be positive");
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                injector: VecDeque::new(),
                in_flight: 0,
                submitted: 0,
                migrated: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity: queue_capacity,
            tel: tel.is_enabled().then(|| PoolTelemetry {
                queue_depth: tel.gauge("serve.queue_depth"),
                steals: tel.timing_counter("serve.steals"),
            }),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{id}"))
                    .spawn(move || worker_loop(id, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkStealingPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.locals.len()
    }

    /// Submits a job with a preferred worker; blocks while the pool is
    /// at its in-flight bound (backpressure). The hint is taken modulo
    /// the worker count; the job may still be stolen by an idle sibling.
    pub fn submit_to(&self, worker_hint: usize, job: Job) {
        let hint = worker_hint % self.shared.locals.len();
        let mut inner = self.shared.inner.lock().expect("pool lock");
        while inner.in_flight >= self.shared.capacity {
            inner = self.shared.space.wait(inner).expect("pool lock");
        }
        inner.in_flight += 1;
        inner.submitted += 1;
        if let Some(t) = &self.shared.tel {
            t.queue_depth.set(inner.in_flight as i64);
        }
        // Push and notify while holding the central lock: a worker about
        // to sleep holds it through its final empty-check, so the job is
        // either seen by that check or the notification lands in its
        // wait — no lost wakeup. (Lock order is always inner → local.)
        self.shared.locals[hint]
            .lock()
            .expect("local deque lock")
            .push_back((hint, job));
        self.shared.work.notify_all();
    }

    /// Submits a job with no affinity: it goes to the global injector
    /// and runs on whichever worker frees up first. Blocks at capacity.
    pub fn submit(&self, job: Job) {
        let mut inner = self.shared.inner.lock().expect("pool lock");
        while inner.in_flight >= self.shared.capacity {
            inner = self.shared.space.wait(inner).expect("pool lock");
        }
        inner.in_flight += 1;
        inner.submitted += 1;
        if let Some(t) = &self.shared.tel {
            t.queue_depth.set(inner.in_flight as i64);
        }
        inner.injector.push_back(job);
        self.shared.work.notify_all();
    }

    /// Runs a batch of borrowing jobs to completion — a structured
    /// fork/join. Each job is distributed round-robin across the
    /// workers' deques and this call blocks until **all** of them have
    /// finished, so the jobs may borrow from the caller's stack frame
    /// (they need only be `Send`, not `'static`).
    ///
    /// If a job panics, the panic is captured and re-raised here (on the
    /// caller's thread) after the remaining jobs finish; the pool stays
    /// usable.
    ///
    /// # Safety argument
    ///
    /// Internally the jobs are transmuted to `'static` so they can ride
    /// the ordinary [`Job`] queues. This is sound because the countdown
    /// latch below guarantees every job has returned (or panicked and
    /// been caught) before `run_scoped` returns, so no job outlives the
    /// borrows it captured.
    pub fn run_scoped<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let total = jobs.len();
        if total == 0 {
            return;
        }
        // Countdown latch: (remaining, condvar) plus the first panic.
        let latch = Arc::new((Mutex::new(total), Condvar::new()));
        let panic_slot: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> =
            Arc::new(Mutex::new(None));
        for (i, job) in jobs.into_iter().enumerate() {
            // SAFETY: this call blocks on the latch until every wrapped
            // job has completed, so the 'scope borrows captured by `job`
            // strictly outlive its execution.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            let latch = Arc::clone(&latch);
            let panic_slot = Arc::clone(&panic_slot);
            self.submit_to(
                i,
                Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(job));
                    if let Err(payload) = result {
                        let mut slot = panic_slot.lock().expect("panic slot lock");
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    let (remaining, done) = &*latch;
                    let mut n = remaining.lock().expect("latch lock");
                    *n -= 1;
                    if *n == 0 {
                        done.notify_all();
                    }
                }),
            );
        }
        let (remaining, done) = &*latch;
        let mut n = remaining.lock().expect("latch lock");
        while *n > 0 {
            n = done.wait(n).expect("latch lock");
        }
        drop(n);
        let payload = panic_slot.lock().expect("panic slot lock").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Blocks until every submitted job has finished. If a job panicked
    /// since the last call, the first panic is re-raised here (on the
    /// caller's thread), as [`WorkStealingPool::run_scoped`] does; the
    /// pool stays usable.
    pub fn wait_idle(&self) {
        let mut inner = self.shared.inner.lock().expect("pool lock");
        while inner.in_flight > 0 {
            inner = self.shared.idle.wait(inner).expect("pool lock");
        }
        if let Some(payload) = inner.panic.take() {
            drop(inner);
            resume_unwind(payload);
        }
    }

    /// Jobs executed on a worker other than their submit hint — the
    /// observable effect of stealing/injection. Hint-less submissions
    /// never count.
    pub fn migrations(&self) -> u64 {
        self.shared.inner.lock().expect("pool lock").migrated
    }

    /// Lifetime job count.
    pub fn jobs_submitted(&self) -> u64 {
        self.shared.inner.lock().expect("pool lock").submitted
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock().expect("pool lock");
            inner.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker's scheduling loop. Order of preference: own deque (back),
/// global injector, steal from siblings (front).
fn worker_loop(id: usize, shared: &Shared) {
    loop {
        let job = find_job(id, shared);
        match job {
            Some((hint, job)) => {
                // A panicking job still leaves the in-flight count, so
                // `wait_idle` returns (and re-raises) instead of hanging.
                let result = catch_unwind(AssertUnwindSafe(job));
                let mut inner = shared.inner.lock().expect("pool lock");
                if let Err(payload) = result {
                    inner.panic.get_or_insert(payload);
                }
                if hint != id {
                    inner.migrated += 1;
                    if let Some(t) = &shared.tel {
                        t.steals.inc(1);
                    }
                }
                inner.in_flight -= 1;
                let now_idle = inner.in_flight == 0;
                drop(inner);
                shared.space.notify_all();
                if now_idle {
                    shared.idle.notify_all();
                }
            }
            None => return, // shutdown with all queues drained
        }
    }
}

/// Finds the next job for worker `id`, sleeping on the work condvar when
/// every queue is empty. Returns `None` only at shutdown. The returned
/// hint is the submit-time affinity (== `id` for hint-less injector
/// jobs, so they never count as migrations).
fn find_job(id: usize, shared: &Shared) -> Option<(usize, Job)> {
    loop {
        // 1. Own deque, newest first — the owner end.
        if let Some(job) = shared.locals[id]
            .lock()
            .expect("local deque lock")
            .pop_back()
        {
            return Some(job);
        }
        // 2. Global injector, FIFO.
        {
            let mut inner = shared.inner.lock().expect("pool lock");
            if let Some(job) = inner.injector.pop_front() {
                return Some((id, job));
            }
        }
        // 3. Steal the oldest job from a sibling, scanning from the next
        //    worker around the ring so victims spread out.
        let n = shared.locals.len();
        for off in 1..n {
            let victim = (id + off) % n;
            if let Some(job) = shared.locals[victim]
                .lock()
                .expect("local deque lock")
                .pop_front()
            {
                return Some(job);
            }
        }
        // 4. Nothing visible: re-check every queue under the central
        //    lock (submissions push under it, so this check and a
        //    concurrent submit serialize), then sleep.
        let inner = shared.inner.lock().expect("pool lock");
        if !inner.injector.is_empty() {
            continue; // raced with a submit
        }
        let stranded = shared
            .locals
            .iter()
            .any(|l| !l.lock().expect("local deque lock").is_empty());
        if stranded {
            continue; // go steal it
        }
        if inner.shutdown {
            return None;
        }
        let _unused = shared.work.wait(inner).expect("pool lock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_every_job_exactly_once() {
        let pool = WorkStealingPool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..200 {
            let c = Arc::clone(&counter);
            pool.submit_to(
                i,
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        assert_eq!(pool.jobs_submitted(), 200);
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = WorkStealingPool::new(1, 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let c = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn uneven_jobs_get_stolen() {
        // Pin every job to worker 0 of 4; the only way others can help
        // is by stealing. With slow jobs, stealing must happen.
        let pool = WorkStealingPool::new(4, 256);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            pool.submit_to(
                0,
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(2));
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert!(
            pool.migrations() > 0,
            "3 idle workers must steal from the loaded one"
        );
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        // Capacity 2 with a job that holds the pool busy: the 3rd submit
        // must block until a slot frees. Observe via submit timing.
        let pool = WorkStealingPool::new(1, 2);
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        for _ in 0..2 {
            let r = Arc::clone(&release);
            pool.submit(Box::new(move || {
                let (lock, cv) = &*r;
                let mut go = lock.lock().unwrap();
                while !*go {
                    go = cv.wait(go).unwrap();
                }
            }));
        }
        // Pool is now full (1 running + 1 queued). Submit from a helper
        // thread; it must not complete until we release the blockers.
        let submitted = Arc::new(AtomicUsize::new(0));
        let helper = {
            let pool_shared = Arc::clone(&pool.shared);
            let s = Arc::clone(&submitted);
            std::thread::spawn(move || {
                let fake_pool = WorkStealingPool {
                    shared: pool_shared,
                    handles: Vec::new(),
                };
                fake_pool.submit(Box::new(|| {}));
                s.store(1, Ordering::SeqCst);
                std::mem::forget(fake_pool); // shares state; must not shut down
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            submitted.load(Ordering::SeqCst),
            0,
            "submit past capacity must block"
        );
        {
            let (lock, cv) = &*release;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        helper.join().unwrap();
        assert_eq!(submitted.load(Ordering::SeqCst), 1);
        pool.wait_idle();
    }

    #[test]
    fn wait_idle_on_empty_pool_returns_immediately() {
        let pool = WorkStealingPool::new(2, 8);
        pool.wait_idle();
        assert_eq!(pool.migrations(), 0);
    }

    #[test]
    fn drop_finishes_queued_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkStealingPool::new(2, 64);
            for i in 0..50 {
                let c = Arc::clone(&counter);
                pool.submit_to(
                    i,
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
            // No wait_idle: Drop must drain.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = WorkStealingPool::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = WorkStealingPool::new(1, 0);
    }

    #[test]
    fn run_scoped_borrows_from_caller_stack() {
        let pool = WorkStealingPool::new(3, 32);
        let mut rows = [0u64; 12];
        {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = rows
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let job: Box<dyn FnOnce() + Send + '_> =
                        Box::new(move || *slot = (i as u64 + 1) * 10);
                    job
                })
                .collect();
            pool.run_scoped(jobs);
        }
        for (i, v) in rows.iter().enumerate() {
            assert_eq!(*v, (i as u64 + 1) * 10);
        }
    }

    #[test]
    fn run_scoped_empty_batch_is_a_noop() {
        let pool = WorkStealingPool::new(1, 2);
        pool.run_scoped(Vec::new());
        assert_eq!(pool.jobs_submitted(), 0);
    }

    #[test]
    fn wait_idle_reraises_a_job_panic_instead_of_hanging() {
        let pool = WorkStealingPool::new(2, 8);
        let completed = Arc::new(AtomicUsize::new(0));
        pool.submit_to(0, Box::new(|| panic!("session job failed")));
        for i in 0..4 {
            let c = Arc::clone(&completed);
            pool.submit_to(
                i,
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| pool.wait_idle()));
        assert!(result.is_err(), "the job's panic must reach the caller");
        assert_eq!(completed.load(Ordering::Relaxed), 4);
        // The panic is reported once, and the pool keeps working.
        pool.submit(Box::new(|| {}));
        pool.wait_idle();
    }

    #[test]
    fn run_scoped_propagates_panic_after_batch_completes() {
        let pool = WorkStealingPool::new(2, 16);
        let completed = Arc::new(AtomicUsize::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            jobs.push(Box::new(|| panic!("slice job failed")));
            for _ in 0..4 {
                let c = Arc::clone(&completed);
                jobs.push(Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }));
            }
            pool.run_scoped(jobs);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            4,
            "non-panicking jobs still ran"
        );
        // The pool survives a panicking batch.
        pool.run_scoped(vec![Box::new(|| {})]);
    }
}
