//! # tracelens-pool
//!
//! A zero-dependency parallel execution layer for the analysis pipeline:
//! std-only (`std::thread` + atomics), deterministic, and aware of the
//! `--jobs N` / `TRACELENS_JOBS` knob every tracelens binary honors.
//!
//! The core primitive is [`Pool::map`]: apply a function to every item
//! of a slice on `jobs` worker threads and return the results **in input
//! order**, so a parallel run is byte-identical to a sequential one as
//! long as the function itself is deterministic. Work distribution is
//! chunked self-scheduling (workers claim the next unclaimed index from
//! a shared atomic counter), which load-balances skewed item costs the
//! same way a work-stealing deque would for this fan-out/fan-in shape —
//! without unsafe code or per-item channels.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results are merged in input order; nothing about
//!    thread scheduling can leak into the output.
//! 2. **Sequential fidelity.** A pool with `jobs == 1` never spawns a
//!    thread: [`Pool::map`] degenerates to a plain iterator loop, so the
//!    `--jobs 1` path *is* the sequential implementation, not a
//!    single-threaded simulation of the parallel one.
//! 3. **Zero dependencies.** Scoped threads (`std::thread::scope`) let
//!    workers borrow the items and the closure directly; no channels,
//!    no `'static` bounds, no allocation per item beyond the result.
//!
//! Telemetry: a pool built [`Pool::with_telemetry`] reports, for
//! plain and ordered batches alike,
//! `pool.tasks` / `pool.batches` / `pool.steals` / `pool.parks`
//! counters, a `pool.queue_depth` gauge and histogram (remaining items
//! observed at each claim), a `pool.task_wait_ns` queue-wait histogram
//! (ready-to-claim gaps per worker), and a `pool.worker_busy_ns`
//! per-worker busy-time histogram, so stage timings can be split per
//! worker in the run report. When the sink is an event recorder (the
//! `selftrace` crate), each parallel batch additionally traces one
//! `pool.join` barrier wait on the spawning thread, woken by the last
//! worker to finish — the ETW-shaped wait/unwait edge the wait-graph
//! meta-analysis pairs up. A [`Pool::map_ordered`] batch instead traces
//! one `pool.join` wait each time its consumer blocks on the next
//! result, woken by the worker that produces it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod govern;
mod supervise;

pub use govern::{
    plan_admission, Admission, Degradation, GovernPolicy, GovernReport, OverBudgetAction,
    UnitDecision,
};
pub use supervise::{ExecutionReport, FailureReason, SupervisePolicy, UnitFailure, UnitMeta};

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use tracelens_obs::{waitpoint, Telemetry};

/// Environment variable overriding the default worker count, honored by
/// [`Pool::auto`] (and therefore by every pipeline entry point that
/// defaults its pool). `--jobs N` flags take precedence over it.
pub const JOBS_ENV: &str = "TRACELENS_JOBS";

/// A parallel-map executor with a fixed worker count.
///
/// Cheap to clone and to construct; worker threads are scoped to each
/// [`Pool::map`] call, so an idle pool holds no OS resources.
///
/// ```
/// use tracelens_pool::Pool;
/// let pool = Pool::new(4);
/// let squares = pool.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
    telemetry: Telemetry,
}

impl Default for Pool {
    /// [`Pool::auto`]: the `TRACELENS_JOBS` / `available_parallelism`
    /// default.
    fn default() -> Self {
        Pool::auto()
    }
}

impl Pool {
    /// A pool with exactly `jobs` workers; `0` means "auto" (the
    /// [`JOBS_ENV`] variable if set and valid, otherwise
    /// [`std::thread::available_parallelism`]).
    pub fn new(jobs: usize) -> Pool {
        let jobs = if jobs == 0 { default_jobs() } else { jobs };
        Pool {
            jobs,
            telemetry: Telemetry::noop(),
        }
    }

    /// The environment/hardware default: `TRACELENS_JOBS` if set to a
    /// positive integer, otherwise the machine's available parallelism.
    pub fn auto() -> Pool {
        Pool::new(0)
    }

    /// A single-worker pool: [`Pool::map`] runs inline on the calling
    /// thread. This is the exact sequential pipeline, used both as the
    /// `--jobs 1` path and as the inner pool of stages that already fan
    /// out at a coarser granularity.
    pub fn sequential() -> Pool {
        Pool {
            jobs: 1,
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry handle; every subsequent [`Pool::map`] and
    /// [`Pool::map_ordered`] batch then reports pool counters, queue
    /// depth and per-worker busy-time histograms through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Pool {
        self.telemetry = telemetry;
        self
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The telemetry handle this pool reports through (a noop handle
    /// unless one was attached with [`Pool::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whether this pool will actually spawn threads for multi-item
    /// batches.
    pub fn is_parallel(&self) -> bool {
        self.jobs > 1
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// `f` receives `(index, &item)`; it must be deterministic for the
    /// parallel and sequential paths to agree. Panics inside `f` are
    /// propagated to the caller after all workers have stopped.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.jobs <= 1 || items.len() <= 1 {
            if self.telemetry.enabled() {
                self.telemetry.count("pool.batches", 1);
                self.telemetry.count("pool.tasks", items.len() as u64);
            }
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let workers = self.jobs.min(items.len());
        if self.telemetry.enabled() {
            self.telemetry.count("pool.batches", 1);
            self.telemetry.count("pool.tasks", items.len() as u64);
            self.telemetry.gauge("pool.workers", workers as i64);
        }
        let next = AtomicUsize::new(0);
        // Self-tracing: the spawning thread blocks in exactly one
        // barrier wait per batch; the worker whose countdown decrement
        // reaches zero — the last to finish — emits the single matching
        // wake. One pairable wait/unwait edge, no strays.
        let spawner = self.telemetry.thread_token();
        let remaining = AtomicUsize::new(workers);
        let context = self.telemetry.current_span();
        let join_wait = self.telemetry.wait(waitpoint::POOL_JOIN);
        // Each worker collects (index, result) pairs; merging by index
        // afterwards keeps the output independent of scheduling.
        let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|s| {
            let (next, remaining, f, telemetry) = (&next, &remaining, &f, &self.telemetry);
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let fair = fair_share(w, workers, items.len());
                    s.spawn(move || {
                        telemetry.bind_thread("worker", w as u32);
                        let _cx = context.map(|cx| telemetry.adopt(cx));
                        let started = std::time::Instant::now();
                        let mut local: Vec<(usize, R)> = Vec::new();
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            let mut ready = std::time::Instant::now();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= items.len() {
                                    if telemetry.enabled() {
                                        telemetry.count("pool.parks", 1);
                                    }
                                    break;
                                }
                                record_claim(telemetry, i, items.len(), fair, ready);
                                local.push((i, f(i, &items[i])));
                                ready = std::time::Instant::now();
                            }
                        }));
                        if telemetry.enabled() {
                            let busy = started.elapsed().as_nanos();
                            telemetry.record(
                                "pool.worker_busy_ns",
                                u64::try_from(busy).unwrap_or(u64::MAX),
                            );
                        }
                        if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            if let Some(token) = spawner {
                                telemetry.wake(waitpoint::POOL_JOIN, token);
                            }
                        }
                        out.map(|()| local)
                    })
                })
                .collect();
            for h in handles {
                match h.join().expect("pool worker thread never aborts") {
                    Ok(local) => parts.push(local),
                    Err(p) => panic = Some(p),
                }
            }
        });
        // The barrier wait ends here: merging results below is running
        // time on the spawning thread, not blocked time.
        drop(join_wait);
        if let Some(p) = panic {
            resume_unwind(p);
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for part in parts {
            for (i, r) in part {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index was claimed exactly once"))
            .collect()
    }

    /// [`Pool::map`] that hands each result to `consume` in input order
    /// as soon as it and every earlier result are ready, instead of
    /// collecting them all.
    ///
    /// `consume` runs on the calling thread, so it may fold results into
    /// unsynchronized state. Workers run at most
    /// [`ORDERED_WINDOW`]` × jobs` items ahead of the consumer: a fold
    /// over large per-item results holds a bounded number of them at
    /// any time, whatever the item count. With `jobs == 1` each result
    /// is consumed right after it is computed. A panic in `f` stops the
    /// batch and is propagated to the caller; `consume` has then seen an
    /// in-order prefix of the results before the panicking item.
    pub fn map_ordered<T, R, F, C>(&self, items: &[T], f: F, mut consume: C)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        C: FnMut(usize, R),
    {
        let telemetry = &self.telemetry;
        if telemetry.enabled() {
            telemetry.count("pool.batches", 1);
            telemetry.count("pool.tasks", items.len() as u64);
        }
        if self.jobs <= 1 || items.len() <= 1 {
            for (i, item) in items.iter().enumerate() {
                consume(i, f(i, item));
            }
            return;
        }
        let workers = self.jobs.min(items.len());
        if telemetry.enabled() {
            telemetry.gauge("pool.workers", workers as i64);
        }
        let window = ORDERED_WINDOW * workers;
        let next = AtomicUsize::new(0);
        let state = Mutex::new(Ordered {
            ready: BTreeMap::new(),
            consumed: 0,
            awaited: None,
            stopped: false,
            panic: None,
        });
        let (produced, freed) = (Condvar::new(), Condvar::new());
        let lock = || lock_ordered(&state);
        let context = telemetry.current_span();
        let spawner = telemetry.thread_token();
        std::thread::scope(|s| {
            for w in 0..workers {
                let (f, next, lock, produced, freed) = (&f, &next, &lock, &produced, &freed);
                let fair = fair_share(w, workers, items.len());
                s.spawn(move || {
                    telemetry.bind_thread("worker", w as u32);
                    let _cx = context.map(|cx| telemetry.adopt(cx));
                    let started = std::time::Instant::now();
                    let mut ready = started;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        record_claim(telemetry, i, items.len(), fair, ready);
                        let mut st = lock();
                        while i >= st.consumed + window && !st.stopped {
                            st = freed.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                        if st.stopped {
                            break;
                        }
                        drop(st);
                        let out = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                        let mut st = lock();
                        // Wake the consumer only when it is blocked on
                        // exactly this item, or on any item after a
                        // panic: one traced wake per traced wait.
                        let wake = match out {
                            Ok(r) => {
                                st.ready.insert(i, r);
                                st.awaited == Some(i)
                            }
                            Err(p) => {
                                st.panic.get_or_insert(p);
                                st.stopped = true;
                                freed.notify_all();
                                st.awaited.is_some()
                            }
                        };
                        if wake {
                            st.awaited = None;
                            if let Some(token) = spawner {
                                telemetry.wake(waitpoint::POOL_JOIN, token);
                            }
                            produced.notify_one();
                        }
                        drop(st);
                        ready = std::time::Instant::now();
                    }
                    if telemetry.enabled() {
                        telemetry.count("pool.parks", 1);
                        let busy = started.elapsed().as_nanos();
                        telemetry.record(
                            "pool.worker_busy_ns",
                            u64::try_from(busy).unwrap_or(u64::MAX),
                        );
                    }
                });
            }
            // Workers blocked on the window must not outlive a consumer
            // that stopped early, by a panic in `f` or in `consume`.
            let _stop = StopOnDrop(&state, &freed);
            for k in 0..items.len() {
                let mut st = lock();
                while !st.ready.contains_key(&k) && !st.stopped {
                    st.awaited = Some(k);
                    let _wait = telemetry.wait(waitpoint::POOL_JOIN);
                    st = produced.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                let Some(r) = st.ready.remove(&k) else { break };
                drop(st);
                consume(k, r);
                lock().consumed = k + 1;
                freed.notify_all();
            }
        });
        let panic = lock().panic.take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// Runs two independent closures, in parallel when the pool is.
    /// Returns `(a(), b())`.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.jobs <= 1 {
            return (a(), b());
        }
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut rb: Option<RB> = None;
        let ra = std::thread::scope(|s| {
            let hb = s.spawn(|| catch_unwind(AssertUnwindSafe(b)));
            let ra = catch_unwind(AssertUnwindSafe(a));
            match hb.join().expect("pool worker thread never aborts") {
                Ok(v) => rb = Some(v),
                Err(p) => panic = Some(p),
            }
            ra
        });
        // `a`'s panic wins (it is what a sequential run would hit first).
        match ra {
            Ok(ra) => {
                if let Some(p) = panic {
                    resume_unwind(p);
                }
                (ra, rb.expect("b completed without panicking"))
            }
            Err(p) => resume_unwind(p),
        }
    }
}

/// How many items per worker [`Pool::map_ordered`] may run ahead of its
/// consumer.
pub const ORDERED_WINDOW: usize = 4;

/// Shared state of one [`Pool::map_ordered`] batch.
struct Ordered<R> {
    /// Finished results not yet consumed, by item index.
    ready: BTreeMap<usize, R>,
    /// Items fully consumed so far: workers may start item `i` only
    /// while `i < consumed + window`, so at most `window` results are
    /// alive at once — running, waiting, or in the consumer's hands.
    consumed: usize,
    /// The item the consumer is blocked on, if it is.
    awaited: Option<usize>,
    /// Set when the batch ends early; workers stop claiming items.
    stopped: bool,
    /// The first panic raised by `f`.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

fn lock_ordered<R>(state: &Mutex<Ordered<R>>) -> MutexGuard<'_, Ordered<R>> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Stops a [`Pool::map_ordered`] batch when the consumer leaves it.
struct StopOnDrop<'a, R>(&'a Mutex<Ordered<R>>, &'a Condvar);

impl<R> Drop for StopOnDrop<'_, R> {
    fn drop(&mut self) {
        lock_ordered(self.0).stopped = true;
        self.1.notify_all();
    }
}

/// The auto worker count: [`JOBS_ENV`] if parseable and positive,
/// otherwise available parallelism, otherwise 1.
fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The fair-share chunk of worker `w` under static partitioning of
/// `len` items over `workers`; claims outside it are steals.
fn fair_share(w: usize, workers: usize, len: usize) -> (usize, usize) {
    (w * len / workers, (w + 1) * len / workers)
}

/// Telemetry of a worker claiming item `i` of `len`: the queue wait
/// since it was `ready` for work, the remaining queue depth (gauge and
/// histogram), and a steal when `i` lies outside its `fair` chunk.
fn record_claim(
    telemetry: &Telemetry,
    i: usize,
    len: usize,
    fair: (usize, usize),
    ready: std::time::Instant,
) {
    if !telemetry.enabled() {
        return;
    }
    let waited = ready.elapsed().as_nanos();
    telemetry.record(
        "pool.task_wait_ns",
        u64::try_from(waited).unwrap_or(u64::MAX),
    );
    let depth = (len - i) as u64;
    telemetry.record("pool.queue_depth", depth);
    telemetry.gauge("pool.queue_depth", depth as i64);
    if i < fair.0 || i >= fair.1 {
        telemetry.count("pool.steals", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            let items: Vec<u64> = (0..257).collect();
            let out = pool.map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_matches_sequential_under_skew() {
        // Wildly uneven task costs must not affect result order.
        let items: Vec<u64> = (0..64).collect();
        let work = |_: usize, &x: &u64| {
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        };
        let seq = Pool::sequential().map(&items, work);
        let par = Pool::new(8).map(&items, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = Pool::new(3).map(&items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        assert!(pool.map(&[] as &[u8], |_, &x| x).is_empty());
        assert_eq!(pool.map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_means_auto() {
        assert!(Pool::new(0).jobs() >= 1);
        assert!(Pool::auto().jobs() >= 1);
        assert_eq!(Pool::sequential().jobs(), 1);
        assert!(!Pool::sequential().is_parallel());
        assert!(Pool::new(2).is_parallel());
    }

    #[test]
    fn map_ordered_consumes_in_input_order_with_a_bounded_window() {
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            let items: Vec<u64> = (0..300).collect();
            // Results computed but not yet consumed, and the most seen.
            let (pending, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut seen = Vec::new();
            pool.map_ordered(
                &items,
                |i, &x| {
                    assert_eq!(i as u64, x);
                    // Skewed costs: early items are the slowest.
                    std::thread::sleep(std::time::Duration::from_micros((300 - x) / 10));
                    let now = pending.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    x * 3
                },
                |i, r| {
                    pending.fetch_sub(1, Ordering::SeqCst);
                    seen.push((i, r));
                },
            );
            let expect: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * 3)).collect();
            assert_eq!(seen, expect, "jobs={jobs}");
            let bound = ORDERED_WINDOW * jobs;
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= bound,
                "jobs={jobs}: {peak} results held, window {bound}"
            );
        }
    }

    #[test]
    fn map_ordered_propagates_panics_from_either_side() {
        let items: Vec<u32> = (0..64).collect();
        for jobs in [1, 4] {
            let mut consumed = Vec::new();
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Pool::new(jobs).map_ordered(
                    &items,
                    |_, &x| {
                        if x == 17 {
                            panic!("boom on 17");
                        }
                        x
                    },
                    |_, x| consumed.push(x),
                )
            }));
            assert!(r.is_err(), "jobs={jobs}");
            // The batch stops early: the consumer saw an in-order prefix
            // of the items before the panicking one.
            let prefix: Vec<u32> = (0..consumed.len() as u32).collect();
            assert_eq!(consumed, prefix, "jobs={jobs}");
            assert!(consumed.len() <= 17, "jobs={jobs}");
            let r = std::panic::catch_unwind(|| {
                Pool::new(jobs).map_ordered(
                    &items,
                    |_, &x| x,
                    |_, x| {
                        if x == 5 {
                            panic!("consumer");
                        }
                    },
                )
            });
            assert!(r.is_err(), "jobs={jobs}: consumer panic");
        }
    }

    #[test]
    fn join_returns_both_results() {
        for jobs in [1, 4] {
            let pool = Pool::new(jobs);
            let (a, b) = pool.join(|| 2 + 2, || "ok".to_owned());
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn map_propagates_worker_panics() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map(&items, |_, &x| {
                if x == 17 {
                    panic!("boom on 17");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        let r = std::panic::catch_unwind(|| Pool::new(2).join(|| panic!("left"), || 1));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| Pool::new(2).join(|| 1, || panic!("right")));
        assert!(r.is_err());
    }

    #[test]
    fn telemetry_counts_batches_and_tasks() {
        use tracelens_obs::CollectingSink;
        let (t, sink) = CollectingSink::telemetry();
        let pool = Pool::new(2).with_telemetry(t);
        let _ = pool.map(&[1, 2, 3, 4], |_, &x: &i32| x);
        let report = sink.report();
        let json = report.to_json();
        assert!(json.contains("pool.tasks"), "{json}");
        assert!(json.contains("pool.worker_busy_ns"), "{json}");
    }

    #[test]
    fn telemetry_reports_contention_metrics() {
        use tracelens_obs::CollectingSink;
        let (t, sink) = CollectingSink::telemetry();
        let pool = Pool::new(3).with_telemetry(t);
        let items: Vec<u64> = (0..50).collect();
        let _ = pool.map(&items, |_, &x| x * 2);
        let report = sink.report();
        // Queue-wait time: one observation per claimed task.
        let waits = &report.metrics.histograms["pool.task_wait_ns"];
        assert_eq!(waits.n(), 50);
        // Every worker parks exactly once, when the queue drains.
        assert_eq!(report.metrics.counters["pool.parks"], 3);
        // The queue-depth gauge saw the final claims.
        assert!(report.metrics.gauges.contains_key("pool.queue_depth"));
        // Self-scheduling off a shared counter: claims outside the
        // static fair-share chunk are counted as steals (possibly zero
        // on an unloaded machine, but the counter must exist).
        let _ = report.metrics.counters.get("pool.steals");
    }

    #[test]
    fn map_ordered_reports_contention_metrics() {
        use std::sync::atomic::AtomicBool;
        use tracelens_obs::CollectingSink;
        let (t, sink) = CollectingSink::telemetry();
        let pool = Pool::new(2).with_telemetry(t);
        // Item 0 finishes only after item 1, so another worker claims
        // item 1 — whichever worker holds item 0, one of the two claims
        // lies outside its fair-share chunk: a steal.
        let second_done = AtomicBool::new(false);
        let mut seen = Vec::new();
        pool.map_ordered(
            &[0u32, 1, 2, 3],
            |i, &x| {
                if i == 0 {
                    while !second_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                if i == 1 {
                    second_done.store(true, Ordering::Release);
                }
                x
            },
            |_, x| seen.push(x),
        );
        assert_eq!(seen, [0, 1, 2, 3]);
        let report = sink.report();
        assert_eq!(report.metrics.histograms["pool.task_wait_ns"].n(), 4);
        assert_eq!(report.metrics.histograms["pool.queue_depth"].n(), 4);
        assert!(report.metrics.gauges.contains_key("pool.queue_depth"));
        assert!(report.metrics.counters["pool.steals"] >= 1);
        assert_eq!(report.metrics.counters["pool.parks"], 2);
    }

    /// Minimal recorder for the wait/wake protocol of `Pool::map`.
    #[derive(Default)]
    struct WaitLog {
        events: std::sync::Mutex<Vec<String>>,
    }

    impl tracelens_obs::TelemetrySink for WaitLog {
        fn span_enter(
            &self,
            _name: &'static str,
            _parent: Option<tracelens_obs::SpanId>,
        ) -> tracelens_obs::SpanId {
            tracelens_obs::SpanId(0)
        }
        fn span_exit(&self, _id: tracelens_obs::SpanId, _elapsed_ns: u64) {}
        fn counter_add(&self, _name: &'static str, _delta: u64) {}
        fn gauge_set(&self, _name: &'static str, _value: i64) {}
        fn histogram_record(&self, _name: &'static str, _value: u64) {}
        fn thread_token(&self) -> Option<u64> {
            Some(1)
        }
        fn wait_begin(&self, name: &'static str, _parent: Option<tracelens_obs::SpanId>) -> u64 {
            self.events.lock().unwrap().push(format!("wait {name}"));
            9
        }
        fn wait_end(&self, token: u64, _elapsed_ns: u64) {
            self.events.lock().unwrap().push(format!("end {token}"));
        }
        fn wake(&self, name: &'static str, target: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("wake {name} -> {target}"));
        }
    }

    #[test]
    fn parallel_batch_traces_one_join_wait_and_one_wake() {
        let sink = std::sync::Arc::new(WaitLog::default());
        let t = Telemetry::with_sink(
            std::sync::Arc::clone(&sink) as std::sync::Arc<dyn tracelens_obs::TelemetrySink>
        );
        let pool = Pool::new(4).with_telemetry(t);
        let items: Vec<u64> = (0..32).collect();
        let _ = pool.map(&items, |_, &x| x + 1);
        let events = sink.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec!["wait pool.join", "wake pool.join -> 1", "end 9"],
            "exactly one barrier wait, woken once by the last worker"
        );
    }

    #[test]
    fn sequential_batch_traces_no_waits() {
        let sink = std::sync::Arc::new(WaitLog::default());
        let t = Telemetry::with_sink(
            std::sync::Arc::clone(&sink) as std::sync::Arc<dyn tracelens_obs::TelemetrySink>
        );
        let pool = Pool::sequential().with_telemetry(t);
        let _ = pool.map(&[1u8, 2, 3], |_, &x| x);
        assert!(sink.events.lock().unwrap().is_empty());
    }
}
