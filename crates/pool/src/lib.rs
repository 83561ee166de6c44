//! # tracelens-pool
//!
//! A zero-dependency parallel execution layer for the analysis pipeline:
//! std-only (`std::thread` + atomics), deterministic, and aware of the
//! `--jobs N` / `TRACELENS_JOBS` knob every tracelens binary honors.
//!
//! The pool has one scheduler, [`Pool::map_ordered`]: apply a function
//! to every item of a slice on `jobs` worker threads and hand the
//! results to a consumer on the calling thread **in input order**, so a
//! parallel run is byte-identical to a sequential one as long as the
//! function itself is deterministic. Workers run at most
//! [`ORDERED_WINDOW`]` × jobs` items ahead of the consumer.
//! [`Pool::map`] collects the results into a vector and, as it keeps
//! every result anyway, lets the workers run ahead without bound; the
//! supervised maps ([`Pool::supervised_map`],
//! [`Pool::supervised_map_ordered`]) add panic isolation, retries and
//! deadlines on top. Work distribution is self-scheduling (workers
//! claim the next unclaimed index from a shared atomic counter), which
//! load-balances skewed item costs the way a work-stealing deque would
//! for this fan-out/fan-in shape, without unsafe code or per-item
//! channels.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results are consumed in input order; nothing
//!    about thread scheduling can leak into the output.
//! 2. **Sequential fidelity.** A pool with `jobs == 1` never spawns a
//!    thread: a batch degenerates to a plain loop on the calling thread,
//!    so the `--jobs 1` path *is* the sequential implementation, not a
//!    single-threaded simulation of the parallel one.
//! 3. **Zero dependencies.** Scoped threads (`std::thread::scope`) let
//!    workers borrow the items and the closures directly; no channels,
//!    no `'static` bounds.
//!
//! Telemetry: a pool built [`Pool::with_telemetry`] reports, for every
//! batch, `pool.tasks` / `pool.batches` / `pool.steals` / `pool.parks`
//! counters, a `pool.queue_depth` gauge and histogram (remaining items
//! observed at each claim), a `pool.task_wait_ns` queue-wait histogram
//! (ready-to-claim gaps per worker), and a `pool.worker_busy_ns`
//! per-worker busy-time histogram, so stage timings can be split per
//! worker in the run report. When the sink is an event recorder (the
//! `selftrace` crate), a parallel batch also traces one `pool.join`
//! wait each time the consumer blocks on the next result, woken by the
//! worker that completes the run of results it waits for: the
//! ETW-shaped wait/unwait edge the wait-graph meta-analysis pairs up.

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
/// batch, so an idle pool holds no OS resources.
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

    /// A single-worker pool: every batch runs inline on the calling
    /// thread. This is the exact sequential pipeline, the `--jobs 1`
    /// path.
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

    /// Applies `f` to every item and returns the results in input order:
    /// the scheduler of [`Pool::map_ordered`] with a consumer that
    /// collects them and no look-ahead bound.
    ///
    /// `f` receives `(index, &item)`; it must be deterministic for the
    /// parallel and sequential paths to agree. A panic inside `f` stops
    /// the batch and is propagated to the caller.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut results = Vec::with_capacity(items.len());
        // Every result is kept anyway, so the look-ahead spans the whole
        // batch: the workers never wait for the consumer, which sleeps
        // until every result is ready.
        self.ordered(items, items.len(), f, |_, r| results.push(r));
        results
    }

    /// Applies `f` to every item and hands each result to `consume` in
    /// input order, as soon as it and every earlier result are ready:
    /// the pool's one scheduler, which [`Pool::map`] and the supervised
    /// maps wrap.
    ///
    /// `consume` runs on the calling thread, so it may fold results into
    /// unsynchronized state. Workers run at most
    /// [`ORDERED_WINDOW`]` × jobs` items ahead of the consumer: a fold
    /// over large per-item results holds a bounded number of them at
    /// any time, whatever the item count. With `jobs == 1` each result
    /// is consumed right after it is computed. A panic in `f` stops the
    /// batch and is propagated to the caller; `consume` has then seen an
    /// in-order prefix of the results before the panicking item.
    pub fn map_ordered<T, R, F, C>(&self, items: &[T], f: F, consume: C)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        C: FnMut(usize, R),
    {
        self.ordered(items, ORDERED_WINDOW, f, consume);
    }

    /// The scheduler behind [`Pool::map_ordered`], with workers running
    /// at most `ahead × workers` items ahead of the consumer.
    fn ordered<T, R, F, C>(&self, items: &[T], ahead: usize, f: F, mut consume: C)
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
        let window = ahead.saturating_mul(workers);
        // A blocked consumer is woken once the results from the one it
        // waits for up to half a window on (or to the end) are ready,
        // not for each result: a wake-up per item costs a context switch
        // per item when the consumer is cheap. The other half of the
        // window keeps the workers busy meanwhile.
        let wake_run = window / 2;
        let next = AtomicUsize::new(0);
        let state = Mutex::new(Ordered {
            ready: BTreeMap::new(),
            frontier: 0,
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
                        while i >= st.consumed.saturating_add(window) && !st.stopped {
                            st = freed.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                        if st.stopped {
                            break;
                        }
                        drop(st);
                        let out = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                        let mut st = lock();
                        // Wake the consumer only when it is blocked and the
                        // run it waits for is complete, or on any item
                        // after a panic: one traced wake per traced wait.
                        let wake = match out {
                            Ok(r) => {
                                st.ready.insert(i, r);
                                while st.ready.contains_key(&st.frontier) {
                                    st.frontier += 1;
                                }
                                st.awaited.is_some_and(|k| {
                                    st.frontier >= k.saturating_add(wake_run).min(items.len())
                                })
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
                if !st.ready.contains_key(&k) && !st.stopped {
                    st.awaited = Some(k);
                    let _wait = telemetry.wait(waitpoint::POOL_JOIN);
                    // The worker that clears `awaited` traces the wake;
                    // a spurious wakeup stays inside the same traced wait.
                    st = produced
                        .wait_while(st, |st| st.awaited.is_some())
                        .unwrap_or_else(|e| e.into_inner());
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
}

/// How many items per worker [`Pool::map_ordered`] may run ahead of its
/// consumer.
pub const ORDERED_WINDOW: usize = 4;

/// Shared state of one [`Pool::map_ordered`] batch.
struct Ordered<R> {
    /// Finished results not yet consumed, by item index.
    ready: BTreeMap<usize, R>,
    /// The first item whose result is not ready: every item below it is
    /// ready or consumed.
    frontier: usize,
    /// Items fully consumed so far: workers may start item `i` only
    /// while `i < consumed + window`, so at most `window` results are
    /// alive at once — running, waiting, or in the consumer's hands.
    consumed: usize,
    /// The item the consumer is blocked on, if it is; it is woken once
    /// the results from this item on are ready for half a window.
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

    /// Minimal recorder for the pool's wait/wake protocol.
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

    /// The traced wait/wake events of one parallel batch over 64 items
    /// with skewed costs, through `map` or `map_ordered`.
    fn traced_batch(jobs: usize, ordered: bool) -> Vec<String> {
        let sink = std::sync::Arc::new(WaitLog::default());
        let t = Telemetry::with_sink(
            std::sync::Arc::clone(&sink) as std::sync::Arc<dyn tracelens_obs::TelemetrySink>
        );
        let pool = Pool::new(jobs).with_telemetry(t);
        let items: Vec<u64> = (0..64).collect();
        let f = |i: usize, &x: &u64| {
            if i == 0 {
                // Hold the first item until the consumer blocks on it,
                // so every batch traces at least one wait.
                while !sink
                    .events
                    .lock()
                    .unwrap()
                    .iter()
                    .any(|e| e.starts_with("wait"))
                {
                    std::thread::yield_now();
                }
            }
            // Skewed costs: every third item is slow.
            if x % 3 == 1 {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            x + 1
        };
        let out = if ordered {
            let mut out = Vec::new();
            pool.map_ordered(&items, f, |_, r| out.push(r));
            out
        } else {
            pool.map(&items, f)
        };
        assert_eq!(out, (1..=64).collect::<Vec<u64>>(), "jobs={jobs}");
        let events = sink.events.lock().unwrap().clone();
        events
    }

    #[test]
    fn every_traced_join_wait_gets_one_wake_before_it_ends() {
        let edge = ["wait pool.join", "wake pool.join -> 1", "end 9"];
        for jobs in [2, 4] {
            // `map` keeps every result, so its consumer waits once, for
            // all of them.
            assert_eq!(traced_batch(jobs, false), edge, "jobs={jobs}");
            let events = traced_batch(jobs, true);
            let count = |prefix: &str| events.iter().filter(|e| e.starts_with(prefix)).count();
            assert!(count("wait") >= 1, "jobs={jobs}: {events:?}");
            assert_eq!(count("wait"), count("wake"), "jobs={jobs}: {events:?}");
            for traced in events.chunks(3) {
                assert_eq!(
                    traced, edge,
                    "jobs={jobs}: every wait is woken exactly once before it ends"
                );
            }
        }
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
