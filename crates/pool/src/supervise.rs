//! Fail-operational execution: supervised parallel maps.
//!
//! [`Pool::map`](crate::Pool::map) propagates the first worker panic to
//! the caller — correct for internal invariant violations, fatal for a
//! fleet-scale study where a single pathological trace can poison one
//! analyzer unit out of thousands. [`Pool::supervised_map`] extends the
//! ingestion layer's repair-vs-quarantine philosophy to execution:
//!
//! * every unit runs under `catch_unwind`; a panic quarantines **that
//!   unit only** and surfaces as a typed [`UnitFailure`] instead of
//!   aborting the batch;
//! * panicked units are retried up to [`SupervisePolicy::max_retries`]
//!   times — the retry decision depends only on the unit and its
//!   attempt count, never on wall clock, so a deterministic workload
//!   yields a byte-identical outcome at every job count;
//! * an optional **soft deadline** bounds each attempt: a unit that
//!   finishes over budget has its result discarded and is quarantined
//!   as [`FailureReason::DeadlineExceeded`]. (Threads cannot be killed
//!   safely, so the deadline is detected after the fact — "soft" — and
//!   the recorded reason carries only the configured budget, not the
//!   measured wall time, keeping reports reproducible.)
//!
//! The batch outcome is an [`ExecutionReport`]: the execution-layer
//! sibling of the ingestion layer's `SanitizeReport`, accounting for
//! every unit the batch could not complete so partial results are never
//! mistaken for full ones.
//!
//! While a supervised batch is in flight the pool also installs a
//! scoped [panic hook](std::panic::set_hook) that replaces the default
//! multi-line backtrace dump of each quarantined unit with one
//! structured stderr line; panics on non-supervised threads are
//! delegated to the previously installed hook, which is restored when
//! the last supervised batch ends.

use crate::Pool;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe, PanicHookInfo};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a supervised batch treats misbehaving units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Soft per-attempt deadline. A unit whose attempt takes longer is
    /// quarantined (its computed result is discarded so slow and fast
    /// runs of the same workload stay distinguishable). `None` — the
    /// default — disables deadline accounting entirely, including its
    /// per-unit clock reads.
    pub unit_deadline: Option<Duration>,
    /// How many times a *panicked* unit is re-run before it is
    /// quarantined. Deadline-exceeded units are never retried: their
    /// result already exists and a retry would only double the stall.
    pub max_retries: usize,
}

impl Default for SupervisePolicy {
    /// No deadline, one retry.
    fn default() -> Self {
        SupervisePolicy {
            unit_deadline: None,
            max_retries: 1,
        }
    }
}

impl SupervisePolicy {
    /// Convenience constructor from CLI-shaped knobs: a deadline in
    /// milliseconds (`0` = none) and a retry bound.
    pub fn from_knobs(unit_deadline_ms: u64, max_retries: usize) -> SupervisePolicy {
        SupervisePolicy {
            unit_deadline: (unit_deadline_ms > 0).then(|| Duration::from_millis(unit_deadline_ms)),
            max_retries,
        }
    }
}

/// Why a unit was quarantined.
///
/// Deliberately contains no measured wall time: failure reasons are
/// rendered into reports that must be byte-identical across job counts
/// and checkpoint-resume boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// Every attempt panicked; `payload` is the final panic message
    /// (`&str`/`String` payloads verbatim, a placeholder otherwise).
    Panic {
        /// The panic payload rendered as text.
        payload: String,
    },
    /// The attempt completed but took longer than the configured soft
    /// deadline.
    DeadlineExceeded {
        /// The configured per-attempt budget.
        deadline: Duration,
    },
    /// The unit was shed by the admission controller before running:
    /// its estimated memory cost alone exceeds the batch budget and the
    /// governance policy does not allow degrading it (see
    /// [`crate::GovernPolicy`]).
    OverBudget {
        /// Estimated live bytes the unit would have held.
        estimated_bytes: u64,
        /// The configured batch budget.
        budget_bytes: u64,
    },
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::Panic { payload } => write!(f, "panic: {payload}"),
            FailureReason::DeadlineExceeded { deadline } => {
                write!(f, "exceeded soft deadline ({}ms)", deadline.as_millis())
            }
            FailureReason::OverBudget {
                estimated_bytes,
                budget_bytes,
            } => write!(
                f,
                "over budget: estimated {} KiB exceeds the {} KiB budget",
                estimated_bytes >> 10,
                budget_bytes >> 10
            ),
        }
    }
}

/// Caller-supplied description of one work unit, used to label its
/// [`UnitFailure`] if it is quarantined.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitMeta {
    /// Human-readable unit label, e.g. `scenario:BrowserTabCreate` or
    /// `stream:17`.
    pub unit: String,
    /// The scenario this unit analyzes, if scenario-scoped.
    pub scenario: Option<String>,
    /// The trace-stream id this unit analyzes, if stream-scoped.
    pub stream: Option<u32>,
    /// Scenario instances whose analysis this unit carries; lost if the
    /// unit is quarantined.
    pub instances: usize,
}

impl UnitMeta {
    /// A labelled unit with no further attribution.
    pub fn labeled(unit: impl Into<String>) -> UnitMeta {
        UnitMeta {
            unit: unit.into(),
            ..UnitMeta::default()
        }
    }

    /// Attaches the scenario name.
    pub fn for_scenario(mut self, scenario: impl Into<String>) -> UnitMeta {
        self.scenario = Some(scenario.into());
        self
    }

    /// Attaches the trace-stream id.
    pub fn for_stream(mut self, stream: u32) -> UnitMeta {
        self.stream = Some(stream);
        self
    }

    /// Records how many scenario instances ride on this unit.
    pub fn carrying(mut self, instances: usize) -> UnitMeta {
        self.instances = instances;
        self
    }
}

/// One quarantined unit: what failed, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitFailure {
    /// Position of the unit in its batch.
    pub index: usize,
    /// Pipeline stage of the batch (e.g. `impact`, `scenario`).
    pub stage: &'static str,
    /// Unit label from [`UnitMeta`].
    pub unit: String,
    /// Scenario attribution, if any.
    pub scenario: Option<String>,
    /// Trace-stream attribution, if any.
    pub stream: Option<u32>,
    /// Scenario instances lost with this unit.
    pub instances: usize,
    /// Why the unit was quarantined.
    pub reason: FailureReason,
    /// Attempts made (1 + retries actually performed).
    pub attempts: usize,
}

impl fmt::Display for UnitFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} (attempts: {})",
            self.unit, self.stage, self.reason, self.attempts
        )
    }
}

/// What a supervised batch (or a whole supervised study) completed and
/// what it had to give up — the execution-layer `SanitizeReport`.
///
/// Contains no wall-clock measurements, so two runs of the same
/// deterministic workload produce equal reports regardless of job
/// count, scheduling, or checkpoint resume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Work units supervised.
    pub units: usize,
    /// Units that produced a result, including [`restored`] ones and
    /// units that recovered on retry.
    ///
    /// [`restored`]: ExecutionReport::restored
    pub completed: usize,
    /// Completed units whose result was loaded from a checkpoint
    /// instead of executed (a subset of [`completed`]).
    ///
    /// [`completed`]: ExecutionReport::completed
    pub restored: usize,
    /// Units that panicked at least once but completed on a retry.
    pub recovered: usize,
    /// Retry attempts performed across all units.
    pub retries: usize,
    /// The quarantined units, in batch order.
    pub failures: Vec<UnitFailure>,
}

impl ExecutionReport {
    /// Quarantined unit count.
    pub fn quarantined(&self) -> usize {
        self.failures.len()
    }

    /// `true` when every unit completed on its first attempt.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.retries == 0
    }

    /// Fraction of units that produced a result, in `[0, 1]` (`1.0`
    /// for an empty batch).
    pub fn completion_rate(&self) -> f64 {
        if self.units == 0 {
            1.0
        } else {
            self.completed as f64 / self.units as f64
        }
    }

    /// Scenario instances lost with quarantined units.
    pub fn lost_instances(&self) -> usize {
        self.failures.iter().map(|f| f.instances).sum()
    }

    /// Merges another report (e.g. a later pipeline stage) into this
    /// one; failures keep their per-batch indices.
    pub fn absorb(&mut self, other: ExecutionReport) {
        self.units += other.units;
        self.completed += other.completed;
        self.restored += other.restored;
        self.recovered += other.recovered;
        self.retries += other.retries;
        self.failures.extend(other.failures);
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "supervised: {}/{} units completed ({} restored, {} recovered, \
             {} retries), {} quarantined",
            self.completed,
            self.units,
            self.restored,
            self.recovered,
            self.retries,
            self.quarantined()
        )?;
        for failure in &self.failures {
            write!(f, "\n  {failure}")?;
        }
        Ok(())
    }
}

/// Per-unit outcome of a supervised run, before batch aggregation.
struct UnitOutcome<R> {
    result: Result<R, FailureReason>,
    attempts: usize,
}

impl Pool {
    /// [`Pool::map`](crate::Pool::map) with panic isolation, bounded
    /// retry, and a soft per-unit deadline.
    ///
    /// Applies `f` to every item; the result vector holds `Some` for
    /// completed units (in input order, exactly as `map`) and `None`
    /// for quarantined ones, which the returned [`ExecutionReport`]
    /// accounts for with `meta(index, item)` attribution.
    ///
    /// Everything about the outcome is deterministic for deterministic
    /// `f` — retry decisions depend only on the unit and its attempt
    /// count — **except** deadline quarantines, which depend on real
    /// execution time; callers wanting reproducible deadline behavior
    /// must keep honest units far below the budget (the fault-injection
    /// tests sleep several multiples of it).
    pub fn supervised_map<T, R, F, M>(
        &self,
        items: &[T],
        stage: &'static str,
        policy: &SupervisePolicy,
        meta: M,
        f: F,
    ) -> (Vec<Option<R>>, ExecutionReport)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        M: Fn(usize, &T) -> UnitMeta,
    {
        let mut results = Vec::with_capacity(items.len());
        let report =
            self.supervised_map_ordered(items, stage, policy, meta, f, |_, r| results.push(r));
        (results, report)
    }

    /// [`Pool::supervised_map`] that hands each unit's result — `None`
    /// for a quarantined unit — to `consume` in input order as soon as
    /// it is ready, instead of collecting them: the supervised
    /// counterpart of [`Pool::map_ordered`], with the same bound on how
    /// many results are held at once.
    pub fn supervised_map_ordered<T, R, F, M, C>(
        &self,
        items: &[T],
        stage: &'static str,
        policy: &SupervisePolicy,
        meta: M,
        f: F,
        mut consume: C,
    ) -> ExecutionReport
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        M: Fn(usize, &T) -> UnitMeta,
        C: FnMut(usize, Option<R>),
    {
        let _span = self.telemetry().span(tracelens_obs::stage::SUPERVISE);
        let _hook = PanicIsolation::install();
        let mut report = ExecutionReport {
            units: items.len(),
            ..ExecutionReport::default()
        };
        self.map_ordered(
            items,
            |i, item| run_unit(i, item, policy, &f),
            |index, outcome| {
                report.retries += outcome.attempts - 1;
                match outcome.result {
                    Ok(r) => {
                        report.completed += 1;
                        if outcome.attempts > 1 {
                            report.recovered += 1;
                        }
                        consume(index, Some(r));
                    }
                    Err(reason) => {
                        let m = meta(index, &items[index]);
                        report.failures.push(UnitFailure {
                            index,
                            stage,
                            unit: m.unit,
                            scenario: m.scenario,
                            stream: m.stream,
                            instances: m.instances,
                            reason,
                            attempts: outcome.attempts,
                        });
                        consume(index, None);
                    }
                }
            },
        );
        let telemetry = self.telemetry();
        if telemetry.enabled() {
            telemetry.count("supervisor.units", report.units as u64);
            telemetry.count("supervisor.completed", report.completed as u64);
            telemetry.count("supervisor.retries", report.retries as u64);
            telemetry.count("supervisor.recovered", report.recovered as u64);
            telemetry.count("supervisor.quarantined", report.quarantined() as u64);
            let deadline = report
                .failures
                .iter()
                .filter(|u| matches!(u.reason, FailureReason::DeadlineExceeded { .. }))
                .count();
            telemetry.count("supervisor.deadline_exceeded", deadline as u64);
            telemetry.count(
                "supervisor.panics",
                (report.quarantined() - deadline) as u64,
            );
        }
        report
    }
}

/// Runs one unit under the policy: catch, time, retry.
fn run_unit<T, R, F>(index: usize, item: &T, policy: &SupervisePolicy, f: &F) -> UnitOutcome<R>
where
    F: Fn(usize, &T) -> R,
{
    let mut attempts = 0;
    loop {
        attempts += 1;
        let started = policy.unit_deadline.map(|_| Instant::now());
        let attempt = {
            let _unit = SupervisedUnitScope::enter();
            catch_unwind(AssertUnwindSafe(|| f(index, item)))
        };
        match attempt {
            Ok(result) => {
                if let (Some(deadline), Some(started)) = (policy.unit_deadline, started) {
                    if started.elapsed() > deadline {
                        return UnitOutcome {
                            result: Err(FailureReason::DeadlineExceeded { deadline }),
                            attempts,
                        };
                    }
                }
                return UnitOutcome {
                    result: Ok(result),
                    attempts,
                };
            }
            Err(payload) => {
                if attempts > policy.max_retries {
                    return UnitOutcome {
                        result: Err(FailureReason::Panic {
                            payload: payload_text(payload.as_ref()),
                        }),
                        attempts,
                    };
                }
                // Retry: the decision depends only on the attempt count,
                // so a deterministic unit fails (or recovers) identically
                // at every job count.
            }
        }
    }
}

/// Renders a panic payload as text (`&str` / `String` verbatim).
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

thread_local! {
    /// Whether the current thread is inside a supervised unit attempt —
    /// the panic hook consults this to decide between the structured
    /// one-liner and delegation to the previous hook.
    static IN_SUPERVISED_UNIT: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker for "this thread is executing a supervised unit".
struct SupervisedUnitScope;

impl SupervisedUnitScope {
    fn enter() -> SupervisedUnitScope {
        IN_SUPERVISED_UNIT.with(|c| c.set(true));
        SupervisedUnitScope
    }
}

impl Drop for SupervisedUnitScope {
    fn drop(&mut self) {
        IN_SUPERVISED_UNIT.with(|c| c.set(false));
    }
}

type PanicHook = Box<dyn Fn(&PanicHookInfo<'_>) + Send + Sync>;

/// Process-wide isolation state: how many supervised batches are in
/// flight and the hook that was installed before the first of them.
struct IsolationState {
    depth: usize,
    previous: Option<PanicHook>,
}

static ISOLATION: Mutex<IsolationState> = Mutex::new(IsolationState {
    depth: 0,
    previous: None,
});

fn isolation_state() -> std::sync::MutexGuard<'static, IsolationState> {
    // A panicking supervised unit cannot poison this lock (the hook
    // only reads), but stay robust anyway.
    ISOLATION.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scoped panic-hook replacement: one structured stderr line per
/// supervised-unit panic instead of the default multi-line backtrace;
/// panics elsewhere delegate to the previously installed hook, which is
/// restored when the last concurrent guard drops.
struct PanicIsolation;

impl PanicIsolation {
    fn install() -> PanicIsolation {
        let mut state = isolation_state();
        state.depth += 1;
        if state.depth == 1 {
            state.previous = Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|info| {
                if IN_SUPERVISED_UNIT.with(|c| c.get()) {
                    let location = info
                        .location()
                        .map(|l| l.to_string())
                        .unwrap_or_else(|| "<unknown>".to_owned());
                    eprintln!(
                        "tracelens-pool: supervised unit panicked at {location}: {} \
                         (unit quarantined; backtrace suppressed)",
                        payload_text(info.payload())
                    );
                } else if let Some(previous) = &isolation_state().previous {
                    previous(info);
                }
            }));
        }
        PanicIsolation
    }
}

impl Drop for PanicIsolation {
    fn drop(&mut self) {
        let mut state = isolation_state();
        state.depth -= 1;
        if state.depth == 0 {
            if let Some(previous) = state.previous.take() {
                drop(state); // set_hook must not run under the lock
                std::panic::set_hook(previous);
            }
        }
    }
}

/// The panic hook is process-global and the test harness runs tests
/// concurrently: tests that run supervised batches (here and in the
/// `govern` module) take this in read mode; the hook-restoration test
/// takes it in write mode so it observes the hook with no other batch
/// in flight.
#[cfg(test)]
pub(crate) mod test_gate {
    use std::sync::RwLock;

    pub(crate) static HOOK_GATE: RwLock<()> = RwLock::new(());

    pub(crate) fn batch_gate() -> std::sync::RwLockReadGuard<'static, ()> {
        HOOK_GATE.read().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::test_gate::{batch_gate, HOOK_GATE};
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn no_meta<T>(i: usize, _: &T) -> UnitMeta {
        UnitMeta::labeled(format!("unit:{i}"))
    }

    #[test]
    fn supervised_map_ordered_reports_contention_metrics() {
        use std::sync::atomic::AtomicBool;
        use tracelens_obs::CollectingSink;
        let _gate = batch_gate();
        let (t, sink) = CollectingSink::telemetry();
        let pool = Pool::new(2).with_telemetry(t);
        // As in `map_ordered_reports_contention_metrics`: item 1 must be
        // claimed while item 0 is running, which forces a steal.
        let second_done = AtomicBool::new(false);
        let mut seen = Vec::new();
        let report = pool.supervised_map_ordered(
            &[0u32, 1, 2, 3],
            "test",
            &SupervisePolicy::default(),
            no_meta,
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
        assert!(report.is_clean());
        assert_eq!(seen, [Some(0), Some(1), Some(2), Some(3)]);
        let metrics = sink.report().metrics;
        assert_eq!(metrics.histograms["pool.queue_depth"].n(), 4);
        assert!(metrics.gauges.contains_key("pool.queue_depth"));
        assert!(metrics.counters["pool.steals"] >= 1);
    }

    #[test]
    fn clean_batch_completes_everything() {
        let _gate = batch_gate();
        for jobs in [1, 4] {
            let items: Vec<u32> = (0..40).collect();
            let (results, report) = Pool::new(jobs).supervised_map(
                &items,
                "test",
                &SupervisePolicy::default(),
                no_meta,
                |_, &x| x * 2,
            );
            let values: Vec<u32> = results.into_iter().map(|r| r.unwrap()).collect();
            let expect: Vec<u32> = items.iter().map(|x| x * 2).collect();
            assert_eq!(values, expect, "jobs={jobs}");
            assert!(report.is_clean());
            assert_eq!(report.completed, 40);
            assert_eq!(report.completion_rate(), 1.0);
        }
    }

    #[test]
    fn panicking_units_are_quarantined_not_fatal() {
        let _gate = batch_gate();
        let items: Vec<u32> = (0..32).collect();
        let policy = SupervisePolicy {
            max_retries: 0,
            ..SupervisePolicy::default()
        };
        for jobs in [1, 2, 8] {
            let (results, report) =
                Pool::new(jobs).supervised_map(&items, "test", &policy, no_meta, |_, &x| {
                    if x % 10 == 3 {
                        panic!("poisoned unit {x}");
                    }
                    x
                });
            assert_eq!(results.iter().filter(|r| r.is_none()).count(), 3);
            assert_eq!(report.quarantined(), 3, "jobs={jobs}");
            assert_eq!(report.completed, 29);
            let f = &report.failures[0];
            assert_eq!(f.index, 3);
            assert_eq!(f.unit, "unit:3");
            assert_eq!(f.stage, "test");
            assert_eq!(
                f.reason,
                FailureReason::Panic {
                    payload: "poisoned unit 3".to_owned()
                }
            );
            assert_eq!(f.attempts, 1);
        }
    }

    #[test]
    fn outcome_is_identical_at_every_job_count() {
        let _gate = batch_gate();
        let items: Vec<u32> = (0..64).collect();
        let policy = SupervisePolicy {
            max_retries: 2,
            ..SupervisePolicy::default()
        };
        let run = |jobs: usize| {
            Pool::new(jobs).supervised_map(&items, "test", &policy, no_meta, |_, &x| {
                if x % 7 == 5 {
                    panic!("always fails: {x}");
                }
                x + 1
            })
        };
        let (seq_results, seq_report) = run(1);
        for jobs in [2, 8] {
            let (results, report) = run(jobs);
            assert_eq!(results, seq_results, "jobs={jobs}");
            assert_eq!(report, seq_report, "jobs={jobs}");
        }
        // Every quarantined unit exhausted 1 + max_retries attempts.
        assert!(seq_report.failures.iter().all(|f| f.attempts == 3));
        assert_eq!(seq_report.retries, seq_report.quarantined() * 2);
    }

    #[test]
    fn flaky_units_recover_on_retry() {
        let _gate = batch_gate();
        let items: Vec<u32> = (0..8).collect();
        let failures = AtomicUsize::new(0);
        let policy = SupervisePolicy {
            max_retries: 1,
            ..SupervisePolicy::default()
        };
        // Unit 4 panics on its first attempt only.
        let (results, report) =
            Pool::sequential().supervised_map(&items, "test", &policy, no_meta, |_, &x| {
                if x == 4 && failures.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                x
            });
        assert!(results.iter().all(|r| r.is_some()));
        assert_eq!(report.quarantined(), 0);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.retries, 1);
        assert!(!report.is_clean(), "a retry happened");
    }

    #[test]
    fn slow_units_exceed_the_soft_deadline() {
        let _gate = batch_gate();
        let items: Vec<u32> = (0..6).collect();
        let policy = SupervisePolicy {
            unit_deadline: Some(Duration::from_millis(40)),
            max_retries: 3,
        };
        let (results, report) =
            Pool::new(3).supervised_map(&items, "test", &policy, no_meta, |_, &x| {
                if x == 2 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                x
            });
        assert!(results[2].is_none(), "slow unit result is discarded");
        assert_eq!(results.iter().filter(|r| r.is_some()).count(), 5);
        assert_eq!(report.quarantined(), 1);
        let f = &report.failures[0];
        assert_eq!(
            f.reason,
            FailureReason::DeadlineExceeded {
                deadline: Duration::from_millis(40)
            }
        );
        assert_eq!(f.attempts, 1, "deadline quarantine never retries");
        assert_eq!(
            f.to_string(),
            "unit:2 [test] exceeded soft deadline (40ms) (attempts: 1)"
        );
    }

    #[test]
    fn meta_attribution_reaches_the_failure() {
        let _gate = batch_gate();
        let items = ["a", "b"];
        let policy = SupervisePolicy {
            max_retries: 0,
            ..SupervisePolicy::default()
        };
        let (_, report) = Pool::sequential().supervised_map(
            &items,
            "scenario",
            &policy,
            |i, s: &&str| {
                UnitMeta::labeled(format!("scenario:{s}"))
                    .for_scenario(*s)
                    .for_stream(i as u32)
                    .carrying(7)
            },
            |_, s: &&str| {
                if *s == "b" {
                    panic!("bad scenario");
                }
                1
            },
        );
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert_eq!(f.unit, "scenario:b");
        assert_eq!(f.scenario.as_deref(), Some("b"));
        assert_eq!(f.stream, Some(1));
        assert_eq!(f.instances, 7);
        assert_eq!(report.lost_instances(), 7);
    }

    #[test]
    fn panic_hook_is_restored_after_the_batch() {
        let _gate = HOOK_GATE.write().unwrap_or_else(|e| e.into_inner());
        // Install a sentinel hook, run a supervised batch with panics,
        // then panic outside supervision: the sentinel must fire.
        let hits = std::sync::Arc::new(AtomicUsize::new(0));
        {
            let hits = std::sync::Arc::clone(&hits);
            let _ = std::panic::take_hook(); // drop whatever the harness had
            std::panic::set_hook(Box::new(move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let items = [1u32, 2, 3];
        let policy = SupervisePolicy {
            max_retries: 0,
            ..SupervisePolicy::default()
        };
        let (_, report) = Pool::new(2).supervised_map(&items, "test", &policy, no_meta, |_, &x| {
            if x == 2 {
                panic!("supervised panic");
            }
            x
        });
        assert_eq!(report.quarantined(), 1);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            0,
            "supervised panics must not reach the previous hook"
        );
        let unsupervised = std::panic::catch_unwind(|| panic!("outside"));
        assert!(unsupervised.is_err());
        assert_eq!(
            hits.load(Ordering::Relaxed),
            1,
            "the previous hook must be restored after the batch"
        );
        let _ = std::panic::take_hook();
    }

    #[test]
    fn execution_report_absorb_and_display() {
        let mut a = ExecutionReport {
            units: 3,
            completed: 2,
            restored: 1,
            recovered: 0,
            retries: 1,
            failures: vec![UnitFailure {
                index: 2,
                stage: "impact",
                unit: "stream:9".to_owned(),
                scenario: None,
                stream: Some(9),
                instances: 4,
                reason: FailureReason::Panic {
                    payload: "boom".to_owned(),
                },
                attempts: 2,
            }],
        };
        let b = ExecutionReport {
            units: 2,
            completed: 2,
            ..ExecutionReport::default()
        };
        a.absorb(b);
        assert_eq!(a.units, 5);
        assert_eq!(a.completed, 4);
        assert_eq!(a.quarantined(), 1);
        assert_eq!(a.lost_instances(), 4);
        assert!((a.completion_rate() - 0.8).abs() < 1e-12);
        let text = a.to_string();
        assert!(text.contains("4/5 units completed"), "{text}");
        assert!(text.contains("stream:9 [impact] panic: boom"), "{text}");
        assert!(ExecutionReport::default().is_clean());
        assert_eq!(ExecutionReport::default().completion_rate(), 1.0);
    }

    #[test]
    fn empty_batch_is_clean() {
        let _gate = batch_gate();
        let (results, report) = Pool::new(4).supervised_map(
            &[] as &[u8],
            "test",
            &SupervisePolicy::default(),
            no_meta,
            |_, &x| x,
        );
        assert!(results.is_empty());
        assert!(report.is_clean());
        assert_eq!(report.units, 0);
    }
}
