//! The [`Telemetry`] handle and the sink behind it.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Identifier of one span instance within a sink, unique per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// Where telemetry events go.
///
/// Implementations must be cheap and non-blocking: sinks are called
/// from the middle of the analysis pipeline's hot loops.
///
/// The wait/wake/thread methods have do-nothing defaults so ordinary
/// aggregating sinks ignore them; an event recorder (the `selftrace`
/// crate) overrides them to capture the ETW-shaped wait/unwait edges
/// the wait-graph meta-analysis is built from.
pub trait TelemetrySink: Send + Sync {
    /// Called when a span opens; returns the id used at exit.
    fn span_enter(&self, name: &'static str, parent: Option<SpanId>) -> SpanId;

    /// Called when the span guard drops, with the measured wall time.
    fn span_exit(&self, id: SpanId, elapsed_ns: u64);

    /// Adds to a named counter.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Sets a named gauge.
    fn gauge_set(&self, name: &'static str, value: i64);

    /// Records one histogram observation.
    fn histogram_record(&self, name: &'static str, value: u64);

    /// Binds the calling thread to a stable role identity (e.g.
    /// `("worker", slot)`), so an event recorder can assign it a
    /// reproducible virtual thread id.
    fn thread_bind(&self, _role: &'static str, _slot: u32) {}

    /// A sink-assigned stable token for the calling thread, used as the
    /// wake target in [`TelemetrySink::wake`]. `None` for sinks that do
    /// not track threads.
    fn thread_token(&self) -> Option<u64> {
        None
    }

    /// Called when the calling thread starts blocking at the named wait
    /// point; returns a token handed back to [`TelemetrySink::wait_end`].
    fn wait_begin(&self, _name: &'static str, _parent: Option<SpanId>) -> u64 {
        0
    }

    /// Called when the wait that produced `token` ends.
    fn wait_end(&self, _token: u64, _elapsed_ns: u64) {}

    /// Called when the calling thread signals (unwaits) the thread whose
    /// [`TelemetrySink::thread_token`] is `target`.
    fn wake(&self, _name: &'static str, _target: u64) {}

    /// Called when the calling thread adopts `parent`, a span open on
    /// another thread, as the parent of its own spans
    /// ([`Telemetry::adopt`]), and with `None` when it lets go. Event
    /// recorders attribute the thread's running time in between to the
    /// adopted stage.
    fn thread_adopt(&self, _parent: Option<SpanId>) {}
}

/// A sink that drops everything.
///
/// Exists so APIs taking `Arc<dyn TelemetrySink>` have an explicit
/// do-nothing value; [`Telemetry::noop`] is cheaper still (no sink at
/// all) and is what instrumented code paths should default to.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn span_enter(&self, _name: &'static str, _parent: Option<SpanId>) -> SpanId {
        SpanId(0)
    }
    fn span_exit(&self, _id: SpanId, _elapsed_ns: u64) {}
    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    fn gauge_set(&self, _name: &'static str, _value: i64) {}
    fn histogram_record(&self, _name: &'static str, _value: u64) {}
}

thread_local! {
    /// Stack of open spans on this thread; the top is the parent of
    /// the next span. Only touched when a sink is attached.
    static SPAN_STACK: RefCell<Vec<(SpanId, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span on a thread: what a worker thread adopts
/// ([`Telemetry::adopt`]) so its spans nest under the stage that spawned
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Id of the open span.
    pub id: SpanId,
    /// Its name.
    pub name: &'static str,
}

/// A cheap, cloneable handle the pipeline threads through its layers.
///
/// The disabled handle ([`Telemetry::noop`], also `Default`) holds no
/// sink: every operation is a branch on an `Option` and returns
/// immediately — no allocation, no atomics, no thread-local access. An
/// enabled handle forwards to its [`TelemetrySink`].
///
/// Spans nest lexically per thread: the innermost open span on the
/// current thread becomes the parent of the next one.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Telemetry {
    /// The disabled handle — the default for every instrumented API.
    pub fn noop() -> Telemetry {
        Telemetry { sink: None }
    }

    /// A handle that forwards to `sink`.
    pub fn with_sink(sink: Arc<dyn TelemetrySink>) -> Telemetry {
        Telemetry { sink: Some(sink) }
    }

    /// Whether events are being recorded. Callers can use this to skip
    /// preparing expensive event payloads.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a named span; it closes (and reports its wall time) when
    /// the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(sink) = &self.sink else {
            return SpanGuard { open: None };
        };
        let parent = SPAN_STACK.with(|s| s.borrow().last().map(|&(id, _)| id));
        let id = sink.span_enter(name, parent);
        SPAN_STACK.with(|s| s.borrow_mut().push((id, name)));
        SpanGuard {
            open: Some(OpenSpan {
                sink: Arc::clone(sink),
                id,
                start: Instant::now(),
                opened_on: std::thread::current().id(),
            }),
        }
    }

    /// The innermost open span on the calling thread, if any.
    pub fn current_span(&self) -> Option<SpanContext> {
        self.sink.as_ref()?;
        SPAN_STACK.with(|s| {
            s.borrow()
                .last()
                .map(|&(id, name)| SpanContext { id, name })
        })
    }

    /// Makes `cx` — a spawner's [`Telemetry::current_span`] — the
    /// parent of the spans the calling (worker) thread opens until the
    /// returned guard drops. Nothing is reported to the sink: the span
    /// tree has the same shape whether a stage's work ran on the
    /// spawning thread or on a pool worker.
    pub fn adopt(&self, cx: SpanContext) -> AdoptGuard {
        let Some(sink) = &self.sink else {
            return AdoptGuard { adopted: None };
        };
        SPAN_STACK.with(|s| s.borrow_mut().push((cx.id, cx.name)));
        sink.thread_adopt(Some(cx.id));
        AdoptGuard {
            adopted: Some((Arc::clone(sink), cx.id)),
        }
    }

    /// Marks the calling thread as blocking at the named wait point
    /// until the returned guard drops. Free on a disabled handle and on
    /// sinks that keep the default no-op wait hooks.
    pub fn wait(&self, name: &'static str) -> WaitGuard {
        let Some(sink) = &self.sink else {
            return WaitGuard { open: None };
        };
        let parent = SPAN_STACK.with(|s| s.borrow().last().map(|&(id, _)| id));
        let token = sink.wait_begin(name, parent);
        WaitGuard {
            open: Some(OpenWait {
                sink: Arc::clone(sink),
                token,
                start: Instant::now(),
            }),
        }
    }

    /// Records that the calling thread signalled (unwaited) the thread
    /// whose [`Telemetry::thread_token`] is `target`.
    pub fn wake(&self, name: &'static str, target: u64) {
        if let Some(sink) = &self.sink {
            sink.wake(name, target);
        }
    }

    /// Binds the calling thread to a stable role/slot identity for
    /// event recorders (no-op on other sinks).
    pub fn bind_thread(&self, role: &'static str, slot: u32) {
        if let Some(sink) = &self.sink {
            sink.thread_bind(role, slot);
        }
    }

    /// The sink-assigned token of the calling thread, used as a wake
    /// target. `None` on disabled handles and non-recording sinks.
    pub fn thread_token(&self) -> Option<u64> {
        self.sink.as_ref().and_then(|sink| sink.thread_token())
    }

    /// Adds `delta` to the counter `name`.
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter_add(name, delta);
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge(&self, name: &'static str, value: i64) {
        if let Some(sink) = &self.sink {
            sink.gauge_set(name, value);
        }
    }

    /// Records `value` into the histogram `name`.
    pub fn record(&self, name: &'static str, value: u64) {
        if let Some(sink) = &self.sink {
            sink.histogram_record(name, value);
        }
    }
}

struct OpenSpan {
    sink: Arc<dyn TelemetrySink>,
    id: SpanId,
    start: Instant,
    opened_on: std::thread::ThreadId,
}

/// Closes its span on drop.
///
/// Hold it in a named binding (`let _span = t.span(...)`) — binding to
/// `_` drops immediately and records a zero-length span.
#[must_use = "a span closes when its guard drops; bind it to a named variable"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            // A guard dropped on a foreign thread pops nothing from the
            // opener's span stack, so the opener's elapsed time would be
            // double-accounted under whatever span is open there.
            debug_assert_eq!(
                open.opened_on,
                std::thread::current().id(),
                "SpanGuard must drop on the thread that opened it"
            );
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Guards normally drop in LIFO order; if user code holds
                // one across a sibling's lifetime, remove by id instead
                // of corrupting the stack.
                if stack.last().map(|&(id, _)| id) == Some(open.id) {
                    stack.pop();
                } else if let Some(i) = stack.iter().rposition(|&(id, _)| id == open.id) {
                    stack.remove(i);
                }
            });
            let elapsed = open.start.elapsed().as_nanos();
            open.sink
                .span_exit(open.id, u64::try_from(elapsed).unwrap_or(u64::MAX));
        }
    }
}

/// Ends a [`Telemetry::adopt`] on drop.
#[must_use = "an adopted parent is released when its guard drops; bind it to a named variable"]
pub struct AdoptGuard {
    adopted: Option<(Arc<dyn TelemetrySink>, SpanId)>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some((sink, id)) = self.adopted.take() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(i) = stack.iter().rposition(|&(open, _)| open == id) {
                    stack.remove(i);
                }
            });
            sink.thread_adopt(None);
        }
    }
}

struct OpenWait {
    sink: Arc<dyn TelemetrySink>,
    token: u64,
    start: Instant,
}

/// Ends its wait interval on drop, reporting the measured blocked time
/// to [`TelemetrySink::wait_end`].
#[must_use = "a wait ends when its guard drops; bind it to a named variable"]
pub struct WaitGuard {
    open: Option<OpenWait>,
}

impl Drop for WaitGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let elapsed = open.start.elapsed().as_nanos();
            open.sink
                .wait_end(open.token, u64::try_from(elapsed).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records the raw call sequence for assertions.
    #[derive(Default)]
    struct LogSink {
        next: std::sync::atomic::AtomicU64,
        events: Mutex<Vec<String>>,
    }

    impl TelemetrySink for LogSink {
        fn span_enter(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
            let id = SpanId(self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
            self.events.lock().unwrap().push(format!(
                "enter {name} id={} parent={:?}",
                id.0,
                parent.map(|p| p.0)
            ));
            id
        }
        fn span_exit(&self, id: SpanId, _elapsed_ns: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("exit id={}", id.0));
        }
        fn counter_add(&self, name: &'static str, delta: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("count {name} +{delta}"));
        }
        fn gauge_set(&self, name: &'static str, value: i64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("gauge {name} ={value}"));
        }
        fn histogram_record(&self, name: &'static str, value: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("hist {name} {value}"));
        }
        fn thread_token(&self) -> Option<u64> {
            Some(7)
        }
        fn wait_begin(&self, name: &'static str, parent: Option<SpanId>) -> u64 {
            self.events
                .lock()
                .unwrap()
                .push(format!("wait {name} parent={:?}", parent.map(|p| p.0)));
            42
        }
        fn wait_end(&self, token: u64, _elapsed_ns: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("unblock token={token}"));
        }
        fn wake(&self, name: &'static str, target: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("wake {name} target={target}"));
        }
    }

    #[test]
    fn noop_handle_is_disabled_and_silent() {
        let t = Telemetry::noop();
        assert!(!t.enabled());
        let _span = t.span("outer");
        t.count("x", 1);
        t.gauge("y", 2);
        t.record("z", 3);
        // Nothing to observe — the point is that none of this panics or
        // touches the span stack.
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn spans_nest_and_unwind() {
        let sink = Arc::new(LogSink::default());
        let t = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        assert!(t.enabled());
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
                t.count("events", 5);
            }
            let _sibling = t.span("sibling");
        }
        let events = sink.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                "enter outer id=0 parent=None",
                "enter inner id=1 parent=Some(0)",
                "count events +5",
                "exit id=1",
                "enter sibling id=2 parent=Some(0)",
                "exit id=2",
                "exit id=0",
            ]
        );
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn out_of_order_guard_drop_keeps_stack_consistent() {
        let sink = Arc::new(LogSink::default());
        let t = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        let a = t.span("a");
        let b = t.span("b");
        drop(a); // drops before its child `b`
        let c = t.span("c"); // parent should be b, the remaining open span
        drop(c);
        drop(b);
        let events = sink.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                "enter a id=0 parent=None",
                "enter b id=1 parent=Some(0)",
                "exit id=0",
                "enter c id=2 parent=Some(1)",
                "exit id=2",
                "exit id=1",
            ]
        );
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn noop_sink_type_accepts_everything() {
        let t = Telemetry::with_sink(Arc::new(NoopSink));
        let _span = t.span("s");
        t.count("c", 1);
        // Default hooks are silent and token-free.
        assert!(t.thread_token().is_none());
        let _w = t.wait("w");
        t.wake("w", 1);
        t.bind_thread("worker", 0);
    }

    #[test]
    fn wait_and_wake_reach_the_sink() {
        let sink = Arc::new(LogSink::default());
        let t = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        let _outer = t.span("outer");
        {
            let _w = t.wait("pool.join");
            t.wake("pool.join", t.thread_token().unwrap());
        }
        let events = sink.events.lock().unwrap().clone();
        assert_eq!(
            &events[1..],
            [
                "wait pool.join parent=Some(0)",
                "wake pool.join target=7",
                "unblock token=42",
            ]
        );
    }

    #[test]
    fn adopted_context_parents_worker_spans_without_a_span_of_its_own() {
        let sink = Arc::new(LogSink::default());
        let t = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        let outer = t.span("outer");
        let cx = t.current_span().expect("outer is open");
        assert_eq!(cx.name, "outer");
        std::thread::scope(|s| {
            s.spawn(|| {
                {
                    let _adopted = t.adopt(cx);
                    let _inner = t.span("inner");
                }
                SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
            });
        });
        drop(outer);
        let events = sink.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                "enter outer id=0 parent=None",
                "enter inner id=1 parent=Some(0)",
                "exit id=1",
                "exit id=0",
            ]
        );
    }

    #[test]
    fn noop_wait_touches_nothing() {
        let t = Telemetry::noop();
        let _w = t.wait("w");
        t.wake("w", 0);
        assert!(t.current_span().is_none());
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn cross_thread_span_drop_is_caught_in_debug() {
        let sink = Arc::new(LogSink::default());
        let t = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        let guard = t.span("misplaced");
        let result = std::thread::scope(|s| s.spawn(move || drop(guard)).join());
        assert!(result.is_err(), "foreign-thread drop must assert in debug");
        // The opener's stack still holds the span id; clear it so other
        // tests on this thread are unaffected.
        SPAN_STACK.with(|s| s.borrow_mut().clear());
    }
}
