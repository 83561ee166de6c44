//! The benchmark's own spans, recorded around each public call it makes.
//!
//! Spans stay in memory and are written out when the run ends. Each has
//! a name, start, end and parent; a layer's self time is its span minus
//! the spans directly under it. The recorder also keeps the time spent in
//! output checks, which every pass excludes from its wall time.

use crate::alloc;
use std::time::{Duration, Instant};
use tracelens::obs::json::JsonWriter;

/// One span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Bytes allocated inside the span while the counting allocator was
    /// armed (zero otherwise).
    alloc_bytes: u64,
}

impl Span {
    fn elapsed_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span name of the output checks that passes exclude from wall time.
const CHECK: &str = "check";

/// Records spans when on; when off, only the excluded check time.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
    excluded: Duration,
}

impl Recorder {
    /// A recorder that keeps no spans (the timed passes).
    pub fn off() -> Recorder {
        Recorder::new(false, Instant::now())
    }

    /// A recorder whose span times count from `origin`.
    pub fn on(origin: Instant) -> Recorder {
        Recorder::new(true, origin)
    }

    fn new(on: bool, origin: Instant) -> Recorder {
        Recorder {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            excluded: Duration::ZERO,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Runs an output check: its time is excluded from the pass wall and,
    /// when recording, it gets a [`CHECK`] span of its own.
    pub fn check<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = self.span(CHECK, f);
        self.excluded += started.elapsed();
        out
    }

    /// Check time accumulated since the last call.
    pub fn take_excluded(&mut self) -> Duration {
        std::mem::take(&mut self.excluded)
    }

    /// Opens a span; spans close in reverse order with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(p, _)| p),
            start_ns,
            end_ns: start_ns,
            alloc_bytes: 0,
        });
        self.open.push((id, alloc::allocated()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let (id, alloc_at_enter) = self.open.pop().expect("exit matches an enter");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.alloc_bytes = alloc::allocated().saturating_sub(alloc_at_enter);
    }

    /// Span `id`'s duration minus the spans directly under it.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::elapsed_ns)
            .sum();
        self.spans[id].elapsed_ns().saturating_sub(children)
    }

    /// Index of the last span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Self time, in seconds, of the last span named `name`.
    pub fn self_s(&self, name: &str) -> Option<f64> {
        self.last(name).map(|id| self.self_ns(id) as f64 / 1e9)
    }

    /// Bytes allocated in the spans directly under `root` whose names
    /// start with `prefix`.
    pub fn alloc_under(&self, root: usize, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.name.starts_with(prefix))
            .map(|s| s.alloc_bytes)
            .sum()
    }

    /// Writes every span as one JSON array element.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_arr(Some("spans"));
        for (id, s) in self.spans.iter().enumerate() {
            w.begin_obj(None);
            w.u64(Some("id"), id as u64);
            w.str(Some("name"), s.name);
            match s.parent {
                Some(p) => w.u64(Some("parent"), p as u64),
                None => w.null(Some("parent")),
            }
            w.u64(Some("start_ns"), s.start_ns);
            w.u64(Some("end_ns"), s.end_ns);
            w.u64(Some("self_ns"), self.self_ns(id));
            w.u64(Some("alloc_bytes"), s.alloc_bytes);
            w.end_obj();
        }
        w.end_arr();
    }
}
