//! Lowering recorded sessions into a [`Dataset`] the analysis pipeline
//! can consume — the pipeline's own execution in the paper's trace
//! shape.
//!
//! Each [`SelfTraceSession`] becomes one trace stream (its index is the
//! [`TraceId`]) plus one scenario instance of [`SELF_SCENARIO`]
//! initiated by the main thread over the whole recording. Per virtual
//! thread, the raw event log is replayed into non-overlapping intervals:
//!
//! * **running** segments between span/wait boundaries, attributed to a
//!   synthetic callstack built from the chain of open spans
//!   (`runtime!main` → `core.tl!study` → `impact.tl!impact`);
//! * **wait** events for completed wait intervals (pool joins, recorder
//!   lock contention), stack-extended with the wait-point frame;
//! * **unwait** edges for every wake matched to a wait of its target;
//!   waits nobody observably woke get a synthesized unwait from the
//!   virtual scheduler thread ([`SCHEDULER_VTID`]), which carries no
//!   running events — such waits become leaf wait nodes with their
//!   measured duration, exactly like the paper's unattributed waits.
//!
//! Synthetic frame modules end in `.tl`, so
//! `ComponentFilter::suffix(".tl")` selects "the pipeline's own crates"
//! the way `*.sys` selects drivers in the paper's study.

use crate::recorder::{RawEvent, SelfTraceRecording, MAIN_VTID, SCHEDULER_VTID};
use crate::SelfTraceSession;
use std::collections::{BTreeMap, HashMap};
use tracelens_model::{
    Dataset, ProcessId, Scenario, ScenarioInstance, ScenarioName, StackId, ThreadId, Thresholds,
    TimeNs, TraceStreamBuilder,
};

/// Scenario name given to every lowered pipeline run.
pub const SELF_SCENARIO: &str = "PipelineStudy";

/// Maximum depth of a synthetic callstack (base frame + span chain).
const MAX_STACK_DEPTH: usize = 64;

/// The result of [`lower`]: an analyzable data set plus per-session
/// aggregates that need no further analysis to read.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// One stream + one [`SELF_SCENARIO`] instance per session, sharing
    /// a stack table; passes `Dataset::validate`.
    pub dataset: Dataset,
    /// Per-session aggregates, parallel to the input sessions.
    pub stats: Vec<SessionStats>,
}

/// Aggregate numbers for one lowered session.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// The session's label.
    pub label: String,
    /// Recording length in nanoseconds.
    pub duration_ns: u64,
    /// Number of raw recorded events.
    pub raw_events: usize,
    /// Running nanoseconds per virtual thread.
    pub busy_ns_by_thread: BTreeMap<u32, u64>,
    /// Completed blocked nanoseconds per wait-point name (includes
    /// recorder lock waits under `obs.lock`).
    pub wait_ns_by_name: BTreeMap<String, u64>,
    /// Total recorder ingest-lock blocking (including contention too
    /// short to surface as wait events).
    pub lock_wait_ns: u64,
    /// Total pool queue wait reported by worker claim loops.
    pub queue_wait_ns: u64,
}

impl SessionStats {
    /// Running nanoseconds summed over all threads.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns_by_thread.values().sum()
    }

    /// Completed wait nanoseconds summed over all wait points.
    pub fn wait_ns(&self) -> u64 {
        self.wait_ns_by_name.values().sum()
    }
}

/// The synthetic module a span name belongs to. `.tl` plays the role
/// `.sys` plays in the paper: the suffix selecting the components under
/// scrutiny.
fn span_module(name: &str) -> &'static str {
    match name {
        "sim" => "sim.tl",
        "waitgraph" => "waitgraph.tl",
        "impact" => "impact.tl",
        "classes" | "aggregate" | "reduce" | "segments" | "contrast" => "causality.tl",
        "sanitize" => "model.tl",
        "pool" | "supervise" => "pool.tl",
        _ => "core.tl",
    }
}

/// The frame text for a wait point (`pool.join` → `pool.tl!pool.join`).
fn wait_frame(name: &str) -> String {
    let module = match name.split('.').next() {
        Some("pool") => "pool.tl",
        Some("obs") => "obs.tl",
        _ => "core.tl",
    };
    format!("{module}!{name}")
}

/// The bottom-of-stack frame for a virtual thread.
fn base_frame(vtid: u32) -> String {
    match vtid {
        SCHEDULER_VTID => "runtime!scheduler".to_string(),
        MAIN_VTID => "runtime!main".to_string(),
        v if v >= 1000 => format!("runtime!thread-{v}"),
        v => format!("runtime!worker-{}", v - 2),
    }
}

/// A closed per-thread interval produced by replay.
#[derive(Debug)]
enum Interval {
    /// Thread `vtid` ran `[start, end)` under the span chain `frames`.
    Running {
        vtid: u32,
        start: u64,
        end: u64,
        frames: Vec<String>,
    },
    /// Thread `vtid` blocked `[start, end]` at wait point `name`.
    Wait {
        vtid: u32,
        start: u64,
        end: u64,
        name: &'static str,
        frames: Vec<String>,
    },
    /// Thread `vtid` signalled `target` at `t` (frames name the wait
    /// point being released).
    Wake {
        vtid: u32,
        target: u32,
        t: u64,
        frames: Vec<String>,
    },
}

/// Per-thread replay state.
#[derive(Debug, Default)]
struct ThreadReplay {
    /// Start of the current running segment, `None` while blocked or
    /// before the thread's first event.
    running_since: Option<u64>,
    /// Ids of spans currently open on this thread, innermost last.
    open_spans: Vec<u64>,
    /// The span on another thread this one adopted as its parent.
    adopted: Option<u64>,
    /// Waits currently open on this thread: token → (start, name).
    open_waits: HashMap<u64, (u64, &'static str)>,
}

impl ThreadReplay {
    /// The span the thread's current activity belongs to: its innermost
    /// open span, else the span it adopted.
    fn innermost(&self) -> Option<u64> {
        self.open_spans.last().copied().or(self.adopted)
    }
}

/// Replays one recording into closed per-thread intervals.
fn replay(recording: &SelfTraceRecording) -> Vec<Interval> {
    // Global span facts (spans can exit on the thread that opened them
    // only, but parents may live on other threads).
    let mut span_info: HashMap<u64, (&'static str, Option<u64>, u32)> = HashMap::new();
    let mut wait_thread: HashMap<u64, u32> = HashMap::new();
    for e in &recording.events {
        match *e {
            RawEvent::SpanEnter {
                id,
                name,
                parent,
                vtid,
                ..
            } => {
                span_info.insert(id, (name, parent, vtid));
            }
            RawEvent::WaitBegin { token, vtid, .. } => {
                wait_thread.insert(token, vtid);
            }
            _ => {}
        }
    }

    // The full ancestor frame chain of a span, outermost first,
    // following parent links across threads (into the stage a worker
    // adopted). Adjacent duplicate frames collapse.
    let frames_of = |span: Option<u64>| -> Vec<String> {
        let mut chain: Vec<&'static str> = Vec::new();
        let mut cur = span;
        while let Some(id) = cur {
            if chain.len() >= MAX_STACK_DEPTH {
                break;
            }
            let Some(&(name, parent, _)) = span_info.get(&id) else {
                break;
            };
            chain.push(name);
            cur = parent;
        }
        chain.reverse();
        let mut frames: Vec<String> = Vec::with_capacity(chain.len());
        for name in chain {
            let frame = format!("{}!{}", span_module(name), name);
            if frames.last() != Some(&frame) {
                frames.push(frame);
            }
        }
        frames
    };

    let mut threads: HashMap<u32, ThreadReplay> = HashMap::new();
    let mut out: Vec<Interval> = Vec::new();

    // Closes the current running segment of `vtid` at `t` (if any).
    fn close_running(
        out: &mut Vec<Interval>,
        frames_of: &dyn Fn(Option<u64>) -> Vec<String>,
        state: &mut ThreadReplay,
        vtid: u32,
        t: u64,
    ) {
        if let Some(start) = state.running_since.take() {
            if t > start {
                out.push(Interval::Running {
                    vtid,
                    start,
                    end: t,
                    frames: frames_of(state.innermost()),
                });
            }
        }
    }

    for e in &recording.events {
        match *e {
            RawEvent::SpanEnter { id, vtid, t, .. } => {
                let state = threads.entry(vtid).or_default();
                close_running(&mut out, &frames_of, state, vtid, t);
                state.open_spans.push(id);
                state.running_since = Some(t);
            }
            RawEvent::SpanExit { id, t } => {
                let Some(&(_, _, vtid)) = span_info.get(&id) else {
                    continue;
                };
                let state = threads.entry(vtid).or_default();
                close_running(&mut out, &frames_of, state, vtid, t);
                if let Some(i) = state.open_spans.iter().rposition(|&s| s == id) {
                    state.open_spans.remove(i);
                }
                state.running_since = Some(t);
            }
            RawEvent::WaitBegin { token, vtid, t, .. } => {
                let state = threads.entry(vtid).or_default();
                close_running(&mut out, &frames_of, state, vtid, t);
                let name = match *e {
                    RawEvent::WaitBegin { name, .. } => name,
                    _ => unreachable!(),
                };
                state.open_waits.insert(token, (t, name));
            }
            RawEvent::WaitEnd { token, t } => {
                let Some(&vtid) = wait_thread.get(&token) else {
                    continue;
                };
                let state = threads.entry(vtid).or_default();
                if let Some((start, name)) = state.open_waits.remove(&token) {
                    let mut frames = frames_of(state.innermost());
                    frames.push(wait_frame(name));
                    out.push(Interval::Wait {
                        vtid,
                        start,
                        end: t,
                        name,
                        frames,
                    });
                }
                state.running_since = Some(t);
            }
            RawEvent::Wake {
                name,
                vtid,
                target,
                t,
            } => {
                // A wake is instantaneous, but it must still split the
                // waker's running segment: the overlap index assumes
                // per-thread intervals never nest, a zero-width unwait
                // inside a running interval included.
                let state = threads.entry(vtid).or_default();
                let was_running = state.running_since.is_some();
                close_running(&mut out, &frames_of, state, vtid, t);
                let mut frames = frames_of(state.innermost());
                frames.push(wait_frame(name));
                out.push(Interval::Wake {
                    vtid,
                    target,
                    t,
                    frames,
                });
                if was_running {
                    state.running_since = Some(t);
                }
            }
            RawEvent::Adopt { parent, vtid, t } => {
                let state = threads.entry(vtid).or_default();
                close_running(&mut out, &frames_of, state, vtid, t);
                state.adopted = parent;
                state.running_since = Some(t);
            }
            RawEvent::LockWait { vtid, t, cost } => {
                let state = threads.entry(vtid).or_default();
                close_running(&mut out, &frames_of, state, vtid, t);
                let mut frames = frames_of(state.innermost());
                frames.push(wait_frame(tracelens_obs::waitpoint::OBS_LOCK));
                out.push(Interval::Wait {
                    vtid,
                    start: t,
                    end: t + cost,
                    name: tracelens_obs::waitpoint::OBS_LOCK,
                    frames,
                });
                state.running_since = Some(t + cost);
            }
            RawEvent::CounterAdd { vtid, t, .. } | RawEvent::GaugeSet { vtid, t, .. } => {
                // Not a boundary, but proof of life: a thread seen only
                // through counters still gets a running presence.
                let state = threads.entry(vtid).or_default();
                if state.running_since.is_none() {
                    state.running_since = Some(t);
                }
            }
        }
    }

    // Close trailing running segments at the recording's end.
    for (&vtid, state) in threads.iter_mut() {
        close_running(&mut out, &frames_of, state, vtid, recording.duration_ns);
    }
    out
}

/// Lowers recorded sessions into a [`Lowered`] data set.
///
/// The result has one stream per session (in input order), a shared
/// stack table, and one [`SELF_SCENARIO`] definition whose thresholds
/// bracket the observed session durations, so the causality layer's
/// fast/slow split is well-defined even on a single session.
pub fn lower(sessions: &[SelfTraceSession]) -> Lowered {
    let mut dataset = Dataset::new();
    let mut stats = Vec::with_capacity(sessions.len());

    for (index, session) in sessions.iter().enumerate() {
        let recording = &session.recording;
        let intervals = replay(recording);
        let mut stat = SessionStats {
            label: session.label.clone(),
            duration_ns: recording.duration_ns,
            raw_events: recording.events.len(),
            lock_wait_ns: recording.lock_wait_ns,
            queue_wait_ns: recording.queue_wait_ns,
            ..SessionStats::default()
        };

        let mut builder = TraceStreamBuilder::new(index as u32);
        builder.set_process(ProcessId(index as u32 + 1));
        let intern = |frames: &[String], stacks: &mut tracelens_model::StackTable| -> StackId {
            let refs: Vec<&str> = frames.iter().map(String::as_str).collect();
            stacks.intern_symbols(&refs)
        };

        // Waits of each target thread, for wake → unwait matching:
        // (start, end, already matched).
        let mut waits_of: HashMap<u32, Vec<(u64, u64, bool)>> = HashMap::new();
        for iv in &intervals {
            if let Interval::Wait {
                vtid, start, end, ..
            } = *iv
            {
                waits_of.entry(vtid).or_default().push((start, end, false));
            }
        }
        for list in waits_of.values_mut() {
            list.sort_unstable_by_key(|&(start, _, _)| start);
        }

        for iv in &intervals {
            match iv {
                Interval::Running {
                    vtid,
                    start,
                    end,
                    frames,
                } => {
                    let mut full = vec![base_frame(*vtid)];
                    full.extend(frames.iter().cloned());
                    let stack = intern(&full, &mut dataset.stacks);
                    builder.push_running(
                        ThreadId(*vtid),
                        TimeNs(*start),
                        TimeNs(end - start),
                        stack,
                    );
                    *stat.busy_ns_by_thread.entry(*vtid).or_insert(0) += end - start;
                }
                Interval::Wait {
                    vtid,
                    start,
                    end,
                    name,
                    frames,
                } => {
                    let mut full = vec![base_frame(*vtid)];
                    full.extend(frames.iter().cloned());
                    let stack = intern(&full, &mut dataset.stacks);
                    builder.push_wait(ThreadId(*vtid), TimeNs(*start), TimeNs(end - start), stack);
                    *stat.wait_ns_by_name.entry((*name).to_string()).or_insert(0) += end - start;
                }
                Interval::Wake {
                    vtid,
                    target,
                    t,
                    frames,
                    ..
                } => {
                    // Only a wake that lands inside an (unmatched) wait
                    // interval of its target becomes an unwait: the
                    // pairing rule binds a wait to the next unwait
                    // targeting its thread, so an unanchored unwait
                    // could steal a later wait's pairing.
                    if *target == *vtid {
                        continue;
                    }
                    let Some(waits) = waits_of.get_mut(target) else {
                        continue;
                    };
                    let Some(w) = waits
                        .iter_mut()
                        .find(|(start, end, matched)| !matched && start <= t && t <= end)
                    else {
                        continue;
                    };
                    w.2 = true;
                    let mut full = vec![base_frame(*vtid)];
                    full.extend(frames.iter().cloned());
                    let stack = intern(&full, &mut dataset.stacks);
                    builder.push_unwait(ThreadId(*vtid), ThreadId(*target), TimeNs(*t), stack);
                }
            }
        }

        // Every unmatched wait gets a synthesized unwait from the
        // virtual scheduler thread at (just before) its end, so it pairs
        // with its own measured interval and stays a leaf wait node.
        let scheduler_stack = {
            let frames = [base_frame(SCHEDULER_VTID)];
            intern(&frames, &mut dataset.stacks)
        };
        for (&vtid, waits) in waits_of.iter() {
            for &(start, end, matched) in waits.iter() {
                if matched {
                    continue;
                }
                // Back off one ns from a shared boundary so the unwait
                // cannot tie with (and steal) the thread's next wait.
                let t = if end > start { end - 1 } else { end };
                builder.push_unwait(
                    ThreadId(SCHEDULER_VTID),
                    ThreadId(vtid),
                    TimeNs(t),
                    scheduler_stack,
                );
            }
        }

        let stream = builder
            .finish()
            .expect("lowered self-trace streams are well-formed by construction");
        dataset.streams.push(stream);
        dataset.instances.push(ScenarioInstance {
            trace: tracelens_model::TraceId(index as u32),
            scenario: ScenarioName::new(SELF_SCENARIO),
            tid: ThreadId(MAIN_VTID),
            t0: TimeNs(0),
            t1: TimeNs(recording.duration_ns.max(1)),
        });
        stats.push(stat);
    }

    // Thresholds bracketing the observed durations keep the fast/slow
    // classifier total: everything at or under t_fast is "fast".
    let durations: Vec<u64> = dataset.instances.iter().map(|i| i.duration().0).collect();
    let min = durations.iter().copied().min().unwrap_or(0);
    let max = durations.iter().copied().max().unwrap_or(0);
    let t_fast = min + 1;
    let t_slow = (max + 2).max(t_fast + 1);
    dataset.scenarios.push(Scenario::new(
        ScenarioName::new(SELF_SCENARIO),
        Thresholds::new(TimeNs(t_fast), TimeNs(t_slow)),
    ));

    Lowered { dataset, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::SelfTraceSink;
    use tracelens_model::{ComponentFilter, EventKind};

    fn record_join_session() -> SelfTraceSession {
        let sink = SelfTraceSink::new();
        let t = sink.telemetry();
        {
            let _study = t.span("study");
            let _impact = t.span("impact");
            let cx = t.current_span().expect("impact is open");
            let main_token = t.thread_token().expect("main is bound");
            let join = t.wait(tracelens_obs::waitpoint::POOL_JOIN);
            std::thread::scope(|s| {
                s.spawn(|| {
                    t.bind_thread("worker", 0);
                    let _cx = t.adopt(cx);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    t.wake(tracelens_obs::waitpoint::POOL_JOIN, main_token);
                });
            });
            drop(join);
        }
        SelfTraceSession::new("jobs=1", sink.recording())
    }

    #[test]
    fn lowered_dataset_validates() {
        let lowered = lower(&[record_join_session()]);
        lowered
            .dataset
            .validate()
            .expect("self-trace dataset is valid");
        assert_eq!(lowered.dataset.streams.len(), 1);
        assert_eq!(lowered.dataset.instances.len(), 1);
        assert_eq!(lowered.stats.len(), 1);
        assert!(lowered.stats[0].busy_ns() > 0);
    }

    #[test]
    fn join_wait_pairs_with_worker_wake() {
        let lowered = lower(&[record_join_session()]);
        let stream = &lowered.dataset.streams[0];
        // One pool.join wait on main, unwaited by the worker (vtid 2).
        let wait = stream
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Wait && e.tid == ThreadId(MAIN_VTID))
            .expect("main waited on pool.join");
        let (_, unwait) = stream
            .find_unwait_for(ThreadId(MAIN_VTID), wait.t)
            .expect("the join wait has an unwait");
        assert_eq!(unwait.tid, ThreadId(2), "the worker wakes the spawner");
        assert!(unwait.t >= wait.t && unwait.t <= wait.t + wait.cost);
        assert!(
            wait.cost.0 >= 1_500_000,
            "join wait covers the worker's sleep: {:?}",
            wait.cost
        );
    }

    #[test]
    fn worker_running_time_lands_in_tl_components() {
        let lowered = lower(&[record_join_session()]);
        let ds = &lowered.dataset;
        let filter = ComponentFilter::suffix(".tl");
        let worker_running = ds.streams[0]
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Running && e.tid == ThreadId(2))
            .expect("worker has a running segment");
        let top = ds
            .stacks
            .top_component_symbol(worker_running.stack, &filter)
            .expect("worker stack carries a .tl frame");
        let text = ds.stacks.symbols().resolve(top).unwrap();
        assert!(
            text.starts_with("impact.tl!") || text.starts_with("core.tl!"),
            "unexpected top component {text}"
        );
        // The base frame names the worker.
        let frames = ds.stacks.resolve_frames(worker_running.stack);
        assert_eq!(frames[0], "runtime!worker-0");
    }

    #[test]
    fn unmatched_waits_get_scheduler_unwaits() {
        let sink = SelfTraceSink::new();
        let t = sink.telemetry();
        {
            let _study = t.span("study");
            let _w = t.wait(tracelens_obs::waitpoint::POOL_JOIN);
            // Nobody wakes this wait.
        }
        let lowered = lower(&[SelfTraceSession::new("orphan", sink.recording())]);
        lowered.dataset.validate().expect("still valid");
        let stream = &lowered.dataset.streams[0];
        let unwait = stream
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Unwait)
            .expect("a synthesized unwait exists");
        assert_eq!(unwait.tid, ThreadId(SCHEDULER_VTID));
        assert_eq!(unwait.wtid, Some(ThreadId(MAIN_VTID)));
    }

    #[test]
    fn thresholds_bracket_durations_even_for_one_session() {
        let lowered = lower(&[record_join_session()]);
        let scenario = lowered
            .dataset
            .scenario(&ScenarioName::new(SELF_SCENARIO))
            .expect("self scenario is defined");
        let d = lowered.dataset.instances[0].duration();
        assert_eq!(scenario.thresholds.classify(d), Some(true));
    }

    #[test]
    fn per_thread_intervals_do_not_overlap() {
        let lowered = lower(&[record_join_session()]);
        let stream = &lowered.dataset.streams[0];
        let mut by_thread: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for e in stream.events() {
            if e.kind == EventKind::Unwait {
                continue;
            }
            by_thread
                .entry(e.tid.0)
                .or_default()
                .push((e.t.0, e.t.0 + e.cost.0));
        }
        for (vtid, mut ivs) in by_thread {
            ivs.sort_unstable();
            for w in ivs.windows(2) {
                assert!(w[0].1 <= w[1].0, "thread {vtid} intervals overlap: {w:?}");
            }
        }
    }
}
