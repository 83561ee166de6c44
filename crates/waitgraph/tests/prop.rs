//! Property-based tests: Wait-Graph construction over randomized streams
//! must uphold its structural invariants, never panic, and build exactly
//! the graph a naive reference builder (written below, recomputing every
//! lookup from the stream) builds — on sorted streams and on the
//! unsorted, orphan-wait and crossing-unwait streams only
//! `from_unchecked_parts` can represent.

use proptest::prelude::*;
use std::collections::HashSet;
use tracelens_model::{
    Event, EventId, EventKind, ProcessId, ScenarioInstance, ScenarioName, StackId, StackTable,
    ThreadId, TimeNs, TraceId, TraceStream, TraceStreamBuilder,
};
use tracelens_waitgraph::{GraphStats, NodeId, NodeKind, StreamIndex, WaitGraph};

#[derive(Debug, Clone)]
enum RawEvent {
    Running { tid: u8, t: u16, cost: u8 },
    Wait { tid: u8, t: u16 },
    Unwait { tid: u8, woken: u8, t: u16 },
    Hardware { tid: u8, t: u16, cost: u8 },
}

fn raw_event() -> impl Strategy<Value = RawEvent> {
    prop_oneof![
        (0u8..4, 0u16..1000, 1u8..20).prop_map(|(tid, t, cost)| RawEvent::Running { tid, t, cost }),
        (0u8..4, 0u16..1000).prop_map(|(tid, t)| RawEvent::Wait { tid, t }),
        (0u8..4, 0u8..4, 0u16..1000).prop_map(|(tid, woken, t)| RawEvent::Unwait { tid, woken, t }),
        (0u8..4, 0u16..1000, 1u8..20).prop_map(|(tid, t, cost)| RawEvent::Hardware {
            tid,
            t,
            cost
        }),
    ]
}

/// Builds a valid stream from arbitrary raw events (self-unwaits are
/// redirected to the next thread id to satisfy validation).
fn build_stream(events: &[RawEvent], stacks: &mut StackTable) -> tracelens_model::TraceStream {
    let s = stacks.intern_symbols(&["mod.sys!Fn", "kernel!Op"]);
    let mut b = TraceStreamBuilder::new(0);
    for e in events {
        match *e {
            RawEvent::Running { tid, t, cost } => {
                b.push_running(
                    ThreadId(tid as u32),
                    TimeNs(t as u64),
                    TimeNs(cost as u64),
                    s,
                );
            }
            RawEvent::Wait { tid, t } => {
                b.push_wait(ThreadId(tid as u32), TimeNs(t as u64), TimeNs::ZERO, s);
            }
            RawEvent::Unwait { tid, woken, t } => {
                let woken = if woken == tid { (tid + 1) % 4 } else { woken };
                b.push_unwait(
                    ThreadId(tid as u32),
                    ThreadId(woken as u32),
                    TimeNs(t as u64),
                    s,
                );
            }
            RawEvent::Hardware { tid, t, cost } => {
                b.push_hardware(
                    ThreadId(tid as u32),
                    TimeNs(t as u64),
                    TimeNs(cost as u64),
                    s,
                );
            }
        }
    }
    b.finish().expect("builder output is valid")
}

fn instance(tid: u8) -> ScenarioInstance {
    ScenarioInstance {
        trace: TraceId(0),
        scenario: ScenarioName::new("P"),
        tid: ThreadId(tid as u32),
        t0: TimeNs(0),
        t1: TimeNs(2000),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn construction_never_panics_and_holds_invariants(
        events in prop::collection::vec(raw_event(), 0..60),
        tid in 0u8..4,
    ) {
        let mut stacks = StackTable::new();
        let stream = build_stream(&events, &mut stacks);
        let index = StreamIndex::new(&stream);
        let graph = WaitGraph::build(&stream, &index, &instance(tid));

        for (_, id) in graph.dfs() {
            let node = graph.node(id);
            // Only wait nodes have children (edges start at wait events).
            if !node.kind.is_wait() {
                prop_assert!(graph.children(id).is_empty());
            }
            // Nodes reference real events of the right kind.
            let e = stream.event(node.event).expect("node references an event");
            match node.kind {
                NodeKind::Running => prop_assert_eq!(e.kind, EventKind::Running),
                NodeKind::Hardware => prop_assert_eq!(e.kind, EventKind::HardwareService),
                NodeKind::Wait { .. } | NodeKind::UnpairedWait => {
                    prop_assert_eq!(e.kind, EventKind::Wait)
                }
            }
            prop_assert_eq!(e.tid, node.tid);

            // Paired waits: duration equals the pairing span; children
            // belong to the signalling thread and overlap the interval.
            if let NodeKind::Wait { unwait, unwait_tid, .. } = node.kind {
                let u = stream.event(unwait).expect("unwait exists");
                prop_assert_eq!(u.kind, EventKind::Unwait);
                prop_assert_eq!(u.wtid, Some(node.tid));
                prop_assert_eq!(node.duration, node.t.saturating_span_to(u.t));
                for &c in graph.children(id) {
                    let child = graph.node(c);
                    prop_assert_eq!(child.tid, unwait_tid);
                    // Child starts before the wait resolves.
                    prop_assert!(child.t < u.t || node.duration == TimeNs::ZERO);
                }
            }
        }

        // Roots belong to the initiating thread.
        for &r in graph.roots() {
            prop_assert_eq!(graph.node(r).tid, ThreadId(tid as u32));
        }
    }

    #[test]
    fn index_effective_ends_cover_costs(
        events in prop::collection::vec(raw_event(), 0..60),
    ) {
        let mut stacks = StackTable::new();
        let stream = build_stream(&events, &mut stacks);
        let index = StreamIndex::new(&stream);
        for (i, e) in stream.events().iter().enumerate() {
            let id = tracelens_model::EventId(i as u32);
            let end = index.effective_end(id);
            if e.kind == EventKind::Wait {
                // Paired waits end at the unwait; unpaired at their start.
                prop_assert!(end >= e.t);
            } else {
                prop_assert_eq!(end, e.end());
            }
        }
    }

    #[test]
    fn overlap_query_agrees_with_naive_scan(
        events in prop::collection::vec(raw_event(), 0..60),
        from in 0u64..1500,
        len in 1u64..400,
        tid in 0u8..4,
    ) {
        let mut stacks = StackTable::new();
        let stream = build_stream(&events, &mut stacks);
        let index = StreamIndex::new(&stream);
        let (from, to) = (TimeNs(from), TimeNs(from + len));
        let got = index.thread_events_overlapping(ThreadId(tid as u32), from, to);
        // Naive reference: per-thread events whose [t, effective_end)
        // intersects [from, to) — modulo the contiguity assumption the
        // index exploits, the fast path must never return wrong events
        // and never miss events that *start* inside the window.
        for &id in got {
            let e = stream.event(id).unwrap();
            prop_assert_eq!(e.tid, ThreadId(tid as u32));
            prop_assert!(e.t < to);
        }
        for (i, e) in stream.events().iter().enumerate() {
            if e.tid == ThreadId(tid as u32) && e.t >= from && e.t < to {
                prop_assert!(
                    got.contains(&tracelens_model::EventId(i as u32)),
                    "event starting in window missed"
                );
            }
        }
    }
}

/// How a random stream is assembled.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Through the validating builder: sorted by time.
    Sorted,
    /// Raw events in generation order, self-unwaits kept.
    Unsorted,
    /// Sorted, with every unwait waking thread 0 dropped.
    Orphan,
    /// Sorted, plus thread pairs that wait together and wake each other.
    Crossing,
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Sorted),
        Just(Shape::Unsorted),
        Just(Shape::Orphan),
        Just(Shape::Crossing),
    ]
}

fn event(kind: EventKind, tid: u8, t: u64, cost: u64, wtid: Option<u8>) -> Event {
    Event {
        kind,
        tid: ThreadId(tid as u32),
        pid: ProcessId(0),
        t: TimeNs(t),
        cost: TimeNs(cost),
        stack: StackId(0),
        wtid: wtid.map(|w| ThreadId(w as u32)),
    }
}

fn raw(e: &RawEvent) -> Event {
    match *e {
        RawEvent::Running { tid, t, cost } => {
            event(EventKind::Running, tid, t as u64, cost as u64, None)
        }
        RawEvent::Wait { tid, t } => event(EventKind::Wait, tid, t as u64, 0, None),
        RawEvent::Unwait { tid, woken, t } => {
            event(EventKind::Unwait, tid, t as u64, 0, Some(woken))
        }
        RawEvent::Hardware { tid, t, cost } => {
            event(EventKind::HardwareService, tid, t as u64, cost as u64, None)
        }
    }
}

/// A stream of `shape` from `events`; `crossings` are `(a, b, t, da,
/// db)`: `a` and `b` both wait at `t`, `b` wakes `a` at `t + da` and
/// `a` wakes `b` at `t + db`.
fn shaped_stream(
    shape: Shape,
    events: &[RawEvent],
    crossings: &[(u8, u8, u16, u8, u8)],
    stacks: &mut StackTable,
) -> TraceStream {
    let sorted = build_stream(events, stacks);
    let events = match shape {
        Shape::Sorted => return sorted,
        Shape::Unsorted => events.iter().map(raw).collect(),
        Shape::Orphan => {
            let mut kept = sorted.events().to_vec();
            kept.retain(|e| e.wtid != Some(ThreadId(0)));
            kept
        }
        Shape::Crossing => {
            let mut all = sorted.events().to_vec();
            for &(a, b, t, da, db) in crossings {
                let b = if a == b { (a + 1) % 4 } else { b };
                let t = t as u64;
                all.push(event(EventKind::Wait, a, t, 0, None));
                all.push(event(EventKind::Wait, b, t, 0, None));
                all.push(event(EventKind::Unwait, b, t + da as u64, 0, Some(a)));
                all.push(event(EventKind::Unwait, a, t + db as u64, 0, Some(b)));
            }
            all.sort_by_key(|e| e.t);
            all
        }
    };
    TraceStream::from_unchecked_parts(TraceId(0), events)
}

/// A node of the reference builder's graph.
#[derive(Debug)]
struct RefNode {
    event: EventId,
    kind: NodeKind,
    duration: TimeNs,
    children: Vec<NodeId>,
}

/// Wait-Graph construction done the slow, obvious way: every pairing
/// and every overlap query scans the stream afresh, children are
/// collected per node, and a hash set guards cycles.
struct Reference<'a> {
    stream: &'a TraceStream,
    nodes: Vec<RefNode>,
}

const MAX_DEPTH: usize = 64;

impl Reference<'_> {
    fn build(stream: &TraceStream, instance: &ScenarioInstance) -> (Vec<RefNode>, Vec<NodeId>) {
        let mut r = Reference {
            stream,
            nodes: Vec::new(),
        };
        let mut path = HashSet::new();
        let roots = r
            .overlapping(instance.tid, instance.t0, instance.t1)
            .into_iter()
            .filter_map(|id| r.add(id, instance.t1, &mut path, 0))
            .collect();
        (r.nodes, roots)
    }

    fn ev(&self, id: EventId) -> Event {
        self.stream.events()[id.0 as usize]
    }

    /// The earliest unwait waking `tid` at or after `from`, among the
    /// unwaits waking `tid` in stream order.
    fn pair(&self, tid: ThreadId, from: TimeNs) -> Option<EventId> {
        let unwaits: Vec<EventId> = (0..self.stream.len() as u32)
            .map(EventId)
            .filter(|&id| {
                let e = self.ev(id);
                e.kind == EventKind::Unwait && e.wtid == Some(tid)
            })
            .collect();
        let lo = unwaits.partition_point(|&id| self.ev(id).t < from);
        unwaits.get(lo).copied()
    }

    fn end(&self, id: EventId) -> TimeNs {
        let e = self.ev(id);
        match e.kind {
            EventKind::Wait => self.pair(e.tid, e.t).map_or(e.end(), |u| self.ev(u).t),
            _ => e.end(),
        }
    }

    fn overlapping(&self, tid: ThreadId, from: TimeNs, to: TimeNs) -> Vec<EventId> {
        let list: Vec<EventId> = (0..self.stream.len() as u32)
            .map(EventId)
            .filter(|&id| self.ev(id).tid == tid)
            .collect();
        let mut lo = list.partition_point(|&id| self.ev(id).t < from);
        while lo > 0 && self.end(list[lo - 1]) > from {
            lo -= 1;
        }
        list[lo..]
            .iter()
            .copied()
            .take_while(|&id| self.ev(id).t < to)
            .collect()
    }

    fn add(
        &mut self,
        id: EventId,
        clip_end: TimeNs,
        path: &mut HashSet<EventId>,
        depth: usize,
    ) -> Option<NodeId> {
        let e = self.ev(id);
        let node = |kind, duration| RefNode {
            event: id,
            kind,
            duration,
            children: Vec::new(),
        };
        let at = NodeId(self.nodes.len() as u32);
        match e.kind {
            EventKind::Unwait => return None,
            EventKind::Running => self.nodes.push(node(NodeKind::Running, e.cost)),
            EventKind::HardwareService => self.nodes.push(node(NodeKind::Hardware, e.cost)),
            EventKind::Wait => {
                let cyclic = path.contains(&id) || depth >= MAX_DEPTH;
                match self.pair(e.tid, e.t) {
                    Some(u_id) if !cyclic => {
                        let u = self.ev(u_id);
                        let kind = NodeKind::Wait {
                            unwait: u_id,
                            unwait_stack: u.stack,
                            unwait_tid: u.tid,
                        };
                        self.nodes.push(node(kind, e.t.saturating_span_to(u.t)));
                        path.insert(id);
                        let children = self
                            .overlapping(u.tid, e.t, u.t)
                            .into_iter()
                            .filter_map(|c| self.add(c, u.t, path, depth + 1))
                            .collect();
                        path.remove(&id);
                        self.nodes[at.0 as usize].children = children;
                    }
                    _ => {
                        let clipped = e.cost.max(e.t.saturating_span_to(clip_end));
                        self.nodes.push(node(NodeKind::UnpairedWait, clipped));
                    }
                }
            }
        }
        Some(at)
    }
}

/// Asserts `graph` is exactly the reference graph of `instance`.
fn assert_matches_reference(
    stream: &TraceStream,
    graph: &WaitGraph,
    instance: &ScenarioInstance,
) -> Result<(), TestCaseError> {
    let (nodes, roots) = Reference::build(stream, instance);
    prop_assert_eq!(graph.roots(), &roots[..]);
    prop_assert_eq!(graph.node_count(), nodes.len());
    for (i, want) in nodes.iter().enumerate() {
        let id = NodeId(i as u32);
        let got = graph.node(id);
        let e = stream.events()[want.event.0 as usize];
        prop_assert_eq!(got.event, want.event);
        prop_assert_eq!(got.kind, want.kind);
        prop_assert_eq!(got.duration, want.duration);
        prop_assert_eq!((got.tid, got.stack, got.t), (e.tid, e.stack, e.t));
        prop_assert_eq!(graph.children(id), &want.children[..]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_pairing_matches_the_stream_scan(
        events in prop::collection::vec(raw_event(), 0..80),
        shape in shape(),
        crossings in prop::collection::vec((0u8..4, 0u8..4, 0u16..1000, 0u8..40, 0u8..40), 0..4),
    ) {
        let mut stacks = StackTable::new();
        let stream = shaped_stream(shape, &events, &crossings, &mut stacks);
        let index = StreamIndex::new(&stream);
        let reference = Reference { stream: &stream, nodes: Vec::new() };
        let sorted = stream.events().windows(2).all(|w| w[0].t <= w[1].t);
        let mut orphans = 0;
        for (i, e) in stream.events().iter().enumerate() {
            let id = EventId(i as u32);
            let got = index.pair(id);
            if e.kind != EventKind::Wait {
                prop_assert_eq!(got, None);
                prop_assert_eq!(index.effective_end(id), e.end());
                continue;
            }
            prop_assert_eq!(got, reference.pair(e.tid, e.t));
            if sorted {
                prop_assert_eq!(got, stream.find_unwait_for(e.tid, e.t).map(|(u, _)| u));
            }
            let end = got.map_or(e.end(), |u| stream.events()[u.0 as usize].t);
            prop_assert_eq!(index.effective_end(id), end);
            orphans += usize::from(got.is_none());
        }
        prop_assert_eq!(index.orphan_waits(), orphans);
    }

    #[test]
    fn compact_graph_equals_the_reference_builder(
        events in prop::collection::vec(raw_event(), 0..80),
        shape in shape(),
        crossings in prop::collection::vec((0u8..4, 0u8..4, 0u16..1000, 0u8..40, 0u8..40), 0..4),
        tid in 0u8..4,
        t0 in 0u64..1200,
        len in 1u64..1200,
    ) {
        let mut stacks = StackTable::new();
        let stream = shaped_stream(shape, &events, &crossings, &mut stacks);
        let index = StreamIndex::new(&stream);
        let instance = ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("P"),
            tid: ThreadId(tid as u32),
            t0: TimeNs(t0),
            t1: TimeNs(t0 + len),
        };
        let graph = WaitGraph::build(&stream, &index, &instance);
        assert_matches_reference(&stream, &graph, &instance)?;
    }

    #[test]
    fn wait_chains_are_cut_at_depth_64(threads in 1u32..90) {
        // Thread k waits at k and is woken by thread k + 1 at 1000 - k:
        // a chain `threads` deep, nested inside one another.
        let mut b = TraceStreamBuilder::new(0);
        for k in 0..threads {
            b.push_wait(ThreadId(k), TimeNs(k as u64), TimeNs::ZERO, StackId(0));
            if k > 0 {
                let t = TimeNs(1000 - (k - 1) as u64);
                b.push_unwait(ThreadId(k), ThreadId(k - 1), t, StackId(0));
            }
        }
        let stream = b.finish().expect("valid chain");
        let index = StreamIndex::new(&stream);
        let instance = ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("P"),
            tid: ThreadId(0),
            t0: TimeNs(0),
            t1: TimeNs(2000),
        };
        let graph = WaitGraph::build(&stream, &index, &instance);
        assert_matches_reference(&stream, &graph, &instance)?;
        let stats = GraphStats::of(&graph);
        prop_assert_eq!(stats.max_depth, (threads as usize - 1).min(MAX_DEPTH));
        let cut = graph.nodes().iter().filter(|n| n.kind == NodeKind::UnpairedWait).count();
        // The last thread's wait is never woken; past depth 64 the chain
        // is cut there instead.
        prop_assert_eq!(cut, 1);
    }
}
