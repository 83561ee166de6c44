//! Trace well-formedness: every data set the simulator emits must be a
//! valid input for the analyses — the invariants ETW-shaped consumers
//! rely on.

use std::collections::HashMap;
use tracelens::model::{EventKind, ThreadId, TraceId};
use tracelens::prelude::*;

fn dataset() -> Dataset {
    DatasetBuilder::new(555).traces(40).build()
}

#[test]
fn events_are_time_sorted() {
    let ds = dataset();
    for stream in &ds.streams {
        for w in stream.events().windows(2) {
            assert!(w[0].t <= w[1].t, "out-of-order events in {:?}", stream.id());
        }
    }
}

#[test]
fn unwait_events_are_well_targeted() {
    let ds = dataset();
    for stream in &ds.streams {
        for e in stream.events() {
            match e.kind {
                EventKind::Unwait => {
                    let w = e.wtid.expect("unwait has a target");
                    assert_ne!(w, e.tid, "self-unwait");
                }
                _ => assert!(e.wtid.is_none(), "non-unwait with target"),
            }
        }
    }
}

#[test]
fn every_wait_is_eventually_unwaited() {
    // The simulator never truncates: all lock and hardware waits resolve.
    let ds = dataset();
    for stream in &ds.streams {
        let index = StreamIndex::new(stream);
        for (i, e) in stream.events().iter().enumerate() {
            if e.kind == EventKind::Wait {
                // Zero-duration waits (handoff at the same timestamp) are
                // legal, so check the pairing itself rather than the span.
                assert!(
                    index.pair(tracelens::model::EventId(i as u32)).is_some(),
                    "wait at {} in {:?} never unwaited",
                    e.t,
                    stream.id()
                );
            }
        }
    }
}

#[test]
fn per_thread_intervals_do_not_overlap() {
    // The Wait-Graph index relies on this: a thread's costed events are
    // sequential (a suspended or running thread cannot emit in parallel
    // with itself).
    let ds = dataset();
    for stream in &ds.streams {
        let index = StreamIndex::new(stream);
        let mut last_end: HashMap<ThreadId, tracelens::model::TimeNs> = HashMap::new();
        for (i, e) in stream.events().iter().enumerate() {
            if e.kind == EventKind::Unwait {
                continue; // instantaneous signals may interleave freely
            }
            let id = tracelens::model::EventId(i as u32);
            let end = index.effective_end(id);
            if let Some(&prev) = last_end.get(&e.tid) {
                assert!(
                    e.t >= prev,
                    "overlapping intervals on {:?} in {:?}: event at {} before {}",
                    e.tid,
                    stream.id(),
                    e.t,
                    prev
                );
            }
            last_end.insert(e.tid, end);
        }
    }
}

#[test]
fn running_samples_respect_the_sampling_interval() {
    let ds = dataset();
    for stream in &ds.streams {
        for e in stream.events() {
            if e.kind == EventKind::Running {
                assert!(
                    e.cost <= tracelens::model::SAMPLE_INTERVAL,
                    "oversized running sample: {}",
                    e.cost
                );
                assert!(e.cost > TimeNs::ZERO, "empty running sample");
            }
        }
    }
}

#[test]
fn instances_reference_their_streams() {
    let ds = dataset();
    for instance in &ds.instances {
        let stream = ds.stream_of(instance).expect("stream exists");
        assert_eq!(stream.id(), instance.trace);
        assert!(instance.t0 <= instance.t1);
        // The initiating thread left at least one event in the stream
        // (every scenario program computes or waits).
        assert!(
            stream.events_of_thread(instance.tid).next().is_some(),
            "initiating thread {:?} silent in {:?}",
            instance.tid,
            instance.trace
        );
    }
}

#[test]
fn trace_ids_are_dense_and_ordered() {
    let ds = dataset();
    for (i, stream) in ds.streams.iter().enumerate() {
        assert_eq!(stream.id(), TraceId(i as u32));
    }
}

#[test]
fn all_stacks_resolve() {
    let ds = dataset();
    for stream in &ds.streams {
        for e in stream.events() {
            let frames = ds.stacks.frames(e.stack);
            assert!(!frames.is_empty(), "event with empty callstack");
            for &f in frames {
                assert!(
                    ds.stacks.symbols().resolve(f).is_some(),
                    "unresolvable frame symbol"
                );
            }
        }
    }
}
