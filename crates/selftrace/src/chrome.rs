//! Chrome trace-event JSON export (`chrome://tracing`, Perfetto).
//!
//! Every recorded session becomes one process (`pid` = session index
//! + 1), every virtual thread one track (`tid` = vtid):
//!
//! * spans → `B`/`E` duration pairs (category `span`);
//! * waits (including recorder lock contention) → `B`/`E` pairs in
//!   category `wait`, so blocked time is visible on the blocked track;
//! * counters and gauges → `C` counter tracks (counters as running
//!   totals, gauges as momentary values);
//! * wakes → `s`→`f` flow arrows from the waker to the wait they ended
//!   (unmatched wakes degrade to `i` instants);
//! * process/thread names → `M` metadata records.
//!
//! Timestamps are microseconds (the trace-event unit) from the
//! session's start; `displayTimeUnit` is `ns`.

use crate::recorder::{RawEvent, MAIN_VTID};
use crate::SelfTraceSession;
use std::collections::HashMap;
use tracelens_obs::json::JsonWriter;
use tracelens_obs::waitpoint;

/// Microseconds for a recorded nanosecond timestamp.
fn us(t: u64) -> u64 {
    t / 1_000
}

/// The display name of a virtual thread track.
fn thread_name(vtid: u32) -> String {
    match vtid {
        MAIN_VTID => "main".to_string(),
        v if v >= 1000 => format!("thread-{v}"),
        v => format!("worker-{}", v - 2),
    }
}

/// Writes the common tail of every event record.
fn event_common(w: &mut JsonWriter, ph: &str, ts: u64, pid: u64, tid: u64) {
    w.str(Some("ph"), ph);
    w.u64(Some("ts"), ts);
    w.u64(Some("pid"), pid);
    w.u64(Some("tid"), tid);
}

/// Renders sessions as a Chrome trace-event JSON document.
///
/// The output loads in `chrome://tracing` and Perfetto. Spans and waits
/// appear only when both edges were recorded, so `B`/`E` events are
/// always balanced per track.
pub fn chrome_trace_json(sessions: &[SelfTraceSession]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.begin_arr(Some("traceEvents"));

    let mut next_flow: u64 = 1;
    for (index, session) in sessions.iter().enumerate() {
        let pid = index as u64 + 1;
        let events = &session.recording.events;

        // Span/wait closure facts, for balance and for routing exits to
        // the opening thread's track.
        let mut span_vtid: HashMap<u64, u32> = HashMap::new();
        let mut wait_vtid: HashMap<u64, (u32, &'static str)> = HashMap::new();
        let mut span_closed: HashMap<u64, bool> = HashMap::new();
        let mut wait_closed: HashMap<u64, bool> = HashMap::new();
        // token → wait interval, for wake → flow binding.
        let mut wait_interval: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut wait_begin_t: HashMap<u64, u64> = HashMap::new();
        for e in events {
            match *e {
                RawEvent::SpanEnter { id, vtid, .. } => {
                    span_vtid.insert(id, vtid);
                    span_closed.insert(id, false);
                }
                RawEvent::SpanExit { id, .. } => {
                    span_closed.insert(id, true);
                }
                RawEvent::WaitBegin {
                    token,
                    name,
                    vtid,
                    t,
                    ..
                } => {
                    wait_vtid.insert(token, (vtid, name));
                    wait_closed.insert(token, false);
                    wait_begin_t.insert(token, t);
                }
                RawEvent::WaitEnd { token, t } => {
                    wait_closed.insert(token, true);
                    if let Some(&t0) = wait_begin_t.get(&token) {
                        wait_interval.insert(token, (t0, t));
                    }
                }
                _ => {}
            }
        }

        // Wake → wait-token flow binding: the earliest-starting
        // unconsumed wait of the target whose interval contains the
        // wake. `flow_in[token]` is the flow id its `f` event uses.
        let mut flow_in: HashMap<u64, u64> = HashMap::new();
        let mut wake_flow: Vec<Option<u64>> = Vec::new();
        for e in events {
            if let RawEvent::Wake { target, t, .. } = *e {
                let hit = wait_interval
                    .iter()
                    .filter(|(token, &(t0, t1))| {
                        !flow_in.contains_key(*token)
                            && wait_vtid.get(*token).map(|&(v, _)| v) == Some(target)
                            && t0 <= t
                            && t <= t1
                    })
                    .min_by_key(|(_, &(t0, _))| t0)
                    .map(|(&token, _)| token);
                wake_flow.push(hit.map(|token| {
                    let id = next_flow;
                    next_flow += 1;
                    flow_in.insert(token, id);
                    id
                }));
            }
        }

        // Process metadata.
        w.begin_obj(None);
        w.str(Some("name"), "process_name");
        event_common(&mut w, "M", 0, pid, 0);
        w.begin_obj(Some("args"));
        w.str(Some("name"), &session.label);
        w.end_obj();
        w.end_obj();
        let mut named_threads: Vec<u32> = events
            .iter()
            .filter_map(|e| match *e {
                RawEvent::SpanEnter { vtid, .. }
                | RawEvent::WaitBegin { vtid, .. }
                | RawEvent::Wake { vtid, .. }
                | RawEvent::Adopt { vtid, .. }
                | RawEvent::LockWait { vtid, .. }
                | RawEvent::CounterAdd { vtid, .. }
                | RawEvent::GaugeSet { vtid, .. } => Some(vtid),
                RawEvent::SpanExit { .. } | RawEvent::WaitEnd { .. } => None,
            })
            .collect();
        named_threads.sort_unstable();
        named_threads.dedup();
        for &vtid in &named_threads {
            w.begin_obj(None);
            w.str(Some("name"), "thread_name");
            event_common(&mut w, "M", 0, pid, vtid as u64);
            w.begin_obj(Some("args"));
            w.str(Some("name"), &thread_name(vtid));
            w.end_obj();
            w.end_obj();
        }

        // Counter running totals, per counter name.
        let mut totals: HashMap<&'static str, u64> = HashMap::new();
        let mut wake_index = 0usize;

        for e in events {
            match *e {
                RawEvent::SpanEnter {
                    id, name, vtid, t, ..
                } => {
                    if span_closed.get(&id) != Some(&true) {
                        continue;
                    }
                    w.begin_obj(None);
                    w.str(Some("name"), name);
                    w.str(Some("cat"), "span");
                    event_common(&mut w, "B", us(t), pid, vtid as u64);
                    w.end_obj();
                }
                RawEvent::SpanExit { id, t } => {
                    let Some(&vtid) = span_vtid.get(&id) else {
                        continue;
                    };
                    w.begin_obj(None);
                    w.str(Some("cat"), "span");
                    event_common(&mut w, "E", us(t), pid, vtid as u64);
                    w.end_obj();
                }
                RawEvent::WaitBegin {
                    token,
                    name,
                    vtid,
                    t,
                } => {
                    if wait_closed.get(&token) != Some(&true) {
                        continue;
                    }
                    w.begin_obj(None);
                    w.str(Some("name"), name);
                    w.str(Some("cat"), "wait");
                    event_common(&mut w, "B", us(t), pid, vtid as u64);
                    w.end_obj();
                }
                RawEvent::WaitEnd { token, t } => {
                    let Some(&(vtid, name)) = wait_vtid.get(&token) else {
                        continue;
                    };
                    w.begin_obj(None);
                    w.str(Some("cat"), "wait");
                    event_common(&mut w, "E", us(t), pid, vtid as u64);
                    w.end_obj();
                    if let Some(&flow) = flow_in.get(&token) {
                        w.begin_obj(None);
                        w.str(Some("name"), name);
                        w.str(Some("cat"), "unwait");
                        w.u64(Some("id"), flow);
                        w.str(Some("bp"), "e");
                        event_common(&mut w, "f", us(t), pid, vtid as u64);
                        w.end_obj();
                    }
                }
                RawEvent::Wake { name, vtid, t, .. } => {
                    let flow = wake_flow.get(wake_index).copied().flatten();
                    wake_index += 1;
                    w.begin_obj(None);
                    w.str(Some("name"), name);
                    w.str(Some("cat"), "unwait");
                    match flow {
                        Some(id) => {
                            w.u64(Some("id"), id);
                            event_common(&mut w, "s", us(t), pid, vtid as u64);
                        }
                        None => {
                            w.str(Some("s"), "t");
                            event_common(&mut w, "i", us(t), pid, vtid as u64);
                        }
                    }
                    w.end_obj();
                }
                // Adoption opens no span: nothing on the timeline.
                RawEvent::Adopt { .. } => {}
                RawEvent::LockWait { vtid, t, cost } => {
                    w.begin_obj(None);
                    w.str(Some("name"), waitpoint::OBS_LOCK);
                    w.str(Some("cat"), "wait");
                    event_common(&mut w, "B", us(t), pid, vtid as u64);
                    w.end_obj();
                    w.begin_obj(None);
                    w.str(Some("cat"), "wait");
                    event_common(&mut w, "E", us(t + cost), pid, vtid as u64);
                    w.end_obj();
                }
                RawEvent::CounterAdd {
                    name,
                    delta,
                    vtid,
                    t,
                } => {
                    let total = totals.entry(name).or_insert(0);
                    *total += delta;
                    let value = *total;
                    w.begin_obj(None);
                    w.str(Some("name"), name);
                    w.str(Some("cat"), "counter");
                    event_common(&mut w, "C", us(t), pid, vtid as u64);
                    w.begin_obj(Some("args"));
                    w.u64(Some("value"), value);
                    w.end_obj();
                    w.end_obj();
                }
                RawEvent::GaugeSet {
                    name,
                    value,
                    vtid,
                    t,
                } => {
                    w.begin_obj(None);
                    w.str(Some("name"), name);
                    w.str(Some("cat"), "counter");
                    event_common(&mut w, "C", us(t), pid, vtid as u64);
                    w.begin_obj(Some("args"));
                    w.i64(Some("value"), value);
                    w.end_obj();
                    w.end_obj();
                }
            }
        }
    }

    w.end_arr();
    w.str(Some("displayTimeUnit"), "ns");
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::SelfTraceSink;
    use tracelens_obs::json;

    fn sample_session() -> SelfTraceSession {
        let sink = SelfTraceSink::new();
        let t = sink.telemetry();
        {
            let _study = t.span("study");
            let main_token = t.thread_token().unwrap();
            t.count("study.instances", 3);
            t.gauge("pool.queue_depth", 2);
            let join = t.wait(tracelens_obs::waitpoint::POOL_JOIN);
            std::thread::scope(|s| {
                s.spawn(|| {
                    t.bind_thread("worker", 0);
                    let _w = t.span("impact");
                    t.wake(tracelens_obs::waitpoint::POOL_JOIN, main_token);
                });
            });
            drop(join);
        }
        SelfTraceSession::new("sample", sink.recording())
    }

    #[test]
    fn export_is_valid_json_with_required_fields() {
        let doc = chrome_trace_json(&[sample_session()]);
        let value = json::parse(&doc).expect("chrome export parses");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        for e in events {
            for field in ["ph", "ts", "pid", "tid"] {
                assert!(e.get(field).is_some(), "event missing {field}");
            }
        }
        assert_eq!(
            value.get("displayTimeUnit").and_then(|v| v.as_str()),
            Some("ns")
        );
    }

    #[test]
    fn begin_end_events_balance_per_track() {
        let doc = chrome_trace_json(&[sample_session()]);
        let value = json::parse(&doc).unwrap();
        let events = value.get("traceEvents").unwrap().as_arr().unwrap();
        let mut depth: HashMap<(u64, u64), i64> = HashMap::new();
        for e in events {
            let ph = e.get("ph").and_then(|v| v.as_str()).unwrap();
            let key = (
                e.get("pid").and_then(|v| v.as_u64()).unwrap(),
                e.get("tid").and_then(|v| v.as_u64()).unwrap(),
            );
            match ph {
                "B" => *depth.entry(key).or_insert(0) += 1,
                "E" => {
                    let d = depth.entry(key).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "E without B on track {key:?}");
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced: {depth:?}");
    }

    #[test]
    fn wake_produces_flow_start_and_finish() {
        let doc = chrome_trace_json(&[sample_session()]);
        let value = json::parse(&doc).unwrap();
        let events = value.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|v| v.as_str()))
            .collect();
        assert!(phases.contains(&"s"), "flow start missing: {phases:?}");
        assert!(phases.contains(&"f"), "flow finish missing: {phases:?}");
        assert!(phases.contains(&"C"), "counter track missing");
        assert!(phases.contains(&"M"), "metadata missing");
    }

    #[test]
    fn unclosed_spans_are_dropped_for_balance() {
        let sink = SelfTraceSink::new();
        let t = sink.telemetry();
        let guard = t.span("study");
        let doc = chrome_trace_json(&[SelfTraceSession::new("open", sink.recording())]);
        drop(guard);
        let value = json::parse(&doc).unwrap();
        let events = value.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(|v| v.as_str()) != Some("B")));
    }
}
