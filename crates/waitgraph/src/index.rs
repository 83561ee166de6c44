//! Per-stream indices that make Wait-Graph construction near-linear.
//!
//! A stream is shared by every scenario instance recorded in it, so the
//! index is built once per stream and reused across instance graphs.
//! Everything it keeps is a flat array: one hash lookup maps a thread
//! id to its slot, and the slot to a contiguous run of event ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::ops::Range;
use tracelens_model::{EventId, EventKind, HeapSize, ThreadId, TimeNs, TraceStream};

/// `pair` entry of events that have no paired unwait.
const NO_PAIR: u32 = u32::MAX;

/// Precomputed lookup structures over one [`TraceStream`]:
///
/// * per-thread event lists (in stream order, so sorted by time on a
///   valid stream) with their start times alongside, for wait-interval
///   queries;
/// * per-event wait/unwait pairs, resolved once here rather than per
///   graph node;
/// * per-event *effective ends*: for wait events the timestamp of the
///   paired unwait (their raw cost is zero until restored), for other
///   events `t + cost`.
#[derive(Debug, Clone)]
pub struct StreamIndex {
    /// Thread id → slot in `threads`.
    slots: HashMap<ThreadId, u32, BuildHasherDefault<TidHasher>>,
    /// Events of each thread.
    threads: Lists,
    /// Event id → paired unwait id ([`NO_PAIR`] for all but paired
    /// waits).
    pair: Vec<u32>,
    /// Event id → effective end timestamp.
    effective_end: Vec<TimeNs>,
    /// Wait events with no pairable unwait (truncated or lossy traces).
    orphan_waits: usize,
    /// Unwait events never selected as any wait's pair (their wait was
    /// dropped, or they predate every wait of the woken thread).
    stray_unwaits: usize,
}

impl StreamIndex {
    /// Builds the index for `stream`.
    pub fn new(stream: &TraceStream) -> Self {
        let events = stream.events();
        let mut slots = HashMap::default();
        let mut by_thread = Vec::with_capacity(events.len());
        let mut by_woken = Vec::new();
        let mut waits = Vec::new();
        let mut effective_end = Vec::with_capacity(events.len());
        let mut total_unwaits = 0usize;
        // Consecutive events often share a thread: reuse the last lookup.
        let mut last: Option<(ThreadId, u32)> = None;
        for (i, e) in events.iter().enumerate() {
            let s = match last {
                Some((tid, s)) if tid == e.tid => s,
                _ => {
                    let s = slot(&mut slots, e.tid);
                    last = Some((e.tid, s));
                    s
                }
            };
            let entry = (s, EventId(i as u32), e.t);
            by_thread.push(entry);
            effective_end.push(e.end());
            match e.kind {
                EventKind::Wait => waits.push(entry),
                EventKind::Unwait => {
                    total_unwaits += 1;
                    if let Some(w) = e.wtid {
                        by_woken.push((slot(&mut slots, w), entry.1, e.t));
                    }
                }
                EventKind::Running | EventKind::HardwareService => {}
            }
        }
        let threads = Lists::group(slots.len(), &by_thread);
        // Unwaits by woken thread are only needed to pair each wait
        // with the earliest unwait of its thread at or after its start.
        let woken = Lists::group(slots.len(), &by_woken);

        let mut pair = vec![NO_PAIR; events.len()];
        let mut claimed = vec![false; woken.ids.len()];
        let mut orphan_waits = 0usize;
        for (s, id, t) in waits {
            let range = woken.range(s);
            let at = range.start + woken.times[range.clone()].partition_point(|&u| u < t);
            if at < range.end {
                pair[id.0 as usize] = woken.ids[at].0;
                effective_end[id.0 as usize] = woken.times[at];
                claimed[at] = true;
            } else {
                orphan_waits += 1;
            }
        }
        let paired = claimed.iter().filter(|&&c| c).count();
        StreamIndex {
            slots,
            threads,
            pair,
            effective_end,
            orphan_waits,
            stray_unwaits: total_unwaits - paired,
        }
    }

    /// Wait events of this stream whose unwait is missing — the lossy
    /// reality Wait-Graph construction turns into
    /// [`crate::NodeKind::UnpairedWait`] leaves. Zero on pristine
    /// simulator output.
    pub fn orphan_waits(&self) -> usize {
        self.orphan_waits
    }

    /// Unwait events never selected as any wait's pair. They are
    /// counted here and otherwise ignored by graph construction (an
    /// unwait never becomes a node). Zero on pristine simulator output.
    pub fn stray_unwaits(&self) -> usize {
        self.stray_unwaits
    }

    /// [`StreamIndex::new`] with telemetry: reports index counters and a
    /// per-stream indexing-time histogram. With a disabled handle this
    /// is exactly `new`.
    pub fn new_traced(stream: &TraceStream, telemetry: &tracelens_obs::Telemetry) -> Self {
        if !telemetry.enabled() {
            return StreamIndex::new(stream);
        }
        let start = std::time::Instant::now();
        let index = StreamIndex::new(stream);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        telemetry.count("waitgraph.indices", 1);
        telemetry.count("waitgraph.indexed_events", stream.len() as u64);
        telemetry.record("waitgraph.index_ns", elapsed);
        if index.orphan_waits > 0 {
            telemetry.count("waitgraph.orphan_waits", index.orphan_waits as u64);
        }
        if index.stray_unwaits > 0 {
            telemetry.count("waitgraph.stray_unwaits", index.stray_unwaits as u64);
        }
        index
    }

    /// The unwait event paired with wait event `id`: the earliest
    /// unwait waking the waiting thread at or after the wait start.
    /// `None` for orphan waits, non-wait events and unknown ids.
    pub fn pair(&self, id: EventId) -> Option<EventId> {
        match self.pair.get(id.0 as usize) {
            Some(&u) if u != NO_PAIR => Some(EventId(u)),
            _ => None,
        }
    }

    /// The effective end of an event: for wait events the paired unwait
    /// timestamp, otherwise `t + cost`. Zero for unknown ids.
    pub fn effective_end(&self, id: EventId) -> TimeNs {
        self.effective_end
            .get(id.0 as usize)
            .copied()
            .unwrap_or(TimeNs::ZERO)
    }

    /// Events of `tid` whose effective interval overlaps the half-open
    /// interval `[from, to)`, in time order.
    ///
    /// Relies on per-thread event intervals being non-overlapping (a
    /// suspended thread emits nothing, sampled running events are
    /// sequential), so the events spanning `from` form a contiguous run
    /// directly before the first event starting at or after `from`.
    pub fn thread_events_overlapping(&self, tid: ThreadId, from: TimeNs, to: TimeNs) -> &[EventId] {
        let Some(&slot) = self.slots.get(&tid) else {
            return &[];
        };
        let range = self.threads.range(slot);
        let (ids, times) = (&self.threads.ids[range.clone()], &self.threads.times[range]);
        let mut lo = times.partition_point(|&t| t < from);
        // Step back over events that start before `from` but spill into
        // the interval (e.g. a wait that is still pending at `from`).
        while lo > 0 && self.effective_end(ids[lo - 1]) > from {
            lo -= 1;
        }
        let len = times[lo..].iter().take_while(|&&t| t < to).count();
        &ids[lo..lo + len]
    }

    /// Events of `tid` in stream order (empty for unknown threads).
    pub fn thread_events(&self, tid: ThreadId) -> &[EventId] {
        match self.slots.get(&tid) {
            Some(&slot) => &self.threads.ids[self.threads.range(slot)],
            None => &[],
        }
    }
}

impl HeapSize for StreamIndex {
    fn heap_size(&self) -> usize {
        // A hash slot holds a (ThreadId, u32) pair plus one control byte.
        self.slots.capacity() * (size_of::<ThreadId>() + size_of::<u32>() + 1)
            + self.threads.heap_size()
            + self.pair.heap_size()
            + self.effective_end.heap_size()
    }
}

/// The slot of `tid`, assigning the next free one on first sight.
fn slot(slots: &mut HashMap<ThreadId, u32, BuildHasherDefault<TidHasher>>, tid: ThreadId) -> u32 {
    let next = slots.len() as u32;
    *slots.entry(tid).or_insert(next)
}

/// Event lists keyed by thread slot, in one flat array: slot `s` owns
/// `ids[start[s]..start[s + 1]]`, with each event's start time at the
/// same position in `times`, so a time search never touches the stream.
#[derive(Debug, Clone)]
struct Lists {
    start: Vec<u32>,
    ids: Vec<EventId>,
    times: Vec<TimeNs>,
}

impl Lists {
    /// Groups `(slot, event, start time)` entries by slot, keeping
    /// their order within a slot (a counting sort).
    fn group(slots: usize, entries: &[(u32, EventId, TimeNs)]) -> Lists {
        let mut start = vec![0u32; slots + 1];
        for &(s, _, _) in entries {
            start[s as usize + 1] += 1;
        }
        for s in 1..start.len() {
            start[s] += start[s - 1];
        }
        let mut next = start.clone();
        let mut ids = vec![EventId(0); entries.len()];
        let mut times = vec![TimeNs::ZERO; entries.len()];
        for &(s, id, t) in entries {
            let at = next[s as usize] as usize;
            next[s as usize] += 1;
            ids[at] = id;
            times[at] = t;
        }
        Lists { start, ids, times }
    }

    fn range(&self, slot: u32) -> Range<usize> {
        self.start[slot as usize] as usize..self.start[slot as usize + 1] as usize
    }
}

impl HeapSize for Lists {
    fn heap_size(&self) -> usize {
        self.start.heap_size() + self.ids.heap_size() + self.times.heap_size()
    }
}

/// Multiplicative hash for thread ids: they are small integers hashed
/// once per event while indexing, where SipHash would dominate.
#[derive(Default)]
struct TidHasher(u64);

impl Hasher for TidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(TID_HASH_FACTOR);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(TID_HASH_FACTOR);
    }
}

/// 2⁶⁴ / φ, odd: distinct small ids keep distinct low bits.
const TID_HASH_FACTOR: u64 = 0x9E37_79B9_7F4A_7C15;

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_model::{StackId, TraceStreamBuilder};

    fn stream() -> TraceStream {
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(10), StackId(0));
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, StackId(0));
        b.push_running(ThreadId(2), TimeNs(5), TimeNs(10), StackId(0));
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(15), StackId(0));
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(25), StackId(0));
        b.finish().unwrap()
    }

    #[test]
    fn pairing_finds_earliest_at_or_after() {
        // Thread 1 waits at 10 (woken at 15), at 16 (woken at 25) and at
        // 26 (never woken); thread 3's wait has no unwait at all.
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, StackId(0));
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(15), StackId(0));
        b.push_wait(ThreadId(1), TimeNs(16), TimeNs::ZERO, StackId(0));
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(25), StackId(0));
        b.push_wait(ThreadId(1), TimeNs(26), TimeNs::ZERO, StackId(0));
        b.push_wait(ThreadId(3), TimeNs(0), TimeNs::ZERO, StackId(0));
        let s = b.finish().unwrap();
        let idx = StreamIndex::new(&s);
        let paired_at = |t: u64| {
            let (i, _) = s
                .events()
                .iter()
                .enumerate()
                .find(|(_, e)| e.kind == EventKind::Wait && e.t == TimeNs(t))
                .unwrap();
            idx.pair(EventId(i as u32)).map(|u| s.event(u).unwrap().t.0)
        };
        assert_eq!(paired_at(10), Some(15));
        assert_eq!(paired_at(16), Some(25));
        assert_eq!(paired_at(26), None);
        assert_eq!(paired_at(0), None);
        assert_eq!(idx.orphan_waits(), 2);
        // Non-wait events and unknown ids have no pair.
        let unwait = s.events().iter().position(|e| e.kind == EventKind::Unwait);
        assert_eq!(idx.pair(EventId(unwait.unwrap() as u32)), None);
        assert_eq!(idx.pair(EventId(999)), None);
    }

    #[test]
    fn effective_end_of_wait_is_paired_unwait_time() {
        let s = stream();
        let idx = StreamIndex::new(&s);
        // Event 1 (after sorting) is the wait at t=10 → paired at 15.
        let wait_id = s
            .events()
            .iter()
            .position(|e| e.kind == EventKind::Wait)
            .unwrap();
        assert_eq!(idx.effective_end(EventId(wait_id as u32)), TimeNs(15));
        // Unknown ids are zero.
        assert_eq!(idx.effective_end(EventId(999)), TimeNs::ZERO);
    }

    #[test]
    fn overlap_includes_spanning_event() {
        let s = stream();
        let idx = StreamIndex::new(&s);
        // Thread 2's running event [5, 15) spans from=10.
        let hits = idx.thread_events_overlapping(ThreadId(2), TimeNs(10), TimeNs(15));
        let times: Vec<u64> = hits.iter().map(|&id| s.event(id).unwrap().t.0).collect();
        assert!(times.contains(&5), "spanning event included: {times:?}");
    }

    #[test]
    fn overlap_includes_pending_wait_started_earlier() {
        // Thread 2 waits at t=5 (zero raw cost), paired at t=50: it is
        // still pending at from=20 and must be included.
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(2), TimeNs(5), TimeNs::ZERO, StackId(0));
        b.push_unwait(ThreadId(3), ThreadId(2), TimeNs(50), StackId(0));
        let s = b.finish().unwrap();
        let idx = StreamIndex::new(&s);
        let hits = idx.thread_events_overlapping(ThreadId(2), TimeNs(20), TimeNs(60));
        assert_eq!(hits.len(), 1);
        assert_eq!(s.event(hits[0]).unwrap().t, TimeNs(5));
    }

    #[test]
    fn overlap_excludes_disjoint() {
        let s = stream();
        let idx = StreamIndex::new(&s);
        let hits = idx.thread_events_overlapping(ThreadId(2), TimeNs(40), TimeNs(50));
        assert!(hits.is_empty());
        let none = idx.thread_events_overlapping(ThreadId(7), TimeNs(0), TimeNs(50));
        assert!(none.is_empty());
    }

    #[test]
    fn orphan_and_stray_counters() {
        // Fixture: one wait paired with the unwait at t=15; the second
        // unwait at t=25 wakes nobody → stray.
        let s = stream();
        let idx = StreamIndex::new(&s);
        assert_eq!(idx.orphan_waits(), 0);
        assert_eq!(idx.stray_unwaits(), 1);

        // A wait with no unwait anywhere is an orphan.
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, StackId(0));
        b.push_running(ThreadId(2), TimeNs(0), TimeNs(5), StackId(0));
        let lossy = b.finish().unwrap();
        let idx = StreamIndex::new(&lossy);
        assert_eq!(idx.orphan_waits(), 1);
        assert_eq!(idx.stray_unwaits(), 0);

        // An unwait strictly before every wait of the woken thread is
        // stray, and leaves the wait orphaned.
        let mut b = TraceStreamBuilder::new(0);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(5), StackId(0));
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, StackId(0));
        let skewed = b.finish().unwrap();
        let idx = StreamIndex::new(&skewed);
        assert_eq!(idx.orphan_waits(), 1);
        assert_eq!(idx.stray_unwaits(), 1);
    }

    #[test]
    fn thread_events_sorted() {
        let s = stream();
        let idx = StreamIndex::new(&s);
        let evs = idx.thread_events(ThreadId(2));
        let times: Vec<u64> = evs.iter().map(|&id| s.event(id).unwrap().t.0).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }
}
