//! Flight recorder: bounded retention of completed request traces.
//!
//! The serving tier gives every admitted request a trace id from a
//! [`TraceIdGen`] and records its stages as a span tree in a
//! [`crate::Recorder`]. On completion the tree is frozen into a
//! [`RequestTrace`] and pushed into the [`FlightRecorder`], one ring that
//! keeps exactly the last N completed traces with O(1) eviction, plus a
//! small "worst K since start" table for post-hoc tail forensics. Retained
//! traces render deterministically as Chrome trace-event JSON (one thread
//! lane per trace, see [`crate::chrome`]) accepted by
//! [`crate::validate_chrome_trace`], or as a compact JSON summary.

use crate::recorder::SpanRecord;
use serde::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Monotonic trace-id source: an atomic counter starting at a seed.
///
/// Ids are unique per generator (and therefore per process when one
/// generator is shared); seeding keeps test output reproducible.
#[derive(Debug)]
pub struct TraceIdGen {
    next: AtomicU64,
}

impl TraceIdGen {
    /// Creates a generator whose first id is `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            next: AtomicU64::new(seed),
        }
    }

    /// Returns the next trace id (consecutive from the seed).
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

impl Default for TraceIdGen {
    fn default() -> Self {
        Self::new(1)
    }
}

/// One completed request trace as retained by the [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Trace id stamped at admission.
    pub trace_id: u64,
    /// Request label (the endpoint path for the serving tier).
    pub label: String,
    /// Final status code (HTTP status for the serving tier).
    pub status: u16,
    /// Completed spans, root first, timestamps in recorder ticks (µs for
    /// the serving tier's request clock).
    pub spans: Vec<SpanRecord>,
    /// Completion sequence assigned by [`FlightRecorder::record`]; zero
    /// until recorded.
    seq: u64,
}

impl RequestTrace {
    /// Builds a trace from its parts; `spans` are a closed span tree, root
    /// first ([`crate::Recorder::spans`] after [`crate::Recorder::close_all`]).
    pub fn new(trace_id: u64, label: &str, status: u16, spans: Vec<SpanRecord>) -> Self {
        Self {
            trace_id,
            label: label.to_string(),
            status,
            spans,
            seq: 0,
        }
    }

    /// Completion sequence number (insertion order across the recorder).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Total request duration in ticks: the extent of the span tree.
    pub fn total_ticks(&self) -> u64 {
        self.spans.iter().map(|s| s.end).max().unwrap_or(0)
            - self.spans.iter().map(|s| s.start).min().unwrap_or(0)
    }

    /// First span with the given name, if any.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// How many "worst since start" traces the recorder keeps.
const SLOW_TABLE_CAP: usize = 64;

/// Bounded ring of the last N completed [`RequestTrace`]s.
///
/// One [`VecDeque`] with a fixed cap holds the retained traces in
/// completion order, so insertion evicts the oldest trace in O(1) and
/// retention is exactly the newest `capacity`. A separate bounded table
/// keeps the worst `SLOW_TABLE_CAP` traces by total duration since start.
/// Ring, completion count and table share one lock: the serving tier
/// records from its event-loop thread only, so there is no contention to
/// spread.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Flight>,
}

/// The state behind the [`FlightRecorder`]'s lock.
#[derive(Debug, Default)]
struct Flight {
    ring: VecDeque<Arc<RequestTrace>>,
    /// Completions recorded since start (the last assigned sequence).
    seq: u64,
    /// Sorted descending by duration, ties in completion order.
    slow: Vec<Arc<RequestTrace>>,
}

impl FlightRecorder {
    /// A recorder retaining the newest `capacity` traces. `capacity` is
    /// clamped to at least 1.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Flight::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Flight> {
        self.inner.lock().expect("flight recorder poisoned")
    }

    /// Maximum traces the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum traces the slow table retains (`SLOW_TABLE_CAP`) — the
    /// upper bound for `/debug/slow?n=` requests.
    pub fn slow_capacity(&self) -> usize {
        SLOW_TABLE_CAP
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// True when no trace has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Completions recorded since start (including evicted traces).
    pub fn completed(&self) -> u64 {
        self.lock().seq
    }

    /// Records a completed trace, evicting the oldest retained trace if the
    /// ring is full. Returns the trace's completion sequence.
    pub fn record(&self, mut trace: RequestTrace) -> u64 {
        let total = trace.total_ticks();
        let mut flight = self.lock();
        flight.seq += 1;
        let seq = flight.seq;
        trace.seq = seq;
        let trace = Arc::new(trace);
        if flight.ring.len() >= self.capacity {
            flight.ring.pop_front();
        }
        flight.ring.push_back(Arc::clone(&trace));
        // The table is tiny, so a sorted insert beats re-sorting on read.
        let pos = flight.slow.partition_point(|t| t.total_ticks() >= total);
        if pos < SLOW_TABLE_CAP {
            flight.slow.insert(pos, trace);
            flight.slow.truncate(SLOW_TABLE_CAP);
        }
        seq
    }

    /// The most recent `n` retained traces in completion order (oldest
    /// first).
    pub fn recent(&self, n: usize) -> Vec<Arc<RequestTrace>> {
        let flight = self.lock();
        let skip = flight.ring.len().saturating_sub(n);
        flight.ring.iter().skip(skip).cloned().collect()
    }

    /// The worst `k` traces by total duration since start (not limited to
    /// the ring's retention window), slowest first.
    pub fn slowest(&self, k: usize) -> Vec<Arc<RequestTrace>> {
        self.lock().slow.iter().take(k).cloned().collect()
    }

    /// The most recent `n` traces as a Chrome trace-event JSON string, one
    /// thread lane per trace.
    pub fn chrome_recent(&self, n: usize, process_name: &str) -> String {
        crate::chrome::chrome_trace_of_requests(&self.recent(n), process_name)
    }

    /// The worst `k` traces since start as a deterministic JSON summary,
    /// slowest first: a sequence of `{trace_id, label, status,
    /// total_ticks, spans: [{name, start, dur}]}` maps.
    pub fn slow_json(&self, k: usize) -> String {
        let summary = self
            .slowest(k)
            .iter()
            .map(|t| {
                let spans = t
                    .spans
                    .iter()
                    .map(|s| {
                        Value::Map(vec![
                            ("name".to_string(), Value::Str(s.name.clone())),
                            ("start".to_string(), Value::U64(s.start)),
                            ("dur".to_string(), Value::U64(s.duration())),
                        ])
                    })
                    .collect();
                Value::Map(vec![
                    ("trace_id".to_string(), Value::U64(t.trace_id)),
                    ("label".to_string(), Value::Str(t.label.clone())),
                    ("status".to_string(), Value::U64(u64::from(t.status))),
                    ("total_ticks".to_string(), Value::U64(t.total_ticks())),
                    ("spans".to_string(), Value::Seq(spans)),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Seq(summary)).expect("value serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::validate_chrome_trace;
    use crate::recorder::Recorder;

    fn trace_of(id: u64, total: u64) -> RequestTrace {
        let mut rec = Recorder::manual();
        let root = rec.start("request");
        let child = rec.start("work");
        rec.set_time(total / 2);
        rec.end(child);
        rec.set_time(total);
        rec.end(root);
        RequestTrace::new(id, "/predict", 200, rec.spans().to_vec())
    }

    #[test]
    fn id_gen_is_consecutive_from_seed() {
        let gen = TraceIdGen::new(7);
        assert_eq!(gen.next_id(), 7);
        assert_eq!(gen.next_id(), 8);
    }

    #[test]
    fn single_stripe_evicts_oldest_in_completion_order() {
        let fr = FlightRecorder::new(3);
        for id in 0..5u64 {
            fr.record(trace_of(id, 10 + id));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.completed(), 5);
        let recent = fr.recent(10);
        let ids: Vec<u64> = recent.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest traces must be evicted first");
        let seqs: Vec<u64> = recent.iter().map(|t| t.seq()).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
    }

    /// Completion order, not trace-id order, decides what `recent` returns
    /// and what the ring evicts.
    #[test]
    fn striped_recent_merges_in_completion_order() {
        let fr = FlightRecorder::new(3);
        for id in [5u64, 2, 9, 4, 0, 7] {
            fr.record(trace_of(id, 100));
        }
        let ids: Vec<u64> = fr.recent(10).iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![4, 0, 7]);
        let ids: Vec<u64> = fr.recent(2).iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![0, 7]);
    }

    #[test]
    fn slowest_survives_ring_eviction() {
        let fr = FlightRecorder::new(2);
        fr.record(trace_of(1, 500)); // slowest, will be evicted from the ring
        for id in 2..6u64 {
            fr.record(trace_of(id, 10));
        }
        assert!(fr.recent(10).iter().all(|t| t.trace_id != 1));
        let slow = fr.slowest(2);
        assert_eq!(slow[0].trace_id, 1);
        assert_eq!(slow[0].total_ticks(), 500);
    }

    #[test]
    fn chrome_rendering_validates_and_keeps_per_trace_lanes() {
        let fr = FlightRecorder::new(8);
        fr.record(trace_of(1, 40));
        fr.record(trace_of(2, 20));
        let json = fr.chrome_recent(8, "pulp-serve");
        validate_chrome_trace(&json).expect("flight chrome trace must validate");
        assert!(
            json.contains("trace1 /predict"),
            "missing lane name: {json}"
        );
        assert!(json.contains("\"trace_id\":2"), "missing root args: {json}");
    }

    #[test]
    fn slow_json_is_deterministic_and_sorted() {
        let fr = FlightRecorder::new(8);
        fr.record(trace_of(1, 10));
        fr.record(trace_of(2, 30));
        fr.record(trace_of(3, 20));
        let json = fr.slow_json(2);
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let seq = v.as_seq().expect("array");
        assert_eq!(seq.len(), 2);
        let first = seq[0].field("trace_id").unwrap().as_u64().unwrap();
        let second = seq[1].field("trace_id").unwrap().as_u64().unwrap();
        assert_eq!((first, second), (2, 3));
    }
}
