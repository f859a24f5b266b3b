//! Span/counter recorder with pluggable clock.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Handle to a span opened with [`Recorder::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span: a named interval on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (stage or component label).
    pub name: String,
    /// Category tag grouping related spans (e.g. `pipeline`, `energy`).
    pub cat: String,
    /// Track (thread lane) the span lives on; merged recorders get fresh
    /// tracks so their spans never interleave.
    pub track: u32,
    /// Start timestamp in clock ticks (µs under the wall clock).
    pub start: u64,
    /// End timestamp; equals `start` while the span is still open.
    pub end: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
    /// Free-form key/value annotations (sorted by key).
    pub args: BTreeMap<String, String>,
}

impl SpanRecord {
    /// Span length in clock ticks.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A named instantaneous marker.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name.
    pub name: String,
    /// Track the event belongs to.
    pub track: u32,
    /// Timestamp in clock ticks.
    pub ts: u64,
}

/// One sampled value of a counter series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// Timestamp in clock ticks.
    pub ts: u64,
    /// Sampled value.
    pub value: f64,
}

#[derive(Debug, Clone)]
enum Clock {
    /// Real time; ticks are microseconds since recorder creation.
    Wall(Instant),
    /// Caller-driven time; ticks mean whatever the caller wants (tests use
    /// plain integers, the simulator bridge uses cycles).
    Manual(u64),
}

/// Collects spans, counters and events with either a wall or a manual
/// clock. Free of globals: pass `&mut Recorder` to whoever should report.
///
/// Span nesting follows open order per recorder: [`Recorder::start`] pushes
/// onto an open stack, [`Recorder::end`] closes (out-of-order ends close
/// the requested span and everything opened after it, keeping the stack
/// well-formed — Chrome's trace viewer requires proper nesting).
#[derive(Debug, Clone)]
pub struct Recorder {
    clock: Clock,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    events: Vec<EventRecord>,
    counters: BTreeMap<String, Vec<CounterSample>>,
    track: u32,
    next_track: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a recorder on the wall clock (ticks = µs since creation).
    pub fn new() -> Self {
        Self::with_clock(Clock::Wall(Instant::now()))
    }

    /// Creates a recorder on a manual clock starting at tick 0. Use
    /// [`Recorder::set_time`] to advance it; timing becomes fully
    /// deterministic (tests) or simulation-driven (ticks = cycles).
    pub fn manual() -> Self {
        Self::with_clock(Clock::Manual(0))
    }

    fn with_clock(clock: Clock) -> Self {
        Self {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            track: 0,
            next_track: 1,
        }
    }

    /// Current tick count.
    pub fn now(&self) -> u64 {
        match &self.clock {
            Clock::Wall(t0) => t0.elapsed().as_micros() as u64,
            Clock::Manual(t) => *t,
        }
    }

    /// Moves a manual clock to `ticks` (no-op on the wall clock). Time may
    /// only move forward; earlier values are ignored.
    pub fn set_time(&mut self, ticks: u64) {
        if let Clock::Manual(t) = &mut self.clock {
            *t = (*t).max(ticks);
        }
    }

    /// Opens a span named `name` with an empty category.
    pub fn start(&mut self, name: &str) -> SpanId {
        self.start_cat(name, "")
    }

    /// Opens a span with an explicit category tag.
    pub fn start_cat(&mut self, name: &str, cat: &str) -> SpanId {
        let now = self.now();
        let parent = self.open.last().copied();
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            cat: cat.to_string(),
            track: self.track,
            start: now,
            end: now,
            depth: self.open.len(),
            parent,
            args: BTreeMap::new(),
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Closes `span` (and any spans opened after it still left open).
    pub fn end(&mut self, span: SpanId) {
        let now = self.now();
        while let Some(idx) = self.open.pop() {
            self.spans[idx].end = now;
            if idx == span.0 {
                return;
            }
        }
    }

    /// Attaches a key/value annotation to a span.
    pub fn annotate(&mut self, span: SpanId, key: &str, value: impl fmt::Display) {
        if let Some(s) = self.spans.get_mut(span.0) {
            s.args.insert(key.to_string(), value.to_string());
        }
    }

    /// Records an instantaneous marker.
    pub fn event(&mut self, name: &str) {
        let ts = self.now();
        self.events.push(EventRecord {
            name: name.to_string(),
            track: self.track,
            ts,
        });
    }

    /// Samples counter `name` at the current time.
    pub fn counter(&mut self, name: &str, value: f64) {
        let ts = self.now();
        self.counters
            .entry(name.to_string())
            .or_default()
            .push(CounterSample { ts, value });
    }

    /// Closes every span still open, in reverse open order.
    pub fn close_all(&mut self) {
        let now = self.now();
        while let Some(idx) = self.open.pop() {
            self.spans[idx].end = now;
        }
    }

    /// All spans in open order (parents before children).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The record behind a span handle (open or closed). `None` only for
    /// handles from another recorder with more spans.
    pub fn record_of(&self, span: SpanId) -> Option<&SpanRecord> {
        self.spans.get(span.0)
    }

    /// All instantaneous events in emission order.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Counter series, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, Vec<CounterSample>> {
        &self.counters
    }

    /// Absorbs `other`, re-homing its tracks after this recorder's so the
    /// two span forests never interleave. Use for per-thread recorders
    /// joined back into the pipeline's main one.
    pub fn merge(&mut self, mut other: Recorder) {
        other.close_all();
        let base_span = self.spans.len();
        let shift = self.next_track;
        let mut max_track = 0;
        for mut s in other.spans {
            s.track += shift;
            max_track = max_track.max(s.track);
            s.parent = s.parent.map(|p| p + base_span);
            self.spans.push(s);
        }
        for mut e in other.events {
            e.track += shift;
            max_track = max_track.max(e.track);
            self.events.push(e);
        }
        for (name, samples) in other.counters {
            self.counters.entry(name).or_default().extend(samples);
        }
        self.next_track = self.next_track.max(max_track + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_spans_are_deterministic() {
        let mut r = Recorder::manual();
        let a = r.start("outer");
        r.set_time(5);
        let b = r.start("inner");
        r.set_time(9);
        r.end(b);
        r.set_time(10);
        r.end(a);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].duration(), 10);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].duration(), 4);
    }

    #[test]
    fn out_of_order_end_closes_children() {
        let mut r = Recorder::manual();
        let a = r.start("outer");
        let _b = r.start("leaked");
        r.set_time(3);
        r.end(a);
        assert!(r.spans().iter().all(|s| s.end == 3));
        // The open stack is empty again: a new span is top-level.
        let c = r.start("next");
        assert_eq!(r.spans()[c.0].depth, 0);
    }

    #[test]
    fn merge_rehomes_tracks_and_parents() {
        let mut main = Recorder::manual();
        let m = main.start("main");
        main.set_time(4);
        main.end(m);

        let mut worker = Recorder::manual();
        let w = worker.start("worker");
        worker.set_time(2);
        let inner = worker.start("inner");
        worker.set_time(3);
        worker.end(inner);
        worker.end(w);

        main.merge(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].track, 0);
        assert_eq!(spans[1].track, 1);
        assert_eq!(spans[2].track, 1);
        assert_eq!(spans[2].parent, Some(1));
    }
}
