//! Chrome trace-event (Perfetto-loadable) export.
//!
//! Emits the JSON object form of the [trace event format]: a top-level
//! `traceEvents` array of complete (`ph: "X"`), counter (`ph: "C"`),
//! instant (`ph: "i"`) and metadata (`ph: "M"`) events. Load the output in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Both span trees that leave the process render here: a [`Recorder`]
//! ([`chrome_trace`]) and the flight recorder's completed request traces
//! ([`crate::FlightRecorder::chrome_recent`]).
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::flight::RequestTrace;
use crate::recorder::{Recorder, SpanRecord};
use serde::Value;
use std::sync::Arc;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The `process_name` metadata event, then one `thread_name` event per
/// `(tid, name)` lane.
fn metadata(process_name: &str, lanes: impl IntoIterator<Item = (u64, String)>) -> Vec<Value> {
    let name_event = |kind: &str, tid: u64, name: String| {
        obj(vec![
            ("name", Value::Str(kind.into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(tid)),
            ("args", obj(vec![("name", Value::Str(name))])),
        ])
    };
    let mut events = vec![name_event("process_name", 0, process_name.into())];
    events.extend(
        lanes
            .into_iter()
            .map(|(tid, name)| name_event("thread_name", tid, name)),
    );
    events
}

/// A complete (`ph: "X"`) event for `s` on lane `tid`. An empty span
/// category renders as `default_cat`; `extra` args join the span's own
/// annotations, sorted by key.
fn complete(s: &SpanRecord, tid: u64, default_cat: &str, extra: Vec<(String, Value)>) -> Value {
    let mut args: Vec<(String, Value)> = s
        .args
        .iter()
        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
        .collect();
    args.extend(extra);
    let cat = if s.cat.is_empty() {
        default_cat
    } else {
        &s.cat
    };
    let mut fields = vec![
        ("name", Value::Str(s.name.clone())),
        ("cat", Value::Str(cat.into())),
        ("ph", Value::Str("X".into())),
        ("ts", Value::U64(s.start)),
        ("dur", Value::U64(s.duration())),
        ("pid", Value::U64(0)),
        ("tid", Value::U64(tid)),
    ];
    if !args.is_empty() {
        args.sort_by(|a, b| a.0.cmp(&b.0));
        fields.push(("args", Value::Map(args)));
    }
    obj(fields)
}

/// The top-level trace document around `events`, as a JSON string.
fn document(events: Vec<Value>) -> String {
    let doc = obj(vec![
        ("displayTimeUnit", Value::Str("ms".into())),
        ("traceEvents", Value::Seq(events)),
    ]);
    serde_json::to_string(&doc).expect("value serialises")
}

/// Renders `rec` as a Chrome trace-event JSON string.
///
/// Deterministic: events appear as metadata first, then spans in open
/// order, then instants, then counter samples sorted by name. `pid` is
/// always 0; `tid` is the recorder track. Timestamps are the recorder's
/// ticks interpreted as microseconds.
pub fn chrome_trace(rec: &Recorder, process_name: &str) -> String {
    let mut tracks: Vec<u32> = rec.spans().iter().map(|s| s.track).collect();
    tracks.extend(rec.events().iter().map(|e| e.track));
    tracks.sort_unstable();
    tracks.dedup();
    let lanes = tracks
        .iter()
        .map(|track| (u64::from(*track), format!("track{track}")));
    let mut events = metadata(process_name, lanes);
    for s in rec.spans() {
        events.push(complete(s, u64::from(s.track), "span", Vec::new()));
    }
    for e in rec.events() {
        events.push(obj(vec![
            ("name", Value::Str(e.name.clone())),
            ("ph", Value::Str("i".into())),
            ("ts", Value::U64(e.ts)),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(u64::from(e.track))),
            ("s", Value::Str("t".into())),
        ]));
    }
    for (name, samples) in rec.counters() {
        for sample in samples {
            events.push(obj(vec![
                ("name", Value::Str(name.clone())),
                ("ph", Value::Str("C".into())),
                ("ts", Value::U64(sample.ts)),
                ("pid", Value::U64(0)),
                ("args", obj(vec![("value", Value::F64(sample.value))])),
            ]));
        }
    }
    document(events)
}

/// Renders completed request traces as one Chrome trace-event JSON string.
///
/// Each trace gets its own thread lane (`tid` = position in `traces`,
/// thread-named `trace<id> <label>`), so per-lane timestamps restart at the
/// trace's own clock zero while staying monotone within the lane — the
/// shape [`validate_chrome_trace`] checks. Root spans carry the trace id
/// and status in their `args` next to any recorded annotations.
pub(crate) fn chrome_trace_of_requests(traces: &[Arc<RequestTrace>], process_name: &str) -> String {
    let lanes = traces
        .iter()
        .enumerate()
        .map(|(tid, t)| (tid as u64, format!("trace{} {}", t.trace_id, t.label)));
    let mut events = metadata(process_name, lanes);
    for (tid, trace) in traces.iter().enumerate() {
        for s in &trace.spans {
            let root_args = if s.parent.is_none() {
                vec![
                    ("status".to_string(), Value::U64(u64::from(trace.status))),
                    ("trace_id".to_string(), Value::U64(trace.trace_id)),
                ]
            } else {
                Vec::new()
            };
            events.push(complete(s, tid as u64, "request", root_args));
        }
    }
    document(events)
}

/// Structural check for an exported trace: parses the JSON, then verifies
/// per-`tid` that complete events have monotonically non-decreasing start
/// timestamps and properly nest (each span is either disjoint from or fully
/// contained in the one enclosing it).
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(json: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let events = v
        .field("traceEvents")
        .and_then(|e| e.as_seq())
        .map_err(|e| e.to_string())?;
    // (tid, ts, end, name) of complete events, in file order.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(u64, u64, String)>> =
        std::collections::BTreeMap::new();
    for ev in events {
        let ph = ev
            .field("ph")
            .and_then(|p| p.as_str())
            .map_err(|e| e.to_string())?;
        if ph != "X" {
            continue;
        }
        let ts = ev
            .field("ts")
            .and_then(|t| t.as_u64())
            .map_err(|e| e.to_string())?;
        let dur = ev
            .field("dur")
            .and_then(|d| d.as_u64())
            .map_err(|e| e.to_string())?;
        let tid = ev
            .field("tid")
            .and_then(|t| t.as_u64())
            .map_err(|e| e.to_string())?;
        let name = ev
            .field("name")
            .and_then(|n| n.as_str())
            .map_err(|e| e.to_string())?;
        by_tid
            .entry(tid)
            .or_default()
            .push((ts, ts + dur, name.to_string()));
    }
    for (tid, spans) in &by_tid {
        let mut stack: Vec<(u64, u64, &str)> = Vec::new();
        let mut last_ts = 0u64;
        for (ts, end, name) in spans {
            if *ts < last_ts {
                return Err(format!(
                    "tid {tid}: span `{name}` starts at {ts} before previous start {last_ts}"
                ));
            }
            last_ts = *ts;
            while let Some((_, open_end, _)) = stack.last() {
                if *ts >= *open_end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some((open_ts, open_end, open_name)) = stack.last() {
                if *end > *open_end {
                    return Err(format!(
                        "tid {tid}: span `{name}` [{ts}, {end}) escapes enclosing \
                         `{open_name}` [{open_ts}, {open_end})"
                    ));
                }
            }
            stack.push((*ts, *end, name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_round_trips_and_nests() {
        let mut r = Recorder::manual();
        let a = r.start_cat("pipeline", "stage");
        r.set_time(2);
        let b = r.start("simulate");
        r.set_time(8);
        r.end(b);
        r.set_time(10);
        r.end(a);
        r.counter("progress", 1.0);
        r.event("checkpoint");
        let json = chrome_trace(&r, "pulp");
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v.field("traceEvents").unwrap().as_seq().unwrap();
        assert!(events.len() >= 5);
        validate_chrome_trace(&json).expect("well nested");
    }

    #[test]
    fn validator_rejects_escaping_span() {
        let bad = r#"{"traceEvents":[
            {"name":"outer","ph":"X","ts":0,"dur":5,"pid":0,"tid":0},
            {"name":"inner","ph":"X","ts":3,"dur":10,"pid":0,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("escapes"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_backwards_time() {
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":9,"dur":1,"pid":0,"tid":0},
            {"name":"b","ph":"X","ts":3,"dur":1,"pid":0,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(bad).is_err());
    }

    /// The exported bytes are an interface (perfbench parses the
    /// `/debug/requests` spans): fixed inputs must render to these exact
    /// strings.
    #[test]
    fn exported_bytes_are_pinned() {
        use crate::flight::{FlightRecorder, RequestTrace};

        let request = |extra: u64| {
            let mut r = Recorder::manual();
            let root = r.start("request");
            r.annotate(root, "conn", 3);
            let wait = r.start_cat("queue_wait", "io");
            r.set_time(2);
            r.end(wait);
            let predict = r.start("predict");
            r.annotate(predict, "cores", 4);
            r.set_time(5 + extra);
            r.end(predict);
            r.set_time(6 + extra);
            r.end(root);
            r.spans().to_vec()
        };
        let flight = FlightRecorder::new(4);
        flight.record(RequestTrace::new(7, "/predict", 200, request(0)));
        flight.record(RequestTrace::new(8, "/predict/batch", 400, request(10)));
        assert_eq!(
            flight.chrome_recent(4, "pulp-serve"),
            r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"pulp-serve"}},{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"trace7 /predict"}},{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"trace8 /predict/batch"}},{"name":"request","cat":"request","ph":"X","ts":0,"dur":6,"pid":0,"tid":0,"args":{"conn":"3","status":200,"trace_id":7}},{"name":"queue_wait","cat":"io","ph":"X","ts":0,"dur":2,"pid":0,"tid":0},{"name":"predict","cat":"request","ph":"X","ts":2,"dur":3,"pid":0,"tid":0,"args":{"cores":"4"}},{"name":"request","cat":"request","ph":"X","ts":0,"dur":16,"pid":0,"tid":1,"args":{"conn":"3","status":400,"trace_id":8}},{"name":"queue_wait","cat":"io","ph":"X","ts":0,"dur":2,"pid":0,"tid":1},{"name":"predict","cat":"request","ph":"X","ts":2,"dur":13,"pid":0,"tid":1,"args":{"cores":"4"}}]}"#
        );
        assert_eq!(
            flight.slow_json(4),
            r#"[{"trace_id":8,"label":"/predict/batch","status":400,"total_ticks":16,"spans":[{"name":"request","start":0,"dur":16},{"name":"queue_wait","start":0,"dur":2},{"name":"predict","start":2,"dur":13}]},{"trace_id":7,"label":"/predict","status":200,"total_ticks":6,"spans":[{"name":"request","start":0,"dur":6},{"name":"queue_wait","start":0,"dur":2},{"name":"predict","start":2,"dur":3}]}]"#
        );

        let mut rec = Recorder::manual();
        let run = rec.start_cat("run", "stage");
        rec.annotate(run, "samples", 2);
        rec.set_time(1);
        let sim = rec.start("simulate");
        rec.event("checkpoint");
        rec.set_time(4);
        rec.end(sim);
        rec.counter("progress", 0.5);
        rec.set_time(9);
        rec.counter("progress", 1.0);
        rec.end(run);
        let mut worker = Recorder::manual();
        let w = worker.start_cat("measure", "cache");
        worker.set_time(3);
        worker.event("hit");
        worker.end(w);
        worker.counter("hits", 1.0);
        rec.merge(worker);
        assert_eq!(
            chrome_trace(&rec, "pulp"),
            r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"pulp"}},{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"track0"}},{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"track1"}},{"name":"run","cat":"stage","ph":"X","ts":0,"dur":9,"pid":0,"tid":0,"args":{"samples":"2"}},{"name":"simulate","cat":"span","ph":"X","ts":1,"dur":3,"pid":0,"tid":0},{"name":"measure","cat":"cache","ph":"X","ts":0,"dur":3,"pid":0,"tid":1},{"name":"checkpoint","ph":"i","ts":1,"pid":0,"tid":0,"s":"t"},{"name":"hit","ph":"i","ts":3,"pid":0,"tid":1,"s":"t"},{"name":"hits","ph":"C","ts":3,"pid":0,"args":{"value":1.0}},{"name":"progress","ph":"C","ts":4,"pid":0,"args":{"value":0.5}},{"name":"progress","ph":"C","ts":9,"pid":0,"args":{"value":1.0}}]}"#
        );
    }

    #[test]
    fn merged_tracks_get_distinct_tids() {
        let mut main = Recorder::manual();
        let m = main.start("main");
        main.set_time(10);
        main.end(m);
        let mut w = Recorder::manual();
        let s = w.start("worker");
        w.set_time(4);
        w.end(s);
        main.merge(w);
        let json = chrome_trace(&main, "pulp");
        validate_chrome_trace(&json).expect("valid");
        assert!(json.contains("\"tid\":1"));
    }
}
