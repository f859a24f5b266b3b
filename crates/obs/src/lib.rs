//! # pulp-obs — lightweight pipeline telemetry
//!
//! Span/counter recording for the sim → energy → ML pipeline, with zero
//! dependencies beyond the workspace `serde` stack and no global state:
//! whoever wants telemetry owns a [`Recorder`] and passes it down.
//!
//! Two layers:
//!
//! * [`Recorder`] — collects nested [`SpanRecord`]s, counter series and
//!   instant events against either a wall clock (µs) or a caller-driven
//!   manual clock (deterministic; the simulator bridge feeds it cycles).
//! * [`chrome_trace`] — Chrome trace-event JSON (loadable in
//!   `chrome://tracing` / Perfetto), with [`validate_chrome_trace`]
//!   checking nesting and timestamp monotonicity structurally. The flight
//!   recorder's request traces render through the same writer.
//!
//! # Examples
//!
//! ```
//! use pulp_obs::{chrome_trace, validate_chrome_trace, Recorder};
//!
//! let mut rec = Recorder::manual();
//! let run = rec.start("run");
//! rec.set_time(3);
//! rec.counter("folds", 10.0);
//! rec.set_time(10);
//! rec.end(run);
//!
//! let json = chrome_trace(&rec, "example");
//! validate_chrome_trace(&json).unwrap();
//! assert_eq!(rec.spans()[0].duration(), 10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod flight;
pub mod journal;
pub mod log;
pub mod metrics;
pub mod recorder;

pub use chrome::{chrome_trace, validate_chrome_trace};
pub use flight::{FlightRecorder, RequestTrace, TraceIdGen};
pub use journal::{
    append_or_warn, journal_stage, render_journal, render_report, seeded_run_id, validate_journal,
    Journal, JournalEvent, JournalReader, JournalWriter, JOURNAL_SCHEMA_VERSION,
};
pub use log::{LogFormat, Logger};
pub use metrics::{validate_exposition, MetricsRegistry, WindowConfig};
pub use recorder::{CounterSample, EventRecord, Recorder, SpanId, SpanRecord};
