//! Run journal — a durable, append-only JSONL event log per batch run.
//!
//! Batch observability before this module was ephemeral: stderr progress
//! lines and in-process [`Recorder`](crate::Recorder)s vanish with the
//! process, so an hour-scale labelling sweep that dies at sample 40k
//! leaves nothing to post-mortem. A [`JournalWriter`] gives every run a
//! machine-readable record on disk: one JSON object per line, strictly
//! sequenced, schema-versioned, correlated to the run's `RunManifest` by
//! a seeded run id, and finalized with a terminating `run_end` record so
//! truncated journals are mechanically detectable.
//!
//! The encoding is **canonical** — fixed field order, one line per event,
//! `\n` separators — so a journal read back through [`JournalReader`] and
//! re-rendered with [`render_journal`] reproduces the original bytes.
//! [`validate_journal`] mirrors the Chrome-trace and metrics-exposition
//! validators: it parses the text structurally and reports the first
//! violation (bad version, sequence gap, run-id mismatch, unbalanced
//! stages, missing finalizer) as a human-readable error.
//!
//! # Examples
//!
//! ```
//! use pulp_obs::journal::{
//!     render_report, seeded_run_id, validate_journal, JournalEvent, JournalReader,
//!     JournalWriter,
//! };
//!
//! let mut w = JournalWriter::in_memory("demo", "abc123", 42);
//! w.event(JournalEvent::StageStart { stage: "measure".into() }).unwrap();
//! w.event(JournalEvent::StageEnd { stage: "measure".into(), wall_ms: 12.5 }).unwrap();
//! let text = w.finalize_to_string().unwrap();
//!
//! validate_journal(&text).unwrap();
//! let journal = JournalReader::read_str(&text).unwrap();
//! assert_eq!(journal.run_id, seeded_run_id("demo", "abc123", 42));
//! assert!(render_report(&journal).contains("measure"));
//! ```

use serde::{Deserialize, Value};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Version of the journal line schema. Bumped whenever an event's field
/// set or semantics change; readers refuse journals from a different
/// version instead of misinterpreting them.
pub const JOURNAL_SCHEMA_VERSION: u64 = 1;

/// Number of slowest kernels listed by [`render_report`].
pub const REPORT_TOP_K: usize = 8;

/// One typed journal event. The writer stamps each with the schema
/// version, a strictly increasing sequence number and the run id; the
/// variants here carry only the event payload.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// First record of every journal: identifies the run. Written by the
    /// [`JournalWriter`] constructor, never by callers.
    RunStart {
        /// Tool name (`headline`, `bench_sim`, ...).
        tool: String,
        /// `RunManifest::manifest_hash` of the owning run (wall-time
        /// excluded, so it is known before the run finishes).
        manifest_hash: String,
        /// The run's RNG seed.
        seed: u64,
    },
    /// A pipeline stage began.
    StageStart {
        /// Stage name (`measure`, `train`, ...).
        stage: String,
    },
    /// A pipeline stage finished.
    StageEnd {
        /// Stage name; must match the most recent unclosed `StageStart`.
        stage: String,
        /// Stage wall time in milliseconds.
        wall_ms: f64,
    },
    /// Periodic progress report from one sweep shard.
    Heartbeat {
        /// Shard (worker) index.
        shard: u64,
        /// Kernels this shard has finished.
        done: u64,
        /// Kernels assigned to this shard in total.
        assigned: u64,
        /// Milliseconds since the sweep started.
        elapsed_ms: u64,
        /// This shard's throughput so far (kernels per second).
        kernels_per_s: f64,
        /// Sweep-cache hits observed by this shard so far.
        cache_hits: u64,
        /// Sweep-cache misses observed by this shard so far.
        cache_misses: u64,
    },
    /// Sweep-cache attribution for the whole run.
    Cache {
        /// Cache hits.
        hits: u64,
        /// Cache misses.
        misses: u64,
        /// Stale entries invalidated.
        invalidations: u64,
    },
    /// A kernel whose 1..=8-core sweep was among its shard's slowest.
    SlowKernel {
        /// Sample id (`suite/name/dtype/payload`) or kernel name.
        sample: String,
        /// Sweep wall time in milliseconds.
        wall_ms: f64,
        /// Single-core cycle count of the kernel (0 when unknown).
        cycles: u64,
    },
    /// A headline metric produced by the run, for trajectory tooling
    /// (`pulp_cli bench history`).
    BenchRecord {
        /// Bench kind (`headline`, `sim`, `serve`).
        bench: String,
        /// Metric name.
        name: String,
        /// Metric value.
        value: f64,
    },
    /// Last record of every journal. `ok == false` means the writer was
    /// dropped without [`JournalWriter::finalize`] — the run died mid-way.
    /// Written by the writer, never by callers.
    RunEnd {
        /// Whether the run finished cleanly.
        ok: bool,
        /// Number of records before this one (== this record's `seq`).
        events: u64,
    },
}

impl JournalEvent {
    fn kind(&self) -> &'static str {
        match self {
            Self::RunStart { .. } => "run_start",
            Self::StageStart { .. } => "stage_start",
            Self::StageEnd { .. } => "stage_end",
            Self::Heartbeat { .. } => "heartbeat",
            Self::Cache { .. } => "cache",
            Self::SlowKernel { .. } => "slow_kernel",
            Self::BenchRecord { .. } => "bench_record",
            Self::RunEnd { .. } => "run_end",
        }
    }

    /// Canonical encoding of the full journal line: version, sequence,
    /// run id, event kind, then the payload fields in a fixed order.
    fn to_value(&self, seq: u64, run_id: &str) -> Value {
        let mut map: Vec<(String, Value)> = vec![
            ("v".into(), Value::U64(JOURNAL_SCHEMA_VERSION)),
            ("seq".into(), Value::U64(seq)),
            ("run".into(), Value::Str(run_id.into())),
            ("ev".into(), Value::Str(self.kind().into())),
        ];
        match self {
            Self::RunStart {
                tool,
                manifest_hash,
                seed,
            } => {
                map.push(("tool".into(), Value::Str(tool.clone())));
                map.push(("manifest".into(), Value::Str(manifest_hash.clone())));
                map.push(("seed".into(), Value::U64(*seed)));
            }
            Self::StageStart { stage } => {
                map.push(("stage".into(), Value::Str(stage.clone())));
            }
            Self::StageEnd { stage, wall_ms } => {
                map.push(("stage".into(), Value::Str(stage.clone())));
                map.push(("wall_ms".into(), Value::F64(*wall_ms)));
            }
            Self::Heartbeat {
                shard,
                done,
                assigned,
                elapsed_ms,
                kernels_per_s,
                cache_hits,
                cache_misses,
            } => {
                map.push(("shard".into(), Value::U64(*shard)));
                map.push(("done".into(), Value::U64(*done)));
                map.push(("assigned".into(), Value::U64(*assigned)));
                map.push(("elapsed_ms".into(), Value::U64(*elapsed_ms)));
                map.push(("kernels_per_s".into(), Value::F64(*kernels_per_s)));
                map.push(("cache_hits".into(), Value::U64(*cache_hits)));
                map.push(("cache_misses".into(), Value::U64(*cache_misses)));
            }
            Self::Cache {
                hits,
                misses,
                invalidations,
            } => {
                map.push(("hits".into(), Value::U64(*hits)));
                map.push(("misses".into(), Value::U64(*misses)));
                map.push(("invalidations".into(), Value::U64(*invalidations)));
            }
            Self::SlowKernel {
                sample,
                wall_ms,
                cycles,
            } => {
                map.push(("sample".into(), Value::Str(sample.clone())));
                map.push(("wall_ms".into(), Value::F64(*wall_ms)));
                map.push(("cycles".into(), Value::U64(*cycles)));
            }
            Self::BenchRecord { bench, name, value } => {
                map.push(("bench".into(), Value::Str(bench.clone())));
                map.push(("name".into(), Value::Str(name.clone())));
                map.push(("value".into(), Value::F64(*value)));
            }
            Self::RunEnd { ok, events } => {
                map.push(("ok".into(), Value::Bool(*ok)));
                map.push(("events".into(), Value::U64(*events)));
            }
        }
        Value::Map(map)
    }

    /// Decodes one journal line into `(seq, run_id, event)`.
    ///
    /// # Errors
    ///
    /// A line that is not JSON, or not a journal event of this schema
    /// version, as readable text.
    pub fn from_line(line: &str) -> Result<(u64, String, Self), String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("not valid JSON ({e})"))?;
        Self::from_value(v)
    }

    /// Decodes one parsed journal line into `(seq, run_id, event)`. Its
    /// strings move out of `v`.
    fn from_value(mut v: Value) -> Result<(u64, String, Self), String> {
        fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, String> {
            v.field(name).map_err(|e| e.to_string())
        }
        fn text(v: &mut Value, name: &str) -> Result<String, String> {
            v.take_field(name)
                .and_then(String::from_value)
                .map_err(|e| e.to_string())
        }
        let uint = |v: &Value, name: &str| {
            field(v, name).and_then(|f| f.as_u64().map_err(|e| e.to_string()))
        };
        let float = |v: &Value, name: &str| {
            field(v, name).and_then(|f| f.as_f64().map_err(|e| e.to_string()))
        };
        let v = &mut v;
        let version = uint(v, "v")?;
        if version != JOURNAL_SCHEMA_VERSION {
            return Err(format!(
                "unsupported journal schema version {version} (reader supports {JOURNAL_SCHEMA_VERSION})"
            ));
        }
        let seq = uint(v, "seq")?;
        let run = text(v, "run")?;
        let kind = text(v, "ev")?;
        let ev = match kind.as_str() {
            "run_start" => Self::RunStart {
                tool: text(v, "tool")?,
                manifest_hash: text(v, "manifest")?,
                seed: uint(v, "seed")?,
            },
            "stage_start" => Self::StageStart {
                stage: text(v, "stage")?,
            },
            "stage_end" => Self::StageEnd {
                stage: text(v, "stage")?,
                wall_ms: float(v, "wall_ms")?,
            },
            "heartbeat" => Self::Heartbeat {
                shard: uint(v, "shard")?,
                done: uint(v, "done")?,
                assigned: uint(v, "assigned")?,
                elapsed_ms: uint(v, "elapsed_ms")?,
                kernels_per_s: float(v, "kernels_per_s")?,
                cache_hits: uint(v, "cache_hits")?,
                cache_misses: uint(v, "cache_misses")?,
            },
            "cache" => Self::Cache {
                hits: uint(v, "hits")?,
                misses: uint(v, "misses")?,
                invalidations: uint(v, "invalidations")?,
            },
            "slow_kernel" => Self::SlowKernel {
                sample: text(v, "sample")?,
                wall_ms: float(v, "wall_ms")?,
                cycles: uint(v, "cycles")?,
            },
            "bench_record" => Self::BenchRecord {
                bench: text(v, "bench")?,
                name: text(v, "name")?,
                value: float(v, "value")?,
            },
            "run_end" => Self::RunEnd {
                ok: field(v, "ok")?.as_bool().map_err(|e| e.to_string())?,
                events: uint(v, "events")?,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok((seq, run, ev))
    }
}

/// Derives the journal's run id from the identity of the run: the tool
/// name, the manifest hash (which already folds in versions, config and
/// model hashes, protocol and seed) and the seed again for direct
/// greppability. FNV-1a 64, 16 hex digits — the same hash family as the
/// sweep-cache keys.
pub fn seeded_run_id(tool: &str, manifest_hash: &str, seed: u64) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for chunk in [tool.as_bytes(), b"\0", manifest_hash.as_bytes(), b"\0"] {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    for b in seed.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

enum JournalSink {
    File(BufWriter<File>),
    Memory(Vec<u8>),
}

impl JournalSink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        match self {
            Self::File(w) => {
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")
            }
            Self::Memory(buf) => {
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
                Ok(())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::File(w) => w.flush(),
            Self::Memory(_) => Ok(()),
        }
    }
}

/// Appends journal events to a file (or an in-memory buffer in tests),
/// stamping each line with the schema version, a strictly increasing
/// sequence number and the run id.
///
/// The `run_start` record is written at construction and the `run_end`
/// finalizer by [`finalize`](Self::finalize) — or, if the writer is
/// dropped unfinalized (panic, early return), by `Drop` with
/// `ok == false`. A journal with no `run_end` at all means the process
/// died without unwinding; both shapes are detectable by
/// [`validate_journal`].
pub struct JournalWriter {
    sink: JournalSink,
    run_id: String,
    seq: u64,
    finalized: bool,
}

impl JournalWriter {
    /// Creates (truncating) `path` and writes the `run_start` record.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn create(
        path: &Path,
        tool: &str,
        manifest_hash: &str,
        seed: u64,
    ) -> io::Result<JournalWriter> {
        let sink = JournalSink::File(BufWriter::new(File::create(path)?));
        Self::start(sink, tool, manifest_hash, seed)
    }

    /// An in-memory journal for tests; retrieve the text with
    /// [`finalize_to_string`](Self::finalize_to_string).
    pub fn in_memory(tool: &str, manifest_hash: &str, seed: u64) -> JournalWriter {
        Self::start(JournalSink::Memory(Vec::new()), tool, manifest_hash, seed)
            .expect("in-memory journal writes cannot fail")
    }

    fn start(
        sink: JournalSink,
        tool: &str,
        manifest_hash: &str,
        seed: u64,
    ) -> io::Result<JournalWriter> {
        let mut w = JournalWriter {
            sink,
            run_id: seeded_run_id(tool, manifest_hash, seed),
            seq: 0,
            finalized: false,
        };
        w.write(&JournalEvent::RunStart {
            tool: tool.into(),
            manifest_hash: manifest_hash.into(),
            seed,
        })?;
        Ok(w)
    }

    /// The run id stamped on every line.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, and rejects `RunStart`/`RunEnd` — those frame
    /// the journal and are written by the writer itself.
    pub fn event(&mut self, ev: JournalEvent) -> io::Result<()> {
        if matches!(
            ev,
            JournalEvent::RunStart { .. } | JournalEvent::RunEnd { .. }
        ) {
            return Err(io::Error::other(
                "run_start/run_end are framed by the writer, not appended by callers",
            ));
        }
        self.write(&ev)
    }

    /// Appends a batch of events (e.g. a worker's buffered heartbeats,
    /// merged after the sweep joins).
    ///
    /// # Errors
    ///
    /// See [`event`](Self::event).
    pub fn events(&mut self, evs: impl IntoIterator<Item = JournalEvent>) -> io::Result<()> {
        for ev in evs {
            self.event(ev)?;
        }
        Ok(())
    }

    fn write(&mut self, ev: &JournalEvent) -> io::Result<()> {
        let line = serde_json::to_string(&ev.to_value(self.seq, &self.run_id))
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.sink.write_line(&line)?;
        self.seq += 1;
        Ok(())
    }

    fn write_end(&mut self, ok: bool) -> io::Result<()> {
        self.finalized = true;
        let end = JournalEvent::RunEnd {
            ok,
            events: self.seq,
        };
        self.write(&end)?;
        self.sink.flush()
    }

    /// Writes the `run_end` finalizer (`ok = true`) and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write/flush failures.
    pub fn finalize(mut self) -> io::Result<()> {
        self.write_end(true)
    }

    /// [`finalize`](Self::finalize) for in-memory journals, returning the
    /// full text.
    ///
    /// # Errors
    ///
    /// Fails for file-backed writers.
    pub fn finalize_to_string(mut self) -> io::Result<String> {
        self.write_end(true)?;
        match std::mem::replace(&mut self.sink, JournalSink::Memory(Vec::new())) {
            JournalSink::Memory(buf) => {
                String::from_utf8(buf).map_err(|e| io::Error::other(e.to_string()))
            }
            JournalSink::File(_) => Err(io::Error::other(
                "finalize_to_string on a file-backed journal; use finalize",
            )),
        }
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        if !self.finalized {
            // Unwinding past an unfinalized journal: mark the run failed
            // so readers can tell a crash from a clean finish. Errors are
            // swallowed — Drop must not panic.
            let _ = self.write_end(false);
        }
    }
}

/// Appends `events` to `journal`, if one is open. The journal records a
/// run; it is not part of the run's result, so a failed write prints one
/// `[journal] warning: journal write failed: …` line to stderr and never
/// fails the run.
pub fn append_or_warn(
    journal: Option<&mut JournalWriter>,
    events: impl IntoIterator<Item = JournalEvent>,
) {
    if let Some(j) = journal {
        if let Err(e) = j.events(events) {
            eprintln!("[journal] warning: journal write failed: {e}");
        }
    }
}

/// Runs `body` as journal stage `name`: a `stage_start` before it and a
/// `stage_end` carrying its wall time after it, both through
/// [`append_or_warn`]. `body` gets the journal back, to append events of
/// its own in between.
pub fn journal_stage<T>(
    journal: &mut Option<&mut JournalWriter>,
    name: &str,
    body: impl FnOnce(&mut Option<&mut JournalWriter>) -> T,
) -> T {
    let t0 = std::time::Instant::now();
    append_or_warn(
        journal.as_deref_mut(),
        [JournalEvent::StageStart { stage: name.into() }],
    );
    let out = body(journal);
    append_or_warn(
        journal.as_deref_mut(),
        [JournalEvent::StageEnd {
            stage: name.into(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        }],
    );
    out
}

/// A fully parsed and validated journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Run id shared by every line.
    pub run_id: String,
    /// All events in sequence order, `run_start` first, `run_end` last.
    pub events: Vec<JournalEvent>,
}

impl Journal {
    /// The `run_start` payload: `(tool, manifest_hash, seed)`.
    pub fn run_start(&self) -> (&str, &str, u64) {
        match &self.events[0] {
            JournalEvent::RunStart {
                tool,
                manifest_hash,
                seed,
            } => (tool, manifest_hash, *seed),
            _ => unreachable!("validated journals start with run_start"),
        }
    }

    /// Whether the run finished cleanly (`run_end.ok`).
    pub fn ok(&self) -> bool {
        match self.events.last() {
            Some(JournalEvent::RunEnd { ok, .. }) => *ok,
            _ => unreachable!("validated journals end with run_end"),
        }
    }
}

/// Reads journals back from text or disk, enforcing the full structural
/// contract (see [`validate_journal`]).
pub struct JournalReader;

impl JournalReader {
    /// Parses and validates journal text.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation.
    pub fn read_str(text: &str) -> Result<Journal, String> {
        let mut events = Vec::new();
        let mut run_id: Option<String> = None;
        let mut stage_stack: Vec<String> = Vec::new();
        let mut saw_end = false;
        if text.is_empty() {
            return Err("empty journal (no run_start)".into());
        }
        if !text.ends_with('\n') {
            return Err("truncated journal: last line is incomplete (no trailing newline)".into());
        }
        for (lineno, line) in text.lines().enumerate() {
            let n = lineno + 1;
            let (seq, run, ev) =
                JournalEvent::from_line(line).map_err(|e| format!("line {n}: {e}"))?;
            if saw_end {
                return Err(format!("line {n}: event after run_end"));
            }
            if seq != events.len() as u64 {
                return Err(format!(
                    "line {n}: sequence gap (expected seq {}, got {seq})",
                    events.len()
                ));
            }
            match &run_id {
                None => {
                    if !matches!(ev, JournalEvent::RunStart { .. }) {
                        return Err(format!(
                            "line {n}: journal must open with run_start, got {}",
                            ev.kind()
                        ));
                    }
                    run_id = Some(run);
                }
                Some(id) => {
                    if *id != run {
                        return Err(format!("line {n}: run id `{run}` differs from `{id}`"));
                    }
                    if matches!(ev, JournalEvent::RunStart { .. }) {
                        return Err(format!("line {n}: duplicate run_start"));
                    }
                }
            }
            match &ev {
                JournalEvent::StageStart { stage } => stage_stack.push(stage.clone()),
                JournalEvent::StageEnd { stage, .. } => match stage_stack.pop() {
                    Some(open) if open == *stage => {}
                    Some(open) => {
                        return Err(format!(
                            "line {n}: stage_end `{stage}` does not match open stage `{open}`"
                        ));
                    }
                    None => {
                        return Err(format!("line {n}: stage_end `{stage}` with no open stage"));
                    }
                },
                JournalEvent::RunEnd { events: count, .. } => {
                    if *count != events.len() as u64 {
                        return Err(format!(
                            "line {n}: run_end claims {count} events, journal has {}",
                            events.len()
                        ));
                    }
                    if let Some(open) = stage_stack.last() {
                        return Err(format!("line {n}: run_end with stage `{open}` still open"));
                    }
                    saw_end = true;
                }
                _ => {}
            }
            events.push(ev);
        }
        if !saw_end {
            return Err(format!(
                "truncated journal: no run_end after {} events (run died without unwinding)",
                events.len()
            ));
        }
        Ok(Journal {
            run_id: run_id.expect("nonempty journal has a run id"),
            events,
        })
    }

    /// Reads and validates a journal file.
    ///
    /// # Errors
    ///
    /// I/O failures and structural violations, both as readable text.
    pub fn read_file(path: &Path) -> Result<Journal, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::read_str(&text)
    }
}

/// Validates journal text structurally: every line is JSON of the current
/// schema version, sequence numbers are gap-free from 0, all lines share
/// one run id, the journal opens with `run_start`, stages nest (every
/// `stage_end` closes the most recent open `stage_start`), and the final
/// line is a `run_end` whose event count matches. Mirrors
/// [`validate_chrome_trace`](crate::validate_chrome_trace) and
/// [`validate_exposition`](crate::validate_exposition).
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_journal(text: &str) -> Result<(), String> {
    JournalReader::read_str(text).map(|_| ())
}

/// Re-encodes a parsed journal into its canonical text. For any text
/// accepted by [`JournalReader::read_str`], `render_journal(&journal)`
/// reproduces the input byte-for-byte — the round-trip property the
/// integration tests pin at 1/2/8 shard threads.
pub fn render_journal(journal: &Journal) -> String {
    let mut out = String::new();
    for (seq, ev) in journal.events.iter().enumerate() {
        let line = serde_json::to_string(&ev.to_value(seq as u64, &journal.run_id))
            .expect("journal values serialise");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders the human-readable run report `pulp_cli report` prints: run
/// identity, per-stage wall breakdown, per-shard throughput, the top-K
/// slowest kernels, cache attribution and bench records. A pure function
/// of the journal — byte-deterministic for a given input.
pub fn render_report(journal: &Journal) -> String {
    let (tool, manifest, seed) = journal.run_start();
    let mut out = String::new();
    let _ = writeln!(out, "run {}  tool={tool}  seed={seed}", journal.run_id);
    let _ = writeln!(out, "manifest {manifest}");
    let _ = writeln!(
        out,
        "status {}  events {}",
        if journal.ok() { "ok" } else { "FAILED" },
        journal.events.len()
    );

    // Stages, in completion order. Total = sum of top-level stages only
    // (depth 0 at the time the stage opened), so nested stages don't
    // double-count.
    let mut depth = 0usize;
    let mut stages: Vec<(String, f64, usize)> = Vec::new();
    let mut open_depths: Vec<usize> = Vec::new();
    for ev in &journal.events {
        match ev {
            JournalEvent::StageStart { .. } => {
                open_depths.push(depth);
                depth += 1;
            }
            JournalEvent::StageEnd { stage, wall_ms } => {
                depth = depth.saturating_sub(1);
                let d = open_depths.pop().unwrap_or(0);
                stages.push((stage.clone(), *wall_ms, d));
            }
            _ => {}
        }
    }
    if !stages.is_empty() {
        let total: f64 = stages
            .iter()
            .filter(|(_, _, d)| *d == 0)
            .map(|(_, w, _)| *w)
            .sum();
        let _ = writeln!(out, "\nstages (total {total:.1} ms)");
        for (stage, wall_ms, d) in &stages {
            let share = if total > 0.0 {
                wall_ms / total * 100.0
            } else {
                0.0
            };
            let indent = "  ".repeat(*d);
            let _ = writeln!(
                out,
                "  {indent}{stage:<18} {wall_ms:>10.1} ms  {share:>5.1}%"
            );
        }
    }

    // Shards: the last heartbeat per shard is its final word.
    let mut shards: Vec<(u64, &JournalEvent)> = Vec::new();
    for ev in &journal.events {
        if let JournalEvent::Heartbeat { shard, .. } = ev {
            match shards.iter_mut().find(|(s, _)| s == shard) {
                Some(slot) => slot.1 = ev,
                None => shards.push((*shard, ev)),
            }
        }
    }
    shards.sort_by_key(|(s, _)| *s);
    if !shards.is_empty() {
        let _ = writeln!(out, "\nshards");
        let _ = writeln!(
            out,
            "  {:>5} {:>6} {:>8} {:>10} {:>10} {:>7} {:>7}",
            "shard", "done", "assigned", "kernels/s", "elapsed", "hits", "misses"
        );
        for (shard, ev) in &shards {
            if let JournalEvent::Heartbeat {
                done,
                assigned,
                elapsed_ms,
                kernels_per_s,
                cache_hits,
                cache_misses,
                ..
            } = ev
            {
                let _ = writeln!(
                    out,
                    "  {shard:>5} {done:>6} {assigned:>8} {kernels_per_s:>10.1} {:>8.1} s {cache_hits:>7} {cache_misses:>7}",
                    *elapsed_ms as f64 / 1000.0
                );
            }
        }
    }

    // Top-K slowest kernels across all shards; ties broken by sample id
    // so the ordering is total.
    let mut slow: Vec<(&str, f64, u64)> = journal
        .events
        .iter()
        .filter_map(|ev| match ev {
            JournalEvent::SlowKernel {
                sample,
                wall_ms,
                cycles,
            } => Some((sample.as_str(), *wall_ms, *cycles)),
            _ => None,
        })
        .collect();
    slow.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(b.0))
    });
    slow.dedup_by(|a, b| a.0 == b.0);
    if !slow.is_empty() {
        let _ = writeln!(out, "\nslowest kernels (top {REPORT_TOP_K})");
        for (sample, wall_ms, cycles) in slow.iter().take(REPORT_TOP_K) {
            let _ = writeln!(out, "  {wall_ms:>10.2} ms  {cycles:>12} cycles  {sample}");
        }
    }

    // Cache attribution: the last cache event wins (it carries the final
    // counters).
    if let Some(JournalEvent::Cache {
        hits,
        misses,
        invalidations,
    }) = journal
        .events
        .iter()
        .rev()
        .find(|ev| matches!(ev, JournalEvent::Cache { .. }))
    {
        let total = hits + misses;
        let rate = if total > 0 {
            *hits as f64 / total as f64 * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "\ncache  {hits} hits, {misses} misses, {invalidations} invalidations ({rate:.1}% hit rate)"
        );
    }

    let records: Vec<_> = journal
        .events
        .iter()
        .filter_map(|ev| match ev {
            JournalEvent::BenchRecord { bench, name, value } => Some((bench, name, value)),
            _ => None,
        })
        .collect();
    if !records.is_empty() {
        let _ = writeln!(out, "\nbench records");
        for (bench, name, value) in records {
            let _ = writeln!(out, "  {bench:<10} {name:<28} {value}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> String {
        let mut w = JournalWriter::in_memory("headline", "deadbeef", 42);
        w.event(JournalEvent::StageStart {
            stage: "measure".into(),
        })
        .unwrap();
        w.event(JournalEvent::Heartbeat {
            shard: 0,
            done: 8,
            assigned: 16,
            elapsed_ms: 500,
            kernels_per_s: 16.0,
            cache_hits: 3,
            cache_misses: 5,
        })
        .unwrap();
        w.event(JournalEvent::SlowKernel {
            sample: "polybench/gemm/f32/8192".into(),
            wall_ms: 120.5,
            cycles: 180_000,
        })
        .unwrap();
        w.event(JournalEvent::Cache {
            hits: 3,
            misses: 13,
            invalidations: 0,
        })
        .unwrap();
        w.event(JournalEvent::StageEnd {
            stage: "measure".into(),
            wall_ms: 812.25,
        })
        .unwrap();
        w.event(JournalEvent::BenchRecord {
            bench: "headline".into(),
            name: "static_at_5".into(),
            value: 0.93,
        })
        .unwrap();
        w.finalize_to_string().unwrap()
    }

    #[test]
    fn journal_validates_and_round_trips_bit_identically() {
        let text = sample_journal();
        validate_journal(&text).expect("valid");
        let journal = JournalReader::read_str(&text).expect("readable");
        assert_eq!(journal.run_id, seeded_run_id("headline", "deadbeef", 42));
        assert_eq!(journal.events.len(), 8);
        assert!(journal.ok());
        assert_eq!(render_journal(&journal), text, "canonical re-encode");
    }

    #[test]
    fn run_ids_are_seeded_and_distinct() {
        let a = seeded_run_id("headline", "deadbeef", 42);
        assert_eq!(a, seeded_run_id("headline", "deadbeef", 42));
        assert_eq!(a.len(), 16);
        assert_ne!(a, seeded_run_id("headline", "deadbeef", 43));
        assert_ne!(a, seeded_run_id("bench_sim", "deadbeef", 42));
        assert_ne!(a, seeded_run_id("headline", "feedface", 42));
    }

    #[test]
    fn truncated_journals_are_detected() {
        let text = sample_journal();
        // Drop the run_end line entirely.
        let without_end = {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop();
            let mut s = lines.join("\n");
            s.push('\n');
            s
        };
        let err = validate_journal(&without_end).unwrap_err();
        assert!(err.contains("no run_end"), "{err}");
        // Cut mid-line: the missing trailing newline marks the torn write.
        let torn = &text[..text.len() - 10];
        let err = validate_journal(torn).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
        assert!(validate_journal("").is_err());
    }

    #[test]
    fn dropped_writer_marks_the_run_failed() {
        // Simulate a panic path: build the same journal but capture the
        // drop output by writing to a temp file.
        let path = std::env::temp_dir().join(format!(
            "pulp-journal-drop-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let mut w = JournalWriter::create(&path, "t", "m", 1).expect("create");
            w.event(JournalEvent::StageStart { stage: "s".into() })
                .unwrap();
            // Dropped here without finalize — and with a stage still open.
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        // The drop finalizer writes run_end ok=false; the open stage makes
        // strict validation fail loudly, which is the point: this journal
        // records a crashed run.
        let err = validate_journal(&text).unwrap_err();
        assert!(err.contains("still open"), "{err}");
        assert!(text.contains("\"ok\":false"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn clean_drop_without_open_stages_validates_as_failed_run() {
        let path = std::env::temp_dir().join(format!(
            "pulp-journal-drop2-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let mut w = JournalWriter::create(&path, "t", "m", 1).expect("create");
            w.event(JournalEvent::Cache {
                hits: 1,
                misses: 0,
                invalidations: 0,
            })
            .unwrap();
        }
        let journal = JournalReader::read_file(&path).expect("structurally valid");
        assert!(!journal.ok(), "dropped writer must mark the run failed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validator_rejects_structural_violations() {
        let text = sample_journal();
        let lines: Vec<&str> = text.lines().collect();

        // Sequence gap.
        let mut gap = lines.clone();
        gap.remove(2);
        let err = validate_journal(&(gap.join("\n") + "\n")).unwrap_err();
        assert!(err.contains("sequence gap"), "{err}");

        // Run-id mismatch.
        let swapped = text.replacen(
            &seeded_run_id("headline", "deadbeef", 42),
            "0000000000000000",
            1,
        );
        assert!(validate_journal(&swapped).unwrap_err().contains("run id"));

        // Wrong version.
        let bumped = text.replace("\"v\":1", "\"v\":2");
        assert!(validate_journal(&bumped)
            .unwrap_err()
            .contains("schema version"));

        // Unbalanced stage.
        let mut w = JournalWriter::in_memory("t", "m", 0);
        w.event(JournalEvent::StageStart { stage: "a".into() })
            .unwrap();
        w.event(JournalEvent::StageEnd {
            stage: "b".into(),
            wall_ms: 1.0,
        })
        .unwrap();
        let err = validate_journal(&w.finalize_to_string().unwrap()).unwrap_err();
        assert!(err.contains("does not match"), "{err}");

        // Garbage line.
        assert!(validate_journal("not json\n").is_err());
    }

    #[test]
    fn callers_cannot_forge_framing_events() {
        let mut w = JournalWriter::in_memory("t", "m", 0);
        assert!(w
            .event(JournalEvent::RunEnd {
                ok: true,
                events: 0
            })
            .is_err());
        assert!(w
            .event(JournalEvent::RunStart {
                tool: "x".into(),
                manifest_hash: "y".into(),
                seed: 0
            })
            .is_err());
        // The warn-only path refuses them too, and the run goes on.
        append_or_warn(
            Some(&mut w),
            [JournalEvent::RunEnd {
                ok: true,
                events: 0,
            }],
        );
        let text = w.finalize_to_string().unwrap();
        validate_journal(&text).expect("still one well-framed run");
    }

    #[test]
    fn report_is_deterministic_and_covers_all_sections() {
        let text = sample_journal();
        let journal = JournalReader::read_str(&text).unwrap();
        let a = render_report(&journal);
        let b = render_report(&journal);
        assert_eq!(a, b, "report must be byte-deterministic");
        for needle in [
            "tool=headline",
            "manifest deadbeef",
            "status ok",
            "stages",
            "measure",
            "shards",
            "slowest kernels",
            "polybench/gemm/f32/8192",
            "cache  3 hits, 13 misses",
            "bench records",
            "static_at_5",
        ] {
            assert!(a.contains(needle), "report missing `{needle}`:\n{a}");
        }
    }
}
