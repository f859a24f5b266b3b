//! Structured logging: one line per record, plain text or JSON-lines.
//!
//! The experiment binaries historically wrote ad-hoc `eprintln!("[cache] ...")`
//! lines. [`Logger`] keeps that text shape byte-for-byte (`[stage] message
//! k=v`) so existing greps — including the CI warm-cache check — keep
//! working, while `--log-json` switches every record to a single JSON
//! object per line (`level`, `ts`, `stage`, `msg`, plus flattened kv
//! fields) that a log pipeline can ingest without regexes.
//!
//! # Examples
//!
//! ```
//! use pulp_obs::log::{LogFormat, Logger};
//!
//! let log = Logger::to_sink(LogFormat::Json);
//! log.info("cache", "warm", &[("hits", "472".into())]);
//! let line = log.take_sink().unwrap().remove(0);
//! assert!(line.starts_with("{\"level\":\"info\""));
//! assert!(line.contains("\"stage\":\"cache\""));
//! assert!(line.contains("\"hits\":\"472\""));
//! ```

use serde::Value;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Output shape of a [`Logger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// `[stage] message k=v ...` — the historical stderr format.
    #[default]
    Text,
    /// One JSON object per line: `{"level","ts","stage","msg",...kv}`.
    Json,
}

/// Record severity. Only used as a field today (no filtering):
/// `pulp_cli` logs sparsely enough that suppression happens at the call site
/// via `--quiet`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogLevel {
    /// Routine progress.
    Info,
    /// Something degraded but the run continues.
    Warn,
}

impl LogLevel {
    fn as_str(self) -> &'static str {
        match self {
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
        }
    }
}

/// A minimal structured logger writing to stderr (or an in-memory sink in
/// tests). Cheap to construct, `Sync` via an internal mutex on the sink.
#[derive(Debug)]
pub struct Logger {
    format: LogFormat,
    /// When set, lines are captured here instead of stderr.
    sink: Option<Mutex<Vec<String>>>,
    /// When false, `ts` is omitted from JSON records — used by tests that
    /// assert byte-identical output across runs.
    timestamps: bool,
}

impl Logger {
    /// A stderr logger in the given format, with timestamps on JSON
    /// records.
    pub fn new(format: LogFormat) -> Self {
        Self {
            format,
            sink: None,
            timestamps: true,
        }
    }

    /// A logger that captures lines in memory (for tests) and omits
    /// timestamps so output is deterministic.
    pub fn to_sink(format: LogFormat) -> Self {
        Self {
            format,
            sink: Some(Mutex::new(Vec::new())),
            timestamps: false,
        }
    }

    /// Consumes the in-memory sink, returning captured lines. `None` for
    /// stderr loggers.
    pub fn take_sink(self) -> Option<Vec<String>> {
        self.sink.map(|m| m.into_inner().unwrap_or_default())
    }

    /// Snapshots the in-memory sink without consuming the logger (for
    /// callers that share the logger behind an `Arc`). `None` for stderr
    /// loggers.
    pub fn sink_lines(&self) -> Option<Vec<String>> {
        self.sink
            .as_ref()
            .map(|m| m.lock().map(|g| g.clone()).unwrap_or_default())
    }

    /// Logs at [`LogLevel::Info`].
    pub fn info(&self, stage: &str, msg: &str, fields: &[(&str, String)]) {
        self.log(LogLevel::Info, stage, msg, fields);
    }

    /// Logs at [`LogLevel::Warn`].
    pub fn warn(&self, stage: &str, msg: &str, fields: &[(&str, String)]) {
        self.log(LogLevel::Warn, stage, msg, fields);
    }

    /// Emits one record.
    pub fn log(&self, level: LogLevel, stage: &str, msg: &str, fields: &[(&str, String)]) {
        let line = self.render(level, stage, msg, fields);
        match &self.sink {
            Some(sink) => {
                if let Ok(mut lines) = sink.lock() {
                    lines.push(line);
                }
            }
            None => eprintln!("{line}"),
        }
    }

    fn render(&self, level: LogLevel, stage: &str, msg: &str, fields: &[(&str, String)]) -> String {
        match self.format {
            LogFormat::Text => {
                let mut line = format!("[{stage}] {msg}");
                for (k, v) in fields {
                    line.push(' ');
                    line.push_str(k);
                    line.push('=');
                    line.push_str(v);
                }
                line
            }
            LogFormat::Json => {
                // Field order is fixed (level, ts, stage, msg, then kv in
                // call order) so identical calls render identically.
                let mut map: Vec<(String, Value)> = Vec::with_capacity(4 + fields.len());
                map.push(("level".into(), Value::Str(level.as_str().into())));
                if self.timestamps {
                    let ms = SystemTime::now()
                        .duration_since(UNIX_EPOCH)
                        .map(|d| d.as_millis() as u64)
                        .unwrap_or(0);
                    map.push(("ts".into(), Value::U64(ms)));
                }
                map.push(("stage".into(), Value::Str(stage.into())));
                map.push(("msg".into(), Value::Str(msg.into())));
                for (k, v) in fields {
                    map.push(((*k).into(), Value::Str(v.clone())));
                }
                serde_json::to_string(&Value::Map(map)).unwrap_or_else(|_| "{}".into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(log: Logger) -> Vec<String> {
        log.take_sink().expect("sink logger")
    }

    #[test]
    fn text_format_matches_the_historical_shape() {
        let log = Logger::to_sink(LogFormat::Text);
        log.info(
            "cache",
            "472 hits, 0 misses, 0 invalidations (100.0% hit rate)",
            &[],
        );
        assert_eq!(
            lines(log),
            vec!["[cache] 472 hits, 0 misses, 0 invalidations (100.0% hit rate)"]
        );
    }

    #[test]
    fn text_format_appends_kv_pairs() {
        let log = Logger::to_sink(LogFormat::Text);
        log.warn("dataset", "slow build", &[("samples", "59".into())]);
        assert_eq!(lines(log), vec!["[dataset] slow build samples=59"]);
    }

    #[test]
    fn json_records_are_single_escaped_lines() {
        let log = Logger::to_sink(LogFormat::Json);
        log.info("stage \"x\"", "line\nbreak", &[("k", "v".into())]);
        let out = lines(log);
        assert_eq!(out.len(), 1);
        let v: Value = serde_json::from_str(&out[0]).expect("valid JSON");
        let text = |name: &str| v.field(name).and_then(Value::as_str).expect(name);
        assert_eq!(text("level"), "info");
        assert_eq!(text("stage"), "stage \"x\"");
        assert_eq!(text("msg"), "line\nbreak");
        assert_eq!(text("k"), "v");
        assert!(!out[0].contains('\n'));
    }

    #[test]
    fn sinkless_loggers_report_no_lines() {
        assert!(Logger::new(LogFormat::Text).take_sink().is_none());
    }
}
