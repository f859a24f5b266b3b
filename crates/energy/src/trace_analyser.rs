//! The trace analyser: parses GVSOC-style text traces line by line and
//! feeds the listener hierarchy.
//!
//! This is the paper's trace → listener → Table I method, kept as the test
//! oracle for [`energy_of`](crate::energy_of): [`replay_oracle`] simulates
//! a program, replays its text trace through [`crate::listeners`], and
//! returns both statistics for the caller to compare. No production path
//! reads traces; only tests and the `trace_inspection` example do.
//!
//! Line grammar (see `pulp_sim::trace::render_line`):
//!
//! ```text
//! <cycle>: <component path>: <payload>
//! ```
//!
//! The analyser optionally restricts processing to a cycle window — the
//! paper identifies "the range of cycles in which the parallel code
//! fragment is contained" (the `kernel()` function) and filters events to
//! it. Our traces cover exactly the kernel, so the window defaults to
//! everything.

use crate::listeners::{ListenError, PulpListeners};
use pulp_sim::{simulate_traced, ClusterConfig, Program, SimStats, TextSink};
use std::fmt;

/// Errors produced while replaying a textual trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTraceError {
    /// A line did not match the `cycle: path: payload` grammar.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A listener rejected a payload.
    Listener {
        /// 1-based line number.
        line: usize,
        /// The underlying listener error.
        source: ListenError,
    },
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadLine { line } => write!(f, "trace line {line}: malformed"),
            Self::Listener { line, source } => write!(f, "trace line {line}: {source}"),
        }
    }
}

impl std::error::Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Listener { source, .. } => Some(source),
            Self::BadLine { .. } => None,
        }
    }
}

/// One parsed trace line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedLine<'a> {
    /// Event cycle.
    pub cycle: u64,
    /// Component path, e.g. `cluster/pe3/insn`.
    pub path: &'a str,
    /// Event payload, e.g. `lw 0x10000040`.
    pub payload: &'a str,
}

/// Parses one `cycle: path: payload` line.
pub fn parse_line(line: &str) -> Option<ParsedLine<'_>> {
    let (cycle_str, rest) = line.split_once(": ")?;
    let (path, payload) = rest.split_once(": ")?;
    let cycle = cycle_str.trim().parse().ok()?;
    Some(ParsedLine {
        cycle,
        path,
        payload: payload.trim_end(),
    })
}

/// Replays textual traces into a [`PulpListeners`] hierarchy.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalyser {
    window: Option<(u64, u64)>,
}

impl TraceAnalyser {
    /// Creates an analyser covering the whole trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts analysis to cycles in `[start, end)`.
    pub fn with_window(start: u64, end: u64) -> Self {
        Self {
            window: Some((start, end)),
        }
    }

    /// Replays `text` into `listeners`.
    ///
    /// Empty lines are skipped; unknown component paths are ignored by the
    /// listener hierarchy.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed lines or payloads a listener rejects.
    pub fn analyse(
        &self,
        text: &str,
        listeners: &mut PulpListeners,
    ) -> Result<(), ParseTraceError> {
        if let Some((start, _)) = self.window {
            listeners.set_window_start(start);
        }
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let parsed = parse_line(raw).ok_or(ParseTraceError::BadLine { line: line_no })?;
            if let Some((start, end)) = self.window {
                if parsed.cycle < start || parsed.cycle >= end {
                    continue;
                }
            }
            listeners
                .handle(parsed.cycle, parsed.path, parsed.payload)
                .map_err(|source| ParseTraceError::Listener {
                    line: line_no,
                    source,
                })?;
        }
        Ok(())
    }
}

/// Convenience: replays a textual trace and reconstructs run statistics.
///
/// # Errors
///
/// See [`TraceAnalyser::analyse`].
pub fn stats_from_trace(
    text: &str,
    config: &ClusterConfig,
    team_size: usize,
) -> Result<SimStats, ParseTraceError> {
    let mut listeners = PulpListeners::new(config);
    TraceAnalyser::new().analyse(text, &mut listeners)?;
    Ok(listeners.into_stats(team_size))
}

/// The trace-replay oracle: simulates `program` into a [`TextSink`] and
/// replays the text through [`stats_from_trace`].
///
/// Returns `(direct, replayed)`. Replay reconstructs architectural state
/// only, so compare `direct.without_fast_forward()` with `replayed`: the
/// fast-forward span counters are diagnostics the trace does not carry.
///
/// # Panics
///
/// Panics if the simulation fails or its own trace does not replay — both
/// are bugs in the code under test.
pub fn replay_oracle(
    config: &ClusterConfig,
    program: &Program,
    max_cycles: u64,
) -> (SimStats, SimStats) {
    let mut sink = TextSink::new();
    let direct = simulate_traced(config, program, max_cycles, &mut sink).expect("simulate");
    let replayed =
        stats_from_trace(&sink.text, config, program.num_cores()).expect("replay its own trace");
    (direct, replayed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_lines() {
        let p = parse_line("1042: cluster/pe3/insn: lw 0x10000040").expect("parse");
        assert_eq!(p.cycle, 1042);
        assert_eq!(p.path, "cluster/pe3/insn");
        assert_eq!(p.payload, "lw 0x10000040");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("no separators here").is_none());
        assert!(parse_line("xyz: cluster/pe0/insn: alu").is_none());
    }

    #[test]
    fn analyse_reports_line_numbers() {
        let cfg = ClusterConfig::default();
        let mut l = PulpListeners::new(&cfg);
        let err = TraceAnalyser::new()
            .analyse("1: cluster/pe0/insn: alu\ngarbage\n", &mut l)
            .unwrap_err();
        assert_eq!(err, ParseTraceError::BadLine { line: 2 });
    }

    #[test]
    fn analyse_skips_blank_lines() {
        let cfg = ClusterConfig::default();
        let mut l = PulpListeners::new(&cfg);
        TraceAnalyser::new()
            .analyse(
                "1: cluster/pe0/insn: alu\n\n2: cluster/pe0/insn: alu\n",
                &mut l,
            )
            .expect("analyse");
        assert_eq!(l.cores[0].alu_ops, 2);
    }

    #[test]
    fn window_filters_events() {
        let cfg = ClusterConfig::default();
        let text = "1: cluster/pe0/insn: alu\n5: cluster/pe0/insn: alu\n9: cluster/pe0/insn: alu\n";
        let mut l = PulpListeners::new(&cfg);
        TraceAnalyser::with_window(2, 9)
            .analyse(text, &mut l)
            .expect("analyse");
        assert_eq!(l.cores[0].alu_ops, 1);
    }

    #[test]
    fn listener_errors_carry_line_numbers() {
        let cfg = ClusterConfig::default();
        let mut l = PulpListeners::new(&cfg);
        let err = TraceAnalyser::new()
            .analyse("1: cluster/pe0/insn: badop\n", &mut l)
            .unwrap_err();
        assert!(matches!(err, ParseTraceError::Listener { line: 1, .. }));
    }
}
