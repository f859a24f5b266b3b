//! Execution-trace events and their GVSOC-style textual rendering.
//!
//! The paper extracts dynamic features by parsing GVSOC textual traces with
//! a listener stack. This module is the producer side of that interface:
//! the cluster emits [`TraceEvent`]s into a [`TraceSink`], and
//! [`render_line`] serialises an event into a `cycle: path: payload` line
//! matching the component paths the paper quotes (`cluster/pe/insn`,
//! `cluster/pe/trace`, `cluster/l1/bank/trace`, ...).

use crate::cause::CycleCause;
use crate::isa::OpKind;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One event observed during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A core retired an instruction (path `cluster/pe<N>/insn`).
    Insn {
        /// Retiring core.
        core: usize,
        /// Operation class.
        kind: OpKind,
        /// Address for memory operations.
        addr: Option<u32>,
    },
    /// A core spent a cycle actively waiting (path `cluster/pe<N>/trace`).
    Stall {
        /// Stalling core.
        core: usize,
        /// Why the cycle was lost.
        cause: CycleCause,
    },
    /// A core entered clock gating (path `cluster/pe<N>/trace`).
    ///
    /// The cause applies to the whole region up to the matching `CgExit`
    /// (gated regions are single-cause by construction: a sleeping core
    /// wakes — emitting `CgExit` — before its situation can change).
    CgEnter {
        /// Core being gated.
        core: usize,
        /// Why the region's cycles are lost.
        cause: CycleCause,
    },
    /// A core left clock gating (path `cluster/pe<N>/trace`).
    CgExit {
        /// Core being woken.
        core: usize,
    },
    /// A TCDM bank served a request (path `cluster/l1/bank<N>/trace`).
    L1Access {
        /// Bank index.
        bank: usize,
        /// `true` for writes.
        write: bool,
    },
    /// A TCDM bank deferred a request due to a conflict.
    L1Conflict {
        /// Bank index.
        bank: usize,
    },
    /// An L2 bank served a request (path `cluster/l2/bank<N>/trace`).
    L2Access {
        /// Bank index.
        bank: usize,
        /// `true` for writes.
        write: bool,
    },
    /// A core arrived at the cluster barrier (path `cluster/event_unit`).
    BarrierArrive {
        /// Arriving core.
        core: usize,
    },
    /// All cores passed the barrier.
    BarrierRelease,
    /// The master forked a parallel region (path `cluster/event_unit`).
    Fork,
    /// Cold-start I-cache refill count, reported once at end of run
    /// (path `cluster/icache`).
    IcacheRefill {
        /// Number of line refills.
        count: u64,
    },
    /// The DMA engine completed a transfer (path `cluster/dma`).
    Dma {
        /// Words moved.
        words: u64,
        /// `true` for L2 → TCDM.
        inbound: bool,
    },
}

/// Receiver of trace events.
///
/// The simulator is generic over the sink so the fast path ([`NullSink`])
/// compiles to nothing.
pub trait TraceSink {
    /// Called once per event with the cycle it occurred in.
    fn emit(&mut self, cycle: u64, event: TraceEvent);

    /// Returns `true` when the sink discards everything ([`NullSink`]).
    ///
    /// The fast-forward bulk path consults this to skip event replay
    /// entirely; after monomorphisation the branch is constant-folded.
    #[inline(always)]
    fn is_null(&self) -> bool {
        false
    }
}

/// A sink that drops every event (zero-cost fast path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn emit(&mut self, _cycle: u64, _event: TraceEvent) {}

    #[inline(always)]
    fn is_null(&self) -> bool {
        true
    }
}

/// A sink that stores events in memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VecSink {
    /// Collected `(cycle, event)` pairs in emission order.
    pub events: Vec<(u64, TraceEvent)>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for VecSink {
    fn emit(&mut self, cycle: u64, event: TraceEvent) {
        self.events.push((cycle, event));
    }
}

/// A sink that renders each event as a GVSOC-style text line.
#[derive(Debug, Clone, Default)]
pub struct TextSink {
    /// Rendered trace, one event per line.
    pub text: String,
}

impl TextSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for TextSink {
    fn emit(&mut self, cycle: u64, event: TraceEvent) {
        render_line(&mut self.text, cycle, event);
        self.text.push('\n');
    }
}

/// Appends the textual form of `event` (without trailing newline) to `out`.
///
/// Line grammar: `<cycle>: <component path>: <payload>`, e.g.
///
/// ```text
/// 1042: cluster/pe3/insn: lw 0x10000040
/// 1043: cluster/pe3/trace: cg_enter barrier
/// 1043: cluster/l1/bank5/trace: write
/// ```
pub fn render_line(out: &mut String, cycle: u64, event: TraceEvent) {
    match event {
        TraceEvent::Insn { core, kind, addr } => {
            let _ = write!(out, "{cycle}: cluster/pe{core}/insn: {}", kind.mnemonic());
            if let Some(a) = addr {
                let _ = write!(out, " {a:#010x}");
            }
        }
        TraceEvent::Stall { core, cause } => {
            let _ = write!(
                out,
                "{cycle}: cluster/pe{core}/trace: stall {}",
                cause.token()
            );
        }
        TraceEvent::CgEnter { core, cause } => {
            let _ = write!(
                out,
                "{cycle}: cluster/pe{core}/trace: cg_enter {}",
                cause.token()
            );
        }
        TraceEvent::CgExit { core } => {
            let _ = write!(out, "{cycle}: cluster/pe{core}/trace: cg_exit");
        }
        TraceEvent::L1Access { bank, write } => {
            let what = if write { "write" } else { "read" };
            let _ = write!(out, "{cycle}: cluster/l1/bank{bank}/trace: {what}");
        }
        TraceEvent::L1Conflict { bank } => {
            let _ = write!(out, "{cycle}: cluster/l1/bank{bank}/trace: conflict");
        }
        TraceEvent::L2Access { bank, write } => {
            let what = if write { "write" } else { "read" };
            let _ = write!(out, "{cycle}: cluster/l2/bank{bank}/trace: {what}");
        }
        TraceEvent::BarrierArrive { core } => {
            let _ = write!(out, "{cycle}: cluster/event_unit: arrive pe{core}");
        }
        TraceEvent::BarrierRelease => {
            let _ = write!(out, "{cycle}: cluster/event_unit: release");
        }
        TraceEvent::Fork => {
            let _ = write!(out, "{cycle}: cluster/event_unit: fork");
        }
        TraceEvent::IcacheRefill { count } => {
            let _ = write!(out, "{cycle}: cluster/icache: refill {count}");
        }
        TraceEvent::Dma { words, inbound } => {
            let dir = if inbound { "in" } else { "out" };
            let _ = write!(out, "{cycle}: cluster/dma: transfer {dir} {words}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::OpKind;

    fn line(cycle: u64, e: TraceEvent) -> String {
        let mut s = String::new();
        render_line(&mut s, cycle, e);
        s
    }

    #[test]
    fn renders_insn_with_address() {
        let l = line(
            1042,
            TraceEvent::Insn {
                core: 3,
                kind: OpKind::Load,
                addr: Some(0x1000_0040),
            },
        );
        assert_eq!(l, "1042: cluster/pe3/insn: lw 0x10000040");
    }

    #[test]
    fn renders_insn_without_address() {
        let l = line(
            7,
            TraceEvent::Insn {
                core: 0,
                kind: OpKind::Alu,
                addr: None,
            },
        );
        assert_eq!(l, "7: cluster/pe0/insn: alu");
    }

    #[test]
    fn renders_bank_events() {
        assert_eq!(
            line(
                9,
                TraceEvent::L1Access {
                    bank: 5,
                    write: true
                }
            ),
            "9: cluster/l1/bank5/trace: write"
        );
        assert_eq!(
            line(9, TraceEvent::L1Conflict { bank: 15 }),
            "9: cluster/l1/bank15/trace: conflict"
        );
        assert_eq!(
            line(
                10,
                TraceEvent::L2Access {
                    bank: 31,
                    write: false
                }
            ),
            "10: cluster/l2/bank31/trace: read"
        );
    }

    #[test]
    fn renders_cg_region_markers() {
        assert_eq!(
            line(
                1,
                TraceEvent::CgEnter {
                    core: 2,
                    cause: CycleCause::Barrier
                }
            ),
            "1: cluster/pe2/trace: cg_enter barrier"
        );
        assert_eq!(
            line(4, TraceEvent::CgExit { core: 2 }),
            "4: cluster/pe2/trace: cg_exit"
        );
    }

    #[test]
    fn renders_stall_with_cause() {
        assert_eq!(
            line(
                9,
                TraceEvent::Stall {
                    core: 1,
                    cause: CycleCause::TcdmConflict
                }
            ),
            "9: cluster/pe1/trace: stall tcdm_conflict"
        );
        assert_eq!(
            line(
                9,
                TraceEvent::Stall {
                    core: 0,
                    cause: CycleCause::FpuContention
                }
            ),
            "9: cluster/pe0/trace: stall fpu_contention"
        );
    }

    #[test]
    fn null_sink_reports_itself() {
        assert!(NullSink.is_null());
        assert!(!VecSink::new().is_null());
        assert!(!TextSink::new().is_null());
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        sink.emit(1, TraceEvent::Fork);
        sink.emit(2, TraceEvent::BarrierRelease);
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].0, 1);
    }

    #[test]
    fn text_sink_produces_one_line_per_event() {
        let mut sink = TextSink::new();
        sink.emit(1, TraceEvent::Fork);
        sink.emit(2, TraceEvent::BarrierArrive { core: 0 });
        let lines: Vec<&str> = sink.text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("arrive pe0"));
    }
}
