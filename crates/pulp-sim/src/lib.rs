//! # pulp-sim — cycle-level PULP cluster simulator
//!
//! A from-scratch, cycle-level model of a PULP-like ultra-low-power RISC-V
//! cluster, standing in for the GVSOC virtual platform used in *"Source
//! Code Classification for Energy Efficiency in Parallel Ultra Low-Power
//! Microcontrollers"* (DATE 2021). The default [`ClusterConfig`] mirrors
//! the paper's `8c4flp` instance: 8 cores, 4 shared single-stage FPUs,
//! a 64 KiB TCDM over 16 word-interleaved banks, and a 512 KiB L2 with a
//! 15-cycle latency.
//!
//! The simulator executes [`Program`]s — compact per-core bytecode with
//! symbolic loops and affine address expressions — and produces
//! [`SimStats`] plus, optionally, a GVSOC-style textual trace consumed by
//! the trace-analyser/listener stack in the `pulp-energy-model` crate.
//!
//! Modelled mechanisms (each is an explicit, testable unit):
//!
//! * TCDM bank-conflict arbitration ([`tcdm`])
//! * shared-FPU contention with the fixed `core % 4` mapping ([`fpu`])
//! * L2 access latency
//! * barrier sleep and fork wait with clock gating ([`event_unit`])
//! * OpenMP fork/join runtime overhead
//! * critical-section serialisation
//! * I-cache use/refill accounting ([`icache`])
//! * a DMA engine ([`dma`]; unused by the paper's dataset but part of the
//!   platform energy envelope)
//!
//! # Examples
//!
//! Run two cores storing to disjoint TCDM banks:
//!
//! ```
//! use pulp_sim::{simulate, ClusterConfig, Program, SegOp, AddrExpr, OpKind, TCDM_BASE};
//!
//! # fn main() -> Result<(), pulp_sim::SimError> {
//! let store = |addr: u32| SegOp::Instr {
//!     kind: OpKind::Store,
//!     addr: Some(AddrExpr::constant(addr)),
//! };
//! let program = Program::new(vec![vec![store(TCDM_BASE)], vec![store(TCDM_BASE + 4)]]);
//! let stats = simulate(&ClusterConfig::default(), &program)?;
//! assert_eq!(stats.l1_writes(), 2);
//! assert_eq!(stats.l1_conflicts(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cause;
pub mod cluster;
pub mod config;
mod decode;
pub mod dma;
pub mod event_unit;
pub mod fpu;
pub mod icache;
pub mod isa;
mod period;
pub mod program;
pub mod stats;
pub mod tcdm;
pub mod telemetry;
pub mod trace;

/// Version of the simulator's timing/behaviour model.
///
/// Bump this whenever a change alters simulated cycle counts or event
/// statistics for *any* program (latency model tweaks, arbitration order,
/// new stall causes...). Downstream caches — notably the sweep cache in
/// `pulp-energy` — fold this constant into their keys, so a bump
/// invalidates every cached simulation result instead of silently serving
/// stale numbers.
pub const SIM_VERSION: u32 = 1;

pub use cause::{CycleBreakdown, CycleCause};
pub use cluster::{
    simulate, simulate_opts, simulate_traced, SimError, SimOptions, SimScratch, DEFAULT_MAX_CYCLES,
};
pub use config::{ClusterConfig, L2_BASE, TCDM_BASE};
pub use isa::{FpOp, OpKind};
pub use program::{AddrExpr, Program, SegOp, ValidateProgramError};
pub use stats::{
    BankStats, CoreStats, DmaStats, FastForwardStats, IcacheStats, SimStats, SimStatsSummary,
};
pub use telemetry::{CauseRun, CoreTimeline, NoTelemetry, RegionKind, RegionProfile, Telemetry};
pub use trace::{render_line, NullSink, TextSink, TraceEvent, TraceSink, VecSink};
