//! # pulp-energy-model — energy accounting for the PULP cluster
//!
//! Implements the paper's Table-I energy model and the two paths that feed
//! it:
//!
//! * the **fast path**: [`energy_of`] folds a [`pulp_sim::SimStats`]
//!   directly with the model;
//! * the **trace path**: the GVSOC-style textual trace is replayed through
//!   the paper's listener hierarchy ([`PulpListeners`]: 8 core listeners,
//!   16 L1-bank listeners, 32 L2-bank listeners registered on a
//!   [`TraceAnalyser`]) and the reconstructed statistics are folded with
//!   the same model.
//!
//! Integration tests assert that both paths agree to the femtojoule.
//!
//! The crate also extracts the Table-III **dynamic features**
//! ([`DynamicFeatures`]) used to train the profile-based classifier the
//! paper compares against.
//!
//! # Examples
//!
//! ```
//! use pulp_energy_model::{energy_of, EnergyModel};
//! use pulp_sim::{simulate, ClusterConfig, Program, SegOp, OpKind};
//!
//! # fn main() -> Result<(), pulp_sim::SimError> {
//! let program = Program::new(vec![vec![
//!     SegOp::Instr { kind: OpKind::Alu, addr: None },
//! ]]);
//! let config = ClusterConfig::default();
//! let stats = simulate(&config, &program)?;
//! let energy = energy_of(&stats, &EnergyModel::table1(), &config);
//! assert!(energy.total() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accounting;
pub mod dynamic_features;
pub mod listeners;
pub mod model;
pub mod power;
pub mod summary;
pub mod trace_analyser;

/// Version of the energy model and feature-extraction pipeline.
///
/// Bump this whenever Table-I coefficients, the accounting rules in
/// [`energy_of`], the [`DynamicFeatures`] extraction, or the downstream
/// classifier/serving stack change numeric results. The `pulp-energy`
/// sweep cache folds this constant into its keys, so a bump invalidates
/// cached energies instead of serving stale ones, and every run manifest
/// records it as provenance.
///
/// v2: model-zoo release — the serving batch path moved to the quantized
/// flat compilation of the tree, so cached artifacts and manifests from
/// the float-only era are no longer comparable.
pub const MODEL_VERSION: u32 = 2;

pub use accounting::{
    energy_of, energy_waterfall, render_breakdown, EnergyBreakdown, EnergyWaterfall, WaterfallEntry,
};
pub use dynamic_features::{DynamicFeatures, DYNAMIC_FEATURE_NAMES};
pub use listeners::{BankListener, CoreListener, ListenError, PulpListeners, Route};
pub use model::{
    BankEnergy, DmaEnergy, EnergyModel, Femtojoules, FpuEnergy, IcacheEnergy, OtherEnergy, PeEnergy,
};
pub use power::{render_profile, PowerProbe};
pub use summary::EnergySummary;
pub use trace_analyser::{
    parse_line, replay_oracle, stats_from_trace, ParseTraceError, ParsedLine, TraceAnalyser,
};

#[cfg(test)]
mod parity_tests {
    //! Fast path vs trace path: both must reconstruct identical statistics
    //! and therefore identical energy.

    use super::*;
    use pulp_sim::{AddrExpr, ClusterConfig, OpKind, Program, SegOp, L2_BASE, TCDM_BASE};

    fn demo_program() -> Program {
        let instr = |kind| SegOp::Instr { kind, addr: None };
        let load = |addr: u32| SegOp::Instr {
            kind: OpKind::Load,
            addr: Some(AddrExpr::constant(addr)),
        };
        let store = |addr: u32| SegOp::Instr {
            kind: OpKind::Store,
            addr: Some(AddrExpr::constant(addr)),
        };
        // Master: fork, loop of mixed work, barrier. Worker: waits, works.
        let master = vec![
            instr(OpKind::Alu),
            SegOp::Fork,
            SegOp::LoopBegin { trip: 10 },
            load(TCDM_BASE),
            instr(OpKind::Fp(pulp_sim::FpOp::Mul)),
            store(TCDM_BASE + 64),
            instr(OpKind::Branch),
            SegOp::LoopEnd,
            load(L2_BASE),
            SegOp::Barrier,
        ];
        let worker = vec![
            SegOp::WaitFork,
            SegOp::LoopBegin { trip: 10 },
            load(TCDM_BASE),                        // same bank as master: conflicts
            instr(OpKind::Fp(pulp_sim::FpOp::Mul)), // same FPU pair for core 4
            instr(OpKind::Nop),
            SegOp::LoopEnd,
            SegOp::Barrier,
        ];
        Program::new(vec![master, worker.clone(), worker])
    }

    #[test]
    fn trace_reconstruction_matches_simulator_stats() {
        let config = ClusterConfig::default();
        let (direct, reconstructed) = replay_oracle(&config, &demo_program(), 1_000_000);
        // Replay reconstructs architectural state; fast-forward span
        // counters are diagnostics the trace does not carry.
        assert_eq!(direct.without_fast_forward(), reconstructed);
    }

    #[test]
    fn energy_agrees_between_paths() {
        let config = ClusterConfig::default();
        let (direct, reconstructed) = replay_oracle(&config, &demo_program(), 1_000_000);
        let model = EnergyModel::table1();
        let e_direct = energy_of(&direct, &model, &config);
        let e_trace = energy_of(&reconstructed, &model, &config);
        assert!((e_direct.total() - e_trace.total()).abs() < 1e-6);
    }
}
