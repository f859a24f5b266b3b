//! Time-resolved power profiling.
//!
//! [`PowerProbe`] is a [`TraceSink`] that buckets the *event* (dynamic)
//! energy of a run into fixed cycle windows while the simulation runs,
//! yielding a power-over-time profile — the simulator-side analogue of the
//! VCD-based power traces the paper's authors extracted with PrimeTime.
//!
//! Event energy covers everything charged per event by the Table-I model
//! (opcodes, bank requests, I-cache fetches, active-wait cycles, DMA
//! words); the per-cycle baseline (leakage + idle of every component) is
//! constant by construction and is added analytically by
//! [`PowerProbe::profile`].

use crate::model::EnergyModel;
use pulp_sim::{ClusterConfig, OpKind, TraceEvent, TraceSink};

/// A trace sink accumulating per-window dynamic energy.
#[derive(Debug, Clone)]
pub struct PowerProbe {
    model: EnergyModel,
    config: ClusterConfig,
    window: u64,
    buckets: Vec<f64>,
    max_cycle: u64,
}

impl PowerProbe {
    /// Creates a probe bucketing energy into windows of `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(model: EnergyModel, config: ClusterConfig, window: u64) -> Self {
        assert!(window > 0, "window must be at least one cycle");
        Self {
            model,
            config,
            window,
            buckets: Vec::new(),
            max_cycle: 0,
        }
    }

    fn add(&mut self, cycle: u64, energy: f64) {
        let idx = (cycle / self.window) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += energy;
    }

    /// Per-cycle static baseline implied by the model: leakage of every
    /// component plus the idle draw of memories and DMA.
    pub fn baseline_per_cycle(&self) -> f64 {
        let m = &self.model;
        let c = &self.config;
        m.pe.leakage * c.num_cores as f64
            + m.fpu.leakage * c.num_fpus as f64
            + (m.l1_bank.leakage + m.l1_bank.idle) * c.tcdm_banks as f64
            + (m.l2_bank.leakage + m.l2_bank.idle) * c.l2_banks as f64
            + m.icache.leakage
            + m.dma.leakage
            + m.dma.idle
            + m.other.leakage
    }

    /// Total dynamic energy observed.
    pub fn dynamic_total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Average power per window in femtojoules/cycle, including the static
    /// baseline. The last window is scaled by its actual width.
    pub fn profile(&self) -> Vec<f64> {
        let base = self.baseline_per_cycle();
        let n = self.buckets.len();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let width = if i + 1 == n {
                    let rem = self.max_cycle + 1 - i as u64 * self.window;
                    rem.min(self.window).max(1)
                } else {
                    self.window
                };
                e / width as f64 + base
            })
            .collect()
    }

    fn event_energy(&self, event: &TraceEvent) -> f64 {
        let m = &self.model;
        match event {
            TraceEvent::Insn { kind, addr, .. } => {
                let core_side = match kind {
                    OpKind::Alu | OpKind::Mul | OpKind::Div | OpKind::Branch | OpKind::Jump => {
                        m.pe.alu
                    }
                    OpKind::Fp(_) => m.pe.fp + m.fpu.operative,
                    OpKind::Nop => m.pe.nop,
                    OpKind::Load | OpKind::Store => match addr {
                        Some(a) if self.config.is_tcdm(*a) => m.pe.l1,
                        _ => m.pe.l2,
                    },
                };
                core_side + m.icache.use_
            }
            TraceEvent::Stall { .. } => m.pe.nop,
            // Bank events carry the request energy net of the idle draw
            // already in the baseline.
            TraceEvent::L1Access { write, .. } => {
                (if *write {
                    m.l1_bank.write
                } else {
                    m.l1_bank.read
                }) - m.l1_bank.idle
            }
            TraceEvent::L2Access { write, .. } => {
                (if *write {
                    m.l2_bank.write
                } else {
                    m.l2_bank.read
                }) - m.l2_bank.idle
            }
            TraceEvent::Dma { words, .. } => m.dma.transfer * *words as f64,
            TraceEvent::IcacheRefill { count } => m.icache.refill * *count as f64,
            TraceEvent::L1Conflict { .. }
            | TraceEvent::CgEnter { .. }
            | TraceEvent::CgExit { .. }
            | TraceEvent::BarrierArrive { .. }
            | TraceEvent::BarrierRelease
            | TraceEvent::Fork => 0.0,
        }
    }
}

impl TraceSink for PowerProbe {
    fn emit(&mut self, cycle: u64, event: TraceEvent) {
        self.max_cycle = self.max_cycle.max(cycle);
        let e = self.event_energy(&event);
        if e != 0.0 {
            self.add(cycle, e);
        }
    }
}

/// Renders a power profile as an ASCII bar chart, one line per window.
pub fn render_profile(profile: &[f64], window: u64, width: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let max = profile.iter().cloned().fold(f64::MIN, f64::max);
    if !max.is_finite() || max <= 0.0 {
        return out;
    }
    for (i, &p) in profile.iter().enumerate() {
        let bar = ((p / max) * width as f64).round() as usize;
        let _ = writeln!(
            out,
            "{:>10} {:>9.1} pJ/cy |{}",
            i as u64 * window,
            p * 1e-3,
            "#".repeat(bar)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_sim::{simulate_traced, AddrExpr, Program, SegOp, TCDM_BASE};

    fn run(program: &Program, window: u64) -> PowerProbe {
        let config = ClusterConfig::default();
        let mut probe = PowerProbe::new(EnergyModel::table1(), config.clone(), window);
        simulate_traced(&config, program, 1_000_000, &mut probe).expect("simulate");
        probe
    }

    fn alu_burst(n: u64) -> Vec<SegOp> {
        vec![
            SegOp::LoopBegin { trip: n },
            SegOp::Instr {
                kind: OpKind::Alu,
                addr: None,
            },
            SegOp::LoopEnd,
        ]
    }

    #[test]
    fn dynamic_energy_matches_op_count() {
        let p = Program::new(vec![alu_burst(100)]);
        let probe = run(&p, 16);
        let m = EnergyModel::table1();
        let expected = 100.0 * (m.pe.alu + m.icache.use_) + m.icache.refill * 1.0;
        // Plus the final park cycle(s) contribute nothing dynamic.
        assert!(
            (probe.dynamic_total() - expected).abs() < 1e-6,
            "{} vs {}",
            probe.dynamic_total(),
            expected
        );
    }

    #[test]
    fn profile_shows_activity_then_silence() {
        // A burst of work followed by a long explicit NOP tail would keep
        // power high; instead use a single-op program where later windows
        // exist only through the park cycle.
        let mut stream = alu_burst(64);
        stream.push(SegOp::Instr {
            kind: OpKind::Load,
            addr: Some(AddrExpr::constant(TCDM_BASE)),
        });
        let p = Program::new(vec![stream]);
        let probe = run(&p, 8);
        let profile = probe.profile();
        assert!(profile.len() >= 2);
        // Every window's power is at least the baseline.
        let base = probe.baseline_per_cycle();
        assert!(profile.iter().all(|&p| p >= base - 1e-9));
        // The busy windows sit well above the baseline.
        assert!(
            profile[0] > base * 1.2,
            "first window {} vs base {base}",
            profile[0]
        );
    }

    #[test]
    fn window_zero_is_rejected() {
        let result = std::panic::catch_unwind(|| {
            PowerProbe::new(EnergyModel::table1(), ClusterConfig::default(), 0)
        });
        assert!(result.is_err());
    }

    #[test]
    fn render_produces_one_line_per_window() {
        let p = Program::new(vec![alu_burst(32)]);
        let probe = run(&p, 8);
        let text = render_profile(&probe.profile(), 8, 40);
        assert_eq!(text.lines().count(), probe.profile().len());
        assert!(text.contains('#'));
    }

    #[test]
    fn empty_profile_renders_empty() {
        assert!(render_profile(&[], 8, 40).is_empty());
    }
}
