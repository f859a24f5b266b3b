//! Execution statistics collected by the cluster simulator.
//!
//! [`SimStats`] is the fast-path equivalent of the paper's GVSOC trace: it
//! holds exactly the activity counters that the Table-I energy model and the
//! Table-III dynamic features consume. The slow path (textual trace +
//! listeners, in the `pulp-energy-model` crate) reconstructs the same
//! counters from trace lines; tests assert both paths agree.

use crate::cause::CycleBreakdown;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-core activity counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Retired integer-pipeline ops (ALU, MUL, DIV, branches, jumps).
    pub alu_ops: u64,
    /// Retired floating-point ops.
    pub fp_ops: u64,
    /// Retired loads/stores hitting the TCDM.
    pub l1_ops: u64,
    /// Retired loads/stores hitting the L2.
    pub l2_ops: u64,
    /// Explicit NOP ops retired.
    pub nop_ops: u64,
    /// Active-wait cycles: resource contention, multi-cycle instruction
    /// tails, critical-section spinning and runtime fork overhead.
    pub idle_cycles: u64,
    /// Cycles spent clock-gated (barrier sleep, fork wait, post-completion).
    pub cg_cycles: u64,
    /// Instruction fetches issued (one per retired op).
    pub fetches: u64,
    /// Exclusive per-cause attribution of every cycle; totals to the run's
    /// cycle count.
    pub breakdown: CycleBreakdown,
}

impl CoreStats {
    /// Total retired micro-ops.
    pub fn retired(&self) -> u64 {
        self.alu_ops + self.fp_ops + self.l1_ops + self.l2_ops + self.nop_ops
    }

    /// Cycles charged at the NOP (active-wait) energy cost.
    pub fn active_wait_cycles(&self) -> u64 {
        self.idle_cycles + self.nop_ops
    }

    /// Turns these counters, read earlier, into what each gained up to
    /// `now`.
    pub(crate) fn gain_to(&mut self, now: &CoreStats) {
        self.zip_with(now, |was, now| now - was);
    }

    /// Adds `times` times `gain` to every counter.
    pub(crate) fn add_times(&mut self, gain: &CoreStats, times: u64) {
        self.zip_with(gain, |now, gain| now + times * gain);
    }

    /// Sets every counter to `f(counter, other's counter)`. `other` is
    /// taken apart field by field, so a new counter fails to compile here
    /// until it is added.
    fn zip_with(&mut self, other: &CoreStats, f: impl Fn(u64, u64) -> u64) {
        let CoreStats {
            alu_ops,
            fp_ops,
            l1_ops,
            l2_ops,
            nop_ops,
            idle_cycles,
            cg_cycles,
            fetches,
            breakdown: other_breakdown,
        } = other;
        let fields = [
            (&mut self.alu_ops, alu_ops),
            (&mut self.fp_ops, fp_ops),
            (&mut self.l1_ops, l1_ops),
            (&mut self.l2_ops, l2_ops),
            (&mut self.nop_ops, nop_ops),
            (&mut self.idle_cycles, idle_cycles),
            (&mut self.cg_cycles, cg_cycles),
            (&mut self.fetches, fetches),
        ];
        for (field, &theirs) in fields {
            *field = f(*field, theirs);
        }
        let mut breakdown = CycleBreakdown::default();
        for (cause, theirs) in other_breakdown.iter() {
            breakdown.add_n(cause, f(self.breakdown.count(cause), theirs));
        }
        self.breakdown = breakdown;
    }
}

/// Per-TCDM-bank activity counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Requests deferred because the bank was already granted this cycle.
    pub conflicts: u64,
}

impl BankStats {
    /// Cycles in which the bank served a request.
    pub fn busy_cycles(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Instruction-cache activity counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IcacheStats {
    /// Fetch accesses (one per retired instruction).
    pub fetches: u64,
    /// Line refills (first touch of each static instruction line per core).
    pub refills: u64,
}

/// DMA engine activity counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaStats {
    /// Words moved between L2 and TCDM.
    pub words_transferred: u64,
    /// Cycles the engine spent moving data.
    pub busy_cycles: u64,
}

/// Event-horizon fast-forward accounting.
///
/// Diagnostic counters describing *how* the simulator advanced, not *what*
/// it simulated: every architectural counter in [`SimStats`] is bit-identical
/// whether a run fast-forwards or single-steps. All fields are zero when
/// fast-forward is disabled. When comparing a fast-forward run against the
/// single-step oracle, compare [`SimStats::without_fast_forward`] copies.
///
/// `horizon_computations` counts how often the horizon scan ran; every scan
/// that paid off books exactly one of the `spans`, so their ratio is the
/// scan's hit rate. `periods` counts the periodic loop skips, whose cycles
/// `skipped_cycles` includes. Records written when this struct also
/// carried a skip counter and a sampled wall-time split still load:
/// unknown keys are ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastForwardStats {
    /// Bulk-advance spans taken (each replaces >= 2 single-step iterations).
    pub spans: u64,
    /// Cycles advanced inside bulk spans and periodic loop skips.
    pub skipped_cycles: u64,
    /// Horizon scans performed. With adaptive scanning (the default) this
    /// is only the iterations where a quiescent span was possible; with
    /// [`crate::SimOptions::adaptive_scan`] off it is one per loop
    /// iteration. Defaults when absent in serialised records.
    #[serde(default)]
    pub horizon_computations: u64,
    /// Periodic loop skips taken: each applied `k >= 1` repetitions of a
    /// recorded loop iteration in one step. Defaults when absent in
    /// serialised records.
    #[serde(default)]
    pub periods: u64,
}

impl FastForwardStats {
    /// Fraction of horizon scans that yielded a skip, `spans /
    /// horizon_computations` (0.0 when none ran).
    pub fn horizon_hit_rate(&self) -> f64 {
        if self.horizon_computations == 0 {
            0.0
        } else {
            self.spans as f64 / self.horizon_computations as f64
        }
    }
}

/// Complete statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total kernel cycles.
    pub cycles: u64,
    /// Team size the kernel was run with (cores executing the program).
    pub team_size: usize,
    /// Per-core counters, indexed by physical core id (length = cluster
    /// cores, including unused clock-gated cores).
    pub cores: Vec<CoreStats>,
    /// Per-TCDM-bank counters.
    pub l1_banks: Vec<BankStats>,
    /// Per-L2-bank counters.
    pub l2_banks: Vec<BankStats>,
    /// Shared instruction cache counters.
    pub icache: IcacheStats,
    /// DMA counters (zero for the paper's dataset, which keeps all data in
    /// TCDM).
    pub dma: DmaStats,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Cycles during which at least one core was active (not clock-gated).
    pub cluster_active_cycles: u64,
    /// Fast-forward diagnostics (see [`FastForwardStats`]); defaults when
    /// absent so records serialised before this field deserialise cleanly.
    #[serde(default)]
    pub fast_forward: FastForwardStats,
}

impl SimStats {
    /// Creates zeroed statistics for a cluster shape.
    pub fn new(num_cores: usize, l1_banks: usize, l2_banks: usize) -> Self {
        Self {
            cycles: 0,
            team_size: 0,
            cores: vec![CoreStats::default(); num_cores],
            l1_banks: vec![BankStats::default(); l1_banks],
            l2_banks: vec![BankStats::default(); l2_banks],
            icache: IcacheStats::default(),
            dma: DmaStats::default(),
            barriers: 0,
            cluster_active_cycles: 0,
            fast_forward: FastForwardStats::default(),
        }
    }

    /// Fraction of the run's cycles advanced in bulk by the fast-forward
    /// (0.0 for a single-step run or an empty run).
    pub fn skip_ratio(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.fast_forward.skipped_cycles as f64 / self.cycles as f64
        }
    }

    /// A copy with the [`FastForwardStats`] diagnostics cleared, for
    /// bit-identity comparisons against the single-step oracle.
    pub fn without_fast_forward(&self) -> SimStats {
        let mut s = self.clone();
        s.fast_forward = FastForwardStats::default();
        s
    }

    /// Total retired micro-ops across all cores.
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(CoreStats::retired).sum()
    }

    /// Total TCDM reads across banks.
    pub fn l1_reads(&self) -> u64 {
        self.l1_banks.iter().map(|b| b.reads).sum()
    }

    /// Total TCDM writes across banks.
    pub fn l1_writes(&self) -> u64 {
        self.l1_banks.iter().map(|b| b.writes).sum()
    }

    /// Total TCDM bank conflicts.
    pub fn l1_conflicts(&self) -> u64 {
        self.l1_banks.iter().map(|b| b.conflicts).sum()
    }

    /// Sum over banks of cycles with no request served.
    pub fn l1_idle_cycles(&self) -> u64 {
        let busy: u64 = self.l1_banks.iter().map(BankStats::busy_cycles).sum();
        (self.cycles * self.l1_banks.len() as u64).saturating_sub(busy)
    }

    /// Internal consistency checks; used by tests and debug assertions.
    ///
    /// Verifies that per-core cycle decompositions sum to the total cycle
    /// count and that fetch counts match retirements.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (id, c) in self.cores.iter().enumerate() {
            let accounted = c.retired() + c.idle_cycles + c.cg_cycles;
            // Every cycle a core is either retiring (1 cycle per retired op),
            // actively waiting, or clock-gated.
            if accounted != self.cycles {
                return Err(format!(
                    "core {id}: accounted {accounted} cycles of {}",
                    self.cycles
                ));
            }
            if c.fetches != c.retired() {
                return Err(format!(
                    "core {id}: {} fetches but {} retired ops",
                    c.fetches,
                    c.retired()
                ));
            }
            // The cause taxonomy is exclusive and exhaustive: every cycle
            // carries exactly one cause, and Execute cycles are exactly the
            // retiring ones.
            if c.breakdown.total() != self.cycles {
                return Err(format!(
                    "core {id}: cause breakdown covers {} cycles of {}",
                    c.breakdown.total(),
                    self.cycles
                ));
            }
            if c.breakdown.execute != c.retired() {
                return Err(format!(
                    "core {id}: {} execute cycles but {} retired ops",
                    c.breakdown.execute,
                    c.retired()
                ));
            }
        }
        let fetches: u64 = self.cores.iter().map(|c| c.fetches).sum();
        if self.icache.fetches != fetches {
            return Err(format!(
                "icache fetches {} != core fetches {fetches}",
                self.icache.fetches
            ));
        }
        Ok(())
    }

    /// Cause breakdown summed over all cores.
    pub fn breakdown_totals(&self) -> CycleBreakdown {
        let mut total = CycleBreakdown::default();
        for c in &self.cores {
            total.merge(&c.breakdown);
        }
        total
    }

    /// A human-readable per-core summary table (retired ops, stall-cause
    /// breakdown and clock-gating share). Render it with `Display`.
    pub fn summary(&self) -> SimStatsSummary<'_> {
        SimStatsSummary { stats: self }
    }
}

/// Display adapter produced by [`SimStats::summary`].
#[derive(Debug, Clone, Copy)]
pub struct SimStatsSummary<'a> {
    stats: &'a SimStats,
}

impl fmt::Display for SimStatsSummary<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats;
        writeln!(
            f,
            "run: {} cycles, team {} of {} cores, {} barriers, {} active cycles",
            s.cycles,
            s.team_size,
            s.cores.len(),
            s.barriers,
            s.cluster_active_cycles
        )?;
        writeln!(
            f,
            "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "core",
            "retired",
            "exec_tl",
            "tcdm",
            "fpu",
            "l2",
            "barrier",
            "fork",
            "runtime",
            "dma",
            "idle",
            "cg%"
        )?;
        for (id, c) in s.cores.iter().enumerate() {
            let b = &c.breakdown;
            let cg_share = if s.cycles == 0 {
                0.0
            } else {
                100.0 * c.cg_cycles as f64 / s.cycles as f64
            };
            writeln!(
                f,
                "pe{id:<4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {cg_share:>6.1}%",
                c.retired(),
                b.exec_tail,
                b.tcdm_conflict,
                b.fpu_contention,
                b.l2_wait,
                b.barrier,
                b.fork_wait,
                b.runtime,
                b.dma,
                b.idle,
            )?;
        }
        let totals = s.breakdown_totals();
        writeln!(
            f,
            "total  {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            totals.execute,
            totals.exec_tail,
            totals.tcdm_conflict,
            totals.fpu_contention,
            totals.l2_wait,
            totals.barrier,
            totals.fork_wait,
            totals.runtime,
            totals.dma,
            totals.idle,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_stats_are_consistent() {
        let s = SimStats::new(8, 16, 32);
        assert_eq!(s.cores.len(), 8);
        assert_eq!(s.l1_banks.len(), 16);
        assert!(s.check_consistency().is_ok());
        assert_eq!(s.l1_idle_cycles(), 0);
    }

    #[test]
    fn idle_cycles_complement_busy() {
        let mut s = SimStats::new(1, 2, 1);
        s.cycles = 10;
        s.l1_banks[0].reads = 3;
        s.l1_banks[1].writes = 4;
        assert_eq!(s.l1_idle_cycles(), 20 - 7);
    }

    #[test]
    fn consistency_catches_cycle_mismatch() {
        let mut s = SimStats::new(1, 1, 1);
        s.cycles = 5;
        s.cores[0].alu_ops = 2;
        s.cores[0].fetches = 2;
        s.cores[0].breakdown.execute = 2;
        s.cores[0].breakdown.barrier = 3;
        s.icache.fetches = 2;
        // 2 retired + 0 idle + 0 cg != 5 cycles
        assert!(s.check_consistency().is_err());
        s.cores[0].cg_cycles = 3;
        assert!(s.check_consistency().is_ok());
    }

    #[test]
    fn consistency_catches_breakdown_mismatch() {
        let mut s = SimStats::new(1, 1, 1);
        s.cycles = 3;
        s.cores[0].alu_ops = 1;
        s.cores[0].fetches = 1;
        s.cores[0].cg_cycles = 2;
        s.icache.fetches = 1;
        // Old counters balance, but the cause taxonomy is incomplete.
        s.cores[0].breakdown.execute = 1;
        assert!(s.check_consistency().is_err());
        s.cores[0].breakdown.barrier = 2;
        assert!(s.check_consistency().is_ok());
        // Execute cycles must match retirements exactly.
        s.cores[0].breakdown.execute = 0;
        s.cores[0].breakdown.idle = 1;
        assert!(s.check_consistency().is_err());
    }

    #[test]
    fn summary_renders_per_core_rows() {
        let mut s = SimStats::new(2, 1, 1);
        s.cycles = 4;
        s.team_size = 1;
        s.cores[0].alu_ops = 2;
        s.cores[0].fetches = 2;
        s.cores[0].idle_cycles = 2;
        s.cores[0].breakdown.execute = 2;
        s.cores[0].breakdown.exec_tail = 2;
        s.cores[1].cg_cycles = 4;
        s.cores[1].breakdown.idle = 4;
        s.icache.fetches = 2;
        let table = s.summary().to_string();
        assert!(table.contains("pe0"), "missing core row:\n{table}");
        assert!(table.contains("pe1"), "missing core row:\n{table}");
        assert!(table.contains("100.0%"), "missing cg share:\n{table}");
        assert!(table.starts_with("run: 4 cycles"), "bad header:\n{table}");
    }

    #[test]
    fn skip_ratio_and_oracle_view() {
        let mut s = SimStats::new(1, 1, 1);
        assert_eq!(s.skip_ratio(), 0.0);
        s.cycles = 100;
        s.fast_forward.spans = 3;
        s.fast_forward.skipped_cycles = 80;
        assert!((s.skip_ratio() - 0.8).abs() < 1e-12);
        let oracle_view = s.without_fast_forward();
        assert_eq!(oracle_view.fast_forward, FastForwardStats::default());
        assert_eq!(oracle_view.cycles, s.cycles);
    }

    #[test]
    fn stats_without_fast_forward_field_deserialise() {
        // Records serialised before the fast-forward counters existed must
        // still round-trip (the field defaults to zero).
        let mut s = SimStats::new(1, 1, 1);
        s.cycles = 7;
        let serde::Value::Map(mut entries) = serde::Serialize::to_value(&s) else {
            panic!("SimStats must serialise to a map");
        };
        let before = entries.len();
        entries.retain(|(k, _)| k != "fast_forward");
        assert_eq!(entries.len(), before - 1, "field present before removal");
        let back: SimStats =
            serde::Deserialize::from_value(serde::Value::Map(entries)).expect("deserialise");
        assert_eq!(back, s);
    }

    #[test]
    fn horizon_overhead_ratios_and_serde_defaults() {
        let mut s = SimStats::new(1, 1, 1);
        s.cycles = 3;
        s.fast_forward.spans = 4;
        s.fast_forward.skipped_cycles = 9;
        s.fast_forward.horizon_computations = 10;
        assert!((s.fast_forward.horizon_hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(FastForwardStats::default().horizon_hit_rate(), 0.0);
        // The oracle view clears the horizon fields with the rest.
        assert_eq!(
            s.without_fast_forward().fast_forward,
            FastForwardStats::default()
        );
        // Deserialises `s` with only the `keep` keys of its `fast_forward`
        // map, plus the `extra` keys.
        let with_keys = |keep: &[&str], extra: &[&str]| {
            let serde::Value::Map(mut entries) = serde::Serialize::to_value(&s) else {
                panic!("SimStats must serialise to a map");
            };
            let ff = entries
                .iter_mut()
                .find(|(k, _)| k == "fast_forward")
                .expect("fast_forward present");
            let serde::Value::Map(inner) = &mut ff.1 else {
                panic!("fast_forward must serialise to a map");
            };
            inner.retain(|(k, _)| keep.contains(&k.as_str()));
            inner.extend(extra.iter().map(|k| (k.to_string(), serde::Value::U64(7))));
            serde::Deserialize::from_value(serde::Value::Map(entries)).expect("deserialise")
        };
        let all = ["spans", "skipped_cycles", "horizon_computations"];
        // Records written with the retired skip counter and wall-time split
        // still load; the extra keys are ignored.
        let old: SimStats = with_keys(&all, &["horizon_skips", "horizon_scan_nanos", "step_nanos"]);
        assert_eq!(old, s);
        // Records written before the horizon counter existed still load.
        let older: SimStats = with_keys(&all[..2], &[]);
        assert_eq!(older.fast_forward.horizon_computations, 0);
        assert_eq!(older.fast_forward.spans, 4);
    }

    #[test]
    fn consistency_catches_fetch_mismatch() {
        let mut s = SimStats::new(1, 1, 1);
        s.cycles = 2;
        s.cores[0].alu_ops = 2;
        s.cores[0].fetches = 1;
        assert!(s.check_consistency().is_err());
    }
}
