//! Cluster configuration.
//!
//! The default configuration mirrors the `8c4flp` PULP instance used in the
//! paper: 8 RI5CY-like cores, 4 shared single-stage-pipeline FPUs with a
//! fixed core-to-FPU mapping, a 64 KiB TCDM split over 16 word-interleaved
//! banks, and a 512 KiB L2 scratchpad split over 32 banks with a 15-cycle
//! access latency.

use serde::{Deserialize, Serialize};

/// Base address of the on-cluster TCDM scratchpad.
pub const TCDM_BASE: u32 = 0x1000_0000;
/// Base address of the off-cluster L2 scratchpad.
pub const L2_BASE: u32 = 0x1C00_0000;

/// Static description of the simulated cluster.
///
/// Use [`ClusterConfig::default`] for the paper's `8c4flp` instance, or the
/// builder-style setters to derive ablated platforms (e.g. disabling clock
/// gating or bank-conflict modelling for the ablation experiments).
///
/// # Examples
///
/// ```
/// use pulp_sim::ClusterConfig;
///
/// let cfg = ClusterConfig::default();
/// assert_eq!(cfg.num_cores, 8);
/// assert_eq!(cfg.num_fpus, 4);
/// assert_eq!(cfg.tcdm_bytes, 64 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of processing elements in the cluster (paper instance: 8).
    pub num_cores: usize,
    /// Number of word-interleaved TCDM banks (paper instance: 16).
    pub tcdm_banks: usize,
    /// Total TCDM capacity in bytes (paper instance: 64 KiB).
    pub tcdm_bytes: u32,
    /// Number of L2 banks (paper instance: 32).
    pub l2_banks: usize,
    /// Total L2 capacity in bytes (paper instance: 512 KiB).
    pub l2_bytes: u32,
    /// L2 access latency in cycles (paper instance: 15).
    pub l2_latency: u32,
    /// Number of shared FPUs (paper instance: 4).
    pub num_fpus: usize,
    /// Latency in cycles of a pipelined FP ALU operation.
    pub fpu_latency: u32,
    /// Latency in cycles of a (non-pipelined) FP divide.
    pub fp_div_latency: u32,
    /// Latency in cycles of a (non-pipelined) integer divide.
    pub int_div_latency: u32,
    /// Latency in cycles of an integer multiply.
    pub mul_latency: u32,
    /// Extra cycles paid by a taken branch.
    pub taken_branch_penalty: u32,
    /// Base cycles for the OpenMP runtime to open a parallel region.
    pub fork_latency: u32,
    /// Additional fork cycles per worker woken (the master configures and
    /// signals each team member).
    pub fork_per_worker: u32,
    /// Cycles between the last barrier arrival and the event-unit
    /// broadcast that releases the team.
    pub barrier_latency: u32,
    /// I-cache refill cost in cycles for the first touch of a basic block.
    pub icache_refill_cycles: u32,
    /// Model clock gating of idle cores (ablation switch; `true` on PULP).
    pub model_clock_gating: bool,
    /// Model contention on the shared FPUs (ablation switch).
    pub model_fpu_contention: bool,
    /// Model TCDM bank conflicts (ablation switch).
    pub model_bank_conflicts: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            num_cores: 8,
            tcdm_banks: 16,
            tcdm_bytes: 64 * 1024,
            l2_banks: 32,
            l2_bytes: 512 * 1024,
            l2_latency: 15,
            num_fpus: 4,
            fpu_latency: 1,
            fp_div_latency: 10,
            int_div_latency: 8,
            mul_latency: 1,
            taken_branch_penalty: 1,
            fork_latency: 384,
            fork_per_worker: 24,
            barrier_latency: 48,
            icache_refill_cycles: 8,
            model_clock_gating: true,
            model_fpu_contention: true,
            model_bank_conflicts: true,
        }
    }
}

impl ClusterConfig {
    /// Creates the default `8c4flp` configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the TCDM bank index serving byte address `addr`.
    ///
    /// The TCDM is word-interleaved: consecutive 32-bit words map to
    /// consecutive banks.
    #[inline]
    pub fn tcdm_bank_of(&self, addr: u32) -> usize {
        bank_of(addr, self.tcdm_banks)
    }

    /// Returns the L2 bank index serving byte address `addr`.
    #[inline]
    pub fn l2_bank_of(&self, addr: u32) -> usize {
        bank_of(addr, self.l2_banks)
    }

    /// Returns the FPU index serving `core` (fixed 2:1 mapping on `8c4flp`).
    #[inline]
    pub fn fpu_of(&self, core: usize) -> usize {
        core % self.num_fpus
    }

    /// Returns `true` if `addr` falls inside the TCDM address window.
    #[inline]
    pub fn is_tcdm(&self, addr: u32) -> bool {
        (TCDM_BASE..TCDM_BASE + self.tcdm_bytes).contains(&addr)
    }

    /// Returns `true` if `addr` falls inside the L2 address window.
    #[inline]
    pub fn is_l2(&self, addr: u32) -> bool {
        (L2_BASE..L2_BASE + self.l2_bytes).contains(&addr)
    }

    /// Disables clock-gating modelling (idle cores burn active-wait energy).
    pub fn without_clock_gating(mut self) -> Self {
        self.model_clock_gating = false;
        self
    }

    /// Disables FPU contention modelling (every core sees a private FPU).
    pub fn without_fpu_contention(mut self) -> Self {
        self.model_fpu_contention = false;
        self
    }

    /// Disables TCDM bank-conflict modelling (ideal multi-ported memory).
    pub fn without_bank_conflicts(mut self) -> Self {
        self.model_bank_conflicts = false;
        self
    }

    /// Checks the configuration for physically meaningless settings.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field: zero
    /// cores/banks/FPUs, capacities that are not multiples of the bank
    /// count, or a zero L2 latency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be at least 1".into());
        }
        if self.tcdm_banks == 0 || self.l2_banks == 0 {
            return Err("memory bank counts must be at least 1".into());
        }
        if self.num_fpus == 0 {
            return Err("num_fpus must be at least 1".into());
        }
        if self.tcdm_bytes == 0 || !self.tcdm_bytes.is_multiple_of(4) {
            return Err("tcdm_bytes must be a positive multiple of the word size".into());
        }
        if self.l2_bytes == 0 || !self.l2_bytes.is_multiple_of(4) {
            return Err("l2_bytes must be a positive multiple of the word size".into());
        }
        if self.l2_latency == 0 {
            return Err("l2_latency must be at least 1 cycle".into());
        }
        if self.fpu_latency == 0 || self.fp_div_latency == 0 || self.int_div_latency == 0 {
            return Err("operation latencies must be at least 1 cycle".into());
        }
        Ok(())
    }

    /// Sets the number of cores (used by tests exploring smaller clusters).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or larger than 1024.
    pub fn with_cores(mut self, n: usize) -> Self {
        assert!(n > 0 && n <= 1024, "core count out of range: {n}");
        self.num_cores = n;
        self
    }
}

/// The bank of word-interleaved memory with `banks` banks serving byte
/// address `addr`. Bank counts are powers of two on every PULP instance, and
/// there the modulo is a mask rather than a division on every access.
#[inline]
fn bank_of(addr: u32, banks: usize) -> usize {
    let word = (addr >> 2) as usize;
    if banks.is_power_of_two() {
        word & (banks - 1)
    } else {
        word % banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_8c4flp() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_cores, 8);
        assert_eq!(c.tcdm_banks, 16);
        assert_eq!(c.l2_latency, 15);
        assert_eq!(c.num_fpus, 4);
        assert!(c.model_clock_gating);
    }

    #[test]
    fn bank_mapping_is_word_interleaved() {
        let c = ClusterConfig::default();
        assert_eq!(c.tcdm_bank_of(TCDM_BASE), 0);
        assert_eq!(c.tcdm_bank_of(TCDM_BASE + 4), 1);
        assert_eq!(c.tcdm_bank_of(TCDM_BASE + 4 * 16), 0);
        // Sub-word addresses map to the same bank as their word.
        assert_eq!(c.tcdm_bank_of(TCDM_BASE + 2), c.tcdm_bank_of(TCDM_BASE));
    }

    #[test]
    fn fpu_mapping_is_fixed_modulo() {
        let c = ClusterConfig::default();
        assert_eq!(c.fpu_of(0), 0);
        assert_eq!(c.fpu_of(4), 0);
        assert_eq!(c.fpu_of(7), 3);
    }

    #[test]
    fn address_windows_do_not_overlap() {
        let c = ClusterConfig::default();
        assert!(c.is_tcdm(TCDM_BASE));
        assert!(!c.is_l2(TCDM_BASE));
        assert!(c.is_l2(L2_BASE));
        assert!(!c.is_tcdm(L2_BASE));
        assert!(!c.is_tcdm(TCDM_BASE + c.tcdm_bytes));
    }

    #[test]
    fn ablation_builders_flip_flags() {
        let c = ClusterConfig::default()
            .without_clock_gating()
            .without_fpu_contention()
            .without_bank_conflicts();
        assert!(!c.model_clock_gating);
        assert!(!c.model_fpu_contention);
        assert!(!c.model_bank_conflicts);
    }

    #[test]
    #[should_panic(expected = "core count out of range")]
    fn zero_cores_rejected() {
        let _ = ClusterConfig::default().with_cores(0);
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(ClusterConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_offending_field() {
        let c = ClusterConfig {
            num_fpus: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("num_fpus"));
        let c = ClusterConfig {
            l2_latency: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("l2_latency"));
        let c = ClusterConfig {
            tcdm_bytes: 7,
            ..ClusterConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("tcdm_bytes"));
    }
}
