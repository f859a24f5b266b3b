//! Hierarchical trace listeners — the paper's `PULPListeners` stack.
//!
//! The paper's trace-analysis software is "a hierarchical set of listeners
//! and a trace-analyser": `PULPListeners` contains 8 `CoreListeners`, 16
//! `L1BankListeners` and 32 `L2BankListeners`; each listener registers
//! itself on the trace-analyser with the component path whose events it
//! wants. This module is that structure; the parsing half lives in
//! [`crate::trace_analyser`].
//!
//! Together they are the paper's method: execution trace → listeners →
//! per-component event counts → Table I energy. Production computes the
//! same energy directly from the simulator's counters with
//! [`energy_of`](crate::energy_of); this stack is kept as the test oracle
//! for that fast path. Only tests (through
//! [`replay_oracle`](crate::replay_oracle)) and the `trace_inspection`
//! example reach it.

use pulp_sim::{ClusterConfig, CycleBreakdown, CycleCause, OpKind, SimStats};
use std::collections::HashMap;
use std::fmt;

/// Errors raised while interpreting event payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenError {
    /// Unknown instruction mnemonic in a `pe/insn` payload.
    UnknownMnemonic {
        /// The offending mnemonic.
        mnemonic: String,
    },
    /// A memory instruction without a parsable address.
    BadAddress {
        /// The offending payload.
        payload: String,
    },
    /// Unknown payload on a known path.
    UnknownPayload {
        /// The offending payload.
        payload: String,
    },
    /// A `cg_exit` without a matching `cg_enter`.
    UnbalancedCg {
        /// Core with the unbalanced region.
        core: usize,
    },
}

impl fmt::Display for ListenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownMnemonic { mnemonic } => write!(f, "unknown mnemonic `{mnemonic}`"),
            Self::BadAddress { payload } => write!(f, "bad address in `{payload}`"),
            Self::UnknownPayload { payload } => write!(f, "unknown payload `{payload}`"),
            Self::UnbalancedCg { core } => write!(f, "cg_exit without cg_enter on core {core}"),
        }
    }
}

impl std::error::Error for ListenError {}

/// Listener for one processing element.
///
/// Watches `cluster/pe<N>/insn` (opcode stream) and `cluster/pe<N>/trace`
/// (stall cycles and clock-gating regions), mirroring the paper's
/// `CoreListeners`.
#[derive(Debug, Clone, Default)]
pub struct CoreListener {
    /// Integer-pipeline opcodes observed.
    pub alu_ops: u64,
    /// FP opcodes observed.
    pub fp_ops: u64,
    /// TCDM accesses observed (level inferred from the address).
    pub l1_ops: u64,
    /// L2 accesses observed.
    pub l2_ops: u64,
    /// Explicit NOPs observed.
    pub nop_ops: u64,
    /// Active-wait cycles observed.
    pub idle_cycles: u64,
    /// Clock-gated cycles accumulated from enter/exit regions.
    pub cg_cycles: u64,
    /// Non-execute cycle attribution rebuilt from `stall <cause>` lines and
    /// `cg_enter <cause>` region markers. The `execute` slot is filled from
    /// the retired-op count when converting to stats.
    pub breakdown: CycleBreakdown,
    cg_enter_at: Option<(u64, CycleCause)>,
    /// When analysing a cycle window, regions truncated by the window
    /// boundary are clamped here instead of erroring.
    window_start: Option<u64>,
}

impl CoreListener {
    /// Handles one `pe/insn` payload, e.g. `lw 0x10000040`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown mnemonics or unparsable addresses.
    pub fn on_insn(&mut self, payload: &str, config: &ClusterConfig) -> Result<(), ListenError> {
        let mut parts = payload.split_whitespace();
        let mnemonic = parts.next().unwrap_or_default();
        let kind = OpKind::from_mnemonic(mnemonic).ok_or_else(|| ListenError::UnknownMnemonic {
            mnemonic: mnemonic.to_string(),
        })?;
        match kind {
            OpKind::Alu | OpKind::Mul | OpKind::Div | OpKind::Branch | OpKind::Jump => {
                self.alu_ops += 1;
            }
            OpKind::Fp(_) => self.fp_ops += 1,
            OpKind::Nop => self.nop_ops += 1,
            OpKind::Load | OpKind::Store => {
                let addr_str = parts.next().ok_or_else(|| ListenError::BadAddress {
                    payload: payload.to_string(),
                })?;
                let addr = parse_hex(addr_str).ok_or_else(|| ListenError::BadAddress {
                    payload: payload.to_string(),
                })?;
                // "The access level is inferred intercepting the address
                // required by the operation at runtime."
                if config.is_tcdm(addr) {
                    self.l1_ops += 1;
                } else {
                    self.l2_ops += 1;
                }
            }
        }
        Ok(())
    }

    /// Handles one `pe/trace` payload (`stall <cause>`, `cg_enter <cause>`,
    /// `cg_exit`), identifying clock-gating regions, wait cycles and their
    /// causes. A missing cause token (legacy traces) attributes to `idle`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown payloads, unknown cause tokens or
    /// unbalanced gating regions.
    pub fn on_trace(&mut self, cycle: u64, payload: &str, core: usize) -> Result<(), ListenError> {
        let mut parts = payload.split_whitespace();
        match parts.next() {
            Some("stall") => {
                let cause = parse_cause(parts.next(), payload)?;
                self.idle_cycles += 1;
                self.breakdown.add(cause);
            }
            Some("cg_enter") => {
                let cause = parse_cause(parts.next(), payload)?;
                self.cg_enter_at = Some((cycle, cause));
            }
            Some("cg_exit") => {
                let (enter, cause) = match (self.cg_enter_at.take(), self.window_start) {
                    (Some(e), _) => e,
                    // The matching cg_enter fell before the analysis
                    // window: the core was gated since (at least) the
                    // window start, for a reason the window cannot see.
                    (None, Some(start)) => (start, CycleCause::Idle),
                    (None, None) => return Err(ListenError::UnbalancedCg { core }),
                };
                let len = cycle.saturating_sub(enter);
                self.cg_cycles += len;
                self.breakdown.add_n(cause, len);
            }
            _ => {
                return Err(ListenError::UnknownPayload {
                    payload: payload.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Closes a dangling clock-gating region at `end_cycle`.
    pub fn finish(&mut self, end_cycle: u64) {
        if let Some((enter, cause)) = self.cg_enter_at.take() {
            let len = end_cycle.saturating_sub(enter);
            self.cg_cycles += len;
            self.breakdown.add_n(cause, len);
        }
    }

    /// Retired opcodes observed so far.
    pub fn retired(&self) -> u64 {
        self.alu_ops + self.fp_ops + self.l1_ops + self.l2_ops + self.nop_ops
    }
}

/// Listener for one memory bank (TCDM or L2).
#[derive(Debug, Clone, Default)]
pub struct BankListener {
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Same-cycle conflicts observed.
    pub conflicts: u64,
}

impl BankListener {
    /// Handles one `bank/trace` payload (`read`, `write`, `conflict`).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown payloads.
    pub fn on_trace(&mut self, payload: &str) -> Result<(), ListenError> {
        match payload {
            "read" => self.reads += 1,
            "write" => self.writes += 1,
            "conflict" => self.conflicts += 1,
            other => {
                return Err(ListenError::UnknownPayload {
                    payload: other.to_string(),
                });
            }
        }
        Ok(())
    }
}

/// Routing target of a component path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `cluster/pe<N>/insn`.
    CoreInsn(usize),
    /// `cluster/pe<N>/trace`.
    CoreTrace(usize),
    /// `cluster/l1/bank<N>/trace`.
    L1Bank(usize),
    /// `cluster/l2/bank<N>/trace`.
    L2Bank(usize),
    /// `cluster/event_unit`.
    EventUnit,
    /// `cluster/icache`.
    Icache,
    /// `cluster/dma`.
    Dma,
}

/// The aggregate listener hierarchy for one PULP cluster.
///
/// Exposes methods to query the status of the platform and its components
/// after a trace has been replayed, and converts back into [`SimStats`]
/// for energy accounting.
#[derive(Debug, Clone)]
pub struct PulpListeners {
    config: ClusterConfig,
    /// Per-core listeners.
    pub cores: Vec<CoreListener>,
    /// Per-TCDM-bank listeners.
    pub l1: Vec<BankListener>,
    /// Per-L2-bank listeners.
    pub l2: Vec<BankListener>,
    /// Barrier releases observed.
    pub barriers: u64,
    /// Forks observed.
    pub forks: u64,
    /// I-cache refills reported.
    pub refills: u64,
    /// DMA words moved.
    pub dma_words: u64,
    /// DMA busy cycles inferred from transfers.
    pub dma_busy: u64,
    active_cycles: u64,
    last_active_cycle: Option<u64>,
    max_cycle: u64,
    routes: HashMap<String, Route>,
}

impl PulpListeners {
    /// Builds the listener hierarchy for `config`, registering every
    /// component path.
    pub fn new(config: &ClusterConfig) -> Self {
        let mut routes = HashMap::new();
        for core in 0..config.num_cores {
            routes.insert(format!("cluster/pe{core}/insn"), Route::CoreInsn(core));
            routes.insert(format!("cluster/pe{core}/trace"), Route::CoreTrace(core));
        }
        for bank in 0..config.tcdm_banks {
            routes.insert(format!("cluster/l1/bank{bank}/trace"), Route::L1Bank(bank));
        }
        for bank in 0..config.l2_banks {
            routes.insert(format!("cluster/l2/bank{bank}/trace"), Route::L2Bank(bank));
        }
        routes.insert("cluster/event_unit".to_string(), Route::EventUnit);
        routes.insert("cluster/icache".to_string(), Route::Icache);
        routes.insert("cluster/dma".to_string(), Route::Dma);
        Self {
            cores: vec![CoreListener::default(); config.num_cores],
            l1: vec![BankListener::default(); config.tcdm_banks],
            l2: vec![BankListener::default(); config.l2_banks],
            barriers: 0,
            forks: 0,
            refills: 0,
            dma_words: 0,
            dma_busy: 0,
            active_cycles: 0,
            last_active_cycle: None,
            max_cycle: 0,
            routes,
            config: config.clone(),
        }
    }

    /// Declares that analysis is restricted to a window starting at
    /// `start`: clock-gating regions truncated by the boundary are clamped
    /// to it rather than rejected.
    pub fn set_window_start(&mut self, start: u64) {
        for c in &mut self.cores {
            c.window_start = Some(start);
        }
    }

    /// Dispatches one parsed event to its listener.
    ///
    /// Unknown paths are ignored (GVSOC traces interleave many components;
    /// the paper's analyser likewise filters for "the useful components").
    ///
    /// # Errors
    ///
    /// Returns an error when a known path carries a malformed payload.
    pub fn handle(&mut self, cycle: u64, path: &str, payload: &str) -> Result<(), ListenError> {
        self.max_cycle = self.max_cycle.max(cycle);
        let Some(&route) = self.routes.get(path) else {
            return Ok(());
        };
        match route {
            Route::CoreInsn(core) => {
                self.mark_active(cycle);
                self.cores[core].on_insn(payload, &self.config)?;
            }
            Route::CoreTrace(core) => {
                if payload.split_whitespace().next() == Some("stall") {
                    self.mark_active(cycle);
                }
                self.cores[core].on_trace(cycle, payload, core)?;
            }
            Route::L1Bank(bank) => self.l1[bank].on_trace(payload)?,
            Route::L2Bank(bank) => self.l2[bank].on_trace(payload)?,
            Route::EventUnit => match payload.split_whitespace().next() {
                Some("release") => self.barriers += 1,
                Some("fork") => self.forks += 1,
                Some("arrive") => {}
                _ => {
                    return Err(ListenError::UnknownPayload {
                        payload: payload.to_string(),
                    });
                }
            },
            Route::Icache => {
                let mut parts = payload.split_whitespace();
                match (parts.next(), parts.next()) {
                    (Some("refill"), Some(n)) => {
                        self.refills +=
                            n.parse::<u64>().map_err(|_| ListenError::UnknownPayload {
                                payload: payload.to_string(),
                            })?;
                    }
                    _ => {
                        return Err(ListenError::UnknownPayload {
                            payload: payload.to_string(),
                        });
                    }
                }
            }
            Route::Dma => {
                let mut parts = payload.split_whitespace();
                match (parts.next(), parts.next(), parts.next()) {
                    (Some("transfer"), Some("in" | "out"), Some(n)) => {
                        let words: u64 = n.parse().map_err(|_| ListenError::UnknownPayload {
                            payload: payload.to_string(),
                        })?;
                        self.dma_words += words;
                        self.dma_busy += pulp_sim::dma::DmaTransfer::inbound(words).busy_cycles();
                    }
                    _ => {
                        return Err(ListenError::UnknownPayload {
                            payload: payload.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn mark_active(&mut self, cycle: u64) {
        if self.last_active_cycle != Some(cycle) {
            self.last_active_cycle = Some(cycle);
            self.active_cycles += 1;
        }
    }

    /// Finalises listeners and reconstructs the run statistics.
    ///
    /// `team_size` is external metadata (the trace does not state how many
    /// cores the program was lowered for).
    pub fn into_stats(mut self, team_size: usize) -> SimStats {
        let cycles = self.max_cycle;
        for c in &mut self.cores {
            c.finish(cycles);
        }
        let mut stats = SimStats::new(
            self.config.num_cores,
            self.config.tcdm_banks,
            self.config.l2_banks,
        );
        stats.cycles = cycles;
        stats.team_size = team_size;
        for (i, c) in self.cores.iter().enumerate() {
            let s = &mut stats.cores[i];
            s.alu_ops = c.alu_ops;
            s.fp_ops = c.fp_ops;
            s.l1_ops = c.l1_ops;
            s.l2_ops = c.l2_ops;
            s.nop_ops = c.nop_ops;
            s.idle_cycles = c.idle_cycles;
            s.cg_cycles = c.cg_cycles;
            s.fetches = c.retired();
            s.breakdown = c.breakdown;
            // One cycle retires per observed opcode; the simulator counts
            // them the same way.
            s.breakdown.execute = c.retired();
        }
        for (i, b) in self.l1.iter().enumerate() {
            stats.l1_banks[i].reads = b.reads;
            stats.l1_banks[i].writes = b.writes;
            stats.l1_banks[i].conflicts = b.conflicts;
        }
        for (i, b) in self.l2.iter().enumerate() {
            stats.l2_banks[i].reads = b.reads;
            stats.l2_banks[i].writes = b.writes;
            stats.l2_banks[i].conflicts = b.conflicts;
        }
        stats.icache.fetches = stats.cores.iter().map(|c| c.fetches).sum();
        stats.icache.refills = self.refills;
        stats.dma.words_transferred = self.dma_words;
        stats.dma.busy_cycles = self.dma_busy;
        stats.barriers = self.barriers;
        stats.cluster_active_cycles = self.active_cycles;
        stats
    }
}

fn parse_hex(s: &str) -> Option<u32> {
    let hex = s.strip_prefix("0x")?;
    u32::from_str_radix(hex, 16).ok()
}

/// Decodes the optional cause token trailing `stall` / `cg_enter`.
fn parse_cause(token: Option<&str>, payload: &str) -> Result<CycleCause, ListenError> {
    match token {
        None => Ok(CycleCause::Idle),
        Some(tok) => CycleCause::from_token(tok).ok_or_else(|| ListenError::UnknownPayload {
            payload: payload.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ClusterConfig {
        ClusterConfig::default()
    }

    #[test]
    fn core_listener_classifies_opcodes() {
        let cfg = config();
        let mut c = CoreListener::default();
        c.on_insn("alu", &cfg).expect("alu");
        c.on_insn("mul", &cfg).expect("mul");
        c.on_insn("fmul", &cfg).expect("fmul");
        c.on_insn("lw 0x10000040", &cfg).expect("tcdm load");
        c.on_insn("sw 0x1c000000", &cfg).expect("l2 store");
        c.on_insn("nop", &cfg).expect("nop");
        assert_eq!(c.alu_ops, 2);
        assert_eq!(c.fp_ops, 1);
        assert_eq!(c.l1_ops, 1);
        assert_eq!(c.l2_ops, 1);
        assert_eq!(c.nop_ops, 1);
        assert_eq!(c.retired(), 6);
    }

    #[test]
    fn core_listener_rejects_garbage() {
        let cfg = config();
        let mut c = CoreListener::default();
        assert!(matches!(
            c.on_insn("frobnicate", &cfg),
            Err(ListenError::UnknownMnemonic { .. })
        ));
        assert!(matches!(
            c.on_insn("lw", &cfg),
            Err(ListenError::BadAddress { .. })
        ));
        assert!(matches!(
            c.on_insn("lw zzz", &cfg),
            Err(ListenError::BadAddress { .. })
        ));
    }

    #[test]
    fn cg_regions_accumulate() {
        let mut c = CoreListener::default();
        c.on_trace(10, "cg_enter", 0).expect("enter");
        c.on_trace(15, "cg_exit", 0).expect("exit");
        c.on_trace(20, "cg_enter", 0).expect("enter");
        c.on_trace(22, "cg_exit", 0).expect("exit");
        assert_eq!(c.cg_cycles, 5 + 2);
    }

    #[test]
    fn stall_and_cg_causes_accumulate_in_breakdown() {
        let mut c = CoreListener::default();
        c.on_trace(1, "stall tcdm_conflict", 0).expect("stall");
        c.on_trace(2, "stall fpu_contention", 0).expect("stall");
        c.on_trace(3, "cg_enter barrier", 0).expect("enter");
        c.on_trace(8, "cg_exit", 0).expect("exit");
        assert_eq!(c.breakdown.tcdm_conflict, 1);
        assert_eq!(c.breakdown.fpu_contention, 1);
        assert_eq!(c.breakdown.barrier, 5);
        assert_eq!(c.idle_cycles, 2);
        assert_eq!(c.cg_cycles, 5);
    }

    #[test]
    fn unknown_cause_token_is_rejected() {
        let mut c = CoreListener::default();
        assert!(matches!(
            c.on_trace(1, "stall daydreaming", 0),
            Err(ListenError::UnknownPayload { .. })
        ));
    }

    #[test]
    fn dangling_cg_region_closed_by_finish() {
        let mut c = CoreListener::default();
        c.on_trace(10, "cg_enter", 0).expect("enter");
        c.finish(100);
        assert_eq!(c.cg_cycles, 90);
    }

    #[test]
    fn unbalanced_cg_exit_is_an_error() {
        let mut c = CoreListener::default();
        assert!(matches!(
            c.on_trace(5, "cg_exit", 3),
            Err(ListenError::UnbalancedCg { core: 3 })
        ));
    }

    #[test]
    fn windowed_cg_exit_clamps_to_window_start() {
        let mut l = PulpListeners::new(&config());
        l.set_window_start(10);
        l.handle(25, "cluster/pe2/trace", "cg_exit")
            .expect("clamped exit");
        let stats = l.into_stats(3);
        assert_eq!(stats.cores[2].cg_cycles, 15);
    }

    #[test]
    fn routing_table_covers_all_components() {
        let l = PulpListeners::new(&config());
        let paths: Vec<&str> = l.routes.keys().map(String::as_str).collect();
        // 8 cores x 2 + 16 + 32 + event unit + icache + dma
        assert_eq!(paths.len(), 8 * 2 + 16 + 32 + 3);
        assert!(paths.contains(&"cluster/pe7/trace"));
        assert!(paths.contains(&"cluster/l1/bank15/trace"));
        assert!(paths.contains(&"cluster/l2/bank31/trace"));
    }

    #[test]
    fn unknown_paths_are_ignored() {
        let mut l = PulpListeners::new(&config());
        assert!(l.handle(1, "soc/uart", "whatever").is_ok());
    }

    #[test]
    fn active_cycles_count_distinct_cycles() {
        let mut l = PulpListeners::new(&config());
        l.handle(1, "cluster/pe0/insn", "alu").expect("insn");
        l.handle(1, "cluster/pe1/insn", "alu").expect("insn");
        l.handle(2, "cluster/pe0/trace", "stall").expect("stall");
        let stats = l.into_stats(2);
        assert_eq!(stats.cluster_active_cycles, 2);
    }

    #[test]
    fn into_stats_reconstructs_counters() {
        let mut l = PulpListeners::new(&config());
        l.handle(0, "cluster/pe0/insn", "alu").expect("insn");
        l.handle(1, "cluster/l1/bank3/trace", "write")
            .expect("bank");
        l.handle(1, "cluster/l1/bank3/trace", "conflict")
            .expect("bank");
        l.handle(2, "cluster/event_unit", "release").expect("eu");
        l.handle(3, "cluster/icache", "refill 4").expect("icache");
        let stats = l.into_stats(1);
        assert_eq!(stats.cores[0].alu_ops, 1);
        assert_eq!(stats.l1_banks[3].writes, 1);
        assert_eq!(stats.l1_banks[3].conflicts, 1);
        assert_eq!(stats.barriers, 1);
        assert_eq!(stats.icache.refills, 4);
        assert_eq!(stats.cycles, 3);
    }
}
