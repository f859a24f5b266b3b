//! Cycle-level cluster simulation.
//!
//! [`simulate`] runs a [`Program`] on the configured cluster and returns
//! [`SimStats`]. Every mechanism the paper identifies as relevant for the
//! energy/parallelism trade-off is modelled per cycle: TCDM bank conflicts,
//! shared-FPU arbitration, L2 latency, barrier sleep with clock gating,
//! OpenMP fork/join overhead and critical-section serialisation.

use crate::cause::CycleCause;
use crate::config::ClusterConfig;
use crate::decode::{Decoded, Op};
use crate::dma::{DmaEngine, DmaTransfer};
use crate::event_unit::EventUnit;
use crate::fpu::FpuPool;
use crate::icache::refills_for_static_insns;
use crate::isa::OpKind;
use crate::period::{
    self, AccessKind, Detector, Kept, Period, Recording, ReplayScratch, Runs, Snapshot, MAX_PERIOD,
};
use crate::program::{Program, SegOp, ValidateProgramError};
use crate::stats::SimStats;
use crate::tcdm::TcdmArbiter;
use crate::telemetry::{CauseRun, NoTelemetry, Telemetry};
use crate::trace::{NullSink, TraceEvent, TraceSink};
use std::fmt;

/// Default cycle budget before a run is declared hung.
pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;

/// Errors produced by [`simulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program failed structural validation.
    Validate(ValidateProgramError),
    /// The program requests more cores than the cluster has.
    TeamTooLarge {
        /// Cores requested by the program.
        requested: usize,
        /// Cores available in the cluster.
        available: usize,
    },
    /// A memory operation addressed neither TCDM nor L2.
    AddressOutOfRange {
        /// Issuing core.
        core: usize,
        /// Faulting byte address.
        addr: u32,
    },
    /// The run exceeded the cycle budget (likely deadlock).
    CycleLimit {
        /// The exhausted budget.
        budget: u64,
    },
    /// The finished run broke an accounting invariant of
    /// [`SimStats::check_consistency`]; the message names the core.
    Invariant(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Validate(e) => write!(f, "invalid program: {e}"),
            Self::TeamTooLarge {
                requested,
                available,
            } => {
                write!(
                    f,
                    "program needs {requested} cores but cluster has {available}"
                )
            }
            Self::AddressOutOfRange { core, addr } => {
                write!(f, "core {core}: address {addr:#010x} maps to no memory")
            }
            Self::CycleLimit { budget } => {
                write!(f, "cycle budget of {budget} exhausted (deadlock?)")
            }
            Self::Invariant(msg) => write!(f, "accounting invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Validate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateProgramError> for SimError {
    fn from(e: ValidateProgramError) -> Self {
        Self::Validate(e)
    }
}

/// Per-core scheduling state, kept as a bare tag.
///
/// The payloads the old enum carried (countdown, busy cause) live in the
/// parallel `left`/`cause` arrays of [`SimScratch`] — struct-of-arrays keeps
/// the hot loop's mode dispatch on a one-byte discriminant and lets the
/// horizon scan walk countdowns without destructuring.
///
/// Invariants: `Busy`/`Forking` imply `left[core] >= 1`; other modes ignore
/// `left`/`cause`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Ready,
    /// Finishing a multi-cycle operation; `left` cycles remain, attributed
    /// to `cause`.
    Busy,
    /// Master executing the fork runtime code for `left` more cycles
    /// (`cause` is `Runtime`).
    Forking,
    SleepBarrier,
    SleepFork,
    Finished,
}

/// Tuning knobs for a simulation run (see [`simulate_opts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Cycle budget before the run is declared hung.
    pub max_cycles: u64,
    /// Enables the fast-forward. The event horizon: when no core is
    /// `Ready`, the clock jumps to the next cycle at which any state
    /// transition is possible, attributing the skipped cycles in bulk. The
    /// periodic loop skip: when the cluster repeats one iteration of an
    /// innermost loop, as many more iterations as provably repeat it are
    /// applied in one step (see `crate::period`). Every architectural
    /// result — [`SimStats`] counters, trace-event stream, telemetry,
    /// downstream energy labels — is bit-identical either way; only the
    /// [`crate::stats::FastForwardStats`] diagnostics differ. Disable to
    /// run the single-step oracle (the differential tests do).
    pub fast_forward: bool,
    /// Adaptive horizon checks (on by default): the scan that computes the
    /// event horizon is skipped entirely while any core ended the previous
    /// stepped cycle `Ready` on a step other than `DmaWait` — such a core
    /// can issue, which pins the horizon to 1, so the scan provably cannot
    /// skip. The loop reads this one predicate from the core state each
    /// stepped cycle leaves. The set of scans that *skip* is identical to
    /// the always-scan strategy, so spans, skipped cycles and all
    /// architectural results are bit-identical; only `horizon_computations`
    /// shrinks (ALU-bound programs drop from one scan per cycle to ~one per
    /// run). Disable to scan every iteration — the re-arm coverage property
    /// tests use that as their reference.
    pub adaptive_scan: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            max_cycles: DEFAULT_MAX_CYCLES,
            fast_forward: true,
            adaptive_scan: true,
        }
    }
}

impl SimOptions {
    /// The single-step oracle configuration: fast-forward disabled,
    /// default cycle budget.
    pub fn oracle() -> Self {
        Self {
            fast_forward: false,
            ..Self::default()
        }
    }

    /// Replaces the cycle budget.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Toggles the adaptive horizon-scan gating (see
    /// [`SimOptions::adaptive_scan`]).
    #[must_use]
    pub fn with_adaptive_scan(mut self, adaptive_scan: bool) -> Self {
        self.adaptive_scan = adaptive_scan;
        self
    }
}

/// Reusable per-run working memory for [`simulate_opts`].
///
/// A labelling sweep runs the same kernel at up to 8 team sizes back to
/// back; handing the same scratch to each run reuses the decoded program
/// and the per-core state vectors (core modes, fork sequence numbers,
/// sleep intervals) instead of reallocating them. A scratch carries no
/// state between runs — it is fully reinitialised on entry — so reuse is
/// purely an allocation saving.
#[derive(Debug, Default)]
pub struct SimScratch {
    code: Decoded,
    // Struct-of-arrays core state: `modes` is the one-byte dispatch tag the
    // hot loop switches on; `left` and `cause` carry the countdown payload
    // for `Busy`/`Forking` cores so the horizon scan and bulk advance walk
    // flat integer arrays.
    modes: Vec<Mode>,
    left: Vec<u32>,
    cause: Vec<CycleCause>,
    forks_seen: Vec<u64>,
    sleepers: Sleepers,
    /// Precomputed per-core FPU index (`ClusterConfig::fpu_of` hoisted out
    /// of the issue path).
    fpu_of: Vec<usize>,
    /// The periodic loop skip: its snapshots, the iteration it records,
    /// and the periods it keeps.
    detector: Detector,
    recording: Recording,
    runs: Runs,
    kept: Kept,
    replay: ReplayScratch,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, program: &Program, config: &ClusterConfig) {
        let team = program.num_cores();
        self.code.decode(program, config);
        self.modes.clear();
        self.modes.resize(team, Mode::Ready);
        self.left.clear();
        self.left.resize(team, 0);
        self.cause.clear();
        self.cause.resize(team, CycleCause::Idle);
        self.forks_seen.clear();
        self.forks_seen.resize(team, 0);
        self.sleepers.gating = config.model_clock_gating;
        self.sleepers.open.clear();
        self.sleepers.open.resize(config.num_cores, false);
        self.sleepers.asleep_since.resize(config.num_cores, 0);
        self.sleepers
            .cause
            .resize(config.num_cores, CycleCause::Idle);
        self.fpu_of.clear();
        self.fpu_of.extend((0..team).map(|c| config.fpu_of(c)));
        period::reset(
            config.num_cores,
            &mut self.detector,
            &mut self.recording,
            &mut self.runs,
            &mut self.kept,
        );
    }
}

/// Sleeping cores, one slot per physical core.
///
/// With clock gating a sleeping core is in one open interval. Table I
/// charges a gated core a constant per cycle, so only the interval's
/// length matters: its cycles are charged in one step when it closes (fork
/// wake, barrier release, end of run). In the clock-gating ablation a
/// sleeping core actively waits, one `Stall` per cycle, and no interval
/// opens.
#[derive(Debug, Default)]
struct Sleepers {
    gating: bool,
    open: Vec<bool>,
    /// First cycle of the open interval.
    asleep_since: Vec<u64>,
    cause: Vec<CycleCause>,
}

impl Sleepers {
    /// Accounts `core` sleeping at `cycle` on `cause`: opens its interval,
    /// announced by `CgEnter`, unless one is open, or in the ablation
    /// stalls. The cause tags the whole interval: a sleeping core's reason
    /// cannot change until it wakes, which closes the interval.
    fn sleep<S: TraceSink, T: Telemetry>(
        &mut self,
        stats: &mut SimStats,
        sink: &mut S,
        telemetry: &mut T,
        cycle: u64,
        core: usize,
        cause: CycleCause,
    ) {
        if !self.gating {
            stall(stats, sink, telemetry, cycle, core, cause);
        } else if self.enter(core, cycle, cause) {
            sink.emit(cycle, TraceEvent::CgEnter { core, cause });
        }
    }

    /// Opens `core`'s interval at `cycle` unless one is open; returns
    /// whether it opened.
    fn enter(&mut self, core: usize, cycle: u64, cause: CycleCause) -> bool {
        let opens = !self.open[core];
        if opens {
            self.open[core] = true;
            self.asleep_since[core] = cycle;
            self.cause[core] = cause;
        }
        opens
    }

    /// Charges `core`'s interval, if open, up to `at` and closes it with a
    /// `CgExit` at `at`.
    fn exit<S: TraceSink, T: Telemetry>(
        &mut self,
        stats: &mut SimStats,
        sink: &mut S,
        telemetry: &mut T,
        core: usize,
        at: u64,
    ) {
        if self.open[core] {
            let (since, cause) = (self.asleep_since[core], self.cause[core]);
            stats.cores[core].cg_cycles += at - since;
            stats.cores[core].breakdown.add_n(cause, at - since);
            telemetry.advance_n(since, core, at - since, cause);
            self.open[core] = false;
            sink.emit(at, TraceEvent::CgExit { core });
        }
    }
}

/// The caller's trace sink, seen through the period recorder: while an
/// iteration is recorded (`on`), the events a sink that keeps them
/// receives are kept for replay too, and the memory path notes every bank
/// access.
struct Tap<'a, S> {
    sink: &'a mut S,
    on: bool,
    rec: &'a mut Recording,
}

impl<S: TraceSink> TraceSink for Tap<'_, S> {
    #[inline(always)]
    fn emit(&mut self, cycle: u64, event: TraceEvent) {
        if !self.sink.is_null() && self.on {
            self.rec.events.push((cycle, event));
        }
        self.sink.emit(cycle, event);
    }

    #[inline(always)]
    fn is_null(&self) -> bool {
        self.sink.is_null()
    }
}

impl<S> Tap<'_, S> {
    #[inline(always)]
    fn access(&mut self, cycle: u64, at: u32, addr: u32, kind: AccessKind) {
        if self.on {
            self.rec.access(cycle, at, addr, kind);
        }
    }
}

/// The caller's telemetry, seen through the period recorder: while an
/// iteration is recorded (`on`), each core's spans are kept as its runs.
struct Watch<'a, T> {
    telemetry: &'a mut T,
    on: bool,
    runs: &'a mut Runs,
}

impl<T: Telemetry> Telemetry for Watch<'_, T> {
    #[inline(always)]
    fn advance_n(&mut self, cycle: u64, core: usize, n: u64, cause: CycleCause) {
        if self.on {
            self.runs.charge(cycle, core, n, cause);
        }
        self.telemetry.advance_n(cycle, core, n, cause);
    }

    #[inline(always)]
    fn repeat(&mut self, core: usize, runs: &[CauseRun], times: u64) {
        self.telemetry.repeat(core, runs, times);
    }

    #[inline(always)]
    fn on_fork(&mut self, cycle: u64) {
        self.telemetry.on_fork(cycle);
    }

    #[inline(always)]
    fn on_barrier_release(&mut self, cycle: u64) {
        self.telemetry.on_barrier_release(cycle);
    }
}

/// Runs `program` on the cluster described by `config`, collecting stats.
///
/// Convenience wrapper over [`simulate_traced`] using a [`NullSink`] and the
/// default cycle budget.
///
/// # Errors
///
/// See [`simulate_traced`].
pub fn simulate(config: &ClusterConfig, program: &Program) -> Result<SimStats, SimError> {
    simulate_traced(config, program, DEFAULT_MAX_CYCLES, &mut NullSink)
}

/// Runs `program` on the cluster, streaming trace events into `sink`.
///
/// Convenience wrapper over [`simulate_opts`] with no telemetry and a
/// fresh [`SimScratch`].
///
/// # Errors
///
/// See [`simulate_opts`].
pub fn simulate_traced<S: TraceSink>(
    config: &ClusterConfig,
    program: &Program,
    max_cycles: u64,
    sink: &mut S,
) -> Result<SimStats, SimError> {
    simulate_opts(
        config,
        program,
        &SimOptions::default().with_max_cycles(max_cycles),
        sink,
        &mut NoTelemetry,
        &mut SimScratch::new(),
    )
}

/// Runs `program` on the cluster with explicit [`SimOptions`], trace and
/// telemetry observers, and a caller-provided [`SimScratch`].
///
/// This is the full-control entry point behind [`simulate`] and
/// [`simulate_traced`]. Cores `0..program.num_cores()` execute the program
/// streams; remaining cluster cores are clock-gated for the whole run
/// (their leakage and gating energy still counts, which is what makes
/// small team sizes pay for the silicon they do not use).
///
/// `telemetry` receives [`Telemetry::advance_n`] and [`Telemetry::repeat`]
/// calls that attribute every cycle of every cluster core to one exclusive
/// [`CycleCause`], plus fork and barrier-release region boundaries. Pass
/// [`NoTelemetry`] for the zero-cost path. `opts.fast_forward` selects
/// between the fast-forward (default; bulk-advances over quiescent spans
/// and repeated loop iterations) and the single-step oracle; both produce
/// bit-identical architectural results. `scratch` is reinitialised on entry and may be
/// reused across runs to avoid reallocating per-core state.
///
/// # Errors
///
/// Returns an error if the program is structurally invalid, requests more
/// cores than available, touches an unmapped address, or fails to finish
/// within `opts.max_cycles`.
pub fn simulate_opts<S: TraceSink, T: Telemetry>(
    config: &ClusterConfig,
    program: &Program,
    opts: &SimOptions,
    sink: &mut S,
    telemetry: &mut T,
    scratch: &mut SimScratch,
) -> Result<SimStats, SimError> {
    let max_cycles = opts.max_cycles;
    program.validate()?;
    let team = program.num_cores();
    if team > config.num_cores {
        return Err(SimError::TeamTooLarge {
            requested: team,
            available: config.num_cores,
        });
    }
    if team == 0 {
        let mut stats = SimStats::new(config.num_cores, config.tcdm_banks, config.l2_banks);
        stats.team_size = 0;
        return Ok(stats);
    }

    let mut stats = SimStats::new(config.num_cores, config.tcdm_banks, config.l2_banks);
    stats.team_size = team;

    scratch.prepare(program, config);
    let SimScratch {
        code,
        modes,
        left,
        cause,
        forks_seen,
        sleepers,
        fpu_of,
        detector,
        recording,
        runs,
        kept,
        replay,
    } = scratch;
    let sink = &mut Tap {
        sink,
        on: false,
        rec: recording,
    };
    let telemetry = &mut Watch {
        telemetry,
        on: false,
        runs,
    };

    let mut eu = EventUnit::new(team);
    let mut dma = DmaEngine::new();
    let mut arbiter = TcdmArbiter::new(config.tcdm_banks, config.model_bank_conflicts);
    // The cluster reaches L2 through a single port: one new access may be
    // issued per cycle (accesses are pipelined, so latency still overlaps
    // across cores).
    let mut l2_port = TcdmArbiter::new(1, true);
    let mut fpus = FpuPool::new(
        config.num_fpus,
        config.model_fpu_contention,
        config.fpu_latency,
        config.fp_div_latency,
    );

    // Total master-side cycles per fork: base plus per-worker signalling.
    let fork_cycles =
        config.fork_latency + config.fork_per_worker * (team.saturating_sub(1)) as u32;

    let mut cycle: u64 = 0;
    // Cores in `Mode::Finished`; they never leave it, so an O(1) counter
    // replaces the per-iteration all-finished scan.
    let mut finished = 0usize;
    // The adaptive-scan arm flag: `true` while no core is `Ready` on work it
    // can issue, i.e. while a horizon scan *could* find a skippable span.
    // Each stepped iteration recomputes it from the state it leaves (see
    // `SimOptions::adaptive_scan`); a bulk advance always leaves the woken
    // state worth scanning again.
    let mut scan_armed = true;
    loop {
        if finished == team {
            break;
        }
        if cycle >= max_cycles {
            return Err(SimError::CycleLimit { budget: max_cycles });
        }

        if opts.fast_forward && (scan_armed || !opts.adaptive_scan) {
            let h = event_horizon(code, modes, left, forks_seen, &eu, &dma, cycle, max_cycles);
            stats.fast_forward.horizon_computations += 1;
            if h > 1 {
                bulk_advance(
                    config, &mut stats, modes, left, cause, sleepers, &mut eu, sink, telemetry,
                    cycle, h,
                );
                cycle += h;
                // An iteration too long to record is dropped.
                if sink.on && cycle - sink.rec.start > MAX_PERIOD {
                    (sink.on, telemetry.on) = (false, false);
                }
                continue;
            }
        }

        let mut any_active = false;
        for core in 0..team {
            match modes[core] {
                Mode::SleepFork if eu.fork_ready(forks_seen[core]) => {
                    // Wake: this cycle is the dispatch cycle.
                    sleepers.exit(&mut stats, sink, telemetry, core, cycle);
                    forks_seen[core] += 1;
                    code.advance(core);
                    stall(
                        &mut stats,
                        sink,
                        telemetry,
                        cycle,
                        core,
                        CycleCause::Runtime,
                    );
                    any_active = true;
                    modes[core] = Mode::Ready;
                }
                Mode::Finished | Mode::SleepBarrier | Mode::SleepFork => {
                    sleepers.sleep(
                        &mut stats,
                        sink,
                        telemetry,
                        cycle,
                        core,
                        bulk_class(modes, cause, team, core).0,
                    );
                }
                Mode::Busy | Mode::Forking => {
                    stall(&mut stats, sink, telemetry, cycle, core, cause[core]);
                    any_active = true;
                    let l = left[core].saturating_sub(1);
                    left[core] = l;
                    if l == 0 {
                        if modes[core] == Mode::Forking {
                            eu.signal_fork();
                            telemetry.on_fork(cycle);
                            sink.emit(cycle, TraceEvent::Fork);
                            code.advance(core);
                        }
                        modes[core] = Mode::Ready;
                    }
                }
                Mode::Ready => {
                    let op = code.current(core);
                    if op == Op::Done {
                        modes[core] = Mode::Finished;
                        finished += 1;
                        sleepers.sleep(&mut stats, sink, telemetry, cycle, core, CycleCause::Idle);
                        continue;
                    }
                    any_active = true;
                    step_core(
                        config,
                        fork_cycles,
                        &mut stats,
                        code,
                        modes,
                        left,
                        cause,
                        forks_seen,
                        sleepers,
                        fpu_of,
                        &mut eu,
                        &mut dma,
                        &mut arbiter,
                        &mut l2_port,
                        &mut fpus,
                        sink,
                        telemetry,
                        cycle,
                        core,
                        op,
                    )?;
                }
            }
        }

        // Unused physical cores sleep for the whole run: with clock gating
        // their one interval opens at cycle 0 and closes at the end.
        if cycle == 0 || !config.model_clock_gating {
            for core in team..config.num_cores {
                sleepers.sleep(&mut stats, sink, telemetry, cycle, core, CycleCause::Idle);
            }
        }

        if eu.tick_release() {
            stats.barriers += 1;
            telemetry.on_barrier_release(cycle);
            sink.emit(cycle, TraceEvent::BarrierRelease);
            for (core, mode) in modes.iter_mut().enumerate() {
                if *mode == Mode::SleepBarrier {
                    sleepers.exit(&mut stats, sink, telemetry, core, cycle + 1);
                    code.advance(core);
                    *mode = Mode::Ready;
                }
            }
            eu.release_barrier();
        }

        if any_active || !config.model_clock_gating {
            stats.cluster_active_cycles += 1;
        }
        scan_armed = !(0..team).any(|c| modes[c] == Mode::Ready && !code.next_is_dma_wait(c));
        cycle += 1;
        if opts.fast_forward {
            if sink.on && cycle - sink.rec.start > MAX_PERIOD {
                (sink.on, telemetry.on) = (false, false);
            }
            let edges = code.take_edges();
            if edges != 0 {
                cycle = at_edge(
                    config, max_cycles, &mut stats, code, modes, left, cause, forks_seen, sleepers,
                    &eu, &dma, &mut fpus, detector, kept, replay, sink, telemetry, edges, cycle,
                );
            }
        }
    }

    // Charge and close the intervals still open: finished and unused cores.
    for core in 0..config.num_cores {
        sleepers.exit(&mut stats, sink, telemetry, core, cycle);
    }

    stats.cycles = cycle;
    stats.dma.words_transferred = dma.words_transferred();
    stats.dma.busy_cycles = dma.busy_cycles();
    stats.icache.fetches = stats.cores.iter().map(|c| c.fetches).sum();
    stats.icache.refills = (0..team)
        .map(|c| {
            let static_insns = program
                .stream(c)
                .iter()
                .filter(|s| matches!(s, SegOp::Instr { .. }))
                .count();
            refills_for_static_insns(static_insns as u64)
        })
        .sum();
    sink.emit(
        cycle,
        TraceEvent::IcacheRefill {
            count: stats.icache.refills,
        },
    );
    stats.check_consistency().map_err(SimError::Invariant)?;
    Ok(stats)
}

/// Accounts one active-wait cycle for `core`, attributed to `cause`.
#[inline(always)]
fn stall<S: TraceSink, T: Telemetry>(
    stats: &mut SimStats,
    sink: &mut S,
    telemetry: &mut T,
    cycle: u64,
    core: usize,
    cause: CycleCause,
) {
    stats.cores[core].idle_cycles += 1;
    stats.cores[core].breakdown.add(cause);
    telemetry.advance_n(cycle, core, 1, cause);
    sink.emit(cycle, TraceEvent::Stall { core, cause });
}

/// Number of cycles from `cycle` during which no core can change state: the
/// event-horizon the fast-forward may jump in one step.
///
/// A returned horizon `h` guarantees that for every cycle in
/// `[cycle, cycle + h)` the single-step loop would do nothing but count a
/// stall or sleep cycle per core — no retirement, no fork signal, no
/// barrier arrival or release, no DMA completion, no cursor movement. Any
/// cycle where something *can* happen is left to the single-step path, so
/// the horizon is 1 whenever:
///
/// - any core is `Ready` on real work (TCDM/FPU/L2 arbitration only
///   contends among ready cores, so a ready core pins the horizon), or
/// - a multi-cycle op, fork runtime, DMA wait or barrier-release countdown
///   expires on the very next cycle.
#[allow(clippy::too_many_arguments)]
fn event_horizon(
    code: &Decoded,
    modes: &[Mode],
    left: &[u32],
    forks_seen: &[u64],
    eu: &EventUnit,
    dma: &DmaEngine,
    cycle: u64,
    max_cycles: u64,
) -> u64 {
    // Never jump past the cycle budget: the limit check must still fire.
    let mut h = max_cycles - cycle;
    // The barrier-release firing cycle wakes sleepers; run it single-step.
    if let Some(k) = eu.release_in() {
        h = h.min(u64::from(k).max(1));
    }
    for (core, mode) in modes.iter().enumerate() {
        let quiet = match *mode {
            // A ready core issues this cycle — unless it is parked on a
            // blocking `DmaWait`, which provably spins until the engine
            // drains.
            Mode::Ready => {
                if code.next_is_dma_wait(core) {
                    dma.free_at().saturating_sub(cycle)
                } else {
                    0
                }
            }
            Mode::Busy => u64::from(left[core]),
            // The final fork-runtime cycle signals the fork; keep it
            // single-step.
            Mode::Forking => u64::from(left[core]) - 1,
            Mode::SleepFork => {
                if eu.fork_ready(forks_seen[core]) {
                    0
                } else {
                    u64::MAX
                }
            }
            // Woken only by events already bounded above (barrier release),
            // or never.
            Mode::SleepBarrier | Mode::Finished => u64::MAX,
        };
        if quiet < h {
            h = quiet;
        }
        if h <= 1 {
            return 1;
        }
    }
    h
}

/// The per-cycle accounting class of `core` during a quiescent span: the
/// [`CycleCause`] its cycles are attributed to and whether it is sleeping
/// (eligible for clock gating) or actively waiting.
///
/// Mirrors exactly what the single-step loop does for each mode when no
/// state transition occurs; `Mode::Ready` inside a span is only ever a core
/// spinning on `DmaWait` (guaranteed by [`event_horizon`]).
fn bulk_class(
    modes: &[Mode],
    cause: &[CycleCause],
    team: usize,
    core: usize,
) -> (CycleCause, bool) {
    if core >= team {
        return (CycleCause::Idle, true);
    }
    match modes[core] {
        Mode::Busy | Mode::Forking => (cause[core], false),
        Mode::Ready => (CycleCause::Dma, false),
        Mode::SleepBarrier => (CycleCause::Barrier, true),
        Mode::SleepFork => (CycleCause::ForkWait, true),
        Mode::Finished => (CycleCause::Idle, true),
    }
}

/// Advances the simulation by `n` quiescent cycles in one step.
///
/// Replays the trace events the single-step loop would have emitted (in the
/// same cycle-major, core-minor order), bulk-updates the per-core stats and
/// telemetry of the cores awake, opens the sleepers' [`Sleepers`] intervals
/// (which keep running through the span), decrements the countdown modes
/// and the pending barrier release, and books the span in
/// [`crate::stats::FastForwardStats`].
#[allow(clippy::too_many_arguments)]
fn bulk_advance<S: TraceSink, T: Telemetry>(
    config: &ClusterConfig,
    stats: &mut SimStats,
    modes: &mut [Mode],
    left: &mut [u32],
    cause: &mut [CycleCause],
    sleepers: &mut Sleepers,
    eu: &mut EventUnit,
    sink: &mut S,
    telemetry: &mut T,
    cycle: u64,
    n: u64,
) {
    let team = modes.len();

    // Trace replay must happen before any state mutation so `bulk_class`
    // and `sleepers` still describe the span's first cycle.
    if !sink.is_null() {
        // Gated sleepers emit only their `CgEnter` on the first span cycle;
        // if nobody stalls, one pass suffices.
        let stalls = (0..config.num_cores)
            .any(|core| !(bulk_class(modes, cause, team, core).1 && config.model_clock_gating));
        let cycles = if stalls { n } else { 1 };
        for i in 0..cycles {
            for (core, open) in sleepers.open.iter().enumerate() {
                let (cause, sleeping) = bulk_class(modes, cause, team, core);
                if sleeping && config.model_clock_gating {
                    if i == 0 && !open {
                        sink.emit(cycle, TraceEvent::CgEnter { core, cause });
                    }
                } else {
                    sink.emit(cycle + i, TraceEvent::Stall { core, cause });
                }
            }
        }
    }

    let mut any_active = false;
    for core in 0..config.num_cores {
        let (span_cause, sleeping) = bulk_class(modes, cause, team, core);
        if sleeping && config.model_clock_gating {
            sleepers.enter(core, cycle, span_cause);
            continue;
        }
        any_active |= !sleeping;
        stats.cores[core].idle_cycles += n;
        stats.cores[core].breakdown.add_n(span_cause, n);
        telemetry.advance_n(cycle, core, n, span_cause);
        if core < team {
            match modes[core] {
                Mode::Busy => {
                    // The horizon is the minimum over all countdowns, so a
                    // span can at most *exactly* consume a Busy countdown.
                    debug_assert!(
                        n <= u64::from(left[core]),
                        "bulk advance of {n} cycles overshoots core {core}'s Busy \
                         countdown of {} — event_horizon must never exceed the \
                         shortest countdown",
                        left[core]
                    );
                    let l = left[core].saturating_sub(n as u32);
                    left[core] = l;
                    if l == 0 {
                        modes[core] = Mode::Ready;
                    }
                }
                Mode::Forking => {
                    // Forking contributes `left - 1` to the horizon: the
                    // fork-signal cycle itself must run single-step, so a
                    // span always leaves at least one Forking cycle.
                    debug_assert!(
                        n < u64::from(left[core]),
                        "bulk advance of {n} cycles overshoots core {core}'s Forking \
                         countdown of {} — the fork-signal cycle must run single-step",
                        left[core]
                    );
                    left[core] = left[core].saturating_sub(n as u32).max(1);
                }
                _ => {}
            }
        }
    }
    eu.skip_release_wait(n);
    if any_active || !config.model_clock_gating {
        stats.cluster_active_cycles += n;
    }
    stats.fast_forward.spans += 1;
    stats.fast_forward.skipped_cycles += n;
}

/// The periodic loop skip, at a cycle boundary where the cores in `edges`
/// took an innermost loop's back-edge. Returns the cycle to go on from.
///
/// Only the anchor's back-edges count: the lowest-index core awake, which
/// stays the anchor as long as the cluster repeats itself. At each, the
/// cluster is snapshot (see `period::Detector`) and compared with the
/// last snapshot: a match starts recording the next iteration, and when
/// that one ends in a match too it is kept as a period. A snapshot whose
/// key is a kept period's replays that period as often as it provably
/// repeats (`Period::replay`), a period just kept at once.
#[allow(clippy::too_many_arguments)]
fn at_edge<S: TraceSink, T: Telemetry>(
    config: &ClusterConfig,
    max_cycles: u64,
    stats: &mut SimStats,
    code: &mut Decoded,
    modes: &[Mode],
    left: &[u32],
    cause: &[CycleCause],
    forks_seen: &[u64],
    sleepers: &Sleepers,
    eu: &EventUnit,
    dma: &DmaEngine,
    fpus: &mut FpuPool,
    detector: &mut Detector,
    kept: &mut Kept,
    replay: &mut ReplayScratch,
    sink: &mut Tap<'_, S>,
    telemetry: &mut Watch<'_, T>,
    edges: u64,
    mut cycle: u64,
) -> u64 {
    let awake = |m: &Mode| !matches!(m, Mode::SleepBarrier | Mode::SleepFork | Mode::Finished);
    let Some(anchor) = modes.iter().position(awake) else {
        return cycle;
    };
    if edges & 1u64.checked_shl(anchor as u32).unwrap_or(0) == 0 {
        return cycle;
    }
    // A replay moves no event counter.
    let barriers = stats.barriers;
    let snap = |out: &mut Snapshot, cycle: u64, code: &Decoded, fpus: &FpuPool| {
        snapshot(
            out, cycle, anchor, code, modes, left, cause, forks_seen, sleepers, eu, dma, fpus,
            barriers,
        );
    };
    snap(&mut detector.cur, cycle, code, fpus);
    let recording = sink.on;
    (sink.on, telemetry.on) = (false, false);
    let matched = detector.period().is_some();
    if matched && recording && Period::recorded(detector, sink.rec, telemetry.runs) {
        kept.keep(detector, sink.rec, telemetry.runs, stats);
    }
    let times = kept.find(&detector.cur).map_or(0, |period| {
        let budget = (max_cycles - cycle) / period.cycles;
        let times = period.replay(config, stats, code, replay, budget);
        if times > 0 {
            for core in 0..stats.cores.len() {
                let runs = period.runs_at(core, cycle, replay);
                if !runs.is_empty() {
                    telemetry.telemetry.repeat(core, runs, times);
                }
            }
            if !sink.is_null() {
                period.replay_events(sink.sink, config, replay, cycle, times);
            }
            fpus.skip(times * period.cycles);
            stats.fast_forward.periods += 1;
            stats.fast_forward.skipped_cycles += times * period.cycles;
            cycle += times * period.cycles;
        }
        times
    });
    if times > 0 {
        snap(&mut detector.cur, cycle, code, fpus);
    } else if matched {
        sink.rec.begin(cycle, stats, code.counters().2);
        telemetry.runs.begin(cycle);
        (sink.on, telemetry.on) = (true, true);
    }
    detector.armed = true;
    std::mem::swap(&mut detector.prev, &mut detector.cur);
    cycle
}

/// Writes into `out` the cluster state at `cycle`. The key is what one
/// period must reproduce, relative to the clock: every core's mode,
/// countdown, fork readiness, sleep and place in its stream, the event
/// unit's barrier, lock and release state, and how long the DMA engine
/// and the FPUs stay busy. The marks are the counters of what no period
/// may contain: forks, sleeps, barrier releases and DMA transfers. Loop
/// counters go apart, as they move on.
#[allow(clippy::too_many_arguments)]
fn snapshot(
    out: &mut Snapshot,
    cycle: u64,
    anchor: usize,
    code: &Decoded,
    modes: &[Mode],
    left: &[u32],
    cause: &[CycleCause],
    forks_seen: &[u64],
    sleepers: &Sleepers,
    eu: &EventUnit,
    dma: &DmaEngine,
    fpus: &FpuPool,
    barriers: u64,
) {
    out.cycle = cycle;
    out.anchor = anchor;
    let [arrived, forks, lock, release] = eu.period_key();
    let (key, marks) = (&mut out.key, &mut out.marks);
    key.clear();
    marks.clear();
    for (core, &mode) in modes.iter().enumerate() {
        // Only a counting mode reads its countdown and cause, and only an
        // open interval its start and cause.
        let counting = matches!(mode, Mode::Busy | Mode::Forking);
        let asleep = sleepers.open[core];
        key.push(
            mode as u64
                | u64::from(forks > forks_seen[core]) << 3
                | u64::from(asleep) << 4
                | if counting {
                    (cause[core] as u64) << 8 | u64::from(left[core]) << 32
                } else {
                    0
                },
        );
        marks.extend([
            forks_seen[core],
            if asleep {
                sleepers.asleep_since[core] << 4 | sleepers.cause[core] as u64
            } else {
                0
            },
        ]);
    }
    code.position_key(key);
    key.extend([arrived, lock, release, dma.free_at().saturating_sub(cycle)]);
    key.extend(fpus.busy_for(cycle));
    marks.extend([forks, barriers, dma.words_transferred(), dma.busy_cycles()]);
    let (ivs, entries, _) = code.counters();
    out.ivs.clear();
    out.ivs.extend_from_slice(ivs);
    out.entries.clear();
    out.entries.extend_from_slice(entries);
}

/// Executes `core`'s current op, `op`, in one `Ready`-mode cycle.
#[allow(clippy::too_many_arguments)]
fn step_core<S: TraceSink, T: Telemetry>(
    config: &ClusterConfig,
    fork_cycles: u32,
    stats: &mut SimStats,
    code: &mut Decoded,
    modes: &mut [Mode],
    left: &mut [u32],
    cause: &mut [CycleCause],
    forks_seen: &mut [u64],
    sleepers: &mut Sleepers,
    fpu_of: &[usize],
    eu: &mut EventUnit,
    dma: &mut DmaEngine,
    arbiter: &mut TcdmArbiter,
    l2_port: &mut TcdmArbiter,
    fpus: &mut FpuPool,
    sink: &mut Tap<'_, S>,
    telemetry: &mut T,
    cycle: u64,
    core: usize,
    op: Op,
) -> Result<(), SimError> {
    // Consumes the op and books any multi-cycle tail as `Busy` time on
    // `tail_cause`. An executing core is never clock-gated; the sleep
    // paths manage the gating intervals.
    let mut finish = |code: &mut Decoded, latency: u32, tail_cause| {
        code.advance(core);
        if latency > 1 {
            modes[core] = Mode::Busy;
            left[core] = latency - 1;
            cause[core] = tail_cause;
        }
    };
    match op {
        Op::Int { kind, latency } => {
            stats.cores[core].alu_ops += 1;
            retire(stats, sink, telemetry, cycle, core, kind, None);
            finish(code, latency, CycleCause::ExecTail);
        }
        Op::Nop => {
            stats.cores[core].nop_ops += 1;
            retire(stats, sink, telemetry, cycle, core, OpKind::Nop, None);
            code.advance(core);
        }
        Op::Fp(f) => match fpus.try_issue(fpu_of[core], f, cycle) {
            Some(issue) => {
                stats.cores[core].fp_ops += 1;
                retire(stats, sink, telemetry, cycle, core, OpKind::Fp(f), None);
                finish(code, issue.core_busy, CycleCause::ExecTail);
            }
            // Arbitration retry next cycle.
            None => stall(
                stats,
                sink,
                telemetry,
                cycle,
                core,
                CycleCause::FpuContention,
            ),
        },
        Op::Mem { store, at } => {
            let addr = code.addr(at);
            let kind = if store { OpKind::Store } else { OpKind::Load };
            if config.is_tcdm(addr) {
                let bank = config.tcdm_bank_of(addr);
                if arbiter.try_access(bank, cycle) {
                    stats.cores[core].l1_ops += 1;
                    let access = if store {
                        stats.l1_banks[bank].writes += 1;
                        AccessKind::L1Write
                    } else {
                        stats.l1_banks[bank].reads += 1;
                        AccessKind::L1Read
                    };
                    sink.access(cycle, at, addr, access);
                    sink.emit(cycle, TraceEvent::L1Access { bank, write: store });
                    retire(stats, sink, telemetry, cycle, core, kind, Some(addr));
                    code.advance(core);
                } else {
                    stats.l1_banks[bank].conflicts += 1;
                    sink.access(cycle, at, addr, AccessKind::L1Conflict);
                    sink.emit(cycle, TraceEvent::L1Conflict { bank });
                    // Arbitration retry next cycle.
                    stall(
                        stats,
                        sink,
                        telemetry,
                        cycle,
                        core,
                        CycleCause::TcdmConflict,
                    );
                }
            } else if config.is_l2(addr) {
                if !l2_port.try_access(0, cycle) {
                    // Port retry next cycle.
                    stall(stats, sink, telemetry, cycle, core, CycleCause::L2Wait);
                    return Ok(());
                }
                let bank = config.l2_bank_of(addr);
                stats.cores[core].l2_ops += 1;
                let access = if store {
                    stats.l2_banks[bank].writes += 1;
                    AccessKind::L2Write
                } else {
                    stats.l2_banks[bank].reads += 1;
                    AccessKind::L2Read
                };
                sink.access(cycle, at, addr, access);
                sink.emit(cycle, TraceEvent::L2Access { bank, write: store });
                retire(stats, sink, telemetry, cycle, core, kind, Some(addr));
                finish(code, config.l2_latency, CycleCause::L2Wait);
            } else {
                return Err(SimError::AddressOutOfRange { core, addr });
            }
        }
        Op::Barrier => {
            sink.emit(cycle, TraceEvent::BarrierArrive { core });
            stall(stats, sink, telemetry, cycle, core, CycleCause::Barrier);
            modes[core] = Mode::SleepBarrier;
            if eu.arrive(core) {
                eu.schedule_release(config.barrier_latency);
            }
        }
        Op::Fork => {
            stall(stats, sink, telemetry, cycle, core, CycleCause::Runtime);
            if fork_cycles <= 1 {
                eu.signal_fork();
                telemetry.on_fork(cycle);
                sink.emit(cycle, TraceEvent::Fork);
                code.advance(core);
            } else {
                modes[core] = Mode::Forking;
                left[core] = fork_cycles - 1;
                cause[core] = CycleCause::Runtime;
            }
        }
        Op::WaitFork => {
            if eu.fork_ready(forks_seen[core]) {
                forks_seen[core] += 1;
                code.advance(core);
                stall(stats, sink, telemetry, cycle, core, CycleCause::Runtime);
            } else {
                modes[core] = Mode::SleepFork;
                // This cycle already counts as sleeping.
                sleepers.sleep(stats, sink, telemetry, cycle, core, CycleCause::ForkWait);
            }
        }
        Op::CriticalBegin => {
            if eu.try_lock(core) {
                retire(stats, sink, telemetry, cycle, core, OpKind::Alu, None);
                stats.cores[core].alu_ops += 1;
                code.advance(core);
            } else {
                // Lock spin: retries next cycle.
                stall(stats, sink, telemetry, cycle, core, CycleCause::Runtime);
            }
        }
        Op::CriticalEnd => {
            eu.unlock(core);
            retire(stats, sink, telemetry, cycle, core, OpKind::Alu, None);
            stats.cores[core].alu_ops += 1;
            code.advance(core);
        }
        Op::Dma { words, inbound } => {
            // Blocking transfer: the issuing core programs the engine and
            // actively waits for completion.
            let busy = dma.schedule(cycle, DmaTransfer { words, inbound }) as u32;
            sink.emit(cycle, TraceEvent::Dma { words, inbound });
            stall(stats, sink, telemetry, cycle, core, CycleCause::Dma);
            finish(code, busy, CycleCause::Dma);
        }
        Op::DmaAsync { words, inbound } => {
            if dma.busy_at(cycle) {
                // Engine still streaming a previous transfer: retry.
                stall(stats, sink, telemetry, cycle, core, CycleCause::Dma);
            } else {
                dma.schedule(cycle, DmaTransfer { words, inbound });
                sink.emit(cycle, TraceEvent::Dma { words, inbound });
                // One cycle to program the engine; the core then continues.
                stall(stats, sink, telemetry, cycle, core, CycleCause::Dma);
                code.advance(core);
            }
        }
        Op::DmaWait => {
            stall(stats, sink, telemetry, cycle, core, CycleCause::Dma);
            // While the engine drains, the core rests on `DmaWait`, which
            // does not pin the horizon.
            if !dma.busy_at(cycle) {
                code.advance(core);
            }
        }
        // The main loop retires finished cores, and decoding folds the
        // loop markers.
        Op::Done | Op::LoopBegin { .. } | Op::LoopEnd { .. } => {
            unreachable!("step_core on {op:?}")
        }
    }
    Ok(())
}

/// Records the fetch + trace event shared by every retirement path.
#[inline(always)]
fn retire<S: TraceSink, T: Telemetry>(
    stats: &mut SimStats,
    sink: &mut S,
    telemetry: &mut T,
    cycle: u64,
    core: usize,
    kind: OpKind,
    addr: Option<u32>,
) {
    stats.cores[core].fetches += 1;
    stats.cores[core].breakdown.add(CycleCause::Execute);
    telemetry.advance_n(cycle, core, 1, CycleCause::Execute);
    sink.emit(cycle, TraceEvent::Insn { core, kind, addr });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{L2_BASE, TCDM_BASE};
    use crate::program::AddrExpr;

    fn instr(kind: OpKind) -> SegOp {
        SegOp::Instr { kind, addr: None }
    }

    fn load(addr: u32) -> SegOp {
        SegOp::Instr {
            kind: OpKind::Load,
            addr: Some(AddrExpr::constant(addr)),
        }
    }

    fn store(addr: u32) -> SegOp {
        SegOp::Instr {
            kind: OpKind::Store,
            addr: Some(AddrExpr::constant(addr)),
        }
    }

    fn cfg() -> ClusterConfig {
        ClusterConfig::default()
    }

    #[test]
    fn single_alu_program() {
        let p = Program::new(vec![vec![instr(OpKind::Alu)]]);
        let s = simulate(&cfg(), &p).expect("simulate");
        assert_eq!(s.cores[0].alu_ops, 1);
        assert_eq!(s.cycles, 2); // 1 execute + 1 finish/park cycle
        assert!(s.check_consistency().is_ok());
        // The 7 unused cores are clock-gated throughout.
        assert_eq!(s.cores[7].cg_cycles, s.cycles);
    }

    #[test]
    fn empty_team_is_a_noop() {
        let p = Program::new(vec![]);
        let s = simulate(&cfg(), &p).expect("simulate");
        assert_eq!(s.cycles, 0);
        assert_eq!(s.team_size, 0);
    }

    #[test]
    fn tcdm_load_is_single_cycle() {
        let p = Program::new(vec![vec![load(TCDM_BASE), load(TCDM_BASE + 4)]]);
        let s = simulate(&cfg(), &p).expect("simulate");
        assert_eq!(s.cores[0].l1_ops, 2);
        assert_eq!(s.l1_reads(), 2);
        assert_eq!(s.l1_conflicts(), 0);
        assert_eq!(s.cycles, 3);
    }

    #[test]
    fn l2_load_pays_latency() {
        let p = Program::new(vec![vec![load(L2_BASE)]]);
        let s = simulate(&cfg(), &p).expect("simulate");
        assert_eq!(s.cores[0].l2_ops, 1);
        // 1 retire + 14 wait + 1 park.
        assert_eq!(s.cycles, 1 + 14 + 1);
        assert_eq!(s.cores[0].idle_cycles, 14);
    }

    #[test]
    fn out_of_range_address_errors() {
        let p = Program::new(vec![vec![load(0xDEAD_0000)]]);
        assert!(matches!(
            simulate(&cfg(), &p),
            Err(SimError::AddressOutOfRange { core: 0, .. })
        ));
    }

    #[test]
    fn bank_conflicts_serialise_accesses() {
        // Two cores hammer the same bank with stores.
        let body = vec![store(TCDM_BASE)];
        let p = Program::new(vec![body.clone(), body]);
        let s = simulate(&cfg(), &p).expect("simulate");
        assert_eq!(s.l1_writes(), 2);
        assert_eq!(s.l1_conflicts(), 1);
        // One core lost one arbitration round.
        let idle: u64 = s.cores.iter().map(|c| c.idle_cycles).sum();
        assert_eq!(idle, 1);
    }

    #[test]
    fn no_conflicts_on_disjoint_banks() {
        let p = Program::new(vec![vec![store(TCDM_BASE)], vec![store(TCDM_BASE + 4)]]);
        let s = simulate(&cfg(), &p).expect("simulate");
        assert_eq!(s.l1_conflicts(), 0);
    }

    #[test]
    fn conflict_model_ablation_removes_conflicts() {
        let body = vec![store(TCDM_BASE)];
        let p = Program::new(vec![body.clone(), body]);
        let s = simulate(&cfg().without_bank_conflicts(), &p).expect("simulate");
        assert_eq!(s.l1_conflicts(), 0);
    }

    #[test]
    fn fpu_contention_stalls_partner_core() {
        // Cores 0 and 4 share FPU 0.
        let body = vec![instr(OpKind::Fp(crate::isa::FpOp::Mul))];
        let p = Program::new(vec![body.clone(), vec![], vec![], vec![], body]);
        let s = simulate(&cfg(), &p).expect("simulate");
        assert_eq!(s.cores[0].fp_ops + s.cores[4].fp_ops, 2);
        let stalls = s.cores[0].idle_cycles + s.cores[4].idle_cycles;
        assert_eq!(stalls, 1, "one of the pair must lose arbitration once");
    }

    #[test]
    fn fpu_ablation_removes_stalls() {
        let body = vec![instr(OpKind::Fp(crate::isa::FpOp::Mul))];
        let p = Program::new(vec![body.clone(), vec![], vec![], vec![], body]);
        let s = simulate(&cfg().without_fpu_contention(), &p).expect("simulate");
        let stalls = s.cores[0].idle_cycles + s.cores[4].idle_cycles;
        assert_eq!(stalls, 0);
    }

    #[test]
    fn barrier_synchronises_team() {
        // Core 0 does 10 ALU ops before the barrier, core 1 none.
        let p = Program::new(vec![
            std::iter::repeat_with(|| instr(OpKind::Alu))
                .take(10)
                .chain([SegOp::Barrier])
                .collect(),
            vec![SegOp::Barrier],
        ]);
        let s = simulate(&cfg(), &p).expect("simulate");
        assert_eq!(s.barriers, 1);
        // Core 1 slept while core 0 computed.
        assert!(
            s.cores[1].cg_cycles >= 9,
            "core 1 cg: {}",
            s.cores[1].cg_cycles
        );
        assert!(s.check_consistency().is_ok());
    }

    #[test]
    fn fork_wakes_workers() {
        let p = Program::new(vec![
            vec![
                instr(OpKind::Alu),
                SegOp::Fork,
                instr(OpKind::Alu),
                SegOp::Barrier,
            ],
            vec![SegOp::WaitFork, instr(OpKind::Alu), SegOp::Barrier],
        ]);
        let s = simulate(&cfg(), &p).expect("simulate");
        assert_eq!(s.cores[1].alu_ops, 1);
        // Worker slept during master's pre-fork work and fork latency.
        assert!(s.cores[1].cg_cycles >= u64::from(cfg().fork_latency) - 1);
        assert!(s.check_consistency().is_ok());
    }

    #[test]
    fn critical_section_serialises() {
        let body = vec![
            SegOp::CriticalBegin,
            instr(OpKind::Alu),
            instr(OpKind::Alu),
            SegOp::CriticalEnd,
        ];
        let p = Program::new(vec![body.clone(), body]);
        let s = simulate(&cfg(), &p).expect("simulate");
        // The second core spins while the first holds the lock.
        let spin: u64 = s.cores.iter().map(|c| c.idle_cycles).sum();
        assert!(spin >= 3, "expected lock spinning, got {spin} idle cycles");
        assert!(s.check_consistency().is_ok());
    }

    #[test]
    fn team_too_large_is_rejected() {
        let p = Program::new(vec![vec![]; 9]);
        assert!(matches!(
            simulate(&cfg(), &p),
            Err(SimError::TeamTooLarge {
                requested: 9,
                available: 8
            })
        ));
    }

    #[test]
    fn cycle_limit_detects_runaway() {
        let p = Program::new(vec![vec![
            SegOp::LoopBegin { trip: 1_000_000 },
            instr(OpKind::Alu),
            SegOp::LoopEnd,
        ]]);
        assert!(matches!(
            simulate_traced(&cfg(), &p, 100, &mut NullSink),
            Err(SimError::CycleLimit { budget: 100 })
        ));
    }

    #[test]
    fn clock_gating_ablation_turns_sleep_into_active_wait() {
        let p = Program::new(vec![
            std::iter::repeat_with(|| instr(OpKind::Alu))
                .take(10)
                .chain([SegOp::Barrier])
                .collect(),
            vec![SegOp::Barrier],
        ]);
        let s = simulate(&cfg().without_clock_gating(), &p).expect("simulate");
        assert_eq!(s.cores[1].cg_cycles, 0);
        assert!(s.cores[1].idle_cycles >= 9);
    }

    #[test]
    fn parallel_speedup_on_independent_work() {
        // 256 ALU ops split over 1 vs 4 cores.
        let chunk = |n: usize| -> Vec<SegOp> {
            vec![
                SegOp::LoopBegin { trip: n as u64 },
                instr(OpKind::Alu),
                SegOp::LoopEnd,
            ]
        };
        let p1 = Program::new(vec![chunk(256)]);
        let p4 = Program::new(vec![chunk(64), chunk(64), chunk(64), chunk(64)]);
        let s1 = simulate(&cfg(), &p1).expect("simulate");
        let s4 = simulate(&cfg(), &p4).expect("simulate");
        assert!(
            s4.cycles * 3 < s1.cycles,
            "expected near-4x speedup: {} vs {}",
            s1.cycles,
            s4.cycles
        );
    }

    #[test]
    fn trace_and_stats_agree_on_op_counts() {
        use crate::trace::VecSink;
        let p = Program::new(vec![vec![
            instr(OpKind::Alu),
            load(TCDM_BASE),
            store(TCDM_BASE + 64),
            SegOp::Barrier,
        ]]);
        let mut sink = VecSink::new();
        let s = simulate_traced(&cfg(), &p, 1_000, &mut sink).expect("simulate");
        let insns = sink
            .events
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::Insn { .. }))
            .count() as u64;
        assert_eq!(insns, s.total_retired());
    }

    /// A program with a long quiescent span: core 0 programs a large
    /// blocking DMA transfer (busy for thousands of cycles) while core 1
    /// sleeps at the barrier.
    fn dma_barrier_program() -> Program {
        Program::new(vec![
            vec![
                SegOp::Dma {
                    words: 4096,
                    inbound: true,
                },
                SegOp::Barrier,
            ],
            vec![SegOp::Barrier],
        ])
    }

    fn run_opts(p: &Program, opts: &SimOptions) -> SimStats {
        simulate_opts(
            &cfg(),
            p,
            opts,
            &mut NullSink,
            &mut NoTelemetry,
            &mut SimScratch::new(),
        )
        .expect("simulate")
    }

    #[test]
    fn fast_forward_skips_quiescent_spans() {
        let s = run_opts(&dma_barrier_program(), &SimOptions::default());
        assert!(s.fast_forward.spans > 0, "no bulk spans taken: {s:?}");
        assert!(
            s.skip_ratio() > 0.5,
            "expected most cycles skipped, got {} of {}",
            s.fast_forward.skipped_cycles,
            s.cycles
        );
    }

    #[test]
    fn horizon_accounting_counts_scans_and_skips() {
        let p = dma_barrier_program();
        let s = run_opts(&p, &SimOptions::default());
        // Every scan that skips books exactly one span.
        assert!(s.fast_forward.spans > 0);
        assert!(s.fast_forward.spans <= s.fast_forward.horizon_computations);
        // The oracle runs no scans at all.
        let oracle = run_opts(&p, &SimOptions::oracle());
        assert_eq!(oracle.fast_forward.horizon_computations, 0);
    }

    #[test]
    fn oracle_mode_never_skips_and_matches() {
        let p = dma_barrier_program();
        let ff = run_opts(&p, &SimOptions::default());
        let oracle = run_opts(&p, &SimOptions::oracle());
        assert_eq!(
            oracle.fast_forward,
            crate::stats::FastForwardStats::default()
        );
        assert_eq!(ff.without_fast_forward(), oracle);
    }

    #[test]
    fn fast_forward_trace_is_identical_to_oracle() {
        use crate::trace::VecSink;
        // Exercise fork/join, loops, multi-cycle ops, barriers and DMA so
        // the bulk replay covers every emitting mode.
        let worker = |n: u64| {
            vec![
                SegOp::WaitFork,
                SegOp::LoopBegin { trip: n },
                instr(OpKind::Mul),
                SegOp::LoopEnd,
                SegOp::Barrier,
            ]
        };
        let p = Program::new(vec![
            vec![
                SegOp::Fork,
                SegOp::Dma {
                    words: 512,
                    inbound: true,
                },
                instr(OpKind::Div),
                SegOp::Barrier,
            ],
            worker(7),
            worker(3),
            worker(11),
        ]);
        let run = |opts: &SimOptions| {
            let mut sink = VecSink::new();
            let stats = simulate_opts(
                &cfg(),
                &p,
                opts,
                &mut sink,
                &mut NoTelemetry,
                &mut SimScratch::new(),
            )
            .expect("simulate");
            (stats, sink.events)
        };
        let (ff, ff_events) = run(&SimOptions::default());
        let (oracle, oracle_events) = run(&SimOptions::oracle());
        assert!(ff.fast_forward.spans > 0, "program produced no spans");
        assert_eq!(ff.without_fast_forward(), oracle);
        assert_eq!(ff_events, oracle_events);
    }

    #[test]
    fn fast_forward_counters_ignore_the_sink() {
        use crate::trace::VecSink;
        // The horizon depends only on simulation state, so a traced run
        // must fast-forward exactly like an untraced one.
        let p = dma_barrier_program();
        let untraced = run_opts(&p, &SimOptions::default());
        let mut sink = VecSink::new();
        let traced = simulate_opts(
            &cfg(),
            &p,
            &SimOptions::default(),
            &mut sink,
            &mut NoTelemetry,
            &mut SimScratch::new(),
        )
        .expect("simulate");
        assert_eq!(traced, untraced);
    }

    #[test]
    fn scratch_reuse_across_team_sizes_is_clean() {
        let mut scratch = SimScratch::new();
        let chunk = |n: u64| {
            vec![
                SegOp::LoopBegin { trip: n },
                instr(OpKind::Alu),
                SegOp::LoopEnd,
                SegOp::Barrier,
            ]
        };
        for team in [8usize, 1, 4, 2] {
            let p = Program::new((0..team).map(|_| chunk(16)).collect());
            let reused = simulate_opts(
                &cfg(),
                &p,
                &SimOptions::default(),
                &mut NullSink,
                &mut NoTelemetry,
                &mut scratch,
            )
            .expect("simulate");
            let fresh = simulate(&cfg(), &p).expect("simulate");
            assert_eq!(reused, fresh, "team {team}: scratch reuse leaked state");
        }
    }

    /// Drives `bulk_advance` directly with a crafted state. Returns the
    /// (mode, left) of core 0 afterwards.
    fn bulk_advance_busy_core(left0: u32, n: u64) -> (Mode, u32) {
        let config = cfg();
        let mut stats = SimStats::new(config.num_cores, config.tcdm_banks, config.l2_banks);
        let mut modes = vec![Mode::Busy];
        let mut left = vec![left0];
        let mut cause = vec![CycleCause::Dma];
        let mut sleepers = Sleepers {
            gating: config.model_clock_gating,
            open: vec![false; config.num_cores],
            asleep_since: vec![0; config.num_cores],
            cause: vec![CycleCause::Idle; config.num_cores],
        };
        let mut eu = EventUnit::new(1);
        bulk_advance(
            &config,
            &mut stats,
            &mut modes,
            &mut left,
            &mut cause,
            &mut sleepers,
            &mut eu,
            &mut NullSink,
            &mut NoTelemetry,
            0,
            n,
        );
        (modes[0], left[0])
    }

    #[test]
    fn bulk_advance_exact_boundary_releases_the_countdown() {
        // A span may consume a Busy countdown exactly; the core re-arms.
        assert_eq!(bulk_advance_busy_core(5, 5), (Mode::Ready, 0));
        assert_eq!(bulk_advance_busy_core(5, 4), (Mode::Busy, 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overshoots")]
    fn bulk_advance_overshoot_panics_in_debug() {
        // Regression: this used to underflow-panic deep in the subtraction
        // under overflow-checks (and silently wrap in release). Now the
        // invariant is named by a debug_assert and the release arithmetic
        // saturates.
        bulk_advance_busy_core(5, 10);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn bulk_advance_overshoot_saturates_in_release() {
        assert_eq!(bulk_advance_busy_core(5, 10), (Mode::Ready, 0));
    }

    #[test]
    fn bulk_countdowns_hit_exact_boundaries_and_match_oracle() {
        // Countdowns engineered to expire at the span boundary: the horizon
        // equals core 1's Div tail while core 0 drains a blocking DMA, so
        // the bulk advance lands exactly on a `left == n` edge. Both modes
        // must agree bit-for-bit (the overshoot bug's oracle-side net).
        let p = Program::new(vec![
            vec![
                SegOp::Dma {
                    words: 4096,
                    inbound: true,
                },
                SegOp::Barrier,
            ],
            vec![
                instr(OpKind::Div),
                instr(OpKind::Div),
                instr(OpKind::Mul),
                SegOp::Barrier,
            ],
        ]);
        let ff = run_opts(&p, &SimOptions::default());
        let oracle = run_opts(&p, &SimOptions::oracle());
        assert!(ff.fast_forward.spans > 0, "program produced no spans");
        assert_eq!(ff.without_fast_forward(), oracle);
    }

    #[test]
    fn adaptive_scan_matches_always_scan_exactly() {
        // The adaptive re-arm rule must select a superset of the scans that
        // skip, so spans, skipped cycles and every architectural result are
        // bit-identical to scanning on every iteration.
        let worker = |n: u64| {
            vec![
                SegOp::WaitFork,
                SegOp::LoopBegin { trip: n },
                instr(OpKind::Mul),
                SegOp::LoopEnd,
                SegOp::Barrier,
            ]
        };
        let programs = [
            dma_barrier_program(),
            Program::new(vec![
                vec![
                    SegOp::Fork,
                    SegOp::DmaAsync {
                        words: 512,
                        inbound: true,
                    },
                    SegOp::DmaWait,
                    instr(OpKind::Div),
                    SegOp::Barrier,
                ],
                worker(7),
                worker(3),
            ]),
        ];
        for p in &programs {
            let adaptive = run_opts(p, &SimOptions::default());
            let always = run_opts(p, &SimOptions::default().with_adaptive_scan(false));
            assert_eq!(adaptive.fast_forward.spans, always.fast_forward.spans);
            assert_eq!(
                adaptive.fast_forward.skipped_cycles,
                always.fast_forward.skipped_cycles
            );
            assert!(
                adaptive.fast_forward.horizon_computations
                    <= always.fast_forward.horizon_computations
            );
            assert_eq!(
                adaptive.without_fast_forward(),
                always.without_fast_forward()
            );
        }
    }

    #[test]
    fn adaptive_scan_pays_no_overhead_on_alu_programs() {
        // A straight compute stream never opens a quiescent span; the
        // adaptive gate should collapse the scan count to the initial
        // arm while the always-scan reference pays one per cycle. (A loop
        // would be skipped by the period skip, which steps few cycles.)
        let p = Program::new(vec![vec![instr(OpKind::Alu); 256]]);
        let adaptive = run_opts(&p, &SimOptions::default());
        let always = run_opts(&p, &SimOptions::default().with_adaptive_scan(false));
        assert_eq!(
            adaptive.without_fast_forward(),
            always.without_fast_forward()
        );
        assert_eq!(adaptive.fast_forward.spans, always.fast_forward.spans);
        assert!(
            adaptive.fast_forward.horizon_computations <= 2,
            "ALU program should scan at most on entry and park, got {}",
            adaptive.fast_forward.horizon_computations
        );
        assert!(always.fast_forward.horizon_computations >= adaptive.cycles / 2);
    }

    #[test]
    fn cycle_limit_is_identical_with_fast_forward() {
        // A run that outlives its budget mid-span must exhaust it
        // identically in both modes: the fast-forward never jumps past the
        // limit check.
        let p = dma_barrier_program();
        let opts = SimOptions::default().with_max_cycles(1_000);
        let ff = simulate_opts(
            &cfg(),
            &p,
            &opts,
            &mut NullSink,
            &mut NoTelemetry,
            &mut SimScratch::new(),
        );
        let oracle = simulate_opts(
            &cfg(),
            &p,
            &SimOptions {
                fast_forward: false,
                ..opts
            },
            &mut NullSink,
            &mut NoTelemetry,
            &mut SimScratch::new(),
        );
        assert!(matches!(ff, Err(SimError::CycleLimit { budget: 1_000 })));
        assert_eq!(ff, oracle);
    }
}
