//! Periodic loop fast-forward: when the cluster repeats one iteration of an
//! innermost loop, k more iterations are applied in one exact step.
//!
//! The event-horizon fast-forward skips only quiescent spans, and a compute
//! loop is never quiescent. But most loop iterations cost the same every
//! time: the same ops issue in the same cycles, and only the loop counters
//! and the addresses they drive move on. This module holds the parts of
//! skipping such iterations, all kept in [`crate::SimScratch`]:
//!
//! - [`Detector`]: a [`Snapshot`] of the cluster state at every innermost
//!   back-edge of the *anchor*, the lowest-index core that is awake. The
//!   snapshot's `key` is the state relative to the clock (modes,
//!   countdowns, positions, FPU occupancy...), its `marks` the event
//!   counters (forks, barriers, DMA words, sleep starts), and the loop
//!   counters go apart. Two consecutive snapshots with equal keys and
//!   marks mark one iteration, `P` cycles long, as a period.
//! - [`Recording`] and [`Runs`]: what the next iteration does, recorded
//!   while it runs: the stats at its start, every bank access with its
//!   cycle, op and address, the trace events when the sink keeps them,
//!   and each core's cause runs as telemetry receives them.
//! - [`Period`]: a recording that ended in the same state it started
//!   from, kept relative to its start. It replays from any later state
//!   with the same key, so a loop entered again (the next row of a matrix,
//!   say) skips from its first matching back-edge.
//!
//! A replay of `k` periods is exact because nothing in a period depends on
//! absolute values except what `k` is bounded by: loop exits (a counter
//! reaching its trip), address windows (an address leaving TCDM or L2),
//! the cycle budget, and the bank pattern of the accesses issued in one
//! cycle. The last is what arbitration sees: two same-cycle TCDM accesses
//! either share a bank or not, and that equality decides every grant. Each
//! access's bank moves by `step / 4 mod banks` per period, so
//! [`same_bank_horizon`] solves for the first period at which a pair's
//! equality differs from the recording, and [`add_rotating`] charges the
//! banks the `k` repetitions hit in closed form.

use crate::cause::CycleCause;
use crate::config::{ClusterConfig, L2_BASE, TCDM_BASE};
use crate::decode::Decoded;
use crate::stats::{BankStats, CoreStats, SimStats};
use crate::telemetry::CauseRun;
use crate::trace::{TraceEvent, TraceSink};

/// Longest period the recorder follows, in cycles. A longer one is
/// dropped, which bounds the recording buffers: per core, one run and one
/// access per cycle at most.
pub(crate) const MAX_PERIOD: u64 = 1 << 6;

/// Periods kept at once, each replayable when its key comes back.
const KEPT: usize = 8;

/// The cluster state at one anchor back-edge.
#[derive(Debug, Default)]
pub(crate) struct Snapshot {
    pub(crate) cycle: u64,
    pub(crate) anchor: usize,
    /// The state relative to the clock: what the next cycles do depends
    /// on it and on the loop counters and addresses alone.
    pub(crate) key: Vec<u64>,
    /// Counters of events no period may contain.
    pub(crate) marks: Vec<u64>,
    /// Every loop slot's counter, and how many loops were entered at it.
    pub(crate) ivs: Vec<u64>,
    pub(crate) entries: Vec<u64>,
}

/// How a loop slot moves over one period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotMove {
    /// Its loop neither back-edged nor was entered.
    Still,
    /// The loop live throughout ran this many more iterations, none its
    /// last.
    Steps(u64),
    /// A loop was entered at it inside the period; the period starts and
    /// ends with the counter at the same value.
    Reentered,
}

/// Snapshots of the last two anchor back-edges, and how the loop slots
/// moved between them.
#[derive(Debug, Default)]
pub(crate) struct Detector {
    /// `prev` holds the snapshot of the last back-edge.
    pub(crate) armed: bool,
    pub(crate) prev: Snapshot,
    pub(crate) cur: Snapshot,
    pub(crate) moves: Vec<SlotMove>,
}

impl Detector {
    /// Compares `cur` with `prev`: `Some(P)` when `cur` is `prev` one
    /// period of `P` cycles later, with `moves` filled in.
    ///
    /// A slot whose entry count moved was re-entered inside the period, so
    /// its counter must be back where it was; one whose count did not move
    /// held the same loop throughout, which ran `ivs` more iterations and
    /// none was its last (an exit needs a re-entry to get back).
    pub(crate) fn period(&mut self) -> Option<u64> {
        let (prev, cur) = (&self.prev, &self.cur);
        if !self.armed
            || prev.anchor != cur.anchor
            || prev.key != cur.key
            || prev.marks != cur.marks
        {
            return None;
        }
        self.moves.clear();
        for i in 0..cur.ivs.len() {
            let same_loop = prev.entries[i] == cur.entries[i];
            let moved = match (same_loop, cur.ivs[i].checked_sub(prev.ivs[i])) {
                (true, Some(0)) => SlotMove::Still,
                (true, Some(n)) => SlotMove::Steps(n),
                (false, Some(0)) => SlotMove::Reentered,
                _ => return None,
            };
            self.moves.push(moved);
        }
        Some(cur.cycle - prev.cycle)
    }
}

/// One bank access of a recorded period.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    /// Cycle, from the period's start.
    pub(crate) cycle: u32,
    /// The memory op's address slot (`Op::Mem::at`).
    pub(crate) at: u32,
    pub(crate) addr: u32,
    pub(crate) kind: AccessKind,
}

/// What an [`Access`] did at its bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    L1Read,
    L1Write,
    L1Conflict,
    L2Read,
    L2Write,
}

impl AccessKind {
    fn is_l1(self) -> bool {
        matches!(self, Self::L1Read | Self::L1Write | Self::L1Conflict)
    }

    /// The bank counter this access charges.
    fn counter(self) -> fn(&mut BankStats) -> &mut u64 {
        match self {
            Self::L1Read | Self::L2Read => |b| &mut b.reads,
            Self::L1Write | Self::L2Write => |b| &mut b.writes,
            Self::L1Conflict => |b| &mut b.conflicts,
        }
    }
}

/// The stats, accesses and trace events of the iteration being
/// recorded; the trace sink's side of the recorder.
#[derive(Debug, Default)]
pub(crate) struct Recording {
    pub(crate) start: u64,
    /// The cores' counters, the cluster's active cycles and every memory
    /// op's address at `start`.
    cores: Vec<CoreStats>,
    active_cycles: u64,
    addrs: Vec<i64>,
    accesses: Vec<Access>,
    pub(crate) events: Vec<(u64, TraceEvent)>,
}

impl Recording {
    /// Starts recording at `cycle`.
    pub(crate) fn begin(&mut self, cycle: u64, stats: &SimStats, addrs: &[i64]) {
        self.start = cycle;
        self.cores.clone_from(&stats.cores);
        self.active_cycles = stats.cluster_active_cycles;
        self.addrs.clear();
        self.addrs.extend_from_slice(addrs);
        self.accesses.clear();
        self.events.clear();
    }

    /// Records one bank access at `cycle`.
    #[inline]
    pub(crate) fn access(&mut self, cycle: u64, at: u32, addr: u32, kind: AccessKind) {
        self.accesses.push(Access {
            cycle: (cycle - self.start) as u32,
            at,
            addr,
            kind,
        });
    }
}

/// Each core's cause runs in the iteration being recorded, as telemetry
/// receives them; the telemetry side of the recorder.
#[derive(Debug, Default)]
pub(crate) struct Runs {
    start: u64,
    /// Every span so far continued its core's runs without a gap.
    tiled: bool,
    per_core: Vec<Vec<CauseRun>>,
}

impl Runs {
    /// Starts recording at `cycle`.
    pub(crate) fn begin(&mut self, cycle: u64) {
        self.start = cycle;
        self.tiled = true;
        self.per_core.iter_mut().for_each(Vec::clear);
    }

    /// Adds `core`'s span of `n` cycles from `cycle` on `cause`. A span
    /// that does not continue the core's runs (a sleep interval charged
    /// when it closes) is something no period can repeat.
    #[inline]
    pub(crate) fn charge(&mut self, cycle: u64, core: usize, n: u64, cause: CycleCause) {
        let runs = &mut self.per_core[core];
        let fresh = CauseRun {
            cause,
            start: cycle,
            end: cycle + n,
        };
        match runs.last_mut() {
            Some(run) if run.end == cycle && run.cause == cause => run.end += n,
            Some(run) if run.end == cycle => runs.push(fresh),
            None if cycle == self.start => runs.push(fresh),
            _ => self.tiled = false,
        }
    }
}

/// A recorded period, relative to its start, that replays from any state
/// with its `key` (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Period {
    ready: bool,
    anchor: usize,
    pub(crate) cycles: u64,
    key: Vec<u64>,
    /// The loop counters at the start, and how each slot moves.
    ivs: Vec<u64>,
    moves: Vec<SlotMove>,
    /// Every memory op's address at the start.
    addrs: Vec<i64>,
    /// What each core's counters and the cluster's active cycles gain.
    gains: Vec<CoreStats>,
    active_cycles: u64,
    /// Each core's cause runs and the accesses and trace events, with
    /// cycles from the start.
    runs: Vec<Vec<CauseRun>>,
    accesses: Vec<Access>,
    events: Vec<(u64, TraceEvent)>,
}

/// The scratch of [`Period::replay`].
#[derive(Debug, Default)]
pub(crate) struct ReplayScratch {
    /// Per memory op, bytes its address moves per period, and how far it
    /// is from where the period was recorded.
    steps: Vec<i64>,
    shift: Vec<i64>,
    runs: Vec<CauseRun>,
}

/// The periods kept, each replaced in turn once all are taken.
#[derive(Debug, Default)]
pub(crate) struct Kept {
    periods: Vec<Period>,
    next: usize,
}

impl Kept {
    /// The kept period that replays from `snapshot`, if any.
    pub(crate) fn find(&self, snapshot: &Snapshot) -> Option<&Period> {
        self.periods.iter().find(|p| p.replays_from(snapshot))
    }

    /// Keeps the iteration just recorded, which ran from the detector's
    /// `prev` snapshot to its `cur` one, as a period, in place of the one
    /// with its key if any.
    pub(crate) fn keep(
        &mut self,
        detector: &Detector,
        rec: &Recording,
        runs: &Runs,
        stats: &SimStats,
    ) {
        let i = match self
            .periods
            .iter()
            .position(|p| p.replays_from(&detector.prev))
        {
            Some(i) => i,
            None => {
                self.next = (self.next + 1) % KEPT;
                self.next
            }
        };
        self.periods[i].keep(detector, rec, runs, stats);
    }
}

/// Forgets the last snapshot, the recording and the periods kept, for a
/// run on `cores` cores.
///
/// The recording grows cycle by cycle, by as much as the program's
/// iterations hold, so it gets room for the longest period up front
/// (about 20 KiB at 8 cores): what a warm run allocates then does not
/// depend on the program's loops. Every other buffer keeps its capacity
/// and grows on first use; a kept period is copied out of the recording,
/// so a scratch that has run a program keeps and replays its periods
/// again without allocating.
pub(crate) fn reset(
    cores: usize,
    detector: &mut Detector,
    rec: &mut Recording,
    runs: &mut Runs,
    kept: &mut Kept,
) {
    let longest = MAX_PERIOD as usize + 2;
    detector.armed = false;
    rec.accesses.clear();
    rec.accesses.reserve(cores * longest);
    runs.per_core.resize_with(cores, Vec::new);
    for core in &mut runs.per_core {
        core.clear();
        core.reserve(longest);
    }
    kept.periods.resize_with(KEPT, Period::default);
    kept.next = 0;
    for period in &mut kept.periods {
        period.ready = false;
    }
}

impl Period {
    /// Whether this period is kept and replays from `snapshot`.
    fn replays_from(&self, snapshot: &Snapshot) -> bool {
        self.ready && self.anchor == snapshot.anchor && self.key == snapshot.key
    }

    /// Whether the iteration just recorded is one whole period: the
    /// recording started at the detector's `prev`, nothing but its own
    /// runs was charged, and every core that ran in it ran through all of
    /// it.
    pub(crate) fn recorded(detector: &Detector, rec: &Recording, runs: &Runs) -> bool {
        let (start, end) = (detector.prev.cycle, detector.cur.cycle);
        rec.start == start
            && runs.start == start
            && runs.tiled
            && end - start <= MAX_PERIOD
            && runs
                .per_core
                .iter()
                .all(|r| r.last().is_none_or(|last| last.end == end))
    }

    fn keep(&mut self, detector: &Detector, rec: &Recording, runs: &Runs, stats: &SimStats) {
        let start = rec.start;
        self.ready = true;
        self.anchor = detector.prev.anchor;
        self.cycles = detector.cur.cycle - start;
        self.key.clone_from(&detector.prev.key);
        self.ivs.clone_from(&detector.prev.ivs);
        self.moves.clone_from(&detector.moves);
        self.addrs.clone_from(&rec.addrs);
        self.gains.clone_from(&rec.cores);
        for (gain, now) in self.gains.iter_mut().zip(&stats.cores) {
            gain.gain_to(now);
        }
        self.active_cycles = stats.cluster_active_cycles - rec.active_cycles;
        self.runs.resize_with(runs.per_core.len(), Vec::new);
        for (mine, recorded) in self.runs.iter_mut().zip(&runs.per_core) {
            mine.clone_from(recorded);
        }
        for run in self.runs.iter_mut().flatten() {
            run.start -= start;
            run.end -= start;
        }
        self.accesses.clone_from(&rec.accesses);
        self.events.clone_from(&rec.events);
        for (cycle, _) in &mut self.events {
            *cycle -= start;
        }
    }

    /// Replays this period up to `times` times from the current state,
    /// whose key is the period's: as many repetitions as provably repeat
    /// it, which it returns. Each moves the per-core and cluster counters
    /// by the period's gains, charges each access to the bank its moved
    /// address hits, and moves the loop counters and addresses on.
    /// `times` must keep the clock within the cycle budget.
    ///
    /// The repetitions stop one short of any loop exit, keep every access
    /// in its memory window and every same-cycle pair of TCDM accesses in
    /// or out of one bank as recorded, and need every loop re-entered
    /// inside the period to start from the recorded counter. The caller
    /// replays the runs and events ([`Period::runs_at`],
    /// [`Period::replay_events`]) and moves the FPU stamps.
    pub(crate) fn replay(
        &self,
        config: &ClusterConfig,
        stats: &mut SimStats,
        code: &mut Decoded,
        scratch: &mut ReplayScratch,
        mut times: u64,
    ) -> u64 {
        let ReplayScratch { steps, shift, .. } = scratch;
        let (ivs, _, addrs) = code.counters();
        shift.clear();
        shift.extend(addrs.iter().zip(&self.addrs).map(|(now, then)| now - then));
        steps.clear();
        steps.resize(addrs.len(), 0);
        for (slot, &moved) in self.moves.iter().enumerate() {
            match moved {
                SlotMove::Steps(n) => {
                    times = times.min((code.iterations_left(slot) - 1) / n);
                    code.address_steps(slot, n as i64, steps);
                }
                SlotMove::Reentered if ivs[slot] != self.ivs[slot] => return 0,
                _ => {}
            }
        }
        times = bound_by_accesses(&self.accesses, steps, shift, config, times);
        if times == 0 {
            return 0;
        }
        for (core, gain) in stats.cores.iter_mut().zip(&self.gains) {
            core.add_times(gain, times);
        }
        stats.cluster_active_cycles += times * self.active_cycles;
        for a in &self.accesses {
            let banks = if a.kind.is_l1() {
                &mut stats.l1_banks
            } else {
                &mut stats.l2_banks
            };
            let addr = i64::from(a.addr) + shift[a.at as usize];
            let step = steps[a.at as usize] / 4;
            add_rotating(banks, (addr >> 2) as u64, step, times, a.kind.counter());
        }
        for (slot, &moved) in self.moves.iter().enumerate() {
            if let SlotMove::Steps(n) = moved {
                code.skip_iterations(slot, n * times);
            }
        }
        code.move_addresses(steps, times);
        times
    }

    /// `core`'s runs of the first repetition from `cycle`, in `scratch`.
    pub(crate) fn runs_at<'s>(
        &self,
        core: usize,
        cycle: u64,
        scratch: &'s mut ReplayScratch,
    ) -> &'s [CauseRun] {
        scratch.runs.clear();
        scratch
            .runs
            .extend(self.runs[core].iter().map(|r| CauseRun {
                cause: r.cause,
                start: r.start + cycle,
                end: r.end + cycle,
            }));
        &scratch.runs
    }

    /// Emits the period's trace events `times` times from `cycle`, each
    /// repetition a period after the last, with every access's address
    /// moved on by its step and its bank recomputed. Each bank event
    /// belongs to the next access, in order, and the `Insn` of a granted
    /// access follows its bank event. Reads the steps and shifts of the
    /// [`Period::replay`] before it.
    pub(crate) fn replay_events(
        &self,
        sink: &mut impl TraceSink,
        config: &ClusterConfig,
        scratch: &ReplayScratch,
        cycle: u64,
        times: u64,
    ) {
        for i in 0..times {
            let base = cycle + i * self.cycles;
            let mut accesses = self.accesses.iter();
            let mut next_addr = || {
                let a = accesses.next().expect("one recorded access per bank event");
                let at = a.at as usize;
                (i64::from(a.addr) + scratch.shift[at] + i as i64 * scratch.steps[at]) as u32
            };
            let mut addr = 0;
            for &(offset, event) in &self.events {
                let event = match event {
                    TraceEvent::L1Access { write, .. } => {
                        addr = next_addr();
                        TraceEvent::L1Access {
                            bank: config.tcdm_bank_of(addr),
                            write,
                        }
                    }
                    TraceEvent::L1Conflict { .. } => {
                        addr = next_addr();
                        TraceEvent::L1Conflict {
                            bank: config.tcdm_bank_of(addr),
                        }
                    }
                    TraceEvent::L2Access { write, .. } => {
                        addr = next_addr();
                        TraceEvent::L2Access {
                            bank: config.l2_bank_of(addr),
                            write,
                        }
                    }
                    TraceEvent::Insn {
                        core,
                        kind,
                        addr: Some(_),
                    } => TraceEvent::Insn {
                        core,
                        kind,
                        addr: Some(addr),
                    },
                    other => other,
                };
                sink.emit(base + offset, event);
            }
        }
    }
}

/// The most repetitions, up to `k`, that repeat the recorded `accesses`
/// exactly, given the bytes each op's address is from where it was
/// recorded (`shift`) and moves per repetition (`steps`): every address
/// stays in its memory window, and every two TCDM accesses of one cycle
/// keep sharing a bank, or keep not sharing one, as recorded. An access
/// whose step is not a whole number of words has no closed-form bank
/// sequence, and allows none.
pub(crate) fn bound_by_accesses(
    accesses: &[Access],
    steps: &[i64],
    shift: &[i64],
    config: &ClusterConfig,
    mut k: u64,
) -> u64 {
    let now = |a: &Access| i64::from(a.addr) + shift[a.at as usize];
    for a in accesses {
        let (addr, step) = (now(a), steps[a.at as usize]);
        if step % 4 != 0 {
            return 0;
        }
        let (lo, hi) = if a.kind.is_l1() {
            (TCDM_BASE, TCDM_BASE + config.tcdm_bytes)
        } else {
            (L2_BASE, L2_BASE + config.l2_bytes)
        };
        let (lo, hi) = (i64::from(lo), i64::from(hi));
        if !(lo..hi).contains(&addr) {
            return 0;
        }
        // Repetitions `0..k` must all stay inside.
        let room = if step >= 0 { hi - 1 - addr } else { addr - lo };
        if step != 0 {
            k = k.min(room as u64 / step.unsigned_abs() + 1);
        }
    }
    if config.model_bank_conflicts {
        let banks = config.tcdm_banks as i64;
        let mut rest = accesses;
        while let Some(first) = rest.first() {
            let n = rest.iter().take_while(|a| a.cycle == first.cycle).count();
            let (cycle, later) = rest.split_at(n);
            let l1 = || cycle.iter().filter(|a| a.kind.is_l1());
            for (i, a) in l1().enumerate() {
                for b in l1().skip(i + 1) {
                    let recorded = (i64::from(a.addr >> 2) - i64::from(b.addr >> 2)) % banks == 0;
                    let gap = (now(a) >> 2) - (now(b) >> 2);
                    let drift = (steps[a.at as usize] - steps[b.at as usize]) / 4;
                    k = k.min(same_bank_horizon(gap, drift, banks, recorded));
                }
            }
            rest = later;
        }
    }
    k
}

/// How many repetitions `i = 0, 1, ...` two same-cycle accesses, `gap +
/// i · drift` words apart over `banks` banks, keep sharing a bank
/// (`same`) or keep not sharing one (`u64::MAX`: for ever). A pair in one
/// bank stays there only while the gap does not move; a pair in two banks
/// stays apart until the first `i` with `gap + i · drift ≡ 0 (mod
/// banks)`.
pub(crate) fn same_bank_horizon(gap: i64, drift: i64, banks: i64, same: bool) -> u64 {
    let (gap, drift) = (gap.rem_euclid(banks), drift.rem_euclid(banks));
    match (same, gap == 0, drift == 0) {
        (true, false, _) | (false, true, _) => 0,
        (_, _, true) => u64::MAX,
        (true, true, false) => 1,
        // The residues repeat after `banks` steps, so a collision, if any,
        // comes within them.
        (false, false, false) => (1..=banks)
            .find(|i| (gap + i * drift) % banks == 0)
            .map_or(u64::MAX, |i| i as u64),
    }
}

/// Charges `times` repetitions of an access to word `word` whose word
/// moves by `step` per repetition: repetition `i` hits bank `(word + i ·
/// step) mod banks`. The banks cycle through an orbit of `banks /
/// gcd(step, banks)`, so each bank of the orbit takes `times / orbit`
/// repetitions and the first `times % orbit` one more.
pub(crate) fn add_rotating(
    banks: &mut [BankStats],
    word: u64,
    step: i64,
    times: u64,
    counter: fn(&mut BankStats) -> &mut u64,
) {
    let n = banks.len() as u64;
    let step = step.rem_euclid(n as i64) as u64;
    let orbit = n / gcd(step, n);
    let (each, extra) = (times / orbit, times % orbit);
    let mut bank = word % n;
    for i in 0..orbit.min(times) {
        *counter(&mut banks[bank as usize]) += each + u64::from(i < extra);
        bank += step;
        if bank >= n {
            bank -= n;
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The banks `times` repetitions hit, one by one.
    fn stepped(banks: usize, word: u64, step: i64, times: u64) -> Vec<BankStats> {
        let mut out = vec![BankStats::default(); banks];
        for i in 0..times as i64 {
            let w = (word as i64 + i * step).rem_euclid(banks as i64);
            out[w as usize].reads += 1;
        }
        out
    }

    #[test]
    fn rotating_banks_match_repetition_by_repetition() {
        for banks in [16usize, 32, 12] {
            for step in -40i64..40 {
                for times in [0u64, 1, 3, 7, 15, 16, 17, 100] {
                    for word in [0u64, 5, 1023] {
                        let mut closed = vec![BankStats::default(); banks];
                        add_rotating(&mut closed, word, step, times, |b| &mut b.reads);
                        assert_eq!(
                            closed,
                            stepped(banks, word, step, times),
                            "banks {banks} word {word} step {step} times {times}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn same_bank_horizon_counts_the_repetitions_that_keep_the_pattern() {
        for banks in [16i64, 12] {
            for gap in -20i64..20 {
                for drift in -20i64..20 {
                    for same in [false, true] {
                        let keeps = |i: i64| ((gap + i * drift).rem_euclid(banks) == 0) == same;
                        let want = (0..=4 * banks)
                            .find(|&i| !keeps(i))
                            .map_or(u64::MAX, |i| i as u64);
                        assert_eq!(
                            same_bank_horizon(gap, drift, banks, same),
                            want,
                            "gap {gap} drift {drift} banks {banks} same {same}"
                        );
                    }
                }
            }
        }
    }
}
