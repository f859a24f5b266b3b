//! Telemetry hook points for the simulator's hot loop.
//!
//! [`Telemetry`] receives one attribution callback per core per span of
//! cycles (with its [`CycleCause`]), one per core per periodic loop skip,
//! plus region boundaries (fork signals and barrier releases). Every hook
//! defaults to an `#[inline(always)]` method that does nothing but call
//! the attribution hook, and [`NoTelemetry`] overrides none, so its calls
//! compile to nothing: there is no second loop for the instrumented path
//! to drift from.
//!
//! [`CoreTimeline`] is the bundled implementation: it compacts each
//! core's attribution into maximal same-cause runs and records the region
//! boundaries. [`CoreTimeline::regions`] derives the serial/parallel
//! regions (fork → barrier-release spans) with a [`CycleBreakdown`] each
//! from them, by cycle number, giving the per-parallel-region attribution
//! the profiling CLI reports. The cost of the profiling run built on it
//! (`pulp-bench`'s `profile_run`) is `bench sim`'s gated
//! `telemetry_overhead_pct`.

use crate::cause::{CycleBreakdown, CycleCause};

/// Observer of per-cycle attribution and region boundaries.
///
/// All methods default to no-ops, or to the attribution hook, so
/// implementations override only what they need.
pub trait Telemetry {
    /// One core spent `n` consecutive cycles starting at `cycle` on `cause`.
    ///
    /// The attribution hook. A stepped cycle of an awake core arrives
    /// with `n == 1`; the event-horizon fast-forward reports an awake
    /// core's whole quiescent span in one call (nothing can change inside
    /// it). A clock-gated core's sleep interval arrives in one call when it
    /// closes, which may be after the region-boundary hooks of cycles it
    /// covers, so an accumulator places a span by its cycle numbers, not by
    /// when it arrives. Per core, spans arrive in time order, each starting
    /// where the core's previous one ended; across cores they do not.
    #[inline(always)]
    fn advance_n(&mut self, cycle: u64, core: usize, n: u64, cause: CycleCause) {
        let _ = (cycle, core, n, cause);
    }

    /// `core`'s spans `runs`, which tile one period from where the core's
    /// attribution stands (`runs[0].start` to the last run's `end`), and
    /// then repeat: `times` periods back to back in all.
    ///
    /// The periodic fast-forward reports a core's share of the loop
    /// iterations it skips in one call. The default replays every
    /// repetition through [`Telemetry::advance_n`].
    #[inline(always)]
    fn repeat(&mut self, core: usize, runs: &[CauseRun], times: u64) {
        let Some(last) = runs.last() else { return };
        let period = last.end - runs[0].start;
        for i in 0..times {
            for r in runs {
                self.advance_n(r.start + i * period, core, r.cycles(), r.cause);
            }
        }
    }

    /// The master signalled a fork (a parallel region opens).
    #[inline(always)]
    fn on_fork(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// The event unit released a barrier (a parallel region closes).
    #[inline(always)]
    fn on_barrier_release(&mut self, cycle: u64) {
        let _ = cycle;
    }
}

/// Zero-cost telemetry: every hook compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl Telemetry for NoTelemetry {}

/// Kind of a [`RegionProfile`] segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Before the first fork, or between a barrier release and the next
    /// fork (master-only code, plus sleeping workers).
    Serial,
    /// Between a fork signal and the barrier release that joins it.
    Parallel,
}

/// One serial or parallel span of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionProfile {
    /// Serial or parallel.
    pub kind: RegionKind,
    /// 0-based index among regions of the same kind.
    pub index: usize,
    /// First cycle of the region.
    pub start_cycle: u64,
    /// One past the last cycle of the region.
    pub end_cycle: u64,
    /// Cycle attribution summed over all cores for this span.
    pub breakdown: CycleBreakdown,
}

impl RegionProfile {
    /// Region length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Stable display label, e.g. `serial#0` or `parallel#2`.
    pub fn label(&self) -> String {
        match self.kind {
            RegionKind::Serial => format!("serial#{}", self.index),
            RegionKind::Parallel => format!("parallel#{}", self.index),
        }
    }
}

/// A maximal run of consecutive cycles a core spent on one cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CauseRun {
    /// The attributed cause.
    pub cause: CycleCause,
    /// First cycle of the run.
    pub start: u64,
    /// One past the last cycle of the run.
    pub end: u64,
}

impl CauseRun {
    /// Run length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// Telemetry that compacts each core's per-cycle attribution into maximal
/// same-cause runs (the lanes of the Chrome trace) and records the region
/// boundaries; [`CoreTimeline::regions`] derives the serial/parallel
/// regions from both.
#[derive(Debug, Clone, Default)]
pub struct CoreTimeline {
    lanes: Vec<Lane>,
    boundaries: Vec<(u64, RegionKind)>,
}

/// One core's runs, each stored as one word: the cycle it starts at,
/// shifted left by [`CAUSE_BITS`], over its cause's index in
/// [`CycleCause::ALL`].
///
/// A core's spans arrive in time order without gaps (see
/// [`Telemetry::advance_n`]), so a run ends where the next one starts, and
/// the last one at `end`: a span that extends the current run only moves
/// `end`. A repeated period ([`Telemetry::repeat`]) is stored once, with
/// its repetition count, between the words before and after it.
#[derive(Debug, Clone, Default)]
struct Lane {
    starts: Vec<u64>,
    end: u64,
    /// The cause of the last run, kept next to `end`.
    current: Option<CycleCause>,
    /// The repeated periods, in time order.
    repeats: Vec<Repeat>,
    /// Every repeat's runs, packed like `starts`, each start relative to
    /// the repeat's period.
    patterns: Vec<u64>,
}

/// A period of runs repeated back to back.
#[derive(Debug, Clone, Copy)]
struct Repeat {
    /// The number of `starts` words before it.
    at: usize,
    /// First cycle of the first repetition.
    start: u64,
    period: u64,
    times: u64,
    /// Its runs are `patterns[lo..hi]`.
    lo: usize,
    hi: usize,
}

/// Low bits of a [`Lane`] word that hold the cause.
const CAUSE_BITS: u32 = 4;

fn cause_of(word: u64) -> CycleCause {
    CycleCause::ALL[(word & ((1 << CAUSE_BITS) - 1)) as usize]
}

/// A position in a [`Lane`]: the next word and the next repeat.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    word: usize,
    repeat: usize,
}

/// One word's run, or one repeat, from its start to the start of what
/// follows it (a repeat's last run extends to there too).
#[derive(Debug, Clone, Copy)]
struct Piece {
    start: u64,
    end: u64,
    what: What,
}

#[derive(Debug, Clone, Copy)]
enum What {
    Run(CycleCause),
    Repeat(Repeat),
}

impl Lane {
    /// The piece at `at`, if any, and the cursor past it.
    fn piece(&self, at: Cursor) -> Option<(Piece, Cursor)> {
        let (start, what, next) = match self.repeats.get(at.repeat) {
            Some(r) if r.at == at.word => (
                r.start,
                What::Repeat(*r),
                Cursor {
                    repeat: at.repeat + 1,
                    ..at
                },
            ),
            _ => {
                let word = *self.starts.get(at.word)?;
                let next = Cursor {
                    word: at.word + 1,
                    ..at
                };
                (word >> CAUSE_BITS, What::Run(cause_of(word)), next)
            }
        };
        let end = self.start_at(next).unwrap_or(self.end);
        Some((Piece { start, end, what }, next))
    }

    fn start_at(&self, at: Cursor) -> Option<u64> {
        match self.repeats.get(at.repeat) {
            Some(r) if r.at == at.word => Some(r.start),
            _ => self.starts.get(at.word).map(|w| w >> CAUSE_BITS),
        }
    }

    /// Calls `f` with each run of `piece`, `(cause, start, end)`, in time
    /// order; a repeat's runs may share causes with their neighbours.
    fn for_each_run(&self, piece: &Piece, mut f: impl FnMut(CycleCause, u64, u64)) {
        match piece.what {
            What::Run(cause) => f(cause, piece.start, piece.end),
            What::Repeat(r) => {
                let pattern = &self.patterns[r.lo..r.hi];
                for i in 0..r.times {
                    let base = r.start + i * r.period;
                    for (j, &word) in pattern.iter().enumerate() {
                        let end = match pattern.get(j + 1) {
                            Some(next) => base + (next >> CAUSE_BITS),
                            None if i + 1 == r.times => piece.end,
                            None => base + r.period,
                        };
                        f(cause_of(word), base + (word >> CAUSE_BITS), end);
                    }
                }
            }
        }
    }

    /// Adds `piece`'s cycles inside `[from, to)` to `breakdown`. The
    /// repetitions of a repeat wholly inside are charged in one step per
    /// run of its period.
    fn charge(&self, piece: &Piece, from: u64, to: u64, breakdown: &mut CycleBreakdown) {
        let mut clipped = |cause, start: u64, end: u64| {
            let (start, end) = (start.max(from), end.min(to));
            if start < end {
                breakdown.add_n(cause, end - start);
            }
        };
        match piece.what {
            What::Repeat(r) if from <= r.start && r.start + r.times * r.period <= to => {
                let pattern = &self.patterns[r.lo..r.hi];
                let body = r.start + r.times * r.period;
                for (j, &word) in pattern.iter().enumerate() {
                    let end = pattern.get(j + 1).map_or(r.period, |w| w >> CAUSE_BITS);
                    let cycles = r.times * (end - (word >> CAUSE_BITS));
                    clipped(cause_of(word), body - cycles, body);
                }
                // The last run goes on to the next piece.
                clipped(cause_of(pattern[pattern.len() - 1]), body, piece.end);
            }
            _ => self.for_each_run(piece, clipped),
        }
    }
}

impl CoreTimeline {
    /// One lane per core, each a time-ordered list of cause runs.
    pub fn lanes(&self) -> Vec<Vec<CauseRun>> {
        self.lanes
            .iter()
            .map(|lane| {
                let mut runs: Vec<CauseRun> = Vec::new();
                let mut at = Cursor::default();
                while let Some((piece, next)) = lane.piece(at) {
                    lane.for_each_run(&piece, |cause, start, end| match runs.last_mut() {
                        Some(run) if run.cause == cause => run.end = end,
                        _ => runs.push(CauseRun { cause, start, end }),
                    });
                    at = next;
                }
                runs
            })
            .collect()
    }

    /// The fork (`Parallel`) and barrier-release (`Serial`) cycles in call
    /// order, each tagged with the region kind it switches to.
    pub fn boundaries(&self) -> &[(u64, RegionKind)] {
        &self.boundaries
    }

    /// The serial/parallel regions of a run of `cycles` cycles.
    ///
    /// Segmentation model: the run starts in a serial region; a fork at
    /// cycle `c` opens a parallel region at `c + 1` (the fork cycle still
    /// belongs to the region it closes), and the next barrier release at
    /// `c` closes it back to serial at `c + 1`. Barrier releases inside
    /// serial spans (e.g. consecutive barriers without an intervening
    /// fork) are region-neutral, and an empty trailing region (a release on
    /// the run's final cycle) is dropped. A region's breakdown is every
    /// core's runs clipped to its cycles. This is a telemetry-level view —
    /// `SimStats` stays the per-run ground truth.
    pub fn regions(&self, cycles: u64) -> Vec<RegionProfile> {
        let mut starts = vec![(0, RegionKind::Serial)];
        for &(cycle, kind) in &self.boundaries {
            // A fork always opens a region; a release only closes a
            // parallel one.
            let open = starts[starts.len() - 1].1;
            if kind == RegionKind::Parallel || open == RegionKind::Parallel {
                starts.push((cycle + 1, kind));
            }
        }
        let ends = starts
            .iter()
            .skip(1)
            .map(|&(start, _)| start)
            .chain([cycles]);
        let (mut serial, mut parallel) = (0, 0);
        // Per lane, the first piece not wholly inside the earlier regions.
        let mut next = vec![Cursor::default(); self.lanes.len()];
        let mut regions: Vec<RegionProfile> = starts
            .iter()
            .zip(ends)
            .map(|(&(start, kind), end)| {
                let count = match kind {
                    RegionKind::Serial => &mut serial,
                    RegionKind::Parallel => &mut parallel,
                };
                let index = *count;
                *count += 1;
                let mut breakdown = CycleBreakdown::default();
                for (lane, at) in self.lanes.iter().zip(&mut next) {
                    while let Some((piece, after)) = lane.piece(*at).filter(|p| p.0.start < end) {
                        lane.charge(&piece, start, end, &mut breakdown);
                        if piece.end > end {
                            break;
                        }
                        *at = after;
                    }
                }
                RegionProfile {
                    kind,
                    index,
                    start_cycle: start,
                    end_cycle: end,
                    breakdown,
                }
            })
            .collect();
        if regions.last().is_some_and(|r| r.cycles() == 0) {
            regions.pop();
        }
        regions
    }
}

impl Telemetry for CoreTimeline {
    // O(1) attribution, also for the simulator's fast-forward spans: a
    // span either extends the core's current run or opens one new run.
    #[inline]
    fn advance_n(&mut self, cycle: u64, core: usize, n: u64, cause: CycleCause) {
        if n == 0 {
            return;
        }
        if self.lanes.len() <= core {
            self.lanes.resize(core + 1, Lane::default());
        }
        let lane = &mut self.lanes[core];
        // A run's end is the next run's start, so a gap would be charged
        // to the run before it. The simulator never leaves one (its spans
        // tile every core's cycles); checking each span in release builds
        // would cost the timeline a sixth of its time.
        debug_assert!(
            lane.starts.is_empty() || lane.end == cycle,
            "core {core}: span at {cycle} leaves a gap after {}",
            lane.end
        );
        if lane.current != Some(cause) {
            assert!(
                cycle >> (u64::BITS - CAUSE_BITS) == 0,
                "core {core}: runs start below cycle 2^60, not {cycle}"
            );
            lane.current = Some(cause);
            lane.starts.push(cycle << CAUSE_BITS | cause as u64);
        }
        lane.end = cycle + n;
    }

    // O(runs of one period), whatever `times` is: the repetition is kept
    // as one `Repeat`, which `lanes` expands and `regions` charges in bulk.
    fn repeat(&mut self, core: usize, runs: &[CauseRun], times: u64) {
        let (Some(first), Some(last)) = (runs.first(), runs.last()) else {
            return;
        };
        let period = last.end - first.start;
        if runs.iter().all(|r| r.cause == first.cause) {
            return self.advance_n(first.start, core, times * period, first.cause);
        }
        if times == 0 {
            return;
        }
        if self.lanes.len() <= core {
            self.lanes.resize(core + 1, Lane::default());
        }
        let lane = &mut self.lanes[core];
        debug_assert_eq!(
            lane.end, first.start,
            "core {core}: the repeated period does not follow the lane"
        );
        let end = lane.end + times * period;
        assert!(
            end >> (u64::BITS - CAUSE_BITS) == 0,
            "core {core}: runs end below cycle 2^60, not {end}"
        );
        let lo = lane.patterns.len();
        lane.patterns.extend(
            runs.iter()
                .map(|r| (r.start - first.start) << CAUSE_BITS | r.cause as u64),
        );
        lane.repeats.push(Repeat {
            at: lane.starts.len(),
            start: lane.end,
            period,
            times,
            lo,
            hi: lane.patterns.len(),
        });
        lane.current = Some(last.cause);
        lane.end = end;
    }

    fn on_fork(&mut self, cycle: u64) {
        self.boundaries.push((cycle, RegionKind::Parallel));
    }

    fn on_barrier_release(&mut self, cycle: u64) {
        self.boundaries.push((cycle, RegionKind::Serial));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CycleCause::{Barrier, Execute, ForkWait, Idle, Runtime};

    fn labels(regions: &[RegionProfile]) -> Vec<String> {
        regions.iter().map(RegionProfile::label).collect()
    }

    #[test]
    fn lane_words_keep_every_cause_and_start() {
        let mut t = CoreTimeline::default();
        let start = (1 << (u64::BITS - CAUSE_BITS)) - 16;
        for (i, cause) in CycleCause::ALL.into_iter().enumerate() {
            t.advance_n(start + i as u64, 0, 1, cause);
        }
        let runs = &t.lanes()[0];
        assert_eq!(runs.len(), CycleCause::ALL.len());
        for (i, (run, cause)) in runs.iter().zip(CycleCause::ALL).enumerate() {
            let at = start + i as u64;
            assert_eq!((run.cause, run.start, run.end), (cause, at, at + 1));
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "leaves a gap")]
    fn a_gap_in_a_lane_is_refused() {
        let mut t = CoreTimeline::default();
        t.advance_n(0, 0, 2, Execute);
        t.advance_n(3, 0, 1, Execute);
    }

    #[test]
    #[should_panic(expected = "below cycle 2^60")]
    fn a_run_past_the_lane_word_range_is_refused() {
        let mut t = CoreTimeline::default();
        t.advance_n(1 << (u64::BITS - CAUSE_BITS), 0, 1, Execute);
    }

    #[test]
    fn no_telemetry_is_a_unit() {
        let mut t = NoTelemetry;
        t.advance_n(0, 0, 1, Execute);
        t.on_fork(1);
        t.on_barrier_release(2);
    }

    #[test]
    fn profiler_segments_fork_join() {
        let mut t = CoreTimeline::default();
        // Serial prologue: 2 cycles on core 0.
        t.advance_n(0, 0, 1, Execute);
        t.advance_n(1, 0, 1, Runtime);
        t.on_fork(1);
        // Parallel body.
        t.advance_n(2, 0, 1, Execute);
        t.advance_n(2, 1, 1, Execute);
        t.advance_n(3, 0, 1, Barrier);
        t.advance_n(3, 1, 1, Execute);
        t.on_barrier_release(3);
        // Serial epilogue.
        t.advance_n(4, 0, 1, Execute);

        let regions = t.regions(5);
        assert_eq!(labels(&regions), ["serial#0", "parallel#0", "serial#1"]);
        assert_eq!(regions[0].kind, RegionKind::Serial);
        assert_eq!(regions[0].breakdown.total(), 2);
        assert_eq!(regions[1].kind, RegionKind::Parallel);
        assert_eq!((regions[1].start_cycle, regions[1].end_cycle), (2, 4));
        assert_eq!(regions[1].breakdown.execute, 3);
        assert_eq!(regions[1].breakdown.barrier, 1);
        assert_eq!(regions[2].kind, RegionKind::Serial);
        let cells: u64 = regions.iter().map(|r| r.breakdown.total()).sum();
        assert_eq!(cells, 7);
    }

    #[test]
    fn advance_n_matches_repeated_single_steps() {
        let mut bulk = CoreTimeline::default();
        let mut single = CoreTimeline::default();
        // Serial prologue, fork, a long quiet parallel span, join.
        for t in [&mut bulk, &mut single] {
            t.on_fork(2);
            t.on_barrier_release(42);
        }
        let spans = [
            (0u64, 0usize, 3u64, Execute),
            (3, 0, 40, Barrier),
            (0, 1, 3, Idle),
            (3, 1, 40, ForkWait),
            (43, 0, 2, Barrier),
        ];
        for (cycle, core, n, cause) in spans {
            bulk.advance_n(cycle, core, n, cause);
            for i in 0..n {
                single.advance_n(cycle + i, core, 1, cause);
            }
        }
        assert_eq!(bulk.lanes(), single.lanes());
        assert_eq!(bulk.lanes()[0].len(), 2, "same-cause spans merge");
        assert_eq!(bulk.regions(45), single.regions(45));
    }

    /// A timeline fed through the trait's default `repeat`, which replays
    /// every repetition through `advance_n`.
    #[derive(Default)]
    struct Replayed(CoreTimeline);

    impl Telemetry for Replayed {
        fn advance_n(&mut self, cycle: u64, core: usize, n: u64, cause: CycleCause) {
            self.0.advance_n(cycle, core, n, cause);
        }

        fn on_fork(&mut self, cycle: u64) {
            self.0.on_fork(cycle);
        }

        fn on_barrier_release(&mut self, cycle: u64) {
            self.0.on_barrier_release(cycle);
        }
    }

    #[test]
    fn repeats_match_their_replay_through_advance_n() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let causes = [Execute, Barrier, Runtime];
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut kept, mut replayed) = (CoreTimeline::default(), Replayed::default());
            let (mut ends, mut fork) = ([0u64; 2], 0);
            for _ in 0..rng.gen_range(1..12) {
                let core = rng.gen_range(0..2);
                let at = ends[core];
                if rng.gen_range(0..3) == 0 {
                    // A period of a few runs, its first and last cause
                    // sometimes equal, sometimes all one cause.
                    let mut runs = Vec::new();
                    let mut start = at;
                    for _ in 0..rng.gen_range(1..4) {
                        let end = start + rng.gen_range(1..4);
                        let cause = causes[rng.gen_range(0..causes.len())];
                        runs.push(CauseRun { cause, start, end });
                        start = end;
                    }
                    let times = rng.gen_range(0..5);
                    kept.repeat(core, &runs, times);
                    replayed.repeat(core, &runs, times);
                    ends[core] += times * (start - at);
                } else {
                    let n = rng.gen_range(1..6);
                    let cause = causes[rng.gen_range(0..causes.len())];
                    kept.advance_n(at, core, n, cause);
                    replayed.advance_n(at, core, n, cause);
                    ends[core] += n;
                }
                // Boundaries come in time order, as the simulator calls
                // them.
                let now = ends[0].max(ends[1]);
                if rng.gen_range(0..4) == 0 && now > fork {
                    fork = rng.gen_range(fork..now);
                    kept.on_fork(fork);
                    replayed.on_fork(fork);
                }
            }
            assert_eq!(kept.lanes(), replayed.0.lanes(), "seed {seed}");
            let cycles = ends[0].max(ends[1]);
            assert_eq!(
                kept.regions(cycles),
                replayed.0.regions(cycles),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn advance_n_zero_is_a_noop() {
        let mut t = CoreTimeline::default();
        t.advance_n(5, 0, 0, Barrier);
        assert!(t.lanes().is_empty());
        assert!(t.regions(0).is_empty());
    }

    #[test]
    fn spurious_release_in_serial_is_neutral() {
        let mut with = CoreTimeline::default();
        let mut without = CoreTimeline::default();
        for t in [&mut with, &mut without] {
            t.advance_n(0, 0, 8, Execute);
            t.on_fork(1);
            t.on_barrier_release(3);
        }
        with.on_barrier_release(5);
        let regions = with.regions(8);
        assert_eq!(regions, without.regions(8));
        assert_eq!(labels(&regions), ["serial#0", "parallel#0", "serial#1"]);
        assert_eq!(regions[2].breakdown.execute, 4);
    }

    #[test]
    fn release_on_the_final_cycle_leaves_no_empty_region() {
        let mut t = CoreTimeline::default();
        t.advance_n(0, 0, 4, Execute);
        t.on_fork(0);
        t.on_barrier_release(3);
        let regions = t.regions(4);
        assert_eq!(labels(&regions), ["serial#0", "parallel#0"]);
        assert_eq!(regions[1].end_cycle, 4);
    }

    #[test]
    fn a_run_without_a_fork_is_one_serial_region() {
        let mut t = CoreTimeline::default();
        t.advance_n(0, 0, 6, Execute);
        t.advance_n(0, 1, 6, Idle);
        let mut breakdown = CycleBreakdown::default();
        breakdown.add_n(Execute, 6);
        breakdown.add_n(Idle, 6);
        let serial = RegionProfile {
            kind: RegionKind::Serial,
            index: 0,
            start_cycle: 0,
            end_cycle: 6,
            breakdown,
        };
        assert_eq!(t.regions(6), [serial]);
    }

    #[test]
    fn a_span_reported_after_the_fork_lands_by_its_cycles() {
        // Core 1 sleeps through the fork and the release; its interval
        // arrives in one call after both hooks and is split by cycle.
        let mut t = CoreTimeline::default();
        t.advance_n(0, 0, 2, Runtime);
        t.on_fork(1);
        t.advance_n(2, 0, 2, Execute);
        t.on_barrier_release(3);
        t.advance_n(0, 1, 4, ForkWait);
        let regions = t.regions(4);
        assert_eq!(labels(&regions), ["serial#0", "parallel#0"]);
        assert_eq!(regions[0].breakdown.runtime, 2);
        assert_eq!(regions[0].breakdown.fork_wait, 2);
        assert_eq!(regions[1].breakdown.execute, 2);
        assert_eq!(regions[1].breakdown.fork_wait, 2);
        for r in &regions {
            assert_eq!(r.breakdown.total(), r.cycles() * 2, "{}", r.label());
        }
    }
}
