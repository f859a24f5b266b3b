//! Telemetry hook points for the simulator's hot loop.
//!
//! [`Telemetry`] receives one attribution callback per core per span of
//! cycles (with its [`CycleCause`]) plus region boundaries (fork signals
//! and barrier releases). Every hook defaults to an empty
//! `#[inline(always)]` method and [`NoTelemetry`] overrides none, so
//! `simulate` monomorphises to exactly the uninstrumented loop: there is
//! no second loop for the instrumented path to drift from.
//!
//! [`RegionProfiler`] is the bundled implementation: it segments a run
//! into serial/parallel regions (fork → barrier-release spans) and
//! accumulates a [`CycleBreakdown`] per segment, giving the per-parallel-
//! region attribution the profiling CLI reports. The cost of the profiling
//! run built on it (`pulp-bench`'s `profile_run`) is `bench sim`'s gated
//! `telemetry_overhead_pct`.

use crate::cause::{CycleBreakdown, CycleCause};

/// Observer of per-cycle attribution and region boundaries.
///
/// All methods default to no-ops so implementations override only what
/// they need.
pub trait Telemetry {
    /// One core spent `n` consecutive cycles starting at `cycle` on `cause`.
    ///
    /// The one attribution hook. A stepped cycle of an awake core arrives
    /// with `n == 1`; the event-horizon fast-forward reports an awake
    /// core's whole quiescent span in one call (nothing can change inside
    /// it). A clock-gated core's sleep interval arrives in one call when it
    /// closes, split only where a region boundary falls inside it: open
    /// intervals are flushed before every [`Telemetry::on_fork`] and
    /// [`Telemetry::on_barrier_release`], so each cycle arrives in the
    /// region it belongs to. Per core, spans arrive in time order; across
    /// cores they do not, which per-core or order-insensitive accumulators
    /// — every implementation in this workspace — do not notice.
    #[inline(always)]
    fn advance_n(&mut self, cycle: u64, core: usize, n: u64, cause: CycleCause) {
        let _ = (cycle, core, n, cause);
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

    /// The run finished after `cycles` total cycles.
    #[inline(always)]
    fn on_finish(&mut self, cycles: u64) {
        let _ = cycles;
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
    /// One past the last cycle of the region (filled on close).
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

/// Telemetry that attributes cycles to serial/parallel regions.
///
/// Segmentation model: a run starts in a serial region; each fork signal
/// opens a parallel region, and the next barrier release closes it back to
/// serial. Barrier releases inside serial spans (e.g. consecutive barriers
/// without an intervening fork) are treated as region-neutral. This is a
/// telemetry-level view — `SimStats` stays the per-run ground truth.
#[derive(Debug, Clone, Default)]
pub struct RegionProfiler {
    regions: Vec<RegionProfile>,
    serial_count: usize,
    parallel_count: usize,
    /// Total per-cause attribution over the whole run (all cores).
    pub totals: CycleBreakdown,
}

impl RegionProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closed + open regions recorded so far, in time order.
    pub fn regions(&self) -> &[RegionProfile] {
        &self.regions
    }

    fn open(&mut self, kind: RegionKind, cycle: u64) {
        let index = match kind {
            RegionKind::Serial => {
                self.serial_count += 1;
                self.serial_count - 1
            }
            RegionKind::Parallel => {
                self.parallel_count += 1;
                self.parallel_count - 1
            }
        };
        self.regions.push(RegionProfile {
            kind,
            index,
            start_cycle: cycle,
            end_cycle: cycle,
            breakdown: CycleBreakdown::default(),
        });
    }

    fn close_current(&mut self, cycle: u64) {
        if let Some(r) = self.regions.last_mut() {
            r.end_cycle = cycle;
        }
    }

    fn current_kind(&self) -> Option<RegionKind> {
        self.regions.last().map(|r| r.kind)
    }
}

impl Telemetry for RegionProfiler {
    fn advance_n(&mut self, cycle: u64, _core: usize, n: u64, cause: CycleCause) {
        // O(1) bulk attribution: a span never crosses a fork or release
        // (those end the span), so it lands entirely in the current region.
        if n == 0 {
            return;
        }
        if self.regions.is_empty() {
            self.open(RegionKind::Serial, cycle);
        }
        self.totals.add_n(cause, n);
        if let Some(r) = self.regions.last_mut() {
            r.breakdown.add_n(cause, n);
            r.end_cycle = r.end_cycle.max(cycle + n);
        }
    }

    fn on_fork(&mut self, cycle: u64) {
        if self.regions.is_empty() {
            self.open(RegionKind::Serial, cycle);
        }
        // The fork cycle itself still belongs to the serial span.
        self.close_current(cycle + 1);
        self.open(RegionKind::Parallel, cycle + 1);
    }

    fn on_barrier_release(&mut self, cycle: u64) {
        if self.current_kind() == Some(RegionKind::Parallel) {
            self.close_current(cycle + 1);
            self.open(RegionKind::Serial, cycle + 1);
        }
    }

    fn on_finish(&mut self, cycles: u64) {
        self.close_current(cycles);
        // Drop an empty trailing region (e.g. a barrier release on the
        // run's final cycle).
        if let Some(last) = self.regions.last() {
            if last.cycles() == 0 && last.breakdown.total() == 0 {
                self.regions.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_telemetry_is_a_unit() {
        let mut t = NoTelemetry;
        t.advance_n(0, 0, 1, CycleCause::Execute);
        t.on_fork(1);
        t.on_barrier_release(2);
        t.on_finish(3);
    }

    #[test]
    fn profiler_segments_fork_join() {
        let mut p = RegionProfiler::new();
        // Serial prologue: 2 cycles of execute on core 0.
        p.advance_n(0, 0, 1, CycleCause::Execute);
        p.advance_n(1, 0, 1, CycleCause::Runtime);
        p.on_fork(1);
        // Parallel body.
        p.advance_n(2, 0, 1, CycleCause::Execute);
        p.advance_n(2, 1, 1, CycleCause::Execute);
        p.advance_n(3, 0, 1, CycleCause::Barrier);
        p.advance_n(3, 1, 1, CycleCause::Execute);
        p.on_barrier_release(3);
        // Serial epilogue.
        p.advance_n(4, 0, 1, CycleCause::Execute);
        p.on_finish(5);

        let regions = p.regions();
        assert_eq!(regions.len(), 3);
        assert_eq!(regions[0].kind, RegionKind::Serial);
        assert_eq!(regions[0].label(), "serial#0");
        assert_eq!(regions[0].breakdown.total(), 2);
        assert_eq!(regions[1].kind, RegionKind::Parallel);
        assert_eq!(regions[1].breakdown.execute, 3);
        assert_eq!(regions[1].breakdown.barrier, 1);
        assert_eq!(regions[2].kind, RegionKind::Serial);
        assert_eq!(regions[2].label(), "serial#1");
        assert_eq!(p.totals.total(), 7);
    }

    #[test]
    fn advance_n_matches_repeated_single_steps() {
        let mut bulk = RegionProfiler::new();
        let mut single = RegionProfiler::new();
        // Serial prologue, fork, a long quiet parallel span, join.
        for p in [&mut bulk, &mut single] {
            p.advance_n(0, 0, 1, CycleCause::Execute);
            p.on_fork(0);
        }
        bulk.advance_n(1, 0, 40, CycleCause::Barrier);
        bulk.advance_n(1, 1, 40, CycleCause::ForkWait);
        for c in 1..41 {
            single.advance_n(c, 0, 1, CycleCause::Barrier);
            single.advance_n(c, 1, 1, CycleCause::ForkWait);
        }
        for p in [&mut bulk, &mut single] {
            p.on_barrier_release(40);
            p.on_finish(41);
        }
        assert_eq!(bulk.totals, single.totals);
        assert_eq!(bulk.regions(), single.regions());
    }

    #[test]
    fn advance_n_zero_is_a_noop() {
        let mut p = RegionProfiler::new();
        p.advance_n(5, 0, 0, CycleCause::Barrier);
        assert!(p.regions().is_empty());
        assert_eq!(p.totals.total(), 0);
    }

    #[test]
    fn spurious_release_in_serial_is_neutral() {
        let mut p = RegionProfiler::new();
        p.advance_n(0, 0, 1, CycleCause::Execute);
        p.on_barrier_release(0);
        p.advance_n(1, 0, 1, CycleCause::Execute);
        p.on_finish(2);
        assert_eq!(p.regions().len(), 1);
        assert_eq!(p.regions()[0].breakdown.execute, 2);
    }
}
