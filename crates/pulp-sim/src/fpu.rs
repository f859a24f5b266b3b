//! Shared-FPU arbitration.
//!
//! The `8c4flp` PULP instance shares 4 single-stage-pipeline FPUs among 8
//! cores with a fixed `core % 4` mapping. A pipelined FP op occupies its
//! FPU's issue slot for one cycle; divides block the unit for their full
//! latency. When both cores mapped to an FPU issue in the same cycle, one
//! of them stalls — this contention is one of the main mechanisms that
//! makes the minimum-energy core count of FP kernels land below 8.

use crate::isa::FpOp;

/// Tracks per-FPU occupancy.
#[derive(Debug, Clone)]
pub struct FpuPool {
    /// First cycle at which each FPU can accept a new op.
    ///
    /// Like the DMA engine, FPU occupancy is a cycle *stamp*, not a
    /// countdown, so the fast-forward path never needs to tick the pool
    /// when it jumps the clock. Occupancy does not bound the event horizon
    /// either: contention can only delay a core that is `Ready` and
    /// issuing, and any `Ready` core already pins the horizon to 1.
    free_at: Vec<u64>,
    model_contention: bool,
    fpu_latency: u32,
    fp_div_latency: u32,
}

/// Outcome of an FPU issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpuIssue {
    /// Cycles the issuing core is busy with the op (including issue cycle).
    pub core_busy: u32,
}

impl FpuPool {
    /// Creates a pool of `num_fpus` units.
    pub fn new(
        num_fpus: usize,
        model_contention: bool,
        fpu_latency: u32,
        fp_div_latency: u32,
    ) -> Self {
        Self {
            free_at: vec![0; num_fpus],
            model_contention,
            fpu_latency,
            fp_div_latency,
        }
    }

    /// Attempts to issue `op` on `fpu` in `cycle`.
    ///
    /// Returns `Some` with the core-side busy time when the unit accepted
    /// the op, `None` when the core must stall and retry.
    ///
    /// # Panics
    ///
    /// Panics if `fpu` is out of range.
    #[inline]
    pub fn try_issue(&mut self, fpu: usize, op: FpOp, cycle: u64) -> Option<FpuIssue> {
        if self.model_contention && self.free_at[fpu] > cycle {
            return None;
        }
        let (occupancy, core_busy) = match op {
            // Pipelined single-stage unit: one new op per cycle; the
            // issuing core is busy for the interconnect + execute latency.
            FpOp::Add | FpOp::Mul => (1, self.fpu_latency.max(1)),
            // Divides block the unit entirely.
            FpOp::Div => (self.fp_div_latency, self.fp_div_latency),
        };
        self.free_at[fpu] = cycle + u64::from(occupancy);
        Some(FpuIssue { core_busy })
    }

    /// Cycles each FPU stays occupied from `cycle` on (0 when free): the
    /// pool's state relative to the clock.
    pub(crate) fn busy_for(&self, cycle: u64) -> impl Iterator<Item = u64> + '_ {
        self.free_at.iter().map(move |&f| f.saturating_sub(cycle))
    }

    /// Moves every occupancy stamp `cycles` later, for a clock that jumps
    /// `cycles` ahead over work that repeats the pool's use exactly.
    pub(crate) fn skip(&mut self, cycles: u64) {
        self.free_at.iter_mut().for_each(|f| *f += cycles);
    }

    /// Number of FPUs in the pool.
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// Returns `true` if the pool has no FPUs.
    pub fn is_empty(&self) -> bool {
        self.free_at.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> FpuPool {
        FpuPool::new(4, true, 1, 10)
    }

    #[test]
    fn pipelined_ops_issue_once_per_cycle() {
        let mut p = pool();
        assert!(p.try_issue(0, FpOp::Add, 5).is_some());
        // Second issue on the same FPU in the same cycle loses arbitration.
        assert!(p.try_issue(0, FpOp::Mul, 5).is_none());
        // Next cycle is fine (single-stage pipeline).
        assert!(p.try_issue(0, FpOp::Mul, 6).is_some());
    }

    #[test]
    fn different_fpus_are_independent() {
        let mut p = pool();
        assert!(p.try_issue(0, FpOp::Add, 5).is_some());
        assert!(p.try_issue(1, FpOp::Add, 5).is_some());
    }

    #[test]
    fn divide_blocks_the_unit() {
        let mut p = pool();
        let issue = p.try_issue(2, FpOp::Div, 10).expect("first issue");
        assert_eq!(issue.core_busy, 10);
        assert!(p.try_issue(2, FpOp::Add, 15).is_none());
        assert!(p.try_issue(2, FpOp::Add, 20).is_some());
    }

    #[test]
    fn issue_is_stable_across_clock_jumps() {
        // Fast-forward advances `cycle` in large steps; stamp-based
        // occupancy must behave as if every skipped cycle had been ticked.
        let mut p = pool();
        p.try_issue(1, FpOp::Div, 7).expect("issue");
        // Jump far past the occupancy: the unit accepts immediately.
        assert!(p.try_issue(1, FpOp::Add, 1_000_000).is_some());
    }

    #[test]
    fn disabled_contention_always_accepts() {
        let mut p = FpuPool::new(4, false, 1, 10);
        assert!(p.try_issue(0, FpOp::Div, 0).is_some());
        assert!(p.try_issue(0, FpOp::Add, 0).is_some());
        assert!(p.try_issue(0, FpOp::Add, 0).is_some());
    }
}
