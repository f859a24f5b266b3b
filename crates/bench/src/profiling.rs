//! Bridges the simulator's [`Telemetry`](pulp_sim::Telemetry) stream into
//! `pulp-obs` recorders.
//!
//! [`profile_run`] executes a program once with a [`CoreTimeline`] and
//! returns the statistics, the serial/parallel region profiles derived
//! from the timeline, and the timeline itself. [`recorder_of_run`] turns
//! that into a recorder whose [`pulp_obs::chrome_trace`] is a Chrome
//! trace-event JSON (load it at `chrome://tracing` or ui.perfetto.dev):
//! track 0 carries the region spans and fork/release markers, tracks
//! `1..=n` carry one lane per core whose spans are maximal runs of a
//! single [`CycleCause`](pulp_sim::CycleCause).

use pulp_obs::Recorder;
use pulp_sim::{
    simulate_opts, ClusterConfig, CoreTimeline, NullSink, Program, RegionKind, RegionProfile,
    SimError, SimOptions, SimScratch, SimStats,
};

/// Everything one instrumented run produces.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Ground-truth simulator statistics.
    pub stats: SimStats,
    /// Serial/parallel region segmentation with per-region attribution.
    pub regions: Vec<RegionProfile>,
    /// Per-core cause timeline and region boundaries.
    pub timeline: CoreTimeline,
}

/// Runs `program` once with full attribution telemetry.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn profile_run(
    config: &ClusterConfig,
    program: &Program,
    max_cycles: u64,
) -> Result<ProfiledRun, SimError> {
    let mut timeline = CoreTimeline::default();
    let stats = simulate_opts(
        config,
        program,
        &SimOptions::default().with_max_cycles(max_cycles),
        &mut NullSink,
        &mut timeline,
        &mut SimScratch::new(),
    )?;
    Ok(ProfiledRun {
        regions: timeline.regions(stats.cycles),
        stats,
        timeline,
    })
}

/// Converts a profiled run into an obs [`Recorder`] on the manual clock
/// (ticks = cycles): region spans and fork/release markers on track 0, one
/// track per core with its cause runs as spans.
pub fn recorder_of_run(run: &ProfiledRun) -> Recorder {
    let mut rec = Recorder::manual();
    for region in &run.regions {
        rec.set_time(region.start_cycle);
        let span = rec.start_cat(&region.label(), "region");
        rec.annotate(span, "cycles", region.cycles());
        rec.annotate(span, "execute", region.breakdown.execute);
        rec.set_time(region.end_cycle);
        rec.end(span);
    }
    for (kind, name) in [
        (RegionKind::Parallel, "fork"),
        (RegionKind::Serial, "barrier_release"),
    ] {
        for &(cycle, _) in run.timeline.boundaries().iter().filter(|b| b.1 == kind) {
            rec.set_time(cycle);
            rec.event(name);
        }
    }
    for lane in run.timeline.lanes() {
        let mut core_rec = Recorder::manual();
        for r in lane {
            core_rec.set_time(r.start);
            let span = core_rec.start_cat(r.cause.token(), "core");
            core_rec.set_time(r.end);
            core_rec.end(span);
        }
        rec.merge(core_rec);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_sim::{CauseRun, OpKind, SegOp};

    fn fork_join_program() -> Program {
        let instr = |kind| SegOp::Instr { kind, addr: None };
        let master = vec![
            instr(OpKind::Alu),
            SegOp::Fork,
            instr(OpKind::Alu),
            instr(OpKind::Mul),
            SegOp::Barrier,
            instr(OpKind::Alu),
        ];
        let worker = vec![SegOp::WaitFork, instr(OpKind::Alu), SegOp::Barrier];
        Program::new(vec![master, worker])
    }

    #[test]
    fn timeline_covers_every_cycle_per_core() {
        let config = ClusterConfig::default();
        let run = profile_run(&config, &fork_join_program(), 10_000).expect("simulate");
        for (core, lane) in run.timeline.lanes().iter().enumerate() {
            let covered: u64 = lane.iter().map(CauseRun::cycles).sum();
            assert_eq!(
                covered, run.stats.cycles,
                "core {core} lane must tile the run"
            );
            for w in lane.windows(2) {
                assert_eq!(w[0].end, w[1].start, "runs must be contiguous");
                assert_ne!(w[0].cause, w[1].cause, "runs must be maximal");
            }
        }
    }

    #[test]
    fn timeline_advance_n_matches_repeated_single_steps() {
        use pulp_sim::{CycleCause, Telemetry};
        let mut bulk = CoreTimeline::default();
        let mut single = CoreTimeline::default();
        let pattern = [
            (0u64, 0usize, 3u64, CycleCause::Execute),
            (3, 0, 5, CycleCause::Barrier),
            (0, 1, 8, CycleCause::Idle),
            (8, 0, 2, CycleCause::Barrier),
        ];
        for (cycle, core, n, cause) in pattern {
            bulk.advance_n(cycle, core, n, cause);
            for i in 0..n {
                single.advance_n(cycle + i, core, 1, cause);
            }
        }
        assert_eq!(bulk.lanes(), single.lanes());
    }

    #[test]
    fn chrome_trace_of_a_profiled_run_is_valid_and_deterministic() {
        // The rendering `pulp_cli trace --chrome` does.
        let config = ClusterConfig::default();
        let p = fork_join_program();
        let trace = || {
            let run = profile_run(&config, &p, 10_000).expect("simulate");
            pulp_obs::chrome_trace(&recorder_of_run(&run), "demo")
        };
        let (a, b) = (trace(), trace());
        assert_eq!(a, b, "manual clock must make the trace deterministic");
        pulp_obs::validate_chrome_trace(&a).expect("valid chrome trace");
        assert!(a.contains("serial#0"));
        assert!(a.contains("\"fork\""));
    }
}
