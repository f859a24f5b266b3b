//! Region-attribution pins: the exact serial/parallel segmentation that
//! [`CoreTimeline::regions`] derives for fir, gemm and atax (F32, 512 B)
//! at teams 1..=8, with the fast-forward on and off.
//!
//! The other telemetry tests check only sums (every cell attributed once,
//! regions partitioning the run). A simulator change that moves cycles
//! from one region to another keeps every sum and passes them. This test
//! pins each region's kind, index, start, end and per-cause breakdown, so
//! such a move fails here. A second test checks that each region's cells
//! tile its cycles times the cluster's cores.
//!
//! The fixture is `tests/fixtures/region_pins.txt`, one line per region.
//! Regenerate it only after an intentional attribution change, with
//! `cargo test -p pulp-energy --test region_pins -- --ignored regenerate`,
//! and review the diff like any other golden update.

use kernel_ir::{lower, DType};
use pulp_kernels::{registry, KernelParams};
use pulp_sim::{
    simulate_opts, ClusterConfig, CoreTimeline, NullSink, RegionProfile, SimOptions, SimScratch,
};
use std::fmt::Write;

const FIXTURE: &str = include_str!("fixtures/region_pins.txt");

const KERNELS: [&str; 3] = ["fir", "gemm", "atax"];

/// Every region of every pinned run, simulated with `fast_forward` as
/// given, under its run's name (`fir t1`).
fn pinned_regions(fast_forward: bool) -> Vec<(String, RegionProfile)> {
    let config = ClusterConfig::default();
    let defs = registry();
    let mut scratch = SimScratch::new();
    let mut out = Vec::new();
    for name in KERNELS {
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .expect("kernel in registry");
        let kernel = def
            .build(&KernelParams::new(DType::F32, 512))
            .expect("kernel instantiates");
        for team in 1..=8 {
            let program = lower(&kernel, team, &config).expect("lowers").program;
            let opts = SimOptions {
                fast_forward,
                ..SimOptions::default().with_max_cycles(10_000_000)
            };
            let mut timeline = CoreTimeline::default();
            let stats = simulate_opts(
                &config,
                &program,
                &opts,
                &mut NullSink,
                &mut timeline,
                &mut scratch,
            )
            .expect("simulates");
            let run = format!("{name} t{team}");
            out.extend(
                timeline
                    .regions(stats.cycles)
                    .into_iter()
                    .map(|r| (run.clone(), r)),
            );
        }
    }
    out
}

/// One line per region of every pinned run, simulated with
/// `fast_forward` as given.
fn render_regions(fast_forward: bool) -> String {
    let mut out = String::new();
    for (run, r) in pinned_regions(fast_forward) {
        write!(
            out,
            "{run} {} {}..{}",
            r.label(),
            r.start_cycle,
            r.end_cycle
        )
        .expect("write to string");
        for (cause, n) in r.breakdown.iter().filter(|&(_, n)| n > 0) {
            write!(out, " {cause}={n}").expect("write to string");
        }
        out.push('\n');
    }
    out
}

#[test]
fn every_region_tiles_its_cycles_times_the_cores() {
    let cores = ClusterConfig::default().num_cores as u64;
    for fast_forward in [true, false] {
        for (run, r) in pinned_regions(fast_forward) {
            let cells: u64 = r.breakdown.iter().map(|(_, n)| n).sum();
            assert_eq!(
                cells,
                (r.end_cycle - r.start_cycle) * cores,
                "{run} {}: cells do not tile the region",
                r.label()
            );
        }
    }
}

#[test]
fn regions_match_the_fixture_with_fast_forward() {
    assert_eq!(
        render_regions(true),
        FIXTURE,
        "region attribution drifted (fast-forward on)"
    );
}

#[test]
fn regions_match_the_fixture_single_step() {
    assert_eq!(
        render_regions(false),
        FIXTURE,
        "region attribution drifted (single-step oracle)"
    );
}

/// Rewrites the fixture. Run explicitly after an intentional attribution
/// change: `cargo test -p pulp-energy --test region_pins -- --ignored
/// regenerate`.
#[test]
#[ignore = "writes tests/fixtures/; run explicitly to regenerate the golden"]
fn regenerate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
    std::fs::write(format!("{dir}/region_pins.txt"), render_regions(true)).expect("write fixture");
}
