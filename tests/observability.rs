//! Cross-crate observability contract tests.
//!
//! Three properties the profiling stack promises:
//!
//! 1. **Exclusivity** — the simulator attributes every cycle of every core
//!    to exactly one [`CycleCause`], at every team size.
//! 2. **Path agreement** — the trace-replay listener stack reconstructs
//!    the same per-core stall-cause counters the fast path reports.
//! 3. **Chrome export** — the trace-event JSON survives a round trip
//!    through `serde_json` with proper nesting and monotonic timestamps.
//! 4. **Prometheus export** — the Recorder→registry bridge turns real
//!    pipeline spans into a valid, deterministic text exposition.

use kernel_ir::lower;
use pulp_energy::pipeline::{BuildObserver, LabeledDataset, PipelineOptions};
use pulp_energy_model::replay_oracle;
use pulp_obs::{chrome_trace, validate_chrome_trace, Recorder};
use pulp_sim::{simulate_opts, ClusterConfig, CoreTimeline, NullSink, SimOptions, SimScratch};
use serde::Value;

fn lowered_program(team: usize, config: &ClusterConfig) -> pulp_sim::Program {
    let defs = pulp_kernels::registry();
    let def = defs
        .iter()
        .find(|d| d.name == "fir")
        .expect("fir in registry");
    let kernel = def
        .build(&pulp_kernels::KernelParams::new(kernel_ir::DType::F32, 512))
        .expect("fir instantiates");
    lower(&kernel, team, config).expect("fir lowers").program
}

#[test]
fn every_cycle_has_exactly_one_cause_at_every_team_size() {
    let config = ClusterConfig::default();
    for team in 1..=8 {
        let program = lowered_program(team, &config);
        let mut timeline = CoreTimeline::default();
        let stats = simulate_opts(
            &config,
            &program,
            &SimOptions::default().with_max_cycles(10_000_000),
            &mut NullSink,
            &mut timeline,
            &mut SimScratch::new(),
        )
        .expect("simulate");
        stats.check_consistency().expect("attribution consistent");
        for (id, core) in stats.cores.iter().enumerate() {
            assert_eq!(
                core.breakdown.total(),
                stats.cycles,
                "team {team} core {id}: per-core attribution must tile the run"
            );
        }
        assert_eq!(
            stats.breakdown_totals().total(),
            stats.cycles * stats.cores.len() as u64,
            "team {team}: cluster-wide attribution must be cycles x cores"
        );
        // The region segmentation is a partition of the same cells.
        let regions = timeline.regions(stats.cycles);
        let region_cells: u64 = regions.iter().map(|r| r.breakdown.total()).sum();
        assert_eq!(region_cells, stats.cycles * stats.cores.len() as u64);
        let lane_cells: u64 = timeline.lanes().iter().flatten().map(|r| r.cycles()).sum();
        assert_eq!(lane_cells, region_cells);
    }
}

#[test]
fn listener_replay_reproduces_fast_path_stall_causes() {
    let config = ClusterConfig::default();
    for team in [1, 3, 8] {
        let program = lowered_program(team, &config);
        let (direct, replayed) = replay_oracle(&config, &program, 10_000_000);
        for (id, (d, r)) in direct.cores.iter().zip(&replayed.cores).enumerate() {
            assert_eq!(
                d.breakdown, r.breakdown,
                "team {team} core {id}: replayed stall causes must match the fast path"
            );
        }
        // The replay reconstructs architectural state only; the fast-forward
        // span counters are diagnostics the trace does not carry.
        assert_eq!(direct.without_fast_forward(), replayed);
    }
}

/// The four-sample `vec_scale` dataset, built with telemetry into `rec`.
fn build_vec_scale(rec: &mut Recorder) -> LabeledDataset {
    let opts = PipelineOptions::quick(&["vec_scale"]);
    LabeledDataset::build_observed(&opts, rec, BuildObserver::default()).expect("build")
}

#[test]
fn pipeline_chrome_trace_round_trips_with_nesting_and_monotonic_time() {
    let mut rec = Recorder::new();
    let data = build_vec_scale(&mut rec);
    assert_eq!(data.len(), 4);

    // Per-sample spans nest the per-team simulate spans.
    let sample_spans: Vec<usize> = rec
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.cat == "sample")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(sample_spans.len(), 4);
    let nested = rec
        .spans()
        .iter()
        .filter(|s| s.cat == "simulate")
        .filter(|s| s.parent.is_some_and(|p| sample_spans.contains(&p)))
        .count();
    assert_eq!(
        nested,
        4 * 8,
        "every simulate span nests inside its sample span"
    );

    let json = chrome_trace(&rec, "pipeline");
    validate_chrome_trace(&json).expect("structurally valid trace");

    // Round trip through serde_json and re-check the invariants by hand.
    let value: Value = serde_json::from_str(&json).expect("parses");
    let events = value.field("traceEvents").expect("traceEvents");
    let Value::Seq(events) = events else {
        panic!("traceEvents must be an array")
    };
    assert!(!events.is_empty());
    let mut last_start: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut complete = 0usize;
    for e in events {
        let ph = e
            .field("ph")
            .and_then(|v| v.as_str().map(str::to_string))
            .expect("ph");
        if ph != "X" {
            continue;
        }
        complete += 1;
        let tid = e.field("tid").and_then(|v| v.as_u64()).expect("tid");
        let ts = e.field("ts").and_then(|v| v.as_u64()).expect("ts");
        e.field("dur").and_then(|v| v.as_u64()).expect("dur");
        if let Some(&prev) = last_start.get(&tid) {
            assert!(ts >= prev, "per-track start times must be non-decreasing");
        }
        last_start.insert(tid, ts);
    }
    assert_eq!(
        complete,
        rec.spans().len(),
        "every span exports as one complete event"
    );

    // The export is stable across renderings.
    assert_eq!(json, chrome_trace(&rec, "pipeline"));
}

#[test]
fn pipeline_metrics_render_a_valid_prometheus_exposition() {
    use pulp_obs::{validate_exposition, MetricsRegistry};

    let mut rec = Recorder::new();
    let data = build_vec_scale(&mut rec);
    let mut metrics = MetricsRegistry::new();
    metrics.observe_recorder("pulp_pipeline", &rec);
    assert_eq!(data.len(), 4);

    let text = metrics.render();
    validate_exposition(&text).expect("pipeline exposition is structurally valid");

    // Every pipeline span category becomes one stage histogram series, and
    // the sample histogram counts exactly the four built samples.
    assert!(text.contains("# TYPE pulp_pipeline_stage_ticks histogram"));
    assert_eq!(
        metrics.histogram_count("pulp_pipeline_stage_ticks", &[("stage", "sample")]),
        Some(4),
        "one observation per built sample:\n{text}"
    );
    assert_eq!(
        metrics.histogram_count("pulp_pipeline_stage_ticks", &[("stage", "simulate")]),
        Some(4 * 8),
        "one observation per (sample, team) simulate span"
    );

    // The exposition is deterministic: rendering twice is byte-identical,
    // and a registry fed from the same spans renders the same text (modulo
    // the wall-clock durations, which we exclude by comparing structure).
    assert_eq!(text, metrics.render());
    let families: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
    let mut sorted = families.clone();
    sorted.sort_unstable();
    assert_eq!(families, sorted, "families render in sorted order");
}
