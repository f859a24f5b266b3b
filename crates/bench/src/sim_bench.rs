//! `pulp_cli bench sim` — simulator performance benchmark.
//!
//! Runs a fixed basket of synthetic kernels — ALU-bound, TCDM-conflict
//! heavy, barrier/DMA-heavy and FP-contended — at 1/2/4/8 cores, once with
//! the event-horizon fast-forward and once with the single-step oracle, and
//! reports cycles-simulated-per-wall-second for both plus the fast-forward
//! skip ratio. Every pair is also checked for bit-identical architectural
//! results, so the benchmark doubles as an end-to-end differential test.
//!
//! [`SimBenchReport::record`] is the `BENCH_sim.json` record (see
//! [`crate::record`]): `bench diff` gates it on per-basket fast-forward
//! throughput and labeling throughput, and its limits (the speedup floor,
//! the telemetry cost, oracle and telemetry parity, and barrier/DMA spans)
//! fail the run that writes it.
//!
//! ## How the `scan`/`hit` columns are measured
//!
//! The horizon wall split (`horizon_scan_s` / `horizon_step_s`, rendered as
//! the `scan` share column) comes from a separate `horizon_timing`
//! instrumented pass, and the simulator **samples** that timing: one clocked
//! event in every 32, scaled back up to the full event count. Clocking every
//! iteration would attribute the two `Instant::now()` calls themselves to
//! the split and inflate the scan share on short baskets; sampling keeps the
//! probe overhead at ~3% of events while the scaled split stays an unbiased
//! estimate (spans are homogeneous within a basket). The split is a ratio
//! diagnostic, not a throughput claim — `ff [cyc/s]` always comes from the
//! uninstrumented run.
//!
//! The report also carries a **labeling throughput** figure: the sweep
//! driver ([`sweep_kernels`]) is timed over the quick kernel
//! set and reported as samples labelled per wall-second, giving the corpus
//! build a tracked baseline.
//!
//! Finally it prices **production telemetry**: [`profile_run`], the
//! full-attribution run behind `pulp_cli profile`, `trace --chrome` and
//! `repro profile_report`, against `simulate_opts(.., NoTelemetry)` on the
//! same gemm workload in interleaved pairs. The median per-pair cost is
//! gated at [`TELEMETRY_LIMIT_PCT`], so telemetry that gets slower shows
//! up as a breach. `NoTelemetry` itself is free by construction: its hooks
//! are the trait's empty `#[inline(always)]` defaults, and the simulator
//! has no second loop for it to drift from. Its runs are what the
//! `ff_cycles_per_s` rows already time.

use crate::profiling::profile_run;
use crate::record::{BenchRecord, Better, Tolerance};
use pulp_energy::{sweep_kernels, BuildObserver, EnergyProfile, MeasureContext, MeasureError};
use pulp_energy_model::EnergyModel;
use pulp_kernels::KernelParams;
use pulp_obs::{journal_stage, JournalWriter, LogFormat, Logger, Recorder};
use pulp_sim::{
    simulate_opts, AddrExpr, ClusterConfig, NoTelemetry, NullSink, OpKind, Program, SegOp,
    SimOptions, SimScratch, SimStats, TCDM_BASE,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Wall-time floor (one nanosecond) applied before any division.
///
/// `f64::MIN_POSITIVE` is *not* a usable floor: `cycles / 5e-324` overflows
/// to `inf`, which serde_json refuses to serialise as a number and which
/// breaks `bench diff` downstream. One nanosecond is below any observable
/// `Instant` resolution, so the clamp never distorts a real measurement.
const WALL_FLOOR_S: f64 = 1e-9;

/// Largest tolerated relative drop of fast-forward throughput
/// (`ff_cycles_per_s`) on any basket, and of labeling throughput: 20%.
pub const THROUGHPUT_TOLERANCE: f64 = 0.20;

/// Lowest fast-forward speedup over the single-step oracle any basket may
/// show. The fast-forward path must never be slower than just stepping;
/// contended baskets sit at parity (nothing is skippable), so the floor
/// of 1.0x carries a 5% allowance for wall-clock jitter. The regression
/// this guards shipped ALU baskets at 0.64–0.89x, far below it.
pub const SPEEDUP_FLOOR: f64 = 0.95;

/// Largest tolerated cost of [`profile_run`]'s telemetry, in percent of
/// the wall time of the same run with `NoTelemetry`.
///
/// Set from 20 back-to-back `bench sim --quick` runs on a 2-vCPU container,
/// which read 60.4–81.3% (median 68.3%); the same runs with `profile_run`
/// stretched to 1.25x its wall time read 103.8–114.7%.
pub const TELEMETRY_LIMIT_PCT: f64 = 95.0;

/// Team sizes every basket is run at.
pub const TEAM_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Basket identifiers, in report order.
pub const BASKETS: [&str; 4] = ["alu", "tcdm_conflict", "barrier_dma", "fp_contended"];

/// Options of one benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct SimBenchOptions {
    /// Shrink the baskets for smoke runs (`--quick`).
    pub quick: bool,
    /// Per-run cycle budget (`--max-cycles`).
    pub max_cycles: u64,
    /// Timing repetitions per configuration; the fastest wall time wins.
    pub iters: u32,
}

impl Default for SimBenchOptions {
    fn default() -> Self {
        Self {
            quick: false,
            max_cycles: pulp_sim::DEFAULT_MAX_CYCLES,
            iters: 11,
        }
    }
}

impl SimBenchOptions {
    /// The reduced smoke configuration. Quick runs are so short (tens of
    /// microseconds each) that a single timer interrupt can dominate a
    /// timing pair, so they take more iterations than the full profile —
    /// the median ratio needs a majority of clean pairs. On a loaded
    /// single-core box, nine pairs still let noise drag the median of a
    /// parity basket to ~0.87x; thirty-one pairs hold it within a few
    /// percent of 1.0 and the whole quick profile still runs in seconds.
    pub fn quick() -> Self {
        Self {
            quick: true,
            iters: 31,
            ..Self::default()
        }
    }
}

/// One (basket, team size) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimBenchRow {
    /// Basket identifier (see [`BASKETS`]).
    pub basket: String,
    /// Team size the basket ran at.
    pub cores: usize,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Fast-forward wall time (seconds, best of the iterations).
    pub ff_wall_s: f64,
    /// Single-step oracle wall time (seconds, best of the iterations).
    pub oracle_wall_s: f64,
    /// Simulated cycles per wall-second with fast-forward.
    pub ff_cycles_per_s: f64,
    /// Simulated cycles per wall-second single-step.
    pub oracle_cycles_per_s: f64,
    /// Fast-forward speedup over the oracle: the **median** of the per-pair
    /// `oracle_wall / ff_wall` ratios across the interleaved timing
    /// iterations. Each ratio compares two time-adjacent runs, so shared
    /// scheduling noise cancels instead of biasing the quotient of two
    /// independent minima.
    pub speedup: f64,
    /// Fraction of simulated cycles advanced in bulk spans.
    pub skip_ratio: f64,
    /// Bulk spans taken by the fast-forward run.
    pub spans: u64,
    /// `true` when the fast-forward run's architectural results are
    /// bit-identical to the oracle's.
    pub oracle_match: bool,
    /// Fraction of horizon computations that produced a bulk skip, from a
    /// separate `horizon_timing`-instrumented run.
    pub horizon_hit_rate: f64,
    /// Wall seconds the instrumented run spent scanning for the next event
    /// horizon.
    pub horizon_scan_s: f64,
    /// Wall seconds the instrumented run spent in per-cycle stepping.
    pub horizon_step_s: f64,
    /// `horizon_scan_s / (horizon_scan_s + horizon_step_s)` — the share of
    /// instrumented wall time paid for the fast-forward bookkeeping.
    pub horizon_scan_share: f64,
}

/// The full benchmark report; its `record()` is written to `BENCH_sim.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimBenchReport {
    /// Tool identifier for downstream diffing.
    pub bench: String,
    /// `true` for `--quick` runs (not comparable to full runs).
    pub quick: bool,
    /// One row per (basket, team size).
    pub rows: Vec<SimBenchRow>,
    /// Samples labelled by the sharded-sweep throughput measurement.
    pub labeling_samples: u64,
    /// Worker threads the sharded sweep ran with.
    pub labeling_threads: u64,
    /// Wall seconds of the sharded sweep.
    pub labeling_wall_s: f64,
    /// Labelled samples per wall-second — the corpus-build throughput
    /// baseline (`labeling_samples / labeling_wall_s`).
    pub labeling_samples_per_s: f64,
    /// Wall seconds of the **observed** sharded sweep: same kernel set,
    /// but with journaling and live progress enabled.
    pub labeling_observed_wall_s: f64,
    /// Labelled samples per wall-second with journaling + progress on.
    pub labeling_observed_samples_per_s: f64,
    /// `labeling_observed_wall_s / labeling_wall_s` — the observability
    /// tax. The acceptance bar is ≤ 1.02 on a quiet full-profile box; the
    /// figure is tracked here rather than hard-gated because CI boxes are
    /// noisy.
    pub labeling_journal_overhead: f64,
    /// Simulated cycles of the telemetry workload (gemm, f32, 32768 B,
    /// 8 cores).
    pub telemetry_cycles: u64,
    /// Cost of production telemetry in percent: the median over the
    /// interleaved pairs of [`profile_run`] wall over
    /// `simulate_opts(.., NoTelemetry)` wall, minus one. Gated at
    /// [`TELEMETRY_LIMIT_PCT`].
    pub telemetry_overhead_pct: f64,
    /// `true` when both runs produced identical statistics.
    pub telemetry_match: bool,
}

fn instr(kind: OpKind) -> SegOp {
    SegOp::Instr { kind, addr: None }
}

fn load(addr: u32) -> SegOp {
    SegOp::Instr {
        kind: OpKind::Load,
        addr: Some(AddrExpr::constant(addr)),
    }
}

/// Builds the named basket's program for `team` cores.
///
/// Baskets scale the per-core work with `scale` so `--quick` stays fast:
///
/// * `alu` — every core retires an ALU op per cycle; the fast-forward has
///   nothing to skip (every cycle has a `Ready` core).
/// * `tcdm_conflict` — all cores hammer one TCDM bank; conflict stalls are
///   1-cycle `Busy` tails, so skipping stays minimal.
/// * `barrier_dma` — the master streams large DMA transfers between
///   cluster-wide barriers while workers sleep: long quiescent spans, the
///   fast-forward's best case.
/// * `fp_contended` — all cores issue FP divides over shared FPUs:
///   multi-cycle busy tails with contention retries.
///
/// # Panics
///
/// Panics on an unknown basket name (callers iterate [`BASKETS`]).
pub fn basket_program(basket: &str, team: usize, scale: u64) -> Program {
    let streams: Vec<Vec<SegOp>> = match basket {
        "alu" => (0..team)
            .map(|_| {
                vec![
                    SegOp::LoopBegin { trip: scale },
                    instr(OpKind::Alu),
                    SegOp::LoopEnd,
                    SegOp::Barrier,
                ]
            })
            .collect(),
        "tcdm_conflict" => (0..team)
            .map(|_| {
                // Same word address on every core: worst-case bank focus.
                vec![
                    SegOp::LoopBegin { trip: scale },
                    load(TCDM_BASE),
                    SegOp::LoopEnd,
                    SegOp::Barrier,
                ]
            })
            .collect(),
        "barrier_dma" => {
            let episodes = (scale / 64).max(2) as usize;
            (0..team)
                .map(|core| {
                    let mut s = Vec::new();
                    for _ in 0..episodes {
                        if core == 0 {
                            s.push(SegOp::Dma {
                                words: 4096,
                                inbound: true,
                            });
                        }
                        s.push(SegOp::Barrier);
                    }
                    s
                })
                .collect()
        }
        "fp_contended" => (0..team)
            .map(|_| {
                vec![
                    SegOp::LoopBegin { trip: scale / 4 },
                    instr(OpKind::Fp(pulp_sim::FpOp::Div)),
                    SegOp::LoopEnd,
                    SegOp::Barrier,
                ]
            })
            .collect(),
        other => panic!("unknown basket `{other}`"),
    };
    Program::new(streams)
}

/// One run of a benchmark program.
fn simulate_basket(
    config: &ClusterConfig,
    program: &Program,
    opts: &SimOptions,
    scratch: &mut SimScratch,
) -> SimStats {
    simulate_opts(
        config,
        program,
        opts,
        &mut NullSink,
        &mut NoTelemetry,
        scratch,
    )
    .expect("benchmark basket must simulate cleanly")
}

/// Times two simulations of one program **interleaved** (a, b, b, a, ...)
/// rather than as two back-to-back batches. A ratio of two wall times is
/// biased when one side's whole batch lands in a noisy scheduling window
/// (CI runners, shared boxes), in a way best-of-k cannot repair.
/// Interleaving exposes both sides to the same noise, and the ratio is
/// the median of the per-pair `b_wall / a_wall` ratios, each comparing two
/// time-adjacent runs. The wall columns keep the conventional best per
/// side.
fn interleaved(
    iters: u32,
    scratch: &mut SimScratch,
    mut a: impl FnMut(&mut SimScratch) -> SimStats,
    mut b: impl FnMut(&mut SimScratch) -> SimStats,
) -> Interleaved {
    fn timed(
        run: &mut dyn FnMut(&mut SimScratch) -> SimStats,
        s: &mut SimScratch,
    ) -> (SimStats, f64) {
        let start = Instant::now();
        let stats = run(s);
        (stats, start.elapsed().as_secs_f64())
    }
    let mut out = Interleaved {
        a: SimStats::default(),
        a_wall: f64::INFINITY,
        b: SimStats::default(),
        b_wall: f64::INFINITY,
        ratio: f64::NAN,
    };
    let mut ratios = Vec::new();
    for i in 0..iters.max(1) {
        // Alternate which side runs first within the pair: whoever runs
        // first pays any warmup/scheduler-quantum cost, and a fixed order
        // would turn that into a systematic bias on the ratio.
        let ((a, a_wall), (b, b_wall)) = if i % 2 == 0 {
            let a = timed(&mut a, scratch);
            (a, timed(&mut b, scratch))
        } else {
            let b = timed(&mut b, scratch);
            (timed(&mut a, scratch), b)
        };
        out.a_wall = out.a_wall.min(a_wall);
        out.b_wall = out.b_wall.min(b_wall);
        ratios.push(speedup_of(b_wall, a_wall));
        (out.a, out.b) = (a, b);
    }
    out.ratio = median(&mut ratios);
    out
}

/// The last statistics and best wall of each side of [`interleaved`],
/// plus the median per-pair `b_wall / a_wall` ratio.
struct Interleaved {
    a: SimStats,
    a_wall: f64,
    b: SimStats,
    b_wall: f64,
    ratio: f64,
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Runs the full benchmark matrix. With a run journal, each basket, the
/// telemetry measurement and the labeling measurement become journal
/// stages.
pub fn run_sim_bench(
    opts: &SimBenchOptions,
    mut journal: Option<&mut JournalWriter>,
) -> SimBenchReport {
    let config = ClusterConfig::default();
    // Quick runs must still be long enough that a single timer interrupt
    // (~µs) doesn't dominate a timing pair: 8k cycles ≈ 0.3–1 ms per run.
    let scale: u64 = if opts.quick { 8_000 } else { 40_000 };
    let ff_opts = SimOptions::default().with_max_cycles(opts.max_cycles);
    let oracle_opts = SimOptions {
        fast_forward: false,
        ..ff_opts
    };
    let timing_opts = ff_opts.with_horizon_timing(true);
    let mut scratch = SimScratch::new();
    let mut rows = Vec::new();
    for basket in BASKETS {
        journal_stage(&mut journal, basket, |_| {
            for team in TEAM_SIZES {
                let program = basket_program(basket, team, scale);
                let Interleaved {
                    a: ff,
                    a_wall: ff_wall,
                    b: oracle,
                    b_wall: oracle_wall,
                    ratio: speedup,
                } = interleaved(
                    opts.iters,
                    &mut scratch,
                    |s| simulate_basket(&config, &program, &ff_opts, s),
                    |s| simulate_basket(&config, &program, &oracle_opts, s),
                );
                // A separate instrumented pass: `horizon_timing` samples one
                // event in 32 (see the module docs), but even the sampled
                // probes must not pollute `ff_wall_s`. One iteration is
                // enough — the split is a ratio, not a throughput claim.
                let timed = simulate_basket(&config, &program, &timing_opts, &mut scratch);
                let cycles = ff.cycles;
                rows.push(SimBenchRow {
                    basket: basket.to_string(),
                    cores: team,
                    cycles,
                    ff_wall_s: ff_wall,
                    oracle_wall_s: oracle_wall,
                    ff_cycles_per_s: throughput(cycles, ff_wall),
                    oracle_cycles_per_s: throughput(cycles, oracle_wall),
                    speedup,
                    skip_ratio: ff.skip_ratio(),
                    spans: ff.fast_forward.spans,
                    oracle_match: ff.without_fast_forward() == oracle,
                    horizon_hit_rate: timed.fast_forward.horizon_hit_rate(),
                    horizon_scan_s: timed.fast_forward.horizon_scan_nanos as f64 / 1e9,
                    horizon_step_s: timed.fast_forward.step_nanos as f64 / 1e9,
                    horizon_scan_share: timed.fast_forward.horizon_scan_share(),
                });
            }
        });
    }
    let telemetry = journal_stage(&mut journal, "telemetry", |_| {
        measure_telemetry_overhead(&config, opts, &mut scratch)
    });
    let labeling = journal_stage(&mut journal, "labeling", |_| {
        measure_labeling_throughput(opts.quick, opts.max_cycles)
    });
    SimBenchReport {
        bench: "sim".to_string(),
        quick: opts.quick,
        rows,
        labeling_samples: labeling.samples,
        labeling_threads: labeling.threads,
        labeling_wall_s: labeling.wall_s,
        labeling_samples_per_s: labeling.samples_per_s,
        labeling_observed_wall_s: labeling.observed_wall_s,
        labeling_observed_samples_per_s: labeling.observed_samples_per_s,
        labeling_journal_overhead: labeling.journal_overhead,
        telemetry_cycles: telemetry.a.cycles,
        telemetry_overhead_pct: (telemetry.ratio - 1.0) * 100.0,
        telemetry_match: telemetry.a == telemetry.b,
    }
}

/// `cycles / wall`, clamped so a sub-resolution wall time stays finite.
fn throughput(cycles: u64, wall_s: f64) -> f64 {
    cycles as f64 / wall_s.max(WALL_FLOOR_S)
}

/// `oracle_wall / ff_wall` with **both** sides clamped: an unguarded oracle
/// wall of 0.0 used to report `speedup: inf`, which serialises as a
/// non-finite JSON number and breaks `bench diff`.
fn speedup_of(oracle_wall_s: f64, ff_wall_s: f64) -> f64 {
    oracle_wall_s.max(WALL_FLOOR_S) / ff_wall_s.max(WALL_FLOOR_S)
}

/// Times `simulate_opts(.., NoTelemetry)` (side a) against
/// [`profile_run`] (side b) on gemm (f32, 32768 B, 8 cores): one run takes
/// tens of milliseconds, so timing noise on a shared runner stays well
/// under the limit being enforced.
fn measure_telemetry_overhead(
    config: &ClusterConfig,
    opts: &SimBenchOptions,
    scratch: &mut SimScratch,
) -> Interleaved {
    let gemm = pulp_kernels::registry()
        .into_iter()
        .find(|d| d.name == "gemm")
        .expect("gemm in registry")
        .build(&KernelParams::new(kernel_ir::DType::F32, 32768))
        .expect("gemm instantiates");
    let program = kernel_ir::lower(&gemm, 8, config)
        .expect("gemm lowers")
        .program;
    let sim_opts = SimOptions::default().with_max_cycles(opts.max_cycles);
    interleaved(
        opts.iters,
        scratch,
        |s| simulate_basket(config, &program, &sim_opts, s),
        |_| {
            profile_run(config, &program, opts.max_cycles)
                .expect("telemetry workload must simulate cleanly")
                .stats
        },
    )
}

struct LabelingThroughput {
    samples: u64,
    threads: u64,
    wall_s: f64,
    samples_per_s: f64,
    observed_wall_s: f64,
    observed_samples_per_s: f64,
    journal_overhead: f64,
}

/// Times the sweep driver over the quick kernel set: every quick
/// kernel at one payload size (`--quick`) or three (full), labelled across
/// all available cores. This is the figure ROADMAP item 1's corpus build
/// scales from.
///
/// The same workload is then re-run with observation on — an in-memory
/// journal plus live progress into a sink logger — so the report
/// carries the journaling overhead as a tracked ratio. The observed pass
/// must produce bit-identical profiles; anything else means the observer
/// leaked into the measurement.
fn measure_labeling_throughput(quick: bool, max_cycles: u64) -> LabelingThroughput {
    let payloads: &[usize] = if quick { &[512] } else { &[512, 2048, 8196] };
    let defs = pulp_kernels::registry();
    let kernels: Vec<_> = crate::QUICK_KERNELS
        .iter()
        .filter_map(|name| defs.iter().find(|d| d.name == *name))
        .flat_map(|def| {
            payloads
                .iter()
                .filter_map(|&p| def.build(&KernelParams::new(kernel_ir::DType::I32, p)).ok())
        })
        .collect();
    let config = ClusterConfig::default();
    let model = EnergyModel::table1();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = MeasureContext {
        max_cycles,
        ..MeasureContext::new(&config, &model)
    };
    let sweep = |obs: BuildObserver<'_>| {
        let kernel = |i| &kernels[i];
        sweep_kernels(
            kernels.len(),
            kernel,
            &ctx,
            threads,
            &mut Recorder::new(),
            obs,
        )
        .into_iter()
        .collect::<Result<Vec<EnergyProfile>, MeasureError>>()
    };
    let start = Instant::now();
    let profiles = sweep(BuildObserver::default()).expect("quick kernels must label cleanly");
    let wall_s = start.elapsed().as_secs_f64();

    let mut journal = JournalWriter::in_memory("bench_sim_labeling", "unseeded", 0);
    let progress_sink = Logger::to_sink(LogFormat::Text);
    let observed_start = Instant::now();
    let observed = sweep(BuildObserver {
        journal: Some(&mut journal),
        logger: Some(&progress_sink),
    })
    .expect("quick kernels must label cleanly under observation");
    let observed_wall_s = observed_start.elapsed().as_secs_f64();
    assert_eq!(
        profiles, observed,
        "observed sweep must be bit-identical to the plain sweep"
    );
    drop(journal);

    LabelingThroughput {
        samples: profiles.len() as u64,
        threads: threads as u64,
        wall_s,
        samples_per_s: profiles.len() as f64 / wall_s.max(WALL_FLOOR_S),
        observed_wall_s,
        observed_samples_per_s: profiles.len() as f64 / observed_wall_s.max(WALL_FLOOR_S),
        journal_overhead: observed_wall_s.max(WALL_FLOOR_S) / wall_s.max(WALL_FLOOR_S),
    }
}

impl SimBenchReport {
    /// The `BENCH_sim.json` record: every figure of the report, rows as
    /// `basket@cores/field`, gated on throughput ([`THROUGHPUT_TOLERANCE`]),
    /// the fast-forward speedup floor ([`SPEEDUP_FLOOR`]) and the telemetry
    /// cost limit ([`TELEMETRY_LIMIT_PCT`]). Every fast-forward run must
    /// match its oracle, the profiled run its `NoTelemetry` twin, and the
    /// barrier/DMA basket — sleeping workers behind a long DMA drain — must
    /// take a bulk span at 2, 4 and 8 cores, or the fast-forward is dead.
    pub fn record(&self) -> BenchRecord {
        use Better::{Higher, Lower};
        let throughput = Some(Tolerance::Relative(THROUGHPUT_TOLERANCE));
        let floor = Some(Tolerance::Limit(SPEEDUP_FLOOR));
        let telemetry = Some(Tolerance::Limit(TELEMETRY_LIMIT_PCT));
        let must = Some(Tolerance::Limit(1.0));
        let rows = ["basket", "cores"];
        BenchRecord::from_report(
            &self.bench,
            self.quick,
            self,
            &rows,
            |row, field| match field {
                "ff_cycles_per_s" => ("cycles/s", Higher, throughput),
                "oracle_cycles_per_s" => ("cycles/s", Higher, None),
                "labeling_samples_per_s" => ("samples/s", Higher, throughput),
                "labeling_observed_samples_per_s" => ("samples/s", Higher, None),
                "speedup" => ("x", Higher, floor),
                "telemetry_overhead_pct" => ("%", Lower, telemetry),
                "cycles" | "telemetry_cycles" => ("cycles", Lower, None),
                "oracle_match" | "telemetry_match" => ("bool", Higher, must),
                "spans" if matches!(row, "barrier_dma@2" | "barrier_dma@4" | "barrier_dma@8") => {
                    ("count", Higher, must)
                }
                "skip_ratio" | "horizon_hit_rate" => ("ratio", Higher, None),
                "horizon_scan_share" | "labeling_journal_overhead" => ("ratio", Lower, None),
                "ff_wall_s" | "oracle_wall_s" | "horizon_scan_s" | "horizon_step_s" => {
                    ("s", Lower, None)
                }
                "labeling_wall_s" | "labeling_observed_wall_s" => ("s", Lower, None),
                _ => ("count", Higher, None),
            },
        )
    }

    /// Renders the human-readable table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>12} {:>14} {:>14} {:>8} {:>6} {:>6} {:>6} {:>6}",
            "basket",
            "cores",
            "cycles",
            "ff [cyc/s]",
            "oracle [cyc/s]",
            "speedup",
            "skip",
            "hit",
            "scan",
            "match"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<14} {:>5} {:>12} {:>14.3e} {:>14.3e} {:>7.2}x {:>5.1}% {:>5.1}% {:>5.1}% {:>6}",
                r.basket,
                r.cores,
                r.cycles,
                r.ff_cycles_per_s,
                r.oracle_cycles_per_s,
                r.speedup,
                r.skip_ratio * 100.0,
                r.horizon_hit_rate * 100.0,
                r.horizon_scan_share * 100.0,
                if r.oracle_match { "ok" } else { "FAIL" }
            );
        }
        // `scan` above is the sampled horizon-timing split (1 event in 32,
        // scaled); see the module docs for the method.
        let _ = writeln!(
            out,
            "labeling: {} samples @ {} threads in {:.3}s = {:.1} samples/s",
            self.labeling_samples,
            self.labeling_threads,
            self.labeling_wall_s,
            self.labeling_samples_per_s
        );
        let _ = writeln!(
            out,
            "labeling+journal: {:.3}s = {:.1} samples/s (overhead {:.3}x)",
            self.labeling_observed_wall_s,
            self.labeling_observed_samples_per_s,
            self.labeling_journal_overhead
        );
        let _ = writeln!(
            out,
            "telemetry: gemm f32 32768B team 8 ({} cycles): profile_run {:+.2}% vs NoTelemetry \
             (limit {TELEMETRY_LIMIT_PCT}%), stats {}",
            self.telemetry_cycles,
            self.telemetry_overhead_pct,
            if self.telemetry_match { "ok" } else { "FAIL" }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Breaks one figure of a healthy report.
    type Fault = fn(&mut SimBenchReport);

    /// The quick profile at one timing pair per configuration.
    fn quick_run(journal: Option<&mut JournalWriter>) -> SimBenchReport {
        let opts = SimBenchOptions {
            iters: 1,
            ..SimBenchOptions::quick()
        };
        run_sim_bench(&opts, journal)
    }

    #[test]
    fn every_basket_builds_and_validates_at_every_team_size() {
        for basket in BASKETS {
            for team in TEAM_SIZES {
                let p = basket_program(basket, team, 128);
                assert!(
                    p.validate().is_ok(),
                    "basket {basket} invalid at {team} cores"
                );
            }
        }
    }

    #[test]
    fn quick_bench_passes_its_own_verification() {
        let report = quick_run(None);
        assert_eq!(report.rows.len(), BASKETS.len() * TEAM_SIZES.len());
        // One timing pair is too few for the speedup floor and the
        // telemetry cost; every other limit is an invariant.
        let mut record = report.record();
        record
            .metrics
            .retain(|m| !m.name.ends_with("/speedup") && m.name != "telemetry_overhead_pct");
        assert_eq!(record.breaches(), Vec::<String>::new());
        // The barrier/DMA basket is the fast-forward's best case: sleeping
        // workers and a master parked on a long DMA drain.
        let dma8 = report
            .rows
            .iter()
            .find(|r| r.basket == "barrier_dma" && r.cores == 8)
            .expect("row exists");
        assert!(
            dma8.skip_ratio > 0.5,
            "barrier_dma@8 should skip most cycles, got {}",
            dma8.skip_ratio
        );
        // The ALU basket keeps a core Ready every cycle: nothing to skip.
        let alu1 = report
            .rows
            .iter()
            .find(|r| r.basket == "alu" && r.cores == 1)
            .expect("row exists");
        assert!(
            alu1.skip_ratio < 0.1,
            "alu@1 has no quiescent spans, got skip ratio {}",
            alu1.skip_ratio
        );
        // The instrumented pass fills the wall split for every row and the
        // skip-friendly basket converts horizon computations into skips.
        assert!(dma8.horizon_hit_rate > 0.0, "no horizon skips at dma@8");
        for r in &report.rows {
            assert!(
                r.horizon_scan_s + r.horizon_step_s > 0.0,
                "{} @ {}: empty horizon wall split",
                r.basket,
                r.cores
            );
            assert!((0.0..=1.0).contains(&r.horizon_scan_share));
        }
    }

    #[test]
    fn zero_walls_stay_finite_on_both_sides_of_the_ratio() {
        // Regression: only `ff_wall` was clamped, so a sub-resolution
        // *oracle* round reported `speedup: inf` (and `f64::MIN_POSITIVE`
        // was no clamp at all: `cycles / 5e-324` overflows to inf too).
        assert!(throughput(40_050, 0.0).is_finite());
        assert!(throughput(40_050, f64::MIN_POSITIVE).is_finite());
        assert!(speedup_of(0.0, 1e-3).is_finite());
        assert!(speedup_of(1e-3, 0.0).is_finite());
        assert_eq!(speedup_of(0.0, 0.0), 1.0);
        // Finite ordinary measurements are untouched by the 1 ns floor.
        assert_eq!(throughput(1_000, 0.5), 2_000.0);
        assert_eq!(speedup_of(0.5, 0.25), 2.0);
    }

    #[test]
    fn telemetry_overhead_is_measured_finite_and_gated() {
        // Regression: the standalone guard indexed an empty sample and
        // panicked when asked for zero iterations; one pair must give a
        // usable figure.
        let report = quick_run(None);
        assert!(report.telemetry_match, "profiled and plain runs agree");
        assert!(report.telemetry_cycles > 0);
        let record = report.record();
        let metric = record
            .get("telemetry_overhead_pct")
            .expect("telemetry metric present");
        assert!(metric.value.is_finite(), "{}", metric.value);
        assert_eq!(metric.better, Better::Lower);
        assert_eq!(
            metric.tolerance,
            Some(Tolerance::Limit(TELEMETRY_LIMIT_PCT))
        );
        assert!(report
            .render_table()
            .contains("telemetry: gemm f32 32768B team 8"));
    }

    #[test]
    fn labeling_throughput_is_measured_and_finite() {
        let report = quick_run(None);
        assert!(report.labeling_samples > 0, "no kernels labelled");
        assert!(report.labeling_threads > 0);
        assert!(report.labeling_samples_per_s > 0.0);
        assert!(report.labeling_samples_per_s.is_finite());
        // The observed pass ran and its overhead ratio is a usable number.
        assert!(report.labeling_observed_wall_s > 0.0);
        assert!(report.labeling_observed_samples_per_s > 0.0);
        assert!(report.labeling_journal_overhead > 0.0);
        assert!(report.labeling_journal_overhead.is_finite());
        // Both throughput lines reach the rendered table.
        let table = report.render_table();
        assert!(table.contains("labeling:"), "table: {table}");
        assert!(table.contains("labeling+journal:"), "table: {table}");
    }

    #[test]
    fn journaled_bench_writes_a_valid_staged_journal() {
        let mut journal = pulp_obs::JournalWriter::in_memory("bench_sim", "cafe", 7);
        quick_run(Some(&mut journal));
        let text = journal.finalize_to_string().expect("finalize");
        let parsed = pulp_obs::JournalReader::read_str(&text).expect("journal validates");
        assert!(parsed.ok(), "journal must finalize ok=true");
        let stages: Vec<&str> = parsed
            .events
            .iter()
            .filter_map(|e| match e {
                pulp_obs::JournalEvent::StageStart { stage } => Some(stage.as_str()),
                _ => None,
            })
            .collect();
        let mut expected: Vec<&str> = BASKETS.to_vec();
        expected.extend(["telemetry", "labeling"]);
        assert_eq!(stages, expected);
        // The record's `bench_record` tail is the runner's to write, once
        // for every bench (see `repro::run`).
        assert!(!parsed
            .events
            .iter()
            .any(|e| matches!(e, pulp_obs::JournalEvent::BenchRecord { .. })));
    }

    #[test]
    fn record_gates_throughput_and_the_speedup_floor() {
        let row = SimBenchRow {
            basket: "alu".to_string(),
            cores: 8,
            cycles: 40_050,
            ff_wall_s: 0.007,
            oracle_wall_s: 0.007,
            ff_cycles_per_s: 5.7e6,
            oracle_cycles_per_s: 5.7e6,
            speedup: 1.0,
            skip_ratio: 0.001,
            spans: 1,
            oracle_match: true,
            horizon_hit_rate: 0.3,
            horizon_scan_s: 1e-6,
            horizon_step_s: 0.009,
            horizon_scan_share: 1e-4,
        };
        let dma = SimBenchRow {
            basket: "barrier_dma".to_string(),
            cores: 2,
            skip_ratio: 0.9,
            ..row.clone()
        };
        let report = SimBenchReport {
            bench: "sim".to_string(),
            quick: false,
            rows: vec![row, dma],
            labeling_samples: 24,
            labeling_threads: 1,
            labeling_wall_s: 0.12,
            labeling_samples_per_s: 200.0,
            labeling_observed_wall_s: 0.12,
            labeling_observed_samples_per_s: 200.0,
            labeling_journal_overhead: 1.0,
            telemetry_cycles: 400_000,
            telemetry_overhead_pct: 0.3,
            telemetry_match: true,
        };
        let record = report.record();
        assert_eq!(
            (record.bench.as_str(), record.profile.as_str()),
            ("sim", "full")
        );
        assert_eq!(
            record.metrics.len(),
            2 * 13 + 7 + 3,
            "every row, labeling and telemetry figure"
        );
        let gate = |name: &str| record.get(name).and_then(|m| m.tolerance);
        let throughput = Some(Tolerance::Relative(THROUGHPUT_TOLERANCE));
        assert_eq!(gate("alu@8/ff_cycles_per_s"), throughput);
        assert_eq!(gate("labeling_samples_per_s"), throughput);
        assert_eq!(gate("alu@8/speedup"), Some(Tolerance::Limit(SPEEDUP_FLOOR)));
        assert_eq!(gate("alu@8/oracle_cycles_per_s"), None);
        assert_eq!(
            gate("telemetry_overhead_pct"),
            Some(Tolerance::Limit(TELEMETRY_LIMIT_PCT))
        );
        assert_eq!(record.get("alu@8/oracle_match").map(|m| m.value), Some(1.0));
        assert_eq!(gate("alu@8/spans"), None, "only barrier_dma must skip");
        assert!(record.regressions(&record).expect("comparable").is_empty());
        assert_eq!(record.breaches(), Vec::<String>::new());

        // Each invariant, broken alone, is a breach naming its metric.
        let faults: [(&str, Fault); 5] = [
            ("alu@8/oracle_match", |r| r.rows[0].oracle_match = false),
            ("barrier_dma@2/spans", |r| r.rows[1].spans = 0),
            ("telemetry_match", |r| r.telemetry_match = false),
            ("alu@8/speedup", |r| r.rows[0].speedup = 0.5),
            ("telemetry_overhead_pct", |r| {
                r.telemetry_overhead_pct = f64::NAN
            }),
        ];
        for (metric, fault) in faults {
            let mut broken = report.clone();
            fault(&mut broken);
            let breaches = broken.record().breaches();
            assert_eq!(breaches.len(), 1, "{metric}: {breaches:?}");
            assert!(
                breaches[0].starts_with(&format!("{metric}: ")),
                "{breaches:?}"
            );
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = quick_run(None);
        let json = serde_json::to_string_pretty(&report).expect("serialise");
        let back: SimBenchReport = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, report);
    }
}
