//! Differential test: the event-horizon fast-forward against the
//! single-step oracle on randomized programs.
//!
//! Programs are generated as a sequence of episodes over a shared
//! synchronisation skeleton (so they always validate): per-core compute
//! blocks, blocking and asynchronous DMA transfers, fork/join regions and
//! critical sections, each closed by a cluster barrier. Every sampled
//! program runs at 1..=8 cores through both simulator modes, with clock
//! gating on and in the clock-gating ablation, and (in the first property)
//! under fork and barrier latencies drawn down to zero, and must produce
//! bit-identical architectural statistics (including the per-core
//! 10-cause cycle histograms), an identical trace-event stream and
//! identical serial/parallel regions derived by `CoreTimeline::regions`,
//! which tile the run.
//!
//! Loop programs exercise the periodic loop skip: every core runs the same
//! innermost loop, optionally inside an outer one, over ALU, multiply,
//! paired-FPU (cores `c` and `c + 4` share an FPU) and divide ops, loads
//! and stores that walk rows and columns with different strides, a
//! constant address every core hits, and critical sections. They must
//! match the oracle too, and a cycle budget that runs out mid-loop must
//! run out at the same cycle.

use proptest::prelude::*;
use pulp_sim::{
    simulate_opts, AddrExpr, ClusterConfig, CoreTimeline, FpOp, OpKind, Program, RegionProfile,
    SegOp, SimError, SimOptions, SimScratch, SimStats, TraceEvent, VecSink, TCDM_BASE,
};

fn instr(kind: OpKind) -> SegOp {
    SegOp::Instr { kind, addr: None }
}

fn load(addr: u32) -> SegOp {
    SegOp::Instr {
        kind: OpKind::Load,
        addr: Some(AddrExpr::constant(addr)),
    }
}

/// One episode of the shared synchronisation skeleton.
#[derive(Debug, Clone)]
enum Episode {
    /// Per-core op mixes (index selects kind), each `(mix, reps)`.
    Compute(Vec<(u8, u8)>),
    /// Master runs a blocking DMA while workers head to the barrier.
    Dma { words: u64, inbound: bool },
    /// Master overlaps an async DMA with compute, then drains it.
    DmaAsync { words: u64, overlap: u8 },
    /// Fork/join region with per-core work.
    Fork(Vec<u8>),
    /// Every core takes the cluster critical section.
    Critical,
    /// Every core runs `trip` iterations of `body` (op codes, see
    /// [`loop_op`]), inside an outer loop of `outer` trips when it is
    /// above 1, each iteration optionally taking the critical section.
    Loop {
        trip: u64,
        outer: u64,
        body: Vec<u8>,
        stride: i64,
        critical: bool,
    },
}

/// One op of a loop body: `code` picks ALU, multiply, a pipelined FP op
/// (which the core's FPU partner contends for), an FP divide, a load down
/// a row (`stride` bytes per iteration), a store down a column, or a load
/// of one address every core hits. Addresses move with the inner loop at
/// `depth` and, when `depth` is 1, with the outer loop at depth 0. The
/// widest stride walks the stores out of the TCDM in the longest nests.
fn loop_op(code: u8, core: usize, depth: u8, stride: i64) -> SegOp {
    let access = |kind, base: u32, step: i64| {
        let mut terms = vec![(depth, step)];
        if depth == 1 {
            terms.push((0, 48 * step + 4));
        }
        SegOp::Instr {
            kind,
            addr: Some(AddrExpr {
                base: i64::from(base),
                terms,
            }),
        }
    };
    let row = TCDM_BASE + 64 * core as u32;
    match code % 7 {
        0 => instr(OpKind::Alu),
        1 => instr(OpKind::Mul),
        2 => instr(OpKind::Fp(FpOp::Mul)),
        3 => instr(OpKind::Fp(FpOp::Div)),
        4 => access(OpKind::Load, row, stride),
        5 => access(OpKind::Store, row + 0x4000, stride * 8 + 4),
        _ => load(TCDM_BASE + 0xC000),
    }
}

fn ops_of_mix(mix: u8, reps: u8, out: &mut Vec<SegOp>) {
    for r in 0..reps {
        out.push(match mix % 5 {
            0 => instr(OpKind::Alu),
            1 => instr(OpKind::Mul),
            2 => instr(OpKind::Fp(FpOp::Div)),
            3 => load(TCDM_BASE + u32::from(r % 4) * 4),
            _ => load(TCDM_BASE), // all cores on one bank: conflict stalls
        });
    }
}

/// Expands the episode list into one stream per core. Every episode ends
/// with a cluster barrier, so the synchronisation skeleton matches across
/// cores by construction and the program always validates.
fn program_of_episodes(team: usize, episodes: &[Episode]) -> Program {
    let mut streams = vec![Vec::new(); team];
    for ep in episodes {
        match ep {
            Episode::Compute(mixes) => {
                for (core, stream) in streams.iter_mut().enumerate() {
                    let (mix, reps) = mixes[core % mixes.len()];
                    ops_of_mix(mix, reps, stream);
                }
            }
            Episode::Dma { words, inbound } => {
                streams[0].push(SegOp::Dma {
                    words: *words,
                    inbound: *inbound,
                });
            }
            Episode::DmaAsync { words, overlap } => {
                streams[0].push(SegOp::DmaAsync {
                    words: *words,
                    inbound: true,
                });
                ops_of_mix(0, *overlap, &mut streams[0]);
                streams[0].push(SegOp::DmaWait);
            }
            Episode::Fork(work) => {
                for (core, stream) in streams.iter_mut().enumerate() {
                    stream.push(if core == 0 {
                        SegOp::Fork
                    } else {
                        SegOp::WaitFork
                    });
                    ops_of_mix(1, work[core % work.len()], stream);
                }
            }
            Episode::Critical => {
                for stream in &mut streams {
                    stream.push(SegOp::CriticalBegin);
                    stream.push(instr(OpKind::Alu));
                    stream.push(SegOp::CriticalEnd);
                }
            }
            Episode::Loop {
                trip,
                outer,
                body,
                stride,
                critical,
            } => {
                let depth = u8::from(*outer > 1);
                for (core, stream) in streams.iter_mut().enumerate() {
                    if depth == 1 {
                        stream.push(SegOp::LoopBegin { trip: *outer });
                        stream.push(instr(OpKind::Alu));
                    }
                    stream.push(SegOp::LoopBegin { trip: *trip });
                    stream.extend(body.iter().map(|&op| loop_op(op, core, depth, *stride)));
                    if *critical {
                        stream.push(SegOp::CriticalBegin);
                        stream.push(instr(OpKind::Alu));
                        stream.push(SegOp::CriticalEnd);
                    }
                    stream.push(SegOp::LoopEnd);
                    if depth == 1 {
                        stream.push(instr(OpKind::Branch));
                        stream.push(SegOp::LoopEnd);
                    }
                }
            }
        }
        for stream in &mut streams {
            stream.push(SegOp::Barrier);
        }
    }
    Program::new(streams)
}

fn arb_episode() -> impl Strategy<Value = Episode> {
    (
        0u8..5,
        prop::collection::vec((0u8..5, 0u8..12), 1..8),
        16u64..2048,
        prop::bool::ANY,
        prop::collection::vec(0u8..10, 1..8),
        0u8..8,
    )
        .prop_map(|(kind, mixes, words, inbound, work, overlap)| match kind {
            0 => Episode::Compute(mixes),
            1 => Episode::Dma { words, inbound },
            2 => Episode::DmaAsync {
                words: words / 2 + 16,
                overlap,
            },
            3 => Episode::Fork(work),
            _ => Episode::Critical,
        })
}

fn arb_loop() -> impl Strategy<Value = Episode> {
    (
        1u64..48,
        prop::sample::select(vec![1u64, 1, 2, 4]),
        prop::collection::vec(0u8..7, 1..6),
        prop::sample::select(vec![0i64, 4, 8, 20, 64]),
        prop::sample::select(vec![false, false, false, true]),
    )
        .prop_map(|(trip, outer, body, stride, critical)| Episode::Loop {
            trip,
            outer,
            body,
            stride,
            critical,
        })
}

/// One run's statistics, trace-event stream and region profile.
type Observed = (SimStats, Vec<(u64, TraceEvent)>, Vec<RegionProfile>);

/// One run, observed, or its error.
fn try_run(
    config: &ClusterConfig,
    program: &Program,
    opts: &SimOptions,
    scratch: &mut SimScratch,
) -> Result<Observed, SimError> {
    let mut sink = VecSink::new();
    let mut timeline = CoreTimeline::default();
    let stats = simulate_opts(config, program, opts, &mut sink, &mut timeline, scratch)?;
    let regions = timeline.regions(stats.cycles);
    Ok((stats, sink.events, regions))
}

/// One run of a program that terminates, observed.
fn run(
    config: &ClusterConfig,
    program: &Program,
    opts: &SimOptions,
    scratch: &mut SimScratch,
) -> Observed {
    try_run(config, program, opts, scratch).expect("episode programs always terminate")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fast-forward is bit-identical to the single-step oracle on random
    /// episode programs at every team size, with clock gating and in the
    /// clock-gating ablation (`repro ablation_platform`'s platform), and
    /// under fork and barrier latencies down to zero (an immediate fork, a
    /// release in the arrival cycle): same statistics, same 10-cause cycle
    /// histograms, same trace-event stream, same serial/parallel regions,
    /// which tile `[0, cycles)` × the cores.
    #[test]
    fn fast_forward_matches_oracle_on_random_programs(
        episodes in prop::collection::vec(arb_episode(), 1..6),
        team in 1usize..9,
        fork_latency in prop::sample::select(vec![0u32, 1, 2, 384]),
        fork_per_worker in prop::sample::select(vec![0u32, 24]),
        barrier_latency in prop::sample::select(vec![0u32, 1, 48]),
    ) {
        let program = program_of_episodes(team, &episodes);
        prop_assert_eq!(program.validate(), Ok(()));
        let ff_opts = SimOptions::default();
        let oracle_opts = SimOptions::oracle();
        let mut scratch = SimScratch::new();
        let base = ClusterConfig {
            fork_latency,
            fork_per_worker,
            barrier_latency,
            ..ClusterConfig::default()
        };
        for config in [base.clone(), base.without_clock_gating()] {
            let gating = config.model_clock_gating;
            let (ff, ff_events, ff_regions) = run(&config, &program, &ff_opts, &mut scratch);
            let (oracle, oracle_events, oracle_regions) =
                run(&config, &program, &oracle_opts, &mut scratch);
            // The oracle must never take a bulk span.
            prop_assert_eq!(oracle.fast_forward.spans, 0);
            prop_assert_eq!(oracle.fast_forward.skipped_cycles, 0);
            // Per-core cause histograms agree exactly.
            for (core, (a, b)) in ff.cores.iter().zip(oracle.cores.iter()).enumerate() {
                prop_assert_eq!(
                    &a.breakdown, &b.breakdown,
                    "gating {}: core {} cause histogram diverged", gating, core
                );
            }
            // The trace streams are identical event for event.
            prop_assert_eq!(ff_events, oracle_events, "gating {}", gating);
            // The regions tile the run: no gaps, and each region's cells
            // are its cycles times the cluster's cores.
            let mut covered = 0;
            for r in &ff_regions {
                prop_assert_eq!(
                    r.start_cycle, covered,
                    "gating {}: gap before {}", gating, r.label()
                );
                prop_assert_eq!(
                    r.breakdown.total(),
                    r.cycles() * config.num_cores as u64,
                    "gating {}: {} cells do not tile it", gating, r.label()
                );
                covered = r.end_cycle;
            }
            prop_assert_eq!(covered, ff.cycles, "gating {}", gating);
            // Every cycle lands in the same serial/parallel region.
            prop_assert_eq!(ff_regions, oracle_regions, "gating {}", gating);
            // Architectural state is bit-identical modulo the ff diagnostics.
            prop_assert_eq!(ff.without_fast_forward(), oracle, "gating {}", gating);
        }
    }

    /// The adaptive scan re-arm points never miss a skippable span: on
    /// random episode programs at every team size, adaptive scanning takes
    /// exactly the same bulk spans (count and skipped cycles) as scanning
    /// on every iteration, while computing the horizon no more often — and
    /// the architectural results stay bit-identical.
    #[test]
    fn adaptive_scan_never_misses_a_span_on_random_programs(
        episodes in prop::collection::vec(arb_episode(), 1..6),
        team in 1usize..9,
    ) {
        let config = ClusterConfig::default();
        let program = program_of_episodes(team, &episodes);
        prop_assert_eq!(program.validate(), Ok(()));
        let adaptive_opts = SimOptions::default(); // adaptive_scan: true
        let always_opts = SimOptions::default().with_adaptive_scan(false);
        let mut scratch = SimScratch::new();
        let (adaptive, adaptive_events, _) = run(&config, &program, &adaptive_opts, &mut scratch);
        let (always, always_events, _) = run(&config, &program, &always_opts, &mut scratch);
        // Same spans: an armed scan at every point the always-scan skips.
        prop_assert_eq!(adaptive.fast_forward.spans, always.fast_forward.spans);
        prop_assert_eq!(
            adaptive.fast_forward.skipped_cycles,
            always.fast_forward.skipped_cycles
        );
        // Adaptive never scans more often than once per iteration.
        prop_assert!(
            adaptive.fast_forward.horizon_computations
                <= always.fast_forward.horizon_computations,
            "adaptive scanned {} times vs always-scan's {}",
            adaptive.fast_forward.horizon_computations,
            always.fast_forward.horizon_computations
        );
        // And the architectural results are bit-identical.
        prop_assert_eq!(adaptive.without_fast_forward(), always.without_fast_forward());
        prop_assert_eq!(adaptive_events, always_events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Loop-heavy programs, between fork/join and compute episodes,
    /// match the oracle at every team size, with clock gating and in its
    /// ablation: statistics, trace events and regions. And a cycle budget
    /// that runs out inside the loops runs out alike.
    #[test]
    fn fast_forward_matches_oracle_on_loop_programs(
        loops in prop::collection::vec(arb_loop(), 1..4),
        others in prop::collection::vec(arb_episode(), 0..3),
        team in 1usize..9,
        cut in 1u64..100,
    ) {
        let mut episodes = loops;
        episodes.extend(others);
        let program = program_of_episodes(team, &episodes);
        prop_assert_eq!(program.validate(), Ok(()));
        let mut scratch = SimScratch::new();
        for config in [ClusterConfig::default(), ClusterConfig::default().without_clock_gating()] {
            let gating = config.model_clock_gating;
            let ff = try_run(&config, &program, &SimOptions::default(), &mut scratch);
            let oracle = try_run(&config, &program, &SimOptions::oracle(), &mut scratch);
            // A store walked out of the TCDM fails alike, at the same op.
            let (ff, oracle) = match (ff, oracle) {
                (Ok(ff), Ok(oracle)) => (ff, oracle),
                (ff, oracle) => {
                    prop_assert_eq!(ff.map(|r| r.0), oracle.map(|r| r.0), "gating {}", gating);
                    continue;
                }
            };
            let ((ff, ff_events, ff_regions), (oracle, oracle_events, oracle_regions)) = (ff, oracle);
            prop_assert_eq!(ff.without_fast_forward(), oracle.clone(), "gating {}", gating);
            prop_assert!(ff_events == oracle_events, "gating {}: trace events differ", gating);
            prop_assert_eq!(ff_regions, oracle_regions, "gating {}", gating);
            let budget = oracle.cycles * cut / 100;
            let limited = |opts: SimOptions, scratch: &mut SimScratch| {
                simulate_opts(
                    &config,
                    &program,
                    &opts.with_max_cycles(budget),
                    &mut pulp_sim::NullSink,
                    &mut pulp_sim::NoTelemetry,
                    scratch,
                )
            };
            let ff_cut = limited(SimOptions::default(), &mut scratch);
            let oracle_cut = limited(SimOptions::oracle(), &mut scratch);
            prop_assert_eq!(&ff_cut, &oracle_cut, "gating {} budget {}", gating, budget);
            prop_assert_eq!(oracle_cut, Err(SimError::CycleLimit { budget }));
        }
    }
}

/// The loop programs above only test the periodic skip if it engages:
/// a fixed loop program skips most of its cycles at every team size, with
/// and without clock gating, and matches the oracle.
#[test]
fn period_skips_engage_on_loop_programs() {
    let episodes = [
        Episode::Loop {
            trip: 40,
            outer: 4,
            body: vec![4, 2, 5, 0],
            stride: 4,
            critical: false,
        },
        Episode::Fork(vec![3, 1]),
        Episode::Loop {
            trip: 32,
            outer: 1,
            body: vec![3, 4, 6],
            stride: 8,
            critical: true,
        },
    ];
    let mut scratch = SimScratch::new();
    for team in 1..=8 {
        let program = program_of_episodes(team, &episodes);
        for config in [
            ClusterConfig::default(),
            ClusterConfig::default().without_clock_gating(),
        ] {
            let (ff, ff_events, ff_regions) =
                run(&config, &program, &SimOptions::default(), &mut scratch);
            let (oracle, oracle_events, oracle_regions) =
                run(&config, &program, &SimOptions::oracle(), &mut scratch);
            assert!(ff.fast_forward.periods > 0, "team {team}: no period skip");
            assert_eq!(ff.without_fast_forward(), oracle, "team {team}");
            assert!(
                ff_events == oracle_events,
                "team {team}: trace events differ"
            );
            assert_eq!(ff_regions, oracle_regions, "team {team}");
        }
    }
}

/// A fixed barrier/DMA-heavy regression program: long quiescent spans, so
/// the fast-forward must actually engage while staying bit-identical.
#[test]
fn fast_forward_engages_and_matches_on_dma_heavy_program() {
    let config = ClusterConfig::default();
    let episodes = [
        Episode::Dma {
            words: 4096,
            inbound: true,
        },
        Episode::Fork(vec![3, 1, 4, 1, 5]),
        Episode::Dma {
            words: 2048,
            inbound: false,
        },
        Episode::Critical,
    ];
    let mut scratch = SimScratch::new();
    for team in [2usize, 4, 8] {
        let program = program_of_episodes(team, &episodes);
        let (ff, ff_events, ff_regions) =
            run(&config, &program, &SimOptions::default(), &mut scratch);
        let (oracle, oracle_events, oracle_regions) =
            run(&config, &program, &SimOptions::oracle(), &mut scratch);
        assert!(
            ff.skip_ratio() > 0.5,
            "team {team}: expected heavy skipping, got {}",
            ff.skip_ratio()
        );
        assert_eq!(ff.without_fast_forward(), oracle, "team {team}");
        assert_eq!(ff_events, oracle_events, "team {team}");
        assert_eq!(ff_regions, oracle_regions, "team {team}");
    }
}
