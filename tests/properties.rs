//! Property-based tests over the core invariants of the stack.

use kernel_ir::{lower, DType, KernelBuilder, Suite};
use proptest::prelude::*;
use pulp_energy_model::{energy_of, energy_waterfall, replay_oracle, EnergyModel};
use pulp_ml::{stratified_folds, tolerance_accuracy};
use pulp_sim::{
    render_line, simulate, simulate_opts, simulate_traced, ClusterConfig, CoreTimeline, FpOp,
    OpKind, Program, SegOp, SimOptions, SimScratch, SimStats, TraceEvent, VecSink,
};

fn config() -> ClusterConfig {
    ClusterConfig::default()
}

/// Side of the square matrices a random kernel's inner loop may walk.
const SIDE: usize = 64;

/// A random kernel: 1 parallel loop over a random trip count, a random
/// body mix, optionally a nested sequential loop of up to 64 trips: on one
/// vector, or down a row of one matrix and a column of another
/// (`i*n + k` next to `k*n + i`), so that accesses issued in one cycle
/// move through the banks with different strides.
fn arb_kernel() -> impl Strategy<Value = kernel_ir::Kernel> {
    (
        1u64..200,       // parallel trip
        0u32..6,         // compute ops
        0u32..3,         // loads
        0u32..2,         // stores
        0u8..3,          // nested loop: none, on the vector, on the matrices
        1u64..65,        // nested trip
        prop::bool::ANY, // f32?
        prop::bool::ANY, // critical?
    )
        .prop_map(
            |(trip, ops, loads, stores, nested, ntrip, is_f32, critical)| {
                let dtype = if is_f32 { DType::F32 } else { DType::I32 };
                let n = 256usize;
                let mut b = KernelBuilder::new("prop", Suite::Custom, dtype, n * 4);
                let x = b.array("x", n);
                let acc = b.array("acc", 4);
                let rows = b.array("rows", SIDE * SIDE);
                let cols = b.array("cols", SIDE * SIDE);
                let side = if nested == 2 { SIDE } else { n };
                b.par_for(trip.min(side as u64), |b, i| {
                    for _ in 0..loads {
                        b.load(x, i);
                    }
                    b.compute(ops);
                    match nested {
                        1 => b.for_(ntrip, |b, _j| {
                            b.load(x, i);
                            b.compute(1);
                        }),
                        2 => b.for_(ntrip, |b, k| {
                            b.load(rows, i * SIDE + k);
                            b.load(cols, k * SIDE + i);
                            b.compute(1);
                        }),
                        _ => {}
                    }
                    for _ in 0..stores {
                        b.store(x, i);
                    }
                    if critical {
                        b.critical(|b| {
                            b.load(acc, 0);
                            b.alu(1);
                            b.store(acc, 0);
                        });
                    }
                });
                b.build()
                    .expect("generated kernel is valid by construction")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random kernels simulate successfully at every team size 1..=8,
    /// attribute every cycle of every core to exactly one cause, and keep
    /// their memory traffic invariant across team sizes.
    #[test]
    fn traffic_conservation_on_random_kernels(kernel in arb_kernel()) {
        let cfg = config();
        let mut reference = None;
        for team in 1..=8 {
            let lowered = lower(&kernel, team, &cfg).expect("lower");
            let stats = simulate(&cfg, &lowered.program).expect("simulate");
            prop_assert_eq!(stats.check_consistency(), Ok(()));
            for (core, c) in stats.cores.iter().enumerate() {
                prop_assert_eq!(
                    c.breakdown.total(), stats.cycles,
                    "team {} core {}: causes do not tile the run", team, core
                );
            }
            let traffic = (stats.l1_reads(), stats.l1_writes());
            match reference {
                None => reference = Some(traffic),
                Some(r) => prop_assert_eq!(traffic, r),
            }
        }
    }

    /// Energy accounting is strictly monotone in added work.
    #[test]
    fn energy_grows_with_work(extra in 1u32..64) {
        let cfg = config();
        let model = EnergyModel::table1();
        let build = |n: u32| {
            let mut b = KernelBuilder::new("w", Suite::Custom, DType::I32, 64);
            b.par_for(4, |b, _| b.alu(n));
            b.build().expect("valid")
        };
        let energy = |k: &kernel_ir::Kernel| {
            let lowered = lower(k, 2, &cfg).expect("lower");
            let stats = simulate(&cfg, &lowered.program).expect("simulate");
            energy_of(&stats, &model, &cfg).total()
        };
        let small = energy(&build(4));
        let big = energy(&build(4 + extra));
        prop_assert!(big > small, "{big} !> {small}");
    }

    /// The trace path reconstructs the fast path exactly for random
    /// kernels.
    #[test]
    fn trace_parity_on_random_kernels(kernel in arb_kernel()) {
        let cfg = config();
        let lowered = lower(&kernel, 3, &cfg).expect("lower");
        let (direct, replayed) = replay_oracle(&cfg, &lowered.program, 50_000_000);
        // Replay reconstructs architectural state; fast-forward span
        // counters are diagnostics the trace does not carry.
        prop_assert_eq!(direct.without_fast_forward(), replayed);
    }

    /// Rendered trace lines always parse back.
    #[test]
    fn trace_lines_round_trip(
        cycle in 0u64..1_000_000,
        core in 0usize..8,
        bank in 0usize..16,
        kind in prop::sample::select(vec![
            OpKind::Alu, OpKind::Mul, OpKind::Div, OpKind::Fp(FpOp::Add),
            OpKind::Fp(FpOp::Div), OpKind::Branch, OpKind::Jump, OpKind::Nop,
        ]),
        which in 0usize..6,
    ) {
        let event = match which {
            0 => TraceEvent::Insn { core, kind, addr: None },
            1 => TraceEvent::Stall {
                core,
                cause: pulp_sim::CycleCause::ALL[(cycle % 10) as usize],
            },
            2 => TraceEvent::CgEnter {
                core,
                cause: pulp_sim::CycleCause::ALL[(core + bank) % 10],
            },
            3 => TraceEvent::L1Access { bank, write: cycle % 2 == 0 },
            4 => TraceEvent::L1Conflict { bank },
            _ => TraceEvent::Insn { core, kind: OpKind::Load, addr: Some(pulp_sim::TCDM_BASE + (cycle as u32 % 1024) * 4) },
        };
        let mut line = String::new();
        render_line(&mut line, cycle, event);
        let parsed = pulp_energy_model::parse_line(&line);
        prop_assert!(parsed.is_some(), "unparsable line: {line}");
        prop_assert_eq!(parsed.expect("parsed").cycle, cycle);
    }

    /// Stratified folds always partition the index set.
    #[test]
    fn folds_partition(labels in prop::collection::vec(0usize..5, 10..200), k in 2usize..10, seed in 0u64..100) {
        let folds = stratified_folds(&labels, k, seed);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..labels.len()).collect::<Vec<_>>());
    }

    /// Tolerance accuracy is a fraction, monotone in the tolerance, for
    /// any energies.
    #[test]
    fn tolerance_accuracy_is_monotone(
        energies in prop::collection::vec(
            prop::collection::vec(1.0f64..1000.0, 8),
            1..40,
        ),
        preds in prop::collection::vec(0usize..8, 40),
    ) {
        let preds = &preds[..energies.len()];
        let mut last = 0.0;
        for t in [0.0, 0.05, 0.2, 1.0, 10.0] {
            let acc = tolerance_accuracy(preds, &energies, t);
            prop_assert!((0.0..=1.0).contains(&acc), "accuracy {} at {}", acc, t);
            prop_assert!(acc >= last - 1e-12);
            last = acc;
        }
    }

    /// Every memory access of a lowered random kernel lands inside one of
    /// the kernel's declared array windows (no stray addresses escape the
    /// lowering's layout).
    #[test]
    fn lowered_addresses_stay_in_declared_arrays(kernel in arb_kernel(), team in 1usize..9) {
        use pulp_sim::{TraceEvent, VecSink};
        let cfg = config();
        let lowered = lower(&kernel, team, &cfg).expect("lower");
        // Recompute each array's byte window from the deterministic layout.
        let windows: Vec<(u32, u32)> = kernel
            .arrays
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let base = lowered.layout.base(kernel_ir::ArrayId::for_tests(i as u32));
                (base, base + a.bytes() as u32)
            })
            .collect();
        let mut sink = VecSink::new();
        simulate_traced(&cfg, &lowered.program, 50_000_000, &mut sink).expect("simulate");
        for (_, e) in &sink.events {
            if let TraceEvent::Insn { addr: Some(a), .. } = e {
                prop_assert!(
                    windows.iter().any(|&(lo, hi)| (lo..hi).contains(a)),
                    "address {a:#x} outside every array window {windows:?}"
                );
            }
        }
    }

    /// Unrolling preserves simulated memory traffic for random kernels.
    #[test]
    fn unrolling_is_semantics_preserving(kernel in arb_kernel(), factor in 2u32..6) {
        let cfg = config();
        let unrolled = kernel_ir::unroll_innermost(&kernel, factor);
        prop_assert!(kernel_ir::validate(&unrolled).is_ok());
        let traffic = |k: &kernel_ir::Kernel| {
            let lowered = lower(k, 2, &cfg).expect("lower");
            let s = simulate(&cfg, &lowered.program).expect("simulate");
            (s.l1_reads(), s.l1_writes())
        };
        prop_assert_eq!(traffic(&kernel), traffic(&unrolled));
    }

    /// Programs of random straight-line ops never break the simulator.
    #[test]
    fn random_straightline_programs_simulate(
        ops in prop::collection::vec(0usize..6, 1..64),
        team in 1usize..9,
    ) {
        let stream: Vec<SegOp> = ops
            .iter()
            .map(|&o| match o {
                0 => SegOp::Instr { kind: OpKind::Alu, addr: None },
                1 => SegOp::Instr { kind: OpKind::Mul, addr: None },
                2 => SegOp::Instr { kind: OpKind::Fp(FpOp::Mul), addr: None },
                3 => SegOp::Instr {
                    kind: OpKind::Load,
                    addr: Some(pulp_sim::AddrExpr::constant(pulp_sim::TCDM_BASE)),
                },
                4 => SegOp::Instr {
                    kind: OpKind::Store,
                    addr: Some(pulp_sim::AddrExpr::constant(pulp_sim::TCDM_BASE + 64)),
                },
                _ => SegOp::Instr { kind: OpKind::Nop, addr: None },
            })
            .collect();
        let program = Program::new(vec![stream; team]);
        let stats = simulate(&config(), &program).expect("simulate");
        prop_assert_eq!(stats.check_consistency(), Ok(()));
        prop_assert_eq!(stats.total_retired(), (ops.len() * team) as u64);
    }

    /// Wall time is the only non-deterministic manifest field; no value of
    /// it (on either side) may perturb `manifest_hash`, while any change
    /// to a provenance field must.
    #[test]
    fn manifest_hash_ignores_wall_time_only(
        wall_a in 0u64..u64::MAX,
        wall_b in 0u64..u64::MAX,
        seed in 0u64..1_000_000,
    ) {
        use pulp_energy::RunManifest;
        use pulp_energy_model::EnergyModel;
        let base = RunManifest::new("prop", &config(), &EnergyModel::table1()).with_seed(seed);
        let a = base.clone().with_wall_time_ms(wall_a);
        let b = base.clone().with_wall_time_ms(wall_b);
        prop_assert_eq!(a.manifest_hash(), b.manifest_hash());
        prop_assert_eq!(a.manifest_hash(), base.manifest_hash());
        // Wall time does change the raw encoding when the values differ —
        // the hash's indifference is deliberate, not vacuous.
        if wall_a != wall_b {
            prop_assert_ne!(a.to_json_pretty(), b.to_json_pretty());
        }
        prop_assert_ne!(
            base.clone().with_seed(seed + 1).manifest_hash(),
            base.manifest_hash()
        );
    }
}

/// One run's statistics, trace-event stream, core timeline and regions.
type Observed = (
    SimStats,
    Vec<(u64, TraceEvent)>,
    Vec<Vec<pulp_sim::CauseRun>>,
    Vec<pulp_sim::RegionProfile>,
);

/// One run of a lowered kernel, observed.
fn observed_run(
    config: &ClusterConfig,
    program: &Program,
    opts: &SimOptions,
    scratch: &mut SimScratch,
) -> Observed {
    let mut sink = VecSink::new();
    let mut timeline = CoreTimeline::default();
    let stats = simulate_opts(config, program, opts, &mut sink, &mut timeline, scratch)
        .expect("lowered kernels simulate");
    let regions = timeline.regions(stats.cycles);
    (stats, sink.events, timeline.lanes(), regions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On lowered random kernels at every team size, the fast-forward (the
    /// event horizon and the periodic loop skip) equals the single-step
    /// oracle: statistics, trace-event stream, telemetry lanes and
    /// regions. And the energy waterfall's components sum to the total
    /// `energy_of` reports.
    #[test]
    fn fast_forward_matches_oracle_on_lowered_kernels(kernel in arb_kernel()) {
        let cfg = config();
        let model = EnergyModel::table1();
        let mut scratch = SimScratch::new();
        for team in 1..=8 {
            let program = lower(&kernel, team, &cfg).expect("lower").program;
            let (ff, ff_events, ff_lanes, ff_regions) =
                observed_run(&cfg, &program, &SimOptions::default(), &mut scratch);
            let (oracle, events, lanes, regions) =
                observed_run(&cfg, &program, &SimOptions::oracle(), &mut scratch);
            prop_assert_eq!(ff.without_fast_forward(), oracle.clone(), "team {}", team);
            prop_assert!(ff_events == events, "team {}: trace events differ", team);
            prop_assert_eq!(ff_lanes, lanes, "team {}", team);
            prop_assert_eq!(ff_regions, regions, "team {}", team);
            let waterfall = energy_waterfall(&oracle, &model, &cfg);
            let total = energy_of(&oracle, &model, &cfg).total();
            prop_assert!(
                (waterfall.total() - total).abs() <= 1e-9 * total,
                "team {}: waterfall {} vs total {}", team, waterfall.total(), total
            );
        }
    }
}

/// The lowered-kernel differential above only means something if the
/// periodic skip engages on such kernels: a matrix row-by-column loop and
/// a vector loop, fixed, both skip most of their cycles at every team
/// size and stay equal to the oracle.
#[test]
fn period_skips_engage_on_lowered_loops() {
    let cfg = config();
    let mut b = KernelBuilder::new("rowcol", Suite::Custom, DType::F32, 4096);
    let rows = b.array("rows", SIDE * SIDE);
    let cols = b.array("cols", SIDE * SIDE);
    b.par_for(SIDE as u64, |b, i| {
        b.for_(SIDE as u64, |b, k| {
            b.load(rows, i * SIDE + k);
            b.load(cols, k * SIDE + i);
            b.compute(1);
        });
    });
    let kernel = b.build().expect("valid");
    let mut scratch = SimScratch::new();
    for team in 1..=8 {
        let program = lower(&kernel, team, &cfg).expect("lower").program;
        let (ff, ff_events, ff_lanes, _) =
            observed_run(&cfg, &program, &SimOptions::default(), &mut scratch);
        let (oracle, events, lanes, _) =
            observed_run(&cfg, &program, &SimOptions::oracle(), &mut scratch);
        assert!(ff.fast_forward.periods > 0, "team {team}: no period skip");
        assert!(
            ff.skip_ratio() > 0.5,
            "team {team}: skip ratio {}",
            ff.skip_ratio()
        );
        assert_eq!(ff.without_fast_forward(), oracle, "team {team}");
        assert!(ff_events == events, "team {team}: trace events differ");
        assert_eq!(ff_lanes, lanes, "team {team}");
    }
}

/// Every strict prefix of `text` (cut at char boundaries), then a few
/// garbage inputs: what a crash mid-write or a hostile file leaves behind.
fn truncations_and_garbage(text: &str) -> impl Iterator<Item = &str> {
    const GARBAGE: [&str; 8] = [
        "\0",
        "not json {{{",
        "null",
        "[]",
        "{\"unexpected\": true}",
        "\u{feff}{}",
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
        "{\"a\": 1e999999}\n",
    ];
    text.char_indices()
        .map(move |(i, _)| &text[..i])
        .chain(GARBAGE)
}

/// The on-disk readers reject a cut or garbage file with an `Err` or a
/// cache miss, and never panic.
#[test]
fn readers_reject_every_prefix_and_garbage_without_panicking() {
    use pulp_energy::{
        EnergyPredictor, LabeledDataset, PipelineOptions, StaticFeatureSet, SweepCache,
    };
    use pulp_energy_model::{DynamicFeatures, EnergySummary};
    use pulp_obs::{validate_journal, JournalReader};

    let data = LabeledDataset::build(&PipelineOptions::quick(&["vec_scale"])).expect("build");
    let model = EnergyPredictor::train(&data, StaticFeatureSet::All, Default::default())
        .expect("train")
        .to_json();
    assert!(EnergyPredictor::from_json(&model).is_ok());
    for input in truncations_and_garbage(&model) {
        assert!(
            EnergyPredictor::from_json(input).is_err(),
            "model {input:?}"
        );
    }

    let journal = include_str!("fixtures/sweep_journal.jsonl");
    assert!(validate_journal(journal).is_ok());
    for input in truncations_and_garbage(journal) {
        assert!(JournalReader::read_str(input).is_err(), "journal {input:?}");
        assert!(validate_journal(input).is_err(), "journal {input:?}");
    }

    let dir = std::env::temp_dir().join(format!("pulp-prefix-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = SweepCache::new(&dir).expect("open cache");
    let key = cache.key("vec_scale/f32/512", &config(), &EnergyModel::table1());
    let summaries: Vec<EnergySummary> = (1..=8)
        .map(|cores| EnergySummary {
            cores,
            energy_fj: 1000.0 * cores as f64 + 0.125,
            cycles: 10_000 / cores as u64,
            dynamic: DynamicFeatures::extract(&pulp_sim::SimStats::default()),
        })
        .collect();
    cache.store(&key, &summaries);
    let path = dir.join(key.file_name());
    let entry = std::fs::read_to_string(&path).expect("entry written");
    assert_eq!(cache.lookup(&key), Some(summaries));
    for input in truncations_and_garbage(&entry) {
        std::fs::write(&path, input).expect("rewrite entry");
        assert_eq!(cache.lookup(&key), None, "cache entry {input:?}");
    }
    assert_eq!(cache.stats().hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
