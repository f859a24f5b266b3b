//! Cross-crate integration: dataset kernels → lowering → simulation →
//! energy, with conservation checks and trace-path parity on real kernels.

use kernel_ir::{lower, DType};
use pulp_energy_model::{energy_of, replay_oracle, EnergyModel};
use pulp_kernels::{registry, KernelParams};
use pulp_sim::{simulate, ClusterConfig};

fn config() -> ClusterConfig {
    ClusterConfig::default()
}

/// Every kernel in the registry must lower and simulate at every team size
/// (smallest payload: this is the whole dataset's plumbing in one test).
#[test]
fn all_kernels_simulate_at_all_team_sizes() {
    let cfg = config();
    let model = EnergyModel::table1();
    for def in registry() {
        for &dtype in def.dtypes {
            let kernel = def.build(&KernelParams::new(dtype, 512)).expect("build");
            for team in 1..=8 {
                let lowered = lower(&kernel, team, &cfg).expect("lower");
                let stats = simulate(&cfg, &lowered.program)
                    .unwrap_or_else(|e| panic!("{}@{team}: {e}", def.name));
                assert!(stats.check_consistency().is_ok(), "{}@{team}", def.name);
                let energy = energy_of(&stats, &model, &cfg);
                assert!(energy.total() > 0.0, "{}@{team}: zero energy", def.name);
            }
        }
    }
}

/// The amount of payload work (memory accesses) must not depend on the
/// team size — parallelisation only redistributes it.
#[test]
fn memory_traffic_is_team_invariant() {
    let cfg = config();
    for name in ["gemm", "fir", "stream_copy", "jacobi-2d", "saxpy_chunked"] {
        let def = registry()
            .into_iter()
            .find(|d| d.name == name)
            .expect("kernel");
        let kernel = def
            .build(&KernelParams::new(DType::I32, 2048))
            .expect("build");
        let reference = {
            let lowered = lower(&kernel, 1, &cfg).expect("lower");
            let s = simulate(&cfg, &lowered.program).expect("simulate");
            (s.l1_reads(), s.l1_writes())
        };
        for team in 2..=8 {
            let lowered = lower(&kernel, team, &cfg).expect("lower");
            let s = simulate(&cfg, &lowered.program).expect("simulate");
            assert_eq!(
                (s.l1_reads(), s.l1_writes()),
                reference,
                "{name}@{team}: traffic changed"
            );
        }
    }
}

/// More cores must never make a kernel slower in cycles (the energy
/// optimum may still be below 8, but wall-clock is monotone or flat within
/// a small tolerance for convoy effects).
#[test]
fn cycles_do_not_explode_with_cores() {
    let cfg = config();
    for name in ["gemm", "compute_dense", "reduction_critical"] {
        let def = registry()
            .into_iter()
            .find(|d| d.name == name)
            .expect("kernel");
        let kernel = def
            .build(&KernelParams::new(DType::I32, 8196))
            .expect("build");
        let c1 = {
            let lowered = lower(&kernel, 1, &cfg).expect("lower");
            simulate(&cfg, &lowered.program).expect("simulate").cycles
        };
        let c8 = {
            let lowered = lower(&kernel, 8, &cfg).expect("lower");
            simulate(&cfg, &lowered.program).expect("simulate").cycles
        };
        assert!(
            c8 <= c1 + c1 / 4,
            "{name}: 8 cores took {c8} cycles vs {c1} on one core"
        );
    }
}

/// Trace replay through the listener stack reconstructs the simulator's
/// statistics exactly, for a real dataset kernel with contention.
#[test]
fn trace_parity_on_dataset_kernel() {
    let cfg = config();
    let def = registry()
        .into_iter()
        .find(|d| d.name == "bank_hammer")
        .expect("kernel");
    let kernel = def
        .build(&KernelParams::new(DType::F32, 512))
        .expect("build");
    let lowered = lower(&kernel, 4, &cfg).expect("lower");
    let (direct, replayed) = replay_oracle(&cfg, &lowered.program, 10_000_000);
    // Replay reconstructs architectural state; fast-forward span counters
    // are diagnostics the trace does not carry.
    assert_eq!(direct.without_fast_forward(), replayed);
}

/// Ablations must act in the expected direction on a conflict-heavy
/// kernel.
#[test]
fn ablations_change_energy_in_the_expected_direction() {
    let model = EnergyModel::table1();
    let def = registry()
        .into_iter()
        .find(|d| d.name == "bank_hammer")
        .expect("kernel");
    let kernel = def
        .build(&KernelParams::new(DType::I32, 2048))
        .expect("build");

    let energy_with = |cfg: &ClusterConfig| {
        let lowered = lower(&kernel, 8, cfg).expect("lower");
        let stats = simulate(cfg, &lowered.program).expect("simulate");
        (energy_of(&stats, &model, cfg).total(), stats.cycles)
    };

    let base = config();
    let (e_base, c_base) = energy_with(&base);
    let (e_ideal, c_ideal) = energy_with(&base.clone().without_bank_conflicts());
    assert!(c_ideal < c_base, "removing conflicts must shorten the run");
    assert!(e_ideal < e_base, "removing conflicts must save energy");

    let (e_nocg, _) = energy_with(&base.clone().without_clock_gating());
    assert!(
        e_nocg > e_base,
        "without clock gating, sleeping cores burn active-wait energy"
    );
}

/// The energy trade-off exists: for at least one dataset kernel the
/// minimum-energy team is strictly smaller than the fastest team.
#[test]
fn energy_optimum_differs_from_speed_optimum_somewhere() {
    let cfg = config();
    let model = EnergyModel::table1();
    let mut found = false;
    for name in ["fpu_storm", "bank_hammer", "critical_light", "tiny_regions"] {
        let def = registry()
            .into_iter()
            .find(|d| d.name == name)
            .expect("kernel");
        for &dtype in def.dtypes {
            let kernel = def.build(&KernelParams::new(dtype, 8196)).expect("build");
            let mut energies = Vec::new();
            let mut cycles = Vec::new();
            for team in 1..=8 {
                let lowered = lower(&kernel, team, &cfg).expect("lower");
                let s = simulate(&cfg, &lowered.program).expect("simulate");
                energies.push(energy_of(&s, &model, &cfg).total());
                cycles.push(s.cycles);
            }
            let e_best = (0..8)
                .min_by(|&a, &b| energies[a].partial_cmp(&energies[b]).expect("finite"))
                .expect("nonempty");
            let c_best = (0..8).min_by_key(|&i| cycles[i]).expect("nonempty");
            if e_best < c_best {
                found = true;
            }
        }
    }
    assert!(
        found,
        "expected at least one kernel where energy argmin < speed argmin"
    );
}
