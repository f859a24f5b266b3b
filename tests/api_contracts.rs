//! API-guideline contracts across the workspace: serde round-trips for
//! data-structure types, `Send`/`Sync` for everything that crosses the
//! pipeline's worker threads, and error-type ergonomics.

use kernel_ir::Kernel;
use pulp_energy::pipeline::{LabeledDataset, PipelineOptions};
use pulp_sim::{ClusterConfig, Program, SimStats};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send::<ClusterConfig>();
    assert_sync::<ClusterConfig>();
    assert_send::<Program>();
    assert_sync::<Program>();
    assert_send::<SimStats>();
    assert_send::<Kernel>();
    assert_sync::<Kernel>();
    assert_send::<LabeledDataset>();
    assert_send::<pulp_ml::DecisionTree>();
    assert_sync::<pulp_ml::DecisionTree>();
    assert_send::<pulp_energy::EnergyPredictor>();
}

#[test]
fn error_types_implement_std_error() {
    assert_error::<pulp_sim::SimError>();
    assert_error::<pulp_sim::ValidateProgramError>();
    assert_error::<kernel_ir::ValidateKernelError>();
    assert_error::<kernel_ir::LowerError>();
    assert_error::<pulp_ml::DatasetError>();
    assert_error::<pulp_energy_model::ParseTraceError>();
    assert_error::<pulp_energy_model::ListenError>();
    assert_error::<pulp_energy::BuildDatasetError>();
    assert_error::<pulp_energy::MeasureError>();
    assert_error::<pulp_energy::PredictorError>();
}

#[test]
fn error_messages_are_lowercase_and_unpunctuated() {
    // C-GOOD-ERR: concise, lowercase, no trailing period.
    let messages = [
        pulp_sim::SimError::CycleLimit { budget: 10 }.to_string(),
        pulp_sim::SimError::Invariant("core 3: accounted 9 cycles of 10".into()).to_string(),
        kernel_ir::ValidateKernelError::NestedParallel.to_string(),
        kernel_ir::LowerError::ZeroChunk.to_string(),
    ];
    for m in messages {
        assert!(!m.ends_with('.'), "trailing period: {m}");
        let first = m.chars().next().expect("non-empty message");
        assert!(
            first.is_lowercase() || first.is_numeric(),
            "should start lowercase: {m}"
        );
    }
}

#[test]
fn config_round_trips_through_json() {
    let cfg = ClusterConfig::default().without_clock_gating();
    let json = serde_json::to_string(&cfg).expect("serialise");
    let back: ClusterConfig = serde_json::from_str(&json).expect("parse");
    assert_eq!(cfg, back);
}

#[test]
fn kernel_round_trips_through_json() {
    let kernel = pulp_kernels::registry()
        .into_iter()
        .find(|d| d.name == "gemm")
        .expect("kernel")
        .build(&pulp_kernels::KernelParams::new(
            kernel_ir::DType::F32,
            2048,
        ))
        .expect("build");
    let json = serde_json::to_string(&kernel).expect("serialise");
    let back: Kernel = serde_json::from_str(&json).expect("parse");
    assert_eq!(kernel, back);
}

#[test]
fn program_round_trips_through_json() {
    let kernel = pulp_kernels::registry()
        .into_iter()
        .find(|d| d.name == "fir")
        .expect("kernel")
        .build(&pulp_kernels::KernelParams::new(kernel_ir::DType::I32, 512))
        .expect("build");
    let lowered = kernel_ir::lower(&kernel, 3, &ClusterConfig::default()).expect("lower");
    let json = serde_json::to_string(&lowered.program).expect("serialise");
    let back: Program = serde_json::from_str(&json).expect("parse");
    assert_eq!(lowered.program, back);
    // And the deserialised program still runs identically.
    let cfg = ClusterConfig::default();
    let a = pulp_sim::simulate(&cfg, &lowered.program).expect("simulate");
    let b = pulp_sim::simulate(&cfg, &back).expect("simulate");
    assert_eq!(a, b);
}

#[test]
fn labeled_dataset_round_trips_through_json() {
    let data = LabeledDataset::build(&PipelineOptions::quick(&["vec_scale"])).expect("dataset");
    let json = serde_json::to_string(&data).expect("serialise");
    let back: LabeledDataset = serde_json::from_str(&json).expect("parse");
    assert_eq!(data, back);
}

#[test]
fn stats_round_trip_through_json() {
    let cfg = ClusterConfig::default();
    let kernel = pulp_kernels::registry()
        .into_iter()
        .find(|d| d.name == "vec_scale")
        .expect("kernel")
        .build(&pulp_kernels::KernelParams::new(kernel_ir::DType::I32, 512))
        .expect("build");
    let lowered = kernel_ir::lower(&kernel, 2, &cfg).expect("lower");
    let stats = pulp_sim::simulate(&cfg, &lowered.program).expect("simulate");
    let json = serde_json::to_string(&stats).expect("serialise");
    let back: SimStats = serde_json::from_str(&json).expect("parse");
    assert_eq!(stats, back);
}
