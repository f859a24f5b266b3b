//! # pulp-energy — source-code classification for energy efficiency
//!
//! End-to-end reproduction of *"Source Code Classification for Energy
//! Efficiency in Parallel Ultra Low-Power Microcontrollers"* (DATE 2021):
//! predicting, from **static source-code features only**, the number of
//! PULP cluster cores (1–8) that minimises a kernel's energy.
//!
//! The crate wires the substrates together:
//!
//! * [`pulp_kernels`] — the 59-kernel Polybench/UTDSP/custom dataset;
//! * [`kernel_ir`] — static RAW/AGG features and OpenMP-style lowering;
//! * [`pulp_mca`] — LLVM-MCA-style static port-pressure features;
//! * [`pulp_sim`] — the cycle-level PULP cluster simulator (GVSOC stand-in);
//! * [`pulp_energy_model`] — the Table-I energy model and dynamic features;
//! * [`pulp_ml`] — decision tree, random forest and the CV protocol.
//!
//! The workflow (paper Figure 1) is: extract static features (A), simulate
//! each sample at 1..=8 cores (B, C), apply the energy model (D), label
//! with the arg-min-energy core count (E) and train/evaluate the decision
//! tree (F). [`LabeledDataset::build`] runs A–E, labelling through the
//! sweep driver [`sweep_kernels`] (one kernel alone: [`measure_kernel`]);
//! [`evaluation::tolerance_curve`] runs F under the paper's repeated
//! stratified cross-validation with an energy-waste tolerance sweep.
//!
//! # Examples
//!
//! Label a small kernel subset and evaluate static-feature classification:
//!
//! ```
//! use pulp_energy::{
//!     evaluation::{always_n_curve, tolerance_curve, Protocol},
//!     features::StaticFeatureSet,
//!     pipeline::{LabeledDataset, PipelineOptions},
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = LabeledDataset::build(&PipelineOptions::quick(&[
//!     "vec_scale", "fpu_storm", "bank_hammer",
//! ]))?;
//! let agg = data.static_dataset(StaticFeatureSet::Agg)?;
//! let tolerances = vec![0.0, 0.05];
//! let curve = tolerance_curve("AGG", &agg, &data.energies(), &tolerances, &Protocol::quick());
//! let naive = always_n_curve(8, &data.energies(), &tolerances);
//! assert!(curve.at(0.05).expect("grid") >= 0.0 && naive.at(0.05).expect("grid") <= 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod evaluation;
pub mod features;
pub mod labeling;
pub mod manifest;
pub mod pipeline;
pub mod predictor;
pub mod report;

pub use cache::{content_hash_hex, default_cache_version, CacheDirStats, CacheStats, SweepCache};
pub use evaluation::{
    always_n_curve, default_tolerances, rank_features, tolerance_curve, top_feature_columns,
    Protocol, RankedFeature, ToleranceCurve,
};
pub use features::{
    dynamic_feature_names, dynamic_feature_vector, static_feature_names, static_feature_vector,
    StaticFeatureSet,
};
pub use labeling::{
    measure_kernel, measure_kernel_with, sweep_kernels, BuildObserver, EnergyProfile,
    MeasureContext, MeasureError, NUM_CLASSES,
};
pub use manifest::RunManifest;
pub use pipeline::{BuildDatasetError, LabeledDataset, PipelineOptions, SampleRecord};
pub use predictor::{EnergyPredictor, PredictorError, PredictorMetadata};
