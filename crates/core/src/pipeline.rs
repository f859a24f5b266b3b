//! End-to-end dataset construction — the paper's Figure-1 workflow.
//!
//! [`LabeledDataset::build`] enumerates the 448 samples, extracts static
//! features (step A), simulates each sample at every team size (steps
//! B–C), applies the energy model (step D), labels each sample with its
//! minimum-energy class (step E) and collects everything into trainable
//! datasets (step F).

use crate::cache::SweepCache;
use crate::features::{
    dynamic_feature_names, dynamic_feature_vector, static_feature_names, static_feature_vector,
    StaticFeatureSet,
};
pub use crate::labeling::BuildObserver;
use crate::labeling::{sweep_kernels, MeasureContext, MeasureError, NUM_CLASSES};
use kernel_ir::{DType, Suite, ValidateKernelError};
use pulp_energy_model::EnergyModel;
use pulp_kernels::{all_samples, registry, SampleSpec, PAYLOAD_SIZES};
use pulp_ml::{Dataset, DatasetError};
use pulp_obs::{
    append_or_warn, journal_stage, JournalEvent, JournalWriter, LogFormat, Logger, Recorder, SpanId,
};
use pulp_sim::ClusterConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Options controlling dataset construction.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Cluster to simulate (ablation experiments swap this).
    pub config: ClusterConfig,
    /// Energy model applied to the runs.
    pub model: EnergyModel,
    /// Payload sizes to instantiate (defaults to the paper's four).
    pub payload_sizes: Vec<usize>,
    /// Restrict to kernels whose name appears here (`None` = all 59).
    pub kernel_filter: Option<Vec<String>>,
    /// Worker threads for the simulation sweep (`0` = all cores).
    pub threads: usize,
    /// Print measurement progress to stderr (`--progress` on
    /// `pulp_cli`).
    pub progress: bool,
    /// Content-addressed sweep cache (`pulp_cli` always opens one, at
    /// `--cache-dir` or its default directory); `None` simulates every
    /// sample from scratch. Shared across the worker threads.
    pub cache: Option<Arc<SweepCache>>,
    /// Per-run simulation cycle budget (`--max-cycles` on `pulp_cli`);
    /// a sample exceeding it fails the build with a `CycleLimit` error
    /// instead of spinning.
    pub max_cycles: u64,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            config: ClusterConfig::default(),
            model: EnergyModel::table1(),
            payload_sizes: PAYLOAD_SIZES.to_vec(),
            kernel_filter: None,
            threads: 0,
            progress: false,
            cache: None,
            max_cycles: pulp_sim::DEFAULT_MAX_CYCLES,
        }
    }
}

impl PipelineOptions {
    /// A reduced configuration for tests and quick demos: a kernel-name
    /// subset at two payload sizes.
    pub fn quick(kernels: &[&str]) -> Self {
        Self {
            kernel_filter: Some(kernels.iter().map(|s| s.to_string()).collect()),
            payload_sizes: vec![512, 2048],
            ..Self::default()
        }
    }
}

/// Errors produced while building the dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildDatasetError {
    /// A kernel failed to instantiate.
    Kernel {
        /// Sample id (`suite/name/dtype/payload`).
        sample: String,
        /// The underlying validation error.
        source: ValidateKernelError,
    },
    /// A sample failed to simulate.
    Measure {
        /// Sample id.
        sample: String,
        /// The underlying measurement error.
        source: MeasureError,
    },
    /// The assembled matrices were inconsistent.
    Dataset(DatasetError),
    /// The filter matched no kernels.
    EmptySelection,
}

impl fmt::Display for BuildDatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Kernel { sample, source } => write!(f, "{sample}: {source}"),
            Self::Measure { sample, source } => write!(f, "{sample}: {source}"),
            Self::Dataset(e) => write!(f, "dataset assembly: {e}"),
            Self::EmptySelection => write!(f, "kernel filter selected nothing"),
        }
    }
}

impl std::error::Error for BuildDatasetError {}

impl From<DatasetError> for BuildDatasetError {
    fn from(e: DatasetError) -> Self {
        Self::Dataset(e)
    }
}

/// One fully-measured dataset sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleRecord {
    /// `suite/name/dtype/payload` identifier.
    pub id: String,
    /// Kernel name.
    pub kernel: String,
    /// Originating suite.
    pub suite: Suite,
    /// Element type.
    pub dtype: DType,
    /// Payload bytes.
    pub payload_bytes: usize,
    /// Minimum-energy class (0-based; class `c` = `c + 1` cores).
    pub label: usize,
    /// Total energy (fJ) per class.
    pub energy: Vec<f64>,
    /// Kernel cycles per class.
    pub cycles: Vec<u64>,
    /// Static feature vector (20 dims).
    pub static_x: Vec<f64>,
    /// Dynamic feature vector (80 dims).
    pub dynamic_x: Vec<f64>,
}

/// The measured, labelled dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledDataset {
    /// All measured samples, in enumeration order.
    pub samples: Vec<SampleRecord>,
}

impl LabeledDataset {
    /// Builds the dataset per `opts`. This runs
    /// `samples × 8` cycle-level simulations; with default options expect
    /// minutes of CPU time (it parallelises over `opts.threads`).
    ///
    /// # Errors
    ///
    /// Propagates kernel-instantiation and simulation failures, tagged
    /// with the offending sample id.
    pub fn build(opts: &PipelineOptions) -> Result<Self, BuildDatasetError> {
        Self::build_observed(opts, &mut Recorder::new(), BuildObserver::default())
    }

    /// [`build`](Self::build) with telemetry and durable observation.
    ///
    /// `rec` receives `enumerate`, `measure` and `assemble` stage spans plus
    /// the per-sample spans of [`sweep_kernels`];
    /// [`MetricsRegistry::observe_recorder`](pulp_obs::MetricsRegistry::observe_recorder)
    /// turns them into the `pulp_pipeline_stage_ticks` histograms the
    /// prediction service exposes on `/metrics`. Stage start/end, the
    /// sweep's heartbeats and slow kernels and the cache summary go to
    /// `obs.journal`; `opts.progress` drives the live `[sweep]` line
    /// through `obs.logger`. The dataset is bit-identical to an unobserved
    /// build at any thread count.
    ///
    /// # Errors
    ///
    /// See [`build`](Self::build); of several failing samples the one
    /// enumerated first is reported, at any thread count. Journal write
    /// failures warn on stderr but never fail the build.
    pub fn build_observed(
        opts: &PipelineOptions,
        rec: &mut Recorder,
        obs: BuildObserver<'_>,
    ) -> Result<Self, BuildDatasetError> {
        let BuildObserver {
            mut journal,
            logger,
        } = obs;

        let (defs, specs) = stage("enumerate", rec, &mut journal, |rec, _, span| {
            let defs = registry();
            let specs: Vec<SampleSpec> = all_samples()
                .into_iter()
                .filter(|s| {
                    opts.payload_sizes.contains(&s.payload_bytes)
                        && opts
                            .kernel_filter
                            .as_ref()
                            .is_none_or(|f| f.iter().any(|n| n == defs[s.kernel_index].name))
                })
                .collect();
            rec.annotate(span, "samples", specs.len());
            (defs, specs)
        });
        if specs.is_empty() {
            return Err(BuildDatasetError::EmptySelection);
        }

        let (statics, profiles) = stage("measure", rec, &mut journal, |rec, journal, span| {
            // Each kernel is built here (an invalid one fails the build
            // before any simulation) and again by the worker measuring it:
            // holding all of them through the sweep costs ~2 KiB of peak
            // memory per sample.
            let build = |spec: &SampleSpec| {
                let def = &defs[spec.kernel_index];
                def.build(&spec.params())
                    .map_err(|source| BuildDatasetError::Kernel {
                        sample: format!(
                            "{}/{}/{}/{}",
                            def.suite, def.name, spec.dtype, spec.payload_bytes
                        ),
                        source,
                    })
            };
            let statics = specs
                .iter()
                .map(|spec| build(spec).map(|k| (k.sample_id(), static_feature_vector(&k))))
                .collect::<Result<Vec<_>, _>>()?;
            let threads = pulp_ml::resolve_threads(opts.threads, specs.len());
            rec.annotate(span, "threads", threads);
            let ctx = MeasureContext {
                config: &opts.config,
                model: &opts.model,
                max_cycles: opts.max_cycles,
                cache: opts.cache.as_deref(),
            };
            let fallback_logger = Logger::new(LogFormat::Text);
            let sweep_obs = BuildObserver {
                journal: journal.as_deref_mut(),
                logger: opts.progress.then(|| logger.unwrap_or(&fallback_logger)),
            };
            let kernel = |i| build(&specs[i]).expect("every kernel built once already");
            let profiles = sweep_kernels(specs.len(), kernel, &ctx, threads, rec, sweep_obs);
            rec.counter("pipeline/samples", specs.len() as f64);
            if let Some(cache) = &opts.cache {
                cache.record(rec);
                let stats = cache.stats();
                append_or_warn(
                    journal.as_deref_mut(),
                    [JournalEvent::Cache {
                        hits: stats.hits,
                        misses: stats.misses,
                        invalidations: stats.invalidations,
                    }],
                );
            }
            let profiles = profiles
                .into_iter()
                .zip(&statics)
                .map(|(measured, (sample, _))| {
                    measured.map_err(|source| BuildDatasetError::Measure {
                        sample: sample.clone(),
                        source,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, BuildDatasetError>((statics, profiles))
        })?;

        Ok(stage("assemble", rec, &mut journal, |_, _, _| {
            let samples = specs
                .iter()
                .zip(statics.into_iter().zip(profiles))
                .map(|(spec, ((id, static_x), profile))| {
                    let def = &defs[spec.kernel_index];
                    SampleRecord {
                        id,
                        kernel: def.name.to_string(),
                        suite: def.suite,
                        dtype: spec.dtype,
                        payload_bytes: spec.payload_bytes,
                        label: profile.label(),
                        energy: profile.energy.to_vec(),
                        cycles: profile.cycles.to_vec(),
                        static_x,
                        dynamic_x: dynamic_feature_vector(&profile),
                    }
                })
                .collect();
            Self { samples }
        }))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples were measured.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Class labels, aligned with `samples`.
    pub fn labels(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.label).collect()
    }

    /// Per-sample energies by class (input to the tolerance metric).
    pub fn energies(&self) -> Vec<Vec<f64>> {
        self.samples.iter().map(|s| s.energy.clone()).collect()
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> [usize; NUM_CLASSES] {
        let mut counts = [0usize; NUM_CLASSES];
        for s in &self.samples {
            counts[s.label] += 1;
        }
        counts
    }

    /// Trainable dataset over one static feature family.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrices are inconsistent (a bug).
    pub fn static_dataset(&self, set: StaticFeatureSet) -> Result<Dataset, DatasetError> {
        let full = self.static_dataset_all()?;
        Ok(full.select_features(&set.columns()))
    }

    /// Trainable dataset over the full 20-dimensional static vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrices are inconsistent (a bug).
    pub fn static_dataset_all(&self) -> Result<Dataset, DatasetError> {
        Dataset::new(
            self.samples.iter().map(|s| s.static_x.clone()).collect(),
            self.labels(),
            static_feature_names(),
            NUM_CLASSES,
        )
    }

    /// The full 20-dimensional static feature vectors, one per sample —
    /// the row shape the [`crate::predictor::EnergyPredictor`] batch
    /// paths consume (`bench models` feeds these to both the flat and
    /// the float path when counting mismatches).
    pub fn static_rows(&self) -> Vec<Vec<f64>> {
        self.samples.iter().map(|s| s.static_x.clone()).collect()
    }

    /// Trainable dataset over the 80-dimensional dynamic vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrices are inconsistent (a bug).
    pub fn dynamic_dataset(&self) -> Result<Dataset, DatasetError> {
        Dataset::new(
            self.samples.iter().map(|s| s.dynamic_x.clone()).collect(),
            self.labels(),
            dynamic_feature_names(),
            NUM_CLASSES,
        )
    }
}

/// Runs `body` as pipeline stage `name`: a `stage` span in `rec` (handed
/// to `body` for annotations) and a start/end pair in the journal around
/// it.
fn stage<T>(
    name: &str,
    rec: &mut Recorder,
    journal: &mut Option<&mut JournalWriter>,
    body: impl FnOnce(&mut Recorder, &mut Option<&mut JournalWriter>, SpanId) -> T,
) -> T {
    journal_stage(journal, name, |journal| {
        let span = rec.start_cat(name, "stage");
        let out = body(rec, journal, span);
        rec.end(span);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_dataset() -> LabeledDataset {
        LabeledDataset::build(&PipelineOptions::quick(&[
            "vec_scale",
            "fpu_storm",
            "bank_hammer",
            "gemm",
        ]))
        .expect("build")
    }

    #[test]
    fn quick_build_produces_expected_sample_count() {
        let d = quick_dataset();
        // 4 kernels × 2 dtypes × 2 sizes.
        assert_eq!(d.len(), 16);
        assert_eq!(d.class_counts().iter().sum::<usize>(), 16);
    }

    #[test]
    fn datasets_are_trainable_shapes() {
        let d = quick_dataset();
        let s = d.static_dataset(StaticFeatureSet::All).expect("static");
        assert_eq!(s.len(), d.len());
        assert_eq!(s.n_features(), 20);
        let dy = d.dynamic_dataset().expect("dynamic");
        assert_eq!(dy.n_features(), 80);
        let agg = d.static_dataset(StaticFeatureSet::Agg).expect("agg");
        assert_eq!(agg.n_features(), 3);
    }

    #[test]
    fn empty_filter_is_an_error() {
        let err = LabeledDataset::build(&PipelineOptions::quick(&["no_such_kernel"])).unwrap_err();
        assert_eq!(err, BuildDatasetError::EmptySelection);
    }

    #[test]
    fn labels_match_energy_argmin() {
        let d = quick_dataset();
        for s in &d.samples {
            let argmin = s
                .energy
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("nonempty");
            assert_eq!(s.label, argmin, "{}", s.id);
        }
    }

    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let mut opts = PipelineOptions::quick(&["vec_scale", "bank_hammer"]);
        opts.threads = 1;
        let d1 = LabeledDataset::build(&opts).expect("build");
        opts.threads = 4;
        let d4 = LabeledDataset::build(&opts).expect("build");
        assert_eq!(d1, d4);
    }

    #[test]
    fn build_error_names_the_first_failing_sample_at_any_thread_count() {
        // At this budget several samples overrun; the error must name the
        // first in enumeration order, not the first worker to be joined.
        let mut opts = PipelineOptions::quick(&["vec_scale", "bank_hammer"]);
        opts.max_cycles = 1982;
        for threads in 1..=4 {
            opts.threads = threads;
            match LabeledDataset::build(&opts) {
                Err(BuildDatasetError::Measure { sample, .. }) => {
                    assert_eq!(sample, "utdsp/vec_scale/i32/2048", "at {threads} threads");
                }
                other => panic!("expected a measure error at {threads} threads, got {other:?}"),
            }
        }
    }

    #[test]
    fn observed_build_is_identical_and_journals_stages_and_cache() {
        use pulp_obs::{validate_journal, JournalEvent, JournalReader, JournalWriter};
        let dir = std::env::temp_dir().join(format!(
            "pulp-pipeline-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = PipelineOptions::quick(&["vec_scale", "bank_hammer"]);
        opts.threads = 2;
        opts.cache = Some(Arc::new(SweepCache::new(&dir).expect("cache")));
        let plain = LabeledDataset::build(&opts).expect("plain build");

        // Warm run with a journal: bit-identical dataset, full cache
        // attribution in the journal.
        opts.cache = Some(Arc::new(SweepCache::new(&dir).expect("cache")));
        let mut journal = JournalWriter::in_memory("pipeline_test", "beef", 3);
        let mut rec = Recorder::new();
        let observed = LabeledDataset::build_observed(
            &opts,
            &mut rec,
            BuildObserver {
                journal: Some(&mut journal),
                logger: None,
            },
        )
        .expect("observed build");
        assert_eq!(observed, plain, "journaling must not perturb the dataset");

        let text = journal.finalize_to_string().expect("text");
        validate_journal(&text).expect("valid journal");
        let parsed = JournalReader::read_str(&text).expect("readable");
        let stages: Vec<&str> = parsed
            .events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::StageEnd { stage, .. } => Some(stage.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(stages, ["enumerate", "measure", "assemble"]);
        let cache_ev = parsed
            .events
            .iter()
            .find_map(|e| match e {
                JournalEvent::Cache { hits, misses, .. } => Some((*hits, *misses)),
                _ => None,
            })
            .expect("cache attribution present");
        assert_eq!(cache_ev, (plain.len() as u64, 0), "warm run: all hits");
        let heartbeat_hits: u64 = parsed
            .events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Heartbeat {
                    done,
                    assigned,
                    cache_hits,
                    ..
                } if done == assigned => Some(*cache_hits),
                _ => None,
            })
            .sum();
        assert_eq!(
            heartbeat_hits,
            plain.len() as u64,
            "final heartbeats attribute every sample to the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_cache_build_is_identical_and_skips_the_simulator() {
        let dir = std::env::temp_dir().join(format!(
            "pulp-pipeline-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut opts = PipelineOptions::quick(&["vec_scale", "bank_hammer"]);
        opts.cache = Some(Arc::new(SweepCache::new(&dir).expect("cache")));
        let cold = LabeledDataset::build(&opts).expect("cold build");

        // Fresh cache handle so the counters below reflect only the warm run.
        let warm_cache = Arc::new(SweepCache::new(&dir).expect("cache"));
        opts.cache = Some(Arc::clone(&warm_cache));
        let mut rec = pulp_obs::Recorder::new();
        let warm = LabeledDataset::build_observed(&opts, &mut rec, BuildObserver::default())
            .expect("warm build");

        assert_eq!(cold, warm, "warm-cache build must be bit-identical");
        let stats = warm_cache.stats();
        assert_eq!(stats.misses, 0, "warm run must not miss: {stats}");
        assert_eq!(
            stats.invalidations, 0,
            "warm run must not invalidate: {stats}"
        );
        assert_eq!(
            stats.hits as usize,
            warm.len(),
            "one hit per sample: {stats}"
        );
        assert!(
            rec.spans().iter().all(|s| s.cat != "simulate"),
            "warm run must not invoke the simulator"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
