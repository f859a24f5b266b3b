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
use crate::labeling::{
    measure_kernel_cached_scratch, measure_kernel_instrumented_scratch, MeasureError,
    SweepProgress, NUM_CLASSES,
};
use kernel_ir::{DType, Suite, ValidateKernelError};
use pulp_energy_model::EnergyModel;
use pulp_kernels::{all_samples, registry, KernelDef, SampleSpec, PAYLOAD_SIZES};
use pulp_ml::{Dataset, DatasetError};
use pulp_obs::{JournalEvent, JournalWriter, LogFormat, Logger, Recorder};
use pulp_sim::{ClusterConfig, SimScratch};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

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
    /// Content-addressed sweep cache (`--cache-dir` on `pulp_cli`);
    /// `None` simulates every sample from scratch. Shared across the
    /// worker threads.
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

/// Observation hooks for [`LabeledDataset::build_observed`]: an optional
/// run journal receiving stage/heartbeat/cache/slow-kernel events, and an
/// optional logger for the live `--progress` line. The default observer
/// (no journal, no logger) keeps per-kernel timing off the hot loop
/// entirely.
#[derive(Default)]
pub struct BuildObserver<'a> {
    /// Durable event log for the build (see [`pulp_obs::journal`]).
    pub journal: Option<&'a mut JournalWriter>,
    /// Sink for progress lines; `None` with `opts.progress` set falls
    /// back to a plain-text stderr logger.
    pub logger: Option<&'a Logger>,
}

/// Samples between journal heartbeats per worker.
const PIPELINE_HEARTBEAT_EVERY: u64 = 16;
/// Slow-sample entries each worker tracks for the journal.
const PIPELINE_SLOW_PER_SHARD: usize = 4;

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
        let mut rec = Recorder::new();
        Self::build_instrumented(opts, &mut rec)
    }

    /// [`build`](Self::build) that folds the recorded stage telemetry into
    /// a [`MetricsRegistry`](pulp_obs::MetricsRegistry) as
    /// `pulp_pipeline_stage_ticks{stage=...}` latency histograms and
    /// `pulp_pipeline_counter{name=...}` gauges — the online aggregate
    /// view of the same spans [`build_instrumented`](Self::build_instrumented)
    /// records offline. The prediction service uses this to expose
    /// startup-training latencies on `/metrics`.
    ///
    /// # Errors
    ///
    /// See [`build`](Self::build).
    pub fn build_with_metrics(
        opts: &PipelineOptions,
        metrics: &mut pulp_obs::MetricsRegistry,
    ) -> Result<Self, BuildDatasetError> {
        let mut rec = Recorder::new();
        let built = Self::build_instrumented(opts, &mut rec);
        metrics.observe_recorder("pulp_pipeline", &rec);
        built
    }

    /// [`build`](Self::build) with stage telemetry: records `enumerate`,
    /// `measure` and `assemble` stage spans plus one span per sample
    /// (nesting the per-team-size `simulate` spans) into `rec`. Worker
    /// threads record into private [`Recorder`]s that are merged, one
    /// track per worker, after the sweep joins.
    ///
    /// # Errors
    ///
    /// See [`build`](Self::build).
    pub fn build_instrumented(
        opts: &PipelineOptions,
        rec: &mut Recorder,
    ) -> Result<Self, BuildDatasetError> {
        Self::build_observed(opts, rec, BuildObserver::default())
    }

    /// [`build_instrumented`](Self::build_instrumented) with durable
    /// observation: stage start/end, per-shard heartbeats (kernels done,
    /// kernels/s, cache hits/misses) and slow-kernel entries go to
    /// `obs.journal`, and `opts.progress` drives a live throttled
    /// `[sweep]` line (ETA + straggler flags) through `obs.logger`.
    ///
    /// Journal events are buffered per worker and appended in shard order
    /// after the join — the hot measurement loop never touches the
    /// writer, and the measured dataset is bit-identical to an unobserved
    /// build at any thread count.
    ///
    /// # Errors
    ///
    /// See [`build`](Self::build). Journal write failures warn on stderr
    /// but never fail the build.
    pub fn build_observed(
        opts: &PipelineOptions,
        rec: &mut Recorder,
        obs: BuildObserver<'_>,
    ) -> Result<Self, BuildDatasetError> {
        let BuildObserver { journal, logger } = obs;
        let mut journal = journal;
        let stage_guard = |journal: &mut Option<&mut JournalWriter>, ev: JournalEvent| {
            if let Some(j) = journal {
                if let Err(e) = j.event(ev) {
                    eprintln!("[pipeline] warning: journal write failed: {e}");
                }
            }
        };

        let stage_t0 = Instant::now();
        stage_guard(
            &mut journal,
            JournalEvent::StageStart {
                stage: "enumerate".into(),
            },
        );
        let enumerate = rec.start_cat("enumerate", "stage");
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
        rec.annotate(enumerate, "samples", specs.len());
        rec.end(enumerate);
        stage_guard(
            &mut journal,
            JournalEvent::StageEnd {
                stage: "enumerate".into(),
                wall_ms: stage_t0.elapsed().as_secs_f64() * 1e3,
            },
        );
        if specs.is_empty() {
            return Err(BuildDatasetError::EmptySelection);
        }

        let threads = if opts.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            opts.threads
        }
        .min(specs.len());

        let stage_t0 = Instant::now();
        stage_guard(
            &mut journal,
            JournalEvent::StageStart {
                stage: "measure".into(),
            },
        );
        let measure = rec.start_cat("measure", "stage");
        rec.annotate(measure, "threads", threads);
        let total = specs.len();
        let journaling = journal.is_some();
        let caching = opts.cache.is_some();
        // Shard `t` owns indices `t, t + threads, ...`.
        let assigned: Vec<u64> = (0..threads)
            .map(|t| ((total - t).div_ceil(threads)) as u64)
            .collect();
        let progress = SweepProgress::new(total, threads);
        let fallback_logger = Logger::new(LogFormat::Text);
        let progress_logger: Option<&Logger> = if opts.progress {
            Some(logger.unwrap_or(&fallback_logger))
        } else {
            None
        };
        let mut samples: Vec<Option<SampleRecord>> = vec![None; specs.len()];
        let mut first_error: Option<BuildDatasetError> = None;
        let mut shard_events: Vec<Vec<JournalEvent>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let specs = &specs;
                let defs = &defs;
                let opts_ref = &*opts;
                let progress = &progress;
                handles.push(scope.spawn(move || {
                    let mut worker_rec = Recorder::new();
                    // One simulator scratch per worker, reused across every
                    // sample and team size this worker measures.
                    let mut scratch = SimScratch::new();
                    let mut out = Vec::new();
                    let mut events: Vec<JournalEvent> = Vec::new();
                    let mut slow: Vec<(String, f64, u64)> = Vec::new();
                    let mut done = 0u64;
                    let mut cache_hits = 0u64;
                    let shard_total = ((specs.len() - t).div_ceil(threads)) as u64;
                    let mut i = t;
                    while i < specs.len() {
                        let spans_before = worker_rec.spans().len();
                        let t0 = journaling.then(Instant::now);
                        let res = measure_one_instrumented(
                            &specs[i],
                            &defs[specs[i].kernel_index],
                            opts_ref,
                            &mut worker_rec,
                            &mut scratch,
                        );
                        done += 1;
                        if let Some(t0) = t0 {
                            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                            let new_spans = &worker_rec.spans()[spans_before..];
                            if new_spans.iter().any(|s| s.cat == "cache") {
                                cache_hits += 1;
                            }
                            let cycles = res.as_ref().map_or(0, |r| r.cycles[0]);
                            let sample = res.as_ref().map_or_else(
                                |_| defs[specs[i].kernel_index].name.to_string(),
                                |r| r.id.clone(),
                            );
                            slow.push((sample, wall_ms, cycles));
                            if slow.len() > PIPELINE_SLOW_PER_SHARD {
                                slow.sort_by(|a, b| {
                                    b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)
                                });
                                slow.truncate(PIPELINE_SLOW_PER_SHARD);
                            }
                            if done.is_multiple_of(PIPELINE_HEARTBEAT_EVERY) || done == shard_total
                            {
                                let elapsed_ms = progress.elapsed_ms();
                                let elapsed_s = elapsed_ms as f64 / 1e3;
                                events.push(JournalEvent::Heartbeat {
                                    shard: t as u64,
                                    done,
                                    assigned: shard_total,
                                    elapsed_ms,
                                    kernels_per_s: if elapsed_s > 0.0 {
                                        done as f64 / elapsed_s
                                    } else {
                                        0.0
                                    },
                                    cache_hits,
                                    cache_misses: if caching { done - cache_hits } else { 0 },
                                });
                            }
                        }
                        out.push((i, res));
                        progress.record(t);
                        i += threads;
                    }
                    slow.sort_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    });
                    for (sample, wall_ms, cycles) in slow {
                        events.push(JournalEvent::SlowKernel {
                            sample,
                            wall_ms,
                            cycles,
                        });
                    }
                    (out, events, worker_rec)
                }));
            }
            let monitor = progress_logger.map(|log| {
                let progress = &progress;
                let assigned = &assigned;
                scope.spawn(move || {
                    let mut last = u64::MAX;
                    loop {
                        let snap = progress.snapshot();
                        if snap.done() != last {
                            last = snap.done();
                            log.info(
                                "sweep",
                                &format!("measured {}/{}", snap.done(), snap.total),
                                &snap.progress_fields(assigned),
                            );
                        }
                        if snap.done() >= snap.total {
                            break;
                        }
                        // Parked, not slept: the join path unparks us as soon
                        // as the last worker finishes, so short builds never
                        // pay a full monitor tick of extra wall time.
                        std::thread::park_timeout(std::time::Duration::from_millis(200));
                    }
                })
            });
            for h in handles {
                let (results, events, worker_rec) = h.join().expect("worker panicked");
                rec.merge(worker_rec);
                shard_events.push(events);
                for (i, res) in results {
                    match res {
                        Ok(record) => samples[i] = Some(record),
                        Err(e) => {
                            if first_error.is_none() {
                                first_error = Some(e);
                            }
                        }
                    }
                }
            }
            if let Some(m) = &monitor {
                m.thread().unpark();
            }
        });
        rec.counter("pipeline/samples", progress.snapshot().done() as f64);
        if let Some(j) = &mut journal {
            // Deterministic merge: shard 0's buffer first, then shard 1's.
            if let Err(e) = j.events(shard_events.into_iter().flatten()) {
                eprintln!("[pipeline] warning: journal write failed: {e}");
            }
        }
        if let Some(cache) = &opts.cache {
            cache.record(rec);
            let stats = cache.stats();
            stage_guard(
                &mut journal,
                JournalEvent::Cache {
                    hits: stats.hits,
                    misses: stats.misses,
                    invalidations: stats.invalidations,
                },
            );
        }
        rec.end(measure);
        stage_guard(
            &mut journal,
            JournalEvent::StageEnd {
                stage: "measure".into(),
                wall_ms: stage_t0.elapsed().as_secs_f64() * 1e3,
            },
        );
        if let Some(e) = first_error {
            return Err(e);
        }
        let stage_t0 = Instant::now();
        stage_guard(
            &mut journal,
            JournalEvent::StageStart {
                stage: "assemble".into(),
            },
        );
        let assemble = rec.start_cat("assemble", "stage");
        let out = Self {
            samples: samples
                .into_iter()
                .map(|s| s.expect("all filled"))
                .collect(),
        };
        rec.end(assemble);
        stage_guard(
            &mut journal,
            JournalEvent::StageEnd {
                stage: "assemble".into(),
                wall_ms: stage_t0.elapsed().as_secs_f64() * 1e3,
            },
        );
        Ok(out)
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

fn measure_one_instrumented(
    spec: &SampleSpec,
    def: &KernelDef,
    opts: &PipelineOptions,
    rec: &mut Recorder,
    scratch: &mut SimScratch,
) -> Result<SampleRecord, BuildDatasetError> {
    let params = spec.params();
    let kernel = def
        .build(&params)
        .map_err(|source| BuildDatasetError::Kernel {
            sample: format!(
                "{}/{}/{}/{}",
                def.suite, def.name, spec.dtype, spec.payload_bytes
            ),
            source,
        })?;
    let span = rec.start_cat(&kernel.sample_id(), "sample");
    let measured = match &opts.cache {
        Some(cache) => measure_kernel_cached_scratch(
            &kernel,
            &opts.config,
            &opts.model,
            opts.max_cycles,
            cache,
            rec,
            scratch,
        ),
        None => measure_kernel_instrumented_scratch(
            &kernel,
            &opts.config,
            &opts.model,
            opts.max_cycles,
            rec,
            scratch,
        ),
    };
    let profile = match measured {
        Ok(p) => p,
        Err(source) => {
            rec.annotate(span, "error", &source);
            rec.end(span);
            return Err(BuildDatasetError::Measure {
                sample: kernel.sample_id(),
                source,
            });
        }
    };
    rec.annotate(span, "label", profile.label() + 1);
    rec.end(span);
    Ok(SampleRecord {
        id: kernel.sample_id(),
        kernel: def.name.to_string(),
        suite: def.suite,
        dtype: spec.dtype,
        payload_bytes: spec.payload_bytes,
        label: profile.label(),
        energy: profile.energy.to_vec(),
        cycles: profile.cycles.to_vec(),
        static_x: static_feature_vector(&kernel),
        dynamic_x: dynamic_feature_vector(&profile),
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
        let warm = LabeledDataset::build_instrumented(&opts, &mut rec).expect("warm build");

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
