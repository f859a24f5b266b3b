//! `label_sweep`: a cold `LabeledDataset::build` of the 448-sample paper
//! dataset at the default sweep threads, into a fresh empty sweep cache
//! per op. One op is one full sweep (3,584 simulations); items are
//! samples labelled.

use crate::expected::{self, check_dataset, check_sample, LabelRow};
use crate::report::Report;
use crate::stats::{median, nproc, secs, span, timed};
use crate::work::{self, TempDir};
use crate::Args;
use kernel_ir::{lower, AggFeatures, RawFeatures};
use pulp_energy::pipeline::{BuildObserver, LabeledDataset};
use pulp_energy::{EnergyProfile, SweepCache, NUM_CLASSES};
use pulp_energy_model::{energy_of, DynamicFeatures, EnergyModel};
use pulp_kernels::{all_samples, registry, KernelDef, SampleSpec, PAYLOAD_SIZES};
use pulp_obs::{JournalEvent, JournalReader, JournalWriter, Recorder};
use pulp_sim::{
    simulate_opts, ClusterConfig, NoTelemetry, NullSink, SimOptions, SimScratch, DEFAULT_MAX_CYCLES,
};
use std::time::Instant;

/// Identical set-ups timed for `setup_s` (each is well under a
/// millisecond, far too short to time once).
const SETUP_REPS: usize = 101;
/// Small-payload samples re-simulated by the oracle in the traced run.
const ORACLE_SAMPLES: usize = 4;

/// The build's enumeration step: registry plus the paper's samples.
fn enumerate() -> (Vec<KernelDef>, Vec<SampleSpec>) {
    let defs = registry();
    let specs = all_samples()
        .into_iter()
        .filter(|s| PAYLOAD_SIZES.contains(&s.payload_bytes))
        .collect();
    (defs, specs)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let want = expected::load_labels(&args.expected_dir)?;
    let mut report = Report::default();

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let dir = TempDir::new(&args.work_dir, "sweep-setup")?;
        let (res, s) = timed(|| {
            let enumerated = enumerate();
            (enumerated, SweepCache::new(dir.path()))
        });
        res.1.map_err(|e| e.to_string())?;
        setups.push(s);
    }

    let start = Instant::now();
    let mut lat = Vec::new();
    loop {
        let dir = TempDir::new(&args.work_dir, "sweep")?;
        let opts = work::full_options(Some(work::open_cache(dir.path())?));
        let (built, s) = timed(|| LabeledDataset::build(&opts));
        lat.push(s);
        report.op(match built {
            Ok(d) => check_dataset(&d, &want),
            Err(e) => vec![e.to_string()],
        });
        if secs(start) >= args.seconds {
            break;
        }
    }
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric(
        "items_per_s",
        want.len() as f64 / median(&lat),
        "1/s",
        lat.len(),
    );
    report.metric("latency_p50_us", median(&lat) * 1e6, "us", lat.len());
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb()?, "MiB", 1);
    Ok(report)
}

/// Seconds spent in each layer during one replay.
#[derive(Default)]
struct Layers {
    build: f64,
    features: f64,
    mca: f64,
    lower: f64,
    simulate: f64,
    account: f64,
    dynamic: f64,
    store: f64,
    cycles: u64,
    skipped: u64,
    /// Single-thread wall per sample (sum of its layers).
    per_sample: Vec<f64>,
}

impl Layers {
    fn total(&self) -> f64 {
        self.build
            + self.features
            + self.mca
            + self.lower
            + self.simulate
            + self.account
            + self.dynamic
            + self.store
    }
}

/// One sample through the pipeline's per-sample steps: build, static
/// features, MCA, then lower/simulate/account/dynamic at 1..=8 cores and a
/// cache store. With `traced` each step is timed into `l`.
fn measure(
    traced: bool,
    kernel_def: &KernelDef,
    spec: &SampleSpec,
    cache: &SweepCache,
    scratch: &mut SimScratch,
    l: &mut Layers,
) -> Result<(String, EnergyProfile), String> {
    let config = ClusterConfig::default();
    let model = EnergyModel::table1();
    let opts = SimOptions::default().with_max_cycles(DEFAULT_MAX_CYCLES);
    let kernel = span(traced, &mut l.build, || kernel_def.build(&spec.params()))
        .map_err(|e| e.to_string())?;
    let agg = span(traced, &mut l.features, || {
        AggFeatures::from_raw(&RawFeatures::extract(&kernel))
    });
    let mca = span(traced, &mut l.mca, || pulp_mca::analyze_kernel(&kernel));
    std::hint::black_box((agg, mca));
    let mut energy = [0.0; NUM_CLASSES];
    let mut cycles = [0u64; NUM_CLASSES];
    let mut dynamic = Vec::with_capacity(NUM_CLASSES);
    for team in 1..=NUM_CLASSES {
        let lowered = span(traced, &mut l.lower, || lower(&kernel, team, &config))
            .map_err(|e| e.to_string())?;
        let stats = span(traced, &mut l.simulate, || {
            simulate_opts(
                &config,
                &lowered.program,
                &opts,
                &mut NullSink,
                &mut NoTelemetry,
                scratch,
            )
        })
        .map_err(|e| e.to_string())?;
        energy[team - 1] = span(traced, &mut l.account, || {
            energy_of(&stats, &model, &config).total()
        });
        dynamic.push(span(traced, &mut l.dynamic, || {
            DynamicFeatures::extract(&stats)
        }));
        cycles[team - 1] = stats.cycles;
        if traced {
            l.cycles += stats.cycles;
            l.skipped += stats.fast_forward.skipped_cycles;
        }
    }
    let profile = EnergyProfile {
        energy,
        cycles,
        dynamic,
    };
    let id = kernel.sample_id();
    span(traced, &mut l.store, || {
        cache.store(&cache.key(&id, &config, &model), &profile.summaries());
    });
    Ok((id, profile))
}

/// Single-threaded replay of every sample, once traced and once bare
/// (alternating which goes first, so drift hits both alike). Returns the
/// traced layer times, the traced and bare replay walls and every
/// mismatch against `want`.
fn replay(
    want: &[LabelRow],
    traced_cache: &SweepCache,
    bare_cache: &SweepCache,
) -> Result<(Layers, f64, f64, Vec<String>), String> {
    let (defs, specs) = enumerate();
    let mut scratch = SimScratch::new();
    let mut l = Layers::default();
    let (mut traced_s, mut bare_s) = (0.0, 0.0);
    let mut problems = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        for traced in [i.is_multiple_of(2), !i.is_multiple_of(2)] {
            let cache = if traced { traced_cache } else { bare_cache };
            let def = &defs[spec.kernel_index];
            let ((id, profile), s) = {
                let (r, s) = timed(|| measure(traced, def, spec, cache, &mut scratch, &mut l));
                (r?, s)
            };
            if traced {
                traced_s += s;
                l.per_sample.push(s);
            } else {
                bare_s += s;
            }
            match want.get(i) {
                Some(w) => problems.extend(check_sample(
                    w,
                    &id,
                    profile.label(),
                    &profile.energy,
                    &profile.cycles,
                )),
                None => problems.push(format!("unexpected sample {id}")),
            }
        }
    }
    Ok((l, traced_s, bare_s, problems))
}

/// Busy time per shard of a journaled build: the sweep-relative time of
/// each shard's final heartbeat.
fn shard_busy_ms(journal: &str) -> Result<Vec<f64>, String> {
    let parsed = JournalReader::read_str(journal)?;
    let mut busy: Vec<(u64, f64)> = parsed
        .events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::Heartbeat {
                shard,
                done,
                assigned,
                elapsed_ms,
                ..
            } if done == assigned => Some((*shard, *elapsed_ms as f64)),
            _ => None,
        })
        .collect();
    busy.sort_by_key(|(s, _)| *s);
    Ok(busy.into_iter().map(|(_, ms)| ms).collect())
}

pub fn run_traced(args: &Args) -> Result<Report, String> {
    let want = expected::load_labels(&args.expected_dir)?;
    let mut report = Report::default();

    let traced_dir = TempDir::new(&args.work_dir, "replay")?;
    let bare_dir = TempDir::new(&args.work_dir, "replay-bare")?;
    let traced_cache = SweepCache::new(traced_dir.path()).map_err(|e| e.to_string())?;
    let bare_cache = SweepCache::new(bare_dir.path()).map_err(|e| e.to_string())?;
    let (traced, replay_s, bare_s, problems) = replay(&want, &traced_cache, &bare_cache)?;
    let stores = SweepCache::dir_stats(traced_dir.path())
        .map_err(|e| e.to_string())?
        .entries;
    report.op(problems);
    drop((traced_dir, bare_dir));

    let threads = nproc();
    let dir = TempDir::new(&args.work_dir, "observed")?;
    let opts = work::full_options(Some(work::open_cache(dir.path())?));
    let mut journal = JournalWriter::in_memory("perfbench", "label_sweep", args.seed);
    let mut rec = Recorder::new();
    let (built, observed_s) = timed(|| {
        LabeledDataset::build_observed(
            &opts,
            &mut rec,
            BuildObserver {
                journal: Some(&mut journal),
                logger: None,
            },
        )
    });
    report.op(match built {
        Ok(d) => check_dataset(&d, &want),
        Err(e) => vec![e.to_string()],
    });
    let lookups = opts.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    drop(dir);
    let busy = shard_busy_ms(&journal.finalize_to_string().map_err(|e| e.to_string())?)?;
    report.check(busy.len() == threads, || {
        format!(
            "journal has {} finished shards, expected {threads}",
            busy.len()
        )
    });
    let imbalance = busy.iter().copied().fold(0.0, f64::max) / crate::stats::mean(&busy);

    let oracle = expected::oracle_subset(args.seed, ORACLE_SAMPLES);
    report.op(expected::oracle_check(&oracle, &want));

    let sims = (traced.per_sample.len() * NUM_CLASSES) as f64;
    let samples = traced.per_sample.len() as f64;
    let unattributed = 1.0 - traced.total() / replay_s;
    report.check(unattributed.abs() <= 0.10, || {
        format!("label_sweep layers leave {unattributed} of the replay unattributed (> 10%)")
    });
    let n = traced.per_sample.len();
    let nsim = n * NUM_CLASSES;
    report.metric("kernels.build_us", traced.build / samples * 1e6, "us", n);
    report.metric(
        "kernel_ir.features_us",
        traced.features / samples * 1e6,
        "us",
        n,
    );
    report.metric("mca.analyze_us", traced.mca / samples * 1e6, "us", n);
    report.metric("kernel_ir.lower_us", traced.lower / sims * 1e6, "us", nsim);
    report.metric("sim.simulate_us", traced.simulate / sims * 1e6, "us", nsim);
    report.metric(
        "sim.mcycles_per_s",
        traced.cycles as f64 / traced.simulate / 1e6,
        "Mcycles/s",
        nsim,
    );
    report.metric("sim.cycles", traced.cycles as f64, "count", nsim);
    report.metric(
        "sim.ff_skip_ratio",
        traced.skipped as f64 / traced.cycles as f64,
        "ratio",
        nsim,
    );
    report.metric("energy.account_us", traced.account / sims * 1e6, "us", nsim);
    report.metric("energy.dynamic_us", traced.dynamic / sims * 1e6, "us", nsim);
    report.metric("cache.store_us", traced.store / samples * 1e6, "us", n);
    report.metric(
        "cache.hit_ratio",
        lookups.hits as f64 / lookups.lookups().max(1) as f64,
        "ratio",
        lookups.lookups() as usize,
    );
    report.metric("cache.stores", stores as f64, "count", n);
    report.metric("labeling.shard_imbalance", imbalance, "ratio", busy.len());
    report.metric(
        "labeling.parallel_efficiency",
        traced.per_sample.iter().sum::<f64>() / (threads as f64 * observed_s),
        "ratio",
        n,
    );
    report.metric("labeling.unattributed_share", unattributed, "ratio", 1);
    report.metric("bench.trace_overhead", replay_s / bare_s - 1.0, "ratio", 2);
    report.metric("bench.wall_items_per_s", n as f64 / observed_s, "1/s", 1);
    Ok(report)
}
