//! Simulation-based labelling — steps (B)–(E) of the paper's workflow.
//!
//! Each dataset sample is simulated with every team size from 1 to 8; the
//! Table-I energy model assigns each run an energy; the arg-min team size
//! becomes the sample's class label.
//!
//! One kernel is measured by [`measure_kernel_with`] (or its defaulted
//! form [`measure_kernel`]); a batch is measured by the sweep driver
//! [`sweep_kernels`], which runs that call on a worker pool with optional
//! journal and progress observation.

use crate::cache::SweepCache;
use kernel_ir::{lower, Kernel, LowerError};
use pulp_energy_model::{energy_of, DynamicFeatures, EnergyModel, EnergySummary};
use pulp_obs::{JournalEvent, JournalWriter, Logger, Recorder};
use pulp_sim::{
    simulate_opts, ClusterConfig, NoTelemetry, NullSink, SimError, SimOptions, SimScratch,
    DEFAULT_MAX_CYCLES,
};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of classes (team sizes 1..=8 on the paper's cluster).
pub const NUM_CLASSES: usize = 8;

/// Errors produced while measuring a sample.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureError {
    /// Lowering failed.
    Lower(LowerError),
    /// Simulation failed.
    Sim(SimError),
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lower(e) => write!(f, "lowering failed: {e}"),
            Self::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Lower(e) => Some(e),
            Self::Sim(e) => Some(e),
        }
    }
}

impl From<LowerError> for MeasureError {
    fn from(e: LowerError) -> Self {
        Self::Lower(e)
    }
}

impl From<SimError> for MeasureError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

/// Energy measurements of one kernel across all team sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyProfile {
    /// Total energy (fJ) per team size; index `t` = `t + 1` cores.
    pub energy: [f64; NUM_CLASSES],
    /// Kernel cycles per team size.
    pub cycles: [u64; NUM_CLASSES],
    /// Table-III dynamic features per team size.
    pub dynamic: Vec<DynamicFeatures>,
}

impl EnergyProfile {
    /// The minimum-energy class (0-based; class `c` means `c + 1` cores).
    ///
    /// Non-finite energies (NaN/∞ from a degenerate energy model, e.g.
    /// during ablation sweeps) are skipped with a warning instead of
    /// panicking the whole dataset build. Ties are broken deterministically
    /// in favour of the **fewest cores** — the cheaper configuration when
    /// energies are equal. If *no* energy is finite the profile degrades to
    /// class 0 (one core), again with a warning.
    pub fn label(&self) -> usize {
        let mut best: Option<(usize, f64)> = None;
        let mut skipped = 0usize;
        for (i, &e) in self.energy.iter().enumerate() {
            if !e.is_finite() {
                skipped += 1;
                continue;
            }
            // Strict `<` keeps the earlier (fewest-cores) index on ties.
            if best.is_none_or(|(_, b)| e < b) {
                best = Some((i, e));
            }
        }
        if skipped > 0 {
            eprintln!("[labeling] warning: {skipped} non-finite energies skipped in arg-min");
        }
        match best {
            Some((i, _)) => i,
            None => {
                eprintln!("[labeling] warning: no finite energy in profile; defaulting to class 0");
                0
            }
        }
    }

    /// Fractional energy wasted by running with class `c` instead of the
    /// optimum.
    pub fn waste(&self, c: usize) -> f64 {
        let min = self.energy[self.label()];
        (self.energy[c] - min) / min
    }

    /// Parallel speed-up of class `c` relative to one core.
    pub fn speedup(&self, c: usize) -> f64 {
        self.cycles[0] as f64 / self.cycles[c] as f64
    }

    /// The profile as per-core-count [`EnergySummary`] rows — the sweep
    /// cache's value type. Only the team sizes actually measured (one per
    /// [`DynamicFeatures`] entry) are emitted.
    pub fn summaries(&self) -> Vec<EnergySummary> {
        self.dynamic
            .iter()
            .enumerate()
            .map(|(t, dynamic)| EnergySummary {
                cores: t + 1,
                energy_fj: self.energy[t],
                cycles: self.cycles[t],
                dynamic: *dynamic,
            })
            .collect()
    }

    /// Reassembles a profile from cached [`EnergySummary`] rows
    /// (the inverse of [`summaries`](Self::summaries)).
    pub fn from_summaries(summaries: &[EnergySummary]) -> Self {
        let mut energy = [0.0; NUM_CLASSES];
        let mut cycles = [0u64; NUM_CLASSES];
        let mut dynamic = Vec::with_capacity(summaries.len());
        for s in summaries {
            energy[s.cores - 1] = s.energy_fj;
            cycles[s.cores - 1] = s.cycles;
            dynamic.push(s.dynamic);
        }
        Self {
            energy,
            cycles,
            dynamic,
        }
    }
}

/// What every measurement of a sweep shares: the cluster, the energy
/// model, the per-run cycle budget and an optional sweep cache. Plain
/// references, so one context is shared by every sweep worker.
#[derive(Clone, Copy)]
pub struct MeasureContext<'a> {
    /// Cluster to simulate.
    pub config: &'a ClusterConfig,
    /// Energy model applied to each run.
    pub model: &'a EnergyModel,
    /// Per-run simulation cycle budget (`--max-cycles` on `pulp_cli`).
    pub max_cycles: u64,
    /// Content-addressed sweep cache; `None` simulates every kernel.
    pub cache: Option<&'a SweepCache>,
}

impl<'a> MeasureContext<'a> {
    /// `config` and `model` at the default cycle budget, without a cache.
    pub fn new(config: &'a ClusterConfig, model: &'a EnergyModel) -> Self {
        Self {
            config,
            model,
            max_cycles: DEFAULT_MAX_CYCLES,
            cache: None,
        }
    }
}

/// Simulates `kernel` at every team size and assembles its energy profile.
///
/// # Errors
///
/// Propagates lowering or simulation failures (neither is expected for
/// validated dataset kernels).
pub fn measure_kernel(
    kernel: &Kernel,
    config: &ClusterConfig,
    model: &EnergyModel,
) -> Result<EnergyProfile, MeasureError> {
    measure_kernel_with(
        kernel,
        &MeasureContext::new(config, model),
        &mut SimScratch::new(),
        &mut Recorder::new(),
    )
}

/// [`measure_kernel`] with full control: the budget and cache of `ctx`,
/// a caller-provided [`SimScratch`] (a sweep worker reuses one across all
/// its kernels, so the simulator's per-core state is allocated once per
/// worker, not once per run) and stage telemetry into `rec`: one `sample`
/// span annotated with the label, nesting a `simulate` span per team size
/// or, on a valid cache entry, one `cache` span. A cache miss (or a stale
/// or corrupt entry) simulates and stores the fresh sweep.
///
/// # Errors
///
/// See [`measure_kernel`]; additionally fails with
/// [`pulp_sim::SimError::CycleLimit`] when a run exceeds `ctx.max_cycles`.
/// Cache I/O never fails the measurement — a bad entry simply falls back
/// to recomputing.
pub fn measure_kernel_with(
    kernel: &Kernel,
    ctx: &MeasureContext<'_>,
    scratch: &mut SimScratch,
    rec: &mut Recorder,
) -> Result<EnergyProfile, MeasureError> {
    let sample = kernel.sample_id();
    let span = rec.start_cat(&sample, "sample");
    let measured = cached_or_simulated(kernel, &sample, ctx, scratch, rec);
    match &measured {
        Ok(profile) => rec.annotate(span, "label", profile.label() + 1),
        Err(e) => rec.annotate(span, "error", e),
    }
    rec.end(span);
    measured
}

/// The cached sweep of `sample` if `ctx.cache` holds a well-formed one,
/// otherwise a fresh simulation (stored back when a cache is attached).
fn cached_or_simulated(
    kernel: &Kernel,
    sample: &str,
    ctx: &MeasureContext<'_>,
    scratch: &mut SimScratch,
    rec: &mut Recorder,
) -> Result<EnergyProfile, MeasureError> {
    let Some(cache) = ctx.cache else {
        return simulate_teams(kernel, ctx, scratch, rec);
    };
    let key = cache.key(sample, ctx.config, ctx.model);
    if let Some(summaries) = cache.lookup(&key) {
        let teams = NUM_CLASSES.min(ctx.config.num_cores);
        let shape_ok =
            summaries.len() == teams && summaries.iter().enumerate().all(|(i, s)| s.cores == i + 1);
        if shape_ok {
            let span = rec.start_cat(&format!("cache hit {sample}"), "cache");
            rec.end(span);
            return Ok(EnergyProfile::from_summaries(&summaries));
        }
        // A hash collision or foreign entry of the wrong shape: ignore it
        // and recompute (the store below overwrites it).
    }
    let profile = simulate_teams(kernel, ctx, scratch, rec)?;
    cache.store(&key, &profile.summaries());
    Ok(profile)
}

/// The measurement loop: lower, simulate and account `kernel` at team
/// sizes `1..=8`, each inside a `simulate` span annotated with its cycle
/// count and energy (or its error).
fn simulate_teams(
    kernel: &Kernel,
    ctx: &MeasureContext<'_>,
    scratch: &mut SimScratch,
    rec: &mut Recorder,
) -> Result<EnergyProfile, MeasureError> {
    let mut energy = [0.0; NUM_CLASSES];
    let mut cycles = [0u64; NUM_CLASSES];
    let mut dynamic = Vec::with_capacity(NUM_CLASSES);
    let opts = SimOptions::default().with_max_cycles(ctx.max_cycles);
    for team in 1..=NUM_CLASSES.min(ctx.config.num_cores) {
        let span = rec.start_cat(&format!("simulate t{team}"), "simulate");
        let run = lower(kernel, team, ctx.config)
            .map_err(MeasureError::from)
            .and_then(|lowered| {
                simulate_opts(
                    ctx.config,
                    &lowered.program,
                    &opts,
                    &mut NullSink,
                    &mut NoTelemetry,
                    scratch,
                )
                .map_err(MeasureError::from)
            });
        let stats = match run {
            Ok(stats) => stats,
            Err(e) => {
                rec.annotate(span, "error", &e);
                rec.end(span);
                return Err(e);
            }
        };
        let fj = energy_of(&stats, ctx.model, ctx.config).total();
        rec.annotate(span, "cycles", stats.cycles);
        rec.annotate(span, "energy_uj", format!("{:.4}", fj * 1e-9));
        rec.end(span);
        energy[team - 1] = fj;
        cycles[team - 1] = stats.cycles;
        dynamic.push(DynamicFeatures::extract(&stats));
    }
    Ok(EnergyProfile {
        energy,
        cycles,
        dynamic,
    })
}

/// Live progress state for a sharded sweep: one lock-free counter per
/// shard, bumped by the worker after each kernel. Snapshots are cheap
/// (relaxed loads) and drive both the `--progress` line and the journal
/// heartbeats without any lock on the hot measurement loop.
#[derive(Debug)]
pub struct SweepProgress {
    total: u64,
    start: Instant,
    shard_done: Vec<AtomicU64>,
}

impl SweepProgress {
    /// A fresh aggregator for `total` kernels across `shards` workers.
    pub fn new(total: usize, shards: usize) -> Self {
        Self {
            total: total as u64,
            start: Instant::now(),
            shard_done: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one finished kernel on `shard`.
    pub fn record(&self, shard: usize) {
        self.shard_done[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// Milliseconds since the sweep started.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> SweepSnapshot {
        SweepSnapshot {
            total: self.total,
            shard_done: self
                .shard_done
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            elapsed_s: self.start.elapsed().as_secs_f64(),
        }
    }
}

/// A point-in-time view of a [`SweepProgress`]. Plain data — the derived
/// quantities (rate, ETA) are pure functions of the fields,
/// so the unit tests exercise them without any timing dependence.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSnapshot {
    /// Total kernels in the sweep.
    pub total: u64,
    /// Kernels finished per shard.
    pub shard_done: Vec<u64>,
    /// Seconds since the sweep started.
    pub elapsed_s: f64,
}

impl SweepSnapshot {
    /// Kernels finished across all shards.
    pub fn done(&self) -> u64 {
        self.shard_done.iter().sum()
    }

    /// Aggregate throughput so far (kernels per second).
    pub fn rate(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.done() as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Estimated seconds to completion at the current rate
    /// (`f64::INFINITY` before any kernel finishes).
    pub fn eta_s(&self) -> f64 {
        let remaining = self.total.saturating_sub(self.done()) as f64;
        let rate = self.rate();
        if remaining == 0.0 {
            0.0
        } else if rate > 0.0 {
            remaining / rate
        } else {
            f64::INFINITY
        }
    }

    /// The `--progress` line's key-value fields (percent done, rate, ETA),
    /// ready for [`Logger::info`].
    pub fn progress_fields(&self) -> Vec<(&'static str, String)> {
        let pct = if self.total > 0 {
            self.done() as f64 / self.total as f64 * 100.0
        } else {
            100.0
        };
        vec![
            ("pct", format!("{pct:.1}")),
            ("rate", format!("{:.1}", self.rate())),
            ("eta_s", format!("{:.0}", self.eta_s())),
        ]
    }
}

/// Observation hooks for a sweep: an optional run journal and an optional
/// logger for the live progress line. The default observer keeps
/// per-kernel timing off the hot loop entirely.
/// [`LabeledDataset::build_observed`](crate::pipeline::LabeledDataset::build_observed)
/// forwards the logger to [`sweep_kernels`] only when `opts.progress` is
/// set, falling back to a stderr logger when none is given.
#[derive(Default)]
pub struct BuildObserver<'a> {
    /// Durable event log for the run (see [`pulp_obs::journal`]).
    pub journal: Option<&'a mut JournalWriter>,
    /// Sink for progress lines.
    pub logger: Option<&'a Logger>,
}

/// Kernels between journal heartbeats per shard (each shard also sends a
/// final heartbeat once the pool has no kernel left for it).
const HEARTBEAT_EVERY: u64 = 16;
/// Slow-kernel entries each shard tracks (the report merges and re-ranks
/// them globally).
const SLOW_PER_SHARD: usize = 4;

/// One sweep worker: its simulator scratch and recorder, reused across
/// every kernel it measures, and the journal events it buffers until the
/// pool joins.
struct Shard {
    index: usize,
    done: u64,
    /// Whether the sweep has a cache, so misses are worth counting.
    caching: bool,
    cache_hits: u64,
    scratch: SimScratch,
    rec: Recorder,
    /// Sweep-relative time of the shard's last kernel.
    last_elapsed_ms: u64,
    /// `(done, elapsed_ms, cache_hits)` at each heartbeat so far.
    beats: Vec<(u64, u64, u64)>,
    /// `(sample, wall_ms, cycles)` of the slowest kernels so far,
    /// slowest first.
    slow: Vec<(String, f64, u64)>,
}

impl Shard {
    /// Books one journaled kernel: a slow-kernel candidate, and a
    /// heartbeat every [`HEARTBEAT_EVERY`] kernels.
    fn observe(&mut self, sample: String, wall_ms: f64, cycles: u64, elapsed_ms: u64) {
        self.slow.push((sample, wall_ms, cycles));
        self.slow
            .sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        self.slow.truncate(SLOW_PER_SHARD);
        self.last_elapsed_ms = elapsed_ms;
        if self.done.is_multiple_of(HEARTBEAT_EVERY) {
            self.beats.push((self.done, elapsed_ms, self.cache_hits));
        }
    }

    /// The shard's journal events once the pool has drained: its
    /// heartbeats, each stamped with the shard's final count as
    /// `assigned` (so exactly the last one has `done == assigned`), then
    /// its slowest kernels.
    fn into_events(mut self) -> Vec<JournalEvent> {
        if self.done == 0 || !self.done.is_multiple_of(HEARTBEAT_EVERY) {
            self.beats
                .push((self.done, self.last_elapsed_ms, self.cache_hits));
        }
        let (shard, assigned, caching) = (self.index as u64, self.done, self.caching);
        let beats = self
            .beats
            .into_iter()
            .map(|(done, elapsed_ms, cache_hits)| {
                let elapsed_s = elapsed_ms as f64 / 1e3;
                JournalEvent::Heartbeat {
                    shard,
                    done,
                    assigned,
                    elapsed_ms,
                    kernels_per_s: if elapsed_s > 0.0 {
                        done as f64 / elapsed_s
                    } else {
                        0.0
                    },
                    cache_hits,
                    cache_misses: if caching { done - cache_hits } else { 0 },
                }
            });
        let slow =
            self.slow
                .into_iter()
                .map(|(sample, wall_ms, cycles)| JournalEvent::SlowKernel {
                    sample,
                    wall_ms,
                    cycles,
                });
        beats.chain(slow).collect()
    }
}

/// The labelling sweep: measures `kernel(0), ..., kernel(n - 1)` under
/// `ctx` on [`pulp_ml::parallel_seeds`] (`threads == 0` = all cores) and
/// returns one result per kernel, in index order. Workers fetch each
/// kernel as they reach it, so a caller building kernels on demand never
/// holds the whole batch; a caller holding a slice passes `|i| &kernels[i]`.
///
/// Workers claim kernels from one shared queue in index order, so a worker
/// that draws cheap kernels keeps going while another simulates a large
/// one. Each reuses one [`SimScratch`] and one [`Recorder`]; the recorders
/// are merged into `rec` afterwards, one track per worker. The profiles are
/// **bit-identical to sequential measurement at any thread count**, and
/// collecting them into a `Result<Vec<_>, _>` yields the
/// **lowest-indexed** error, as sequential measurement would.
///
/// With `obs.journal` set each kernel is wall-timed, and each shard
/// buffers heartbeats (kernels done, kernels/s, cache hits/misses) and its
/// slowest kernels, written in shard order after the join so the writer
/// never touches the measurement loop; a failed write only warns. Each
/// shard's final heartbeat has `done == assigned`, both the number of
/// kernels that shard claimed. With `obs.logger` set a monitor thread
/// prints a throttled `[sweep]` line with rate and ETA.
pub fn sweep_kernels<K: Borrow<Kernel>>(
    n: usize,
    kernel: impl Fn(usize) -> K + Sync,
    ctx: &MeasureContext<'_>,
    threads: usize,
    rec: &mut Recorder,
    obs: BuildObserver<'_>,
) -> Vec<Result<EnergyProfile, MeasureError>> {
    let threads = pulp_ml::resolve_threads(threads, n);
    let journaling = obs.journal.is_some();
    let progress = SweepProgress::new(n, threads);
    let init = |index: usize| Shard {
        index,
        done: 0,
        caching: ctx.cache.is_some(),
        cache_hits: 0,
        scratch: SimScratch::new(),
        rec: Recorder::new(),
        last_elapsed_ms: 0,
        beats: Vec::new(),
        slow: Vec::new(),
    };
    let measure = |shard: &mut Shard, i: usize| {
        let fetched = kernel(i);
        let kernel = fetched.borrow();
        let spans_before = shard.rec.spans().len();
        let t0 = journaling.then(Instant::now);
        let res = measure_kernel_with(kernel, ctx, &mut shard.scratch, &mut shard.rec);
        shard.done += 1;
        if let Some(t0) = t0 {
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let new_spans = &shard.rec.spans()[spans_before..];
            shard.cache_hits += u64::from(new_spans.iter().any(|s| s.cat == "cache"));
            let cycles = res.as_ref().map_or(0, |p| p.cycles[0]);
            let elapsed_ms = progress.elapsed_ms();
            shard.observe(kernel.sample_id(), wall_ms, cycles, elapsed_ms);
        }
        progress.record(shard.index);
        res
    };
    let (profiles, shards) = std::thread::scope(|scope| {
        let monitor = obs
            .logger
            .map(|log| scope.spawn(|| report_progress(&progress, log)));
        let swept = pulp_ml::parallel_seeds(n, threads, init, measure);
        // Wake the monitor for its final line instead of letting it sit
        // out a full tick.
        if let Some(m) = &monitor {
            m.thread().unpark();
        }
        swept
    });
    let mut events = Vec::new();
    for mut shard in shards {
        rec.merge(std::mem::take(&mut shard.rec));
        events.extend(shard.into_events());
    }
    if let Some(journal) = obs.journal {
        if let Err(e) = journal.events(events) {
            eprintln!("[sweep] warning: journal write failed: {e}");
        }
    }
    profiles
}

/// The live `[sweep]` progress line: logs each new snapshot until every
/// kernel is measured. Parked, not slept, between ticks: the sweep unparks
/// the monitor the moment the pool joins, so a short sweep never pays a
/// full tick of extra wall time (an unpark that races ahead of the park is
/// stored, not lost).
fn report_progress(progress: &SweepProgress, log: &Logger) {
    let mut last = u64::MAX;
    loop {
        let snap = progress.snapshot();
        if snap.done() != last {
            last = snap.done();
            log.info(
                "sweep",
                &format!("measured {}/{}", snap.done(), snap.total),
                &snap.progress_fields(),
            );
        }
        if snap.done() >= snap.total {
            break;
        }
        std::thread::park_timeout(std::time::Duration::from_millis(200));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::{DType, KernelBuilder, Suite};

    fn measure(kernel: &Kernel) -> EnergyProfile {
        measure_kernel(kernel, &ClusterConfig::default(), &EnergyModel::table1()).expect("measure")
    }

    fn compute_kernel(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("c", Suite::Custom, DType::I32, n * 4);
        let x = b.array("x", n);
        b.par_for(n as u64, |b, i| {
            b.load(x, i);
            b.alu(16);
            b.store(x, i);
        });
        b.build().expect("valid")
    }

    #[test]
    fn profile_has_all_team_sizes() {
        let p = measure(&compute_kernel(256));
        assert!(p.energy.iter().all(|&e| e > 0.0));
        assert!(p.cycles.iter().all(|&c| c > 0));
        assert_eq!(p.dynamic.len(), 8);
    }

    #[test]
    fn scalable_compute_prefers_many_cores() {
        let p = measure(&compute_kernel(2048));
        assert!(
            p.label() >= 5,
            "dense compute should favour large teams, got {} cores (energies {:?})",
            p.label() + 1,
            p.energy
        );
        assert!(p.speedup(7) > 4.0, "speed-up at 8 cores: {}", p.speedup(7));
    }

    #[test]
    fn serialised_kernel_prefers_few_cores() {
        // Critical section around every iteration: no parallel benefit.
        let n = 512usize;
        let mut b = KernelBuilder::new("ser", Suite::Custom, DType::I32, n * 4);
        let x = b.array("x", n);
        let acc = b.array("acc", 4);
        b.par_for(n as u64, |b, i| {
            b.load(x, i);
            b.critical(|b| {
                b.load(acc, 0);
                b.alu(4);
                b.store(acc, 0);
            });
        });
        let k = b.build().expect("valid");
        let p = measure(&k);
        assert!(
            p.label() <= 2,
            "serialised kernel should favour small teams, got {} cores (energies {:?})",
            p.label() + 1,
            p.energy
        );
    }

    #[test]
    fn waste_is_zero_at_the_label() {
        let p = measure(&compute_kernel(512));
        assert_eq!(p.waste(p.label()), 0.0);
        for c in 0..NUM_CLASSES {
            assert!(p.waste(c) >= 0.0);
        }
    }

    fn profile_with_energy(energy: [f64; NUM_CLASSES]) -> EnergyProfile {
        EnergyProfile {
            energy,
            cycles: [100; NUM_CLASSES],
            dynamic: Vec::new(),
        }
    }

    #[test]
    fn label_skips_nan_energies_instead_of_panicking() {
        // Regression: `partial_cmp(..).expect("finite energies")` used to
        // panic the whole dataset build on a single NaN.
        let mut energy = [10.0; NUM_CLASSES];
        energy[0] = f64::NAN;
        energy[3] = 2.0;
        energy[5] = f64::INFINITY;
        assert_eq!(profile_with_energy(energy).label(), 3);
    }

    #[test]
    fn label_ties_prefer_fewest_cores() {
        let mut energy = [5.0; NUM_CLASSES];
        energy[2] = 1.0;
        energy[6] = 1.0; // exact tie with class 2 → class 2 (fewer cores) wins
        assert_eq!(profile_with_energy(energy).label(), 2);
        assert_eq!(profile_with_energy([7.0; NUM_CLASSES]).label(), 0);
    }

    #[test]
    fn all_nan_profile_degrades_to_class_zero() {
        assert_eq!(profile_with_energy([f64::NAN; NUM_CLASSES]).label(), 0);
    }

    #[test]
    fn summaries_round_trip_through_the_cache_value_type() {
        let p = measure(&compute_kernel(256));
        let summaries = p.summaries();
        assert_eq!(summaries.len(), 8);
        assert!(summaries.iter().enumerate().all(|(i, s)| s.cores == i + 1));
        assert_eq!(EnergyProfile::from_summaries(&summaries), p);
    }

    /// [`sweep_kernels`] on the default cluster, first error wins.
    fn sweep(
        kernels: &[Kernel],
        max_cycles: u64,
        threads: usize,
        obs: BuildObserver<'_>,
    ) -> Result<Vec<EnergyProfile>, MeasureError> {
        let (config, model) = (ClusterConfig::default(), EnergyModel::table1());
        let ctx = MeasureContext {
            max_cycles,
            ..MeasureContext::new(&config, &model)
        };
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
        .collect()
    }

    fn ten_kernels() -> Vec<Kernel> {
        [64usize, 128, 192, 256, 96, 160, 224, 80, 144, 208]
            .iter()
            .map(|&n| compute_kernel(n))
            .collect()
    }

    #[test]
    fn sharded_sweep_is_bit_identical_to_sequential_at_1_2_8_threads() {
        let kernels = ten_kernels();
        let sequential: Vec<EnergyProfile> = kernels.iter().map(measure).collect();
        for threads in [1usize, 2, 8] {
            let sharded = sweep(
                &kernels,
                DEFAULT_MAX_CYCLES,
                threads,
                BuildObserver::default(),
            )
            .expect("sharded");
            assert_eq!(
                sharded, sequential,
                "sharding across {threads} threads must not change any profile"
            );
        }
        assert!(sweep(&[], DEFAULT_MAX_CYCLES, 4, BuildObserver::default())
            .expect("empty batch")
            .is_empty());
    }

    #[test]
    fn observed_sweep_is_bit_identical_and_journals_round_trip_at_1_2_8_threads() {
        use pulp_obs::{validate_journal, JournalReader, JournalWriter};
        // Forty kernels, so a shard that claims more than 16 sends a
        // heartbeat every 16 kernels before its final one.
        let kernels: Vec<Kernel> = (0..4).flat_map(|_| ten_kernels()).collect();
        let plain =
            sweep(&kernels, DEFAULT_MAX_CYCLES, 2, BuildObserver::default()).expect("plain");
        for threads in [1usize, 2, 8] {
            let mut journal = JournalWriter::in_memory("test_sweep", "cafe", 7);
            let obs = BuildObserver {
                journal: Some(&mut journal),
                logger: None,
            };
            let observed = sweep(&kernels, DEFAULT_MAX_CYCLES, threads, obs).expect("observed");
            assert_eq!(
                observed, plain,
                "observation must not perturb profiles at {threads} threads"
            );
            let text = journal.finalize_to_string().expect("journal text");
            validate_journal(&text).expect("journal validates");
            let parsed = JournalReader::read_str(&text).expect("journal reads");
            // Bit-identical round trip: canonical re-encode == file bytes.
            assert_eq!(
                pulp_obs::render_journal(&parsed),
                text,
                "journal round-trip at {threads} threads"
            );
            // Every shard's final heartbeat covers every kernel it claimed.
            let mut last: Vec<Option<(u64, u64)>> = vec![None; threads];
            let mut seen = vec![0u64; threads];
            for ev in &parsed.events {
                if let pulp_obs::JournalEvent::Heartbeat {
                    shard,
                    done,
                    assigned,
                    cache_hits,
                    cache_misses,
                    ..
                } = ev
                {
                    assert_eq!((*cache_hits, *cache_misses), (0, 0), "no cache, no counts");
                    last[*shard as usize] = Some((*done, *assigned));
                    seen[*shard as usize] += 1;
                }
            }
            let mut covered = 0;
            for (s, hb) in last.iter().enumerate() {
                let (done, assigned) = hb.expect("each shard heartbeats");
                assert_eq!(done, assigned, "final heartbeat covers the shard's kernels");
                let cadence =
                    (done / HEARTBEAT_EVERY + u64::from(done % HEARTBEAT_EVERY != 0)).max(1);
                assert_eq!(
                    seen[s], cadence,
                    "heartbeat cadence of shard {s} at {threads} threads"
                );
                covered += done;
            }
            assert_eq!(covered, kernels.len() as u64);
            assert!(
                parsed
                    .events
                    .iter()
                    .any(|e| matches!(e, pulp_obs::JournalEvent::SlowKernel { .. })),
                "slow-kernel entries recorded"
            );
        }
    }

    #[test]
    fn observed_sweep_progress_lines_reach_the_logger() {
        use pulp_obs::{LogFormat, Logger};
        let kernels: Vec<Kernel> = (0..4).map(|i| compute_kernel(64 + i * 32)).collect();
        let log = Logger::to_sink(LogFormat::Text);
        let obs = BuildObserver {
            journal: None,
            logger: Some(&log),
        };
        sweep(&kernels, DEFAULT_MAX_CYCLES, 2, obs).expect("observed");
        let lines = log.take_sink().expect("sink");
        assert!(!lines.is_empty(), "progress lines expected");
        assert!(
            lines.last().unwrap().starts_with("[sweep] measured 4/4"),
            "final line reports completion: {lines:?}"
        );
        assert!(lines.iter().all(|l| l.contains("eta_s=")), "{lines:?}");
    }

    #[test]
    fn snapshot_math_is_pure() {
        let snap = SweepSnapshot {
            total: 100,
            shard_done: vec![30, 30, 2],
            elapsed_s: 31.0,
        };
        assert_eq!(snap.done(), 62);
        assert!((snap.rate() - 2.0).abs() < 1e-9);
        assert!((snap.eta_s() - 19.0).abs() < 1e-9);
        let fields = snap.progress_fields();
        assert!(fields.iter().any(|(k, v)| *k == "pct" && v == "62.0"));
        // Zero-progress snapshots report an unbounded ETA without panicking.
        let cold = SweepSnapshot {
            total: 10,
            shard_done: vec![0, 0],
            elapsed_s: 0.0,
        };
        assert_eq!(cold.rate(), 0.0);
        assert!(cold.eta_s().is_infinite());
    }

    #[test]
    fn live_progress_aggregator_counts_per_shard() {
        let prog = SweepProgress::new(6, 2);
        prog.record(0);
        prog.record(1);
        prog.record(1);
        let snap = prog.snapshot();
        assert_eq!(snap.shard_done, vec![1, 2]);
        assert_eq!(snap.done(), 3);
    }

    #[test]
    fn sharded_sweep_reports_the_lowest_indexed_error() {
        // A 1-cycle budget fails every kernel; the reported error must be
        // kernel 0's regardless of which worker hits an error first.
        let (config, model) = (ClusterConfig::default(), EnergyModel::table1());
        let kernels: Vec<Kernel> = (0..6).map(|i| compute_kernel(64 + i * 32)).collect();
        let err = sweep(&kernels, 1, 3, BuildObserver::default()).expect_err("1-cycle budget");
        let ctx = MeasureContext {
            max_cycles: 1,
            ..MeasureContext::new(&config, &model)
        };
        let seq_err = measure_kernel_with(
            &kernels[0],
            &ctx,
            &mut SimScratch::new(),
            &mut Recorder::new(),
        )
        .expect_err("sequential fails too");
        assert_eq!(format!("{err}"), format!("{seq_err}"));
    }

    #[test]
    fn cached_measurement_is_identical_and_skips_the_simulator() {
        let dir = std::env::temp_dir().join(format!(
            "pulp-labeling-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::new(&dir).expect("create cache");
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernel = compute_kernel(256);

        let ctx = MeasureContext {
            cache: Some(&cache),
            ..MeasureContext::new(&config, &model)
        };
        let mut scratch = SimScratch::new();
        let mut rec = Recorder::new();
        let cold = measure_kernel_with(&kernel, &ctx, &mut scratch, &mut rec).expect("cold run");
        let mut rec = Recorder::new();
        let warm = measure_kernel_with(&kernel, &ctx, &mut scratch, &mut rec).expect("warm run");
        assert_eq!(cold, warm, "cache round-trip must be bit-identical");
        assert!(
            rec.spans().iter().all(|s| s.cat != "simulate"),
            "warm run must not invoke the simulator"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
