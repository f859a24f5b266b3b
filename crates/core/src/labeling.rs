//! Simulation-based labelling — steps (B)–(E) of the paper's workflow.
//!
//! Each dataset sample is simulated with every team size from 1 to 8; the
//! Table-I energy model assigns each run an energy; the arg-min team size
//! becomes the sample's class label.

use crate::cache::SweepCache;
use kernel_ir::{lower, Kernel, LowerError};
use pulp_energy_model::{energy_of, DynamicFeatures, EnergyModel, EnergySummary};
use pulp_obs::{JournalEvent, JournalWriter, Logger, Recorder};
use pulp_sim::{
    simulate_opts, ClusterConfig, NoTelemetry, NullSink, SimError, SimOptions, SimScratch,
    DEFAULT_MAX_CYCLES,
};
use serde::{Deserialize, Serialize};
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
    measure_kernel_budgeted(kernel, config, model, DEFAULT_MAX_CYCLES)
}

/// [`measure_kernel`] with an explicit per-run cycle budget
/// (`--max-cycles` on `pulp_cli`).
///
/// The 8 per-team-size simulations share one [`SimScratch`], so the sweep
/// allocates its per-core state vectors once instead of once per run.
///
/// # Errors
///
/// See [`measure_kernel`]; additionally fails with
/// [`pulp_sim::SimError::CycleLimit`] when a run exceeds `max_cycles`.
pub fn measure_kernel_budgeted(
    kernel: &Kernel,
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
) -> Result<EnergyProfile, MeasureError> {
    measure_kernel_scratch(kernel, config, model, max_cycles, &mut SimScratch::new())
}

/// [`measure_kernel_budgeted`] with a caller-provided [`SimScratch`].
///
/// The sharded sweep driver ([`measure_kernels_sharded`]) hands each worker
/// thread one scratch that is reused across *all* its kernels and team
/// sizes, so a multi-thousand-sample labelling run performs a handful of
/// scratch allocations instead of one per sample.
///
/// # Errors
///
/// See [`measure_kernel_budgeted`].
pub fn measure_kernel_scratch(
    kernel: &Kernel,
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
    scratch: &mut SimScratch,
) -> Result<EnergyProfile, MeasureError> {
    let mut energy = [0.0; NUM_CLASSES];
    let mut cycles = [0u64; NUM_CLASSES];
    let mut dynamic = Vec::with_capacity(NUM_CLASSES);
    let opts = SimOptions::default().with_max_cycles(max_cycles);
    for team in 1..=NUM_CLASSES.min(config.num_cores) {
        let lowered = lower(kernel, team, config)?;
        let stats = simulate_opts(
            config,
            &lowered.program,
            &opts,
            &mut NullSink,
            &mut NoTelemetry,
            scratch,
        )?;
        energy[team - 1] = energy_of(&stats, model, config).total();
        cycles[team - 1] = stats.cycles;
        dynamic.push(DynamicFeatures::extract(&stats));
    }
    Ok(EnergyProfile {
        energy,
        cycles,
        dynamic,
    })
}

/// [`measure_kernel`] with stage telemetry: each team-size simulation gets
/// a `simulate` span annotated with its cycle count and energy.
///
/// # Errors
///
/// See [`measure_kernel`].
pub fn measure_kernel_instrumented(
    kernel: &Kernel,
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
    rec: &mut Recorder,
) -> Result<EnergyProfile, MeasureError> {
    measure_kernel_instrumented_scratch(
        kernel,
        config,
        model,
        max_cycles,
        rec,
        &mut SimScratch::new(),
    )
}

/// [`measure_kernel_instrumented`] with a caller-provided [`SimScratch`]
/// (see [`measure_kernel_scratch`] for why sweeps thread one through).
///
/// # Errors
///
/// See [`measure_kernel`].
pub fn measure_kernel_instrumented_scratch(
    kernel: &Kernel,
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
    rec: &mut Recorder,
    scratch: &mut SimScratch,
) -> Result<EnergyProfile, MeasureError> {
    let mut energy = [0.0; NUM_CLASSES];
    let mut cycles = [0u64; NUM_CLASSES];
    let mut dynamic = Vec::with_capacity(NUM_CLASSES);
    let opts = SimOptions::default().with_max_cycles(max_cycles);
    for team in 1..=NUM_CLASSES.min(config.num_cores) {
        let span = rec.start_cat(&format!("simulate t{team}"), "simulate");
        let result = (|| -> Result<_, MeasureError> {
            let lowered = lower(kernel, team, config)?;
            let stats = simulate_opts(
                config,
                &lowered.program,
                &opts,
                &mut NullSink,
                &mut NoTelemetry,
                scratch,
            )?;
            Ok(stats)
        })();
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                rec.annotate(span, "error", &e);
                rec.end(span);
                return Err(e);
            }
        };
        let fj = energy_of(&stats, model, config).total();
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

/// [`measure_kernel_instrumented`] behind the content-addressed sweep
/// cache: a valid cached sweep short-circuits all 1..=8 simulator
/// invocations; a miss (or stale/corrupt entry) recomputes and stores the
/// fresh sweep atomically.
///
/// # Errors
///
/// See [`measure_kernel`]. Cache I/O never fails the measurement — a bad
/// entry simply falls back to recomputing.
pub fn measure_kernel_cached(
    kernel: &Kernel,
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
    cache: &SweepCache,
    rec: &mut Recorder,
) -> Result<EnergyProfile, MeasureError> {
    measure_kernel_cached_scratch(
        kernel,
        config,
        model,
        max_cycles,
        cache,
        rec,
        &mut SimScratch::new(),
    )
}

/// [`measure_kernel_cached`] with a caller-provided [`SimScratch`]
/// (see [`measure_kernel_scratch`]; the scratch is only touched on a miss).
///
/// # Errors
///
/// See [`measure_kernel`].
pub fn measure_kernel_cached_scratch(
    kernel: &Kernel,
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
    cache: &SweepCache,
    rec: &mut Recorder,
    scratch: &mut SimScratch,
) -> Result<EnergyProfile, MeasureError> {
    let sample = kernel.sample_id();
    let key = cache.key(&sample, config, model);
    let expected_teams = NUM_CLASSES.min(config.num_cores);
    if let Some(summaries) = cache.lookup(&key) {
        let shape_ok = summaries.len() == expected_teams
            && summaries.iter().enumerate().all(|(i, s)| s.cores == i + 1);
        if shape_ok {
            let span = rec.start_cat(&format!("cache hit {sample}"), "cache");
            rec.end(span);
            return Ok(EnergyProfile::from_summaries(&summaries));
        }
        // A hash collision or foreign entry of the wrong shape: ignore it
        // and recompute (the store below overwrites it).
    }
    let profile =
        measure_kernel_instrumented_scratch(kernel, config, model, max_cycles, rec, scratch)?;
    cache.store(&key, &profile.summaries());
    Ok(profile)
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

    /// Total kernels in the sweep.
    pub fn total(&self) -> u64 {
        self.total
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
/// quantities (rate, ETA, stragglers) are pure functions of the fields,
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

    /// Shards more than 2× the median behind: shard `s` is a straggler
    /// when its remaining work exceeds twice the (lower) median remaining
    /// across all shards. `assigned[s]` is the kernel count shard `s`
    /// owns.
    pub fn stragglers(&self, assigned: &[u64]) -> Vec<usize> {
        let remaining: Vec<u64> = assigned
            .iter()
            .zip(&self.shard_done)
            .map(|(a, d)| a.saturating_sub(*d))
            .collect();
        if remaining.is_empty() {
            return Vec::new();
        }
        let mut sorted = remaining.clone();
        sorted.sort_unstable();
        let median = sorted[(sorted.len() - 1) / 2];
        remaining
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0 && r > 2 * median)
            .map(|(s, _)| s)
            .collect()
    }

    /// The `--progress` line's key-value fields (percent done, rate, ETA,
    /// straggler shards if any), ready for [`Logger::info`].
    pub fn progress_fields(&self, assigned: &[u64]) -> Vec<(&'static str, String)> {
        let pct = if self.total > 0 {
            self.done() as f64 / self.total as f64 * 100.0
        } else {
            100.0
        };
        let mut fields = vec![
            ("pct", format!("{pct:.1}")),
            ("rate", format!("{:.1}", self.rate())),
            ("eta_s", format!("{:.0}", self.eta_s())),
        ];
        let stragglers = self.stragglers(assigned);
        if !stragglers.is_empty() {
            fields.push(("stragglers", format!("{stragglers:?}")));
        }
        fields
    }
}

/// Observation hooks for [`measure_kernels_sharded_observed`]: an
/// optional journal receiving heartbeats and slow-kernel events, an
/// optional logger for the live progress line, and the heartbeat cadence.
/// [`SweepObserver::disabled`] turns the observed driver back into the
/// bare sweep with no per-kernel timing on the hot loop.
#[derive(Default)]
pub struct SweepObserver<'a> {
    /// Receives per-shard heartbeats and slow-kernel events, buffered in
    /// each worker and merged in shard order after the join (so journal
    /// writes never touch the measurement loop).
    pub journal: Option<&'a mut JournalWriter>,
    /// Sink for the live progress line; `None` with `progress` set falls
    /// back to a plain-text stderr logger.
    pub logger: Option<&'a Logger>,
    /// Emit a throttled `[sweep]` progress line with ETA and straggler
    /// flags while the sweep runs.
    pub progress: bool,
    /// Kernels between heartbeats per shard (`0` = the default of 16).
    pub heartbeat_every: u64,
}

impl SweepObserver<'_> {
    /// No journal, no progress — observation fully off.
    pub fn disabled() -> SweepObserver<'static> {
        SweepObserver::default()
    }
}

/// Slow-kernel entries each shard tracks (the report merges and re-ranks
/// them globally).
const SLOW_PER_SHARD: usize = 4;

/// Sweeps a batch of independent kernels across a scoped worker pool.
///
/// Labelling is embarrassingly parallel per sample: each kernel's 1..=8
/// team-size sweep touches no shared state. Workers claim kernels by
/// round-robin striding (worker `t` measures indices `t, t + threads, ...`),
/// each reusing one [`SimScratch`] across every run it performs, and the
/// profiles land in input order — the result is **bit-identical to
/// sequential measurement at any thread count**, which the unit tests pin
/// at 1/2/8 threads.
///
/// `threads == 0` uses all available cores; the count is clamped to the
/// batch size.
///
/// # Errors
///
/// If any kernels fail, returns the error of the **lowest-indexed** failing
/// kernel (independent of thread interleaving), as sequential measurement
/// would.
pub fn measure_kernels_sharded(
    kernels: &[Kernel],
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
    threads: usize,
) -> Result<Vec<EnergyProfile>, MeasureError> {
    measure_kernels_sharded_observed(
        kernels,
        config,
        model,
        max_cycles,
        threads,
        SweepObserver::disabled(),
    )
}

/// [`measure_kernels_sharded`] with observation: per-shard journal
/// heartbeats (kernels done, kernels/s), per-shard slow-kernel tracking,
/// and a live throttled progress line with ETA and straggler flags.
///
/// The measured profiles are **bit-identical** to the unobserved sweep at
/// any thread count — observation only adds per-kernel wall timing (and
/// only when a journal is attached), lock-free progress counts, and
/// worker-local event buffers written to the journal in shard order after
/// the join.
///
/// # Errors
///
/// See [`measure_kernels_sharded`]. Journal write failures after the
/// sweep are reported to stderr but do not fail the measurement.
pub fn measure_kernels_sharded_observed(
    kernels: &[Kernel],
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
    threads: usize,
    obs: SweepObserver<'_>,
) -> Result<Vec<EnergyProfile>, MeasureError> {
    if kernels.is_empty() {
        return Ok(Vec::new());
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(kernels.len());
    let journaling = obs.journal.is_some();
    if threads == 1 && !journaling && !obs.progress {
        let mut scratch = SimScratch::new();
        return kernels
            .iter()
            .map(|k| measure_kernel_scratch(k, config, model, max_cycles, &mut scratch))
            .collect();
    }

    let heartbeat_every = if obs.heartbeat_every == 0 {
        16
    } else {
        obs.heartbeat_every
    };
    // Shard `t` owns indices `t, t + threads, ...`.
    let assigned: Vec<u64> = (0..threads)
        .map(|t| ((kernels.len() - t).div_ceil(threads)) as u64)
        .collect();
    let progress = SweepProgress::new(kernels.len(), threads);
    let fallback_logger = Logger::new(pulp_obs::LogFormat::Text);
    let logger: Option<&Logger> = if obs.progress {
        Some(obs.logger.unwrap_or(&fallback_logger))
    } else {
        None
    };

    let mut profiles: Vec<Option<EnergyProfile>> = vec![None; kernels.len()];
    let mut first_error: Option<(usize, MeasureError)> = None;
    let mut shard_events: Vec<Vec<JournalEvent>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let progress = &progress;
            handles.push(scope.spawn(move || {
                let mut scratch = SimScratch::new();
                let mut out = Vec::new();
                let mut events: Vec<JournalEvent> = Vec::new();
                let mut slow: Vec<(String, f64, u64)> = Vec::new();
                let mut done = 0u64;
                let shard_total = ((kernels.len() - t).div_ceil(threads)) as u64;
                let mut i = t;
                while i < kernels.len() {
                    let t0 = journaling.then(Instant::now);
                    let res = measure_kernel_scratch(
                        &kernels[i],
                        config,
                        model,
                        max_cycles,
                        &mut scratch,
                    );
                    done += 1;
                    if let Some(t0) = t0 {
                        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                        let cycles = res.as_ref().map_or(0, |p| p.cycles[0]);
                        slow.push((kernels[i].sample_id(), wall_ms, cycles));
                        if slow.len() > SLOW_PER_SHARD {
                            // Keep the SLOW_PER_SHARD largest by wall time.
                            slow.sort_by(|a, b| {
                                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)
                            });
                            slow.truncate(SLOW_PER_SHARD);
                        }
                        if done.is_multiple_of(heartbeat_every) || done == shard_total {
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
                                cache_hits: 0,
                                cache_misses: 0,
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
                (out, events)
            }));
        }
        let monitor = logger.map(|log| {
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
                    // Parked, not slept: the join path unparks us the moment
                    // the last worker finishes, so a short sweep never pays a
                    // full monitor tick of extra wall time. An unpark that
                    // races ahead of the park is stored, not lost.
                    std::thread::park_timeout(std::time::Duration::from_millis(200));
                }
            })
        });
        for h in handles {
            let (results, events) = h.join().expect("sharded sweep worker panicked");
            shard_events.push(events);
            for (i, res) in results {
                match res {
                    Ok(p) => profiles[i] = Some(p),
                    Err(e) => {
                        if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                            first_error = Some((i, e));
                        }
                    }
                }
            }
        }
        if let Some(m) = &monitor {
            m.thread().unpark();
        }
    });
    if let Some(journal) = obs.journal {
        // Deterministic merge: shard 0's buffer first, then shard 1's, ...
        if let Err(e) = journal.events(shard_events.into_iter().flatten()) {
            eprintln!("[sweep] warning: journal write failed: {e}");
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    Ok(profiles
        .into_iter()
        .map(|p| p.expect("all kernels measured"))
        .collect())
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

    #[test]
    fn sharded_sweep_is_bit_identical_to_sequential_at_1_2_8_threads() {
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernels: Vec<Kernel> = [64usize, 128, 192, 256, 96, 160, 224, 80, 144, 208]
            .iter()
            .map(|&n| compute_kernel(n))
            .collect();
        let sequential: Vec<EnergyProfile> = kernels
            .iter()
            .map(|k| measure_kernel(k, &config, &model).expect("sequential"))
            .collect();
        for threads in [1usize, 2, 8] {
            let sharded =
                measure_kernels_sharded(&kernels, &config, &model, DEFAULT_MAX_CYCLES, threads)
                    .expect("sharded");
            assert_eq!(
                sharded, sequential,
                "sharding across {threads} threads must not change any profile"
            );
        }
        assert!(
            measure_kernels_sharded(&[], &config, &model, DEFAULT_MAX_CYCLES, 4)
                .expect("empty batch")
                .is_empty()
        );
    }

    #[test]
    fn observed_sweep_is_bit_identical_and_journals_round_trip_at_1_2_8_threads() {
        use pulp_obs::{validate_journal, JournalReader, JournalWriter};
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernels: Vec<Kernel> = [64usize, 128, 192, 256, 96, 160, 224, 80, 144, 208]
            .iter()
            .map(|&n| compute_kernel(n))
            .collect();
        let plain = measure_kernels_sharded(&kernels, &config, &model, DEFAULT_MAX_CYCLES, 2)
            .expect("plain");
        for threads in [1usize, 2, 8] {
            let mut journal = JournalWriter::in_memory("test_sweep", "cafe", 7);
            let observed = measure_kernels_sharded_observed(
                &kernels,
                &config,
                &model,
                DEFAULT_MAX_CYCLES,
                threads,
                SweepObserver {
                    journal: Some(&mut journal),
                    logger: None,
                    progress: false,
                    heartbeat_every: 4,
                },
            )
            .expect("observed");
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
            // Every shard's final heartbeat covers its full stripe.
            let mut last: Vec<Option<(u64, u64)>> = vec![None; threads];
            for ev in &parsed.events {
                if let pulp_obs::JournalEvent::Heartbeat {
                    shard,
                    done,
                    assigned,
                    ..
                } = ev
                {
                    last[*shard as usize] = Some((*done, *assigned));
                }
            }
            let covered: u64 = last
                .iter()
                .map(|hb| {
                    let (done, assigned) = hb.expect("each shard heartbeats");
                    assert_eq!(done, assigned, "final heartbeat covers the stripe");
                    done
                })
                .sum();
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
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernels: Vec<Kernel> = (0..4).map(|i| compute_kernel(64 + i * 32)).collect();
        let log = Logger::to_sink(LogFormat::Text);
        measure_kernels_sharded_observed(
            &kernels,
            &config,
            &model,
            DEFAULT_MAX_CYCLES,
            2,
            SweepObserver {
                journal: None,
                logger: Some(&log),
                progress: true,
                heartbeat_every: 0,
            },
        )
        .expect("observed");
        let lines = log.take_sink().expect("sink");
        assert!(!lines.is_empty(), "progress lines expected");
        assert!(
            lines.last().unwrap().starts_with("[sweep] measured 4/4"),
            "final line reports completion: {lines:?}"
        );
        assert!(lines.iter().all(|l| l.contains("eta_s=")), "{lines:?}");
    }

    #[test]
    fn snapshot_math_is_pure_and_flags_stragglers() {
        let snap = SweepSnapshot {
            total: 100,
            shard_done: vec![30, 30, 2],
            elapsed_s: 31.0,
        };
        assert_eq!(snap.done(), 62);
        assert!((snap.rate() - 2.0).abs() < 1e-9);
        assert!((snap.eta_s() - 19.0).abs() < 1e-9);
        // Remaining: [4, 4, 31]; median 4 → shard 2 (> 8 behind) straggles.
        assert_eq!(snap.stragglers(&[34, 34, 33]), vec![2]);
        // Even remaining → nobody straggles.
        let even = SweepSnapshot {
            total: 100,
            shard_done: vec![20, 20, 20],
            elapsed_s: 10.0,
        };
        assert!(even.stragglers(&[34, 33, 33]).is_empty());
        // One shard done, one far behind: lower median (0) flags it.
        let tail = SweepSnapshot {
            total: 20,
            shard_done: vec![10, 3],
            elapsed_s: 5.0,
        };
        assert_eq!(tail.stragglers(&[10, 10]), vec![1]);
        let fields = snap.progress_fields(&[34, 34, 33]);
        assert!(fields.iter().any(|(k, v)| *k == "pct" && v == "62.0"));
        assert!(fields.iter().any(|(k, v)| *k == "stragglers" && v == "[2]"));
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
        assert_eq!(prog.total(), 6);
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
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernels: Vec<Kernel> = (0..6).map(|i| compute_kernel(64 + i * 32)).collect();
        let err = measure_kernels_sharded(&kernels, &config, &model, 1, 3)
            .expect_err("1-cycle budget must fail");
        let seq_err = measure_kernel_budgeted(&kernels[0], &config, &model, 1)
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

        let mut rec = Recorder::new();
        let cold = measure_kernel_cached(
            &kernel,
            &config,
            &model,
            DEFAULT_MAX_CYCLES,
            &cache,
            &mut rec,
        )
        .expect("cold run");
        let mut rec = Recorder::new();
        let warm = measure_kernel_cached(
            &kernel,
            &config,
            &model,
            DEFAULT_MAX_CYCLES,
            &cache,
            &mut rec,
        )
        .expect("warm run");
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
