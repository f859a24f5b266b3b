//! The benchmark's working directory: per-op scratch caches and the warm
//! sweep cache that `train_eval` and the serve workloads load from.
//!
//! Everything lives under `--work-dir`; nothing here touches the coarse
//! whole-dataset cache the experiment binaries keep under `target/`.

use pulp_energy::pipeline::{LabeledDataset, PipelineOptions};
use pulp_energy::{CacheStats, SweepCache};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A directory removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, empty directory under `work`.
    pub fn new(work: &Path, tag: &str) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = work.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The full 448-sample paper configuration at the default sweep threads
/// (`0` = all cores), optionally behind a sweep cache.
pub fn full_options(cache: Option<Arc<SweepCache>>) -> PipelineOptions {
    PipelineOptions {
        cache,
        ..PipelineOptions::default()
    }
}

/// Opens a sweep cache handle (fresh counters) on `dir`.
pub fn open_cache(dir: &Path) -> Result<Arc<SweepCache>, String> {
    SweepCache::new(dir)
        .map(Arc::new)
        .map_err(|e| format!("open sweep cache {}: {e}", dir.display()))
}

fn warm_dir(work: &Path) -> PathBuf {
    work.join("warm-cache")
}

/// Fills the warm sweep cache (untimed). Entries are keyed by the
/// simulator and model versions, so a version bump misses and re-simulates
/// instead of reading stale entries.
pub fn prepare_warm(work: &Path) -> Result<LabeledDataset, String> {
    let cache = open_cache(&warm_dir(work))?;
    let data = LabeledDataset::build(&full_options(Some(Arc::clone(&cache))))
        .map_err(|e| format!("warm-cache build: {e}"))?;
    let stats = cache.stats();
    if stats.misses + stats.invalidations > 0 {
        eprintln!("perfbench: warm cache prepared ({stats})");
    }
    Ok(data)
}

/// Options reading the prepared warm cache through a fresh handle.
pub fn warm_options(work: &Path) -> Result<PipelineOptions, String> {
    Ok(full_options(Some(open_cache(&warm_dir(work))?)))
}

/// Loads the dataset from the warm cache; returns it with the lookup
/// counters of this load.
pub fn load_warm(work: &Path) -> Result<(LabeledDataset, CacheStats), String> {
    let opts = warm_options(work)?;
    let data = LabeledDataset::build(&opts).map_err(|e| format!("warm load: {e}"))?;
    let stats = opts.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    Ok((data, stats))
}
