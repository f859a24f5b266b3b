//! Content-addressed cache for simulation sweep results.
//!
//! Building the paper's dataset simulates every sample at every team size
//! — 448 × 8 cycle-level runs — and every experiment binary used to redo
//! that work from scratch. [`SweepCache`] persists the per-team-size
//! [`EnergySummary`] of each sample under a key derived from everything
//! that determines the result:
//!
//! * the sample id (`suite/name/dtype/payload` — kernel and parameters),
//! * the full [`ClusterConfig`],
//! * the full [`EnergyModel`] coefficients,
//! * the simulator/energy-model version constants
//!   ([`pulp_sim::SIM_VERSION`], [`pulp_energy_model::MODEL_VERSION`]).
//!
//! The key is a stable 64-bit FNV-1a hash of the deterministic JSON
//! encoding of those inputs, so cache hits are content-addressed: change a
//! latency constant or bump a version and every stale entry misses (and is
//! counted as an *invalidation* when the entry exists with another
//! version). Entries are written atomically (write to a temporary file,
//! then rename), so a crashed or concurrent writer can never leave a
//! half-written entry that parses. Corrupt or truncated entries are
//! treated as invalidations and recomputed — never panics.

use pulp_energy_model::{EnergyModel, EnergySummary};
use pulp_sim::ClusterConfig;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the cache file format itself (bump on layout changes).
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// The default version string folded into every cache key: simulator,
/// energy-model and cache-format versions. Bumping any of the three
/// invalidates all previously cached sweeps.
pub fn default_cache_version() -> String {
    format!(
        "sim{}-model{}-fmt{}",
        pulp_sim::SIM_VERSION,
        pulp_energy_model::MODEL_VERSION,
        CACHE_FORMAT_VERSION
    )
}

/// Hex-encoded FNV-1a 64-bit hash of a value's deterministic JSON
/// encoding — the exact keying primitive [`SweepCache::key`] uses, exposed
/// so run manifests can record config/model hashes that are comparable
/// with cache keys (same serialisation, same hash).
pub fn content_hash_hex(value: &impl Serialize) -> String {
    let encoded = serde_json::to_string(&value.to_value()).expect("value serialises");
    format!("{:016x}", fnv1a64(encoded.as_bytes()))
}

/// 64-bit FNV-1a over `bytes` — a small, stable, dependency-free hash.
/// Collisions are tolerable: entries embed the sample id and are verified
/// on load.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A resolved cache key: the content hash plus the sample id it encodes
/// (kept for collision verification and debuggability).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    hash: u64,
    sample: String,
}

impl CacheKey {
    /// The entry's file name inside the cache directory.
    pub fn file_name(&self) -> String {
        format!("{:016x}.json", self.hash)
    }

    /// The sample id this key was derived from.
    pub fn sample(&self) -> &str {
        &self.sample
    }
}

/// Hit/miss/invalidation counts observed by one [`SweepCache`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups with no entry on disk.
    pub misses: u64,
    /// Entries found but rejected (version mismatch, corruption, sample
    /// mismatch) and recomputed.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.invalidations
    }

    /// Hit rate in percent (100.0 when there were no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            100.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} invalidations ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.invalidations,
            self.hit_rate()
        )
    }
}

/// On-disk usage of a cache directory (for `pulp_cli cache stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CacheDirStats {
    /// Number of `*.json` entries.
    pub entries: u64,
    /// Total size of the entries in bytes.
    pub bytes: u64,
}

/// Content-addressed, thread-safe store of per-sample sweep summaries.
///
/// All methods take `&self`; counters are atomics, so one instance can be
/// shared (e.g. via `Arc`) across the pipeline's worker threads.
#[derive(Debug)]
pub struct SweepCache {
    dir: PathBuf,
    version: String,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl SweepCache {
    /// Opens (creating if needed) a cache rooted at `dir`, keyed with the
    /// [`default_cache_version`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_version(dir, &default_cache_version())
    }

    /// Opens a cache with an explicit version string — the hook tests (and
    /// forks of the simulator) use to prove that a version bump invalidates
    /// previously written entries.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn with_version(dir: impl Into<PathBuf>, version: &str) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            version: version.to_string(),
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Derives the content-addressed key of one sample's sweep.
    pub fn key(&self, sample_id: &str, config: &ClusterConfig, model: &EnergyModel) -> CacheKey {
        // The key payload is serialised with the deterministic vendored
        // serde_json (fixed field order, exact float round-trip), so the
        // hash is stable across processes and platforms.
        let payload = Value::Map(vec![
            ("version".to_string(), self.version.to_value()),
            ("sample".to_string(), sample_id.to_value()),
            ("config".to_string(), config.to_value()),
            ("model".to_string(), model.to_value()),
        ]);
        let encoded = serde_json::to_string(&payload).expect("key serialises");
        CacheKey {
            hash: fnv1a64(encoded.as_bytes()),
            sample: sample_id.to_string(),
        }
    }

    /// Loads the cached sweep for `key`, verifying version and sample id.
    ///
    /// Returns `None` on any kind of failure — missing entry (counted as a
    /// miss), or unreadable/corrupt/stale entry (counted as an
    /// invalidation). Never panics and never propagates I/O errors: the
    /// caller simply recomputes.
    pub fn lookup(&self, key: &CacheKey) -> Option<Vec<EnergySummary>> {
        let path = self.dir.join(key.file_name());
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Self::parse_entry(&text, &self.version, &key.sample) {
            Some(summaries) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(summaries)
            }
            None => {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn parse_entry(text: &str, version: &str, sample: &str) -> Option<Vec<EnergySummary>> {
        let mut value: Value = serde_json::from_str(text).ok()?;
        if value.field("version").ok()?.as_str().ok()? != version
            || value.field("sample").ok()?.as_str().ok()? != sample
        {
            return None;
        }
        let summaries =
            Vec::<EnergySummary>::from_value(value.take_field("summaries").ok()?).ok()?;
        if summaries.is_empty() || !summaries.iter().all(EnergySummary::is_plausible) {
            return None;
        }
        Some(summaries)
    }

    /// Persists one sample's sweep under `key`, atomically: the entry is
    /// written to a unique temporary file in the cache directory and then
    /// renamed into place, so readers either see the whole entry or none.
    ///
    /// Best-effort: I/O failures are reported to stderr and swallowed —
    /// a read-only cache directory degrades performance, not correctness.
    pub fn store(&self, key: &CacheKey, summaries: &[EnergySummary]) {
        let entry = Value::Map(vec![
            ("version".to_string(), self.version.to_value()),
            ("sample".to_string(), key.sample.to_value()),
            ("summaries".to_string(), summaries.to_value()),
        ]);
        let text = serde_json::to_string(&entry).expect("entry serialises");
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            "{:016x}.tmp.{}.{}",
            key.hash,
            std::process::id(),
            seq
        ));
        let path = self.dir.join(key.file_name());
        let result = fs::write(&tmp, &text).and_then(|()| fs::rename(&tmp, &path));
        if let Err(e) = result {
            let _ = fs::remove_file(&tmp);
            eprintln!("[cache] warning: cannot write {}: {e}", path.display());
        }
    }

    /// Counters observed by this instance since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Records the hit/miss/invalidation counters into `rec` as the obs
    /// counters `cache/hits`, `cache/misses` and `cache/invalidations`.
    pub fn record(&self, rec: &mut pulp_obs::Recorder) {
        let s = self.stats();
        rec.counter("cache/hits", s.hits as f64);
        rec.counter("cache/misses", s.misses as f64);
        rec.counter("cache/invalidations", s.invalidations as f64);
    }

    /// Sizes the `*.json` entries currently in `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be read.
    pub fn dir_stats(dir: &Path) -> io::Result<CacheDirStats> {
        let mut stats = CacheDirStats::default();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "json") {
                stats.entries += 1;
                stats.bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        Ok(stats)
    }

    /// Deletes every `*.json` entry in `dir`, returning how many were
    /// removed. Leaves the directory itself (and any foreign files) alone.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn clear(dir: &Path) -> io::Result<u64> {
        let mut removed = 0;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "json") {
                fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_energy_model::DynamicFeatures;
    use pulp_sim::SimStats;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pulp-sweep-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn summaries() -> Vec<EnergySummary> {
        (1..=4)
            .map(|cores| EnergySummary {
                cores,
                energy_fj: 1000.0 * cores as f64 + 0.125,
                cycles: 10_000 / cores as u64,
                dynamic: DynamicFeatures::extract(&SimStats::default()),
            })
            .collect()
    }

    #[test]
    fn round_trips_summaries() {
        let dir = tmp_dir("roundtrip");
        let cache = SweepCache::new(&dir).expect("create");
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let key = cache.key("custom/k/f32/2048", &config, &model);

        assert_eq!(cache.lookup(&key), None);
        let stored = summaries();
        cache.store(&key, &stored);
        assert_eq!(cache.lookup(&key).as_deref(), Some(&stored[..]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (1, 1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_is_content_addressed() {
        let dir = tmp_dir("keys");
        let cache = SweepCache::new(&dir).expect("create");
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let base = cache.key("a/b/f32/512", &config, &model);
        assert_eq!(base, cache.key("a/b/f32/512", &config, &model));
        assert_ne!(base, cache.key("a/b/f32/1024", &config, &model));
        let small = config.clone().with_cores(4);
        assert_ne!(
            base.file_name(),
            cache.key("a/b/f32/512", &small, &model).file_name()
        );
        let mut warm = model;
        warm.pe.alu += 1.0;
        assert_ne!(
            base.file_name(),
            cache.key("a/b/f32/512", &config, &warm).file_name()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_entries_fall_back_to_recompute() {
        let dir = tmp_dir("corrupt");
        let cache = SweepCache::new(&dir).expect("create");
        let key = cache.key(
            "a/b/f32/512",
            &ClusterConfig::default(),
            &EnergyModel::table1(),
        );
        cache.store(&key, &summaries());

        // Truncate the entry mid-JSON.
        let path = dir.join(key.file_name());
        let text = fs::read_to_string(&path).expect("entry exists");
        fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        assert_eq!(cache.lookup(&key), None, "truncated entry must miss");

        // Replace with non-JSON garbage.
        fs::write(&path, "not json at all {{{").expect("garbage");
        assert_eq!(cache.lookup(&key), None, "garbage entry must miss");

        // Valid JSON of the wrong shape.
        fs::write(&path, "{\"unexpected\": true}").expect("wrong shape");
        assert_eq!(cache.lookup(&key), None, "wrong-shape entry must miss");

        // NaN energies smuggled into an otherwise valid entry are refused.
        let mut bad = summaries();
        bad[0].energy_fj = f64::NAN;
        cache.store(&key, &bad);
        assert_eq!(cache.lookup(&key), None, "non-finite entry must miss");

        assert_eq!(cache.stats().invalidations, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_bump_invalidates() {
        let dir = tmp_dir("version");
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let stored = summaries();

        let v1 = SweepCache::with_version(&dir, "v1").expect("create");
        let key_v1 = v1.key("a/b/f32/512", &config, &model);
        v1.store(&key_v1, &stored);
        assert!(v1.lookup(&key_v1).is_some());

        // A bumped version hashes to a different key — the old entry is
        // simply never found (a miss, then a fresh store).
        let v2 = SweepCache::with_version(&dir, "v2").expect("create");
        let key_v2 = v2.key("a/b/f32/512", &config, &model);
        assert_ne!(key_v1.file_name(), key_v2.file_name());
        assert_eq!(v2.lookup(&key_v2), None);

        // Even a forged hash collision (entry bytes from another version
        // under the new key's file name) is rejected via the embedded
        // version field, counted as an invalidation.
        fs::copy(dir.join(key_v1.file_name()), dir.join(key_v2.file_name()))
            .expect("forge collision");
        assert_eq!(v2.lookup(&key_v2), None);
        assert_eq!(v2.stats().invalidations, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_and_dir_stats_agree() {
        let dir = tmp_dir("clear");
        let cache = SweepCache::new(&dir).expect("create");
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        for i in 0..3 {
            let key = cache.key(&format!("a/b/f32/{i}"), &config, &model);
            cache.store(&key, &summaries());
        }
        let stats = SweepCache::dir_stats(&dir).expect("stats");
        assert_eq!(stats.entries, 3);
        assert!(stats.bytes > 0);
        assert_eq!(SweepCache::clear(&dir).expect("clear"), 3);
        assert_eq!(SweepCache::dir_stats(&dir).expect("stats").entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_render_cleanly() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            invalidations: 0,
        };
        assert_eq!(s.lookups(), 4);
        assert_eq!(
            s.to_string(),
            "3 hits, 1 misses, 0 invalidations (75.0% hit rate)"
        );
        assert_eq!(CacheStats::default().hit_rate(), 100.0);
    }
}
