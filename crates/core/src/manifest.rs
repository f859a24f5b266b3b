//! Run manifests: machine-readable provenance for every experiment output.
//!
//! A [`RunManifest`] records everything needed to reproduce (or audit) one
//! bench-binary run: crate and simulator/energy-model versions, FNV-1a
//! content hashes of the exact [`ClusterConfig`] and [`EnergyModel`] used
//! (the *same* hashing as the sweep-cache key, via
//! [`crate::cache::content_hash_hex`], so a manifest's
//! `config_hash` is directly comparable with cache keying inputs), the CV
//! protocol and seed, cache hit/miss counters and wall time. `pulp_cli
//! repro` experiments write it as `manifest.json` next to their output.
//!
//! Determinism contract: two runs with identical inputs produce
//! byte-identical manifests except for the wall-time field, and
//! [`RunManifest::manifest_hash`] hashes the manifest with wall time
//! zeroed and the protocol's CV thread count canonicalised (the fan-out
//! is bit-identical at any width), so equal hashes ⇔ equal provenance.
//!
//! # Examples
//!
//! ```
//! use pulp_energy::manifest::RunManifest;
//! use pulp_energy_model::EnergyModel;
//! use pulp_sim::ClusterConfig;
//!
//! let m = RunManifest::new("headline", &ClusterConfig::default(), &EnergyModel::table1())
//!     .with_seed(42)
//!     .with_wall_time_ms(1234);
//! let again = RunManifest::new("headline", &ClusterConfig::default(), &EnergyModel::table1())
//!     .with_seed(42)
//!     .with_wall_time_ms(9999);
//! assert_eq!(m.manifest_hash(), again.manifest_hash()); // wall time excluded
//! ```

use crate::cache::{content_hash_hex, default_cache_version, CacheStats, CACHE_FORMAT_VERSION};
use crate::evaluation::Protocol;
use pulp_energy_model::EnergyModel;
use pulp_sim::ClusterConfig;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Provenance record for one bench-binary run. Field order is the JSON
/// field order (the vendored serde serialises structs in declaration
/// order), so keep `wall_time_ms` last: everything above it is
/// deterministic for identical inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Name of the binary (or logical tool) that produced the output.
    pub tool: String,
    /// Workspace crate version (`CARGO_PKG_VERSION` of pulp-core).
    pub crate_version: String,
    /// [`pulp_sim::SIM_VERSION`] at build time.
    pub sim_version: u32,
    /// [`pulp_energy_model::MODEL_VERSION`] at build time.
    pub model_version: u32,
    /// [`CACHE_FORMAT_VERSION`] at build time.
    pub cache_format_version: u32,
    /// The combined cache version string
    /// ([`default_cache_version`]) — what the sweep cache folds into keys.
    pub cache_version: String,
    /// FNV-1a hex hash of the [`ClusterConfig`]'s deterministic JSON.
    pub config_hash: String,
    /// FNV-1a hex hash of the [`EnergyModel`]'s deterministic JSON.
    pub model_hash: String,
    /// RNG seed for the evaluation protocol (0 when no CV was run).
    pub seed: u64,
    /// The cross-validation protocol, when the run evaluated a model.
    pub protocol: Option<Protocol>,
    /// Sweep-cache counters observed by this run, when caching was on.
    pub cache_stats: Option<CacheStats>,
    /// Free-form, tool-specific key/value provenance (sorted by key for
    /// deterministic encoding regardless of insertion order).
    pub extra: Vec<(String, String)>,
    /// Wall-clock duration of the run in milliseconds. Excluded from
    /// [`manifest_hash`](Self::manifest_hash); keep this field last.
    pub wall_time_ms: u64,
}

impl RunManifest {
    /// Builds a manifest for `tool` run against `config` and `model`,
    /// hashing both with the sweep-cache keying primitive.
    pub fn new(tool: &str, config: &ClusterConfig, model: &EnergyModel) -> Self {
        Self {
            tool: tool.to_string(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            sim_version: pulp_sim::SIM_VERSION,
            model_version: pulp_energy_model::MODEL_VERSION,
            cache_format_version: CACHE_FORMAT_VERSION,
            cache_version: default_cache_version(),
            config_hash: content_hash_hex(config),
            model_hash: content_hash_hex(model),
            seed: 0,
            protocol: None,
            cache_stats: None,
            extra: Vec::new(),
            wall_time_ms: 0,
        }
    }

    /// Sets the evaluation seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records the CV protocol (also copies its seed).
    #[must_use]
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.seed = protocol.seed;
        self.protocol = Some(protocol);
        self
    }

    /// Records sweep-cache counters.
    #[must_use]
    pub fn with_cache_stats(mut self, stats: CacheStats) -> Self {
        self.cache_stats = Some(stats);
        self
    }

    /// Appends one tool-specific provenance pair, keeping `extra` sorted.
    #[must_use]
    pub fn with_extra(mut self, key: &str, value: impl ToString) -> Self {
        self.extra.push((key.to_string(), value.to_string()));
        self.extra.sort();
        self
    }

    /// Records the wall-clock duration.
    #[must_use]
    pub fn with_wall_time_ms(mut self, ms: u64) -> Self {
        self.wall_time_ms = ms;
        self
    }

    /// FNV-1a hex hash of the manifest with wall time zeroed and the
    /// protocol's `cv_threads` canonicalised to 0: equal hashes mean the
    /// runs had identical provenance, however long they took and however
    /// many worker threads fanned the CV out (predictions are bit-identical
    /// at any `cv_threads`, so thread count is execution detail, not
    /// provenance).
    pub fn manifest_hash(&self) -> String {
        let mut canonical = self.clone();
        canonical.wall_time_ms = 0;
        if let Some(p) = canonical.protocol.as_mut() {
            p.cv_threads = 0;
        }
        content_hash_hex(&canonical)
    }

    /// Pretty JSON encoding (deterministic field order).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialises")
    }

    /// Writes `manifest.json`-style output at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        RunManifest::new("test", &ClusterConfig::default(), &EnergyModel::table1())
    }

    #[test]
    fn identical_inputs_give_byte_identical_manifests_modulo_wall_time() {
        let a = manifest().with_seed(7).with_wall_time_ms(10);
        let b = manifest().with_seed(7).with_wall_time_ms(9999);
        let strip = |m: &RunManifest| {
            m.to_json_pretty()
                .lines()
                .filter(|l| !l.contains("wall_time_ms"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&a), strip(&b));
        assert_eq!(a.manifest_hash(), b.manifest_hash());
        assert_ne!(
            a.manifest_hash(),
            manifest().with_seed(8).manifest_hash(),
            "seed participates in the hash"
        );
    }

    #[test]
    fn config_hash_matches_cache_keying_inputs() {
        let config = ClusterConfig::default();
        let m = RunManifest::new("t", &config, &EnergyModel::table1());
        assert_eq!(m.config_hash, content_hash_hex(&config));
        let other = config.clone().with_cores(4);
        let m2 = RunManifest::new("t", &other, &EnergyModel::table1());
        assert_ne!(m.config_hash, m2.config_hash);
        assert_eq!(m.model_hash, m2.model_hash);
    }

    #[test]
    fn round_trips_through_json() {
        let m = manifest()
            .with_protocol(Protocol::default())
            .with_cache_stats(CacheStats {
                hits: 3,
                misses: 1,
                invalidations: 0,
            })
            .with_extra("accuracy", "0.875")
            .with_wall_time_ms(12);
        let back: RunManifest = serde_json::from_str(&m.to_json_pretty()).expect("manifest parses");
        assert_eq!(m, back);
    }

    #[test]
    fn extra_is_sorted_regardless_of_insertion_order() {
        let a = manifest().with_extra("b", 2).with_extra("a", 1);
        let b = manifest().with_extra("a", 1).with_extra("b", 2);
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
    }

    #[test]
    fn manifest_hash_ignores_cv_thread_count() {
        // The CV fan-out is bit-identical at any thread count, so two runs
        // differing only in `cv_threads` have the same provenance — and the
        // same hash (also what keeps `bench models` records byte-identical
        // across `--cv-threads`).
        let at = |threads: usize| {
            manifest().with_protocol(Protocol {
                cv_threads: threads,
                ..Protocol::default()
            })
        };
        assert_eq!(at(1).manifest_hash(), at(4).manifest_hash());
        assert_ne!(at(1).to_json_pretty(), at(4).to_json_pretty());
    }

    #[test]
    fn manifest_hash_golden_value_is_stable() {
        // Golden pin: the hash of a fully deterministic manifest (default
        // config/model, fixed seed, no wall time). This only moves when
        // something that *should* invalidate provenance moves — a version
        // constant, the config/model encoding, or the hash itself. Update
        // the constant deliberately when one of those changes.
        let m = manifest().with_seed(42).with_extra("quick", false);
        // Moved with MODEL_VERSION 1 → 2 (model-zoo/flat-inference release).
        assert_eq!(m.manifest_hash(), "43871660d1e98262");
        // Wall time must not move the golden value.
        assert_eq!(
            m.clone().with_wall_time_ms(123_456).manifest_hash(),
            m.manifest_hash()
        );
    }

    #[test]
    fn versions_reflect_build_constants() {
        let m = manifest();
        assert_eq!(m.sim_version, pulp_sim::SIM_VERSION);
        assert_eq!(m.model_version, pulp_energy_model::MODEL_VERSION);
        assert!(m
            .cache_version
            .contains(&format!("fmt{CACHE_FORMAT_VERSION}")));
    }
}
