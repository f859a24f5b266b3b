//! The run report: op counts, correctness failures and metrics, printed as
//! the two trailing stdout lines that `BENCHMARK.json` consumers read.

/// Every per-layer metric of a traced run: `(name, unit, better)`. Each
/// traced run reports all of them; a layer its workload does not exercise
/// reads 0 with 0 samples behind it. `BENCHMARK.json` lists the same set.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("kernels.build_us", "us", "lower"),
    ("kernel_ir.features_us", "us", "lower"),
    ("mca.analyze_us", "us", "lower"),
    ("kernel_ir.lower_us", "us", "lower"),
    ("sim.simulate_us", "us", "lower"),
    ("sim.mcycles_per_s", "Mcycles/s", "higher"),
    ("sim.cycles", "count", "lower"),
    ("sim.ff_skip_ratio", "ratio", "higher"),
    ("energy.account_us", "us", "lower"),
    ("energy.dynamic_us", "us", "lower"),
    ("cache.store_us", "us", "lower"),
    ("cache.stores", "count", "lower"),
    ("labeling.shard_imbalance", "ratio", "lower"),
    ("labeling.parallel_efficiency", "ratio", "higher"),
    ("labeling.unattributed_share", "ratio", "lower"),
    ("cache.lookup_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("ml.fit_us.static", "us", "lower"),
    ("ml.fit_us.optimised", "us", "lower"),
    ("ml.fit_us.dynamic", "us", "lower"),
    ("ml.predict_ns", "ns", "lower"),
    ("ml.folds_us", "us", "lower"),
    ("ml.tree_nodes", "count", "lower"),
    ("evaluation.rank_us", "us", "lower"),
    ("evaluation.score_us", "us", "lower"),
    ("evaluation.cv_parallel_efficiency", "ratio", "higher"),
    ("predictor.train_us", "us", "lower"),
    ("evaluation.unattributed_share", "ratio", "lower"),
    ("net.http_parse_us", "us", "lower"),
    ("json.parse_us", "us", "lower"),
    ("json.serialize_us", "us", "lower"),
    ("serve.featurize_us", "us", "lower"),
    ("kernels.registry_us", "us", "lower"),
    ("predictor.predict_ns", "ns", "lower"),
    ("serve.span.queue_wait_us", "us", "lower"),
    ("serve.span.read_us", "us", "lower"),
    ("serve.span.parse_us", "us", "lower"),
    ("serve.span.features_us", "us", "lower"),
    ("serve.span.predict_us", "us", "lower"),
    ("serve.span.serialize_us", "us", "lower"),
    ("serve.span.write_us", "us", "lower"),
    ("serve.span.request_us", "us", "lower"),
    ("serve.unattributed_us", "us", "lower"),
    ("serve.client_p50_us", "us", "lower"),
    ("serve.client_p90_us", "us", "lower"),
    ("serve.keepalive_reuse_ratio", "ratio", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("serve.connections", "count", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.wall_items_per_s", "1/s", "higher"),
];

/// Every end-to-end metric of an untraced run, in order: `(name, unit)`.
/// `BENCHMARK.json` lists the same set.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Failure messages kept per run (a broken server would otherwise store
/// one per request).
const MAX_ERRORS: usize = 100;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Number of measurements behind `value`.
    pub samples: usize,
}

/// Outcome of one workload run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons the run is not correct (mismatches against
    /// the expectations, failed reconciliation checks).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        if !value.is_finite() {
            self.errors
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records one op: `problems` empty means it completed and was right.
    /// Only the first [`MAX_ERRORS`] messages are kept.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = MAX_ERRORS.saturating_sub(self.errors.len());
            self.errors.extend(problems.into_iter().take(room.max(1)));
        }
    }

    /// Records a failed check that is not an op (e.g. a reconciliation).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Checks an untraced run reported exactly [`END_TO_END`].
    pub fn check_end_to_end(&mut self) {
        let got: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        if got != END_TO_END {
            let msg = format!("end-to-end metrics {got:?} differ from the listed {END_TO_END:?}");
            self.errors.push(msg);
        }
    }

    /// Completes a traced run's metrics to exactly [`PER_LAYER`], in its
    /// order: layers the workload did not exercise read 0 (0 samples).
    pub fn complete_per_layer(&mut self) {
        let mut out = Vec::with_capacity(PER_LAYER.len());
        for &(name, unit, _) in PER_LAYER {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => {
                    let m = self.metrics.remove(i);
                    if m.unit != unit {
                        self.errors
                            .push(format!("{name} reported in {}, listed in {unit}", m.unit));
                    }
                    out.push(m);
                }
                None => out.push(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    samples: 0,
                }),
            }
        }
        for m in self.metrics.drain(..) {
            self.errors
                .push(format!("{} is not a listed per-layer metric", m.name));
        }
        self.metrics = out;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    pub fn print(&self) {
        for e in self.errors.iter().take(20) {
            eprintln!("perfbench: FAIL {e}");
        }
        if self.errors.len() > 20 {
            eprintln!("perfbench: ... {} more failures", self.errors.len() - 20);
        }
        let detail: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.samples))
            .collect();
        println!("{{\"samples\": {{{}}}}}", detail.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a metric that is not finite reads as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.field(key)
            .and_then(Value::as_seq)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.field(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let per_layer: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed(&v, "per_layer"), per_layer);
        let e2e: Vec<(String, String)> = listed(&v, "end_to_end")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, want);
    }

    #[test]
    fn traced_metrics_are_completed_in_listed_order() {
        let mut r = Report::default();
        r.metric("bench.trace_overhead", 0.01, "ratio", 2);
        r.metric("sim.simulate_us", 3.0, "us", 8);
        r.complete_per_layer();
        assert!(r.errors.is_empty());
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, want);
        r.metric("no.such_metric", 1.0, "us", 1);
        r.complete_per_layer();
        assert_eq!(r.errors.len(), 1);
    }
}
