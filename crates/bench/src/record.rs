//! `BENCH_*.json` — the one benchmark-record schema, and the one gate.
//!
//! `repro headline`, `bench sim`, `bench serve` and `bench models` all write a
//! [`BenchRecord`]: which benchmark, which profile, the provenance hash
//! and a flat list of named [`Metric`]s. Each metric carries its own
//! gate ([`Tolerance`]), so [`BenchRecord::regressions`] — behind
//! `pulp_cli bench diff`, `bench history` and the runner's check of every
//! fresh record ([`BenchRecord::breaches`]) — needs no knowledge of any
//! particular benchmark. Metric names are `field` or `row/field` (for
//! example `static_at_5`, `alu@8/ff_cycles_per_s`, `kernel/p99_us`), and
//! the run journal's `bench_record` events carry exactly these names
//! ([`BenchRecord::journal_events`]).

use pulp_obs::JournalEvent;
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// Largest tolerated drop of any gated accuracy (headline and model
/// zoo): one percentage point.
pub const ACCURACY_TOLERANCE: f64 = 0.01;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (accuracy, throughput).
    Higher,
    /// Smaller values are better (latency, error counts).
    Lower,
}

/// The gate a metric carries. Exactly one of three forms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Largest worsening relative to the baseline value (`0.2` = 20%).
    Relative(f64),
    /// Largest worsening in the metric's own unit (`0.01` = one point of
    /// accuracy).
    Absolute(f64),
    /// A bound on the candidate alone, whatever the baseline says: the
    /// candidate may not be worse than this value.
    Limit(f64),
}

/// One named measurement of a record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// `field` or `row/field`; unique within a record.
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// Unit of `value` (`s`, `us`, `count`, `ratio`, `cycles/s`, …).
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// The gate, or `None` for context-only metrics.
    pub tolerance: Option<Tolerance>,
}

/// Unit, direction and gate of one metric, as a report's `spec` function
/// (see [`BenchRecord::from_report`]) gives them.
pub type Spec = (&'static str, Better, Option<Tolerance>);

/// One benchmark run: the content of a `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Benchmark kind (`headline`, `sim`, `serve`, `models`, …).
    pub bench: String,
    /// `quick` or `full`; records of different profiles measure
    /// different workloads and are never compared.
    pub profile: String,
    /// Hash of the run manifest (empty when the run wrote none).
    pub manifest_hash: String,
    /// Every measurement, in report order.
    pub metrics: Vec<Metric>,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }

    /// Whether `value` is worse than `bound` in this direction.
    fn worse(self, value: f64, bound: f64) -> bool {
        match self {
            Self::Higher => value < bound,
            Self::Lower => value > bound,
        }
    }
}

impl Serialize for Better {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for Better {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_str()? {
            "higher" => Ok(Self::Higher),
            "lower" => Ok(Self::Lower),
            other => Err(DeError::msg(format!(
                "`better` must be higher or lower, got {other:?}"
            ))),
        }
    }
}

impl Serialize for Tolerance {
    fn to_value(&self) -> Value {
        let (kind, x) = match *self {
            Self::Relative(x) => ("relative", x),
            Self::Absolute(x) => ("absolute", x),
            Self::Limit(x) => ("limit", x),
        };
        Value::Map(vec![(kind.to_string(), Value::F64(x))])
    }
}

impl Deserialize for Tolerance {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_map()? {
            [(kind, x)] => {
                let x = x.as_f64()?;
                match kind.as_str() {
                    "relative" => Ok(Self::Relative(x)),
                    "absolute" => Ok(Self::Absolute(x)),
                    "limit" => Ok(Self::Limit(x)),
                    other => Err(DeError::msg(format!("unknown tolerance kind {other:?}"))),
                }
            }
            _ => Err(DeError::msg(
                "a tolerance is exactly one of relative, absolute or limit",
            )),
        }
    }
}

/// A value at display precision: four significant decimals, scientific
/// notation for very large or very small magnitudes.
fn short(x: f64) -> String {
    if x != 0.0 && !(1e-3..1e5).contains(&x.abs()) {
        format!("{x:.3e}")
    } else {
        let s = format!("{x:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

impl Metric {
    /// The regression message when `self` (a candidate measurement) breaks
    /// `tolerance`, judged against `baseline` where the gate needs one.
    fn breach(&self, baseline: Option<&Metric>, tolerance: Tolerance) -> Option<String> {
        let (name, new) = (&self.name, self.value);
        let better = baseline.map_or(self.better, |b| b.better);
        let worse = |bound: f64| better.worse(new, bound);
        let sign = match better {
            Better::Higher => -1.0,
            Better::Lower => 1.0,
        };
        match tolerance {
            Tolerance::Relative(r) => {
                let old = baseline?.value;
                worse(old * (1.0 + sign * r)).then(|| {
                    format!(
                        "{name}: {} -> {} {} ({:.1}% worse > {:.0}% tolerance)",
                        short(old),
                        short(new),
                        self.unit,
                        (new / old - 1.0).abs() * 100.0,
                        r * 100.0
                    )
                })
            }
            Tolerance::Absolute(a) => {
                let old = baseline?.value;
                worse(old + sign * a).then(|| {
                    format!(
                        "{name}: {} -> {} {} ({} worse > {} tolerance)",
                        short(old),
                        short(new),
                        self.unit,
                        short((new - old).abs()),
                        short(a)
                    )
                })
            }
            Tolerance::Limit(limit) => worse(limit).then(|| {
                let side = match better {
                    Better::Higher => "below",
                    Better::Lower => "above",
                };
                format!(
                    "{name}: {} {} {side} the {} limit",
                    short(new),
                    self.unit,
                    short(limit)
                )
            }),
        }
    }
}

impl BenchRecord {
    /// An empty record of benchmark `bench` in the quick or full profile.
    pub fn new(bench: &str, quick: bool) -> Self {
        Self {
            bench: bench.to_string(),
            profile: if quick { "quick" } else { "full" }.to_string(),
            manifest_hash: String::new(),
            metrics: Vec::new(),
        }
    }

    /// A record of every number in a serialised `report`. Each numeric
    /// field (booleans as 0/1) becomes a metric named after it; a nested
    /// map prefixes its fields with `map/`, and each entry of a `rows`
    /// sequence with its `row_key` fields joined by `@` (`alu@8/`), which
    /// are not metrics themselves. Strings and nulls carry no measurement,
    /// and `quick` is the record's profile. `spec(prefix, field)` gives each
    /// metric's unit, direction and gate; `prefix` is the row or map name,
    /// empty at the top level.
    pub fn from_report(
        bench: &str,
        quick: bool,
        report: &impl Serialize,
        row_key: &[&str],
        spec: impl Fn(&str, &str) -> Spec,
    ) -> Self {
        let mut record = Self::new(bench, quick);
        record.flatten("", &report.to_value(), &["quick"], row_key, &spec);
        record
    }

    fn flatten(
        &mut self,
        prefix: &str,
        value: &Value,
        skip: &[&str],
        row_key: &[&str],
        spec: &dyn Fn(&str, &str) -> Spec,
    ) {
        let Ok(fields) = value.as_map() else { return };
        for (field, v) in fields.iter().filter(|(f, _)| !skip.contains(&f.as_str())) {
            let name = format!("{prefix}{field}");
            let value = match v {
                Value::Bool(b) => f64::from(u8::from(*b)),
                Value::Map(_) => {
                    self.flatten(&format!("{name}/"), v, &[], row_key, spec);
                    continue;
                }
                Value::Seq(rows) if field == "rows" => {
                    for row in rows {
                        let key: Vec<String> = row_key
                            .iter()
                            .filter_map(|k| match row.field(k) {
                                Ok(Value::Str(s)) => Some(s.clone()),
                                Ok(other) => other.as_u64().ok().map(|n| n.to_string()),
                                Err(_) => None,
                            })
                            .collect();
                        let row_prefix = format!("{prefix}{}/", key.join("@"));
                        self.flatten(&row_prefix, row, row_key, &[], spec);
                    }
                    continue;
                }
                other => match other.as_f64() {
                    Ok(x) => x,
                    Err(_) => continue,
                },
            };
            let spec = spec(prefix.trim_end_matches('/'), field);
            self.push(name, value, spec);
        }
    }

    /// Appends the metric `name` with its unit, direction and gate.
    pub fn push(&mut self, name: impl Into<String>, value: f64, spec: Spec) {
        let (unit, better, tolerance) = spec;
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            better,
            tolerance,
        });
    }

    /// The metric called `name`, if the record has one.
    pub(crate) fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The record as JSON text, one metric per line.
    pub fn to_json(&self) -> String {
        let json = |v: &dyn Serialize| serde_json::to_string(v).expect("records serialise");
        let metrics: Vec<String> = self.metrics.iter().map(|m| json(m)).collect();
        format!(
            "{{\n  \"bench\": {},\n  \"profile\": {},\n  \"manifest_hash\": {},\n  \
             \"metrics\": [\n    {}\n  ]\n}}\n",
            json(&self.bench),
            json(&self.profile),
            json(&self.manifest_hash),
            metrics.join(",\n    ")
        )
    }

    /// Writes [`to_json`](Self::to_json) to `path`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path when the write fails.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Reads and parses the record at `path`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path when it cannot be read or is not
    /// a bench record.
    pub fn load(path: &Path) -> Result<Self, String> {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// One `bench_record` journal event per metric, under the metric's
    /// own name.
    pub fn journal_events(&self) -> impl Iterator<Item = JournalEvent> + '_ {
        self.metrics.iter().map(|m| JournalEvent::BenchRecord {
            bench: self.bench.clone(),
            name: m.name.clone(),
            value: m.value,
        })
    }

    /// Compares `candidate` against `self` as the baseline and returns one
    /// message per regression:
    ///
    /// * a gated baseline metric the candidate lacks;
    /// * a candidate value beyond the baseline metric's relative or
    ///   absolute tolerance;
    /// * a candidate value beyond a limit. A limit binds the candidate
    ///   alone, so it is checked on candidate metrics the baseline lacks
    ///   too;
    /// * a non-finite candidate value, whatever its gate.
    ///
    /// # Errors
    ///
    /// Records of different benchmarks or profiles are not comparable.
    pub fn regressions(&self, candidate: &BenchRecord) -> Result<Vec<String>, String> {
        if (&self.bench, &self.profile) != (&candidate.bench, &candidate.profile) {
            return Err(format!(
                "records are not comparable: baseline is {} ({} profile), \
                 candidate is {} ({} profile)",
                self.bench, self.profile, candidate.bench, candidate.profile
            ));
        }
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.tolerance.is_some() && candidate.get(&m.name).is_none())
            .map(|m| format!("{}: missing from candidate", m.name))
            .collect();
        for new in &candidate.metrics {
            if !new.value.is_finite() {
                out.push(format!("{}: non-finite value {}", new.name, new.value));
                continue;
            }
            let old = self.get(&new.name);
            let gate = match old {
                Some(old) => old.tolerance,
                None => new.tolerance.filter(|t| matches!(t, Tolerance::Limit(_))),
            };
            if let Some(message) = gate.and_then(|t| new.breach(old, t)) {
                out.push(message);
            }
        }
        Ok(out)
    }

    /// The record checked on its own: the [`regressions`](Self::regressions)
    /// against an empty baseline of the same bench and profile, so only its
    /// limits and the non-finite rule apply.
    pub fn breaches(&self) -> Vec<String> {
        let empty = Self {
            profile: self.profile.clone(),
            ..Self::new(&self.bench, false)
        };
        empty.regressions(self).expect("same bench and profile")
    }

    /// One line for the `bench history` table: the worst value of each
    /// gated field (the part of the name after the last `/`).
    pub fn summary(&self) -> String {
        let mut worst: Vec<(&str, &Metric)> = Vec::new();
        for m in self.metrics.iter().filter(|m| m.tolerance.is_some()) {
            let field = m.name.rsplit('/').next().unwrap_or(&m.name);
            match worst.iter_mut().find(|(f, _)| *f == field) {
                Some((_, w)) if w.better.worse(m.value, w.value) => *w = m,
                Some(_) => {}
                None => worst.push((field, m)),
            }
        }
        if worst.is_empty() {
            return "no gated metrics".to_string();
        }
        worst
            .iter()
            .map(|(_, m)| format!("{}={}", m.name, short(m.value)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};
    use Tolerance::{Absolute, Limit};

    #[derive(Serialize)]
    struct Row {
        model: String,
        cores: u64,
        static_at_5: f64,
        flat_mismatches: Option<u64>,
    }

    #[derive(Serialize)]
    struct Latency {
        p99_us: f64,
    }

    #[derive(Serialize)]
    struct Report {
        bench: String,
        quick: bool,
        exact: bool,
        rows: Vec<Row>,
        open_loop: Latency,
        wall_s: f64,
    }

    fn zoo() -> BenchRecord {
        let row = |model: &str, flat_mismatches| Row {
            model: model.to_string(),
            cores: 8,
            static_at_5: 0.93,
            flat_mismatches,
        };
        let report = Report {
            bench: "models".to_string(),
            quick: true,
            exact: true,
            rows: vec![row("tree", Some(0)), row("knn", None)],
            open_loop: Latency { p99_us: 900.0 },
            wall_s: 0.063_439_719,
        };
        let accuracy = Some(Absolute(ACCURACY_TOLERANCE));
        let key = ["model", "cores"];
        BenchRecord::from_report("models", true, &report, &key, |_, field| match field {
            "static_at_5" => ("ratio", Higher, accuracy),
            "flat_mismatches" => ("count", Lower, Some(Limit(0.0))),
            _ => ("s", Lower, None),
        })
    }

    #[test]
    fn from_report_flattens_rows_and_maps_and_skips_text_and_nulls() {
        let record = zoo();
        let names: Vec<&str> = record.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "exact",
                "tree@8/static_at_5",
                "tree@8/flat_mismatches",
                "knn@8/static_at_5",
                "open_loop/p99_us",
                "wall_s",
            ]
        );
        assert_eq!(record.profile, "quick");
        assert_eq!(record.get("exact").map(|m| m.value), Some(1.0));
        let gate = record
            .get("tree@8/flat_mismatches")
            .and_then(|m| m.tolerance);
        assert_eq!(gate, Some(Limit(0.0)));
    }

    #[test]
    fn records_round_trip_through_their_json_text() {
        let mut r = zoo();
        r.manifest_hash = "cafe".to_string();
        r.push("late_sends", 2.0, ("count", Lower, None));
        let text = r.to_json();
        assert_eq!(
            text.lines().count(),
            7 + r.metrics.len(),
            "one metric per line"
        );
        let back: BenchRecord = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, r);
        assert!(text.contains(r#""tolerance":{"absolute":0.01}"#), "{text}");
        assert!(
            text.contains(r#""better":"lower","tolerance":null"#),
            "{text}"
        );
        let two_gates = r#"{"name":"x","value":1.0,"unit":"u","better":"lower",
            "tolerance":{"limit":0.0,"relative":0.1}}"#;
        assert!(serde_json::from_str::<Metric>(two_gates).is_err());
    }

    #[test]
    fn a_record_checked_alone_reports_its_breached_limits_and_non_finite_values() {
        let mut r = zoo();
        assert_eq!(r.breaches(), Vec::<String>::new());
        r.metrics[2].value = 2.0;
        r.push("late_sends", f64::NAN, ("count", Lower, None));
        assert_eq!(
            r.breaches(),
            [
                "tree@8/flat_mismatches: 2 count above the 0 limit",
                "late_sends: non-finite value NaN",
            ]
        );
        // Relative and absolute gates need a baseline, so alone they hold.
        r.metrics[1].value = 0.0;
        assert_eq!(r.breaches().len(), 2);
    }

    #[test]
    fn every_committed_baseline_parses_and_diffs_clean_against_itself() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths: Vec<_> = std::fs::read_dir(root.join("baselines"))
            .expect("baselines/ exists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        paths.sort();
        paths.push(root.join("BENCH_headline.json"));
        assert!(paths.len() >= 6, "{paths:?}");
        for path in paths {
            let record = BenchRecord::load(&path).unwrap_or_else(|e| panic!("{e}"));
            assert!(
                record.metrics.iter().any(|m| m.tolerance.is_some()),
                "{}: no gated metric",
                path.display()
            );
            let regressions = record.regressions(&record).expect("same bench and profile");
            assert!(
                regressions.is_empty(),
                "{}: {regressions:?}",
                path.display()
            );
        }
    }
}
