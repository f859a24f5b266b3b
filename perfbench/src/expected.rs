//! The correctness gate: expected outputs committed with the benchmark.
//!
//! * `label_sweep.tsv` — label, per-core energy and per-core cycles of all
//!   448 samples. Floats are written in Rust's shortest round-trip form,
//!   so a compare after parsing is bit-exact.
//! * `train_eval.tsv` — the mean accuracy at every tolerance of the
//!   static, optimised and dynamic curves, also bit-exact.
//!
//! `perfbench --generate-expected` rewrites both from the current code and
//! cross-checks a seeded subset of small-payload samples against the
//! single-step oracle simulator before writing anything.

use crate::stats::SplitMix;
use crate::{train_eval, work, Args};
use kernel_ir::lower;
use pulp_energy::pipeline::LabeledDataset;
use pulp_energy::{Protocol, ToleranceCurve, NUM_CLASSES};
use pulp_energy_model::{energy_of, EnergyModel};
use pulp_kernels::{all_samples, registry};
use pulp_sim::{simulate_opts, ClusterConfig, NoTelemetry, NullSink, SimOptions, SimScratch};
use std::fmt::Write as _;
use std::path::Path;

const LABELS_FILE: &str = "label_sweep.tsv";
const CURVES_FILE: &str = "train_eval.tsv";
/// Payload of the samples the oracle cross-check re-simulates.
const ORACLE_PAYLOAD: usize = 512;

/// Expected measurement of one sample.
pub struct LabelRow {
    pub id: String,
    pub label: usize,
    pub energy: Vec<f64>,
    pub cycles: Vec<u64>,
}

/// Expected mean accuracy per tolerance of one curve.
pub struct CurveRow {
    pub label: String,
    pub tolerances: Vec<f64>,
    pub mean: Vec<f64>,
}

fn read(dir: &Path, name: &str) -> Result<String, String> {
    let path = dir.join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn rows(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split('\t').collect())
}

fn list<T: std::str::FromStr>(field: &str) -> Result<Vec<T>, String> {
    field
        .split(',')
        .map(|v| v.parse().map_err(|_| format!("bad number `{v}`")))
        .collect()
}

fn join<T: std::fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

pub fn load_labels(dir: &Path) -> Result<Vec<LabelRow>, String> {
    rows(&read(dir, LABELS_FILE)?)
        .map(|f| match f.as_slice() {
            [id, label, energy, cycles] => Ok(LabelRow {
                id: id.to_string(),
                label: label.parse().map_err(|_| format!("bad label `{label}`"))?,
                energy: list(energy)?,
                cycles: list(cycles)?,
            }),
            _ => Err(format!("{LABELS_FILE}: expected 4 fields, got {}", f.len())),
        })
        .collect()
}

pub fn load_curves(dir: &Path) -> Result<Vec<CurveRow>, String> {
    rows(&read(dir, CURVES_FILE)?)
        .map(|f| match f.as_slice() {
            [label, tolerances, mean] => Ok(CurveRow {
                label: label.to_string(),
                tolerances: list(tolerances)?,
                mean: list(mean)?,
            }),
            _ => Err(format!("{CURVES_FILE}: expected 3 fields, got {}", f.len())),
        })
        .collect()
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Compares one measured sample with its expectation.
pub fn check_sample(
    want: &LabelRow,
    id: &str,
    label: usize,
    energy: &[f64],
    cycles: &[u64],
) -> Option<String> {
    if want.id != id {
        return Some(format!("sample order: expected {}, got {id}", want.id));
    }
    if want.label != label {
        return Some(format!("{id}: label {label}, expected {}", want.label));
    }
    if !bits_equal(&want.energy, energy) {
        return Some(format!(
            "{id}: energy {energy:?}, expected {:?}",
            want.energy
        ));
    }
    if want.cycles != cycles {
        return Some(format!(
            "{id}: cycles {cycles:?}, expected {:?}",
            want.cycles
        ));
    }
    None
}

/// Every difference between a built dataset and the expectations.
pub fn check_dataset(data: &LabeledDataset, want: &[LabelRow]) -> Vec<String> {
    let mut problems = Vec::new();
    if data.len() != want.len() {
        problems.push(format!("{} samples, expected {}", data.len(), want.len()));
    }
    for (s, w) in data.samples.iter().zip(want) {
        problems.extend(check_sample(w, &s.id, s.label, &s.energy, &s.cycles));
    }
    problems
}

/// Every difference between evaluated curves and the expectations.
pub fn check_curves(curves: &[ToleranceCurve], want: &[CurveRow]) -> Vec<String> {
    let mut problems = Vec::new();
    if curves.len() != want.len() {
        problems.push(format!("{} curves, expected {}", curves.len(), want.len()));
    }
    for (c, w) in curves.iter().zip(want) {
        if c.label != w.label
            || !bits_equal(&c.tolerances, &w.tolerances)
            || !bits_equal(&c.mean, &w.mean)
        {
            problems.push(format!(
                "curve {}: mean {:?}, expected {} {:?}",
                c.label, c.mean, w.label, w.mean
            ));
        }
    }
    problems
}

/// Indices (into `all_samples()`) of `n` seeded small-payload samples.
pub fn oracle_subset(seed: u64, n: usize) -> Vec<usize> {
    let small: Vec<usize> = all_samples()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.payload_bytes == ORACLE_PAYLOAD)
        .map(|(i, _)| i)
        .collect();
    let mut rng = SplitMix::new(seed);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < n.min(small.len()) {
        let i = small[rng.below(small.len())];
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

/// Re-simulates the samples at `indices` with the single-step oracle
/// (fast-forward off) and compares energy and cycles with `want`.
pub fn oracle_check(indices: &[usize], want: &[LabelRow]) -> Vec<String> {
    let specs = all_samples();
    let defs = registry();
    let config = ClusterConfig::default();
    let model = EnergyModel::table1();
    let opts = SimOptions::oracle();
    let mut scratch = SimScratch::new();
    let mut problems = Vec::new();
    for &i in indices {
        let spec = &specs[i];
        let kernel = match defs[spec.kernel_index].build(&spec.params()) {
            Ok(k) => k,
            Err(e) => {
                problems.push(format!("oracle: sample {i}: {e}"));
                continue;
            }
        };
        let mut energy = Vec::with_capacity(NUM_CLASSES);
        let mut cycles = Vec::with_capacity(NUM_CLASSES);
        for team in 1..=NUM_CLASSES {
            let stats = lower(&kernel, team, &config)
                .map_err(|e| e.to_string())
                .and_then(|l| {
                    simulate_opts(
                        &config,
                        &l.program,
                        &opts,
                        &mut NullSink,
                        &mut NoTelemetry,
                        &mut scratch,
                    )
                    .map_err(|e| e.to_string())
                });
            match stats {
                Ok(s) => {
                    energy.push(energy_of(&s, &model, &config).total());
                    cycles.push(s.cycles);
                }
                Err(e) => problems.push(format!("oracle: {}: {e}", kernel.sample_id())),
            }
        }
        let w = &want[i];
        if w.id != kernel.sample_id() || !bits_equal(&w.energy, &energy) || w.cycles != cycles {
            problems.push(format!(
                "oracle: {} simulates to energy {energy:?} cycles {cycles:?}, expected {:?} {:?}",
                kernel.sample_id(),
                w.energy,
                w.cycles
            ));
        }
    }
    problems
}

/// Rewrites both expectation files from the current code (cold sweep at
/// the default threads, paper protocol) after the oracle cross-check.
pub fn generate(args: &Args) -> Result<(), String> {
    let data = LabeledDataset::build(&work::full_options(None))
        .map_err(|e| format!("dataset build: {e}"))?;
    let rows: Vec<LabelRow> = data
        .samples
        .iter()
        .map(|s| LabelRow {
            id: s.id.clone(),
            label: s.label,
            energy: s.energy.clone(),
            cycles: s.cycles.clone(),
        })
        .collect();
    let subset = oracle_subset(args.seed, 16);
    let problems = oracle_check(&subset, &rows);
    if !problems.is_empty() {
        return Err(format!(
            "oracle cross-check failed: {}",
            problems.join("; ")
        ));
    }
    eprintln!(
        "perfbench: oracle cross-check agrees on {} samples",
        subset.len()
    );

    let mut labels = String::from(
        "# id\tlabel (0-based class)\tenergy fJ at 1..=8 cores\tcycles at 1..=8 cores\n",
    );
    for r in &rows {
        writeln!(
            labels,
            "{}\t{}\t{}\t{}",
            r.id,
            r.label,
            join(&r.energy),
            join(&r.cycles)
        )
        .expect("string write");
    }
    let protocol = Protocol {
        cv_threads: 0,
        ..Protocol::default()
    };
    let curves = train_eval::evaluate(&data, &protocol)?;
    let mut text = String::from("# curve\ttolerances\tmean accuracy per tolerance\n");
    for c in &curves {
        let at5 = c.at(0.05).unwrap_or(f64::NAN) * 100.0;
        writeln!(text, "# {} @5% = {at5:.1}%", c.label).expect("string write");
    }
    for c in &curves {
        writeln!(
            text,
            "{}\t{}\t{}",
            c.label,
            join(&c.tolerances),
            join(&c.mean)
        )
        .expect("string write");
    }
    std::fs::create_dir_all(&args.expected_dir).map_err(|e| e.to_string())?;
    for (name, body) in [(LABELS_FILE, labels), (CURVES_FILE, text)] {
        let path = args.expected_dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> LabelRow {
        LabelRow {
            id: "s/k/i32/512".into(),
            label: 2,
            energy: vec![3.0, 2.0, 1.0 + f64::EPSILON],
            cycles: vec![30, 20, 10],
        }
    }

    #[test]
    fn matching_sample_passes() {
        let r = row();
        assert_eq!(check_sample(&r, &r.id, 2, &r.energy, &r.cycles), None);
    }

    #[test]
    fn perturbed_expectation_trips_the_gate() {
        let measured = row();
        let mut energy = row();
        energy.energy[2] = 1.0; // one ulp away
        assert!(
            check_sample(&energy, &measured.id, 2, &measured.energy, &measured.cycles).is_some()
        );
        let mut cycles = row();
        cycles.cycles[0] += 1;
        assert!(
            check_sample(&cycles, &measured.id, 2, &measured.energy, &measured.cycles).is_some()
        );
        let mut label = row();
        label.label = 0;
        assert!(
            check_sample(&label, &measured.id, 2, &measured.energy, &measured.cycles).is_some()
        );
    }

    #[test]
    fn perturbed_curve_trips_the_gate() {
        let curve = ToleranceCurve {
            label: "static".into(),
            tolerances: vec![0.0, 0.05],
            mean: vec![0.5, 0.9],
            std: vec![0.0, 0.0],
        };
        let mut want = CurveRow {
            label: "static".into(),
            tolerances: vec![0.0, 0.05],
            mean: vec![0.5, 0.9],
        };
        assert!(check_curves(std::slice::from_ref(&curve), std::slice::from_ref(&want)).is_empty());
        want.mean[1] = f64::from_bits(0.9f64.to_bits() + 1);
        assert_eq!(check_curves(&[curve], &[want]).len(), 1);
    }

    #[test]
    fn shortest_float_text_round_trips() {
        let v = [0.1 + 0.2, 1e-300, 123456.789e10];
        let parsed: Vec<f64> = list(&join(&v)).expect("parses");
        assert!(bits_equal(&v, &parsed));
    }
}
