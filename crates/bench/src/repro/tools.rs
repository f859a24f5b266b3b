//! Utilities that ride on the experiment plumbing: the dataset as CSV and
//! the cycle-attribution / energy-waterfall profile sweep.

use super::{Output, Run, Stop};
use crate::{profile_run, QUICK_KERNELS};
use kernel_ir::{lower, DType};
use pulp_energy::pipeline::LabeledDataset;
use pulp_energy::{dynamic_feature_names, static_feature_names};
use pulp_energy_model::{energy_waterfall, EnergyModel};
use pulp_kernels::{registry, KernelParams};
use pulp_sim::{ClusterConfig, CycleBreakdown, CycleCause};
use serde::Value;

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Exports the measured dataset as CSV on stdout for external analysis
/// (spreadsheets, pandas, R) — one row per sample with identity columns,
/// the per-class energies and cycles, the full static and dynamic feature
/// vectors and the label. `--json` dumps the raw `LabeledDataset` record.
pub(super) fn dataset_export(run: &mut Run, data: &LabeledDataset) -> Result<Output, Stop> {
    let mut cols: Vec<String> = vec![
        "id".into(),
        "kernel".into(),
        "suite".into(),
        "dtype".into(),
        "payload_bytes".into(),
        "label_cores".into(),
    ];
    cols.extend((1..=8).map(|c| format!("energy_fj_{c}c")));
    cols.extend((1..=8).map(|c| format!("cycles_{c}c")));
    cols.extend(static_feature_names());
    cols.extend(dynamic_feature_names());
    let out = &mut *run.out;
    writeln!(out, "{}", cols.join(","))?;

    for s in &data.samples {
        let mut row: Vec<String> = vec![
            csv_escape(&s.id),
            csv_escape(&s.kernel),
            s.suite.to_string(),
            s.dtype.to_string(),
            s.payload_bytes.to_string(),
            (s.label + 1).to_string(),
        ];
        row.extend(s.energy.iter().map(|e| format!("{e}")));
        row.extend(s.cycles.iter().map(|c| c.to_string()));
        row.extend(s.static_x.iter().map(|v| format!("{v}")));
        row.extend(s.dynamic_x.iter().map(|v| format!("{v}")));
        writeln!(out, "{}", row.join(","))?;
    }
    if !run.args.quiet {
        run.args.logger().info(
            "export",
            "rows written to stdout",
            &[
                ("rows", data.len().to_string()),
                ("columns", cols.len().to_string()),
            ],
        );
    }
    Ok(Output::json(data))
}

/// The cause (other than plain execution) that claimed the most cycles.
fn dominant_stall(b: &CycleBreakdown) -> (CycleCause, u64) {
    CycleCause::ALL
        .iter()
        .filter(|c| !matches!(c, CycleCause::Execute | CycleCause::ExecTail))
        .map(|&c| (c, b.count(c)))
        .max_by_key(|&(_, n)| n)
        .unwrap_or((CycleCause::Idle, 0))
}

/// Cycle attribution and energy waterfall of the quick kernel subset at
/// `--size` bytes (default 2048), at every team size: per run, total
/// cycles, energy and the dominant non-execute stall cause. `--detail`
/// adds the full per-core stall table and the energy waterfall of each
/// kernel's minimum-energy team; `--quiet` prints only the detail.
pub(super) fn profile_report(run: &mut Run) -> Result<Output, Stop> {
    let args = run.args;
    let config = ClusterConfig::default();
    let model = EnergyModel::table1();
    let defs = registry();
    let mut json_kernels: Vec<(String, Value)> = Vec::new();

    let out = &mut *run.out;
    if !args.quiet {
        writeln!(
            out,
            "{:<20} {:>4} {:>10} {:>12} {:>7} {:<14}",
            "kernel", "team", "cycles", "energy [uJ]", "exec%", "top stall"
        )?;
    }
    for name in QUICK_KERNELS {
        let def = defs
            .iter()
            .find(|d| d.name == *name)
            .ok_or_else(|| format!("quick kernel {name} missing from registry"))?;
        let dtype = if def.supports(DType::F32) {
            DType::F32
        } else {
            DType::I32
        };
        let kernel = def
            .build(&KernelParams::new(dtype, args.size()))
            .map_err(|e| format!("cannot instantiate {name}: {e}"))?;
        let mut best: Option<(usize, f64)> = None;
        let mut team_values: Vec<Value> = Vec::new();
        for team in 1..=config.num_cores {
            let profiled = lower(&kernel, team, &config)
                .map_err(|e| e.to_string())
                .and_then(|l| {
                    profile_run(&config, &l.program, 100_000_000).map_err(|e| e.to_string())
                })
                .map_err(|e| format!("{name} team {team}: {e}"))?;
            let totals = profiled.stats.breakdown_totals();
            debug_assert_eq!(
                totals.total(),
                profiled.stats.cycles * profiled.stats.cores.len() as u64
            );
            let fj = energy_waterfall(&profiled.stats, &model, &config).total();
            let exec_pct = 100.0 * totals.execute as f64 / totals.total() as f64;
            let (cause, n) = dominant_stall(&totals);
            if !args.quiet {
                writeln!(
                    out,
                    "{:<20} {:>4} {:>10} {:>12.4} {:>6.1}% {:<10} ({n})",
                    name,
                    team,
                    profiled.stats.cycles,
                    fj * 1e-9,
                    exec_pct,
                    cause.token()
                )?;
            }
            if best.is_none_or(|(_, e)| fj < e) {
                best = Some((team, fj));
            }
            team_values.push(Value::Map(vec![
                ("team".to_string(), Value::U64(team as u64)),
                ("cycles".to_string(), Value::U64(profiled.stats.cycles)),
                ("energy_fj".to_string(), Value::F64(fj)),
                (
                    "breakdown".to_string(),
                    Value::Map(
                        totals
                            .iter()
                            .map(|(c, v)| (c.token().to_string(), Value::U64(v)))
                            .collect(),
                    ),
                ),
            ]));
        }
        if args.detail {
            let (team, _) = best.expect("at least one team");
            let lowered = lower(&kernel, team, &config).expect("lowering succeeded above");
            let profiled = profile_run(&config, &lowered.program, 100_000_000)
                .expect("simulation succeeded above");
            writeln!(out, "-- {name} detail (minimum-energy team {team}) --")?;
            write!(out, "{}", profiled.stats.summary())?;
            write!(
                out,
                "{}",
                energy_waterfall(&profiled.stats, &model, &config)
            )?;
        }
        json_kernels.push((name.to_string(), Value::Seq(team_values)));
    }

    Ok(Output::json(&Value::Map(vec![
        ("size".to_string(), Value::U64(args.size() as u64)),
        ("kernels".to_string(), Value::Map(json_kernels)),
    ])))
}
