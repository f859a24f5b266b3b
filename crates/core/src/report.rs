//! Plain-text and JSON rendering of experiment results.
//!
//! The `pulp_cli repro` experiments print the same rows/series the paper reports; these
//! helpers keep the formatting consistent and dump machine-readable
//! records for EXPERIMENTS.md.

use crate::evaluation::{RankedFeature, ToleranceCurve};
use crate::labeling::NUM_CLASSES;
use serde::Serialize;
use std::fmt::Write as _;

/// Renders a set of tolerance curves as an aligned text table
/// (rows = tolerance, columns = curves).
pub fn render_curves(curves: &[ToleranceCurve]) -> String {
    let mut out = String::new();
    if curves.is_empty() {
        return out;
    }
    let _ = write!(out, "{:>10}", "tol%");
    for c in curves {
        let _ = write!(out, " {:>14}", c.label);
    }
    out.push('\n');
    for (i, &t) in curves[0].tolerances.iter().enumerate() {
        let _ = write!(out, "{:>10.1}", t * 100.0);
        for c in curves {
            let _ = write!(out, " {:>13.1}%", c.mean[i] * 100.0);
        }
        out.push('\n');
    }
    out
}

/// Renders a ranked feature table (top `n`).
pub fn render_importances(title: &str, ranked: &[RankedFeature], n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{:>4} {:<20} {:>10}", "#", "feature", "importance");
    for (i, r) in ranked.iter().take(n).enumerate() {
        let _ = writeln!(
            out,
            "{:>4} {:<20} {:>9.1}%",
            i + 1,
            r.name,
            r.importance * 100.0
        );
    }
    out
}

/// Renders the class distribution of the dataset (§IV-B numbers).
pub fn render_class_distribution(counts: &[usize; NUM_CLASSES]) -> String {
    let total: usize = counts.iter().sum();
    let mut out = String::new();
    let _ = writeln!(out, "{:>6} {:>8} {:>8}", "cores", "count", "share");
    for (c, &n) in counts.iter().enumerate() {
        let share = if total > 0 {
            100.0 * n as f64 / total as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "{:>6} {:>8} {:>7.1}%", c + 1, n, share);
    }
    let _ = writeln!(out, "{:>6} {:>8}", "total", total);
    out
}

/// Renders a confusion matrix (`m[true][predicted]`) with core-count
/// headers.
pub fn render_confusion(m: &[Vec<usize>]) -> String {
    let mut out = String::new();
    let n = m.len();
    let _ = write!(out, "{:>8}", "true\\pred");
    for c in 0..n {
        let _ = write!(out, " {:>5}", c + 1);
    }
    out.push('\n');
    for (t, row) in m.iter().enumerate() {
        let _ = write!(out, "{:>8}", t + 1);
        for &v in row {
            let _ = write!(out, " {:>5}", v);
        }
        out.push('\n');
    }
    out
}

/// Serialises any experiment record to pretty JSON (for EXPERIMENTS.md
/// artefacts).
///
/// # Panics
///
/// Panics if the value cannot be serialised (not expected for the plain
/// data types used by the benches).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serialisable experiment record")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(label: &str) -> ToleranceCurve {
        ToleranceCurve {
            label: label.into(),
            tolerances: vec![0.0, 0.05],
            mean: vec![0.57, 0.80],
            std: vec![0.01, 0.01],
        }
    }

    #[test]
    fn curves_table_has_header_and_rows() {
        let s = render_curves(&[curve("static"), curve("dynamic")]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("static"));
        assert!(lines[1].contains("57.0%"));
        assert!(lines[2].contains("80.0%"));
    }

    #[test]
    fn empty_curves_render_empty() {
        assert!(render_curves(&[]).is_empty());
    }

    #[test]
    fn importance_table_truncates() {
        let ranked: Vec<RankedFeature> = (0..10)
            .map(|i| RankedFeature {
                name: format!("f{i}"),
                column: i,
                importance: 0.1,
            })
            .collect();
        let s = render_importances("Top", &ranked, 3);
        assert_eq!(s.lines().count(), 2 + 3);
    }

    #[test]
    fn class_distribution_shares_sum() {
        let mut counts = [0usize; NUM_CLASSES];
        counts[7] = 3;
        counts[0] = 1;
        let s = render_class_distribution(&counts);
        assert!(s.contains("75.0%"));
        assert!(s.contains("25.0%"));
    }

    #[test]
    fn confusion_renders_square() {
        let m = vec![vec![3, 1], vec![0, 4]];
        let s = render_confusion(&m);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains('3') && s.contains('4'));
    }

    #[test]
    fn json_round_trips() {
        let c = curve("x");
        let j = to_json(&c);
        let back: ToleranceCurve = serde_json::from_str(&j).expect("parse");
        assert_eq!(back, c);
    }
}
