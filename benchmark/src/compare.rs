//! `compare <dirA> <dirB>`: two results directories in, one verdict per
//! workload × end-to-end metric out, then the per-layer deltas of the
//! traced runs. A is the baseline, B the candidate; both must have been
//! measured with the same seed for the sim-clock bounds to mean anything.

use crate::json::Json;
use crate::metrics::Better;
use crate::workloads::NAMES;
use std::path::Path;

/// What `compare` concludes about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median beats A's by more than the bound.
    Better,
    /// The medians differ by no more than the bound.
    Same,
    /// B's median is worse than A's by more than the bound, and every B
    /// repetition is worse than every A repetition.
    Worse,
    /// The medians differ by more than the bound, but the two sides'
    /// min–max ranges overlap: the run-to-run spread does not resolve it.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's measurement of a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    /// Median over the repetitions.
    pub value: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
}

/// By how much B is worse than A, as a share of A (negative = better).
/// Two zeros are no change; a change from zero is infinite.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

/// The verdict on one metric.
pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let worse_by = worsening(a.value, b.value, better);
    if worse_by.abs() <= bound {
        return Verdict::Same;
    }
    if a.min <= b.max && b.min <= a.max {
        return Verdict::Unresolved;
    }
    if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn load(dir: &Path, file: &str) -> Option<Json> {
    let text = std::fs::read_to_string(dir.join(file)).ok()?;
    match Json::parse(&text) {
        Ok(json) => Some(json),
        Err(e) => {
            eprintln!("{}: {e}", dir.join(file).display());
            None
        }
    }
}

fn side(metric: &Json) -> Option<Side> {
    let value = metric.get("value")?.as_f64()?;
    Some(Side {
        value,
        min: metric.get("min").and_then(Json::as_f64).unwrap_or(value),
        max: metric.get("max").and_then(Json::as_f64).unwrap_or(value),
    })
}

/// Compares the results in `dir_a` (baseline) and `dir_b` (candidate),
/// prints the tables, and returns how many end-to-end rows are `worse` and
/// how many `unresolved`.
///
/// # Errors
///
/// When no workload has an untraced results file in both directories.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<(usize, usize), String> {
    let (mut rows, mut worse, mut unresolved) = (0usize, 0usize, 0usize);
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "delta %", "bound %"
    );
    for workload in NAMES {
        let file = format!("{workload}.json");
        let (Some(a), Some(b)) = (load(dir_a, &file), load(dir_b, &file)) else {
            continue;
        };
        if a.get("seed") != b.get("seed") {
            println!("{workload}: seeds differ — sim-clock rows compare different inputs");
        }
        let Some(metrics) = a.get("end_to_end").and_then(Json::as_obj) else {
            continue;
        };
        for (name, metric_a) in metrics {
            let Some(metric_b) = b.get("end_to_end").and_then(|m| m.get(name)) else {
                continue;
            };
            let (Some(side_a), Some(side_b)) = (side(metric_a), side(metric_b)) else {
                continue;
            };
            let better = metric_a
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .unwrap_or(Better::Lower);
            let bound = metric_a.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let verdict = judge(side_a, side_b, better, bound);
            rows += 1;
            worse += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{workload:<16} {name:<28} {:>14.6} {:>14.6} {:>+9.2} {:>7.2}  {}  \
                 [A {:.6}..{:.6} | B {:.6}..{:.6}]",
                side_a.value,
                side_b.value,
                100.0 * (side_b.value - side_a.value) / side_a.value.abs().max(f64::MIN_POSITIVE),
                100.0 * bound,
                verdict.as_str(),
                side_a.min,
                side_a.max,
                side_b.min,
                side_b.max,
            );
        }
    }
    if rows == 0 {
        return Err(format!(
            "no workload has results in both {} and {}",
            dir_a.display(),
            dir_b.display()
        ));
    }

    println!();
    println!(
        "{:<16} {:<36} {:>16} {:>16} {:>9}",
        "workload", "per-layer metric (traced runs)", "A", "B", "delta %"
    );
    for workload in NAMES {
        let file = format!("{workload}.traced.json");
        let (Some(a), Some(b)) = (load(dir_a, &file), load(dir_b, &file)) else {
            continue;
        };
        let Some(metrics) = a.get("per_layer").and_then(Json::as_obj) else {
            continue;
        };
        for (name, metric_a) in metrics {
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (
                value(metric_a),
                b.get("per_layer").and_then(|m| m.get(name)).and_then(value),
            ) else {
                continue;
            };
            let delta = if va == vb {
                0.0
            } else {
                100.0 * (vb - va) / va.abs().max(f64::MIN_POSITIVE)
            };
            println!("{workload:<16} {name:<36} {va:>16.6} {vb:>16.6} {delta:>+9.2}");
        }
    }
    println!();
    println!("{rows} end-to-end rows: {worse} worse, {unresolved} unresolved");
    Ok((worse, unresolved))
}
