//! Small statistics helpers: medians over repetitions and the percentile
//! picker.

/// A host-clock figure measured once per repetition: the median is what is
/// reported, with the extremes and the sample count beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sampled {
    /// Median over the repetitions.
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Repetitions measured.
    pub samples: usize,
}

impl Sampled {
    /// Summarizes `values` (one per repetition).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Sampled {
        assert!(!values.is_empty(), "a metric needs at least one sample");
        Sampled {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: values.len(),
        }
    }

    /// A figure that repeats exactly (simulated clock, counts).
    pub fn exact(value: f64, samples: usize) -> Sampled {
        Sampled {
            median: value,
            min: value,
            max: value,
            samples,
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The percentiles a timing is reported at: the median plus the highest of
/// p90, p99, p99.9, … that still has at least ten samples beyond it.
/// Returns `(label, quantile)` pairs, e.g. `[("p50", 0.5), ("p9999", 0.9999)]`
/// for 100 000 samples; fewer than 100 samples support only the median.
pub fn reportable_percentiles(samples: u64) -> Vec<(String, f64)> {
    let mut out = vec![("p50".to_string(), 0.5)];
    let mut best = None;
    let mut nines = 1u32;
    loop {
        let beyond = samples as f64 / 10f64.powi(nines as i32);
        if beyond < 10.0 {
            break;
        }
        best = Some(nines);
        nines += 1;
    }
    if let Some(nines) = best {
        let label = match nines {
            1 => "p90".to_string(),
            n => format!("p{}", "9".repeat(n as usize)),
        };
        out.push((label, 1.0 - 10f64.powi(-(nines as i32))));
    }
    out
}

/// Exact quantile of unsorted `values` by the nearest-rank rule: the
/// smallest sample with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let rank = ((q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(rank - 1).1
}
