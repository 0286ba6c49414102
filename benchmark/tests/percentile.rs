//! The percentile picker: the median plus the highest percentile that still
//! has at least ten samples beyond it.

use rssd_benchmark::stats::{median, quantile, reportable_percentiles, Sampled};

fn labels(samples: u64) -> Vec<String> {
    reportable_percentiles(samples)
        .into_iter()
        .map(|(label, _)| label)
        .collect()
}

#[test]
fn too_few_samples_support_only_the_median() {
    assert_eq!(labels(0), ["p50"]);
    assert_eq!(labels(99), ["p50"]);
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(labels(100), ["p50", "p90"]);
    assert_eq!(labels(999), ["p50", "p90"]);
    assert_eq!(labels(1_000), ["p50", "p99"]);
    assert_eq!(labels(9_999), ["p50", "p99"]);
    assert_eq!(labels(10_000), ["p50", "p999"]);
    assert_eq!(labels(99_999), ["p50", "p999"]);
    assert_eq!(labels(100_000), ["p50", "p9999"]);
    for samples in [100u64, 1_234, 56_789, 1_500_000] {
        let (_, q) = reportable_percentiles(samples).pop().unwrap();
        assert!(
            samples as f64 * (1.0 - q) >= 10.0 - 1e-6,
            "{samples} at {q}"
        );
        assert!(
            samples as f64 * (1.0 - q) / 10.0 < 10.0,
            "{samples}: a higher one fits"
        );
    }
}

#[test]
fn picked_quantiles_match_their_labels() {
    let picked = reportable_percentiles(250_000);
    assert_eq!(picked[0], ("p50".to_string(), 0.5));
    assert_eq!(picked[1].0, "p9999");
    assert!((picked[1].1 - 0.9999).abs() < 1e-12);
}

#[test]
fn quantile_is_nearest_rank_and_exact() {
    let mut values: Vec<u64> = (1..=1000).rev().collect();
    assert_eq!(quantile(&mut values, 0.5), 500);
    assert_eq!(quantile(&mut values, 0.999), 999);
    assert_eq!(quantile(&mut values, 1.0), 1000);
    assert_eq!(quantile(&mut values, 0.0), 1);
    assert_eq!(quantile(&mut [7], 0.999), 7);
}

#[test]
fn median_and_extremes_of_repetitions() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let s = Sampled::of(&[5.0, 9.0, 7.0]);
    assert_eq!((s.median, s.min, s.max, s.samples), (7.0, 5.0, 9.0, 3));
    let e = Sampled::exact(1.25, 4);
    assert_eq!((e.median, e.min, e.max, e.samples), (1.25, 1.25, 1.25, 4));
}
