//! The twelve named trace models of Figure 2.
//!
//! Seven MSR-Cambridge server traces (hm, src, ts, wdev, rsrch, stg, usr)
//! and five FIU traces (home, mail, online, web, webusers), reproduced as
//! parameterised synthetic models. Each profile is calibrated to the
//! published aggregate statistics of its namesake: daily write volume
//! (expressed relative to a 256 GiB-class device so experiments can scale),
//! read/write mix, skew, request size and payload compressibility.

use crate::record::PayloadKind;
use crate::synth::{Workload, WorkloadBuilder};
use serde::{Deserialize, Serialize};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
/// Reference device capacity the daily volumes are quoted against.
pub const REFERENCE_CAPACITY_BYTES: f64 = 256.0 * GIB;

/// A named, calibrated trace model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceProfile {
    /// Trace name as it appears in Figure 2.
    pub name: &'static str,
    /// Collection the trace belongs to.
    pub family: &'static str,
    /// Unique bytes written per simulated day on the reference device.
    pub daily_write_gib: f64,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Fraction of operations that are trims.
    pub trim_fraction: f64,
    /// Zipf exponent of the write skew.
    pub zipf_theta: f64,
    /// Hot working set as a fraction of logical capacity.
    pub working_set_fraction: f64,
    /// Mean request size in pages.
    pub mean_request_pages: u32,
    /// Fraction of request streams that are sequential.
    pub sequential_fraction: f64,
    /// Weight of text-like payloads (rest split binary/zero/random).
    pub text_weight: f64,
    /// Weight of incompressible payloads.
    pub random_weight: f64,
}

impl TraceProfile {
    /// All twelve profiles, in Figure 2's x-axis order.
    pub fn all() -> Vec<TraceProfile> {
        vec![
            Self::row("msr", "hm", (9.0, 0.35, 0.95, 0.10, 2, 0.15, 0.45, 0.10)),
            Self::row("msr", "src", (15.0, 0.43, 0.90, 0.15, 4, 0.30, 0.60, 0.05)),
            Self::row("msr", "ts", (12.0, 0.38, 0.92, 0.12, 2, 0.20, 0.45, 0.10)),
            Self::row("msr", "wdev", (7.0, 0.20, 0.97, 0.06, 2, 0.10, 0.50, 0.08)),
            Self::row(
                "msr",
                "rsrch",
                (11.0, 0.10, 0.93, 0.09, 2, 0.12, 0.40, 0.15),
            ),
            Self::row("msr", "stg", (13.0, 0.25, 0.90, 0.14, 4, 0.35, 0.40, 0.15)),
            Self::row("msr", "usr", (20.0, 0.40, 0.88, 0.20, 3, 0.25, 0.35, 0.25)),
            Self::row("fiu", "home", (5.0, 0.30, 0.95, 0.05, 2, 0.15, 0.50, 0.10)),
            Self::row("fiu", "mail", (25.0, 0.45, 0.85, 0.25, 3, 0.20, 0.55, 0.10)),
            Self::row(
                "fiu",
                "online",
                (8.0, 0.55, 0.93, 0.08, 2, 0.15, 0.45, 0.12),
            ),
            Self::row("fiu", "web", (6.0, 0.60, 0.94, 0.06, 3, 0.30, 0.50, 0.10)),
            Self::row(
                "fiu",
                "webusers",
                (10.0, 0.50, 0.91, 0.10, 3, 0.25, 0.45, 0.12),
            ),
        ]
    }

    /// Looks a profile up by name.
    pub fn by_name(name: &str) -> Option<TraceProfile> {
        Self::all().into_iter().find(|p| p.name == name)
    }

    /// One row of the table: daily write GiB, read fraction, Zipf θ, working
    /// set fraction, mean request pages, sequential fraction, text weight,
    /// random weight.
    fn row(
        family: &'static str,
        name: &'static str,
        columns: (f64, f64, f64, f64, u32, f64, f64, f64),
    ) -> TraceProfile {
        let (
            daily_write_gib,
            read_fraction,
            zipf_theta,
            working_set_fraction,
            mean_request_pages,
            sequential_fraction,
            text_weight,
            random_weight,
        ) = columns;
        TraceProfile {
            name,
            family,
            daily_write_gib,
            read_fraction,
            trim_fraction: 0.0,
            zipf_theta,
            working_set_fraction,
            mean_request_pages,
            sequential_fraction,
            text_weight,
            random_weight,
        }
    }

    /// Daily write bytes scaled to a device of `capacity_bytes`.
    pub fn daily_write_bytes(&self, capacity_bytes: u64) -> f64 {
        self.daily_write_gib * GIB * (capacity_bytes as f64 / REFERENCE_CAPACITY_BYTES)
    }

    /// Builds the workload stream for a device exporting `logical_pages`
    /// pages of `page_size` bytes, paced so the scaled daily write volume is
    /// met.
    pub fn workload(&self, logical_pages: u64, page_size: usize, seed: u64) -> Workload {
        self.workload_builder(logical_pages, page_size, seed)
            .build()
    }

    /// The calibrated [`WorkloadBuilder`] behind [`TraceProfile::workload`],
    /// for callers that want to tweak the stream before building — e.g.
    /// attach [`DiurnalLoad`](crate::synth::DiurnalLoad) modulation for a
    /// fleet tenant.
    pub fn workload_builder(
        &self,
        logical_pages: u64,
        page_size: usize,
        seed: u64,
    ) -> WorkloadBuilder {
        let capacity = logical_pages * page_size as u64;
        let daily_bytes = self.daily_write_bytes(capacity);
        let write_pages_per_day = daily_bytes / page_size as f64;
        let write_ops_per_day = write_pages_per_day / f64::from(self.mean_request_pages);
        let write_share = (1.0 - self.read_fraction - self.trim_fraction).max(0.01);
        let ops_per_second = write_ops_per_day / write_share / 86_400.0;

        let zero_weight = 0.08;
        let binary_weight = (1.0 - self.text_weight - self.random_weight - zero_weight).max(0.0);
        WorkloadBuilder::new(logical_pages)
            .seed(seed)
            .read_fraction(self.read_fraction)
            .trim_fraction(self.trim_fraction)
            .sequential_fraction(self.sequential_fraction)
            .zipf_theta(self.zipf_theta)
            .working_set_fraction(self.working_set_fraction)
            .mean_request_pages(self.mean_request_pages)
            .ops_per_second(ops_per_second)
            .payload_mix(vec![
                (PayloadKind::Text, self.text_weight),
                (PayloadKind::Binary, binary_weight),
                (PayloadKind::Zero, zero_weight),
                (PayloadKind::Random, self.random_weight),
            ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::IoOp;

    #[test]
    fn twelve_profiles_in_figure_order() {
        let all = TraceProfile::all();
        assert_eq!(all.len(), 12);
        let names: Vec<_> = all.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "hm", "src", "ts", "wdev", "rsrch", "stg", "usr", "home", "mail", "online", "web",
                "webusers"
            ]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(TraceProfile::by_name("usr").unwrap().name, "usr");
        assert!(TraceProfile::by_name("nope").is_none());
    }

    #[test]
    fn daily_volume_scales_with_capacity() {
        let p = TraceProfile::by_name("hm").unwrap();
        let full = p.daily_write_bytes(256 * 1024 * 1024 * 1024);
        let scaled = p.daily_write_bytes(256 * 1024 * 1024);
        assert!((full / scaled - 1024.0).abs() < 1e-6);
    }

    #[test]
    fn workload_write_volume_matches_calibration() {
        let p = TraceProfile::by_name("wdev").unwrap();
        let page_size = 4096usize;
        let logical_pages = 16 * 1024u64; // 64 MiB device
        let mut written_pages = 0u64;
        let mut last_ns = 0u64;
        for rec in p.workload(logical_pages, page_size, 3).take(20_000) {
            if rec.op == IoOp::Write {
                written_pages += u64::from(rec.pages);
            }
            last_ns = rec.at_ns;
        }
        let days = last_ns as f64 / 86_400e9;
        let measured_daily = written_pages as f64 * page_size as f64 / days;
        let expected_daily = p.daily_write_bytes(logical_pages * page_size as u64);
        let ratio = measured_daily / expected_daily;
        assert!(
            (0.8..1.25).contains(&ratio),
            "measured/expected daily write ratio {ratio}"
        );
    }

    #[test]
    fn profiles_have_sane_parameters() {
        for p in TraceProfile::all() {
            assert!(p.daily_write_gib > 0.0, "{}", p.name);
            assert!((0.0..1.0).contains(&p.read_fraction), "{}", p.name);
            assert!(p.text_weight + p.random_weight < 1.0, "{}", p.name);
            assert!(p.mean_request_pages >= 1, "{}", p.name);
        }
    }
}
