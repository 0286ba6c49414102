//! **E4**: the "minimal impact on device lifetime" claim.
//!
//! Device lifetime is governed by erase counts and write amplification.
//! RSSD retains stale pages *in place* until offload (no extra migration
//! writes), so its WAF and erase counts should track the plain SSD closely.
//! Asserted per trace: RSSD's WAF ≤ 1.01 × plain's and its erases ≤ 1.05 ×
//! plain's.

use rssd_bench::{bench_geometry, mk_rssd, publish, BenchRow};
use rssd_flash::{NandStats, NandTiming, SimClock};
use rssd_ftl::FtlStats;
use rssd_ssd::{BlockDevice, PlainSsd};
use rssd_trace::{replay, TraceProfile};

const OPS: usize = 30_000;

struct Wear {
    waf: f64,
    erases: u64,
    host_pages: u64,
}

/// Replays `profile` on `device`; `counters` reads the model's FTL and NAND
/// counters afterwards (inherent methods on each model).
fn wear<D: BlockDevice>(
    mut device: D,
    profile: &TraceProfile,
    counters: impl Fn(&D) -> (&FtlStats, &NandStats),
) -> Wear {
    let records = profile
        .workload(device.logical_pages(), device.page_size(), 3)
        .take(OPS);
    let _ = replay(&mut device, records);
    let (ftl, nand) = counters(&device);
    Wear {
        waf: ftl.write_amplification(),
        erases: nand.erases(),
        host_pages: ftl.host_pages_written,
    }
}

fn main() {
    let (g, timing) = (bench_geometry(), NandTiming::instant());
    let mut rows = Vec::new();
    for name in ["hm", "src", "usr", "mail"] {
        let profile = TraceProfile::by_name(name).unwrap();
        let plain = wear(PlainSsd::new(g, timing, SimClock::new()), &profile, |d| {
            (d.ftl_stats(), d.nand_stats())
        });
        let rssd = wear(mk_rssd(g, timing, SimClock::new()), &profile, |d| {
            (d.ftl_stats(), d.nand_stats())
        });
        assert!(
            rssd.waf <= 1.01 * plain.waf,
            "{name}: RSSD WAF {:.3} vs plain {:.3}",
            rssd.waf,
            plain.waf
        );
        assert!(
            rssd.erases as f64 <= 1.05 * plain.erases as f64,
            "{name}: RSSD erases {} vs plain {}",
            rssd.erases,
            plain.erases
        );
        rows.push(BenchRow::new(
            name,
            vec![
                ("plain_waf", plain.waf),
                ("rssd_waf", rssd.waf),
                ("plain_erases", plain.erases as f64),
                ("rssd_erases", rssd.erases as f64),
                ("host_pages", rssd.host_pages as f64),
            ],
        ));
    }
    publish(
        "e4_lifetime",
        "E4: device lifetime impact (WAF + erases track the plain SSD)",
        &rows,
    );
}
