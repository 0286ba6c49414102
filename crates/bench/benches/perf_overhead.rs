//! **E3**: the "<1 % impact on local storage performance" claim.
//!
//! Replays fio-like microbenchmark patterns (4 KiB random/sequential
//! read/write), a mix, and one trace profile against the plain SSD and RSSD
//! with the realistic MLC timing model, and compares mean request latency.
//! RSSD's logging is metadata-only on the write path and its offload reads
//! are background-scheduled, so the overhead should be ~0 — matching the
//! paper. Asserted on every row: `overhead_pct < 1.0`.

use rssd_bench::{bench_geometry, mk_plain, mk_rssd, publish, BenchRow};
use rssd_flash::{NandTiming, SimClock};
use rssd_ssd::BlockDevice;
use rssd_trace::{replay, IoRecord, PayloadKind, TraceProfile, WorkloadBuilder};

const OPS: usize = 4_000;
const WORKLOADS: [&str; 6] = [
    "randwrite",
    "randread",
    "seqwrite",
    "seqread",
    "mixed",
    "trace:src",
];

fn workload(name: &str, logical_pages: u64, page_size: usize) -> Vec<IoRecord> {
    if name == "trace:src" {
        return TraceProfile::by_name("src")
            .unwrap()
            .workload(logical_pages, page_size, 5)
            .take(OPS)
            .collect();
    }
    let builder = WorkloadBuilder::new(logical_pages)
        .seed(11)
        .ops_per_second(5_000.0)
        .mean_request_pages(1);
    let builder = match name {
        "randwrite" => builder.read_fraction(0.0).sequential_fraction(0.0),
        "randread" => builder.read_fraction(1.0).sequential_fraction(0.0),
        "seqwrite" => builder.read_fraction(0.0).sequential_fraction(1.0),
        "seqread" => builder.read_fraction(1.0).sequential_fraction(1.0),
        "mixed" => builder.read_fraction(0.5).sequential_fraction(0.3),
        other => panic!("unknown pattern {other}"),
    };
    // Prepend a warm-up fill so reads hit mapped pages.
    let mut records: Vec<IoRecord> = (0..logical_pages.min(2048))
        .map(|lpa| IoRecord::write(0, lpa, PayloadKind::Binary, lpa))
        .collect();
    records.extend(builder.build().take(OPS));
    records
}

/// Replays `name` on `device`; `mean_ns` reads the device's own mean
/// request latency afterwards (an inherent method on each model).
fn mean_latency_us<D: BlockDevice>(mut device: D, name: &str, mean_ns: impl Fn(&D) -> f64) -> f64 {
    let records = workload(name, device.logical_pages(), device.page_size());
    let _ = replay(&mut device, records);
    mean_ns(&device) / 1000.0
}

fn main() {
    let (g, timing) = (bench_geometry(), NandTiming::mlc_default());
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let plain = mean_latency_us(mk_plain(g, timing, SimClock::new()), name, |d| {
            d.latency().mean_ns()
        });
        let rssd = mean_latency_us(mk_rssd(g, timing, SimClock::new()), name, |d| {
            d.latency().mean_ns()
        });
        // Recorded unclamped. `trace:src` reads −0.01 %: an overhead cannot
        // be negative, and the mechanism is not yet named — ROADMAP 2(i).
        let overhead_pct = (rssd - plain) / plain * 100.0;
        assert!(
            overhead_pct < 1.0,
            "{name}: RSSD costs {overhead_pct:.2} % mean latency, the paper claims < 1 %"
        );
        rows.push(BenchRow::new(
            name,
            vec![
                ("plain_mean_us", plain),
                ("rssd_mean_us", rssd),
                ("overhead_pct", overhead_pct),
            ],
        ));
    }
    publish(
        "e3_overhead",
        "E3: storage performance overhead (MLC timing; paper claim: < 1 %)",
        &rows,
    );
}
