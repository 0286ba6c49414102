//! **Ablation**: design choices DESIGN.md calls out.
//!
//! 1. GC victim-selection policy (greedy vs cost-benefit) under skewed trace
//!    replay — WAF and erase counts. Asserted: the default (greedy) wears
//!    the device no more than the alternative on this trace.
//! 2. Offload segment size — compression ratio and segment count (larger
//!    segments compress better and amortize acks, but hold pins longer).
//!    Asserted: the ratio does not fall and the count does fall as segments
//!    grow.

use rssd_bench::{bench_geometry, publish, BenchRow};
use rssd_core::{LoopbackTarget, RssdConfig, RssdDevice};
use rssd_flash::{NandArray, NandTiming, SimClock};
use rssd_ftl::{Ftl, FtlConfig, GcPolicy};
use rssd_ssd::BlockDevice;
use rssd_trace::{IoOp, TraceProfile};

const OPS: usize = 25_000;

fn policy_row(label: &str, policy: GcPolicy) -> BenchRow {
    let g = bench_geometry();
    let nand = NandArray::with_clock(g, NandTiming::instant(), SimClock::new());
    let mut ftl = Ftl::new(
        nand,
        FtlConfig {
            gc_policy: policy,
            ..FtlConfig::default()
        },
    );
    let profile = TraceProfile::by_name("usr").unwrap();
    for rec in profile
        .workload(ftl.logical_pages(), g.page_size, 3)
        .take(OPS)
    {
        if rec.op != IoOp::Write {
            continue;
        }
        for i in 0..u64::from(rec.pages) {
            let lpa = rec.lpa + i;
            if lpa < ftl.logical_pages() {
                ftl.write(lpa, vec![(rec.payload_seed ^ i) as u8; g.page_size])
                    .unwrap();
            }
        }
        ftl.drain_stale_events();
    }
    BenchRow::new(
        label,
        vec![
            ("waf", ftl.stats().write_amplification()),
            ("erases", ftl.nand_stats().erases() as f64),
        ],
    )
}

fn segment_size_row(segment_pages: usize) -> BenchRow {
    let mut d = RssdDevice::new(
        bench_geometry(),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig {
            segment_pages,
            ..RssdConfig::default()
        },
        LoopbackTarget::new(),
    );
    let profile = TraceProfile::by_name("src").unwrap();
    let records: Vec<_> = profile
        .workload(d.logical_pages(), d.page_size(), 5)
        .take(10_000)
        .collect();
    let _ = rssd_trace::replay(&mut d, records);
    d.flush_log().unwrap();
    let stats = d.offload_stats();
    BenchRow::new(
        format!("segment_{segment_pages}_pages"),
        vec![
            ("compression_ratio", stats.compression_ratio()),
            ("segments", stats.segments_offloaded as f64),
        ],
    )
}

fn main() {
    let mut rows = vec![
        policy_row("gc_greedy", GcPolicy::Greedy),
        policy_row("gc_cost_benefit", GcPolicy::CostBenefit),
    ];
    for metric in ["waf", "erases"] {
        assert!(
            rows[0].get(metric) <= rows[1].get(metric),
            "greedy must not out-wear cost-benefit on the usr trace ({metric})"
        );
    }

    let sizes: Vec<BenchRow> = [8, 32, 128].into_iter().map(segment_size_row).collect();
    for pair in sizes.windows(2) {
        let (small, large) = (&pair[0], &pair[1]);
        assert!(
            large.get("compression_ratio") >= small.get("compression_ratio")
                && large.get("segments") < small.get("segments"),
            "{} → {}: larger segments must compress no worse into fewer segments",
            small.config,
            large.config
        );
    }
    rows.extend(sizes);
    publish(
        "gc_ablation",
        "Ablation: GC victim-selection policy (usr trace), offload segment size (src trace)",
        &rows,
    );
}
