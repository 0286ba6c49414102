//! Queue-depth sweep: the performance knob the NVMe-style multi-queue host
//! interface adds, now riding real device-internal parallelism.
//!
//! Replays the same mixed 4 KiB workload against the plain SSD, RSSD and the
//! three local-retention baselines at queue depth 1, 8 and 32 (arbitration
//! burst = depth, so one round batches a full window). Every model runs the
//! one block path (`rssd_ssd::execute_batch`), so the rows differ by what
//! each model's policy hooks add and by nothing else. Each batch dispatches
//! onto the flash unit pipelines — writes stripe across the 4 channels,
//! commands complete out of order as units free up — so throughput must
//! scale with depth (QD32 ≥ 2× QD1, asserted here, once, on the rows this
//! bench writes; the tier-1 `qd_scaling` test pins the same claim on a
//! smaller replay). Reports host-visible queue latency (mean/p50/p99 from
//! the log-linear histogram), simulated completion time, throughput,
//! per-channel utilization (busy_ns / wall_ns), and for every protected
//! model the overhead delta versus plain, asserted non-negative at every
//! depth: a hook can only add work. RSSD's offload reads occupy real units,
//! so its cost is visible at depth and hidden in idle windows at QD1;
//! pinning in place (LocalSSD, FlashGuard) costs no flash time until GC
//! pressure; LocalSSD+Compression pays a blocking repack read per retained
//! page.

use rssd_bench::{bench_geometry, cell, mk_rssd, publish, BenchRow};
use rssd_flash::{NandStats, NandTiming, SimClock};
use rssd_ssd::{
    BlockDevice, NvmeController, PlainSsd, QueuePairStats, RetentionMode, RetentionSsd,
};
use rssd_trace::{replay_fanout, IoRecord, PayloadKind, WorkloadBuilder};

const OPS: usize = 4_000;
const DEPTHS: [usize; 3] = [1, 8, 32];
/// `plain` first: the rows after it are measured against it.
const MODELS: [&str; 5] = ["plain", "rssd", "localssd", "localssd_comp", "flashguard"];

fn workload(logical_pages: u64) -> Vec<IoRecord> {
    // Warm-up fill so reads hit mapped pages, then a mixed random workload.
    let mut records: Vec<IoRecord> = (0..logical_pages.min(2048))
        .map(|lpa| IoRecord::write(0, lpa, PayloadKind::Binary, lpa))
        .collect();
    records.extend(
        WorkloadBuilder::new(logical_pages)
            .seed(23)
            .ops_per_second(20_000.0)
            .mean_request_pages(1)
            .read_fraction(0.4)
            .sequential_fraction(0.2)
            .build()
            .take(OPS),
    );
    records
}

struct SweepRun {
    stats: QueuePairStats,
    end_ns: u64,
    /// NAND counters snapshot, for per-channel utilization reporting.
    nand: NandStats,
}

impl SweepRun {
    fn throughput_kiops(&self) -> f64 {
        self.stats.completed as f64 / (self.end_ns as f64 / 1e9) / 1e3
    }

    fn utilization_avg(&self) -> f64 {
        let util = self.nand.channel_utilization(self.end_ns);
        if util.is_empty() {
            return 0.0;
        }
        util.iter().sum::<f64>() / util.len() as f64
    }
}

/// Replays the workload at `depth`. `nand` extracts the NAND counters from
/// the concrete device (the trait object world doesn't expose them).
fn run_at_depth<D: BlockDevice>(
    device: D,
    depth: usize,
    nand: impl Fn(&D) -> NandStats,
) -> SweepRun {
    let mut controller = NvmeController::with_arbitration_burst(device, depth);
    let queue = controller.create_queue_pair(depth);
    let records = workload(controller.device().logical_pages());
    let _ = replay_fanout(&mut controller, &[queue], records);
    let end_ns = controller.device().clock().now_ns();
    SweepRun {
        stats: controller.stats(queue).clone(),
        end_ns,
        nand: nand(controller.device()),
    }
}

fn run_model(model: &str, depth: usize) -> SweepRun {
    let (g, timing) = (bench_geometry(), NandTiming::mlc_default());
    let retention = |mode| {
        run_at_depth(
            RetentionSsd::new(g, timing, SimClock::new(), mode),
            depth,
            |d| d.nand_stats().clone(),
        )
    };
    match model {
        "plain" => run_at_depth(PlainSsd::new(g, timing, SimClock::new()), depth, |d| {
            d.nand_stats().clone()
        }),
        "rssd" => run_at_depth(mk_rssd(g, timing, SimClock::new()), depth, |d| {
            d.nand_stats().clone()
        }),
        "localssd" => retention(RetentionMode::RetainAll),
        "localssd_comp" => retention(RetentionMode::Compressed),
        "flashguard" => retention(RetentionMode::ReadThenOverwrite),
        other => unreachable!("no such model: {other}"),
    }
}

fn main() {
    let mut rows = Vec::new();
    for &depth in &DEPTHS {
        let mut plain_tput = 0.0;
        for model in MODELS {
            let run = run_model(model, depth);
            let tput = run.throughput_kiops();
            let mut metrics = vec![
                ("mean_us", run.stats.latency.mean_ns() / 1000.0),
                ("p50_us", run.stats.latency.quantile_ns(0.5) as f64 / 1000.0),
                (
                    "p99_us",
                    run.stats.latency.quantile_ns(0.99) as f64 / 1000.0,
                ),
                ("throughput_kiops", tput),
                ("sim_end_ms", run.end_ns as f64 / 1e6),
                ("chan_util_avg", run.utilization_avg()),
            ];
            if model == "plain" {
                plain_tput = tput;
            } else {
                // The measured overhead delta vs the plain row at the same
                // depth: positive = the protected model is slower (RSSD's
                // offload engine occupying units; near-zero at QD1 where
                // the occupation hides in idle windows). Never negative:
                // the models share the block path, and a hook only adds.
                assert!(
                    tput <= plain_tput,
                    "{model} must not out-run plain at QD{depth} \
                     ({tput:.3} vs {plain_tput:.3} kIOPS)"
                );
                let overhead_pct = (plain_tput - tput) / plain_tput * 100.0;
                metrics.push(("overhead_vs_plain_pct", overhead_pct));
            }
            rows.push(BenchRow::new(format!("{model}_qd{depth}"), metrics));
        }
    }

    // The acceptance gates: throughput must rise with depth for every
    // model, QD32 must reach 2× QD1 on the 4-channel default geometry, the
    // rssd rows must not be byte-identical to plain, and the log-linear
    // histogram must resolve p50 from p99.
    let kiops =
        |model: &str, depth: usize| cell(&rows, &format!("{model}_qd{depth}"), "throughput_kiops");
    for model in MODELS {
        for pair in DEPTHS.windows(2) {
            let (a, b) = (kiops(model, pair[0]), kiops(model, pair[1]));
            assert!(
                b > a,
                "{model}: throughput must rise with depth: \
                 QD{} {a:.1} vs QD{} {b:.1} kIOPS",
                pair[0],
                pair[1]
            );
        }
        let (qd1, qd32) = (kiops(model, 1), kiops(model, 32));
        assert!(
            qd32 >= 2.0 * qd1,
            "{model}: QD32 must deliver ≥ 2× QD1 (got {qd1:.1} → {qd32:.1} kIOPS)"
        );
    }
    assert!(
        (kiops("plain", 32) - kiops("rssd", 32)).abs() > f64::EPSILON,
        "rssd rows must differ from plain at depth (overhead is real)"
    );
    assert!(
        rows.iter().any(|row| row.get("p50_us") < row.get("p99_us")),
        "p50 == p99 in every row: the latency histogram has collapsed to octave resolution"
    );

    publish(
        "qd_sweep",
        "qd_sweep: queue-depth sweep, plain vs protected models (MLC timing, 4-channel pipelines; \
         queue latency = submission→completion incl. queueing)",
        &rows,
    );
}
