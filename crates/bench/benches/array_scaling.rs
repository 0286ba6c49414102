//! Array scaling: aggregate throughput versus shard count.
//!
//! The same mixed 4 KiB workload, fanned out over four host queue pairs,
//! against an `RssdArray` of 1, 2, 4 and 8 RSSD members on MLC timing.
//! Members execute each arbitration batch in parallel (per-shard clocks;
//! the batch costs its slowest member), so the simulated completion time
//! must shrink — and aggregate throughput rise — monotonically from 1 to 4
//! shards (asserted here, once, on the rows this bench writes; `rssd-array`'s
//! `aggregate_throughput_scales_with_shard_count` pins it in tier-1).
//!
//! Writes `BENCH_array_scaling.json` with p50/p99/throughput per
//! configuration — simulated time only, so CI gates the file's bytes.

use rssd_bench::{mk_array, publish, BenchRow};
use rssd_flash::{FlashGeometry, NandTiming};
use rssd_ssd::{BlockDevice, NvmeController, QueueId, QueuePairStats};
use rssd_trace::{replay_fanout, IoRecord, PayloadKind, WorkloadBuilder};

const OPS: usize = 4_000;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const HOST_QUEUES: usize = 4;
const DEPTH: usize = 32;

/// 8 MiB members: the array's capacity grows with the shard count, the way
/// a fleet's does.
fn shard_geometry() -> FlashGeometry {
    FlashGeometry::with_capacity(8 * 1024 * 1024)
}

fn workload(logical_pages: u64) -> Vec<IoRecord> {
    // Warm-up fill so reads hit mapped pages, then a mixed random workload
    // over the whole array space (striping spreads it across members).
    let mut records: Vec<IoRecord> = (0..logical_pages.min(1024))
        .map(|lpa| IoRecord::write(0, lpa, PayloadKind::Binary, lpa))
        .collect();
    records.extend(
        WorkloadBuilder::new(logical_pages)
            .seed(31)
            .ops_per_second(50_000.0)
            .mean_request_pages(1)
            .read_fraction(0.4)
            .sequential_fraction(0.2)
            .build()
            .take(OPS),
    );
    records
}

/// Runs the workload against `shards` members; returns merged host-side
/// stats and the simulated end time.
fn run_with_shards(shards: usize) -> (QueuePairStats, u64) {
    let array = mk_array(shards, shard_geometry(), NandTiming::mlc_default(), 8);
    let records = workload(array.logical_pages());
    let mut controller = NvmeController::with_arbitration_burst(array, DEPTH);
    let queues: Vec<QueueId> = (0..HOST_QUEUES)
        .map(|_| controller.create_queue_pair(DEPTH))
        .collect();
    let _ = replay_fanout(&mut controller, &queues, records);
    let end_ns = controller.device().clock().now_ns();
    let mut merged = controller.stats(queues[0]).clone();
    for &q in &queues[1..] {
        merged.merge(controller.stats(q));
    }
    (merged, end_ns)
}

fn main() {
    let rows: Vec<BenchRow> = SHARD_COUNTS
        .into_iter()
        .map(|shards| {
            let (stats, end_ns) = run_with_shards(shards);
            BenchRow::new(
                format!("{shards}_shards"),
                vec![
                    ("completed", stats.completed as f64),
                    ("p50_us", stats.latency.quantile_ns(0.5) as f64 / 1000.0),
                    ("p99_us", stats.latency.quantile_ns(0.99) as f64 / 1000.0),
                    (
                        "throughput_kiops",
                        stats.completed as f64 / (end_ns as f64 / 1e9) / 1e3,
                    ),
                    ("sim_end_ms", end_ns as f64 / 1e6),
                ],
            )
        })
        .collect();
    // The acceptance gate: more shards must mean more aggregate throughput
    // over the 1 → 4 range (8 documents the tail of the curve).
    for (pair, shards) in rows.windows(2).zip(&SHARD_COUNTS[1..]) {
        let (a, b) = (&pair[0], &pair[1]);
        if *shards <= 4 {
            assert!(
                b.get("throughput_kiops") > a.get("throughput_kiops"),
                "throughput must scale: {} {:.1} kIOPS vs {} {:.1} kIOPS",
                a.config,
                a.get("throughput_kiops"),
                b.config,
                b.get("throughput_kiops")
            );
        }
    }
    publish(
        "array_scaling",
        "array_scaling: aggregate throughput vs shard count (RSSD members, MLC timing)",
        &rows,
    );
}
