//! Queue-depth scaling: the acceptance gate of the device-internal
//! parallelism work, as a tier-1 regression test (the full sweep lives in
//! the `qd_sweep` bench).
//!
//! On the default 4-channel geometry with MLC timing, a QD32 replay must
//! finish in enough parallel overlap to deliver at least 2× the QD1
//! throughput — for the plain SSD, for RSSD and for every local-retention
//! mode, which all run the one pipelined block path — and RSSD must no
//! longer be byte-identical in time to plain (its overhead is real, small
//! and bounded). Also asserts the histogram satellite: queue latency p50 < p99
//! at depth, and that a profiler and a recording trace sink riding the QD32
//! replay change nothing simulated while every hot-loop phase accrues and
//! the recorded trace keeps its grammar.

use rssd_repro::bench_support::{bench_geometry, mk_rssd};
use rssd_repro::flash::{NandTiming, SimClock};
use rssd_repro::obs::{check, ProfilerHandle, SinkHandle};
use rssd_repro::ssd::{BlockDevice, NvmeController, PlainSsd, RetentionMode, RetentionSsd};
use rssd_repro::trace::{replay_fanout, IoRecord, PayloadKind, WorkloadBuilder};

const OPS: usize = 1_200;

fn workload(logical_pages: u64) -> Vec<IoRecord> {
    let mut records: Vec<IoRecord> = (0..logical_pages.min(512))
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

/// Replays the workload at `depth`; returns (completed commands, simulated
/// end ns, queue-latency p50, p99).
fn run_at_depth<D: BlockDevice>(device: D, depth: usize) -> (u64, u64, u64, u64) {
    let mut controller = NvmeController::with_arbitration_burst(device, depth);
    let queue = controller.create_queue_pair(depth);
    let records = workload(controller.device().logical_pages());
    let _ = replay_fanout(&mut controller, &[queue], records);
    let end_ns = controller.device().clock().now_ns();
    let stats = controller.stats(queue);
    (
        stats.completed,
        end_ns,
        stats.latency.quantile_ns(0.5),
        stats.latency.quantile_ns(0.99),
    )
}

fn kiops(completed: u64, end_ns: u64) -> f64 {
    completed as f64 / (end_ns as f64 / 1e9) / 1e3
}

#[test]
fn qd32_doubles_qd1_throughput_on_the_default_geometry() {
    let g = bench_geometry();
    assert_eq!(
        g.channels, 4,
        "the acceptance gate names the 4-channel default"
    );

    for model in ["plain", "rssd", "localssd", "localssd_comp", "flashguard"] {
        let retention = |mode, depth| {
            run_at_depth(
                RetentionSsd::new(g, NandTiming::mlc_default(), SimClock::new(), mode),
                depth,
            )
        };
        let run = |depth| match model {
            "plain" => run_at_depth(
                PlainSsd::new(g, NandTiming::mlc_default(), SimClock::new()),
                depth,
            ),
            "rssd" => run_at_depth(
                mk_rssd(g, NandTiming::mlc_default(), SimClock::new()),
                depth,
            ),
            "localssd" => retention(RetentionMode::RetainAll, depth),
            "localssd_comp" => retention(RetentionMode::Compressed, depth),
            _ => retention(RetentionMode::ReadThenOverwrite, depth),
        };
        let (c1, end1, _, _) = run(1);
        let (c32, end32, p50, p99) = run(32);
        let (t1, t32) = (kiops(c1, end1), kiops(c32, end32));
        assert!(
            t32 >= 2.0 * t1,
            "{model}: QD32 must deliver ≥ 2× QD1 on 4 channels \
             (qd1 {t1:.2} kIOPS, qd32 {t32:.2} kIOPS)"
        );
        assert!(
            p50 < p99,
            "{model}: queue latency must spread at depth (p50 {p50} vs p99 {p99})"
        );
    }
}

#[test]
fn rssd_overhead_is_real_and_bounded() {
    // RSSD's offload engine now occupies real units (planes + channel
    // buses) for its retained-page reads. At QD1 those reads hide in the
    // idle window behind each blocking program — zero visible overhead,
    // which is the paper's low-load claim. At depth there are no idle
    // windows, so the occupation must show up as a real but bounded
    // throughput delta versus plain.
    let g = bench_geometry();
    let mut any_differs = false;
    for depth in [1usize, 32] {
        let (pc, pe, _, _) = run_at_depth(
            PlainSsd::new(g, NandTiming::mlc_default(), SimClock::new()),
            depth,
        );
        let (rc, re, _, _) = run_at_depth(
            mk_rssd(g, NandTiming::mlc_default(), SimClock::new()),
            depth,
        );
        let (pt, rt) = (kiops(pc, pe), kiops(rc, re));
        any_differs |= (pe, pc) != (re, rc);
        if depth == 32 {
            assert!(
                (pe, pc) != (re, rc),
                "at saturation the offload occupation must be visible"
            );
        }
        assert!(
            rt >= 0.75 * pt,
            "rssd overhead must stay bounded at QD{depth}: {rt:.2} vs {pt:.2} kIOPS"
        );
    }
    assert!(
        any_differs,
        "rssd and plain rows must no longer all be identical"
    );
}

#[test]
fn observers_do_not_perturb_the_qd32_replay_and_every_phase_accrues() {
    let replay = |profiler: ProfilerHandle, sink: SinkHandle| {
        let mut device = mk_rssd(bench_geometry(), NandTiming::mlc_default(), SimClock::new());
        device.set_profiler(profiler.clone());
        device.set_trace_sink(sink.clone());
        let mut controller = NvmeController::with_arbitration_burst(device, 32);
        controller.set_profiler(profiler);
        controller.set_trace_sink(sink);
        let queue = controller.create_queue_pair(32);
        let records = workload(controller.device().logical_pages());
        let _ = replay_fanout(&mut controller, &[queue], records);
        let device = controller.device();
        (device.clock().now_ns(), device.nand_stats().clone())
    };

    let bare = replay(ProfilerHandle::disabled(), SinkHandle::disabled());
    let (profiler, sink) = (ProfilerHandle::enabled(), SinkHandle::recording());
    let observed = replay(profiler.clone(), sink.clone());
    assert_eq!(
        bare, observed,
        "tracing/profiling changed the simulated end time or the NAND counters"
    );
    // The replay ends unsettled, so acks may still be in flight.
    let trace = check(&sink.take_events()).unwrap_or_else(|v| panic!("{v}"));
    assert!(trace.transfers_closed > 0, "{trace:?}");

    // Self-time accounting partitions the span, and each instrumented site
    // in the hot loop (controller rounds, offload seal and ship) is live.
    let profile = profiler.finish();
    let pct_sum: f64 = profile.iter().map(|(p, _)| profile.phase_pct(p)).sum();
    assert!(
        (pct_sum - 100.0).abs() < 1e-6,
        "phase percentages must sum to 100, got {pct_sum}"
    );
    for phase in [
        "arbitration",
        "nand_timing",
        "completion_sort",
        "stats",
        "wire",
        "compress",
    ] {
        assert!(
            profile.phase_ns(phase) > 0,
            "phase {phase} never accrued: a profiler.enter site is gone from the hot loop"
        );
    }
}
