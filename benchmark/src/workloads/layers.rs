//! The traced run: one traced repetition of a device workload between two
//! untraced ones, the stack spans turned into per-layer metrics, the layer
//! drills, and what the drills leave unexplained.

use super::device::{self, DeviceWorkload, Rep};
use super::{check_reps_agree, device_checks, scaled, RunOptions};
use crate::drills::{self, DrillInputs, UnitCosts};
use crate::report::Report;
use crate::spans::{SpanTotals, Tracer};
use std::collections::BTreeMap;

/// Commands the stack drills and the sink-overhead drill replay at most.
const DRILL_COMMANDS: usize = 50_000;
const SINK_DRILL_COMMANDS: usize = 20_000;

fn self_ns(spans: &BTreeMap<&'static str, SpanTotals>, prefix: &str) -> f64 {
    spans
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, totals)| totals.self_ns as f64)
        .sum()
}

fn quantile_us(totals: Option<&SpanTotals>, q: f64) -> f64 {
    totals.map_or(0.0, |t| t.durations.quantile(q) as f64 / 1e3)
}

/// Runs `workload` untraced, traced, untraced; records every per-layer
/// metric except `fleet.*` and `detect.observations`, writes the Chrome
/// trace, and returns the traced repetition. The report's repetition and
/// command counts are the caller's to set.
pub fn traced_device_run(
    report: &mut Report,
    workload: &DeviceWorkload,
    options: &RunOptions,
) -> Rep {
    let inputs = workload.inputs(options.seed);
    // Untraced before and after the traced repetition, so that warm-up and
    // drift do not read as tracing overhead.
    let before = device::untraced_rep(workload, &inputs, options.seed);
    let tracer = Tracer::recording("ssd.process_round");
    let traced = device::traced_rep(workload, &inputs, options.seed, &tracer);
    let after = device::untraced_rep(workload, &inputs, options.seed);
    let reps = [before, traced, after];
    check_reps_agree(report, &reps);
    let [before, traced, after] = reps;
    device_checks(report, workload, &traced);

    span_layers(report, workload, &traced);
    report.layer(
        "obs.bench_trace_overhead_frac",
        traced.timed_s() / ((before.timed_s() + after.timed_s()) / 2.0) - 1.0,
    );

    let sim = &traced.sim;
    let segments = sim.offload.segments_offloaded.max(1);
    let drill_inputs = DrillInputs {
        inputs: &inputs,
        seed: options.seed,
        depth: workload.depth,
        link: workload.uplink.link(),
        command_cap: scaled(DRILL_COMMANDS, options.smoke),
        nand_counts: [sim.nand.programs(), sim.nand.reads()],
        records: sim.offload.records_offloaded,
        segments,
        segment_bytes: (sim.offload.sealed_bytes / segments) as usize,
    };
    let costs = drills::run_all(report, &drill_inputs);
    unattributed(report, &traced, &costs);
    report.layer(
        "obs.sink_overhead_frac",
        drills::sink_overhead(
            &drill_inputs,
            scaled(SINK_DRILL_COMMANDS, options.smoke),
            workload.uplink,
        ),
    );

    if let Some(dir) = &options.out {
        let path = dir.join(format!("{}.trace.json", report.workload));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.export_chrome_json()));
        report.check(
            "the Chrome trace is written",
            written.is_ok(),
            format!("{} ({} spans kept)", path.display(), tracer.spans().len()),
        );
    }
    traced
}

/// Per-layer metrics that come from the stack spans and the stack's own
/// counters.
fn span_layers(report: &mut Report, workload: &DeviceWorkload, rep: &Rep) {
    let spans = &rep.timed_spans;
    let sim = &rep.sim;
    let timed_ns = rep.timed_s() * 1e9;

    let round = spans.get("ssd.process_round");
    report.layer("ssd.round_us_p50", quantile_us(round, 0.5));
    report.layer("ssd.round_us_p99", quantile_us(round, 0.99));
    let ssd_self = self_ns(spans, "ssd.");
    report.layer("ssd.self_frac", ssd_self / timed_ns);
    report.layer("ssd.rounds", rep.rounds as f64);
    report.layer(
        "ssd.cmds_per_round",
        sim.completed as f64 / rep.rounds.max(1) as f64,
    );

    // The closed loop keeps every round but the last full, so a batch is
    // `depth` commands.
    let batch = spans.get("device.submit_batch_timed");
    let depth = workload.depth as f64;
    report.layer("core.batch_us_per_cmd_p50", quantile_us(batch, 0.5) / depth);
    report.layer(
        "core.batch_us_per_cmd_p99",
        quantile_us(batch, 0.99) / depth,
    );
    let core_self = self_ns(spans, "device.");
    report.layer("core.self_frac", core_self / timed_ns);
    report.layer("core.sync_offloads", sim.offload.sync_offloads as f64);
    report.layer("core.throttled_writes", sim.offload.throttled_writes as f64);
    report.layer("core.offload_failures", sim.offload.offload_failures as f64);
    report.layer("core.segments_sealed", sim.offload.segments_sealed as f64);

    let wire_self = self_ns(spans, "wire.");
    let remote_self = self_ns(spans, "remote.");
    report.layer("net.wire_self_frac", wire_self / timed_ns);
    report.layer("remote.self_frac", remote_self / timed_ns);
    let ingest = spans.get("remote.store_segment");
    report.layer("remote.ingest_us_per_seg_p50", quantile_us(ingest, 0.5));
    report.layer("remote.ingest_us_per_seg_p99", quantile_us(ingest, 0.99));
    report.layer(
        "remote.fetch_us_per_seg_p50",
        quantile_us(rep.post_spans.get("remote.fetch_segment"), 0.5),
    );
    report.layer("remote.segments_stored", sim.server.segments_stored as f64);
    report.layer("remote.stored_bytes", sim.stored_bytes as f64);
    report.layer(
        "remote.records_analyzed",
        sim.server.records_analyzed as f64,
    );

    report.layer("net.capsules_sent", sim.wire.capsules_sent as f64);
    report.layer("net.retransmissions", sim.wire.retransmissions as f64);
    report.layer("net.rto_timeouts", sim.wire.rto_timeouts as f64);
    report.layer(
        "net.goodput_frac",
        (sim.wire.capsules_sent - sim.wire.retransmissions) as f64
            / sim.wire.capsules_sent.max(1) as f64,
    );

    report.layer("ftl.gc_invocations", sim.ftl.gc_invocations as f64);
    report.layer("ftl.gc_pages_migrated", sim.ftl.gc_pages_migrated as f64);
    report.layer("ftl.write_stalls", sim.ftl.write_stalls as f64);
    report.layer("flash.programs", sim.nand.programs() as f64);
    report.layer("flash.reads", sim.nand.reads() as f64);
    report.layer("flash.erases", sim.nand.erases() as f64);
    report.layer("flash.background_reads", sim.nand.background_reads() as f64);
    let utilization = sim.nand.channel_utilization(sim.sim_end_ns);
    report.layer(
        "flash.chan_util_avg",
        utilization.iter().sum::<f64>() / utilization.len().max(1) as f64,
    );
    report.layer("compress.ratio", sim.offload.compression_ratio());

    let post = &rep.post;
    let per = |seconds: f64, count: u64| seconds * 1e6 / count.max(1) as f64;
    report.layer(
        "core.verified_history_us_per_rec",
        per(post.step_s[1], post.sim.records),
    );
    report.layer(
        "core.analyze_us_per_rec",
        per(post.step_s[2], post.sim.records),
    );
    report.layer(
        "core.restore_us_per_page",
        per(post.step_s[3], post.sim.restored),
    );
    report.layer(
        "core.harvest_us_per_seg",
        per(post.step_s[5], post.sim.segments),
    );

    // Self times of one tree sum to its root: check it on the rounds.
    let round_total = round.map_or(0, |t| t.total_ns) as f64;
    let gap = (rep.under_round_self_ns as f64 - round_total).abs() / round_total.max(1.0);
    report.check(
        "stack-span self times sum to the process_round span within 1 %",
        gap <= 0.01,
        format!(
            "self times under rounds {:.3} s, rounds {:.3} s",
            rep.under_round_self_ns as f64 / 1e9,
            round_total / 1e9
        ),
    );
    let roots: f64 = spans.values().map(|totals| totals.self_ns as f64).sum();
    report.note(format!(
        "timed span {:.3} host s = ssd {:.1} % + device side {:.1} % + wire {:.1} % + remote \
         {:.1} % + the benchmark's driver {:.1} %",
        timed_ns / 1e9,
        100.0 * ssd_self / timed_ns,
        100.0 * core_self / timed_ns,
        100.0 * wire_self / timed_ns,
        100.0 * remote_self / timed_ns,
        100.0 * (timed_ns - roots) / timed_ns,
    ));
}

/// What the drills' unit costs × the stack's exact counts leave of the
/// device-side span.
fn unattributed(report: &mut Report, rep: &Rep, costs: &UnitCosts) {
    let sim = &rep.sim;
    let timed_ns = rep.timed_s() * 1e9;
    let kib = |bytes: u64| bytes as f64 / 1024.0;
    let parts = [
        (
            "ftl+flash",
            sim.ftl.host_pages_written as f64 * costs.ftl_write_ns
                + sim.ftl.host_pages_read as f64 * costs.ftl_read_ns
                + sim.nand.background_reads() as f64 * costs.flash_read_ns,
        ),
        (
            "entropy",
            sim.ftl.host_pages_written as f64 * costs.entropy_ns_per_page,
        ),
        (
            "chain",
            sim.offload.records_offloaded as f64 * costs.chain_append_ns,
        ),
        (
            "compress",
            kib(sim.offload.raw_bytes) * costs.encode_mixed_ns_per_kib,
        ),
        (
            "seal",
            kib(sim.offload.sealed_bytes) * costs.seal_ns_per_kib,
        ),
    ];
    let attributed: f64 = parts.iter().map(|(_, ns)| ns).sum();
    let core_self = self_ns(&rep.timed_spans, "device.");
    report.layer(
        "core.unattributed_frac",
        (core_self - attributed) / timed_ns,
    );
    report.note(format!(
        "device side by drill estimate, % of the timed span: {}",
        parts
            .iter()
            .map(|(name, ns)| format!("{name} {:.1}", 100.0 * ns / timed_ns))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}
