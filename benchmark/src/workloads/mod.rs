//! The four workloads, their sizes, and how a run of one is assembled into
//! a [`Report`].

pub mod device;
pub mod fleet;
pub mod layers;

use crate::inputs::{Inputs, PayloadMix, PAGE_SIZE};
use crate::report::{peak_rss_mib, Report};
use crate::stack::Uplink;
use crate::stats::{median, Sampled};
use device::{AttackPlan, DeviceWorkload, Rep};
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order a full run executes them.
pub const NAMES: [&str; 4] = [
    "steady_qd32",
    "read_mostly_qd1",
    "attack_recover",
    "fleet_mixed",
];

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Seed the inputs are made from.
    pub seed: u64,
    /// Roughly how long to measure: the repetition count is derived from it
    /// (see [`reps_for`]), never the work inside a repetition.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// 1/50 of every size.
    pub smoke: bool,
    /// Where to write results files; nothing is written without it.
    pub out: Option<PathBuf>,
}

/// Every size is divided by this under `--smoke`.
const SMOKE_DIVISOR: usize = 50;

/// Repetitions of a workload whose repetition takes about `rep_seconds` on
/// the machine the sizes were chosen on: as many as fit `seconds`, never
/// fewer than three (two under `--smoke`). A function of the arguments
/// only, so two runs — and two commits — always do the same work.
pub fn reps_for(options: &RunOptions, rep_seconds: f64) -> usize {
    if options.smoke {
        return 2;
    }
    ((options.seconds as f64 / rep_seconds) as usize).max(3)
}

fn steady_qd32(smoke: bool) -> DeviceWorkload {
    DeviceWorkload {
        name: "steady_qd32",
        commands: scaled(100_000, smoke),
        read_fraction: 0.35,
        depth: 32,
        mix: PayloadMix::Hm,
        uplink: Uplink::Datacenter,
        plain_arm: true,
        attack: None,
        rollback_pages: scaled(512, smoke),
    }
}

fn read_mostly_qd1(smoke: bool) -> DeviceWorkload {
    DeviceWorkload {
        name: "read_mostly_qd1",
        commands: scaled(600_000, smoke),
        read_fraction: 0.95,
        depth: 1,
        mix: PayloadMix::Hm,
        uplink: Uplink::Datacenter,
        plain_arm: true,
        attack: None,
        rollback_pages: scaled(512, smoke),
    }
}

fn attack_recover(smoke: bool) -> DeviceWorkload {
    DeviceWorkload {
        name: "attack_recover",
        commands: scaled(50_000, smoke),
        read_fraction: 0.35,
        depth: 8,
        mix: PayloadMix::AllRandom,
        uplink: Uplink::LossyWan,
        plain_arm: false,
        attack: Some(AttackPlan {
            trim_files: scaled(16, smoke),
            trim_file_pages: 64,
            timing_pages: scaled(256, smoke) as u64,
            gc_pages: scaled(2048, smoke) as u64,
            flood_rounds: if smoke { 1 } else { 2 },
            burst_pages: 4,
            burst_interval_ns: 3_600_000_000_000,
        }),
        rollback_pages: 0,
    }
}

/// The reference stack the traced `fleet_mixed` run takes its device-side
/// layer metrics from: `steady_qd32`'s stack on a shorter script.
fn reference(smoke: bool) -> DeviceWorkload {
    DeviceWorkload {
        name: "fleet_mixed",
        commands: scaled(50_000, smoke),
        plain_arm: false,
        ..steady_qd32(smoke)
    }
}

pub(crate) fn scaled(size: usize, smoke: bool) -> usize {
    if smoke {
        (size / SMOKE_DIVISOR).max(1)
    } else {
        size
    }
}

/// Host seconds one repetition of each device workload takes on the 2-core
/// 2.1 GHz machine the sizes were chosen on.
fn rep_seconds(name: &str) -> f64 {
    match name {
        "steady_qd32" => 4.0,
        "read_mostly_qd1" => 4.2,
        _ => 3.6,
    }
}

/// Why each workload exists, one line each (also in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "steady_qd32" => {
            "every write-path layer busy at once at queue depth 32: entropy, chain, \
             FTL+GC, seal, wire, remote ingest"
        }
        "read_mostly_qd1" => {
            "one arbitration round per command: per-round and read-path cost dominate, \
             the offload path is nearly idle"
        }
        "attack_recover" => {
            "GC, trim and timing attacks on incompressible data over a lossy WAN, then \
             the decode direction: verify, analyze, restore, harvest"
        }
        "fleet_mixed" => {
            "128 short-lived members on a worker pool: per-member construction, audit, \
             array fan-out, fault injector and fused detection"
        }
        _ => "",
    }
}

/// The single-device workload called `name`, at full or smoke size; `None`
/// for `fleet_mixed` and unknown names.
pub fn device_workload(name: &str, smoke: bool) -> Option<DeviceWorkload> {
    match name {
        "steady_qd32" => Some(steady_qd32(smoke)),
        "read_mostly_qd1" => Some(read_mostly_qd1(smoke)),
        "attack_recover" => Some(attack_recover(smoke)),
        _ => None,
    }
}

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, options: &RunOptions) -> Option<Report> {
    if name == "fleet_mixed" {
        return Some(fleet::run(options, &reference(options.smoke)));
    }
    let workload = device_workload(name, options.smoke)?;
    let mut report = Report::new(workload.name, options.seed, options.traced);
    if options.traced {
        // The fleet drill first, while the process is still small.
        report.note("fleet.* time a 32-member fleet, the one fleet_mixed warms up with");
        let _ = crate::drills::fleet_drill(&mut report, &fleet::config(options, true));
        let rep = layers::traced_device_run(&mut report, &workload, options);
        report.reps = 1;
        report.commands_per_rep = rep.attempted();
        report.attempted = rep.attempted();
        report.failed = rep.failed;
        report.layer(
            "detect.observations",
            rep.sim.server.records_analyzed as f64,
        );
    } else {
        untraced_device_run(&mut report, &workload, options);
    }
    report.finish();
    Some(report)
}

/// Generates `workload`'s inputs three times and returns them with the
/// median host seconds one generation took.
pub fn timed_inputs(workload: &DeviceWorkload, seed: u64) -> (Inputs, f64) {
    let mut seconds = Vec::new();
    let mut inputs = None;
    for _ in 0..3 {
        let started = Instant::now();
        inputs = Some(workload.inputs(seed));
        seconds.push(started.elapsed().as_secs_f64());
    }
    (inputs.expect("generated above"), median(&seconds))
}

/// The untraced run of a device workload: `reps` repetitions on fresh
/// stacks with the same inputs, host-clock metrics as medians, sim-clock
/// metrics required to repeat exactly.
fn untraced_device_run(report: &mut Report, workload: &DeviceWorkload, options: &RunOptions) {
    let (inputs, generate_s) = timed_inputs(workload, options.seed);
    let reps = reps_for(options, rep_seconds(workload.name));
    let measured: Vec<Rep> = (0..reps)
        .map(|_| device::untraced_rep(workload, &inputs, options.seed))
        .collect();
    check_reps_agree(report, &measured);
    device_end_to_end(report, &measured, generate_s);
    device_checks(report, workload, &measured[0]);
    report.set("peak_rss_mib", Sampled::exact(peak_rss_mib(), 1));
}

/// Sim-clock figures and every stats struct must be bit-identical across
/// repetitions.
pub fn check_reps_agree(report: &mut Report, reps: &[Rep]) {
    let differing = reps
        .iter()
        .skip(1)
        .filter(|rep| rep.sim != reps[0].sim)
        .count();
    report.check(
        "sim-clock metrics and NAND/FTL/offload stats identical across reps",
        differing == 0,
        format!(
            "{differing} of {} repetitions differ from the first",
            reps.len()
        ),
    );
}

/// Records the end-to-end metrics of a device workload from its
/// repetitions.
pub fn device_end_to_end(report: &mut Report, reps: &[Rep], generate_s: f64) {
    let first = &reps[0];
    let sim = &first.sim;
    let host = |f: &dyn Fn(&Rep) -> f64| Sampled::of(&reps.iter().map(f).collect::<Vec<_>>());
    let exact = |value: f64| Sampled::exact(value, reps.len());
    report.reps = reps.len();
    report.commands_per_rep = first.attempted();
    report.attempted = reps.iter().map(Rep::attempted).sum();
    report.failed = reps.iter().map(|rep| rep.failed).sum();

    report.set("setup_s", host(&|rep| generate_s + rep.setup_s));
    report.set(
        "host_ops_per_s",
        host(&|rep| rep.attempted() as f64 / rep.timed_s()),
    );
    report.set("post_attack_s", host(&|rep| rep.post.total_s()));
    report.set(
        "sim_kiops",
        exact(sim.completed as f64 / (sim.replay_sim_ns as f64 / 1e6)),
    );
    report.set("sim_lat_p50_us", exact(sim.lat_p50_ns as f64 / 1e3));
    report.set("sim_lat_p999_us", exact(sim.lat_p999_ns as f64 / 1e3));
    if let Some(plain) = &sim.plain {
        report.set(
            "sim_tput_vs_plain",
            exact(plain.replay_sim_ns as f64 / sim.replay_sim_ns as f64),
        );
    }
    report.set("sim_recover_ms", exact(sim.post.recover_ns as f64 / 1e6));
    report.set("write_amp", exact(sim.ftl.write_amplification()));
    report.set(
        "remote_bytes_per_host_byte",
        exact(
            sim.offload.sealed_bytes as f64
                / (sim.ftl.host_pages_written as f64 * PAGE_SIZE as f64),
        ),
    );
    report.set(
        "recovery_fraction",
        exact(sim.post.intact as f64 / sim.post.victims.max(1) as f64),
    );
    // With nothing attacked there is nothing to miss: recall 1, the
    // convention `FleetReport::detection_recall` follows too.
    report.set(
        "detect_recall",
        exact(if sim.post.attacked == 0 {
            1.0
        } else {
            sim.post.attacked_reported as f64 / sim.post.attacked as f64
        }),
    );
    report.set(
        "ops_failed_frac",
        exact(first.failed as f64 / first.attempted() as f64),
    );

    report.note(format!(
        "host ops/s per repetition, in order: {}",
        reps.iter()
            .map(|rep| format!("{:.0}", rep.attempted() as f64 / rep.timed_s()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let latency_samples = sim.queue.latency.count();
    report.note(format!(
        "sim latency over {latency_samples} completions ({} beyond p99.9); \
         highest percentile with >= 10 samples beyond it: {}",
        latency_samples / 1000,
        crate::stats::reportable_percentiles(latency_samples)
            .last()
            .expect("the median is always reportable")
            .0
    ));
    let med = |f: &dyn Fn(&Rep) -> f64| host(f).median;
    let mut phases = format!(
        "timed phases, median host s: replay {:.3}, attacks {:.3}",
        med(&|rep| rep.replay_s),
        med(&|rep| rep.attack_s)
    );
    if sim.plain.is_some() {
        let plain_s = med(&|rep| rep.plain_replay_s);
        phases.push_str(&format!(
            "; plain-arm replay {plain_s:.3} ({:.0} ops/host-s)",
            sim.completed as f64 / plain_s
        ));
    }
    report.note(phases);
    let steps = [
        "flush", "history", "analyze", "restore", "verify", "harvest",
    ];
    let split: Vec<String> = steps
        .iter()
        .enumerate()
        .map(|(i, step)| format!("{step} {:.3}", med(&|rep| rep.post.step_s[i])))
        .collect();
    report.note(format!(
        "post-attack phase, median host s: {} ({} records, {} segments, {} pages restored)",
        split.join(", "),
        sim.post.records,
        sim.post.segments,
        sim.post.restored
    ));
    report.note(format!(
        "compression ratio {:.3}; wire: {} capsules, {} retransmissions, {} RTO waits; \
         analyzer verdict {:?}, {} victim pages reported",
        sim.offload.compression_ratio(),
        sim.wire.capsules_sent,
        sim.wire.retransmissions,
        sim.wire.rto_timeouts,
        sim.post.verdict,
        sim.post.reported_victims
    ));
}

/// The output checks of a device workload, on one repetition (the
/// repetitions are checked to agree separately).
pub fn device_checks(report: &mut Report, workload: &DeviceWorkload, rep: &Rep) {
    let sim = &rep.sim;
    report.check(
        "every submitted command completes exactly once",
        sim.queue.submitted == sim.completed && sim.queue.completed == sim.completed,
        format!(
            "script {} submitted {} completed {}",
            workload.commands, sim.queue.submitted, sim.queue.completed
        ),
    );
    report.check(
        "no command fails, stalls or is refused",
        rep.failed == 0 && sim.queue.errors == 0,
        format!(
            "{} failed of {} attempted ({} flood writes stalled)",
            rep.failed,
            rep.attempted(),
            sim.swallowed_stalls
        ),
    );
    if let Some(plain) = &sim.plain {
        report.check(
            "RSSD and plain arms read the same bytes",
            plain.read_digest == sim.read_digest && plain.sample_mismatches == 0,
            format!(
                "replay read digests {:016x} / {:016x}; {} of 1024 sampled pages differ",
                sim.read_digest, plain.read_digest, plain.sample_mismatches
            ),
        );
    }
    let post = &sim.post;
    report.check(
        "verified_history succeeds",
        post.history_verified,
        format!("{} records", post.records),
    );
    report.check(
        "every victim page is intact after the restore",
        post.intact == post.victims && post.unrecoverable == 0,
        format!(
            "{} of {} intact, {} restored, {} unrecoverable",
            post.intact, post.victims, post.restored, post.unrecoverable
        ),
    );
    report.check(
        "the harvest verifies and covers every victim page",
        post.harvest_verified && post.covered == post.victims,
        format!("{} of {} covered", post.covered, post.victims),
    );
    report.check(
        "every attacked page is in the analyzer's victim list",
        post.attacked_reported == post.attacked,
        format!("{} of {}", post.attacked_reported, post.attacked),
    );
}
