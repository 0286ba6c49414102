//! `fleet_mixed`: many short-lived members on `rssd-fleet`'s worker pool.
//!
//! The only multi-threaded workload, and the only one whose generator lives
//! inside the program under test: the seed goes in through
//! `FleetConfig::seed`.

use super::device::DeviceWorkload;
use super::{layers, reps_for, RunOptions};
use crate::inputs::PAGE_SIZE;
use crate::report::{nproc, peak_rss_mib, Report};
use crate::stats::{median, Sampled};
use rssd_fleet::{Fleet, FleetConfig, FleetReport};
use std::time::Instant;

/// Host seconds one `Fleet::run` of the full configuration takes on the
/// 2-core machine the sizes were chosen on.
const REP_SECONDS: f64 = 2.4;

/// The fleet configuration: the full one, or the small one that warms the
/// process up (and that the other workloads' traced runs time as their
/// `fleet.*` drill).
///
/// No member runs under a fault schedule or an outage. With
/// `fault_fraction = 0.1`, `Fleet::run` fails outright ("stuck after 33
/// interruptions") for about one seed in four, and with
/// `outage_fraction = 0.05` admission control refuses writes on about half
/// the seeds; the benchmark takes any seed and its workloads are ones on
/// which no operation fails. Every member still runs behind a
/// `FaultInjector` with an empty schedule.
pub fn config(options: &RunOptions, small: bool) -> FleetConfig {
    let (members, ops_per_member) = match (small, options.smoke) {
        (false, false) => (128, 480),
        (true, false) => (32, 480),
        (false, true) => (8, 160),
        (true, true) => (4, 160),
    };
    FleetConfig {
        members,
        ops_per_member,
        workers: nproc().min(4),
        seed: options.seed,
        fault_fraction: 0.0,
        outage_fraction: 0.0,
        ..FleetConfig::default()
    }
}

fn timed_run(config: &FleetConfig) -> (FleetReport, f64) {
    let fleet = Fleet::new(config.clone());
    let started = Instant::now();
    let report = fleet
        .run()
        .expect("a fleet without fault schedules runs to completion");
    (report, started.elapsed().as_secs_f64())
}

/// Runs `fleet_mixed`. The traced run takes its device-side layer metrics
/// from `reference`, a single-device stack like a bare member's.
pub fn run(options: &RunOptions, reference: &DeviceWorkload) -> Report {
    let mut report = Report::new("fleet_mixed", options.seed, options.traced);
    let full = config(options, false);
    if options.traced {
        let fleet = crate::drills::fleet_drill(&mut report, &full);
        fleet_checks(&mut report, &fleet);
        report.reps = 1;
        report.commands_per_rep = fleet.total_ops;
        report.attempted = fleet.total_ops;
        report.failed = failed(&fleet);
        report.layer("detect.observations", fleet.observations as f64);
        report.note(format!(
            "device-side layers below come from a reference stack: steady_qd32's, {} commands",
            reference.commands
        ));
        layers::traced_device_run(&mut report, reference, options);
    } else {
        untraced(&mut report, options, &full);
    }
    report.finish();
    report
}

fn failed(fleet: &FleetReport) -> u64 {
    fleet.replay.errors + fleet.replay.stalls
}

fn untraced(report: &mut Report, options: &RunOptions, full: &FleetConfig) {
    // Set-up: the configuration and a small warm-up fleet, three times.
    let warm_up = config(options, true);
    let setup_s: Vec<f64> = (0..3).map(|_| timed_run(&warm_up).1).collect();

    let reps = reps_for(options, REP_SECONDS);
    let runs: Vec<(FleetReport, f64)> = (0..reps).map(|_| timed_run(full)).collect();
    let first = &runs[0].0;
    let differing = runs.iter().skip(1).filter(|(r, _)| r != first).count();
    report.check(
        "FleetReport identical across reps",
        differing == 0,
        format!("{differing} of {reps} repetitions differ from the first"),
    );
    fleet_checks(report, first);

    report.reps = reps;
    report.commands_per_rep = first.total_ops;
    report.attempted = first.total_ops * reps as u64;
    report.failed = failed(first) * reps as u64;
    let walls: Vec<f64> = runs.iter().map(|(_, wall)| *wall).collect();
    let exact = |value: f64| Sampled::exact(value, reps);
    report.set("setup_s", Sampled::of(&setup_s));
    report.set(
        "host_ops_per_s",
        Sampled::of(
            &walls
                .iter()
                .map(|wall| first.total_ops as f64 / wall)
                .collect::<Vec<_>>(),
        ),
    );
    // The members audit their own evidence inside `Fleet::run`, and no
    // public call separates that from the replay: the time until the
    // fleet's verdict is the run's whole wall time.
    report.set("post_attack_s", Sampled::of(&walls));
    report.set("peak_rss_mib", Sampled::exact(peak_rss_mib(), 1));
    // The median member's ops per simulated ms. (`simulated_iops` divides by
    // the slowest member's makespan, which one tenant's diurnal phase
    // decides; tenant pacing, not device speed, decides this one too.)
    let member_rates: Vec<f64> = first
        .scorecards
        .iter()
        .map(|card| card.ops as f64 / (card.sim_end_ns as f64 / 1e6))
        .collect();
    report.set("sim_kiops", exact(median(&member_rates)));
    report.set(
        "sim_lat_p50_us",
        exact(first.queues.latency.quantile_ns(0.5) as f64 / 1e3),
    );
    report.set(
        "sim_lat_p999_us",
        exact(first.queues.latency.quantile_ns(0.999) as f64 / 1e3),
    );
    report.set("write_amp", exact(first.ftl.write_amplification()));
    report.set(
        "remote_bytes_per_host_byte",
        exact(
            first.offload.sealed_bytes as f64
                / (first.ftl.host_pages_written as f64 * PAGE_SIZE as f64),
        ),
    );
    report.set("detect_recall", exact(first.detection_recall()));
    report.set("false_positive_frac", exact(first.false_positive_rate()));
    report.set(
        "ops_failed_frac",
        exact(failed(first) as f64 / first.total_ops.max(1) as f64),
    );
    report.note(format!(
        "{} members ({} compromised, {} detected), {} workers, {} ops; median run {:.3} host s; \
         sim latency over {} completions",
        full.members,
        first.compromised_members.len(),
        first.detected_members.len(),
        full.workers,
        first.total_ops,
        median(&walls),
        first.queues.latency.count(),
    ));
}

fn fleet_checks(report: &mut Report, fleet: &FleetReport) {
    report.check(
        "no command fails, stalls or is refused",
        failed(fleet) == 0 && fleet.queues.errors == 0,
        format!(
            "{} errors, {} stalls of {} ops",
            fleet.replay.errors, fleet.replay.stalls, fleet.total_ops
        ),
    );
    report.check(
        "every submitted command completes",
        fleet.queues.submitted == fleet.queues.completed,
        format!(
            "{} submitted, {} completed",
            fleet.queues.submitted, fleet.queues.completed
        ),
    );
    let unverified = fleet
        .scorecards
        .iter()
        .filter(|c| !c.chain_verified)
        .count();
    report.check(
        "every member's evidence chain verifies",
        unverified == 0,
        format!("{unverified} of {} members unverified", fleet.members),
    );
}
