//! A fleet in one screen: N independent RSSD members, per-tenant
//! workloads, faults, and fused detection.
//!
//! Runs a small [`Fleet`] (12 members, a quarter of them compromised, a
//! tenth under seeded fault schedules) on two worker threads and prints
//! the per-member scorecards, the merged device-stats rollup, and the
//! fleet-wide fused detection verdict. The same harness scales to
//! thousands of members in `cargo bench --bench fleet`; this example is
//! the CI-sized tour.
//!
//! ```sh
//! cargo run --example fleet_sim
//! # dual-timeline trace for https://ui.perfetto.dev, checked against the
//! # trace grammar before it is written:
//! cargo run --example fleet_sim -- --trace-out fleet_trace.json
//! ```
//!
//! [`Fleet`]: rssd_repro::fleet::Fleet

use rssd_repro::detect::Verdict;
use rssd_repro::fleet::{Fleet, FleetConfig, ObsOptions};
use rssd_repro::obs::{check, export_chrome_trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => {
                trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }

    let config = FleetConfig {
        members: 12,
        workers: 2,
        seed: 42,
        ops_per_member: 60,
        fault_fraction: 0.1,
        ..FleetConfig::default()
    };
    println!(
        "fleet: {} members ({} tenants, zipf {}), {} workers, seed {}\n",
        config.members, config.tenants, config.zipf_theta, config.workers, config.seed
    );

    let (report, obs) = Fleet::new(config).run_instrumented(ObsOptions {
        trace: trace_out.is_some(),
        profile: true,
    })?;

    println!(
        "{:>3} {:<7} {:>6} {:<10} {:>6} {:>6} {:>11} {:>6} {:>6}  chain",
        "id", "kind", "tenant", "profile", "attck", "fault", "verdict", "score", "cuts"
    );
    println!("{}", "-".repeat(84));
    for card in &report.scorecards {
        let verdict = match card.verdict {
            Verdict::Benign => "benign",
            Verdict::Suspicious => "suspicious",
            Verdict::Ransomware => "RANSOMWARE",
        };
        println!(
            "{:>3} {:<7} {:>6} {:<10} {:>6} {:>6} {:>11} {:>6.2} {:>6}  {}",
            card.member,
            card.kind,
            card.tenant,
            card.profile,
            if card.compromised { "yes" } else { "-" },
            if card.faulted { "yes" } else { "-" },
            verdict,
            card.detection_score,
            card.power_cuts,
            if card.chain_verified {
                "verified"
            } else {
                "GAP FLAGGED"
            },
        );
    }
    println!("{}", "-".repeat(84));

    println!(
        "merged devices: {} programs, {} reads, {} erases; WAF {:.2}; \
         {} segments offloaded; service latency mean {:.0} ns / p99 {} ns",
        report.nand.programs(),
        report.nand.reads(),
        report.nand.erases(),
        report.ftl.write_amplification(),
        report.offload.segments_offloaded,
        report.latency.mean_ns(),
        report.latency.quantile_ns(0.99),
    );
    println!(
        "merged host:    {} submitted / {} completed across member queue pairs",
        report.queues.submitted, report.queues.completed
    );
    println!(
        "fleet:          {} ops over {:.1} simulated s ({:.2} sim IOPS); \
         fused verdict {:?} (score {:.2}, {} observations)",
        report.total_ops,
        report.sim_end_ns as f64 / 1e9,
        report.simulated_iops(),
        report.fleet_verdict,
        report.fleet_score,
        report.observations,
    );
    println!(
        "detection:      {}/{} compromised members flagged, {} false positives \
         (recall {:.2})",
        report.true_positives,
        report.compromised_members.len(),
        report.false_positives,
        report.detection_recall(),
    );

    let profile = &obs.profile;
    if profile.total_ns > 0 {
        let breakdown = profile
            .iter()
            .map(|(phase, _)| format!("{phase} {:.1}%", profile.phase_pct(phase)))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "host profile:   {:.1} ms across members ({breakdown})",
            profile.total_ns as f64 / 1e6
        );
    }
    if let Some(path) = &trace_out {
        let trace = check(&obs.events)?;
        if trace.transfers_closed == 0 || trace.in_flight_at_end > 0 {
            return Err(format!("every member offloads and settles, yet: {trace:?}").into());
        }
        std::fs::write(path, export_chrome_trace(&obs.events))?;
        println!(
            "trace:          {} events -> {path} (load in https://ui.perfetto.dev); {trace:?}",
            obs.events.len()
        );
    }

    // The invariants CI relies on: every compromised member flagged by its
    // own audit, no clean member smeared, and the fused stream sees the
    // fleet-wide attack.
    assert_eq!(report.missed, 0, "compromised member escaped its audit");
    assert_eq!(report.false_positives, 0, "clean member falsely flagged");
    assert_eq!(report.fleet_verdict, Verdict::Ransomware);
    Ok(())
}
