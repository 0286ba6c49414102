//! Fleet-scale simulation: what the model says about a fleet of RSSD
//! members as the fleet grows.
//!
//! Runs the `rssd-fleet` harness at fleet sizes {16, 64, 256} and reports,
//! per size, the **simulated** makespan and IOPS (fleet records over the
//! slowest member's simulated end), detection recall, false positives and
//! the fused fleet score — all properties of the *model*, so
//! `BENCH_fleet.json` is a pure function of the tree and CI gates its
//! bytes. The claims are asserted here, once: recall ≥ 0.9 and zero false
//! positives at every size.
//!
//! The worker count is a host-side knob that cannot change a
//! [`rssd_fleet::FleetReport`] (pinned by `rssd-fleet`'s
//! `worker_count_does_not_change_the_report` and its determinism proptest),
//! so the sweep runs at `FleetConfig`'s default. How fast the host gets
//! through a fleet is `benchmark/`'s `fleet_mixed` workload, not this file.

use rssd_bench::{publish, BenchRow};
use rssd_fleet::{Fleet, FleetConfig};

const FLEET_SIZES: [usize; 3] = [16, 64, 256];
/// Benign records per member; attack overlays ride on top for the
/// compromised fraction.
const OPS_PER_MEMBER: usize = 120;
/// Fleet seed for the whole sweep.
const SEED: u64 = 11;

fn config(members: usize) -> FleetConfig {
    FleetConfig {
        members,
        seed: SEED,
        ops_per_member: OPS_PER_MEMBER,
        fault_fraction: 0.1,
        ..FleetConfig::default()
    }
}

fn main() {
    let mut rows = Vec::new();
    for members in FLEET_SIZES {
        let report = Fleet::new(config(members)).run().expect("fleet run failed");
        assert!(
            report.detection_recall() >= 0.9,
            "fleet{members}: per-member audits must catch compromised members (recall {:.2})",
            report.detection_recall()
        );
        assert_eq!(
            report.false_positives, 0,
            "fleet{members}: clean members falsely flagged"
        );
        rows.push(BenchRow::new(
            format!("fleet{members}"),
            vec![
                ("members", members as f64),
                ("total_ops", report.total_ops as f64),
                ("sim_iops", report.simulated_iops()),
                // sim_iops prints four significant digits at these scales;
                // the makespan is what lets the byte gate see a model change.
                ("sim_end_ms", report.sim_end_ns as f64 / 1e6),
                ("detection_recall", report.detection_recall()),
                ("false_positives", report.false_positives as f64),
                ("fleet_score", report.fleet_score),
            ],
        ));
    }
    publish(
        "fleet",
        "fleet: simulated makespan, IOPS and detection vs fleet size",
        &rows,
    );
}
