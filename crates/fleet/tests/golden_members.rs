//! Faulted and degraded members, pinned byte for byte.
//!
//! `BENCH_fleet.json` runs with `fault_fraction = outage_fraction = 0`, so
//! no byte gate sees a member that rides a fault schedule or an uplink
//! outage. This file does: one seed at 64 members × 480 ops with
//! `fault_fraction = 0.1`, `outage_fraction = 0.05`, every member's
//! scorecard, offload, replay and queue-pair accounting rendered one line
//! per member and compared with `golden/faulted_degraded_members.txt`,
//! recorded at PR 22's commit — before the fleet's member body and the
//! scenario matrix's cell runner became one set of stages. A changed line
//! means a member's simulation changed.

use rssd_fleet::{run_member, FleetConfig};

#[test]
fn faulted_and_degraded_members_match_the_golden_file_byte_for_byte() {
    let config = FleetConfig {
        members: 64,
        ops_per_member: 480,
        seed: 4,
        fault_fraction: 0.1,
        outage_fraction: 0.05,
        ..FleetConfig::default()
    };
    let golden = include_str!("golden/faulted_degraded_members.txt");
    assert_eq!(
        golden.lines().count(),
        config.members,
        "one line per member"
    );
    let (mut faulted, mut degraded) = (0, 0);
    for (member, want) in golden.lines().enumerate() {
        let outcome = run_member(&config, member).unwrap_or_else(|e| panic!("{e}"));
        faulted += usize::from(outcome.scorecard.faulted);
        degraded += usize::from(outcome.scorecard.degraded);
        let got = format!(
            "{:?} {:?} {:?} {:?}",
            outcome.scorecard, outcome.offload, outcome.replay, outcome.queues
        );
        assert_eq!(got, want, "member {member} drifted from its golden line");
    }
    assert!(
        faulted > 0 && degraded > 0,
        "the seed must cover both kinds: {faulted} faulted, {degraded} degraded"
    );
}
