//! The fleet finishes under the faults it advertises.
//!
//! 1. A dead shard is an interruption per write aimed at it, not a reason
//!    to give up: the eleven `array3` members whose seeded schedule holds a
//!    `ShardDeath` (found by sweeping seeds 0..30 at 64 members × 480 ops,
//!    `fault_fraction = 0.1`) each ride out more than a hundred
//!    interruptions and finish with the evidence chain verified — or with
//!    its gap flagged, when the schedule also silently dropped offloads.
//! 2. What a refusal means: whenever a faulted or degraded member's replay
//!    counted a stalled write, the member's offload health machine had
//!    reached `Stalled` — the device refused the write to protect evidence
//!    it could neither ship nor spill (admission control), never for any
//!    other reason.

use rssd_core::OffloadHealth;
use rssd_faults::{FaultEvent, FaultSchedule, PartitionMode};
use rssd_fleet::{member_seed, run_member, FleetConfig};

#[test]
fn shard_death_members_finish_past_the_old_interruption_budget() {
    const PAIRS: [(u64, usize); 11] = [
        (4, 15),
        (4, 47),
        (5, 47),
        (5, 63),
        (13, 63),
        (14, 7),
        (21, 39),
        (21, 63),
        (24, 63),
        (29, 15),
        (29, 31),
    ];
    for (seed, member) in PAIRS {
        let cfg = FleetConfig {
            members: 64,
            ops_per_member: 480,
            seed,
            fault_fraction: 0.1,
            ..FleetConfig::default()
        };
        let outcome =
            run_member(&cfg, member).unwrap_or_else(|e| panic!("seed {seed} member {member}: {e}"));
        let card = &outcome.scorecard;
        assert!(
            card.interruptions > 32,
            "seed {seed} member {member}: only {} interruptions",
            card.interruptions
        );
        // Which faults a seeded schedule holds depends on the seed alone;
        // the horizon only places them.
        let schedule = FaultSchedule::seeded(member_seed(seed, member), 480, 3);
        let drops_silently = schedule.events().iter().any(|e| {
            matches!(
                e,
                FaultEvent::PartitionStart {
                    mode: PartitionMode::DropSilently,
                    ..
                }
            )
        });
        assert!(
            card.chain_verified || drops_silently,
            "seed {seed} member {member}: chain unverified without a silent-drop window"
        );
    }
}

#[test]
fn a_stalled_write_means_the_offload_engine_was_stalled() {
    let mut stalled_runs = 0u32;
    for seed in 0..30u64 {
        for (fault_fraction, outage_fraction) in [(0.1, 0.0), (0.0, 0.05), (0.1, 0.05)] {
            let cfg = FleetConfig {
                members: 8,
                ops_per_member: 160,
                seed,
                fault_fraction,
                outage_fraction,
                ..FleetConfig::default()
            };
            for member in 0..cfg.members {
                if !(cfg.member_faulted(member) || cfg.member_degraded(member)) {
                    continue;
                }
                let outcome = run_member(&cfg, member)
                    .unwrap_or_else(|e| panic!("seed {seed} member {member}: {e}"));
                if outcome.replay.stalls > 0 {
                    stalled_runs += 1;
                    assert_eq!(
                        outcome.offload.health_peak,
                        OffloadHealth::Stalled,
                        "seed {seed} member {member} ({}): {} stalls",
                        outcome.scorecard.kind,
                        outcome.replay.stalls
                    );
                }
            }
        }
    }
    assert!(stalled_runs > 0, "sweep must contain a refusing member");
}
