//! Differential pinning: with the `none` fault schedule, a cell run the
//! production way (members over the wire on an ideal link, behind a
//! `FaultInjector`) must be **byte-identical** to the same cell run on the
//! oracle this file builds itself — plain `LoopbackTarget` remotes, no
//! injector, no wire — same detection verdicts, same recovery, same chain
//! state, same scorecard JSON. Only once the wrappers are provably inert
//! can their faults be trusted to measure the faults and nothing else.

use rssd_array::RssdArray;
use rssd_core::LoopbackTarget;
use rssd_faults::{
    scenario_member, ActorKind, FaultError, FaultPlan, Scenario, Scorecard, Topology,
};
use rssd_flash::SimClock;
use rssd_obs::SinkHandle;

/// Runs the cell on the wrapper-free oracle device.
fn run_direct(scenario: &Scenario) -> Result<Scorecard, FaultError> {
    let member = |id| scenario_member(id, false, LoopbackTarget::new());
    match scenario.topology {
        Topology::Array {
            shards,
            stripe_pages,
        } => {
            let members = (0..shards as u64).map(member).collect();
            let mut array = RssdArray::new(members, stripe_pages, SimClock::new());
            scenario.run_on(&mut array, SinkHandle::disabled())
        }
        _ => scenario.run_on(&mut member(1), SinkHandle::disabled()),
    }
}

fn assert_identical(scenario: Scenario) {
    let faulted = scenario.run().expect("fault pipeline");
    let direct = run_direct(&scenario).expect("direct pipeline");
    assert_eq!(faulted, direct, "{}", scenario.cell_id());
    assert_eq!(
        faulted.to_json(),
        direct.to_json(),
        "{}: serialized scorecards must be byte-identical",
        scenario.cell_id()
    );
    // The wrappers must leave no fingerprints at all.
    assert_eq!(faulted.power_cuts, 0);
    assert_eq!(faulted.torn_batches, 0);
    assert_eq!(faulted.offloads_queued + faulted.offloads_dropped, 0);
}

#[test]
fn none_schedule_cells_match_direct_replay_bare() {
    for actor in [ActorKind::None, ActorKind::Classic, ActorKind::Trim] {
        assert_identical(Scenario {
            profile: "hm",
            actor,
            plan: FaultPlan::None,
            topology: Topology::Bare,
            seed: 77,
        });
    }
}

#[test]
fn none_schedule_cells_match_direct_replay_multiqueue() {
    assert_identical(Scenario {
        profile: "src",
        actor: ActorKind::Classic,
        plan: FaultPlan::None,
        topology: Topology::MultiQueue {
            queues: 4,
            depth: 8,
        },
        seed: 78,
    });
}

#[test]
fn none_schedule_cells_match_direct_replay_array() {
    for actor in [ActorKind::None, ActorKind::Classic] {
        assert_identical(Scenario {
            profile: "mail",
            actor,
            plan: FaultPlan::None,
            topology: Topology::Array {
                shards: 3,
                stripe_pages: 4,
            },
            seed: 79,
        });
    }
}

#[test]
fn direct_pipeline_refuses_fault_plans() {
    // No injector, nothing to arm the plan on: an error, never a silently
    // fault-free scorecard.
    let scenario = Scenario {
        profile: "hm",
        actor: ActorKind::Classic,
        plan: FaultPlan::PowerCutMidAttack,
        topology: Topology::Bare,
        seed: 80,
    };
    assert!(matches!(
        run_direct(&scenario),
        Err(FaultError::Scenario(_))
    ));
}
