//! Observer inertness, pinned as properties: attaching a **recording**
//! trace sink to a scenario must be byte-invisible in every simulated
//! result — same [`Scorecard`](rssd_faults::Scorecard), same serialized
//! JSON — bare, under live fault plans, and over a real (slow, lossy) link.
//! The dual-timeline tracer is read-only by construction; these tests make
//! that construction a contract. Every trace they record must also keep the
//! trace grammar ([`rssd_obs::check()`]).

use proptest::prelude::*;
use rssd_faults::{ActorKind, FaultPlan, Scenario, Topology};
use rssd_net::LinkConfig;
use rssd_obs::{SinkHandle, TraceSummary};

fn actors() -> impl Strategy<Value = ActorKind> {
    prop_oneof![
        Just(ActorKind::None),
        Just(ActorKind::Classic),
        Just(ActorKind::GcFlood),
        Just(ActorKind::Timing),
        Just(ActorKind::Trim),
    ]
}

fn profiles() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("hm"), Just("src"), Just("mail")]
}

/// The grammar check over what `sink` recorded.
fn checked(sink: &SinkHandle) -> Result<TraceSummary, TestCaseError> {
    rssd_obs::check(&sink.take_events()).map_err(|v| TestCaseError::fail(v.to_string()))
}

/// [`checked`] for a cell that ran to the end: it offloaded, so a renamed
/// emitter cannot pass the ack rules vacuously, and it settled, so no
/// transfer is left in flight.
fn checked_settled(sink: &SinkHandle) -> Result<TraceSummary, TestCaseError> {
    let trace = checked(sink)?;
    prop_assert!(trace.transfers_closed > 0, "no transfer closed: {trace:?}");
    prop_assert_eq!(
        trace.in_flight_at_end,
        0,
        "a settled cell left a transfer in flight"
    );
    Ok(trace)
}

proptest! {
    // Every case runs the cell twice; scenarios finish in well under a
    // second each, so a handful of cases explores the space within CI
    // budget.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bare topology, no faults, with and without a recording sink.
    #[test]
    fn recording_sink_is_invisible_bare(
        profile in profiles(),
        actor in actors(),
        seed in 0u64..10_000,
    ) {
        let scenario = Scenario {
            profile,
            actor,
            plan: FaultPlan::None,
            topology: Topology::Bare,
            seed,
        };
        let untraced = scenario.run().expect("untraced run");
        let sink = SinkHandle::recording();
        let traced = scenario
            .run_with(scenario.topology.link(), sink.clone())
            .expect("traced run");
        prop_assert_eq!(&untraced, &traced, "recording sink perturbed the scorecard");
        prop_assert_eq!(untraced.to_json(), traced.to_json());
        checked_settled(&sink)?;
    }

    /// Behind the FaultInjector with live fault plans: the sink rides the
    /// whole power-cut / partition / shard-death machinery untouched.
    #[test]
    fn recording_sink_is_invisible_under_faults(
        actor in actors(),
        plan_pick in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let (plan, topology) = match plan_pick {
            0 => (FaultPlan::PowerCutMidAttack, Topology::Bare),
            1 => (FaultPlan::PartitionDrop, Topology::Bare),
            _ => (
                FaultPlan::ShardDeath { shard: 1 },
                Topology::Array { shards: 3, stripe_pages: 4 },
            ),
        };
        let scenario = Scenario {
            profile: "hm",
            actor,
            plan,
            topology,
            seed,
        };
        // Arbitrary (actor, plan, seed) combos may legitimately refuse to
        // run (e.g. a fault landing where the harness cannot absorb it);
        // the property is that the observer changes *nothing* — success,
        // scorecard, or the exact failure.
        let untraced = scenario.run();
        let sink = SinkHandle::recording();
        let traced = scenario.run_with(scenario.topology.link(), sink.clone());
        match (untraced, traced) {
            (Ok(u), Ok(t)) => {
                prop_assert_eq!(&u, &t, "sink perturbed the faulted pipeline");
                prop_assert_eq!(u.to_json(), t.to_json());
                checked_settled(&sink)?;
            }
            (Err(u), Err(t)) => {
                prop_assert_eq!(u.to_string(), t.to_string(), "sink changed the failure mode");
                checked(&sink)?;
            }
            (u, t) => prop_assert!(
                false,
                "sink flipped run success: untraced {u:?} vs traced {t:?}"
            ),
        }
    }

    /// Over a link that costs time and loses frames, where the sink
    /// additionally sees link losses and retransmissions.
    #[test]
    fn recording_sink_is_invisible_over_the_wire(
        actor in actors(),
        lossy in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let scenario = Scenario {
            profile: "hm",
            actor,
            plan: FaultPlan::None,
            topology: Topology::Bare,
            seed,
        };
        let link = if lossy {
            LinkConfig::lossy(7)
        } else {
            LinkConfig::datacenter_10g()
        };
        let untraced = scenario
            .run_with(link, SinkHandle::disabled())
            .expect("untraced wire run");
        let sink = SinkHandle::recording();
        let traced = scenario
            .run_with(link, sink.clone())
            .expect("traced wire run");
        prop_assert_eq!(&untraced, &traced, "sink perturbed the wire pipeline");
        prop_assert_eq!(untraced.to_json(), traced.to_json());
        // Only the lossy link resends, and every resend answers a loss.
        let trace = checked_settled(&sink)?;
        prop_assert_eq!(trace.retransmissions_matched > 0, lossy, "{:?}", trace);
    }
}
