//! Replacement shards join the cell they are revived into: same link
//! configuration (on a fresh private uplink — DESIGN.md §8) and same spill
//! provisioning as the surviving members. The replacement used to be
//! hard-wired to a 4 MiB spill-less member behind a 10 GbE link, whatever
//! the array it joined looked like.

use rssd_array::{RssdArray, ShardStatus};
use rssd_core::{LoopbackTarget, RssdDevice, WireRemote};
use rssd_faults::{
    scenario_member, ActorKind, FaultInjector, FaultPlan, FaultSchedule, FaultTarget,
    PartitionMode, Scenario, Topology,
};
use rssd_flash::SimClock;
use rssd_net::LinkConfig;
use rssd_obs::SinkHandle;
use rssd_ssd::BlockDevice;

type Member = RssdDevice<WireRemote<LoopbackTarget>>;

fn array3(spill: bool, link: LinkConfig) -> RssdArray<Member> {
    let members = (0..3)
        .map(|i| scenario_member(i, spill, WireRemote::new(LoopbackTarget::new(), link)))
        .collect();
    RssdArray::new(members, 4, SimClock::new())
}

#[test]
fn shard_death_cell_over_a_wan_revives_onto_the_wan() {
    let wan = LinkConfig::wan_cloud();
    let cell = Scenario {
        profile: "mail",
        actor: ActorKind::Classic,
        plan: FaultPlan::ShardDeath { shard: 1 },
        topology: Topology::Array {
            shards: 3,
            stripe_pages: 4,
        },
        seed: 21,
    };
    // The cell the way `run_with(wan, ..)` builds it, kept in hand so the
    // revived member can be inspected afterwards.
    let mut device = FaultInjector::new(array3(false, wan), &FaultSchedule::none());
    let card = cell
        .run_on(&mut device, SinkHandle::disabled())
        .expect("shard-death cell over the WAN");
    assert_eq!(card, cell.run_with(wan, SinkHandle::disabled()).unwrap());
    assert!(
        card.attack_interruptions >= 1,
        "the actor hit the dead shard"
    );

    let array = device.inner();
    assert_eq!(array.shard_status(1), ShardStatus::Live, "shard 1 revived");
    for shard in 0..3 {
        let member = array.shard(shard).expect("live member");
        assert_eq!(
            member.remote().uplink().config(),
            wan,
            "shard {shard} must be cabled with the cell's link"
        );
    }
}

#[test]
fn durable_array_survives_kill_and_revive() {
    let mut array = array3(true, LinkConfig::ideal());
    let page_size = array.page_size();
    for lpa in 0..48u64 {
        array.write_page(lpa, vec![lpa as u8; page_size]).unwrap();
    }
    array.flush().unwrap();

    array.kill_shard(1).expect("shard 1 dies");
    assert_eq!(
        array.revive_dead_shards(None).expect("replacement fits"),
        1,
        "an 8 MiB spill-enabled array must get an 8 MiB spill-enabled replacement"
    );
    assert_eq!(array.shard_status(1), ShardStatus::Live);
    let survivor = array.shard(0).unwrap().spill_capacity_bytes();
    let replacement = array.shard(1).unwrap();
    assert!(survivor > 0, "the array under test is durable");
    assert_eq!(replacement.spill_capacity_bytes(), survivor);
    assert_eq!(
        replacement.logical_pages(),
        array.shard(0).unwrap().logical_pages()
    );
    assert!(array.history_audit().verified, "replacement chain verifies");
}

#[test]
fn a_replacement_mid_rebuild_is_partitioned_healed_and_counted_with_its_shard() {
    let mut array = array3(false, LinkConfig::ideal());
    let page_size = array.page_size();
    for lpa in 0..48u64 {
        array.write_page(lpa, vec![lpa as u8; page_size]).unwrap();
    }
    array.flush().unwrap();
    array.kill_shard(1).expect("shard 1 dies");
    let replacement = scenario_member(
        9,
        false,
        WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal()),
    );
    array.begin_rebuild(1, replacement, None).unwrap();
    let progress = array.rebuild_step(1, 4).unwrap();
    assert!(!progress.done, "shard 1 stays rebuilding");

    // The partition reaches the replacement: its uplink goes down and the
    // offloads its online region ships queue at the edge.
    assert!(array.set_partition(PartitionMode::QueueForReplay));
    let member = array.shard(1).expect("the replacement answers for shard 1");
    assert!(member.remote().is_uplink_down());
    let online = array.layout().array_lpa(1, 0);
    for fill in 0..8u8 {
        array.write_page(online, vec![fill; page_size]).unwrap();
    }
    array.flush().unwrap();
    let queued = array.shard(1).unwrap().remote().stats().offloads_queued;
    assert!(queued > 0, "the replacement offloaded into the partition");
    assert_eq!(array.remote_fault_totals().offloads_queued, queued);
    assert_eq!(array.heal_partition(), queued, "healing replays its queue");
    assert!(!array.shard(1).unwrap().remote().is_uplink_down());
}
