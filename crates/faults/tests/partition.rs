//! Partition-tolerance tests.
//!
//! Two contract clauses (DESIGN.md §6):
//!
//! * **Queue mode** — offloads acknowledged during a partition are
//!   buffered and replayed *in order* on heal; afterwards the inner store
//!   is contiguous, the chain verifies, and a full rebuild from the store
//!   alone recovers everything — the partition cost nothing.
//! * **Drop mode** — offloads acknowledged and destroyed must surface as
//!   a chain gap in every downstream consumer (`verified_history`,
//!   `audit_history`, `RebuildImage::harvest`) rather than silently
//!   passing with a shorter history.

use rssd_core::{LoopbackTarget, RebuildImage, RemoteTarget, RssdDevice, WireRemote};
use rssd_faults::{scenario_member, FaultRemote, PartitionMode};
use rssd_net::LinkConfig;
use rssd_ssd::BlockDevice;

/// A scenario member over `store` behind an ideal wire.
fn dut<R: RemoteTarget>(store: R) -> RssdDevice<WireRemote<R>> {
    scenario_member(1, false, WireRemote::new(store, LinkConfig::ideal()))
}

fn page(b: u8) -> Vec<u8> {
    vec![b; 4096]
}

/// Generates enough overwrite traffic to seal `n` segments or more.
fn churn<R: RemoteTarget>(d: &mut RssdDevice<R>, rounds: u8, lpas: u64) {
    for round in 0..rounds {
        for lpa in 0..lpas {
            d.write_page(lpa, page(round ^ lpa as u8)).unwrap();
        }
    }
}

#[test]
fn queued_offloads_replay_in_order_on_heal() {
    let mut d = dut(LoopbackTarget::new());
    churn(&mut d, 2, 16);
    d.flush_log().unwrap();
    let before_partition = d.remote().inner().stored_segments();
    assert!(!before_partition.is_empty());

    // Partition in queue mode; keep destroying data. Offloads are acked
    // (the device unpins) but only buffered.
    assert!(d.remote_mut().set_partition(PartitionMode::QueueForReplay));
    churn(&mut d, 2, 16);
    d.flush_log().unwrap();
    let queued = d.remote().queued_segments();
    assert!(queued > 0, "window must have buffered offloads");
    assert_eq!(
        d.remote().inner().stored_segments().len(),
        before_partition.len(),
        "nothing reached the store during the partition"
    );
    assert_eq!(d.offload_stats().offload_failures, 0, "acked, not refused");

    // Heal: the buffer replays in order; the store is contiguous.
    let replayed = d.remote_mut().heal();
    assert_eq!(replayed as usize, queued);
    let seqs = d.remote().inner().stored_segments();
    let contiguous: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, contiguous, "segments stored in order with no holes");

    // The chain verifies, and every record is accounted for.
    let history = d.verified_history().unwrap();
    assert_eq!(history.len() as u64, d.chain_len());

    // Total loss of the device: the store alone still rebuilds everything
    // the attack destroyed — the partition was free.
    let keys = d.escrow_keys();
    let mut remote = d.into_remote();
    let image = RebuildImage::harvest(&keys, &mut remote).unwrap();
    for lpa in 0..16u64 {
        assert!(image.covers(lpa), "lpa {lpa} missing from rebuild image");
    }
}

#[test]
fn recovery_still_works_while_partitioned_from_queued_segments() {
    let mut d = dut(LoopbackTarget::new());
    d.write_page(3, page(1)).unwrap();
    assert!(d.remote_mut().set_partition(PartitionMode::QueueForReplay));
    d.write_page(3, page(2)).unwrap();
    d.flush_log().unwrap(); // seals into the replay buffer
    assert!(d.remote().queued_segments() > 0);
    // The retained pre-image lives in the buffer; recovery can fetch it.
    assert_eq!(d.recover_page(3).unwrap(), page(1));
}

#[test]
fn dropped_offloads_surface_as_chain_gap_in_verified_history() {
    let mut d = dut(LoopbackTarget::new());
    churn(&mut d, 2, 16);
    d.flush_log().unwrap();

    assert!(d.remote_mut().set_partition(PartitionMode::DropSilently));
    churn(&mut d, 2, 16);
    d.flush_log().unwrap();
    assert!(d.remote().fault_stats().offloads_dropped > 0);
    d.remote_mut().heal();
    // Post-heal traffic stores segments *after* the hole.
    churn(&mut d, 1, 16);
    d.flush_log().unwrap();

    let err = d.verified_history().unwrap_err();
    assert!(
        err.contains("does not extend the chain") || err.contains("chain gap"),
        "gap must be detected, got: {err}"
    );
    let audit = d.audit_history();
    assert!(!audit.verified, "audit must flag the gap");
    assert!(
        !audit.records.is_empty(),
        "the verifiable prefix is still usable evidence"
    );
}

#[test]
fn dropped_offloads_fail_rebuild_harvest_not_silently_shorten_it() {
    let mut d = dut(LoopbackTarget::new());
    churn(&mut d, 2, 16);
    d.flush_log().unwrap();
    assert!(d.remote_mut().set_partition(PartitionMode::DropSilently));
    churn(&mut d, 2, 16);
    d.flush_log().unwrap();
    d.remote_mut().heal();
    churn(&mut d, 1, 16);
    d.flush_log().unwrap();

    let keys = d.escrow_keys();
    let mut remote = d.into_remote();
    let err = RebuildImage::harvest(&keys, &mut remote).unwrap_err();
    assert!(
        err.contains("does not extend the chain"),
        "harvest must refuse the holed chain, got: {err}"
    );
}
