//! The ideal-link equivalence suite: with infinite bandwidth and zero
//! loss, routing offload through the simulated NVMe-oE stack must be
//! *invisible* — byte-identical durable state, chain records, recovery and
//! harvest results to the direct `RemoteTarget` path, bare and behind the
//! `FaultInjector`.
//!
//! This is what licenses the wire model: every nanosecond and every
//! failure a real link adds is then a *measured departure* from a pinned
//! baseline, not an artifact of a second code path. The curated cells'
//! complete scorecards — whose partition faults are link blackouts and
//! collector drops — are pinned against a golden file recorded when the
//! injected-result pipeline they were first scored on was deleted.

use proptest::prelude::*;
use rssd_core::{LoopbackTarget, RebuildImage, RemoteTarget, RssdConfig, RssdDevice, WireRemote};
use rssd_faults::{
    ActorKind, FaultError, FaultInjector, FaultPlan, FaultSchedule, FaultTarget, Scenario,
    ScenarioMatrix, Topology,
};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_net::LinkConfig;
use rssd_ssd::{BlockDevice, DeviceError};

const CAPACITY: u64 = 4 * 1024 * 1024;

fn direct_device() -> RssdDevice<LoopbackTarget> {
    RssdDevice::new(
        FlashGeometry::with_capacity(CAPACITY),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 4,
            ..RssdConfig::default()
        },
        LoopbackTarget::new(),
    )
}

fn wired_device() -> RssdDevice<WireRemote<LoopbackTarget>> {
    RssdDevice::new(
        FlashGeometry::with_capacity(CAPACITY),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 4,
            ..RssdConfig::default()
        },
        WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal()),
    )
}

/// A spill-enabled device behind an ideal wire: the configuration the
/// outage-equivalence tests run on both sides of the comparison, so the
/// *only* differing variable is whether the uplink went down.
fn spill_device() -> RssdDevice<WireRemote<LoopbackTarget>> {
    RssdDevice::new(
        FlashGeometry::with_capacity(CAPACITY),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 4,
            spill_blocks: 3,
            ..RssdConfig::default()
        },
        WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal()),
    )
}

/// One host-visible operation, drawn by proptest.
#[derive(Clone, Copy, Debug)]
enum Op {
    Write(u64, u8),
    Trim(u64),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u64>(), any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
        2 => any::<u64>().prop_map(Op::Trim),
        1 => Just(Op::Flush),
    ]
}

/// Ops drawn for an outage window: no explicit flushes, because a forced
/// flush against a dead remote fails *visibly* by design — the equivalence
/// under test is about the background write path riding the outage.
fn outage_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u64>(), any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
        2 => any::<u64>().prop_map(Op::Trim),
    ]
}

/// Applies `op` to a device, returning a comparable outcome tag.
fn apply<D: BlockDevice>(device: &mut D, op: Op) -> Result<(), DeviceError> {
    let pages = device.logical_pages();
    let page_size = device.page_size();
    match op {
        Op::Write(lpa, byte) => device.write_page(lpa % pages, vec![byte; page_size]),
        Op::Trim(lpa) => device.trim_page(lpa % pages),
        Op::Flush => device.flush(),
    }
}

/// Asserts the two remotes hold byte-identical envelope sets.
fn assert_remotes_identical<A: RemoteTarget, B: RemoteTarget>(a: &mut A, b: &mut B) {
    assert_eq!(a.stored_segments(), b.stored_segments());
    for seq in a.stored_segments() {
        assert_eq!(
            a.fetch_segment(seq).unwrap(),
            b.fetch_segment(seq).unwrap(),
            "segment {seq} differs between direct and wire paths"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bare equivalence: same ops in, identical durable state, history,
    /// recovery and harvest out.
    #[test]
    fn ideal_wire_is_byte_identical_bare(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut direct = direct_device();
        let mut wired = wired_device();
        for &op in &ops {
            let a = apply(&mut direct, op);
            let b = apply(&mut wired, op);
            prop_assert_eq!(a, b, "op {:?} diverged", op);
        }
        direct.flush_log().ok();
        wired.flush_log().ok();

        // Same simulated time: the ideal wire consumed zero nanoseconds.
        prop_assert_eq!(direct.clock().now_ns(), wired.clock().now_ns());
        // Same chain, same records.
        prop_assert_eq!(direct.chain_head(), wired.chain_head());
        prop_assert_eq!(
            direct.verified_history().unwrap(),
            wired.verified_history().unwrap()
        );
        // Same durable bytes remotely.
        assert_remotes_identical(direct.remote_mut(), wired.remote_mut());
        // Same per-page recovery answers.
        for lpa in 0..direct.logical_pages() {
            prop_assert_eq!(direct.recover_page(lpa), wired.recover_page(lpa));
        }
        // Same rebuild harvest (fetched back *through the wire*).
        let keys = direct.escrow_keys();
        let image_direct = RebuildImage::harvest(&keys, direct.remote_mut()).unwrap();
        let image_wired = RebuildImage::harvest(&keys, wired.remote_mut()).unwrap();
        for lpa in 0..direct.logical_pages() {
            prop_assert_eq!(image_direct.newest(lpa), image_wired.newest(lpa));
        }
    }

    /// The same equivalence behind the `FaultInjector` with a power cut
    /// mid-stream: crash, recovery and the post-recovery state must all be
    /// identical through the ideal wire.
    #[test]
    fn ideal_wire_is_byte_identical_behind_injector(
        ops in proptest::collection::vec(op_strategy(), 8..100),
        cut_at in 2u64..60,
    ) {
        let schedule = FaultSchedule::power_cut(cut_at);
        let mut direct = FaultInjector::new(direct_device(), &schedule);
        let mut wired = FaultInjector::new(wired_device(), &schedule);
        for &op in &ops {
            let a = apply(&mut direct, op);
            let b = apply(&mut wired, op);
            prop_assert_eq!(&a, &b, "op {:?} diverged under faults", op);
            if a == Err(DeviceError::PowerLoss) {
                let ra = direct.power_restore().unwrap();
                let rb = wired.power_restore().unwrap();
                prop_assert_eq!(ra, rb, "recovery reports diverged");
            }
        }
        prop_assert_eq!(direct.power_cut_count(), wired.power_cut_count());
        prop_assert_eq!(direct.torn_batches(), wired.torn_batches());

        let audit_direct = direct.history_audit();
        let audit_wired = wired.history_audit();
        prop_assert_eq!(audit_direct.verified, audit_wired.verified);
        prop_assert_eq!(audit_direct.records, audit_wired.records);
        prop_assert_eq!(direct.offload_totals(), wired.offload_totals());
        let horizon = direct.clock().now_ns() + 1;
        for lpa in 0..direct.logical_pages() {
            prop_assert_eq!(
                direct.recover_as_of(lpa, horizon),
                wired.recover_as_of(lpa, horizon)
            );
        }
        assert_remotes_identical(
            direct.inner_mut().remote_mut(),
            wired.inner_mut().remote_mut(),
        );
    }

    /// Outage equivalence, bare: the same op stream through a device whose
    /// remote dies for the middle window — offloads fail, sealed segments
    /// spill to NAND, the remote heals, the backlog replays — must leave
    /// chain, remote store and every point-in-time recovery answer
    /// byte-identical to the never-outage run. The outage window carries no
    /// explicit flushes and stays small enough that the device degrades no
    /// further than Buffering, so admission control cannot skew the clock.
    #[test]
    fn outage_spill_heal_replay_is_invisible_bare(
        prefix in proptest::collection::vec(op_strategy(), 1..40),
        outage in proptest::collection::vec(outage_op_strategy(), 1..40),
        suffix in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut steady = spill_device();
        let mut outaged = spill_device();
        for &op in &prefix {
            let a = apply(&mut steady, op);
            let b = apply(&mut outaged, op);
            prop_assert_eq!(a, b, "prefix op {:?} diverged", op);
        }
        outaged.remote_mut().set_uplink_down(true);
        for &op in &outage {
            let a = apply(&mut steady, op);
            let b = apply(&mut outaged, op);
            prop_assert_eq!(a, b, "outage op {:?} diverged at the host", op);
        }
        outaged.remote_mut().set_uplink_down(false);
        for &op in &suffix {
            let a = apply(&mut steady, op);
            let b = apply(&mut outaged, op);
            prop_assert_eq!(a, b, "post-heal op {:?} diverged", op);
        }
        // Drain both backlogs (a no-op for the steady device).
        steady.flush().unwrap();
        outaged.flush().unwrap();

        // The outage consumed zero simulated time and left zero residue.
        prop_assert_eq!(steady.clock().now_ns(), outaged.clock().now_ns());
        prop_assert_eq!(outaged.staged_segments(), 0);
        prop_assert_eq!(outaged.spill_used_bytes(), 0);
        // Chain, history, durable remote bytes, recovery: byte-identical.
        prop_assert_eq!(steady.chain_head(), outaged.chain_head());
        prop_assert_eq!(
            steady.verified_history().unwrap(),
            outaged.verified_history().unwrap()
        );
        assert_remotes_identical(steady.remote_mut(), outaged.remote_mut());
        for lpa in 0..steady.logical_pages() {
            prop_assert_eq!(steady.recover_page(lpa), outaged.recover_page(lpa));
        }
    }

    /// Outage × crash equivalence, behind the injector: both devices take
    /// the same scheduled power cut, but one takes it *inside* a remote
    /// outage. For the steady device the sealed backlog is already remote;
    /// for the outaged one it exists only in the spill region — recovery
    /// must replay it so both emerge with identical chains, histories,
    /// remote stores and recovery answers (the spill is exactly as durable
    /// as the remote it stood in for).
    #[test]
    fn outage_crash_heal_replay_matches_never_outage_behind_injector(
        ops in proptest::collection::vec(outage_op_strategy(), 45..110),
        outage_from in 2usize..8,
        cut_at in 10u64..40,
    ) {
        let schedule = FaultSchedule::power_cut(cut_at);
        let mut steady = FaultInjector::new(spill_device(), &schedule);
        let mut outaged = FaultInjector::new(spill_device(), &schedule);
        let mut outage_open = false;
        for (i, &op) in ops.iter().enumerate() {
            if i == outage_from {
                outaged.inner_mut().remote_mut().set_uplink_down(true);
                outage_open = true;
            }
            let a = apply(&mut steady, op);
            let b = apply(&mut outaged, op);
            prop_assert_eq!(&a, &b, "op {:?} diverged under outage + cut", op);
            if a == Err(DeviceError::PowerLoss) {
                let ra = steady.power_restore().unwrap();
                // The outaged device cannot fetch what the store holds
                // across a dead link: recovery fails visibly, the operator
                // restores the network, and the retry replays the spill
                // region. (If nothing was ever offloaded the walk fetches
                // nothing and the first attempt succeeds — nothing to
                // refuse over.)
                let rb = match outaged.power_restore() {
                    Ok(r) => r,
                    Err(_) => {
                        outaged.inner_mut().remote_mut().set_uplink_down(false);
                        outage_open = false;
                        outaged.power_restore().unwrap()
                    }
                };
                if outage_open {
                    outaged.inner_mut().remote_mut().set_uplink_down(false);
                    outage_open = false;
                }
                // The cut cost both devices the same volatile tail.
                prop_assert_eq!(ra.pending_records_lost, rb.pending_records_lost);
                prop_assert_eq!(ra.pending_preimages_lost, rb.pending_preimages_lost);
            }
        }
        if outage_open {
            // The cut landed past the op stream's end: heal without a crash.
            outaged.inner_mut().remote_mut().set_uplink_down(false);
        }
        steady.inner_mut().flush().unwrap();
        outaged.inner_mut().flush().unwrap();

        prop_assert_eq!(steady.power_cut_count(), outaged.power_cut_count());
        let audit_steady = steady.history_audit();
        let audit_outaged = outaged.history_audit();
        prop_assert!(audit_steady.verified, "steady chain must verify");
        prop_assert!(audit_outaged.verified, "spill replay must not fork the chain");
        prop_assert_eq!(audit_steady.records, audit_outaged.records);
        prop_assert_eq!(
            steady.inner_mut().chain_head(),
            outaged.inner_mut().chain_head()
        );
        assert_remotes_identical(
            steady.inner_mut().remote_mut(),
            outaged.inner_mut().remote_mut(),
        );
        let horizon = steady.clock().now_ns() + 1;
        for lpa in 0..steady.logical_pages() {
            prop_assert_eq!(
                steady.recover_as_of(lpa, horizon),
                outaged.recover_as_of(lpa, horizon)
            );
        }
    }
}

/// The refused arm of the proptest above, pinned by one fixed example: a
/// power cut inside a wire outage, after segments reached the store, fails
/// its first recovery on the fetch the walk cannot make across the dead
/// link. Once the link heals, the retry replays the spill region and
/// reports exactly what the never-outage device reported.
#[test]
fn a_cut_inside_a_wire_outage_fails_recovery_on_the_fetch_until_the_link_heals() {
    let schedule = FaultSchedule::power_cut(40);
    let mut steady = FaultInjector::new(spill_device(), &schedule);
    let mut outaged = FaultInjector::new(spill_device(), &schedule);
    for i in 0..60u64 {
        if i == 24 {
            assert!(outaged.inner().remote().inner().stored_segments().len() > 1);
            outaged.inner_mut().remote_mut().set_uplink_down(true);
        }
        let op = Op::Write(i % 8, i as u8);
        let a = apply(&mut steady, op);
        assert_eq!(a, apply(&mut outaged, op), "write {i} diverged");
        if a != Err(DeviceError::PowerLoss) {
            continue;
        }
        let want = steady
            .power_restore()
            .expect("the steady store is reachable");
        match outaged.power_restore() {
            Err(FaultError::Recovery(e)) => {
                assert!(e.starts_with("fetch segment "), "{e}");
                assert!(e.ends_with(": remote target unreachable"), "{e}");
            }
            other => panic!("recovery across a dead link: {other:?}"),
        }
        outaged.inner_mut().remote_mut().set_uplink_down(false);
        let got = outaged
            .power_restore()
            .expect("the healed link carries the walk");
        assert!(got.segments_walked > 0, "{got:?}");
        assert_eq!(got, want);
        assert!(outaged.inner().offload_stats().spill_replayed > 0);
        return;
    }
    panic!("the scheduled cut never fired");
}

/// Every curated cell's full 26-field scorecard, byte for byte, against the
/// lines `Scenario::run()` produced at the last commit that still had an
/// injected-result pipeline to compare the wire to (`BENCH_scenarios.json`
/// carries only 16 of the fields). A deliberate scoring change regenerates
/// the file; anything else that moves a byte here is a regression.
#[test]
fn curated_scorecards_match_the_golden_file_byte_for_byte() {
    let golden = include_str!("golden/curated_scorecards.jsonl");
    let cells = ScenarioMatrix::curated().cells;
    assert_eq!(golden.lines().count(), cells.len(), "one line per cell");
    for (cell, want) in cells.iter().zip(golden.lines()) {
        let got = cell.run().expect("curated cell").to_json();
        assert_eq!(got, want, "{} drifted from its golden line", cell.cell_id());
    }
}

/// The shared-uplink topology: three members funneling into one wire, with
/// the fault contract holding when the partition is a blackout of that one
/// shared link.
#[test]
fn shared_uplink_cells_hold_the_fault_contract() {
    let topology = Topology::SharedUplink {
        shards: 3,
        stripe_pages: 4,
    };

    // Fault-free attack: full detection, full recovery, wire or not.
    let clean = Scenario {
        profile: "mail",
        actor: ActorKind::Classic,
        plan: FaultPlan::None,
        topology,
        seed: 20,
    }
    .run()
    .expect("shared-uplink cell");
    assert_eq!(clean.cell, "mail/classic/none/uplink3");
    assert!(clean.true_positive, "attack must be flagged");
    assert!(clean.chain_verified);
    assert_eq!(clean.recovery_fraction, 1.0);
    assert_eq!(clean.data_loss_bytes, 0);
    assert_eq!(clean.skipped_events, 0);
    assert!(clean.segments_offloaded > 0, "offloads crossed the wire");

    // Queue-mode partition of the shared link: every member's offloads
    // buffer at the edge and replay in order when the one wire heals.
    let queued = Scenario {
        profile: "mail",
        actor: ActorKind::Classic,
        plan: FaultPlan::PartitionQueue,
        topology,
        seed: 21,
    }
    .run()
    .expect("shared-uplink partition cell");
    assert_eq!(queued.skipped_events, 0, "blackout must be expressible");
    assert!(queued.offloads_queued > 0, "window saw offload traffic");
    assert_eq!(
        queued.offloads_replayed, queued.offloads_queued,
        "heal replays the whole buffer"
    );
    assert_eq!(queued.offloads_dropped, 0);
    assert!(queued.chain_verified);
    assert!(queued.true_positive);
    assert_eq!(queued.recovery_fraction, 1.0, "queueing costs nothing");
}
