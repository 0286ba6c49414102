//! End-to-end array scenarios: striped RSSD I/O, shard loss, degraded
//! reads, incremental remote-assisted rebuild, and the parallel time model
//! (aggregate throughput must scale with shard count).

use rssd_array::{ArrayError, RssdArray, ShardStatus};
use rssd_core::{
    HistoryAudit, LogRecord, LoopbackTarget, RemoteError, RemoteTarget, RssdConfig, RssdDevice,
    SegmentEnvelope, StoreAck,
};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_ssd::{BlockDevice, DeviceError, IoCommand};

fn rssd_member<R: RemoteTarget>(device_id: u64, timing: NandTiming, remote: R) -> RssdDevice<R> {
    RssdDevice::new(
        FlashGeometry::small_test(),
        timing,
        SimClock::new(), // each member owns its clock: the parallel model
        RssdConfig {
            device_id,
            segment_pages: 4,
            ..RssdConfig::default()
        },
        remote,
    )
}

fn rssd_shard(device_id: u64, timing: NandTiming) -> RssdDevice<LoopbackTarget> {
    rssd_member(device_id, timing, LoopbackTarget::new())
}

/// `true` when `history` holds every one of `records`, in their order.
fn holds_in_order(history: &[LogRecord], records: &[LogRecord]) -> bool {
    let mut rest = history.iter();
    records.iter().all(|record| rest.any(|r| r == record))
}

fn rssd_array(shards: usize, timing: NandTiming) -> RssdArray<RssdDevice<LoopbackTarget>> {
    let members = (0..shards as u64).map(|i| rssd_shard(i, timing)).collect();
    RssdArray::new(members, 4, SimClock::new())
}

fn page(b: u8) -> Vec<u8> {
    vec![b; 4096]
}

#[test]
fn striped_io_round_trips_and_recovers_through_the_array() {
    let mut array = rssd_array(3, NandTiming::instant());
    for lpa in 0..24u64 {
        array.write_page(lpa, page(lpa as u8)).unwrap();
    }
    for lpa in 0..24u64 {
        assert_eq!(array.read_page(lpa).unwrap(), page(lpa as u8));
    }
    // Overwrite → per-shard retention still reachable through the array.
    array.write_page(5, page(0xEE)).unwrap();
    assert_eq!(array.recover_page(5).unwrap(), page(5));
    // Fleet-wide merged accounting sees all shards: 25 writes + 24 logged
    // reads across the three evidence chains.
    assert_eq!(array.chain_len(), 49);
    assert!(array.latency().count() > 0);
}

#[test]
fn shard_loss_serves_degraded_reads_and_refuses_writes() {
    let mut array = rssd_array(3, NandTiming::instant());
    let corpus: Vec<u64> = (0..36).collect();
    for &lpa in &corpus {
        array.write_page(lpa, page(lpa as u8)).unwrap();
    }
    // "Ransomware" encrypts everything, then the host flushes (barrier →
    // every retained pre-image offloads).
    for &lpa in &corpus {
        array.write_page(lpa, page(0xEE)).unwrap();
    }
    array.flush().unwrap();

    let report = array.fail_shard(1).unwrap();
    assert!(report.versions > 0, "salvage must carry retained versions");
    assert_eq!(array.shard_status(1), ShardStatus::Degraded);
    assert!(!array.is_fully_live());

    let layout = *array.layout();
    for &lpa in &corpus {
        let (shard, _) = layout.locate(lpa);
        if shard == 1 {
            // Degraded read: the newest retained version — the pre-attack
            // content the encrypting overwrite destroyed.
            assert_eq!(array.read_page(lpa).unwrap(), page(lpa as u8));
            assert!(matches!(
                array.write_page(lpa, page(1)),
                Err(DeviceError::ShardFailed { shard: 1 })
            ));
            assert!(matches!(
                array.trim_page(lpa),
                Err(DeviceError::ShardFailed { shard: 1 })
            ));
        } else {
            // Surviving shards still serve the live (encrypted) content.
            assert_eq!(array.read_page(lpa).unwrap(), page(0xEE));
        }
    }
}

#[test]
fn unoffloaded_tail_dies_with_the_shard() {
    let mut array = rssd_array(2, NandTiming::instant());
    array.write_page(0, page(1)).unwrap();
    array.write_page(0, page(2)).unwrap();
    // No flush: the lpa-0 pre-image is pinned on shard 0 only.
    let _ = array.fail_shard(0).unwrap();
    assert_eq!(
        array.read_page(0).unwrap(),
        page(0),
        "nothing offloaded, nothing salvaged: honest zeroes"
    );
}

#[test]
fn incremental_rebuild_brings_regions_online_and_restores_point_in_time() {
    let mut array = rssd_array(2, NandTiming::instant());
    let shard_pages = array.layout().shard_pages();
    let layout = *array.layout();
    // Corpus across both shards, then an attack overwrites it all.
    let corpus: Vec<u64> = (0..2 * shard_pages.min(32)).collect();
    for &lpa in &corpus {
        array.write_page(lpa, page(lpa as u8)).unwrap();
    }
    let clock_probe = array.clock().clone();
    clock_probe.advance(1_000_000);
    let attack_start = clock_probe.now_ns();
    for &lpa in &corpus {
        array.write_page(lpa, page(0xEE)).unwrap();
    }
    array.flush().unwrap();
    let _ = array.fail_shard(0).unwrap();

    // Begin rebuilding onto a fresh member, restoring pre-attack state.
    array
        .begin_rebuild(0, rssd_shard(7, NandTiming::instant()), Some(attack_start))
        .unwrap();
    let half = shard_pages / 2;
    let progress = array.rebuild_step(0, half).unwrap();
    assert!(!progress.done);
    assert_eq!(progress.copied_pages, half);
    assert_eq!(
        array.shard_status(0),
        ShardStatus::Rebuilding {
            copied: half,
            total: shard_pages
        }
    );

    // Online region: writes accepted; offline tail: salvage reads, writes
    // refused.
    let online = layout.array_lpa(0, 0);
    array.write_page(online, page(0x55)).unwrap();
    assert_eq!(array.read_page(online).unwrap(), page(0x55));
    let offline = layout.array_lpa(0, shard_pages - 1);
    assert!(matches!(
        array.write_page(offline, page(1)),
        Err(DeviceError::ShardFailed { shard: 0 })
    ));

    // Finish; the shard is live and pre-attack content is back.
    let done = array.rebuild_step(0, shard_pages).unwrap();
    assert!(done.done);
    assert_eq!(array.shard_status(0), ShardStatus::Live);
    assert!(array.is_fully_live());
    for &lpa in &corpus {
        let (shard, _) = layout.locate(lpa);
        if shard == 0 && lpa != online {
            assert_eq!(
                array.read_page(lpa).unwrap(),
                page(lpa as u8),
                "rebuilt shard must serve pre-attack content at lpa {lpa}"
            );
        }
    }
    // The rebuild itself is evidence: the replacement logged its restore
    // writes.
    assert!(array.shard(0).unwrap().chain_len() > 0);
}

#[test]
fn lifecycle_misuse_yields_typed_errors_not_panics() {
    let mut array = rssd_array(2, NandTiming::instant());
    assert_eq!(
        array.fail_shard(9).unwrap_err(),
        ArrayError::NoSuchShard {
            shard: 9,
            shards: 2
        }
    );
    assert_eq!(
        array
            .begin_rebuild(0, rssd_shard(5, NandTiming::instant()), None)
            .unwrap_err(),
        ArrayError::ShardNotDegraded { shard: 0 }
    );
    assert_eq!(
        array.rebuild_step(0, 8).unwrap_err(),
        ArrayError::ShardNotRebuilding { shard: 0 }
    );
    let _ = array.fail_shard(0).unwrap();
    assert_eq!(
        array.fail_shard(0).unwrap_err(),
        ArrayError::ShardNotLive { shard: 0 }
    );
}

#[test]
fn second_shard_death_mid_rebuild_is_survivable() {
    // The double-failure case the fault injector provokes: shard 0 dies and
    // is rebuilding when shard 1 dies too. Historically this path was only
    // reachable through panicking code; now every transition is a typed
    // result and the array keeps serving whatever the remotes retained.
    let mut array = rssd_array(3, NandTiming::instant());
    let corpus: Vec<u64> = (0..36).collect();
    for &lpa in &corpus {
        array.write_page(lpa, page(lpa as u8)).unwrap();
    }
    for &lpa in &corpus {
        array.write_page(lpa, page(0xEE)).unwrap();
    }
    array.flush().unwrap();
    let layout = *array.layout();
    let shipped = array.audit_history();
    assert!(shipped.verified, "{:?}", shipped.failure);

    let _ = array.fail_shard(0).unwrap();
    array
        .begin_rebuild(0, rssd_shard(7, NandTiming::instant()), None)
        .unwrap();
    let _ = array.rebuild_step(0, 4).unwrap();

    // Second failure while shard 0 is mid-rebuild.
    let report = array.fail_shard(1).unwrap();
    assert!(report.versions > 0);
    assert_eq!(array.shard_status(1), ShardStatus::Degraded);
    assert!(matches!(
        array.shard_status(0),
        ShardStatus::Rebuilding { .. }
    ));
    // Stepping the *dead* shard is a typed error; the rebuilding one works.
    assert_eq!(
        array.rebuild_step(1, 4).unwrap_err(),
        ArrayError::ShardNotRebuilding { shard: 1 }
    );
    // Both failed shards serve degraded/salvage reads of retained content.
    for &lpa in &corpus {
        let (shard, _) = layout.locate(lpa);
        if shard != 2 {
            assert_eq!(array.read_page(lpa).unwrap(), page(lpa as u8));
        }
    }
    // Both recover: finish shard 0, then rebuild shard 1.
    let shard_pages = layout.shard_pages();
    assert!(array.rebuild_step(0, shard_pages).unwrap().done);
    let _ = array
        .rebuild(1, rssd_shard(8, NandTiming::instant()), None)
        .unwrap();
    assert!(array.is_fully_live());
    // Both lost devices' records are still the array's history, beside the
    // replacements' own.
    let audit = array.audit_history();
    assert!(audit.verified, "{:?}", audit.failure);
    assert!(audit.records.len() > shipped.records.len());
    assert!(holds_in_order(&audit.records, &shipped.records));
}

/// A store that hands one segment back with a flipped payload byte: what a
/// salvage meets when the dead member's store was tampered with.
#[derive(Debug, Default)]
struct Tampering {
    shelf: LoopbackTarget,
    flip: Option<u64>,
}

impl RemoteTarget for Tampering {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        self.shelf.store_segment(envelope, now_ns)
    }

    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
        let stored = self.shelf.fetch_segment(segment_seq)?;
        if self.flip != Some(segment_seq) {
            return Ok(stored);
        }
        let mut payload = stored.sealed_payload().to_vec();
        payload[0] ^= 0xFF;
        Ok(SegmentEnvelope::new(
            stored.device_id(),
            segment_seq,
            stored.prev_chain_head(),
            stored.chain_head(),
            stored.record_count(),
            &payload,
        ))
    }

    fn stored_segments(&self) -> Vec<u64> {
        self.shelf.stored_segments()
    }
}

#[test]
fn a_tampered_salvage_fails_the_merged_audit_naming_its_shard() {
    let members = (0..2)
        .map(|i| rssd_member(i, NandTiming::instant(), Tampering::default()))
        .collect();
    let mut array = RssdArray::new(members, 4, SimClock::new());
    for lpa in 0..16u64 {
        array.write_page(lpa, page(lpa as u8)).unwrap();
    }
    for lpa in 0..16u64 {
        array.write_page(lpa, page(0xEE)).unwrap();
    }
    array.flush().unwrap();
    let survivor = array.shard_mut(0).unwrap().audit_history().records.len();

    // The last stored segment comes back tampered with: the salvage keeps
    // the verified prefix before it and reports the rest.
    let remote = array.shard_mut(1).unwrap().remote_mut();
    remote.flip = remote.stored_segments().last().copied();
    assert!(matches!(
        array.fail_shard(1),
        Err(ArrayError::SalvageFailed { shard: 1, .. })
    ));
    let named = |audit: &HistoryAudit| {
        !audit.verified
            && audit
                .failure
                .as_deref()
                .is_some_and(|f| f.contains("shard 1"))
    };
    let audit = array.audit_history();
    assert!(named(&audit), "{:?}", audit.failure);
    assert!(
        audit.records.len() > survivor,
        "the verified prefix is kept"
    );

    // The failure outlives the shard's rebuild.
    let replacement = rssd_member(7, NandTiming::instant(), Tampering::default());
    let _ = array.rebuild(1, replacement, None).unwrap();
    assert!(named(&array.audit_history()));
}

#[test]
fn rebuilding_replacement_can_fail_again_and_fall_back_to_salvage() {
    let mut array = rssd_array(2, NandTiming::instant());
    let corpus: Vec<u64> = (0..16).collect();
    for &lpa in &corpus {
        array.write_page(lpa, page(lpa as u8)).unwrap();
    }
    for &lpa in &corpus {
        array.write_page(lpa, page(0xEE)).unwrap();
    }
    array.flush().unwrap();
    let layout = *array.layout();

    let _ = array.fail_shard(0).unwrap();
    array
        .begin_rebuild(0, rssd_shard(7, NandTiming::instant()), None)
        .unwrap();
    let _ = array.rebuild_step(0, 2).unwrap();
    // The replacement dies mid-rebuild: back to degraded over the original
    // salvage — progress lost, retained data not.
    let report = array.fail_shard(0).unwrap();
    assert!(
        report.versions > 0,
        "original salvage still backs the shard"
    );
    assert_eq!(array.shard_status(0), ShardStatus::Degraded);
    for &lpa in &corpus {
        if layout.locate(lpa).0 == 0 {
            assert_eq!(array.read_page(lpa).unwrap(), page(lpa as u8));
        }
    }
    // A second replacement completes.
    let _ = array
        .rebuild(0, rssd_shard(9, NandTiming::instant()), None)
        .unwrap();
    assert!(array.is_fully_live());
}

#[test]
fn enclosure_crash_and_recover_preserves_acked_state_on_every_member() {
    let mut array = rssd_array(3, NandTiming::instant());
    for lpa in 0..24u64 {
        array.write_page(lpa, page(lpa as u8)).unwrap();
    }
    for lpa in 0..24u64 {
        array.write_page(lpa, page(0xEE)).unwrap();
    }
    array.flush().unwrap();
    // Unoffloaded tail on top.
    array.write_page(0, page(0x77)).unwrap();

    let report = array.crash();
    assert!(report.pending_records_lost > 0);
    assert!(matches!(
        array.write_page(1, page(1)),
        Err(DeviceError::PowerLoss)
    ));
    let recovery = array.recover().unwrap();
    assert!(recovery.segments_walked > 0);
    // Every acknowledged write is durable on flash across all members.
    assert_eq!(array.read_page(0).unwrap(), page(0x77));
    for lpa in 1..24u64 {
        assert_eq!(array.read_page(lpa).unwrap(), page(0xEE));
    }
    // Offloaded pre-images recoverable again after the index rebuild.
    assert_eq!(array.recover_page(5).unwrap(), page(5));
}

#[test]
fn recover_before_spans_live_and_failed_shards() {
    let mut array = rssd_array(2, NandTiming::instant());
    let clock = array.clock().clone();
    for lpa in 0..16u64 {
        array.write_page(lpa, page(lpa as u8)).unwrap();
    }
    clock.advance(1_000);
    let attack_start = clock.now_ns();
    for lpa in 0..16u64 {
        array.write_page(lpa, page(0xEE)).unwrap();
    }
    array.flush().unwrap();
    let _ = array.fail_shard(1).unwrap();
    for lpa in 0..16u64 {
        assert_eq!(
            array.recover_before(lpa, attack_start).unwrap(),
            page(lpa as u8),
            "pre-attack version reachable wherever lpa {lpa} lives"
        );
    }
}

#[test]
fn recover_before_answers_the_same_from_a_live_shard_and_from_its_salvage() {
    // A flushed history with every shape the point-in-time rule has to tell
    // apart: overwrites, a trim and a rewrite after it, pages born late.
    let mut array = rssd_array(3, NandTiming::instant());
    let clock = array.clock().clone();
    let mut cuts = vec![clock.now_ns()];
    for round in 0..4u8 {
        for lpa in 0..36u64 {
            match (round, lpa % 4) {
                (0, 3) => {} // born in round 2
                (1, 1) => array.trim_page(lpa).unwrap(),
                (3, 2) => {} // last overwritten in round 2
                _ => array.write_page(lpa, page(round << 6 | lpa as u8)).unwrap(),
            }
        }
        cuts.push(clock.now_ns()); // the nanosecond of the round's last write
        clock.advance(500);
        cuts.push(clock.now_ns());
        clock.advance(500);
    }
    array.flush().unwrap();

    let answers = |array: &mut RssdArray<RssdDevice<LoopbackTarget>>| -> Vec<_> {
        let lookups = (0..36u64).flat_map(|lpa| cuts.iter().map(move |&cut| (lpa, cut)));
        lookups
            .map(|(lpa, cut)| (lpa, cut, array.recover_before(lpa, cut)))
            .collect()
    };
    let live = answers(&mut array);
    assert!(live.iter().any(|(_, _, found)| found.is_some()));
    assert!(live.iter().any(|(_, _, found)| found.is_none()));
    for shard in 0..3 {
        let _ = array.fail_shard(shard).unwrap();
        assert_eq!(answers(&mut array), live, "after shard {shard} died");
    }
}

#[test]
fn multi_host_fanout_replay_drives_the_array() {
    use rssd_ssd::{NvmeController, QueueId};
    use rssd_trace::{replay_fanout, WorkloadBuilder};

    let mut array = rssd_array(4, NandTiming::instant());
    let span = array.logical_pages();
    let records: Vec<_> = WorkloadBuilder::new(span)
        .seed(29)
        .read_fraction(0.25)
        .trim_fraction(0.05)
        .build()
        .take(600)
        .collect();
    let mut controller = NvmeController::new(&mut array);
    let queues: Vec<QueueId> = (0..4).map(|_| controller.create_queue_pair(16)).collect();
    let stats = replay_fanout(&mut controller, &queues, records).expect_completed();
    assert_eq!(stats.records, 600);
    assert!(stats.pages_written > 0 && stats.pages_read > 0);
    // Merged host-side accounting across the four host queues.
    let mut merged = controller.stats(queues[0]).clone();
    for &q in &queues[1..] {
        merged.merge(controller.stats(q));
    }
    assert_eq!(
        merged.completed,
        stats.pages_written + stats.pages_read + stats.pages_trimmed
    );
    drop(controller);
    // Every shard saw traffic: the stripe fan-out reached all members.
    for shard in 0..4 {
        assert!(
            array.shard(shard).unwrap().chain_len() > 0,
            "shard {shard} untouched"
        );
    }
}

#[test]
fn aggregate_throughput_scales_with_shard_count() {
    // The same write workload, one batch, against 1 / 2 / 4 shards with
    // real MLC timing: members execute in parallel, so the simulated
    // completion time must shrink — aggregate throughput must rise —
    // monotonically.
    let ops = 192u64;
    let mut end_times = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut array = rssd_array(shards, NandTiming::mlc_default());
        let span = array.logical_pages();
        let commands: Vec<IoCommand> = (0..ops)
            .map(|i| IoCommand::Write {
                lpa: i % span,
                data: page(i as u8),
            })
            .collect();
        for r in array.submit_batch(commands) {
            r.unwrap();
        }
        end_times.push(array.clock().now_ns());
    }
    assert!(
        end_times[0] > end_times[1] && end_times[1] > end_times[2],
        "sim completion time must shrink with shards: {end_times:?}"
    );
}
