//! The offload path on the wire: a [`RemoteTarget`] adapter that carries
//! every segment envelope over the simulated NVMe-oE fabric.
//!
//! [`WireRemote`] is the controller-side bridge between the offload engine
//! and the network stack. Where [`LoopbackTarget`](crate::LoopbackTarget)
//! hands envelopes to the store by function call, `WireRemote` serializes
//! them with [`SegmentEnvelope::to_wire_bytes`], fragments them into NVMe-oE
//! capsules, and pushes them frame by frame over the `SimLink` with
//! go-back-N retransmission — so link bandwidth, propagation delay, loss and
//! queueing consume real nanoseconds on the device's simulated timeline.
//! The sealed payload inside the envelope was already encrypted and MAC'd by
//! the device's `SecureSession` before it got here; the wire never carries
//! plaintext log data.
//!
//! Network faults are expressed as *link conditions*, not injected results
//! (in parentheses, the `rssd-faults` `PartitionMode` each one renders):
//!
//! * [`WireRemote::set_uplink_down`] blackholes frames; the transport
//!   exhausts its stall budget and the offload engine sees
//!   [`RemoteError::Unreachable`] (`Refuse`).
//! * With [`WireRemote::set_store_and_forward`], a down link instead acks
//!   and buffers at the edge; [`WireRemote::heal`] replays the buffer over
//!   the restored wire in order (`QueueForReplay`).
//! * [`WireRemote::set_ingest_drop`] models a collector that acknowledges
//!   the transfer but loses the segment before durability
//!   (`DropSilently`) — the chain gap surfaces only at
//!   `verified_history`/rebuild time.
//!
//! Hardware isolation stays structural: this type lives behind the
//! [`RemoteTarget`] trait inside the controller. The host-facing
//! `BlockDevice` API exposes neither `WireRemote` nor any `rssd-net` type.

use crate::remote_target::{RemoteError, RemoteTarget, StoreAck};
use crate::segment::SegmentEnvelope;
use rssd_net::{LinkConfig, NvmeOeEndpoint, SharedLink, TransferStats};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What the link conditions did to the offload stream — the counters the
/// scenario matrix scores partition cells by.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[must_use]
pub struct RemoteFaultStats {
    /// Transfers that exhausted the stall budget with store-and-forward
    /// disabled: surfaced to the engine as [`RemoteError::Unreachable`].
    pub offloads_refused: u64,
    /// Envelopes acked at the edge and buffered while the link was down.
    pub offloads_queued: u64,
    /// Buffered envelopes successfully replayed over the healed wire.
    pub offloads_replayed: u64,
    /// Envelopes the collector acked in transport but lost before
    /// durability.
    pub offloads_dropped: u64,
}

impl RemoteFaultStats {
    /// Merges another wire's counters (fleet view across array members).
    pub fn merge(&mut self, other: &RemoteFaultStats) {
        self.offloads_refused += other.offloads_refused;
        self.offloads_queued += other.offloads_queued;
        self.offloads_replayed += other.offloads_replayed;
        self.offloads_dropped += other.offloads_dropped;
    }
}

/// A [`RemoteTarget`] whose every segment crosses the simulated NVMe-oE
/// fabric before reaching the wrapped target `R`.
///
/// The inner target receives exactly the bytes the wire delivered — decoded
/// back into a [`SegmentEnvelope`] — at the simulated time the transfer
/// completed, so an offload's ack carries real network latency: it is
/// when the device may retire the segment.
#[derive(Clone, Debug)]
pub struct WireRemote<R: RemoteTarget> {
    fabric: NvmeOeEndpoint,
    remote: R,
    /// Store-and-forward buffer: `(envelope, enqueue_ns)` in arrival order.
    relay: VecDeque<(SegmentEnvelope, u64)>,
    relay_enabled: bool,
    ingest_drop: bool,
    stats: RemoteFaultStats,
}

impl<R: RemoteTarget> WireRemote<R> {
    /// Consecutive no-progress retransmission rounds before a transfer is
    /// declared failed (each round waits out one RTO).
    pub const DEFAULT_MAX_STALL_ROUNDS: u32 = 4;

    /// Wraps `remote` behind a private fabric with symmetric `link`s.
    pub fn new(remote: R, link: LinkConfig) -> Self {
        Self::with_fabric(remote, NvmeOeEndpoint::new(link))
    }

    /// Wraps `remote` behind a fabric whose device → remote direction is
    /// the (possibly shared) `uplink`. N devices built over clones of the
    /// same uplink queue behind each other's serialization time — the
    /// shared-uplink array topology.
    pub fn with_uplink(remote: R, uplink: SharedLink, return_link: LinkConfig) -> Self {
        Self::with_fabric(remote, NvmeOeEndpoint::with_uplink(uplink, return_link))
    }

    /// Wraps `remote` behind an existing fabric.
    pub fn with_fabric(remote: R, fabric: NvmeOeEndpoint) -> Self {
        WireRemote {
            fabric,
            remote,
            relay: VecDeque::new(),
            relay_enabled: false,
            ingest_drop: false,
            stats: RemoteFaultStats::default(),
        }
    }

    /// Takes the uplink down (`true`) or restores it (`false`). While
    /// down, transfers serialize into the void until the stall budget
    /// exhausts — the wire expression of a network partition.
    pub fn set_uplink_down(&mut self, down: bool) {
        self.fabric.set_link_down(down);
    }

    /// Whether the uplink is currently down.
    pub fn is_uplink_down(&self) -> bool {
        self.fabric.is_link_down()
    }

    /// Enables store-and-forward: failed transfers are acked at the edge
    /// and buffered for [`WireRemote::heal`] instead of surfacing
    /// [`RemoteError::Unreachable`].
    pub fn set_store_and_forward(&mut self, enabled: bool) {
        self.relay_enabled = enabled;
    }

    /// Simulates a collector that acks the transport but loses segments
    /// before durability. Drops are detectable only at
    /// `verified_history`/rebuild time — the transport ack looks genuine.
    pub fn set_ingest_drop(&mut self, drop: bool) {
        self.ingest_drop = drop;
    }

    /// Restores the link, clears fault modes, and replays the
    /// store-and-forward buffer over the live wire in order. Stops (and
    /// re-buffers the remainder) on the first failure. Returns the number
    /// replayed. Safe no-op when healthy with an empty buffer.
    pub fn heal(&mut self) -> u64 {
        self.fabric.set_link_down(false);
        self.relay_enabled = false;
        self.ingest_drop = false;
        let mut replayed = 0u64;
        while let Some((envelope, now_ns)) = self.relay.pop_front() {
            match self.transfer_and_store(&envelope, now_ns) {
                Ok(_) => {
                    replayed += 1;
                    self.stats.offloads_replayed += 1;
                }
                Err(_) => {
                    self.relay.push_front((envelope, now_ns));
                    break;
                }
            }
        }
        replayed
    }

    /// Wire-level fault/outcome counters.
    pub fn stats(&self) -> RemoteFaultStats {
        self.stats
    }

    /// Protocol counters from the underlying fabric (capsules,
    /// retransmissions, goodput).
    pub fn transfer_stats(&self) -> TransferStats {
        self.fabric.stats()
    }

    /// A handle to the device → remote uplink (cloning shares the wire).
    pub fn uplink(&self) -> SharedLink {
        self.fabric.uplink()
    }

    /// Envelopes currently buffered awaiting heal.
    pub fn queued_segments(&self) -> usize {
        self.relay.len()
    }

    /// The wrapped target.
    pub fn inner(&self) -> &R {
        &self.remote
    }

    /// Mutable access to the wrapped target.
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.remote
    }

    /// Carries `envelope` over the fabric and stores whatever the wire
    /// delivered into the inner target at the delivery time.
    ///
    /// Zero-copy end to end: the envelope *is* its wire image, so handing
    /// the fabric `to_wire_bytes()` is a refcount bump, and the delivered
    /// bytes are adopted back into an envelope without copying.
    fn transfer_and_store(
        &mut self,
        envelope: &SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        let segment_seq = envelope.segment_seq();
        let (arrival_ns, delivered) = self
            .fabric
            .try_transfer_segment(
                segment_seq,
                envelope.to_wire_bytes(),
                now_ns,
                Self::DEFAULT_MAX_STALL_ROUNDS,
            )
            .map_err(|_| RemoteError::Unreachable)?;
        let delivered = SegmentEnvelope::from_wire_image(delivered)
            .expect("reliable fabric delivers the encoded envelope intact");
        if self.ingest_drop {
            // The transport acked; the collector lost the segment before
            // durability. The device unpins its local copy believing the
            // evidence is safe — the gap emerges at verification time.
            self.stats.offloads_dropped += 1;
            return Ok(StoreAck {
                segment_seq,
                durable_at_ns: arrival_ns,
            });
        }
        self.remote.store_segment(delivered, arrival_ns)
    }
}

impl<R: RemoteTarget> RemoteTarget for WireRemote<R> {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        let segment_seq = envelope.segment_seq();
        match self.transfer_and_store(&envelope, now_ns) {
            Ok(ack) => Ok(ack),
            Err(RemoteError::Unreachable) if self.relay_enabled => {
                // Edge relay: ack now (by move — no clone), deliver after
                // heal.
                self.stats.offloads_queued += 1;
                self.relay.push_back((envelope, now_ns));
                Ok(StoreAck {
                    segment_seq,
                    durable_at_ns: now_ns,
                })
            }
            Err(RemoteError::Unreachable) => {
                self.stats.offloads_refused += 1;
                Err(RemoteError::Unreachable)
            }
            Err(other) => Err(other),
        }
    }

    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
        // Read-back is bulk recovery traffic; we model it as instantaneous
        // (the recovery window is dominated by the offload direction).
        if let Some((envelope, _)) = self
            .relay
            .iter()
            .find(|(e, _)| e.segment_seq() == segment_seq)
        {
            return Ok(envelope.clone());
        }
        if self.is_uplink_down() {
            return Err(RemoteError::Unreachable);
        }
        self.remote.fetch_segment(segment_seq)
    }

    fn stored_segments(&self) -> Vec<u64> {
        let mut seqs = self.remote.stored_segments();
        seqs.extend(self.relay.iter().map(|(e, _)| e.segment_seq()));
        seqs.sort_unstable();
        seqs.dedup();
        seqs
    }

    fn set_trace_sink(&mut self, sink: rssd_obs::SinkHandle) {
        self.fabric.set_trace_sink(sink.clone());
        self.remote.set_trace_sink(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote_target::LoopbackTarget;
    use rssd_crypto::Digest;

    fn digest(b: u8) -> Digest {
        Digest::from_bytes([b; 32])
    }

    fn envelope(seq: u64, prev: Digest, head: Digest) -> SegmentEnvelope {
        SegmentEnvelope::new(1, seq, prev, head, 3, &[seq as u8; 2048])
    }

    fn chain(n: u64) -> Vec<SegmentEnvelope> {
        (0..n)
            .map(|i| {
                let prev = if i == 0 {
                    Digest::ZERO
                } else {
                    digest(i as u8)
                };
                envelope(i, prev, digest(i as u8 + 1))
            })
            .collect()
    }

    #[test]
    fn ideal_link_matches_direct_path_exactly() {
        let mut direct = LoopbackTarget::new();
        let mut wired = WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal());
        for (i, env) in chain(5).into_iter().enumerate() {
            let now = 1_000 * i as u64;
            let a = direct.store_segment(env.clone(), now).unwrap();
            let b = wired.store_segment(env, now).unwrap();
            assert_eq!(a, b, "ideal wire must be invisible in acks");
        }
        assert_eq!(direct.stored_segments(), wired.stored_segments());
        for seq in direct.stored_segments() {
            assert_eq!(
                direct.fetch_segment(seq).unwrap(),
                wired.fetch_segment(seq).unwrap()
            );
        }
        assert_eq!(wired.transfer_stats().segments, 5);
        assert_eq!(wired.transfer_stats().retransmissions, 0);
    }

    #[test]
    fn real_link_time_lands_in_the_ack() {
        let mut wired = WireRemote::new(LoopbackTarget::new(), LinkConfig::datacenter_10g());
        let ack = wired.store_segment(chain(1).remove(0), 0).unwrap();
        // 2 kB + capsule/frame overhead at 1.25 GB/s ≥ 1.6 us, plus
        // propagation both ways.
        assert!(ack.durable_at_ns >= 1_600, "ack at {}", ack.durable_at_ns);
    }

    #[test]
    fn down_link_is_unreachable_without_relay() {
        let mut wired = WireRemote::new(LoopbackTarget::new(), LinkConfig::datacenter_10g());
        wired.set_uplink_down(true);
        let err = wired.store_segment(chain(1).remove(0), 0).unwrap_err();
        assert_eq!(err, RemoteError::Unreachable);
        assert_eq!(wired.stats().offloads_refused, 1);
        assert!(wired.stored_segments().is_empty());
        assert!(
            wired.uplink().frames_blackholed() > 0,
            "frames hit the void"
        );
        assert_eq!(
            wired.fetch_segment(0),
            Err(RemoteError::Unreachable),
            "fetch during partition fails too"
        );
    }

    #[test]
    fn store_and_forward_buffers_then_replays_over_healed_wire() {
        let mut wired = WireRemote::new(LoopbackTarget::new(), LinkConfig::datacenter_10g());
        wired.set_uplink_down(true);
        wired.set_store_and_forward(true);
        let envs = chain(3);
        for (i, env) in envs.iter().enumerate() {
            let ack = wired.store_segment(env.clone(), i as u64).unwrap();
            assert_eq!(ack.durable_at_ns, i as u64, "edge ack carries no wire time");
        }
        assert_eq!(wired.queued_segments(), 3);
        assert_eq!(wired.stats().offloads_queued, 3);
        assert!(
            wired.inner().stored_segments().is_empty(),
            "nothing crossed"
        );
        // Buffered segments are visible and fetchable during the partition.
        assert_eq!(wired.stored_segments(), vec![0, 1, 2]);
        assert_eq!(wired.fetch_segment(1).unwrap(), envs[1]);

        assert_eq!(wired.heal(), 3);
        assert_eq!(wired.stats().offloads_replayed, 3);
        assert_eq!(wired.queued_segments(), 0);
        assert_eq!(wired.inner().stored_segments(), vec![0, 1, 2]);
        assert!(
            wired.transfer_stats().segments >= 3,
            "replay went over the real wire"
        );
    }

    #[test]
    fn ingest_drop_acks_but_loses_the_segment() {
        let mut wired = WireRemote::new(LoopbackTarget::new(), LinkConfig::datacenter_10g());
        let envs = chain(2);
        wired.set_ingest_drop(true);
        wired.store_segment(envs[0].clone(), 0).unwrap();
        wired.set_ingest_drop(false);
        wired.store_segment(envs[1].clone(), 1).unwrap();
        assert_eq!(wired.stats().offloads_dropped, 1);
        // Segment 0 vanished after a genuine-looking ack; the hole is only
        // observable downstream (verification / rebuild walk).
        assert_eq!(wired.stored_segments(), vec![1]);
        assert_eq!(wired.fetch_segment(0), Err(RemoteError::NoSuchSegment(0)));
    }

    #[test]
    fn heal_is_a_safe_noop_when_healthy() {
        let mut wired = WireRemote::new(LoopbackTarget::new(), LinkConfig::datacenter_10g());
        assert_eq!(wired.heal(), 0);
        wired.store_segment(chain(1).remove(0), 0).unwrap();
        assert_eq!(wired.heal(), 0);
        assert_eq!(wired.stored_segments(), vec![0]);
    }

    mod device_over_wire {
        use super::*;
        use crate::config::RssdConfig;
        use crate::device::{OffloadHealth, RssdDevice};
        use rssd_flash::{FlashGeometry, NandTiming, SimClock};
        use rssd_ssd::{BlockDevice, DeviceError};

        fn device(link: LinkConfig) -> RssdDevice<WireRemote<LoopbackTarget>> {
            device_on(FlashGeometry::small_test(), link)
        }

        /// 256 blocks: a WAN window's worth of pinned pre-images stays far
        /// below the pinned-block watermark, which on the 32-block test
        /// geometry would seal early on nearly every write.
        fn roomy_device(link: LinkConfig) -> RssdDevice<WireRemote<LoopbackTarget>> {
            device_on(FlashGeometry::with_capacity(64 << 20), link)
        }

        fn device_on(
            geometry: FlashGeometry,
            link: LinkConfig,
        ) -> RssdDevice<WireRemote<LoopbackTarget>> {
            RssdDevice::new(
                geometry,
                NandTiming::instant(),
                SimClock::new(),
                RssdConfig {
                    segment_pages: 8,
                    ..RssdConfig::default()
                },
                WireRemote::new(LoopbackTarget::new(), link),
            )
        }

        fn page(b: u8) -> Vec<u8> {
            vec![b; 4096]
        }

        #[test]
        fn offload_works_end_to_end_over_the_wire() {
            let mut d = device(LinkConfig::datacenter_10g());
            d.write_page(3, page(1)).unwrap();
            d.write_page(3, page(2)).unwrap();
            d.flush_log().unwrap();
            assert!(d.offload_stats().segments_offloaded > 0);
            assert!(
                d.remote().transfer_stats().payload_bytes > 0,
                "segments crossed as capsules, not function calls"
            );
            assert_eq!(d.recover_page(3).unwrap(), page(1));
        }

        #[test]
        fn slow_uplink_backpressure_is_host_visible() {
            let slow = LinkConfig {
                bandwidth_bytes_per_sec: 1_000_000, // 1 MB/s
                propagation_delay_ns: 0,
                loss_period: 0,
            };
            let mut fast_dev = device(LinkConfig::ideal());
            let mut slow_dev = device(slow);
            for d in [&mut fast_dev, &mut slow_dev] {
                d.write_page(3, page(1)).unwrap();
                d.write_page(3, page(2)).unwrap();
                d.flush_log().unwrap();
            }
            let sealed = slow_dev.offload_stats().sealed_bytes;
            assert!(sealed > 0);
            // 1 MB/s ⇒ each sealed byte costs ≥ 1 us of simulated time,
            // and that time must land on the device clock.
            let min_wire_ns = sealed * 1_000;
            let slow_now = slow_dev.clock().now_ns();
            let fast_now = fast_dev.clock().now_ns();
            assert!(
                slow_now >= fast_now + min_wire_ns,
                "slow uplink must cost the device clock: slow {slow_now} \
                 fast {fast_now} wire {min_wire_ns}"
            );
        }

        /// Overwrites 16 pages round-robin: every write after the first
        /// lap retains a pre-image, so a segment seals every 8 writes.
        fn overwrite_laps(
            d: &mut RssdDevice<WireRemote<LoopbackTarget>>,
            writes: std::ops::Range<u64>,
        ) {
            for i in writes {
                d.write_page(i % 16, page((i % 251) as u8)).unwrap();
            }
        }

        #[test]
        fn acks_in_flight_overlap_host_writes_and_retire_when_the_clock_gets_there() {
            let mut d = roomy_device(LinkConfig::wan_cloud());
            overwrite_laps(&mut d, 0..80);
            // Instant NAND: nothing has moved the clock, so every segment
            // sealed so far is shipped, stored remotely — and unacknowledged.
            assert_eq!(d.clock().now_ns(), 0, "shipping costs the host nothing");
            let in_flight = d.staged_segments();
            assert!(in_flight >= 8, "{in_flight} segments in flight");
            assert_eq!(d.remote().inner().stored_segments().len(), in_flight);
            assert_eq!(d.offload_stats().segments_offloaded, 0);
            assert_eq!(d.offload_health(), OffloadHealth::Buffering);
            assert!(d.pinned_pages() > 0, "pins are held until the ack");
            // Pre-images inside an in-flight segment are still served.
            assert_eq!(d.recover_page(0).unwrap(), page(48));

            // One WAN round trip later the next host command retires them,
            // FIFO, without a forced drain.
            d.clock().advance(1_000_000_000);
            assert_eq!(d.read_page(0).unwrap(), page(64));
            assert_eq!(d.staged_segments(), 0);
            assert_eq!(d.offload_stats().segments_offloaded, in_flight as u64);
            assert_eq!(d.offload_health(), OffloadHealth::Healthy);
            assert_eq!(d.clock().now_ns(), 1_000_000_000, "and still no charge");
            assert_eq!(d.recover_page(0).unwrap(), page(48));
        }

        #[test]
        fn flush_waits_for_every_ack_in_flight() {
            let mut d = roomy_device(LinkConfig::wan_cloud());
            overwrite_laps(&mut d, 0..80);
            assert!(d.staged_segments() > 0);
            d.flush_log().unwrap();
            // `Ok` means acknowledged, on the device clock: nothing staged,
            // nothing pinned, and at least one WAN round trip gone by.
            assert_eq!(d.staged_segments(), 0);
            assert_eq!(d.pending_records(), 0);
            assert_eq!(d.pinned_pages(), 0);
            let stats = d.offload_stats();
            assert_eq!(stats.segments_offloaded, stats.segments_sealed);
            assert!(d.clock().now_ns() >= 2 * LinkConfig::wan_cloud().propagation_delay_ns);
        }

        #[test]
        fn wan_replay_seals_what_the_ideal_link_seals() {
            // Regression: with acks in flight the staged queue is non-empty
            // on every write; were that alone to count as "a retry is due",
            // each write would re-enter the offload path and seal a
            // one-record segment.
            let replay = |link: LinkConfig| {
                let mut d = roomy_device(link);
                overwrite_laps(&mut d, 0..2_000);
                d.flush_log().unwrap();
                d.offload_stats()
            };
            let ideal = replay(LinkConfig::ideal());
            let wan = replay(LinkConfig::wan_cloud());
            assert!(wan.throttled_writes > 0, "the window filled: {wan:?}");
            assert_eq!(wan.records_offloaded, ideal.records_offloaded);
            // Same script, same thresholds; only the pinned-block watermark
            // (pins are held until the ack) may seal a segment early.
            assert!(
                wan.segments_sealed.abs_diff(ideal.segments_sealed) <= ideal.segments_sealed / 50,
                "wan sealed {} segments, ideal {}",
                wan.segments_sealed,
                ideal.segments_sealed
            );
        }

        #[test]
        fn history_with_acks_outstanding_counts_each_segment_once() {
            let mut ideal = roomy_device(LinkConfig::ideal());
            let mut wan = roomy_device(LinkConfig::wan_cloud());
            for d in [&mut ideal, &mut wan] {
                overwrite_laps(d, 0..100);
            }
            assert!(wan.staged_segments() > 0, "acks outstanding");
            assert!(wan.pending_records() > 0, "and a pending tail");
            // A shipped segment is in the store *and* in the staged queue;
            // walking both would double-count it and cry "chain gap".
            let history = wan.verified_history().expect("verifies mid-flight");
            assert_eq!(wan.clock().now_ns(), 0, "reading history is free");
            assert_eq!(history.len() as u64, wan.chain_len());
            // Record for record what the ideal link retired long ago — the
            // store's copy, pre-images attached.
            assert_eq!(history, ideal.verified_history().unwrap());
            let audit = wan.audit_history();
            assert!(audit.verified, "{:?}", audit.failure);
            assert_eq!(audit.records, history);
        }

        #[test]
        fn power_cut_with_acks_in_flight_loses_only_the_unshipped_tail() {
            let mut d = roomy_device(LinkConfig::wan_cloud());
            overwrite_laps(&mut d, 0..100);
            let in_flight = d.staged_segments() as u64;
            let pending = d.pending_records() as u64;
            assert!(in_flight > 0 && pending > 0);
            let report = d.crash();
            // The store holds every shipped segment: only the pending tail
            // (and its pre-images) died, and the pin table went with it.
            assert_eq!(report.pending_records_lost, pending);
            assert_eq!(report.pending_preimages_lost, pending);
            assert_eq!(d.pinned_pages(), 0);
            let recovery = d.recover().unwrap();
            assert_eq!(recovery.segments_walked, in_flight);
            assert_eq!(recovery.resumed_seq, report.chain_len_at_crash - pending);
            assert_eq!(d.staged_segments(), 0, "the lost acks are not waited for");
            // Indexed from the store: every shipped pre-image is back.
            assert_eq!(d.recover_page(0).unwrap(), page(64));
            overwrite_laps(&mut d, 100..140);
            d.flush_log().unwrap();
            assert_eq!(d.pinned_pages(), 0);
            assert_eq!(d.verified_history().unwrap().len() as u64, d.chain_len());
        }

        #[test]
        fn dead_uplink_stalls_writes_instead_of_dropping_evidence() {
            let mut d = device(LinkConfig::datacenter_10g());
            d.remote_mut().set_uplink_down(true);
            let mut stalled = false;
            // Fill the small device; with the remote unreachable the pinned
            // pages can never drain, so the write path must stall rather
            // than drop retained data.
            for i in 0..4096u64 {
                match d.write_page(i % 64, page((i % 251) as u8)) {
                    Ok(_) => {}
                    Err(DeviceError::Stalled) => {
                        stalled = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e:?}"),
                }
            }
            assert!(stalled, "dead wire must surface as backpressure");
            assert!(d.offload_stats().offload_failures > 0);
            assert!(d.remote().stats().offloads_refused > 0);
            assert!(d.remote().inner().stored_segments().is_empty());
        }
    }

    #[test]
    fn chain_discontinuity_passes_through_the_wire() {
        let mut wired = WireRemote::new(LoopbackTarget::new(), LinkConfig::datacenter_10g());
        wired
            .store_segment(envelope(0, Digest::ZERO, digest(1)), 0)
            .unwrap();
        let err = wired
            .store_segment(envelope(1, digest(9), digest(2)), 1)
            .unwrap_err();
        assert!(matches!(err, RemoteError::ChainDiscontinuity { .. }));
    }
}
