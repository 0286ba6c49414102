//! The remote log server.
//!
//! Receives segment envelopes over the simulated NVMe-oE fabric, enforces
//! evidence-chain continuity (a device — or an attacker spoofing one —
//! cannot silently rewind or skip history), authenticates each sealed
//! payload *before* acknowledging it (the ack lets the device unpin), stores
//! the sealed payloads in the object store, and runs the offloaded detection
//! ensemble over the decrypted record metadata.

use rssd_core::{
    LogRecord, OpenDepth, PostAttackAnalyzer, RemoteError, RemoteTarget, SegmentEnvelope, StoreAck,
};
use rssd_crypto::{DeviceKeys, Digest};
use rssd_detect::{Ensemble, Verdict};
use rssd_net::{LinkConfig, NvmeOeEndpoint, SecureSession, TransferStats};

use crate::object_store::{ObjectStore, ObjectStoreConfig};

/// Aggregated server-side observations (the operator's dashboard).
#[derive(Clone, Debug, Default, PartialEq)]
#[must_use]
pub struct ServerReport {
    /// Segments accepted and stored.
    pub segments_stored: u64,
    /// Segments refused — for chain discontinuity, or because the sealed
    /// payload failed to authenticate or parse — and so neither stored nor
    /// acknowledged.
    pub segments_rejected: u64,
    /// Records fed to the detection ensemble.
    pub records_analyzed: u64,
    /// Current detection verdict.
    pub verdict: Verdict,
    /// Combined detection score.
    pub score: f64,
    /// Time (ns) spent receiving + storing, summed.
    pub ingest_time_ns: u64,
}

/// The remote log/detection server. Implements [`RemoteTarget`] so it plugs
/// directly under an `RssdDevice`.
#[derive(Debug)]
pub struct RemoteLogServer {
    fabric: NvmeOeEndpoint,
    store: ObjectStore,
    session: SecureSession,
    ensemble: Ensemble,
    last_head: Option<Digest>,
    segment_index: Vec<u64>,
    report: ServerReport,
    external_fabric: bool,
}

impl RemoteLogServer {
    /// Builds a server reachable over `link`, storing into an object store
    /// with `store_config`, holding the operator-provisioned offload keys
    /// derived from `keys`.
    pub fn new(link: LinkConfig, store_config: ObjectStoreConfig, keys: &DeviceKeys) -> Self {
        RemoteLogServer {
            fabric: NvmeOeEndpoint::new(link),
            store: ObjectStore::new(store_config),
            session: SecureSession::new(keys, 0),
            ensemble: Ensemble::new(),
            last_head: None,
            segment_index: Vec::new(),
            report: ServerReport::default(),
            external_fabric: false,
        }
    }

    /// Convenience: datacenter link + local storage server.
    pub fn datacenter(keys: &DeviceKeys) -> Self {
        Self::new(
            LinkConfig::datacenter_10g(),
            ObjectStoreConfig::local_server(),
            keys,
        )
    }

    /// Convenience: WAN link + cloud object storage.
    pub fn cloud(keys: &DeviceKeys) -> Self {
        Self::new(LinkConfig::wan_cloud(), ObjectStoreConfig::cloud(), keys)
    }

    /// Tells the server its envelopes already crossed a modeled wire
    /// upstream — the device wrapped this server in
    /// `rssd_core::WireRemote`, which charged the NVMe-oE transfer to the
    /// simulated clock. Ingest then happens at `now_ns` without a second
    /// fabric hop.
    pub fn set_external_fabric(&mut self, external: bool) {
        self.external_fabric = external;
    }

    /// Current dashboard.
    pub fn report(&self) -> ServerReport {
        self.report.clone()
    }

    /// NVMe-oE transfer statistics.
    pub fn transfer_stats(&self) -> TransferStats {
        self.fabric.stats()
    }

    /// Object-store statistics.
    pub fn store_stats(&self) -> crate::object_store::ObjectStoreStats {
        self.store.stats()
    }

    /// Current offloaded-detection verdict.
    pub fn verdict(&self) -> Verdict {
        self.ensemble.verdict()
    }

    fn segment_key(seq: u64) -> String {
        format!("segments/{seq:016x}")
    }

    /// Feeds an authenticated segment's records to the detection ensemble.
    /// Detection reads record metadata only.
    fn analyze_segment(&mut self, records: &[LogRecord]) {
        for obs in PostAttackAnalyzer::observations(records) {
            self.ensemble.observe(&obs);
        }
        self.report.records_analyzed = self.ensemble.observations();
        self.report.verdict = self.ensemble.verdict();
        self.report.score = self.ensemble.score();
    }
}

impl RemoteTarget for RemoteLogServer {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        if let Some(expected) = self.last_head {
            if envelope.prev_chain_head() != expected {
                self.report.segments_rejected += 1;
                return Err(RemoteError::ChainDiscontinuity {
                    expected,
                    got: envelope.prev_chain_head(),
                });
            }
        }
        // The ack is the device's licence to unpin, so open before anything is
        // stored: the payload and the header's heads and count are verified
        // under the tag — a header naming any other head would move
        // `last_head` (and every later reader's running head) off the real
        // chain — then only the metadata block is deciphered (pre-images
        // stay sealed). Whether the records reach `chain_head` is for a
        // holder of the chain key, which this store is not, to check. A
        // refused segment stays staged on the device and is re-sent.
        let segment = match envelope.open(&self.session, OpenDepth::Metadata) {
            Ok(segment) => segment,
            Err(cause) => {
                self.report.segments_rejected += 1;
                return Err(RemoteError::Unreadable {
                    segment_seq: envelope.segment_seq(),
                    cause,
                });
            }
        };
        // Transfer over the fabric (unless the wire was modeled upstream) for
        // the arrival time, then persist the bytes just opened — the same
        // refcounted wire image, never the fabric's copy of it — so every
        // stored object passed the door (what `fetch_vouched` rests on).
        let wire = envelope.to_wire_bytes();
        let arrival_ns = if self.external_fabric {
            now_ns
        } else {
            let seq = envelope.segment_seq();
            self.fabric.transfer_segment(seq, wire.clone(), now_ns).0
        };
        let durable_at_ns =
            self.store
                .put(&Self::segment_key(envelope.segment_seq()), wire, arrival_ns);

        self.last_head = Some(envelope.chain_head());
        self.segment_index.push(envelope.segment_seq());
        self.report.segments_stored += 1;
        self.report.ingest_time_ns += durable_at_ns.saturating_sub(now_ns);
        self.analyze_segment(segment.records());
        Ok(StoreAck {
            segment_seq: envelope.segment_seq(),
            durable_at_ns,
        })
    }

    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
        let (bytes, _) = self
            .store
            .get(&Self::segment_key(segment_seq), 0)
            .ok_or(RemoteError::NoSuchSegment(segment_seq))?;
        SegmentEnvelope::from_wire_image(bytes).ok_or(RemoteError::NoSuchSegment(segment_seq))
    }

    /// Every stored object passed the door under this server's session
    /// before `put`, and `get` hands back the same immutable bytes: the
    /// server vouches for each to a reader that holds its keys.
    fn fetch_vouched(
        &mut self,
        segment_seq: u64,
        session: &SecureSession,
    ) -> Result<(SegmentEnvelope, bool), RemoteError> {
        let envelope = self.fetch_segment(segment_seq)?;
        Ok((envelope, self.session.same_keys(session)))
    }

    fn stored_segments(&self) -> Vec<u64> {
        self.segment_index.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_core::{LoopbackTarget, RssdConfig, RssdDevice};
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_ssd::BlockDevice;

    fn keys() -> DeviceKeys {
        DeviceKeys::for_simulation(RssdConfig::default().key_seed)
    }

    fn device_over_server() -> RssdDevice<RemoteLogServer> {
        RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            RemoteLogServer::datacenter(&keys()),
        )
    }

    #[test]
    fn device_offloads_through_real_server() {
        let mut d = device_over_server();
        for i in 0..40u64 {
            d.write_page(i % 4, vec![(i % 7) as u8; 4096]).unwrap();
        }
        d.flush_log().unwrap();
        let report = d.remote().report();
        assert!(report.segments_stored > 0);
        assert_eq!(report.segments_rejected, 0);
        assert!(report.records_analyzed > 0);
        assert!(d.remote().transfer_stats().payload_bytes > 0);
        assert!(d.remote().store_stats().stored_bytes > 0);
    }

    #[test]
    fn recovery_through_real_server() {
        let mut d = device_over_server();
        d.write_page(3, vec![1; 4096]).unwrap();
        d.write_page(3, vec![2; 4096]).unwrap();
        d.flush_log().unwrap();
        assert_eq!(d.recover_page(3).unwrap(), vec![1; 4096]);
    }

    #[test]
    fn wire_remote_carries_segments_to_real_server_on_one_wire() {
        // The full codesign path: offload engine → WireRemote (the modeled
        // NVMe-oE wire) → log server ingesting without a second fabric hop.
        let mut server = RemoteLogServer::datacenter(&keys());
        server.set_external_fabric(true);
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            rssd_core::WireRemote::new(server, rssd_net::LinkConfig::datacenter_10g()),
        );
        d.write_page(3, vec![1; 4096]).unwrap();
        d.write_page(3, vec![2; 4096]).unwrap();
        d.flush_log().unwrap();
        assert!(d.remote().inner().report().segments_stored > 0);
        assert_eq!(d.remote().inner().report().segments_rejected, 0);
        // Exactly one wire: WireRemote's fabric carried capsules, the
        // server's internal fabric stayed idle.
        assert!(d.remote().transfer_stats().payload_bytes > 0);
        assert_eq!(d.remote().inner().transfer_stats().payload_bytes, 0);
        assert_eq!(d.recover_page(3).unwrap(), vec![1; 4096]);
    }

    #[test]
    fn chain_discontinuity_passes_through_the_wire() {
        // The server's refusal crosses the wire as itself: the wire carried
        // the segment, so it is not an outage and nothing counts as refused.
        let segments = sealed_segments();
        let mut server = RemoteLogServer::datacenter(&keys());
        server.set_external_fabric(true);
        let mut wired = rssd_core::WireRemote::new(server, rssd_net::LinkConfig::datacenter_10g());
        wired.store_segment(segments[0].clone(), 0).unwrap();
        assert_eq!(
            wired.store_segment(segments[2].clone(), 1),
            Err(RemoteError::ChainDiscontinuity {
                expected: segments[0].chain_head(),
                got: segments[2].prev_chain_head(),
            })
        );
        assert_eq!(wired.stats().offloads_refused, 0);
        assert_eq!(wired.transfer_stats().segments, 2);
        assert_eq!(wired.inner().report().segments_rejected, 1);
        assert_eq!(wired.stored_segments(), [segments[0].segment_seq()]);
    }

    #[test]
    fn server_detects_classic_ransomware_in_offloaded_log() {
        let mut d = device_over_server();
        // Victim data.
        for lpa in 0..100u64 {
            d.write_page(lpa, rssd_trace_page(lpa)).unwrap();
        }
        // Read-encrypt-overwrite everything with high-entropy data.
        for lpa in 0..100u64 {
            d.read_page(lpa).unwrap();
            d.write_page(lpa, cipher_page(lpa)).unwrap();
        }
        d.flush_log().unwrap();
        assert_eq!(
            d.remote().verdict(),
            Verdict::Ransomware,
            "report: {:?}",
            d.remote().report()
        );
    }

    // Low-entropy, text-like page.
    fn rssd_trace_page(seed: u64) -> Vec<u8> {
        let mut p = vec![b'a'; 4096];
        p[0] = seed as u8;
        p
    }

    // High-entropy pseudo-ciphertext page.
    fn cipher_page(seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
        while out.len() < 4096 {
            let mut z = x;
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out
    }

    /// Sealed segments from a real device (at least three), in chain order,
    /// to replay into a server by hand.
    fn sealed_segments() -> Vec<SegmentEnvelope> {
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        );
        for i in 0..40u64 {
            d.write_page(i % 4, vec![(i % 7) as u8; 4096]).unwrap();
        }
        d.flush_log().unwrap();
        let mut source = d.into_remote();
        let segments: Vec<SegmentEnvelope> = source
            .stored_segments()
            .into_iter()
            .map(|seq| source.fetch_segment(seq).unwrap())
            .collect();
        assert!(segments.len() >= 3);
        segments
    }

    #[test]
    fn unreadable_segment_is_refused_and_the_clean_resend_accepted() {
        let segments = sealed_segments();
        let clean = &segments[1];
        let seq = clean.segment_seq();
        // One bit of the last pre-image byte: nothing detection reads, but
        // under the tag like every other sealed byte.
        let mut payload = clean.sealed_payload().to_vec();
        let last = payload.len() - rssd_net::session::TAG_LEN - 1;
        payload[last] ^= 1;
        let damaged = |head, payload: &[u8]| {
            SegmentEnvelope::new(
                clean.device_id(),
                seq,
                clean.prev_chain_head(),
                head,
                clean.record_count(),
                payload,
            )
        };
        for (what, damaged) in [
            ("cannot authenticate", damaged(clean.chain_head(), &payload)),
            // The payload as sealed; only the header names another head —
            // which the tag covers.
            (
                "sees name another head than it was sealed behind",
                damaged(Digest::from_bytes([0xAB; 32]), clean.sealed_payload()),
            ),
        ] {
            let mut server = RemoteLogServer::datacenter(&keys());
            server.store_segment(segments[0].clone(), 0).unwrap();
            let (before, store_before) = (server.report(), server.store_stats());
            assert_eq!(
                server.store_segment(damaged, 0),
                Err(RemoteError::Unreadable {
                    segment_seq: seq,
                    cause: rssd_core::WireError::BadPayload,
                }),
                "a segment the server {what} must not be acked"
            );
            let refused = server.report();
            assert_eq!(refused.segments_rejected, before.segments_rejected + 1);
            assert_eq!(refused.segments_stored, before.segments_stored);
            assert_eq!(refused.records_analyzed, before.records_analyzed);
            assert!(!server.stored_segments().contains(&seq));
            assert_eq!(server.store_stats(), store_before, "nothing was put");

            // The chain head did not advance, so the device's retry — the
            // clean copy it still holds — and everything after it are accepted.
            for segment in &segments[1..] {
                server.store_segment(segment.clone(), 0).unwrap();
            }
            let done = server.report();
            assert_eq!(done.segments_stored, segments.len() as u64);
            assert_eq!(done.segments_rejected, before.segments_rejected + 1);
            assert!(done.records_analyzed > before.records_analyzed);
            assert_eq!(server.fetch_segment(seq).unwrap(), *clean);
        }
    }

    /// The log server's arm of the header enumeration (the store readers'
    /// is `rssd-core`'s `evidence::tests`): each of the 608 one-bit flips of
    /// header bytes 8‥84 of a segment is refused — counted, nothing stored —
    /// and the clean resend accepted; each of the 64 flips of bytes 0‥8
    /// (`device_id`, which the key binds) is accepted like the clean image.
    #[test]
    fn the_server_refuses_each_of_the_608_one_bit_flips_of_header_bytes_8_to_84() {
        let segments = sealed_segments();
        let clean = &segments[1];
        let mut server = RemoteLogServer::datacenter(&keys());
        server.store_segment(segments[0].clone(), 0).unwrap();
        for bit in 64..SegmentEnvelope::WIRE_HEADER * 8 {
            let mut wire = clean.wire().to_vec();
            wire[bit / 8] ^= 1 << (bit % 8);
            let flipped = SegmentEnvelope::from_wire_image(wire).unwrap();
            let (before, store_before) = (server.report(), server.store_stats());
            let refused = server.store_segment(flipped, 0);
            assert!(
                matches!(
                    refused,
                    Err(RemoteError::Unreadable { .. } | RemoteError::ChainDiscontinuity { .. })
                ),
                "bit {bit}: {refused:?}"
            );
            let after = ServerReport {
                segments_rejected: before.segments_rejected + 1,
                ..before
            };
            assert_eq!(server.report(), after, "bit {bit}");
            assert_eq!(
                server.store_stats(),
                store_before,
                "bit {bit}: nothing was put"
            );
        }
        assert_eq!(server.report().segments_rejected, 608);
        assert_eq!(server.stored_segments(), [segments[0].segment_seq()]);
        for segment in &segments[1..] {
            server.store_segment(segment.clone(), 0).unwrap();
        }
        let accepted = server.report();

        for bit in 0..64 {
            let mut wire = clean.wire().to_vec();
            wire[bit / 8] ^= 1 << (bit % 8);
            let mut server = RemoteLogServer::datacenter(&keys());
            server.store_segment(segments[0].clone(), 0).unwrap();
            let renamed = SegmentEnvelope::from_wire_image(wire).unwrap();
            server.store_segment(renamed, 0).expect("the key fits");
            for segment in &segments[2..] {
                server.store_segment(segment.clone(), 0).unwrap();
            }
            let report = ServerReport {
                segments_rejected: 0,
                ..accepted.clone()
            };
            assert_eq!(server.report(), report, "bit {bit}");
        }
    }

    /// The server vouches for what it opened, to a reader holding the keys
    /// it opened it under, and to no one else; in front of it the wire
    /// never vouches for a segment its edge relay answers, and a down link
    /// refuses the fetch as it refuses any other.
    #[test]
    fn the_server_vouches_to_its_own_keys_only_and_the_relay_never_does() {
        let segments = sealed_segments();
        let (first, second) = (segments[0].segment_seq(), segments[1].segment_seq());
        let session = SecureSession::new(&keys(), 0);
        let mut server = RemoteLogServer::datacenter(&keys());
        server.set_external_fabric(true);
        let mut wired = rssd_core::WireRemote::new(server, rssd_net::LinkConfig::datacenter_10g());
        wired.store_segment(segments[0].clone(), 0).unwrap();
        assert_eq!(
            wired.fetch_vouched(first, &session),
            Ok((segments[0].clone(), true))
        );

        // A server built from other keys, holding what a device with those
        // keys sealed, vouches nothing to this reader — nor does this
        // server to another epoch.
        let other_keys = DeviceKeys::for_simulation(RssdConfig::default().key_seed + 1);
        let mut other = RemoteLogServer::datacenter(&other_keys);
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                key_seed: RssdConfig::default().key_seed + 1,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        );
        d.write_page(0, vec![1; 4096]).unwrap();
        d.flush_log().unwrap();
        let mut theirs = d.into_remote();
        let seq = theirs.stored_segments()[0];
        other
            .store_segment(theirs.fetch_segment(seq).unwrap(), 0)
            .unwrap();
        assert_eq!(
            other.fetch_vouched(seq, &session).map(|(_, v)| v),
            Ok(false)
        );
        let own = SecureSession::new(&other_keys, 0);
        assert_eq!(other.fetch_vouched(seq, &own).map(|(_, v)| v), Ok(true));
        let epoch = SecureSession::new(&keys(), 1);
        let vouched = wired.fetch_vouched(first, &epoch);
        assert_eq!(vouched.map(|(_, v)| v), Ok(false));

        wired.set_uplink_down(true);
        wired.set_store_and_forward(true);
        wired.store_segment(segments[1].clone(), 1).unwrap();
        assert_eq!(wired.queued_segments(), 1);
        assert_eq!(
            wired.fetch_vouched(second, &session),
            Ok((segments[1].clone(), false)),
            "the relay's copy was opened by no store"
        );
        assert_eq!(
            wired.fetch_vouched(first, &session),
            Err(RemoteError::Unreachable)
        );
        assert_eq!(wired.heal(), 1);
        assert_eq!(
            wired.fetch_vouched(second, &session),
            Ok((segments[1].clone(), true)),
            "replayed, opened and stored"
        );
    }

    #[test]
    fn chain_discontinuity_rejected() {
        let segments = sealed_segments();
        let mut server = RemoteLogServer::datacenter(&keys());
        server.store_segment(segments[0].clone(), 0).unwrap();
        // Skipping a segment is a hole in the history.
        let err = server.store_segment(segments[2].clone(), 0).unwrap_err();
        assert!(matches!(err, RemoteError::ChainDiscontinuity { .. }));
        assert_eq!(server.report().segments_rejected, 1);
    }

    #[test]
    fn fetch_round_trips_envelope() {
        let segments = sealed_segments();
        let mut server = RemoteLogServer::datacenter(&keys());
        let seq = segments[0].segment_seq();
        server.store_segment(segments[0].clone(), 0).unwrap();
        assert_eq!(server.fetch_segment(seq).unwrap(), segments[0]);
        assert_eq!(server.stored_segments(), vec![seq]);
        assert!(matches!(
            server.fetch_segment(99),
            Err(RemoteError::NoSuchSegment(99))
        ));
    }

    #[test]
    fn loopback_and_server_agree_on_interface() {
        // Both targets drive the same device code path.
        let mut a = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig::default(),
            LoopbackTarget::new(),
        );
        let mut b = device_over_server();
        for i in 0..20u64 {
            a.write_page(i % 3, vec![i as u8; 4096]).unwrap();
            b.write_page(i % 3, vec![i as u8; 4096]).unwrap();
        }
        a.flush_log().unwrap();
        b.flush_log().unwrap();
        assert_eq!(a.recover_page(0).unwrap(), b.recover_page(0).unwrap());
    }
}
