//! Property tests for the log wire formats and the offload round trip.

use proptest::prelude::*;
use rssd_core::{
    LogOp, LogRecord, LoopbackTarget, OpenDepth, RebuildImage, RemoteError, RemoteTarget,
    RssdConfig, RssdDevice, Segment, SegmentEnvelope, SegmentView, StoreAck, WireError,
};
use rssd_crypto::{ChainLink, DeviceKeys, Digest, HashChain};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_net::SecureSession;
use rssd_ssd::BlockDevice;
use std::collections::BTreeMap;

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        prop_oneof![Just(LogOp::Write), Just(LogOp::Trim), Just(LogOp::Read)],
        any::<u64>(),
        proptest::option::of(any::<u64>().prop_map(|v| v % (u64::MAX - 1))),
        any::<u16>(),
        any::<bool>(),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
    )
        .prop_map(
            |(seq, at_ns, op, lpa, old_page_index, entropy_mil, read_before, old_data)| LogRecord {
                seq,
                at_ns,
                op,
                lpa,
                old_page_index,
                entropy_mil,
                read_before,
                old_data,
            },
        )
}

fn arb_segment(max_records: usize) -> impl Strategy<Value = Segment> {
    (
        proptest::collection::vec(arb_record(), 0..max_records),
        any::<u64>(),
    )
        .prop_map(|(records, segment_seq)| {
            let mut chain = HashChain::new(b"prop-key");
            let links = records
                .iter()
                .map(|r| chain.append(&r.chain_image()))
                .collect();
            Segment {
                segment_seq,
                records,
                links,
            }
        })
}

/// An envelope around `plaintext` sealed as the payload of `segment_seq`.
fn envelope_of(session: &SecureSession, segment_seq: u64, plaintext: &[u8]) -> SegmentEnvelope {
    let sealed = session.seal(segment_seq, plaintext);
    SegmentEnvelope::new(1, segment_seq, Digest::ZERO, Digest::ZERO, 0, &sealed)
}

proptest! {
    #[test]
    fn record_round_trip(record in arb_record()) {
        let bytes = record.to_bytes();
        let (decoded, used) = LogRecord::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded, record);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn record_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = LogRecord::from_bytes(&bytes);
    }

    #[test]
    fn segment_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = Segment::from_bytes(&bytes);
    }

    #[test]
    fn segment_round_trip_with_verified_links(records in proptest::collection::vec(arb_record(), 0..20)) {
        let mut chain = HashChain::new(b"prop-key");
        let links: Vec<ChainLink> = records.iter().map(|r| chain.append(&r.chain_bytes())).collect();
        let seg = Segment { segment_seq: 7, records, links };
        let decoded = Segment::from_bytes(&seg.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &seg);

        let inputs: Vec<Vec<u8>> = decoded.records.iter().map(|r| r.chain_bytes()).collect();
        prop_assert!(HashChain::verify_sequence(b"prop-key", &inputs, &decoded.links).is_ok());
    }

    #[test]
    fn chain_bytes_independent_of_old_data(record in arb_record(), data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut with = record.clone();
        with.old_data = Some(data);
        let mut without = record;
        without.old_data = None;
        prop_assert_eq!(with.chain_bytes(), without.chain_bytes());
    }

    /// The zero-copy offload pipeline (header written first, payload
    /// compressed into the same buffer, sealed in place, buffer adopted as
    /// the envelope's wire image) must be byte-identical to the naive
    /// compose path (serialize, compress, seal, copy into an envelope) —
    /// same sealed bytes, same wire image, same decoded envelope, and the
    /// same records back out.
    #[test]
    fn zero_copy_assembly_is_byte_identical_to_naive_compose(
        records in proptest::collection::vec(arb_record(), 0..12),
        seed in any::<u64>(),
        segment_seq in any::<u64>(),
        device_id in any::<u64>(),
        prev_byte in any::<u8>(),
        head_byte in any::<u8>(),
    ) {
        let keys = DeviceKeys::for_simulation(seed);
        let session = SecureSession::new(&keys, 0);
        let mut chain = HashChain::new(b"prop-key");
        let links: Vec<ChainLink> =
            records.iter().map(|r| chain.append(&r.chain_bytes())).collect();
        let record_count = records.len() as u32;
        let segment = Segment { segment_seq, records, links };
        let raw = segment.to_bytes();
        let prev = Digest::from_bytes([prev_byte; 32]);
        let head = Digest::from_bytes([head_byte; 32]);

        // Naive compose: each stage allocates and copies.
        let mut plaintext = Vec::new();
        Segment::compress_into(&raw, &mut plaintext);
        let sealed = session.seal(segment_seq, &plaintext);
        let naive =
            SegmentEnvelope::new(device_id, segment_seq, prev, head, record_count, &sealed);

        // Zero-copy: one buffer from header to sealed payload.
        let mut wire = Vec::new();
        SegmentEnvelope::write_wire_header(
            &mut wire, device_id, segment_seq, &prev, &head, record_count,
        );
        Segment::compress_into(&raw, &mut wire);
        session.seal_in_place(segment_seq, &mut wire, SegmentEnvelope::WIRE_HEADER);
        let zero_copy = SegmentEnvelope::from_wire_image(wire).unwrap();

        prop_assert_eq!(zero_copy.sealed_payload(), naive.sealed_payload());
        prop_assert_eq!(&zero_copy.to_wire_bytes(), &naive.to_wire_bytes());
        prop_assert_eq!(&zero_copy, &naive);

        // The sealed image opens back to the exact bytes and records that
        // went in.
        let opened = zero_copy.open(&session, OpenDepth::Full).expect("self-sealed payload opens");
        prop_assert_eq!(&opened, &raw);
        prop_assert_eq!(Segment::from_bytes(&opened).unwrap(), segment);
    }

    /// A metadata open reads what a full open reads of every record —
    /// metadata, content length, chain link — and none of the content.
    #[test]
    fn metadata_open_agrees_with_full_open(segment in arb_segment(20), seed in any::<u64>()) {
        let session = SecureSession::new(&DeviceKeys::for_simulation(seed), 0);
        let mut plaintext = Vec::new();
        Segment::compress_into(&segment.to_bytes(), &mut plaintext);
        let envelope = envelope_of(&session, segment.segment_seq, &plaintext);

        let raw = envelope.open(&session, OpenDepth::Full).unwrap();
        let full = SegmentView::parse(&raw, OpenDepth::Full).unwrap();
        let block = envelope.open(&session, OpenDepth::Metadata).unwrap();
        prop_assert_eq!(&block[..], &raw[..block.len()]);
        let metadata = SegmentView::parse(&block, OpenDepth::Metadata).unwrap();

        prop_assert_eq!(metadata.segment_seq, segment.segment_seq);
        prop_assert_eq!(&metadata.links, &segment.links);
        prop_assert_eq!(&metadata.links, &full.links);
        prop_assert_eq!(metadata.records.len(), segment.records.len());
        for ((m, f), owned) in metadata.records.iter().zip(&full.records).zip(&segment.records) {
            prop_assert_eq!(&m.meta, &f.meta);
            prop_assert_eq!(m.retained_len, f.retained_len);
            prop_assert_eq!(m.retained_len, owned.old_data.as_ref().map(|d| d.len() as u32));
            prop_assert_eq!(m.old_data, None);
            prop_assert_eq!(f.old_data, owned.old_data.as_deref());
        }
        prop_assert_eq!(full.into_owned(), segment);
    }

    /// Torn or hostile sealed payloads — correctly keyed or not — come back
    /// as typed errors at either depth: never a panic, never a buffer larger
    /// than what the honest payload decodes to.
    #[test]
    fn hostile_sealed_payloads_are_typed_errors(
        segment in arb_segment(4),
        flip in any::<u32>(),
        lie in any::<u32>(),
    ) {
        let session = SecureSession::new(&DeviceKeys::for_simulation(3), 0);
        let seq = segment.segment_seq;
        let raw = segment.to_bytes();
        let mut plaintext = Vec::new();
        Segment::compress_into(&raw, &mut plaintext);
        let metadata_end = 4 + u32::from_le_bytes(plaintext[..4].try_into().unwrap()) as usize;
        let depths = [OpenDepth::Metadata, OpenDepth::Full];

        // Every truncation of both frames, under a valid tag (a device that
        // lost power mid-assembly, say). The metadata reader never looks
        // past the first frame; the full reader needs both whole.
        for cut in 0..plaintext.len() {
            let torn = envelope_of(&session, seq, &plaintext[..cut]);
            let full = torn.open(&session, OpenDepth::Full);
            prop_assert!(
                matches!(full, Err(WireError::Truncated | WireError::BadPayload)),
                "full open of a payload cut at {}: {:?}", cut, full
            );
            let metadata = torn.open(&session, OpenDepth::Metadata);
            if cut < metadata_end {
                prop_assert!(
                    matches!(metadata, Err(WireError::Truncated | WireError::BadPayload)),
                    "metadata open of a payload cut at {}: {:?}", cut, metadata
                );
            } else {
                prop_assert_eq!(metadata.as_deref(), Ok(&raw[..metadata.as_ref().unwrap().len()]));
            }
        }

        // A frame length past the payload.
        let mut overlong = plaintext.clone();
        let past = (plaintext.len() as u32 - 3).saturating_add(lie % 1024);
        overlong[..4].copy_from_slice(&past.to_le_bytes());
        let mut unbounded = plaintext.clone();
        unbounded[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        for plaintext in [&overlong, &unbounded] {
            let envelope = envelope_of(&session, seq, plaintext);
            for depth in depths {
                prop_assert_eq!(envelope.open(&session, depth), Err(WireError::Truncated));
            }
        }

        // A record count, or content lengths, the frames cannot hold:
        // well-formed frames around a lying metadata block.
        let mut big_count = raw.clone();
        big_count[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut lying = vec![big_count];
        if !segment.records.is_empty() {
            let mut long_content = raw.clone();
            long_content[12 + 36..12 + 40].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
            lying.push(long_content);
        }
        let (_, preimages) = raw.split_at(12 + 80 * segment.records.len());
        for raw in &lying {
            let metadata = &raw[..raw.len() - preimages.len()];
            let mut plaintext = (metadata.len() as u32 + 5).to_le_bytes().to_vec();
            plaintext.extend_from_slice(&rssd_compress::compress(rssd_compress::Codec::Store, metadata));
            plaintext.extend_from_slice(&rssd_compress::compress_adaptive(preimages));
            let envelope = envelope_of(&session, seq, &plaintext);
            let opened = envelope.open(&session, OpenDepth::Full).expect("frames are well formed");
            prop_assert!(opened.capacity() <= 2 * raw.len() + 64);
            prop_assert_eq!(SegmentView::parse(&opened, OpenDepth::Full), Err(WireError::Truncated));
        }
        // (A lying count fails a metadata reader the same way; lying content
        // lengths it never follows.)
        let envelope = envelope_of(&session, seq, &{
            let mut plaintext = (lying[0].len() as u32 + 5).to_le_bytes().to_vec();
            plaintext.extend_from_slice(&rssd_compress::compress(rssd_compress::Codec::Store, &lying[0]));
            plaintext
        });
        let opened = envelope.open(&session, OpenDepth::Metadata).expect("frame is well formed");
        prop_assert_eq!(SegmentView::parse(&opened, OpenDepth::Metadata), Err(WireError::Truncated));

        // One bit flipped anywhere in the sealed payload — the length, either
        // frame, the tag — or a cut without re-sealing: the tag check fails
        // before anything is deciphered, whatever the depth.
        let clean = envelope_of(&session, seq, &plaintext);
        let mut sealed = clean.sealed_payload().to_vec();
        let bit = flip as usize % (sealed.len() * 8);
        sealed[bit / 8] ^= 1 << (bit % 8);
        let cut = &clean.sealed_payload()[..flip as usize % clean.sealed_payload().len()];
        for sealed in [&sealed[..], cut] {
            let envelope = SegmentEnvelope::new(1, seq, Digest::ZERO, Digest::ZERO, 0, sealed);
            for depth in depths {
                prop_assert_eq!(envelope.open(&session, depth), Err(WireError::BadPayload));
            }
        }
    }

    /// `verified_history` — a metadata walk — returns exactly the records a
    /// full open of every stored segment yields, pre-images stripped.
    #[test]
    fn verified_history_is_the_full_walk_with_the_content_stripped(
        ops in proptest::collection::vec((0u64..12, any::<u8>(), 0u8..8), 1..120),
    ) {
        let mut device = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig { segment_pages: 4, ..RssdConfig::default() },
            LoopbackTarget::new(),
        );
        for (lpa, byte, kind) in ops {
            match kind {
                0 => { device.trim_page(lpa).unwrap(); }
                1 | 2 => { let _ = device.read_page(lpa); }
                _ => device.write_page(lpa, vec![byte; 4096]).unwrap(),
            }
        }
        device.flush_log().unwrap();
        let history = device.verified_history().expect("clean history verifies");
        prop_assert_eq!(&device.audit_history().records, &history);

        let session = SecureSession::new(&device.escrow_keys(), 0);
        let mut walked = Vec::new();
        let mut contents = 0usize;
        for seq in device.remote().stored_segments() {
            let envelope = device.remote_mut().fetch_segment(seq).unwrap();
            let raw = envelope.open(&session, OpenDepth::Full).unwrap();
            for mut record in Segment::from_bytes(&raw).unwrap().records {
                contents += usize::from(record.old_data.take().is_some());
                walked.push(record);
            }
        }
        prop_assert_eq!(&history, &walked);
        prop_assert_eq!(contents as u64, device.offload_stats().retained_pages_offloaded);
    }

    #[test]
    fn truncated_records_always_rejected(record in arb_record()) {
        let bytes = record.to_bytes();
        // Any strict prefix must fail cleanly (never decode to a different
        // record of the same length).
        for cut in 0..bytes.len() {
            prop_assert!(LogRecord::from_bytes(&bytes[..cut]).is_err() ||
                // A prefix may decode if the record has trailing old_data
                // bytes the prefix drops — but then the consumed length must
                // differ from the original.
                LogRecord::from_bytes(&bytes[..cut]).unwrap().1 < bytes.len());
        }
    }
}

#[test]
fn chain_head_commits_to_every_prior_record() {
    let mut a = HashChain::new(b"k");
    let mut b = HashChain::new(b"k");
    for i in 0..10u64 {
        a.append(&i.to_le_bytes());
        // b diverges at record 5.
        let v = if i == 5 { 99 } else { i };
        b.append(&v.to_le_bytes());
    }
    assert_ne!(a.head(), b.head());
}

#[test]
fn digest_zero_is_distinct_from_any_real_tag() {
    let mut chain = HashChain::new(b"k");
    let link = chain.append(b"x");
    assert_ne!(link.tag, Digest::ZERO);
}

/// A store that keeps whatever it is handed — a collector the adversary
/// controls — and lets a test rewrite a stored header.
#[derive(Default)]
struct Shelf(BTreeMap<u64, SegmentEnvelope>);

impl RemoteTarget for Shelf {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        let segment_seq = envelope.segment_seq();
        self.0.insert(segment_seq, envelope);
        Ok(StoreAck {
            segment_seq,
            durable_at_ns: now_ns,
        })
    }

    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
        let stored = self.0.get(&segment_seq).cloned();
        stored.ok_or(RemoteError::NoSuchSegment(segment_seq))
    }

    fn stored_segments(&self) -> Vec<u64> {
        self.0.keys().copied().collect()
    }
}

impl Shelf {
    /// Rewrites the header's `chain_head` of stored segment `seq` and
    /// nothing else: previous head and sealed payload stay as sealed.
    fn forge_head(&mut self, seq: u64) {
        let honest = &self.0[&seq];
        let forged = SegmentEnvelope::new(
            honest.device_id(),
            seq,
            honest.prev_chain_head(),
            Digest::from_bytes([0xAB; 32]),
            honest.record_count(),
            honest.sealed_payload(),
        );
        self.0.insert(seq, forged);
    }
}

/// A device whose whole history — overwrites, so every segment carries
/// retained pre-images — is flushed to its [`Shelf`].
fn shelved_device() -> RssdDevice<Shelf> {
    let mut device = RssdDevice::new(
        FlashGeometry::small_test(),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 4,
            ..RssdConfig::default()
        },
        Shelf::default(),
    );
    for round in 0..4u8 {
        for lpa in 0..8u64 {
            device
                .write_page(lpa, vec![round ^ lpa as u8; 4096])
                .unwrap();
        }
    }
    device.flush_log().unwrap();
    device
}

/// The header sits outside the sealed payload, so nothing authenticates it
/// but the walk: a header naming any head other than its segment's last
/// link is refused by every reader, at that segment, and an honest store
/// still walks to the head the device holds.
#[test]
fn forged_header_head_is_refused_by_every_reader() {
    let mut honest = shelved_device();
    let keys = honest.escrow_keys();
    let stored = honest.remote().stored_segments();
    assert!(stored.len() >= 3, "need a middle segment: {stored:?}");
    let history = honest.verified_history().expect("honest store verifies");
    let head = honest.chain_head();
    let image = RebuildImage::harvest(&keys, honest.remote_mut()).expect("honest store harvests");
    assert_eq!(image.report().segments, stored.len() as u64);
    assert_eq!(image.report().records, history.len() as u64);
    let _ = honest.crash();
    let recovery = honest.recover().expect("honest store recovers");
    assert_eq!(recovery.segments_walked, stored.len() as u64);
    assert_eq!(recovery.records_indexed, history.len() as u64);
    assert_eq!(recovery.versions_indexed, image.report().versions);
    assert_eq!(
        honest.chain_head(),
        head,
        "recovery resumes at the same head"
    );

    for seq in [stored[stored.len() / 2], stored[stored.len() - 1]] {
        let named = format!("segment {seq}:");
        let mut device = shelved_device();
        device.remote_mut().forge_head(seq);

        let refused = RebuildImage::harvest(&keys, device.remote_mut()).map(|image| image.report());
        assert!(
            refused.as_ref().is_err_and(|e| e.contains(&named)),
            "harvest over a forged head at {seq}: {refused:?}"
        );
        let audit = device.audit_history();
        assert!(!audit.verified, "audit over a forged head at {seq}");
        assert!(
            audit.failure.as_ref().is_some_and(|f| f.contains(&named)),
            "the audit names the segment: {:?}",
            audit.failure
        );
        assert!(
            audit.records.len() < history.len() && history.starts_with(&audit.records),
            "only the verified prefix is evidence"
        );
        assert!(device.verified_history().is_err());
        let _ = device.crash();
        let refused = device.recover();
        assert!(
            refused.as_ref().is_err_and(|e| e.contains(&named)),
            "recover over a forged head at {seq}: {refused:?}"
        );
    }
}
