//! Property tests for the sealed-segment wire format — through its one
//! writer and its one door — and the offload round trip.

use proptest::prelude::*;
use rssd_core::{
    LogOp, LogRecord, LoopbackTarget, OpenDepth, RebuildImage, RemoteError, RemoteTarget,
    RssdConfig, RssdDevice, SegmentBody, SegmentEnvelope, StoreAck, WireError,
};
use rssd_crypto::{ChainLink, DeviceKeys, Digest, HashChain, Sha256};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_net::SecureSession;
use rssd_obs::ProfilerHandle;
use rssd_ssd::BlockDevice;
use std::collections::BTreeMap;

/// What one segment seals: records, their links, and beside them the
/// pre-images — back to back in one buffer, with each record's share of it.
#[derive(Clone, Debug)]
struct Batch {
    records: Vec<LogRecord>,
    links: Vec<ChainLink>,
    retained_len: Vec<Option<u32>>,
    preimages: Vec<u8>,
}

impl Batch {
    /// Appends `records` to `chain` (renumbered as it numbers them);
    /// `contents[i]` is what record `i` retains.
    fn chained(
        mut chain: HashChain,
        mut records: Vec<LogRecord>,
        contents: &[Option<Vec<u8>>],
    ) -> Self {
        for (record, seq) in records.iter_mut().zip(chain.next_seq()..) {
            record.seq = seq;
        }
        let links = records
            .iter()
            .map(|r| chain.append(&r.chain_image()))
            .collect();
        Batch {
            records,
            links,
            retained_len: contents
                .iter()
                .map(|content| content.as_ref().map(|d| d.len() as u32))
                .collect(),
            preimages: contents.iter().flatten().flatten().copied().collect(),
        }
    }

    fn body(&self) -> SegmentBody<'_> {
        SegmentBody {
            records: &self.records,
            links: &self.links,
            retained_len: &self.retained_len,
            preimages: &self.preimages,
        }
    }

    /// Per record, the content it retains: its share of the buffer.
    fn contents(&self) -> impl Iterator<Item = Option<&[u8]>> {
        let mut rest = &self.preimages[..];
        self.retained_len.iter().map(move |len| {
            let (content, behind) = rest.split_at((*len)? as usize);
            rest = behind;
            Some(content)
        })
    }

    /// The chain head a segment of this batch ends at, begun at `prev`.
    fn head(&self, prev: Digest) -> Digest {
        self.links.last().map_or(prev, |link| link.tag)
    }

    fn seal(&self, session: &SecureSession, segment_seq: u64) -> SegmentEnvelope {
        let profiler = ProfilerHandle::disabled();
        SegmentEnvelope::seal(
            session,
            &profiler,
            1,
            segment_seq,
            Digest::ZERO,
            self.body(),
        )
        .0
    }

    /// The reference serialization of the metadata block, composed naively.
    fn metadata(&self, segment_seq: u64) -> Vec<u8> {
        let mut metadata = segment_seq.to_le_bytes().to_vec();
        metadata.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for (record, len) in self.records.iter().zip(&self.retained_len) {
            metadata.extend_from_slice(&record.chain_bytes());
            metadata.extend_from_slice(&len.unwrap_or(u32::MAX).to_le_bytes());
        }
        for link in &self.links {
            metadata.extend_from_slice(&link.seq.to_le_bytes());
            metadata.extend_from_slice(link.tag.as_bytes());
        }
        metadata
    }

    /// ... and the sealed plaintext over it: `[len | frame | frame]`.
    fn plaintext(&self, segment_seq: u64) -> Vec<u8> {
        let frame = rssd_compress::compress_adaptive(&self.metadata(segment_seq));
        let mut plaintext = (frame.len() as u32).to_le_bytes().to_vec();
        plaintext.extend_from_slice(&frame);
        plaintext.extend_from_slice(&rssd_compress::compress_adaptive(&self.preimages));
        plaintext
    }

    /// `plaintext` sealed as the payload of `segment_seq`, behind the header
    /// an honest seal of this batch carries.
    fn envelope_of(
        &self,
        session: &SecureSession,
        segment_seq: u64,
        plaintext: &[u8],
    ) -> SegmentEnvelope {
        SegmentEnvelope::new(
            1,
            segment_seq,
            Digest::ZERO,
            self.head(Digest::ZERO),
            self.records.len() as u32,
            &session.seal(segment_seq, plaintext),
        )
    }
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        any::<u64>(),
        prop_oneof![Just(LogOp::Write), Just(LogOp::Trim), Just(LogOp::Read)],
        any::<u64>(),
        proptest::option::of(any::<u64>().prop_map(|v| v % (u64::MAX - 1))),
        any::<u16>(),
        any::<bool>(),
    )
        .prop_map(
            |(at_ns, op, lpa, old_page_index, entropy_mil, read_before)| LogRecord {
                seq: 0,
                at_ns,
                op,
                lpa,
                old_page_index,
                entropy_mil,
                read_before,
                old_data: None,
            },
        )
}

fn arb_batch(max_records: usize) -> impl Strategy<Value = Batch> {
    let preimage = proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256));
    (
        proptest::collection::vec((arb_record(), preimage), 0..max_records),
        0..u64::MAX / 2,
    )
        .prop_map(|(records, first_seq)| {
            let (records, contents): (_, Vec<_>) = records.into_iter().unzip();
            Batch::chained(prop_chain(first_seq), records, &contents)
        })
}

/// The property chain, about to number its next record `next_seq`.
fn prop_chain(next_seq: u64) -> HashChain {
    HashChain::resume(b"prop-key", Digest::ZERO, next_seq)
}

fn session(seed: u64) -> SecureSession {
    SecureSession::new(&DeviceKeys::for_simulation(seed), 0)
}

const DEPTHS: [OpenDepth; 2] = [OpenDepth::Metadata, OpenDepth::Full];

proptest! {
    /// The door is total: bytes from anywhere — as a whole wire image, as
    /// the sealed plaintext, as the metadata block inside a well-formed
    /// frame — open to a typed answer, never a panic.
    #[test]
    fn segment_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let session = session(3);
        let frame = rssd_compress::compress_adaptive(&bytes);
        let mut framed = (frame.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&frame);
        framed.extend_from_slice(&rssd_compress::compress_adaptive(&bytes));
        let honest = Batch::chained(prop_chain(0), Vec::new(), &[]);
        let under_a_valid_tag = [&bytes, &framed].map(|plain| honest.envelope_of(&session, 7, plain));
        let envelopes = SegmentEnvelope::from_wire_image(bytes.clone()).into_iter().chain(under_a_valid_tag);
        for envelope in envelopes {
            for depth in DEPTHS {
                let _ = envelope.open(&session, depth);
            }
        }
    }

    /// `seal` ∘ `open` is the identity on (records, links, pre-images), and
    /// what comes back still verifies as a chain.
    #[test]
    fn segment_round_trip_with_verified_links(batch in arb_batch(20), seed in any::<u64>(), segment_seq in any::<u64>()) {
        let session = session(seed);
        let envelope = batch.seal(&session, segment_seq);
        prop_assert_eq!(envelope.segment_seq(), segment_seq);
        prop_assert_eq!(envelope.record_count() as usize, batch.records.len());
        prop_assert_eq!(envelope.chain_head(), batch.head(Digest::ZERO));
        for depth in DEPTHS {
            let opened = envelope.open(&session, depth).expect("self-sealed payload opens");
            prop_assert_eq!(opened.records(), &batch.records[..]);
            prop_assert_eq!(opened.links(), &batch.links[..]);
            let inputs: Vec<Vec<u8>> = opened.records().iter().map(|r| r.chain_bytes()).collect();
            prop_assert!(HashChain::verify_sequence(b"prop-key", &inputs, opened.links()).is_ok());
            prop_assert_eq!(opened.retained_len(), &batch.retained_len[..]);
            let preimages = opened.into_preimages();
            for (record, content) in batch.records.iter().zip(batch.contents()) {
                if depth == OpenDepth::Full {
                    prop_assert_eq!(preimages.get(record.seq), content);
                }
            }
        }
    }

    #[test]
    fn chain_bytes_independent_of_old_data(record in arb_record(), data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut with = record.clone();
        with.old_data = Some(data);
        let mut without = record;
        without.old_data = None;
        prop_assert_eq!(with.chain_bytes(), without.chain_bytes());
    }

    /// The zero-copy writer (header written first, both frames compressed
    /// into the same buffer, sealed in place, buffer adopted as the
    /// envelope's wire image) must be byte-identical to the naive compose
    /// path (serialize, compress, seal, copy into an envelope) — same sealed
    /// bytes, same wire image, same decoded envelope.
    #[test]
    fn zero_copy_assembly_is_byte_identical_to_naive_compose(
        batch in arb_batch(12),
        seed in any::<u64>(),
        segment_seq in any::<u64>(),
        device_id in any::<u64>(),
        prev_byte in any::<u8>(),
    ) {
        let session = session(seed);
        let prev = Digest::from_bytes([prev_byte; 32]);

        // Naive compose: each stage allocates and copies.
        let sealed = session.seal(segment_seq, &batch.plaintext(segment_seq));
        let count = batch.records.len() as u32;
        let naive = SegmentEnvelope::new(device_id, segment_seq, prev, batch.head(prev), count, &sealed);

        let profiler = ProfilerHandle::disabled();
        let (zero_copy, raw_len) =
            SegmentEnvelope::seal(&session, &profiler, device_id, segment_seq, prev, batch.body());

        prop_assert_eq!(zero_copy.sealed_payload(), naive.sealed_payload());
        prop_assert_eq!(&zero_copy.to_wire_bytes(), &naive.to_wire_bytes());
        prop_assert_eq!(&zero_copy, &naive);
        prop_assert_eq!(raw_len, batch.metadata(segment_seq).len() + batch.preimages.len());
        for depth in DEPTHS {
            prop_assert_eq!(naive.open(&session, depth).map(|opened| opened.raw_len()), Ok(raw_len));
        }
    }

    /// A metadata open is a full open minus the pre-images: the same
    /// records, content lengths, chain links and accounted length, and no
    /// content.
    #[test]
    fn metadata_open_agrees_with_full_open(batch in arb_batch(20), seed in any::<u64>()) {
        let session = session(seed);
        let envelope = batch.seal(&session, 11);
        let full = envelope.open(&session, OpenDepth::Full).unwrap();
        let metadata = envelope.open(&session, OpenDepth::Metadata).unwrap();

        prop_assert_eq!(metadata.records(), full.records());
        prop_assert_eq!(metadata.links(), full.links());
        prop_assert_eq!(metadata.retained_len(), full.retained_len());
        prop_assert_eq!(metadata.raw_len(), full.raw_len());
        prop_assert_eq!(metadata.retained_len(), &batch.retained_len[..]);
        let (full, metadata) = (full.into_preimages(), metadata.into_preimages());
        for (record, content) in batch.records.iter().zip(batch.contents()) {
            prop_assert_eq!(full.get(record.seq), content);
            // A zero-length pre-image is all a metadata open can hand out.
            prop_assert!(metadata.get(record.seq).map_or(true, <[u8]>::is_empty));
        }
    }

    /// Torn or hostile sealed payloads — correctly keyed or not — come back
    /// as typed errors at either depth: never a panic.
    #[test]
    fn hostile_sealed_payloads_are_typed_errors(
        batch in arb_batch(4),
        seq in any::<u64>(),
        flip in any::<u32>(),
        lie in any::<u32>(),
    ) {
        let session = session(3);
        let plaintext = batch.plaintext(seq);
        let metadata_end = 4 + u32::from_le_bytes(plaintext[..4].try_into().unwrap()) as usize;
        let honest = batch.seal(&session, seq).open(&session, OpenDepth::Metadata);

        // Every truncation of both frames, under a valid tag (a device that
        // lost power mid-assembly, say). The metadata reader never looks
        // past the first frame; the full reader needs both whole.
        for cut in 0..plaintext.len() {
            let torn = batch.envelope_of(&session, seq, &plaintext[..cut]);
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
                prop_assert_eq!(&metadata, &honest);
            }
        }

        // A frame length past the payload.
        let mut overlong = plaintext.clone();
        let past = (plaintext.len() as u32 - 3).saturating_add(lie % 1024);
        overlong[..4].copy_from_slice(&past.to_le_bytes());
        let mut unbounded = plaintext.clone();
        unbounded[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        for plaintext in [&overlong, &unbounded] {
            let envelope = batch.envelope_of(&session, seq, plaintext);
            for depth in DEPTHS {
                prop_assert_eq!(envelope.open(&session, depth), Err(WireError::Truncated));
            }
        }

        // A record count, or content lengths, the frames cannot hold:
        // well-formed frames around a lying metadata block. (Lying content
        // lengths a metadata reader never follows.)
        let (metadata, region) = (batch.metadata(seq), &batch.preimages);
        let mut big_count = metadata.clone();
        big_count[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut lying = vec![(big_count, &DEPTHS[..])];
        if !batch.records.is_empty() {
            let mut long_content = metadata.clone();
            long_content[12 + 36..12 + 40].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
            lying.push((long_content, &DEPTHS[1..]));
        }
        for (metadata, depths) in &lying {
            let mut plaintext = (metadata.len() as u32 + 5).to_le_bytes().to_vec();
            plaintext.extend_from_slice(&rssd_compress::compress(rssd_compress::Codec::Store, metadata));
            plaintext.extend_from_slice(&rssd_compress::compress_adaptive(region));
            let envelope = batch.envelope_of(&session, seq, &plaintext);
            for &depth in *depths {
                prop_assert_eq!(envelope.open(&session, depth), Err(WireError::Truncated));
            }
        }

        // One bit flipped anywhere in the sealed payload — the length, either
        // frame, the tag — or a cut without re-sealing: the tag check fails
        // before anything is deciphered, whatever the depth.
        let clean = batch.envelope_of(&session, seq, &plaintext);
        let mut sealed = clean.sealed_payload().to_vec();
        let bit = flip as usize % (sealed.len() * 8);
        sealed[bit / 8] ^= 1 << (bit % 8);
        let cut = &clean.sealed_payload()[..flip as usize % clean.sealed_payload().len()];
        for sealed in [&sealed[..], cut] {
            let envelope = SegmentEnvelope::new(1, seq, Digest::ZERO, Digest::ZERO, 0, sealed);
            for depth in DEPTHS {
                prop_assert_eq!(envelope.open(&session, depth), Err(WireError::BadPayload));
            }
        }
    }

    /// `verified_history` — a metadata walk — returns exactly the records a
    /// full open of every stored segment yields.
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
            let opened = envelope.open(&session, OpenDepth::Full).unwrap();
            contents += opened.retained_len().iter().flatten().count();
            walked.extend_from_slice(opened.records());
        }
        prop_assert_eq!(&history, &walked);
        prop_assert_eq!(contents as u64, device.offload_stats().retained_pages_offloaded);
    }
}

/// The five kinds of record a segment carries, sealed under fixed keys: the
/// wire image is, byte for byte, what the parent of the PR that gave the
/// format one writer produced (`golden/sealed_segment.txt` was captured
/// there, through the code `SegmentEnvelope::seal` replaced).
#[test]
fn the_sealed_wire_image_is_the_golden_one_byte_for_byte() {
    let keys = DeviceKeys::for_simulation(24);
    let prev = Digest::from_bytes([0x5A; 32]);
    let chain_key = keys.derive(rssd_crypto::KeyPurpose::EvidenceChain, 0);
    let chain = HashChain::resume(&chain_key, prev, 100);
    let text = b"the quick brown fox jumps over the lazy dog. ";
    let mut noise = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    while noise.len() < 4096 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        noise.extend_from_slice(&x.to_le_bytes());
    }
    #[rustfmt::skip]
    let batch = [
        // a write with a pre-image, a fresh write, a read, a trim, a
        // high-entropy overwrite of what had been read
        (LogOp::Write, 10, Some(77), 3100, false, Some(text.iter().copied().cycle().take(4096).collect())),
        (LogOp::Write, 11, None,     4200, false, None),
        (LogOp::Read,  10, None,     0,    false, None),
        (LogOp::Trim,  12, Some(90), 0,    false, Some(vec![0; 4096])),
        (LogOp::Write, 10, Some(78), 7990, true,  Some(noise)),
    ];
    let (records, contents): (Vec<LogRecord>, Vec<Option<Vec<u8>>>) = batch
        .into_iter()
        .zip(0u64..)
        .map(
            |((op, lpa, old_page_index, entropy_mil, read_before, content), i)| {
                let record = LogRecord {
                    seq: 100 + i,
                    at_ns: 1_000_000 + 250 * i,
                    op,
                    lpa,
                    old_page_index,
                    entropy_mil,
                    read_before,
                    old_data: None,
                };
                (record, content)
            },
        )
        .unzip();
    let batch = Batch::chained(chain, records, &contents);
    let session = SecureSession::new(&keys, 0);
    let profiler = ProfilerHandle::disabled();
    let (envelope, raw_len) = SegmentEnvelope::seal(&session, &profiler, 7, 3, prev, batch.body());
    assert_eq!(raw_len, 12 + 5 * 80 + 3 * 4096);
    assert_eq!(envelope.chain_head(), batch.head(prev));
    let image = format!(
        "len {}\nsha256 {}\n",
        envelope.wire_bytes(),
        Sha256::digest(envelope.wire())
    );
    assert_eq!(image, include_str!("golden/sealed_segment.txt"));
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

/// A device whose whole history — `writes` of them over eight pages, so
/// every segment carries retained pre-images — is flushed to its [`Shelf`].
fn shelved_device(writes: u64) -> RssdDevice<Shelf> {
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
    for i in 0..writes {
        let fill = ((i / 8) ^ (i % 8)) as u8;
        device.write_page(i % 8, vec![fill; 4096]).unwrap();
    }
    device.flush_log().unwrap();
    device
}

/// The header sits outside the sealed payload, so nothing authenticates it
/// but the door: a header naming any head other than its segment's last
/// link is refused by every reader, at that segment, and an honest store
/// still walks to the head the device holds.
#[test]
fn forged_header_head_is_refused_by_every_reader() {
    let mut honest = shelved_device(32);
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
        let mut device = shelved_device(32);
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

// The 608 header flips against every store reader are enumerated in
// `rssd-core`'s `evidence::tests`, at one worker and at two: the worker
// count is a crate-private parameter an integration test cannot pass.

/// `device_id` is the one header field the payload cannot vouch for — it is
/// not in it. What binds a segment to its device is the key: sealed under
/// one device's keys, it opens under no other's, whatever id the header
/// names.
#[test]
fn a_segment_opens_only_under_its_own_devices_keys_whatever_id_the_header_names() {
    let (ours, theirs) = (session(1), session(2));
    let batch = Batch::chained(prop_chain(0), vec![], &[]);
    let profiler = ProfilerHandle::disabled();
    for named in [1, 2] {
        let (sealed, _) =
            SegmentEnvelope::seal(&theirs, &profiler, named, 0, Digest::ZERO, batch.body());
        for depth in DEPTHS {
            assert_eq!(sealed.open(&ours, depth), Err(WireError::BadPayload));
            assert!(sealed.open(&theirs, depth).is_ok());
        }
    }
}
