//! The hardware-assisted log: its records.
//!
//! Every host-visible operation becomes a [`LogRecord`]. Records are chained
//! as they are appended — each record's canonical bytes,
//! [`LogRecord::chain_image`], absorbed into the HMAC that the sealing
//! segment's head finalizes — then sealed in batches into segments for
//! offload; [`crate::segment`] owns that format.
//!
//! Serialization is a hand-rolled binary format (no serde data format crate
//! is used in this workspace); every decoder is total — malformed input
//! yields [`WireError`], never a panic.

/// Operation class of a log record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LogOp {
    /// Host write that created a page version (may have invalidated an
    /// older one, in which case the old version is retained).
    Write,
    /// Host trim; the trimmed (old) version is retained.
    Trim,
    /// Host read (metadata only; evidence of read-before-encrypt).
    Read,
}

impl LogOp {
    fn id(self) -> u8 {
        match self {
            LogOp::Write => 1,
            LogOp::Trim => 2,
            LogOp::Read => 3,
        }
    }

    fn from_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(LogOp::Write),
            2 => Some(LogOp::Trim),
            3 => Some(LogOp::Read),
            _ => None,
        }
    }
}

/// One entry of the hardware-assisted log.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// Evidence-chain sequence number (total order of operations).
    pub seq: u64,
    /// Simulated time the operation was processed.
    pub at_ns: u64,
    /// Operation class.
    pub op: LogOp,
    /// Logical page touched.
    pub lpa: u64,
    /// Global page index of the invalidated (old) physical page, if any.
    pub old_page_index: Option<u64>,
    /// Entropy of the newly written payload, millibits/byte (writes only).
    pub entropy_mil: u16,
    /// Was this LPA read within the correlation window before the write?
    pub read_before: bool,
    /// Retained content of the old page version. `None` in everything this
    /// crate produces: the chain does not cover it (the segment MAC protects
    /// content instead), a segment carries it beside the records
    /// ([`SegmentBody::preimages`](crate::segment::SegmentBody)), and every
    /// history the device returns is metadata only — content comes back via
    /// `recover_page*` or a `RebuildImage`.
    pub old_data: Option<Vec<u8>>,
}

impl LogRecord {
    /// Entropy in bits/byte.
    pub fn entropy_bits(&self) -> f64 {
        f64::from(self.entropy_mil) / 1000.0
    }

    /// Size of [`LogRecord::chain_image`].
    pub const CHAIN_IMAGE_LEN: usize = 1 + 8 + 8 + 8 + 8 + 2 + 1;

    /// Canonical bytes covered by the evidence chain MAC, as a fixed-size
    /// image (no allocation — the chain walkers build one per record).
    /// Excludes `old_data` (see field docs).
    pub fn chain_image(&self) -> [u8; Self::CHAIN_IMAGE_LEN] {
        let mut out = [0u8; Self::CHAIN_IMAGE_LEN];
        out[0] = self.op.id();
        out[1..9].copy_from_slice(&self.seq.to_le_bytes());
        out[9..17].copy_from_slice(&self.at_ns.to_le_bytes());
        out[17..25].copy_from_slice(&self.lpa.to_le_bytes());
        out[25..33].copy_from_slice(&self.old_page_index.unwrap_or(u64::MAX).to_le_bytes());
        out[33..35].copy_from_slice(&self.entropy_mil.to_le_bytes());
        out[35] = u8::from(self.read_before);
        out
    }

    /// [`LogRecord::chain_image`] as a vector.
    pub fn chain_bytes(&self) -> Vec<u8> {
        self.chain_image().to_vec()
    }

    /// Decodes a [`LogRecord::chain_image`] back into the record it was taken
    /// from, metadata only.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownOp`] on an unknown operation class.
    pub(crate) fn from_chain_image(image: &[u8; Self::CHAIN_IMAGE_LEN]) -> Result<Self, WireError> {
        let old_raw = u64::from_le_bytes(image[25..33].try_into().expect("8"));
        Ok(LogRecord {
            op: LogOp::from_id(image[0]).ok_or(WireError::UnknownOp(image[0]))?,
            seq: u64::from_le_bytes(image[1..9].try_into().expect("8")),
            at_ns: u64::from_le_bytes(image[9..17].try_into().expect("8")),
            lpa: u64::from_le_bytes(image[17..25].try_into().expect("8")),
            old_page_index: (old_raw != u64::MAX).then_some(old_raw),
            entropy_mil: u16::from_le_bytes(image[33..35].try_into().expect("2")),
            read_before: image[35] != 0,
            old_data: None,
        })
    }
}

/// Wire decoding errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the encoding requires.
    Truncated,
    /// Unknown [`LogOp`] id.
    UnknownOp(u8),
    /// Segment payload failed to authenticate or decompress, or carries
    /// bytes its own lengths do not account for.
    BadPayload,
    /// The segment's plaintext header names a sequence or record count
    /// other than what its authenticated payload holds.
    HeaderMismatch,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated log encoding"),
            WireError::UnknownOp(id) => write!(f, "unknown log op id {id}"),
            WireError::BadPayload => write!(f, "segment payload undecodable"),
            WireError::HeaderMismatch => {
                write!(f, "segment header disagrees with its authenticated payload")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    //! Most of these drive [`crate::segment`] — through `seal` and the door —
    //! and stay here under the names they have always had.

    use super::*;
    use crate::segment::{OpenDepth, SegmentBody, SegmentEnvelope};
    use rssd_crypto::{ChainKey, DeviceKeys, Digest, HashChain};
    use rssd_net::SecureSession;
    use rssd_obs::ProfilerHandle;

    const SEQ: u64 = 9;

    /// Records, the chain head they reach from zero and, beside them, each
    /// record's share of the pre-image buffer and the buffer.
    type Batch = (Vec<LogRecord>, Digest, Vec<Option<u32>>, Vec<u8>);

    fn record(seq: u64) -> LogRecord {
        LogRecord {
            seq,
            at_ns: 123_456 + seq,
            op: LogOp::Write,
            lpa: 42 + seq,
            old_page_index: Some(7),
            entropy_mil: 7900,
            read_before: true,
            old_data: None,
        }
    }

    fn session() -> SecureSession {
        SecureSession::new(&DeviceKeys::for_simulation(5), 0)
    }

    /// `n` chained records, every other one carrying a 64-byte pre-image.
    fn batch(n: u64) -> Batch {
        let mut chain = HashChain::new(b"k");
        let records: Vec<LogRecord> = (0..n).map(record).collect();
        for r in &records {
            chain.absorb(&r.chain_image());
        }
        let retained_len = (0..n).map(|i| (i % 2 == 0).then_some(64)).collect();
        let preimages = (0..n).step_by(2).flat_map(|i| [0xA0 + i as u8; 64]);
        (records, chain.head(), retained_len, preimages.collect())
    }

    fn seal(batch: &Batch) -> SegmentEnvelope {
        let body = SegmentBody {
            records: &batch.0,
            chain_head: batch.1,
            retained_len: &batch.2,
            preimages: &batch.3,
        };
        let profiler = ProfilerHandle::disabled();
        SegmentEnvelope::seal(&session(), &profiler, 1, SEQ, Digest::ZERO, body).0
    }

    /// The metadata block of `batch`, serialized by hand.
    fn serialize((records, _, retained_len, _): &Batch) -> Vec<u8> {
        let mut metadata = SEQ.to_le_bytes().to_vec();
        metadata.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for (record, len) in records.iter().zip(retained_len) {
            metadata.extend_from_slice(&record.chain_image());
            metadata.extend_from_slice(&len.unwrap_or(u32::MAX).to_le_bytes());
        }
        metadata
    }

    /// `metadata` and `region` as the two frames of segment [`SEQ`], sealed
    /// under a valid tag behind the header an honest seal of `count` records
    /// ending at `head` would carry.
    fn compose(metadata: &[u8], region: &[u8], head: Digest, count: u32) -> SegmentEnvelope {
        let frame = rssd_compress::compress_adaptive(metadata);
        let mut plain = (frame.len() as u32).to_le_bytes().to_vec();
        plain.extend_from_slice(&frame);
        plain.extend_from_slice(&rssd_compress::compress_adaptive(region));
        SegmentEnvelope::seal_plaintext(&session(), 1, SEQ, Digest::ZERO, head, count, &plain)
    }

    #[test]
    fn chain_bytes_stable_under_data_attachment() {
        let bare = record(5);
        let full = LogRecord {
            old_data: Some(vec![0xAB; 64]),
            ..record(5)
        };
        assert_eq!(bare.chain_bytes(), full.chain_bytes());
        assert_eq!(LogRecord::from_chain_image(&full.chain_image()), Ok(bare));
    }

    #[test]
    fn record_rejects_unknown_op() {
        let mut image = record(5).chain_image();
        image[0] = 77;
        assert_eq!(
            LogRecord::from_chain_image(&image),
            Err(WireError::UnknownOp(77))
        );
        // ... and so does the door, of a segment that holds such a record.
        let honest = batch(2);
        let mut metadata = serialize(&honest);
        metadata[12] = 77;
        let forged = compose(&metadata, &honest.3, honest.1, 2);
        for depth in [OpenDepth::Metadata, OpenDepth::Full] {
            assert_eq!(
                forged.open(&session(), depth),
                Err(WireError::UnknownOp(77))
            );
        }
    }

    #[test]
    fn entropy_scaling() {
        assert!((record(0).entropy_bits() - 7.9).abs() < 1e-9);
    }

    #[test]
    fn segment_round_trip() {
        let sealed = batch(5);
        let envelope = seal(&sealed);
        assert_eq!(envelope.segment_seq(), SEQ);
        assert_eq!(envelope.record_count(), 5);
        assert_eq!(envelope.chain_head(), sealed.1);
        let opened = envelope.open(&session(), OpenDepth::Full).unwrap();
        assert_eq!(opened.records(), sealed.0);
        assert_eq!(opened.retained_len(), sealed.2);
        let preimages = opened.into_preimages();
        for (record, content) in sealed.0.iter().step_by(2).zip(sealed.3.chunks(64)) {
            assert_eq!(preimages.get(record.seq), Some(content));
        }
        assert_eq!(preimages.get(sealed.0[1].seq), None);
        // An empty segment ends where it began.
        let empty = seal(&batch(0));
        assert_eq!(empty.chain_head(), empty.prev_chain_head());
        let opened = empty.open(&session(), OpenDepth::Full).unwrap();
        assert!(opened.records().is_empty());
    }

    #[test]
    fn metadata_block_parses_alone_to_the_same_metadata() {
        let sealed = batch(5);
        let envelope = seal(&sealed);
        let full = envelope.open(&session(), OpenDepth::Full).unwrap();
        let metadata = envelope.open(&session(), OpenDepth::Metadata).unwrap();
        assert_eq!(metadata.records(), full.records());
        assert_eq!(metadata.retained_len(), full.retained_len());
        assert_eq!(metadata.retained_len(), sealed.2);
        assert_eq!(
            metadata.raw_len(),
            serialize(&sealed).len() + sealed.3.len()
        );
        assert_eq!(full.raw_len(), metadata.raw_len());
        // A metadata open deciphered no content to hand out.
        let (full, metadata) = (full.into_preimages(), metadata.into_preimages());
        assert_eq!(full.get(0), Some(&[0xA0; 64][..]));
        assert_eq!(metadata.get(0), None);
    }

    #[test]
    fn segment_rejects_truncation() {
        let sealed = batch(1);
        let head = sealed.1;
        let (metadata, region) = (serialize(&sealed), sealed.3.clone());
        let both = [OpenDepth::Metadata, OpenDepth::Full];
        assert!(compose(&metadata, &region, head, 1)
            .open(&session(), OpenDepth::Full)
            .is_ok());
        for cut in 0..metadata.len() {
            let torn = compose(&metadata[..cut], &region, head, 1);
            for depth in both {
                assert_eq!(
                    torn.open(&session(), depth),
                    Err(WireError::Truncated),
                    "metadata block cut at {cut}"
                );
            }
        }
        for cut in 0..region.len() {
            let torn = compose(&metadata, &region[..cut], head, 1);
            assert_eq!(
                torn.open(&session(), OpenDepth::Full),
                Err(WireError::Truncated),
                "pre-image region cut at {cut}"
            );
            // A metadata open never looks that far.
            assert!(torn.open(&session(), OpenDepth::Metadata).is_ok());
        }
        // Each region takes exactly its own bytes.
        let mut longer = metadata.clone();
        longer.push(0);
        for depth in both {
            let padded = compose(&longer, &region, head, 1);
            assert_eq!(padded.open(&session(), depth), Err(WireError::BadPayload));
        }
        let mut longer = region.clone();
        longer.push(0);
        let padded = compose(&metadata, &longer, head, 1);
        assert_eq!(
            padded.open(&session(), OpenDepth::Full),
            Err(WireError::BadPayload)
        );
    }

    #[test]
    fn hostile_counts_and_lengths_are_typed_errors_not_allocations() {
        let sealed = batch(3);
        let head = sealed.1;
        let (metadata, region) = (serialize(&sealed), sealed.3.clone());
        // A record count the block cannot hold.
        let mut lying = metadata.clone();
        lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        for depth in [OpenDepth::Metadata, OpenDepth::Full] {
            let envelope = compose(&lying, &region, head, u32::MAX);
            assert_eq!(envelope.open(&session(), depth), Err(WireError::Truncated));
        }
        // Content lengths that sum past the pre-image region ...
        let len_at = 12 + LogRecord::CHAIN_IMAGE_LEN;
        let mut lying = metadata.clone();
        lying[len_at..len_at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        assert_eq!(
            compose(&lying, &region, head, 3).open(&session(), OpenDepth::Full),
            Err(WireError::Truncated)
        );
        // ... or short of it.
        let mut lying = metadata;
        lying[len_at..len_at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            compose(&lying, &region, head, 3).open(&session(), OpenDepth::Full),
            Err(WireError::BadPayload)
        );
    }

    /// The decoded records, chained under the key from the header's
    /// `prev_chain_head`, reach its `chain_head`; with any record edited,
    /// dropped or two swapped they reach another head.
    #[test]
    fn decoded_records_chain_to_the_header_head() {
        let envelope = seal(&batch(4));
        let opened = envelope.open(&session(), OpenDepth::Metadata).unwrap();
        let key = ChainKey::new(b"k");
        let images: Vec<_> = opened
            .records()
            .iter()
            .map(LogRecord::chain_image)
            .collect();
        assert!(
            opened.chain_images().eq(&images),
            "the block stores the images"
        );
        let start = envelope.prev_chain_head();
        assert_eq!(key.head_after(start, &images), envelope.chain_head());
        let mut edited = images.clone();
        edited[1][0] ^= 1;
        let mut swapped = images.clone();
        swapped.swap(1, 2);
        let dropped = [&images[..1], &images[2..]].concat();
        for damaged in [edited, swapped, dropped] {
            assert_ne!(key.head_after(start, &damaged), envelope.chain_head());
        }
    }

    /// The layout that stored a link per record behind the entries is
    /// refused with a typed error, even sealed under a valid tag.
    #[test]
    fn the_layout_with_stored_links_is_a_typed_error() {
        let sealed = batch(3);
        let mut chain = HashChain::new(b"k");
        let mut with_links = serialize(&sealed);
        for record in &sealed.0 {
            let link = chain.append(&record.chain_image());
            with_links.extend_from_slice(&link.seq.to_le_bytes());
            with_links.extend_from_slice(link.tag.as_bytes());
        }
        let old = compose(&with_links, &sealed.3, sealed.1, 3);
        for depth in [OpenDepth::Metadata, OpenDepth::Full] {
            assert_eq!(old.open(&session(), depth), Err(WireError::BadPayload));
        }
    }

    #[test]
    fn envelope_wire_round_trip() {
        let envelope = SegmentEnvelope::new(
            7,
            42,
            Digest::from_bytes([0xAA; 32]),
            Digest::from_bytes([0xBB; 32]),
            9,
            &[1, 2, 3, 4, 5],
        );
        assert_eq!(envelope.device_id(), 7);
        assert_eq!(envelope.segment_seq(), 42);
        assert_eq!(envelope.prev_chain_head(), Digest::from_bytes([0xAA; 32]));
        assert_eq!(envelope.chain_head(), Digest::from_bytes([0xBB; 32]));
        assert_eq!(envelope.record_count(), 9);
        assert_eq!(envelope.sealed_payload(), &[1, 2, 3, 4, 5]);
        let wire = envelope.to_wire_bytes();
        assert_eq!(wire.len(), envelope.wire_bytes());
        assert_eq!(SegmentEnvelope::from_wire_image(wire).unwrap(), envelope);
    }

    #[test]
    fn envelope_clone_and_wire_share_the_image() {
        let envelope = SegmentEnvelope::new(1, 2, Digest::ZERO, Digest::ZERO, 3, &[9; 100]);
        let wire = envelope.to_wire_bytes();
        assert_eq!(
            wire.as_ref().as_ptr(),
            envelope.wire().as_ref().as_ptr(),
            "to_wire_bytes must be a refcount bump, not a copy"
        );
        let clone = envelope.clone();
        assert_eq!(
            clone.wire().as_ref().as_ptr(),
            envelope.wire().as_ref().as_ptr(),
            "clone must share the wire image"
        );
    }

    #[test]
    fn envelope_zero_copy_assembly_matches_new() {
        // What `seal` assembled in one buffer is what `new` builds around
        // the same sealed payload under the same header fields.
        let sealed = seal(&batch(4));
        let rebuilt = SegmentEnvelope::new(
            sealed.device_id(),
            sealed.segment_seq(),
            sealed.prev_chain_head(),
            sealed.chain_head(),
            sealed.record_count(),
            sealed.sealed_payload(),
        );
        assert_eq!(rebuilt, sealed);
        assert_eq!(rebuilt.wire_bytes(), sealed.wire_bytes());
    }

    #[test]
    fn envelope_wire_rejects_short_input() {
        assert!(
            SegmentEnvelope::from_wire_image(&[0u8; SegmentEnvelope::WIRE_HEADER - 1][..])
                .is_none()
        );
        let empty = SegmentEnvelope::new(
            0,
            0,
            Digest::from_bytes([0; 32]),
            Digest::from_bytes([0; 32]),
            0,
            &[],
        );
        // A header with no payload is the minimum valid envelope.
        let decoded = SegmentEnvelope::from_wire_image(empty.to_wire_bytes()).unwrap();
        assert!(decoded.sealed_payload().is_empty());
    }
}
