//! The hardware-assisted log: records, segments, and their wire format.
//!
//! Every host-visible operation becomes a [`LogRecord`]. Records are chained
//! (HMAC over the previous tag and the record's canonical bytes) as they are
//! appended, then packed into [`Segment`]s for offload. A [`SegmentEnvelope`]
//! is what actually crosses the NVMe-oE wire: plaintext routing metadata
//! (sequence numbers, chain heads for continuity verification) around a
//! compressed, encrypted, MAC'd payload.
//!
//! Serialization is a hand-rolled binary format (no serde data format crate
//! is used in this workspace); every decoder is total — malformed input
//! yields [`WireError`], never a panic.

use bytes::Bytes;
use rssd_crypto::{ChainLink, Digest};
use rssd_net::SecureSession;
use serde::{Deserialize, Serialize};

/// Operation class of a log record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
    /// Retained content of the old page version. Absent in the in-device
    /// chain (integrity of content is protected by the segment MAC instead)
    /// and in every history the device returns — those are metadata only;
    /// content comes back via `recover_page*` or a `RebuildImage`. Attached
    /// only while the record is packed for offload, and by a full open of a
    /// sealed segment ([`OpenDepth::Full`]).
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
    /// Excludes `old_data` (see field docs) so the tag is stable whether or
    /// not the content has been attached yet.
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

    /// Standalone encoding of one record: its 40-byte metadata entry (chain
    /// image, then the content's length as a `u32`, `u32::MAX` for none)
    /// followed by the content.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(RecordView::ENTRY_LEN + self.old_data.as_ref().map_or(0, Vec::len));
        self.write_entry(&mut out);
        out.extend_from_slice(self.old_data.as_deref().unwrap_or_default());
        out
    }

    /// Appends the record's metadata entry to `out`.
    fn write_entry(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.chain_image());
        let retained_len = self.old_data.as_ref().map_or(u32::MAX, |d| d.len() as u32);
        out.extend_from_slice(&retained_len.to_le_bytes());
    }

    /// Decodes one record from the front of `data`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or unknown fields.
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), WireError> {
        if data.len() < RecordView::ENTRY_LEN {
            return Err(WireError::Truncated);
        }
        let (entry, rest) = data.split_at(RecordView::ENTRY_LEN);
        let mut view = RecordView::parse_entry(entry)?;
        let len = view.retained_len.map_or(0, |len| len as usize);
        let content = rest.get(..len).ok_or(WireError::Truncated)?;
        view.old_data = view.retained_len.map(|_| content);
        Ok((view.into_owned(), RecordView::ENTRY_LEN + len))
    }
}

/// One log record decoded in place: the metadata by value, the retained
/// pre-image — when the reader opened the segment that far — still borrowed
/// from the bytes it was parsed from. Consumers that only read metadata
/// (the history walks, detection, the crash-recovery index) never decipher,
/// decompress or copy a pre-image; those that keep the content copy it once.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordView<'a> {
    /// Every field but the content; `meta.old_data` is always `None`.
    pub meta: LogRecord,
    /// Length of the retained content the record carries in its segment's
    /// pre-image region, if it carries one.
    pub retained_len: Option<u32>,
    /// The retained content of the old page version: `Some` exactly when the
    /// record carries one *and* the segment was opened in full
    /// ([`OpenDepth::Full`]).
    pub old_data: Option<&'a [u8]>,
}

impl RecordView<'_> {
    /// Size of one record's entry in a segment's metadata block: the chain
    /// image and a `u32` content length (`u32::MAX`: no content).
    pub const ENTRY_LEN: usize = LogRecord::CHAIN_IMAGE_LEN + 4;

    /// Decodes one [`Self::ENTRY_LEN`]-byte metadata entry.
    fn parse_entry(entry: &[u8]) -> Result<RecordView<'static>, WireError> {
        debug_assert_eq!(entry.len(), Self::ENTRY_LEN);
        let op = LogOp::from_id(entry[0]).ok_or(WireError::UnknownOp(entry[0]))?;
        let seq = u64::from_le_bytes(entry[1..9].try_into().expect("8"));
        let at_ns = u64::from_le_bytes(entry[9..17].try_into().expect("8"));
        let lpa = u64::from_le_bytes(entry[17..25].try_into().expect("8"));
        let old_raw = u64::from_le_bytes(entry[25..33].try_into().expect("8"));
        let entropy_mil = u16::from_le_bytes(entry[33..35].try_into().expect("2"));
        let read_before = entry[35] != 0;
        let len_raw = u32::from_le_bytes(entry[36..40].try_into().expect("4"));
        Ok(RecordView {
            meta: LogRecord {
                seq,
                at_ns,
                op,
                lpa,
                old_page_index: (old_raw != u64::MAX).then_some(old_raw),
                entropy_mil,
                read_before,
                old_data: None,
            },
            retained_len: (len_raw != u32::MAX).then_some(len_raw),
            old_data: None,
        })
    }

    /// The owned record: metadata plus a copy of the content.
    pub fn into_owned(self) -> LogRecord {
        LogRecord {
            old_data: self.old_data.map(<[u8]>::to_vec),
            ..self.meta
        }
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
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated log encoding"),
            WireError::UnknownOp(id) => write!(f, "unknown log op id {id}"),
            WireError::BadPayload => write!(f, "segment payload undecodable"),
        }
    }
}

impl std::error::Error for WireError {}

/// How far a reader opens a sealed segment. Either way the one HMAC tag is
/// verified over *every* sealed byte first; the depth decides how much is
/// then deciphered, decompressed and parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenDepth {
    /// The metadata block only — record metadata, content lengths and chain
    /// links, 80 bytes a record. What the evidence walks read.
    Metadata,
    /// The metadata block and the pre-images behind it. What restores and
    /// rebuilds read.
    Full,
}

/// A batch of consecutive log records plus their chain links, as packed for
/// offload.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Monotone per-device segment number.
    pub segment_seq: u64,
    /// Records in chain order.
    pub records: Vec<LogRecord>,
    /// Chain links, one per record.
    pub links: Vec<ChainLink>,
}

impl Segment {
    /// Serialized size of one chain link: `seq u64 | tag 32 B`.
    const LINK_LEN: usize = 8 + 32;

    /// Size of the metadata block that leads a serialized segment of
    /// `count` records: `segment_seq u64 | count u32`, one
    /// [`RecordView::ENTRY_LEN`]-byte entry per record, one
    /// [`Self::LINK_LEN`]-byte chain link per record.
    const fn metadata_len(count: usize) -> usize {
        12 + count * (RecordView::ENTRY_LEN + Self::LINK_LEN)
    }

    /// Serializes the segment, metadata first: the metadata block (see
    /// `metadata_len`), then every retained pre-image back to back in
    /// record order — one exactly sized buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        Self::serialize(self.segment_seq, &self.records, &self.links)
    }

    /// [`Segment::to_bytes`] over borrowed parts: the offload engine seals
    /// its pending batch without assembling an owned `Segment`.
    pub(crate) fn serialize(
        segment_seq: u64,
        records: &[LogRecord],
        links: &[ChainLink],
    ) -> Vec<u8> {
        let len = Self::metadata_len(records.len())
            + records
                .iter()
                .map(|r| r.old_data.as_ref().map_or(0, Vec::len))
                .sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&segment_seq.to_le_bytes());
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for r in records {
            r.write_entry(&mut out);
        }
        for l in links {
            out.extend_from_slice(&l.seq.to_le_bytes());
            out.extend_from_slice(l.tag.as_bytes());
        }
        for data in records.iter().filter_map(|r| r.old_data.as_deref()) {
            out.extend_from_slice(data);
        }
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Appends to `out` the plaintext a sealed payload carries for `raw`, a
    /// segment serialized by [`Segment::to_bytes`]: the metadata block and
    /// the pre-images as two [`rssd_compress::compress_adaptive`] frames,
    /// the first behind its `u32` length — `[len | metadata frame |
    /// pre-image frame]` — so a reader can stop after the first.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is shorter than the metadata block its own record
    /// count announces (it did not come from [`Segment::to_bytes`]).
    pub fn compress_into(raw: &[u8], out: &mut Vec<u8>) {
        let count = u32::from_le_bytes(raw[8..12].try_into().expect("4")) as usize;
        let (metadata, preimages) = raw.split_at(Self::metadata_len(count));
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]);
        rssd_compress::compress_adaptive_into(metadata, out);
        let frame_len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&frame_len.to_le_bytes());
        rssd_compress::compress_adaptive_into(preimages, out);
    }

    /// Decodes a segment serialized by [`Segment::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input.
    pub fn from_bytes(data: &[u8]) -> Result<Self, WireError> {
        SegmentView::parse(data, OpenDepth::Full).map(SegmentView::into_owned)
    }
}

/// A [`Segment`] decoded in place: record metadata and links by value, the
/// pre-images — under [`OpenDepth::Full`] — borrowed from the serialized
/// bytes (see [`RecordView`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentView<'a> {
    /// Monotone per-device segment number.
    pub segment_seq: u64,
    /// Records in chain order.
    pub records: Vec<RecordView<'a>>,
    /// Chain links, one per record.
    pub links: Vec<ChainLink>,
}

impl<'a> SegmentView<'a> {
    /// Decodes what [`SegmentEnvelope::open`] returned at the same `depth`:
    /// the whole serialization [`Segment::to_bytes`] produces
    /// ([`OpenDepth::Full`]) or its metadata block alone
    /// ([`OpenDepth::Metadata`], every `old_data` left `None`).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when `data` is shorter than its record count
    /// and content lengths require, [`WireError::BadPayload`] when it is
    /// longer, [`WireError::UnknownOp`] on an unknown record class.
    pub fn parse(data: &'a [u8], depth: OpenDepth) -> Result<Self, WireError> {
        if data.len() < 12 {
            return Err(WireError::Truncated);
        }
        let segment_seq = u64::from_le_bytes(data[..8].try_into().expect("8"));
        let count = u32::from_le_bytes(data[8..12].try_into().expect("4")) as usize;
        // A count the bytes cannot possibly hold is malformed input (and
        // must not drive preallocation).
        if count > (data.len() - 12) / (RecordView::ENTRY_LEN + Segment::LINK_LEN) {
            return Err(WireError::Truncated);
        }
        let (metadata, mut preimages) = data.split_at(Segment::metadata_len(count));
        let (entries, link_bytes) = metadata[12..].split_at(count * RecordView::ENTRY_LEN);
        let mut records = Vec::with_capacity(count);
        for entry in entries.chunks_exact(RecordView::ENTRY_LEN) {
            let mut record = RecordView::parse_entry(entry)?;
            if let (OpenDepth::Full, Some(len)) = (depth, record.retained_len) {
                if preimages.len() < len as usize {
                    return Err(WireError::Truncated);
                }
                let (content, rest) = preimages.split_at(len as usize);
                record.old_data = Some(content);
                preimages = rest;
            }
            records.push(record);
        }
        if !preimages.is_empty() {
            return Err(WireError::BadPayload);
        }
        let links = link_bytes
            .chunks_exact(Segment::LINK_LEN)
            .map(|link| ChainLink {
                seq: u64::from_le_bytes(link[..8].try_into().expect("8")),
                tag: Digest::from_bytes(link[8..].try_into().expect("32")),
            })
            .collect();
        Ok(SegmentView {
            segment_seq,
            records,
            links,
        })
    }

    /// The owned segment: every pre-image copied out.
    pub fn into_owned(self) -> Segment {
        Segment {
            segment_seq: self.segment_seq,
            records: self
                .records
                .into_iter()
                .map(RecordView::into_owned)
                .collect(),
            links: self.links,
        }
    }
}

/// What crosses the wire: plaintext routing/continuity metadata around the
/// sealed payload.
///
/// Backed by its own canonical wire image — one reference-counted buffer
/// `[84-byte header | sealed payload]` built exactly once at seal time.
/// Construction *is* serialization: [`SegmentEnvelope::to_wire_bytes`] and
/// `clone()` are refcount bumps, and [`SegmentEnvelope::from_wire_image`]
/// adopts a received buffer without copying. Field reads decode from the
/// header in place (a few little-endian loads).
#[derive(Clone, PartialEq, Eq)]
pub struct SegmentEnvelope {
    /// The canonical wire encoding. Invariant: at least
    /// [`SegmentEnvelope::WIRE_HEADER`] bytes long.
    wire: Bytes,
}

impl SegmentEnvelope {
    /// Fixed header size of the canonical wire encoding:
    /// `device_id (8) + segment_seq (8) + prev_chain_head (32) +
    /// chain_head (32) + record_count (4)`.
    pub const WIRE_HEADER: usize = 8 + 8 + 32 + 32 + 4;

    /// Builds an envelope from its parts, serializing header + payload into
    /// one buffer. For the zero-copy path, assemble the buffer yourself with
    /// [`SegmentEnvelope::write_wire_header`] and adopt it via
    /// [`SegmentEnvelope::from_wire_image`].
    pub fn new(
        device_id: u64,
        segment_seq: u64,
        prev_chain_head: Digest,
        chain_head: Digest,
        record_count: u32,
        sealed_payload: &[u8],
    ) -> SegmentEnvelope {
        let mut out = Vec::with_capacity(Self::WIRE_HEADER + sealed_payload.len());
        Self::write_wire_header(
            &mut out,
            device_id,
            segment_seq,
            &prev_chain_head,
            &chain_head,
            record_count,
        );
        out.extend_from_slice(sealed_payload);
        SegmentEnvelope {
            wire: Bytes::from(out),
        }
    }

    /// Appends the canonical 84-byte envelope header to `out`. The offload
    /// engine writes this first, compresses and seals the payload in place
    /// after it, then adopts the finished buffer with
    /// [`SegmentEnvelope::from_wire_image`] — the single serialization point
    /// of the whole offload path.
    pub fn write_wire_header(
        out: &mut Vec<u8>,
        device_id: u64,
        segment_seq: u64,
        prev_chain_head: &Digest,
        chain_head: &Digest,
        record_count: u32,
    ) {
        out.reserve(Self::WIRE_HEADER);
        out.extend_from_slice(&device_id.to_le_bytes());
        out.extend_from_slice(&segment_seq.to_le_bytes());
        out.extend_from_slice(prev_chain_head.as_bytes());
        out.extend_from_slice(chain_head.as_bytes());
        out.extend_from_slice(&record_count.to_le_bytes());
    }

    /// Adopts a fully assembled wire image (header + sealed payload) without
    /// copying — the seal path's last step and the receive path's first.
    /// Returns `None` if shorter than [`SegmentEnvelope::WIRE_HEADER`]. The
    /// sealed payload is *not* authenticated here — tampering is caught by
    /// the secure session's MAC when the payload is opened.
    pub fn from_wire_image(wire: impl Into<Bytes>) -> Option<SegmentEnvelope> {
        let wire = wire.into();
        (wire.len() >= Self::WIRE_HEADER).then_some(SegmentEnvelope { wire })
    }

    /// Originating device.
    pub fn device_id(&self) -> u64 {
        u64::from_le_bytes(self.wire[..8].try_into().expect("8"))
    }

    /// Segment number (also the seal nonce input).
    pub fn segment_seq(&self) -> u64 {
        u64::from_le_bytes(self.wire[8..16].try_into().expect("8"))
    }

    /// Evidence-chain head *before* this segment's first record.
    pub fn prev_chain_head(&self) -> Digest {
        Digest::from_bytes(self.wire[16..48].try_into().expect("32"))
    }

    /// Evidence-chain head after this segment's last record.
    pub fn chain_head(&self) -> Digest {
        Digest::from_bytes(self.wire[48..80].try_into().expect("32"))
    }

    /// Number of records inside.
    pub fn record_count(&self) -> u32 {
        u32::from_le_bytes(self.wire[80..84].try_into().expect("4"))
    }

    /// compress → encrypt → MAC output.
    pub fn sealed_payload(&self) -> &[u8] {
        &self.wire[Self::WIRE_HEADER..]
    }

    /// Opens the sealed payload to `depth` and returns the plaintext for
    /// [`SegmentView::parse`] at the same depth. The tag is verified over
    /// every sealed byte whatever the depth — a bit flipped in a pre-image
    /// fails a metadata open too; [`OpenDepth::Metadata`] then deciphers and
    /// decompresses the metadata frame alone, [`OpenDepth::Full`] both
    /// frames, back to back into the one buffer.
    ///
    /// # Errors
    ///
    /// [`WireError::BadPayload`] when the payload fails authentication or a
    /// frame fails to decompress, [`WireError::Truncated`] when it is too
    /// short for the frame length it announces.
    pub fn open(&self, session: &SecureSession, depth: OpenDepth) -> Result<Vec<u8>, WireError> {
        let authenticated = session
            .verify(self.segment_seq(), self.sealed_payload())
            .map_err(|_| WireError::BadPayload)?;
        let decipher = |len: usize| {
            authenticated
                .decipher_prefix(len)
                .map_err(|_| WireError::Truncated)
        };
        // Plaintext: `[u32 metadata frame length | metadata frame |
        // pre-image frame]` (see `Segment::compress_into`).
        let metadata_end = |plain: &[u8]| {
            let len = plain.get(..4).ok_or(WireError::Truncated)?;
            (u32::from_le_bytes(len.try_into().expect("4")) as usize)
                .checked_add(4)
                .filter(|end| *end <= authenticated.len())
                .ok_or(WireError::Truncated)
        };
        let mut raw = Vec::new();
        match depth {
            OpenDepth::Metadata => {
                let plain = decipher(metadata_end(&decipher(4)?)?)?;
                rssd_compress::decompress_into(&plain[4..], &mut raw)
            }
            OpenDepth::Full => {
                let plain = decipher(authenticated.len())?;
                let (metadata, preimages) = plain.split_at(metadata_end(&plain)?);
                rssd_compress::decompress_into(&metadata[4..], &mut raw)
                    .and_then(|()| rssd_compress::decompress_into(preimages, &mut raw))
            }
        }
        .map_err(|_| WireError::BadPayload)?;
        Ok(raw)
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.wire.len()
    }

    /// Canonical wire encoding: the [`SegmentEnvelope::WIRE_HEADER`] fields
    /// little-endian, followed by the sealed payload. This is the byte
    /// stream that NVMe-oE capsules fragment and carry — both `WireRemote`
    /// on the device side and the remote log server speak exactly this.
    /// A refcount bump: the envelope *is* its wire image.
    pub fn to_wire_bytes(&self) -> Bytes {
        self.wire.clone()
    }

    /// Borrows the wire image.
    pub fn wire(&self) -> &Bytes {
        &self.wire
    }
}

impl std::fmt::Debug for SegmentEnvelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentEnvelope")
            .field("device_id", &self.device_id())
            .field("segment_seq", &self.segment_seq())
            .field("prev_chain_head", &self.prev_chain_head())
            .field("chain_head", &self.chain_head())
            .field("record_count", &self.record_count())
            .field("sealed_len", &self.sealed_payload().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_crypto::HashChain;

    fn record(seq: u64, with_data: bool) -> LogRecord {
        LogRecord {
            seq,
            at_ns: 123_456 + seq,
            op: LogOp::Write,
            lpa: 42 + seq,
            old_page_index: Some(7),
            entropy_mil: 7900,
            read_before: true,
            old_data: with_data.then(|| vec![0xAB; 64]),
        }
    }

    #[test]
    fn record_round_trip_with_and_without_data() {
        for with_data in [false, true] {
            let r = record(5, with_data);
            let bytes = r.to_bytes();
            let (decoded, used) = LogRecord::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, r);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn chain_bytes_stable_under_data_attachment() {
        let bare = record(5, false);
        let full = record(5, true);
        assert_eq!(bare.chain_bytes(), full.chain_bytes());
    }

    #[test]
    fn record_rejects_truncation() {
        let bytes = record(5, true).to_bytes();
        for cut in [0, 10, 39, bytes.len() - 1] {
            assert_eq!(
                LogRecord::from_bytes(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn record_rejects_unknown_op() {
        let mut bytes = record(5, false).to_bytes();
        bytes[0] = 77;
        assert_eq!(LogRecord::from_bytes(&bytes), Err(WireError::UnknownOp(77)));
    }

    #[test]
    fn entropy_scaling() {
        assert!((record(0, false).entropy_bits() - 7.9).abs() < 1e-9);
    }

    #[test]
    fn segment_round_trip() {
        let mut chain = HashChain::new(b"k");
        let records: Vec<LogRecord> = (0..5).map(|i| record(i, i % 2 == 0)).collect();
        let links: Vec<ChainLink> = records
            .iter()
            .map(|r| chain.append(&r.chain_bytes()))
            .collect();
        let seg = Segment {
            segment_seq: 9,
            records,
            links,
        };
        let decoded = Segment::from_bytes(&seg.to_bytes()).unwrap();
        assert_eq!(decoded, seg);
    }

    #[test]
    fn segment_view_borrows_the_pre_images_it_would_otherwise_copy() {
        let mut chain = HashChain::new(b"k");
        let records: Vec<LogRecord> = (0..5).map(|i| record(i, i % 2 == 0)).collect();
        let links: Vec<ChainLink> = records
            .iter()
            .map(|r| chain.append(&r.chain_image()))
            .collect();
        let seg = Segment {
            segment_seq: 9,
            records,
            links,
        };
        let mut bytes = b"prefix".to_vec();
        bytes.extend_from_slice(&seg.to_bytes());
        let view = SegmentView::parse(&bytes[6..], OpenDepth::Full).unwrap();
        let span = bytes.as_ptr_range();
        for (viewed, owned) in view.records.iter().zip(&seg.records) {
            assert_eq!(viewed.meta.chain_image(), owned.chain_image());
            assert_eq!(viewed.meta.old_data, None);
            assert_eq!(viewed.old_data, owned.old_data.as_deref());
            assert_eq!(
                viewed.retained_len,
                owned.old_data.as_ref().map(|d| d.len() as u32)
            );
            if let Some(data) = viewed.old_data {
                assert!(span.contains(&data.as_ptr()), "borrowed, not copied");
            }
        }
        assert_eq!(view.into_owned(), seg);
    }

    #[test]
    fn metadata_block_parses_alone_to_the_same_metadata() {
        let records: Vec<LogRecord> = (0..5).map(|i| record(i, i % 2 == 0)).collect();
        let links = records
            .iter()
            .map(|r| ChainLink {
                seq: r.seq,
                tag: Digest::from_bytes([r.seq as u8; 32]),
            })
            .collect();
        let seg = Segment {
            segment_seq: 9,
            records,
            links,
        };
        let bytes = seg.to_bytes();
        let block = &bytes[..Segment::metadata_len(5)];
        let full = SegmentView::parse(&bytes, OpenDepth::Full).unwrap();
        let metadata = SegmentView::parse(block, OpenDepth::Metadata).unwrap();
        assert_eq!(metadata.segment_seq, full.segment_seq);
        assert_eq!(metadata.links, full.links);
        for (m, f) in metadata.records.iter().zip(&full.records) {
            assert_eq!((&m.meta, m.retained_len), (&f.meta, f.retained_len));
            assert_eq!(m.old_data, None);
        }
        // Each depth takes exactly its own bytes.
        assert_eq!(
            SegmentView::parse(&bytes, OpenDepth::Metadata),
            Err(WireError::BadPayload)
        );
        assert_eq!(
            SegmentView::parse(block, OpenDepth::Full),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn segment_rejects_truncation() {
        let seg = Segment {
            segment_seq: 1,
            records: vec![record(0, true)],
            links: vec![ChainLink {
                seq: 0,
                tag: Digest::ZERO,
            }],
        };
        let mut bytes = seg.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                Segment::from_bytes(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        bytes.push(0);
        assert_eq!(Segment::from_bytes(&bytes), Err(WireError::BadPayload));
    }

    #[test]
    fn hostile_counts_and_lengths_are_typed_errors_not_allocations() {
        let seg = Segment {
            segment_seq: 1,
            records: vec![record(0, true), record(1, true)],
            links: vec![
                ChainLink {
                    seq: 0,
                    tag: Digest::ZERO
                };
                2
            ],
        };
        let bytes = seg.to_bytes();
        // A record count the input cannot hold.
        let mut lying = bytes.clone();
        lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        for depth in [OpenDepth::Metadata, OpenDepth::Full] {
            assert_eq!(SegmentView::parse(&lying, depth), Err(WireError::Truncated));
        }
        // Content lengths that sum past the pre-image region.
        let len_at = 12 + RecordView::ENTRY_LEN + LogRecord::CHAIN_IMAGE_LEN;
        let mut lying = bytes.clone();
        lying[len_at..len_at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        assert_eq!(Segment::from_bytes(&lying), Err(WireError::Truncated));
        // ... or short of it.
        let mut lying = bytes;
        lying[len_at..len_at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(Segment::from_bytes(&lying), Err(WireError::BadPayload));
    }

    #[test]
    fn decoded_links_verify_against_records() {
        let mut chain = HashChain::new(b"k");
        let records: Vec<LogRecord> = (0..4).map(|i| record(i, true)).collect();
        let links: Vec<ChainLink> = records
            .iter()
            .map(|r| chain.append(&r.chain_bytes()))
            .collect();
        let seg = Segment {
            segment_seq: 0,
            records,
            links,
        };
        let decoded = Segment::from_bytes(&seg.to_bytes()).unwrap();
        let chain_inputs: Vec<Vec<u8>> = decoded.records.iter().map(|r| r.chain_bytes()).collect();
        HashChain::verify_sequence(b"k", &chain_inputs, &decoded.links).unwrap();
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
        let payload = [7u8; 33];
        let built = SegmentEnvelope::new(
            5,
            6,
            Digest::from_bytes([1; 32]),
            Digest::from_bytes([2; 32]),
            4,
            &payload,
        );
        let mut wire = Vec::new();
        SegmentEnvelope::write_wire_header(
            &mut wire,
            5,
            6,
            &Digest::from_bytes([1; 32]),
            &Digest::from_bytes([2; 32]),
            4,
        );
        assert_eq!(wire.len(), SegmentEnvelope::WIRE_HEADER);
        wire.extend_from_slice(&payload);
        let adopted = SegmentEnvelope::from_wire_image(wire).unwrap();
        assert_eq!(adopted, built);
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
