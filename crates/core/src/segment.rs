//! The sealed segment: the one module that knows its wire format.
//!
//! A [`SegmentEnvelope`] is what crosses the NVMe-oE wire, lands in the NAND
//! spill region and sits in the remote store: an 84-byte plaintext header
//! (routing and continuity fields) around a compressed, encrypted, MAC'd
//! payload. It has one writer, [`SegmentEnvelope::seal`], and one door,
//! [`SegmentEnvelope::open`]: every reader gets an [`OpenedSegment`], whose
//! only constructor has authenticated the payload *and* held the header —
//! which the tag does not cover — against it.
//!
//! Sealed plaintext: `[u32 metadata frame length | metadata frame |
//! pre-image frame]`, two [`rssd_compress::compress_adaptive`] frames, so a
//! reader can stop after the first. The metadata block is `segment_seq u64 |
//! count u32`, then per record a 40-byte entry (the chain image and a `u32`
//! content length, `u32::MAX` for none), then per record a 40-byte chain
//! link (`seq u64 | tag 32 B`); the pre-image region is every retained
//! pre-image back to back in record order.

use crate::logrec::{LogRecord, WireError};
use bytes::Bytes;
use rssd_crypto::{ChainLink, Digest};
use rssd_net::SecureSession;
use rssd_obs::ProfilerHandle;
use std::ops::Range;
use std::sync::OnceLock;

/// Size of one record's entry in the metadata block.
const ENTRY_LEN: usize = LogRecord::CHAIN_IMAGE_LEN + 4;
/// Size of one chain link in the metadata block.
const LINK_LEN: usize = 8 + 32;

/// Size of the metadata block of a segment of `count` records.
const fn metadata_len(count: usize) -> usize {
    12 + count * (ENTRY_LEN + LINK_LEN)
}

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

/// What a segment seals, borrowed — the shape [`SegmentEnvelope::open`]
/// hands back owned: consecutive log records (metadata only), their chain
/// links, and beside them the retained pre-images, back to back in one
/// buffer with each record's share of it.
#[derive(Clone, Copy, Debug)]
pub struct SegmentBody<'a> {
    /// Records in chain order; their `old_data` is not read.
    pub records: &'a [LogRecord],
    /// Chain links, one per record.
    pub links: &'a [ChainLink],
    /// Per record, the length of the retained content of the old page
    /// version it carries, if it carries one.
    pub retained_len: &'a [Option<u32>],
    /// Those contents, back to back in record order.
    pub preimages: &'a [u8],
}

/// What crosses the wire: plaintext routing/continuity metadata around the
/// sealed payload.
///
/// Backed by its own canonical wire image — one reference-counted buffer
/// `[84-byte header | sealed payload]` built exactly once at seal time.
/// Construction *is* serialization: [`SegmentEnvelope::to_wire_bytes`] and
/// `clone()` are refcount bumps, and [`SegmentEnvelope::from_wire_image`]
/// adopts a received buffer without copying. Field reads decode from the
/// header in place (a few little-endian loads) and are *unauthenticated*:
/// only [`SegmentEnvelope::open`] vouches for them.
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

    /// The one writer. Builds the wire image of segment `segment_seq` of
    /// device `device_id` in a single buffer — the header, then the two
    /// frames compressed in place behind it (the `compress` phase of
    /// `profiler`), then ciphered and tagged in place under `session` — and
    /// adopts it: the resulting `Bytes` is shared by refcount through
    /// capsules, retransmissions, the NAND spill and the remote store, and
    /// nothing downstream re-serializes or copies it. The header's
    /// `chain_head` is the last of `body.links` (`prev_chain_head` itself
    /// for an empty segment), so what `seal` writes, [`Self::open`] accepts.
    ///
    /// Returns the envelope and the length of the plaintext serialization it
    /// carries (what [`OpenedSegment::raw_len`] reads back).
    ///
    /// # Panics
    ///
    /// Panics if `body`'s per-record slices differ in length, or its lengths
    /// do not add up to its buffer.
    pub fn seal(
        session: &SecureSession,
        profiler: &ProfilerHandle,
        device_id: u64,
        segment_seq: u64,
        prev_chain_head: Digest,
        body: SegmentBody<'_>,
    ) -> (SegmentEnvelope, usize) {
        let SegmentBody {
            records,
            links,
            retained_len,
            preimages,
        } = body;
        assert_eq!(records.len(), links.len(), "one chain link per record");
        assert_eq!(records.len(), retained_len.len(), "one length per record");
        let retained: usize = retained_len.iter().flatten().map(|len| *len as usize).sum();
        assert_eq!(
            retained,
            preimages.len(),
            "the lengths account for the buffer"
        );
        let mut metadata = Vec::with_capacity(metadata_len(records.len()));
        metadata.extend_from_slice(&segment_seq.to_le_bytes());
        metadata.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for (record, len) in records.iter().zip(retained_len) {
            metadata.extend_from_slice(&record.chain_image());
            metadata.extend_from_slice(&len.unwrap_or(u32::MAX).to_le_bytes());
        }
        for link in links {
            metadata.extend_from_slice(&link.seq.to_le_bytes());
            metadata.extend_from_slice(link.tag.as_bytes());
        }
        let raw_len = metadata.len() + preimages.len();

        let chain_head = links.last().map_or(prev_chain_head, |link| link.tag);
        let mut wire = Vec::with_capacity(Self::WIRE_HEADER + raw_len / 2 + 64);
        Self::write_wire_header(
            &mut wire,
            device_id,
            segment_seq,
            &prev_chain_head,
            &chain_head,
            records.len() as u32,
        );
        profiler.enter("compress");
        wire.extend_from_slice(&[0; 4]);
        rssd_compress::compress_adaptive_into(&metadata, &mut wire);
        let frame_len = (wire.len() - Self::WIRE_HEADER - 4) as u32;
        wire[Self::WIRE_HEADER..Self::WIRE_HEADER + 4].copy_from_slice(&frame_len.to_le_bytes());
        rssd_compress::compress_adaptive_into(preimages, &mut wire);
        profiler.exit();
        session.seal_in_place(segment_seq, &mut wire, Self::WIRE_HEADER);
        let envelope = SegmentEnvelope {
            wire: Bytes::from(wire),
        };
        (envelope, raw_len)
    }

    /// The one door. Verifies the tag over every sealed byte whatever the
    /// depth — a bit flipped in a pre-image fails a metadata open too — then
    /// deciphers and decompresses the metadata frame and, at
    /// [`OpenDepth::Full`], the pre-image frame into a buffer of its own,
    /// parses, and holds the header against what it parsed: the payload's
    /// `segment_seq` and record count must be the header's, and the header's
    /// `chain_head` the last link (an empty segment's: its
    /// `prev_chain_head`). What is left to the caller is what needs state
    /// the door does not have: that `prev_chain_head` continues the caller's
    /// running head, and that the links verify under the chain key.
    ///
    /// # Errors
    ///
    /// [`WireError::BadPayload`] when the payload fails authentication, a
    /// frame fails to decompress, or bytes are left that the lengths do not
    /// account for; [`WireError::Truncated`] when a frame, the metadata
    /// block or the pre-image region is shorter than announced;
    /// [`WireError::UnknownOp`] on an unknown record class;
    /// [`WireError::HeaderMismatch`] when the header names anything but
    /// what the authenticated payload holds.
    pub fn open(
        &self,
        session: &SecureSession,
        depth: OpenDepth,
    ) -> Result<OpenedSegment, WireError> {
        let authenticated = session
            .verify(self.segment_seq(), self.sealed_payload())
            .map_err(|_| WireError::BadPayload)?;
        let decipher = |len: usize| {
            authenticated
                .decipher_prefix(len)
                .map_err(|_| WireError::Truncated)
        };
        let metadata_end = |plain: &[u8]| {
            let len = plain.get(..4).ok_or(WireError::Truncated)?;
            (u32::from_le_bytes(len.try_into().expect("4")) as usize)
                .checked_add(4)
                .filter(|end| *end <= authenticated.len())
                .ok_or(WireError::Truncated)
        };
        let (mut metadata, mut preimages) = (Vec::new(), Vec::new());
        match depth {
            OpenDepth::Metadata => {
                let plain = decipher(metadata_end(&decipher(4)?)?)?;
                rssd_compress::decompress_into(&plain[4..], &mut metadata)
            }
            OpenDepth::Full => {
                let plain = decipher(authenticated.len())?;
                let (frame, preimage_frame) = plain.split_at(metadata_end(&plain)?);
                rssd_compress::decompress_into(&frame[4..], &mut metadata)
                    .and_then(|()| rssd_compress::decompress_into(preimage_frame, &mut preimages))
            }
        }
        .map_err(|_| WireError::BadPayload)?;

        if metadata.len() < 12 {
            return Err(WireError::Truncated);
        }
        let segment_seq = u64::from_le_bytes(metadata[..8].try_into().expect("8"));
        let count = u32::from_le_bytes(metadata[8..12].try_into().expect("4")) as usize;
        // A count the block cannot hold is malformed input (and must not
        // drive preallocation).
        if count > (metadata.len() - 12) / (ENTRY_LEN + LINK_LEN) {
            return Err(WireError::Truncated);
        }
        if metadata.len() > metadata_len(count) {
            return Err(WireError::BadPayload);
        }
        let (entries, link_bytes) = metadata[12..].split_at(count * ENTRY_LEN);
        let mut records = Vec::with_capacity(count);
        let mut retained_len = Vec::with_capacity(count);
        let mut preimage_bytes = 0usize;
        for entry in entries.chunks_exact(ENTRY_LEN) {
            let (image, len) = entry.split_at(LogRecord::CHAIN_IMAGE_LEN);
            records.push(LogRecord::from_chain_image(image.try_into().expect("36"))?);
            let len = u32::from_le_bytes(len.try_into().expect("4"));
            let len = (len != u32::MAX).then_some(len);
            preimage_bytes += len.unwrap_or(0) as usize;
            retained_len.push(len);
        }
        if depth == OpenDepth::Full && preimage_bytes != preimages.len() {
            return Err(if preimage_bytes > preimages.len() {
                WireError::Truncated
            } else {
                WireError::BadPayload
            });
        }
        let links: Vec<ChainLink> = link_bytes
            .chunks_exact(LINK_LEN)
            .map(|link| ChainLink {
                seq: u64::from_le_bytes(link[..8].try_into().expect("8")),
                tag: Digest::from_bytes(link[8..].try_into().expect("32")),
            })
            .collect();

        // The header sits outside the tag: the payload vouches for it,
        // never the reverse.
        let last = links.last().map_or(self.prev_chain_head(), |link| link.tag);
        if segment_seq != self.segment_seq()
            || count as u64 != u64::from(self.record_count())
            || last != self.chain_head()
        {
            return Err(WireError::HeaderMismatch);
        }
        Ok(OpenedSegment {
            records,
            retained_len,
            links,
            preimages,
            raw_len: metadata.len() + preimage_bytes,
        })
    }

    /// Builds an envelope around an already sealed payload under a header of
    /// the caller's choosing — how tests and fault injectors forge and
    /// damage segments. Nothing here makes the result one that
    /// [`Self::open`] accepts.
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

    /// Appends the canonical 84-byte envelope header to `out`.
    fn write_wire_header(
        out: &mut Vec<u8>,
        device_id: u64,
        segment_seq: u64,
        prev_chain_head: &Digest,
        chain_head: &Digest,
        record_count: u32,
    ) {
        out.extend_from_slice(&device_id.to_le_bytes());
        out.extend_from_slice(&segment_seq.to_le_bytes());
        out.extend_from_slice(prev_chain_head.as_bytes());
        out.extend_from_slice(chain_head.as_bytes());
        out.extend_from_slice(&record_count.to_le_bytes());
    }

    /// Adopts a fully assembled wire image (header + sealed payload) without
    /// copying — the receive path's first step. Returns `None` if shorter
    /// than [`SegmentEnvelope::WIRE_HEADER`]. Nothing is authenticated here:
    /// that is [`Self::open`]'s.
    pub fn from_wire_image(wire: impl Into<Bytes>) -> Option<SegmentEnvelope> {
        let wire = wire.into();
        (wire.len() >= Self::WIRE_HEADER).then_some(SegmentEnvelope { wire })
    }

    /// Originating device. Not in the payload, so [`Self::open`] cannot
    /// compare it: what binds it is the key — a segment opens only under the
    /// session derived from its device's keys.
    pub fn device_id(&self) -> u64 {
        u64::from_le_bytes(self.wire[..8].try_into().expect("8"))
    }

    /// Segment number (also the seal nonce and tag input).
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

/// A sealed segment, opened. [`SegmentEnvelope::open`] is the only
/// constructor, so holding one *is* holding an authenticated payload and a
/// header that payload vouches for.
#[derive(Debug, PartialEq)]
pub struct OpenedSegment {
    records: Vec<LogRecord>,
    retained_len: Vec<Option<u32>>,
    links: Vec<ChainLink>,
    /// Every pre-image back to back in record order — exactly sized under
    /// [`OpenDepth::Full`], empty under [`OpenDepth::Metadata`].
    preimages: Vec<u8>,
    raw_len: usize,
}

impl OpenedSegment {
    /// Records in chain order, metadata only (`old_data: None`).
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Per record, the length of the pre-image it carries in the segment,
    /// if it carries one — whatever the depth.
    pub fn retained_len(&self) -> &[Option<u32>] {
        &self.retained_len
    }

    /// Chain links, one per record.
    pub fn links(&self) -> &[ChainLink] {
        &self.links
    }

    /// Length of the plaintext serialization — metadata block plus every
    /// pre-image — whatever the depth.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// The pre-image part on its own, records and links dropped: what a
    /// lookup keeps of the segment it opened. Holds no content unless opened
    /// to [`OpenDepth::Full`].
    pub fn into_preimages(self) -> Preimages {
        let mut end = 0;
        let retained = self.records.iter().zip(&self.retained_len);
        let table = retained.filter_map(|(record, len)| {
            let start = end;
            end += (*len)? as usize;
            Some((record.seq, start..end))
        });
        Preimages {
            table: table.collect(),
            bytes: self.preimages,
        }
    }
}

/// The pre-images of one opened segment: one exactly sized buffer and,
/// ascending by `record_seq`, where in it each record's content lies.
#[derive(Clone, Debug, PartialEq)]
pub struct Preimages {
    bytes: Vec<u8>,
    table: Vec<(u64, Range<usize>)>,
}

impl Preimages {
    /// The pre-image record `record_seq` carries, if it carries one.
    pub fn get(&self, record_seq: u64) -> Option<&[u8]> {
        let at = self
            .table
            .binary_search_by_key(&record_seq, |(seq, _)| *seq);
        self.bytes.get(self.table[at.ok()?].1.clone())
    }
}

/// A segment's pre-images, opened on demand and at most once: its sealed
/// wire image and, once a lookup has landed in it, what that image opened
/// to. What a harvest keeps of every segment its walk verified, and a
/// restore of the segment it looked in last.
#[derive(Clone, Debug)]
pub(crate) struct LazyPreimages {
    envelope: SegmentEnvelope,
    /// `Some(None)`: the segment did not open, and no lookup in it answers.
    opened: OnceLock<Option<Preimages>>,
}

impl LazyPreimages {
    pub(crate) fn new(envelope: SegmentEnvelope) -> Self {
        LazyPreimages {
            envelope,
            opened: OnceLock::new(),
        }
    }

    /// The wire image the pre-images are opened from.
    pub(crate) fn envelope(&self) -> &SegmentEnvelope {
        &self.envelope
    }

    /// The pre-image record `record_seq` carries, if it carries one — the
    /// first call opens the segment through the door under `session`.
    /// `None` as well when it does not open: that answer, too, is kept.
    pub(crate) fn get(&self, session: &SecureSession, record_seq: u64) -> Option<&[u8]> {
        let opened = self.opened.get_or_init(|| {
            let opened = self.envelope.open(session, OpenDepth::Full).ok()?;
            Some(opened.into_preimages())
        });
        opened.as_ref()?.get(record_seq)
    }
}
