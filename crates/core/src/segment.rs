//! The sealed segment: the one module that knows its wire format.
//!
//! A [`SegmentEnvelope`] is what crosses the NVMe-oE wire, lands in the NAND
//! spill region and sits in the remote store: an 84-byte plaintext header
//! (routing and continuity fields) around a compressed, encrypted, MAC'd
//! payload. It has one writer, [`SegmentEnvelope::seal`] (the offload
//! engine seals through its body, `seal_framed`, handing it the pre-image
//! frame its stream encoded as the pages were pinned), and one door,
//! [`SegmentEnvelope::open`]: every reader gets an [`OpenedSegment`], whose
//! only constructor has authenticated the payload and the header behind
//! `device_id` — both chain heads and the record count ride under the tag
//! as associated data — and held the header's sequence and count against
//! the payload's. A metadata walk over a store that authenticated the
//! segment at ingest enters the same door less the tag check
//! ([`SegmentEnvelope::open_vouched`]).
//!
//! Sealed plaintext: `[u32 metadata frame length | metadata frame |
//! pre-image frame]`, two [`rssd_compress::compress_adaptive`] frames, so a
//! reader can stop after the first. The metadata block is `segment_seq u64 |
//! count u32`, then per record a 40-byte entry (the chain image and a `u32`
//! content length, `u32::MAX` for none); the pre-image region is every
//! retained pre-image back to back in record order. No chain link is
//! stored: the header's `prev_chain_head` and `chain_head` are the chain's
//! only values in a segment, and a reader holding the chain key recomputes
//! the run between them.

use crate::logrec::{LogRecord, WireError};
use bytes::Bytes;
use rssd_crypto::Digest;
use rssd_net::session::TAG_LEN;
use rssd_net::{Authenticated, SecureSession};
use rssd_obs::ProfilerHandle;
use std::ops::Range;
use std::sync::OnceLock;

/// Size of one record's entry in the metadata block.
const ENTRY_LEN: usize = LogRecord::CHAIN_IMAGE_LEN + 4;

/// Size of the metadata block's `segment_seq u64 | count u32` ahead of the
/// entries.
const BLOCK_HEAD: usize = 12;

/// Size of the metadata block of a segment of `count` records.
const fn metadata_len(count: usize) -> usize {
    BLOCK_HEAD + count * ENTRY_LEN
}

/// Most metadata-block bytes one sealed payload byte may stand for. No frame
/// the codecs make expands further — RLE's densest pair, a 255-byte run
/// from two bytes, is 127.5×, LZ77's densest sequence 68.5× — and the door
/// refuses a block that does, so [`SegmentEnvelope::record_capacity`]
/// bounds what a segment opens to before it is opened.
const MAX_BLOCK_EXPANSION: usize = 128;

/// Where the header bytes the tag covers begin: both chain heads and the
/// record count (`segment_seq` enters the tag on its own; `device_id`, bound
/// by the key, is the one field outside it).
const BOUND_FROM: usize = 16;

/// How far a reader opens a sealed segment. Through [`SegmentEnvelope::open`]
/// the one HMAC tag is verified over *every* sealed byte first, either way;
/// the depth decides how much is then deciphered, decompressed and parsed.
/// The one open that skips the tag, [`SegmentEnvelope::open_vouched`], reads
/// `Metadata` only, and only from a store that verified the tag at ingest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenDepth {
    /// The metadata block only — record metadata and content lengths, 40
    /// bytes a record. What the evidence walks read.
    Metadata,
    /// The metadata block and the pre-images behind it. What restores and
    /// rebuilds read.
    Full,
}

/// What a segment seals, borrowed — the shape [`SegmentEnvelope::open`]
/// hands back owned: consecutive log records (metadata only), the chain
/// head they end at, and beside them the retained pre-images, back to back
/// in one buffer with each record's share of it.
#[derive(Clone, Copy, Debug)]
pub struct SegmentBody<'a> {
    /// Records in chain order.
    pub records: &'a [LogRecord],
    /// The chain head after the last record (the head before the first, for
    /// no records): the header's `chain_head`.
    pub chain_head: Digest,
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
    /// nothing downstream re-serializes or copies it. The header carries
    /// `prev_chain_head` and `body.chain_head` under the tag; nothing here
    /// checks that the records chain from one to the other — the chain key
    /// is not the session's.
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
        let preimages = body.preimages;
        let retained: usize = body
            .retained_len
            .iter()
            .flatten()
            .map(|len| *len as usize)
            .sum();
        assert_eq!(
            retained,
            preimages.len(),
            "the lengths account for the buffer"
        );
        Self::seal_framed(
            session,
            profiler,
            device_id,
            segment_seq,
            prev_chain_head,
            body,
            |wire| rssd_compress::compress_adaptive_into(preimages, wire),
        )
    }

    /// [`Self::seal`] with the pre-image frame made elsewhere: `body`'s
    /// pre-image buffer is not read, and `append_frame` appends the
    /// [`compress_adaptive`](rssd_compress::compress_adaptive) frame of the
    /// pre-images `body.retained_len` counts to the wire image. The offload
    /// engine seals every segment this way, with the frame its stream
    /// encoded as the pages were pinned (see
    /// [`OffloadEngine`](crate::offload)).
    pub(crate) fn seal_framed(
        session: &SecureSession,
        profiler: &ProfilerHandle,
        device_id: u64,
        segment_seq: u64,
        prev_chain_head: Digest,
        body: SegmentBody<'_>,
        append_frame: impl FnOnce(&mut Vec<u8>),
    ) -> (SegmentEnvelope, usize) {
        let SegmentBody {
            records,
            chain_head,
            retained_len,
            preimages: _,
        } = body;
        assert_eq!(records.len(), retained_len.len(), "one length per record");
        let preimage_len: usize = retained_len.iter().flatten().map(|len| *len as usize).sum();
        let mut metadata = Vec::with_capacity(metadata_len(records.len()));
        metadata.extend_from_slice(&segment_seq.to_le_bytes());
        metadata.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for (record, len) in records.iter().zip(retained_len) {
            metadata.extend_from_slice(&record.chain_image());
            metadata.extend_from_slice(&len.unwrap_or(u32::MAX).to_le_bytes());
        }
        let raw_len = metadata.len() + preimage_len;

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
        append_frame(&mut wire);
        profiler.exit();
        session.seal_in_place(segment_seq, &mut wire, BOUND_FROM, Self::WIRE_HEADER);
        let envelope = SegmentEnvelope {
            wire: Bytes::from(wire),
        };
        (envelope, raw_len)
    }

    /// The one door. Verifies the tag over every sealed byte and the header
    /// behind `device_id`, whatever the depth — a bit flipped in a pre-image
    /// or a head fails a metadata open too (the one walk that leaves the tag
    /// to a store that verified it at ingest goes through
    /// [`Self::open_vouched`], the same door less the tag) — then deciphers
    /// and decompresses the metadata frame and, at [`OpenDepth::Full`], the
    /// pre-image frame into a buffer of its own, parses, and holds the
    /// header against what it parsed: the payload's `segment_seq` and record
    /// count must be the header's. What is left to the caller needs state
    /// and a key the door does not have: that `prev_chain_head` continues
    /// the caller's running head, and that the records, chained under the
    /// chain key from `prev_chain_head`, reach `chain_head`.
    ///
    /// # Errors
    ///
    /// [`WireError::BadPayload`] when the payload or header fails
    /// authentication, a frame fails to decompress, or bytes are left that
    /// the lengths do not account for; [`WireError::Truncated`] when a frame,
    /// the metadata block or the pre-image region is shorter than announced,
    /// or the block names more records than the sealed bytes can describe
    /// (`record_capacity`);
    /// [`WireError::UnknownOp`] on an unknown record class;
    /// [`WireError::HeaderMismatch`] when the header names another sequence
    /// or count than the authenticated payload holds.
    pub fn open(
        &self,
        session: &SecureSession,
        depth: OpenDepth,
    ) -> Result<OpenedSegment, WireError> {
        let bound = &self.wire[BOUND_FROM..Self::WIRE_HEADER];
        let authenticated = session
            .verify(self.segment_seq(), bound, self.sealed_payload())
            .map_err(|_| WireError::BadPayload)?;
        self.open_authenticated(authenticated, depth)
    }

    /// The door for a segment its store vouched for
    /// ([`RemoteTarget::fetch_vouched`](crate::RemoteTarget::fetch_vouched)):
    /// [`Self::open`] to [`OpenDepth::Metadata`] without recomputing the
    /// tag, which a holder of `session`'s keys verified over these same
    /// bytes before it stored them. Everything else the door checks, it
    /// checks; what it hands out carries no pre-image, so every pre-image a
    /// reader gets back it authenticated itself.
    ///
    /// # Errors
    ///
    /// As [`Self::open`], but for a failed authentication.
    pub fn open_vouched(&self, session: &SecureSession) -> Result<OpenedSegment, WireError> {
        let authenticated = session
            .vouched(self.segment_seq(), self.sealed_payload())
            .map_err(|_| WireError::BadPayload)?;
        self.open_authenticated(authenticated, OpenDepth::Metadata)
    }

    /// The door's body, behind the tag check (or the store's vouch for it).
    fn open_authenticated(
        &self,
        authenticated: Authenticated<'_>,
        depth: OpenDepth,
    ) -> Result<OpenedSegment, WireError> {
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

        if metadata.len() < BLOCK_HEAD {
            return Err(WireError::Truncated);
        }
        let segment_seq = u64::from_le_bytes(metadata[..8].try_into().expect("8"));
        let count = u32::from_le_bytes(metadata[8..12].try_into().expect("4")) as usize;
        // A count the block cannot hold is malformed input (and must not
        // drive preallocation), and so is one the sealed bytes cannot
        // describe (a walk sizes its slots by that before the open).
        if count > (metadata.len() - BLOCK_HEAD) / ENTRY_LEN || count > self.record_capacity() {
            return Err(WireError::Truncated);
        }
        if metadata.len() > metadata_len(count) {
            return Err(WireError::BadPayload);
        }
        let mut records = Vec::with_capacity(count);
        let mut retained_len = Vec::with_capacity(count);
        let mut preimage_bytes = 0usize;
        for entry in metadata[BLOCK_HEAD..].chunks_exact(ENTRY_LEN) {
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
        if segment_seq != self.segment_seq() || count as u64 != u64::from(self.record_count()) {
            return Err(WireError::HeaderMismatch);
        }
        Ok(OpenedSegment {
            records,
            retained_len,
            preimages,
            raw_len: metadata.len() + preimage_bytes,
            metadata,
        })
    }

    /// Seals `plaintext` — whatever it says — under `session` behind a
    /// header of the caller's choosing, the header bound into the tag as
    /// [`Self::seal`] binds it: what any holder of the session keys can make
    /// (the log server is one), and so how tests forge segments that
    /// authenticate. The door may accept the result; only a reader holding
    /// the chain key can tell whether its records reach its `chain_head`.
    pub fn seal_plaintext(
        session: &SecureSession,
        device_id: u64,
        segment_seq: u64,
        prev_chain_head: Digest,
        chain_head: Digest,
        record_count: u32,
        plaintext: &[u8],
    ) -> SegmentEnvelope {
        let mut wire = Vec::with_capacity(Self::WIRE_HEADER + plaintext.len() + TAG_LEN);
        Self::write_wire_header(
            &mut wire,
            device_id,
            segment_seq,
            &prev_chain_head,
            &chain_head,
            record_count,
        );
        wire.extend_from_slice(plaintext);
        session.seal_in_place(segment_seq, &mut wire, BOUND_FROM, Self::WIRE_HEADER);
        SegmentEnvelope {
            wire: Bytes::from(wire),
        }
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

    /// Evidence-chain head *before* this segment's first record (under the
    /// tag, like [`Self::chain_head`] and [`Self::record_count`]).
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

    /// The most records the door lets this envelope open to — what its
    /// sealed bytes can describe, whatever count its unauthenticated header
    /// names: a bound a reader may size room by before the open.
    pub(crate) fn record_capacity(&self) -> usize {
        let block = self
            .sealed_payload()
            .len()
            .saturating_mul(MAX_BLOCK_EXPANSION);
        block / ENTRY_LEN
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

/// A sealed segment, opened. The door ([`SegmentEnvelope::open`], or
/// [`SegmentEnvelope::open_vouched`] for a payload its store authenticated)
/// is the only constructor, so holding one *is* holding an authenticated
/// payload and header whose sequence and count agree. Whether its records
/// chain from one of the header's heads to the other is the chain key
/// holder's to say.
#[derive(Debug, PartialEq)]
pub struct OpenedSegment {
    records: Vec<LogRecord>,
    retained_len: Vec<Option<u32>>,
    /// Every pre-image back to back in record order — exactly sized under
    /// [`OpenDepth::Full`], empty under [`OpenDepth::Metadata`].
    preimages: Vec<u8>,
    raw_len: usize,
    /// The metadata block as deciphered, which [`Self::chain_images`] reads.
    metadata: Vec<u8>,
}

impl OpenedSegment {
    /// Records in chain order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// The records' chain images in chain order, as the metadata block
    /// stores them: what the evidence chain MACs, read where they lie.
    pub fn chain_images(&self) -> impl Iterator<Item = &[u8; LogRecord::CHAIN_IMAGE_LEN]> {
        let entries = self.metadata[BLOCK_HEAD..].chunks_exact(ENTRY_LEN);
        entries.map(|entry| {
            let image = &entry[..LogRecord::CHAIN_IMAGE_LEN];
            image.try_into().expect("an entry opens with its image")
        })
    }

    /// Per record, the length of the pre-image it carries in the segment,
    /// if it carries one — whatever the depth.
    pub fn retained_len(&self) -> &[Option<u32>] {
        &self.retained_len
    }

    /// Length of the plaintext serialization — metadata block plus every
    /// pre-image — whatever the depth.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// The pre-image part on its own, records dropped: what a
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
