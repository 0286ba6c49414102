//! The evidence reader: everything that reads sealed segments back — the
//! one walk over the remote store ([`walk_segments`]) and, on top of it, the
//! device-side [`EvidenceReader`]: history, and page versions looked up
//! through the one index and rule of [`crate::versions`].

use crate::logrec::LogRecord;
use crate::offload::{Batch, OffloadEngine, StagedSegment};
use crate::pool;
use crate::remote_target::RemoteTarget;
use crate::segment::{LazyPreimages, OpenDepth, OpenedSegment, SegmentEnvelope};
use crate::versions::{Located, VersionIndex};
use rssd_crypto::{ChainKey, DeviceKeys, Digest, KeyPurpose};
use rssd_ftl::Ftl;
use rssd_net::SecureSession;
use std::mem::MaybeUninit;
use std::sync::Mutex;

/// Segments a walk fetches and opens at once: what bounds its in-flight
/// memory (the window's metadata openings; the wire images are the store's).
const WINDOW: usize = 64;

/// What a walk does with the segments it verifies, in two parts: a stage on
/// the pool item that opened a segment, once its records reached its head —
/// work that needs nothing from any other segment — and a merge on the
/// walk's thread, in chain order, once the segment also extends the running
/// head. A closure over `(segment_seq, envelope, opened segment)` is a walk
/// that only merges.
pub(crate) trait Walk {
    /// What a pool item stages its segment into.
    type Place<'a>: Send
    where
        Self: 'a;

    /// One place per segment of `window`, in order — asked on the walk's
    /// thread before any of them opens, so of headers nothing has
    /// authenticated yet.
    fn places(&mut self, window: &[SegmentEnvelope]) -> Vec<Self::Place<'_>>;

    /// Stages a segment that opened and whose records reached its head.
    fn stage(place: Self::Place<'_>, segment: &OpenedSegment);

    /// Takes, in chain order, a staged segment that also extends the
    /// running head.
    fn merge(&mut self, segment_seq: u64, envelope: &SegmentEnvelope, segment: &OpenedSegment);
}

impl<F: FnMut(u64, &SegmentEnvelope, &OpenedSegment)> Walk for F {
    type Place<'a>
        = ()
    where
        F: 'a;

    fn places(&mut self, window: &[SegmentEnvelope]) -> Vec<()> {
        vec![(); window.len()]
    }

    fn stage((): (), _: &OpenedSegment) {}

    fn merge(&mut self, segment_seq: u64, envelope: &SegmentEnvelope, segment: &OpenedSegment) {
        self(segment_seq, envelope, segment);
    }
}

/// Walks every segment stored on `remote` in chain order — each through the
/// one door, [`SegmentEnvelope::open`], which authenticates the payload and
/// the header's heads and count — requiring each to extend the running head
/// and its records, chained under `chain` from its `prev_chain_head`, to
/// reach its `chain_head`, and hands each verified segment to `walk`: its
/// stage, then its merge (its sequence, its envelope and what it opened
/// to). Every walk opens to [`OpenDepth::Metadata`]: no pre-image is
/// deciphered here — a reader that wants one keeps the envelope and opens
/// it when asked (`LazyPreimages`, which authenticates it itself). Returns
/// the verified chain head.
///
/// A segment its store vouches for ([`RemoteTarget::fetch_vouched`]: the
/// store authenticated these bytes under `session`'s keys at ingest) enters
/// the same door less the tag recomputation
/// ([`SegmentEnvelope::open_vouched`]); the header binding, the parse,
/// continuity and the chain are checked alike.
///
/// One [`WINDOW`] at a time: the caller fetches it (nothing past a failed
/// fetch) and asks `walk` for its places, [`pool::map`] fans the door, the
/// chain and the stage over `workers` one segment an item — each segment's
/// run is one HMAC from its own `prev_chain_head` ([`ChainKey::head_after`])
/// over the chain images its metadata block stores, which needs nothing
/// from any other segment — and the caller merges in sequence order:
/// continuity against the running head, then `walk`'s merge. Only
/// continuity is sequential, so the answer is the same at any `workers`.
///
/// # Errors
///
/// The walk stops at the first verification failure and describes it —
/// per segment, a failed fetch, then a failed open, then a break in
/// continuity, then records that do not reach the segment's head. Only
/// fully verified segments are ever merged, so everything merged is
/// trustworthy even then — an audit keeps that verified prefix as evidence
/// while reporting the gap.
pub(crate) fn walk_segments<R: RemoteTarget, W: Walk>(
    workers: usize,
    chain: &ChainKey,
    session: &SecureSession,
    remote: &mut R,
    walk: &mut W,
) -> Result<Digest, String> {
    let mut head = Digest::ZERO;
    for window in remote.stored_segments().chunks(WINDOW) {
        let (mut envelopes, mut vouched) = (Vec::new(), Vec::new());
        let mut fetch_failure = None;
        for &seq in window {
            match remote.fetch_vouched(seq, session) {
                Ok((envelope, vouch)) => {
                    envelopes.push(envelope);
                    vouched.push(vouch);
                }
                Err(e) => {
                    fetch_failure = Some(format!("fetch segment {seq}: {e}"));
                    break;
                }
            }
        }
        // Each place is taken once, by its segment's item.
        let places = walk.places(&envelopes).into_iter();
        let places: Vec<_> = places.map(|place| Mutex::new(Some(place))).collect();
        // Per segment: the open, and beside it the head its records reach —
        // held back until the merge has checked continuity, which outranks
        // it.
        let opened = pool::map(workers, envelopes.len(), |at| {
            let (seq, envelope) = (window[at], &envelopes[at]);
            let segment = if vouched[at] {
                envelope.open_vouched(session)
            } else {
                envelope.open(session, OpenDepth::Metadata)
            };
            let segment = segment.map_err(|e| format!("open segment {seq}: {e}"))?;
            let reached = chain.head_after(envelope.prev_chain_head(), segment.chain_images());
            if reached == envelope.chain_head() {
                let place = places[at].lock().expect("one item a place").take();
                W::stage(place.expect("one item a place"), &segment);
            }
            Ok::<_, String>((segment, reached))
        });
        // The places borrow `walk`, which merges next.
        drop(places);
        for ((&seq, envelope), opened) in window.iter().zip(&envelopes).zip(opened) {
            let (segment, reached) = opened?;
            if envelope.prev_chain_head() != head {
                return Err(format!("segment {seq} does not extend the chain"));
            }
            if reached != envelope.chain_head() {
                return Err(format!(
                    "segment {seq}: its records do not reach its chain head"
                ));
            }
            head = reached;
            walk.merge(seq, envelope, &segment);
        }
        if let Some(failure) = fetch_failure {
            return Err(failure);
        }
    }
    Ok(head)
}

/// The stored part of an audited history as the walk places it: each
/// segment's records copied, on the pool item that opened them, straight
/// into their slot behind the records before them, and counted once the
/// merge takes the segment.
struct Placed(Vec<LogRecord>);

impl Walk for Placed {
    type Place<'a> = &'a mut [MaybeUninit<LogRecord>];

    fn places(&mut self, window: &[SegmentEnvelope]) -> Vec<Self::Place<'_>> {
        // Sized by headers nothing has authenticated yet, each count
        // bounded by what its segment's sealed bytes can describe: a lying
        // count costs no more room than its bytes do, and opens to nothing.
        let lens: Vec<usize> = window
            .iter()
            .map(|envelope| (envelope.record_count() as usize).min(envelope.record_capacity()))
            .collect();
        self.0.reserve(lens.iter().sum());
        let mut spare = self.0.spare_capacity_mut();
        lens.into_iter()
            .map(|len| {
                let (slot, rest) = std::mem::take(&mut spare).split_at_mut(len);
                spare = rest;
                slot
            })
            .collect()
    }

    fn stage(slot: Self::Place<'_>, segment: &OpenedSegment) {
        assert_eq!(
            slot.len(),
            segment.records().len(),
            "a slot fits its segment"
        );
        for (slot, record) in slot.iter_mut().zip(segment.records()) {
            slot.write(*record);
        }
    }

    fn merge(&mut self, _: u64, _: &SegmentEnvelope, segment: &OpenedSegment) {
        let len = self.0.len() + segment.records().len();
        // SAFETY: `places` carved a window's slots from the spare capacity
        // behind `len`, in order, and nothing reallocates until the next
        // window's `places`. The merge takes the window's segments in that
        // order and stops at the first that fails, so this segment's slot
        // starts at the old `len`. The merge takes only segments whose
        // records reached their head — the condition its stage ran under —
        // and the stage wrote the whole slot, which is exactly
        // `records().len()` long (it asserts so; the door opens a segment
        // only to the count its header names and never past its
        // `record_capacity`, of which the slot is the smaller).
        unsafe { self.0.set_len(len) };
    }
}

/// A fault-tolerant read of the operation history: the longest verifiable
/// prefix of the evidence chain plus the pending tail when it still extends
/// that prefix. Unlike [`RssdDevice::verified_history`](crate::RssdDevice::verified_history),
/// a gap or tamper does not discard the trustworthy prefix — it is reported
/// alongside.
#[derive(Clone, Debug)]
#[must_use]
pub struct HistoryAudit {
    /// Chain-verified records, in chain order.
    pub records: Vec<LogRecord>,
    /// `true` when the full history verified end to end and every appended
    /// record is accounted for.
    pub verified: bool,
    /// Description of the first verification failure or detected gap.
    pub failure: Option<String>,
}

pub(crate) struct EvidenceReader {
    pub(crate) chain: ChainKey,
    pub(crate) session: SecureSession,
    /// Device-RAM index of sealed old versions per LPA: every version the
    /// device sealed (or found sealed, at recovery) and in which segment —
    /// whether that segment is still staged is the offload engine's to say.
    pub(crate) index: VersionIndex,
    /// The sealed segment the last recovery lookup landed in, opened at
    /// most once. Consecutive victims usually had their pre-attack versions
    /// sealed into the same segment; a lookup whose envelope is byte-equal
    /// to this one (first asked cheaply: is it the same allocation?) skips
    /// the verify + decrypt + decompress. Controller RAM: dies with a crash.
    pub(crate) opened: Option<LazyPreimages>,
}

impl std::fmt::Debug for EvidenceReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvidenceReader")
            .field("chain", &self.chain)
            .field("session", &self.session)
            .field("index", &self.index)
            .field("opened", &self.opened)
            .finish()
    }
}

impl EvidenceReader {
    pub(crate) fn new(keys: &DeviceKeys) -> Self {
        EvidenceReader {
            chain: ChainKey::new(&keys.derive(KeyPurpose::EvidenceChain, 0)),
            session: SecureSession::new(keys, 0),
            index: VersionIndex::default(),
            opened: None,
        }
    }

    /// Folds the records sealed in `seg` into the index.
    pub(crate) fn index_sealed(&mut self, seg: &StagedSegment) {
        for rec in &seg.batch.records {
            let retained = rec.old_page_index.is_some();
            self.index.fold(seg.envelope.segment_seq(), rec, retained);
        }
    }

    /// Walks the store, verifying it end to end, and indexes it — for crash
    /// recovery, which installs the index once it can no longer fail, and
    /// for a harvest, which also keeps every verified segment's envelope
    /// and its records (`keep`). Returns the verified chain head, the records
    /// walked and the version index.
    pub(crate) fn walk_store(
        &self,
        workers: usize,
        remote: &mut impl RemoteTarget,
        mut keep: impl FnMut(u64, &SegmentEnvelope, &[LogRecord]),
    ) -> Result<(Digest, u64, VersionIndex), String> {
        let (mut records, mut index) = (0, VersionIndex::default());
        let mut sink = |segment_seq, envelope: &SegmentEnvelope, segment: &OpenedSegment| {
            records += segment.records().len() as u64;
            for (record, retained_len) in segment.records().iter().zip(segment.retained_len()) {
                index.fold(segment_seq, record, retained_len.is_some());
            }
            keep(segment_seq, envelope, segment.records());
        };
        let head = walk_segments(workers, &self.chain, &self.session, remote, &mut sink)?;
        Ok((head, records, index))
    }

    /// The one history: every stored segment, then every batch the store
    /// does not hold yet — the engine's unshipped staged segments in queue
    /// order (one whose ack is in flight was just walked in the store),
    /// then the `pending` tail — each chained from the head the one before
    /// it reached and required to reach its own: a staged segment its
    /// envelope's `chain_head`, the pending tail the device's. With `live`
    /// (the device's chain length and head) every record ever appended
    /// must be accounted for; without it (a device that lost its RAM) the
    /// pending tail, empty, has no head to reach.
    pub(crate) fn audit(
        &self,
        workers: usize,
        remote: &mut impl RemoteTarget,
        engine: &OffloadEngine,
        pending: &Batch,
        live: Option<(u64, Digest)>,
    ) -> HistoryAudit {
        let mut placed = Placed(Vec::new());
        let walked = walk_segments(workers, &self.chain, &self.session, remote, &mut placed);
        let mut records = placed.0;
        let local = engine
            .unshipped()
            .map(|seg| {
                (
                    Some(seg.envelope.segment_seq()),
                    &seg.batch,
                    Some(seg.envelope.chain_head()),
                )
            })
            .chain([(None, pending, live.map(|(_, head)| head))]);
        let verified = walked.and_then(|mut head| {
            for (staged_seq, batch, end) in local {
                let images = batch.records.iter().map(LogRecord::chain_image);
                let reached = self.chain.head_after(head, images);
                if end.is_some_and(|end| end != reached) {
                    return Err(match staged_seq {
                        Some(segment_seq) => format!(
                            "chain gap: staged segment {segment_seq} does not extend the \
                             verified prefix — acknowledged offloads were lost upstream or \
                             the staged records were tampered with"
                        ),
                        None => "pending tail: its records do not reach the device's chain \
                                 head"
                            .to_string(),
                    });
                }
                records.extend_from_slice(&batch.records);
                head = reached;
            }
            match live {
                Some((appended, _)) if records.len() as u64 != appended => Err(format!(
                    "chain gap: device appended {appended} records but only {} are \
                     accounted for (offloaded + staged + pending) — acknowledged \
                     offloads were lost in transit",
                    records.len()
                )),
                _ => Ok(()),
            }
        });
        HistoryAudit {
            verified: verified.is_ok(),
            failure: verified.err(),
            records,
        }
    }

    /// The retained pre-image of `lpa` that was valid at `before_ns`
    /// (`None`: the newest), chosen by the index among the versions the
    /// `pending` tail still pins on flash and the sealed ones (opened from
    /// the engine's staged copy while there is one, else fetched remotely).
    pub(crate) fn recover_version(
        &mut self,
        lpa: u64,
        before_ns: Option<u64>,
        pending: &Batch,
        engine: &OffloadEngine,
        ftl: &mut Ftl,
        remote: &mut impl RemoteTarget,
    ) -> Option<Vec<u8>> {
        match self.index.locate(lpa, before_ns, &pending.records)? {
            Located::Pinned(page_index) => {
                let ppa = ftl.geometry().page_from_index(page_index);
                ftl.read_physical_background(ppa).ok().map(|(data, _)| data)
            }
            Located::Sealed {
                segment_seq,
                record_seq,
            } => {
                let envelope = match engine.staged_envelope(segment_seq) {
                    // The pre-image lives inside the staged segment's
                    // sealed envelope (RAM-only, spilled to NAND or in
                    // flight) — open it locally, no remote involved.
                    Some(envelope) => envelope.clone(),
                    // The fetch is issued on every lookup, memo or not: a
                    // partitioned remote still refuses, and a store that no
                    // longer returns the bytes the memo was opened from
                    // misses it and faces authentication again.
                    None => remote.fetch_segment(segment_seq).ok()?,
                };
                // The same view of one allocation is the same bytes (a
                // `Bytes` view is immutable): compare the bytes only when
                // the store handed back another allocation.
                let memo_hit = |memo: &LazyPreimages| {
                    let memo = memo.envelope();
                    std::ptr::eq(&**memo.wire(), &**envelope.wire()) || *memo == envelope
                };
                let memo = match self.opened.take() {
                    Some(memo) if memo_hit(&memo) => self.opened.insert(memo),
                    _ => self.opened.insert(LazyPreimages::new(envelope)),
                };
                memo.get(&self.session, record_seq).map(<[u8]>::to_vec)
            }
        }
    }
}

/// What a store holding the session keys can do to a segment, for the
/// readers' tests here and in `device::tests`.
#[cfg(test)]
pub(crate) mod reseal {
    use crate::segment::{OpenDepth, SegmentBody, SegmentEnvelope};
    use rssd_crypto::Digest;
    use rssd_net::SecureSession;
    use rssd_obs::ProfilerHandle;

    /// What a holder of a device's session keys — a store, or whoever took
    /// them from one — can do to a sealed segment without its chain key:
    /// open it, change what it says, and seal it again with a good tag.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Reseal {
        /// The first two records trade places.
        SwapRecords,
        /// The first record and its pre-image are dropped, the count
        /// made good.
        DropRecord,
        /// The first record's entropy is edited.
        EditEntropy,
        /// The header names another `chain_head`.
        ReplaceHead,
    }

    impl Reseal {
        pub(crate) const ALL: [Reseal; 4] = [
            Reseal::SwapRecords,
            Reseal::DropRecord,
            Reseal::EditEntropy,
            Reseal::ReplaceHead,
        ];
    }

    /// `honest` opened under `session`, changed as `how` says and sealed
    /// again through the one writer, behind the same `prev_chain_head`.
    pub(crate) fn resealed(
        honest: &SegmentEnvelope,
        session: &SecureSession,
        how: Reseal,
    ) -> SegmentEnvelope {
        let opened = honest.open(session, OpenDepth::Full).unwrap();
        let mut records = opened.records().to_vec();
        assert!(records.len() >= 2, "two records to swap");
        let preimages = opened.into_preimages();
        let mut contents: Vec<Option<Vec<u8>>> = records
            .iter()
            .map(|record| preimages.get(record.seq).map(<[u8]>::to_vec))
            .collect();
        let mut chain_head = honest.chain_head();
        match how {
            Reseal::SwapRecords => {
                records.swap(0, 1);
                contents.swap(0, 1);
            }
            Reseal::DropRecord => {
                records.remove(0);
                contents.remove(0);
            }
            Reseal::EditEntropy => records[0].entropy_mil ^= 1,
            Reseal::ReplaceHead => chain_head = Digest::from_bytes([0xCD; 32]),
        }
        let retained_len: Vec<_> = contents
            .iter()
            .map(|content| content.as_ref().map(|bytes| bytes.len() as u32))
            .collect();
        let bytes: Vec<u8> = contents.into_iter().flatten().flatten().collect();
        let body = SegmentBody {
            records: &records,
            chain_head,
            retained_len: &retained_len,
            preimages: &bytes,
        };
        let profiler = ProfilerHandle::disabled();
        let (seq, prev) = (honest.segment_seq(), honest.prev_chain_head());
        let resealed =
            SegmentEnvelope::seal(session, &profiler, honest.device_id(), seq, prev, body).0;
        assert!(
            resealed.open(session, OpenDepth::Full).is_ok(),
            "the door lets it in"
        );
        resealed
    }
}

#[cfg(test)]
mod tests {
    use super::reseal::{resealed, Reseal};
    use super::*;
    use crate::config::RssdConfig;
    use crate::device::RssdDevice;
    use crate::logrec::WireError;
    use crate::rebuild::RebuildImage;
    use crate::recovery::RecoveryEngine;
    use crate::remote_target::{RemoteError, StoreAck};
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_ssd::BlockDevice;
    use std::collections::BTreeMap;

    /// A store that keeps whatever it is handed — a collector the adversary
    /// controls — and can refuse to hand one segment back. With `vouch` it
    /// vouches for every segment as a store that authenticated it at ingest
    /// would, though it authenticated nothing: what a walk then still
    /// checks is what the walk checks itself.
    #[derive(Clone, Default)]
    struct Shelf {
        segments: BTreeMap<u64, SegmentEnvelope>,
        refuse: Option<u64>,
        vouch: bool,
    }

    impl RemoteTarget for Shelf {
        fn store_segment(
            &mut self,
            envelope: SegmentEnvelope,
            now_ns: u64,
        ) -> Result<StoreAck, RemoteError> {
            let segment_seq = envelope.segment_seq();
            self.segments.insert(segment_seq, envelope);
            Ok(StoreAck {
                segment_seq,
                durable_at_ns: now_ns,
            })
        }

        fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
            if self.refuse == Some(segment_seq) {
                return Err(RemoteError::Unreachable);
            }
            let stored = self.segments.get(&segment_seq).cloned();
            stored.ok_or(RemoteError::NoSuchSegment(segment_seq))
        }

        fn fetch_vouched(
            &mut self,
            segment_seq: u64,
            _session: &SecureSession,
        ) -> Result<(SegmentEnvelope, bool), RemoteError> {
            Ok((self.fetch_segment(segment_seq)?, self.vouch))
        }

        fn stored_segments(&self) -> Vec<u64> {
            self.segments.keys().copied().collect()
        }
    }

    /// A device whose whole history — `writes` of them over eight pages, a
    /// microsecond apart, so every segment past the first carries retained
    /// pre-images — is flushed to its [`Shelf`].
    fn shelved_device(writes: u64, segment_pages: usize) -> RssdDevice<Shelf> {
        let mut device = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages,
                ..RssdConfig::default()
            },
            Shelf::default(),
        );
        for i in 0..writes {
            device.clock().advance(1_000);
            let fill = ((i / 8) ^ (i % 8)) as u8;
            device.write_page(i % 8, vec![fill; 4096]).unwrap();
        }
        device.flush_log().unwrap();
        device
    }

    /// A history of one segment per three overwrites — three records a
    /// segment — that fills two windows and half a third.
    fn three_window_device() -> RssdDevice<Shelf> {
        let device = shelved_device(8 + 3 * (2 * WINDOW as u64 + WINDOW as u64 / 2), 3);
        let stored = device.remote().stored_segments().len();
        assert!(stored > 2 * WINDOW, "{stored} segments span three windows");
        device
    }

    /// Every lookup the tests ask of a history that ends at `end_ns`: each
    /// of the eight pages at every 5 µs cut-off, then its newest version.
    fn lookups(end_ns: u64) -> impl Iterator<Item = (u64, Option<u64>)> {
        let cutoffs = (0..=end_ns).step_by(5_000).map(Some).chain([None]);
        cutoffs.flat_map(|at| (0..8).map(move |lpa| (lpa, at)))
    }

    /// What `image` answers `lookup`.
    fn answer(image: &RebuildImage, (lpa, at): (u64, Option<u64>)) -> Option<Vec<u8>> {
        match at {
            Some(at) => image.version_before(lpa, at).map(<[u8]>::to_vec),
            None => image.newest(lpa).map(<[u8]>::to_vec),
        }
    }

    #[test]
    fn every_reader_answers_alike_at_1_2_and_4_workers_over_three_windows() {
        // Each worker count over a store that vouches and one that does not.
        let arms: Vec<(usize, bool)> = [false, true]
            .into_iter()
            .flat_map(|vouch| [1, 2, 4].map(|workers| (workers, vouch)))
            .collect();
        let answers: Vec<_> = arms
            .iter()
            .map(|&(workers, vouch)| {
                let mut device = three_window_device();
                device.remote_mut().vouch = vouch;
                let keys = device.escrow_keys();
                let end_ns = device.clock().now_ns();
                let image = RebuildImage::harvest_on(workers, &keys, device.remote_mut(), |_| ())
                    .expect("an honest store harvests");
                let versions: Vec<_> = lookups(end_ns).map(|at| answer(&image, at)).collect();
                assert!(versions.iter().flatten().count() > 8, "versions retained");
                let audit = device.audit_history_on(workers);
                assert!(audit.verified, "{:?}", audit.failure);
                let _ = device.crash();
                let recovered = device.recover_on(workers);
                assert!(recovered.is_ok(), "{recovered:?}");
                let head = device.chain_head();
                (image.report(), versions, audit.records, recovered, head)
            })
            .collect();
        for ((workers, vouch), answer) in arms.iter().zip(&answers) {
            assert!(
                *answer == answers[0],
                "{workers} workers, vouch {vouch}: answers otherwise"
            );
        }
    }

    /// What a store can do to one stored segment.
    #[derive(Clone, Copy, Debug)]
    enum Damage {
        /// A bit of the sealed payload flips.
        FlipPayload,
        /// A bit of the sealed pre-image frame flips: nothing a metadata
        /// open deciphers, but under the tag.
        FlipPreimage,
        /// The header names a head the payload does not end at.
        ForgeHead,
        /// The store loses the segment.
        Remove,
        /// The store refuses to hand the segment back.
        RefuseFetch,
        /// Resealed under the device's own session — what a store holding
        /// the session keys, not the chain key, can make: it opens, and its
        /// records do not reach its head.
        Resealed(Reseal),
        /// Resealed under the device's own session around a pre-image frame
        /// that is not a frame: it authenticates, its metadata opens, and
        /// its pre-images do not decode.
        GarblePreimages,
        /// Resealed likewise around a valid pre-image frame one byte short
        /// of what the segment's `retained_len` add up to.
        MiscountPreimages,
    }

    /// `honest`'s metadata frame, as its seal compressed it.
    fn metadata_frame(honest: &SegmentEnvelope, reader: &EvidenceReader) -> Vec<u8> {
        let opened = honest.open(&reader.session, OpenDepth::Metadata).unwrap();
        let mut metadata = honest.segment_seq().to_le_bytes().to_vec();
        metadata.extend_from_slice(&honest.record_count().to_le_bytes());
        for (record, len) in opened.records().iter().zip(opened.retained_len()) {
            metadata.extend_from_slice(&record.chain_image());
            metadata.extend_from_slice(&len.unwrap_or(u32::MAX).to_le_bytes());
        }
        rssd_compress::compress_adaptive(&metadata)
    }

    /// `honest`'s header and metadata frame around `preimage_frame`, sealed
    /// under the device's own session: what only the key holder can make.
    fn reseal_preimage_frame(
        honest: &SegmentEnvelope,
        reader: &EvidenceReader,
        preimage_frame: &[u8],
    ) -> SegmentEnvelope {
        let seq = honest.segment_seq();
        let opened = honest.open(&reader.session, OpenDepth::Metadata).unwrap();
        let frame = metadata_frame(honest, reader);
        let mut plain = (frame.len() as u32).to_le_bytes().to_vec();
        plain.extend_from_slice(&frame);
        plain.extend_from_slice(preimage_frame);
        let resealed = SegmentEnvelope::seal_plaintext(
            &reader.session,
            honest.device_id(),
            seq,
            honest.prev_chain_head(),
            honest.chain_head(),
            honest.record_count(),
            &plain,
        );
        assert_eq!(
            resealed.open(&reader.session, OpenDepth::Metadata),
            Ok(opened)
        );
        assert!(resealed.open(&reader.session, OpenDepth::Full).is_err());
        resealed
    }

    fn damage(shelf: &mut Shelf, reader: &EvidenceReader, kind: Damage, seq: u64) {
        let honest = shelf.segments[&seq].clone();
        let rebuilt = |head: Digest, payload: &[u8]| {
            let (device_id, prev, count) = (
                honest.device_id(),
                honest.prev_chain_head(),
                honest.record_count(),
            );
            SegmentEnvelope::new(device_id, seq, prev, head, count, payload)
        };
        let damaged = match kind {
            Damage::FlipPayload => {
                let mut payload = honest.sealed_payload().to_vec();
                payload[0] ^= 1;
                rebuilt(honest.chain_head(), &payload)
            }
            Damage::FlipPreimage => {
                // The stream cipher keeps plaintext offsets: the pre-image
                // frame starts behind the length word and the metadata frame.
                let mut payload = honest.sealed_payload().to_vec();
                let preimage_frame = 4 + metadata_frame(&honest, reader).len();
                let tag = rssd_net::session::TAG_LEN;
                assert!(
                    preimage_frame < payload.len() - tag,
                    "segment {seq}: no pre-images"
                );
                payload[preimage_frame] ^= 1;
                rebuilt(honest.chain_head(), &payload)
            }
            Damage::ForgeHead => rebuilt(Digest::from_bytes([0xAB; 32]), honest.sealed_payload()),
            Damage::Remove => {
                shelf.segments.remove(&seq);
                return;
            }
            Damage::RefuseFetch => {
                shelf.refuse = Some(seq);
                return;
            }
            Damage::Resealed(how) => resealed(&honest, &reader.session, how),
            Damage::GarblePreimages => reseal_preimage_frame(&honest, reader, &[0xFF; 16]),
            Damage::MiscountPreimages => {
                let opened = LazyPreimages::new(honest.clone());
                let records = honest.open(&reader.session, OpenDepth::Metadata).unwrap();
                let region: Vec<u8> = records
                    .records()
                    .iter()
                    .filter_map(|record| opened.get(&reader.session, record.seq))
                    .flatten()
                    .copied()
                    .collect();
                let short = rssd_compress::compress_adaptive(&region[..region.len() - 1]);
                reseal_preimage_frame(&honest, reader, &short)
            }
        };
        shelf.segments.insert(seq, damaged);
    }

    /// The verdict of a walk over `store` on `workers` and the sequences it
    /// sank.
    fn walk(
        store: &mut Shelf,
        reader: &EvidenceReader,
        workers: usize,
    ) -> (Result<Digest, String>, Vec<u64>) {
        let mut sunk = Vec::new();
        let (key, session) = (&reader.chain, &reader.session);
        let mut sink = |seq, _: &_, _: &_| sunk.push(seq);
        let walked = walk_segments(workers, key, session, store, &mut sink);
        (walked, sunk)
    }

    /// A history over more than two windows whose segments hold different
    /// record counts: three overwrites a segment, as in
    /// [`three_window_device`], and between them up to four reads.
    fn varied_device() -> RssdDevice<Shelf> {
        let mut device = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 3,
                ..RssdConfig::default()
            },
            Shelf::default(),
        );
        for i in 0..8 + 3 * (2 * WINDOW as u64 + 8) {
            device.clock().advance(1_000);
            let fill = ((i / 8) ^ (i % 8)) as u8;
            device.write_page(i % 8, vec![fill; 4096]).unwrap();
            for _ in 0..i * 7 % 5 {
                device.read_page(i % 8).unwrap();
            }
        }
        device.flush_log().unwrap();
        let stored = device.remote().stored_segments().len();
        assert!(stored > 2 * WINDOW, "{stored} segments span three windows");
        device
    }

    /// The oracle: every segment of `store` opened on its own and its
    /// records appended, in sequence order.
    fn concatenated(store: &Shelf, reader: &EvidenceReader) -> Vec<LogRecord> {
        let mut records = Vec::new();
        for envelope in store.segments.values() {
            let opened = envelope.open(&reader.session, OpenDepth::Metadata).unwrap();
            records.extend_from_slice(opened.records());
        }
        records
    }

    /// The verdict of a walk over `store` on `workers` and the history it
    /// placed.
    fn placed(
        store: &mut Shelf,
        reader: &EvidenceReader,
        workers: usize,
    ) -> (Result<Digest, String>, Vec<LogRecord>) {
        let mut placed = Placed(Vec::new());
        let (key, session) = (&reader.chain, &reader.session);
        let walked = walk_segments(workers, key, session, store, &mut placed);
        (walked, placed.0)
    }

    /// The same walk with each verified segment's records appended on the
    /// walk's thread — how the audit gathered its history before it placed
    /// it.
    fn appended(
        store: &mut Shelf,
        reader: &EvidenceReader,
        workers: usize,
    ) -> (Result<Digest, String>, Vec<LogRecord>) {
        let mut records = Vec::new();
        let (key, session) = (&reader.chain, &reader.session);
        let mut sink =
            |_, _: &_, segment: &OpenedSegment| records.extend_from_slice(segment.records());
        let walked = walk_segments(workers, key, session, store, &mut sink);
        (walked, records)
    }

    /// Over the first 0, 1, 64, 65 and 129 segments of a store, and over
    /// the whole store through the audit, the history a walk places is its
    /// segments' records concatenated, at one worker and at four.
    #[test]
    fn the_placed_history_is_its_segments_concatenated_at_1_and_4_workers() {
        let mut device = varied_device();
        let reader = EvidenceReader::new(&device.escrow_keys());
        let stored = device.remote().stored_segments();
        let counts: Vec<u32> = device
            .remote()
            .segments
            .values()
            .map(|envelope| {
                assert!(envelope.record_count() as usize <= envelope.record_capacity());
                envelope.record_count()
            })
            .collect();
        assert!(counts.iter().min() < counts.iter().max(), "{counts:?}");
        for n in [0, 1, WINDOW, WINDOW + 1, 2 * WINDOW + 1] {
            let mut store = device.remote().clone();
            store.segments.retain(|seq, _| stored[..n].contains(seq));
            let oracle = concatenated(&store, &reader);
            let head = stored[..n]
                .last()
                .map_or(Digest::ZERO, |seq| store.segments[seq].chain_head());
            for workers in [1, 4] {
                let arm = format!("{n} segments, {workers} workers");
                assert_eq!(
                    placed(&mut store, &reader, workers),
                    (Ok(head), oracle.clone()),
                    "{arm}"
                );
            }
        }
        let oracle = concatenated(device.remote(), &reader);
        assert_eq!(
            oracle.len() as u64,
            device.chain_len(),
            "nothing is left local"
        );
        for workers in [1, 4] {
            let audit = device.audit_history_on(workers);
            assert!(audit.verified, "{workers} workers: {:?}", audit.failure);
            assert_eq!(audit.records, oracle, "{workers} workers");
        }
    }

    /// Damaged at the last segment of a window, the first of the next or in
    /// the middle of one, a store yields the same verified prefix and the
    /// same failure whether the walk places the history or appends it.
    #[test]
    fn a_damaged_store_places_the_prefix_and_failure_the_appending_walk_gathers() {
        use Damage::*;
        use Reseal::*;
        let device = varied_device();
        let reader = EvidenceReader::new(&device.escrow_keys());
        let honest = device.remote().clone();
        let stored = honest.stored_segments();
        for i in [WINDOW - 1, WINDOW, WINDOW + WINDOW / 2] {
            let seq = stored[i];
            let mut prefix = honest.clone();
            prefix.segments.retain(|kept, _| stored[..i].contains(kept));
            let prefix = concatenated(&prefix, &reader);
            let damages = [
                FlipPayload,
                ForgeHead,
                Remove,
                RefuseFetch,
                Resealed(SwapRecords),
                Resealed(EditEntropy),
            ];
            for kind in damages {
                let mut store = honest.clone();
                damage(&mut store, &reader, kind, seq);
                let gathered = appended(&mut store, &reader, 1);
                assert!(gathered.0.is_err(), "{kind:?} at {i}");
                assert_eq!(gathered.1, prefix, "{kind:?} at {i}");
                for workers in [1, 4] {
                    let arm = format!("{kind:?} at {i}, {workers} workers");
                    assert_eq!(placed(&mut store, &reader, workers), gathered, "{arm}");
                }
            }
        }
    }

    /// A store that serves, in the middle window, a segment whose header
    /// claims `u32::MAX` records — the honest payload behind a lying count,
    /// vouched for or not, or a block resealed by a key holder to claim as
    /// many — gets the verified prefix and a typed failure from the audit,
    /// and the history holds no room for the claim.
    #[test]
    fn a_header_claiming_u32_max_records_sizes_no_history() {
        let mut device = varied_device();
        let reader = EvidenceReader::new(&device.escrow_keys());
        let appended_records = device.chain_len() as usize;
        let stored = device.remote().stored_segments();
        let i = WINDOW + WINDOW / 2;
        let seq = stored[i];
        let mut prefix = device.remote().clone();
        prefix.segments.retain(|kept, _| stored[..i].contains(kept));
        let prefix = concatenated(&prefix, &reader);
        let honest = device.remote().segments[&seq].clone();
        let (prev, head) = (honest.prev_chain_head(), honest.chain_head());
        let relabelled =
            SegmentEnvelope::new(1, seq, prev, head, u32::MAX, honest.sealed_payload());
        let mut block = seq.to_le_bytes().to_vec();
        block.extend_from_slice(&u32::MAX.to_le_bytes());
        let opened = honest.open(&reader.session, OpenDepth::Metadata).unwrap();
        for (record, len) in opened.records().iter().zip(opened.retained_len()) {
            block.extend_from_slice(&record.chain_image());
            block.extend_from_slice(&len.unwrap_or(u32::MAX).to_le_bytes());
        }
        let frame = rssd_compress::compress_adaptive(&block);
        let mut plain = (frame.len() as u32).to_le_bytes().to_vec();
        plain.extend_from_slice(&frame);
        plain.extend_from_slice(&rssd_compress::compress_adaptive(&[]));
        let resealed =
            SegmentEnvelope::seal_plaintext(&reader.session, 1, seq, prev, head, u32::MAX, &plain);
        let arms = [
            (relabelled.clone(), false, WireError::BadPayload),
            (relabelled, true, WireError::HeaderMismatch),
            (resealed, false, WireError::Truncated),
        ];
        for (lying, vouch, refused) in arms {
            assert!(lying.record_capacity() < 1 << 20, "{vouch}: {refused:?}");
            device.remote_mut().segments.insert(seq, lying.clone());
            device.remote_mut().vouch = vouch;
            for workers in [1, 4] {
                let arm = format!("vouch {vouch}, {refused:?}, {workers} workers");
                let audit = device.audit_history_on(workers);
                assert!(!audit.verified, "{arm}");
                assert_eq!(
                    audit.failure,
                    Some(format!("open segment {seq}: {refused}")),
                    "{arm}"
                );
                assert_eq!(audit.records, prefix, "{arm}");
                let room = audit.records.capacity();
                assert!(
                    room <= 2 * appended_records + lying.record_capacity(),
                    "{arm}: room for {room} records"
                );
            }
        }
    }

    #[test]
    fn a_damaged_store_fails_alike_at_1_2_and_4_workers_in_the_first_middle_and_last_window() {
        use Damage::*;
        use Reseal::*;
        let device = three_window_device();
        let reader = EvidenceReader::new(&device.escrow_keys());
        let honest = device.remote().clone();
        let stored = honest.stored_segments();
        for i in [2, WINDOW + WINDOW / 2, stored.len() - 2] {
            let (prev, seq, next) = (stored[i - 1], stored[i], stored[i + 1]);
            let count = honest.segments[&seq].record_count();
            assert_eq!(count, 3, "segment {seq}: an odd count of records");
            let unreached = format!("segment {seq}: its records do not reach its chain head");
            // Each case: the damage, how the first failing segment — the
            // one that decides — must be named (the whole failure, or what
            // precedes its detail), and the verified prefix.
            let cases = [
                (vec![(FlipPayload, seq)], format!("open segment {seq}"), i),
                (vec![(ForgeHead, seq)], format!("open segment {seq}"), i),
                (
                    vec![(Remove, seq)],
                    format!("segment {next} does not extend the chain"),
                    i,
                ),
                (vec![(RefuseFetch, seq)], format!("fetch segment {seq}"), i),
                // Records resealed by a store without the chain key: the
                // segment is named, whatever was done to it.
                (vec![(Resealed(SwapRecords), seq)], unreached.clone(), i),
                (vec![(Resealed(DropRecord), seq)], unreached.clone(), i),
                (vec![(Resealed(EditEntropy), seq)], unreached.clone(), i),
                (vec![(Resealed(ReplaceHead), seq)], unreached.clone(), i),
                // An earlier segment outranks a later one, whatever fails
                // there; within a segment a failed open outranks a break in
                // continuity, which outranks records that do not reach
                // their head.
                (
                    vec![(Resealed(EditEntropy), seq), (FlipPayload, next)],
                    unreached.clone(),
                    i,
                ),
                (
                    vec![(FlipPayload, seq), (RefuseFetch, next)],
                    format!("open segment {seq}"),
                    i,
                ),
                (
                    vec![(Remove, seq), (FlipPayload, next)],
                    format!("open segment {next}"),
                    i,
                ),
                (
                    vec![(Remove, prev), (Resealed(SwapRecords), seq)],
                    format!("segment {seq} does not extend the chain"),
                    i - 1,
                ),
            ];
            for (damages, named, verified) in cases {
                let mut store = honest.clone();
                for &(kind, seq) in &damages {
                    damage(&mut store, &reader, kind, seq);
                }
                let sequential = walk(&mut store, &reader, 1);
                let (walked, sunk) = &sequential;
                let failure = walked.as_ref().expect_err("the damage is found");
                assert!(
                    *failure == named || failure.starts_with(&format!("{named}: ")),
                    "{damages:?}: {failure}"
                );
                assert_eq!(
                    sunk[..],
                    stored[..verified],
                    "{damages:?}: the verified prefix"
                );
                for workers in [2, 4] {
                    let parallel = walk(&mut store, &reader, workers);
                    assert_eq!(parallel, sequential, "{damages:?} at {workers} workers");
                }
            }
        }
    }

    /// A vouch stands in for the tag and for nothing the reader checks
    /// itself. Over a store that vouches for everything it holds: a forged
    /// head or link is refused with exactly the unvouched walk's words. A
    /// flipped pre-image byte, which only the tag covers, passes the
    /// vouched walk (the unvouched one refuses it, so the tag really was
    /// skipped) — and still never comes back: every version in that segment
    /// answers `None`, from the harvested image and the live device alike,
    /// and a restore counts the page unrecoverable, because whoever opens a
    /// pre-image authenticates it.
    #[test]
    fn a_vouch_skips_the_tag_and_nothing_the_reader_checks_itself() {
        use Damage::*;
        let mut device = three_window_device();
        let keys = device.escrow_keys();
        let reader = EvidenceReader::new(&keys);
        let end_ns = device.clock().now_ns();
        let honest = device.remote().clone();
        let stored = honest.stored_segments();
        let middle = WINDOW + WINDOW / 2;
        let seq = stored[middle];
        let walk_as = |store: &Shelf, vouch| {
            let mut store = Shelf {
                vouch,
                ..store.clone()
            };
            walk(&mut store, &reader, 2)
        };
        for how in Reseal::ALL {
            let mut store = honest.clone();
            damage(&mut store, &reader, Resealed(how), seq);
            let refused = walk_as(&store, false);
            assert!(refused.0.is_err(), "{how:?}");
            assert_eq!(walk_as(&store, true), refused, "{how:?}");
        }
        // A head forged without a good tag: the tag refuses it, and without
        // the tag the chain does, at the same segment and prefix.
        let mut store = honest.clone();
        damage(&mut store, &reader, ForgeHead, seq);
        let (tagless, sunk) = walk_as(&store, true);
        let named = format!("segment {seq}: its records do not reach its chain head");
        assert_eq!(tagless, Err(named));
        assert_eq!(sunk[..], stored[..middle]);
        let (tagged, sunk) = walk_as(&store, false);
        assert!(tagged
            .unwrap_err()
            .starts_with(&format!("open segment {seq}: ")));
        assert_eq!(sunk[..], stored[..middle]);

        let honest_image = RebuildImage::harvest(&keys, &mut honest.clone()).unwrap();
        let (_, _, index) = reader
            .walk_store(1, &mut honest.clone(), |_, _, _| ())
            .unwrap();
        damage(device.remote_mut(), &reader, FlipPreimage, seq);
        let (refused, sunk) = walk_as(device.remote(), false);
        let named = format!("open segment {seq}: ");
        assert!(refused.unwrap_err().starts_with(&named));
        assert_eq!(sunk[..], stored[..middle]);
        let (walked, sunk) = walk_as(device.remote(), true);
        assert!(walked.is_ok(), "{walked:?}");
        assert_eq!(sunk, stored);

        device.remote_mut().vouch = true;
        let image = RebuildImage::harvest(&keys, device.remote_mut()).expect("a vouched harvest");
        assert_eq!(image.report(), honest_image.report());
        let mut lost = 0;
        for lookup @ (lpa, at) in lookups(end_ns) {
            let answered = answer(&image, lookup);
            let live = match at {
                Some(at) => device.recover_page_before(lpa, at),
                None => device.recover_newest(lpa),
            };
            assert_eq!(answered, live, "{lookup:?}");
            match index.locate(lpa, at, &[]) {
                Some(Located::Sealed { segment_seq, .. }) if segment_seq == seq => {
                    assert_eq!(answered, None, "{lookup:?}");
                    if let Some(at) = at {
                        let restore = RecoveryEngine::new().restore_before(&mut device, &[lpa], at);
                        let counted = (restore.pages_restored, restore.pages_unrecoverable);
                        assert_eq!(counted, (0, 1), "{lookup:?}");
                    }
                    lost += 1;
                }
                _ => assert_eq!(answered, answer(&honest_image, lookup), "{lookup:?}"),
            }
        }
        assert!(lost > 0, "some lookup lands in segment {seq}");
    }

    /// Once harvested, the image answers from what the walk verified: a
    /// store that then tampers with one segment, loses another and is
    /// dropped changes no answer — at any worker count, and although no
    /// lookup had opened either segment before.
    #[test]
    fn a_harvested_image_answers_alike_after_its_store_is_damaged_and_dropped() {
        for workers in [1, 2, 4] {
            let mut device = three_window_device();
            let keys = device.escrow_keys();
            let reader = EvidenceReader::new(&keys);
            let end_ns = device.clock().now_ns();
            let honest = RebuildImage::harvest_on(workers, &keys, device.remote_mut(), |_| ())
                .expect("an honest store harvests");
            let mut store = device.remote().clone();
            let image = RebuildImage::harvest_on(workers, &keys, &mut store, |_| ())
                .expect("an honest store harvests");
            let (_, _, index) = reader.walk_store(1, &mut store, |_, _, _| ()).unwrap();
            let stored = store.stored_segments();
            let damaged = [
                (Damage::FlipPayload, stored[WINDOW / 2]),
                (Damage::Remove, stored[WINDOW + WINDOW / 2]),
            ];
            for (kind, seq) in damaged {
                let answered_there = lookups(end_ns).any(|(lpa, at)| {
                    matches!(index.locate(lpa, at, &[]),
                        Some(Located::Sealed { segment_seq, .. }) if segment_seq == seq)
                });
                assert!(answered_there, "some lookup lands in segment {seq}");
                damage(&mut store, &reader, kind, seq);
            }
            drop(store);
            assert_eq!(image.report(), honest.report(), "{workers} workers");
            for lookup in lookups(end_ns) {
                assert_eq!(
                    answer(&image, lookup),
                    answer(&honest, lookup),
                    "{workers} workers, {lookup:?}"
                );
            }
        }
    }

    /// The one check a harvest leaves to the lookup: decoding pre-images
    /// whose tag verified. A segment whose authenticated pre-image frame
    /// does not decode, or does not hold what its lengths say, harvests
    /// with the honest report; every version in it answers `None` — as the
    /// live device's restore answers over the same store — and every other
    /// version the honest bytes.
    #[test]
    fn authenticated_preimages_that_do_not_decode_answer_none_as_the_live_device_does() {
        let mut device = shelved_device(40, 4);
        let keys = device.escrow_keys();
        let reader = EvidenceReader::new(&keys);
        let end_ns = device.clock().now_ns();
        let honest_store = device.remote().clone();
        let honest = RebuildImage::harvest(&keys, device.remote_mut()).unwrap();
        let (_, _, index) = reader
            .walk_store(1, device.remote_mut(), |_, _, _| ())
            .unwrap();
        let stored = honest_store.stored_segments();
        let seq = stored[stored.len() / 2];
        for kind in [Damage::GarblePreimages, Damage::MiscountPreimages] {
            damage(device.remote_mut(), &reader, kind, seq);
            let image = RebuildImage::harvest(&keys, device.remote_mut())
                .expect("an authenticated, linked store harvests");
            assert_eq!(image.report(), honest.report(), "{kind:?}");
            let mut lost = 0;
            for lookup @ (lpa, at) in lookups(end_ns) {
                let answered = answer(&image, lookup);
                let live = match at {
                    Some(at) => device.recover_page_before(lpa, at),
                    None => device.recover_newest(lpa),
                };
                assert_eq!(answered, live, "{kind:?}, {lookup:?}");
                match index.locate(lpa, at, &[]) {
                    Some(Located::Sealed { segment_seq, .. }) if segment_seq == seq => {
                        assert_eq!(answered, None, "{kind:?}, {lookup:?}");
                        lost += 1;
                    }
                    _ => assert_eq!(answered, answer(&honest, lookup), "{kind:?}, {lookup:?}"),
                }
            }
            assert!(lost > 0, "{kind:?}: some lookup lands in segment {seq}");
            *device.remote_mut() = honest_store.clone();
        }
    }

    /// A store holds the session keys, not the chain key: whatever it
    /// reseals — two records swapped, one dropped with the count made good,
    /// one's entropy edited, or the header's `chain_head` replaced — opens,
    /// and history, the audit (which keeps the verified prefix), a harvest
    /// and `recover` each refuse it, naming the segment, at one worker and
    /// at two. (Spill replay's arm is `device::tests`.)
    #[test]
    fn every_store_reader_refuses_records_resealed_without_the_chain_key() {
        let honest = shelved_device(20, 4);
        let keys = honest.escrow_keys();
        let session = SecureSession::new(&keys, 0);
        let stored = honest.remote().stored_segments();
        assert_eq!(stored.len(), 3, "{stored:?}");
        let (first, seq) = (stored[0], stored[1]);
        let named = format!("segment {seq}: its records do not reach its chain head");
        let prefix = honest.remote().segments[&first].record_count() as usize;
        for how in Reseal::ALL {
            let mut live = shelved_device(20, 4);
            let history = live.verified_history().expect("honest store verifies");
            let resealed = resealed(&live.remote().segments[&seq], &session, how);
            live.remote_mut().segments.insert(seq, resealed.clone());
            let mut crashed = shelved_device(20, 4);
            crashed.remote_mut().segments.insert(seq, resealed);
            let _ = crashed.crash();
            assert_eq!(live.verified_history(), Err(named.clone()), "{how:?}");
            for workers in [1, 2] {
                let arm = format!("{how:?}, {workers} workers");
                let harvested = RebuildImage::harvest_on(workers, &keys, live.remote_mut(), |_| ());
                assert_eq!(
                    harvested.map(|image| image.report()),
                    Err(named.clone()),
                    "{arm}"
                );
                let audit = live.audit_history_on(workers);
                assert!(!audit.verified, "{arm}");
                assert_eq!(audit.failure.as_ref(), Some(&named), "{arm}");
                assert_eq!(
                    audit.records,
                    history[..prefix],
                    "{arm}: the verified prefix"
                );
                assert_eq!(crashed.recover_on(workers), Err(named.clone()), "{arm}");
            }
        }
    }

    /// Enumerated, not sampled, at one worker and at two: over an honest
    /// three-segment store, each of the 608 one-bit flips of header bytes
    /// 8‥84 of the middle segment (`segment_seq`, both heads,
    /// `record_count`) is refused — with an error naming the segment, never
    /// a panic — by `harvest`, by `audit_history` (which keeps the verified
    /// prefix) and by `recover`; each of the 64 flips of bytes 0‥8
    /// (`device_id`, which the key binds and no reader reads) changes no
    /// reader's answer. (Spill replay's arm is `device::tests`, the log
    /// server's `rssd-remote`'s.)
    #[test]
    fn every_store_reader_refuses_all_608_header_flips_at_1_and_2_workers() {
        let mut live = shelved_device(20, 4);
        let keys = live.escrow_keys();
        let stored = live.remote().stored_segments();
        assert_eq!(stored.len(), 3, "{stored:?}");
        let seq = stored[1];
        let named = format!("segment {seq}");
        let honest = live.remote_mut().fetch_segment(seq).unwrap();
        let first = live.remote_mut().fetch_segment(stored[0]).unwrap();
        let history = live.verified_history().expect("honest store verifies");
        let harvest = |workers, store: &mut Shelf| {
            RebuildImage::harvest_on(workers, &keys, store, |_| ()).map(|image| image.report())
        };
        let report = harvest(1, live.remote_mut()).expect("honest store harvests");
        let mut crashed = shelved_device(20, 4);
        let _ = crashed.crash();
        let recovery = crashed.recover().expect("honest store recovers");
        let _ = crashed.crash();

        for bit in 0..SegmentEnvelope::WIRE_HEADER * 8 {
            let mut wire = honest.wire().to_vec();
            wire[bit / 8] ^= 1 << (bit % 8);
            let flipped = SegmentEnvelope::from_wire_image(wire).unwrap();
            live.remote_mut().segments.insert(seq, flipped.clone());
            crashed.remote_mut().segments.insert(seq, flipped);
            for workers in [1, 2] {
                let harvested = harvest(workers, live.remote_mut());
                let audit = live.audit_history_on(workers);
                let recovered = crashed.recover_on(workers);
                let arm = format!("bit {bit}, {workers} workers");
                if bit < 64 {
                    assert_eq!(harvested, Ok(report), "{arm}");
                    assert!(audit.verified, "{arm}: {:?}", audit.failure);
                    assert_eq!(audit.records, history, "{arm}");
                    assert_eq!(recovered, Ok(recovery), "{arm}");
                    let _ = crashed.crash();
                    continue;
                }
                for refused in [harvested.err(), audit.failure, recovered.err()] {
                    assert!(
                        refused.as_ref().is_some_and(|e| e.contains(&named)),
                        "{arm}: {refused:?}"
                    );
                }
                assert!(!audit.verified, "{arm}");
                assert_eq!(
                    audit.records,
                    history[..first.record_count() as usize],
                    "{arm}: the verified prefix, and only it, is evidence"
                );
            }
        }
    }
}
