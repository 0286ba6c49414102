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
use rssd_crypto::{DeviceKeys, Digest, HashChain, KeyPurpose};
use rssd_ftl::Ftl;
use rssd_net::SecureSession;

/// Segments a walk fetches and opens at once: what bounds its in-flight
/// memory (the window's metadata openings; the wire images are the store's).
const WINDOW: usize = 64;

/// Walks every segment stored on `remote` in chain order — each through the
/// one door, [`SegmentEnvelope::open`], which authenticates the payload and
/// holds the header against it — requiring each to extend the running head
/// and its per-record HMAC links to verify, and hands each verified segment
/// (its sequence, its envelope and what it opened to) to `sink`. Every walk
/// opens to [`OpenDepth::Metadata`]: no pre-image is deciphered here — a
/// reader that wants one keeps the envelope and opens it when asked
/// (`LazyPreimages`). Returns the verified chain head.
///
/// One [`WINDOW`] at a time: the caller fetches it (nothing past a failed
/// fetch), [`pool::map`] fans the door and each segment's link HMACs —
/// verified from the segment's own `prev_chain_head`, which needs nothing
/// from any other segment — over `workers`, and the caller merges in
/// sequence order: continuity against the running head, then `sink`. Only
/// continuity is sequential, so the answer is the same at any `workers`.
///
/// # Errors
///
/// The walk stops at the first verification failure and describes it —
/// per segment, a failed fetch, then a failed open, then a break in
/// continuity, then a link that does not verify. Only fully verified
/// segments are ever delivered to `sink`, so everything sunk is trustworthy
/// even then — an audit keeps that verified prefix as evidence while
/// reporting the gap.
pub(crate) fn walk_segments<R: RemoteTarget>(
    workers: usize,
    chain_key: &[u8],
    session: &SecureSession,
    remote: &mut R,
    mut sink: impl FnMut(u64, &SegmentEnvelope, &OpenedSegment),
) -> Result<Digest, String> {
    let mut head = Digest::ZERO;
    for window in remote.stored_segments().chunks(WINDOW) {
        let mut fetched = Vec::with_capacity(window.len());
        let mut fetch_failure = None;
        for &seq in window {
            match remote.fetch_segment(seq) {
                Ok(envelope) => fetched.push((seq, envelope)),
                Err(e) => {
                    fetch_failure = Some(format!("fetch segment {seq}: {e}"));
                    break;
                }
            }
        }
        // Per segment: the open, and beside it the links' verdict — held
        // back until the merge has checked continuity, which outranks it.
        let opened = pool::map(workers, fetched.len(), |i| {
            let (seq, envelope) = &fetched[i];
            let segment = envelope
                .open(session, OpenDepth::Metadata)
                .map_err(|e| format!("open segment {seq}: {e}"))?;
            let images: Vec<_> = segment
                .records()
                .iter()
                .map(LogRecord::chain_image)
                .collect();
            let links = HashChain::verify_from(
                chain_key,
                envelope.prev_chain_head(),
                &images,
                segment.links(),
            )
            .map_err(|e| format!("segment {seq}: {e}"));
            Ok::<_, String>((segment, links))
        });
        for ((seq, envelope), opened) in fetched.iter().zip(opened) {
            let (segment, links) = opened?;
            if envelope.prev_chain_head() != head {
                return Err(format!("segment {seq} does not extend the chain"));
            }
            links?;
            // The door held the header's head to the last of those links.
            head = envelope.chain_head();
            sink(*seq, envelope, &segment);
        }
        if let Some(failure) = fetch_failure {
            return Err(failure);
        }
    }
    Ok(head)
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

#[derive(Debug)]
pub(crate) struct EvidenceReader {
    chain_key: [u8; 32],
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

impl EvidenceReader {
    pub(crate) fn new(keys: &DeviceKeys) -> Self {
        EvidenceReader {
            chain_key: keys.derive(KeyPurpose::EvidenceChain, 0),
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
    /// (`keep`). Returns the verified chain head, the records walked and the
    /// version index.
    pub(crate) fn walk_store(
        &self,
        workers: usize,
        remote: &mut impl RemoteTarget,
        mut keep: impl FnMut(u64, &SegmentEnvelope),
    ) -> Result<(Digest, u64, VersionIndex), String> {
        let (mut records, mut index) = (0, VersionIndex::default());
        let sink = |segment_seq, envelope: &SegmentEnvelope, segment: &OpenedSegment| {
            records += segment.records().len() as u64;
            for (record, retained_len) in segment.records().iter().zip(segment.retained_len()) {
                index.fold(segment_seq, record, retained_len.is_some());
            }
            keep(segment_seq, envelope);
        };
        let head = walk_segments(workers, &self.chain_key, &self.session, remote, sink)?;
        Ok((head, records, index))
    }

    /// The one history: every stored segment, then every batch the store
    /// does not hold yet — the engine's unshipped staged segments in queue
    /// order (one whose ack is in flight was just walked in the store),
    /// then the `pending` tail — each required to extend the head the one
    /// before it left. With `appended` (the device's chain length) every
    /// record ever appended must be accounted for.
    pub(crate) fn audit(
        &self,
        workers: usize,
        remote: &mut impl RemoteTarget,
        engine: &OffloadEngine,
        pending: &Batch,
        appended: Option<u64>,
    ) -> HistoryAudit {
        let mut records: Vec<LogRecord> = Vec::new();
        let sink = |_, _: &_, segment: &OpenedSegment| records.extend_from_slice(segment.records());
        let walked = walk_segments(workers, &self.chain_key, &self.session, remote, sink);
        let local = engine
            .unshipped()
            .map(|seg| (Some(seg.envelope.segment_seq()), &seg.batch))
            .chain([(None, pending)]);
        let verified = walked.and_then(|mut head| {
            for (staged_seq, batch) in local {
                let images: Vec<_> = batch.records.iter().map(LogRecord::chain_image).collect();
                HashChain::verify_from(&self.chain_key, head, &images, &batch.links).map_err(
                    |e| match staged_seq {
                        Some(segment_seq) => format!(
                            "chain gap: staged segment {segment_seq} does not extend the \
                             verified prefix ({e}) — acknowledged offloads were lost \
                             upstream or the staged links were tampered with"
                        ),
                        None => format!("pending tail: {e}"),
                    },
                )?;
                records.extend_from_slice(&batch.records);
                // By the links just verified, not by a header nobody opened.
                head = batch.links.last().map_or(head, |link| link.tag);
            }
            match appended {
                Some(appended) if records.len() as u64 != appended => Err(format!(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RssdConfig;
    use crate::device::RssdDevice;
    use crate::rebuild::RebuildImage;
    use crate::remote_target::{RemoteError, StoreAck};
    use crate::segment::SegmentBody;
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_obs::ProfilerHandle;
    use rssd_ssd::BlockDevice;
    use std::collections::BTreeMap;

    /// A store that keeps whatever it is handed — a collector the adversary
    /// controls — and can refuse to hand one segment back.
    #[derive(Clone, Default)]
    struct Shelf {
        segments: BTreeMap<u64, SegmentEnvelope>,
        refuse: Option<u64>,
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

    /// A history of one segment per overwrite that fills two windows and
    /// half a third.
    fn three_window_device() -> RssdDevice<Shelf> {
        let device = shelved_device(8 + 2 * WINDOW as u64 + WINDOW as u64 / 2, 1);
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
        let answers = [1, 2, 4].map(|workers| {
            let mut device = three_window_device();
            let keys = device.escrow_keys();
            let end_ns = device.clock().now_ns();
            let image = RebuildImage::harvest_on(workers, &keys, device.remote_mut())
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
        });
        for (workers, answer) in [1, 2, 4].iter().zip(&answers) {
            assert!(*answer == answers[0], "{workers} workers answer otherwise");
        }
    }

    /// What a store can do to one stored segment.
    #[derive(Clone, Copy, Debug)]
    enum Damage {
        /// A bit of the sealed payload flips.
        FlipPayload,
        /// The header names a head the payload does not end at.
        ForgeHead,
        /// The store loses the segment.
        Remove,
        /// The store refuses to hand the segment back.
        RefuseFetch,
        /// Resealed under the device's own session around a link the chain
        /// key never made: it opens, and its links do not verify.
        Relink,
        /// Resealed under the device's own session around a pre-image frame
        /// that is not a frame: it authenticates, its metadata opens, and
        /// its pre-images do not decode.
        GarblePreimages,
        /// Resealed likewise around a valid pre-image frame one byte short
        /// of what the segment's `retained_len` add up to.
        MiscountPreimages,
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
        let mut metadata = seq.to_le_bytes().to_vec();
        metadata.extend_from_slice(&honest.record_count().to_le_bytes());
        for (record, len) in opened.records().iter().zip(opened.retained_len()) {
            metadata.extend_from_slice(&record.chain_image());
            metadata.extend_from_slice(&len.unwrap_or(u32::MAX).to_le_bytes());
        }
        for link in opened.links() {
            metadata.extend_from_slice(&link.seq.to_le_bytes());
            metadata.extend_from_slice(link.tag.as_bytes());
        }
        let frame = rssd_compress::compress_adaptive(&metadata);
        let mut plain = (frame.len() as u32).to_le_bytes().to_vec();
        plain.extend_from_slice(&frame);
        plain.extend_from_slice(preimage_frame);
        let resealed = SegmentEnvelope::new(
            honest.device_id(),
            seq,
            honest.prev_chain_head(),
            honest.chain_head(),
            honest.record_count(),
            &reader.session.seal(seq, &plain),
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
            Damage::ForgeHead => rebuilt(Digest::from_bytes([0xAB; 32]), honest.sealed_payload()),
            Damage::Remove => {
                shelf.segments.remove(&seq);
                return;
            }
            Damage::RefuseFetch => {
                shelf.refuse = Some(seq);
                return;
            }
            Damage::Relink => {
                let opened = honest.open(&reader.session, OpenDepth::Metadata).unwrap();
                let mut links = opened.links().to_vec();
                links[0].tag = Digest::from_bytes([0xCD; 32]);
                let retained_len = vec![None; links.len()];
                let body = SegmentBody {
                    records: opened.records(),
                    links: &links,
                    retained_len: &retained_len,
                    preimages: &[],
                };
                let profiler = ProfilerHandle::disabled();
                let prev = honest.prev_chain_head();
                let device_id = honest.device_id();
                SegmentEnvelope::seal(&reader.session, &profiler, device_id, seq, prev, body).0
            }
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
        let (key, session) = (&reader.chain_key, &reader.session);
        let walked = walk_segments(workers, key, session, store, |seq, _, _| sunk.push(seq));
        (walked, sunk)
    }

    #[test]
    fn a_damaged_store_fails_alike_at_1_2_and_4_workers_in_the_first_middle_and_last_window() {
        use Damage::*;
        let device = three_window_device();
        let reader = EvidenceReader::new(&device.escrow_keys());
        let honest = device.remote().clone();
        let stored = honest.stored_segments();
        for i in [2, WINDOW + WINDOW / 2, stored.len() - 2] {
            let (prev, seq, next) = (stored[i - 1], stored[i], stored[i + 1]);
            // Each case: the damage, how the first failing segment — the
            // one that decides — must be named, and the verified prefix.
            let cases = [
                (vec![(FlipPayload, seq)], format!("open segment {seq}: "), i),
                (vec![(ForgeHead, seq)], format!("open segment {seq}: "), i),
                (
                    vec![(Remove, seq)],
                    format!("segment {next} does not extend"),
                    i,
                ),
                (
                    vec![(RefuseFetch, seq)],
                    format!("fetch segment {seq}: "),
                    i,
                ),
                (vec![(Relink, seq)], format!("segment {seq}: "), i),
                // An earlier segment outranks a later one, whatever fails
                // there; within a segment a failed open outranks a break in
                // continuity, which outranks a link that does not verify.
                (
                    vec![(Relink, seq), (FlipPayload, next)],
                    format!("segment {seq}: "),
                    i,
                ),
                (
                    vec![(FlipPayload, seq), (RefuseFetch, next)],
                    format!("open segment {seq}: "),
                    i,
                ),
                (
                    vec![(Remove, seq), (FlipPayload, next)],
                    format!("open segment {next}: "),
                    i,
                ),
                (
                    vec![(Remove, prev), (Relink, seq)],
                    format!("segment {seq} does not extend"),
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
                assert!(failure.starts_with(&named), "{damages:?}: {failure}");
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
            let honest = RebuildImage::harvest_on(workers, &keys, device.remote_mut())
                .expect("an honest store harvests");
            let mut store = device.remote().clone();
            let image = RebuildImage::harvest_on(workers, &keys, &mut store)
                .expect("an honest store harvests");
            let (_, _, index) = reader.walk_store(1, &mut store, |_, _| ()).unwrap();
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
            .walk_store(1, device.remote_mut(), |_, _| ())
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
            RebuildImage::harvest_on(workers, &keys, store).map(|image| image.report())
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
