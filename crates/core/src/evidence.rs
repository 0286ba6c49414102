//! The evidence reader: everything that reads sealed segments back — the
//! one walk over the remote store ([`walk_segments`]) and, on top of it, the
//! device-side [`EvidenceReader`]: history, version index, opened-segment memo.

use crate::logrec::{LogRecord, OpenDepth, RecordView, SegmentEnvelope, SegmentView};
use crate::offload::{Batch, OffloadEngine, StagedSegment};
use crate::remote_target::RemoteTarget;
use rssd_crypto::{DeviceKeys, Digest, HashChain, KeyPurpose};
use rssd_ftl::Ftl;
use rssd_net::SecureSession;
use std::collections::HashMap;

/// Walks every segment stored on `remote` in chain order, authenticating
/// each sealed payload whole and verifying continuity and per-record HMAC
/// links, and hands each decoded record (with the sequence of the segment
/// that carried it) to `sink`. Segments are opened to `depth`: the evidence
/// walks — the device's history audit and
/// [`RssdDevice::recover`](crate::RssdDevice::recover) (which rebuilds the
/// crashed controller's version index) — read [`OpenDepth::Metadata`] and
/// never decipher a pre-image;
/// [`RebuildImage::harvest`](crate::RebuildImage::harvest) (which has no
/// device left to ask) reads [`OpenDepth::Full`] and copies each pre-image
/// once, out of the view that borrows the decompressed segment. Returns the
/// verified chain head.
///
/// # Errors
///
/// The walk stops at the first verification failure and describes it.
/// Records are only ever delivered to `sink` from fully verified segments,
/// so everything sunk is trustworthy even then — an audit keeps that
/// verified prefix as evidence while reporting the gap.
pub(crate) fn walk_segments<R: RemoteTarget>(
    chain_key: &[u8],
    session: &SecureSession,
    remote: &mut R,
    depth: OpenDepth,
    mut sink: impl FnMut(u64, RecordView<'_>),
) -> Result<Digest, String> {
    let mut head = Digest::ZERO;
    for seq in remote.stored_segments() {
        let envelope = remote
            .fetch_segment(seq)
            .map_err(|e| format!("fetch segment {seq}: {e}"))?;
        let raw = envelope
            .open(session, depth)
            .map_err(|e| format!("open segment {seq}: {e}"))?;
        let segment =
            SegmentView::parse(&raw, depth).map_err(|e| format!("open segment {seq}: {e}"))?;
        if envelope.prev_chain_head() != head {
            return Err(format!("segment {seq} does not extend the chain"));
        }
        let images: Vec<_> = segment
            .records
            .iter()
            .map(|r| r.meta.chain_image())
            .collect();
        HashChain::verify_from(chain_key, head, &images, &segment.links)
            .map_err(|e| format!("segment {seq}: {e}"))?;
        head = envelope.chain_head();
        for record in segment.records {
            sink(seq, record);
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

/// Where one retained page version was sealed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SealedVersion {
    pub(crate) segment_seq: u64,
    invalidated_at_ns: u64,
    record_seq: u64,
}

pub(crate) type VersionIndex = HashMap<u64, Vec<SealedVersion>>;

fn index_version(index: &mut VersionIndex, segment_seq: u64, rec: &LogRecord) {
    index.entry(rec.lpa).or_default().push(SealedVersion {
        segment_seq,
        invalidated_at_ns: rec.at_ns,
        record_seq: rec.seq,
    });
}

#[derive(Debug)]
pub(crate) struct EvidenceReader {
    chain_key: [u8; 32],
    session: SecureSession,
    /// Device-RAM index of sealed old versions per LPA: every version the
    /// device sealed (or found sealed, at recovery) and in which segment —
    /// whether that segment is still staged is the offload engine's to say.
    pub(crate) index: VersionIndex,
    /// The sealed segment most recently opened to serve a recovery lookup —
    /// its wire image and the plaintext that opened from. Consecutive
    /// victims usually had their pre-attack versions sealed into the same
    /// segment; a lookup whose envelope is byte-equal to this one skips the
    /// verify + decrypt + decompress. Controller RAM: dies with a crash.
    pub(crate) opened: Option<(SegmentEnvelope, Vec<u8>)>,
}

impl EvidenceReader {
    pub(crate) fn new(keys: &DeviceKeys) -> Self {
        EvidenceReader {
            chain_key: keys.derive(KeyPurpose::EvidenceChain, 0),
            session: SecureSession::new(keys, 0),
            index: HashMap::new(),
            opened: None,
        }
    }

    /// Indexes the retained versions sealed in `seg`.
    pub(crate) fn index_sealed(&mut self, seg: &StagedSegment) {
        let retained = seg
            .batch
            .records
            .iter()
            .filter(|r| r.old_page_index.is_some());
        for rec in retained {
            index_version(&mut self.index, seg.envelope.segment_seq(), rec);
        }
    }

    /// Crash recovery's remote half: walks the store, verifying it end to
    /// end. Returns the verified chain head, the records walked and the
    /// version index, to install once the recovery can no longer fail.
    pub(crate) fn walk_store(
        &self,
        remote: &mut impl RemoteTarget,
    ) -> Result<(Digest, u64, VersionIndex), String> {
        let (mut records, mut index) = (0, HashMap::new());
        let sink = |segment_seq, record: RecordView<'_>| {
            records += 1;
            if record.retained_len.is_some() {
                index_version(&mut index, segment_seq, &record.meta);
            }
        };
        let depth = OpenDepth::Metadata;
        let head = walk_segments(&self.chain_key, &self.session, remote, depth, sink)?;
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
        remote: &mut impl RemoteTarget,
        engine: &OffloadEngine,
        pending: &Batch,
        appended: Option<u64>,
    ) -> HistoryAudit {
        let mut records: Vec<LogRecord> = Vec::new();
        let sink = |_seq, record: RecordView<'_>| records.push(record.meta);
        let depth = OpenDepth::Metadata;
        let walked = walk_segments(&self.chain_key, &self.session, remote, depth, sink);
        let local = engine
            .unshipped()
            .map(|seg| (Some(&seg.envelope), &seg.batch))
            .chain([(None, pending)]);
        let verified = walked.and_then(|mut head| {
            for (envelope, batch) in local {
                let images: Vec<_> = batch.records.iter().map(LogRecord::chain_image).collect();
                HashChain::verify_from(&self.chain_key, head, &images, &batch.links).map_err(
                    |e| match envelope {
                        Some(envelope) => format!(
                            "chain gap: staged segment {} does not extend the \
                             verified prefix ({e}) — acknowledged offloads were lost \
                             upstream or the staged links were tampered with",
                            envelope.segment_seq()
                        ),
                        None => format!("pending tail: {e}"),
                    },
                )?;
                records.extend(batch.records.iter().cloned());
                if let Some(envelope) = envelope {
                    head = envelope.chain_head();
                }
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

    /// The retained pre-image of `lpa` that was valid just before
    /// `before_ns` (`None`: the newest), looked for in the `pending` tail
    /// (still pinned on flash) and among the sealed versions (opened from
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
        enum Source {
            Pending(u64),
            Sealed(SealedVersion),
        }
        let pending = pending.records.iter().filter(|r| r.lpa == lpa);
        let pending =
            pending.filter_map(|r| Some(((r.at_ns, r.seq), Source::Pending(r.old_page_index?))));
        let sealed = self.index.get(&lpa).into_iter().flatten();
        let sealed = sealed.map(|v| ((v.invalidated_at_ns, v.record_seq), Source::Sealed(*v)));
        // Keyed by invalidation (time, seq) — the chain's sequence numbers
        // are the device's total operation order. A version invalidated at
        // time t was valid until t: the one valid just before `before_ns`
        // has the smallest key at or after it; the newest, the largest key.
        let mut best: Option<((u64, u64), Source)> = None;
        for (key, source) in pending.chain(sealed) {
            let incumbent = best.as_ref().map(|(b, _)| *b);
            let better = match before_ns {
                Some(before_ns) => key.0 >= before_ns && incumbent.map_or(true, |b| key < b),
                None => incumbent.map_or(true, |b| key > b),
            };
            if better {
                best = Some((key, source));
            }
        }
        match best?.1 {
            Source::Pending(page_index) => {
                let ppa = ftl.geometry().page_from_index(page_index);
                ftl.read_physical_background(ppa).ok().map(|(data, _)| data)
            }
            Source::Sealed(v) => {
                let envelope = match engine.staged_envelope(v.segment_seq) {
                    // The pre-image lives inside the staged segment's
                    // sealed envelope (RAM-only, spilled to NAND or in
                    // flight) — open it locally, no remote involved.
                    Some(envelope) => envelope.clone(),
                    // The fetch is issued on every lookup, memo or not: a
                    // partitioned remote still refuses, and a store that no
                    // longer returns the bytes the memo was opened from
                    // misses it and faces authentication again.
                    None => remote.fetch_segment(v.segment_seq).ok()?,
                };
                self.preimage_in(envelope, v.record_seq)
            }
        }
    }

    /// The retained pre-image that record `record_seq` carries inside
    /// `envelope`, opening the envelope unless it is byte-equal to the one
    /// opened last (see the `opened` field). Only the page asked for is
    /// copied out of the opened plaintext.
    fn preimage_in(&mut self, envelope: SegmentEnvelope, record_seq: u64) -> Option<Vec<u8>> {
        if !matches!(&self.opened, Some((memo, _)) if *memo == envelope) {
            let raw = envelope.open(&self.session, OpenDepth::Full).ok()?;
            self.opened = Some((envelope, raw));
        }
        let (_, raw) = self.opened.as_ref()?;
        let segment = SegmentView::parse(raw, OpenDepth::Full).ok()?;
        let record = segment.records.iter().find(|r| r.meta.seq == record_seq)?;
        record.old_data.map(<[u8]>::to_vec)
    }
}
