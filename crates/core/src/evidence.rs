//! The evidence reader: everything that reads sealed segments back — the
//! one walk over the remote store ([`walk_segments`]) and, on top of it, the
//! device-side [`EvidenceReader`]: history, and page versions looked up
//! through the one index and rule of [`crate::versions`].

use crate::logrec::LogRecord;
use crate::offload::{Batch, OffloadEngine, StagedSegment};
use crate::remote_target::RemoteTarget;
use crate::segment::{OpenDepth, OpenedSegment, Preimages, SegmentEnvelope};
use crate::versions::{Located, VersionIndex};
use rssd_crypto::{DeviceKeys, Digest, HashChain, KeyPurpose};
use rssd_ftl::Ftl;
use rssd_net::SecureSession;
use std::collections::HashMap;

/// Walks every segment stored on `remote` in chain order — each through the
/// one door, [`SegmentEnvelope::open`], which authenticates the payload and
/// holds the header against it — requiring each to extend the running head
/// and its per-record HMAC links to verify, and hands each opened segment
/// (with its sequence) to `sink`. The evidence walks — the device's history
/// audit and [`RssdDevice::recover`](crate::RssdDevice::recover) (which
/// rebuilds the crashed controller's version index) — pass no `kept`:
/// segments are opened to [`OpenDepth::Metadata`] and no pre-image is ever
/// deciphered. [`RebuildImage::harvest`](crate::RebuildImage::harvest)
/// (which has no device left to ask) passes the map to keep every segment's
/// pre-images in, by segment sequence: segments are opened to
/// [`OpenDepth::Full`]. Returns the verified chain head.
///
/// # Errors
///
/// The walk stops at the first verification failure and describes it.
/// Only fully verified segments are ever delivered to `sink`, so everything
/// sunk is trustworthy even then — an audit keeps that verified prefix as
/// evidence while reporting the gap.
pub(crate) fn walk_segments<R: RemoteTarget>(
    chain_key: &[u8],
    session: &SecureSession,
    remote: &mut R,
    mut kept: Option<&mut HashMap<u64, Preimages>>,
    mut sink: impl FnMut(u64, &OpenedSegment),
) -> Result<Digest, String> {
    let depth = match kept {
        Some(_) => OpenDepth::Full,
        None => OpenDepth::Metadata,
    };
    let mut head = Digest::ZERO;
    for seq in remote.stored_segments() {
        let envelope = remote
            .fetch_segment(seq)
            .map_err(|e| format!("fetch segment {seq}: {e}"))?;
        let segment = envelope
            .open(session, depth)
            .map_err(|e| format!("open segment {seq}: {e}"))?;
        if envelope.prev_chain_head() != head {
            return Err(format!("segment {seq} does not extend the chain"));
        }
        let images: Vec<_> = segment
            .records()
            .iter()
            .map(LogRecord::chain_image)
            .collect();
        HashChain::verify_from(chain_key, head, &images, segment.links())
            .map_err(|e| format!("segment {seq}: {e}"))?;
        // The door held the header's head to the last of those links.
        head = envelope.chain_head();
        sink(seq, &segment);
        if let Some(kept) = kept.as_deref_mut() {
            kept.insert(seq, segment.into_preimages());
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
    session: SecureSession,
    /// Device-RAM index of sealed old versions per LPA: every version the
    /// device sealed (or found sealed, at recovery) and in which segment —
    /// whether that segment is still staged is the offload engine's to say.
    pub(crate) index: VersionIndex,
    /// The sealed segment most recently opened to serve a recovery lookup —
    /// its wire image and the pre-images that opened from. Consecutive
    /// victims usually had their pre-attack versions sealed into the same
    /// segment; a lookup whose envelope is byte-equal to this one skips the
    /// verify + decrypt + decompress. Controller RAM: dies with a crash.
    pub(crate) opened: Option<(SegmentEnvelope, Preimages)>,
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
    /// for a harvest, which also has every segment's pre-images `kept`.
    /// Returns the verified chain head, the records walked and the version
    /// index.
    pub(crate) fn walk_store(
        &self,
        remote: &mut impl RemoteTarget,
        kept: Option<&mut HashMap<u64, Preimages>>,
    ) -> Result<(Digest, u64, VersionIndex), String> {
        let (mut records, mut index) = (0, VersionIndex::default());
        let sink = |segment_seq, segment: &OpenedSegment| {
            records += segment.records().len() as u64;
            for (record, retained_len) in segment.records().iter().zip(segment.retained_len()) {
                index.fold(segment_seq, record, retained_len.is_some());
            }
        };
        let head = walk_segments(&self.chain_key, &self.session, remote, kept, sink)?;
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
        let sink = |_seq, segment: &OpenedSegment| records.extend_from_slice(segment.records());
        let walked = walk_segments(&self.chain_key, &self.session, remote, None, sink);
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
                if !matches!(&self.opened, Some((memo, _)) if *memo == envelope) {
                    let opened = envelope.open(&self.session, OpenDepth::Full).ok()?;
                    self.opened = Some((envelope, opened.into_preimages()));
                }
                let (_, preimages) = self.opened.as_ref()?;
                preimages.get(record_seq).map(<[u8]>::to_vec)
            }
        }
    }
}
