//! The device's view of the remote side of the codesign.

use crate::logrec::WireError;
use crate::segment::SegmentEnvelope;
use rssd_crypto::Digest;
use rssd_net::SecureSession;
use std::collections::BTreeMap;

/// Remote-side failures as seen by the offload engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteError {
    /// The remote refused the segment: its chain head does not extend the
    /// last stored head (an attacker replaying or dropping segments).
    ChainDiscontinuity {
        /// Head the server expected the envelope to extend.
        expected: Digest,
        /// Head the envelope claimed to extend.
        got: Digest,
    },
    /// The remote refused the segment: its sealed payload failed to
    /// authenticate or parse, so nothing was stored or acknowledged. The
    /// device still holds the sealed image and re-sends it.
    Unreadable {
        /// The refused segment.
        segment_seq: u64,
        /// Why the payload could not be read.
        cause: WireError,
    },
    /// No stored segment with that sequence number.
    NoSuchSegment(u64),
    /// The remote is unreachable; the device must keep data pinned locally
    /// (the conservative fallback).
    Unreachable,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::ChainDiscontinuity { .. } => {
                write!(f, "segment does not extend the stored evidence chain")
            }
            RemoteError::Unreadable { segment_seq, cause } => {
                write!(f, "segment {segment_seq} refused: {cause}")
            }
            RemoteError::NoSuchSegment(seq) => write!(f, "no stored segment {seq}"),
            RemoteError::Unreachable => write!(f, "remote target unreachable"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// Acknowledgement of a durably stored segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreAck {
    /// The acknowledged segment.
    pub segment_seq: u64,
    /// Simulated time the segment was durable remotely.
    pub durable_at_ns: u64,
}

/// The remote log store the device offloads to. Two stores implement it:
/// [`LoopbackTarget`], the in-process shelf the tests and the fault matrix
/// run on, and the log server in `rssd-remote`, the one that authenticates
/// a segment and checks that it extends the stored chain before it acks —
/// and so the one that vouches for what it hands back
/// ([`Self::fetch_vouched`]).
/// [`WireRemote`](crate::wire::WireRemote) carries every segment over the
/// simulated NVMe-oE fabric to whichever store it wraps, and its link is
/// the one place a network outage happens.
pub trait RemoteTarget {
    /// Durably stores an envelope and acknowledges it; the ack is the
    /// device's licence to unpin the segment's pre-images.
    ///
    /// # Errors
    ///
    /// What the store refused ([`RemoteError::ChainDiscontinuity`],
    /// [`RemoteError::Unreadable`]) or, across a wire, that the link could
    /// not carry it ([`RemoteError::Unreachable`]).
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError>;

    /// Fetches a stored envelope for recovery/analysis.
    ///
    /// # Errors
    ///
    /// [`RemoteError::NoSuchSegment`] when absent;
    /// [`RemoteError::Unreachable`] across a wire that is down.
    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError>;

    /// [`Self::fetch_segment`], and whether the store vouches for the
    /// envelope to a reader holding `session`: `true` means exactly that
    /// the store opened these same bytes through
    /// [`SegmentEnvelope::open`], under a session with `session`'s keys,
    /// before it stored them — so a metadata walk may leave the tag to it
    /// ([`SegmentEnvelope::open_vouched`]). An in-process property of the
    /// store, never a message: the default vouches for nothing.
    ///
    /// # Errors
    ///
    /// As [`Self::fetch_segment`].
    fn fetch_vouched(
        &mut self,
        segment_seq: u64,
        _session: &SecureSession,
    ) -> Result<(SegmentEnvelope, bool), RemoteError> {
        Ok((self.fetch_segment(segment_seq)?, false))
    }

    /// Sequence numbers currently stored, in order.
    fn stored_segments(&self) -> Vec<u64>;

    /// Installs a trace sink on whatever transport sits under this target.
    /// The default is a no-op: in-process targets have no wire to observe.
    /// [`WireRemote`](crate::wire::WireRemote) forwards the sink to its
    /// fabric so link losses and retransmissions become trace instants.
    fn set_trace_sink(&mut self, _sink: rssd_obs::SinkHandle) {}
}

/// The in-process store: a shelf that keeps whatever arrives, acks at the
/// time it was handed the segment, and refuses nothing. A gap or a fork in
/// what it holds is refused where every reader meets it, by the store walk
/// (`evidence::walk_segments`), which checks continuity on authenticated
/// headers; the store that refuses at ingest is the log server. An outage
/// is a condition of the link in front of it
/// ([`WireRemote::set_uplink_down`](crate::wire::WireRemote::set_uplink_down)).
#[derive(Clone, Debug, Default)]
pub struct LoopbackTarget {
    segments: BTreeMap<u64, SegmentEnvelope>,
}

impl LoopbackTarget {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RemoteTarget for LoopbackTarget {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        let ack = StoreAck {
            segment_seq: envelope.segment_seq(),
            durable_at_ns: now_ns,
        };
        self.segments.insert(envelope.segment_seq(), envelope);
        Ok(ack)
    }

    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
        self.segments
            .get(&segment_seq)
            .cloned()
            .ok_or(RemoteError::NoSuchSegment(segment_seq))
    }

    fn stored_segments(&self) -> Vec<u64> {
        self.segments.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RssdConfig;
    use crate::device::RssdDevice;
    use crate::rebuild::RebuildImage;
    use crate::wire::WireRemote;
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_net::LinkConfig;
    use rssd_ssd::BlockDevice;

    #[test]
    fn stores_and_fetches() {
        let mut t = LoopbackTarget::default();
        let envelope = SegmentEnvelope::new(1, 0, Digest::ZERO, Digest::ZERO, 0, &[0; 8]);
        let ack = t.store_segment(envelope.clone(), 100).unwrap();
        assert_eq!(ack.durable_at_ns, 100);
        assert_eq!(t.fetch_segment(0).unwrap(), envelope);
        assert_eq!(t.stored_segments(), vec![0]);
    }

    #[test]
    fn missing_segment_errors() {
        let mut t = LoopbackTarget::new();
        assert_eq!(t.fetch_segment(4), Err(RemoteError::NoSuchSegment(4)));
    }

    #[test]
    fn partition_is_simulated() {
        // The shelf has no switch of its own: an outage is the wire's, and
        // while it lasts what the shelf holds cannot be fetched either.
        let mut wired = WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal());
        let envelope = SegmentEnvelope::new(1, 0, Digest::ZERO, Digest::ZERO, 0, &[0; 8]);
        wired.store_segment(envelope.clone(), 0).unwrap();
        wired.set_uplink_down(true);
        let next = SegmentEnvelope::new(1, 1, Digest::ZERO, Digest::ZERO, 0, &[1; 8]);
        assert_eq!(wired.store_segment(next, 0), Err(RemoteError::Unreachable));
        assert_eq!(wired.fetch_segment(0), Err(RemoteError::Unreachable));
        assert_eq!(wired.inner().stored_segments(), vec![0]);
        wired.set_uplink_down(false);
        assert_eq!(wired.fetch_segment(0), Ok(envelope));
    }

    #[test]
    fn loopback_stores_a_gap_and_walk_segments_names_it() {
        let mut device = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        );
        for i in 0..40u64 {
            device.write_page(i % 4, vec![(i % 7) as u8; 4096]).unwrap();
        }
        device.flush_log().unwrap();
        let keys = device.escrow_keys();
        let mut honest = device.into_remote();
        let stored = honest.stored_segments();
        assert!(stored.len() >= 3, "{stored:?}");
        // Every segment but the second, handed over in order: the shelf
        // acks the one past the hole as it acked the first.
        let mut gapped = LoopbackTarget::new();
        for &seq in [stored[0]].iter().chain(&stored[2..]) {
            gapped
                .store_segment(honest.fetch_segment(seq).unwrap(), 0)
                .unwrap();
        }
        assert_eq!(gapped.stored_segments().len(), stored.len() - 1);
        let refused = RebuildImage::harvest(&keys, &mut gapped).err();
        let named = format!("segment {} does not extend the chain", stored[2]);
        assert_eq!(refused, Some(named));
        assert!(RebuildImage::harvest(&keys, &mut honest).is_ok());
    }
}
