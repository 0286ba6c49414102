//! The device's view of the remote side of the codesign.

use crate::logrec::WireError;
use crate::segment::SegmentEnvelope;
use rssd_crypto::Digest;
use serde::{Deserialize, Serialize};
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreAck {
    /// The acknowledged segment.
    pub segment_seq: u64,
    /// Simulated time the segment was durable remotely.
    pub durable_at_ns: u64,
}

/// The remote log store the device offloads to. [`LoopbackTarget`] provides
/// an in-process implementation for tests;
/// [`WireRemote`](crate::wire::WireRemote) carries every segment over the
/// simulated NVMe-oE fabric to whatever target it wraps (including the real
/// log server in `rssd-remote`).
pub trait RemoteTarget {
    /// Durably stores an envelope after verifying chain continuity.
    ///
    /// # Errors
    ///
    /// [`RemoteError::ChainDiscontinuity`] if the envelope does not extend
    /// the stored chain; [`RemoteError::Unreachable`] on (simulated) network
    /// failure.
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError>;

    /// Fetches a stored envelope for recovery/analysis.
    ///
    /// # Errors
    ///
    /// [`RemoteError::NoSuchSegment`] when absent.
    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError>;

    /// Sequence numbers currently stored, in order.
    fn stored_segments(&self) -> Vec<u64>;

    /// Installs a trace sink on whatever transport sits under this target.
    /// The default is a no-op: in-process targets have no wire to observe.
    /// [`WireRemote`](crate::wire::WireRemote) forwards the sink to its
    /// fabric so link losses and retransmissions become trace instants.
    fn set_trace_sink(&mut self, _sink: rssd_obs::SinkHandle) {}
}

/// In-process remote target with perfect availability and zero latency.
/// Verifies chain continuity exactly like the real server.
#[derive(Clone, Debug)]
pub struct LoopbackTarget {
    segments: BTreeMap<u64, SegmentEnvelope>,
    last_head: Option<Digest>,
    reachable: bool,
}

impl Default for LoopbackTarget {
    /// [`LoopbackTarget::new`]: empty and *reachable* (a derived default
    /// would start partitioned).
    fn default() -> Self {
        Self::new()
    }
}

impl LoopbackTarget {
    /// Creates an empty, reachable target.
    pub fn new() -> Self {
        LoopbackTarget {
            segments: BTreeMap::new(),
            last_head: None,
            reachable: true,
        }
    }

    /// Simulates a network partition (offload attempts fail until restored).
    pub fn set_reachable(&mut self, reachable: bool) {
        self.reachable = reachable;
    }

    /// Total sealed bytes stored.
    pub fn stored_bytes(&self) -> u64 {
        self.segments
            .values()
            .map(|e| e.sealed_payload().len() as u64)
            .sum()
    }
}

impl RemoteTarget for LoopbackTarget {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        if !self.reachable {
            return Err(RemoteError::Unreachable);
        }
        if let Some(expected) = self.last_head {
            if envelope.prev_chain_head() != expected {
                return Err(RemoteError::ChainDiscontinuity {
                    expected,
                    got: envelope.prev_chain_head(),
                });
            }
        }
        self.last_head = Some(envelope.chain_head());
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

    fn envelope(seq: u64, prev: Digest, head: Digest) -> SegmentEnvelope {
        SegmentEnvelope::new(1, seq, prev, head, 0, &[seq as u8; 8])
    }

    fn digest(b: u8) -> Digest {
        Digest::from_bytes([b; 32])
    }

    #[test]
    fn stores_and_fetches() {
        // The default target is `new()`: reachable, not born partitioned.
        let mut t = LoopbackTarget::default();
        t.store_segment(envelope(0, Digest::ZERO, digest(1)), 100)
            .unwrap();
        let fetched = t.fetch_segment(0).unwrap();
        assert_eq!(fetched.segment_seq(), 0);
        assert_eq!(t.stored_segments(), vec![0]);
        assert_eq!(t.stored_bytes(), 8);
    }

    #[test]
    fn enforces_chain_continuity() {
        let mut t = LoopbackTarget::new();
        t.store_segment(envelope(0, Digest::ZERO, digest(1)), 0)
            .unwrap();
        // Extending from the stored head works.
        t.store_segment(envelope(1, digest(1), digest(2)), 0)
            .unwrap();
        // A forged/rewound head is rejected.
        let err = t
            .store_segment(envelope(2, digest(9), digest(3)), 0)
            .unwrap_err();
        assert!(matches!(err, RemoteError::ChainDiscontinuity { .. }));
    }

    #[test]
    fn missing_segment_errors() {
        let mut t = LoopbackTarget::new();
        assert_eq!(t.fetch_segment(4), Err(RemoteError::NoSuchSegment(4)));
    }

    #[test]
    fn partition_is_simulated() {
        let mut t = LoopbackTarget::new();
        t.set_reachable(false);
        assert_eq!(
            t.store_segment(envelope(0, Digest::ZERO, digest(1)), 0),
            Err(RemoteError::Unreachable)
        );
        t.set_reachable(true);
        t.store_segment(envelope(0, Digest::ZERO, digest(1)), 0)
            .unwrap();
    }
}
