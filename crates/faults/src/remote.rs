//! The remote half of the fault surface.
//!
//! [`PartitionMode`] names the three things a partition window can do to
//! offloads. Each is a *link condition* of the NVMe-oE wire
//! ([`WireRemote`](rssd_core::WireRemote), DESIGN.md §8), applied through
//! [`FaultRemote`](crate::FaultRemote):
//!
//! * [`Refuse`](PartitionMode::Refuse) — uplink blackout: offloads fail
//!   visibly (`RemoteError::Unreachable`); the device keeps data pinned
//!   locally. This is the conservative fallback the device already handles.
//! * [`QueueForReplay`](PartitionMode::QueueForReplay) — blackout behind a
//!   store-and-forward edge relay: offloads are acknowledged and buffered
//!   device-side, then replayed *in order* over the wire when it heals.
//! * [`DropSilently`](PartitionMode::DropSilently) — the worst case: the
//!   link is fine but the collector acknowledges and then loses the
//!   segment. The device unpins data it believes durable. The defense is
//!   that the loss can never be *silent* downstream — the evidence chain
//!   has a gap that `verified_history`, `audit_history` and
//!   `RebuildImage::harvest` all refuse to paper over.
//!
//! [`PermissiveTarget`] is a store that skips the chain-continuity ingest
//! check (a naive or compromised collector). Pairing it with a
//! `DropSilently` window is how the gap-detection property is tested: the
//! store accepts the post-gap segments, and verification — not ingest — is
//! what catches the hole.

use rssd_core::{RemoteError, RemoteTarget, SegmentEnvelope, StoreAck};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What happens to offloads attempted during a partition window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionMode {
    /// Offloads fail with `Unreachable`; data stays pinned on-device.
    Refuse,
    /// Offloads are acked and buffered, then replayed in order on heal.
    QueueForReplay,
    /// Offloads are acked and lost — the chain-gap case. The ack looks
    /// genuine, so the drop is **not** detectable at offload time: it
    /// surfaces only when `verified_history`/`audit_history`/harvest walk
    /// the evidence chain and refuse the gap (DESIGN.md §6).
    DropSilently,
}

/// A remote store **without** the chain-continuity ingest check — a naive
/// collector that accepts whatever arrives. Gaps and forks are caught at
/// verification time (`verified_history` / `RebuildImage::harvest`), which
/// is exactly the property the drop-window scenarios prove.
#[derive(Clone, Debug, Default)]
pub struct PermissiveTarget {
    segments: BTreeMap<u64, SegmentEnvelope>,
}

impl PermissiveTarget {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RemoteTarget for PermissiveTarget {
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
    use crate::target::FaultRemote;
    use rssd_core::{LoopbackTarget, WireRemote};
    use rssd_crypto::Digest;
    use rssd_net::LinkConfig;

    fn envelope(seq: u64, prev: u8, head: u8) -> SegmentEnvelope {
        let prev = if prev == 0 {
            Digest::ZERO
        } else {
            Digest::from_bytes([prev; 32])
        };
        SegmentEnvelope::new(
            1,
            seq,
            prev,
            Digest::from_bytes([head; 32]),
            0,
            &[seq as u8; 4],
        )
    }

    fn wired<R: RemoteTarget>(store: R) -> WireRemote<R> {
        WireRemote::new(store, LinkConfig::ideal())
    }

    #[test]
    fn passthrough_when_healthy() {
        let mut r = wired(LoopbackTarget::new());
        r.store_segment(envelope(0, 0, 1), 10).unwrap();
        assert_eq!(r.stored_segments(), vec![0]);
        assert_eq!(r.fetch_segment(0).unwrap().segment_seq(), 0);
    }

    #[test]
    fn refuse_mode_surfaces_unreachable() {
        let mut r = wired(LoopbackTarget::new());
        assert!(r.set_partition(PartitionMode::Refuse));
        assert_eq!(
            r.store_segment(envelope(0, 0, 1), 0),
            Err(RemoteError::Unreachable)
        );
        assert_eq!(r.fault_stats().offloads_refused, 1);
    }

    #[test]
    fn queue_mode_acks_buffers_and_replays_in_order() {
        let mut r = wired(LoopbackTarget::new());
        r.store_segment(envelope(0, 0, 1), 0).unwrap();
        assert!(r.set_partition(PartitionMode::QueueForReplay));
        r.store_segment(envelope(1, 1, 2), 5).unwrap();
        r.store_segment(envelope(2, 2, 3), 6).unwrap();
        // Acked → visible in the device's index; fetchable from the buffer.
        assert_eq!(r.stored_segments(), vec![0, 1, 2]);
        assert_eq!(r.fetch_segment(2).unwrap().segment_seq(), 2);
        // The store itself has not seen them.
        assert_eq!(r.inner().stored_segments(), vec![0]);
        // Old segments are across the dead link.
        assert_eq!(r.fetch_segment(0), Err(RemoteError::Unreachable));

        assert_eq!(r.heal(), 2);
        assert_eq!(r.inner().stored_segments(), vec![0, 1, 2]);
        assert_eq!(r.queued_segments(), 0);
        assert_eq!(r.fault_stats().offloads_replayed, 2);
    }

    #[test]
    fn drop_mode_acks_and_destroys() {
        let mut r = wired(PermissiveTarget::new());
        r.store_segment(envelope(0, 0, 1), 0).unwrap();
        assert!(r.set_partition(PartitionMode::DropSilently));
        r.store_segment(envelope(1, 1, 2), 0).unwrap();
        // A lossy collector is not a dead link: what it did store stays
        // fetchable while it drops (DESIGN.md §8).
        assert_eq!(r.fetch_segment(0).unwrap().segment_seq(), 0);
        r.heal();
        r.store_segment(envelope(2, 2, 3), 0).unwrap();
        // Segment 1 is gone; 0 and 2 stored — the chain now has a hole that
        // verification (not ingest) must catch.
        assert_eq!(r.stored_segments(), vec![0, 2]);
        assert_eq!(r.fault_stats().offloads_dropped, 1);
    }

    #[test]
    fn permissive_store_accepts_discontinuity() {
        let mut p = PermissiveTarget::new();
        p.store_segment(envelope(0, 0, 1), 0).unwrap();
        // A gap the LoopbackTarget would refuse.
        p.store_segment(envelope(5, 9, 10), 0).unwrap();
        assert_eq!(p.stored_segments(), vec![0, 5]);
    }
}
