//! The NVMe-oE capsule protocol: fragmentation, sequencing, cumulative
//! acknowledgement and retransmission over the lossy link.
//!
//! # Examples
//!
//! A fabric transfer consumes simulated nanoseconds proportional to the
//! payload and the link, and a dead link surfaces as a timeout rather than
//! an infinite retry loop:
//!
//! ```
//! use bytes::Bytes;
//! use rssd_net::{LinkConfig, NvmeOeEndpoint};
//!
//! let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
//! let payload = Bytes::from(vec![7u8; 20_000]);
//! let (done_ns, delivered) = fabric.transfer_segment(1, payload.clone(), 0);
//! assert_eq!(delivered, payload);
//! // 1.25 GB/s line rate: 20 kB cannot arrive faster than 16 us.
//! assert!(done_ns >= 16_000);
//!
//! fabric.set_link_down(true);
//! let err = fabric
//!     .try_transfer_segment(2, payload, done_ns, 4)
//!     .unwrap_err();
//! assert_eq!(err.stall_rounds, 4);
//! ```

use crate::frame::{EthernetFrame, MacAddr, MAX_PAYLOAD};
use crate::link::{LinkConfig, SharedLink, SimLink};
use bytes::Bytes;
use rssd_obs::SinkHandle;

/// Capsule header magic ("NVOE" + version 1).
const MAGIC: [u8; 4] = *b"NVO\x01";
/// Header: magic (4) + kind (1) + seq (8) + segment_seq (8) + len (4).
const HEADER: usize = 25;
/// Payload bytes carried per capsule.
pub const CAPSULE_PAYLOAD: usize = MAX_PAYLOAD - HEADER;

/// Capsule type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CapsuleKind {
    /// A fragment of an offloaded log segment, device → remote.
    SegmentWrite,
    /// A request to read a stored segment back, device → remote.
    SegmentRead,
    /// A fragment of a segment served back, remote → device.
    ReadResponse,
    /// Cumulative acknowledgement.
    Ack,
}

impl CapsuleKind {
    fn id(self) -> u8 {
        match self {
            CapsuleKind::SegmentWrite => 1,
            CapsuleKind::SegmentRead => 2,
            CapsuleKind::ReadResponse => 3,
            CapsuleKind::Ack => 4,
        }
    }

    fn from_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(CapsuleKind::SegmentWrite),
            2 => Some(CapsuleKind::SegmentRead),
            3 => Some(CapsuleKind::ReadResponse),
            4 => Some(CapsuleKind::Ack),
            _ => None,
        }
    }
}

/// One protocol capsule. The payload is a [`Bytes`] view — on the send side
/// a zero-copy slice of the segment's shared wire image, on the receive side
/// a zero-copy slice of the delivered frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Capsule {
    /// Capsule type.
    pub kind: CapsuleKind,
    /// Per-direction monotone capsule sequence number.
    pub seq: u64,
    /// The log segment this capsule belongs to.
    pub segment_seq: u64,
    /// Fragment payload.
    pub payload: Bytes,
}

/// Capsule parse/encode errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Missing or wrong magic/version.
    BadMagic,
    /// Shorter than the header or the declared length.
    Truncated,
    /// Unknown capsule kind id.
    UnknownKind(u8),
    /// The payload exceeds [`CAPSULE_PAYLOAD`] and cannot ride one Ethernet
    /// frame: refused at encode (the header's length field is a `u32`;
    /// before this error existed an oversized payload had its length
    /// silently truncated instead of being rejected) and at decode, where
    /// it is a fragment running into the next one's bytes.
    PayloadTooLarge(usize),
    /// Receive-side: a well-formed capsule, but not the segment fragment
    /// awaited under its sequence number — another transfer's, another
    /// fragment's (a duplicate, or a sequence outside the transfer), or one
    /// of another length, overlapping its neighbour or short of it.
    Unexpected,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic => write!(f, "bad capsule magic"),
            ProtocolError::Truncated => write!(f, "truncated capsule"),
            ProtocolError::UnknownKind(k) => write!(f, "unknown capsule kind {k}"),
            ProtocolError::Unexpected => write!(f, "not the awaited segment fragment"),
            ProtocolError::PayloadTooLarge(len) => {
                write!(
                    f,
                    "capsule payload of {len} bytes exceeds the {CAPSULE_PAYLOAD}-byte fragment limit"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Reliable transfer gave up: the fabric made no forward progress (no new
/// fragment delivered, no completing ack) for the caller's stall budget of
/// consecutive retransmission rounds.
///
/// This is how a [`SimLink`] blackout window becomes visible to the offload
/// engine: the transport times out, the segment stays pending on-device, and
/// the caller decides whether to queue, retry, or report the remote
/// unreachable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferStalled {
    /// Consecutive no-progress rounds observed before giving up.
    pub stall_rounds: u32,
    /// Simulated time at which the sender gave up (RTO waits included).
    pub gave_up_at_ns: u64,
}

impl std::fmt::Display for TransferStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transfer stalled for {} consecutive rounds (gave up at {} ns)",
            self.stall_rounds, self.gave_up_at_ns
        )
    }
}

impl std::error::Error for TransferStalled {}

impl Capsule {
    /// Serializes the capsule into one frame-payload buffer.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::PayloadTooLarge`] if the payload exceeds
    /// [`CAPSULE_PAYLOAD`] — an oversized length used to be silently
    /// truncated into the header's `u32` length field; now it is rejected
    /// before any bytes hit the wire.
    pub fn to_wire(&self) -> Result<Bytes, ProtocolError> {
        if self.payload.len() > CAPSULE_PAYLOAD {
            return Err(ProtocolError::PayloadTooLarge(self.payload.len()));
        }
        let mut out = Vec::with_capacity(HEADER + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(self.kind.id());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.segment_seq.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        Ok(Bytes::from(out))
    }

    /// Parses a capsule from a delivered frame payload. The capsule's
    /// payload is a zero-copy slice of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on malformed input, and
    /// [`ProtocolError::PayloadTooLarge`] on a declared payload no capsule
    /// may carry.
    pub fn from_wire(data: &Bytes) -> Result<Self, ProtocolError> {
        if data.len() < HEADER {
            return Err(ProtocolError::Truncated);
        }
        if data[..4] != MAGIC {
            return Err(ProtocolError::BadMagic);
        }
        let kind = CapsuleKind::from_id(data[4]).ok_or(ProtocolError::UnknownKind(data[4]))?;
        let seq = u64::from_le_bytes(data[5..13].try_into().expect("8 bytes"));
        let segment_seq = u64::from_le_bytes(data[13..21].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(data[21..25].try_into().expect("4 bytes")) as usize;
        if len > CAPSULE_PAYLOAD {
            return Err(ProtocolError::PayloadTooLarge(len));
        }
        if data.len() < HEADER + len {
            return Err(ProtocolError::Truncated);
        }
        Ok(Capsule {
            kind,
            seq,
            segment_seq,
            payload: data.slice(HEADER..HEADER + len),
        })
    }

    /// The payload, if this is fragment `seq` of segment `segment_seq`,
    /// `len` bytes long.
    fn fragment_of(self, segment_seq: u64, seq: u64, len: usize) -> Result<Bytes, ProtocolError> {
        let awaited = (CapsuleKind::SegmentWrite, segment_seq, seq, len);
        if (self.kind, self.segment_seq, self.seq, self.payload.len()) == awaited {
            Ok(self.payload)
        } else {
            Err(ProtocolError::Unexpected)
        }
    }
}

/// Transfer statistics for the offload-path experiment (E8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct TransferStats {
    /// Segments fully transferred and acknowledged.
    pub segments: u64,
    /// Data capsules sent (including retransmissions).
    pub capsules_sent: u64,
    /// Capsules retransmitted after loss.
    pub retransmissions: u64,
    /// Acks received.
    pub acks: u64,
    /// Payload bytes delivered (goodput).
    pub payload_bytes: u64,
    /// Timeout rounds that waited out an RTO (each wait doubles within a
    /// transfer, capped, and resets on progress or a new transfer).
    pub rto_timeouts: u64,
}

/// The device↔remote NVMe-oE fabric: both link directions and the
/// reliable-delivery protocol between them.
///
/// The transfer discipline is a batched go-back-N: all fragments of a
/// segment are pipelined back-to-back, the receiver cumulative-acks the
/// batch, and lost fragments are retransmitted after a retransmission
/// timeout until the segment is complete.
#[derive(Clone, Debug)]
pub struct NvmeOeEndpoint {
    to_remote: SharedLink,
    to_device: SimLink,
    next_seq: u64,
    /// Smoothed round-trip time (RFC 6298). Zero until the first sample.
    srtt_ns: u64,
    /// Round-trip time variance (RFC 6298).
    rttvar_ns: u64,
    stats: TransferStats,
    /// Trace sink for `link_loss` / `retransmission` instants on the
    /// `wire/uplink` track. Disabled by default.
    sink: SinkHandle,
    /// Latest timestamp already on the `wire/uplink` track (observer
    /// state only; see [`Self::trace_uplink`]).
    traced_until_ns: u64,
}

impl NvmeOeEndpoint {
    /// Default *initial* retransmission timeout, in force until the RTT
    /// estimator takes its first sample.
    pub const DEFAULT_RTO_NS: u64 = 2_000_000; // 2 ms
    /// Floor for the adaptive RTO once RTT samples exist — a fast fabric
    /// may recover far quicker than the conservative initial timeout.
    pub const MIN_RTO_NS: u64 = 100_000; // 100 us
    /// Ceiling for the adaptive RTO and for exponential backoff.
    pub const MAX_RTO_NS: u64 = 512_000_000; // 512 ms
    /// Simulated clock granularity `G` in `SRTT + max(G, 4·RTTVAR)`.
    const RTO_GRANULARITY_NS: u64 = 1_000; // 1 us
    /// Backoff doublings are capped at this shift (further stall rounds
    /// wait the same capped interval).
    const MAX_BACKOFF_SHIFT: u32 = 6;

    /// Builds a fabric over symmetric links with `config` (a private
    /// uplink; see [`NvmeOeEndpoint::with_uplink`] for a shared one).
    pub fn new(config: LinkConfig) -> Self {
        Self::with_uplink(SharedLink::new(config), config)
    }

    /// Builds a fabric whose device → remote direction is the caller's
    /// `uplink` — possibly shared with other endpoints, so N devices
    /// funneling into one wire queue behind each other's serialization
    /// time. The remote → device return path (acks, read responses) is a
    /// private [`SimLink`] with `return_config`.
    pub fn with_uplink(uplink: SharedLink, return_config: LinkConfig) -> Self {
        NvmeOeEndpoint {
            to_remote: uplink,
            to_device: SimLink::new(return_config),
            next_seq: 0,
            srtt_ns: 0,
            rttvar_ns: 0,
            stats: TransferStats::default(),
            sink: SinkHandle::disabled(),
            traced_until_ns: 0,
        }
    }

    /// Installs a trace sink. Every frame the wire swallows (data or ack,
    /// loss pattern or partition) emits a `link_loss` instant, and every
    /// retransmitted capsule emits a `retransmission` instant, both on the
    /// `wire/uplink` track — so a trace checker can verify that
    /// retransmissions never outnumber observed losses.
    pub fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// Emits an instant on the `wire/uplink` track, stamped no earlier than
    /// the latest one already there. A transfer is simulated whole, its
    /// timers running ahead of the device clock, and the device neither
    /// waits for an ack nor is charged for a failure — so the next
    /// transfer can start *before* the last one's final round. The track
    /// renders one clock, which never steps backwards.
    fn trace_uplink(&mut self, name: &'static str, at_ns: u64, args: &[(&str, String)]) {
        self.traced_until_ns = self.traced_until_ns.max(at_ns);
        self.sink
            .instant("wire/uplink", name, self.traced_until_ns, args);
    }

    /// The retransmission timeout currently in force:
    /// [`Self::DEFAULT_RTO_NS`] until the first RTT sample, then the RFC 6298
    /// estimate `SRTT + max(G, 4·RTTVAR)` clamped to
    /// [[`Self::MIN_RTO_NS`], [`Self::MAX_RTO_NS`]].
    fn current_rto_ns(&self) -> u64 {
        if self.srtt_ns == 0 {
            Self::DEFAULT_RTO_NS
        } else {
            (self.srtt_ns + Self::RTO_GRANULARITY_NS.max(4 * self.rttvar_ns))
                .clamp(Self::MIN_RTO_NS, Self::MAX_RTO_NS)
        }
    }

    /// Smoothed round-trip time (zero until the first sample).
    #[cfg(test)]
    fn srtt_ns(&self) -> u64 {
        self.srtt_ns
    }

    /// Feeds one RTT measurement into the RFC 6298 estimator.
    fn take_rtt_sample(&mut self, rtt_ns: u64) {
        let rtt = rtt_ns.max(1); // zero is the "no sample yet" sentinel
        if self.srtt_ns == 0 {
            self.srtt_ns = rtt;
            self.rttvar_ns = rtt / 2;
        } else {
            // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − RTT|, then
            // SRTT = 7/8·SRTT + 1/8·RTT (order per the RFC).
            self.rttvar_ns = (3 * self.rttvar_ns + self.srtt_ns.abs_diff(rtt)) / 4;
            self.srtt_ns = (7 * self.srtt_ns + rtt) / 8;
        }
    }

    /// Takes both link directions down (`true`) or restores them
    /// (`false`). While down, frames serialize into the void and
    /// [`NvmeOeEndpoint::try_transfer_segment`] exhausts its stall budget —
    /// the wire expression of a network partition.
    pub fn set_link_down(&mut self, down: bool) {
        self.to_remote.set_down(down);
        self.to_device.set_down(down);
    }

    /// Whether the device → remote direction is currently down.
    pub fn is_link_down(&self) -> bool {
        self.to_remote.is_down()
    }

    /// A handle to the device → remote uplink (cloning shares the wire).
    pub fn uplink(&self) -> SharedLink {
        self.to_remote.clone()
    }

    /// Protocol statistics.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }

    /// Reliably transfers `segment_seq`/`payload` device → remote starting
    /// at `now_ns`. Returns `(completion_ns, reassembled_payload)` — the
    /// caller (the remote log server) receives the payload exactly once,
    /// in order, whatever the link loss.
    ///
    /// Retries forever: on a link that is down indefinitely this spins.
    /// Callers that must survive a partition use
    /// [`NvmeOeEndpoint::try_transfer_segment`] with a stall budget.
    pub fn transfer_segment(
        &mut self,
        segment_seq: u64,
        payload: Bytes,
        now_ns: u64,
    ) -> (u64, Bytes) {
        self.try_transfer_segment(segment_seq, payload, now_ns, u32::MAX)
            .expect("unlimited stall budget never gives up")
    }

    /// [`NvmeOeEndpoint::transfer_segment`] with a bounded stall budget.
    ///
    /// Fragments carry zero-copy slices of the shared `payload`, each under
    /// a stable capsule sequence number; every fragment's frame is built
    /// exactly once and cached for the transfer's lifetime, so go-back-N
    /// retransmission resends the identical wire bytes by refcount bump —
    /// no per-round re-serialization.
    ///
    /// A retransmission round makes *progress* when it delivers at least
    /// one new fragment or the completing cumulative ack. After
    /// `max_stall_rounds` consecutive rounds without progress — each
    /// waiting out the adaptive RTO (RFC 6298; [`Self::DEFAULT_RTO_NS`]
    /// before the first RTT sample), doubled per consecutive timeout up to
    /// [`Self::MAX_RTO_NS`] — the sender gives up with [`TransferStalled`]:
    /// the segment is **not** delivered and the caller still owns the
    /// payload.
    ///
    /// # Errors
    ///
    /// [`TransferStalled`] once the stall budget is exhausted.
    pub fn try_transfer_segment(
        &mut self,
        segment_seq: u64,
        payload: Bytes,
        now_ns: u64,
        max_stall_rounds: u32,
    ) -> Result<(u64, Bytes), TransferStalled> {
        let as_sent = |frame: &EthernetFrame| frame.payload.clone();
        self.transfer_received(segment_seq, payload, now_ns, max_stall_rounds, as_sent)
    }

    /// [`Self::try_transfer_segment`] with the bytes the remote reads of
    /// each delivered frame given by `received_as` — on the simulated wire,
    /// the frame's own payload. A delivered frame that does not parse as the
    /// fragment sent under it is a loss, which go-back-N retransmits.
    fn transfer_received(
        &mut self,
        segment_seq: u64,
        payload: Bytes,
        now_ns: u64,
        max_stall_rounds: u32,
        mut received_as: impl FnMut(&EthernetFrame) -> Bytes,
    ) -> Result<(u64, Bytes), TransferStalled> {
        let fragment_count = if payload.is_empty() {
            1
        } else {
            payload.len().div_ceil(CAPSULE_PAYLOAD)
        };
        // Fragment `i`'s share of the payload.
        let share = |i: usize| {
            let start = i * CAPSULE_PAYLOAD;
            start..(start + CAPSULE_PAYLOAD).min(payload.len())
        };
        // Build every fragment's frame once, under a stable capsule seq.
        let frames: Vec<EthernetFrame> = (0..fragment_count)
            .map(|i| {
                let capsule = Capsule {
                    kind: CapsuleKind::SegmentWrite,
                    seq: self.next_seq + i as u64,
                    segment_seq,
                    payload: payload.slice(share(i)),
                };
                EthernetFrame::nvme_oe(
                    MacAddr::REMOTE,
                    MacAddr::DEVICE,
                    capsule.to_wire().expect("fragment fits one capsule"),
                )
            })
            .collect();
        let first_seq = self.next_seq;
        self.next_seq += fragment_count as u64;
        let mut received: Vec<Option<Bytes>> = vec![None; fragment_count];
        let mut t = now_ns;
        let mut round = 0u32;
        let mut stall_rounds = 0u32;
        // Exponential backoff across this transfer's timeout rounds. Reset
        // per transfer and on progress — a healed link pays the adaptive
        // RTO, not a backoff inherited from an earlier blackout.
        let mut backoff_shift = 0u32;

        while received.iter().any(Option::is_none) {
            // One round: pipeline every missing fragment.
            let mut last_arrival = t;
            let mut progressed = false;
            for (i, frame) in frames.iter().enumerate() {
                if received[i].is_some() {
                    continue;
                }
                self.stats.capsules_sent += 1;
                if round > 0 {
                    self.stats.retransmissions += 1;
                    if self.sink.is_enabled() {
                        self.trace_uplink(
                            "retransmission",
                            t,
                            &[
                                ("segment_seq", segment_seq.to_string()),
                                ("fragment", i.to_string()),
                                ("round", round.to_string()),
                            ],
                        );
                    }
                }
                // A delivered frame that is not the fragment sent is lost
                // as surely as one the link dropped.
                let delivered = self.to_remote.transmit(frame, t).and_then(|arrival| {
                    let capsule = Capsule::from_wire(&received_as(frame));
                    let (seq, len) = (first_seq + i as u64, share(i).len());
                    let fragment = capsule.and_then(|c| c.fragment_of(segment_seq, seq, len));
                    Some((arrival, fragment.ok()?))
                });
                if let Some((arrival, fragment)) = delivered {
                    received[i] = Some(fragment);
                    last_arrival = last_arrival.max(arrival);
                    progressed = true;
                } else if self.sink.is_enabled() {
                    self.trace_uplink(
                        "link_loss",
                        t,
                        &[
                            ("kind", "data".to_string()),
                            ("segment_seq", segment_seq.to_string()),
                            ("fragment", i.to_string()),
                        ],
                    );
                }
            }
            // Cumulative ack (or timeout if everything in the round died).
            let complete = received.iter().all(Option::is_some);
            let ack = Capsule {
                kind: CapsuleKind::Ack,
                seq: self.next_seq,
                segment_seq,
                payload: Bytes::new(),
            };
            let ack_frame = EthernetFrame::nvme_oe(
                MacAddr::DEVICE,
                MacAddr::REMOTE,
                ack.to_wire().expect("empty ack always encodes"),
            );
            let ack_arrival = self.to_device.transmit(&ack_frame, last_arrival);
            if ack_arrival.is_none() && self.sink.is_enabled() {
                self.trace_uplink(
                    "link_loss",
                    last_arrival,
                    &[
                        ("kind", "ack".to_string()),
                        ("segment_seq", segment_seq.to_string()),
                    ],
                );
            }
            match ack_arrival {
                Some(ack_arrival) if complete => {
                    self.stats.acks += 1;
                    // Karn's rule: only an unambiguous exchange — completed
                    // in the very first round, with no retransmission in
                    // flight — may update the RTT estimator.
                    if round == 0 {
                        self.take_rtt_sample(ack_arrival.saturating_sub(now_ns));
                    }
                    t = ack_arrival;
                }
                _ => {
                    // Lost fragments or lost ack: wait out the adaptive
                    // RTO, doubling (capped) each consecutive timeout.
                    let wait = (self.current_rto_ns() << backoff_shift).min(Self::MAX_RTO_NS);
                    t = last_arrival.max(t) + wait;
                    backoff_shift = (backoff_shift + 1).min(Self::MAX_BACKOFF_SHIFT);
                    self.stats.rto_timeouts += 1;
                }
            }
            round += 1;
            if progressed {
                stall_rounds = 0;
                backoff_shift = 0;
            } else {
                stall_rounds += 1;
                if stall_rounds >= max_stall_rounds {
                    return Err(TransferStalled {
                        stall_rounds,
                        gave_up_at_ns: t,
                    });
                }
            }
        }

        self.stats.segments += 1;
        self.stats.payload_bytes += payload.len() as u64;
        // Reassembly: a single-fragment segment hands back the delivered
        // frame's payload slice untouched; multi-fragment segments pay the
        // receive path's one copy, gluing the slices contiguous.
        let data = if received.len() == 1 {
            received.pop().flatten().expect("complete")
        } else {
            let mut acc = Vec::with_capacity(payload.len());
            for frag in received {
                acc.extend_from_slice(&frag.expect("complete"));
            }
            Bytes::from(acc)
        };
        Ok((t, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capsule_round_trip() {
        let c = Capsule {
            kind: CapsuleKind::SegmentWrite,
            seq: 42,
            segment_seq: 7,
            payload: Bytes::from(vec![1, 2, 3]),
        };
        assert_eq!(Capsule::from_wire(&c.to_wire().unwrap()).unwrap(), c);
    }

    #[test]
    fn capsule_payload_is_sliced_not_copied() {
        let c = Capsule {
            kind: CapsuleKind::SegmentWrite,
            seq: 1,
            segment_seq: 2,
            payload: Bytes::from(vec![9u8; 256]),
        };
        let wire = c.to_wire().unwrap();
        let parsed = Capsule::from_wire(&wire).unwrap();
        assert_eq!(
            parsed.payload.as_ref().as_ptr(),
            wire[HEADER..].as_ptr(),
            "parsed payload must view the wire buffer in place"
        );
    }

    #[test]
    fn oversized_payload_rejected_not_truncated() {
        // Regression: the length field is a u32 and used to be written with
        // a silent `as u32` cast; any payload over the fragment limit must
        // now fail loudly at encode time.
        let too_big = Capsule {
            kind: CapsuleKind::SegmentWrite,
            seq: 0,
            segment_seq: 0,
            payload: Bytes::from(vec![0u8; CAPSULE_PAYLOAD + 1]),
        };
        assert_eq!(
            too_big.to_wire(),
            Err(ProtocolError::PayloadTooLarge(CAPSULE_PAYLOAD + 1))
        );
        let max = Capsule {
            kind: CapsuleKind::SegmentWrite,
            seq: 0,
            segment_seq: 0,
            payload: Bytes::from(vec![0u8; CAPSULE_PAYLOAD]),
        };
        let wire = max.to_wire().unwrap();
        assert_eq!(Capsule::from_wire(&wire).unwrap(), max);
    }

    #[test]
    fn capsule_rejects_bad_magic() {
        let mut bytes = Capsule {
            kind: CapsuleKind::Ack,
            seq: 0,
            segment_seq: 0,
            payload: Bytes::new(),
        }
        .to_wire()
        .unwrap()
        .to_vec();
        bytes[0] = b'X';
        assert_eq!(
            Capsule::from_wire(&Bytes::from(bytes)),
            Err(ProtocolError::BadMagic)
        );
    }

    #[test]
    fn capsule_rejects_truncation_and_unknown_kind() {
        assert_eq!(
            Capsule::from_wire(&Bytes::from(vec![0u8; 4])),
            Err(ProtocolError::Truncated)
        );
        let mut bytes = Capsule {
            kind: CapsuleKind::Ack,
            seq: 0,
            segment_seq: 0,
            payload: Bytes::new(),
        }
        .to_wire()
        .unwrap()
        .to_vec();
        bytes[4] = 99;
        assert_eq!(
            Capsule::from_wire(&Bytes::from(bytes)),
            Err(ProtocolError::UnknownKind(99))
        );
        let mut lying = Capsule {
            kind: CapsuleKind::Ack,
            seq: 0,
            segment_seq: 0,
            payload: Bytes::from(vec![1, 2, 3]),
        }
        .to_wire()
        .unwrap()
        .to_vec();
        lying.truncate(lying.len() - 1);
        assert_eq!(
            Capsule::from_wire(&Bytes::from(lying)),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn lossless_transfer_delivers_payload() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        let payload = Bytes::from((0..50_000u32).map(|i| i as u8).collect::<Vec<u8>>());
        let (done, delivered) = fabric.transfer_segment(1, payload.clone(), 0);
        assert_eq!(delivered, payload);
        assert!(done > 0);
        assert_eq!(fabric.stats().segments, 1);
        assert_eq!(fabric.stats().retransmissions, 0);
        assert_eq!(fabric.stats().payload_bytes, 50_000);
    }

    #[test]
    fn empty_segment_transfers() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        let (_, delivered) = fabric.transfer_segment(1, Bytes::new(), 0);
        assert!(delivered.is_empty());
        assert_eq!(fabric.stats().segments, 1);
    }

    /// A delivered frame whose bytes arrive garbled — truncated, or another
    /// capsule's — is a loss: the receive path returns a typed error, not a
    /// panic, and go-back-N resends that fragment until it arrives whole.
    #[test]
    fn a_garbled_delivery_is_a_loss_that_go_back_n_retransmits() {
        let payload = Bytes::from(
            (0..3 * CAPSULE_PAYLOAD as u32)
                .map(|i| i as u8)
                .collect::<Vec<u8>>(),
        );
        let honest = NvmeOeEndpoint::new(LinkConfig::datacenter_10g())
            .transfer_segment(9, payload.clone(), 0)
            .0;
        type Garble = fn(&Bytes) -> Bytes;
        let garbles: [(Garble, ProtocolError); 3] = [
            (|wire| wire.slice(..HEADER - 1), ProtocolError::Truncated),
            (
                |wire| {
                    let mut bytes = wire.to_vec();
                    bytes[0] ^= 0xFF;
                    Bytes::from(bytes)
                },
                ProtocolError::BadMagic,
            ),
            (
                |wire| {
                    let mut bytes = wire.to_vec();
                    bytes[5] ^= 1; // the capsule sequence number
                    Bytes::from(bytes)
                },
                ProtocolError::Unexpected,
            ),
        ];
        for (garble, error) in garbles {
            let fragment = Capsule {
                kind: CapsuleKind::SegmentWrite,
                seq: 1,
                segment_seq: 9,
                payload: payload.slice(..8),
            };
            let parsed = Capsule::from_wire(&garble(&fragment.to_wire().unwrap()));
            assert_eq!(parsed.and_then(|c| c.fragment_of(9, 1, 8)), Err(error));
            let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
            let mut deliveries = 0;
            let received_as = |frame: &EthernetFrame| {
                deliveries += 1;
                // The second fragment's first delivery arrives garbled.
                if deliveries == 2 {
                    garble(&frame.payload)
                } else {
                    frame.payload.clone()
                }
            };
            let (done, delivered) = fabric
                .transfer_received(9, payload.clone(), 0, u32::MAX, received_as)
                .expect("a garbled delivery is retransmitted");
            assert_eq!(delivered, payload);
            let stats = fabric.stats();
            assert_eq!(stats.retransmissions, 1, "one fragment resent");
            assert_eq!(stats.rto_timeouts, 1, "after one timeout");
            assert!(done > honest, "the resend costs time");
        }
    }

    /// Hostile fragment sequence numbers in a three-fragment transfer: the
    /// second fragment's first delivery arrives as a duplicate of the first,
    /// under a sequence ahead of or behind the transfer's, or overlapping a
    /// neighbour's bytes. Each is a typed error at the receiver — never a
    /// panic — so a counted loss, and go-back-N resends the fragment and
    /// delivers the payload exactly once.
    #[test]
    fn hostile_fragment_seqs_are_losses_and_go_back_n_delivers_exactly_once() {
        const CP: usize = CAPSULE_PAYLOAD;
        let payload = Bytes::from(
            (0..(2 * CP + CP / 2) as u32)
                .map(|i| (i * 13) as u8)
                .collect::<Vec<u8>>(),
        );
        // A segment-9 fragment's wire bytes, whatever its sequence and
        // payload: what a hostile sender puts on the wire (`to_wire`
        // refuses an oversized payload).
        let raw = |seq: u64, bytes: &[u8]| {
            let mut wire = MAGIC.to_vec();
            wire.push(CapsuleKind::SegmentWrite.id());
            wire.extend_from_slice(&seq.to_le_bytes());
            wire.extend_from_slice(&9u64.to_le_bytes());
            wire.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            wire.extend_from_slice(bytes);
            Bytes::from(wire)
        };
        // (case, delivery it replaces, its bytes, the receiver's answer);
        // the fragments are 0, 1 and 2, under capsule sequences 0, 1, 2.
        let cases = [
            (
                "a duplicate of fragment 0",
                1,
                raw(0, &payload[..CP]),
                ProtocolError::Unexpected,
            ),
            (
                "a sequence past the transfer",
                1,
                raw(3, &payload[CP..2 * CP]),
                ProtocolError::Unexpected,
            ),
            (
                "a sequence before the transfer",
                1,
                raw(u64::MAX, &payload[CP..2 * CP]),
                ProtocolError::Unexpected,
            ),
            (
                "fragment 1 running into fragment 2",
                1,
                raw(1, &payload[CP..2 * CP + 100]),
                ProtocolError::PayloadTooLarge(CP + 100),
            ),
            (
                "fragment 2 reaching back into fragment 1",
                2,
                raw(2, &payload[2 * CP - 100..]),
                ProtocolError::Unexpected,
            ),
            (
                "fragment 1 short of fragment 2",
                1,
                raw(1, &payload[CP..2 * CP - 100]),
                ProtocolError::Unexpected,
            ),
        ];
        for (case, fragment, hostile, error) in cases {
            let len = (payload.len() - fragment * CP).min(CP);
            let parsed = Capsule::from_wire(&hostile);
            let answer = parsed.and_then(|c| c.fragment_of(9, fragment as u64, len));
            assert_eq!(answer, Err(error), "{case}");
            let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
            let mut deliveries = 0;
            let received_as = |frame: &EthernetFrame| {
                deliveries += 1;
                if deliveries == fragment + 1 {
                    hostile.clone()
                } else {
                    frame.payload.clone()
                }
            };
            let (_, delivered) = fabric
                .transfer_received(9, payload.clone(), 0, u32::MAX, received_as)
                .expect("a hostile delivery is retransmitted");
            assert_eq!(delivered, payload, "{case}");
            let stats = fabric.stats();
            assert_eq!(stats.segments, 1, "{case}: delivered once");
            assert_eq!(stats.retransmissions, 1, "{case}: one fragment resent");
            assert_eq!(stats.capsules_sent, 4, "{case}");
        }
    }

    #[test]
    fn lossy_link_retransmits_until_complete() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::lossy(3));
        let payload = Bytes::from((0..100_000u32).map(|i| (i * 7) as u8).collect::<Vec<u8>>());
        let (done, delivered) = fabric.transfer_segment(1, payload.clone(), 0);
        assert_eq!(delivered, payload, "payload must survive 33% loss");
        assert!(fabric.stats().retransmissions > 0);
        assert!(done > 0);
    }

    #[test]
    fn wan_is_slower_than_datacenter() {
        let payload = Bytes::from(vec![0u8; 200_000]);
        let mut dc = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        let mut wan = NvmeOeEndpoint::new(LinkConfig::wan_cloud());
        let (t_dc, _) = dc.transfer_segment(1, payload.clone(), 0);
        let (t_wan, _) = wan.transfer_segment(1, payload, 0);
        assert!(t_wan > t_dc * 5, "wan {t_wan} vs dc {t_dc}");
    }

    #[test]
    fn throughput_close_to_line_rate_on_large_segments() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        let payload = Bytes::from(vec![0u8; 10_000_000]);
        let len = payload.len();
        let (done, _) = fabric.transfer_segment(1, payload, 0);
        let gbps = len as f64 / done as f64; // bytes per ns = GB/s
        assert!(gbps > 1.0, "goodput {gbps} GB/s on a 1.25 GB/s link");
    }

    #[test]
    fn down_link_times_out_instead_of_hanging() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        fabric.set_link_down(true);
        assert!(fabric.is_link_down());
        let err = fabric
            .try_transfer_segment(1, Bytes::from(vec![1, 2, 3]), 0, 3)
            .unwrap_err();
        assert_eq!(err.stall_rounds, 3);
        // Each stalled round waits out one RTO on the simulated clock.
        assert!(err.gave_up_at_ns >= 3 * NvmeOeEndpoint::DEFAULT_RTO_NS);
        assert_eq!(fabric.stats().segments, 0);
    }

    #[test]
    fn uplink_track_never_steps_backwards_across_failed_transfers() {
        // Two attempts from the same device instant (a failed transfer
        // charges the device clock nothing): the second one's instants must
        // not land before the first one's timers gave up.
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        let sink = SinkHandle::recording();
        fabric.set_trace_sink(sink.clone());
        fabric.set_link_down(true);
        for seq in 0..2 {
            fabric
                .try_transfer_segment(seq, Bytes::from(vec![7u8; 10]), 0, 3)
                .unwrap_err();
        }
        let trace = rssd_obs::check(&sink.take_events()).unwrap_or_else(|v| panic!("{v}"));
        assert!(
            trace.instants >= 6,
            "every round of both attempts was traced"
        );
        assert_eq!(
            trace.retransmissions_matched, 4,
            "two resent rounds per attempt"
        );
    }

    #[test]
    fn restored_link_delivers_after_blackout() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        fabric.set_link_down(true);
        let gave_up = fabric
            .try_transfer_segment(1, Bytes::from(vec![9u8; 100]), 0, 2)
            .unwrap_err()
            .gave_up_at_ns;
        fabric.set_link_down(false);
        let (done, delivered) = fabric
            .try_transfer_segment(1, Bytes::from(vec![9u8; 100]), gave_up, 2)
            .unwrap();
        assert_eq!(delivered, vec![9; 100]);
        assert!(done > gave_up);
        assert_eq!(fabric.stats().segments, 1);
    }

    #[test]
    fn shared_uplink_serializes_concurrent_offloads() {
        let uplink = SharedLink::new(LinkConfig::datacenter_10g());
        let mut a = NvmeOeEndpoint::with_uplink(uplink.clone(), LinkConfig::datacenter_10g());
        let mut b = NvmeOeEndpoint::with_uplink(uplink.clone(), LinkConfig::datacenter_10g());
        let payload = Bytes::from(vec![0u8; 100_000]);
        let mut solo = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        let (t_solo, _) = solo.transfer_segment(1, payload.clone(), 0);
        let (t_a, _) = a.transfer_segment(1, payload.clone(), 0);
        let (t_b, _) = b.transfer_segment(1, payload, 0);
        assert_eq!(t_a, t_solo, "first sender owns the idle wire");
        // The second sender queues behind the first for at least the pure
        // serialization time of the payload (100 kB at 1.25 GB/s = 80 us).
        assert!(
            t_b >= t_a + 80_000,
            "second sender queues behind the first: {t_b} vs {t_a}"
        );
        assert_eq!(
            uplink.frames_offered(),
            a.stats().capsules_sent + b.stats().capsules_sent
        );
    }

    #[test]
    fn adaptive_rto_learns_from_clean_exchanges() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        assert_eq!(fabric.current_rto_ns(), NvmeOeEndpoint::DEFAULT_RTO_NS);
        assert_eq!(fabric.srtt_ns(), 0);
        let mut t = 0;
        for seq in 0..4 {
            let (done, _) = fabric.transfer_segment(seq, Bytes::from(vec![7u8; 4_000]), t);
            t = done;
        }
        assert!(fabric.srtt_ns() > 0, "clean exchanges must be sampled");
        let rto = fabric.current_rto_ns();
        assert!(
            rto < NvmeOeEndpoint::DEFAULT_RTO_NS,
            "a microsecond-RTT fabric must shrink the 2 ms initial RTO, got {rto}"
        );
        assert!(rto >= NvmeOeEndpoint::MIN_RTO_NS);
    }

    #[test]
    fn karns_rule_skips_ambiguous_samples() {
        // 33% loss forces retransmission rounds: every completing ack is
        // ambiguous (which copy does it acknowledge?), so the estimator
        // must not learn from this transfer at all.
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::lossy(3));
        let payload = Bytes::from(vec![5u8; 100_000]);
        let (_, delivered) = fabric.transfer_segment(1, payload.clone(), 0);
        assert_eq!(delivered, payload);
        assert!(fabric.stats().retransmissions > 0);
        assert_eq!(
            fabric.srtt_ns(),
            0,
            "retransmitted transfers must not feed the RTT estimator"
        );
        assert_eq!(fabric.current_rto_ns(), NvmeOeEndpoint::DEFAULT_RTO_NS);
    }

    #[test]
    fn timeout_backoff_doubles_within_a_transfer_and_resets_between() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        fabric.set_link_down(true);
        // Three no-progress rounds at base RTO r wait r + 2r + 4r = 7r.
        let r0 = fabric.current_rto_ns();
        let err = fabric
            .try_transfer_segment(1, Bytes::from(vec![1u8; 64]), 0, 3)
            .unwrap_err();
        assert_eq!(err.gave_up_at_ns, 7 * r0, "capped exponential backoff");
        assert_eq!(fabric.stats().rto_timeouts, 3);

        // Heal, let the estimator learn the real (fast) RTT...
        fabric.set_link_down(false);
        let (t, _) = fabric
            .try_transfer_segment(1, Bytes::from(vec![1u8; 64]), err.gave_up_at_ns, 2)
            .unwrap();
        assert!(fabric.srtt_ns() > 0);

        // ...then a fresh blackout: the backoff restarts from the *current*
        // adaptive RTO — nothing leaks from the earlier stall.
        fabric.set_link_down(true);
        let r1 = fabric.current_rto_ns();
        assert!(r1 < r0, "adaptive RTO shrank after clean samples");
        let err2 = fabric
            .try_transfer_segment(2, Bytes::from(vec![2u8; 64]), t, 3)
            .unwrap_err();
        assert_eq!(err2.gave_up_at_ns - t, 7 * r1, "per-transfer backoff reset");
    }

    #[test]
    fn backoff_wait_is_capped() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        fabric.set_link_down(true);
        // Enough stall rounds to exceed MAX_BACKOFF_SHIFT: the waits grow
        // 1,2,4,…,64× and then stay flat; total time stays bounded by
        // rounds × MAX_RTO_NS rather than doubling forever.
        let err = fabric
            .try_transfer_segment(1, Bytes::from(vec![3u8; 64]), 0, 20)
            .unwrap_err();
        assert_eq!(err.stall_rounds, 20);
        assert!(err.gave_up_at_ns <= 20 * NvmeOeEndpoint::MAX_RTO_NS);
    }

    #[test]
    fn sequence_numbers_advance_across_segments() {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::datacenter_10g());
        fabric.transfer_segment(1, Bytes::from(vec![1, 2, 3]), 0);
        let sent_after_first = fabric.stats().capsules_sent;
        fabric.transfer_segment(2, Bytes::from(vec![4, 5, 6]), 0);
        assert!(fabric.stats().capsules_sent > sent_after_first);
        assert_eq!(fabric.stats().segments, 2);
    }
}
