//! Simulated Ethernet link: bandwidth, propagation delay, deterministic
//! loss injection, and operator-controlled blackout windows.
//!
//! # Examples
//!
//! A frame's arrival time is the sender's serialization time (it takes the
//! earliest idle gap on the wire at or after the moment it is offered) plus
//! the propagation delay — both in simulated nanoseconds on the shared
//! clock:
//!
//! ```
//! use bytes::Bytes;
//! use rssd_net::{EthernetFrame, LinkConfig, MacAddr, SimLink};
//!
//! let mut link = SimLink::new(LinkConfig {
//!     bandwidth_bytes_per_sec: 1_000_000_000, // 1 ns per byte
//!     propagation_delay_ns: 1_000,
//!     loss_period: 0,
//! });
//! let frame = EthernetFrame::nvme_oe(
//!     MacAddr::REMOTE,
//!     MacAddr::DEVICE,
//!     Bytes::from(vec![0u8; 986]), // 1000 bytes on the wire with the header
//! );
//! assert_eq!(link.transmit(&frame, 0), Some(2_000)); // 1000 ns + 1000 ns
//!
//! // A blackout window: frames vanish until the link comes back.
//! link.set_down(true);
//! assert_eq!(link.transmit(&frame, 5_000), None);
//! link.set_down(false);
//! assert!(link.transmit(&frame, 5_000).is_some());
//! ```

use crate::frame::EthernetFrame;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Link parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Serialization bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// One-way propagation delay in nanoseconds.
    pub propagation_delay_ns: u64,
    /// Drop every `loss_period`-th frame (`0` = lossless). Deterministic so
    /// experiments reproduce exactly.
    pub loss_period: u64,
}

impl LinkConfig {
    /// 10 GbE to a machine-room server: 1.25 GB/s, 50 µs one-way.
    pub fn datacenter_10g() -> Self {
        LinkConfig {
            bandwidth_bytes_per_sec: 1_250_000_000,
            propagation_delay_ns: 50_000,
            loss_period: 0,
        }
    }

    /// A WAN path to cloud storage: 125 MB/s, 20 ms one-way.
    pub fn wan_cloud() -> Self {
        LinkConfig {
            bandwidth_bytes_per_sec: 125_000_000,
            propagation_delay_ns: 20_000_000,
            loss_period: 0,
        }
    }

    /// Same as `datacenter_10g` but dropping every `period`-th frame.
    pub fn lossy(period: u64) -> Self {
        LinkConfig {
            loss_period: period,
            ..Self::datacenter_10g()
        }
    }

    /// An ideal link: infinite bandwidth, zero propagation, zero loss.
    /// Frames arrive the instant they are offered — the wire consumes no
    /// simulated time at all. This is the differential baseline the
    /// wire-equivalence suite compares against: a device offloading through
    /// an ideal link must be byte-identical to one calling its remote
    /// target directly.
    pub fn ideal() -> Self {
        LinkConfig {
            bandwidth_bytes_per_sec: u64::MAX,
            propagation_delay_ns: 0,
            loss_period: 0,
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::datacenter_10g()
    }
}

/// A unidirectional simulated link. Frames are serialized at the configured
/// bandwidth (the wire is reserved until the last bit leaves) and arrive
/// after the propagation delay — unless the deterministic loss pattern eats
/// them.
///
/// Senders are simulated one whole transfer at a time, so offers do not
/// arrive in time order: a go-back-N transfer that waits out an RTO books
/// its retransmission round in the future, and the next segment's first
/// round is then offered *before* it. The wire was idle in between, so the
/// link keeps the reserved serialization intervals and gives each frame the
/// earliest idle gap it fits in — a transfer sleeping on a timer does not
/// hold the wire against the traffic behind it.
#[derive(Clone, Debug)]
pub struct SimLink {
    config: LinkConfig,
    /// Reserved serialization intervals `[start, end)`: sorted, disjoint,
    /// touching ones merged, at most [`Self::MAX_RESERVED`] of them.
    reserved: Vec<(u64, u64)>,
    frames_offered: u64,
    frames_dropped: u64,
    frames_blackholed: u64,
    bytes_carried: u64,
    down: bool,
}

impl SimLink {
    /// Reserved intervals kept. A go-back-N round is one merged burst, a
    /// transfer a handful of rounds and the offload engine stages at most a
    /// few dozen segments, so the live ones fit with room to spare. Past
    /// the cap the two *earliest* are fused, idle gap included: that never
    /// double-books the wire, and it only closes a gap no current sender
    /// can still reach.
    const MAX_RESERVED: usize = 64;

    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        SimLink {
            config,
            reserved: Vec::new(),
            frames_offered: 0,
            frames_dropped: 0,
            frames_blackholed: 0,
            bytes_carried: 0,
            down: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> LinkConfig {
        self.config
    }

    /// Frames offered to the link so far.
    pub fn frames_offered(&self) -> u64 {
        self.frames_offered
    }

    /// Frames dropped by loss injection.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Frames swallowed by blackout windows (a cut cable, a dead switch).
    pub fn frames_blackholed(&self) -> u64 {
        self.frames_blackholed
    }

    /// `true` while a blackout window is open.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Opens (`true`) or closes (`false`) a blackout window. While down,
    /// every offered frame vanishes — the sender still serializes into the
    /// dead medium (bandwidth is consumed), but nothing arrives. This is
    /// how partition faults are expressed on the wire: the span between
    /// `set_down(true)` and `set_down(false)` *is* the fault window, and
    /// everything downstream (retransmission, timeout, backpressure) is
    /// emergent protocol behavior rather than an injected result.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// Payload + header bytes successfully carried.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Time the last bit of the latest reservation leaves the sender: the
    /// wire is idle from here on (zero on a link that has reserved nothing —
    /// an ideal one never does).
    pub fn busy_until_ns(&self) -> u64 {
        self.reserved.last().map_or(0, |&(_, end)| end)
    }

    /// Reserves the earliest idle `len_ns` of wire at or after `now_ns` and
    /// returns when it ends. Offers arriving in time order only ever find
    /// room behind the last reservation — `max(busy_until, now) + len`,
    /// the scalar horizon this list replaced. A frame that takes no time
    /// (an ideal link's) reserves nothing.
    fn reserve(&mut self, now_ns: u64, len_ns: u64) -> u64 {
        let mut start = now_ns;
        let mut at = 0;
        for (i, &(busy_from, busy_until)) in self.reserved.iter().enumerate() {
            if busy_until > start {
                if start < busy_from && start + len_ns <= busy_from {
                    break;
                }
                start = busy_until;
            }
            at = i + 1;
        }
        let end = start + len_ns;
        if len_ns == 0 {
            return end;
        }
        let joins_prev = at > 0 && self.reserved[at - 1].1 == start;
        let joins_next = at < self.reserved.len() && self.reserved[at].0 == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.reserved[at - 1].1 = self.reserved[at].1;
                self.reserved.remove(at);
            }
            (true, false) => self.reserved[at - 1].1 = end,
            (false, true) => self.reserved[at].0 = start,
            (false, false) => self.reserved.insert(at, (start, end)),
        }
        if self.reserved.len() > Self::MAX_RESERVED {
            self.reserved[1].0 = self.reserved[0].0;
            self.reserved.remove(0);
        }
        end
    }

    /// Offers `frame` to the wire at time `now_ns`. Returns the arrival time
    /// at the far end, or `None` if the loss pattern dropped this frame
    /// (sender bandwidth is consumed either way, as on a real wire).
    pub fn transmit(&mut self, frame: &EthernetFrame, now_ns: u64) -> Option<u64> {
        self.frames_offered += 1;
        let serialize_ns = serialize_ns(frame.wire_bytes(), self.config.bandwidth_bytes_per_sec);
        let sent_ns = self.reserve(now_ns, serialize_ns);

        if self.down {
            self.frames_blackholed += 1;
            return None;
        }
        let dropped =
            self.config.loss_period != 0 && self.frames_offered % self.config.loss_period == 0;
        if dropped {
            self.frames_dropped += 1;
            return None;
        }
        self.bytes_carried += frame.wire_bytes() as u64;
        Some(sent_ns + self.config.propagation_delay_ns)
    }
}

/// Serialization time of `wire_bytes` at `bandwidth` bytes/s. Saturating so
/// [`LinkConfig::ideal`]'s `u64::MAX` bandwidth yields exactly zero.
fn serialize_ns(wire_bytes: usize, bandwidth: u64) -> u64 {
    if bandwidth == u64::MAX {
        return 0;
    }
    wire_bytes as u64 * 1_000_000_000 / bandwidth.max(1)
}

/// A [`SimLink`] shared by several endpoints: N array members funneling
/// into one uplink to a common remote. Cloning shares the underlying link,
/// so every sender queues behind every other sender's frames — contention
/// for the shared medium is what the scenario matrix's shared-uplink
/// topology measures.
#[derive(Clone, Debug)]
pub struct SharedLink(Arc<Mutex<SimLink>>);

impl SharedLink {
    /// Creates an idle shared link.
    pub fn new(config: LinkConfig) -> Self {
        SharedLink(Arc::new(Mutex::new(SimLink::new(config))))
    }

    /// Offers a frame to the shared wire; see [`SimLink::transmit`].
    pub fn transmit(&self, frame: &EthernetFrame, now_ns: u64) -> Option<u64> {
        self.lock().transmit(frame, now_ns)
    }

    /// The configuration.
    pub fn config(&self) -> LinkConfig {
        self.lock().config()
    }

    /// Opens/closes a blackout window on the shared wire (affects every
    /// endpoint funneling through it); see [`SimLink::set_down`].
    pub fn set_down(&self, down: bool) {
        self.lock().set_down(down);
    }

    /// `true` while a blackout window is open.
    pub fn is_down(&self) -> bool {
        self.lock().is_down()
    }

    /// Frames offered by all senders combined.
    pub fn frames_offered(&self) -> u64 {
        self.lock().frames_offered()
    }

    /// Frames dropped by loss injection.
    pub fn frames_dropped(&self) -> u64 {
        self.lock().frames_dropped()
    }

    /// Frames swallowed by blackout windows.
    pub fn frames_blackholed(&self) -> u64 {
        self.lock().frames_blackholed()
    }

    /// Header + payload bytes successfully carried.
    pub fn bytes_carried(&self) -> u64 {
        self.lock().bytes_carried()
    }

    /// Time the shared wire goes idle for good; see
    /// [`SimLink::busy_until_ns`].
    pub fn busy_until_ns(&self) -> u64 {
        self.lock().busy_until_ns()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimLink> {
        self.0.lock().expect("link lock never poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MacAddr;
    use bytes::Bytes;

    fn frame(len: usize) -> EthernetFrame {
        EthernetFrame::nvme_oe(MacAddr::REMOTE, MacAddr::DEVICE, Bytes::from(vec![0; len]))
    }

    #[test]
    fn arrival_includes_serialization_and_propagation() {
        let mut link = SimLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1_000_000_000, // 1 ns/byte
            propagation_delay_ns: 1_000,
            loss_period: 0,
        });
        let arrival = link.transmit(&frame(986), 0).unwrap();
        assert_eq!(arrival, 1_000 + 1_000); // 1000 wire bytes + 1000 ns prop
    }

    #[test]
    fn back_to_back_frames_serialize() {
        let mut link = SimLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1_000_000_000,
            propagation_delay_ns: 0,
            loss_period: 0,
        });
        let a = link.transmit(&frame(86), 0).unwrap(); // 100 wire bytes
        let b = link.transmit(&frame(86), 0).unwrap();
        assert_eq!(a, 100);
        assert_eq!(b, 200, "second frame waits for the first");
    }

    #[test]
    fn loss_pattern_is_deterministic() {
        let mut link = SimLink::new(LinkConfig::lossy(3));
        let outcomes: Vec<bool> = (0..9)
            .map(|_| link.transmit(&frame(10), 0).is_some())
            .collect();
        assert_eq!(
            outcomes,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(link.frames_dropped(), 3);
    }

    #[test]
    fn dropped_frames_still_consume_bandwidth() {
        let mut link = SimLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1_000_000_000,
            propagation_delay_ns: 0,
            loss_period: 1, // drop everything
        });
        assert!(link.transmit(&frame(86), 0).is_none());
        assert_eq!(link.busy_until_ns(), 100);
        assert_eq!(link.bytes_carried(), 0);
    }

    #[test]
    fn ideal_link_consumes_no_time() {
        let mut link = SimLink::new(LinkConfig::ideal());
        assert_eq!(link.transmit(&frame(8986), 7_000), Some(7_000));
        assert_eq!(link.busy_until_ns(), 0, "no time taken, no wire reserved");
    }

    #[test]
    fn blackout_swallows_frames_but_still_serializes() {
        let mut link = SimLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1_000_000_000,
            propagation_delay_ns: 0,
            loss_period: 0,
        });
        link.set_down(true);
        assert!(link.is_down());
        assert_eq!(link.transmit(&frame(86), 0), None);
        assert_eq!(link.frames_blackholed(), 1);
        assert_eq!(link.frames_dropped(), 0, "blackouts are not loss");
        assert_eq!(link.busy_until_ns(), 100, "sender serialized into the void");
        link.set_down(false);
        assert_eq!(link.transmit(&frame(86), 0), Some(200));
    }

    #[test]
    fn shared_link_serializes_across_senders() {
        let shared = SharedLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1_000_000_000,
            propagation_delay_ns: 0,
            loss_period: 0,
        });
        let a = shared.clone();
        let b = shared.clone();
        assert_eq!(a.transmit(&frame(86), 0), Some(100));
        // The second sender queues behind the first on the same wire.
        assert_eq!(b.transmit(&frame(86), 0), Some(200));
        assert_eq!(shared.frames_offered(), 2);
        assert_eq!(shared.bytes_carried(), 200);
    }

    #[test]
    fn shared_link_blackout_hits_every_sender() {
        let shared = SharedLink::new(LinkConfig::datacenter_10g());
        let a = shared.clone();
        shared.set_down(true);
        assert_eq!(a.transmit(&frame(86), 0), None);
        assert_eq!(shared.frames_blackholed(), 1);
    }

    /// 1 ns per wire byte, no propagation, no loss: arrival = end of the
    /// frame's reservation.
    fn ns_per_byte() -> SimLink {
        SimLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1_000_000_000,
            propagation_delay_ns: 0,
            loss_period: 0,
        })
    }

    #[test]
    fn a_frame_takes_the_idle_gap_a_sleeping_transfer_left() {
        let mut link = ns_per_byte();
        // A transfer's first round, then — one RTO later — its retransmission.
        assert_eq!(link.transmit(&frame(86), 0), Some(100));
        assert_eq!(link.transmit(&frame(86), 5_000), Some(5_100));
        // The next segment's first round finds the wire idle in between...
        assert_eq!(link.transmit(&frame(86), 200), Some(300));
        assert_eq!(
            link.transmit(&frame(86), 200),
            Some(400),
            "and queues there"
        );
        // ...a frame the rest of the gap cannot hold goes behind the
        // retransmission, and one offered mid-reservation waits it out.
        assert_eq!(link.transmit(&frame(4_886), 400), Some(10_000));
        assert_eq!(link.transmit(&frame(86), 50), Some(200));
        assert_eq!(link.busy_until_ns(), 10_000);
        assert_eq!(link.reserved, vec![(0, 400), (5_000, 10_000)]);
    }

    #[test]
    fn ideal_link_takes_zero_time_in_any_order() {
        let mut link = SimLink::new(LinkConfig::ideal());
        for now in [7_000, 9_000, 8_000, 100, 9_000, 8_500] {
            assert_eq!(link.transmit(&frame(8_986), now), Some(now));
        }
        assert!(link.reserved.is_empty(), "nothing to wait for, ever");
    }

    #[test]
    fn reservation_list_stays_bounded_without_double_booking() {
        let mut link = ns_per_byte();
        let isolated = 10 * SimLink::MAX_RESERVED as u64;
        for i in 0..isolated {
            assert_eq!(link.transmit(&frame(86), i * 1_000), Some(i * 1_000 + 100));
            assert!(link.reserved.len() <= SimLink::MAX_RESERVED);
        }
        assert_eq!(link.reserved.len(), SimLink::MAX_RESERVED);
        // The oldest reservations were fused, idle gaps and all: an offer
        // from that far back is pushed past the fused stretch, never onto
        // wire time already sold.
        let (fused_from, fused_until) = link.reserved[0];
        assert_eq!(fused_from, 0);
        assert_eq!(link.transmit(&frame(86), 150), Some(fused_until + 100));
        // Recent gaps are still there to be used.
        let recent = (isolated - 1) * 1_000;
        assert_eq!(link.transmit(&frame(86), recent - 500), Some(recent - 400));
    }

    proptest::proptest! {
        #[test]
        fn no_two_reservations_overlap(
            offers in proptest::collection::vec((0u64..50_000, 0usize..3_000), 1..300),
        ) {
            let mut link = ns_per_byte();
            let mut granted: Vec<(u64, u64)> = Vec::new();
            for (now, len) in offers {
                let f = frame(len);
                let end = link.transmit(&f, now).expect("lossless");
                let start = end - f.wire_bytes() as u64;
                proptest::prop_assert!(start >= now, "sent before it was offered");
                for &(s, e) in &granted {
                    proptest::prop_assert!(end <= s || e <= start, "wire time sold twice");
                }
                granted.push((start, end));
                proptest::prop_assert!(link.reserved.len() <= SimLink::MAX_RESERVED);
                // Non-empty, sorted, disjoint, touching ones merged.
                proptest::prop_assert!(link.reserved.iter().all(|&(s, e)| s < e));
                proptest::prop_assert!(link.reserved.windows(2).all(|w| w[0].1 < w[1].0));
            }
        }

        #[test]
        fn offers_in_time_order_reproduce_the_scalar_horizon(
            offers in proptest::collection::vec((0u64..4_000, 0usize..9_000), 1..300),
            bandwidth in proptest::prop_oneof![
                proptest::strategy::Just(u64::MAX),
                proptest::strategy::Just(1_250_000_000u64),
                proptest::strategy::Just(125_000_000u64),
                1u64..2_000_000_000,
            ],
        ) {
            let mut link = SimLink::new(LinkConfig {
                bandwidth_bytes_per_sec: bandwidth,
                propagation_delay_ns: 700,
                loss_period: 0,
            });
            // The model this list replaced: one busy-until horizon.
            let mut busy_until = 0u64;
            let mut now = 0u64;
            for (gap, len) in offers {
                now += gap;
                let f = frame(len);
                busy_until = busy_until.max(now) + serialize_ns(f.wire_bytes(), bandwidth);
                proptest::prop_assert_eq!(link.transmit(&f, now), Some(busy_until + 700));
                if bandwidth != u64::MAX {
                    proptest::prop_assert_eq!(link.busy_until_ns(), busy_until);
                }
            }
        }
    }

    #[test]
    fn transmit_respects_now() {
        let mut link = SimLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1_000_000_000,
            propagation_delay_ns: 0,
            loss_period: 0,
        });
        let arrival = link.transmit(&frame(86), 5_000).unwrap();
        assert_eq!(arrival, 5_100);
    }
}
