//! Ethernet framing.

use bytes::Bytes;
use std::fmt;

/// EtherType used for NVMe-oE capsules (vendor-experimental range).
pub const ETHERTYPE_NVME_OE: u16 = 0x88B5;

/// Maximum payload carried per frame (jumbo frames, as storage fabrics use).
pub const MAX_PAYLOAD: usize = 9000;

/// A 48-bit MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The SSD controller's MAC in simulations.
    pub const DEVICE: MacAddr = MacAddr([0x02, 0x55, 0x53, 0x53, 0x44, 0x01]);
    /// The remote log server's MAC in simulations.
    pub const REMOTE: MacAddr = MacAddr([0x02, 0x52, 0x4d, 0x54, 0x45, 0x01]);
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

/// One Ethernet frame on the simulated wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Builds an NVMe-oE frame.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_PAYLOAD`].
    pub fn nvme_oe(dst: MacAddr, src: MacAddr, payload: Bytes) -> Self {
        assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds jumbo MTU");
        EthernetFrame {
            dst,
            src,
            ethertype: ETHERTYPE_NVME_OE,
            payload,
        }
    }

    /// Total on-wire size (header + payload; preamble/FCS ignored).
    pub fn wire_bytes(&self) -> usize {
        14 + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "payload exceeds jumbo MTU")]
    fn construction_rejects_oversized() {
        EthernetFrame::nvme_oe(
            MacAddr::REMOTE,
            MacAddr::DEVICE,
            Bytes::from(vec![0u8; MAX_PAYLOAD + 1]),
        );
    }

    #[test]
    fn mac_display() {
        assert_eq!(MacAddr::DEVICE.to_string(), "02:55:53:53:44:01");
    }

    #[test]
    fn wire_bytes_counts_header() {
        let f = EthernetFrame::nvme_oe(MacAddr::REMOTE, MacAddr::DEVICE, Bytes::new());
        assert_eq!(f.wire_bytes(), 14);
    }
}
