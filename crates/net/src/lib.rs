//! Hardware-isolated NVMe-over-Ethernet (NVMe-oE) for the RSSD reproduction.
//!
//! Figure 1 of the paper shows the offload datapath: the SSD controller owns
//! a MAC/transceiver with DMA'd Tx/Rx buffers and control registers, and
//! speaks NVMe-oE directly to remote storage — **without any host software
//! in the loop**. This crate reproduces that path:
//!
//! * [`frame`] — Ethernet framing and MAC addressing.
//! * [`link`] — a simulated link with bandwidth, propagation delay and
//!   deterministic loss injection.
//! * [`nvmeoe`] — the capsule protocol: sequencing, acknowledgement,
//!   retransmission, in-order delivery.
//! * [`session`] — the secure session: ChaCha20 + HMAC-SHA-256 over every
//!   capsule payload, keyed from the device hierarchy (the host never sees
//!   these keys).
//!
//! Hardware isolation is structural: the host-facing `BlockDevice` API in
//! `rssd-ssd`/`rssd-core` exposes no reference to any type in this crate.

pub mod frame;
pub mod link;
pub mod nvmeoe;
pub mod session;

pub use frame::{EthernetFrame, MacAddr, ETHERTYPE_NVME_OE};
pub use link::{LinkConfig, SharedLink, SimLink};
pub use nvmeoe::{
    Capsule, CapsuleKind, NvmeOeEndpoint, ProtocolError, TransferStalled, TransferStats,
};
pub use session::{Authenticated, SecureSession, SessionError};
