//! **RSSD** — the ransomware-aware SSD (the paper's primary contribution).
//!
//! [`RssdDevice`] implements the same host-facing
//! [`BlockDevice`](rssd_ssd::BlockDevice) interface as the baselines in
//! `rssd-ssd`, and adds, entirely below that interface (hardware-isolated in
//! the prototype, structurally private here):
//!
//! * **Hardware-assisted logging** ([`logrec`]) — every storage operation is
//!   appended, in arrival order, to a log chained with HMACs
//!   ([`rssd_crypto::HashChain`]): the *trusted evidence chain*, whose head
//!   after each sealed segment is one HMAC over the head before it and the
//!   segment's records. It leaves the device in sealed segments
//!   ([`segment`]: one writer, [`SegmentEnvelope::seal`], and one door,
//!   [`SegmentEnvelope::open`]).
//! * **Conservative stale-data retention** — every page invalidated by an
//!   overwrite or trim is pinned against garbage collection until it has
//!   been offloaded remotely; nothing a ransomware encrypts or erases is
//!   ever physically lost. This is the *zero data loss* guarantee.
//! * **Enhanced trim** — trim commands remap rather than release: reads
//!   return zeroes (host semantics preserved) while the trimmed data joins
//!   the retained log, neutralizing the trimming attack.
//! * **Hardware-isolated NVMe-oE offload** (the private `offload` module,
//!   via [`rssd_net`]; see [`OffloadStats`], [`OffloadHealth`]) —
//!   retained pages and log records leave the device compressed
//!   ([`rssd_compress`]) and encrypted+MAC'd ([`rssd_net::SecureSession`])
//!   toward a [`RemoteTarget`], expanding retention capacity from the SSD's
//!   spare area to the remote budget (Figure 2's 200+ days).
//! * **Zero-data-loss recovery** ([`recovery`]) and **trusted post-attack
//!   analysis** ([`analysis`]) over the combined local + remote log, as
//!   the private `evidence` module reads it back (see [`HistoryAudit`]).
//! * **Remote-assisted rebuild** ([`rebuild`]) — when the local half of the
//!   codesign is lost entirely, [`RebuildImage`] reconstructs every
//!   retained page version from the surviving remote evidence chain (the
//!   foundation of `rssd-array`'s fleet-level fault tolerance).
//!
//! Every walk over the remote store opens its segments on the machine's
//! cores through the one order-preserving worker pool, [`pool::map`], which
//! `rssd-fleet` runs its members on too.
//!
//! # Examples
//!
//! ```
//! use rssd_core::{LoopbackTarget, RssdConfig, RssdDevice};
//! use rssd_flash::{FlashGeometry, NandTiming, SimClock};
//! use rssd_ssd::BlockDevice;
//!
//! let mut dev = RssdDevice::new(
//!     FlashGeometry::small_test(),
//!     NandTiming::instant(),
//!     SimClock::new(),
//!     RssdConfig::default(),
//!     LoopbackTarget::new(),
//! );
//! dev.write_page(7, vec![1; 4096])?;
//! dev.write_page(7, vec![2; 4096])?; // "ransomware" overwrites
//! assert_eq!(dev.recover_page(7).unwrap(), vec![1; 4096]);
//! # Ok::<(), rssd_ssd::DeviceError>(())
//! ```

pub mod analysis;
pub mod config;
pub mod device;
mod evidence;
pub mod logrec;
mod offload;
pub mod pool;
pub mod rebuild;
pub mod recovery;
pub mod remote_target;
pub mod segment;
mod versions;
pub mod wire;

pub use analysis::{AnalysisReport, AttackClass, PostAttackAnalyzer};
pub use config::RssdConfig;
pub use device::{
    CrashRecovery, CrashReport, HistoryAudit, OffloadHealth, OffloadStats, RssdDevice,
};
pub use logrec::{LogOp, LogRecord, WireError};
pub use rebuild::{HarvestReport, RebuildImage};
pub use recovery::{RecoveryEngine, RecoveryReport};
pub use remote_target::{LoopbackTarget, RemoteError, RemoteTarget, StoreAck};
pub use segment::{OpenDepth, OpenedSegment, Preimages, SegmentBody, SegmentEnvelope};
pub use wire::{RemoteFaultStats, WireRemote};
