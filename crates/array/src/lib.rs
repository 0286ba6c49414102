//! **rssd-array** — a striped multi-device RSSD array with remote-assisted
//! rebuild.
//!
//! The paper's RSSD is one device; its codesign (local flash plus a
//! hardware-isolated remote retention store per device) is exactly what a
//! fleet needs. This crate adds the scale axis:
//!
//! * [`StripeLayout`] — bijective translation between the array's flat
//!   logical page space and `(shard, local LPA)` homes.
//! * [`RssdArray`] — implements [`BlockDevice`](rssd_ssd::BlockDevice), so
//!   it drops behind the existing `NvmeController`, replay harnesses and
//!   attack actors unchanged; `submit_batch_timed` splits each batch per shard
//!   and dispatches natively so member-level amortizations (RSSD's
//!   coalesced offload flushes) survive striping. Members run on their own
//!   clocks, modeled as parallel: a batch costs its slowest shard, not the
//!   sum.
//! * **No detector of its own.** The array's fused verdict is its merged,
//!   chain-verified history ([`RssdArray::audit_history`] — a dead
//!   shard's salvaged records included) through
//!   [`PostAttackAnalyzer`](rssd_core::PostAttackAnalyzer).
//! * **Remote-assisted rebuild** — [`RssdArray::fail_shard`] models losing
//!   a member's entire local half; the surviving remote evidence chain is
//!   harvested ([`rssd_core::RebuildImage`]) and serves degraded reads
//!   while [`RssdArray::rebuild_step`] incrementally restores a
//!   replacement, optionally to a pre-attack point in time. The paper's
//!   post-attack recovery becomes fleet-level fault tolerance.
//!
//! # Examples
//!
//! ```
//! use rssd_array::RssdArray;
//! use rssd_core::{LoopbackTarget, RssdConfig, RssdDevice};
//! use rssd_flash::{FlashGeometry, NandTiming, SimClock};
//! use rssd_ssd::BlockDevice;
//!
//! let shards: Vec<_> = (0..3)
//!     .map(|i| {
//!         RssdDevice::new(
//!             FlashGeometry::small_test(),
//!             NandTiming::instant(),
//!             SimClock::new(), // each member owns its clock
//!             RssdConfig { device_id: i, ..RssdConfig::default() },
//!             LoopbackTarget::new(),
//!         )
//!     })
//!     .collect();
//! let mut array = RssdArray::new(shards, 4, SimClock::new());
//! array.write_page(7, vec![1; array.page_size()])?;
//! array.write_page(7, vec![2; array.page_size()])?; // "ransomware" overwrites
//! assert_eq!(array.recover_page(7).unwrap(), vec![1; array.page_size()]);
//! # Ok::<(), rssd_ssd::DeviceError>(())
//! ```

pub mod array;
pub mod layout;

pub use array::{ArrayError, RebuildProgress, RssdArray, ShardStatus};
pub use layout::StripeLayout;
