//! Flash translation layer (FTL) for the RSSD reproduction.
//!
//! This is the firmware layer the paper modifies: page-level address
//! translation, garbage collection, wear leveling, and trim handling on top
//! of the raw NAND array from [`rssd_flash`]. Everything RSSD adds —
//! hardware-assisted logging, conservative stale-page retention, enhanced
//! trim — hangs off two mechanisms exposed here:
//!
//! * **Stale events** ([`StaleEvent`]): whenever a physical page becomes
//!   stale (overwritten or trimmed), the FTL emits an event carrying the
//!   logical address, physical address, OOB metadata and cause. Device-level
//!   retention policies consume these to decide what to retain.
//! * **Page pinning** ([`Ftl::pin_page`]): a pinned stale page blocks garbage
//!   collection of its block. RSSD pins every stale page until the offload
//!   engine has shipped it remotely; the LocalSSD baseline pins until a
//!   capacity watermark (which the GC attack exploits); FlashGuard pins only
//!   suspected-encrypted overwrites.
//!
//! # Examples
//!
//! ```
//! use rssd_flash::{FlashGeometry, NandArray, NandTiming, SimClock};
//! use rssd_ftl::{Ftl, FtlConfig};
//!
//! let nand = NandArray::with_clock(
//!     FlashGeometry::small_test(),
//!     NandTiming::mlc_default(),
//!     SimClock::new(),
//! );
//! let mut ftl = Ftl::new(nand, FtlConfig::default());
//! let written = ftl.write_async(0, vec![0xAA; 4096])?;
//! // The FTL never moves the clock; a caller that waits advances it.
//! ftl.clock().advance_to(written.done_ns);
//! let (data, read) = ftl.read_async(0)?;
//! ftl.clock().advance_to(read.done_ns);
//! assert_eq!(data.unwrap()[0], 0xAA);
//! # Ok::<(), rssd_ftl::FtlError>(())
//! ```

pub mod allocator;
pub mod config;
pub mod ftl;
pub mod gc;
pub mod mapping;
pub mod stats;

pub use config::{FtlConfig, GcPolicy};
pub use ftl::{Ftl, FtlError, InvalidateCause, StaleEvent};
pub use stats::FtlStats;
