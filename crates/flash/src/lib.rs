//! NAND flash array simulator — the lowest substrate of the RSSD stack.
//!
//! The paper prototypes RSSD on a Cosmos+ OpenSSD FPGA board; this crate is
//! the software stand-in for that board's flash subsystem (Figure 1's flash
//! controllers + flash chips). It models the properties every flash-aware
//! defense — FlashGuard, LocalSSD retention, and RSSD itself — relies on:
//!
//! * **Out-of-place update**: a programmed page cannot be reprogrammed; the
//!   old version physically remains until its *block* is erased. This is the
//!   intrinsic property that makes stale-data retention possible at all.
//! * **Erase-before-program** at block granularity, sequential page
//!   programming within a block, and per-block P/E wear.
//! * **Out-of-band (OOB) metadata** per page, where the FTL stores the
//!   logical address, timestamp and sequence number — the raw material of
//!   RSSD's hardware-assisted log.
//! * A **timing model** (read/program/erase latencies, per-channel bus
//!   transfer) with genuine device-internal parallelism: per-channel bus
//!   and per-plane cell pipelines, async dispatch (`*_async` returning
//!   [`OpTicket`]s), and a clock this crate never advances: a caller that
//!   waits on a completion advances it to the ticket itself.
//!
//! # Examples
//!
//! ```
//! use rssd_flash::{FlashGeometry, NandArray, NandTiming, PageOob, Ppa, SimClock};
//!
//! let geometry = FlashGeometry::small_test();
//! let clock = SimClock::new();
//! let mut nand = NandArray::with_clock(geometry, NandTiming::mlc_default(), clock.clone());
//! let ppa = Ppa::new(0, 0, 0, 0, 0);
//! let oob = PageOob { lpa: 42, timestamp_ns: 0, seq: 0 };
//! let (_seq, programmed) = nand.program_async(ppa, vec![0xAB; geometry.page_size], oob)?;
//! let (data, _oob, read) = nand.read_async(ppa)?;
//! assert_eq!(data[0], 0xAB);
//! // Dispatch never moves the clock; a caller that waits advances it.
//! assert_eq!(clock.now_ns(), 0);
//! clock.advance_to(programmed.done_ns.max(read.done_ns));
//! # Ok::<(), rssd_flash::NandError>(())
//! ```

pub mod clock;
pub mod geometry;
pub mod nand;
pub mod stats;
pub mod timing;

pub use clock::SimClock;
pub use geometry::{FlashGeometry, Ppa};
pub use nand::{BlockState, NandArray, NandError, PageOob};
pub use stats::NandStats;
pub use timing::{NandTiming, OpTicket};
