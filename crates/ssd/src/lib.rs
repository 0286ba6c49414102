//! SSD device models over the FTL.
//!
//! This crate exposes the host-facing block interface ([`BlockDevice`]),
//! the one timed block path under every FTL-backed model
//! ([`execute_batch`], which a model customises through its
//! [`BlockPolicy`] hooks — see [`exec`]) and the two local device models
//! the paper evaluates against:
//!
//! * [`PlainSsd`] — an unprotected SSD: stale data is reclaimed by GC as
//!   usual; ransomware-encrypted originals are gone after collection.
//! * [`RetentionSsd`] — local retention: the baselines of Table 1 and
//!   Figure 2 that keep stale data on the device itself, as three
//!   [`RetentionMode`]s.
//!   *LocalSSD* / *LocalSSD+Compression* (Figure 2) conservatively retain all
//!   stale data, evicting the oldest retained pages when the retention
//!   budget (the device's spare capacity, optionally stretched by
//!   compression) fills up; the *FlashGuard*-style mode ([`flashguard`])
//!   retains only pages whose overwrite looks like encryption (the logical
//!   page was read shortly before being overwritten). The first two lose to
//!   the GC attack; the third defends it (suspects are pinned regardless of
//!   capacity pressure) but is defeated by the timing attack (spacing read
//!   and overwrite beyond its correlation window) and by the trimming attack
//!   (trimmed pages are not considered suspects).
//!
//! RSSD itself lives in `rssd-core` and is a third policy over the same
//! executor, so every comparison between the models is timed by the same
//! code.
//!
//! Hosts drive any of these models through the NVMe-style multi-queue
//! interface in [`nvme`]: fixed-depth submission/completion queue pairs
//! arbitrated round-robin by an [`NvmeController`], with batched execution
//! through [`BlockDevice::submit_batch_timed`] (see the module docs). The
//! scalar [`BlockDevice`] methods submit a batch of one through the same
//! path.
//!
//! The **hardware-isolation structure** of the paper is expressed in the
//! types: hosts (and attack actors) only ever hold `&mut dyn BlockDevice` /
//! generic `D: BlockDevice` — retention state, pins, logs and (for RSSD) the
//! NIC are private fields no host-side code can reach.

pub mod device;
pub mod exec;
pub mod flashguard;
pub mod nvme;
pub mod plain;
pub mod queue;
pub mod retention;

pub use device::{BlockDevice, DeviceError};
pub use exec::{execute_batch, BlockPolicy};
pub use nvme::{
    CommandId, CommandOutcome, CommandResult, Completion, CompletionQueue, IoCommand,
    NvmeController, QueueError, QueueId, QueuePairStats, SubmissionQueue,
};
pub use plain::PlainSsd;
pub use queue::LatencyStats;
pub use retention::{RetentionMode, RetentionReport, RetentionSsd};
