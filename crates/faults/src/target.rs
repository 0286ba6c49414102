//! The fault-injection surface of a device under test.
//!
//! [`FaultTarget`] is what the [`FaultInjector`](crate::FaultInjector) and
//! the scenario harness drive: a [`BlockDevice`] that additionally knows how
//! to crash and recover, partition and heal its remote link(s), kill and
//! revive shards, audit its evidence chain, and answer point-in-time
//! recovery queries. Implementations exist for a bare
//! [`RssdDevice`] and for an [`RssdArray`] of them, over any remote that
//! implements [`FaultRemote`]. Only the NVMe-oE wire ([`WireRemote`]) can
//! open a partition window; the bare [`LoopbackTarget`] has no link to cut.

use crate::remote::PartitionMode;
use crate::schedule::FaultSchedule;
use rssd_array::{ArrayError, RssdArray, ShardStatus};
use rssd_core::{
    HistoryAudit, LoopbackTarget, OffloadStats, RemoteFaultStats, RemoteTarget, RssdConfig,
    RssdDevice, WireRemote,
};
use rssd_flash::{FlashGeometry, NandStats, NandTiming, SimClock};
use rssd_ftl::FtlStats;
use rssd_ssd::{BlockDevice, LatencyStats};

/// Failures of fault-control operations.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// The device under test has no such fault surface (e.g. killing a
    /// shard of a bare device).
    Unsupported(&'static str),
    /// An array lifecycle operation failed.
    Array(ArrayError),
    /// Post-crash recovery failed (unreachable or tampered remote).
    Recovery(String),
    /// The scenario harness hit a state the cell definition does not allow
    /// (e.g. a replay aborted on an error no fault explains).
    Scenario(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Unsupported(what) => {
                write!(f, "fault surface unsupported by this device: {what}")
            }
            FaultError::Array(e) => write!(f, "array: {e}"),
            FaultError::Recovery(e) => write!(f, "recovery: {e}"),
            FaultError::Scenario(e) => write!(f, "scenario: {e}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl From<ArrayError> for FaultError {
    fn from(e: ArrayError) -> Self {
        FaultError::Array(e)
    }
}

/// What a power cycle (crash + recover) cost and rebuilt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct PowerRestoreReport {
    /// Pending log records lost with the controller RAM.
    pub pending_records_lost: u64,
    /// Retained pre-images whose only reference was a pending record.
    pub pending_preimages_lost: u64,
    /// Offloaded segments walked while rebuilding the volatile indexes.
    pub segments_walked: u64,
    /// Retained versions indexed again (recoverable after the restart).
    pub versions_indexed: u64,
}

/// A remote target the scenario harness knows how to partition and to
/// replace. A partition is a condition of a link, so [`WireRemote`] is the
/// one implementation that opens windows.
pub trait FaultRemote: RemoteTarget + Sized {
    /// Opens a partition window; `false` when unsupported by this remote.
    fn set_partition(&mut self, mode: PartitionMode) -> bool;

    /// Heals the window, replaying buffered offloads; returns the replayed
    /// count.
    fn heal(&mut self) -> u64;

    /// Injection counters (zero for plain stores).
    fn fault_stats(&self) -> RemoteFaultStats {
        RemoteFaultStats::default()
    }

    /// An empty remote of the same kind, cabled like this one: same link
    /// configuration, fresh *private* uplink. What a replacement shard is
    /// plugged into — a new drive is recabled, not spliced into the dead
    /// one's wire.
    fn replacement(&self) -> Self;
}

/// A store with no wire in front of it has no link to partition: it
/// declines every mode.
impl FaultRemote for LoopbackTarget {
    fn set_partition(&mut self, _mode: PartitionMode) -> bool {
        false
    }

    fn heal(&mut self) -> u64 {
        0
    }

    fn replacement(&self) -> Self {
        LoopbackTarget::new()
    }
}

/// Every [`PartitionMode`] is a link condition of the NVMe-oE fabric, so
/// chain gaps and replay are emergent protocol behavior (DESIGN.md §8):
///
/// * `Refuse` → uplink blackout, no edge relay: transfers exhaust their
///   stall budget and surface `Unreachable`.
/// * `QueueForReplay` → uplink blackout with a store-and-forward edge
///   relay; heal replays the buffer over the restored wire.
/// * `DropSilently` → the link is fine but the collector acks and loses
///   segments before durability.
impl<R: RemoteTarget + Default> FaultRemote for WireRemote<R> {
    fn set_partition(&mut self, mode: PartitionMode) -> bool {
        match mode {
            PartitionMode::Refuse => {
                self.set_uplink_down(true);
                self.set_store_and_forward(false);
            }
            PartitionMode::QueueForReplay => {
                self.set_uplink_down(true);
                self.set_store_and_forward(true);
            }
            PartitionMode::DropSilently => self.set_ingest_drop(true),
        }
        true
    }

    fn heal(&mut self) -> u64 {
        WireRemote::heal(self)
    }

    fn fault_stats(&self) -> RemoteFaultStats {
        self.stats()
    }

    fn replacement(&self) -> Self {
        WireRemote::new(R::default(), self.uplink().config())
    }
}

/// The geometry scenario members (and their replacements) are built with.
const MEMBER_CAPACITY_BYTES: u64 = 4 * 1024 * 1024;

/// The geometry of *durable* members (spill-enabled cells): one capacity
/// step larger than [`MEMBER_CAPACITY_BYTES`] so the reserved spill blocks
/// come out of extra flash, not out of the allocator pool the baseline
/// members run their workloads in.
const DURABLE_MEMBER_CAPACITY_BYTES: u64 = 8 * 1024 * 1024;

/// NAND blocks durable members reserve as an evidence-spill region.
const MEMBER_SPILL_BLOCKS: u32 = 3;

/// Builds one scenario member: a small RSSD on its own clock over `remote`.
/// The one builder the harness, [`FaultTarget::revive_dead_shards`] and
/// `rssd-fleet` all use, so members and their replacements always agree on
/// geometry. The offload segment is kept small (4 retained pages) so the
/// window of pending, fault-vulnerable retention is tight — the scenario
/// matrix measures exactly what that window costs.
///
/// With `spill` the member is *durable*: an FTL-reserved evidence-spill
/// region lets sealed segments survive a power cut that lands inside a
/// remote outage. Fault plans whose whole point is the outage × cut
/// product ask for it ([`FaultPlan::needs_spill`]).
///
/// [`FaultPlan::needs_spill`]: crate::FaultPlan::needs_spill
pub fn scenario_member<R: RemoteTarget>(device_id: u64, spill: bool, remote: R) -> RssdDevice<R> {
    let (capacity_bytes, spill_blocks) = if spill {
        (DURABLE_MEMBER_CAPACITY_BYTES, MEMBER_SPILL_BLOCKS)
    } else {
        (MEMBER_CAPACITY_BYTES, 0)
    };
    RssdDevice::new(
        FlashGeometry::with_capacity(capacity_bytes),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig {
            device_id,
            segment_pages: 4,
            spill_blocks,
            ..RssdConfig::default()
        },
        remote,
    )
}

/// Brings a cut device back. Recovery walks the remote evidence chain, so
/// if the cut landed inside an open partition window the first attempt
/// fails on the unreachable store — a real operator restores the network
/// before power-cycling the array, so this heals the link and retries
/// once.
///
/// # Errors
///
/// The second attempt's failure: a schedule that *dropped* offloads and
/// crashed after post-gap segments landed leaves the device unrecoverable
/// by policy — recovery refuses to resume over a holed chain.
pub fn restore_power_healing_link<D: FaultTarget>(device: &mut D) -> Result<(), FaultError> {
    if device.power_restore().is_err() {
        device.heal_partition();
        let _ = device.power_restore()?;
    }
    Ok(())
}

/// The full fault surface of a device under test.
pub trait FaultTarget: BlockDevice {
    /// Power-cycles the device: volatile state is dropped (crash) and then
    /// rebuilt from flash and the remote evidence chain (recover).
    ///
    /// # Errors
    ///
    /// [`FaultError::Recovery`] when the remote is unreachable or fails
    /// chain verification.
    fn power_restore(&mut self) -> Result<PowerRestoreReport, FaultError>;

    /// Opens a partition window on the device's remote link(s); `false`
    /// when this device/remote combination cannot model the mode.
    fn set_partition(&mut self, mode: PartitionMode) -> bool;

    /// Heals open partition windows; returns replayed offloads.
    fn heal_partition(&mut self) -> u64;

    /// Kills an array member.
    ///
    /// # Errors
    ///
    /// [`FaultError::Unsupported`] on a bare device;
    /// [`FaultError::Array`] when the member cannot fail (bad index).
    fn kill_shard(&mut self, shard: usize) -> Result<(), FaultError> {
        let _ = shard;
        Err(FaultError::Unsupported("shard death on a bare device"))
    }

    /// Rebuilds every dead shard onto a fresh replacement, optionally to a
    /// point in time. Returns how many shards were revived.
    ///
    /// # Errors
    ///
    /// Propagates array rebuild failures.
    fn revive_dead_shards(&mut self, restore_before_ns: Option<u64>) -> Result<usize, FaultError> {
        let _ = restore_before_ns;
        Ok(0)
    }

    /// Chain-verified history audit (for arrays, every shard's history —
    /// its lost devices' salvaged records, then its current device's —
    /// merged and ordered by record time).
    fn history_audit(&mut self) -> HistoryAudit;

    /// Point-in-time recovery: the version of `lpa` valid just before
    /// `before_ns`, wherever it lives — the one point-in-time rule of
    /// `rssd-core`, whichever implementor answers.
    fn recover_as_of(&mut self, lpa: u64, before_ns: u64) -> Option<Vec<u8>>;

    /// Offload counters (fleet-merged for arrays).
    fn offload_totals(&self) -> OffloadStats;

    /// Raw NAND counters (fleet-merged for arrays via
    /// [`NandStats::merge`]).
    fn nand_totals(&self) -> NandStats;

    /// FTL counters (fleet-merged for arrays via [`FtlStats::merge`]).
    fn ftl_totals(&self) -> FtlStats;

    /// Device-side latency distribution (fleet-merged for arrays).
    fn latency_totals(&self) -> LatencyStats;

    /// Remote fault-injection counters (fleet-merged for arrays).
    fn remote_fault_totals(&self) -> RemoteFaultStats {
        RemoteFaultStats::default()
    }

    /// Arms a fault schedule, when this target is (or wraps) a
    /// [`FaultInjector`](crate::FaultInjector); `false` otherwise — which
    /// is how the same generic harness drives the direct, injector-free
    /// configuration (only meaningful with the empty schedule).
    fn arm_schedule(&mut self, schedule: &FaultSchedule) -> bool {
        let _ = schedule;
        false
    }

    /// Commands executed so far (0 for targets without an injector).
    fn ops_count(&self) -> u64 {
        0
    }

    /// Power cuts fired so far.
    fn power_cut_count(&self) -> u64 {
        0
    }

    /// Batches torn by mid-batch cuts.
    fn torn_batch_count(&self) -> u64 {
        0
    }

    /// Scheduled events that could not be applied to this topology.
    fn skipped_event_count(&self) -> u64 {
        0
    }

    /// Installs a trace sink across the target's whole stack (FTL, NAND,
    /// offload engine, wire, and — when wrapped by a
    /// [`FaultInjector`](crate::FaultInjector) — fault firings). The
    /// default is a no-op so bare [`BlockDevice`] baselines compile
    /// unchanged.
    fn set_trace_sink(&mut self, sink: rssd_obs::SinkHandle) {
        let _ = sink;
    }
}

impl<R: FaultRemote> FaultTarget for RssdDevice<R> {
    fn power_restore(&mut self) -> Result<PowerRestoreReport, FaultError> {
        // crash() is idempotent while down and always returns the report of
        // the cut that did the damage, so a retry after a failed recovery
        // (e.g. the remote was partitioned on the first attempt) still
        // reports the real losses.
        let crash = self.crash();
        let recovery = self.recover().map_err(FaultError::Recovery)?;
        Ok(PowerRestoreReport {
            pending_records_lost: crash.pending_records_lost,
            pending_preimages_lost: crash.pending_preimages_lost,
            segments_walked: recovery.segments_walked,
            versions_indexed: recovery.versions_indexed,
        })
    }

    fn set_partition(&mut self, mode: PartitionMode) -> bool {
        self.remote_mut().set_partition(mode)
    }

    fn heal_partition(&mut self) -> u64 {
        self.remote_mut().heal()
    }

    fn history_audit(&mut self) -> HistoryAudit {
        self.audit_history()
    }

    fn recover_as_of(&mut self, lpa: u64, before_ns: u64) -> Option<Vec<u8>> {
        self.recover_page_before(lpa, before_ns)
    }

    fn offload_totals(&self) -> OffloadStats {
        self.offload_stats()
    }

    fn nand_totals(&self) -> NandStats {
        self.nand_stats().clone()
    }

    fn ftl_totals(&self) -> FtlStats {
        *self.ftl_stats()
    }

    fn latency_totals(&self) -> LatencyStats {
        self.latency().clone()
    }

    fn remote_fault_totals(&self) -> RemoteFaultStats {
        self.remote().fault_stats()
    }

    fn set_trace_sink(&mut self, sink: rssd_obs::SinkHandle) {
        RssdDevice::set_trace_sink(self, sink);
    }
}

impl<R: FaultRemote> FaultTarget for RssdArray<RssdDevice<R>> {
    fn power_restore(&mut self) -> Result<PowerRestoreReport, FaultError> {
        let crash = self.crash();
        let recovery = self
            .recover()
            .map_err(|e| FaultError::Recovery(e.to_string()))?;
        Ok(PowerRestoreReport {
            pending_records_lost: crash.pending_records_lost,
            pending_preimages_lost: crash.pending_preimages_lost,
            segments_walked: recovery.segments_walked,
            versions_indexed: recovery.versions_indexed,
        })
    }

    fn set_partition(&mut self, mode: PartitionMode) -> bool {
        let mut any = false;
        for shard in 0..self.shard_count() {
            if let Some(member) = self.shard_mut(shard) {
                any |= member.remote_mut().set_partition(mode);
            }
        }
        any
    }

    fn heal_partition(&mut self) -> u64 {
        let mut replayed = 0u64;
        for shard in 0..self.shard_count() {
            if let Some(member) = self.shard_mut(shard) {
                replayed += member.remote_mut().heal();
            }
        }
        replayed
    }

    fn kill_shard(&mut self, shard: usize) -> Result<(), FaultError> {
        match self.fail_shard(shard) {
            Ok(_) => Ok(()),
            // A tampered salvage still leaves the shard degraded (over an
            // empty image) — that *is* the fault being injected, not a
            // harness failure.
            Err(ArrayError::SalvageFailed { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn revive_dead_shards(&mut self, restore_before_ns: Option<u64>) -> Result<usize, FaultError> {
        let mut revived = 0usize;
        for shard in 0..self.shard_count() {
            if self.shard_status(shard) != ShardStatus::Degraded {
                continue;
            }
            // The replacement is provisioned like the members it joins.
            let sibling = (0..self.shard_count()).find_map(|s| self.shard(s)).ok_or(
                FaultError::Unsupported("replacing a shard with no live sibling to model it on"),
            )?;
            let replacement = scenario_member(
                1000 + shard as u64,
                sibling.spill_capacity_bytes() > 0,
                sibling.remote().replacement(),
            );
            // One step over the whole shard: the rebuild is done on return.
            let _ = self
                .rebuild(shard, replacement, restore_before_ns)
                .map_err(FaultError::Array)?;
            revived += 1;
        }
        Ok(revived)
    }

    fn history_audit(&mut self) -> HistoryAudit {
        self.audit_history()
    }

    fn recover_as_of(&mut self, lpa: u64, before_ns: u64) -> Option<Vec<u8>> {
        self.recover_before(lpa, before_ns)
    }

    fn offload_totals(&self) -> OffloadStats {
        self.offload_stats()
    }

    fn nand_totals(&self) -> NandStats {
        self.nand_stats()
    }

    fn ftl_totals(&self) -> FtlStats {
        self.ftl_stats()
    }

    fn latency_totals(&self) -> LatencyStats {
        self.latency()
    }

    fn remote_fault_totals(&self) -> RemoteFaultStats {
        let mut merged = RemoteFaultStats::default();
        for shard in 0..self.shard_count() {
            if let Some(member) = self.shard(shard) {
                merged.merge(&member.remote().fault_stats());
            }
        }
        merged
    }

    fn set_trace_sink(&mut self, sink: rssd_obs::SinkHandle) {
        // Shards have independent clocks; a per-shard track prefix keeps
        // every track single-clock (and so monotone in simulated time).
        for shard in 0..self.shard_count() {
            if let Some(member) = self.shard_mut(shard) {
                RssdDevice::set_trace_sink(
                    member,
                    sink.with_track_prefix(&format!("shard{shard}/")),
                );
            }
        }
    }
}
