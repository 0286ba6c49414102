//! The RSSD device: the block path — write/read/trim, logging, retention,
//! the pending log tail — and the orchestration of the two machines it owns,
//! the offload engine (`offload.rs`) and the evidence reader (`evidence.rs`).

use crate::config::RssdConfig;
use crate::evidence::EvidenceReader;
use crate::logrec::{LogOp, LogRecord};
use crate::offload::{Admission, Batch, OffloadEngine};
use crate::pool;
use crate::remote_target::{RemoteError, RemoteTarget};
use rssd_compress::shannon_entropy;
use rssd_crypto::{DeviceKeys, Digest, HashChain, KeyPurpose};
use rssd_flash::{FlashGeometry, NandArray, NandTiming, SimClock};
use rssd_ftl::{Ftl, FtlConfig, FtlStats, InvalidateCause};
use rssd_net::SecureSession;
use rssd_obs::{ProfilerHandle, SinkHandle};
use rssd_ssd::{
    execute_batch, BlockDevice, BlockPolicy, CommandOutcome, CommandResult, DeviceError, IoCommand,
    LatencyStats,
};
use std::collections::HashMap;

pub use crate::evidence::HistoryAudit;
pub use crate::offload::{OffloadHealth, OffloadStats};

/// What a power cut destroyed. The flash contents (every acknowledged host
/// write) and the remote store survive; everything in controller RAM — the
/// pending log tail, its retention pins, the read-correlation window and the
/// remote version index — does not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct CrashReport {
    /// Log records that had not been offloaded and died with the RAM.
    pub pending_records_lost: u64,
    /// Retained pre-images whose only reference was a pending record; their
    /// pinned flash pages become collectible garbage.
    pub pending_preimages_lost: u64,
    /// Evidence-chain length at the moment of the cut (for fork audits: the
    /// recovered chain resumes strictly below this).
    pub chain_len_at_crash: u64,
}

impl CrashReport {
    /// Folds another member's crash report into this one — the
    /// enclosure/fleet rollup. Associative and commutative, with
    /// `CrashReport::default()` as identity.
    pub fn merge(&mut self, other: &CrashReport) {
        self.pending_records_lost += other.pending_records_lost;
        self.pending_preimages_lost += other.pending_preimages_lost;
        self.chain_len_at_crash += other.chain_len_at_crash;
    }
}

/// Outcome of post-crash recovery: the volatile state rebuilt from the two
/// durable halves (local flash, remote evidence chain).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct CrashRecovery {
    /// Offloaded segments walked and chain-verified.
    pub segments_walked: u64,
    /// Records re-indexed from the remote chain.
    pub records_indexed: u64,
    /// Retained page versions re-indexed (recoverable again).
    pub versions_indexed: u64,
    /// Evidence-chain sequence the device resumed appending at. Equals the
    /// durable (offloaded) record count: the lost pending tail is *not*
    /// resequenced, so the remote store only ever sees one continuation of
    /// any head — the chain cannot fork.
    pub resumed_seq: u64,
}

impl CrashRecovery {
    /// Folds another member's recovery counters into this one — the
    /// enclosure/fleet rollup (`resumed_seq` adds, i.e. total durable
    /// records resumed across members). Associative and commutative, with
    /// `CrashRecovery::default()` as identity.
    pub fn merge(&mut self, other: &CrashRecovery) {
        self.segments_walked += other.segments_walked;
        self.records_indexed += other.records_indexed;
        self.versions_indexed += other.versions_indexed;
        self.resumed_seq += other.resumed_seq;
    }
}

/// The ransomware-aware SSD: conservative retention + hardware-assisted
/// logging + NVMe-oE offload + recovery + forensics, behind the plain
/// [`BlockDevice`] interface.
///
/// The generic parameter `R` is the remote half of the codesign; hosts only
/// ever see the `BlockDevice` methods — `R`, the keys, the chain and the log
/// are structurally unreachable from host code, mirroring the hardware
/// isolation of the prototype.
#[derive(Debug)]
pub struct RssdDevice<R: RemoteTarget> {
    ftl: Ftl,
    config: RssdConfig,
    keys: DeviceKeys,
    chain: HashChain,
    remote: R,
    /// Records not yet sealed into a segment; the old pages they name are
    /// pinned on flash.
    pending: Batch,
    /// Sealed segments from seal to ack, and the health of that path.
    engine: OffloadEngine,
    /// Reads sealed segments back: history, version index, lookups.
    evidence: EvidenceReader,
    /// Last host read time per LPA (read-before-overwrite evidence).
    recent_reads: HashMap<u64, u64>,
    latency: LatencyStats,
    /// Power lost: volatile state dropped, I/O refused until [`Self::recover`].
    crashed: bool,
    /// What the most recent crash destroyed (see [`Self::crash`]).
    last_crash: CrashReport,
}

impl<R: RemoteTarget> RssdDevice<R> {
    /// Read-before-overwrite correlation window recorded in log metadata.
    pub const READ_WINDOW_NS: u64 = 600 * 1_000_000_000;

    /// Builds an RSSD over fresh NAND.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(
        geometry: FlashGeometry,
        timing: NandTiming,
        clock: SimClock,
        config: RssdConfig,
        remote: R,
    ) -> Self {
        config.validate().expect("invalid RssdConfig");
        let nand = NandArray::with_clock(geometry, timing, clock);
        let ftl = Ftl::new(
            nand,
            FtlConfig {
                spill_blocks: config.spill_blocks,
                ..FtlConfig::default()
            },
        );
        let keys = DeviceKeys::for_simulation(config.key_seed);
        RssdDevice {
            ftl,
            chain: HashChain::new(&keys.derive(KeyPurpose::EvidenceChain, 0)),
            remote,
            pending: Batch::default(),
            engine: OffloadEngine::new(SecureSession::new(&keys, 0), config.device_id),
            evidence: EvidenceReader::new(&keys),
            recent_reads: HashMap::new(),
            latency: LatencyStats::new(),
            crashed: false,
            last_crash: CrashReport::default(),
            keys,
            config,
        }
    }

    /// Installs a trace sink across the whole device stack: the FTL's GC
    /// spans, the NAND array's per-unit operation spans, the offload
    /// engine's segment lifecycle events, and (through the remote target)
    /// the wire's loss/retransmission instants all share `sink`'s buffer.
    pub fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.ftl.set_trace_sink(sink.clone());
        self.remote.set_trace_sink(sink.clone());
        self.engine.sink = sink;
    }

    /// Installs a phase profiler: segment sealing, compression and wire
    /// transfer time is charged to the `wire` phase.
    pub fn set_profiler(&mut self, profiler: ProfilerHandle) {
        self.engine.profiler = profiler;
    }

    /// Simulated power loss. Everything in controller RAM is dropped: the
    /// pending log tail and its retention pins, the read-correlation window,
    /// the remote version index and the last opened segment. Flash contents —
    /// every host write that was acknowledged — and the remote store are
    /// durable and survive.
    /// All I/O fails with [`DeviceError::PowerLoss`] until [`Self::recover`]
    /// runs.
    ///
    /// Pre-images referenced only by pending (never-offloaded) records are
    /// unpinned: with the records gone no recovery path can name them, and a
    /// real controller's pin table is RAM too. They are *detectably* lost —
    /// the remote chain head shows exactly where the durable log ends.
    ///
    /// A segment that was shipped but whose ack had not yet reached the
    /// device is *not* lost: the store holds it, [`Self::recover`] indexes
    /// it from there, and only its pins go (with the pin table). The device
    /// never heard that ack, so [`OffloadStats`] never counts the segment.
    ///
    /// Returns the report of the cut that did the damage; crashing an
    /// already-crashed device destroys nothing further and returns the
    /// original report (see [`Self::last_crash_report`]).
    pub fn crash(&mut self) -> CrashReport {
        self.pending.unpin(&mut self.ftl);
        let (staged_records, staged_preimages) = self.engine.power_cut(&mut self.ftl);
        let report = CrashReport {
            pending_records_lost: self.pending.records.len() as u64 + staged_records,
            pending_preimages_lost: self.pending.retained + staged_preimages,
            chain_len_at_crash: self.chain.len(),
        };
        self.pending = Batch::default();
        self.recent_reads.clear();
        self.evidence = EvidenceReader::new(&self.keys); // index and memo are RAM
        if !self.crashed {
            // A second crash() while already down destroys nothing further;
            // keep the report of the cut that did the damage.
            self.last_crash = report;
        }
        self.crashed = true;
        self.last_crash
    }

    /// `true` while the device is down after [`Self::crash`].
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// What the most recent crash destroyed — stable across failed
    /// [`Self::recover`] attempts (e.g. while the remote is partitioned),
    /// so a retrying operator still gets honest loss accounting.
    pub fn last_crash_report(&self) -> CrashReport {
        self.last_crash
    }

    /// Post-crash recovery: walks the remote evidence chain (verifying it
    /// end to end), rebuilds the remote version index, replays the NAND
    /// spill region, and resumes the evidence chain *at the durable head* —
    /// the sequence right after the last offloaded or spilled record. The
    /// lost pending tail is never resequenced or re-signed, so any verifier
    /// (including the remote store's continuity check) only ever sees one
    /// continuation of any chain head: a crash cannot fork the chain, only
    /// truncate its volatile tail.
    ///
    /// # Errors
    ///
    /// Errors when the remote is unreachable, when its chain fails
    /// verification, or when the store holds fewer segments than the
    /// device was acknowledged for (a transport that acked and dropped
    /// offloads, then a crash destroying the only other witness — the
    /// in-RAM chain) — recovering on top of a tampered or holed store
    /// would launder the loss into trusted state.
    pub fn recover(&mut self) -> Result<CrashRecovery, String> {
        self.recover_on(pool::machine_workers())
    }

    /// [`Self::recover`], walking the store on `workers` — which its answer
    /// does not depend on.
    pub(crate) fn recover_on(&mut self, workers: usize) -> Result<CrashRecovery, String> {
        if !self.crashed {
            return Err("device is powered and running; nothing to recover".to_string());
        }
        // The acked-segment counter is the one durable witness that
        // survives both the drop (it counted the fake ack) and the crash
        // (telemetry is persisted): a store with fewer segments than the
        // device was acknowledged for lost offloads in transit.
        let stored = self.remote.stored_segments().len() as u64;
        let acked = self.engine.stats.segments_offloaded;
        if acked > stored {
            return Err(format!(
                "chain gap: device was acknowledged {acked} offloaded segments but \
                 the store holds {stored} — acknowledged offloads were lost in \
                 transit; refusing to resume over a holed history"
            ));
        }
        let (head, mut records, index) =
            self.evidence
                .walk_store(workers, &mut self.remote, |_, _, _| ())?;
        let segments = self.remote.stored_segments();
        let head = self.engine.replay_spill(
            &mut self.ftl,
            &self.evidence.chain,
            head,
            segments.last().copied(),
        )?;
        self.evidence.index = index;
        for seg in self.engine.unshipped() {
            self.evidence.index_sealed(seg);
            records += seg.batch.records.len() as u64;
        }
        let chain_key = self.keys.derive(KeyPurpose::EvidenceChain, 0);
        self.chain = HashChain::resume(&chain_key, head, records);
        self.crashed = false;
        Ok(CrashRecovery {
            segments_walked: (segments.len() + self.engine.staged_segments()) as u64,
            records_indexed: records,
            versions_indexed: self.evidence.index.version_count(),
            resumed_seq: records,
        })
    }

    /// Offload-path counters.
    pub fn offload_stats(&self) -> OffloadStats {
        self.engine.stats
    }

    /// Current offload health state.
    pub fn offload_health(&self) -> OffloadHealth {
        self.engine.stats.health
    }

    /// Sealed segments staged locally awaiting remote acknowledgement —
    /// still to be shipped, or shipped with the ack in flight.
    pub fn staged_segments(&self) -> usize {
        self.engine.staged_segments()
    }

    /// Flash pages pinned against GC because a record still waiting for its
    /// ack (pending, or staged and neither spilled nor retired) names them.
    pub fn pinned_pages(&self) -> u64 {
        self.ftl.pinned_pages()
    }

    /// Bytes of the NAND spill region currently holding staged evidence.
    pub fn spill_used_bytes(&self) -> u64 {
        self.ftl.spill_used_bytes()
    }

    /// Capacity of the NAND spill region (zero when not configured).
    pub fn spill_capacity_bytes(&self) -> u64 {
        self.ftl.spill_capacity_bytes()
    }

    /// Backlog pressure in `[0, 1+]`: the worse of RAM-staged depth against
    /// its soft cap and spill-region occupancy.
    pub fn backlog_pressure(&self) -> f64 {
        Admission::pressure(self.engine.backlog(&self.ftl))
    }

    /// Per-request latency distribution.
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// FTL statistics (WAF, GC work).
    pub fn ftl_stats(&self) -> &FtlStats {
        self.ftl.stats()
    }

    /// Raw NAND statistics.
    pub fn nand_stats(&self) -> &rssd_flash::NandStats {
        self.ftl.nand_stats()
    }

    /// Records appended to the evidence chain so far.
    pub fn chain_len(&self) -> u64 {
        self.chain.len()
    }

    /// Current evidence-chain head.
    pub fn chain_head(&self) -> Digest {
        self.chain.head()
    }

    /// Records buffered locally awaiting offload.
    pub fn pending_records(&self) -> usize {
        self.pending.records.len()
    }

    /// Access to the remote target (the "investigator's console" — not part
    /// of the host-facing interface).
    pub fn remote(&self) -> &R {
        &self.remote
    }

    /// Mutable access to the remote target (network fault injection).
    pub fn remote_mut(&mut self) -> &mut R {
        &mut self.remote
    }

    /// Consumes the device and returns its remote target — modeling a total
    /// loss of the local hardware (controller, NAND, pending log) while the
    /// hardware-isolated remote half of the codesign survives. Everything
    /// still pinned locally and every record not yet offloaded is gone;
    /// what remains is exactly what [`crate::RebuildImage::harvest`] can
    /// reconstruct from the remote evidence chain.
    pub fn into_remote(self) -> R {
        self.remote
    }

    /// The device key hierarchy, as escrowed to an investigator. Needed by
    /// [`crate::PostAttackAnalyzer`] to verify the evidence chain and open
    /// segments.
    pub fn escrow_keys(&self) -> DeviceKeys {
        self.keys.clone()
    }

    /// Forces an offload of everything pending (e.g. on shutdown).
    ///
    /// # Errors
    ///
    /// Propagates [`RemoteError`] if the remote is unreachable.
    pub fn flush_log(&mut self) -> Result<(), RemoteError> {
        self.offload(true)
    }

    /// The full verified operation history: this *is*
    /// [`Self::audit_history`] with the failure as the `Err` — a history
    /// that does not verify yields no records here.
    ///
    /// # Errors
    ///
    /// Returns an error string describing the first verification failure —
    /// a non-verifying history means tampering, remote corruption, or lost
    /// acknowledged offloads, and is itself forensic signal.
    pub fn verified_history(&mut self) -> Result<Vec<LogRecord>, String> {
        let audit = self.audit_history();
        match audit.failure {
            None => Ok(audit.records),
            Some(failure) => Err(failure),
        }
    }

    /// Fault-tolerant history read: every offloaded segment, every staged
    /// one and the pending tail, chain-verified end to end — the longest
    /// verified prefix is returned with the first failure (if any) reported
    /// beside it instead of discarding the trustworthy records. This is the
    /// investigator's entry point after a fault: detection can still run
    /// over the verified prefix while the gap itself is evidence.
    /// Additionally checks that every record the device ever appended is
    /// accounted for (offloaded, staged or pending) — an offload that was
    /// acknowledged in transit but never reached the store surfaces here as
    /// a chain gap instead of silently shortening the history.
    ///
    /// The records are metadata only (`old_data: None`): every sealed
    /// segment is authenticated whole — by this reader, or by a store that
    /// holds its offload keys and verified it at ingest — but only its
    /// metadata block is deciphered and decompressed. Page content comes
    /// back via [`recover_page`](BlockDevice::recover_page) /
    /// [`Self::recover_page_before`] or a
    /// [`RebuildImage`](crate::RebuildImage).
    ///
    /// Call after [`Self::recover`] when the device has crashed; while
    /// crashed the accounting check is skipped: the in-RAM chain length is
    /// stale (it still counts the lost volatile tail), and a crash
    /// truncation is a documented loss, not transit loss.
    pub fn audit_history(&mut self) -> HistoryAudit {
        self.audit_history_on(pool::machine_workers())
    }

    /// [`Self::audit_history`], walking the store on `workers` — which its
    /// answer does not depend on.
    pub(crate) fn audit_history_on(&mut self, workers: usize) -> HistoryAudit {
        let live = (!self.crashed).then(|| (self.chain.len(), self.chain.head()));
        self.evidence
            .audit(workers, &mut self.remote, &self.engine, &self.pending, live)
    }

    /// Point-in-time recovery: the retained pre-image of `lpa` that was
    /// valid at `before_ns` — of every version the pending tail still pins
    /// on flash or a sealed segment carries (staged locally or stored
    /// remotely), ranked together, the first invalidated at or after
    /// `before_ns`, and only if its content had been written by then. `None`
    /// when the page held nothing at that time (not written yet, or sitting
    /// trimmed). Both ends are inclusive: a cut-off in the very nanosecond
    /// of a write selects what that write left.
    pub fn recover_page_before(&mut self, lpa: u64, before_ns: u64) -> Option<Vec<u8>> {
        self.recover_version(lpa, Some(before_ns))
    }

    /// Recovers the newest retained pre-image of `lpa` (the version the most
    /// recent overwrite/trim destroyed). Ordering follows the evidence
    /// chain's sequence numbers, the device's total operation order.
    pub fn recover_newest(&mut self, lpa: u64) -> Option<Vec<u8>> {
        self.recover_version(lpa, None)
    }

    fn recover_version(&mut self, lpa: u64, before_ns: Option<u64>) -> Option<Vec<u8>> {
        self.evidence.recover_version(
            lpa,
            before_ns,
            &self.pending,
            &self.engine,
            &mut self.ftl,
            &mut self.remote,
        )
    }
}

/// The block path: logging, retention, and what a host command triggers.
impl<R: RemoteTarget> RssdDevice<R> {
    fn log_operation(
        &mut self,
        op: LogOp,
        lpa: u64,
        old_page_index: Option<u64>,
        entropy_mil: u16,
        read_before: bool,
    ) {
        let record = LogRecord {
            seq: self.chain.next_seq(),
            at_ns: self.ftl.clock().now_ns(),
            op,
            lpa,
            old_page_index,
            entropy_mil,
            read_before,
            old_data: None,
        };
        self.chain.absorb(&record.chain_image());
        self.pending.push(record);
    }

    fn absorb_stale_events(&mut self, entropy_mil: u16, read_before: bool) {
        for event in self.ftl.drain_stale_events() {
            let (op, entropy_mil, read_before) = match event.cause {
                InvalidateCause::Overwrite => (LogOp::Write, entropy_mil, read_before),
                InvalidateCause::Trim => (LogOp::Trim, 0, false),
                // Migrated content survives at its new location.
                InvalidateCause::GcMigration => continue,
            };
            self.ftl.pin_page(event.ppa);
            self.engine
                .pinned(&self.ftl, event.ppa, self.pending.retained);
            let idx = self.ftl.geometry().page_index(event.ppa);
            self.log_operation(op, event.lpa, Some(idx), entropy_mil, read_before);
        }
    }

    /// Background offload, if the pending tail is due to seal
    /// ([`Admission::seal_due`]) or a deferred retry has come due. Failures
    /// are tolerated (the sealed segment stays staged — and spilled to NAND
    /// if configured); retries honor the backoff.
    fn offload_if_due(&mut self) {
        let seal_due = Admission::seal_due(&self.pending, self.config.segment_pages, || {
            self.ftl.pinned_block_fraction()
        });
        if seal_due || self.engine.retry_due(self.ftl.clock().now_ns()) {
            let _ = self.offload(false);
        }
    }

    /// The one way an offload starts: seals whatever is pending (evidence
    /// leaves the volatile tail at the same op boundary whether or not the
    /// wire is up) and works the staged backlog. `forced` — flushes, sync
    /// backpressure, the stalled-write drain — tries the wire whatever the
    /// retry backoff and waits for every ack; a background offload defers
    /// to the backoff, so a dead link is not hammered on every threshold.
    fn offload(&mut self, forced: bool) -> Result<(), RemoteError> {
        if self.pending.records.is_empty() && self.engine.staged_segments() == 0 {
            return Ok(());
        }
        self.engine.profiler.enter("wire");
        // The chain's run ends where the pending tail does: a segment's head
        // MACs exactly its records.
        let head = self.chain.seal();
        if let Some(seg) = self.engine.seal(&mut self.pending, head, &mut self.ftl) {
            self.evidence.index_sealed(seg);
        }
        let result = self.engine.drain(&mut self.ftl, &mut self.remote, forced);
        self.engine.profiler.exit();
        result
    }
}

/// What RSSD adds to the block path — every hook of the policy does work.
impl<R: RemoteTarget> BlockPolicy for RssdDevice<R> {
    /// A write's `(entropy_mil, read_before)` log metadata.
    type Note = (u16, bool);

    fn parts(&mut self) -> (&mut Ftl, &mut LatencyStats) {
        (&mut self.ftl, &mut self.latency)
    }

    fn admit(&mut self, command: &IoCommand) -> Result<Self::Note, DeviceError> {
        if self.crashed {
            return Err(DeviceError::PowerLoss);
        }
        if !matches!(command, IoCommand::Flush) {
            // (The drain a flush forces retires the landed acks itself.)
            self.engine.retire_acked(&mut self.ftl);
        }
        let IoCommand::Write { lpa, data } = command else {
            return Ok(Self::Note::default());
        };
        // Admission control along the degradation slope. Stalled gets one
        // forced drain first — with a frozen backlog the only way out is an
        // attempt, and a healed link recovers on the very next write.
        match self.engine.stats.health {
            OffloadHealth::Stalled => {
                let _ = self.offload(true);
                if self.engine.stats.health == OffloadHealth::Stalled {
                    return Err(DeviceError::Stalled);
                }
            }
            OffloadHealth::Throttled => {
                let penalty = Admission::penalty_ns(self.engine.staged_segments());
                self.ftl.clock().advance(penalty);
                self.engine.stats.throttled_writes += 1;
                self.engine.stats.throttle_penalty_ns += penalty;
            }
            _ => {}
        }
        let now = self.ftl.clock().now_ns();
        let entropy_mil = (shannon_entropy(data) * 1000.0) as u16;
        let read_before = self
            .recent_reads
            .get(lpa)
            .is_some_and(|&t| now.saturating_sub(t) <= Self::READ_WINDOW_NS);
        Ok((entropy_mil, read_before))
    }

    /// Backpressure: synchronously offload pinned data. RSSD never *drops*
    /// retained data — if neither the remote nor the spill region can
    /// absorb it the device stalls instead.
    fn relieve(&mut self, attempt: u32) -> bool {
        if !Admission::relieve_again(attempt) {
            return false;
        }
        self.engine.stats.sync_offloads += 1;
        let pinned_before = self.ftl.pinned_pages();
        let shipped = self.offload(true).is_ok();
        // Otherwise neither the wire nor the spill freed anything.
        shipped || self.ftl.pinned_pages() < pinned_before
    }

    fn committed(&mut self, lpa: u64, outcome: &CommandOutcome, note: Self::Note) {
        let (entropy_mil, read_before) = note;
        match outcome {
            CommandOutcome::Read(_) => {
                self.recent_reads.insert(lpa, self.ftl.clock().now_ns());
                // Host reads join the evidence chain, metadata only: it
                // costs log volume and buys read-before-overwrite evidence
                // for forensics.
                self.log_operation(LogOp::Read, lpa, None, 0, false);
            }
            CommandOutcome::Written => {
                // Absorb events; a fresh write (no old version was
                // retained) still gets a metadata-only log record.
                let before = self.chain.next_seq();
                self.absorb_stale_events(entropy_mil, read_before);
                if self.chain.next_seq() == before {
                    self.log_operation(LogOp::Write, lpa, None, entropy_mil, read_before);
                }
            }
            // Enhanced trim: host semantics preserved (reads return
            // zeroes), but the trimmed version is retained and logged like
            // any overwrite.
            CommandOutcome::Trimmed => self.absorb_stale_events(0, false),
            CommandOutcome::Flushed => {}
        }
    }

    /// Conservative retention holds the data; flush is best-effort.
    fn barrier(&mut self) {
        let _ = self.flush_log();
    }

    /// One coalesced background offload for the whole batch (the seal
    /// covers everything pending in a single segment, so one call settles
    /// any threshold crossed above). Synchronous backpressure offloads — a
    /// full device mid batch — never wait for it.
    fn batch_end(&mut self) {
        self.offload_if_due();
    }
}

impl<R: RemoteTarget> BlockDevice for RssdDevice<R> {
    fn model_name(&self) -> &str {
        "RSSD"
    }

    fn page_size(&self) -> usize {
        self.ftl.geometry().page_size
    }

    fn logical_pages(&self) -> u64 {
        self.ftl.logical_pages()
    }

    fn clock(&self) -> &SimClock {
        self.ftl.clock()
    }

    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
        execute_batch(self, commands)
    }

    fn recover_page(&mut self, lpa: u64) -> Option<Vec<u8>> {
        if self.crashed {
            return None;
        }
        self.recover_newest(lpa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::reseal::{resealed, Reseal};
    use crate::rebuild::RebuildImage;
    use crate::recovery::RecoveryEngine;
    use crate::remote_target::LoopbackTarget;
    use crate::segment::{OpenDepth, SegmentBody, SegmentEnvelope};
    use crate::wire::WireRemote;
    use std::collections::HashSet;

    fn device() -> RssdDevice<LoopbackTarget> {
        RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        )
    }

    /// A device behind an ideal wire — the link an outage is a condition
    /// of, and one that costs no simulated time.
    fn wired(config: RssdConfig) -> RssdDevice<WireRemote<LoopbackTarget>> {
        RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            config,
            WireRemote::new(LoopbackTarget::new(), rssd_net::LinkConfig::ideal()),
        )
    }

    fn wired_device() -> RssdDevice<WireRemote<LoopbackTarget>> {
        wired(RssdConfig {
            segment_pages: 8,
            ..RssdConfig::default()
        })
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    /// `{:?}` of a device prints no key material: not the evidence-chain
    /// key, and not the hash states after its `key ^ ipad` and `key ^ opad`
    /// blocks — the HMAC midstates, which forge a link as well as the key.
    #[test]
    fn debug_output_prints_neither_the_chain_key_nor_its_midstates() {
        let mut d = device();
        for i in 0..24u8 {
            d.write_page(u64::from(i % 4), page(i)).unwrap();
        }
        d.flush_log().unwrap();
        d.write_page(0, page(0xEE)).unwrap();
        assert!(d.offload_stats().segments_offloaded > 0);
        assert!(d.pending_records() > 0);

        let printed = format!("{d:?}");
        let key = d.escrow_keys().derive(KeyPurpose::EvidenceChain, 0);
        assert!(
            !printed.contains(&format!("{key:?}")),
            "the chain key prints"
        );
        let numbers: HashSet<&str> = printed
            .split(|c: char| !c.is_ascii_digit())
            .filter(|token| !token.is_empty())
            .collect();
        for pad in [0x36u8, 0x5c] {
            let mut block = [pad; 64];
            for (byte, k) in block.iter_mut().zip(&key) {
                *byte ^= k;
            }
            // A plain hasher's state is public: it prints its words.
            let mut keyed = rssd_crypto::Sha256::new();
            keyed.update(&block);
            let state = format!("{keyed:?}");
            let (_, words) = state
                .split_once("state: [")
                .expect("Sha256 prints its state");
            let (words, _) = words.split_once(']').expect("eight words");
            for word in words.split(", ") {
                assert!(!numbers.contains(word), "midstate word {word} prints");
            }
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = device();
        d.write_page(0, page(1)).unwrap();
        assert_eq!(d.read_page(0).unwrap(), page(1));
    }

    #[test]
    fn overwrite_recoverable_from_local_pending() {
        let mut d = device();
        d.write_page(3, page(1)).unwrap();
        d.write_page(3, page(2)).unwrap();
        assert_eq!(d.recover_page(3).unwrap(), page(1));
    }

    #[test]
    fn overwrite_recoverable_after_offload() {
        let mut d = device();
        d.write_page(3, page(1)).unwrap();
        d.write_page(3, page(2)).unwrap();
        d.flush_log().unwrap();
        assert_eq!(d.pending_records(), 0);
        assert!(d.offload_stats().segments_offloaded > 0);
        assert_eq!(d.recover_page(3).unwrap(), page(1));
    }

    #[test]
    fn trim_is_retained_and_recoverable() {
        let mut d = device();
        d.write_page(3, page(7)).unwrap();
        d.trim_page(3).unwrap();
        assert_eq!(d.read_page(3).unwrap(), page(0), "host sees zeroes");
        assert_eq!(d.recover_page(3).unwrap(), page(7), "device retains");
        d.flush_log().unwrap();
        assert_eq!(d.recover_page(3).unwrap(), page(7), "retained remotely too");
    }

    #[test]
    fn point_in_time_recovery_selects_correct_version() {
        let clock = SimClock::new();
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            clock.clone(),
            RssdConfig::default(),
            LoopbackTarget::new(),
        );
        d.write_page(3, page(1)).unwrap();
        clock.advance(1_000_000);
        let t1 = clock.now_ns();
        d.write_page(3, page(2)).unwrap();
        clock.advance(1_000_000);
        let t2 = clock.now_ns();
        d.write_page(3, page(3)).unwrap();

        // Valid content just before t1 was version 1; before t2 version 2.
        assert_eq!(d.recover_page_before(3, t1).unwrap(), page(1));
        assert_eq!(d.recover_page_before(3, t2).unwrap(), page(2));
        // Newest retained pre-image overall is version 2.
        assert_eq!(d.recover_page(3).unwrap(), page(2));
    }

    #[test]
    fn chain_grows_with_operations() {
        let mut d = device();
        d.write_page(0, page(1)).unwrap();
        d.read_page(0).unwrap();
        d.write_page(0, page(2)).unwrap();
        d.trim_page(0).unwrap();
        assert_eq!(d.chain_len(), 4);
    }

    /// Every head the device seals is one HMAC under the chain key over the
    /// head before it and its segment's chain images back to back, and the
    /// device's own head is the last one sealed — here recomputed by hand.
    #[test]
    fn every_sealed_head_is_one_hmac_over_its_segment() {
        let mut d = device();
        for i in 0..40u64 {
            d.write_page(i % 5, page(i as u8)).unwrap();
            if i % 3 == 0 {
                d.read_page(i % 5).unwrap();
            }
        }
        d.flush_log().unwrap();
        let keys = d.escrow_keys();
        let chain_key = keys.derive(KeyPurpose::EvidenceChain, 0);
        let session = rssd_net::SecureSession::new(&keys, 0);
        let stored = d.remote().stored_segments();
        assert!(stored.len() > 2, "{} segments", stored.len());
        let mut head = Digest::ZERO;
        for seq in stored {
            let envelope = d.remote_mut().fetch_segment(seq).unwrap();
            let opened = envelope.open(&session, OpenDepth::Metadata).unwrap();
            assert!(opened.records().len() >= 2, "segment {seq}");
            let mut message = head.as_bytes().to_vec();
            for record in opened.records() {
                message.extend_from_slice(&record.chain_image());
            }
            assert_eq!(envelope.prev_chain_head(), head, "segment {seq}");
            head = rssd_crypto::HmacSha256::mac(&chain_key, &message);
            assert_eq!(envelope.chain_head(), head, "segment {seq}");
        }
        assert_eq!(d.chain_head(), head);
    }

    #[test]
    fn verified_history_round_trips() {
        let mut d = device();
        for i in 0..30u64 {
            d.write_page(i % 5, page(i as u8)).unwrap();
        }
        d.flush_log().unwrap();
        for i in 0..3u64 {
            d.write_page(i, page(99)).unwrap();
        }
        let history = d.verified_history().unwrap();
        assert_eq!(history.len() as u64, d.chain_len());
        // In chain order.
        for w in history.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        // The history is metadata only, offloaded or not ...
        assert!(history.iter().all(|r| r.old_data.is_none()));
        assert!(history
            .iter()
            .any(|r| r.op == LogOp::Write && r.old_page_index.is_some()));
        // ... and the overwritten content comes back through recovery.
        assert_eq!(d.recover_page(4).unwrap(), page(24), "offloaded");
        assert_eq!(d.recover_page(0).unwrap(), page(25), "pending");
    }

    #[test]
    fn read_before_overwrite_is_recorded() {
        let mut d = device();
        d.write_page(3, page(1)).unwrap();
        d.read_page(3).unwrap();
        d.write_page(3, page(2)).unwrap();
        let history = d.verified_history().unwrap();
        let overwrite = history
            .iter()
            .find(|r| r.op == LogOp::Write && r.old_page_index.is_some())
            .expect("overwrite logged");
        assert!(overwrite.read_before);
    }

    #[test]
    fn unreachable_remote_keeps_data_pinned_not_lost() {
        let mut d = wired_device();
        d.remote_mut().set_uplink_down(true);
        for i in 0..40u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        assert!(d.offload_stats().offload_failures > 0);
        assert_eq!(d.offload_stats().segments_offloaded, 0);
        // Everything still recoverable locally: lpa 0 was last overwritten
        // at i=36, whose retained pre-image is the i=32 version.
        assert_eq!(d.recover_page(0).unwrap(), page(32));
        // Remote comes back: flush succeeds.
        d.remote_mut().set_uplink_down(false);
        d.flush_log().unwrap();
        assert!(d.offload_stats().segments_offloaded > 0);
    }

    #[test]
    fn gc_flood_cannot_evict_retained_data() {
        let mut d = device();
        // Victim: encrypt-style overwrite.
        d.write_page(0, page(0xAA)).unwrap();
        d.read_page(0).unwrap();
        d.write_page(0, page(0xEE)).unwrap();
        // GC attack: flood the device far beyond capacity.
        let logical = d.logical_pages();
        for round in 0..5u8 {
            for lpa in 1..logical {
                d.write_page(lpa, page(round)).unwrap();
            }
        }
        // The original data survived (remotely or locally).
        assert_eq!(d.recover_page(0).unwrap(), page(0xAA));
    }

    #[test]
    fn offload_compresses_and_encrypts() {
        let mut d = device();
        for i in 0..20u64 {
            d.write_page(i % 4, page((i % 7) as u8)).unwrap();
        }
        d.flush_log().unwrap();
        let stats = d.offload_stats();
        assert!(stats.raw_bytes > 0);
        assert!(
            stats.compression_ratio() > 2.0,
            "constant pages compress well, got {}",
            stats.compression_ratio()
        );
    }

    #[test]
    fn fresh_write_logged_without_retention() {
        let mut d = device();
        d.write_page(9, page(1)).unwrap();
        let history = d.verified_history().unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].op, LogOp::Write);
        assert_eq!(history[0].old_page_index, None);
    }

    #[test]
    fn recover_unknown_page_is_none() {
        let mut d = device();
        assert_eq!(d.recover_page(5), None);
        d.write_page(5, page(1)).unwrap();
        assert_eq!(d.recover_page(5), None, "no old version yet");
    }

    #[test]
    fn out_of_range_reads_leave_no_controller_state() {
        // The host controls the address: a refused read must not cost RAM.
        let mut d = device();
        let base = d.logical_pages();
        for k in 0..10_000u64 {
            assert!(matches!(
                d.read_page(base + k),
                Err(DeviceError::OutOfRange { lpa, .. }) if lpa == base + k
            ));
        }
        assert!(d.recent_reads.is_empty());
        assert_eq!(d.chain_len(), 0);
    }

    #[test]
    fn batched_submission_matches_scalar_semantics() {
        let commands = |n: u64| -> Vec<IoCommand> {
            let mut cmds = Vec::new();
            for i in 0..n {
                cmds.push(IoCommand::Write {
                    lpa: i % 5,
                    data: page(i as u8),
                });
                if i % 3 == 0 {
                    cmds.push(IoCommand::Read { lpa: i % 5 });
                }
                if i % 7 == 6 {
                    cmds.push(IoCommand::Trim { lpa: (i + 1) % 5 });
                }
            }
            cmds
        };
        let mut scalar = device();
        let scalar_results: Vec<_> = commands(25)
            .into_iter()
            .map(|c| scalar.execute(c))
            .collect();
        let mut batched = device();
        let batch_results = batched.submit_batch(commands(25));

        assert_eq!(scalar_results, batch_results);
        // The same records in the same order. (Not the same head: a head
        // MACs its segment, and the batch coalesced the background seals.)
        assert_eq!(
            scalar.verified_history().unwrap(),
            batched.verified_history().unwrap()
        );
        assert_eq!(scalar.chain_len(), batched.chain_len());
        for lpa in 0..5u64 {
            assert_eq!(
                scalar.read_page(lpa).unwrap(),
                batched.read_page(lpa).unwrap()
            );
            assert_eq!(scalar.recover_page(lpa), batched.recover_page(lpa));
        }
    }

    #[test]
    fn batch_coalesces_background_offload_flushes() {
        // 64 overwrites with segment_pages=8: batches of one seal a segment
        // every ~8 retained pages, one batch of 64 at most once.
        let fill = |d: &mut RssdDevice<LoopbackTarget>| {
            for i in 0..16u64 {
                d.write_page(i % 4, page(i as u8)).unwrap();
            }
        };
        let mut scalar = device();
        fill(&mut scalar);
        for i in 16..80u64 {
            scalar.write_page(i % 4, page(i as u8)).unwrap();
        }
        let mut batched = device();
        fill(&mut batched);
        let cmds: Vec<IoCommand> = (16..80u64)
            .map(|i| IoCommand::Write {
                lpa: i % 4,
                data: page(i as u8),
            })
            .collect();
        for r in batched.submit_batch(cmds) {
            r.unwrap();
        }
        assert!(
            batched.offload_stats().segments_offloaded < scalar.offload_stats().segments_offloaded,
            "batch path must coalesce segment flushes ({} vs {})",
            batched.offload_stats().segments_offloaded,
            scalar.offload_stats().segments_offloaded
        );
        // Same recoverable state regardless of flush coalescing.
        for lpa in 0..4u64 {
            assert_eq!(scalar.recover_page(lpa), batched.recover_page(lpa));
        }
    }

    #[test]
    fn crash_refuses_io_until_recover() {
        let mut d = device();
        d.write_page(0, page(1)).unwrap();
        let _ = d.crash();
        assert!(d.is_crashed());
        assert!(matches!(
            d.write_page(0, page(2)),
            Err(DeviceError::PowerLoss)
        ));
        assert!(matches!(d.read_page(0), Err(DeviceError::PowerLoss)));
        assert!(matches!(d.trim_page(0), Err(DeviceError::PowerLoss)));
        assert!(matches!(d.flush(), Err(DeviceError::PowerLoss)));
        assert_eq!(d.recover_page(0), None);
        let _ = d.recover().unwrap();
        assert!(!d.is_crashed());
        assert_eq!(d.read_page(0).unwrap(), page(1), "acked write durable");
    }

    #[test]
    fn crashed_device_history_reports_truncation_not_transit_loss() {
        // While crashed, the in-RAM chain length still counts the lost
        // volatile tail; the accounting check must not misread that
        // documented truncation as acknowledged offloads lost in transit.
        let mut d = device();
        for i in 0..20u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        d.flush_log().unwrap();
        let offloaded = d.chain_len();
        d.write_page(0, page(0xEE)).unwrap(); // pending tail, will be lost
        let _ = d.crash();
        let history = d.verified_history().expect("no false chain-gap signal");
        assert_eq!(history.len() as u64, offloaded);
        let audit = d.audit_history();
        assert!(audit.verified, "{:?}", audit.failure);
        // Once recovered, the accounting check is live again and passes.
        let _ = d.recover().unwrap();
        assert!(d.verified_history().is_ok());
    }

    #[test]
    fn recover_requires_a_crash() {
        let mut d = device();
        assert!(d.recover().is_err());
    }

    /// A transport that acknowledges and then destroys segments — the
    /// Byzantine worst case. When a crash then destroys the in-RAM chain
    /// (the other witness to the dropped records), the acked-segment
    /// counter is what must keep the loss from being silently repaired.
    struct AckAndDrop {
        inner: LoopbackTarget,
        dropping: bool,
    }

    impl RemoteTarget for AckAndDrop {
        fn store_segment(
            &mut self,
            envelope: SegmentEnvelope,
            now_ns: u64,
        ) -> Result<crate::remote_target::StoreAck, crate::remote_target::RemoteError> {
            if self.dropping {
                Ok(crate::remote_target::StoreAck {
                    segment_seq: envelope.segment_seq(),
                    durable_at_ns: now_ns,
                })
            } else {
                self.inner.store_segment(envelope, now_ns)
            }
        }

        fn fetch_segment(
            &mut self,
            segment_seq: u64,
        ) -> Result<SegmentEnvelope, crate::remote_target::RemoteError> {
            self.inner.fetch_segment(segment_seq)
        }

        fn stored_segments(&self) -> Vec<u64> {
            self.inner.stored_segments()
        }
    }

    #[test]
    fn crash_after_dropped_offloads_refuses_silent_chain_repair() {
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 4,
                ..RssdConfig::default()
            },
            AckAndDrop {
                inner: LoopbackTarget::new(),
                dropping: false,
            },
        );
        for i in 0..16u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        d.flush_log().unwrap();
        // The transport turns Byzantine: acks and destroys.
        d.remote_mut().dropping = true;
        for i in 0..16u64 {
            d.write_page(i % 4, page(0x80 | i as u8)).unwrap();
        }
        d.flush_log().unwrap();
        let acked = d.offload_stats().segments_offloaded;
        assert!(acked as usize > d.remote().stored_segments().len());
        // Power cut: the in-RAM chain — the only other witness to the
        // dropped records — dies. Recovery must refuse to resume over the
        // clean-looking prefix rather than silently repair the chain.
        let _ = d.crash();
        let err = d.recover().unwrap_err();
        assert!(err.contains("lost in transit"), "{err}");
        assert!(d.is_crashed(), "the device stays down by policy");
    }

    #[test]
    fn crash_loses_pending_tail_but_not_offloaded_evidence() {
        let mut d = device();
        for i in 0..40u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        d.flush_log().unwrap();
        let durable_len = d.chain_len() - d.pending_records() as u64;
        // Build a fresh pending tail that will die with the RAM.
        d.write_page(0, page(0xAA)).unwrap();
        d.write_page(0, page(0xBB)).unwrap();
        assert!(d.pending_records() > 0);
        let report = d.crash();
        assert!(report.pending_records_lost > 0);
        assert_eq!(
            report.chain_len_at_crash,
            durable_len + report.pending_records_lost
        );

        let recovery = d.recover().unwrap();
        assert_eq!(recovery.resumed_seq, recovery.records_indexed);
        assert_eq!(d.chain_len(), recovery.records_indexed);
        // The chain resumed below the crashed head: no fork, only a
        // truncated volatile tail. New appends verify end to end.
        d.write_page(2, page(0xCC)).unwrap();
        let history = d.verified_history().unwrap();
        assert_eq!(history.len() as u64, d.chain_len());
        for w in history.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        // Offloaded pre-images are recoverable again (index rebuilt). The
        // newest *durable* retained version of lpa 0 is the i=32 one (the
        // i=36 overwrite shipped it before the flush); the 0xAA/0xBB
        // pre-images were pending-only and died with the RAM.
        assert_eq!(d.recover_page(0).unwrap(), page(32));
    }

    #[test]
    fn entropy_recorded_in_log() {
        let mut d = device();
        d.write_page(0, page(0)).unwrap(); // zero page: entropy 0
        let history = d.verified_history().unwrap();
        assert_eq!(history[0].entropy_mil, 0);
    }

    fn spill_device() -> RssdDevice<WireRemote<LoopbackTarget>> {
        wired(RssdConfig {
            segment_pages: 8,
            spill_blocks: 2,
            ..RssdConfig::default()
        })
    }

    #[test]
    fn retries_reuse_the_sealed_wire_image_without_resealing() {
        let mut d = wired_device();
        d.remote_mut().set_uplink_down(true);
        for i in 0..20u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        assert!(d.flush_log().is_err());
        let s = d.offload_stats();
        let sealed = s.segments_sealed;
        let failures = s.offload_failures;
        assert!(sealed > 0);
        assert!(failures > 0);
        // Forced retries must not compress or seal anything again: the
        // staged wire images are reused byte-identically on every attempt.
        for _ in 0..5 {
            assert!(d.flush_log().is_err());
        }
        let s = d.offload_stats();
        assert_eq!(s.segments_sealed, sealed, "a retry re-sealed a segment");
        assert_eq!(s.segments_offloaded, 0);
        assert!(
            s.offload_failures >= failures + 5,
            "each retry is an attempt"
        );
        // Heal: every staged segment ships exactly once.
        d.remote_mut().set_uplink_down(false);
        d.flush_log().unwrap();
        let s = d.offload_stats();
        assert_eq!(s.segments_offloaded, s.segments_sealed);
        assert_eq!(d.staged_segments(), 0);
        assert_eq!(s.health, OffloadHealth::Healthy);
    }

    #[test]
    fn health_machine_degrades_under_outage_and_recovers_on_heal() {
        let mut d = wired(RssdConfig {
            segment_pages: 1,
            ..RssdConfig::default()
        });
        assert_eq!(d.offload_health(), OffloadHealth::Healthy);
        d.write_page(0, page(0)).unwrap();
        d.remote_mut().set_uplink_down(true);
        let mut seen = Vec::new();
        let mut stalled = false;
        for i in 1..=200u64 {
            match d.write_page(0, page(i as u8)) {
                Ok(_) => {
                    let h = d.offload_health();
                    if seen.last() != Some(&h) {
                        seen.push(h);
                    }
                }
                Err(DeviceError::Stalled) => {
                    stalled = true;
                    break;
                }
                Err(e) => panic!("unexpected error during outage: {e:?}"),
            }
        }
        assert!(stalled, "sustained outage must end in a Stalled refusal");
        assert_eq!(d.offload_health(), OffloadHealth::Stalled);
        // The device walked the slope rather than jumping to refusal.
        assert!(seen.contains(&OffloadHealth::Buffering), "{seen:?}");
        assert!(seen.contains(&OffloadHealth::Throttled), "{seen:?}");
        let s = d.offload_stats();
        assert!(s.throttled_writes > 0, "Throttled admission saw traffic");
        assert!(s.throttle_penalty_ns > 0, "throttled writes pay latency");
        assert_eq!(s.health, OffloadHealth::Stalled);

        // Heal: the very next write force-drains the backlog, is admitted,
        // and the machine returns to Healthy.
        d.remote_mut().set_uplink_down(false);
        d.write_page(0, page(0xFF)).unwrap();
        assert_eq!(d.offload_health(), OffloadHealth::Healthy);
        assert_eq!(d.staged_segments(), 0);
        let s = d.offload_stats();
        assert_eq!(s.segments_offloaded, s.segments_sealed);
        // Nothing was lost while riding the outage: the full history still
        // verifies end to end.
        let history = d.verified_history().unwrap();
        assert_eq!(history.len() as u64, d.chain_len());
    }

    #[test]
    fn spilled_evidence_survives_power_cut_mid_outage() {
        let mut d = spill_device();
        assert!(d.spill_capacity_bytes() > 0);
        for i in 0..20u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        d.flush_log().unwrap();
        let remote_before = d.offload_stats().segments_offloaded;

        d.remote_mut().set_uplink_down(true);
        for i in 20..60u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        assert!(d.flush_log().is_err());
        let s = d.offload_stats();
        assert!(s.segments_spilled > 0, "outage must spill staged segments");
        assert!(d.spill_used_bytes() > 0);
        let chain_at_cut = d.chain_len();

        // Power cut while the uplink is still dark: sealed evidence was
        // spilled to NAND, so nothing dies with the controller RAM.
        let report = d.crash();
        assert_eq!(report.pending_records_lost, 0, "all evidence was spilled");

        d.remote_mut().set_uplink_down(false);
        let recovery = d.recover().unwrap();
        assert!(d.offload_stats().spill_replayed > 0, "spill replay ran");
        assert_eq!(d.chain_len(), chain_at_cut, "chain resumed unforked");
        assert_eq!(recovery.records_indexed, chain_at_cut);

        // Heal: the replayed backlog drains and the spill region is
        // reclaimed for the next outage.
        d.flush_log().unwrap();
        let s = d.offload_stats();
        assert!(s.segments_offloaded > remote_before);
        assert_eq!(d.staged_segments(), 0);
        assert_eq!(d.spill_used_bytes(), 0, "spill reclaimed after drain");

        // Every acked pre-image is recoverable; the chain verifies end to
        // end. lpa 0 was last overwritten at i=56, destroying the i=52 data.
        assert_eq!(d.recover_page(0).unwrap(), page(52));
        let history = d.verified_history().unwrap();
        assert_eq!(history.len() as u64, d.chain_len());

        // Replay re-staged the spilled segments from their metadata blocks
        // alone; what they account as raw bytes is still the length of the
        // whole serialization, as for a segment that never left RAM.
        let session = SecureSession::new(&d.escrow_keys(), 0);
        let mut serialized = 0u64;
        for seq in d.remote().stored_segments() {
            let envelope = d.remote_mut().fetch_segment(seq).unwrap();
            serialized += envelope.open(&session, OpenDepth::Full).unwrap().raw_len() as u64;
        }
        assert_eq!(d.offload_stats().raw_bytes, serialized);
    }

    /// A device cut off mid-outage with four or more segments spilled, the
    /// store holding everything before them: the crashed device, the chain
    /// length the store accounts for, and the spilled wire images.
    fn crashed_mid_outage() -> (
        RssdDevice<WireRemote<LoopbackTarget>>,
        u64,
        Vec<SegmentEnvelope>,
    ) {
        let mut d = spill_device();
        for i in 0..20u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        d.flush_log().unwrap();
        let durable = d.chain_len();
        d.remote_mut().set_uplink_down(true);
        for i in 20..60u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        assert!(d.flush_log().is_err());
        let spilled: Vec<SegmentEnvelope> = d
            .engine
            .unshipped()
            .map(|seg| seg.envelope.clone())
            .collect();
        assert!(spilled.len() >= 4, "{} spilled", spilled.len());
        assert_eq!(d.offload_stats().segments_spilled, spilled.len() as u64);
        let _ = d.crash();
        d.remote_mut().set_uplink_down(false);
        (d, durable, spilled)
    }

    /// What the power cut left in the spill region of a crashed `d`: two
    /// good entries, `third` for the third, and a good fourth behind it.
    fn leave_in_spill(
        d: &mut RssdDevice<WireRemote<LoopbackTarget>>,
        spilled: &[SegmentEnvelope],
        third: &[u8],
    ) {
        d.ftl.spill_reset().unwrap();
        for entry in [
            spilled[0].wire(),
            spilled[1].wire(),
            third,
            spilled[3].wire(),
        ] {
            d.ftl.spill_append(entry).unwrap();
        }
    }

    #[test]
    fn recovery_stops_at_the_first_damaged_spill_entry() {
        type Damage = fn(&SegmentEnvelope) -> Vec<u8>;
        fn flip(real: &SegmentEnvelope, at: usize, bit: u8) -> Vec<u8> {
            let mut wire = real.wire().to_vec();
            wire[at] ^= bit;
            wire
        }
        let cases: [(&str, Damage); 6] = [
            ("shorter than an envelope header", |_| vec![0xAB; 40]),
            ("random bytes", |_| {
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                let mut bytes = Vec::new();
                while bytes.len() < 600 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    bytes.extend_from_slice(&x.to_le_bytes());
                }
                bytes
            }),
            ("one payload bit flipped", |real| {
                flip(real, SegmentEnvelope::WIRE_HEADER + 9, 0x10)
            }),
            // The payload as sealed under each of the next three; only the
            // header, which the tag covers, has rotted.
            ("a header that extends some other chain", |real| {
                flip(real, 16, 1) // first byte of `prev_chain_head`
            }),
            ("a header that ends at some other head", |real| {
                flip(real, 48, 1) // first byte of `chain_head`
            }),
            (
                "a header that counts some other number of records",
                |real| {
                    flip(real, 80, 1) // first byte of `record_count`
                },
            ),
        ];
        for (what, damage) in cases {
            let (mut d, durable, spilled) = crashed_mid_outage();
            leave_in_spill(&mut d, &spilled, &damage(&spilled[2]));

            let recovery = d.recover().expect(what);
            assert_eq!(d.offload_stats().spill_replayed, 2, "{what}");
            assert_eq!(d.staged_segments(), 2, "{what}");
            assert_eq!(d.chain_head(), spilled[1].chain_head(), "{what}");
            let replayed = u64::from(spilled[0].record_count() + spilled[1].record_count());
            assert_eq!(recovery.resumed_seq, durable + replayed, "{what}");
            assert_eq!(d.chain_len(), durable + replayed, "{what}");

            // The device carries on from the last good head.
            d.write_page(0, page(0xEE)).unwrap();
            d.flush_log().expect(what);
            assert_eq!(d.staged_segments(), 0, "{what}");
            let history = d.verified_history().expect(what);
            assert_eq!(history.len() as u64, d.chain_len(), "{what}");
        }
    }

    /// The audit chains what the store does not hold yet on from the walked
    /// head: each unshipped staged segment's records to its envelope's
    /// `chain_head`, then the pending tail's to the device's. Two records
    /// swapped, one dropped or one's entropy edited in either is refused,
    /// and the failure names the batch.
    #[test]
    fn the_audit_refuses_staged_and_pending_records_that_do_not_reach_their_heads() {
        let mut d = spill_device();
        for i in 0..20u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        d.flush_log().unwrap();
        d.remote_mut().set_uplink_down(true);
        for i in 20..40u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        assert!(d.flush_log().is_err());
        for i in 40..43u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        // Up again for the walk; nothing ships before the next offload.
        d.remote_mut().set_uplink_down(false);
        let staged = d.engine.unshipped().next().expect("a staged segment");
        let staged = staged.envelope.segment_seq();
        assert!(d.pending.records.len() >= 2);
        assert!(d.audit_history().verified);
        type Tamper = fn(&mut Vec<LogRecord>);
        let tampers: [(&str, Tamper); 3] = [
            ("swapped", |records| records.swap(0, 1)),
            ("dropped", |records| drop(records.remove(0))),
            ("edited", |records| records[0].entropy_mil ^= 1),
        ];
        fn first_staged<R: RemoteTarget>(d: &mut RssdDevice<R>) -> &mut Vec<LogRecord> {
            &mut d.engine.unshipped_batches_mut().next().unwrap().records
        }
        for (what, tamper) in tampers {
            let honest = first_staged(&mut d).clone();
            tamper(first_staged(&mut d));
            let audit = d.audit_history();
            let failure = audit.failure.unwrap_or_default();
            let named = format!("chain gap: staged segment {staged} does not extend");
            assert!(failure.starts_with(&named), "staged, {what}: {failure}");
            *first_staged(&mut d) = honest;

            let honest = d.pending.records.clone();
            tamper(&mut d.pending.records);
            let audit = d.audit_history();
            let failure = audit.failure.unwrap_or_default();
            assert!(
                failure.starts_with("pending tail: "),
                "pending, {what}: {failure}"
            );
            d.pending.records = honest;
            assert!(d.audit_history().verified, "{what}: restored");
        }
    }

    /// Spill replay's arm of the resealed-records cases (the store readers'
    /// are `evidence::tests`'): an entry a holder of the session keys, not
    /// the chain key, opened, changed and sealed again opens, and the
    /// replay ends there, because its records do not reach its head.
    #[test]
    fn spill_replay_refuses_records_resealed_without_the_chain_key() {
        for how in Reseal::ALL {
            let (mut d, durable, spilled) = crashed_mid_outage();
            let session = SecureSession::new(&d.escrow_keys(), 0);
            let third = resealed(&spilled[2], &session, how);
            leave_in_spill(&mut d, &spilled, third.wire());
            let recovery = d.recover().expect("a resealed entry truncates the replay");
            assert_eq!(d.offload_stats().spill_replayed, 2, "{how:?}");
            assert_eq!(d.chain_head(), spilled[1].chain_head(), "{how:?}");
            let replayed = u64::from(spilled[0].record_count() + spilled[1].record_count());
            assert_eq!(recovery.resumed_seq, durable + replayed, "{how:?}");
        }
    }

    /// Spill replay's arm of the header enumeration (the store readers' is
    /// `evidence::tests`', the log server's `rssd-remote`'s): all 608 one-bit
    /// flips of header bytes 8‥84 of a spilled entry end the replay at that
    /// entry, and all 64 of bytes 0‥8 (`device_id`, which the key binds)
    /// change nothing.
    #[test]
    fn spill_replay_refuses_each_of_the_608_one_bit_flips_of_header_bytes_8_to_84() {
        let (mut d, _, spilled) = crashed_mid_outage();
        for bit in 0..SegmentEnvelope::WIRE_HEADER * 8 {
            let mut flipped = spilled[2].wire().to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            leave_in_spill(&mut d, &spilled, &flipped);
            let before = d.offload_stats().spill_replayed;
            let _ = d
                .recover()
                .expect("a damaged entry truncates, it does not fail");
            let replayed = d.offload_stats().spill_replayed - before;
            let (expected, last) = if bit < 64 { (4, 3) } else { (2, 1) };
            assert_eq!(replayed, expected, "bit {bit}");
            assert_eq!(d.staged_segments() as u64, expected, "bit {bit}");
            assert_eq!(d.chain_head(), spilled[last].chain_head(), "bit {bit}");
            // Cut again: the spilled backlog is the region's to bring back.
            let _ = d.crash();
        }
    }

    #[test]
    fn spilled_segments_serve_recovery_without_the_remote() {
        let mut d = spill_device();
        d.write_page(3, page(1)).unwrap();
        d.remote_mut().set_uplink_down(true);
        d.write_page(3, page(2)).unwrap();
        let _ = d.flush_log(); // seals + spills; the wire attempt fails
        assert!(d.offload_stats().segments_spilled > 0);
        // The pre-image lives only in the sealed (spilled) segment now, and
        // recovery opens it locally — no uplink required.
        assert_eq!(d.recover_page(3).unwrap(), page(1));
    }

    /// A store whose copy of one segment goes bad after the fact: fetches
    /// of segment `corrupt` come back with one pre-image byte flipped.
    struct RottingStore {
        inner: LoopbackTarget,
        corrupt: Option<u64>,
    }

    impl RemoteTarget for RottingStore {
        fn store_segment(
            &mut self,
            envelope: SegmentEnvelope,
            now_ns: u64,
        ) -> Result<crate::remote_target::StoreAck, crate::remote_target::RemoteError> {
            self.inner.store_segment(envelope, now_ns)
        }

        fn fetch_segment(
            &mut self,
            segment_seq: u64,
        ) -> Result<SegmentEnvelope, crate::remote_target::RemoteError> {
            let clean = self.inner.fetch_segment(segment_seq)?;
            if self.corrupt != Some(segment_seq) {
                return Ok(clean);
            }
            // The last ciphertext byte: deep in the pre-image frame, past
            // anything a metadata open deciphers.
            let mut payload = clean.sealed_payload().to_vec();
            let last = payload.len() - rssd_net::session::TAG_LEN - 1;
            payload[last] ^= 1;
            Ok(SegmentEnvelope::new(
                clean.device_id(),
                clean.segment_seq(),
                clean.prev_chain_head(),
                clean.chain_head(),
                clean.record_count(),
                &payload,
            ))
        }

        fn stored_segments(&self) -> Vec<u64> {
            self.inner.stored_segments()
        }
    }

    /// Eight pages written, then overwritten after `cut`, all offloaded:
    /// every pre-image sits in remote segment(s), several per segment.
    fn overwrite_all_then_flush<R: RemoteTarget>(d: &mut RssdDevice<R>) -> u64 {
        for lpa in 0..8u64 {
            d.write_page(lpa, page(lpa as u8)).unwrap();
        }
        d.clock().advance(1_000);
        let cut = d.clock().now_ns();
        for lpa in 0..8u64 {
            d.write_page(lpa, page(0xEE)).unwrap();
        }
        d.flush_log().unwrap();
        cut
    }

    #[test]
    fn a_rotten_pre_image_fails_every_reader_however_far_it_opens() {
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            RottingStore {
                inner: LoopbackTarget::new(),
                corrupt: None,
            },
        );
        let _ = overwrite_all_then_flush(&mut d);
        let clean = d.verified_history().expect("clean store verifies");
        assert_eq!(d.audit_history().records, clean);
        d.remote_mut().corrupt = Some(0);

        // The metadata readers decipher none of the flipped frame and still
        // refuse the segment: the tag covers every sealed byte.
        let err = d.verified_history().unwrap_err();
        assert!(err.contains("open segment 0"), "{err}");
        let audit = d.audit_history();
        assert!(!audit.verified);
        assert!(audit.records.is_empty(), "nothing past the rot is trusted");
        let keys = d.escrow_keys();
        let err = RebuildImage::harvest(&keys, d.remote_mut()).unwrap_err();
        assert!(err.contains("open segment 0"), "{err}");
        let _ = d.crash();
        let err = d.recover().unwrap_err();
        assert!(err.contains("open segment 0"), "{err}");

        d.remote_mut().corrupt = None;
        let _ = d.recover().expect("healed store recovers");
        assert_eq!(d.verified_history().unwrap(), clean);
    }

    #[test]
    fn memoised_segment_faces_authentication_again_when_the_store_changes_it() {
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            RottingStore {
                inner: LoopbackTarget::new(),
                corrupt: None,
            },
        );
        let cut = overwrite_all_then_flush(&mut d);
        for lpa in 0..4u64 {
            assert_eq!(d.recover_page_before(lpa, cut).unwrap(), page(lpa as u8));
        }
        let memo = d.evidence.opened.as_ref().expect("lookups opened");
        let memoised = memo.envelope().segment_seq();
        assert!(
            d.evidence.index[&4]
                .iter()
                .any(|v| v.segment_seq == memoised),
            "page 4's pre-image shares the memoised segment"
        );
        d.remote_mut().corrupt = Some(memoised);
        assert_eq!(
            d.recover_page_before(4, cut),
            None,
            "a changed wire image must miss the memo and fail its MAC"
        );
        // The store heals: the same lookup is served again.
        d.remote_mut().corrupt = None;
        assert_eq!(d.recover_page_before(4, cut).unwrap(), page(4));
    }

    #[test]
    fn memoised_segment_is_still_unreachable_behind_a_dead_uplink() {
        let mut d = wired_device();
        let cut = overwrite_all_then_flush(&mut d);
        assert_eq!(d.recover_page_before(0, cut).unwrap(), page(0));
        assert!(d.evidence.opened.is_some());
        d.remote_mut().set_uplink_down(true);
        for lpa in 0..8u64 {
            assert_eq!(
                d.recover_page_before(lpa, cut),
                None,
                "the fetch is issued (and refused) before the memo is consulted"
            );
        }
        d.remote_mut().set_uplink_down(false);
        assert_eq!(d.recover_page_before(1, cut).unwrap(), page(1));
    }

    #[test]
    fn crash_drops_the_opened_segment_with_the_rest_of_controller_ram() {
        let mut d = device();
        let cut = overwrite_all_then_flush(&mut d);
        assert_eq!(d.recover_page_before(2, cut).unwrap(), page(2));
        assert!(d.evidence.opened.is_some());
        let _ = d.crash();
        assert!(d.evidence.opened.is_none(), "the memo is RAM");
        let _ = d.recover().unwrap();
        assert!(
            d.evidence.opened.is_none(),
            "recovery walks the store, it opens no memo"
        );
        assert_eq!(d.recover_page_before(2, cut).unwrap(), page(2));
    }

    /// A seeded history on a fresh device: prefill, a phase of overwrites
    /// (cut-off times are sampled here, while every page has held content
    /// continuously), then a phase of overwrites, trims and rewrites.
    /// Everything is offloaded at the end. Returns the sampled cut-offs.
    fn seeded_history(seed: u64) -> (RssdDevice<LoopbackTarget>, Vec<u64>) {
        const LPAS: u64 = 24;
        let mut d = device();
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for lpa in 0..LPAS {
            d.write_page(lpa, page(next() as u8)).unwrap();
        }
        let mut cuts = Vec::new();
        for i in 0..60 {
            d.clock().advance(1 + next() % 1_000);
            if i % 12 == 0 {
                cuts.push(d.clock().now_ns());
                d.clock().advance(1);
            }
            d.write_page(next() % LPAS, page(next() as u8)).unwrap();
        }
        d.clock().advance(1);
        cuts.push(d.clock().now_ns());
        for _ in 0..90 {
            d.clock().advance(1 + next() % 1_000);
            let lpa = next() % LPAS;
            if next() % 4 == 0 {
                d.trim_page(lpa).unwrap();
            } else {
                d.write_page(lpa, page(next() as u8)).unwrap();
            }
        }
        d.flush_log().unwrap();
        (d, cuts)
    }

    #[test]
    fn memo_changes_the_cost_of_a_restore_not_its_results() {
        for seed in [3u64, 17, 4242] {
            // Every lookup equals an independent harvest of the same store.
            let (mut d, cuts) = seeded_history(seed);
            let keys = d.escrow_keys();
            let image = RebuildImage::harvest(&keys, d.remote_mut()).unwrap();
            let mut served = 0;
            for &cut in &cuts {
                for lpa in 0..24u64 {
                    let got = d.recover_page_before(lpa, cut);
                    assert_eq!(
                        got.as_deref(),
                        image.version_before(lpa, cut),
                        "seed {seed} lpa {lpa} cut {cut}"
                    );
                    served += usize::from(got.is_some());
                }
            }
            assert!(served > 24, "seed {seed}: the history retains versions");

            // A restore with the memo equals one that forgets it before
            // every lookup: same pages, same chain, same NAND and offload
            // traffic.
            let (mut with_memo, cuts) = seeded_history(seed);
            let (mut without, _) = seeded_history(seed);
            let cut = cuts[cuts.len() / 2];
            let victims: Vec<u64> = (0..24).collect();
            let report = RecoveryEngine::new().restore_before(&mut with_memo, &victims, cut);
            let mut restored = 0u64;
            for &lpa in &victims {
                without.evidence.opened = None;
                if let Some(data) = without.recover_page_before(lpa, cut) {
                    without.write_page(lpa, data).unwrap();
                    restored += 1;
                }
            }
            assert_eq!(report.pages_restored, restored);
            assert!(restored > 0);
            assert_eq!(with_memo.chain_head(), without.chain_head());
            assert_eq!(with_memo.nand_stats(), without.nand_stats());
            assert_eq!(with_memo.offload_stats(), without.offload_stats());
            assert_eq!(with_memo.clock().now_ns(), without.clock().now_ns());
            for &lpa in &victims {
                assert_eq!(
                    with_memo.read_page(lpa).unwrap(),
                    without.read_page(lpa).unwrap()
                );
            }
        }
    }

    /// A host page of one of the shapes a pre-image frame mixes: zeros,
    /// text, small-integer records or noise.
    fn shaped_page(i: u64) -> Vec<u8> {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..4096)
            .map(|j| match i % 5 {
                0 => 0,
                1 => b"evidence chain of custody, sealed "[(next() % 34) as usize],
                2 if j % 16 < 4 => next() as u8,
                2 => 0,
                3 => next() as u8,
                _ => (j / 64) as u8 ^ (i as u8),
            })
            .collect()
    }

    /// Where a device under test runs its pre-image stream.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Encoder {
        /// A device on this thread: a helper thread when the machine has a
        /// second core.
        Here,
        /// A device inside a pool item: the item's own thread.
        InItem,
        /// A device on this thread whose engine is swapped for its clone
        /// every fifth write: the clone's stream misses the open frame's
        /// pages so far, and the seal tops it up.
        Cloned,
    }

    /// Overwrites enough pages of every shape to seal several segments,
    /// some with a reread in between (read-before-overwrite records).
    fn overwrite_script(
        d: &mut RssdDevice<LoopbackTarget>,
        encoder: Encoder,
        from: u64,
        writes: u64,
    ) {
        for i in from..from + writes {
            let lpa = i % 12;
            if i % 7 == 0 {
                d.read_page(lpa).unwrap();
            }
            if encoder == Encoder::Cloned && i % 5 == 0 {
                d.engine = d.engine.clone();
            }
            d.write_page(lpa, shaped_page(i)).unwrap();
        }
    }

    /// Opens every segment the store holds to its pre-images and seals what
    /// it opened to again, through the public one-shot writer under the
    /// device's session: each must come back byte for byte. Returns the
    /// stored wire images, in segment order.
    fn resealed_wire_images(d: &mut RssdDevice<LoopbackTarget>) -> Vec<Vec<u8>> {
        let session = SecureSession::new(&d.escrow_keys(), 0);
        let mut images = Vec::new();
        for seq in d.remote().stored_segments() {
            let envelope = d.remote_mut().fetch_segment(seq).unwrap();
            let opened = envelope.open(&session, OpenDepth::Full).unwrap();
            let records = opened.records().to_vec();
            let retained_len = opened.retained_len().to_vec();
            let raw_len = opened.raw_len();
            let preimages = opened.into_preimages();
            let bytes: Vec<u8> = records
                .iter()
                .filter_map(|record| preimages.get(record.seq))
                .flatten()
                .copied()
                .collect();
            let body = SegmentBody {
                records: &records,
                chain_head: envelope.chain_head(),
                retained_len: &retained_len,
                preimages: &bytes,
            };
            let profiler = ProfilerHandle::disabled();
            let prev = envelope.prev_chain_head();
            let device_id = envelope.device_id();
            let (resealed, len) =
                SegmentEnvelope::seal(&session, &profiler, device_id, seq, prev, body);
            assert_eq!(
                (resealed.wire(), len),
                (envelope.wire(), raw_len),
                "segment {seq}"
            );
            images.push(envelope.wire().to_vec());
        }
        images
    }

    /// Runs `script` on a fresh device with each [`Encoder`] and checks
    /// that every device's stored segments re-seal to themselves and that
    /// where the stream ran changed no byte. Returns how many segments the
    /// store holds.
    fn on_every_encoder(script: impl Fn(&mut RssdDevice<LoopbackTarget>, Encoder) + Sync) -> usize {
        let run = |encoder| {
            let mut d = device();
            script(&mut d, encoder);
            let on_helper = d.engine.lane_pages().1;
            (resealed_wire_images(&mut d), on_helper)
        };
        let (here, on_helper) = run(Encoder::Here);
        assert_eq!(on_helper, Some(pool::machine_workers() > 1));
        let in_item = pool::map(1, 1, |_| run(Encoder::InItem));
        assert_eq!(in_item[0], (here.clone(), Some(false)), "inline in an item");
        let (cloned, _) = run(Encoder::Cloned);
        assert_eq!(cloned, here, "topped up at seal");
        here.len()
    }

    #[test]
    fn a_frame_compressed_on_the_lane_seals_the_inline_bytes() {
        let segments = on_every_encoder(|d, encoder| {
            overwrite_script(d, encoder, 0, 200);
            d.flush_log().unwrap();
        });
        assert!(segments >= 10, "{segments} segments");
    }

    #[test]
    fn a_power_cut_with_pushes_in_flight_changes_no_sealed_byte() {
        let segments = on_every_encoder(|d, encoder| {
            overwrite_script(d, encoder, 0, 60);
            d.flush_log().unwrap();
            // Pages pinned since the last seal are on the lane (or in its
            // chunk) when the power goes.
            overwrite_script(d, encoder, 60, 5);
            if encoder != Encoder::Cloned {
                assert!(d.engine.lane_pages().0 > 0);
            }
            let _ = d.crash();
            assert_eq!(d.engine.lane_pages().0, 0);
            let _ = d.recover().unwrap();
            overwrite_script(d, encoder, 100, 60);
            d.flush_log().unwrap();
        });
        assert!(segments >= 4, "{segments} segments");
    }
}
