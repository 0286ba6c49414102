//! The RSSD device.

use crate::config::RssdConfig;
use crate::logrec::{LogOp, LogRecord, OpenDepth, Segment, SegmentEnvelope, WireError};
use crate::remote_target::{RemoteError, RemoteTarget};
use rssd_compress::shannon_entropy;
use rssd_crypto::{ChainLink, DeviceKeys, Digest, HashChain, KeyPurpose};
use rssd_flash::{FlashGeometry, NandArray, NandTiming, SimClock};
use rssd_ftl::{Ftl, FtlConfig, FtlError, FtlStats, InvalidateCause};
use rssd_net::SecureSession;
use rssd_obs::{ProfilerHandle, SinkHandle};
use rssd_ssd::{BlockDevice, CommandOutcome, CommandResult, DeviceError, IoCommand, LatencyStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Offload-path health: a hysteresis state machine over backlog depth
/// (RAM-staged segments, spill-region occupancy) and consecutive ship
/// failures. The device degrades along this slope instead of falling off a
/// cliff when the remote disappears: `Healthy` ships inline, `Buffering`
/// stages sealed segments locally, `Throttled` charges writes a
/// backlog-proportional latency penalty, and only `Stalled` refuses writes
/// outright — after one last drain attempt.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum OffloadHealth {
    /// No backlog, no recent failures: segments ship as they seal.
    #[default]
    Healthy,
    /// Sealed segments are staged locally — shipped with their acks still
    /// in flight (the normal state on any link that takes time), or held
    /// back because the remote is unreachable — but backlog pressure is
    /// low; host I/O is unaffected.
    Buffering,
    /// Backlog pressure is high (or failures persistent): writes pay a
    /// backlog-proportional simulated latency penalty — admission control.
    Throttled,
    /// Backlog is essentially full: writes are refused with
    /// [`DeviceError::Stalled`] after a final drain attempt.
    Stalled,
}

impl OffloadHealth {
    /// Stable lowercase label (trace events, metrics, bench rows).
    pub fn as_str(self) -> &'static str {
        match self {
            OffloadHealth::Healthy => "healthy",
            OffloadHealth::Buffering => "buffering",
            OffloadHealth::Throttled => "throttled",
            OffloadHealth::Stalled => "stalled",
        }
    }

    /// Numeric severity (0 = healthy … 3 = stalled), for metrics gauges.
    pub fn severity(self) -> u8 {
        match self {
            OffloadHealth::Healthy => 0,
            OffloadHealth::Buffering => 1,
            OffloadHealth::Throttled => 2,
            OffloadHealth::Stalled => 3,
        }
    }
}

impl std::fmt::Display for OffloadHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Offload-path counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[must_use]
pub struct OffloadStats {
    /// Segments durably acknowledged by the remote.
    pub segments_offloaded: u64,
    /// Log records shipped.
    pub records_offloaded: u64,
    /// Retained page versions shipped (and unpinned locally).
    pub retained_pages_offloaded: u64,
    /// Plaintext bytes before compression.
    pub raw_bytes: u64,
    /// Sealed bytes after compress+encrypt+MAC (what crossed the wire).
    pub sealed_bytes: u64,
    /// Offload attempts that failed (remote unreachable); data stayed
    /// pinned locally.
    pub offload_failures: u64,
    /// Host writes that had to wait for a synchronous offload because the
    /// device was full of pinned data (backpressure, not data loss).
    pub sync_offloads: u64,
    /// Segments sealed (compress + encrypt + MAC). Each segment is sealed
    /// exactly once, however many ship attempts it takes: the gap between
    /// this and `segments_offloaded` is the staged backlog, and this never
    /// increases on a retry.
    pub segments_sealed: u64,
    /// Sealed segments persisted to the NAND spill region while the remote
    /// was unreachable (evidence made locally durable mid-outage).
    pub segments_spilled: u64,
    /// Spilled segments replayed from NAND by crash recovery.
    pub spill_replayed: u64,
    /// Writes admitted under `Throttled` (each paid a latency penalty).
    pub throttled_writes: u64,
    /// Total simulated latency charged to throttled writes.
    pub throttle_penalty_ns: u64,
    /// Current offload health state (fleet merge keeps the most degraded).
    pub health: OffloadHealth,
    /// Worst health state the device has ever been in — latches across
    /// heals, so a post-outage snapshot still shows how far the device
    /// degraded (fleet merge keeps the most degraded).
    pub health_peak: OffloadHealth,
}

impl OffloadStats {
    /// Effective compression ratio achieved on the offload path.
    pub fn compression_ratio(&self) -> f64 {
        if self.sealed_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.sealed_bytes as f64
    }

    /// Merges another device's offload counters into this one — the fleet
    /// view an array front end reports across its member devices.
    pub fn merge(&mut self, other: &OffloadStats) {
        self.segments_offloaded += other.segments_offloaded;
        self.records_offloaded += other.records_offloaded;
        self.retained_pages_offloaded += other.retained_pages_offloaded;
        self.raw_bytes += other.raw_bytes;
        self.sealed_bytes += other.sealed_bytes;
        self.offload_failures += other.offload_failures;
        self.sync_offloads += other.sync_offloads;
        self.segments_sealed += other.segments_sealed;
        self.segments_spilled += other.segments_spilled;
        self.spill_replayed += other.spill_replayed;
        self.throttled_writes += other.throttled_writes;
        self.throttle_penalty_ns += other.throttle_penalty_ns;
        self.health = self.health.max(other.health);
        self.health_peak = self.health_peak.max(other.health_peak);
    }
}

#[derive(Clone, Copy, Debug)]
struct RemoteVersion {
    segment_seq: u64,
    invalidated_at_ns: u64,
    record_seq: u64,
}

/// A sealed segment awaiting remote acknowledgement. The envelope *is* the
/// wire image (refcounted `Bytes`), built exactly once at seal time and
/// reused verbatim by every ship retry, the NAND spill, and crash replay.
///
/// A segment stays staged from its seal until the device clock has passed
/// its ack: first unshipped, then in flight (`acked_at_ns` set — the remote
/// holds it, the device does not know yet), then retired.
#[derive(Clone, Debug)]
struct StagedSegment {
    envelope: SegmentEnvelope,
    /// The segment's records with `old_data` stripped (the pre-images live
    /// inside the sealed envelope; these drive chain verification and the
    /// recovery index).
    records: Vec<LogRecord>,
    links: Vec<ChainLink>,
    retained_pages: u64,
    raw_bytes: u64,
    /// Persisted to the NAND spill region: the evidence survives a power
    /// cut, and the retained pre-image pins have been released.
    spilled: bool,
    /// Shipped: the transfer succeeded and its ack reaches the device at
    /// this simulated time. `None` while the segment has yet to cross.
    acked_at_ns: Option<u64>,
}

/// What a power cut destroyed. The flash contents (every acknowledged host
/// write) and the remote store survive; everything in controller RAM — the
/// pending log tail, its retention pins, the read-correlation window and the
/// remote version index — does not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// A fault-tolerant read of the operation history: the longest verifiable
/// prefix of the evidence chain plus the pending tail when it still extends
/// that prefix. Unlike [`RssdDevice::verified_history`], a gap or tamper
/// does not discard the trustworthy prefix — it is reported alongside.
#[derive(Clone, Debug)]
#[must_use]
pub struct HistoryAudit {
    /// Chain-verified records, in chain order.
    pub records: Vec<LogRecord>,
    /// `true` when the full history verified end to end and every appended
    /// record is accounted for.
    pub verified: bool,
    /// Description of the first verification failure or detected gap.
    pub failure: Option<String>,
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
    session: SecureSession,
    remote: R,
    /// Records not yet offloaded, in chain order.
    pending: Vec<LogRecord>,
    pending_links: Vec<ChainLink>,
    /// Sealed segments awaiting remote acknowledgement, FIFO in chain
    /// order. Shipped segments (ack in flight) form a prefix of this queue
    /// and spilled ones a prefix of the unshipped rest; both are durable,
    /// so a power cut truncates the staged history cleanly at the last
    /// durable segment — never a hole in the middle of the chain.
    staged: std::collections::VecDeque<StagedSegment>,
    /// Offload health-state machine (see [`OffloadHealth`]).
    health: OffloadHealth,
    /// Ship failures since the last acknowledged segment.
    consecutive_failures: u32,
    /// Background ship attempts are deferred until this simulated time
    /// (capped exponential backoff). Forced attempts (flush, sync
    /// backpressure, stalled-write drains) always go through.
    next_retry_at_ns: u64,
    /// Current backoff step, doubled per failure up to the cap.
    retry_backoff_ns: u64,
    /// Chain head before the first pending record.
    prev_segment_head: Digest,
    /// Pending records whose old page is pinned locally.
    pending_retained: usize,
    next_segment_seq: u64,
    /// Device-RAM index of offloaded old versions per LPA (newest last).
    remote_index: HashMap<u64, Vec<RemoteVersion>>,
    /// The sealed segment most recently opened to serve a recovery lookup,
    /// with the wire image it was opened from. Consecutive victims usually
    /// had their pre-attack versions sealed into the same segment; a lookup
    /// whose envelope is byte-equal to this one skips the verify + decrypt +
    /// decompress + parse. Controller RAM: dies with a crash.
    opened: Option<(SegmentEnvelope, Segment)>,
    /// Last host read time per LPA (read-before-overwrite evidence).
    recent_reads: HashMap<u64, u64>,
    read_window_ns: u64,
    latency: LatencyStats,
    stats: OffloadStats,
    /// Power lost: volatile state dropped, I/O refused until [`Self::recover`].
    crashed: bool,
    /// What the most recent crash destroyed (see [`Self::crash`]).
    last_crash: CrashReport,
    /// Trace sink for offload lifecycle events on the `offload` track.
    sink: SinkHandle,
    /// Host-side profiler; offload work is charged to the `wire` phase.
    profiler: ProfilerHandle,
}

impl<R: RemoteTarget> RssdDevice<R> {
    /// Read-before-overwrite correlation window recorded in log metadata.
    pub const READ_WINDOW_NS: u64 = 600 * 1_000_000_000;

    /// Soft cap on RAM-staged sealed segments; the backlog-pressure
    /// denominator when no spill region is configured.
    pub const RAM_STAGE_SOFT_CAP: usize = 32;
    /// Initial background-retry backoff after a ship failure (10 ms).
    pub const RETRY_BACKOFF_BASE_NS: u64 = 10_000_000;
    /// Backoff ceiling across a sustained outage (5 s).
    pub const RETRY_BACKOFF_CAP_NS: u64 = 5_000_000_000;
    /// Simulated latency a `Throttled` write pays per staged segment —
    /// admission control's slope (40 µs per backlogged segment). Tuned so
    /// a mid-outage device still delivers ≥ 25 % of healthy throughput
    /// (the degradation bench gates this) while the slope stays steep
    /// enough that hosts feel the backlog long before the Stalled cliff.
    pub const THROTTLE_PENALTY_PER_STAGED_NS: u64 = 40_000;
    /// Backlog pressure at which `Throttled` engages / releases.
    const THROTTLE_ENTER: f64 = 0.50;
    const THROTTLE_EXIT: f64 = 0.35;
    /// Backlog pressure at which `Stalled` engages / releases.
    const STALL_ENTER: f64 = 0.92;
    const STALL_EXIT: f64 = 0.70;
    /// Consecutive ship failures that force `Throttled` regardless of
    /// backlog depth (a persistently failing wire deserves the slope too).
    const THROTTLE_FAILURE_STREAK: u32 = 16;

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
        let chain_key = keys.derive(KeyPurpose::EvidenceChain, 0);
        let session = SecureSession::new(&keys, 0);
        RssdDevice {
            ftl,
            keys,
            chain: HashChain::new(&chain_key),
            session,
            remote,
            pending: Vec::new(),
            pending_links: Vec::new(),
            staged: std::collections::VecDeque::new(),
            health: OffloadHealth::Healthy,
            consecutive_failures: 0,
            next_retry_at_ns: 0,
            retry_backoff_ns: Self::RETRY_BACKOFF_BASE_NS,
            prev_segment_head: Digest::ZERO,
            pending_retained: 0,
            next_segment_seq: 0,
            remote_index: HashMap::new(),
            opened: None,
            recent_reads: HashMap::new(),
            read_window_ns: Self::READ_WINDOW_NS,
            latency: LatencyStats::new(),
            stats: OffloadStats::default(),
            crashed: false,
            last_crash: CrashReport::default(),
            sink: SinkHandle::disabled(),
            profiler: ProfilerHandle::disabled(),
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
        self.sink = sink;
    }

    /// Installs a phase profiler: segment sealing, compression and wire
    /// transfer time is charged to the `wire` phase.
    pub fn set_profiler(&mut self, profiler: ProfilerHandle) {
        self.profiler = profiler;
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
        let geometry = self.ftl.geometry();
        let mut preimages = 0u64;
        let mut lost_records = self.pending.len() as u64;
        for rec in &self.pending {
            if let Some(idx) = rec.old_page_index {
                self.ftl.unpin_page(geometry.page_from_index(idx));
                preimages += 1;
            }
        }
        // Staged segments: a spilled one is durable on NAND (its wire image
        // replays at recovery — nothing lost, pins long released); a shipped
        // one is durable in the store, which recovery indexes it from, and
        // only the pins its ack would have released go with the pin table;
        // a RAM-only one dies with its pins exactly like the pending tail.
        for seg in &self.staged {
            if let (Some(acked_at_ns), true) = (seg.acked_at_ns, self.sink.is_enabled()) {
                self.sink.instant(
                    "offload",
                    "segment_ack_lost",
                    self.ftl.clock().now_ns(),
                    &[
                        ("segment_seq", seg.envelope.segment_seq().to_string()),
                        ("acked_at_ns", acked_at_ns.to_string()),
                    ],
                );
            }
            if seg.spilled {
                continue;
            }
            for idx in seg.records.iter().filter_map(|rec| rec.old_page_index) {
                self.ftl.unpin_page(geometry.page_from_index(idx));
            }
            if seg.acked_at_ns.is_none() {
                lost_records += seg.records.len() as u64;
                preimages += seg.retained_pages;
            }
        }
        let report = CrashReport {
            pending_records_lost: lost_records,
            pending_preimages_lost: preimages,
            chain_len_at_crash: self.chain.len(),
        };
        self.pending.clear();
        self.pending_links.clear();
        self.staged.clear();
        self.pending_retained = 0;
        self.recent_reads.clear();
        self.remote_index.clear();
        self.opened = None;
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
    /// end to end), rebuilds the remote version index, and resumes the
    /// evidence chain *at the durable head* — the sequence right after the
    /// last offloaded record. The lost pending tail is never resequenced or
    /// re-signed, so any verifier (including the remote store's continuity
    /// check) only ever sees one continuation of any chain head: a crash
    /// cannot fork the chain, only truncate its volatile tail.
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
        if !self.crashed {
            return Err("device is powered and running; nothing to recover".to_string());
        }
        // The acked-segment counter is the one durable witness that
        // survives both the drop (it counted the fake ack) and the crash
        // (telemetry is persisted): a store with fewer segments than the
        // device was acknowledged for lost offloads in transit.
        let stored = self.remote.stored_segments().len() as u64;
        if self.stats.segments_offloaded > stored {
            return Err(format!(
                "chain gap: device was acknowledged {} offloaded segments but \
                 the store holds {stored} — acknowledged offloads were lost in \
                 transit; refusing to resume over a holed history",
                self.stats.segments_offloaded
            ));
        }
        let chain_key = self.keys.derive(KeyPurpose::EvidenceChain, 0);
        let mut index: HashMap<u64, Vec<RemoteVersion>> = HashMap::new();
        let mut records = 0u64;
        let mut versions = 0u64;
        let head = crate::rebuild::walk_verified_segments(
            &chain_key,
            &self.session,
            &mut self.remote,
            OpenDepth::Metadata,
            |segment_seq, record| {
                records += 1;
                if record.retained_len.is_some() {
                    versions += 1;
                    index
                        .entry(record.meta.lpa)
                        .or_default()
                        .push(RemoteVersion {
                            segment_seq,
                            invalidated_at_ns: record.meta.at_ns,
                            record_seq: record.meta.seq,
                        });
                }
            },
        )?;
        let segments = self.remote.stored_segments();

        // Replay the NAND spill region: sealed segments that were staged
        // mid-outage survived the power cut on real flash. Entries already
        // acknowledged remotely are skipped; the rest are re-staged in
        // order, each verified to extend the recovered chain head, so the
        // backlog drains exactly as if the cut never happened.
        let mut head = head;
        let mut records_total = records;
        let mut versions_total = versions;
        let last_remote_seq = segments.last().copied();
        let mut staged = std::collections::VecDeque::new();
        let spill_entries = self
            .ftl
            .spill_scan()
            .map_err(|e| format!("spill region unreadable: {e}"))?;
        for bytes in spill_entries {
            let Some(envelope) = SegmentEnvelope::from_wire_image(bytes) else {
                break;
            };
            if last_remote_seq.is_some_and(|s| envelope.segment_seq() <= s) {
                continue; // acked before the cut; the remote copy is canonical
            }
            if envelope.prev_chain_head() != head {
                break; // does not extend the recovered chain: unusable tail
            }
            let Ok((segment, raw_len)) = open_envelope(&self.session, &envelope) else {
                break;
            };
            let Segment {
                mut records, links, ..
            } = segment;
            let mut retained = 0u64;
            for rec in &mut records {
                if rec.old_page_index.is_some() {
                    retained += 1;
                    versions_total += 1;
                }
                rec.old_data = None;
            }
            records_total += records.len() as u64;
            head = envelope.chain_head();
            self.stats.spill_replayed += 1;
            staged.push_back(StagedSegment {
                envelope,
                records,
                links,
                retained_pages: retained,
                raw_bytes: raw_len as u64,
                spilled: true,
                acked_at_ns: None,
            });
        }

        let next_segment_seq = staged
            .back()
            .map(|s: &StagedSegment| s.envelope.segment_seq() + 1)
            .or(last_remote_seq.map(|s| s + 1))
            .unwrap_or(0);
        let segments_walked = segments.len() as u64 + staged.len() as u64;
        self.staged = staged;
        self.remote_index = index;
        self.prev_segment_head = head;
        self.chain = HashChain::resume(&chain_key, head, records_total);
        self.next_segment_seq = next_segment_seq;
        self.crashed = false;
        self.consecutive_failures = 0;
        self.retry_backoff_ns = Self::RETRY_BACKOFF_BASE_NS;
        self.next_retry_at_ns = 0;
        self.update_health();
        Ok(CrashRecovery {
            segments_walked,
            records_indexed: records_total,
            versions_indexed: versions_total,
            resumed_seq: records_total,
        })
    }

    /// Offload-path counters.
    pub fn offload_stats(&self) -> OffloadStats {
        let mut stats = self.stats;
        stats.health = self.health;
        stats
    }

    /// Current offload health state.
    pub fn offload_health(&self) -> OffloadHealth {
        self.health
    }

    /// Sealed segments staged locally awaiting remote acknowledgement —
    /// still to be shipped, or shipped with the ack in flight.
    pub fn staged_segments(&self) -> usize {
        self.staged.len()
    }

    /// Staged segments the remote does not hold yet. One whose ack is in
    /// flight is the store's to answer for, not this queue's.
    fn unshipped(&self) -> impl Iterator<Item = &StagedSegment> {
        self.staged.iter().filter(|seg| seg.acked_at_ns.is_none())
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

    /// Backlog pressure in `[0, 1+]`: spill-region occupancy when a spill
    /// region exists, RAM-staged depth against the soft cap otherwise
    /// (whichever is higher — a full spill with a RAM tail is still full).
    pub fn backlog_pressure(&self) -> f64 {
        let ram = self.staged.iter().filter(|s| !s.spilled).count() as f64
            / Self::RAM_STAGE_SOFT_CAP as f64;
        let capacity = self.ftl.spill_capacity_bytes();
        let spill = if capacity == 0 {
            0.0
        } else {
            self.ftl.spill_used_bytes() as f64 / capacity as f64
        };
        ram.max(spill)
    }

    /// Recomputes the health state from backlog pressure and the failure
    /// streak, with hysteresis on the downward transitions, and emits a
    /// trace instant when the state changes.
    fn update_health(&mut self) {
        let pressure = self.backlog_pressure();
        let streak = self.consecutive_failures;
        let raw = if pressure >= Self::STALL_ENTER {
            OffloadHealth::Stalled
        } else if pressure >= Self::THROTTLE_ENTER || streak >= Self::THROTTLE_FAILURE_STREAK {
            OffloadHealth::Throttled
        } else if !self.staged.is_empty() || streak > 0 {
            OffloadHealth::Buffering
        } else {
            OffloadHealth::Healthy
        };
        let current = self.health;
        // Escalations apply immediately; de-escalations wait for the exit
        // threshold so the state doesn't flap around a boundary.
        let next = if raw >= current {
            raw
        } else {
            match current {
                OffloadHealth::Stalled if pressure > Self::STALL_EXIT => current,
                OffloadHealth::Throttled
                    if pressure >= Self::THROTTLE_EXIT
                        && streak < Self::THROTTLE_FAILURE_STREAK =>
                {
                    current
                }
                _ => raw,
            }
        };
        if next != current {
            self.health = next;
            self.stats.health = next;
            self.stats.health_peak = self.stats.health_peak.max(next);
            if self.sink.is_enabled() {
                self.sink.instant(
                    "offload",
                    "health_transition",
                    self.ftl.clock().now_ns(),
                    &[
                        ("from", current.as_str().to_string()),
                        ("to", next.as_str().to_string()),
                        ("pressure", format!("{pressure:.3}")),
                        ("staged", self.staged.len().to_string()),
                        ("consecutive_failures", streak.to_string()),
                    ],
                );
            }
        }
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
        self.pending.len()
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
        if self.pending.is_empty() && self.staged.is_empty() {
            return Ok(());
        }
        self.offload_segment()
    }

    /// The full verified operation history: every offloaded segment plus
    /// the pending tail, chain-verified end to end. Additionally checks
    /// that every record the device ever appended is accounted for
    /// (offloaded or pending) — an offload that was acknowledged in transit
    /// but never reached the store surfaces here as a chain gap instead of
    /// silently shortening the history.
    ///
    /// The records are metadata only (`old_data: None`): every sealed
    /// segment is authenticated whole, but only its metadata block is
    /// deciphered and decompressed. Page content comes back via
    /// [`recover_page`](BlockDevice::recover_page) /
    /// [`Self::recover_page_before`] or a
    /// [`RebuildImage`](crate::RebuildImage).
    ///
    /// # Errors
    ///
    /// Returns an error string describing the first verification failure —
    /// a non-verifying history means tampering, remote corruption, or lost
    /// acknowledged offloads, and is itself forensic signal.
    pub fn verified_history(&mut self) -> Result<Vec<LogRecord>, String> {
        let chain_key = self.keys.derive(KeyPurpose::EvidenceChain, 0);
        let mut out = Vec::new();
        let mut head = crate::rebuild::walk_verified_segments(
            &chain_key,
            &self.session,
            &mut self.remote,
            OpenDepth::Metadata,
            |_seq, record| out.push(record.meta),
        )?;
        // Staged segments that have yet to cross, in queue order. One whose
        // ack is still in flight was just walked in the store.
        let mut staged_records = 0usize;
        for seg in self.unshipped() {
            let images = chain_images(&seg.records);
            HashChain::verify_from(&chain_key, head, &images, &seg.links).map_err(|e| {
                format!(
                    "chain gap: staged segment {} does not extend the verified \
                     prefix ({e}) — acknowledged offloads were lost upstream \
                     or the staged links were tampered with",
                    seg.envelope.segment_seq()
                )
            })?;
            head = seg.envelope.chain_head();
            staged_records += seg.records.len();
        }
        // Pending tail.
        let images = chain_images(&self.pending);
        HashChain::verify_from(&chain_key, head, &images, &self.pending_links)
            .map_err(|e| format!("pending tail: {e}"))?;
        // The accounting check compares against the in-RAM chain length,
        // which is stale (it still counts the lost volatile tail) while the
        // device sits crashed: a crash truncation is a documented loss, not
        // transit loss, so the check only applies to a running device.
        let accounted = (out.len() + staged_records + self.pending.len()) as u64;
        if !self.crashed && accounted != self.chain.len() {
            return Err(format!(
                "chain gap: device appended {} records but only {accounted} are \
                 accounted for (offloaded + staged + pending) — acknowledged \
                 offloads were lost in transit",
                self.chain.len()
            ));
        }
        for seg in self.unshipped() {
            out.extend(seg.records.iter().cloned());
        }
        out.extend(self.pending.iter().cloned());
        Ok(out)
    }

    /// Fault-tolerant history read: the longest chain-verified prefix plus
    /// the pending tail when it extends that prefix, with the first failure
    /// (if any) reported instead of discarding the trustworthy records.
    /// This is the investigator's entry point after a fault — detection can
    /// still run over the verified prefix while the gap itself is evidence.
    /// Like [`Self::verified_history`], the records are metadata only;
    /// content via `recover_page*` / [`RebuildImage`](crate::RebuildImage).
    ///
    /// Call after [`Self::recover`] when the device has crashed; while
    /// crashed the accounting check is skipped (the in-RAM chain length is
    /// stale).
    pub fn audit_history(&mut self) -> HistoryAudit {
        let chain_key = self.keys.derive(KeyPurpose::EvidenceChain, 0);
        let mut records: Vec<LogRecord> = Vec::new();
        let (mut head, mut failure) = crate::rebuild::walk_segments_tolerant(
            &chain_key,
            &self.session,
            &mut self.remote,
            OpenDepth::Metadata,
            |_seq, record| records.push(record.meta),
        );
        if failure.is_none() {
            for seg in self.unshipped() {
                let images = chain_images(&seg.records);
                match HashChain::verify_from(&chain_key, head, &images, &seg.links) {
                    Ok(()) => {
                        head = seg.envelope.chain_head();
                        records.extend(seg.records.iter().cloned());
                    }
                    Err(e) => {
                        failure = Some(format!(
                            "chain gap: staged segment {} does not extend the \
                             verified prefix ({e})",
                            seg.envelope.segment_seq()
                        ));
                        break;
                    }
                }
            }
        }
        if failure.is_none() {
            let images = chain_images(&self.pending);
            match HashChain::verify_from(&chain_key, head, &images, &self.pending_links) {
                Ok(()) => records.extend(self.pending.iter().cloned()),
                Err(e) => failure = Some(format!("pending tail: {e}")),
            }
        }
        if failure.is_none() && !self.crashed && records.len() as u64 != self.chain.len() {
            failure = Some(format!(
                "chain gap: device appended {} records but only {} are accounted for",
                self.chain.len(),
                records.len()
            ));
        }
        HistoryAudit {
            verified: failure.is_none(),
            failure,
            records,
        }
    }

    /// Recovers the newest retained pre-image of `lpa` that was valid
    /// strictly before `before_ns` (point-in-time recovery). Looks in the
    /// local pending log first, then the remote store.
    pub fn recover_page_before(&mut self, lpa: u64, before_ns: u64) -> Option<Vec<u8>> {
        // A version invalidated at time t was valid until t; the version
        // valid just before `before_ns` is the one with the smallest
        // invalidation (time, seq) key at or after before_ns.
        self.recover_version(lpa, |key, best| {
            key.0 >= before_ns && best.map_or(true, |b| key < b)
        })
    }

    /// Recovers the newest retained pre-image of `lpa` (the version the most
    /// recent overwrite/trim destroyed). Ordering follows the evidence
    /// chain's sequence numbers, the device's total operation order.
    pub fn recover_newest(&mut self, lpa: u64) -> Option<Vec<u8>> {
        self.recover_version(lpa, |key, best| best.map_or(true, |b| key > b))
    }

    fn recover_version(
        &mut self,
        lpa: u64,
        better: impl Fn((u64, u64), Option<(u64, u64)>) -> bool,
    ) -> Option<Vec<u8>> {
        let mut best: Option<((u64, u64), Source)> = None;
        for (i, rec) in self.pending.iter().enumerate() {
            if rec.lpa == lpa && rec.old_page_index.is_some() {
                let key = (rec.at_ns, rec.seq);
                if better(key, best.as_ref().map(|(b, _)| *b)) {
                    best = Some((key, Source::Pending(i)));
                }
            }
        }
        for (qi, seg) in self.staged.iter().enumerate() {
            for rec in &seg.records {
                if rec.lpa == lpa && rec.old_page_index.is_some() {
                    let key = (rec.at_ns, rec.seq);
                    if better(key, best.as_ref().map(|(b, _)| *b)) {
                        best = Some((
                            key,
                            Source::Staged {
                                queue_index: qi,
                                record_seq: rec.seq,
                            },
                        ));
                    }
                }
            }
        }
        if let Some(versions) = self.remote_index.get(&lpa) {
            for v in versions {
                let key = (v.invalidated_at_ns, v.record_seq);
                if better(key, best.as_ref().map(|(b, _)| *b)) {
                    best = Some((key, Source::Remote(*v)));
                }
            }
        }
        match best? {
            (_, Source::Pending(i)) => {
                let page_index = self.pending[i].old_page_index.expect("filtered");
                let ppa = self.ftl.geometry().page_from_index(page_index);
                self.ftl
                    .read_physical_background(ppa)
                    .ok()
                    .map(|(data, _)| data)
            }
            (
                _,
                Source::Staged {
                    queue_index,
                    record_seq,
                },
            ) => {
                // The pre-image lives inside the staged segment's sealed
                // envelope (whether the segment is RAM-only or spilled to
                // NAND) — open it locally, no remote involved.
                let envelope = self.staged[queue_index].envelope.clone();
                self.preimage_in(envelope, record_seq)
            }
            (_, Source::Remote(v)) => {
                // The fetch is issued on every lookup, memo or not: a
                // partitioned remote still refuses, and a store that no
                // longer returns the bytes the memo was opened from misses
                // it and faces authentication again.
                let envelope = self.remote.fetch_segment(v.segment_seq).ok()?;
                self.preimage_in(envelope, v.record_seq)
            }
        }
    }

    /// The retained pre-image that record `record_seq` carries inside
    /// `envelope`, opening the envelope unless it is byte-equal to the one
    /// opened last (see the `opened` field).
    fn preimage_in(&mut self, envelope: SegmentEnvelope, record_seq: u64) -> Option<Vec<u8>> {
        if !matches!(&self.opened, Some((memo, _)) if *memo == envelope) {
            let (segment, _) = open_envelope(&self.session, &envelope).ok()?;
            self.opened = Some((envelope, segment));
        }
        let (_, segment) = self.opened.as_ref()?;
        segment
            .records
            .iter()
            .find(|r| r.seq == record_seq)
            .and_then(|r| r.old_data.clone())
    }

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
        let link = self.chain.append(&record.chain_image());
        if old_page_index.is_some() {
            self.pending_retained += 1;
        }
        self.pending.push(record);
        self.pending_links.push(link);
    }

    fn absorb_stale_events(&mut self, entropy_mil: u16, read_before: bool) {
        for event in self.ftl.drain_stale_events() {
            match event.cause {
                InvalidateCause::Overwrite => {
                    self.ftl.pin_page(event.ppa);
                    let idx = self.ftl.geometry().page_index(event.ppa);
                    self.log_operation(
                        LogOp::Write,
                        event.lpa,
                        Some(idx),
                        entropy_mil,
                        read_before,
                    );
                }
                InvalidateCause::Trim => {
                    self.ftl.pin_page(event.ppa);
                    let idx = self.ftl.geometry().page_index(event.ppa);
                    self.log_operation(LogOp::Trim, event.lpa, Some(idx), 0, false);
                }
                // Migrated content survives at its new location.
                InvalidateCause::GcMigration => {}
            }
        }
    }

    fn should_offload(&self) -> bool {
        self.pending_retained >= self.config.segment_pages
            || self.pending.len() >= self.config.segment_pages * 8
            || self.ftl.pinned_block_fraction() > self.config.pinned_fraction_watermark
    }

    /// Forced offload: seals whatever is pending and attempts to drain the
    /// staged backlog regardless of the retry backoff. Used by flushes,
    /// sync backpressure, and the stalled-write drain.
    fn offload_segment(&mut self) -> Result<(), RemoteError> {
        if self.pending.is_empty() && self.staged.is_empty() {
            return Ok(());
        }
        self.profiler.enter("wire");
        let result = {
            self.seal_pending();
            self.drain_staged(true)
        };
        self.profiler.exit();
        result
    }

    /// Background offload: seals pending work (evidence leaves the volatile
    /// pending tail at the same op boundary whether or not the wire is up)
    /// but defers the ship attempt while the retry backoff is armed, so a
    /// dead link is not hammered on every threshold crossing.
    fn offload_segment_background(&mut self) {
        if self.pending.is_empty() && self.staged.is_empty() {
            return;
        }
        self.profiler.enter("wire");
        self.seal_pending();
        let _ = self.drain_staged(false);
        self.profiler.exit();
    }

    /// Is a deferred background retry due for the unshipped backlog?
    /// Segments whose acks are in flight want time, not another attempt
    /// (they are a prefix of the queue, so the back tells).
    fn staged_retry_due(&self) -> bool {
        self.staged
            .back()
            .is_some_and(|seg| seg.acked_at_ns.is_none())
            && self.ftl.clock().now_ns() >= self.next_retry_at_ns
    }

    /// Seals the pending tail into a staged segment: attaches retained
    /// pre-images via background reads, builds the wire image once
    /// (header + compress + seal in place), and advances the segment
    /// cursor. This is the *only* place a segment is serialized or sealed;
    /// every retry, spill, and replay reuses the refcounted image.
    fn seal_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // Attach retained contents via background reads. These dispatch
        // onto the unit pipelines — the offload engine genuinely occupies
        // planes and channels, which is RSSD's real (small, bounded)
        // foreground overhead — but nothing blocks on them.
        let geometry = self.ftl.geometry();
        let mut retained_pages = 0u64;
        for rec in &mut self.pending {
            if let Some(idx) = rec.old_page_index {
                let ppa = geometry.page_from_index(idx);
                let (data, _) = self
                    .ftl
                    .read_physical_offload(ppa)
                    .expect("pinned page readable");
                rec.old_data = Some(data);
                retained_pages += 1;
            }
        }

        let segment = Segment {
            segment_seq: self.next_segment_seq,
            records: std::mem::take(&mut self.pending),
            links: std::mem::take(&mut self.pending_links),
        };
        let raw = segment.to_bytes();
        // Zero-copy assembly: build the envelope's wire image directly in
        // one buffer — header, then the compressed payload appended in
        // place, then sealed in place. The resulting `Bytes` is shared by
        // refcount through capsules, frames, retransmissions, the NAND
        // spill and the remote store; nothing downstream re-serializes or
        // copies it.
        let chain_head = self.chain.head();
        let mut wire = Vec::with_capacity(SegmentEnvelope::WIRE_HEADER + raw.len() / 2 + 64);
        SegmentEnvelope::write_wire_header(
            &mut wire,
            self.config.device_id,
            segment.segment_seq,
            &self.prev_segment_head,
            &chain_head,
            segment.records.len() as u32,
        );
        self.profiler.enter("compress");
        Segment::compress_into(&raw, &mut wire);
        self.profiler.exit();
        self.session
            .seal_in_place(segment.segment_seq, &mut wire, SegmentEnvelope::WIRE_HEADER);
        let envelope = SegmentEnvelope::from_wire_image(wire)
            .expect("header plus sealed payload is a complete wire image");
        if self.sink.is_enabled() {
            self.sink.instant(
                "offload",
                "segment_sealed",
                self.ftl.clock().now_ns(),
                &[
                    ("segment_seq", segment.segment_seq.to_string()),
                    ("records", segment.records.len().to_string()),
                    ("raw_bytes", raw.len().to_string()),
                    ("sealed_bytes", envelope.sealed_payload().len().to_string()),
                ],
            );
        }
        let Segment {
            mut records, links, ..
        } = segment;
        // The pre-images now live inside the sealed envelope; the RAM copy
        // of the records goes back to metadata-only.
        for rec in &mut records {
            rec.old_data = None;
        }
        self.staged.push_back(StagedSegment {
            envelope,
            records,
            links,
            retained_pages,
            raw_bytes: raw.len() as u64,
            spilled: false,
            acked_at_ns: None,
        });
        self.stats.segments_sealed += 1;
        self.prev_segment_head = chain_head;
        self.pending_retained = 0;
        self.next_segment_seq += 1;
        self.update_health();
    }

    /// Works the staged backlog: retires every segment whose ack the device
    /// clock has passed, ships the unshipped rest FIFO at the current time,
    /// and leaves the acks to land while the host carries on — offloading
    /// overlaps host I/O, and what a slow uplink costs the host is the
    /// staging window filling up (the health machine), not a round trip
    /// per segment. `forced` ignores the retry backoff and then *waits*:
    /// the clock advances to the last outstanding ack, so a forced drain
    /// that returns `Ok` leaves nothing staged. On a ship failure the
    /// unshipped tail is spilled to the NAND region (if configured) and the
    /// backoff doubles — the error is returned for forced callers that
    /// need it.
    fn drain_staged(&mut self, forced: bool) -> Result<(), RemoteError> {
        self.retire_acked();
        if self.staged.is_empty() {
            self.update_health();
            return Ok(());
        }
        if !forced && self.ftl.clock().now_ns() < self.next_retry_at_ns {
            // Deferred, not failed: make the backlog durable while waiting.
            self.spill_staged_tail();
            self.update_health();
            return Ok(());
        }
        let shipped = self.ship_unshipped();
        if forced {
            if let Some(last_ack) = self.staged.iter().filter_map(|seg| seg.acked_at_ns).max() {
                self.ftl.clock().advance_to(last_ack);
            }
        }
        // Off the wire acks land at `now`: what was just shipped retires in
        // the same call.
        self.retire_acked();
        self.update_health();
        shipped
    }

    /// Ships every unshipped staged segment, in order, at the current time.
    /// A delivered segment stays staged with the time its ack reaches the
    /// device; the clock does not move. Stops at the first failure: that
    /// segment and everything behind it stay unshipped (sealed images
    /// intact — no re-read, no re-compress, no re-seal) and are made
    /// locally durable.
    fn ship_unshipped(&mut self) -> Result<(), RemoteError> {
        let now = self.ftl.clock().now_ns();
        for i in 0..self.staged.len() {
            if self.staged[i].acked_at_ns.is_some() {
                continue;
            }
            let envelope = self.staged[i].envelope.clone();
            let segment_seq = envelope.segment_seq();
            let sealed_len = envelope.sealed_payload().len();
            match self.remote.store_segment(envelope, now) {
                Ok(ack) => {
                    // The ack's durability time carries the wire latency
                    // (serialization, propagation, retransmission); the
                    // segment retires once the device clock gets there.
                    self.staged[i].acked_at_ns = Some(ack.durable_at_ns);
                    self.consecutive_failures = 0;
                    self.retry_backoff_ns = Self::RETRY_BACKOFF_BASE_NS;
                    self.next_retry_at_ns = 0;
                    if self.sink.is_enabled() {
                        self.sink.span(
                            "offload",
                            "segment_transfer",
                            now,
                            ack.durable_at_ns,
                            &[
                                ("segment_seq", segment_seq.to_string()),
                                ("sealed_bytes", sealed_len.to_string()),
                            ],
                        );
                    }
                }
                Err(e) => {
                    self.stats.offload_failures += 1;
                    self.consecutive_failures += 1;
                    if self.sink.is_enabled() {
                        self.sink.instant(
                            "offload",
                            "offload_failed",
                            now,
                            &[
                                ("segment_seq", segment_seq.to_string()),
                                (
                                    "consecutive_failures",
                                    self.consecutive_failures.to_string(),
                                ),
                            ],
                        );
                    }
                    self.spill_staged_tail();
                    self.next_retry_at_ns = now + self.retry_backoff_ns;
                    self.retry_backoff_ns =
                        (self.retry_backoff_ns * 2).min(Self::RETRY_BACKOFF_CAP_NS);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Retires, FIFO, every shipped segment whose ack the device clock has
    /// passed: durable remotely *and known to be*, so its pins are released
    /// (unless the spill already did), its versions indexed and its bytes
    /// accounted. A later segment acked earlier waits its turn behind the
    /// front. Runs on entry to every host command and around every drain.
    fn retire_acked(&mut self) {
        let now = self.ftl.clock().now_ns();
        let geometry = self.ftl.geometry();
        let mut retired = false;
        while let Some(acked_at_ns) = self.staged.front().and_then(|seg| seg.acked_at_ns) {
            if acked_at_ns > now {
                break;
            }
            let seg = self.staged.pop_front().expect("front exists");
            let segment_seq = seg.envelope.segment_seq();
            for rec in &seg.records {
                if let Some(idx) = rec.old_page_index {
                    if !seg.spilled {
                        self.ftl.unpin_page(geometry.page_from_index(idx));
                    }
                    self.remote_index
                        .entry(rec.lpa)
                        .or_default()
                        .push(RemoteVersion {
                            segment_seq,
                            invalidated_at_ns: rec.at_ns,
                            record_seq: rec.seq,
                        });
                }
            }
            self.stats.segments_offloaded += 1;
            self.stats.records_offloaded += seg.records.len() as u64;
            self.stats.retained_pages_offloaded += seg.retained_pages;
            self.stats.raw_bytes += seg.raw_bytes;
            self.stats.sealed_bytes += seg.envelope.sealed_payload().len() as u64;
            if self.sink.is_enabled() {
                // Stamped when the device acts on the ack, so the track
                // stays on the device clock; the arrival rides along.
                self.sink.instant(
                    "offload",
                    "segment_ack",
                    now,
                    &[
                        ("segment_seq", segment_seq.to_string()),
                        ("acked_at_ns", acked_at_ns.to_string()),
                    ],
                );
            }
            retired = true;
        }
        if !retired {
            return;
        }
        // Fully drained: everything is durable remotely, so the local
        // spill copies are dead weight — reclaim the region.
        if self.staged.is_empty() && self.ftl.spill_used_bytes() > 0 {
            let _ = self.ftl.spill_reset();
        }
        self.update_health();
    }

    /// Persists every unshipped, not-yet-spilled staged segment to the
    /// NAND spill region, in FIFO order (a segment whose ack is in flight
    /// is already durable in the store; behind those, spilled segments form
    /// a prefix). A spilled segment's evidence is durable across a power
    /// cut, so its retained pre-image pins are released — the same
    /// release point a successful offload would have used. Stops at the
    /// first failure (region full): those segments stay RAM-staged with
    /// their pins held, the conservative fallback.
    fn spill_staged_tail(&mut self) {
        if self.ftl.spill_capacity_bytes() == 0 {
            return;
        }
        let geometry = self.ftl.geometry();
        for i in 0..self.staged.len() {
            if self.staged[i].spilled || self.staged[i].acked_at_ns.is_some() {
                continue;
            }
            let wire = self.staged[i].envelope.wire().clone();
            if self.ftl.spill_append(&wire).is_err() {
                break;
            }
            self.staged[i].spilled = true;
            self.stats.segments_spilled += 1;
            for rec in &self.staged[i].records {
                if let Some(idx) = rec.old_page_index {
                    self.ftl.unpin_page(geometry.page_from_index(idx));
                }
            }
            if self.sink.is_enabled() {
                self.sink.instant(
                    "offload",
                    "segment_spilled",
                    self.ftl.clock().now_ns(),
                    &[
                        (
                            "segment_seq",
                            self.staged[i].envelope.segment_seq().to_string(),
                        ),
                        ("wire_bytes", wire.len().to_string()),
                    ],
                );
            }
        }
    }

    fn read_before(&self, lpa: u64, now: u64) -> bool {
        self.recent_reads
            .get(&lpa)
            .is_some_and(|&t| now.saturating_sub(t) <= self.read_window_ns)
    }

    /// Write path shared by the scalar and batched interfaces, returning
    /// the flash completion time. With `defer_offload` the background
    /// offload-threshold check is skipped so a batch can coalesce it into
    /// one check (the sync-offload backpressure loop still runs —
    /// correctness never waits for a batch boundary). With `block` the
    /// clock advances to the completion before the log record is stamped —
    /// the scalar semantics; the batched path leaves the clock still and
    /// dispatches everything from the batch's start time.
    fn write_page_inner(
        &mut self,
        lpa: u64,
        data: Vec<u8>,
        defer_offload: bool,
        block: bool,
    ) -> Result<u64, DeviceError> {
        if self.crashed {
            return Err(DeviceError::PowerLoss);
        }
        self.retire_acked();
        // Admission control along the degradation slope. Stalled gets one
        // forced drain first — with a frozen backlog the only way out is an
        // attempt, and a healed link recovers on the very next write.
        match self.health {
            OffloadHealth::Stalled => {
                let _ = self.offload_segment();
                if self.health == OffloadHealth::Stalled {
                    return Err(DeviceError::Stalled);
                }
            }
            OffloadHealth::Throttled => {
                let penalty = Self::THROTTLE_PENALTY_PER_STAGED_NS * self.staged.len() as u64;
                self.ftl.clock().advance(penalty);
                self.stats.throttled_writes += 1;
                self.stats.throttle_penalty_ns += penalty;
            }
            _ => {}
        }
        let start = self.ftl.clock().now_ns();
        let entropy_mil = (shannon_entropy(&data) * 1000.0) as u16;
        let read_before = self.read_before(lpa, start);

        let mut sync_tried = 0u32;
        let mut payload = Some(data);
        let ticket = loop {
            let buf = payload.take().expect("payload present on every attempt");
            match self.ftl.write_async_reclaim(lpa, buf) {
                Ok(ticket) => break ticket,
                Err((FtlError::DeviceFull, reclaimed)) if sync_tried < 4 => {
                    // Backpressure: synchronously offload pinned data, then
                    // retry with the reclaimed buffer — `DeviceFull` is
                    // raised before the NAND consumes the payload, so no
                    // clone is ever needed. RSSD never *drops* retained
                    // data — if neither the remote nor the spill region can
                    // absorb it the device stalls instead.
                    payload = reclaimed;
                    sync_tried += 1;
                    self.stats.sync_offloads += 1;
                    let pinned_before = self.ftl.pinned_pages();
                    let shipped = self.offload_segment().is_ok();
                    if !shipped && self.ftl.pinned_pages() >= pinned_before {
                        // Neither the wire nor the spill freed anything.
                        return Err(DeviceError::Stalled);
                    }
                    if payload.is_none() {
                        return Err(DeviceError::Stalled);
                    }
                }
                Err((FtlError::DeviceFull, _)) => return Err(DeviceError::Stalled),
                Err((e, _)) => return Err(e.into()),
            }
        };
        if block {
            self.ftl.clock().advance_to(ticket.done_ns);
        }

        let had_old = {
            // Absorb events; detect whether an old version was retained so
            // fresh writes still get a metadata-only log record.
            let before = self.chain.next_seq();
            self.absorb_stale_events(entropy_mil, read_before);
            self.chain.next_seq() != before
        };
        if !had_old {
            self.log_operation(LogOp::Write, lpa, None, entropy_mil, read_before);
        }
        if !defer_offload && (self.should_offload() || self.staged_retry_due()) {
            // Background offload: failures are tolerated (the sealed
            // segment stays staged — and spilled to NAND if configured)
            // and retries honor the adaptive backoff.
            self.offload_segment_background();
        }
        self.latency.record(ticket.done_ns.saturating_sub(start));
        Ok(ticket.done_ns)
    }

    fn read_page_inner(
        &mut self,
        lpa: u64,
        defer_offload: bool,
        block: bool,
    ) -> Result<(Vec<u8>, u64), DeviceError> {
        if self.crashed {
            return Err(DeviceError::PowerLoss);
        }
        self.retire_acked();
        let start = self.ftl.clock().now_ns();
        self.recent_reads.insert(lpa, start);
        let (data, ticket) = self.ftl.read_async(lpa)?;
        if block {
            self.ftl.clock().advance_to(ticket.done_ns);
        }
        let out = match data {
            Some(data) => data,
            None => vec![0u8; self.page_size()],
        };
        if self.config.log_reads {
            self.log_operation(LogOp::Read, lpa, None, 0, false);
            if !defer_offload && self.pending.len() >= self.config.segment_pages * 8 {
                self.offload_segment_background();
            }
        }
        self.latency.record(ticket.done_ns.saturating_sub(start));
        Ok((out, ticket.done_ns))
    }

    fn trim_page_inner(&mut self, lpa: u64, defer_offload: bool) -> Result<u64, DeviceError> {
        if self.crashed {
            return Err(DeviceError::PowerLoss);
        }
        self.retire_acked();
        // Enhanced trim: host semantics preserved (reads return zeroes), but
        // the trimmed version is retained and logged like any overwrite.
        // Pure mapping-table work: no flash op, no simulated time.
        self.ftl.trim(lpa)?;
        self.absorb_stale_events(0, false);
        if !defer_offload && self.should_offload() {
            self.offload_segment_background();
        }
        Ok(self.ftl.clock().now_ns())
    }
}

enum Source {
    Pending(usize),
    Staged { queue_index: usize, record_seq: u64 },
    Remote(RemoteVersion),
}

/// Opens an envelope in full into an owned segment, also returning the
/// serialized (decompressed) length `OffloadStats::raw_bytes` accounts in.
fn open_envelope(
    session: &SecureSession,
    envelope: &SegmentEnvelope,
) -> Result<(Segment, usize), WireError> {
    let raw = envelope.open(session, OpenDepth::Full)?;
    Ok((Segment::from_bytes(&raw)?, raw.len()))
}

/// The fixed-size chain images `HashChain::verify_from` walks.
fn chain_images(records: &[LogRecord]) -> Vec<[u8; LogRecord::CHAIN_IMAGE_LEN]> {
    records.iter().map(LogRecord::chain_image).collect()
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

    fn write_page(&mut self, lpa: u64, data: Vec<u8>) -> Result<(), DeviceError> {
        self.write_page_inner(lpa, data, false, true).map(|_| ())
    }

    fn read_page(&mut self, lpa: u64) -> Result<Vec<u8>, DeviceError> {
        self.read_page_inner(lpa, false, true).map(|(data, _)| data)
    }

    fn trim_page(&mut self, lpa: u64) -> Result<(), DeviceError> {
        self.trim_page_inner(lpa, false).map(|_| ())
    }

    /// Native batched entry point: executes the commands in order with the
    /// same logging, retention and backpressure semantics as the scalar
    /// methods, but pipelined and amortized:
    ///
    /// * every flash operation is *dispatched* onto the device's unit
    ///   pipelines (writes stripe across channels, reads ride the units
    ///   their pages live on), completion times come back per command and
    ///   out of order, and the clock advances once — to the batch's latest
    ///   completion — when the batch returns;
    /// * instead of testing the offload thresholds (and potentially
    ///   sealing, compressing and shipping a segment) after every command,
    ///   the whole batch is covered by a single threshold check and at most
    ///   one coalesced segment flush. Synchronous backpressure offloads (a
    ///   full device mid batch) still happen immediately; only the
    ///   *background* flush is deferred.
    ///
    /// Host-visible state — contents, retained versions, the evidence
    /// chain — is identical to the scalar loop; only timing differs.
    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
        let mut results = Vec::with_capacity(commands.len());
        let mut horizon = self.ftl.clock().now_ns();
        for command in commands {
            let dispatched = self.ftl.clock().now_ns();
            let (result, done) = match command {
                IoCommand::Read { lpa } => match self.read_page_inner(lpa, true, false) {
                    Ok((data, done)) => (Ok(CommandOutcome::Read(data)), done),
                    Err(e) => (Err(e), dispatched),
                },
                IoCommand::Write { lpa, data } => {
                    match self.write_page_inner(lpa, data, true, false) {
                        Ok(done) => (Ok(CommandOutcome::Written), done),
                        Err(e) => (Err(e), dispatched),
                    }
                }
                IoCommand::Trim { lpa } => match self.trim_page_inner(lpa, true) {
                    Ok(done) => (Ok(CommandOutcome::Trimmed), done),
                    Err(e) => (Err(e), dispatched),
                },
                IoCommand::Flush => match self.flush() {
                    Ok(()) => (Ok(CommandOutcome::Flushed), self.ftl.clock().now_ns()),
                    Err(e) => (Err(e), dispatched),
                },
            };
            horizon = horizon.max(done);
            results.push((result, done));
        }
        if self.should_offload() || self.staged_retry_due() {
            // One coalesced background offload for the whole batch (the
            // seal covers everything pending in a single segment, so one
            // call settles any threshold crossed above).
            self.offload_segment_background();
        }
        self.ftl.clock().advance_to(horizon);
        results
    }

    fn flush(&mut self) -> Result<(), DeviceError> {
        if self.crashed {
            return Err(DeviceError::PowerLoss);
        }
        match self.flush_log() {
            Ok(()) => Ok(()),
            // Conservative retention holds the data; flush is best-effort.
            Err(_) => Ok(()),
        }
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
    use crate::rebuild::RebuildImage;
    use crate::recovery::RecoveryEngine;
    use crate::remote_target::LoopbackTarget;

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

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
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
        let mut d = device();
        d.remote_mut().set_reachable(false);
        for i in 0..40u64 {
            d.write_page(i % 4, page(i as u8)).unwrap();
        }
        assert!(d.offload_stats().offload_failures > 0);
        assert_eq!(d.offload_stats().segments_offloaded, 0);
        // Everything still recoverable locally: lpa 0 was last overwritten
        // at i=36, whose retained pre-image is the i=32 version.
        assert_eq!(d.recover_page(0).unwrap(), page(32));
        // Remote comes back: flush succeeds.
        d.remote_mut().set_reachable(true);
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
        assert_eq!(scalar.chain_head(), batched.chain_head());
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
        // 64 overwrites with segment_pages=8: the scalar path seals a
        // segment every ~8 retained pages, the batched path at most once.
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

    fn spill_device() -> RssdDevice<LoopbackTarget> {
        RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                spill_blocks: 2,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        )
    }

    #[test]
    fn retries_reuse_the_sealed_wire_image_without_resealing() {
        let mut d = device();
        d.remote_mut().set_reachable(false);
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
        d.remote_mut().set_reachable(true);
        d.flush_log().unwrap();
        let s = d.offload_stats();
        assert_eq!(s.segments_offloaded, s.segments_sealed);
        assert_eq!(d.staged_segments(), 0);
        assert_eq!(s.health, OffloadHealth::Healthy);
    }

    #[test]
    fn health_machine_degrades_under_outage_and_recovers_on_heal() {
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 1,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        );
        assert_eq!(d.offload_health(), OffloadHealth::Healthy);
        d.write_page(0, page(0)).unwrap();
        d.remote_mut().set_reachable(false);
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
        d.remote_mut().set_reachable(true);
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

        d.remote_mut().set_reachable(false);
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

        d.remote_mut().set_reachable(true);
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
    }

    #[test]
    fn spilled_segments_serve_recovery_without_the_remote() {
        let mut d = spill_device();
        d.write_page(3, page(1)).unwrap();
        d.remote_mut().set_reachable(false);
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
        let (memo, _) = d.opened.as_ref().expect("lookups opened a segment");
        let memoised = memo.segment_seq();
        assert!(
            d.remote_index[&4].iter().any(|v| v.segment_seq == memoised),
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
        use crate::wire::WireRemote;
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            WireRemote::new(LoopbackTarget::new(), rssd_net::LinkConfig::ideal()),
        );
        let cut = overwrite_all_then_flush(&mut d);
        assert_eq!(d.recover_page_before(0, cut).unwrap(), page(0));
        assert!(d.opened.is_some());
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
        assert!(d.opened.is_some());
        let _ = d.crash();
        assert!(d.opened.is_none(), "the memo is RAM");
        let _ = d.recover().unwrap();
        assert!(
            d.opened.is_none(),
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
                without.opened = None;
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
}
