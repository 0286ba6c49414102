//! The offload engine: a sealed segment's life from seal to acknowledgement.
//!
//! [`OffloadEngine`] owns what lies between the device's pending log tail
//! and the remote store: the FIFO of sealed segments awaiting their ack, the
//! retry backoff, the NAND spill, the health machine, the counters. Its
//! methods borrow the [`Ftl`] and the [`RemoteTarget`] from the device.
//!
//! The pending tail's pre-image frame has one encoder: a retained page's
//! bytes are fixed once the page is pinned (GC never picks a block that
//! holds a pinned page), so [`OffloadEngine::pinned`] hands them to a
//! [`PreimageLane`], whose [`FrameStream`] encodes them as they come — on
//! the device's second core while the host keeps writing when the machine
//! has one, on the device's own thread otherwise — and the seal only waits
//! for the last of it. The seal dispatches timed background reads of the
//! same pages — the offload engine's real cost on the planes and channels —
//! and those reads carry time, not bytes.

use crate::logrec::LogRecord;
use crate::pool::Lane;
use crate::remote_target::{RemoteError, RemoteTarget};
use crate::segment::{OpenDepth, SegmentBody, SegmentEnvelope};
use rssd_compress::FrameStream;
use rssd_crypto::{ChainKey, Digest};
use rssd_flash::Ppa;
use rssd_ftl::Ftl;
use rssd_net::SecureSession;
use rssd_obs::{ProfilerHandle, SinkHandle};
use std::collections::VecDeque;

/// Offload-path health: a hysteresis state machine over backlog depth
/// (RAM-staged segments, spill-region occupancy) and consecutive ship
/// failures. The device degrades along this slope instead of falling off a
/// cliff when the remote disappears: `Healthy` ships inline, `Buffering`
/// stages sealed segments locally, `Throttled` charges writes a
/// backlog-proportional latency penalty, and only `Stalled` refuses writes
/// outright — after one last drain attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
    /// [`DeviceError::Stalled`](rssd_ssd::DeviceError::Stalled) after a
    /// final drain attempt.
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

/// What the health rule reads of the offload path: one copy of counts the
/// engine and the FTL keep, taken where the health is recomputed (on a
/// seal, a drain or a retirement — never per command).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Backlog {
    /// Staged segments: unshipped, spilled, or with their acks in flight.
    pub(crate) staged: usize,
    /// Staged segments held in controller RAM only (not spilled).
    pub(crate) ram_staged: usize,
    /// Bytes of the NAND spill region in use, and its capacity (zero when
    /// not configured).
    pub(crate) spill_used: u64,
    pub(crate) spill_capacity: u64,
    /// Ship failures since the last acknowledged segment.
    pub(crate) failure_streak: u32,
}

/// The admission rule: when the pending tail seals, when writes are slowed
/// or refused, and how long a failed ship waits. Every threshold of the
/// rule lives here and nowhere else; the device and the engine ask.
pub(crate) struct Admission;

impl Admission {
    /// Records a pending tail may hold per page of a segment before it
    /// seals (reads and fresh writes add records and no retained page).
    const RECORDS_PER_PAGE: usize = 8;
    /// The tail also seals whenever the pinned fraction of blocks exceeds
    /// this (capacity-pressure trigger — the GC attack pushes on this).
    const PINNED_FRACTION_WATERMARK: f64 = 0.25;
    /// RAM-staged segments at which the RAM half of pressure reads 1.
    const RAM_STAGE_SOFT_CAP: usize = 32;
    /// Backlog pressure at which `Throttled` engages / releases.
    const THROTTLE_ENTER: f64 = 0.50;
    const THROTTLE_EXIT: f64 = 0.35;
    /// Backlog pressure at which `Stalled` engages / releases.
    const STALL_ENTER: f64 = 0.92;
    const STALL_EXIT: f64 = 0.70;
    /// Consecutive ship failures that force `Throttled` regardless of
    /// backlog depth (a persistently failing wire deserves the slope too).
    const THROTTLE_FAILURE_STREAK: u32 = 16;
    /// The latency a `Throttled` write pays per staged segment. Tuned so a
    /// mid-outage device keeps ≥ 25 % of healthy throughput (the degradation
    /// bench gates this) and hosts feel the backlog long before `Stalled`.
    const THROTTLE_PENALTY_PER_STAGED_NS: u64 = 40_000;
    /// Synchronous offloads a write that found the device full of pinned
    /// data may force before it is refused as stalled.
    const RELIEF_ATTEMPTS: u32 = 4;
    /// The background retry backoff's first step, doubled up to the cap.
    const RETRY_BACKOFF_BASE_NS: u64 = 10_000_000;
    const RETRY_BACKOFF_CAP_NS: u64 = 5_000_000_000;

    /// Is the `pending` tail due to seal on a device of `segment_pages`-page
    /// segments? The pinned-block fraction is read only when neither of the
    /// tail's counts decides.
    pub(crate) fn seal_due(
        pending: &Batch,
        segment_pages: usize,
        pinned_block_fraction: impl FnOnce() -> f64,
    ) -> bool {
        pending.retained >= segment_pages as u64
            || pending.records.len() >= segment_pages * Self::RECORDS_PER_PAGE
            || pinned_block_fraction() > Self::PINNED_FRACTION_WATERMARK
    }

    /// Backlog pressure in `[0, 1+]`: the worse of RAM-staged depth against
    /// the soft cap and spill-region occupancy (a full spill with a RAM
    /// tail is still full).
    pub(crate) fn pressure(backlog: Backlog) -> f64 {
        let ram = backlog.ram_staged as f64 / Self::RAM_STAGE_SOFT_CAP as f64;
        let spill = if backlog.spill_capacity == 0 {
            0.0
        } else {
            backlog.spill_used as f64 / backlog.spill_capacity as f64
        };
        ram.max(spill)
    }

    /// The health state after `current` over `backlog`: the raw state of
    /// the pressure and the failure streak, with hysteresis on the downward
    /// transitions.
    pub(crate) fn health(current: OffloadHealth, backlog: Backlog) -> OffloadHealth {
        let pressure = Self::pressure(backlog);
        let streak = backlog.failure_streak;
        let raw = if pressure >= Self::STALL_ENTER {
            OffloadHealth::Stalled
        } else if pressure >= Self::THROTTLE_ENTER || streak >= Self::THROTTLE_FAILURE_STREAK {
            OffloadHealth::Throttled
        } else if backlog.staged > 0 || streak > 0 {
            OffloadHealth::Buffering
        } else {
            OffloadHealth::Healthy
        };
        // Escalations apply immediately; de-escalations wait for the exit
        // threshold so the state doesn't flap around a boundary.
        if raw >= current {
            return raw;
        }
        match current {
            OffloadHealth::Stalled if pressure > Self::STALL_EXIT => current,
            OffloadHealth::Throttled
                if pressure >= Self::THROTTLE_EXIT && streak < Self::THROTTLE_FAILURE_STREAK =>
            {
                current
            }
            _ => raw,
        }
    }

    /// The latency a `Throttled` write pays with `staged` segments staged.
    pub(crate) fn penalty_ns(staged: usize) -> u64 {
        Self::THROTTLE_PENALTY_PER_STAGED_NS * staged as u64
    }

    /// May a write that found the device full force another synchronous
    /// offload, `attempt` (counting from 0) having been forced already?
    pub(crate) fn relieve_again(attempt: u32) -> bool {
        attempt < Self::RELIEF_ATTEMPTS
    }

    /// The backoff step after a failed ship that waited `step`.
    fn next_backoff(step: u64) -> u64 {
        (step * 2).min(Self::RETRY_BACKOFF_CAP_NS)
    }
}

/// Offload-path counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// One instant on the `offload` trace track. Nothing is formatted unless a
/// sink is recording.
fn trace(sink: &SinkHandle, name: &str, at_ns: u64, args: &[(&str, &dyn std::fmt::Display)]) {
    if sink.is_enabled() {
        let args: Vec<_> = args.iter().map(|(k, v)| (*k, v.to_string())).collect();
        sink.instant("offload", name, at_ns, &args);
    }
}

/// Consecutive log records, metadata only (`old_data: None`) — the one
/// shape the device's pending tail, a staged segment and a history check
/// share. Their chain links are not kept: a check recomputes the run from
/// the head before it to the head after it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Batch {
    pub(crate) records: Vec<LogRecord>,
    /// Records that name a retained old page (pinned on flash until the
    /// batch's segment is acknowledged or spilled).
    pub(crate) retained: u64,
}

impl Batch {
    pub(crate) fn push(&mut self, record: LogRecord) {
        self.retained += u64::from(record.old_page_index.is_some());
        self.records.push(record);
    }

    /// Releases the retention pin of every old page the batch names.
    pub(crate) fn unpin(&self, ftl: &mut Ftl) {
        let geometry = ftl.geometry();
        for idx in self.records.iter().filter_map(|rec| rec.old_page_index) {
            ftl.unpin_page(geometry.page_from_index(idx));
        }
    }
}

/// What the pre-image lane is asked to do with its frame.
enum Job {
    /// Append these pinned pages' bytes and encode what they settle.
    Push(Vec<u8>),
    /// Finish the frame into this buffer (whatever it held before) and
    /// hand the buffer back.
    Finish(Vec<u8>),
    /// Drop the frame.
    Discard,
}

/// The pending tail's pre-image frame: the one encoder of every frame a
/// device seals. Its [`FrameStream`] runs on a [`Lane`] — a core of its own
/// when the machine has one to spare and the device is not a pool item,
/// else the device's thread — and takes the frame's pages in order from the
/// first, as they are pinned. A frame whose first pages it did not see (a
/// clone starts with no lane and no frame) is topped up at seal, from the
/// same pinned bytes.
#[derive(Default)]
pub(crate) struct PreimageLane {
    /// Started with the first frame the device opens or seals.
    lane: Option<Lane<Job, Vec<u8>>>,
    /// Pinned bytes not handed to the lane yet: it is woken once per
    /// [`Self::CHUNK`] bytes, not once per page.
    chunk: Vec<u8>,
    /// Retained pages of the open frame the lane has been given (the chunk
    /// included), first to last.
    pages: u64,
    /// The last frame the lane finished: its buffer goes back with the
    /// next [`Job::Finish`].
    frame: Vec<u8>,
}

impl PreimageLane {
    /// Bytes the device gathers before it wakes the lane: waking a parked
    /// thread costs the waker ≈ 4–5 µs on a 2-vCPU virtual machine, half
    /// the ≈ 10 µs it takes to encode one 4 KiB page, so the lane is woken
    /// once per four pages.
    const CHUNK: usize = 16 * 1024;

    /// The lane, started on first use.
    fn lane(&mut self) -> &mut Lane<Job, Vec<u8>> {
        self.lane.get_or_insert_with(|| {
            let mut stream = FrameStream::new();
            Lane::start(move |job| match job {
                Job::Push(bytes) => {
                    stream.push(&bytes);
                    None
                }
                Job::Finish(mut frame) => {
                    frame.clear();
                    stream.finish_into(&mut frame);
                    Some(frame)
                }
                Job::Discard => {
                    stream.clear();
                    None
                }
            })
        })
    }

    /// The open frame's `nth` retained page (counting from 0) was pinned
    /// with these bytes. The lane takes them only in order from the frame's
    /// first page; a page past a gap waits for the seal's top-up.
    fn push(&mut self, nth: u64, bytes: &[u8]) {
        if nth != self.pages {
            return;
        }
        if self.chunk.capacity() == 0 {
            self.chunk.reserve(Self::CHUNK);
        }
        self.chunk.extend_from_slice(bytes);
        self.pages += 1;
        if self.chunk.len() >= Self::CHUNK {
            let chunk = std::mem::take(&mut self.chunk);
            self.lane().send(Job::Push(chunk));
        }
    }

    /// Closes the open frame: the lane finishes it while the seal builds
    /// the metadata frame, and the next push opens the next frame.
    fn finish(&mut self) {
        let chunk = std::mem::take(&mut self.chunk);
        let frame = std::mem::take(&mut self.frame);
        let lane = self.lane();
        if !chunk.is_empty() {
            lane.send(Job::Push(chunk));
        }
        lane.send(Job::Finish(frame));
        self.pages = 0;
    }

    /// Waits for the frame [`Self::finish`] closed and appends it to `wire`.
    fn append_finished(&mut self, wire: &mut Vec<u8>) {
        self.frame = self.lane().reply();
        wire.extend_from_slice(&self.frame);
    }

    /// Drops the open frame, if any.
    fn discard(&mut self) {
        if self.pages > 0 {
            self.chunk.clear();
            if let Some(lane) = &mut self.lane {
                lane.send(Job::Discard);
            }
            self.pages = 0;
        }
    }
}

impl Clone for PreimageLane {
    fn clone(&self) -> Self {
        PreimageLane::default()
    }
}

impl std::fmt::Debug for PreimageLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreimageLane")
            .field("running", &self.lane.is_some())
            .field("pages", &self.pages)
            .finish_non_exhaustive()
    }
}

/// A sealed segment awaiting remote acknowledgement. The envelope *is* the
/// wire image (refcounted `Bytes`), built exactly once at seal time and
/// reused verbatim by every ship retry, the NAND spill, and crash replay.
///
/// A segment stays staged from its seal until the device clock has passed
/// its ack: first unshipped, then in flight (`acked_at_ns` set — the remote
/// holds it, the device does not know yet), then retired.
#[derive(Clone, Debug)]
pub(crate) struct StagedSegment {
    pub(crate) envelope: SegmentEnvelope,
    /// The segment's records (the pre-images live inside the envelope;
    /// these drive chain verification and the recovery index).
    pub(crate) batch: Batch,
    raw_bytes: u64,
    /// Persisted to the NAND spill region: the evidence survives a power
    /// cut, and the retained pre-image pins have been released.
    spilled: bool,
    /// Shipped: the transfer succeeded and its ack reaches the device at
    /// this simulated time. `None` while the segment has yet to cross.
    acked_at_ns: Option<u64>,
}

#[derive(Clone, Debug)]
pub(crate) struct OffloadEngine {
    session: SecureSession,
    /// Device identity carried in every envelope header.
    device_id: u64,
    /// Sealed segments awaiting remote acknowledgement, FIFO in chain
    /// order. Shipped segments (ack in flight) form a prefix of this queue
    /// and spilled ones a prefix of the unshipped rest; both are durable,
    /// so a power cut truncates the staged history cleanly at the last
    /// durable segment — never a hole in the middle of the chain.
    staged: VecDeque<StagedSegment>,
    /// Ship failures since the last acknowledged segment.
    consecutive_failures: u32,
    /// Background ship attempts are deferred until this simulated time
    /// (capped exponential backoff). Forced attempts (flush, sync
    /// backpressure, stalled-write drains) always go through.
    next_retry_at_ns: u64,
    /// Current backoff step, doubled per failure up to the cap.
    retry_backoff_ns: u64,
    /// Chain head before the first record still pending on the device.
    prev_segment_head: Digest,
    next_segment_seq: u64,
    /// The counters; `stats.health` is the health machine's state (see
    /// [`OffloadHealth`]).
    pub(crate) stats: OffloadStats,
    /// Trace sink for offload lifecycle events on the `offload` track.
    pub(crate) sink: SinkHandle,
    /// Host-side profiler; offload work is charged to the `wire` phase.
    pub(crate) profiler: ProfilerHandle,
    /// The pending tail's pre-image frame, compressing as it grows.
    preimages: PreimageLane,
}

impl OffloadEngine {
    pub(crate) fn new(session: SecureSession, device_id: u64) -> Self {
        OffloadEngine {
            session,
            device_id,
            staged: VecDeque::new(),
            consecutive_failures: 0,
            next_retry_at_ns: 0,
            retry_backoff_ns: Admission::RETRY_BACKOFF_BASE_NS,
            prev_segment_head: Digest::ZERO,
            next_segment_seq: 0,
            stats: OffloadStats::default(),
            sink: SinkHandle::disabled(),
            profiler: ProfilerHandle::disabled(),
            preimages: PreimageLane::default(),
        }
    }

    /// The pending tail just pinned `ppa`, its `nth` retained page
    /// (counting from 0): its bytes go to the pre-image lane, read by
    /// nothing (the seal's timed read of the page stays where it was). A
    /// lane on the device's thread encodes here, so this is `compress` work.
    pub(crate) fn pinned(&mut self, ftl: &Ftl, ppa: Ppa, nth: u64) {
        let bytes = ftl.peek_page(ppa).expect("a pinned page is programmed");
        self.profiler.enter("compress");
        self.preimages.push(nth, bytes);
        self.profiler.exit();
    }

    /// Pages of the pending tail's frame on the lane, and whether the lane
    /// runs on a helper thread (`None` before it starts).
    #[cfg(test)]
    pub(crate) fn lane_pages(&self) -> (u64, Option<bool>) {
        let lane = &self.preimages.lane;
        (self.preimages.pages, lane.as_ref().map(Lane::on_helper))
    }

    pub(crate) fn staged_segments(&self) -> usize {
        self.staged.len()
    }

    /// Staged segments the remote does not hold yet. One whose ack is in
    /// flight is the store's to answer for, not this queue's.
    pub(crate) fn unshipped(&self) -> impl Iterator<Item = &StagedSegment> {
        self.staged.iter().filter(|seg| seg.acked_at_ns.is_none())
    }

    /// The records of every unshipped staged segment, to tamper with.
    #[cfg(test)]
    pub(crate) fn unshipped_batches_mut(&mut self) -> impl Iterator<Item = &mut Batch> {
        let staged = self.staged.iter_mut();
        staged
            .filter(|seg| seg.acked_at_ns.is_none())
            .map(|seg| &mut seg.batch)
    }

    /// The wire image of segment `segment_seq` while it is still staged:
    /// RAM-only, spilled or in flight, its pre-images open locally.
    pub(crate) fn staged_envelope(&self, segment_seq: u64) -> Option<&SegmentEnvelope> {
        self.staged
            .iter()
            .map(|seg| &seg.envelope)
            .find(|envelope| envelope.segment_seq() == segment_seq)
    }

    /// What the health rule reads, as it stands now.
    pub(crate) fn backlog(&self, ftl: &Ftl) -> Backlog {
        Backlog {
            staged: self.staged.len(),
            ram_staged: self.staged.iter().filter(|s| !s.spilled).count(),
            spill_used: ftl.spill_used_bytes(),
            spill_capacity: ftl.spill_capacity_bytes(),
            failure_streak: self.consecutive_failures,
        }
    }

    /// Recomputes the health state ([`Admission::health`]) and emits a
    /// trace instant when the state changes.
    fn update_health(&mut self, ftl: &Ftl) {
        let backlog = self.backlog(ftl);
        let current = self.stats.health;
        let next = Admission::health(current, backlog);
        if next != current {
            self.stats.health = next;
            self.stats.health_peak = self.stats.health_peak.max(next);
            let pressure = Admission::pressure(backlog);
            trace(
                &self.sink,
                "health_transition",
                ftl.clock().now_ns(),
                &[
                    ("from", &current),
                    ("to", &next),
                    ("pressure", &format_args!("{pressure:.3}")),
                    ("staged", &backlog.staged),
                    ("consecutive_failures", &backlog.failure_streak),
                ],
            );
        }
    }

    /// Is a deferred background retry due for the unshipped backlog?
    /// Segments whose acks are in flight want time, not another attempt
    /// (they are a prefix of the queue, so the back tells).
    pub(crate) fn retry_due(&self, now_ns: u64) -> bool {
        self.staged
            .back()
            .is_some_and(|seg| seg.acked_at_ns.is_none())
            && now_ns >= self.next_retry_at_ns
    }

    fn reset_backoff(&mut self) {
        self.consecutive_failures = 0;
        self.retry_backoff_ns = Admission::RETRY_BACKOFF_BASE_NS;
        self.next_retry_at_ns = 0;
    }

    /// Seals the pending tail, which ends at `chain_head`, into a staged
    /// segment: dispatches the timed background reads of its retained
    /// pre-images, has the lane finish their frame, has
    /// [`SegmentEnvelope::seal_framed`] build the wire image once around it,
    /// and advances the segment cursor. Every retry, spill, and replay
    /// reuses the refcounted image. Returns the segment just staged, `None`
    /// when nothing was pending.
    pub(crate) fn seal(
        &mut self,
        pending: &mut Batch,
        chain_head: Digest,
        ftl: &mut Ftl,
    ) -> Option<&StagedSegment> {
        if pending.records.is_empty() {
            return None;
        }
        let batch = std::mem::take(pending);
        // The background reads dispatch onto the unit pipelines — the
        // offload engine genuinely occupies planes and channels, which is
        // RSSD's real (small, bounded) foreground overhead — but nothing
        // blocks on them, and they carry no bytes: the lane was handed each
        // page when it was pinned, and a page it missed is peeked here (the
        // pin invariant makes these the bytes the read would return).
        let geometry = ftl.geometry();
        let mut nth = 0;
        let retained_len: Vec<Option<u32>> = batch
            .records
            .iter()
            .map(|rec| {
                let ppa = geometry.page_from_index(rec.old_page_index?);
                let _ = ftl
                    .dispatch_offload_read(ppa)
                    .expect("pinned page readable");
                let bytes = ftl.peek_page(ppa).expect("a pinned page is programmed");
                self.preimages.push(nth, bytes);
                nth += 1;
                Some(bytes.len() as u32)
            })
            .collect();
        self.preimages.finish();
        let segment_seq = self.next_segment_seq;
        let body = SegmentBody {
            records: &batch.records,
            chain_head,
            retained_len: &retained_len,
            preimages: &[],
        };
        let lane = &mut self.preimages;
        let (envelope, raw_len) = SegmentEnvelope::seal_framed(
            &self.session,
            &self.profiler,
            self.device_id,
            segment_seq,
            self.prev_segment_head,
            body,
            |wire| lane.append_finished(wire),
        );
        trace(
            &self.sink,
            "segment_sealed",
            ftl.clock().now_ns(),
            &[
                ("segment_seq", &segment_seq),
                ("records", &batch.records.len()),
                ("raw_bytes", &raw_len),
                ("sealed_bytes", &envelope.sealed_payload().len()),
            ],
        );
        self.prev_segment_head = envelope.chain_head();
        self.staged.push_back(StagedSegment {
            envelope,
            batch,
            raw_bytes: raw_len as u64,
            spilled: false,
            acked_at_ns: None,
        });
        self.stats.segments_sealed += 1;
        self.next_segment_seq += 1;
        self.update_health(ftl);
        self.staged.back()
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
    pub(crate) fn drain(
        &mut self,
        ftl: &mut Ftl,
        remote: &mut impl RemoteTarget,
        forced: bool,
    ) -> Result<(), RemoteError> {
        self.retire_acked(ftl);
        let deferred = !forced && ftl.clock().now_ns() < self.next_retry_at_ns;
        if self.staged.is_empty() || deferred {
            // Deferred, not failed: make the backlog durable while waiting.
            self.spill_staged_tail(ftl);
            self.update_health(ftl);
            return Ok(());
        }
        let shipped = self.ship_unshipped(ftl, remote);
        if forced {
            if let Some(last_ack) = self.staged.iter().filter_map(|seg| seg.acked_at_ns).max() {
                ftl.clock().advance_to(last_ack);
            }
        }
        // Off the wire acks land at `now`: what was just shipped retires in
        // the same call.
        self.retire_acked(ftl);
        self.update_health(ftl);
        shipped
    }

    /// Ships every unshipped staged segment, in order, at the current time.
    /// A delivered segment stays staged with the time its ack reaches the
    /// device; the clock does not move. Stops at the first failure: that
    /// segment and everything behind it stay unshipped (sealed images
    /// intact — no re-read, no re-compress, no re-seal) and are made
    /// locally durable.
    fn ship_unshipped(
        &mut self,
        ftl: &mut Ftl,
        remote: &mut impl RemoteTarget,
    ) -> Result<(), RemoteError> {
        let now = ftl.clock().now_ns();
        for i in 0..self.staged.len() {
            if self.staged[i].acked_at_ns.is_some() {
                continue;
            }
            let envelope = self.staged[i].envelope.clone();
            let segment_seq = envelope.segment_seq();
            let sealed_len = envelope.sealed_payload().len();
            match remote.store_segment(envelope, now) {
                Ok(ack) => {
                    // The ack's durability time carries the wire latency
                    // (serialization, propagation, retransmission); the
                    // segment retires once the device clock gets there.
                    self.staged[i].acked_at_ns = Some(ack.durable_at_ns);
                    self.reset_backoff();
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
                    trace(
                        &self.sink,
                        "offload_failed",
                        now,
                        &[
                            ("segment_seq", &segment_seq),
                            ("consecutive_failures", &self.consecutive_failures),
                        ],
                    );
                    self.spill_staged_tail(ftl);
                    self.next_retry_at_ns = now + self.retry_backoff_ns;
                    self.retry_backoff_ns = Admission::next_backoff(self.retry_backoff_ns);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Retires, FIFO, every shipped segment whose ack the device clock has
    /// passed: durable remotely *and known to be*, so its pins are released
    /// (unless the spill already did) and its bytes accounted. A later
    /// segment acked earlier waits its turn behind the front. Runs on entry
    /// to every host command and around every drain.
    pub(crate) fn retire_acked(&mut self, ftl: &mut Ftl) {
        let now = ftl.clock().now_ns();
        let staged = self.staged.len();
        while let Some(acked_at_ns) = self.staged.front().and_then(|seg| seg.acked_at_ns) {
            if acked_at_ns > now {
                break;
            }
            let seg = self.staged.pop_front().expect("front exists");
            if !seg.spilled {
                seg.batch.unpin(ftl);
            }
            self.stats.segments_offloaded += 1;
            self.stats.records_offloaded += seg.batch.records.len() as u64;
            self.stats.retained_pages_offloaded += seg.batch.retained;
            self.stats.raw_bytes += seg.raw_bytes;
            self.stats.sealed_bytes += seg.envelope.sealed_payload().len() as u64;
            // Stamped when the device acts on the ack, so the track stays
            // on the device clock; the arrival rides along.
            trace(
                &self.sink,
                "segment_ack",
                now,
                &[
                    ("segment_seq", &seg.envelope.segment_seq()),
                    ("acked_at_ns", &acked_at_ns),
                ],
            );
        }
        if self.staged.len() == staged {
            return;
        }
        // Fully drained: everything is durable remotely, so the local
        // spill copies are dead weight — reclaim the region.
        if self.staged.is_empty() && ftl.spill_used_bytes() > 0 {
            let _ = ftl.spill_reset();
        }
        self.update_health(ftl);
    }

    /// Persists every unshipped, not-yet-spilled staged segment to the
    /// NAND spill region, in FIFO order (a segment whose ack is in flight
    /// is already durable in the store; behind those, spilled segments form
    /// a prefix). A spilled segment's evidence is durable across a power
    /// cut, so its retained pre-image pins are released — the same
    /// release point a successful offload would have used. Stops at the
    /// first failure (region full): those segments stay RAM-staged with
    /// their pins held, the conservative fallback.
    fn spill_staged_tail(&mut self, ftl: &mut Ftl) {
        if ftl.spill_capacity_bytes() == 0 {
            return;
        }
        for seg in &mut self.staged {
            if seg.spilled || seg.acked_at_ns.is_some() {
                continue;
            }
            if ftl.spill_append(seg.envelope.wire()).is_err() {
                break;
            }
            seg.spilled = true;
            self.stats.segments_spilled += 1;
            seg.batch.unpin(ftl);
            trace(
                &self.sink,
                "segment_spilled",
                ftl.clock().now_ns(),
                &[
                    ("segment_seq", &seg.envelope.segment_seq()),
                    ("wire_bytes", &seg.envelope.wire_bytes()),
                ],
            );
        }
    }

    /// Power loss: the staged queue is controller RAM. A spilled segment is
    /// durable on NAND (its wire image replays at recovery — nothing lost,
    /// pins long released); a shipped one is durable in the store, which
    /// recovery indexes it from, and only the pins its ack would have
    /// released go with the pin table; a RAM-only one dies with its pins
    /// exactly like the pending tail. Returns the records and retained
    /// pre-images that died.
    pub(crate) fn power_cut(&mut self, ftl: &mut Ftl) -> (u64, u64) {
        // The pending tail's frame is controller RAM too.
        self.preimages.discard();
        let (mut records, mut preimages) = (0, 0);
        for seg in self.staged.drain(..) {
            if let Some(acked_at_ns) = seg.acked_at_ns {
                trace(
                    &self.sink,
                    "segment_ack_lost",
                    ftl.clock().now_ns(),
                    &[
                        ("segment_seq", &seg.envelope.segment_seq()),
                        ("acked_at_ns", &acked_at_ns),
                    ],
                );
            }
            if seg.spilled {
                continue;
            }
            seg.batch.unpin(ftl);
            if seg.acked_at_ns.is_none() {
                records += seg.batch.records.len() as u64;
                preimages += seg.batch.retained;
            }
        }
        (records, preimages)
    }

    /// Crash recovery's local half. Replays the NAND spill region: sealed
    /// segments that were staged mid-outage survived the power cut on real
    /// flash. Entries the store already holds (`stored_up_to`, its last
    /// segment) are skipped; the rest are re-staged in order, each
    /// required to extend `head` — the store's verified chain head — to
    /// pass [`SegmentEnvelope::open`], and to reach its header's
    /// `chain_head` when its records are chained under `chain`, so the
    /// backlog drains exactly as if the cut never happened. Replay stops at
    /// the first entry that is damaged or out of place. Returns the head
    /// after the last re-staged segment, or an error when the spill region
    /// cannot be read.
    pub(crate) fn replay_spill(
        &mut self,
        ftl: &mut Ftl,
        chain: &ChainKey,
        mut head: Digest,
        stored_up_to: Option<u64>,
    ) -> Result<Digest, String> {
        let spill_entries = ftl
            .spill_scan()
            .map_err(|e| format!("spill region unreadable: {e}"))?;
        for bytes in spill_entries {
            let Some(envelope) = SegmentEnvelope::from_wire_image(bytes) else {
                break;
            };
            if stored_up_to.is_some_and(|s| envelope.segment_seq() <= s) {
                continue; // acked before the cut; the remote copy is canonical
            }
            if envelope.prev_chain_head() != head {
                break; // does not extend the recovered chain: unusable tail
            }
            // The tag is verified over every sealed byte and the header
            // held against the payload; the pre-images stay sealed — the
            // re-staged records are metadata only.
            let Ok(segment) = envelope.open(&self.session, OpenDepth::Metadata) else {
                break;
            };
            if chain.head_after(head, segment.chain_images()) != envelope.chain_head() {
                break; // its records are not the run its heads enclose
            }
            let mut batch = Batch::default();
            for record in segment.records() {
                batch.push(record.clone());
            }
            head = envelope.chain_head();
            self.stats.spill_replayed += 1;
            self.staged.push_back(StagedSegment {
                envelope,
                batch,
                raw_bytes: segment.raw_len() as u64,
                spilled: true,
                acked_at_ns: None,
            });
        }
        self.next_segment_seq = self
            .staged
            .back()
            .map(|seg| seg.envelope.segment_seq())
            .or(stored_up_to)
            .map_or(0, |last| last + 1);
        self.prev_segment_head = head;
        self.reset_backoff();
        self.update_health(ftl);
        Ok(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::walk_segments;
    use crate::logrec::LogOp;
    use crate::remote_target::{LoopbackTarget, StoreAck};
    use crate::segment::OpenedSegment;
    use rssd_crypto::{DeviceKeys, HashChain, KeyPurpose};
    use rssd_flash::{FlashGeometry, NandArray, NandTiming, SimClock};
    use rssd_ftl::{FtlConfig, InvalidateCause};

    /// Every ack takes this long to reach the device — longer than the
    /// backoff cap, so a retry can come due with acks still in flight.
    const ACK_DELAY_NS: u64 = 2 * Admission::RETRY_BACKOFF_CAP_NS;

    /// A continuity-checking store behind a scripted link.
    #[derive(Clone)]
    struct ScriptedRemote {
        store: LoopbackTarget,
        /// The scripted link is up: a store is attempted at all.
        up: bool,
        /// The head the last stored segment ended at.
        head: Option<Digest>,
        /// The store refused a segment as not extending its chain.
        forked: bool,
    }

    impl RemoteTarget for ScriptedRemote {
        fn store_segment(
            &mut self,
            envelope: SegmentEnvelope,
            now_ns: u64,
        ) -> Result<StoreAck, RemoteError> {
            if !self.up {
                return Err(RemoteError::Unreachable);
            }
            if let Some(expected) = self.head.filter(|&h| h != envelope.prev_chain_head()) {
                self.forked = true;
                return Err(RemoteError::ChainDiscontinuity {
                    expected,
                    got: envelope.prev_chain_head(),
                });
            }
            self.head = Some(envelope.chain_head());
            let ack = self.store.store_segment(envelope, now_ns)?;
            Ok(StoreAck {
                durable_at_ns: now_ns + ACK_DELAY_NS,
                ..ack
            })
        }

        fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
            self.store.fetch_segment(segment_seq)
        }

        fn stored_segments(&self) -> Vec<u64> {
            self.store.stored_segments()
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        /// A host read and an overwrite of one page are logged and the
        /// pending tail — two records — sealed.
        Seal,
        /// The link is up, the backoff has run out: a background drain.
        ShipOk,
        /// The link is down, the backoff has run out: a background drain.
        ShipFail,
        /// A background drain right now — deferred if the backoff is armed.
        DeferredDrain,
        /// The clock passes every outstanding ack; the next command retires.
        AckPasses,
        /// An outage long enough to seal `OUTAGE_BURST` segments: fills the
        /// spill region, or a quarter of the RAM staging cap.
        SpillFull,
        /// The link comes back and a forced drain runs (a flush, or the
        /// stalled-write drain).
        HealForcedDrain,
        /// Power is cut and the device recovers.
        PowerCut,
    }

    const STEPS: [Step; 8] = [
        Step::Seal,
        Step::ShipOk,
        Step::ShipFail,
        Step::DeferredDrain,
        Step::AckPasses,
        Step::SpillFull,
        Step::HealForcedDrain,
        Step::PowerCut,
    ];
    const OUTAGE_BURST: usize = 8;

    /// The engine with the least device around it that can drive it: a tiny
    /// FTL, the evidence chain and a pending tail.
    #[derive(Clone)]
    struct Rig {
        ftl: Ftl,
        chain_key: [u8; 32],
        verifier: ChainKey,
        chain: HashChain,
        pending: Batch,
        engine: OffloadEngine,
        remote: ScriptedRemote,
        writes: u64,
        /// Records logged and not lost to a power cut: the sequence the
        /// chain appends at next.
        durable_records: u64,
        /// Known gap (ROADMAP item 7): when a power cut leaves nothing in
        /// the spill region but entries the store already held (their acks
        /// were in flight), recovery re-stages none of them and nothing
        /// reclaims the region until some later segment retires — until
        /// then its occupancy counts as backlog pressure against an empty
        /// queue, which no drain can relieve.
        stale_spill: bool,
    }

    impl Rig {
        /// Pages the host keeps overwriting (written once before the run).
        const LPAS: u64 = 4;

        fn new(spill_blocks: u32) -> Self {
            let geometry = FlashGeometry {
                channels: 1,
                chips_per_channel: 1,
                planes_per_chip: 1,
                blocks_per_plane: 64,
                pages_per_block: OUTAGE_BURST as u32,
                page_size: 256,
            };
            let nand = NandArray::with_clock(geometry, NandTiming::instant(), SimClock::new());
            let config = FtlConfig {
                spill_blocks,
                ..FtlConfig::default()
            };
            let keys = DeviceKeys::for_simulation(7);
            let chain_key = keys.derive(KeyPurpose::EvidenceChain, 0);
            let mut ftl = Ftl::new(nand, config);
            for lpa in 0..Self::LPAS {
                let ticket = ftl.write_async(lpa, vec![0; 256]).unwrap();
                ftl.clock().advance_to(ticket.done_ns);
            }
            Rig {
                ftl,
                chain: HashChain::new(&chain_key),
                verifier: ChainKey::new(&chain_key),
                chain_key,
                pending: Batch::default(),
                engine: OffloadEngine::new(SecureSession::new(&keys, 0), 1),
                remote: ScriptedRemote {
                    store: LoopbackTarget::new(),
                    up: true,
                    head: None,
                    forked: false,
                },
                writes: 0,
                durable_records: 0,
                stale_spill: false,
            }
        }

        fn log(&mut self, op: LogOp, lpa: u64, old_page_index: Option<u64>) {
            let record = LogRecord {
                seq: self.chain.next_seq(),
                at_ns: self.ftl.clock().now_ns(),
                op,
                lpa,
                old_page_index,
                entropy_mil: 0,
                read_before: false,
                old_data: None,
            };
            self.chain.absorb(&record.chain_image());
            self.pending.push(record);
            self.durable_records += 1;
        }

        fn seal(&mut self) {
            let head = self.chain.seal();
            self.engine.seal(&mut self.pending, head, &mut self.ftl);
        }

        /// A background drain `after_ns` from now; only an unreachable
        /// remote may fail it.
        fn background_drain(&mut self, after_ns: u64) {
            self.ftl.clock().advance(after_ns);
            let drained = self.engine.drain(&mut self.ftl, &mut self.remote, false);
            assert!(matches!(drained, Ok(()) | Err(RemoteError::Unreachable)));
        }

        fn apply(&mut self, step: Step) {
            match step {
                Step::Seal => {
                    // The overwrite retains (and pins) the page's previous
                    // version.
                    self.writes += 1;
                    let lpa = self.writes % Self::LPAS;
                    self.log(LogOp::Read, lpa, None);
                    let data = vec![self.writes as u8; 256];
                    let ticket = self.ftl.write_async(lpa, data).unwrap();
                    self.ftl.clock().advance_to(ticket.done_ns);
                    let retained = self.ftl.drain_stale_events();
                    assert_eq!(retained.len(), 1);
                    assert_eq!(retained[0].cause, InvalidateCause::Overwrite);
                    self.ftl.pin_page(retained[0].ppa);
                    let idx = self.ftl.geometry().page_index(retained[0].ppa);
                    self.log(LogOp::Write, retained[0].lpa, Some(idx));
                    self.seal();
                }
                Step::ShipOk => {
                    self.remote.up = true;
                    self.background_drain(Admission::RETRY_BACKOFF_CAP_NS);
                }
                Step::ShipFail => {
                    self.remote.up = false;
                    self.background_drain(Admission::RETRY_BACKOFF_CAP_NS);
                }
                Step::DeferredDrain => self.background_drain(0),
                Step::AckPasses => {
                    self.ftl.clock().advance(ACK_DELAY_NS);
                    self.engine.retire_acked(&mut self.ftl);
                }
                Step::SpillFull => {
                    self.remote.up = false;
                    for _ in 0..OUTAGE_BURST {
                        self.log(LogOp::Read, 0, None);
                        self.seal();
                        self.background_drain(Admission::RETRY_BACKOFF_CAP_NS);
                    }
                }
                Step::HealForcedDrain => {
                    self.remote.up = true;
                    self.engine
                        .drain(&mut self.ftl, &mut self.remote, true)
                        .expect("a forced drain over a healed link");
                    // However deep the backlog was — `Stalled` included —
                    // the first forced drain after the heal clears it.
                    assert_eq!(self.engine.staged_segments(), 0);
                    if !self.stale_spill {
                        assert_eq!(self.engine.stats.health, OffloadHealth::Healthy);
                    }
                }
                Step::PowerCut => {
                    let stored = self.remote.stored_segments().len() as u64;
                    let spilled = self.engine.staged.iter().filter(|seg| seg.spilled).count();
                    let in_flight = self.engine.staged.len() - self.engine.unshipped().count();
                    let (lost, _) = self.engine.power_cut(&mut self.ftl);
                    self.durable_records -= lost;
                    assert_eq!(self.ftl.pinned_pages(), 0, "the pin table is RAM");

                    let session = self.engine.session.clone();
                    let mut records = 0;
                    let sink = |_: u64, _: &SegmentEnvelope, segment: &OpenedSegment| {
                        records += segment.records().len() as u64
                    };
                    let head = walk_segments(1, &self.verifier, &session, &mut self.remote, sink)
                        .expect("the store verifies");
                    let stored_up_to = stored.checked_sub(1);
                    let head = self
                        .engine
                        .replay_spill(&mut self.ftl, &self.verifier, head, stored_up_to)
                        .unwrap();
                    // Everything durable at the cut is back: spilled
                    // segments the store does not hold are re-staged (the
                    // ones in flight it does hold).
                    let replayed = self.engine.staged_segments();
                    assert!(replayed <= spilled && replayed + in_flight >= spilled);
                    self.stale_spill = replayed == 0 && self.ftl.spill_used_bytes() > 0;
                    for seg in self.engine.unshipped() {
                        records += seg.batch.records.len() as u64;
                    }
                    self.chain = HashChain::resume(&self.chain_key, head, records);
                }
            }
        }

        /// DESIGN §11's invariants, which hold between any two steps.
        fn check(&mut self, path: &[Step]) {
            // The chain appends right behind the last record that survived
            // every power cut.
            assert_eq!(self.chain.next_seq(), self.durable_records, "{path:?}");
            // The store never saw a fork, and holds a prefix of the chain.
            assert!(!self.remote.forked, "{path:?}");
            let stored = self.remote.stored_segments();
            assert!(
                stored.iter().copied().eq(0..stored.len() as u64),
                "{path:?}"
            );
            // Nothing sealed was dropped: every segment is stored or staged
            // (a shipped one both), and the queue is FIFO in chain order
            // with its shipped prefix and, behind it, its spilled prefix.
            let staged = &self.engine.staged;
            let first = self.engine.next_segment_seq - staged.len() as u64;
            let mut rank = 0;
            for (seg, seq) in staged.iter().zip(first..) {
                assert_eq!(seg.envelope.segment_seq(), seq, "{path:?}");
                assert_eq!(seg.acked_at_ns.is_some(), stored.contains(&seq), "{path:?}");
                let seg_rank = match (seg.acked_at_ns, seg.spilled) {
                    (Some(_), _) => 0,
                    (None, true) => 1,
                    (None, false) => 2,
                };
                assert!(seg_rank >= rank, "{path:?}");
                rank = seg_rank;
            }
            assert!(
                first <= stored.len() as u64,
                "a hole before the queue: {path:?}"
            );
            // Pins are held by exactly the segments whose evidence is in
            // RAM only or in flight, and all released once the queue is
            // empty.
            let pinned: u64 = staged
                .iter()
                .filter(|seg| !seg.spilled)
                .map(|seg| seg.batch.retained)
                .sum();
            assert_eq!(self.ftl.pinned_pages(), pinned, "{path:?}");
            // The spill region is reclaimed with the queue (but see
            // `stale_spill`).
            self.stale_spill &= self.ftl.spill_used_bytes() > 0;
            if staged.is_empty() {
                let occupied = self.ftl.spill_used_bytes() > 0;
                assert_eq!(occupied, self.stale_spill, "{path:?}");
            }
            // With nothing moving, the health machine stays where it is.
            let health = self.engine.stats.health;
            let backlog = self.engine.backlog(&self.ftl);
            assert_eq!(
                Admission::health(health, backlog),
                health,
                "chatter: {path:?}"
            );
            assert!(self.engine.stats.health_peak >= health);
        }
    }

    fn explore(rig: &Rig, path: &mut Vec<Step>, depth: usize, seen: &mut [bool; 4]) {
        for step in STEPS {
            let mut next = rig.clone();
            path.push(step);
            next.apply(step);
            next.check(path);
            seen[next.engine.stats.health as usize] = true;
            if path.len() < depth {
                explore(&next, path, depth, seen);
            }
            path.pop();
        }
    }

    /// Every sequence of the eight steps, to depth 6 (5 in an unoptimised
    /// build, where depth 6 takes minutes), with and without a spill
    /// region: no sampling. Each explored state is a clone, which starts
    /// its own pre-image lane at its first seal; the walk runs as a pool
    /// item, so those lanes run on its thread and start none.
    #[test]
    fn health_machine_holds_its_invariants_on_every_path() {
        let depth = if cfg!(debug_assertions) { 5 } else { 6 };
        for spill_blocks in [0, 1] {
            let seen = crate::pool::map(1, 1, |_| {
                let mut seen = [false; 4];
                explore(&Rig::new(spill_blocks), &mut Vec::new(), depth, &mut seen);
                seen
            });
            assert_eq!(seen, [[true; 4]], "every health state is reached");
        }
    }

    /// `RssdDevice::should_offload` as it stood before the rule moved into
    /// [`Admission`], over the same quantities: the reference
    /// `Admission::seal_due` is held to.
    fn reference_should_offload(
        retained: u64,
        records: usize,
        segment_pages: usize,
        pinned_block_fraction: f64,
    ) -> bool {
        const PINNED_FRACTION_WATERMARK: f64 = 0.25;
        retained >= segment_pages as u64
            || records >= segment_pages * 8
            || pinned_block_fraction > PINNED_FRACTION_WATERMARK
    }

    /// `OffloadEngine::update_health` (and the `backlog_pressure` it read)
    /// as they stood before the rule moved into [`Admission`]: the state
    /// the engine moved to from `current`.
    fn reference_update_health(current: OffloadHealth, backlog: Backlog) -> OffloadHealth {
        const RAM_STAGE_SOFT_CAP: usize = 32;
        const THROTTLE_ENTER: f64 = 0.50;
        const THROTTLE_EXIT: f64 = 0.35;
        const STALL_ENTER: f64 = 0.92;
        const STALL_EXIT: f64 = 0.70;
        const THROTTLE_FAILURE_STREAK: u32 = 16;
        let ram = backlog.ram_staged as f64 / RAM_STAGE_SOFT_CAP as f64;
        let capacity = backlog.spill_capacity;
        let spill = if capacity == 0 {
            0.0
        } else {
            backlog.spill_used as f64 / capacity as f64
        };
        let pressure = ram.max(spill);
        let streak = backlog.failure_streak;
        let raw = if pressure >= STALL_ENTER {
            OffloadHealth::Stalled
        } else if pressure >= THROTTLE_ENTER || streak >= THROTTLE_FAILURE_STREAK {
            OffloadHealth::Throttled
        } else if backlog.staged != 0 || streak > 0 {
            OffloadHealth::Buffering
        } else {
            OffloadHealth::Healthy
        };
        if raw >= current {
            raw
        } else {
            match current {
                OffloadHealth::Stalled if pressure > STALL_EXIT => current,
                OffloadHealth::Throttled
                    if pressure >= THROTTLE_EXIT && streak < THROTTLE_FAILURE_STREAK =>
                {
                    current
                }
                _ => raw,
            }
        }
    }

    /// Each of `thresholds`, its two neighbouring `f64`s, and the ends.
    fn threshold_grid(thresholds: &[f64]) -> Vec<f64> {
        let mut grid = vec![0.0, 1.0];
        for &t in thresholds {
            grid.extend([t.next_down(), t, t.next_up()]);
        }
        grid
    }

    const HEALTH_STATES: [OffloadHealth; 4] = [
        OffloadHealth::Healthy,
        OffloadHealth::Buffering,
        OffloadHealth::Throttled,
        OffloadHealth::Stalled,
    ];

    /// Every current state × failure streak around the forcing streak ×
    /// no spill region or one × RAM-staged depth past the soft cap × spill
    /// occupancy at, and a bit either side of, every threshold.
    fn health_grid() -> Vec<(OffloadHealth, Backlog)> {
        // A capacity of 2^54 bytes makes every f64 in [0.25, 1] an exact
        // occupancy.
        const CAPACITY: u64 = 1 << 54;
        let mut spill = vec![(0, 0)];
        for occupancy in threshold_grid(&[0.35, 0.50, 0.70, 0.92]) {
            let used = (occupancy * CAPACITY as f64) as u64;
            assert_eq!(used as f64 / CAPACITY as f64, occupancy);
            spill.push((used, CAPACITY));
        }
        let mut grid = Vec::new();
        for current in HEALTH_STATES {
            for failure_streak in [0, 15, 16, 17] {
                for ram_staged in 0..=40 {
                    for staged in [ram_staged, ram_staged + 1] {
                        for &(spill_used, spill_capacity) in &spill {
                            let backlog = Backlog {
                                staged,
                                ram_staged,
                                spill_used,
                                spill_capacity,
                                failure_streak,
                            };
                            grid.push((current, backlog));
                        }
                    }
                }
            }
        }
        grid
    }

    #[test]
    fn admission_health_is_the_engine_rule_it_replaced() {
        for (current, backlog) in health_grid() {
            let next = Admission::health(current, backlog);
            assert_eq!(
                next,
                reference_update_health(current, backlog),
                "{current:?} {backlog:?}"
            );
            // No chatter: with nothing moving, the state stays put.
            assert_eq!(Admission::health(next, backlog), next, "{backlog:?}");
        }
    }

    #[test]
    fn admission_seal_due_is_the_device_rule_it_replaced() {
        let record = LogRecord {
            seq: 0,
            at_ns: 0,
            op: LogOp::Read,
            lpa: 0,
            old_page_index: None,
            entropy_mil: 0,
            read_before: false,
            old_data: None,
        };
        for segment_pages in [1, 2, 64] {
            let pages = segment_pages as u64;
            let records = segment_pages * 8;
            for retained in [0, pages - 1, pages, pages + 1] {
                for len in [0, records - 1, records, records + 1] {
                    let pending = Batch {
                        records: vec![record.clone(); len],
                        retained,
                    };
                    for fraction in threshold_grid(&[0.25]) {
                        let read = std::cell::Cell::new(false);
                        let due = Admission::seal_due(&pending, segment_pages, || {
                            read.set(true);
                            fraction
                        });
                        let expected =
                            reference_should_offload(retained, len, segment_pages, fraction);
                        assert_eq!(due, expected, "{retained} {len} {fraction}");
                        // The counts decide before the fraction is read.
                        let counts_decide = retained >= pages || len >= records;
                        assert_eq!(read.get(), !counts_decide, "{retained} {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn admission_throttle_relief_and_backoff_are_the_rules_they_replaced() {
        for staged in [0, 1, 31, 32, 1000] {
            assert_eq!(Admission::penalty_ns(staged), 40_000 * staged as u64);
        }
        for attempt in 0..8 {
            assert_eq!(Admission::relieve_again(attempt), attempt < 4);
        }
        let mut step = Admission::RETRY_BACKOFF_BASE_NS;
        assert_eq!(step, 10_000_000);
        for _ in 0..16 {
            let next = Admission::next_backoff(step);
            assert_eq!(next, (step * 2).min(5_000_000_000));
            step = next;
        }
        assert_eq!(step, Admission::RETRY_BACKOFF_CAP_NS);
    }
}
