//! The NVMe-style multi-queue host interface.
//!
//! The paper's RSSD is an NVMe device: hosts talk to it through fixed-depth
//! submission/completion queue pairs, and everything the codesign adds —
//! per-command logging, conservative retention, NVMe-oE offload — lives
//! *below* that queue interface. This module models the host side of that
//! contract:
//!
//! * [`IoCommand`] — one host command (`Read`/`Write`/`Trim`/`Flush`).
//! * [`SubmissionQueue`] / [`CompletionQueue`] — fixed-depth rings, paired
//!   per host context.
//! * [`NvmeController`] — owns the [`BlockDevice`] and round-robin
//!   arbitrates across every queue pair, so several hosts (a victim VM and
//!   an attacker VM, say) share one device. Commands pulled in an
//!   arbitration round are executed through
//!   [`BlockDevice::submit_batch`], which lets devices amortize work —
//!   RSSD amortizes evidence-chain bookkeeping and offload flushes across
//!   the batch.
//!
//! Queue depth is the host's performance knob: a depth-1 pair submits
//! batches of one — exactly what the scalar [`BlockDevice`] methods do —
//! while deeper pairs batch commands per arbitration round (see the
//! `qd_sweep` bench).
//!
//! # Examples
//!
//! ```
//! use rssd_flash::{FlashGeometry, NandTiming, SimClock};
//! use rssd_ssd::{CommandId, CommandOutcome, IoCommand, NvmeController, PlainSsd};
//!
//! let device = PlainSsd::new(
//!     FlashGeometry::small_test(),
//!     NandTiming::instant(),
//!     SimClock::new(),
//! );
//! let mut controller = NvmeController::new(device);
//! let queue = controller.create_queue_pair(8);
//!
//! controller
//!     .submit(queue, CommandId(0), IoCommand::Write { lpa: 3, data: vec![7; 4096] })
//!     .unwrap();
//! controller
//!     .submit(queue, CommandId(1), IoCommand::Read { lpa: 3 })
//!     .unwrap();
//! controller.run_to_idle();
//!
//! let write = controller.pop_completion(queue).unwrap();
//! assert_eq!(write.result, Ok(CommandOutcome::Written));
//! let read = controller.pop_completion(queue).unwrap();
//! assert_eq!(read.result, Ok(CommandOutcome::Read(vec![7; 4096])));
//! ```

use crate::device::{BlockDevice, DeviceError};
use crate::queue::LatencyStats;
use rssd_obs::{ProfilerHandle, SinkHandle};
use std::collections::HashSet;

/// One host I/O command — the unit of submission on a queue pair.
///
/// All addressing is in whole logical pages, matching [`BlockDevice`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoCommand {
    /// Read one logical page (unmapped pages complete as zeroes).
    Read {
        /// Logical page address.
        lpa: u64,
    },
    /// Write one logical page.
    Write {
        /// Logical page address.
        lpa: u64,
        /// Page payload; must be exactly one page.
        data: Vec<u8>,
    },
    /// Trim (deallocate) one logical page.
    Trim {
        /// Logical page address.
        lpa: u64,
    },
    /// Barrier: flush buffered device state.
    Flush,
}

impl IoCommand {
    /// The logical page this command addresses, if any (`Flush` has none).
    pub fn lpa(&self) -> Option<u64> {
        match self {
            IoCommand::Read { lpa } | IoCommand::Write { lpa, .. } | IoCommand::Trim { lpa } => {
                Some(*lpa)
            }
            IoCommand::Flush => None,
        }
    }
}

/// Host-assigned command identifier, NVMe CID style: it must be unique among
/// the commands currently outstanding on its queue pair, and is free for
/// reuse as soon as the matching [`Completion`] has been posted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommandId(pub u16);

impl std::fmt::Display for CommandId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cid{}", self.0)
    }
}

/// Identifier of a queue pair on one controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub u16);

impl std::fmt::Display for QueueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Successful payload of a completed command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommandOutcome {
    /// Page content returned by a `Read`.
    Read(Vec<u8>),
    /// A `Write` was made durable.
    Written,
    /// A `Trim` took effect.
    Trimmed,
    /// A `Flush` barrier completed.
    Flushed,
}

/// Per-command result: outcome or the device error that failed it.
pub type CommandResult = Result<CommandOutcome, DeviceError>;

/// A completion queue entry: the command's result plus its submission and
/// completion timestamps on the simulation clock.
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct Completion {
    /// The host's identifier for the completed command.
    pub id: CommandId,
    /// Outcome or error.
    pub result: CommandResult,
    /// Clock time at which the command entered the submission queue.
    pub submitted_at_ns: u64,
    /// Clock time at which the command actually completed on its device
    /// unit. Commands of one arbitration batch dispatch together but
    /// complete out of order as channels/chips/planes free up; the CQ
    /// posts them in completion-time order, each carrying its own time.
    pub completed_at_ns: u64,
}

impl Completion {
    /// Queue latency: submission to posted completion, including time spent
    /// waiting in the submission queue.
    pub fn latency_ns(&self) -> u64 {
        self.completed_at_ns.saturating_sub(self.submitted_at_ns)
    }
}

/// Errors of the queue interface itself (as opposed to [`DeviceError`]s,
/// which travel back through [`Completion::result`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueueError {
    /// The submission queue is full; back off and reap completions.
    SubmissionQueueFull {
        /// The full queue.
        queue: QueueId,
    },
    /// The command id is already outstanding on this queue pair.
    CommandIdInFlight {
        /// The queue submitted to.
        queue: QueueId,
        /// The still-outstanding id.
        id: CommandId,
    },
    /// No such queue pair on this controller.
    UnknownQueue {
        /// The unknown id.
        queue: QueueId,
    },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::SubmissionQueueFull { queue } => {
                write!(f, "submission queue {queue} is full")
            }
            QueueError::CommandIdInFlight { queue, id } => {
                write!(f, "command id {id} already in flight on {queue}")
            }
            QueueError::UnknownQueue { queue } => write!(f, "unknown queue {queue}"),
        }
    }
}

impl std::error::Error for QueueError {}

/// A fixed-capacity ring buffer (the storage shared by both queue kinds).
#[derive(Debug)]
struct Ring<T> {
    slots: Vec<Option<T>>,
    head: usize,
    len: usize,
}

impl<T> Ring<T> {
    fn new(depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be at least 1");
        Ring {
            slots: (0..depth).map(|_| None).collect(),
            head: 0,
            len: 0,
        }
    }

    fn depth(&self) -> usize {
        self.slots.len()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn free(&self) -> usize {
        self.depth() - self.len
    }

    fn push(&mut self, item: T) -> Result<(), T> {
        if self.len == self.depth() {
            return Err(item);
        }
        let tail = (self.head + self.len) % self.depth();
        self.slots[tail] = Some(item);
        self.len += 1;
        Ok(())
    }

    fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head].take();
        self.head = (self.head + 1) % self.depth();
        self.len -= 1;
        item
    }
}

/// One submitted-but-not-yet-fetched command.
#[derive(Debug)]
struct SqEntry {
    id: CommandId,
    command: IoCommand,
    submitted_at_ns: u64,
}

/// The host→device half of a queue pair: a fixed-depth command ring.
#[derive(Debug)]
pub struct SubmissionQueue {
    ring: Ring<SqEntry>,
}

impl SubmissionQueue {
    fn new(depth: usize) -> Self {
        SubmissionQueue {
            ring: Ring::new(depth),
        }
    }

    /// Configured depth.
    pub fn depth(&self) -> usize {
        self.ring.depth()
    }

    /// Commands waiting to be fetched by the controller.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no commands are waiting.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Free submission slots.
    pub fn free(&self) -> usize {
        self.ring.free()
    }
}

/// The device→host half of a queue pair: a fixed-depth completion ring.
#[derive(Debug)]
pub struct CompletionQueue {
    ring: Ring<Completion>,
}

impl CompletionQueue {
    fn new(depth: usize) -> Self {
        CompletionQueue {
            ring: Ring::new(depth),
        }
    }

    /// Configured depth.
    pub fn depth(&self) -> usize {
        self.ring.depth()
    }

    /// Completions waiting to be reaped by the host.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no completions are waiting.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Free completion slots.
    pub fn free(&self) -> usize {
        self.ring.free()
    }
}

/// Per-queue-pair accounting: command mix, errors, and queue latency
/// (submission to completion, including queueing delay — distinct from the
/// device-side service latency in e.g. `PlainSsd::latency`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct QueuePairStats {
    /// Commands accepted into the submission queue.
    pub submitted: u64,
    /// Completions posted.
    pub completed: u64,
    /// Completions that carried a [`DeviceError`].
    pub errors: u64,
    /// Reads submitted.
    pub reads: u64,
    /// Writes submitted.
    pub writes: u64,
    /// Trims submitted.
    pub trims: u64,
    /// Flushes submitted.
    pub flushes: u64,
    /// Submission→completion latency distribution.
    pub latency: LatencyStats,
}

impl QueuePairStats {
    /// Merges another queue pair's accounting into this one — the fleet
    /// view: an array front end reports one aggregate over the per-shard
    /// (or per-tenant) queue pairs.
    pub fn merge(&mut self, other: &QueuePairStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.errors += other.errors;
        self.reads += other.reads;
        self.writes += other.writes;
        self.trims += other.trims;
        self.flushes += other.flushes;
        self.latency.merge(&other.latency);
    }
}

/// A submission/completion ring pair plus its accounting.
#[derive(Debug)]
struct QueuePair {
    sq: SubmissionQueue,
    cq: CompletionQueue,
    /// Command ids outstanding (submitted, completion not yet posted).
    in_flight: HashSet<u16>,
    stats: QueuePairStats,
}

impl QueuePair {
    fn new(depth: usize) -> Self {
        QueuePair {
            sq: SubmissionQueue::new(depth),
            cq: CompletionQueue::new(depth),
            in_flight: HashSet::new(),
            stats: QueuePairStats::default(),
        }
    }
}

/// The device-side command processor: owns the [`BlockDevice`] and
/// arbitrates round-robin across every queue pair, NVMe style.
///
/// Each [`process_round`](Self::process_round) fetches up to the
/// arbitration burst of commands from every queue pair (starting at a
/// rotating offset so no queue is structurally favored), executes the whole
/// fetch as one [`BlockDevice::submit_batch`] call, and posts completions.
/// The batch is where devices amortize per-command overheads; the round-robin
/// is what lets multiple tenants share a device without any host-side
/// coordination.
#[derive(Debug)]
pub struct NvmeController<D: BlockDevice> {
    device: D,
    queues: Vec<QueuePair>,
    rr_next: usize,
    arbitration_burst: usize,
    /// Host-side phase profiler (disabled by default: every `enter`/`exit`
    /// is a no-op behind one `Option` check).
    profiler: ProfilerHandle,
    /// Trace sink for per-round spans on the `host/rounds` track.
    sink: SinkHandle,
    rounds: u64,
}

impl<D: BlockDevice> NvmeController<D> {
    /// Default number of commands fetched per queue per arbitration round.
    pub const DEFAULT_ARBITRATION_BURST: usize = 8;

    /// Wraps `device` with an empty queue-pair table and the default
    /// arbitration burst.
    pub fn new(device: D) -> Self {
        Self::with_arbitration_burst(device, Self::DEFAULT_ARBITRATION_BURST)
    }

    /// Wraps `device`, fetching up to `burst` commands per queue per round.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero.
    pub fn with_arbitration_burst(device: D, burst: usize) -> Self {
        assert!(burst > 0, "arbitration burst must be at least 1");
        NvmeController {
            device,
            queues: Vec::new(),
            rr_next: 0,
            arbitration_burst: burst,
            profiler: ProfilerHandle::disabled(),
            sink: SinkHandle::disabled(),
            rounds: 0,
        }
    }

    /// Installs a phase profiler; rounds then charge their fetch, device
    /// execution, completion sorting and stats/posting time to named phases.
    pub fn set_profiler(&mut self, profiler: ProfilerHandle) {
        self.profiler = profiler;
    }

    /// Installs a trace sink; each non-empty round emits one span on the
    /// `host/rounds` track covering the simulated time the batch consumed.
    pub fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// Shared access to the device (stats, model name, clock).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutable access to the device. This is the investigator's/operator's
    /// back channel (recovery, fault injection) — host I/O goes through the
    /// queues.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// Tears the controller down, returning the device.
    pub fn into_device(self) -> D {
        self.device
    }

    /// Creates a submission/completion ring pair of `depth` entries each and
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero — a zero-depth pair could neither accept a
    /// submission nor post a completion, so every later operation on it
    /// would fail in ways that are much harder to diagnose than this.
    pub fn create_queue_pair(&mut self, depth: usize) -> QueueId {
        assert!(
            depth > 0,
            "queue pair depth must be at least 1 (a depth-0 ring can neither \
             accept submissions nor post completions)"
        );
        let id = QueueId(u16::try_from(self.queues.len()).expect("too many queue pairs"));
        self.queues.push(QueuePair::new(depth));
        id
    }

    /// Number of queue pairs.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    fn pair(&self, queue: QueueId) -> &QueuePair {
        self.queues
            .get(usize::from(queue.0))
            .unwrap_or_else(|| panic!("unknown queue {queue}"))
    }

    /// The submission queue of `queue`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown queue id.
    pub fn submission_queue(&self, queue: QueueId) -> &SubmissionQueue {
        &self.pair(queue).sq
    }

    /// The completion queue of `queue`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown queue id.
    pub fn completion_queue(&self, queue: QueueId) -> &CompletionQueue {
        &self.pair(queue).cq
    }

    /// Per-queue counters and queue-latency distribution.
    ///
    /// # Panics
    ///
    /// Panics on an unknown queue id.
    pub fn stats(&self, queue: QueueId) -> &QueuePairStats {
        &self.pair(queue).stats
    }

    /// Commands outstanding on `queue` (submitted, completion not posted).
    ///
    /// # Panics
    ///
    /// Panics on an unknown queue id.
    pub fn outstanding(&self, queue: QueueId) -> usize {
        self.pair(queue).in_flight.len()
    }

    /// Submits one command.
    ///
    /// # Errors
    ///
    /// [`QueueError::UnknownQueue`] for a bad queue id,
    /// [`QueueError::SubmissionQueueFull`] when the ring has no free slot
    /// (reap completions and retry), and [`QueueError::CommandIdInFlight`]
    /// when `id` is still outstanding on this pair.
    pub fn submit(
        &mut self,
        queue: QueueId,
        id: CommandId,
        command: IoCommand,
    ) -> Result<(), QueueError> {
        let now = self.device.clock().now_ns();
        let pair = self
            .queues
            .get_mut(usize::from(queue.0))
            .ok_or(QueueError::UnknownQueue { queue })?;
        if pair.sq.ring.free() == 0 {
            return Err(QueueError::SubmissionQueueFull { queue });
        }
        if !pair.in_flight.insert(id.0) {
            return Err(QueueError::CommandIdInFlight { queue, id });
        }
        match command {
            IoCommand::Read { .. } => pair.stats.reads += 1,
            IoCommand::Write { .. } => pair.stats.writes += 1,
            IoCommand::Trim { .. } => pair.stats.trims += 1,
            IoCommand::Flush => pair.stats.flushes += 1,
        }
        pair.stats.submitted += 1;
        pair.sq
            .ring
            .push(SqEntry {
                id,
                command,
                submitted_at_ns: now,
            })
            .unwrap_or_else(|_| unreachable!("free slot checked above"));
        Ok(())
    }

    /// Reaps the oldest completion of `queue`, if any.
    ///
    /// # Panics
    ///
    /// Panics on an unknown queue id.
    pub fn pop_completion(&mut self, queue: QueueId) -> Option<Completion> {
        self.queues
            .get_mut(usize::from(queue.0))
            .unwrap_or_else(|| panic!("unknown queue {queue}"))
            .cq
            .ring
            .pop()
    }

    /// Reaps every posted completion of `queue`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown queue id.
    pub fn drain_completions(&mut self, queue: QueueId) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = self.pop_completion(queue) {
            out.push(c);
        }
        out
    }

    /// Runs one arbitration round: fetches up to the arbitration burst from
    /// each queue pair (bounded by that pair's free completion slots, so a
    /// host that never reaps cannot overflow its own ring), executes the
    /// fetch as one device batch, and posts completions. Returns the number
    /// of commands executed.
    pub fn process_round(&mut self) -> usize {
        let queue_count = self.queues.len();
        if queue_count == 0 {
            return 0;
        }
        let round_start_ns = self.device.clock().now_ns();
        // (queue index, id, submitted_at) per fetched command, in batch order.
        self.profiler.enter("arbitration");
        let mut meta: Vec<(usize, CommandId, u64)> = Vec::new();
        let mut commands: Vec<IoCommand> = Vec::new();
        for step in 0..queue_count {
            let qi = (self.rr_next + step) % queue_count;
            let pair = &mut self.queues[qi];
            let fetch = pair
                .sq
                .ring
                .len()
                .min(pair.cq.ring.free())
                .min(self.arbitration_burst);
            for _ in 0..fetch {
                let entry = pair.sq.ring.pop().expect("len checked");
                meta.push((qi, entry.id, entry.submitted_at_ns));
                commands.push(entry.command);
            }
        }
        self.rr_next = (self.rr_next + 1) % queue_count;
        self.profiler.exit();
        if commands.is_empty() {
            return 0;
        }
        let executed = commands.len();
        self.profiler.enter("nand_timing");
        let timed = self.device.submit_batch_timed(commands);
        self.profiler.exit();
        // A hard assert: a non-conforming override would otherwise silently
        // drop completions and leak their in-flight command ids.
        assert_eq!(
            timed.len(),
            executed,
            "submit_batch_timed must return exactly one result per command"
        );
        // Post completions in completion-time order (out of order relative
        // to submission when the device pipelines overlap commands); ties —
        // including every command on a serial device — stay in submission
        // order via the batch-index tie-break, so FIFO semantics degrade
        // gracefully. The metadata, results, and posting order live in one
        // slab sorted in place: no separate index vector to chase and no
        // `Vec<Option<..>>` take() pass over the results.
        struct Posting {
            completed_at_ns: u64,
            batch_index: u32,
            queue_index: u32,
            id: CommandId,
            submitted_at_ns: u64,
            result: CommandResult,
        }
        self.profiler.enter("completion_sort");
        let mut postings: Vec<Posting> = timed
            .into_iter()
            .zip(meta)
            .enumerate()
            .map(
                |(i, ((result, completed_at_ns), (qi, id, submitted_at_ns)))| Posting {
                    completed_at_ns,
                    batch_index: i as u32,
                    queue_index: qi as u32,
                    id,
                    submitted_at_ns,
                    result,
                },
            )
            .collect();
        postings.sort_unstable_by_key(|p| (p.completed_at_ns, p.batch_index));
        self.profiler.exit();
        self.profiler.enter("stats");
        for p in postings {
            let pair = &mut self.queues[p.queue_index as usize];
            pair.stats.completed += 1;
            if p.result.is_err() {
                pair.stats.errors += 1;
            }
            pair.stats
                .latency
                .record(p.completed_at_ns.saturating_sub(p.submitted_at_ns));
            pair.in_flight.remove(&p.id.0);
            pair.cq
                .ring
                .push(Completion {
                    id: p.id,
                    result: p.result,
                    submitted_at_ns: p.submitted_at_ns,
                    completed_at_ns: p.completed_at_ns,
                })
                .unwrap_or_else(|_| unreachable!("completion slot reserved at fetch"));
        }
        self.profiler.exit();
        self.rounds += 1;
        if self.sink.is_enabled() {
            let round_end_ns = self.device.clock().now_ns();
            self.sink.span(
                "host/rounds",
                "nvme_round",
                round_start_ns,
                round_end_ns,
                &[
                    ("round", self.rounds.to_string()),
                    ("executed", executed.to_string()),
                ],
            );
        }
        executed
    }

    /// Processes rounds until no forward progress is possible (all
    /// submission queues empty, or every non-empty one blocked on a full
    /// completion queue). Returns the total number of commands executed.
    pub fn run_to_idle(&mut self) -> usize {
        let mut total = 0;
        loop {
            let n = self.process_round();
            if n == 0 {
                return total;
            }
            total += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::PlainSsd;
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};

    fn controller() -> NvmeController<PlainSsd> {
        NvmeController::new(PlainSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        ))
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    #[test]
    fn ring_wraps_and_preserves_fifo() {
        let mut r: Ring<u32> = Ring::new(3);
        assert_eq!(r.pop(), None);
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.pop(), Some(1));
        r.push(3).unwrap();
        r.push(4).unwrap();
        assert_eq!(r.push(5), Err(5), "full at depth 3");
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(4));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn submit_process_reap_round_trip() {
        let mut c = controller();
        let q = c.create_queue_pair(4);
        c.submit(
            q,
            CommandId(7),
            IoCommand::Write {
                lpa: 0,
                data: page(9),
            },
        )
        .unwrap();
        assert_eq!(c.outstanding(q), 1);
        assert_eq!(c.run_to_idle(), 1);
        let done = c.pop_completion(q).unwrap();
        assert_eq!(done.id, CommandId(7));
        assert_eq!(done.result, Ok(CommandOutcome::Written));
        assert_eq!(c.outstanding(q), 0);
    }

    #[test]
    fn read_returns_written_data_and_flush_trim_complete() {
        let mut c = controller();
        let q = c.create_queue_pair(8);
        c.submit(
            q,
            CommandId(0),
            IoCommand::Write {
                lpa: 1,
                data: page(3),
            },
        )
        .unwrap();
        c.submit(q, CommandId(1), IoCommand::Read { lpa: 1 })
            .unwrap();
        c.submit(q, CommandId(2), IoCommand::Flush).unwrap();
        c.submit(q, CommandId(3), IoCommand::Trim { lpa: 1 })
            .unwrap();
        c.submit(q, CommandId(4), IoCommand::Read { lpa: 1 })
            .unwrap();
        c.run_to_idle();
        let done = c.drain_completions(q);
        assert_eq!(done.len(), 5);
        assert_eq!(done[1].result, Ok(CommandOutcome::Read(page(3))));
        assert_eq!(done[2].result, Ok(CommandOutcome::Flushed));
        assert_eq!(done[3].result, Ok(CommandOutcome::Trimmed));
        assert_eq!(
            done[4].result,
            Ok(CommandOutcome::Read(page(0))),
            "trimmed reads zero"
        );
    }

    #[test]
    fn completions_preserve_submission_order_within_queue() {
        let mut c = controller();
        let q = c.create_queue_pair(16);
        for i in 0..10u16 {
            c.submit(
                q,
                CommandId(i),
                IoCommand::Write {
                    lpa: u64::from(i),
                    data: page(i as u8),
                },
            )
            .unwrap();
        }
        c.run_to_idle();
        let ids: Vec<u16> = c.drain_completions(q).iter().map(|d| d.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sq_full_is_reported_and_recoverable() {
        let mut c = controller();
        let q = c.create_queue_pair(2);
        c.submit(q, CommandId(0), IoCommand::Flush).unwrap();
        c.submit(q, CommandId(1), IoCommand::Flush).unwrap();
        assert_eq!(
            c.submit(q, CommandId(2), IoCommand::Flush),
            Err(QueueError::SubmissionQueueFull { queue: q })
        );
        c.run_to_idle();
        c.drain_completions(q);
        c.submit(q, CommandId(2), IoCommand::Flush).unwrap();
    }

    #[test]
    fn duplicate_in_flight_id_rejected_until_completion_posted() {
        let mut c = controller();
        let q = c.create_queue_pair(4);
        c.submit(q, CommandId(5), IoCommand::Flush).unwrap();
        assert_eq!(
            c.submit(q, CommandId(5), IoCommand::Flush),
            Err(QueueError::CommandIdInFlight {
                queue: q,
                id: CommandId(5)
            })
        );
        c.run_to_idle();
        // Posted (even if un-reaped) frees the id, NVMe style.
        c.submit(q, CommandId(5), IoCommand::Flush).unwrap();
    }

    #[test]
    #[should_panic(expected = "queue pair depth must be at least 1")]
    fn zero_depth_queue_pair_is_rejected_loudly() {
        // Regression: a depth-0 pair used to construct an unusable ring and
        // only fail later, deep inside the ring arithmetic.
        let mut c = controller();
        let _ = c.create_queue_pair(0);
    }

    #[test]
    fn queue_pair_stats_merge_aggregates_counters_and_latency() {
        let mut c = controller();
        let a = c.create_queue_pair(8);
        let b = c.create_queue_pair(8);
        c.submit(
            a,
            CommandId(0),
            IoCommand::Write {
                lpa: 0,
                data: page(1),
            },
        )
        .unwrap();
        c.submit(a, CommandId(1), IoCommand::Read { lpa: 0 })
            .unwrap();
        c.submit(b, CommandId(0), IoCommand::Trim { lpa: 1 })
            .unwrap();
        c.submit(b, CommandId(1), IoCommand::Flush).unwrap();
        c.run_to_idle();
        let mut merged = c.stats(a).clone();
        merged.merge(c.stats(b));
        assert_eq!(merged.submitted, 4);
        assert_eq!(merged.completed, 4);
        assert_eq!(
            (merged.reads, merged.writes, merged.trims, merged.flushes),
            (1, 1, 1, 1)
        );
        assert_eq!(
            merged.latency.count(),
            c.stats(a).latency.count() + c.stats(b).latency.count()
        );
    }

    #[test]
    fn completions_post_out_of_order_by_completion_time() {
        // MLC timing: a write's program (~512 µs) far outlasts an unmapped
        // read (served from the mapping table instantly). Submitted
        // write-then-read in one arbitration batch, the read must complete
        // first — CQ order is completion time, not submission order — and
        // each completion must carry its own time.
        let mut c = NvmeController::with_arbitration_burst(
            PlainSsd::new(
                FlashGeometry::small_test(),
                NandTiming::mlc_default(),
                SimClock::new(),
            ),
            8,
        );
        let q = c.create_queue_pair(8);
        c.submit(
            q,
            CommandId(0),
            IoCommand::Write {
                lpa: 0,
                data: page(1),
            },
        )
        .unwrap();
        c.submit(q, CommandId(1), IoCommand::Read { lpa: 5 })
            .unwrap();
        assert_eq!(c.process_round(), 2, "one batch");
        let first = c.pop_completion(q).unwrap();
        let second = c.pop_completion(q).unwrap();
        assert_eq!(first.id, CommandId(1), "fast read completes first");
        assert_eq!(second.id, CommandId(0));
        assert!(first.completed_at_ns < second.completed_at_ns);
        assert_eq!(
            second.completed_at_ns,
            c.device().clock().now_ns(),
            "the batch blocks on its latest completion"
        );
    }

    #[test]
    fn batched_commands_overlap_across_channels() {
        // Two writes land on different channels (the allocator stripes), so
        // a 2-deep batch finishes in barely more than one program time —
        // the device-internal parallelism the queue depth buys.
        let serial_end = {
            let mut c = NvmeController::with_arbitration_burst(
                PlainSsd::new(
                    FlashGeometry::small_test(),
                    NandTiming::mlc_default(),
                    SimClock::new(),
                ),
                1,
            );
            let q = c.create_queue_pair(1);
            for i in 0..2u16 {
                c.submit(
                    q,
                    CommandId(i),
                    IoCommand::Write {
                        lpa: u64::from(i),
                        data: page(i as u8),
                    },
                )
                .unwrap();
                c.run_to_idle();
                c.drain_completions(q);
            }
            c.device().clock().now_ns()
        };
        let batched_end = {
            let mut c = NvmeController::with_arbitration_burst(
                PlainSsd::new(
                    FlashGeometry::small_test(),
                    NandTiming::mlc_default(),
                    SimClock::new(),
                ),
                2,
            );
            let q = c.create_queue_pair(2);
            for i in 0..2u16 {
                c.submit(
                    q,
                    CommandId(i),
                    IoCommand::Write {
                        lpa: u64::from(i),
                        data: page(i as u8),
                    },
                )
                .unwrap();
            }
            c.run_to_idle();
            c.device().clock().now_ns()
        };
        assert!(
            batched_end * 2 <= serial_end + 1_000,
            "2-deep batch must overlap on independent channels: \
             batched {batched_end} vs serial {serial_end}"
        );
    }

    #[test]
    fn unknown_queue_is_an_error() {
        let mut c = controller();
        assert_eq!(
            c.submit(QueueId(3), CommandId(0), IoCommand::Flush),
            Err(QueueError::UnknownQueue { queue: QueueId(3) })
        );
    }

    #[test]
    fn round_robin_interleaves_two_hosts() {
        let mut c = NvmeController::with_arbitration_burst(
            PlainSsd::new(
                FlashGeometry::small_test(),
                NandTiming::instant(),
                SimClock::new(),
            ),
            1,
        );
        let a = c.create_queue_pair(4);
        let b = c.create_queue_pair(4);
        for i in 0..3u16 {
            c.submit(
                a,
                CommandId(i),
                IoCommand::Write {
                    lpa: u64::from(i),
                    data: page(0xA),
                },
            )
            .unwrap();
            c.submit(
                b,
                CommandId(i),
                IoCommand::Write {
                    lpa: 8 + u64::from(i),
                    data: page(0xB),
                },
            )
            .unwrap();
        }
        // With burst 1, one round executes exactly one command per queue.
        assert_eq!(c.process_round(), 2);
        assert_eq!(c.completion_queue(a).len(), 1);
        assert_eq!(c.completion_queue(b).len(), 1);
        assert_eq!(c.run_to_idle(), 4);
        assert_eq!(c.stats(a).completed, 3);
        assert_eq!(c.stats(b).completed, 3);
    }

    #[test]
    fn full_completion_queue_backpressures_fetch_without_losing_commands() {
        let mut c = controller();
        let q = c.create_queue_pair(2);
        c.submit(q, CommandId(0), IoCommand::Flush).unwrap();
        c.submit(q, CommandId(1), IoCommand::Flush).unwrap();
        c.run_to_idle();
        // CQ now full; new submissions fit the SQ but cannot be processed.
        c.submit(q, CommandId(2), IoCommand::Flush).unwrap();
        c.submit(q, CommandId(3), IoCommand::Flush).unwrap();
        assert_eq!(c.process_round(), 0, "no CQ room, no fetch");
        assert_eq!(c.submission_queue(q).len(), 2);
        // Host reaps; the stalled commands then complete.
        assert_eq!(c.drain_completions(q).len(), 2);
        assert_eq!(c.run_to_idle(), 2);
        assert_eq!(c.drain_completions(q).len(), 2);
    }

    #[test]
    fn device_errors_travel_in_completions() {
        let mut c = controller();
        let q = c.create_queue_pair(2);
        let out_of_range = c.device().logical_pages() + 5;
        c.submit(q, CommandId(0), IoCommand::Read { lpa: out_of_range })
            .unwrap();
        c.run_to_idle();
        let done = c.pop_completion(q).unwrap();
        assert!(matches!(
            done.result,
            Err(DeviceError::OutOfRange { lpa, .. }) if lpa == out_of_range
        ));
        assert_eq!(c.stats(q).errors, 1);
    }

    #[test]
    fn stats_track_mix_and_latency() {
        let mut c = controller();
        let q = c.create_queue_pair(8);
        c.submit(
            q,
            CommandId(0),
            IoCommand::Write {
                lpa: 0,
                data: page(1),
            },
        )
        .unwrap();
        c.submit(q, CommandId(1), IoCommand::Read { lpa: 0 })
            .unwrap();
        c.submit(q, CommandId(2), IoCommand::Trim { lpa: 0 })
            .unwrap();
        c.submit(q, CommandId(3), IoCommand::Flush).unwrap();
        c.run_to_idle();
        let stats = c.stats(q);
        assert_eq!(
            (stats.reads, stats.writes, stats.trims, stats.flushes),
            (1, 1, 1, 1)
        );
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.latency.count(), 4);
    }

    #[test]
    fn works_over_mutable_reference_devices() {
        // The blanket `impl BlockDevice for &mut T` lets a controller borrow
        // a device without taking ownership.
        let mut device = PlainSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        );
        {
            let mut c = NvmeController::new(&mut device);
            let q = c.create_queue_pair(2);
            c.submit(
                q,
                CommandId(0),
                IoCommand::Write {
                    lpa: 2,
                    data: page(5),
                },
            )
            .unwrap();
            c.run_to_idle();
            assert_eq!(
                c.pop_completion(q).unwrap().result,
                Ok(CommandOutcome::Written)
            );
        }
        assert_eq!(device.read_page(2).unwrap(), page(5));
    }
}
