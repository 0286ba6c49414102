//! Replays record streams against a device through the NVMe-style queue
//! layer.
//!
//! [`replay_queued`] is the primary entry point: it drives an
//! [`NvmeController`] queue pair, keeping its submission ring as full as the
//! trace allows, so the device sees real queue depth and can batch work per
//! arbitration round. [`replay_fanout`] generalizes it to several queue
//! pairs at once — records spread round-robin across the pairs, the way a
//! multi-host front end drives a striped array (each arbitration round then
//! carries commands from every host, which an `RssdArray` splits per shard
//! and executes in parallel). [`replay`] is the depth-1 wrapper — a
//! depth-1 queue pair over a borrowed device, one command per batch, which
//! is also what the scalar [`BlockDevice`] methods submit.

use crate::record::{synthesize_page, IoOp, IoRecord};
use rssd_ssd::{
    BlockDevice, CommandId, CommandOutcome, Completion, DeviceError, IoCommand, NvmeController,
    QueueId,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Aggregate results of a replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[must_use]
pub struct ReplayStats {
    /// Records issued.
    pub records: u64,
    /// Pages read.
    pub pages_read: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Pages trimmed.
    pub pages_trimmed: u64,
    /// Writes refused with [`DeviceError::Stalled`] (capacity pressure the
    /// device could not relieve — data-loss territory for baselines).
    pub stalls: u64,
    /// Non-stall error completions observed. The first one aborts the
    /// replay; later ones (commands already in flight at the failure) are
    /// only counted here.
    pub errors: u64,
    /// Simulated time of the last issued record.
    pub end_ns: u64,
}

impl ReplayStats {
    /// Folds another replay's counters into this one — used both to stitch
    /// resumed replays (a power cut splits one trace into several partial
    /// replays of the same device) and for the fleet rollup across members.
    /// Counters add; `end_ns` takes the maximum, which is the fleet's
    /// completion time under the share-nothing model (members run in
    /// parallel on independent timelines, so the slowest stream bounds the
    /// merged replay). Associative and commutative, with
    /// `ReplayStats::default()` as identity.
    pub fn merge(&mut self, other: &ReplayStats) {
        self.records += other.records;
        self.pages_read += other.pages_read;
        self.pages_written += other.pages_written;
        self.pages_trimmed += other.pages_trimmed;
        self.stalls += other.stalls;
        self.errors += other.errors;
        self.end_ns = self.end_ns.max(other.end_ns);
    }
}

/// Outcome of a replay.
#[derive(Debug)]
#[must_use]
pub enum ReplayOutcome {
    /// Every record issued (stalls, if any, are counted in the stats).
    Completed(ReplayStats),
    /// A non-stall device error aborted the replay.
    Aborted {
        /// Stats up to the failure.
        stats: ReplayStats,
        /// The failing record.
        record: IoRecord,
        /// The device error.
        error: DeviceError,
    },
}

impl ReplayOutcome {
    /// The stats regardless of outcome.
    pub fn stats(&self) -> ReplayStats {
        match self {
            ReplayOutcome::Completed(s) => *s,
            ReplayOutcome::Aborted { stats, .. } => *stats,
        }
    }

    /// Unwraps the completed stats.
    ///
    /// # Panics
    ///
    /// Panics if the replay aborted.
    pub fn expect_completed(self) -> ReplayStats {
        match self {
            ReplayOutcome::Completed(s) => s,
            ReplayOutcome::Aborted { record, error, .. } => {
                panic!("replay aborted at {record:?}: {error}")
            }
        }
    }

    /// Index into the replayed record stream at which to resume after an
    /// abort: the number of records issued so far. The aborting record
    /// counts as issued — its unexecuted pages were never acknowledged, so
    /// a resuming caller (e.g. a host riding out a power cut) moves on to
    /// the next record rather than re-issuing a partially-applied one.
    pub fn resume_index(&self) -> usize {
        self.stats().records as usize
    }
}

/// Book-keeping for one (possibly fanned-out) replay: maps in-flight
/// `(queue, command id)` pairs back to their source records and folds
/// completions into the stats.
struct ReplayDriver {
    stats: ReplayStats,
    in_flight: HashMap<(u16, u16), IoRecord>,
    /// Next command id to try, per driven queue pair.
    next_id: Vec<u16>,
    abort: Option<(IoRecord, DeviceError)>,
}

impl ReplayDriver {
    fn new(queue_count: usize) -> Self {
        ReplayDriver {
            stats: ReplayStats::default(),
            in_flight: HashMap::new(),
            next_id: vec![0; queue_count],
            abort: None,
        }
    }

    /// Allocates a command id unused among in-flight commands of `queue`
    /// (queue depth is far below the 64 Ki id space, so the scan terminates
    /// quickly).
    fn alloc_id(&mut self, qi: usize, queue: QueueId) -> CommandId {
        while self.in_flight.contains_key(&(queue.0, self.next_id[qi])) {
            self.next_id[qi] = self.next_id[qi].wrapping_add(1);
        }
        let id = self.next_id[qi];
        self.next_id[qi] = self.next_id[qi].wrapping_add(1);
        CommandId(id)
    }

    fn absorb(&mut self, queue: QueueId, completion: Completion) {
        let Some(record) = self.in_flight.remove(&(queue.0, completion.id.0)) else {
            // A stale completion the caller left un-reaped on this queue
            // pair before the replay started: not ours, not counted.
            return;
        };
        match completion.result {
            Ok(CommandOutcome::Read(_)) => self.stats.pages_read += 1,
            Ok(CommandOutcome::Written) => self.stats.pages_written += 1,
            Ok(CommandOutcome::Trimmed) => self.stats.pages_trimmed += 1,
            Ok(CommandOutcome::Flushed) => {}
            Err(DeviceError::Stalled) => self.stats.stalls += 1,
            Err(error) => {
                self.stats.errors += 1;
                if self.abort.is_none() {
                    self.abort = Some((record, error));
                }
            }
        }
    }

    fn reap<D: BlockDevice>(&mut self, controller: &mut NvmeController<D>, queues: &[QueueId]) {
        for &queue in queues {
            while let Some(completion) = controller.pop_completion(queue) {
                self.absorb(queue, completion);
            }
        }
    }

    fn finish(self) -> ReplayOutcome {
        match self.abort {
            None => ReplayOutcome::Completed(self.stats),
            Some((record, error)) => ReplayOutcome::Aborted {
                stats: self.stats,
                record,
                error,
            },
        }
    }
}

/// Replays `records` against the device behind `controller` through the
/// queue pair `queue`, pacing the simulation clock to each record's arrival
/// time and synthesizing write payloads deterministically.
///
/// The queue pair's depth is the replay's queue depth, and the device is
/// work-conserving: commands already submitted are executed before the
/// clock may jump to a later arrival, so queue depth builds up exactly
/// when the device falls behind the trace's arrival rate (and those
/// backlogged windows are what execute as batches). Stalled writes are
/// counted and skipped (the workload's data is lost, as it would be on a
/// wedged device); any other error stops submission and aborts — commands
/// already submitted still complete before the abort is returned, as on a
/// real device (their successes and errors land in the stats counters; only
/// the *first* error is carried in [`ReplayOutcome::Aborted`]).
///
/// Other queue pairs on the same controller keep being arbitrated while
/// this replay runs — that is how multi-tenant scenarios share a device.
/// Completions left un-reaped on `queue` from before the replay are popped
/// but ignored.
///
/// # Panics
///
/// Panics if `queue` does not exist on `controller`.
pub fn replay_queued<D, I>(
    controller: &mut NvmeController<D>,
    queue: QueueId,
    records: I,
) -> ReplayOutcome
where
    D: BlockDevice,
    I: IntoIterator<Item = IoRecord>,
{
    replay_fanout(controller, &[queue], records)
}

/// Replays `records` fanned out round-robin across several queue pairs of
/// one controller — the multi-host shape: each record (all of its pages)
/// lands on one pair, every pair is kept as full as the trace allows, and
/// each arbitration round carries commands from all of them. Against an
/// `RssdArray` device this is the scale-out pipeline: the round's batch is
/// split per shard and the shards execute in parallel.
///
/// Semantics otherwise match [`replay_queued`] (which is the single-queue
/// special case): the clock paces to arrivals work-conservingly, stalls are
/// counted and skipped, the first non-stall error aborts after in-flight
/// commands drain.
///
/// # Panics
///
/// Panics if `queues` is empty or names a queue pair that does not exist on
/// `controller`.
pub fn replay_fanout<D, I>(
    controller: &mut NvmeController<D>,
    queues: &[QueueId],
    records: I,
) -> ReplayOutcome
where
    D: BlockDevice,
    I: IntoIterator<Item = IoRecord>,
{
    assert!(!queues.is_empty(), "fan-out needs at least one queue pair");
    let mut driver = ReplayDriver::new(queues.len());
    let page_size = controller.device().page_size();
    let logical_pages = controller.device().logical_pages();

    'records: for (index, record) in records.into_iter().enumerate() {
        // Work conservation: if this arrival is in the device's future, the
        // device would have drained its backlog before idling — execute
        // everything pending at the current clock before jumping forward.
        // (When the device is already at or past `at_ns`, i.e. saturated,
        // the backlog stays queued and batches up.)
        while controller.device().clock().now_ns() < record.at_ns && !driver.in_flight.is_empty() {
            if controller.process_round() == 0 {
                driver.reap(controller, queues);
                break;
            }
            driver.reap(controller, queues);
            if driver.abort.is_some() {
                break 'records;
            }
        }
        controller.device().clock().advance_to(record.at_ns);
        driver.stats.records += 1;
        driver.stats.end_ns = record.at_ns;

        let qi = index % queues.len();
        let queue = queues[qi];
        for i in 0..u64::from(record.pages) {
            let lpa = record.lpa + i;
            if lpa >= logical_pages {
                break;
            }
            let command = match record.op {
                IoOp::Read => IoCommand::Read { lpa },
                IoOp::Write => IoCommand::Write {
                    lpa,
                    data: synthesize_page(record.payload, record.payload_seed ^ i, page_size),
                },
                IoOp::Trim => IoCommand::Trim { lpa },
            };
            // Make room: process and reap until a submission slot frees up.
            while controller.submission_queue(queue).free() == 0 {
                controller.process_round();
                driver.reap(controller, queues);
                if driver.abort.is_some() {
                    break 'records;
                }
            }
            let id = driver.alloc_id(qi, queue);
            controller
                .submit(queue, id, command)
                .expect("submission slot verified free");
            driver.in_flight.insert((queue.0, id.0), record);
        }
    }

    // Drain the tail — also after an abort, so no command of this replay is
    // left in the submission queue to execute behind the caller's back.
    while !driver.in_flight.is_empty() {
        let executed = controller.process_round();
        driver.reap(controller, queues);
        if executed == 0 && !driver.in_flight.is_empty() {
            // Only possible if another tenant's queue wedged the round;
            // keep reaping our own completions but avoid spinning forever.
            break;
        }
    }
    driver.reap(controller, queues);
    driver.finish()
}

/// Scalar-compatible replay: wraps `device` in a temporary controller with a
/// single depth-1 queue pair, so records execute one at a time in arrival
/// order — the historical behaviour, now expressed through the queue layer.
pub fn replay<D, I>(device: &mut D, records: I) -> ReplayOutcome
where
    D: BlockDevice + ?Sized,
    I: IntoIterator<Item = IoRecord>,
{
    let mut controller = NvmeController::new(device);
    let queue = controller.create_queue_pair(1);
    replay_queued(&mut controller, queue, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PayloadKind;
    use crate::synth::WorkloadBuilder;
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_ssd::{CommandResult, PlainSsd};

    fn device() -> PlainSsd {
        PlainSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        )
    }

    #[test]
    fn replays_explicit_records() {
        let mut d = device();
        let records = vec![
            IoRecord::write(100, 0, PayloadKind::Text, 1),
            IoRecord::read(200, 0),
            IoRecord::trim(300, 0),
        ];
        let stats = replay(&mut d, records).expect_completed();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.pages_written, 1);
        assert_eq!(stats.pages_read, 1);
        assert_eq!(stats.pages_trimmed, 1);
        assert_eq!(stats.end_ns, 300);
    }

    #[test]
    fn clock_paced_to_arrivals() {
        let mut d = device();
        let records = vec![IoRecord::write(5_000_000, 0, PayloadKind::Zero, 1)];
        let _ = replay(&mut d, records).expect_completed();
        assert!(d.clock().now_ns() >= 5_000_000);
    }

    #[test]
    fn write_payloads_are_deterministic() {
        let mut a = device();
        let mut b = device();
        let recs: Vec<_> = WorkloadBuilder::new(64)
            .seed(9)
            .read_fraction(0.0)
            .build()
            .take(50)
            .collect();
        let _ = replay(&mut a, recs.clone()).expect_completed();
        let _ = replay(&mut b, recs).expect_completed();
        for lpa in 0..64u64 {
            assert_eq!(a.read_page(lpa).unwrap(), b.read_page(lpa).unwrap());
        }
    }

    #[test]
    fn out_of_bounds_tail_is_clipped() {
        let mut d = device();
        let logical = d.logical_pages();
        let records = vec![IoRecord {
            at_ns: 0,
            op: IoOp::Write,
            lpa: logical - 2,
            pages: 10,
            payload_seed: 1,
            payload: PayloadKind::Text,
        }];
        let stats = replay(&mut d, records).expect_completed();
        assert_eq!(stats.pages_written, 2);
    }

    #[test]
    fn multi_page_requests_write_all_pages() {
        let mut d = device();
        let records = vec![IoRecord {
            at_ns: 0,
            op: IoOp::Write,
            lpa: 0,
            pages: 4,
            payload_seed: 7,
            payload: PayloadKind::Binary,
        }];
        let stats = replay(&mut d, records).expect_completed();
        assert_eq!(stats.pages_written, 4);
        // Pages differ (seed xored with the page offset).
        assert_ne!(d.read_page(0).unwrap(), d.read_page(1).unwrap());
    }

    #[test]
    fn workload_replay_end_to_end() {
        let mut d = device();
        let recs: Vec<_> = WorkloadBuilder::new(d.logical_pages())
            .seed(11)
            .read_fraction(0.3)
            .trim_fraction(0.05)
            .build()
            .take(2000)
            .collect();
        let stats = replay(&mut d, recs).expect_completed();
        assert_eq!(stats.records, 2000);
        assert!(stats.pages_written > 0);
        assert!(stats.pages_read > 0);
    }

    #[test]
    fn queued_replay_matches_scalar_results_at_any_depth() {
        let recs: Vec<_> = WorkloadBuilder::new(64)
            .seed(3)
            .read_fraction(0.25)
            .trim_fraction(0.05)
            .build()
            .take(600)
            .collect();
        let mut scalar_dev = device();
        let scalar = replay(&mut scalar_dev, recs.clone()).expect_completed();
        for depth in [2usize, 8, 32] {
            let mut controller = NvmeController::with_arbitration_burst(device(), depth);
            let queue = controller.create_queue_pair(depth);
            let queued = replay_queued(&mut controller, queue, recs.clone()).expect_completed();
            assert_eq!(queued, scalar, "depth {depth}");
            let mut dev = controller.into_device();
            for lpa in 0..64u64 {
                assert_eq!(
                    dev.read_page(lpa).unwrap(),
                    scalar_dev.read_page(lpa).unwrap(),
                    "contents diverged at depth {depth}, lpa {lpa}"
                );
            }
        }
    }

    #[test]
    fn queued_replay_reports_queue_depth_in_stats() {
        let recs: Vec<_> = WorkloadBuilder::new(64)
            .seed(5)
            .read_fraction(0.0)
            .build()
            .take(100)
            .collect();
        let mut controller = NvmeController::new(device());
        let queue = controller.create_queue_pair(16);
        let stats = replay_queued(&mut controller, queue, recs).expect_completed();
        assert_eq!(stats.pages_written, controller.stats(queue).completed);
        assert_eq!(controller.stats(queue).latency.count(), stats.pages_written);
        assert_eq!(controller.outstanding(queue), 0, "tail fully drained");
    }

    /// Wraps a device and records the clock time at which each write
    /// actually executes.
    struct WriteTimeProbe {
        inner: PlainSsd,
        write_times: Vec<u64>,
    }

    impl BlockDevice for WriteTimeProbe {
        fn model_name(&self) -> &str {
            "WriteTimeProbe"
        }
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn logical_pages(&self) -> u64 {
            self.inner.logical_pages()
        }
        fn clock(&self) -> &SimClock {
            self.inner.clock()
        }
        fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
            let now = self.inner.clock().now_ns();
            let writes = commands
                .iter()
                .filter(|c| matches!(c, IoCommand::Write { .. }));
            self.write_times.extend(writes.map(|_| now));
            self.inner.submit_batch_timed(commands)
        }
    }

    #[test]
    fn commands_execute_at_their_own_arrival_time_not_the_next() {
        // Work conservation: with the device keeping up (instant timing),
        // record N must execute at t_N, not when record N+1 arrives.
        let mut probe = WriteTimeProbe {
            inner: device(),
            write_times: Vec::new(),
        };
        let records = vec![
            IoRecord::write(1_000, 0, PayloadKind::Text, 1),
            IoRecord::write(5_000_000, 1, PayloadKind::Text, 2),
            IoRecord::write(9_000_000, 2, PayloadKind::Text, 3),
        ];
        let _ = replay(&mut probe, records).expect_completed();
        assert_eq!(probe.write_times, vec![1_000, 5_000_000, 9_000_000]);
    }

    /// A device whose reads always fail — exercises the abort path, which a
    /// healthy simulated device cannot reach through `replay` (out-of-range
    /// tails are clipped before submission).
    struct FailingReads(PlainSsd);

    impl BlockDevice for FailingReads {
        fn model_name(&self) -> &str {
            "FailingReads"
        }
        fn page_size(&self) -> usize {
            self.0.page_size()
        }
        fn logical_pages(&self) -> u64 {
            self.0.logical_pages()
        }
        fn clock(&self) -> &SimClock {
            self.0.clock()
        }
        fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
            let results = commands.into_iter().map(|command| match command {
                IoCommand::Read { lpa } => {
                    let refused = DeviceError::OutOfRange {
                        lpa,
                        logical_pages: 0,
                    };
                    (Err(refused), self.0.clock().now_ns())
                }
                other => (self.0.execute(other), self.0.clock().now_ns()),
            });
            results.collect()
        }
    }

    #[test]
    fn fanout_across_queues_matches_single_queue_totals() {
        let recs: Vec<_> = WorkloadBuilder::new(64)
            .seed(17)
            .read_fraction(0.3)
            .trim_fraction(0.05)
            .build()
            .take(400)
            .collect();
        let mut single = NvmeController::new(device());
        let q = single.create_queue_pair(8);
        let single_stats = replay_queued(&mut single, q, recs.clone()).expect_completed();

        let mut fanned = NvmeController::new(device());
        let queues: Vec<QueueId> = (0..4).map(|_| fanned.create_queue_pair(8)).collect();
        let fan_stats = replay_fanout(&mut fanned, &queues, recs).expect_completed();

        assert_eq!(fan_stats.records, single_stats.records);
        assert_eq!(fan_stats.pages_written, single_stats.pages_written);
        assert_eq!(fan_stats.pages_read, single_stats.pages_read);
        assert_eq!(fan_stats.pages_trimmed, single_stats.pages_trimmed);
        // Every queue pair carried work and drained fully.
        for &queue in &queues {
            assert!(fanned.stats(queue).completed > 0, "{queue} idle");
            assert_eq!(fanned.outstanding(queue), 0);
        }
        let total: u64 = queues.iter().map(|&q| fanned.stats(q).completed).sum();
        assert_eq!(
            total,
            fan_stats.pages_written + fan_stats.pages_read + fan_stats.pages_trimmed
        );
    }

    #[test]
    fn fanout_aborts_cleanly_on_every_queue() {
        let mut controller = NvmeController::new(FailingReads(device()));
        let queues: Vec<QueueId> = (0..3).map(|_| controller.create_queue_pair(4)).collect();
        let records = vec![
            IoRecord::write(0, 0, PayloadKind::Text, 1),
            IoRecord::write(5, 1, PayloadKind::Text, 2),
            IoRecord::read(10, 0),
            IoRecord::write(20, 2, PayloadKind::Text, 3),
        ];
        match replay_fanout(&mut controller, &queues, records) {
            ReplayOutcome::Aborted { record, error, .. } => {
                assert_eq!(record.op, IoOp::Read);
                assert!(matches!(error, DeviceError::OutOfRange { .. }));
            }
            ReplayOutcome::Completed(_) => panic!("must abort on read failure"),
        }
        for &queue in &queues {
            assert_eq!(controller.outstanding(queue), 0);
            assert!(controller.submission_queue(queue).is_empty());
            assert!(controller.completion_queue(queue).is_empty());
        }
    }

    #[test]
    fn resume_index_points_past_the_aborting_record() {
        let mut controller = NvmeController::new(FailingReads(device()));
        let queue = controller.create_queue_pair(1);
        let records = vec![
            IoRecord::write(0, 0, PayloadKind::Text, 1),
            IoRecord::read(10, 0), // aborts here, counted as issued
            IoRecord::write(20, 1, PayloadKind::Text, 2),
        ];
        let outcome = replay_queued(&mut controller, queue, records.clone());
        assert!(matches!(outcome, ReplayOutcome::Aborted { .. }));
        assert_eq!(outcome.resume_index(), 2);
        // Resuming from the index replays exactly the untouched tail.
        assert_eq!(records.len() - outcome.resume_index(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one queue pair")]
    fn fanout_rejects_empty_queue_list() {
        let mut controller = NvmeController::new(device());
        let _ = replay_fanout(&mut controller, &[], Vec::new());
    }

    #[test]
    fn queued_replay_aborts_on_non_stall_error() {
        let mut controller = NvmeController::new(FailingReads(device()));
        let queue = controller.create_queue_pair(4);
        let records = vec![
            IoRecord::write(0, 0, PayloadKind::Text, 1),
            IoRecord::read(10, 0),
            IoRecord::write(20, 1, PayloadKind::Text, 2),
        ];
        match replay_queued(&mut controller, queue, records) {
            ReplayOutcome::Aborted {
                stats,
                record,
                error,
            } => {
                assert_eq!(record.op, IoOp::Read);
                assert!(matches!(error, DeviceError::OutOfRange { .. }));
                // Commands already in flight when the failure completes may
                // still land (queue semantics); the write before it must.
                assert!(stats.pages_written >= 1, "{stats:?}");
            }
            ReplayOutcome::Completed(_) => panic!("must abort on read failure"),
        }
        // Nothing of the aborted replay may linger to execute later.
        assert_eq!(controller.outstanding(queue), 0);
        assert!(controller.submission_queue(queue).is_empty());
        assert!(controller.completion_queue(queue).is_empty());
    }

    fn stats_sample(base: u64) -> ReplayStats {
        ReplayStats {
            records: base,
            pages_read: base * 2,
            pages_written: base * 3,
            pages_trimmed: base / 2,
            stalls: base / 4,
            errors: base / 8,
            end_ns: base * 1_000,
        }
    }

    #[test]
    fn stats_merge_identity_and_associativity() {
        let (a, b, c) = (stats_sample(8), stats_sample(80), stats_sample(800));
        let mut with_identity = a;
        with_identity.merge(&ReplayStats::default());
        assert_eq!(with_identity, a);
        let mut ab_c = a;
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn stats_merge_takes_the_slowest_end() {
        let mut fast = stats_sample(8);
        let slow = stats_sample(80);
        fast.merge(&slow);
        assert_eq!(fast.end_ns, 80_000);
        assert_eq!(fast.records, 88);
    }
}
