//! The fault injector: a [`BlockDevice`] wrapper that executes a
//! [`FaultSchedule`] against the device it wraps.
//!
//! The injector maintains the **operation counter** fault schedules are
//! keyed by: every command it forwards increments it, and before each
//! command it fires the events that have come due — partition windows open
//! and heal, shards die, and power cuts land. A cut that falls inside a
//! `submit_batch` **tears the batch**: the prefix before the cut executes
//! through the device's batched path and persists; the suffix completes
//! with [`DeviceError::PowerLoss`], exactly like commands that were in
//! flight when a real capacitor ran dry. A scalar call is a batch of one:
//! it either runs or is cut whole, and never counts as torn.
//!
//! Because the injector is itself a [`BlockDevice`] (and a
//! [`FaultTarget`]), it composes under the NVMe controller, the replay
//! harnesses, the attack actors and `RssdArray` unchanged — faults are a
//! wrapper, never a special code path in the device.

use crate::remote::PartitionMode;
use crate::schedule::{FaultEvent, FaultSchedule};
use crate::target::{FaultError, FaultTarget, PowerRestoreReport};
use rssd_core::{HistoryAudit, OffloadStats, RemoteFaultStats};
use rssd_flash::SimClock;
use rssd_obs::SinkHandle;
use rssd_ssd::{BlockDevice, CommandResult, DeviceError, IoCommand};
use serde::{Deserialize, Serialize};

/// One torn `submit_batch`: the persisted prefix and the lost suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TornBatch {
    /// Commands in the batch.
    pub batch_len: usize,
    /// Commands that executed (and persisted) before the cut.
    pub persisted: usize,
    /// Operation counter at the cut.
    pub at_op: u64,
}

/// A [`BlockDevice`] wrapper executing a [`FaultSchedule`].
#[derive(Debug)]
pub struct FaultInjector<D: FaultTarget> {
    inner: D,
    events: Vec<FaultEvent>,
    next_event: usize,
    ops_executed: u64,
    powered_off: bool,
    power_cuts: u64,
    torn_batches: Vec<TornBatch>,
    /// Events that could not be applied (e.g. a shard death scheduled
    /// against a bare device, or a queue-mode partition over a remote that
    /// cannot buffer). A non-zero count means the schedule and topology
    /// disagree — surfaced instead of silently dropped.
    skipped_events: u64,
    model_name: String,
    /// Trace sink for fault-firing instants on the `faults` track.
    sink: SinkHandle,
}

impl<D: FaultTarget> FaultInjector<D> {
    /// Wraps `inner` with `schedule` armed from operation 0.
    pub fn new(inner: D, schedule: &FaultSchedule) -> Self {
        let model_name = format!("Faulty({})", inner.model_name());
        let mut injector = FaultInjector {
            inner,
            events: Vec::new(),
            next_event: 0,
            ops_executed: 0,
            powered_off: false,
            power_cuts: 0,
            torn_batches: Vec::new(),
            skipped_events: 0,
            model_name,
            sink: SinkHandle::disabled(),
        };
        injector.arm(schedule);
        injector
    }

    /// Replaces the armed schedule. Events already in the past (at_op below
    /// the current counter) are dropped — that is the documented way to run
    /// fault-free phases first and arm an absolute-indexed schedule
    /// afterwards (see [`FaultSchedule::offset`]), so they do *not* count
    /// as [`skipped_events`](Self::skipped_events) (which flags events the
    /// topology could not apply).
    pub fn arm(&mut self, schedule: &FaultSchedule) {
        self.events = schedule.events().to_vec();
        self.next_event = 0;
        while self
            .events
            .get(self.next_event)
            .is_some_and(|e| e.at_op() < self.ops_executed)
        {
            self.next_event += 1;
        }
    }

    /// Commands executed (the schedule's clock).
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// `true` after a power cut until [`Self::restore_power`].
    pub fn powered_off(&self) -> bool {
        self.powered_off
    }

    /// Power cuts fired so far.
    pub fn power_cuts(&self) -> u64 {
        self.power_cuts
    }

    /// Batches a power cut tore (prefix persisted, suffix lost).
    pub fn torn_batches(&self) -> &[TornBatch] {
        &self.torn_batches
    }

    /// Scheduled events that could not be applied to this topology.
    pub fn skipped_events(&self) -> u64 {
        self.skipped_events
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Brings the device back after a cut: the wrapped device crashes
    /// (dropping volatile state) and recovers from flash plus the remote
    /// evidence chain, then the injector resumes executing commands (and
    /// firing the remaining schedule).
    ///
    /// # Errors
    ///
    /// Propagates the device's recovery failure; the device stays down.
    pub fn restore_power(&mut self) -> Result<PowerRestoreReport, FaultError> {
        let report = self.inner.power_restore()?;
        self.powered_off = false;
        Ok(report)
    }

    fn trace_fault(&self, name: &str, at_op: u64, extra: Option<(&str, String)>) {
        if !self.sink.is_enabled() {
            return;
        }
        let mut args = vec![("at_op", at_op.to_string())];
        if let Some((k, v)) = extra {
            args.push((k, v));
        }
        self.sink
            .instant("faults", name, self.inner.clock().now_ns(), &args);
    }

    /// Fires every event due at the current op counter. Returns `true` when
    /// a power cut landed (the caller must fail the op with `PowerLoss`).
    fn fire_due_events(&mut self) -> bool {
        while let Some(event) = self.events.get(self.next_event).copied() {
            if event.at_op() > self.ops_executed {
                return false;
            }
            self.next_event += 1;
            match event {
                FaultEvent::PowerCut { at_op } => {
                    self.powered_off = true;
                    self.power_cuts += 1;
                    self.trace_fault("power_cut", at_op, None);
                    return true;
                }
                FaultEvent::PartitionStart { mode, at_op } => {
                    self.trace_fault(
                        "partition_start",
                        at_op,
                        Some(("mode", format!("{mode:?}"))),
                    );
                    if !self.inner.set_partition(mode) {
                        self.skipped_events += 1;
                    }
                }
                FaultEvent::PartitionHeal { at_op } => {
                    self.trace_fault("partition_heal", at_op, None);
                    self.inner.heal_partition();
                }
                FaultEvent::ShardDeath { shard, at_op } => {
                    self.trace_fault("shard_death", at_op, Some(("shard", shard.to_string())));
                    if self.inner.kill_shard(shard).is_err() {
                        self.skipped_events += 1;
                    }
                }
            }
        }
        false
    }
}

impl<D: FaultTarget> BlockDevice for FaultInjector<D> {
    fn model_name(&self) -> &str {
        &self.model_name
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

    /// Forwards the batch through the wrapped device's native (pipelined)
    /// batched path, chunked at event boundaries so mid-batch events fire
    /// at their exact op. A power cut mid-batch tears it: the executed
    /// prefix persists (with its real completion times), the rest
    /// completes with `PowerLoss` at the time of the cut.
    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
        let total = commands.len();
        let mut results: Vec<(CommandResult, u64)> = Vec::with_capacity(total);
        let mut rest = commands;
        while !rest.is_empty() {
            if self.powered_off || self.fire_due_events() {
                let persisted = results.len();
                if persisted > 0 {
                    self.torn_batches.push(TornBatch {
                        batch_len: total,
                        persisted,
                        at_op: self.ops_executed,
                    });
                }
                let cut_at = self.inner.clock().now_ns();
                results.extend(
                    rest.drain(..)
                        .map(|_| (Err(DeviceError::PowerLoss), cut_at)),
                );
                break;
            }
            let chunk_len = match self.events.get(self.next_event) {
                Some(e) => (e.at_op().saturating_sub(self.ops_executed) as usize).min(rest.len()),
                None => rest.len(),
            };
            debug_assert!(chunk_len > 0, "due events were fired above");
            let chunk: Vec<IoCommand> = rest.drain(..chunk_len).collect();
            let chunk_results = self.inner.submit_batch_timed(chunk);
            self.ops_executed += chunk_results.len() as u64;
            results.extend(chunk_results);
        }
        results
    }

    fn recover_page(&mut self, lpa: u64) -> Option<Vec<u8>> {
        if self.powered_off {
            return None;
        }
        self.inner.recover_page(lpa)
    }
}

impl<D: FaultTarget> FaultTarget for FaultInjector<D> {
    fn power_restore(&mut self) -> Result<PowerRestoreReport, FaultError> {
        self.restore_power()
    }

    fn set_partition(&mut self, mode: PartitionMode) -> bool {
        self.inner.set_partition(mode)
    }

    fn heal_partition(&mut self) -> u64 {
        self.inner.heal_partition()
    }

    fn kill_shard(&mut self, shard: usize) -> Result<(), FaultError> {
        self.inner.kill_shard(shard)
    }

    fn revive_dead_shards(&mut self, restore_before_ns: Option<u64>) -> Result<usize, FaultError> {
        self.inner.revive_dead_shards(restore_before_ns)
    }

    fn history_audit(&mut self) -> HistoryAudit {
        self.inner.history_audit()
    }

    fn recover_as_of(&mut self, lpa: u64, before_ns: u64) -> Option<Vec<u8>> {
        if self.powered_off {
            return None;
        }
        self.inner.recover_as_of(lpa, before_ns)
    }

    fn offload_totals(&self) -> OffloadStats {
        self.inner.offload_totals()
    }

    fn nand_totals(&self) -> rssd_flash::NandStats {
        self.inner.nand_totals()
    }

    fn ftl_totals(&self) -> rssd_ftl::FtlStats {
        self.inner.ftl_totals()
    }

    fn latency_totals(&self) -> rssd_ssd::LatencyStats {
        self.inner.latency_totals()
    }

    fn remote_fault_totals(&self) -> RemoteFaultStats {
        self.inner.remote_fault_totals()
    }

    fn arm_schedule(&mut self, schedule: &FaultSchedule) -> bool {
        self.arm(schedule);
        true
    }

    fn ops_count(&self) -> u64 {
        self.ops_executed
    }

    fn power_cut_count(&self) -> u64 {
        self.power_cuts
    }

    fn torn_batch_count(&self) -> u64 {
        self.torn_batches.len() as u64
    }

    fn skipped_event_count(&self) -> u64 {
        self.skipped_events
    }

    fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.inner.set_trace_sink(sink.clone());
        self.sink = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::scenario_member;
    use rssd_core::{LoopbackTarget, RssdDevice, WireRemote};
    use rssd_net::LinkConfig;

    type Dut = RssdDevice<WireRemote<LoopbackTarget>>;

    fn dut() -> Dut {
        scenario_member(
            1,
            false,
            WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal()),
        )
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    #[test]
    fn no_schedule_is_transparent() {
        let mut f = FaultInjector::new(dut(), &FaultSchedule::none());
        f.write_page(0, page(1)).unwrap();
        assert_eq!(f.read_page(0).unwrap(), page(1));
        assert_eq!(f.ops_executed(), 2);
        assert_eq!(f.power_cuts(), 0);
    }

    #[test]
    fn power_cut_lands_at_the_exact_op_and_restore_resumes() {
        let mut f = FaultInjector::new(dut(), &FaultSchedule::power_cut(3));
        f.write_page(0, page(1)).unwrap();
        f.write_page(1, page(2)).unwrap();
        f.write_page(2, page(3)).unwrap();
        // Op 3: the cut fires before execution.
        assert!(matches!(
            f.write_page(3, page(4)),
            Err(DeviceError::PowerLoss)
        ));
        assert!(f.powered_off());
        assert!(matches!(f.read_page(0), Err(DeviceError::PowerLoss)));
        let _ = f.restore_power().unwrap();
        // Acked writes survived; the cut one never happened.
        assert_eq!(f.read_page(0).unwrap(), page(1));
        assert_eq!(f.read_page(3).unwrap(), page(0));
        assert_eq!(f.power_cuts(), 1);
    }

    #[test]
    fn mid_batch_cut_tears_the_batch_persisting_the_prefix() {
        let mut f = FaultInjector::new(dut(), &FaultSchedule::power_cut(2));
        let batch: Vec<IoCommand> = (0..5)
            .map(|i| IoCommand::Write {
                lpa: i,
                data: page(i as u8 + 1),
            })
            .collect();
        let results = f.submit_batch(batch);
        assert_eq!(results.len(), 5);
        assert!(results[0].is_ok() && results[1].is_ok());
        for r in &results[2..] {
            assert_eq!(*r, Err(DeviceError::PowerLoss));
        }
        assert_eq!(
            f.torn_batches(),
            &[TornBatch {
                batch_len: 5,
                persisted: 2,
                at_op: 2
            }]
        );
        let _ = f.restore_power().unwrap();
        assert_eq!(f.read_page(0).unwrap(), page(1), "prefix persisted");
        assert_eq!(f.read_page(1).unwrap(), page(2), "prefix persisted");
        assert_eq!(f.read_page(2).unwrap(), page(0), "suffix never executed");
    }

    #[test]
    fn partition_window_opens_and_heals_by_op_index() {
        use crate::schedule::FaultEvent;
        let schedule = FaultSchedule::new(
            "w",
            vec![
                FaultEvent::PartitionStart {
                    at_op: 1,
                    mode: PartitionMode::Refuse,
                },
                FaultEvent::PartitionHeal { at_op: 3 },
            ],
        );
        let mut f = FaultInjector::new(dut(), &schedule);
        f.write_page(0, page(1)).unwrap(); // op 0
        f.write_page(0, page(2)).unwrap(); // op 1: window opens first
        f.flush().unwrap(); // op 2: offload refused, data pinned
        assert!(f.inner().offload_stats().offload_failures > 0);
        f.flush().unwrap(); // op 3: healed first, offload lands
        assert!(f.inner().offload_stats().segments_offloaded > 0);
        assert_eq!(f.skipped_events(), 0);
    }

    #[test]
    fn unsupported_events_are_counted_not_silent() {
        // A shard death against a bare device cannot apply.
        let mut f = FaultInjector::new(dut(), &FaultSchedule::shard_death(1, 0));
        f.write_page(0, page(1)).unwrap();
        assert_eq!(f.skipped_events(), 1);
    }

    #[test]
    fn arm_after_progress_anchors_future_events() {
        let mut f = FaultInjector::new(dut(), &FaultSchedule::none());
        f.write_page(0, page(1)).unwrap();
        f.write_page(1, page(2)).unwrap();
        f.arm(&FaultSchedule::power_cut(1).offset(f.ops_executed()));
        f.write_page(2, page(3)).unwrap(); // op 2 — one more before the cut
        assert!(matches!(
            f.write_page(3, page(4)),
            Err(DeviceError::PowerLoss)
        ));
    }
}
