//! The one timed block path under every device model.
//!
//! [`execute_batch`] is the only code that runs host commands over an
//! [`Ftl`]: it dispatches each command onto the flash unit pipelines
//! (writes stripe across channels, reads ride the units their pages live
//! on), hands back one completion time per command — out of order relative
//! to submission — and advances the clock **once**, to the batch's latest
//! completion, when the batch returns. A scalar call is a batch of one
//! through the same code (see [`BlockDevice`](crate::BlockDevice)).
//!
//! What a device model adds to a plain SSD is a [`BlockPolicy`]: hooks the
//! executor calls at fixed points of that path. A hook can only add work,
//! so a model's overhead versus [`PlainSsd`](crate::PlainSsd) is the work
//! of its hooks.

use crate::device::DeviceError;
use crate::nvme::{CommandOutcome, CommandResult, IoCommand};
use crate::queue::LatencyStats;
use rssd_ftl::{Ftl, FtlError};

/// What a device model does around the block path of [`execute_batch`].
/// Every hook defaults to nothing: the empty policy is an SSD that keeps
/// no history at all.
pub trait BlockPolicy {
    /// What [`admit`](Self::admit) learned about a command while the host
    /// payload was still in hand, passed on to
    /// [`committed`](Self::committed).
    type Note: Default;

    /// The FTL commands dispatch onto, and the recorder of their service
    /// times.
    fn parts(&mut self) -> (&mut Ftl, &mut LatencyStats);

    /// **Admission**, before a command is dispatched: refuse it, or make
    /// it wait by advancing the clock.
    ///
    /// # Errors
    ///
    /// The error the refused command completes with.
    fn admit(&mut self, command: &IoCommand) -> Result<Self::Note, DeviceError> {
        let _ = command;
        Ok(Self::Note::default())
    }

    /// **Relief**: the FTL has no free page for a write because the policy's
    /// pins hold every reclaimable block, `attempt` retries into the same
    /// command. Release some and return `true` to retry; `false` completes
    /// the write as [`DeviceError::Stalled`].
    fn relieve(&mut self, attempt: u32) -> bool {
        let _ = attempt;
        false
    }

    /// **Committed**: the FTL accepted the command at `lpa` and its mapping
    /// change is in place; the versions it made stale wait in
    /// [`Ftl::drain_stale_events`]. Not called for a refused or failed
    /// command, nor for `Flush`.
    fn committed(&mut self, lpa: u64, outcome: &CommandOutcome, note: Self::Note) {
        let _ = (lpa, outcome, note);
    }

    /// **Flush**: a `Flush` barrier was admitted.
    fn barrier(&mut self) {}

    /// **Batch end**: every command of the batch is dispatched; the clock
    /// has not yet moved to their completion.
    fn batch_end(&mut self) {}
}

/// Executes `commands` in order on `dev`'s FTL under its policy, returning
/// `(result, completion_time_ns)` per command — the body of every
/// FTL-backed model's
/// [`submit_batch_timed`](crate::BlockDevice::submit_batch_timed). A
/// failed command completes at its dispatch time.
pub fn execute_batch<P: BlockPolicy>(
    dev: &mut P,
    commands: Vec<IoCommand>,
) -> Vec<(CommandResult, u64)> {
    let mut out = Vec::with_capacity(commands.len());
    let mut horizon = now_ns(dev);
    for command in commands {
        let dispatched = now_ns(dev);
        let (result, done) = match execute_one(dev, command) {
            Ok((outcome, done)) => (Ok(outcome), done),
            Err(e) => (Err(e), dispatched),
        };
        horizon = horizon.max(done);
        out.push((result, done));
    }
    dev.batch_end();
    dev.parts().0.clock().advance_to(horizon);
    out
}

fn now_ns<P: BlockPolicy>(dev: &mut P) -> u64 {
    dev.parts().0.clock().now_ns()
}

fn execute_one<P: BlockPolicy>(
    dev: &mut P,
    command: IoCommand,
) -> Result<(CommandOutcome, u64), DeviceError> {
    let note = dev.admit(&command)?;
    let start = now_ns(dev);
    let (ftl, _) = dev.parts();
    let (lpa, outcome, ticket) = match command {
        IoCommand::Read { lpa } => {
            let (data, ticket) = ftl.read_async(lpa)?;
            // Unmapped pages read as zeroes, as after trim/deallocate.
            let page = data.unwrap_or_else(|| vec![0u8; ftl.geometry().page_size]);
            (lpa, CommandOutcome::Read(page), Some(ticket))
        }
        IoCommand::Write { lpa, data } => {
            // `DeviceFull` is raised before the NAND consumes the payload,
            // so each retry resubmits the buffer the FTL handed back.
            let mut payload = data;
            let mut attempt = 0;
            let ticket = loop {
                match dev.parts().0.write_async_reclaim(lpa, payload) {
                    Ok(ticket) => break ticket,
                    Err((FtlError::DeviceFull, Some(reclaimed))) if dev.relieve(attempt) => {
                        payload = reclaimed;
                        attempt += 1;
                    }
                    Err((FtlError::DeviceFull, _)) => return Err(DeviceError::Stalled),
                    Err((e, _)) => return Err(e.into()),
                }
            };
            (lpa, CommandOutcome::Written, Some(ticket))
        }
        // Pure mapping-table work: no flash op, no simulated time.
        IoCommand::Trim { lpa } => {
            ftl.trim(lpa)?;
            (lpa, CommandOutcome::Trimmed, None)
        }
        IoCommand::Flush => {
            dev.barrier();
            return Ok((CommandOutcome::Flushed, now_ns(dev)));
        }
    };
    dev.committed(lpa, &outcome, note);
    let done = match ticket {
        Some(ticket) => {
            dev.parts().1.record(ticket.latency_ns(start));
            ticket.done_ns
        }
        None => now_ns(dev),
    };
    Ok((outcome, done))
}
