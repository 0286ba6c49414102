//! The benchmark's own closed-loop driver: one client, fixed queue depth,
//! arrival timestamps ignored.
//!
//! `submit` until `depth` commands are outstanding → `process_round` →
//! `pop_completion` until the completion queue is empty, repeated until the
//! script is done. Write payloads are cloned from the pool at submit time.
//! The driver checks that every submitted command completes exactly once
//! and folds every read's bytes into an order-independent digest, so two
//! arms fed the same script can be compared read for read.

use crate::inputs::{mix64, Cmd, Pool};
use crate::spans::Tracer;
use rssd_ssd::{BlockDevice, CommandId, CommandOutcome, IoCommand, NvmeController, QueueId};
use rssd_trace::IoOp;

/// What one drive of a script observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Commands submitted.
    pub submitted: u64,
    /// Completions reaped.
    pub completed: u64,
    /// Completions that carried an error (stalls and refusals included).
    pub failed: u64,
    /// Arbitration rounds that executed at least one command.
    pub rounds: u64,
    /// Order-independent digest over `(script index, page bytes)` of every
    /// successful read.
    pub read_digest: u64,
    /// Submission→completion latency of every completion, in simulated
    /// nanoseconds, in reap order.
    pub latencies_ns: Vec<u64>,
    /// Simulated time when the drive started.
    pub sim_start_ns: u64,
    /// Simulated time when the last completion was reaped.
    pub sim_end_ns: u64,
}

/// A controller with one queue pair of `depth` entries whose arbitration
/// burst lets a round fetch the whole queue.
pub fn controller<D: BlockDevice>(device: D, depth: usize) -> (NvmeController<D>, QueueId) {
    let mut controller = NvmeController::with_arbitration_burst(device, depth);
    let queue = controller.create_queue_pair(depth);
    (controller, queue)
}

/// Digest of one read: eight words spread over the page (the full page
/// would cost a tenth of a QD1 read; whole pages are compared after the
/// run, on sampled addresses), finalized with the script index so equal
/// pages at different positions contribute differently.
fn read_token(index: u64, data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for chunk in data.chunks_exact(8).step_by(data.len() / 64) {
        h ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h ^ index)
}

/// Drives `script` through `queue` at queue depth `depth`.
///
/// # Panics
///
/// Panics if the queue layer misbehaves: a submission refused with free
/// slots, a completion for a command that is not outstanding, a round that
/// makes no progress, or a command left without a completion.
pub fn drive<D: BlockDevice>(
    controller: &mut NvmeController<D>,
    queue: QueueId,
    depth: usize,
    script: &[Cmd],
    pool: &Pool,
    tracer: &Tracer,
) -> DriveOutcome {
    let mut out = DriveOutcome {
        latencies_ns: Vec::with_capacity(script.len()),
        sim_start_ns: controller.device().clock().now_ns(),
        ..DriveOutcome::default()
    };
    // Command id = slot in this table; the entry is the script index of the
    // command outstanding under that id.
    let mut outstanding: Vec<Option<usize>> = vec![None; depth];
    let mut free: Vec<u16> = (0..depth as u16).rev().collect();
    let mut next = 0usize;
    while next < script.len() || free.len() < depth {
        tracer.next_round();
        while next < script.len() {
            let Some(id) = free.pop() else { break };
            let cmd = script[next];
            let command = match cmd.op {
                IoOp::Read => IoCommand::Read { lpa: cmd.lpa },
                IoOp::Write => IoCommand::Write {
                    lpa: cmd.lpa,
                    data: pool.page(cmd.slot).to_vec(),
                },
                IoOp::Trim => IoCommand::Trim { lpa: cmd.lpa },
            };
            tracer
                .time("ssd.submit", || {
                    controller.submit(queue, CommandId(id), command)
                })
                .expect("a free command id implies a free submission slot");
            outstanding[usize::from(id)] = Some(next);
            out.submitted += 1;
            next += 1;
        }
        let executed = tracer.time("ssd.process_round", || controller.process_round());
        assert!(executed > 0, "round made no progress with commands queued");
        out.rounds += 1;
        while let Some(completion) =
            tracer.time("ssd.pop_completion", || controller.pop_completion(queue))
        {
            let id = completion.id.0;
            let index = outstanding[usize::from(id)]
                .take()
                .expect("completion for a command that is not outstanding");
            free.push(id);
            out.completed += 1;
            out.latencies_ns.push(completion.latency_ns());
            match completion.result {
                Ok(CommandOutcome::Read(data)) => {
                    out.read_digest = out
                        .read_digest
                        .wrapping_add(read_token(index as u64, &data));
                }
                Ok(_) => {}
                Err(_) => out.failed += 1,
            }
        }
    }
    assert_eq!(
        out.completed, out.submitted,
        "every submitted command completes exactly once"
    );
    out.sim_end_ns = controller.device().clock().now_ns();
    out
}
