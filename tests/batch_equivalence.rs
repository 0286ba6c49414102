//! Batch/scalar equivalence: submitting commands through an NVMe queue pair
//! (which executes each arbitration round as one
//! `BlockDevice::submit_batch_timed` call) must leave the device — logical
//! contents, retained/recoverable versions, the evidence chain — and the
//! per-command results identical to running the same commands through the
//! scalar methods one at a time. A scalar call is a batch of one through
//! the same executor, so the property left to state is: batch size changes
//! nothing a host or investigator can observe.
//!
//! Instant NAND timing keeps the simulation clock at zero so log-record
//! timestamps cannot mask a divergence; what may legitimately differ is
//! *background offload scheduling* (the batch path coalesces segment
//! flushes), which is why pending/offloaded segment counters are not part
//! of the comparison while recoverability is.

use proptest::prelude::*;
use rssd_repro::core::{LoopbackTarget, RssdConfig, RssdDevice};
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::ssd::{BlockDevice, CommandId, CommandResult, IoCommand, NvmeController, PlainSsd};

const LPAS: u64 = 16;
const QUEUE_DEPTH: usize = 16;

#[derive(Clone, Debug)]
enum Op {
    Write(u64, u8),
    Read(u64),
    Trim(u64),
    Flush,
}

impl Op {
    fn command(&self, page_size: usize) -> IoCommand {
        match *self {
            Op::Write(lpa, byte) => IoCommand::Write {
                lpa,
                data: vec![byte; page_size],
            },
            Op::Read(lpa) => IoCommand::Read { lpa },
            Op::Trim(lpa) => IoCommand::Trim { lpa },
            Op::Flush => IoCommand::Flush,
        }
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            5 => (0..LPAS, any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
            2 => (0..LPAS).prop_map(Op::Read),
            1 => (0..LPAS).prop_map(Op::Trim),
            1 => proptest::strategy::Just(Op::Flush),
        ],
        1..200,
    )
}

fn mk_rssd() -> RssdDevice<LoopbackTarget> {
    RssdDevice::new(
        FlashGeometry::small_test(),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig {
            // Small segments so background offloads actually trigger inside
            // the generated op sequences.
            segment_pages: 4,
            ..RssdConfig::default()
        },
        LoopbackTarget::new(),
    )
}

fn mk_plain() -> PlainSsd {
    PlainSsd::new(
        FlashGeometry::small_test(),
        NandTiming::instant(),
        SimClock::new(),
    )
}

/// Runs `ops` through the scalar methods, in order.
fn run_scalar<D: BlockDevice>(device: &mut D, ops: &[Op]) -> Vec<CommandResult> {
    let page_size = device.page_size();
    ops.iter()
        .map(|op| device.execute(op.command(page_size)))
        .collect()
}

/// Runs `ops` through a queue pair, reaping in submission order (the
/// controller posts completions FIFO per queue).
fn run_queued<D: BlockDevice>(device: D, ops: &[Op]) -> (Vec<CommandResult>, D) {
    let mut controller = NvmeController::with_arbitration_burst(device, QUEUE_DEPTH);
    let queue = controller.create_queue_pair(QUEUE_DEPTH);
    let page_size = controller.device().page_size();
    let mut results = Vec::with_capacity(ops.len());
    let mut next_id: u16 = 0;
    for op in ops {
        while controller.submission_queue(queue).free() == 0 {
            controller.process_round();
            for completion in controller.drain_completions(queue) {
                results.push(completion.result);
            }
        }
        controller
            .submit(queue, CommandId(next_id), op.command(page_size))
            .expect("slot free and id fresh");
        next_id = next_id.wrapping_add(1);
    }
    controller.run_to_idle();
    for completion in controller.drain_completions(queue) {
        results.push(completion.result);
    }
    (results, controller.into_device())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RSSD: a round's batch (one coalesced offload flush at its end) must
    /// be indistinguishable from the scalar loop in everything a host or
    /// investigator can observe.
    #[test]
    fn rssd_queue_pair_equals_scalar_loop(ops in ops()) {
        let mut scalar_dev = mk_rssd();
        let scalar_results = run_scalar(&mut scalar_dev, &ops);
        let (queued_results, mut queued_dev) = run_queued(mk_rssd(), &ops);

        prop_assert_eq!(scalar_results.len(), queued_results.len());
        for (i, (s, q)) in scalar_results.iter().zip(&queued_results).enumerate() {
            prop_assert_eq!(s, q, "result diverged at command {} of {:?}", i, ops);
        }

        // The evidence chain is a total order over operations: equal heads
        // mean identical per-command log records in identical order.
        prop_assert_eq!(scalar_dev.chain_len(), queued_dev.chain_len());
        prop_assert_eq!(scalar_dev.chain_head(), queued_dev.chain_head());

        // Logical contents and retained (recoverable) versions match.
        for lpa in 0..LPAS {
            prop_assert_eq!(
                scalar_dev.read_page(lpa).unwrap(),
                queued_dev.read_page(lpa).unwrap(),
                "contents diverged at lpa {}", lpa
            );
            prop_assert_eq!(
                scalar_dev.recover_page(lpa),
                queued_dev.recover_page(lpa),
                "retention diverged at lpa {}", lpa
            );
        }
    }

    /// The unprotected baseline runs the same executor under the empty
    /// policy — the queue layer must not perturb it either.
    #[test]
    fn plain_queue_pair_equals_scalar_loop(ops in ops()) {
        let mut scalar_dev = mk_plain();
        let scalar_results = run_scalar(&mut scalar_dev, &ops);
        let (queued_results, mut queued_dev) = run_queued(mk_plain(), &ops);
        prop_assert_eq!(&scalar_results, &queued_results);
        for lpa in 0..LPAS {
            prop_assert_eq!(
                scalar_dev.read_page(lpa).unwrap(),
                queued_dev.read_page(lpa).unwrap(),
                "contents diverged at lpa {}", lpa
            );
        }
    }
}
