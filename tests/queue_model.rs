//! Model-based property test of the NVMe queue layer.
//!
//! Random interleavings of `submit`, `process_round` and `pop_completion`
//! run over one to three queue pairs on a `PlainSsd` with MLC timing (so a
//! round's commands complete out of submission order), and every call is
//! checked against a small reference model of the controller:
//!
//! * `SubmissionQueueFull` exactly when the pair holds `depth` unfetched
//!   commands, `CommandIdInFlight` exactly when the id is still unfetched
//!   on that pair, and `Ok` otherwise;
//! * a round fetches, per pair in round-robin order from a rotating start,
//!   `min(unfetched, free completion slots, burst)` commands and posts them
//!   all, so a pair never holds more than `depth` un-reaped completions;
//! * every accepted command completes exactly once, with the outcome its
//!   command asked for;
//! * each pair's completions come out in `(completed_at_ns, submission
//!   order)`.

use proptest::prelude::*;
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::ssd::{
    BlockDevice, CommandId, CommandOutcome, IoCommand, NvmeController, PlainSsd, QueueError,
    QueueId,
};
use std::collections::VecDeque;

const LPAS: u64 = 16;
/// Ids are drawn from a range small enough that a submission often reuses
/// one still unfetched on its pair.
const IDS: u16 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    Trim,
    Flush,
}

#[derive(Clone, Debug)]
enum Op {
    Submit { pair: usize, id: u16, kind: Kind },
    Round,
    Pop { pair: usize },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let kind = prop_oneof![
        3 => Just(Kind::Write),
        2 => Just(Kind::Read),
        1 => Just(Kind::Trim),
        1 => Just(Kind::Flush),
    ];
    proptest::collection::vec(
        prop_oneof![
            6 => (0..3usize, 0..IDS, kind)
                .prop_map(|(pair, id, kind)| Op::Submit { pair, id, kind }),
            2 => Just(Op::Round),
            3 => (0..3usize).prop_map(|pair| Op::Pop { pair }),
        ],
        1..300,
    )
}

/// One accepted command as the model tracks it.
#[derive(Clone, Copy, Debug)]
struct Cmd {
    id: u16,
    /// Submission order on its pair.
    seq: u64,
    kind: Kind,
}

/// The reference model of one queue pair.
#[derive(Debug)]
struct PairModel {
    depth: usize,
    /// Accepted, not yet fetched, in submission order.
    sq: VecDeque<Cmd>,
    /// Posted, not yet reaped, one group per round that fetched from this
    /// pair. Within a group the device decides the posting order; across
    /// groups the CQ is FIFO.
    cq: VecDeque<Vec<Cmd>>,
    next_seq: u64,
    /// `(completed_at_ns, seq)` of the last reaped completion.
    last_reaped: Option<(u64, u64)>,
    accepted: u64,
    reaped: u64,
}

impl PairModel {
    fn posted(&self) -> usize {
        self.cq.iter().map(Vec::len).sum()
    }
}

fn command(kind: Kind, lpa: u64, page_size: usize) -> IoCommand {
    match kind {
        Kind::Read => IoCommand::Read { lpa },
        Kind::Write => IoCommand::Write {
            lpa,
            data: vec![lpa as u8; page_size],
        },
        Kind::Trim => IoCommand::Trim { lpa },
        Kind::Flush => IoCommand::Flush,
    }
}

/// Reaps one completion of `pair` and checks it against the model.
fn reap(
    controller: &mut NvmeController<PlainSsd>,
    queue: QueueId,
    model: &mut PairModel,
) -> Result<(), TestCaseError> {
    let popped = controller.pop_completion(queue);
    let Some(group) = model.cq.front_mut() else {
        prop_assert!(
            popped.is_none(),
            "{queue}: completion {popped:?} the model never posted"
        );
        return Ok(());
    };
    let Some(done) = popped else {
        return Err(TestCaseError::fail(format!(
            "{queue}: model holds {} un-reaped completions, the CQ none",
            model.posted()
        )));
    };
    let at = group.iter().position(|c| c.id == done.id.0);
    let Some(at) = at else {
        return Err(TestCaseError::fail(format!(
            "{queue}: reaped {} but the oldest posted round holds {group:?}",
            done.id
        )));
    };
    let cmd = group.remove(at);
    if group.is_empty() {
        model.cq.pop_front();
    }
    let expected = match cmd.kind {
        Kind::Read => matches!(done.result, Ok(CommandOutcome::Read(_))),
        Kind::Write => done.result == Ok(CommandOutcome::Written),
        Kind::Trim => done.result == Ok(CommandOutcome::Trimmed),
        Kind::Flush => done.result == Ok(CommandOutcome::Flushed),
    };
    prop_assert!(expected, "{queue}: {cmd:?} completed as {:?}", done.result);
    let key = (done.completed_at_ns, cmd.seq);
    if let Some(last) = model.last_reaped {
        prop_assert!(
            last < key,
            "{queue}: completion {key:?} reaped after {last:?}"
        );
    }
    model.last_reaped = Some(key);
    model.reaped += 1;
    Ok(())
}

fn run(depths: &[usize], burst: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let device = PlainSsd::new(
        FlashGeometry::small_test(),
        NandTiming::mlc_default(),
        SimClock::new(),
    );
    let page_size = device.page_size();
    let mut controller = NvmeController::with_arbitration_burst(device, burst);
    let queues: Vec<QueueId> = depths
        .iter()
        .map(|&depth| controller.create_queue_pair(depth))
        .collect();
    let mut models: Vec<PairModel> = depths
        .iter()
        .map(|&depth| PairModel {
            depth,
            sq: VecDeque::new(),
            cq: VecDeque::new(),
            next_seq: 0,
            last_reaped: None,
            accepted: 0,
            reaped: 0,
        })
        .collect();
    let mut rr_next = 0;
    let mut next_lpa = 0;

    let mut round = |controller: &mut NvmeController<PlainSsd>,
                     models: &mut [PairModel]|
     -> Result<usize, TestCaseError> {
        let mut expected = 0;
        for step in 0..models.len() {
            let model = &mut models[(rr_next + step) % models.len()];
            let room = model.depth - model.posted();
            let fetch = model.sq.len().min(room).min(burst);
            if fetch > 0 {
                model.cq.push_back(model.sq.drain(..fetch).collect());
            }
            prop_assert!(model.posted() <= model.depth, "CQ overflow: {model:?}");
            expected += fetch;
        }
        rr_next = (rr_next + 1) % models.len();
        let executed = controller.process_round();
        prop_assert_eq!(executed, expected, "commands executed by the round");
        Ok(executed)
    };

    for op in ops {
        match *op {
            Op::Submit { pair, id, kind } => {
                let pi = pair % queues.len();
                let (queue, model) = (queues[pi], &mut models[pi]);
                let lpa = next_lpa % LPAS;
                next_lpa += 1;
                let got = controller.submit(queue, CommandId(id), command(kind, lpa, page_size));
                let expected = if model.sq.len() == model.depth {
                    Err(QueueError::SubmissionQueueFull { queue })
                } else if model.sq.iter().any(|c| c.id == id) {
                    Err(QueueError::CommandIdInFlight {
                        queue,
                        id: CommandId(id),
                    })
                } else {
                    Ok(())
                };
                prop_assert_eq!(got, expected, "submit {:?} on {}", op, queue);
                if got.is_ok() {
                    model.sq.push_back(Cmd {
                        id,
                        seq: model.next_seq,
                        kind,
                    });
                    model.next_seq += 1;
                    model.accepted += 1;
                }
            }
            Op::Round => {
                round(&mut controller, &mut models)?;
            }
            Op::Pop { pair } => {
                let pi = pair % queues.len();
                reap(&mut controller, queues[pi], &mut models[pi])?;
            }
        }
    }

    // Drain: reap everything, round after round, until the model is empty.
    loop {
        for (pi, &queue) in queues.iter().enumerate() {
            while !models[pi].cq.is_empty() {
                reap(&mut controller, queue, &mut models[pi])?;
            }
            prop_assert!(controller.pop_completion(queue).is_none());
        }
        if round(&mut controller, &mut models)? == 0 {
            break;
        }
    }
    for (pi, &queue) in queues.iter().enumerate() {
        let model = &models[pi];
        prop_assert!(model.sq.is_empty(), "{queue}: unfetched after drain");
        prop_assert_eq!(
            model.reaped,
            model.accepted,
            "{queue}: each accepted command once"
        );
        let stats = controller.stats(queue);
        prop_assert_eq!(stats.submitted, model.accepted);
        prop_assert_eq!(stats.completed, model.reaped);
        prop_assert_eq!(stats.errors, 0);
        prop_assert_eq!(stats.latency.count(), model.reaped);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_layer_matches_its_model(
        depths in proptest::collection::vec(1..9usize, 1..4),
        burst in 1..9usize,
        ops in ops(),
    ) {
        run(&depths, burst, &ops)?;
    }
}
