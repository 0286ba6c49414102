//! The staged cell runner both harnesses drive: **build → arm → ride →
//! settle → audit**.
//!
//! A scenario-matrix cell and a fleet member are the same machine: members
//! built for a [`Topology`] behind a [`FaultInjector`], a schedule armed on
//! it, a record stream ridden through the NVMe queue layer across whatever
//! the schedule fires, the device settled, and its evidence audited. Each
//! stage is written here once; [`Scenario`](crate::Scenario) and
//! `rssd-fleet` only say what goes in (which stream, which schedule, which
//! cut-off) and what to score from what comes out. Arming is
//! [`FaultInjector::arm`] — a call, not a stage of its own.

use crate::injector::FaultInjector;
use crate::scenario::Topology;
use crate::schedule::FaultSchedule;
use crate::target::{restore_power_healing_link, scenario_member, FaultError, FaultTarget};
use rssd_array::RssdArray;
use rssd_core::{AnalysisReport, HistoryAudit, LoopbackTarget, PostAttackAnalyzer, WireRemote};
use rssd_detect::WriteObservation;
use rssd_flash::SimClock;
use rssd_net::{LinkConfig, SharedLink};
use rssd_obs::{ProfilerHandle, SinkHandle};
use rssd_ssd::{DeviceError, NvmeController, QueueId, QueuePairStats};
use rssd_trace::{replay_fanout, IoRecord, ReplayOutcome, ReplayStats};

/// What runs on the device [`build`] constructs. A bare member and an array
/// are different types, so the continuation is a generic method rather
/// than a closure.
pub trait CellBody {
    /// What the body produces.
    type Output;

    /// Runs the body on the built device: nothing armed, nothing executed.
    fn run<D: FaultTarget>(self, device: &mut FaultInjector<D>) -> Self::Output;
}

/// **Build**: the one place a [`Topology`] becomes devices. Every member is
/// a [`scenario_member`] (spill-enabled when `spill`) over its own
/// [`WireRemote`]<[`LoopbackTarget`]> cabled with `link` — clones of one
/// [`SharedLink`] for [`Topology::SharedUplink`] — numbered by `device_id`
/// (`None` for a lone device, `Some(shard)` inside an array), and the whole
/// device sits behind a [`FaultInjector`] with nothing armed.
pub fn build<B: CellBody>(
    topology: Topology,
    spill: bool,
    link: LinkConfig,
    device_id: impl Fn(Option<usize>) -> u64,
    body: B,
) -> B::Output {
    let member = |shard, remote| scenario_member(device_id(shard), spill, remote);
    let private = || WireRemote::new(LoopbackTarget::new(), link);
    let array = |members, stripe_pages| {
        FaultInjector::new(
            RssdArray::new(members, stripe_pages, SimClock::new()),
            &FaultSchedule::none(),
        )
    };
    match topology {
        Topology::Bare | Topology::MultiQueue { .. } => body.run(&mut FaultInjector::new(
            member(None, private()),
            &FaultSchedule::none(),
        )),
        Topology::Array {
            shards,
            stripe_pages,
        } => {
            let members = (0..shards).map(|s| member(Some(s), private())).collect();
            body.run(&mut array(members, stripe_pages))
        }
        Topology::SharedUplink {
            shards,
            stripe_pages,
        } => {
            let uplink = SharedLink::new(link);
            let shared = || WireRemote::with_uplink(LoopbackTarget::new(), uplink.clone(), link);
            let members = (0..shards).map(|s| member(Some(s), shared())).collect();
            body.run(&mut array(members, stripe_pages))
        }
    }
}

/// What a [`ride`] did, stitched across its interruptions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct Ride {
    /// Replay accounting over every pass.
    pub replay: ReplayStats,
    /// Queue-pair accounting, merged over every pass's pairs.
    pub queues: QueuePairStats,
    /// Aborts ridden out (power cuts, writes refused by a dead shard).
    pub interruptions: u64,
}

/// **Ride**: replays `records` through `topology`'s queue pairs, riding out
/// what an armed schedule fires. A power cut is answered with
/// [`restore_power_healing_link`] and a write refused by a dead shard is
/// skipped; either way the replay resumes after the aborting record (which
/// was issued — each pass strictly shortens what is left, so no budget is
/// needed). If power cannot be restored the device stays down and the ride
/// ends there: [`settle`] reports it and the audit scores it. With nothing
/// armed there is one pass.
///
/// # Errors
///
/// [`FaultError::Scenario`] on an abort no fault explains.
pub fn ride<D: FaultTarget>(
    device: &mut D,
    topology: Topology,
    records: Vec<IoRecord>,
    sink: &SinkHandle,
    profiler: &ProfilerHandle,
) -> Result<Ride, FaultError> {
    let (queues, depth) = topology.queue_shape();
    let mut ride = Ride::default();
    let mut issued = 0usize;
    loop {
        let outcome = {
            let mut controller = NvmeController::new(&mut *device);
            controller.set_profiler(profiler.clone());
            controller.set_trace_sink(sink.clone());
            let qids: Vec<QueueId> = (0..queues)
                .map(|_| controller.create_queue_pair(depth))
                .collect();
            let rest = records[issued..].iter().copied();
            let outcome = replay_fanout(&mut controller, &qids, rest);
            for qid in &qids {
                ride.queues.merge(controller.stats(*qid));
            }
            outcome
        };
        ride.replay.merge(&outcome.stats());
        let ReplayOutcome::Aborted { error, .. } = &outcome else {
            return Ok(ride);
        };
        ride.interruptions += 1;
        if sink.is_enabled() {
            sink.instant(
                "member",
                "replay_interrupted",
                device.clock().now_ns(),
                &[
                    ("error", error.to_string()),
                    ("interruption", ride.interruptions.to_string()),
                ],
            );
        }
        match error {
            // Unrecoverable only when the schedule silently dropped
            // acknowledged offloads and then cut power: recovery refuses
            // the holed history.
            DeviceError::PowerLoss => {
                if restore_power_healing_link(device).is_err() {
                    return Ok(ride);
                }
            }
            // A record aimed at a dead shard while the array runs
            // short-handed. (A stalled write — admission refusal under a
            // saturated outage backlog — never gets here: the replay
            // driver counts and skips it.)
            DeviceError::ShardFailed { .. } => {}
            other => {
                return Err(FaultError::Scenario(format!(
                    "replay aborted on unexplained error: {other}"
                )))
            }
        }
        issued += outcome.resume_index();
        if issued >= records.len() {
            return Ok(ride);
        }
    }
}

/// What [`settle`] found and did.
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub struct Settled {
    /// Whether power had to be restored before the log would flush (a cut
    /// fired at the last op) — `Err` when it had to and could not be:
    /// recovery refuses a history holed by dropped offloads, the device is
    /// still down, and its audit flags the gap.
    pub restored: Result<bool, FaultError>,
    /// Dead shards rebuilt onto replacements.
    pub revived: usize,
}

/// **Settle**: whatever the schedule still holds must not fire while the
/// device is being measured, so disarm it; then heal partitions, flush the
/// log (one power restore and retry if a cut got there first) and rebuild
/// every dead shard — to `restore_before_ns` when given.
///
/// # Errors
///
/// Propagates an array rebuild failure. A device that stays down is not an
/// error here: it is reported in [`Settled::restored`].
pub fn settle<D: FaultTarget>(
    device: &mut D,
    restore_before_ns: Option<u64>,
) -> Result<Settled, FaultError> {
    let _ = device.arm_schedule(&FaultSchedule::none());
    device.heal_partition();
    let restored = if device.flush().is_ok() {
        Ok(false)
    } else {
        restore_power_healing_link(device).map(|()| {
            let _ = device.flush();
            true
        })
    };
    let revived = device.revive_dead_shards(restore_before_ns)?;
    Ok(Settled { restored, revived })
}

/// **Audit**: the chain-verified history, the detectors' observations of it
/// (made once, in chain order) and the post-attack analysis of those, with
/// the verdict traced as a `detect`/`verdict` instant.
pub fn audit<D: FaultTarget>(
    device: &mut D,
    sink: &SinkHandle,
) -> (HistoryAudit, Vec<WriteObservation>, AnalysisReport) {
    let audit = device.history_audit();
    let observations: Vec<_> = PostAttackAnalyzer::observations(&audit.records).collect();
    let records = audit.records.len() as u64;
    let analysis = PostAttackAnalyzer::new().analyze_observed(
        observations.iter().copied(),
        records,
        audit.verified,
    );
    if sink.is_enabled() {
        sink.instant(
            "detect",
            "verdict",
            device.clock().now_ns(),
            &[
                ("verdict", format!("{:?}", analysis.verdict)),
                ("score", format!("{:.3}", analysis.score)),
                ("attack_class", analysis.attack_class.to_string()),
            ],
        );
    }
    (audit, observations, analysis)
}
