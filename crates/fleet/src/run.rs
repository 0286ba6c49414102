//! The fleet harness: share-nothing members on `rssd-core`'s one worker
//! pool ([`rssd_core::pool::map`]) and the member-id-ordered merge that
//! makes worker count invisible in the result.

use crate::config::FleetConfig;
use crate::member::{run_member, run_member_instrumented, FleetError, MemberObs, MemberOutcome};
use crate::report::FleetReport;
use rssd_core::{pool, OffloadStats};
use rssd_detect::{merge_time_ordered, Ensemble, Verdict};
use rssd_flash::NandStats;
use rssd_ftl::FtlStats;
use rssd_obs::{ProfileBreakdown, SinkHandle, TraceEvent};
use rssd_ssd::{LatencyStats, QueuePairStats};
use rssd_trace::ReplayStats;

/// Namespace stride separating members' logical pages in the fused
/// detection stream: member `m`'s page `p` appears as `(m << 32) | p`, so
/// per-page detector state never conflates pages of different members.
const FLEET_LPA_STRIDE: u64 = 1 << 32;

/// Host-side observability by-products of a fleet run: member trace events
/// concatenated in member-id order plus the fleet-level events, and the
/// summed host phase profile. Kept outside [`FleetReport`] because both
/// surfaces are wall-clock-bearing and must never touch the report's
/// determinism contract.
#[derive(Clone, Debug, Default)]
pub struct FleetObs {
    /// Host phase breakdown summed over every member's replay.
    pub profile: ProfileBreakdown,
    /// All trace events: member tracks (`m{id}/...`) then fleet-level.
    pub events: Vec<TraceEvent>,
}

/// A parallel fleet of independent RSSD members.
///
/// `Fleet` owns nothing but its [`FleetConfig`]; [`Fleet::run`] builds
/// every member on one of `workers` threads (the calling one among them),
/// executes it to completion, and merges the outcomes **in member-id
/// order** into a [`FleetReport`].
///
/// # Determinism contract
///
/// Member `m`'s entire run derives from `(config.seed, m)` — see
/// [`member_seed`](crate::member_seed) — and no member shares state with
/// another, so the only scheduling freedom worker threads have is the
/// *order in which members finish*. The pool removes that freedom: it
/// hands every outcome back in the slot of its member id. A run with
/// `workers = 8` is therefore byte-identical to the same config with
/// `workers = 1`; the crate's property tests pin this.
#[derive(Clone, Debug)]
pub struct Fleet {
    config: FleetConfig,
}

impl Fleet {
    /// A fleet with the given shape.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Fleet { config }
    }

    /// Runs every member on the configured worker pool and merges the
    /// outcomes into the fleet report.
    ///
    /// # Errors
    ///
    /// The lowest-id [`FleetError`] of any failed member; healthy members'
    /// work is discarded in that case (runs are cheap and deterministic).
    pub fn run(&self) -> Result<FleetReport, FleetError> {
        let member =
            |id| run_member(&self.config, id).map(|outcome| (outcome, MemberObs::default()));
        self.run_members(member, SinkHandle::disabled())
            .map(|(report, _)| report)
    }

    /// [`Fleet::run`] with observability attached: each worker collects its
    /// members' host-side phase profiles and, when `trace` is set, their
    /// trace events (tracks prefixed `m{id}/`, so member clocks never
    /// interleave on one track), and the merge folds them in member-id
    /// order — events concatenate, profiles add per phase. The
    /// [`FleetReport`] itself is byte-identical to an uninstrumented run;
    /// only the side-band [`FleetObs`] differs.
    ///
    /// # Errors
    ///
    /// Same failure surface as [`Fleet::run`].
    pub fn run_instrumented(&self, trace: bool) -> Result<(FleetReport, FleetObs), FleetError> {
        // Fleet-level events (the fused ensemble verdict) get their own
        // unprefixed sink so they land on fleet-global tracks.
        let fleet_sink = if trace {
            SinkHandle::recording()
        } else {
            SinkHandle::disabled()
        };
        self.run_members(
            |id| run_member_instrumented(&self.config, id, trace),
            fleet_sink,
        )
    }

    /// Runs `member` for every id on the worker pool, then merges.
    fn run_members(
        &self,
        member: impl Fn(usize) -> Result<(MemberOutcome, MemberObs), FleetError> + Sync,
        fleet_sink: SinkHandle,
    ) -> Result<(FleetReport, FleetObs), FleetError> {
        // Members come back in id order; each one's own store walks run
        // inline on its worker.
        let outcomes = pool::map(self.config.workers, self.config.members, member);
        let mut ordered = Vec::with_capacity(outcomes.len());
        let mut fleet_obs = FleetObs::default();
        for outcome in outcomes {
            let (outcome, member_obs) = outcome?;
            fleet_obs.profile.merge(&member_obs.profile);
            fleet_obs.events.extend(member_obs.events);
            ordered.push(outcome);
        }
        let report = self.merge(ordered, &fleet_sink);
        fleet_obs.events.extend(fleet_sink.take_events());
        Ok((report, fleet_obs))
    }

    /// Folds member outcomes (already in member-id order) into the report,
    /// emitting fleet-level trace events on `sink`.
    fn merge(&self, outcomes: Vec<MemberOutcome>, sink: &SinkHandle) -> FleetReport {
        let mut nand = NandStats::default();
        let mut ftl = FtlStats::default();
        let mut offload = OffloadStats::default();
        let mut latency = LatencyStats::new();
        let mut queues = QueuePairStats::default();
        let mut replay = ReplayStats::default();
        let mut sim_end_ns = 0u64;
        let mut compromised_members = Vec::new();
        let mut detected_members = Vec::new();
        let mut true_positives = 0usize;
        let mut false_positives = 0usize;
        let mut missed = 0usize;
        let mut streams: Vec<Vec<_>> = Vec::with_capacity(outcomes.len());
        let mut scorecards = Vec::with_capacity(outcomes.len());

        for outcome in outcomes {
            nand.merge(&outcome.nand);
            ftl.merge(&outcome.ftl);
            offload.merge(&outcome.offload);
            latency.merge(&outcome.latency);
            queues.merge(&outcome.queues);
            replay.merge(&outcome.replay);
            let card = outcome.scorecard;
            sim_end_ns = sim_end_ns.max(card.sim_end_ns);
            let flagged = card.verdict != Verdict::Benign;
            if card.compromised {
                compromised_members.push(card.member);
                if flagged {
                    true_positives += 1;
                } else {
                    missed += 1;
                }
            } else if flagged {
                false_positives += 1;
            }
            if flagged {
                detected_members.push(card.member);
            }
            let base = card.member as u64 * FLEET_LPA_STRIDE;
            streams.push(
                outcome
                    .observations
                    .into_iter()
                    .map(|mut obs| {
                        obs.lpa += base;
                        obs
                    })
                    .collect(),
            );
            scorecards.push(card);
        }

        let fused = merge_time_ordered(&streams);
        let mut ensemble = Ensemble::new();
        ensemble.observe_all(fused.iter());
        ensemble.trace_verdict(sink, sim_end_ns);

        FleetReport {
            members: self.config.members,
            nand,
            ftl,
            offload,
            latency,
            queues,
            total_ops: replay.records,
            replay,
            sim_end_ns,
            fleet_verdict: ensemble.verdict(),
            fleet_score: ensemble.score(),
            observations: ensemble.observations(),
            compromised_members,
            detected_members,
            true_positives,
            false_positives,
            missed,
            scorecards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            members: 6,
            ops_per_member: 60,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn report_covers_every_member_in_order() {
        let report = Fleet::new(tiny()).run().unwrap();
        assert_eq!(report.scorecards.len(), 6);
        let ids: Vec<usize> = report.scorecards.iter().map(|c| c.member).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert!(report.total_ops > 0);
        assert!(report.simulated_iops() > 0.0);
        assert!(report.nand.programs() > 0);
        assert!(report.offload.segments_offloaded > 0);
    }

    #[test]
    fn detection_counters_are_consistent() {
        let report = Fleet::new(FleetConfig {
            members: 24,
            ops_per_member: 60,
            ..FleetConfig::default()
        })
        .run()
        .unwrap();
        assert_eq!(
            report.true_positives + report.missed,
            report.compromised_members.len()
        );
        assert_eq!(
            report.detected_members.len(),
            report.true_positives + report.false_positives
        );
        assert!(report.detection_recall() > 0.0, "no compromise detected");
    }

    #[test]
    fn instrumentation_is_invisible_in_the_report() {
        let cfg = tiny();
        let plain = Fleet::new(cfg.clone()).run().unwrap();
        let (traced, obs) = Fleet::new(cfg).run_instrumented(true).unwrap();
        assert_eq!(plain, traced, "observers must not perturb the simulation");
        let trace = rssd_obs::check(&obs.events).unwrap_or_else(|v| panic!("{v}"));
        assert!(trace.transfers_closed > 0, "{trace:?}");
        assert_eq!(trace.in_flight_at_end, 0, "every member settled");
        assert!(obs.profile.total_ns > 0);
        let phase_sum: u64 = obs.profile.phases.values().sum();
        assert_eq!(phase_sum, obs.profile.total_ns, "self-times sum to total");
        for phase in [
            "arbitration",
            "nand_timing",
            "completion_sort",
            "stats",
            "detect",
        ] {
            assert!(obs.profile.phase_ns(phase) > 0, "{phase} never accrued");
        }
        assert!(
            obs.events.iter().any(|e| e.track.starts_with("m0/")),
            "member tracks carry the member prefix"
        );
        assert!(
            obs.events
                .iter()
                .any(|e| e.track == "detect" && e.name == "verdict"),
            "fleet-level fused verdict is traced on a global track"
        );
        assert!(
            obs.events.iter().any(|e| e.name == "member_start"),
            "member lifecycle is traced"
        );
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let base = tiny();
        let one = Fleet::new(FleetConfig {
            workers: 1,
            ..base.clone()
        })
        .run()
        .unwrap();
        let four = Fleet::new(FleetConfig { workers: 4, ..base })
            .run()
            .unwrap();
        assert_eq!(one, four);
    }
}
