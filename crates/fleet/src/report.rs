//! The merged fleet view: one report over every member, in member-id order.

use crate::member::MemberScorecard;
use rssd_core::OffloadStats;
use rssd_detect::Verdict;
use rssd_flash::NandStats;
use rssd_ftl::FtlStats;
use rssd_ssd::{LatencyStats, QueuePairStats};
use rssd_trace::ReplayStats;

/// The fleet-wide rollup a [`Fleet`](crate::Fleet) run produces.
///
/// Every field is derived from per-member outcomes merged in member-id
/// order, so the report is independent of worker count and scheduling —
/// the `PartialEq` derive is the determinism contract's test surface.
/// Deliberately absent: any wall-clock measurement. Host throughput is a
/// property of the machine running the simulation, not of the simulated
/// fleet; the fleet bench measures it *around* the run.
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub struct FleetReport {
    /// Fleet size the run simulated.
    pub members: usize,
    /// NAND counters merged across every member (and shard).
    pub nand: NandStats,
    /// FTL counters merged across every member (and shard).
    pub ftl: FtlStats,
    /// Evidence-offload counters merged across every member.
    pub offload: OffloadStats,
    /// Device-side service-latency distribution, fleet-wide.
    pub latency: LatencyStats,
    /// Host queue-pair accounting, fleet-wide.
    pub queues: QueuePairStats,
    /// Replay accounting merged across members (`end_ns` is the slowest
    /// member's simulated completion).
    pub replay: ReplayStats,
    /// Workload records issued across the fleet.
    pub total_ops: u64,
    /// Latest member-local simulated completion time. Members run
    /// concurrently in simulated time, so this is the fleet's makespan.
    pub sim_end_ns: u64,
    /// Verdict of the fused cross-member detection stream.
    pub fleet_verdict: Verdict,
    /// Score of the fused stream's ensemble.
    pub fleet_score: f64,
    /// Observations in the fused stream.
    pub observations: u64,
    /// Members that ran the ransomware actor (ground truth), ascending.
    pub compromised_members: Vec<usize>,
    /// Members whose chain audit flagged them, ascending.
    pub detected_members: Vec<usize>,
    /// Compromised members flagged by their own audit.
    pub true_positives: usize,
    /// Clean members incorrectly flagged.
    pub false_positives: usize,
    /// Compromised members whose audit stayed benign.
    pub missed: usize,
    /// One row per member, in member-id order.
    pub scorecards: Vec<MemberScorecard>,
}

impl FleetReport {
    /// Simulated fleet throughput: total records over the fleet makespan.
    /// Members execute concurrently in simulated time, so the fleet
    /// completes when its slowest member does.
    #[must_use]
    pub fn simulated_iops(&self) -> f64 {
        if self.sim_end_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 / (self.sim_end_ns as f64 / 1e9)
    }

    /// Fraction of compromised members their own audits flagged.
    #[must_use]
    pub fn detection_recall(&self) -> f64 {
        if self.compromised_members.is_empty() {
            return 1.0;
        }
        self.true_positives as f64 / self.compromised_members.len() as f64
    }

    /// Fraction of clean members incorrectly flagged.
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        let clean = self.members - self.compromised_members.len();
        if clean == 0 {
            return 0.0;
        }
        self.false_positives as f64 / clean as f64
    }
}
