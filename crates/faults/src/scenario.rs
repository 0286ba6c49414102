//! The scenario matrix: workload profile × attack actor × fault schedule ×
//! topology, every cell scored.
//!
//! A [`Scenario`] names one cell. Running it is fully deterministic: the
//! workload generator, the attack actors, the simulated clock and the
//! [`FaultSchedule`] are all seeded, so a cell id plus a seed reproduces
//! the exact same torn batch and the exact same scorecard, on every
//! machine, every run.
//!
//! Each cell executes the same four phases:
//!
//! 1. **Benign prefix** — the cell's [`TraceProfile`] replayed through the
//!    NVMe queue layer (queue shape per [`Topology`]).
//! 2. **Corpus** — a [`FileTable`] of known content, the hostages.
//! 3. **Attack under faults** — the cell's fault plan is anchored to the
//!    attack's op window and armed on the [`FaultInjector`]; the actor
//!    runs against the injector. Power cuts interrupt the actor (it
//!    restarts after power returns — malware persists); shard deaths make
//!    it fail onto survivors until the harness revives the dead member.
//! 4. **Audit & scoring** — partitions heal, logs flush, dead shards are
//!    rebuilt to the pre-attack point, and the [`Scorecard`] is computed:
//!    detection (from the chain-derived history), point-in-time recovery
//!    of every victim page, data-loss accounting, and the evidence-chain
//!    verdict.
//!
//! The phases are made of the stages of [`crate::cell`], which the fleet's
//! members run too: [`Scenario::run_with`] has [`cell::build`] construct the
//! topology's members over the simulated NVMe-oE wire
//! ([`WireRemote`](rssd_core::WireRemote) — the one offload pipeline; the
//! cell's partition plan is a set of link conditions on it), phase 1 is a
//! [`cell::ride`] with nothing armed, and phase 4 is [`cell::settle`] then
//! [`cell::audit`]. The same generic runner ([`Scenario::run_on`]) also
//! drives any other [`FaultTarget`] a test builds itself — an injector-free
//! device over a plain `LoopbackTarget` is the oracle that pins the
//! harness: a `none` schedule over an ideal link must produce a
//! byte-identical scorecard.

use crate::cell::{self, CellBody};
use crate::injector::FaultInjector;
use crate::remote::PartitionMode;
use crate::schedule::{FaultEvent, FaultSchedule};
use crate::target::{restore_power_healing_link, FaultError, FaultTarget};
use rssd_attacks::{ClassicRansomware, FileTable, GcAttack, TimingAttack, TrimAttack};
use rssd_bench::BenchRow;
use rssd_detect::Verdict;
use rssd_net::LinkConfig;
use rssd_obs::{ProfilerHandle, SinkHandle};
use rssd_ssd::DeviceError;
use rssd_trace::{IoRecord, TraceProfile};
use serde::{Deserialize, Serialize};

/// Files in the hostage corpus. Sized so the victim set (files × pages)
/// sits well clear of the long-horizon profiler's 64-page noise floor and
/// of its 10 % coverage saturation point — detection must not hinge on
/// workload-seed luck.
const CORPUS_FILES: usize = 16;
/// Pages per hostage file (victim pages = files × pages).
const PAGES_PER_FILE: u64 = 8;
/// Benign workload records replayed before the corpus lands.
const BENIGN_RECORDS: usize = 240;
/// Simulated gap between phases, so phase boundaries have distinct
/// timestamps even under instant NAND timing.
const PHASE_GAP_NS: u64 = 1_000_000_000;
/// Attack attempts before the harness declares the cell stuck.
const MAX_ATTACK_ATTEMPTS: u32 = 4;

/// Pages of hostage corpus the harness plants on a device of
/// `logical_pages`: the matrix's victim set, capped at a quarter of a
/// device too small for it. What a synthesized stream (the fleet's) writes
/// where a cell calls [`FileTable::populate`].
#[must_use]
pub fn corpus_pages(logical_pages: u64) -> u64 {
    (CORPUS_FILES as u64 * PAGES_PER_FILE)
        .min(logical_pages / 4)
        .max(1)
}

/// When the workload phase after one that ended at `ns` starts: the gap a
/// cell advances its clock by, for a stream that carries its own arrival
/// times.
#[must_use]
pub fn next_phase_ns(ns: u64) -> u64 {
    ns + PHASE_GAP_NS
}

/// How the host drives the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// One device, one depth-1 queue pair (the scalar-compatible path).
    Bare,
    /// One device, several deep queue pairs fanned out round-robin.
    MultiQueue {
        /// Queue pairs.
        queues: usize,
        /// Depth of each pair.
        depth: usize,
    },
    /// A striped array of RSSD members behind the controller.
    Array {
        /// Member count.
        shards: usize,
        /// Stripe width in pages.
        stripe_pages: u64,
    },
    /// A striped array whose members all offload through **one shared
    /// NVMe-oE uplink** to a common remote: N devices funnel into a single
    /// wire, so concurrent offloads queue behind each other's serialization
    /// time.
    SharedUplink {
        /// Member count.
        shards: usize,
        /// Stripe width in pages.
        stripe_pages: u64,
    },
}

impl Topology {
    /// The topology axis label of a cell id.
    pub fn label(&self) -> String {
        match self {
            Topology::Bare => "bare".to_string(),
            Topology::MultiQueue { queues, depth } => format!("mq{queues}x{depth}"),
            Topology::Array { shards, .. } => format!("array{shards}"),
            Topology::SharedUplink { shards, .. } => format!("uplink{shards}"),
        }
    }

    /// The link [`Scenario::run`] cables this topology's members with:
    /// [`LinkConfig::ideal`] — a wire that consumes no nanoseconds, so the
    /// scorecards are those of a function-call offload — except for
    /// [`Topology::SharedUplink`], whose whole point is contention on a
    /// real 10 GbE wire.
    pub fn link(&self) -> LinkConfig {
        match self {
            Topology::SharedUplink { .. } => LinkConfig::datacenter_10g(),
            _ => LinkConfig::ideal(),
        }
    }

    /// Queue pairs and their depth: how [`cell::ride`] drives the device.
    pub(crate) fn queue_shape(&self) -> (usize, usize) {
        match self {
            Topology::Bare => (1, 1),
            Topology::MultiQueue { queues, depth } => (*queues, *depth),
            Topology::Array { .. } | Topology::SharedUplink { .. } => (2, 8),
        }
    }

    /// Member devices behind the controller (1 unless an array).
    #[must_use]
    pub fn shards(&self) -> usize {
        match self {
            Topology::Array { shards, .. } | Topology::SharedUplink { shards, .. } => *shards,
            _ => 1,
        }
    }
}

/// The attack axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActorKind {
    /// No attack: the false-positive baseline.
    None,
    /// Fast read-encrypt-overwrite.
    Classic,
    /// Encrypt, then flood free space to force GC.
    GcFlood,
    /// Rate-limited encryption spread over hours.
    Timing,
    /// Encrypt-to-copy then trim the originals.
    Trim,
}

impl ActorKind {
    /// The actor axis label of a cell id.
    pub fn label(&self) -> &'static str {
        match self {
            ActorKind::None => "none",
            ActorKind::Classic => "classic",
            ActorKind::GcFlood => "gc_flood",
            ActorKind::Timing => "timing",
            ActorKind::Trim => "trim",
        }
    }

    /// Rough command count of one attack run — used only to anchor fault
    /// plans inside the attack window, so precision is not required.
    fn ops_estimate(&self, victim_pages: u64, logical_pages: u64) -> u64 {
        match self {
            ActorKind::None => 0,
            ActorKind::Classic | ActorKind::Timing => 2 * victim_pages,
            ActorKind::GcFlood => 2 * victim_pages + 2 * logical_pages.saturating_sub(victim_pages),
            ActorKind::Trim => victim_pages,
        }
    }
}

/// The fault axis: a phase-relative plan, resolved into an absolute
/// [`FaultSchedule`] once the attack's op window is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPlan {
    /// No faults.
    None,
    /// Power dies halfway through the attack (torn batch, crash, recover).
    PowerCutMidAttack,
    /// The remote link partitions for the middle half of the attack;
    /// offloads are queued and replayed in order on heal.
    PartitionQueue,
    /// The remote link partitions late in the attack; offloads are acked
    /// and silently dropped — the chain-gap case.
    PartitionDrop,
    /// A sustained uplink blackout (refused offloads, no relay) covering
    /// the middle 30 % of the attack, with a power cut landing *inside*
    /// the blackout. The compound case the durable evidence spill exists
    /// for: sealed segments cannot leave the device and then the
    /// controller RAM dies — only the FTL spill region carries the staged
    /// evidence across the cut. Cells with this plan run on spill-enabled
    /// members ([`FaultPlan::needs_spill`]).
    BlackoutCut,
    /// One array member dies mid-attack.
    ShardDeath {
        /// The member to kill.
        shard: usize,
    },
    /// Two members die at different points of the attack.
    DoubleFault {
        /// First casualty.
        first: usize,
        /// Second casualty.
        second: usize,
    },
    /// A seeded pseudo-random mixture over the attack window.
    Seeded {
        /// Schedule seed.
        seed: u64,
    },
}

impl FaultPlan {
    /// The fault axis label of a cell id.
    pub fn label(&self) -> String {
        match self {
            FaultPlan::None => "none".to_string(),
            FaultPlan::PowerCutMidAttack => "power_cut".to_string(),
            FaultPlan::PartitionQueue => "partition_queue".to_string(),
            FaultPlan::PartitionDrop => "partition_drop".to_string(),
            FaultPlan::BlackoutCut => "blackout_cut".to_string(),
            FaultPlan::ShardDeath { .. } => "shard_death".to_string(),
            FaultPlan::DoubleFault { .. } => "double_fault".to_string(),
            FaultPlan::Seeded { seed } => format!("seeded_{seed}"),
        }
    }

    /// Resolves the plan against the attack window `[base, base + est)`.
    fn resolve(&self, base: u64, est: u64, shards: usize) -> FaultSchedule {
        let est = est.max(8);
        match self {
            FaultPlan::None => FaultSchedule::none(),
            FaultPlan::PowerCutMidAttack => FaultSchedule::power_cut(base + est / 2),
            FaultPlan::PartitionQueue => FaultSchedule::partition(
                PartitionMode::QueueForReplay,
                base + est / 4,
                base + 3 * est / 4,
            ),
            FaultPlan::PartitionDrop => FaultSchedule::partition(
                PartitionMode::DropSilently,
                base + est / 2,
                base + 3 * est / 4,
            ),
            // Blackout over the middle 30 % of the attack; the cut fires at
            // the same halfway op as `PowerCutMidAttack`, but here recovery
            // has to walk the spill region because the segments sealed
            // since 35 % never reached the remote.
            FaultPlan::BlackoutCut => FaultSchedule::new(
                "blackout_cut",
                vec![
                    FaultEvent::PartitionStart {
                        at_op: base + 7 * est / 20,
                        mode: PartitionMode::Refuse,
                    },
                    FaultEvent::PowerCut {
                        at_op: base + est / 2,
                    },
                    FaultEvent::PartitionHeal {
                        at_op: base + 13 * est / 20,
                    },
                ],
            ),
            // Deaths land late in the attack: retention guards *destroyed*
            // data, so a striped (parity-less) shard death forfeits whatever
            // live data the attack had not yet touched — the later the
            // death, the more the evidence chain covers. The residual loss
            // is the measured cost of striping without redundancy.
            FaultPlan::ShardDeath { shard } => {
                FaultSchedule::shard_death(*shard, base + 3 * est / 4)
            }
            FaultPlan::DoubleFault { first, second } => FaultSchedule::double_fault(
                *first,
                base + 7 * est / 12,
                *second,
                base + 5 * est / 6,
            ),
            FaultPlan::Seeded { seed } => FaultSchedule::seeded(*seed, est, shards).offset(base),
        }
    }

    /// Whether cells with this plan run on spill-enabled (durable) members.
    /// Only plans that combine an offload outage with a power cut need the
    /// FTL spill region; everything else runs on the baseline geometry so
    /// established cell scorecards stay byte-identical.
    #[must_use]
    pub fn needs_spill(&self) -> bool {
        matches!(self, FaultPlan::BlackoutCut)
    }
}

/// One cell of the scenario matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Trace profile name (Figure 2 axis), e.g. `"hm"`.
    pub profile: &'static str,
    /// The attack actor.
    pub actor: ActorKind,
    /// The fault plan.
    pub plan: FaultPlan,
    /// The host/device topology.
    pub topology: Topology,
    /// Master seed (workload, actor keys, corpus content).
    pub seed: u64,
}

impl Scenario {
    /// The cell id: `profile/actor/fault/topology`.
    pub fn cell_id(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.profile,
            self.actor.label(),
            self.plan.label(),
            self.topology.label()
        )
    }

    /// Runs the cell untraced over its topology's own link
    /// ([`Topology::link`]).
    ///
    /// # Errors
    ///
    /// See [`Scenario::run_with`].
    pub fn run(&self) -> Result<Scorecard, FaultError> {
        self.run_with(self.topology.link(), SinkHandle::disabled())
    }

    /// Runs the cell on the members [`cell::build`] constructs for its
    /// topology, so every offloaded segment crosses the simulated NVMe-oE
    /// fabric with `link`'s bandwidth/propagation/loss, and the cell's
    /// partition plan becomes link blackouts and collector drops. A lone
    /// device is numbered 1, array members from 0.
    ///
    /// `sink` is installed across the whole cell stack (NAND, FTL, offload
    /// engine, wire, fault injector, queue layer, detection verdict). A
    /// recording sink leaves the scorecard byte-identical to a disabled one
    /// — sink identity is not simulation state, which the determinism
    /// proptests pin.
    ///
    /// # Errors
    ///
    /// [`FaultError`] when the harness itself cannot proceed (never for a
    /// fault the schedule injected — those are scored, not errored).
    pub fn run_with(&self, link: LinkConfig, sink: SinkHandle) -> Result<Scorecard, FaultError> {
        cell::build(
            self.topology,
            self.plan.needs_spill(),
            link,
            |shard| shard.map_or(1, |s| s as u64),
            MatrixCell {
                scenario: self,
                sink,
            },
        )
    }
}

/// [`Scenario::run_on`] as the body [`cell::build`] runs.
struct MatrixCell<'a> {
    scenario: &'a Scenario,
    sink: SinkHandle,
}

impl CellBody for MatrixCell<'_> {
    type Output = Result<Scorecard, FaultError>;

    fn run<D: FaultTarget>(self, device: &mut FaultInjector<D>) -> Self::Output {
        self.scenario.run_on(device, self.sink)
    }
}

/// The measured outcome of one scenario cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct Scorecard {
    /// Cell id (`profile/actor/fault/topology`).
    pub cell: String,
    /// Master seed the cell ran under.
    pub seed: u64,
    /// Ensemble verdict over the chain-derived history.
    pub verdict: Verdict,
    /// Combined suspicion score.
    pub detection_score: f64,
    /// Attack classification string.
    pub attack_class: String,
    /// Attack cell flagged (verdict above benign).
    pub true_positive: bool,
    /// Benign cell flagged (false alarm).
    pub false_positive: bool,
    /// Distinct pages the attack destroyed.
    pub victim_pages: u64,
    /// Victim pages whose pre-attack content the defender can produce
    /// (point-in-time recovery or already-restored content).
    pub recovered_pages: u64,
    /// `recovered / victims` (1.0 when nothing was attacked).
    pub recovery_fraction: f64,
    /// Bytes of victim data the defender cannot produce.
    pub data_loss_bytes: u64,
    /// Evidence chain verified end to end with every record accounted for.
    pub chain_verified: bool,
    /// A chain gap or tamper was *detected* (never silent).
    pub chain_gap_detected: bool,
    /// Records the audit examined.
    pub records_audited: u64,
    /// Power cuts the schedule fired.
    pub power_cuts: u64,
    /// Batches torn mid-execution by a cut.
    pub torn_batches: u64,
    /// Times the attack was interrupted (cut or dead shard) and resumed.
    pub attack_interruptions: u64,
    /// Array members revived by rebuild during the cell.
    pub shards_revived: u64,
    /// Segments the device believes durably offloaded.
    pub segments_offloaded: u64,
    /// Offload attempts that failed visibly.
    pub offload_failures: u64,
    /// Sealed segments staged durably in the FTL spill region while the
    /// remote was unreachable.
    pub segments_spilled: u64,
    /// Spilled segments replayed back into the staged queue by post-cut
    /// recovery.
    pub spill_replayed: u64,
    /// Offloads buffered during queue-mode partitions.
    pub offloads_queued: u64,
    /// Buffered offloads replayed in order on heal.
    pub offloads_replayed: u64,
    /// Offloads acked and destroyed by drop-mode partitions.
    pub offloads_dropped: u64,
    /// Scheduled events inapplicable to the topology (should be 0 in a
    /// well-formed matrix).
    pub skipped_events: u64,
}

impl Scorecard {
    /// Deterministic JSON rendering (fixed key order, fixed float format) —
    /// the byte-identity the differential tests compare.
    pub fn to_json(&self) -> String {
        let verdict = match self.verdict {
            Verdict::Benign => "benign",
            Verdict::Suspicious => "suspicious",
            Verdict::Ransomware => "ransomware",
        };
        format!(
            "{{\"cell\": \"{}\", \"seed\": {}, \"verdict\": \"{}\", \
             \"detection_score\": {:.6}, \"attack_class\": \"{}\", \
             \"true_positive\": {}, \"false_positive\": {}, \
             \"victim_pages\": {}, \"recovered_pages\": {}, \
             \"recovery_fraction\": {:.6}, \"data_loss_bytes\": {}, \
             \"chain_verified\": {}, \"chain_gap_detected\": {}, \
             \"records_audited\": {}, \"power_cuts\": {}, \
             \"torn_batches\": {}, \"attack_interruptions\": {}, \
             \"shards_revived\": {}, \"segments_offloaded\": {}, \
             \"offload_failures\": {}, \"segments_spilled\": {}, \
             \"spill_replayed\": {}, \"offloads_queued\": {}, \
             \"offloads_replayed\": {}, \"offloads_dropped\": {}, \
             \"skipped_events\": {}}}",
            self.cell,
            self.seed,
            verdict,
            self.detection_score,
            self.attack_class,
            self.true_positive,
            self.false_positive,
            self.victim_pages,
            self.recovered_pages,
            self.recovery_fraction,
            self.data_loss_bytes,
            self.chain_verified,
            self.chain_gap_detected,
            self.records_audited,
            self.power_cuts,
            self.torn_batches,
            self.attack_interruptions,
            self.shards_revived,
            self.segments_offloaded,
            self.offload_failures,
            self.segments_spilled,
            self.spill_replayed,
            self.offloads_queued,
            self.offloads_replayed,
            self.offloads_dropped,
            self.skipped_events,
        )
    }

    /// The scorecard as a bench row for `BENCH_scenarios.json`.
    pub fn bench_row(&self) -> BenchRow {
        BenchRow {
            config: self.cell.clone(),
            metrics: vec![
                ("true_positive", if self.true_positive { 1.0 } else { 0.0 }),
                (
                    "false_positive",
                    if self.false_positive { 1.0 } else { 0.0 },
                ),
                ("detection_score", self.detection_score),
                ("victim_pages", self.victim_pages as f64),
                ("recovered_pages", self.recovered_pages as f64),
                ("recovery_fraction", self.recovery_fraction),
                ("data_loss_bytes", self.data_loss_bytes as f64),
                (
                    "chain_verified",
                    if self.chain_verified { 1.0 } else { 0.0 },
                ),
                (
                    "chain_gap_detected",
                    if self.chain_gap_detected { 1.0 } else { 0.0 },
                ),
                ("power_cuts", self.power_cuts as f64),
                ("torn_batches", self.torn_batches as f64),
                ("attack_interruptions", self.attack_interruptions as f64),
                ("shards_revived", self.shards_revived as f64),
                ("segments_spilled", self.segments_spilled as f64),
                ("spill_replayed", self.spill_replayed as f64),
                ("offloads_dropped", self.offloads_dropped as f64),
            ],
        }
    }
}

/// The scenario matrix: a named set of cells run under one roof.
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    /// The cells.
    pub cells: Vec<Scenario>,
}

impl ScenarioMatrix {
    /// The curated CI matrix: 12 cells spanning 3 topologies, 5 fault
    /// schedules and 5 actors (incl. the benign false-positive baselines),
    /// all seeded, all finishing in seconds. This is the grid the tier-1
    /// test asserts cell by cell.
    pub fn curated() -> Self {
        let array = Topology::Array {
            shards: 3,
            stripe_pages: 4,
        };
        let mq = Topology::MultiQueue {
            queues: 4,
            depth: 8,
        };
        let cell = |profile, actor, plan, topology, seed| Scenario {
            profile,
            actor,
            plan,
            topology,
            seed,
        };
        ScenarioMatrix {
            cells: vec![
                cell("hm", ActorKind::None, FaultPlan::None, Topology::Bare, 11),
                cell(
                    "hm",
                    ActorKind::Classic,
                    FaultPlan::None,
                    Topology::Bare,
                    12,
                ),
                cell(
                    "hm",
                    ActorKind::Classic,
                    FaultPlan::PowerCutMidAttack,
                    Topology::Bare,
                    13,
                ),
                cell(
                    "hm",
                    ActorKind::Classic,
                    FaultPlan::PartitionQueue,
                    Topology::Bare,
                    14,
                ),
                cell(
                    "hm",
                    ActorKind::Trim,
                    FaultPlan::PartitionDrop,
                    Topology::Bare,
                    15,
                ),
                cell("src", ActorKind::GcFlood, FaultPlan::None, mq, 16),
                cell(
                    "src",
                    ActorKind::Timing,
                    FaultPlan::PowerCutMidAttack,
                    mq,
                    17,
                ),
                cell("src", ActorKind::Trim, FaultPlan::None, mq, 18),
                cell("mail", ActorKind::None, FaultPlan::None, array, 19),
                cell("mail", ActorKind::Classic, FaultPlan::None, array, 20),
                cell(
                    "mail",
                    ActorKind::Classic,
                    FaultPlan::ShardDeath { shard: 1 },
                    array,
                    21,
                ),
                cell(
                    "mail",
                    ActorKind::Trim,
                    FaultPlan::DoubleFault {
                        first: 0,
                        second: 2,
                    },
                    array,
                    22,
                ),
                // The degradation acceptance cells: a sustained uplink
                // blackout with a power cut inside it, on spill-enabled
                // members. Appended after the original grid so the
                // determinism tests' positional cell references stay valid.
                cell(
                    "hm",
                    ActorKind::Classic,
                    FaultPlan::BlackoutCut,
                    Topology::Bare,
                    23,
                ),
                cell("src", ActorKind::Timing, FaultPlan::BlackoutCut, mq, 24),
            ],
        }
    }

    /// Runs every cell, in order.
    ///
    /// # Errors
    ///
    /// Propagates the first harness failure (injected faults never error —
    /// they are scored).
    pub fn run(&self) -> Result<Vec<Scorecard>, FaultError> {
        self.cells.iter().map(Scenario::run).collect()
    }

    /// Bench rows for [`rssd_bench::write_bench_json`].
    pub fn bench_rows(cards: &[Scorecard]) -> Vec<BenchRow> {
        cards.iter().map(Scorecard::bench_row).collect()
    }
}

/// Aggregate rollup over a set of scenario [`Scorecard`]s, so examples and
/// harnesses fold cell results through one audited path
/// ([`MatrixSummary::absorb`]) instead of hand-summing fields (which drifts
/// the moment a counter is added).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[must_use]
pub struct MatrixSummary {
    /// Cards absorbed.
    pub cells: u64,
    /// Cards whose cell ran an attack actor.
    pub attacked_cells: u64,
    /// Benign cards flagged (false alarms).
    pub false_positives: u64,
    /// Victim pages across all cards.
    pub victim_pages: u64,
    /// Recovered victim pages across all cards.
    pub recovered_pages: u64,
    /// Power cuts fired across all cards.
    pub power_cuts: u64,
    /// Offloads dropped by silent partitions across all cards.
    pub offloads_dropped: u64,
    /// Cards whose chain had a *detected* gap.
    pub chain_gaps_detected: u64,
    /// Fault-free attacked cards (the 100%-recovery obligation set).
    pub fault_free_attacked: u64,
    /// Fault-free attacked cards that recovered every victim page.
    pub fault_free_recovered: u64,
}

impl MatrixSummary {
    /// Folds one cell's scorecard into the summary.
    pub fn absorb(&mut self, card: &Scorecard) {
        self.cells += 1;
        if card.victim_pages > 0 || card.true_positive {
            self.attacked_cells += 1;
        }
        self.false_positives += u64::from(card.false_positive);
        self.victim_pages += card.victim_pages;
        self.recovered_pages += card.recovered_pages;
        self.power_cuts += card.power_cuts;
        self.offloads_dropped += card.offloads_dropped;
        self.chain_gaps_detected += u64::from(card.chain_gap_detected);
        let fault_free = card.cell.contains("/none/");
        if fault_free && card.victim_pages > 0 {
            self.fault_free_attacked += 1;
            self.fault_free_recovered += u64::from(card.recovery_fraction == 1.0);
        }
    }

    /// Merged recovery fraction over every victim page (1.0 when no card
    /// had victims) — page-weighted, like the fleet WAF.
    #[must_use]
    pub fn recovery_fraction(&self) -> f64 {
        if self.victim_pages == 0 {
            return 1.0;
        }
        self.recovered_pages as f64 / self.victim_pages as f64
    }

    /// The CI invariants, evaluated on merged counters: fault-free attacked
    /// cells all recovered fully, and no benign cell false-positived.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.fault_free_recovered == self.fault_free_attacked && self.false_positives == 0
    }
}

/// Runs one attack attempt, returning the destroyed pages on success.
fn attack_once<D: FaultTarget>(
    device: &mut D,
    actor: ActorKind,
    victims: &FileTable,
    seed: u64,
) -> Result<Vec<u64>, DeviceError> {
    let outcome = match actor {
        ActorKind::None => return Ok(Vec::new()),
        ActorKind::Classic => ClassicRansomware::new(seed).execute(device, victims)?,
        ActorKind::GcFlood => GcAttack::new(seed, 2).execute(device, victims)?,
        ActorKind::Timing => {
            TimingAttack::new(seed, 8, 30 * 60 * 1_000_000_000)
                .execute(device, victims, |_| Ok(()))?
        }
        ActorKind::Trim => TrimAttack::new(seed, false).execute(device, victims)?,
    };
    Ok(outcome.victim_lpas)
}

impl Scenario {
    /// The generic cell runner: the four phases of the module docs against
    /// any [`FaultTarget`], with `sink` installed on the device stack
    /// before the first command. [`Scenario::run_with`] calls it on the
    /// wire topologies it builds; the differential tests call it on a
    /// `LoopbackTarget` oracle they build themselves.
    ///
    /// # Errors
    ///
    /// [`FaultError::Scenario`] when the cell has a fault plan but `device`
    /// cannot arm schedules (it is not behind a [`FaultInjector`]), or on
    /// any harness failure.
    pub fn run_on<D: FaultTarget>(
        &self,
        device: &mut D,
        sink: SinkHandle,
    ) -> Result<Scorecard, FaultError> {
        device.set_trace_sink(sink.clone());
        let profile = TraceProfile::by_name(self.profile)
            .ok_or_else(|| FaultError::Scenario(format!("unknown profile {}", self.profile)))?;
        let logical_pages = device.logical_pages();
        let page_size = device.page_size();
        let mut interruptions = 0u64;

        // Phase 1: benign prefix through the queue layer. No fault is armed
        // yet (phase 3 arms the plan), so the ride is a single pass.
        let records: Vec<IoRecord> = profile
            .workload(logical_pages, page_size, self.seed)
            .take(BENIGN_RECORDS)
            .collect();
        let _ = cell::ride(
            device,
            self.topology,
            records,
            &sink,
            &ProfilerHandle::disabled(),
        )?;
        device.clock().advance(PHASE_GAP_NS);

        // Phase 2: the hostage corpus.
        let victims = FileTable::populate(device, CORPUS_FILES, PAGES_PER_FILE, self.seed)
            .map_err(|e| FaultError::Scenario(format!("corpus population failed: {e}")))?;
        device.clock().advance(PHASE_GAP_NS);
        let attack_start = device.clock().now_ns();

        // Phase 3: arm the fault plan against the attack window and attack.
        let est = self
            .actor
            .ops_estimate(victims.total_pages(), logical_pages);
        let schedule = self
            .plan
            .resolve(device.ops_count(), est, self.topology.shards());
        let armed = device.arm_schedule(&schedule);
        if !armed && !schedule.is_none() {
            return Err(FaultError::Scenario(
                "cell has a fault plan but the device cannot arm schedules".to_string(),
            ));
        }

        let mut victim_lpas: Vec<u64>;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match attack_once(device, self.actor, &victims, self.seed) {
                Ok(lpas) => {
                    victim_lpas = lpas;
                    break;
                }
                Err(DeviceError::PowerLoss) if attempts < MAX_ATTACK_ATTEMPTS => {
                    restore_power_healing_link(device)?;
                    interruptions += 1;
                }
                Err(DeviceError::ShardFailed { .. }) if attempts < MAX_ATTACK_ATTEMPTS => {
                    // The defender rebuilds the dead member to the pre-attack
                    // point; the attacker (persistent malware) retries.
                    device.revive_dead_shards(Some(attack_start))?;
                    interruptions += 1;
                }
                Err(e) => {
                    return Err(FaultError::Scenario(format!(
                        "attack aborted on unexplained error after {attempts} attempts: {e}"
                    )))
                }
            }
        }

        // Phase 4: settle, audit, score. Scoring drives reads through the
        // same device, so whatever the schedule still holds (a cut past the
        // attack's actual op count — the estimate is rough) must not fire
        // mid-measurement: settle disarms first.
        let cutoff = (self.actor != ActorKind::None).then_some(attack_start);
        let settled = cell::settle(device, cutoff)?;
        interruptions += u64::from(settled.restored?);
        let (audit, analysis) = cell::audit(device, &sink);

        // Recovery scoring: can the defender produce every victim page's
        // pre-attack content — via point-in-time recovery, or because a rebuild
        // already put it back?
        victim_lpas.sort_unstable();
        victim_lpas.dedup();
        let (mut victim_count, mut recovered) = (0u64, 0u64);
        for &lpa in &victim_lpas {
            let Some(want) = victims.expected(lpa, page_size) else {
                continue;
            };
            victim_count += 1;
            let via_recovery = device
                .recover_as_of(lpa, attack_start)
                .is_some_and(|data| data == want);
            let via_content = via_recovery || device.read_page(lpa).is_ok_and(|data| data == want);
            if via_content {
                recovered += 1;
            }
        }
        let recovery_fraction = if victim_count == 0 {
            1.0
        } else {
            recovered as f64 / victim_count as f64
        };

        let offload = device.offload_totals();
        let remote_faults = device.remote_fault_totals();
        let attacked = self.actor != ActorKind::None;
        Ok(Scorecard {
            cell: self.cell_id(),
            seed: self.seed,
            verdict: analysis.verdict,
            detection_score: analysis.score,
            attack_class: analysis.attack_class.to_string(),
            true_positive: attacked && analysis.verdict != Verdict::Benign,
            false_positive: !attacked && analysis.verdict != Verdict::Benign,
            victim_pages: victim_count,
            recovered_pages: recovered,
            recovery_fraction,
            data_loss_bytes: (victim_count - recovered) * page_size as u64,
            chain_verified: audit.verified,
            chain_gap_detected: !audit.verified,
            records_audited: audit.records.len() as u64,
            power_cuts: device.power_cut_count(),
            torn_batches: device.torn_batch_count(),
            attack_interruptions: interruptions,
            shards_revived: settled.revived as u64,
            segments_offloaded: offload.segments_offloaded,
            offload_failures: offload.offload_failures,
            segments_spilled: offload.segments_spilled,
            spill_replayed: offload.spill_replayed,
            offloads_queued: remote_faults.offloads_queued,
            offloads_replayed: remote_faults.offloads_replayed,
            offloads_dropped: remote_faults.offloads_dropped,
            skipped_events: device.skipped_event_count(),
        })
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;

    fn card(cell: &str, victims: u64, recovered: u64, flagged: bool) -> Scorecard {
        Scorecard {
            cell: cell.to_string(),
            seed: 1,
            verdict: if flagged {
                Verdict::Ransomware
            } else {
                Verdict::Benign
            },
            detection_score: 0.0,
            attack_class: String::new(),
            true_positive: flagged && victims > 0,
            false_positive: flagged && victims == 0,
            victim_pages: victims,
            recovered_pages: recovered,
            recovery_fraction: if victims == 0 {
                1.0
            } else {
                recovered as f64 / victims as f64
            },
            data_loss_bytes: (victims - recovered) * 4096,
            chain_verified: true,
            chain_gap_detected: false,
            records_audited: 10,
            power_cuts: 1,
            torn_batches: 0,
            attack_interruptions: 2,
            shards_revived: 0,
            segments_offloaded: 3,
            offload_failures: 0,
            segments_spilled: 0,
            spill_replayed: 0,
            offloads_queued: 0,
            offloads_replayed: 0,
            offloads_dropped: 1,
            skipped_events: 0,
        }
    }

    #[test]
    fn invariants_catch_false_positive_and_lossy_fault_free_cell() {
        let mut clean = MatrixSummary::default();
        clean.absorb(&card("text/overwrite/none/bare", 8, 8, true));
        assert!(clean.invariants_hold());
        assert_eq!(clean.fault_free_attacked, 1);
        assert_eq!(clean.recovery_fraction(), 1.0);

        // Benign cell flagged: false-positive invariant fails.
        let mut alarmed = MatrixSummary::default();
        alarmed.absorb(&card("sql/none/drop/array", 0, 0, true));
        assert_eq!(alarmed.false_positives, 1);
        assert!(!alarmed.invariants_hold());

        // Fault-free cell that lost pages: recovery obligation fails.
        let mut lossy = MatrixSummary::default();
        lossy.absorb(&card("media/random/none/bare", 8, 5, true));
        assert!(!lossy.invariants_hold());
        assert!(lossy.recovery_fraction() < 1.0);
    }
}
