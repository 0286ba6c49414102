//! The three single-device workloads — `steady_qd32`, `read_mostly_qd1`
//! and `attack_recover` — share one shape: build a fresh stack, lay out
//! victims, prefill, drive a script through the NVMe queue layer (then run
//! the attack actors, if any), and finish with the post-attack phase.

use crate::driver::{controller, drive, DriveOutcome};
use crate::inputs::{Inputs, PayloadMix, ScriptSpec, PAGE_SIZE};
use crate::spans::{SpanTotals, Tracer};
use crate::stack::{bare_stack, plain_stack, prefill, spanned_stack, Stack, Uplink};
use crate::stats;
use rssd_attacks::{FileTable, GcAttack, TimingAttack, TrimAttack};
use rssd_core::{OffloadStats, PostAttackAnalyzer, RebuildImage, RecoveryEngine};
use rssd_detect::Verdict;
use rssd_flash::NandStats;
use rssd_ftl::FtlStats;
use rssd_net::TransferStats;
use rssd_remote::ServerReport;
use rssd_ssd::{BlockDevice, QueuePairStats};
use rssd_trace::{IoOp, PayloadKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// The victim files of `attack_recover` and how hard they are attacked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttackPlan {
    /// Files of the trim table (laid out first, from LPA 0).
    pub trim_files: usize,
    /// Pages per trim-table file.
    pub trim_file_pages: u64,
    /// Pages of the timing table's one file (laid out second).
    pub timing_pages: u64,
    /// Pages of the GC table's one file (laid out last, so the GC attack's
    /// flood — everything past its own table — clobbers no other table).
    pub gc_pages: u64,
    /// Times the GC attack overwrites the flood region.
    pub flood_rounds: u32,
    /// Pages the timing attack encrypts per burst.
    pub burst_pages: u64,
    /// Simulated quiet time between bursts.
    pub burst_interval_ns: u64,
}

impl AttackPlan {
    /// Pages the three tables occupy, i.e. the first LPA of benign traffic.
    pub fn victim_pages(&self) -> u64 {
        self.trim_files as u64 * self.trim_file_pages + self.timing_pages + self.gc_pages
    }
}

/// One single-device workload.
#[derive(Clone, Copy, Debug)]
pub struct DeviceWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Commands of the benign script.
    pub commands: usize,
    /// Fraction of the script that reads.
    pub read_fraction: f64,
    /// Queue depth of the closed loop.
    pub depth: usize,
    /// Payload classes of the writes.
    pub mix: PayloadMix,
    /// Where the evidence goes.
    pub uplink: Uplink,
    /// Whether the same script also runs on `PlainSsd`.
    pub plain_arm: bool,
    /// The attack, if any.
    pub attack: Option<AttackPlan>,
    /// Without an attack: how many of the first pages the script overwrites
    /// the post-attack phase rolls back to their pre-run content.
    pub rollback_pages: usize,
}

impl DeviceWorkload {
    /// The inputs of this workload for `seed`.
    pub fn inputs(&self, seed: u64) -> Inputs {
        Inputs::generate(
            seed,
            &ScriptSpec {
                commands: self.commands,
                read_fraction: self.read_fraction,
                mix: self.mix,
                lpa_base: self.attack.map_or(0, |plan| plan.victim_pages()),
                logical_pages: crate::stack::logical_pages(),
            },
        )
    }
}

/// Pages whose content the post-attack phase restores and verifies.
#[derive(Clone, Debug)]
pub struct VictimSet {
    /// Whether an attack actor destroyed these pages (they count for
    /// detection recall) or the benign script merely overwrote them.
    pub attacked: bool,
    /// The pages.
    pub lpas: Vec<u64>,
    /// Restore to the content valid just before this simulated time.
    pub cutoff_ns: u64,
    /// Expected content after the restore, one page per LPA.
    pub expected: Vec<Vec<u8>>,
}

/// Host time and findings of the post-attack phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PostAttack {
    /// Host seconds per step, in order: flush, history, analyze, restore,
    /// verify, harvest.
    pub step_s: [f64; 6],
    /// Everything that repeats exactly.
    pub sim: PostAttackSim,
}

impl PostAttack {
    /// Host seconds of the whole phase.
    pub fn total_s(&self) -> f64 {
        self.step_s.iter().sum()
    }
}

/// The deterministic findings of the post-attack phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PostAttackSim {
    /// `verified_history` succeeded.
    pub history_verified: bool,
    /// Records in the verified history.
    pub records: u64,
    /// The analyzer's verdict.
    pub verdict: Option<Verdict>,
    /// Pages the analyzer lists as victims.
    pub reported_victims: u64,
    /// Attacked pages.
    pub attacked: u64,
    /// Attacked pages the analyzer lists.
    pub attacked_reported: u64,
    /// Pages asked to be restored.
    pub victims: u64,
    /// Pages `restore_before` restored.
    pub restored: u64,
    /// Pages with no retained version.
    pub unrecoverable: u64,
    /// Simulated nanoseconds the restores took.
    pub recover_ns: u64,
    /// Pages holding their expected content after the restore.
    pub intact: u64,
    /// `RebuildImage::harvest` succeeded.
    pub harvest_verified: bool,
    /// Segments the harvest walked.
    pub segments: u64,
    /// Victim pages the harvested image covers.
    pub covered: u64,
}

/// The post-attack phase: `flush_log` → `verified_history` → `analyze` →
/// `restore_before` per victim set → read back and compare → `harvest`.
pub fn post_attack<S: Stack>(stack: &mut S, victims: &[VictimSet]) -> PostAttack {
    let mut out = PostAttack::default();
    let mut lap = Instant::now();
    let mut step = 0usize;
    let mut mark = |out: &mut PostAttack| {
        out.step_s[step] = lap.elapsed().as_secs_f64();
        step += 1;
        lap = Instant::now();
    };

    let flushed = stack.rssd_mut().flush_log().is_ok();
    mark(&mut out);

    let history = stack.rssd_mut().verified_history();
    out.sim.history_verified = flushed && history.is_ok();
    let history = history.unwrap_or_default();
    out.sim.records = history.len() as u64;
    mark(&mut out);

    let analysis = PostAttackAnalyzer::new().analyze(&history, out.sim.history_verified);
    out.sim.verdict = Some(analysis.verdict);
    out.sim.reported_victims = analysis.victim_lpas.len() as u64;
    for set in victims.iter().filter(|set| set.attacked) {
        out.sim.attacked += set.lpas.len() as u64;
        out.sim.attacked_reported += set
            .lpas
            .iter()
            .filter(|lpa| analysis.victim_lpas.binary_search(lpa).is_ok())
            .count() as u64;
    }
    drop(history);
    mark(&mut out);

    for set in victims {
        let report =
            RecoveryEngine::new().restore_before(stack.rssd_mut(), &set.lpas, set.cutoff_ns);
        out.sim.victims += set.lpas.len() as u64;
        out.sim.restored += report.pages_restored;
        out.sim.unrecoverable += report.pages_unrecoverable;
        out.sim.recover_ns += report.duration_ns;
    }
    mark(&mut out);

    for set in victims {
        for (lpa, expected) in set.lpas.iter().zip(&set.expected) {
            if stack.read_page(*lpa).is_ok_and(|data| data == *expected) {
                out.sim.intact += 1;
            }
        }
    }
    mark(&mut out);

    let keys = stack.rssd().escrow_keys();
    let image = RebuildImage::harvest(&keys, stack.rssd_mut().remote_mut());
    out.sim.harvest_verified = image.is_ok();
    if let Ok(image) = image {
        out.sim.segments = image.report().segments;
        out.sim.covered = victims
            .iter()
            .flat_map(|set| &set.lpas)
            .filter(|lpa| image.covers(**lpa))
            .count() as u64;
    }
    mark(&mut out);
    out
}

/// Counter differences over the timed phases, and everything else about a
/// repetition that must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct SimFigures {
    /// Commands the queue layer completed.
    pub completed: u64,
    /// Commands of the attack actors (reads, writes, trims, flood writes).
    pub attack_ops: u64,
    /// Flood writes the GC actor swallowed as stalls.
    pub swallowed_stalls: u64,
    /// Simulated nanoseconds the scripted replay took.
    pub replay_sim_ns: u64,
    /// Median submission→completion latency of the replay, simulated ns.
    pub lat_p50_ns: u64,
    /// 99.9th percentile of the same.
    pub lat_p999_ns: u64,
    /// Digest of every byte the replay read.
    pub read_digest: u64,
    /// Queue-pair accounting of the replay.
    pub queue: QueuePairStats,
    /// FTL counters accrued over the timed phases.
    pub ftl: FtlStats,
    /// Offload counters accrued over the timed phases.
    pub offload: OffloadStats,
    /// NAND counters at the end of the timed phases (prefill included).
    pub nand: NandStats,
    /// Simulated clock at the end of the timed phases.
    pub sim_end_ns: u64,
    /// Wire protocol counters at the end of the timed phases.
    pub wire: TransferStats,
    /// The log server's dashboard at the end of the timed phases.
    pub server: ServerReport,
    /// Bytes the log server stores at the end of the timed phases.
    pub stored_bytes: u64,
    /// Findings of the post-attack phase.
    pub post: PostAttackSim,
    /// The plain arm, when the workload has one.
    pub plain: Option<PlainFigures>,
}

/// What the plain arm must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct PlainFigures {
    /// Simulated nanoseconds the replay took on `PlainSsd`.
    pub replay_sim_ns: u64,
    /// Digest of every byte the replay read.
    pub read_digest: u64,
    /// Sampled pages that read back different bytes on the two arms.
    pub sample_mismatches: u64,
}

/// One repetition's measurements.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Host seconds to build the stack(s), lay out victims and prefill.
    pub setup_s: f64,
    /// Host seconds of the scripted replay.
    pub replay_s: f64,
    /// Host seconds of the attack actors.
    pub attack_s: f64,
    /// Host seconds of the plain arm's replay.
    pub plain_replay_s: f64,
    /// Completions that carried an error.
    pub failed: u64,
    /// Arbitration rounds of the replay.
    pub rounds: u64,
    /// The post-attack phase.
    pub post: PostAttack,
    /// Everything that must repeat exactly.
    pub sim: SimFigures,
    /// Span totals of the timed phases (traced repetitions only).
    pub timed_spans: BTreeMap<&'static str, SpanTotals>,
    /// Self time under `ssd.process_round` roots in the timed phases.
    pub under_round_self_ns: u64,
    /// Span totals of the post-attack phase (traced repetitions only).
    pub post_spans: BTreeMap<&'static str, SpanTotals>,
}

impl Rep {
    /// Commands attempted: the script plus the attack actors'.
    pub fn attempted(&self) -> u64 {
        self.sim.completed + self.sim.attack_ops
    }

    /// Host seconds of the timed phases.
    pub fn timed_s(&self) -> f64 {
        self.replay_s + self.attack_s
    }
}

fn ftl_delta(end: &FtlStats, start: &FtlStats) -> FtlStats {
    FtlStats {
        host_pages_written: end.host_pages_written - start.host_pages_written,
        host_pages_read: end.host_pages_read - start.host_pages_read,
        gc_pages_migrated: end.gc_pages_migrated - start.gc_pages_migrated,
        gc_blocks_erased: end.gc_blocks_erased - start.gc_blocks_erased,
        gc_invocations: end.gc_invocations - start.gc_invocations,
        pages_trimmed: end.pages_trimmed - start.pages_trimmed,
        write_stalls: end.write_stalls - start.write_stalls,
    }
}

fn offload_delta(end: &OffloadStats, start: &OffloadStats) -> OffloadStats {
    OffloadStats {
        segments_offloaded: end.segments_offloaded - start.segments_offloaded,
        records_offloaded: end.records_offloaded - start.records_offloaded,
        retained_pages_offloaded: end.retained_pages_offloaded - start.retained_pages_offloaded,
        raw_bytes: end.raw_bytes - start.raw_bytes,
        sealed_bytes: end.sealed_bytes - start.sealed_bytes,
        offload_failures: end.offload_failures - start.offload_failures,
        sync_offloads: end.sync_offloads - start.sync_offloads,
        segments_sealed: end.segments_sealed - start.segments_sealed,
        segments_spilled: end.segments_spilled - start.segments_spilled,
        spill_replayed: end.spill_replayed - start.spill_replayed,
        throttled_writes: end.throttled_writes - start.throttled_writes,
        throttle_penalty_ns: end.throttle_penalty_ns - start.throttle_penalty_ns,
        health: end.health,
        health_peak: end.health_peak,
    }
}

/// Sampled LPAs whose bytes the two arms must agree on.
const ARM_SAMPLE: u64 = 1024;

/// Lays out the three victim tables in LPA order trim, timing, gc.
fn lay_out_tables<D: BlockDevice>(device: &mut D, plan: &AttackPlan, seed: u64) -> [FileTable; 3] {
    let trim = FileTable::populate(device, plan.trim_files, plan.trim_file_pages, seed)
        .expect("victim files fit a fresh device");
    let mut timing = FileTable::starting_at(trim.next_lpa());
    timing
        .create_file(
            device,
            "timing/ledger.db",
            plan.timing_pages,
            PayloadKind::Text,
            seed ^ 0x7131,
        )
        .expect("victim files fit a fresh device");
    let mut gc = FileTable::starting_at(timing.next_lpa());
    gc.create_file(
        device,
        "gc/archive.bin",
        plan.gc_pages,
        PayloadKind::Binary,
        seed ^ 0x6C0C,
    )
    .expect("victim files fit a fresh device");
    [trim, timing, gc]
}

fn victim_set(table: &FileTable, cutoff_ns: u64) -> VictimSet {
    VictimSet {
        attacked: true,
        lpas: table.all_lpas(),
        cutoff_ns,
        expected: table
            .files()
            .iter()
            .flat_map(|file| (0..file.pages).map(|i| file.expected_page(i, PAGE_SIZE)))
            .collect(),
    }
}

/// Runs one repetition of `workload` on `stack` (fresh, empty).
///
/// `setup_started` is when the caller began building `stack`, so that
/// construction counts as set-up.
pub fn run_rep<S: Stack>(
    workload: &DeviceWorkload,
    inputs: &Inputs,
    seed: u64,
    mut stack: S,
    setup_started: Instant,
    tracer: &Tracer,
) -> Rep {
    // Set-up: victims, prefill, and the plain arm's device.
    let tables = workload
        .attack
        .map(|plan| lay_out_tables(&mut stack, &plan, seed));
    let base = workload.attack.map_or(0, |plan| plan.victim_pages());
    prefill(&mut stack, &inputs.pool, base);
    let mut plain = workload.plain_arm.then(|| {
        let mut plain = plain_stack();
        prefill(&mut plain, &inputs.pool, 0);
        plain
    });
    let setup_s = setup_started.elapsed().as_secs_f64();

    let ftl_start = *stack.rssd().ftl_stats();
    let offload_start = stack.rssd().offload_stats();
    let (mut controller, queue) = controller(stack, workload.depth);
    drop(tracer.take_totals());

    // Timed: the scripted replay through the queue layer...
    let started = Instant::now();
    let mut driven: DriveOutcome = drive(
        &mut controller,
        queue,
        workload.depth,
        &inputs.script,
        &inputs.pool,
        tracer,
    );
    let replay_s = started.elapsed().as_secs_f64();
    let queue_stats = controller.stats(queue).clone();

    // ...then the attack actors, through the scalar `BlockDevice` calls.
    let started = Instant::now();
    let mut attack_ops = 0u64;
    let mut swallowed_stalls = 0u64;
    let mut victims: Vec<VictimSet> = Vec::new();
    if let (Some(plan), Some([trim, timing, gc])) = (workload.attack, &tables) {
        let device = controller.device_mut();
        let flood_attempts =
            u64::from(plan.flood_rounds) * (device.logical_pages() - gc.next_lpa());
        let gc_outcome = GcAttack::new(seed, plan.flood_rounds)
            .execute(device, gc)
            .expect("GC attack runs to completion");
        let trim_outcome = TrimAttack::new(seed, false)
            .execute(device, trim)
            .expect("trim attack runs to completion");
        let timing_outcome = TimingAttack::new(seed, plan.burst_pages, plan.burst_interval_ns)
            .execute(device, timing, |_| Ok(()))
            .expect("timing attack runs to completion");
        attack_ops = 2 * (gc_outcome.pages_encrypted + timing_outcome.pages_encrypted)
            + flood_attempts
            + trim_outcome.pages_trimmed;
        swallowed_stalls = flood_attempts - gc_outcome.flood_pages;
        victims = vec![
            victim_set(gc, gc_outcome.start_ns),
            victim_set(trim, trim_outcome.start_ns),
            victim_set(timing, timing_outcome.start_ns),
        ];
    }
    let attack_s = started.elapsed().as_secs_f64();
    let timed_spans = tracer.take_totals();
    let under_round_self_ns = tracer.take_under_root_self_ns();

    let mut stack = controller.into_device();
    if workload.attack.is_none() {
        // No attack: roll the first pages the script overwrote back to what
        // prefill put there, so the restore path runs on every workload.
        let mut lpas: Vec<u64> = Vec::new();
        for cmd in inputs.script.iter().filter(|cmd| cmd.op == IoOp::Write) {
            if lpas.len() == workload.rollback_pages {
                break;
            }
            if !lpas.contains(&cmd.lpa) {
                lpas.push(cmd.lpa);
            }
        }
        victims.push(VictimSet {
            attacked: false,
            expected: lpas
                .iter()
                .map(|lpa| inputs.pool.page(inputs.pool.prefill_slot(*lpa)).to_vec())
                .collect(),
            lpas,
            cutoff_ns: driven.sim_start_ns,
        });
    }

    let mut latencies = std::mem::take(&mut driven.latencies_ns);
    let mut sim = SimFigures {
        completed: driven.completed,
        attack_ops,
        swallowed_stalls,
        replay_sim_ns: driven.sim_end_ns - driven.sim_start_ns,
        lat_p50_ns: stats::quantile(&mut latencies, 0.5),
        lat_p999_ns: stats::quantile(&mut latencies, 0.999),
        read_digest: driven.read_digest,
        queue: queue_stats,
        ftl: ftl_delta(stack.rssd().ftl_stats(), &ftl_start),
        offload: offload_delta(&stack.rssd().offload_stats(), &offload_start),
        nand: stack.rssd().nand_stats().clone(),
        sim_end_ns: stack.clock().now_ns(),
        wire: stack.wire_stats(),
        server: stack.server().report(),
        stored_bytes: stack.server().store_stats().stored_bytes,
        post: PostAttackSim::default(),
        plain: None,
    };

    // The plain arm: same script, and the two arms must agree on every byte
    // read during the replay and on a sample of pages afterwards.
    let mut plain_replay_s = 0.0;
    if let Some(plain) = plain.take() {
        let (mut plain_controller, plain_queue) = crate::driver::controller(plain, workload.depth);
        let started = Instant::now();
        let plain_driven = drive(
            &mut plain_controller,
            plain_queue,
            workload.depth,
            &inputs.script,
            &inputs.pool,
            &Tracer::disabled(),
        );
        plain_replay_s = started.elapsed().as_secs_f64();
        let mut plain = plain_controller.into_device();
        let logical = plain.logical_pages();
        let mut sample_mismatches = 0u64;
        for i in 0..ARM_SAMPLE.min(logical) {
            let lpa = crate::inputs::mix64(seed ^ i) % logical;
            if stack.read_page(lpa).ok() != plain.read_page(lpa).ok() {
                sample_mismatches += 1;
            }
        }
        sim.plain = Some(PlainFigures {
            replay_sim_ns: plain_driven.sim_end_ns - plain_driven.sim_start_ns,
            read_digest: plain_driven.read_digest,
            sample_mismatches,
        });
    }

    drop(tracer.take_totals());
    let post = post_attack(&mut stack, &victims);
    sim.post = post.sim.clone();
    Rep {
        setup_s,
        replay_s,
        attack_s,
        plain_replay_s,
        failed: driven.failed + swallowed_stalls,
        rounds: driven.rounds,
        post,
        sim,
        timed_spans,
        under_round_self_ns,
        post_spans: tracer.take_totals(),
    }
}

/// One untraced repetition on a fresh stack.
pub fn untraced_rep(workload: &DeviceWorkload, inputs: &Inputs, seed: u64) -> Rep {
    let started = Instant::now();
    let stack = bare_stack(workload.uplink);
    run_rep(workload, inputs, seed, stack, started, &Tracer::disabled())
}

/// One traced repetition on a fresh stack with a span wrapper at every
/// seam, recording into `tracer`.
pub fn traced_rep(workload: &DeviceWorkload, inputs: &Inputs, seed: u64, tracer: &Tracer) -> Rep {
    let started = Instant::now();
    let stack = spanned_stack(workload.uplink, tracer);
    run_rep(workload, inputs, seed, stack, started, tracer)
}
