//! One fleet member: tenant workload, attack overlay, fault schedule and
//! per-member scoring, on the staged cell runner of [`rssd_faults::cell`].
//!
//! A member is fully share-nothing: it owns its simulated clock, its NVMe-oE
//! uplink, its fault injector, and its RNG stream, all derived from
//! `(fleet seed, member id)` via [`member_seed`]. Running a member touches
//! no shared state, which is what lets the fleet execute members on any
//! worker thread in any order and still merge to a byte-identical report.

use crate::config::{member_seed, FleetConfig};
use rssd_core::{LogOp, OffloadStats, PostAttackAnalyzer};
use rssd_detect::{Verdict, WriteObservation};
use rssd_faults::cell::{self, CellBody};
use rssd_faults::{
    corpus_pages, next_phase_ns, FaultInjector, FaultSchedule, FaultTarget, PartitionMode, Topology,
};
use rssd_flash::NandStats;
use rssd_ftl::FtlStats;
use rssd_obs::{ProfileBreakdown, ProfilerHandle, SinkHandle, TraceEvent};
use rssd_ssd::{BlockDevice, LatencyStats, QueuePairStats};
use rssd_trace::{DiurnalLoad, IoRecord, PayloadKind, ReplayStats, TraceProfile, Zipf};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Attack cadence: one victim page read-encrypt-overwritten per tick.
const ATTACK_TICK_NS: u64 = 2_000_000;
/// Device ids leave room for array shards: member m's shard s gets
/// `m * DEVICE_ID_STRIDE + s`.
const DEVICE_ID_STRIDE: u64 = 16;

/// A member run failed in a way the harness cannot absorb.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetError {
    /// Member that failed.
    pub member: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fleet member {} failed: {}", self.member, self.detail)
    }
}

impl std::error::Error for FleetError {}

/// Per-member verdict and accounting, one row of the fleet scoreboard.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemberScorecard {
    /// Member id within the fleet.
    pub member: usize,
    /// Device kind label ("bare", "array3", ...).
    pub kind: String,
    /// Tenant this member serves.
    pub tenant: usize,
    /// Trace profile the tenant runs.
    pub profile: String,
    /// Ground truth: did this member run the ransomware actor?
    pub compromised: bool,
    /// Whether this member ran under a seeded fault schedule.
    pub faulted: bool,
    /// Whether this member rode a sustained uplink outage on spill-enabled
    /// hardware.
    pub degraded: bool,
    /// Chain-derived post-attack verdict.
    pub verdict: Verdict,
    /// Ensemble detection score behind the verdict.
    pub detection_score: f64,
    /// Attack classification label.
    pub attack_class: String,
    /// Did the evidence chain verify end to end?
    pub chain_verified: bool,
    /// Records in the audited history.
    pub records_audited: u64,
    /// Workload records issued to the member.
    pub ops: u64,
    /// Member-local simulated completion time.
    pub sim_end_ns: u64,
    /// Power cuts the member absorbed.
    pub power_cuts: u64,
    /// Replay interruptions (power cuts, dead-shard refusals) absorbed.
    pub interruptions: u64,
}

/// Everything one member run produces, before the fleet merge.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberOutcome {
    /// The member's scoreboard row.
    pub scorecard: MemberScorecard,
    /// NAND counters, merged across array shards.
    pub nand: NandStats,
    /// FTL counters, merged across array shards.
    pub ftl: FtlStats,
    /// Evidence-offload counters.
    pub offload: OffloadStats,
    /// Device-side service latency distribution.
    pub latency: LatencyStats,
    /// Host-side queue-pair accounting, merged over the member's pairs.
    pub queues: QueuePairStats,
    /// Replay accounting (stitched across fault interruptions).
    pub replay: ReplayStats,
    /// Detector observations from the member's audited evidence log, in
    /// chain order.
    pub observations: Vec<WriteObservation>,
}

/// What to collect alongside a member (or fleet) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// Record dual-timeline trace events into a per-member recording sink.
    pub trace: bool,
    /// Profile the host-side replay hot loop's phase breakdown.
    pub profile: bool,
}

impl ObsOptions {
    /// Collect everything.
    #[must_use]
    pub fn all() -> Self {
        ObsOptions {
            trace: true,
            profile: true,
        }
    }
}

/// Host-side observability by-products of one member run: these live
/// *outside* [`MemberOutcome`] because they are functions of the host
/// (wall-clock phase times) or of the observer (trace buffers), not of the
/// simulated member, and must never enter the determinism contract.
#[derive(Clone, Debug, Default)]
pub struct MemberObs {
    /// Host wall-clock phase breakdown of the member's replay.
    pub profile: ProfileBreakdown,
    /// Trace events recorded during the run, tracks prefixed `m{id}/`.
    pub events: Vec<TraceEvent>,
}

/// Runs fleet member `member` of `config` to completion.
///
/// The run is a pure function of `(config minus workers, member)`: build
/// the device, synthesize the tenant's stream (benign prefix, hostage
/// corpus, optional ransomware overlay), ride it through the NVMe queue
/// layer under the member's fault schedule, then settle the device, audit
/// the evidence chain and score the member.
///
/// # Errors
///
/// [`FleetError`] when the member's replay aborts on an error the fault
/// harness cannot absorb (anything but power loss and dead-shard refusals).
pub fn run_member(config: &FleetConfig, member: usize) -> Result<MemberOutcome, FleetError> {
    run_member_instrumented(config, member, ObsOptions::default()).map(|(outcome, _)| outcome)
}

/// [`run_member`] with observability attached: when `obs.trace` is set a
/// recording sink (tracks prefixed `m{member}/`) captures the member's
/// dual-timeline events, and when `obs.profile` is set a phase profiler
/// brackets the replay hot loop. The simulated outcome is byte-identical
/// to [`run_member`]'s either way — observers never feed back into the
/// simulation; the fleet's property tests pin this.
///
/// # Errors
///
/// Same failure surface as [`run_member`].
pub fn run_member_instrumented(
    config: &FleetConfig,
    member: usize,
    obs: ObsOptions,
) -> Result<(MemberOutcome, MemberObs), FleetError> {
    let sink = if obs.trace {
        SinkHandle::recording().with_track_prefix(&format!("m{member}/"))
    } else {
        SinkHandle::disabled()
    };
    let profiler = if obs.profile {
        ProfilerHandle::enabled()
    } else {
        ProfilerHandle::disabled()
    };
    let first_id = member as u64 * DEVICE_ID_STRIDE;
    let outcome = cell::build(
        config.member_topology(member),
        // Degraded members ride their outage on spill-enabled hardware.
        config.member_degraded(member),
        config.link,
        |shard| first_id + shard.unwrap_or(0) as u64,
        MemberBody {
            config,
            member,
            sink: &sink,
            profiler: &profiler,
        },
    )?;
    Ok((
        outcome,
        MemberObs {
            profile: profiler.finish(),
            events: sink.take_events(),
        },
    ))
}

/// The member body [`cell::build`] runs on the member's device: what is
/// about this member of the population — its tenant, its stream, its
/// schedule, its scorecard — around the shared stages.
struct MemberBody<'a> {
    config: &'a FleetConfig,
    member: usize,
    sink: &'a SinkHandle,
    profiler: &'a ProfilerHandle,
}

impl CellBody for MemberBody<'_> {
    type Output = Result<MemberOutcome, FleetError>;

    fn run<D: FaultTarget>(self, device: &mut FaultInjector<D>) -> Self::Output {
        let MemberBody {
            config,
            member,
            sink,
            profiler,
        } = self;
        let fail = |what: &str, e| FleetError {
            member,
            detail: format!("{what}: {e}"),
        };
        let mseed = member_seed(config.seed, member);
        let topology = config.member_topology(member);
        let compromised = config.member_compromised(member);
        let faulted = config.member_faulted(member);
        let degraded = config.member_degraded(member);
        let kind = match topology {
            Topology::Array { .. } => topology.label(),
            _ => "bare".to_string(),
        };

        let (tenant, profile) = assign_tenant(config, mseed);
        profiler.enter("synthesis");
        let records = synthesize_stream(
            config,
            mseed,
            tenant,
            &profile,
            compromised,
            device.logical_pages(),
            device.page_size(),
        );
        profiler.exit();
        let total = records.len() as u64;
        let mut schedule = if faulted {
            FaultSchedule::seeded(mseed, total, topology.shards())
        } else {
            FaultSchedule::none()
        };
        if degraded {
            // The sustained outage: the uplink blacks out (refused offloads,
            // no relay) for the middle ~30 % of the replay. Sealed segments
            // ride the spill region; the health machine degrades and recovers.
            let outage =
                FaultSchedule::partition(PartitionMode::Refuse, 7 * total / 20, 13 * total / 20);
            schedule =
                FaultSchedule::new("degraded", [schedule.events(), outage.events()].concat());
        }
        device.arm(&schedule);
        device.set_trace_sink(sink.clone());
        if sink.is_enabled() {
            sink.instant(
                "member",
                "member_start",
                device.clock().now_ns(),
                &[
                    ("kind", kind.clone()),
                    ("tenant", tenant.to_string()),
                    ("profile", profile.name.to_string()),
                    ("compromised", compromised.to_string()),
                    ("faulted", faulted.to_string()),
                    ("degraded", degraded.to_string()),
                    ("records", total.to_string()),
                ],
            );
        }

        let ride =
            cell::ride(device, topology, records, sink, profiler).map_err(|e| fail("replay", e))?;
        // A member whose power could not be restored stays down; its audit
        // flags the gap, so what `settle` reports needs no second reading.
        let _ = cell::settle(device, None).map_err(|e| fail("revive", e))?;

        profiler.enter("detect");
        let (audit, analysis) = cell::audit(device, sink);
        // The fleet detector sees what the device logged: every non-read
        // record's entropy, validity and read-before flag, in chain order.
        let observations = audit
            .records
            .iter()
            .filter(|record| record.op != LogOp::Read)
            .map(PostAttackAnalyzer::observation)
            .collect();
        profiler.exit();
        let sim_end_ns = device.clock().now_ns();
        if sink.is_enabled() {
            sink.instant(
                "member",
                "member_done",
                sim_end_ns,
                &[
                    ("verdict", format!("{:?}", analysis.verdict)),
                    ("score", format!("{:.3}", analysis.score)),
                    ("ops", ride.replay.records.to_string()),
                    ("interruptions", ride.interruptions.to_string()),
                    ("chain_verified", audit.verified.to_string()),
                ],
            );
        }

        Ok(MemberOutcome {
            scorecard: MemberScorecard {
                member,
                kind,
                tenant,
                profile: profile.name.to_string(),
                compromised,
                faulted,
                degraded,
                verdict: analysis.verdict,
                detection_score: analysis.score,
                attack_class: analysis.attack_class.to_string(),
                chain_verified: audit.verified,
                records_audited: audit.records.len() as u64,
                ops: ride.replay.records,
                sim_end_ns,
                power_cuts: device.power_cut_count(),
                interruptions: ride.interruptions,
            },
            nand: device.nand_totals(),
            ftl: device.ftl_totals(),
            offload: device.offload_totals(),
            latency: device.latency_totals(),
            queues: ride.queues,
            replay: ride.replay,
            observations,
        })
    }
}

/// Zipf-samples the member's tenant and resolves the tenant's profile.
fn assign_tenant(config: &FleetConfig, mseed: u64) -> (usize, TraceProfile) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let tenants = config.tenants.max(1);
    let mut rng = StdRng::seed_from_u64(mseed);
    let tenant = Zipf::new(tenants, config.zipf_theta).sample(&mut rng);
    let all = TraceProfile::all();
    let profile = all[tenant % all.len()].clone();
    (tenant, profile)
}

/// Builds the member's full record stream: benign prefix from the tenant's
/// calibrated profile (with diurnal pacing when enabled), the hostage
/// corpus, and — on compromised members — a classic read-encrypt-overwrite
/// pass over the corpus followed by a trim sweep of the scratch tail.
fn synthesize_stream(
    config: &FleetConfig,
    mseed: u64,
    tenant: usize,
    profile: &TraceProfile,
    compromised: bool,
    logical_pages: u64,
    page_size: usize,
) -> Vec<IoRecord> {
    let tenants = config.tenants.max(1);
    let mut builder = profile.workload_builder(logical_pages, page_size, mseed);
    if config.diurnal {
        let curve =
            DiurnalLoad::seeded(config.seed).with_phase_fraction(tenant as f64 / tenants as f64);
        builder = builder.diurnal(curve);
    }
    let mut records: Vec<IoRecord> = builder.build().take(config.ops_per_member).collect();
    let benign_end = records.last().map_or(0, |r| r.at_ns);

    // The hostage corpus: known content in the hot region, journal-flushed.
    let corpus_pages = corpus_pages(logical_pages);
    let mut at = next_phase_ns(benign_end);
    for lpa in 0..corpus_pages {
        records.push(IoRecord::write(at, lpa, PayloadKind::Text, mseed ^ lpa));
        at += 1_000_000;
    }

    if compromised {
        // Classic ransomware: read each hostage page, overwrite it with an
        // incompressible ciphertext, then trim-sweep the next stripe of
        // pages — fast cadence, the Figure-6 "classic" actor shape.
        at = next_phase_ns(at);
        for lpa in 0..corpus_pages {
            records.push(IoRecord::read(at, lpa));
            records.push(IoRecord::write(
                at + ATTACK_TICK_NS / 4,
                lpa,
                PayloadKind::Random,
                mseed ^ lpa ^ 0xdead,
            ));
            at += ATTACK_TICK_NS;
        }
        for lpa in corpus_pages..(corpus_pages * 2).min(logical_pages) {
            records.push(IoRecord::trim(at, lpa));
            at += ATTACK_TICK_NS / 2;
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_core::OffloadHealth;

    fn small_config() -> FleetConfig {
        FleetConfig {
            members: 8,
            ops_per_member: 60,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn member_run_is_deterministic() {
        let cfg = small_config();
        let a = run_member(&cfg, 0).unwrap();
        let b = run_member(&cfg, 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_members_differ() {
        let cfg = small_config();
        let a = run_member(&cfg, 0).unwrap();
        let b = run_member(&cfg, 1).unwrap();
        assert_ne!(a.scorecard.sim_end_ns, 0);
        assert_ne!(a.replay, b.replay);
    }

    #[test]
    fn compromised_member_is_detected_benign_member_is_not() {
        let cfg = FleetConfig {
            members: 64,
            ops_per_member: 80,
            ..FleetConfig::default()
        };
        let attacked = (0..cfg.members).find(|&m| cfg.member_compromised(m));
        let clean = (0..cfg.members).find(|&m| !cfg.member_compromised(m));
        let attacked = run_member(&cfg, attacked.expect("some member compromised")).unwrap();
        let clean = run_member(&cfg, clean.expect("some member clean")).unwrap();
        assert_ne!(
            attacked.scorecard.verdict,
            Verdict::Benign,
            "ransomware member must be flagged: {:?}",
            attacked.scorecard
        );
        assert_eq!(
            clean.scorecard.verdict,
            Verdict::Benign,
            "benign member must stay clean: {:?}",
            clean.scorecard
        );
    }

    #[test]
    fn array_member_merges_shard_stats() {
        let cfg = small_config();
        let id = (0..cfg.members)
            .find(|&m| cfg.member_topology(m).shards() > 1)
            .expect("mix rule yields an array member");
        let outcome = run_member(&cfg, id).unwrap();
        assert_eq!(outcome.scorecard.kind, "array3");
        assert!(outcome.nand.programs() > 0);
        assert!(outcome.offload.segments_offloaded > 0);
    }

    #[test]
    fn degraded_member_spills_through_the_outage_and_recovers() {
        let cfg = FleetConfig {
            members: 8,
            ops_per_member: 80,
            outage_fraction: 1.0,
            ..FleetConfig::default()
        };
        let id = (0..cfg.members)
            .find(|&m| cfg.member_compromised(m) && cfg.member_topology(m).shards() == 1)
            .expect("some bare member compromised");
        assert!(cfg.member_degraded(id), "outage_fraction 1.0 degrades all");
        let outcome = run_member(&cfg, id).unwrap();
        assert!(outcome.scorecard.degraded);
        assert!(
            outcome.offload.offload_failures > 0,
            "the blackout refused offload traffic: {:?}",
            outcome.offload
        );
        assert!(
            outcome.offload.segments_spilled > 0,
            "sealed evidence staged durably during the outage: {:?}",
            outcome.offload
        );
        assert_eq!(
            outcome.offload.segments_offloaded, outcome.offload.segments_sealed,
            "the backlog fully drained after heal"
        );
        assert!(outcome.scorecard.chain_verified, "outage must not fork");
        assert_ne!(
            outcome.scorecard.verdict,
            Verdict::Benign,
            "detection survives the degraded run"
        );
        assert!(
            outcome.offload.health_peak > OffloadHealth::Healthy,
            "the health machine left Healthy during the blackout"
        );
    }

    #[test]
    fn degraded_members_leave_clean_members_untouched() {
        // outage_fraction 0 must reproduce the exact pre-outage fleet
        // behavior: same devices, same schedules, same bytes.
        let cfg = small_config();
        assert!((0..cfg.members).all(|m| !cfg.member_degraded(m)));
        let a = run_member(&cfg, 0).unwrap();
        let b = run_member(&cfg, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.offload.segments_spilled, 0);
        // A healthy wire never degrades past Buffering (transient staging
        // between seal and ack).
        assert!(a.offload.health_peak <= OffloadHealth::Buffering);
    }
}
