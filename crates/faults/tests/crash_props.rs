//! Crash-consistency property tests.
//!
//! The durability contract under arbitrary power cuts (DESIGN.md §6):
//!
//! 1. **Prefix consistency** — after `crash()` + `recover()`, device
//!    contents equal exactly the state produced by the acknowledged
//!    command prefix: every acked write/trim is durable, the cut command
//!    and everything after it never happened.
//! 2. **No chain fork** — `verified_history()` never errors across a
//!    crash: the chain resumes at the durable head, the lost volatile tail
//!    is truncated, and post-restart appends verify end to end.
//!
//! Both properties are checked for a bare device and a 4-shard array,
//! under random workloads and random cut points — and, for a device
//! offloading over a WAN with acks in flight, at *every* cut point of a
//! short attack workload.

use proptest::prelude::*;
use rssd_array::RssdArray;
use rssd_core::{LogOp, LoopbackTarget, RssdDevice, WireRemote};
use rssd_faults::{scenario_member, FaultInjector, FaultSchedule, FaultTarget};
use rssd_flash::SimClock;
use rssd_net::LinkConfig;
use rssd_ssd::{BlockDevice, DeviceError};
use std::collections::HashMap;

fn member(device_id: u64) -> RssdDevice<WireRemote<LoopbackTarget>> {
    scenario_member(
        device_id,
        false,
        WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal()),
    )
}

fn page(b: u8, size: usize) -> Vec<u8> {
    vec![b; size]
}

/// Applies `ops` until the cut lands, tracking the acknowledged state,
/// then restores power and checks both contract clauses.
fn check_crash_consistency<D: FaultTarget>(
    mut injector: FaultInjector<D>,
    ops: &[(u8, u64, u8)],
    span: u64,
) {
    let page_size = injector.page_size();
    let mut acked: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut cut_seen = false;
    for &(kind, lpa_raw, fill) in ops {
        let lpa = lpa_raw % span;
        let result = match kind % 3 {
            0 | 1 => injector
                .write_page(lpa, page(fill, page_size))
                .map(|()| acked.insert(lpa, page(fill, page_size)))
                .map(|_| ()),
            _ => injector
                .trim_page(lpa)
                .map(|()| acked.insert(lpa, page(0, page_size)))
                .map(|_| ()),
        };
        match result {
            Ok(()) => {}
            Err(DeviceError::PowerLoss) => {
                cut_seen = true;
                break;
            }
            Err(e) => panic!("unexpected device error: {e}"),
        }
    }
    if cut_seen {
        let _ = injector.power_restore().expect("recovery must succeed");
    }
    // The checks below drive I/O through the injector too; a cut that had
    // not yet come due must not fire mid-verification.
    injector.arm(&FaultSchedule::none());
    // Clause 1: contents equal the acknowledged prefix exactly.
    for (lpa, expected) in &acked {
        let got = injector.read_page(*lpa).expect("device is back up");
        assert_eq!(&got, expected, "lpa {lpa} diverged from acked state");
    }
    // Clause 2: the chain verifies — no fork, no silent truncation — and
    // keeps verifying after post-restart traffic.
    let audit = injector.history_audit();
    assert!(audit.verified, "history after crash: {:?}", audit.failure);
    injector
        .write_page(0, page(0xA5, page_size))
        .expect("post-restart write");
    let audit = injector.history_audit();
    assert!(
        audit.verified,
        "history after post-restart append: {:?}",
        audit.failure
    );
}

proptest! {
    #[test]
    fn bare_device_state_is_prefix_consistent_after_power_cut(
        ops in proptest::collection::vec((0u8..3, 0u64..64, 0u8..255), 1..120),
        cut in 0u64..140,
    ) {
        let device = member(1);
        let span = device.logical_pages();
        let injector = FaultInjector::new(device, &FaultSchedule::power_cut(cut));
        check_crash_consistency(injector, &ops, span);
    }

    #[test]
    fn four_shard_array_state_is_prefix_consistent_after_power_cut(
        ops in proptest::collection::vec((0u8..3, 0u64..256, 0u8..255), 1..100),
        cut in 0u64..120,
    ) {
        let array = RssdArray::new((0..4).map(member).collect(), 4, SimClock::new());
        let span = array.logical_pages();
        let injector = FaultInjector::new(array, &FaultSchedule::power_cut(cut));
        check_crash_consistency(injector, &ops, span);
    }

    #[test]
    fn repeated_cuts_never_fork_the_chain(
        ops in proptest::collection::vec((0u8..3, 0u64..48, 0u8..255), 10..80),
        cut1 in 0u64..40,
        cut2 in 0u64..40,
    ) {
        use rssd_faults::FaultEvent;
        let device = member(1);
        let span = device.logical_pages();
        let schedule = FaultSchedule::new(
            "two_cuts",
            vec![
                FaultEvent::PowerCut { at_op: cut1 },
                FaultEvent::PowerCut { at_op: cut1 + 1 + cut2 },
            ],
        );
        let mut injector = FaultInjector::new(device, &schedule);
        let page_size = injector.page_size();
        for &(kind, lpa_raw, fill) in &ops {
            let lpa = lpa_raw % span;
            let result = match kind % 3 {
                0 | 1 => injector.write_page(lpa, page(fill, page_size)),
                _ => injector.trim_page(lpa),
            };
            if matches!(result, Err(DeviceError::PowerLoss)) {
                let _ = injector.power_restore().expect("recovery");
            }
        }
        let audit = injector.history_audit();
        prop_assert!(audit.verified, "after two cuts: {:?}", audit.failure);
    }
}

/// One step of the exhaustive WAN workload.
#[derive(Clone, Copy)]
enum Step {
    Write(u64, u8),
    Trim(u64),
    Flush,
}

/// Pages the attack encrypts; seeded with `seed_fill(lpa)`.
const VICTIMS: u64 = 8;
/// Simulated time between host commands: a WAN round trip (40 ms and up)
/// spans about a dozen of them, so at most cut points some segments are
/// retired, some have acks in flight, and a pending tail is unsealed.
const STEP_GAP_NS: u64 = 3_000_000;

fn seed_fill(lpa: u64) -> u8 {
    0x10 + lpa as u8
}

/// Seed the victims, churn, flush; encrypt the victims between benign
/// traffic; flush; then an aftermath long enough to seal more segments.
/// Returns the steps, the index the attack starts at, and the index of the
/// flush that follows it.
fn wan_attack_workload() -> (Vec<Step>, usize, usize) {
    let mut steps: Vec<Step> = (0..VICTIMS)
        .map(|lpa| Step::Write(lpa, seed_fill(lpa)))
        .collect();
    for i in 0..20u64 {
        steps.push(Step::Write(VICTIMS + i % 6, i as u8));
    }
    steps.push(Step::Flush);
    let attack_from = steps.len();
    for lpa in 0..VICTIMS {
        steps.push(Step::Write(lpa, 0xEE));
        steps.push(Step::Write(VICTIMS + lpa % 6, 0x40 + lpa as u8));
    }
    let attack_flush = steps.len();
    steps.push(Step::Flush);
    for i in 0..24u64 {
        steps.push(if i % 5 == 4 {
            Step::Trim(VICTIMS + i % 6)
        } else {
            Step::Write(VICTIMS + i % 6, 0x80 + i as u8)
        });
    }
    (steps, attack_from, attack_flush)
}

/// ROADMAP item 5b on the overlapped offload path: power is cut at every
/// op index of a short attack workload on a device whose uplink is a WAN,
/// so the cut finds segments retired, segments shipped with their acks
/// still in flight, and an unsealed pending tail — in every proportion.
/// The store holds what was shipped whether or not the device ever heard
/// so: only the unshipped tail may be lost, the chain never forks, every
/// attacked page whose evidence survived recovers (all of them once the
/// post-attack flush was acknowledged), and no pin outlives its record.
#[test]
fn wan_power_cut_at_every_op_index_loses_only_the_unshipped_tail() {
    let (steps, attack_from, attack_flush) = wan_attack_workload();
    let mut cuts_with_acks_in_flight = 0;
    let mut cuts_after_a_retirement = 0;
    for cut in 0..=steps.len() as u64 {
        let device = scenario_member(
            1,
            false,
            WireRemote::new(LoopbackTarget::new(), LinkConfig::wan_cloud()),
        );
        let mut injector = FaultInjector::new(device, &FaultSchedule::power_cut(cut));
        let page_size = injector.page_size();
        let mut acked: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut attack_start_ns = u64::MAX;
        let mut attacked: Vec<u64> = Vec::new();
        let mut attack_flushed = false;
        let mut cut_seen = false;
        for (i, step) in steps.iter().enumerate() {
            injector.clock().advance(STEP_GAP_NS);
            if i == attack_from {
                attack_start_ns = injector.clock().now_ns();
            }
            let in_flight = injector.inner().staged_segments();
            let retired = injector.inner().offload_stats().segments_offloaded;
            let result = match *step {
                Step::Write(lpa, fill) => injector
                    .write_page(lpa, page(fill, page_size))
                    .map(|()| acked.insert(lpa, page(fill, page_size))),
                Step::Trim(lpa) => injector
                    .trim_page(lpa)
                    .map(|()| acked.insert(lpa, page(0, page_size))),
                Step::Flush => injector.flush().map(|()| None),
            };
            match result {
                Ok(_) => {
                    if let Step::Write(lpa, 0xEE) = *step {
                        attacked.push(lpa);
                    }
                    attack_flushed |= i == attack_flush;
                }
                Err(DeviceError::PowerLoss) => {
                    cut_seen = true;
                    cuts_with_acks_in_flight += usize::from(in_flight > 0);
                    cuts_after_a_retirement += usize::from(retired > 0);
                    break;
                }
                Err(e) => panic!("cut {cut}: unexpected device error: {e}"),
            }
        }
        assert_eq!(cut_seen, cut < steps.len() as u64, "cut {cut}");
        if cut_seen {
            let restored = injector.power_restore().expect("recovery must succeed");
            let device = injector.inner();
            let crash = device.last_crash_report();
            // Shipped segments are the store's, ack or no ack: recovery
            // resumes right behind them, and the report lists as lost
            // exactly the records it does not resume over.
            assert_eq!(
                device.chain_len(),
                crash.chain_len_at_crash - restored.pending_records_lost,
                "cut {cut}: shipped evidence reported lost, or lost evidence resumed over"
            );
            assert_eq!(
                device.staged_segments(),
                0,
                "cut {cut}: no spill, no backlog"
            );
            assert_eq!(
                device.pinned_pages(),
                0,
                "cut {cut}: pins outlived the crash"
            );
        }
        injector.arm(&FaultSchedule::none());

        // Prefix consistency.
        for (lpa, expected) in &acked {
            let got = injector.read_page(*lpa).expect("device is back up");
            assert_eq!(
                &got, expected,
                "cut {cut}: lpa {lpa} diverged from acked state"
            );
        }
        // No fork, and the evidence that survived names recoverable pages.
        let audit = injector.history_audit();
        assert!(audit.verified, "cut {cut}: {:?}", audit.failure);
        for lpa in &attacked {
            let evidence_survived = audit.records.iter().any(|r| {
                r.lpa == *lpa
                    && r.op == LogOp::Write
                    && r.old_page_index.is_some()
                    && r.at_ns >= attack_start_ns
            });
            assert!(
                evidence_survived || !attack_flushed,
                "cut {cut}: lpa {lpa} was flushed, then forgotten"
            );
            if evidence_survived {
                assert_eq!(
                    injector.recover_as_of(*lpa, attack_start_ns),
                    Some(page(seed_fill(*lpa), page_size)),
                    "cut {cut}: attacked lpa {lpa} did not recover"
                );
            }
        }
        // The chain keeps verifying after post-restart traffic, and once
        // that is flushed nothing is left pinned.
        for lpa in 0..6u64 {
            injector.clock().advance(STEP_GAP_NS);
            injector
                .write_page(VICTIMS + lpa, page(0xA5, page_size))
                .expect("post-restart write");
        }
        injector
            .inner_mut()
            .flush_log()
            .expect("post-restart flush");
        assert_eq!(injector.inner().pinned_pages(), 0, "cut {cut}");
        assert_eq!(injector.inner().staged_segments(), 0, "cut {cut}");
        let audit = injector.history_audit();
        assert!(
            audit.verified,
            "cut {cut}, after restart: {:?}",
            audit.failure
        );
        assert_eq!(audit.records.len() as u64, injector.inner().chain_len());
    }
    // The sweep met what it is here for.
    assert!(
        cuts_with_acks_in_flight >= steps.len() / 2,
        "{cuts_with_acks_in_flight}"
    );
    assert!(
        cuts_after_a_retirement >= steps.len() / 2,
        "{cuts_after_a_retirement}"
    );
}
