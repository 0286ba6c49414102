//! Cross-crate integration tests: the full RSSD codesign exercised end to
//! end — device + FTL + flash + crypto + compression + NVMe-oE + remote
//! server + attacks + detection + analysis + recovery.

use rssd_repro::attacks::{
    evaluate_recovery, ClassicRansomware, FileTable, GcAttack, RecoveryGrade, TimingAttack,
    TrimAttack,
};
use rssd_repro::core::{
    AttackClass, LoopbackTarget, PostAttackAnalyzer, RecoveryEngine, RssdConfig, RssdDevice,
};
use rssd_repro::crypto::DeviceKeys;
use rssd_repro::detect::Verdict;
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::remote::RemoteLogServer;
use rssd_repro::ssd::{
    flashguard, BlockDevice, CommandId, CommandOutcome, IoCommand, NvmeController,
};
use rssd_repro::trace::{replay_queued, TraceProfile};

fn geometry() -> FlashGeometry {
    FlashGeometry::with_capacity(16 * 1024 * 1024)
}

fn rssd_over_server(clock: SimClock) -> RssdDevice<RemoteLogServer> {
    let config = RssdConfig {
        segment_pages: 16,
        ..RssdConfig::default()
    };
    let keys = DeviceKeys::for_simulation(config.key_seed);
    RssdDevice::new(
        geometry(),
        NandTiming::mlc_default(),
        clock,
        config,
        RemoteLogServer::datacenter(&keys),
    )
}

#[test]
fn classic_attack_detected_analyzed_recovered_over_real_stack() {
    let clock = SimClock::new();
    let mut device = rssd_over_server(clock.clone());
    let victims = FileTable::populate(&mut device, 12, 8, 7).unwrap();

    clock.advance(1_000_000_000);
    let outcome = ClassicRansomware::new(5)
        .execute(&mut device, &victims)
        .unwrap();
    device.flush_log().unwrap();

    // Remote detection fired.
    assert_eq!(device.remote().verdict(), Verdict::Ransomware);

    // Verified history → analysis identifies class + victims.
    let history = device.verified_history().unwrap();
    let report = PostAttackAnalyzer::new().analyze(&history, true);
    assert_eq!(report.attack_class, AttackClass::Classic);
    assert_eq!(report.victim_lpas.len() as u64, outcome.pages_encrypted);

    // Zero-data-loss recovery.
    let recovery = RecoveryEngine::new().restore_before(
        &mut device,
        &report.victim_lpas,
        report.attack_start_ns.unwrap(),
    );
    assert_eq!(recovery.pages_unrecoverable, 0);
    let (intact, total) = victims.verify_intact(&mut device);
    assert_eq!(intact, total);
}

#[test]
fn trimming_attack_fully_recovered_and_classified() {
    let clock = SimClock::new();
    let mut device = rssd_over_server(clock.clone());
    // Enough pages that the trim surge crosses the detector threshold, as a
    // real file-corpus trim sweep would.
    let victims = FileTable::populate(&mut device, 24, 8, 3).unwrap();
    clock.advance(1_000_000);

    let outcome = TrimAttack::new(2, true)
        .execute(&mut device, &victims)
        .unwrap();
    assert!(outcome.pages_trimmed > 0);
    device.flush_log().unwrap();

    let history = device.verified_history().unwrap();
    let report = PostAttackAnalyzer::new().analyze(&history, true);
    assert_eq!(report.attack_class, AttackClass::TrimmingAttack);

    let result = evaluate_recovery(&mut device, &victims, &outcome);
    assert_eq!(result.grade, RecoveryGrade::Full);
}

#[test]
fn gc_attack_cannot_defeat_rssd_over_real_stack() {
    let clock = SimClock::new();
    let mut device = rssd_over_server(clock.clone());
    let victims = FileTable::populate(&mut device, 8, 8, 3).unwrap();
    clock.advance(1_000_000);

    let outcome = GcAttack::new(2, 4).execute(&mut device, &victims).unwrap();
    assert!(outcome.flood_pages > 1000, "flood actually ran");
    let result = evaluate_recovery(&mut device, &victims, &outcome);
    assert_eq!(result.grade, RecoveryGrade::Full);
}

#[test]
fn timing_attack_detected_remotely_despite_rate_limiting() {
    let clock = SimClock::new();
    let mut device = rssd_over_server(clock.clone());
    let victims = FileTable::populate(&mut device, 16, 8, 3).unwrap();

    // Benign background over non-victim space first, so the detector has a
    // realistic baseline. Driven at queue depth 8 like a real host.
    let profile = TraceProfile::by_name("web").unwrap();
    let background: Vec<_> = profile
        .workload(device.logical_pages(), device.page_size(), 9)
        .take(1_500)
        .map(|mut r| {
            r.lpa = (r.lpa + victims.next_lpa()).min(device.logical_pages() - 1);
            r
        })
        .collect();
    let mut controller = NvmeController::new(&mut device);
    let background_queue = controller.create_queue_pair(8);
    let _ = replay_queued(&mut controller, background_queue, background);
    drop(controller);

    let attack = TimingAttack::new(4, 4, flashguard::SUSPECT_WINDOW_NS * 2);
    let outcome = attack.execute(&mut device, &victims, |_| Ok(())).unwrap();
    device.flush_log().unwrap();

    // Rate-limited or not, the long-horizon profiler on the remote sees it.
    assert_eq!(device.remote().verdict(), Verdict::Ransomware);

    let result = evaluate_recovery(&mut device, &victims, &outcome);
    assert_eq!(result.grade, RecoveryGrade::Full);
}

#[test]
fn benign_trace_does_not_false_positive() {
    let clock = SimClock::new();
    let mut device = rssd_over_server(clock);
    let profile = TraceProfile::by_name("src").unwrap();
    let records: Vec<_> = profile
        .workload(device.logical_pages(), device.page_size(), 11)
        .take(3_000)
        .collect();
    // Benign traffic at a deep queue: batching must not skew detection.
    let mut controller = NvmeController::new(&mut device);
    let queue = controller.create_queue_pair(32);
    let _ = replay_queued(&mut controller, queue, records);
    drop(controller);
    device.flush_log().unwrap();
    assert_ne!(
        device.remote().verdict(),
        Verdict::Ransomware,
        "benign workload must not trigger: {:?}",
        device.remote().report()
    );
    let history = device.verified_history().unwrap();
    let report = PostAttackAnalyzer::new().analyze(&history, true);
    assert_eq!(report.attack_class, AttackClass::None);
}

#[test]
fn network_partition_preserves_data_and_heals() {
    let clock = SimClock::new();
    let mut device = rssd_over_server(clock.clone());
    let victims = FileTable::populate(&mut device, 6, 8, 3).unwrap();

    // Partition the network, then attack.
    device.remote_mut().set_reachable(false);
    clock.advance(1_000_000);
    let outcome = ClassicRansomware::new(5)
        .execute(&mut device, &victims)
        .unwrap();

    // Conservative retention: recoverable locally even with the remote dark.
    let result = evaluate_recovery(&mut device, &victims, &outcome);
    assert_eq!(result.grade, RecoveryGrade::Full);

    // Network heals; the backlog offloads and stays recoverable.
    device.remote_mut().set_reachable(true);
    device.flush_log().unwrap();
    let result = evaluate_recovery(&mut device, &victims, &outcome);
    assert_eq!(result.grade, RecoveryGrade::Full);
    assert!(device.remote().report().segments_stored > 0);
}

#[test]
fn evidence_chain_spans_trace_and_attack() {
    let clock = SimClock::new();
    let mut device = rssd_over_server(clock.clone());
    let victims = FileTable::populate(&mut device, 4, 4, 3).unwrap();
    let profile = TraceProfile::by_name("hm").unwrap();
    let records: Vec<_> = profile
        .workload(device.logical_pages(), device.page_size(), 2)
        .take(500)
        .map(|mut r| {
            r.lpa = (r.lpa + victims.next_lpa()).min(device.logical_pages() - 1);
            r
        })
        .collect();
    let mut controller = NvmeController::new(&mut device);
    let queue = controller.create_queue_pair(16);
    let _ = replay_queued(&mut controller, queue, records);
    drop(controller);
    clock.advance(1_000);
    ClassicRansomware::new(5)
        .execute(&mut device, &victims)
        .unwrap();
    device.flush_log().unwrap();

    let history = device.verified_history().unwrap();
    assert_eq!(history.len() as u64, device.chain_len());
    // Strictly ordered, gap-free.
    for (i, rec) in history.iter().enumerate() {
        assert_eq!(rec.seq, i as u64);
    }
    // Backtracking a victim page finds its overwrite.
    let ops = PostAttackAnalyzer::backtrack_lpa(&history, 0);
    assert!(!ops.is_empty());
}

#[test]
fn two_hosts_on_separate_queue_pairs_share_one_rssd() {
    let clock = SimClock::new();
    let mut device = rssd_over_server(clock.clone());
    let victims = FileTable::populate(&mut device, 12, 8, 7).unwrap();
    clock.advance(1_000_000_000);
    let attack_start = clock.now_ns();

    let page_size = device.page_size();
    let mut controller = NvmeController::new(&mut device);
    let victim_q = controller.create_queue_pair(16);
    let attacker_q = controller.create_queue_pair(16);

    // Victim keeps working on fresh space while the attacker, on its own
    // queue pair, read-encrypt-overwrites the corpus. Round-robin
    // arbitration interleaves them on the shared device.
    let fresh_base = victims.next_lpa();
    let victim_lpas: Vec<u64> = victims.all_lpas();
    for (round, &target) in victim_lpas.iter().enumerate() {
        let id = CommandId(round as u16);
        controller
            .submit(
                victim_q,
                id,
                IoCommand::Write {
                    lpa: fresh_base + (round as u64 % 32),
                    data: vec![0x20; page_size],
                },
            )
            .unwrap();
        controller
            .submit(attacker_q, id, IoCommand::Read { lpa: target })
            .unwrap();
        controller.run_to_idle();
        let ciphertext: Vec<u8> = (0..page_size)
            .map(|i| (i as u8).wrapping_mul(181).wrapping_add(round as u8))
            .collect();
        controller
            .submit(
                attacker_q,
                CommandId(round as u16 | 0x8000),
                IoCommand::Write {
                    lpa: target,
                    data: ciphertext,
                },
            )
            .unwrap();
        controller.run_to_idle();
        for queue in [victim_q, attacker_q] {
            for completion in controller.drain_completions(queue) {
                assert!(matches!(
                    completion.result,
                    Ok(CommandOutcome::Written | CommandOutcome::Read(_))
                ));
            }
        }
    }
    let victim_stats = controller.stats(victim_q);
    let attacker_stats = controller.stats(attacker_q);
    assert_eq!(victim_stats.writes, victim_lpas.len() as u64);
    assert_eq!(attacker_stats.reads, victim_lpas.len() as u64);
    assert_eq!(victim_stats.errors + attacker_stats.errors, 0);
    drop(controller);
    device.flush_log().unwrap();

    // The remote detector saw the merged, per-command-logged stream.
    assert_eq!(device.remote().verdict(), Verdict::Ransomware);

    // Per-queue blame lands on the attacker via the analyzer's victim list:
    // every flagged page is one the attacker's queue touched.
    let history = device.verified_history().unwrap();
    let report = PostAttackAnalyzer::new().analyze(&history, true);
    assert_eq!(report.attack_class, AttackClass::Classic);
    for lpa in &report.victim_lpas {
        assert!(victim_lpas.contains(lpa), "blamed page {lpa} not attacked");
    }

    // Zero data loss despite the shared device.
    let recovery =
        RecoveryEngine::new().restore_before(&mut device, &report.victim_lpas, attack_start);
    assert_eq!(recovery.pages_unrecoverable, 0);
    let (intact, total) = victims.verify_intact(&mut device);
    assert_eq!(intact, total);
}

#[test]
fn loopback_and_server_targets_behave_identically_for_recovery() {
    let mk = |use_server: bool| -> Vec<Option<Vec<u8>>> {
        let clock = SimClock::new();
        let config = RssdConfig {
            segment_pages: 8,
            ..RssdConfig::default()
        };
        let mut recovered = Vec::new();
        if use_server {
            let keys = DeviceKeys::for_simulation(config.key_seed);
            let mut d = RssdDevice::new(
                geometry(),
                NandTiming::instant(),
                clock,
                config,
                RemoteLogServer::datacenter(&keys),
            );
            for i in 0..30u64 {
                d.write_page(i % 5, vec![i as u8; 4096]).unwrap();
            }
            d.flush_log().unwrap();
            for lpa in 0..5u64 {
                recovered.push(d.recover_page(lpa));
            }
        } else {
            let mut d = RssdDevice::new(
                geometry(),
                NandTiming::instant(),
                clock,
                config,
                LoopbackTarget::new(),
            );
            for i in 0..30u64 {
                d.write_page(i % 5, vec![i as u8; 4096]).unwrap();
            }
            d.flush_log().unwrap();
            for lpa in 0..5u64 {
                recovered.push(d.recover_page(lpa));
            }
        }
        recovered
    };
    assert_eq!(mk(false), mk(true));
}
