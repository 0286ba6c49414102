//! The full codesign, end to end: an RSSD offloading over simulated
//! NVMe-over-Ethernet to a remote log server with an S3-like object store,
//! a timing attack hidden inside benign trace traffic, remote detection
//! firing, trusted post-attack analysis, and zero-data-loss recovery.
//!
//! ```sh
//! cargo run --example remote_attack_analysis
//! ```

use rssd_repro::attacks::{FileTable, TimingAttack};
use rssd_repro::core::{PostAttackAnalyzer, RecoveryEngine, RssdConfig, RssdDevice, WireRemote};
use rssd_repro::crypto::DeviceKeys;
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::net::LinkConfig;
use rssd_repro::remote::RemoteLogServer;
use rssd_repro::ssd::BlockDevice;
use rssd_repro::trace::{replay, TraceProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Provision the codesign: device + remote server share offload keys,
    // and a 10 GbE NVMe-oE link carries every segment between them.
    let config = RssdConfig::default();
    let keys = DeviceKeys::for_simulation(config.key_seed);
    let server = WireRemote::new(
        RemoteLogServer::datacenter(&keys),
        LinkConfig::datacenter_10g(),
    );
    let clock = SimClock::new();
    let mut device = RssdDevice::new(
        FlashGeometry::with_capacity(32 * 1024 * 1024),
        NandTiming::mlc_default(),
        clock.clone(),
        config,
        server,
    );

    // --- A victim corpus plus realistic background traffic (the `usr` trace).
    let victims = FileTable::populate(&mut device, 16, 8, 7)?;
    let profile = TraceProfile::by_name("usr").expect("profile exists");
    let background: Vec<_> = profile
        .workload(device.logical_pages(), device.page_size(), 3)
        .take(2_000)
        .map(|mut r| {
            // Keep background traffic off the victim extents.
            r.lpa += victims.next_lpa();
            r
        })
        .collect();
    let _ = replay(&mut device, background);
    println!(
        "background replayed; {} records in the evidence chain",
        device.chain_len()
    );

    // --- The timing attack: 4 pages per hour, hidden in the noise.
    let attack = TimingAttack::new(99, 4, 3_600_000_000_000);
    let outcome = attack.execute(&mut device, &victims, |_| Ok(()))?;
    println!(
        "timing attack encrypted {} pages over {:.1} simulated hours",
        outcome.pages_encrypted,
        (outcome.end_ns - outcome.start_ns) as f64 / 3.6e12
    );
    device.flush_log().map_err(|e| e.to_string())?;

    // --- Offloaded detection on the remote server has seen it.
    let report = device.remote().inner().report();
    println!(
        "remote detection: verdict {:?} (score {:.2}) over {} observations",
        report.verdict, report.score, report.records_analyzed
    );
    println!(
        "remote store: {} segments, {} bytes sealed, {} NVMe-oE capsules",
        report.segments_stored,
        device.remote().inner().store_stats().stored_bytes,
        device.remote().transfer_stats().capsules_sent
    );

    // --- Trusted post-attack analysis over the verified history.
    let history = device.verified_history().map_err(|e| e.to_string())?;
    let analysis = PostAttackAnalyzer::new().analyze(&history, true);
    println!(
        "analysis: class = {}, {} victim pages, window {:.1}h, chain verified = {}",
        analysis.attack_class,
        analysis.victim_lpas.len(),
        analysis
            .attack_end_ns
            .zip(analysis.attack_start_ns)
            .map(|(e, s)| (e - s) as f64 / 3.6e12)
            .unwrap_or(0.0),
        analysis.chain_verified
    );

    // --- Zero-data-loss recovery from the analyzer's victim list.
    let recovery = RecoveryEngine::new().restore_before(
        &mut device,
        &analysis.victim_lpas,
        analysis.attack_start_ns.expect("attack found"),
    );
    let (intact, total) = victims.verify_intact(&mut device);
    println!(
        "recovery: {} pages restored, corpus verification {}/{} intact",
        recovery.pages_restored, intact, total
    );
    assert_eq!(intact, total, "zero data loss");
    Ok(())
}
