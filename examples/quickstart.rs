//! Quickstart: build an RSSD, drive it like an NVMe device, suffer a
//! ransomware attack, recover everything.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rssd_repro::core::{LoopbackTarget, RecoveryEngine, RssdConfig, RssdDevice};
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::ssd::{BlockDevice, CommandId, CommandOutcome, IoCommand, NvmeController};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16 MiB simulated SSD on a shared simulation clock, offloading to an
    // in-process remote target (see `remote_attack_analysis.rs` for the full
    // NVMe-oE + log-server setup).
    let clock = SimClock::new();
    let mut device = RssdDevice::new(
        FlashGeometry::with_capacity(16 * 1024 * 1024),
        NandTiming::mlc_default(),
        clock.clone(),
        RssdConfig::default(),
        LoopbackTarget::new(),
    );
    println!(
        "device: {} | {} logical pages x {} B",
        device.model_name(),
        device.logical_pages(),
        device.page_size()
    );

    // Hosts talk NVMe: a controller arbitrates fixed-depth queue pairs over
    // the device. One host, queue depth 16.
    let mut controller = NvmeController::new(&mut device);
    let queue = controller.create_queue_pair(16);
    let page_size = controller.device().page_size();

    // Write some user data, a queue-depth's worth at a time.
    let original = vec![0x42u8; page_size];
    for burst in (0..64u64).collect::<Vec<_>>().chunks(16) {
        for &lpa in burst {
            controller.submit(
                queue,
                CommandId(lpa as u16),
                IoCommand::Write {
                    lpa,
                    data: original.clone(),
                },
            )?;
        }
        controller.run_to_idle();
        for completion in controller.drain_completions(queue) {
            completion.result?;
        }
    }

    // Ransomware strikes: reads the data, overwrites it with "ciphertext" —
    // through the same queue interface, because malware has no other path.
    clock.advance(1_000_000_000);
    let attack_start = clock.now_ns();
    let writes_before_attack = controller.stats(queue).writes;
    for lpa in 0..64u64 {
        controller.submit(queue, CommandId(0), IoCommand::Read { lpa })?;
        controller.run_to_idle();
        let read = controller.pop_completion(queue).expect("read completes");
        let mut page = match read.result? {
            CommandOutcome::Read(data) => data,
            other => panic!("expected read data, got {other:?}"),
        };
        for (i, byte) in page.iter_mut().enumerate() {
            *byte ^= (i as u8).wrapping_mul(197).wrapping_add(lpa as u8);
        }
        controller.submit(queue, CommandId(0), IoCommand::Write { lpa, data: page })?;
        controller.run_to_idle();
        controller
            .pop_completion(queue)
            .expect("write completes")
            .result?;
    }
    println!(
        "attacker encrypted 64 pages over {attack_writes} queue writes (queue p99 {p99} ns)",
        attack_writes = controller.stats(queue).writes - writes_before_attack,
        p99 = controller.stats(queue).latency.quantile_ns(0.99),
    );

    // The host path ends here; recovery is the investigator's back channel.
    drop(controller);
    assert_ne!(device.read_page(0)?, original, "data is encrypted");

    // Zero data loss: every pre-attack page is still retained.
    let victims: Vec<u64> = (0..64).collect();
    let report = RecoveryEngine::new().restore_before(&mut device, &victims, attack_start);
    println!(
        "recovered {} pages ({} unrecoverable) in {:.2} simulated ms",
        report.pages_restored,
        report.pages_unrecoverable,
        report.duration_ns as f64 / 1e6
    );
    assert_eq!(device.read_page(0)?, original, "data restored");

    // And the whole incident is in the tamper-evident evidence chain.
    let history = device.verified_history().map_err(|e| e.to_string())?;
    println!(
        "evidence chain verified: {} records, head {}",
        history.len(),
        device.chain_head()
    );
    Ok(())
}
