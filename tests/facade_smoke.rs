//! Workspace-facade smoke test.
//!
//! `rssd_repro` exists so examples and integration tests can reach every
//! subsystem through one dependency. If a re-export is dropped or a
//! member crate is unwired from the workspace manifest, this fails fast
//! with a message naming the facade — before any deeper suite runs.

use rssd_repro::core::{LoopbackTarget, RssdConfig, RssdDevice};
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::ssd::BlockDevice;

#[test]
fn facade_reexports_construct_a_device_and_round_trip() {
    let mut device = RssdDevice::new(
        FlashGeometry::small_test(),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig::default(),
        LoopbackTarget::new(),
    );

    let page = vec![0xA5u8; device.page_size()];
    device
        .write_page(3, page.clone())
        .expect("facade-built RSSD device must accept a write");
    assert_eq!(
        device.read_page(3).expect("read of a written page"),
        page,
        "facade wiring broke the write/read round-trip through rssd_repro::{{core,flash,ssd}}"
    );
}

#[test]
fn facade_reexports_the_queue_layer() {
    use rssd_repro::ssd::{CommandId, CommandOutcome, IoCommand, NvmeController};

    let mut controller = NvmeController::new(RssdDevice::new(
        FlashGeometry::small_test(),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig::default(),
        LoopbackTarget::new(),
    ));
    let queue = controller.create_queue_pair(4);
    controller
        .submit(
            queue,
            CommandId(0),
            IoCommand::Write {
                lpa: 1,
                data: vec![0x5Au8; 4096],
            },
        )
        .expect("facade-built controller must accept a submission");
    controller.run_to_idle();
    assert_eq!(
        controller
            .pop_completion(queue)
            .expect("completion posted")
            .result,
        Ok(CommandOutcome::Written),
        "facade wiring broke the queue-pair round-trip through rssd_repro::ssd::nvme"
    );
}

#[test]
fn facade_reexports_reach_every_member_crate() {
    // One cheap, side-effect-free touch per re-exported crate, so a
    // missing re-export is a compile error pointing here.
    let _ = rssd_repro::array::StripeLayout::new(2, 4, 8);
    let _ = rssd_repro::array::ArrayDetector::new(2);
    let _ = rssd_repro::attacks::ClassicRansomware::new(7);
    let _ = rssd_repro::compress::compress_adaptive(&[0u8; 64]);
    let _ = rssd_repro::crypto::Digest::ZERO;
    let _ = rssd_repro::detect::Ensemble::new();
    let _ = rssd_repro::flash::FlashGeometry::small_test();
    let _ = rssd_repro::ftl::FtlConfig::default();
    let _ = rssd_repro::net::MacAddr::DEVICE;
    let _ = rssd_repro::remote::ObjectStoreConfig::default();
    let _ = rssd_repro::ssd::RetentionMode::Compressed;
    let _ = rssd_repro::trace::WorkloadBuilder::new(64);
}

#[test]
fn facade_reexports_the_fault_layer() {
    use rssd_repro::core::{LoopbackTarget, WireRemote};
    use rssd_repro::faults::{FaultInjector, FaultSchedule};
    use rssd_repro::net::LinkConfig;

    let device = rssd_repro::faults::scenario_member(
        1,
        false,
        WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal()),
    );
    let mut injector = FaultInjector::new(device, &FaultSchedule::power_cut(1));
    let page = vec![0x33u8; injector.page_size()];
    injector
        .write_page(0, page)
        .expect("op 0 executes before the scheduled cut");
    assert!(
        injector.write_page(1, vec![0x44u8; 4096]).is_err(),
        "facade-built injector must fire its schedule"
    );
}
