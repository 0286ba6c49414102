//! Vouched ≡ MAC'd: a store walk over the log server, which authenticated
//! every segment at ingest and vouches for it, answers exactly what the same
//! walk answers over a shelf holding the same bytes, where the reader
//! recomputes every tag itself.

use rssd_core::{
    HarvestReport, LogRecord, LoopbackTarget, RebuildImage, RemoteTarget, RssdConfig, RssdDevice,
    WireRemote,
};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_net::{LinkConfig, SecureSession};
use rssd_remote::RemoteLogServer;
use rssd_ssd::BlockDevice;

/// Segments a store walk fetches at once (`evidence::WINDOW`).
const WINDOW: usize = 64;

fn config() -> RssdConfig {
    RssdConfig {
        segment_pages: 3,
        ..RssdConfig::default()
    }
}

fn device_over<R: RemoteTarget>(remote: R) -> RssdDevice<R> {
    let (geometry, timing) = (FlashGeometry::small_test(), NandTiming::instant());
    RssdDevice::new(geometry, timing, SimClock::new(), config(), remote)
}

/// Every lookup over eight pages and a history that ends at `end_ns`: each
/// page at every 5 µs cut-off, then its newest version.
fn lookups(end_ns: u64) -> impl Iterator<Item = (u64, Option<u64>)> {
    let cutoffs = (0..=end_ns).step_by(5_000).map(Some).chain([None]);
    cutoffs.flat_map(|at| (0..8).map(move |lpa| (lpa, at)))
}

/// What a device's readers answer: its history, its audit's records, the
/// report of a harvest off its store, and every lookup — asked of the
/// device and of the harvested image, which must agree.
type Answers = (
    Vec<LogRecord>,
    Vec<LogRecord>,
    HarvestReport,
    Vec<Option<Vec<u8>>>,
);

fn answers<R: RemoteTarget>(device: &mut RssdDevice<R>, end_ns: u64) -> Answers {
    let keys = device.escrow_keys();
    let history = device.verified_history().expect("the history verifies");
    let audit = device.audit_history();
    assert!(audit.verified, "{:?}", audit.failure);
    let image = RebuildImage::harvest(&keys, device.remote_mut()).expect("the store harvests");
    let versions: Vec<_> = lookups(end_ns)
        .map(|(lpa, at)| {
            let (live, harvested) = match at {
                Some(at) => (
                    device.recover_page_before(lpa, at),
                    image.version_before(lpa, at).map(<[u8]>::to_vec),
                ),
                None => (
                    device.recover_newest(lpa),
                    image.newest(lpa).map(<[u8]>::to_vec),
                ),
            };
            assert_eq!(live, harvested, "page {lpa} at {at:?}");
            live
        })
        .collect();
    assert!(versions.iter().flatten().count() > 8, "versions retained");
    (history, audit.records, image.report(), versions)
}

#[test]
fn a_walk_over_the_vouching_server_answers_what_a_walk_that_macs_every_byte_answers() {
    let keys = rssd_crypto::DeviceKeys::for_simulation(config().key_seed);
    let server = RemoteLogServer::datacenter(&keys);
    let mut served = device_over(WireRemote::new(server, LinkConfig::ideal()));
    // One segment per three overwrites, past two walk windows.
    for i in 0..8 + 3 * (2 * WINDOW as u64 + WINDOW as u64 / 2) {
        served.clock().advance(1_000);
        let fill = ((i / 8) ^ (i % 8)) as u8;
        served.write_page(i % 8, vec![fill; 4096]).unwrap();
    }
    served.flush_log().unwrap();
    let end_ns = served.clock().now_ns();

    // The same bytes on a shelf that vouches for nothing.
    let session = SecureSession::new(&keys, 0);
    let stored = served.remote().stored_segments();
    assert!(stored.len() > 2 * WINDOW, "{} segments", stored.len());
    let mut shelf = LoopbackTarget::new();
    for &seq in &stored {
        let (envelope, vouched) = served.remote_mut().fetch_vouched(seq, &session).unwrap();
        assert!(vouched, "segment {seq}: the server opened it at ingest");
        shelf.store_segment(envelope, 0).unwrap();
    }
    let mut shelved = device_over(shelf);
    let _ = shelved.crash();
    let shelf_recovery = shelved.recover().expect("the shelf recovers");

    let before_crash = answers(&mut served, end_ns);
    let _ = served.crash();
    let served_recovery = served.recover().expect("the server recovers");
    assert_eq!(served_recovery, shelf_recovery);
    assert_eq!(served.chain_head(), shelved.chain_head());
    assert_eq!(answers(&mut served, end_ns), before_crash);
    assert_eq!(answers(&mut shelved, end_ns), before_crash);
}
