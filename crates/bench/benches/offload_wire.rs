//! **offload_wire** — the offload path on the wire: link bandwidth × loss
//! rate swept against offload throughput and recovery-window integrity.
//!
//! Each configuration runs the *same* write/overwrite workload on an RSSD
//! device whose evidence offload travels through the full simulated
//! NVMe-oE stack ([`WireRemote`]) over a different link. Transfers
//! overlap host I/O — a segment ships when it seals and retires when the
//! device clock passes its ack — so what a slow link costs the host is
//! the staging window filling up (throttled writes) and the final flush
//! waiting out the acks in flight, not a round trip per segment: host
//! kIOPS stay near the ideal link's while offload MB/s and the end of
//! simulated time still show the link.
//!
//! Recovery-window integrity is scored against a golden direct-path
//! device running the identical workload: `recovery_ok` is 1.0 iff the
//! evidence chain verifies end-to-end, every per-page recovery answer is
//! byte-identical to the direct path, and a full [`RebuildImage`] harvest
//! through the wire reproduces the direct harvest. A lossy link must pay
//! in retransmissions and nanoseconds, never in evidence.

use rssd_bench::{bench_geometry, cell, flag, mk_rssd, publish, BenchRow};
use rssd_core::{LoopbackTarget, RebuildImage, RssdConfig, RssdDevice, WireRemote};
use rssd_flash::{NandTiming, SimClock};
use rssd_net::LinkConfig;
use rssd_ssd::BlockDevice;

/// Pages written in phase one and overwritten in phase two. Overwrites are
/// what generate retention traffic, so this fixes the offloaded byte count
/// across every link configuration.
const WORKLOAD_PAGES: u64 = 1024;

fn wired_device(link: LinkConfig) -> RssdDevice<WireRemote<LoopbackTarget>> {
    RssdDevice::new(
        bench_geometry(),
        NandTiming::default(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 32,
            ..RssdConfig::default()
        },
        WireRemote::new(LoopbackTarget::new(), link),
    )
}

/// Deterministic incompressible page contents (an LCG stream), so sealed
/// segments stay near raw size and each one spans many wire capsules —
/// a compressible fill would collapse every segment into a single frame
/// and starve the loss model of anything to drop.
fn page_fill(seed: u64, page_size: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(page_size);
    while out.len() < page_size {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(page_size);
    out
}

/// Runs the fixed workload on `device`: write every page, overwrite every
/// page with distinct contents, then drain the retention log.
fn run_workload<D: BlockDevice>(device: &mut D) {
    let page_size = device.page_size();
    for lpa in 0..WORKLOAD_PAGES {
        device
            .write_page(lpa, page_fill(lpa + 1, page_size))
            .expect("phase-one write");
    }
    for lpa in 0..WORKLOAD_PAGES {
        device
            .write_page(lpa, page_fill(lpa + 1 + WORKLOAD_PAGES, page_size))
            .expect("phase-two overwrite");
    }
}

/// Runs the workload over `link` and scores it against `golden`, the
/// direct-path device that ran the same workload.
fn wire_row(name: &str, link: LinkConfig, golden: &mut RssdDevice<LoopbackTarget>) -> BenchRow {
    let mut device = wired_device(link);
    run_workload(&mut device);
    device.flush_log().expect("flush retention log");

    let sim_end_ns = device.clock().now_ns();
    let xfer = device.remote().transfer_stats();
    let ops = 2 * WORKLOAD_PAGES;

    // Integrity: chain verifies, and recovery through the wire is
    // byte-identical to the direct path.
    let mut ok = device.verified_history().is_ok();
    for lpa in 0..WORKLOAD_PAGES {
        ok &= device.recover_page(lpa) == golden.recover_page(lpa);
    }
    let keys = device.escrow_keys();
    match (
        RebuildImage::harvest(&keys, device.remote_mut()),
        RebuildImage::harvest(&golden.escrow_keys(), golden.remote_mut()),
    ) {
        (Ok(wired), Ok(direct)) => {
            for lpa in 0..WORKLOAD_PAGES {
                ok &= wired.newest(lpa) == direct.newest(lpa);
            }
        }
        _ => ok = false,
    }

    let sim_s = sim_end_ns as f64 / 1e9;
    BenchRow::new(
        name,
        vec![
            ("offload_mbps", xfer.payload_bytes as f64 / 1e6 / sim_s),
            ("host_kiops", ops as f64 / sim_s / 1e3),
            ("sim_end_ms", sim_end_ns as f64 / 1e6),
            ("segments", xfer.segments as f64),
            ("retransmissions", xfer.retransmissions as f64),
            ("recovery_ok", flag(ok)),
        ],
    )
}

fn main() {
    // Bandwidth × loss grid: the two link classes from DESIGN.md §8, each
    // clean and with a deterministic 2% frame-loss pattern, plus the
    // ideal-link differential baseline and a heavy-loss datacenter point.
    let configs: [(&str, LinkConfig); 6] = [
        ("ideal", LinkConfig::ideal()),
        ("dc_10g", LinkConfig::datacenter_10g()),
        ("dc_10g_loss2", LinkConfig::lossy(50)),
        ("dc_10g_loss20", LinkConfig::lossy(5)),
        ("wan_cloud", LinkConfig::wan_cloud()),
        (
            "wan_loss2",
            LinkConfig {
                loss_period: 50,
                ..LinkConfig::wan_cloud()
            },
        ),
    ];

    // One golden direct-path run scores every wire row.
    let mut golden = mk_rssd(bench_geometry(), NandTiming::default(), SimClock::new());
    run_workload(&mut golden);
    golden.flush_log().expect("flush golden log");

    let rows: Vec<BenchRow> = configs
        .into_iter()
        .map(|(name, link)| wire_row(name, link, &mut golden))
        .collect();
    let cell = |config: &str, metric: &str| cell(&rows, config, metric);

    // The link-physics claims: slower links cost host-visible nanoseconds
    // and lossy links cost retransmissions; neither may cost evidence.
    assert!(
        cell("dc_10g", "offload_mbps") > cell("wan_cloud", "offload_mbps"),
        "datacenter link must out-run the WAN"
    );
    for lossy in ["dc_10g_loss2", "dc_10g_loss20", "wan_loss2"] {
        assert!(
            cell(lossy, "retransmissions") > 0.0,
            "{lossy}: lossy links must pay in retransmissions"
        );
    }
    for row in &rows {
        assert_eq!(
            row.get("recovery_ok"),
            1.0,
            "{}: recovery window corrupted",
            row.config
        );
    }
    assert!(
        cell("wan_cloud", "sim_end_ms") > cell("dc_10g", "sim_end_ms"),
        "WAN propagation must land on the device timeline"
    );
    // Offload overlaps host I/O: a WAN costs the host the staging window,
    // not a round trip per segment.
    let ideal = cell("ideal", "host_kiops");
    for name in ["wan_cloud", "wan_loss2"] {
        let kiops = cell(name, "host_kiops");
        assert!(
            kiops >= 0.9 * ideal,
            "{name}: {kiops:.3} host kIOPS is below 0.9x the ideal link's {ideal:.3} — \
             acks are being waited for in the foreground again"
        );
    }

    publish(
        "offload_wire",
        "offload_wire: link bandwidth x loss vs offload path",
        &rows,
    );
}
