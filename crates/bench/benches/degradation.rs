//! **degradation** — write throughput along the offload health slope:
//! `Healthy → Buffering → Throttled → Stalled → heal → drain`.
//!
//! One spill-enabled RSSD device rides a sustained uplink outage. The
//! bench measures host-visible write throughput in each health state the
//! device passes through, then heals the wire and times the backlog
//! drain. A second device crashes *inside* the outage and recovers by
//! replaying the NAND spill region. The claims, asserted here, once,
//! before `BENCH_degradation.json` is written:
//!
//! * Throttled throughput sits **strictly between** Stalled and Healthy —
//!   admission control is a slope, not a cliff — and stays ≥ 25 % of
//!   Healthy, so a degraded device is still a useful device;
//! * the post-heal drain completes: no staged backlog, no spill residue,
//!   every sealed segment acknowledged by the remote;
//! * zero evidence loss in both runs — the chain verifies end to end and
//!   `segments_sealed == segments_offloaded`, outage, crash and all.

use rssd_bench::{cell, flag, publish, BenchRow};
use rssd_core::{LoopbackTarget, OffloadHealth, RssdConfig, RssdDevice, WireRemote};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_net::LinkConfig;
use rssd_ssd::{BlockDevice, DeviceError};

/// Device capacity: 16 blocks, 3 of which form the spill region (192
/// spill pages). Small enough that a sustained outage walks the device
/// through every health state within a few hundred writes.
const CAPACITY_BYTES: u64 = 4 * 1024 * 1024;
const SPILL_BLOCKS: u32 = 3;

/// Overwrite working set. Every overwrite retains a pre-image, so each
/// sealed segment carries real payload and the backlog is measured in
/// incompressible bytes, not empty metadata.
const WORKING_SET_PAGES: u64 = 48;

/// Safety bound on ramp loops (the outage must reach each state long
/// before this).
const MAX_RAMP_OPS: usize = 2_000;

/// The device under test: its remote sits behind an ideal wire, which costs
/// no simulated time and is where the outage is cut.
type Device = RssdDevice<WireRemote<LoopbackTarget>>;

fn spill_device() -> Device {
    RssdDevice::new(
        FlashGeometry::with_capacity(CAPACITY_BYTES),
        NandTiming::default(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 4,
            spill_blocks: SPILL_BLOCKS,
            ..RssdConfig::default()
        },
        WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal()),
    )
}

/// Deterministic incompressible page contents (an LCG stream), so sealed
/// segments stay near raw size and the spill region fills at payload
/// rate — a compressible fill would collapse every segment and let the
/// device buffer an outage forever without ever degrading.
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

/// A writer that round-robins overwrites across the working set with a
/// fresh fill each version, tracking the global version counter.
struct Writer {
    version: u64,
    page_size: usize,
}

impl Writer {
    fn new(page_size: usize) -> Self {
        Writer {
            version: 0,
            page_size,
        }
    }

    fn write_next(&mut self, device: &mut Device) -> Result<(), DeviceError> {
        let lpa = self.version % WORKING_SET_PAGES;
        let data = page_fill(self.version + 1, self.page_size);
        let r = device.write_page(lpa, data).map(|_| ());
        if r.is_ok() {
            self.version += 1;
        }
        r
    }
}

/// One measured phase: accepted writes over the simulated time they took.
struct PhaseRun {
    accepted: f64,
    refused: f64,
    kiops: f64,
    sim_ms: f64,
    staged_end: f64,
    pressure_end: f64,
}

fn measure<F>(device: &mut Device, mut step: F, ops: usize) -> PhaseRun
where
    F: FnMut(&mut Device) -> Result<(), DeviceError>,
{
    let start = device.clock().now_ns();
    let mut accepted = 0u64;
    let mut refused = 0u64;
    for _ in 0..ops {
        match step(device) {
            Ok(()) => accepted += 1,
            Err(DeviceError::Stalled) => refused += 1,
            Err(e) => panic!("unexpected device error in measured phase: {e}"),
        }
    }
    let elapsed_ns = device.clock().now_ns() - start;
    let kiops = if accepted == 0 || elapsed_ns == 0 {
        0.0
    } else {
        accepted as f64 / (elapsed_ns as f64 / 1e9) / 1e3
    };
    PhaseRun {
        accepted: accepted as f64,
        refused: refused as f64,
        kiops,
        sim_ms: elapsed_ns as f64 / 1e6,
        staged_end: device.staged_segments() as f64,
        pressure_end: device.backlog_pressure(),
    }
}

/// Writes until the device's health reaches at least `target`, returning
/// how many writes the ramp took. Stalled refusals are tolerated only
/// when ramping *to* Stalled.
fn ramp_to(device: &mut Device, writer: &mut Writer, target: OffloadHealth) -> usize {
    for op in 0..MAX_RAMP_OPS {
        if device.offload_health() >= target {
            return op;
        }
        match writer.write_next(device) {
            Ok(()) => {}
            Err(DeviceError::Stalled) if target == OffloadHealth::Stalled => return op,
            Err(e) => panic!("ramp to {target}: unexpected error {e}"),
        }
    }
    panic!("outage never degraded the device to {target} within {MAX_RAMP_OPS} writes");
}

fn phase_row(label: &str, run: &PhaseRun, health: OffloadHealth) -> BenchRow {
    BenchRow::new(
        label,
        vec![
            ("write_kiops", run.kiops),
            ("accepted", run.accepted),
            ("refused", run.refused),
            ("sim_ms", run.sim_ms),
            ("staged_segments", run.staged_end),
            ("backlog_pressure", run.pressure_end),
            ("health_severity", f64::from(health.severity())),
        ],
    )
}

/// The main slope run: healthy baseline, outage ramp, throttled window,
/// stalled refusals, heal and drain.
fn run_slope(rows: &mut Vec<BenchRow>) {
    let mut device = spill_device();
    let mut writer = Writer::new(device.page_size());

    // Prime the working set so every measured write is an overwrite.
    for _ in 0..WORKING_SET_PAGES {
        writer.write_next(&mut device).expect("prime write");
    }

    // --- Healthy: reachable remote, offload keeps up, backlog stays ~0.
    let healthy = measure(&mut device, |d| writer.write_next(d), 96);
    assert_eq!(
        device.offload_health(),
        OffloadHealth::Healthy,
        "a reachable loopback must keep the device healthy"
    );
    rows.push(phase_row("healthy", &healthy, device.offload_health()));

    // --- Outage begins: Buffering while the spill absorbs the backlog.
    device.remote_mut().set_uplink_down(true);
    let ramp_start = device.clock().now_ns();
    let buffer_ops = ramp_to(&mut device, &mut writer, OffloadHealth::Throttled);
    let ramp_ns = device.clock().now_ns() - ramp_start;
    rows.push(BenchRow::new(
        "buffering_ramp",
        vec![
            (
                "write_kiops",
                if ramp_ns == 0 {
                    0.0
                } else {
                    buffer_ops as f64 / (ramp_ns as f64 / 1e9) / 1e3
                },
            ),
            ("accepted", buffer_ops as f64),
            ("refused", 0.0),
            ("sim_ms", ramp_ns as f64 / 1e6),
            ("staged_segments", device.staged_segments() as f64),
            ("backlog_pressure", device.backlog_pressure()),
            ("health_severity", 2.0),
        ],
    ));

    // --- Throttled: admission control charges a backlog-proportional
    // penalty but keeps accepting writes.
    assert_eq!(device.offload_health(), OffloadHealth::Throttled);
    let throttled = measure(&mut device, |d| writer.write_next(d), 24);
    assert_eq!(
        throttled.refused, 0.0,
        "Throttled must admit writes — the refusal cliff is Stalled's"
    );
    rows.push(phase_row("throttled", &throttled, OffloadHealth::Throttled));

    // --- Stalled: spill nearly full, hard admission refusals.
    ramp_to(&mut device, &mut writer, OffloadHealth::Stalled);
    let stalled = measure(&mut device, |d| writer.write_next(d), 16);
    assert!(
        stalled.refused > 0.0,
        "Stalled must refuse writes rather than drop evidence"
    );
    rows.push(phase_row("stalled", &stalled, OffloadHealth::Stalled));
    let stats_outage = device.offload_stats();
    assert!(
        stats_outage.segments_spilled > 0,
        "outage exercised the spill"
    );
    assert!(
        stats_outage.throttled_writes > 0,
        "slope charged its penalty"
    );

    // --- Heal: the backlog drains, spill residue reclaimed, health green.
    device.remote_mut().set_uplink_down(false);
    let drain_start = device.clock().now_ns();
    device.flush_log().expect("post-heal drain");
    let drain_ns = device.clock().now_ns() - drain_start;
    let stats = device.offload_stats();
    let drain_complete = device.staged_segments() == 0
        && device.spill_used_bytes() == 0
        && stats.segments_sealed == stats.segments_offloaded;
    let chain_ok = device.verified_history().is_ok();
    rows.push(BenchRow::new(
        "drain",
        vec![
            ("drain_ms", drain_ns as f64 / 1e6),
            ("drain_complete", flag(drain_complete)),
            ("staged_after", device.staged_segments() as f64),
            ("spill_bytes_after", device.spill_used_bytes() as f64),
            ("segments_sealed", stats.segments_sealed as f64),
            ("segments_offloaded", stats.segments_offloaded as f64),
            (
                "evidence_loss_segments",
                (stats.segments_sealed - stats.segments_offloaded) as f64,
            ),
            ("segments_spilled", stats.segments_spilled as f64),
            ("chain_verified", flag(chain_ok)),
            (
                "health_severity",
                f64::from(device.offload_health().severity()),
            ),
        ],
    ));
    assert!(drain_complete, "post-heal drain left residue");
    assert!(chain_ok, "outage + drain forked the evidence chain");
    assert_eq!(device.offload_health(), OffloadHealth::Healthy);
}

/// A power cut *inside* the outage: sealed evidence rides the NAND spill
/// region across the crash, recovery replays it, nothing is lost.
fn run_crash_replay(rows: &mut Vec<BenchRow>) {
    let mut device = spill_device();
    let mut writer = Writer::new(device.page_size());
    for _ in 0..WORKING_SET_PAGES {
        writer.write_next(&mut device).expect("prime write");
    }
    device.remote_mut().set_uplink_down(true);
    while device.offload_stats().segments_spilled < 6 {
        writer.write_next(&mut device).expect("outage write");
    }
    let spilled = device.offload_stats().segments_spilled;
    let _ = device.crash();
    device.remote_mut().set_uplink_down(false);
    let recovery = device.recover().expect("post-outage recovery");
    device.flush_log().expect("post-recovery flush");
    let stats = device.offload_stats();
    let chain_ok = device.verified_history().is_ok();
    rows.push(BenchRow::new(
        "crash_replay",
        vec![
            ("segments_spilled", spilled as f64),
            ("spill_replayed", stats.spill_replayed as f64),
            ("segments_walked", recovery.segments_walked as f64),
            (
                "evidence_loss_segments",
                (stats.segments_sealed - stats.segments_offloaded) as f64,
            ),
            ("spill_bytes_after", device.spill_used_bytes() as f64),
            ("chain_verified", flag(chain_ok)),
        ],
    ));
    assert!(
        stats.spill_replayed > 0,
        "recovery must replay the spilled evidence"
    );
    assert_eq!(
        stats.segments_sealed, stats.segments_offloaded,
        "every sealed segment must reach the remote after the crash"
    );
    assert!(chain_ok, "spill replay forked the evidence chain");
}

fn main() {
    let mut rows = Vec::new();
    run_slope(&mut rows);
    run_crash_replay(&mut rows);

    // Degradation is a slope, not a cliff: Throttled admits writes at a
    // backlog-proportional penalty and Stalled refuses rather than drops
    // (the drain, spill and evidence-loss claims are asserted where
    // `run_slope` and `run_crash_replay` build their rows).
    let kiops = |phase: &str| cell(&rows, phase, "write_kiops");
    let (healthy, throttled, stalled) = (kiops("healthy"), kiops("throttled"), kiops("stalled"));
    assert!(
        throttled < healthy,
        "Throttled ({throttled:.2} kIOPS) must cost throughput vs Healthy ({healthy:.2} kIOPS)"
    );
    assert!(
        stalled < throttled,
        "Stalled ({stalled:.2} kIOPS) must sit below Throttled ({throttled:.2} kIOPS)"
    );
    assert!(
        throttled >= 0.25 * healthy,
        "Throttled ({throttled:.2} kIOPS) fell under 25 % of Healthy ({healthy:.2} kIOPS)"
    );

    publish(
        "degradation",
        "degradation: write throughput along the offload health slope, post-heal drain, crash replay",
        &rows,
    );
}
