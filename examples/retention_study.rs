//! Retention study: how long does stale data survive on each device model
//! under a real trace profile, and what does the GC attack do to that?
//! (A runnable, single-trace slice of Figure 2 plus the E7 story.)
//!
//! ```sh
//! cargo run --release --example retention_study [trace]
//! ```

use rssd_repro::flash::clock::NS_PER_DAY;
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::ssd::{BlockDevice, NvmeController, RetentionMode, RetentionSsd};
use rssd_repro::trace::{replay_fanout, TraceProfile};

const SIM_DAYS: f64 = 30.0;

fn measure(profile: &TraceProfile, mode: RetentionMode) -> (f64, u64, u64) {
    let geometry = FlashGeometry::with_capacity(32 * 1024 * 1024);
    let clock = SimClock::new();
    let mut device = RetentionSsd::new(geometry, NandTiming::instant(), clock, mode);
    let horizon = (SIM_DAYS * NS_PER_DAY as f64) as u64;
    let records = profile
        .workload(device.logical_pages(), device.page_size(), 42)
        .take_while(|r| r.at_ns < horizon);
    // Drive the device as a host would: one NVMe queue pair at depth 8.
    let mut controller = NvmeController::new(&mut device);
    let queue = controller.create_queue_pair(8);
    let _ = replay_fanout(&mut controller, &[queue], records);
    drop(controller);
    let report = device.report();
    let days = report
        .mean_retention_ns()
        .map_or(SIM_DAYS, |ns| ns / NS_PER_DAY as f64);
    (days, report.retained_pages, report.evicted_pages)
}

fn main() {
    let trace = std::env::args().nth(1).unwrap_or_else(|| "usr".to_string());
    let profile = TraceProfile::by_name(&trace).unwrap_or_else(|| {
        eprintln!(
            "unknown trace '{trace}'; available: {}",
            TraceProfile::all()
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    });

    println!(
        "trace '{}' ({}), {:.1} GiB/day at reference scale, {SIM_DAYS} simulated days\n",
        profile.name, profile.family, profile.daily_write_gib
    );
    for mode in [RetentionMode::RetainAll, RetentionMode::Compressed] {
        let (days, retained, evicted) = measure(&profile, mode);
        println!(
            "{:<22} retention ≈ {:>6.1} days  (retained {} pages, evicted {})",
            format!("{mode:?}"),
            days,
            retained,
            evicted
        );
    }
    println!(
        "\nRSSD, by contrast, offloads retained data over NVMe-oE: its retention is\n\
         bounded by the remote pool, not the SSD's spare area — run\n\
         `cargo bench -p rssd-bench --bench fig2_retention` for the full Figure 2."
    );
}
