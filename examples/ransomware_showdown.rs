//! Ransomware showdown: all four Ransomware 2.0 attacks against all four
//! device models, with measured survival rates — the narrative behind the
//! paper's Table 1, runnable.
//!
//! ```sh
//! cargo run --example ransomware_showdown
//! ```

use rssd_repro::attacks::{
    evaluate_recovery, ClassicRansomware, FileTable, GcAttack, TimingAttack, TrimAttack,
};
use rssd_repro::core::{LoopbackTarget, RssdConfig, RssdDevice};
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::ssd::{flashguard, BlockDevice, PlainSsd, RetentionMode, RetentionSsd};

const FILES: usize = 16;
const PAGES: u64 = 8;

fn attack_device<D: BlockDevice>(mut device: D, attack: &str) -> (String, f64) {
    let victims = FileTable::populate(&mut device, FILES, PAGES, 7).expect("corpus fits");
    let outcome = match attack {
        "classic" => ClassicRansomware::new(1).execute(&mut device, &victims),
        "gc-flood" => GcAttack::new(1, 4).execute(&mut device, &victims),
        "timing" => TimingAttack::new(1, 4, flashguard::SUSPECT_WINDOW_NS + 1).execute(
            &mut device,
            &victims,
            |_| Ok(()),
        ),
        "trimming" => TrimAttack::new(1, false).execute(&mut device, &victims),
        other => panic!("unknown attack {other}"),
    }
    .expect("attack completes");
    let result = evaluate_recovery(&mut device, &victims, &outcome);
    (result.model.clone(), result.recovery_fraction())
}

fn main() {
    let geometry = FlashGeometry::with_capacity(32 * 1024 * 1024);
    println!(
        "victim corpus: {FILES} files x {PAGES} pages, device {} MiB\n",
        32
    );
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}",
        "Device", "classic", "gc-flood", "timing", "trimming"
    );

    for model in ["plain", "flashguard", "localssd", "rssd"] {
        let mut cells = Vec::new();
        let mut name = String::new();
        for attack in ["classic", "gc-flood", "timing", "trimming"] {
            let timing = NandTiming::instant();
            let clock = SimClock::new();
            let (model_name, fraction) = match model {
                "plain" => attack_device(PlainSsd::new(geometry, timing, clock), attack),
                "flashguard" => attack_device(
                    RetentionSsd::new(geometry, timing, clock, RetentionMode::ReadThenOverwrite),
                    attack,
                ),
                "localssd" => attack_device(
                    RetentionSsd::new(geometry, timing, clock, RetentionMode::RetainAll),
                    attack,
                ),
                "rssd" => attack_device(
                    RssdDevice::new(
                        geometry,
                        timing,
                        clock,
                        RssdConfig::default(),
                        LoopbackTarget::new(),
                    ),
                    attack,
                ),
                other => panic!("unknown model {other}"),
            };
            name = model_name;
            cells.push(format!("{:>8.0}%", fraction * 100.0));
        }
        println!("{:<22} {}", name, cells.join(" "));
    }
    println!("\nOnly RSSD keeps every victim page recoverable under all four attacks.");
}
