//! One (device model × Ransomware 2.0 attack) cell, shared by the two
//! benches that read it: E1 grades the outcome, E7 reports the surviving
//! fraction.

use rssd_attacks::{
    evaluate_recovery, ClassicRansomware, DefenseOutcome, FileTable, GcAttack, TimingAttack,
    TrimAttack,
};
use rssd_bench::{bench_geometry, mk_rssd};
use rssd_flash::{NandTiming, SimClock};
use rssd_ssd::{flashguard, BlockDevice, PlainSsd, RetentionMode, RetentionSsd};

const FILES: usize = 24;
const PAGES_PER_FILE: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attack {
    Classic,
    Gc,
    Timing,
    Trimming,
}

impl Attack {
    pub const ALL: [Attack; 4] = [
        Attack::Classic,
        Attack::Gc,
        Attack::Timing,
        Attack::Trimming,
    ];
}

/// The paper's Table 1, hardware rows: which attacks (in [`Attack::ALL`]
/// order) each model defends. Only RSSD defends all three new attacks.
pub const TABLE1: [(&str, [bool; 4]); 4] = [
    ("PlainSSD", [false, false, false, false]),
    ("FlashGuard", [true, true, false, false]),
    ("LocalSSD", [true, false, true, true]),
    ("RSSD", [true, true, true, true]),
];

fn attack_device<D: BlockDevice>(mut device: D, attack: Attack) -> DefenseOutcome {
    let victims = FileTable::populate(&mut device, FILES, PAGES_PER_FILE, 7).unwrap();
    let outcome = match attack {
        Attack::Classic => ClassicRansomware::new(1).execute(&mut device, &victims),
        Attack::Gc => GcAttack::new(1, 5).execute(&mut device, &victims),
        Attack::Timing => TimingAttack::new(1, 4, flashguard::SUSPECT_WINDOW_NS + 1).execute(
            &mut device,
            &victims,
            |_| Ok(()),
        ),
        Attack::Trimming => TrimAttack::new(1, false).execute(&mut device, &victims),
    }
    .expect("attack runs to completion");
    evaluate_recovery(&mut device, &victims, &outcome)
}

/// Populates a fresh `model` device with the victim corpus, runs `attack`
/// against it and asks the device for every victim page back.
pub fn run_cell(model: &str, attack: Attack) -> DefenseOutcome {
    let (g, timing, clock) = (bench_geometry(), NandTiming::instant(), SimClock::new());
    match model {
        "PlainSSD" => attack_device(PlainSsd::new(g, timing, clock), attack),
        "FlashGuard" => attack_device(
            RetentionSsd::new(g, timing, clock, RetentionMode::ReadThenOverwrite),
            attack,
        ),
        "LocalSSD" => attack_device(
            RetentionSsd::new(g, timing, clock, RetentionMode::RetainAll),
            attack,
        ),
        "RSSD" => attack_device(mk_rssd(g, timing, clock), attack),
        other => panic!("unknown model {other}"),
    }
}
