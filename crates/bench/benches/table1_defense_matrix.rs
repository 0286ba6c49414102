//! **E1 — Table 1**: the defense matrix.
//!
//! Runs each Ransomware 2.0 attack against each implemented device model
//! and prints, per (model, attack): whether the attack was defended (data
//! recoverable afterwards) and the recovery grade. The software-only rows
//! of the paper's Table 1 (Unveil, CryptoDrop, CloudBackup, ShieldFS, JFS)
//! are not re-implemented — they live above the block layer and the paper's
//! point is precisely that host software can be terminated by a privileged
//! attacker; DESIGN.md records this. The hardware rows are measured.

use criterion::{criterion_group, Criterion};
use rssd_attacks::{
    evaluate_recovery, ClassicRansomware, DefenseOutcome, FileTable, GcAttack, RecoveryGrade,
    TimingAttack, TrimAttack,
};
use rssd_bench::{bench_geometry, mk_flashguard, mk_plain, mk_retention, mk_rssd};
use rssd_flash::{NandTiming, SimClock};
use rssd_ssd::{flashguard, BlockDevice, RetentionMode};

const FILES: usize = 24;
const PAGES_PER_FILE: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Attack {
    Classic,
    Gc,
    Timing,
    Trimming,
}

impl Attack {
    const ALL: [Attack; 4] = [
        Attack::Classic,
        Attack::Gc,
        Attack::Timing,
        Attack::Trimming,
    ];

    fn name(self) -> &'static str {
        match self {
            Attack::Classic => "Classic",
            Attack::Gc => "GC",
            Attack::Timing => "Timing",
            Attack::Trimming => "Trimming",
        }
    }

    fn run<D: BlockDevice + ?Sized>(self, device: &mut D, victims: &FileTable) -> DefenseOutcome {
        let outcome =
            match self {
                Attack::Classic => ClassicRansomware::new(1).execute(device, victims),
                Attack::Gc => GcAttack::new(1, 5).execute(device, victims),
                Attack::Timing => TimingAttack::new(1, 4, flashguard::SUSPECT_WINDOW_NS + 1)
                    .execute(device, victims, |_| Ok(())),
                Attack::Trimming => TrimAttack::new(1, false).execute(device, victims),
            }
            .expect("attack runs to completion");
        evaluate_recovery(device, victims, &outcome)
    }
}

fn run_cell(model: &str, attack: Attack) -> DefenseOutcome {
    let g = bench_geometry();
    let timing = NandTiming::instant();
    let clock = SimClock::new();
    match model {
        "PlainSSD" => {
            let mut d = mk_plain(g, timing, clock);
            let t = FileTable::populate(&mut d, FILES, PAGES_PER_FILE, 7).unwrap();
            attack.run(&mut d, &t)
        }
        "FlashGuard" => {
            let mut d = mk_flashguard(g, timing, clock);
            let t = FileTable::populate(&mut d, FILES, PAGES_PER_FILE, 7).unwrap();
            attack.run(&mut d, &t)
        }
        "LocalSSD" => {
            let mut d = mk_retention(g, timing, clock, RetentionMode::RetainAll);
            let t = FileTable::populate(&mut d, FILES, PAGES_PER_FILE, 7).unwrap();
            attack.run(&mut d, &t)
        }
        "RSSD" => {
            let mut d = mk_rssd(g, timing, clock);
            let t = FileTable::populate(&mut d, FILES, PAGES_PER_FILE, 7).unwrap();
            attack.run(&mut d, &t)
        }
        other => panic!("unknown model {other}"),
    }
}

fn grade_symbol(grade: RecoveryGrade) -> &'static str {
    match grade {
        RecoveryGrade::Full => "●",
        RecoveryGrade::Partial => "◗",
        RecoveryGrade::Unrecoverable => "❍",
    }
}

fn print_table() {
    println!("\n=== E1 / Table 1: defense matrix (measured) ===");
    let header: Vec<&str> = Attack::ALL.iter().map(|a| a.name()).collect();
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "Model", header[0], header[1], header[2], header[3]
    );
    for model in ["PlainSSD", "FlashGuard", "LocalSSD", "RSSD"] {
        let mut row = format!("{model:<12}");
        for attack in Attack::ALL {
            let outcome = run_cell(model, attack);
            let defended = outcome.grade == RecoveryGrade::Full;
            row.push_str(&format!(
                " {:>6} {:>2}",
                if defended { "✔" } else { "✗" },
                grade_symbol(outcome.grade)
            ));
        }
        println!("{row}");
    }
    println!("(✔ = attack defended, grade: ● full / ◗ partial / ❍ unrecoverable)");
    println!("Paper: only RSSD defends all three new attacks with full recovery.\n");
}

fn bench_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("rssd_vs_classic_cell", |b| {
        b.iter(|| run_cell("RSSD", Attack::Classic))
    });
    group.finish();
}

criterion_group!(benches, bench_matrix);

fn main() {
    print_table();
    benches();
    criterion::Criterion::default().final_summary();
}
