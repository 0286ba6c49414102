//! **E7 — §3 validation**: the three new attacks defeat the selective /
//! capacity-bounded defenses but not RSSD.
//!
//! For each (defense, attack) pair, reports the victim-data survival rate:
//! the fraction of attacked pages whose original content the defense can
//! still produce after the attack completes.

use criterion::{criterion_group, Criterion};
use rssd_attacks::{
    evaluate_recovery, ClassicRansomware, FileTable, GcAttack, TimingAttack, TrimAttack,
};
use rssd_bench::{bench_geometry, mk_flashguard, mk_retention, mk_rssd};
use rssd_flash::{NandTiming, SimClock};
use rssd_ssd::{flashguard, BlockDevice, RetentionMode};

fn survival(model: &str, attack: &str) -> f64 {
    let g = bench_geometry();
    let clock = SimClock::new();
    let timing = NandTiming::instant();

    fn run<D: BlockDevice>(mut d: D, attack: &str) -> f64 {
        let table = FileTable::populate(&mut d, 24, 8, 7).unwrap();
        let outcome = match attack {
            "classic" => ClassicRansomware::new(1).execute(&mut d, &table).unwrap(),
            "gc" => GcAttack::new(1, 5).execute(&mut d, &table).unwrap(),
            "timing" => TimingAttack::new(1, 4, flashguard::SUSPECT_WINDOW_NS + 1)
                .execute(&mut d, &table, |_| Ok(()))
                .unwrap(),
            "trim" => TrimAttack::new(1, false).execute(&mut d, &table).unwrap(),
            other => panic!("unknown attack {other}"),
        };
        evaluate_recovery(&mut d, &table, &outcome).recovery_fraction()
    }

    match model {
        "FlashGuard" => run(mk_flashguard(g, timing, clock), attack),
        "LocalSSD" => run(
            mk_retention(g, timing, clock, RetentionMode::RetainAll),
            attack,
        ),
        "RSSD" => run(mk_rssd(g, timing, clock), attack),
        other => panic!("unknown model {other}"),
    }
}

fn print_table() {
    println!("\n=== E7: new-attack validation — victim data survival rate ===");
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9}",
        "Defense", "classic", "gc", "timing", "trim"
    );
    for model in ["FlashGuard", "LocalSSD", "RSSD"] {
        let mut row = format!("{model:<12}");
        for attack in ["classic", "gc", "timing", "trim"] {
            row.push_str(&format!(" {:>8.0}%", survival(model, attack) * 100.0));
        }
        println!("{row}");
    }
    println!("Paper: GC/timing/trim defeat prior defenses; RSSD survives all (100%).\n");
}

fn bench_attacks(c: &mut Criterion) {
    let mut group = c.benchmark_group("attacks_validation");
    group.sample_size(10);
    group.bench_function("gc_attack_vs_rssd", |b| b.iter(|| survival("RSSD", "gc")));
    group.finish();
}

criterion_group!(benches, bench_attacks);

fn main() {
    print_table();
    benches();
    criterion::Criterion::default().final_summary();
}
