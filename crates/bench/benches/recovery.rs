//! **E5**: "fast data recovery after attacks".
//!
//! Encrypts (or trims) an increasing number of victim pages, then measures
//! recovery: simulated device time and restored pages, including recovery
//! that must pull offloaded segments back from the remote target. A last
//! row runs the operator's pipeline — verify the history, analyze it,
//! restore the analyzer's own victim list. Asserted on every row: zero
//! unrecoverable pages, every victim restored, restored content verifies.

use rssd_attacks::{ClassicRansomware, FileTable, TrimAttack};
use rssd_bench::{bench_geometry, flag, mk_rssd, publish, BenchRow};
use rssd_core::{AttackClass, PostAttackAnalyzer, RecoveryEngine};
use rssd_flash::{NandTiming, SimClock};

fn recovery_row(label: &str, victim_pages: u64, trim_instead: bool) -> BenchRow {
    let clock = SimClock::new();
    let mut d = mk_rssd(bench_geometry(), NandTiming::mlc_default(), clock.clone());
    let files = (victim_pages / 8).max(1) as usize;
    let table = FileTable::populate(&mut d, files, 8, 7).unwrap();
    clock.advance(1_000_000);
    let attack_start = clock.now_ns();
    let outcome = if trim_instead {
        TrimAttack::new(1, false).execute(&mut d, &table).unwrap()
    } else {
        ClassicRansomware::new(1).execute(&mut d, &table).unwrap()
    };
    d.flush_log().unwrap();

    let report = RecoveryEngine::new().restore_before(&mut d, &outcome.victim_lpas, attack_start);
    assert_eq!(
        report.pages_unrecoverable, 0,
        "{label}: zero data loss must hold at {victim_pages} pages"
    );
    assert_eq!(report.pages_restored, victim_pages, "{label}: every victim");
    let (intact, total) = table.verify_intact(&mut d);
    assert_eq!(intact, total, "{label}: restored content must verify");
    BenchRow::new(
        label,
        vec![
            ("victim_pages", victim_pages as f64),
            ("recovery_sim_ms", report.duration_ns as f64 / 1e6),
            ("pages_restored", report.pages_restored as f64),
            ("pages_unrecoverable", report.pages_unrecoverable as f64),
        ],
    )
}

/// Full pipeline: analyze → recover, as an operator would.
fn pipeline_row() -> BenchRow {
    let clock = SimClock::new();
    let mut d = mk_rssd(bench_geometry(), NandTiming::mlc_default(), clock.clone());
    let table = FileTable::populate(&mut d, 16, 8, 7).unwrap();
    clock.advance(1_000_000);
    let outcome = ClassicRansomware::new(9).execute(&mut d, &table).unwrap();
    let history = d.verified_history().unwrap();
    let report = PostAttackAnalyzer::new().analyze(&history, true);
    let recovery =
        RecoveryEngine::new().restore_before(&mut d, &report.victim_lpas, outcome.start_ns);
    let classified_classic = report.attack_class == AttackClass::Classic;
    assert!(classified_classic, "pipeline: {}", report.attack_class);
    assert_eq!(recovery.pages_unrecoverable, 0, "pipeline: zero data loss");
    assert_eq!(
        recovery.pages_restored,
        report.victim_lpas.len() as u64,
        "pipeline: every page the analyzer named"
    );
    BenchRow::new(
        "pipeline",
        vec![
            ("records_analyzed", report.records_examined as f64),
            ("classified_classic", flag(classified_classic)),
            ("victim_pages", report.victim_lpas.len() as f64),
            ("pages_restored", recovery.pages_restored as f64),
            ("pages_unrecoverable", recovery.pages_unrecoverable as f64),
        ],
    )
}

fn main() {
    let rows = vec![
        recovery_row("classic_64", 64, false),
        recovery_row("classic_256", 256, false),
        recovery_row("classic_512", 512, false),
        recovery_row("trimming_256", 256, true),
        pipeline_row(),
    ];
    publish(
        "e5_recovery",
        "E5: recovery time after attack (RSSD, MLC timing; paper claim: fast recovery, zero data loss)",
        &rows,
    );
}
