//! **E1 — Table 1**: the defense matrix.
//!
//! Runs each Ransomware 2.0 attack against each implemented device model
//! and records, per (model, attack): whether the attack was defended (every
//! victim page recoverable afterwards, 0/1) and the recovery grade (0
//! unrecoverable, 1 partial, 2 full). The software-only rows of the paper's
//! Table 1 (Unveil, CryptoDrop, CloudBackup, ShieldFS, JFS) are not
//! re-implemented — they live above the block layer and the paper's point
//! is precisely that host software can be terminated by a privileged
//! attacker; DESIGN.md records this. The hardware rows are measured and
//! asserted cell by cell against the paper's table.

#[path = "shared/cells.rs"]
mod cells;

use cells::{run_cell, Attack, TABLE1};
use rssd_attacks::RecoveryGrade;
use rssd_bench::{flag, publish, BenchRow};

/// (defended, grade) metric names per attack, in [`Attack::ALL`] order.
const COLUMNS: [(&str, &str); 4] = [
    ("classic_defended", "classic_grade"),
    ("gc_defended", "gc_grade"),
    ("timing_defended", "timing_grade"),
    ("trimming_defended", "trimming_grade"),
];

fn grade_number(grade: RecoveryGrade) -> f64 {
    match grade {
        RecoveryGrade::Unrecoverable => 0.0,
        RecoveryGrade::Partial => 1.0,
        RecoveryGrade::Full => 2.0,
    }
}

fn main() {
    let mut rows = Vec::new();
    for (model, defends) in TABLE1 {
        let mut metrics = Vec::new();
        for ((attack, (defended_key, grade_key)), expected) in
            Attack::ALL.into_iter().zip(COLUMNS).zip(defends)
        {
            let outcome = run_cell(model, attack);
            // A local defense that loses the race loses everything: the
            // paper's cells are all-or-nothing, never partial.
            let expected_grade = if expected {
                RecoveryGrade::Full
            } else {
                RecoveryGrade::Unrecoverable
            };
            assert_eq!(
                outcome.grade, expected_grade,
                "Table 1 cell {model} × {attack:?}: {outcome:?}"
            );
            let defended = outcome.grade == RecoveryGrade::Full;
            metrics.push((defended_key, flag(defended)));
            metrics.push((grade_key, grade_number(outcome.grade)));
        }
        rows.push(BenchRow::new(model, metrics));
    }
    publish(
        "e1_table1",
        "E1 / Table 1: defense matrix (defended 0/1, grade 0 unrecoverable / 1 partial / 2 full)",
        &rows,
    );
}
