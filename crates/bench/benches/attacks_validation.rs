//! **E7 — §3 validation**: the three new attacks defeat the selective /
//! capacity-bounded defenses but not RSSD.
//!
//! For each (defense, attack) pair, reports the victim-data survival rate:
//! the percentage of attacked pages whose original content the defense can
//! still produce after the attack completes. Asserted against the same
//! matrix as E1: a defended cell survives 100 %, a defeated one 0 %.

#[path = "shared/cells.rs"]
mod cells;

use cells::{run_cell, Attack, TABLE1};
use rssd_bench::{publish, BenchRow};

/// Survival metric name per attack, in [`Attack::ALL`] order.
const COLUMNS: [&str; 4] = [
    "classic_survival_pct",
    "gc_survival_pct",
    "timing_survival_pct",
    "trim_survival_pct",
];

fn main() {
    let mut rows = Vec::new();
    // The defenses: Table 1 minus the unprotected PlainSSD row.
    for (model, defends) in &TABLE1[1..] {
        let mut metrics = Vec::new();
        for ((attack, key), &defended) in Attack::ALL.into_iter().zip(COLUMNS).zip(defends) {
            let survival_pct = run_cell(model, attack).recovery_fraction() * 100.0;
            assert_eq!(
                survival_pct,
                if defended { 100.0 } else { 0.0 },
                "{model} × {attack:?}"
            );
            metrics.push((key, survival_pct));
        }
        rows.push(BenchRow::new(*model, metrics));
    }
    publish(
        "e7_attacks",
        "E7: new-attack validation — victim data survival rate (%)",
        &rows,
    );
}
