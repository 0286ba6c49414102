//! Breaking it on purpose: the scenario matrix.
//!
//! Runs the curated 12-cell grid — workload profile × attack actor ×
//! fault schedule × topology — and prints one scorecard row per cell:
//! did detection fire, how much attacked data recovered, what did the
//! fault cost, and did the evidence chain survive (or was its gap at
//! least *detected*). The same grid runs as a tier-1 test in CI; the
//! machine-readable record lands in `BENCH_scenarios.json`.
//!
//! ```sh
//! cargo run --example scenario_matrix
//! # dual-timeline trace for https://ui.perfetto.dev, checked against the
//! # trace grammar before it is written:
//! cargo run --example scenario_matrix -- --trace-out matrix_trace.json
//! ```

use rssd_repro::faults::{MatrixSummary, ScenarioMatrix, Verdict};
use rssd_repro::obs::{check, export_chrome_trace, SinkHandle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => {
                trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }
    let sink = if trace_out.is_some() {
        SinkHandle::recording()
    } else {
        SinkHandle::disabled()
    };

    let matrix = ScenarioMatrix::curated();
    println!(
        "scenario matrix: {} cells (profile/actor/fault/topology)\n",
        matrix.cells.len()
    );
    println!(
        "{:<34} {:>10} {:>9} {:>9} {:>6} {:>6} {:>7}  chain",
        "cell", "verdict", "victims", "recovered", "loss%", "cuts", "interr"
    );
    println!("{}", "-".repeat(96));

    let mut cards = Vec::new();
    for cell in &matrix.cells {
        // Each cell gets its own track namespace so independent simulated
        // clocks never interleave on one track.
        let cell_sink = sink.with_track_prefix(&format!("{}/", cell.cell_id()));
        let card = cell
            .run_with(cell.topology.link(), cell_sink)
            .map_err(|e| format!("{}: {e}", cell.cell_id()))?;
        let verdict = match card.verdict {
            Verdict::Benign => "benign",
            Verdict::Suspicious => "suspicious",
            Verdict::Ransomware => "RANSOMWARE",
        };
        let loss_pct = if card.victim_pages == 0 {
            0.0
        } else {
            100.0 * (1.0 - card.recovery_fraction)
        };
        let chain = if card.chain_verified {
            "verified"
        } else {
            "GAP DETECTED"
        };
        println!(
            "{:<34} {:>10} {:>9} {:>9} {:>5.1}% {:>6} {:>7}  {}",
            card.cell,
            verdict,
            card.victim_pages,
            card.recovered_pages,
            loss_pct,
            card.power_cuts,
            card.attack_interruptions,
            chain
        );
        cards.push(card);
    }

    // The invariants CI enforces, folded through the matrix's merge API
    // rather than hand-summed here (so this summary and the CI gate can
    // never drift apart).
    let mut summary = MatrixSummary::default();
    for card in &cards {
        summary.absorb(card);
    }
    println!(
        "\nmerged: {}/{} cells attacked, {} victim pages, {:.0}% recovered, \
         {} power cuts, {} offloads dropped, {} chain gaps flagged",
        summary.attacked_cells,
        summary.cells,
        summary.victim_pages,
        100.0 * summary.recovery_fraction(),
        summary.power_cuts,
        summary.offloads_dropped,
        summary.chain_gaps_detected,
    );
    println!(
        "fault-free cells recover 100%:      {}",
        summary.fault_free_recovered == summary.fault_free_attacked
    );
    println!(
        "benign cells false-positive free:   {}",
        summary.false_positives == 0
    );
    assert!(summary.invariants_hold());

    let rows = ScenarioMatrix::bench_rows(&cards);
    let path = rssd_repro::bench_support::write_bench_json("scenarios", &rows)?;
    println!("\nwrote {}", path.display());

    if let Some(out) = &trace_out {
        let events = sink.take_events();
        let trace = check(&events)?;
        if trace.transfers_closed == 0 || trace.in_flight_at_end > 0 {
            return Err(format!("every cell offloads and settles, yet: {trace:?}").into());
        }
        std::fs::write(out, export_chrome_trace(&events))?;
        println!(
            "wrote {} trace events to {out} (load in https://ui.perfetto.dev); {trace:?}",
            events.len()
        );
    }
    Ok(())
}
