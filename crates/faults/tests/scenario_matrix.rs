//! Tier-1 scenario matrix: the curated grid (3 topologies × 5 actors × 7
//! fault schedules, sampled), every cell's scorecard asserted, results
//! written to `BENCH_scenarios.json` for cross-PR tracking.
//!
//! The assertions encode the fault-model contract of DESIGN.md §6:
//!
//! * benign cells never false-positive and lose nothing;
//! * fault-free attack cells detect and recover **100 %** of victim data;
//! * a crash never forks the evidence chain — after recovery the audit
//!   verifies end to end, and recovery is still total;
//! * a queue-mode partition replays every buffered offload in order and
//!   costs nothing;
//! * a sustained uplink blackout with a power cut **inside** it loses
//!   nothing: sealed evidence rides the FTL spill region across the cut,
//!   recovery replays it, and the chain never forks;
//! * a drop-mode partition is **detected as a chain gap** — data may be
//!   lost, silence may not;
//! * shard deaths cost exactly the data retention had not yet guarded
//!   (pending pre-images + never-destroyed live pages), all of it
//!   accounted in `data_loss_bytes`, and the array survives to full
//!   rebuild — including the double-failure case.

use rssd_faults::{ScenarioMatrix, Scorecard, Verdict};

fn find<'a>(cards: &'a [Scorecard], cell: &str) -> &'a Scorecard {
    cards
        .iter()
        .find(|c| c.cell == cell)
        .unwrap_or_else(|| panic!("matrix missing cell {cell}"))
}

#[test]
fn curated_matrix_holds_the_fault_model_contract() {
    let matrix = ScenarioMatrix::curated();
    assert!(matrix.cells.len() >= 12, "curated grid shrank");

    let cards = matrix.run().expect("no cell may fail the harness");
    assert_eq!(cards.len(), matrix.cells.len());

    // --- Universal invariants, every cell.
    for card in &cards {
        assert_eq!(
            card.skipped_events, 0,
            "{}: schedule/topology mismatch",
            card.cell
        );
        assert_eq!(
            card.data_loss_bytes,
            (card.victim_pages - card.recovered_pages) * 4096,
            "{}: loss accounting must be exact",
            card.cell
        );
        assert!(
            card.chain_verified != card.chain_gap_detected,
            "{}: a chain is either verified or its gap is detected — never both, never neither",
            card.cell
        );
        // Losses are only ever explained by an injected fault.
        if card.data_loss_bytes > 0 {
            assert!(
                card.power_cuts > 0 || card.offloads_dropped > 0 || card.attack_interruptions > 0,
                "{}: silent data loss with no fault",
                card.cell
            );
        }
    }

    // --- Benign baselines: no false positives, nothing lost.
    for cell in ["hm/none/none/bare", "mail/none/none/array3"] {
        let card = find(&cards, cell);
        assert!(!card.false_positive, "{cell}: false positive");
        assert_eq!(card.verdict, Verdict::Benign, "{cell}");
        assert!(card.chain_verified, "{cell}");
        assert_eq!(card.recovery_fraction, 1.0, "{cell}");
        assert_eq!(card.data_loss_bytes, 0, "{cell}");
    }

    // --- Fault-free attack cells: detected, fully recovered.
    for cell in [
        "hm/classic/none/bare",
        "src/gc_flood/none/mq4x8",
        "src/trim/none/mq4x8",
        "mail/classic/none/array3",
    ] {
        let card = find(&cards, cell);
        assert!(card.true_positive, "{cell}: attack not flagged");
        assert_eq!(card.verdict, Verdict::Ransomware, "{cell}");
        assert!(card.chain_verified, "{cell}");
        assert_eq!(card.victim_pages, 128, "{cell}");
        assert_eq!(card.recovery_fraction, 1.0, "{cell}: zero data loss");
        assert_eq!(card.data_loss_bytes, 0, "{cell}");
    }

    // --- Power cuts: crash + recover, chain must NOT fork, recovery total.
    for cell in ["hm/classic/power_cut/bare", "src/timing/power_cut/mq4x8"] {
        let card = find(&cards, cell);
        assert_eq!(card.power_cuts, 1, "{cell}: the scheduled cut fired");
        assert!(card.attack_interruptions >= 1, "{cell}");
        assert!(
            card.chain_verified,
            "{cell}: crash-induced evidence-chain fork"
        );
        assert!(card.true_positive, "{cell}: detection survives the crash");
        assert_eq!(
            card.recovery_fraction, 1.0,
            "{cell}: acked-durable writes and offloaded retention survive power loss"
        );
    }

    // --- Blackout + cut: a power loss *inside* a refused-offload outage.
    // The degradation acceptance: every acked page recovers, zero evidence
    // loss, unforked chain — possible only because sealed segments staged
    // into the durable spill region while the wire was dead.
    for cell in [
        "hm/classic/blackout_cut/bare",
        "src/timing/blackout_cut/mq4x8",
    ] {
        let card = find(&cards, cell);
        assert_eq!(card.power_cuts, 1, "{cell}: the scheduled cut fired");
        assert!(
            card.offload_failures > 0,
            "{cell}: the blackout refused offload traffic"
        );
        assert!(
            card.segments_spilled > 0,
            "{cell}: sealed evidence staged durably during the outage"
        );
        assert!(
            card.spill_replayed > 0,
            "{cell}: recovery replayed the spill region"
        );
        assert!(card.attack_interruptions >= 1, "{cell}");
        assert!(
            card.chain_verified,
            "{cell}: spill replay must not fork the evidence chain"
        );
        assert!(card.true_positive, "{cell}: detection survives the outage");
        assert_eq!(
            card.recovery_fraction, 1.0,
            "{cell}: zero evidence loss across blackout + cut"
        );
        assert_eq!(card.data_loss_bytes, 0, "{cell}");
    }

    // --- Queue-mode partition: buffered offloads replay in order, free.
    let card = find(&cards, "hm/classic/partition_queue/bare");
    assert!(card.offloads_queued > 0, "window saw offload traffic");
    assert_eq!(
        card.offloads_replayed, card.offloads_queued,
        "every queued offload replayed on heal"
    );
    assert_eq!(card.offloads_dropped, 0);
    assert!(card.chain_verified);
    assert!(card.true_positive);
    assert_eq!(card.recovery_fraction, 1.0);

    // --- Drop-mode partition: lost offloads are DETECTED, never silent.
    let card = find(&cards, "hm/trim/partition_drop/bare");
    assert!(card.offloads_dropped > 0, "window dropped offload traffic");
    assert!(
        card.chain_gap_detected,
        "dropped offloads must surface as a chain gap"
    );
    assert!(!card.chain_verified);
    assert!(
        card.data_loss_bytes > 0,
        "dropped retention is honestly reported lost"
    );
    assert!(card.recovery_fraction >= 0.7, "loss bounded by the window");

    // --- Shard death mid-attack: array survives, loss bounded + accounted.
    let card = find(&cards, "mail/classic/shard_death/array3");
    assert!(
        card.attack_interruptions >= 1,
        "the actor hit the dead shard"
    );
    assert!(card.chain_verified, "survivor + replacement chains verify");
    assert!(
        card.recovery_fraction >= 0.85,
        "salvage covers everything the attack destroyed pre-death: {}",
        card.recovery_fraction
    );
    assert!(
        card.verdict != Verdict::Benign,
        "fleet detection survives losing one member's evidence"
    );

    // --- Double failure: two members die, the array still comes back.
    let card = find(&cards, "mail/trim/double_fault/array3");
    assert!(
        card.attack_interruptions >= 2,
        "both deaths interrupted the actor"
    );
    assert!(card.chain_verified);
    assert!(
        card.recovery_fraction >= 0.65,
        "two parity-less losses stay bounded: {}",
        card.recovery_fraction
    );

    // --- Coverage of the acceptance grid.
    let topologies: std::collections::BTreeSet<&str> = cards
        .iter()
        .map(|c| c.cell.rsplit('/').next().unwrap())
        .collect();
    assert!(topologies.len() >= 2, "≥2 topologies: {topologies:?}");
    let schedules: std::collections::BTreeSet<&str> = cards
        .iter()
        .map(|c| c.cell.split('/').nth(2).unwrap())
        .collect();
    assert!(schedules.len() >= 3, "≥3 fault schedules: {schedules:?}");
    let actors: std::collections::BTreeSet<&str> = cards
        .iter()
        .map(|c| c.cell.split('/').nth(1).unwrap())
        .collect();
    assert!(actors.len() >= 3, "≥3 actors: {actors:?}");

    // --- Machine-readable record for cross-PR tracking.
    let rows = ScenarioMatrix::bench_rows(&cards);
    let path =
        rssd_bench::write_bench_json("scenarios", &rows).expect("write BENCH_scenarios.json");
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.contains("\"bench\": \"scenarios\""));
    assert!(body.contains("hm/classic/power_cut/bare"));
}

#[test]
fn seeded_plans_score_rather_than_error() {
    // Seeded schedules compose faults arbitrarily — cuts inside partition
    // windows included. Every composition must come back as a scorecard;
    // the only tolerated error is recovery refusing to resume over a
    // chain holed by *dropped* offloads (unrecoverable by policy).
    use rssd_faults::{ActorKind, FaultPlan, Scenario, Topology};
    let mut scored = 0usize;
    for seed in 0..10u64 {
        let scenario = Scenario {
            profile: "hm",
            actor: ActorKind::Classic,
            plan: FaultPlan::Seeded { seed },
            topology: Topology::Bare,
            seed: 40 + seed,
        };
        match scenario.run() {
            Ok(card) => {
                assert!(
                    card.chain_verified != card.chain_gap_detected,
                    "{}: verdict on the chain must be definite",
                    card.cell
                );
                scored += 1;
            }
            Err(rssd_faults::FaultError::Recovery(_)) => {
                let schedule = rssd_faults::FaultSchedule::seeded(seed, 256, 1);
                assert!(
                    schedule.events().iter().any(|e| matches!(
                        e,
                        rssd_faults::FaultEvent::PartitionStart {
                            mode: rssd_faults::PartitionMode::DropSilently,
                            ..
                        }
                    )),
                    "seed {seed}: recovery may only refuse after dropped offloads"
                );
            }
            Err(e) => panic!("seed {seed}: injected faults must be scored, got {e}"),
        }
    }
    assert!(scored >= 5, "most seeded cells must produce scorecards");
}

/// The one cell shape on which the deleted injected-result wrapper and the
/// wire disagreed: a power cut, then a shard death *inside* a
/// `DropSilently` window. On the wire a lossy collector is not a dead link
/// — fetches keep flowing while it drops — so `fail_shard`'s salvage of the
/// dying member succeeds and the cell recovers what the salvage covers.
#[test]
fn shard_death_inside_a_drop_window_still_salvages() {
    use rssd_faults::{ActorKind, FaultPlan, Scenario, Topology};
    let card = Scenario {
        profile: "mail",
        actor: ActorKind::Classic,
        plan: FaultPlan::Seeded { seed: 0 },
        topology: Topology::Array {
            shards: 3,
            stripe_pages: 4,
        },
        seed: 346,
    }
    .run()
    .expect("scored, not errored");
    assert_eq!(card.cell, "mail/classic/seeded_0/array3");
    assert_eq!(card.recovered_pages, 97);
    assert_eq!(card.records_audited, 1149);
    assert!(card.chain_gap_detected, "the drops are never silent");
    assert!(card.offloads_dropped > 0);
}

#[test]
fn matrix_is_deterministic_per_seed() {
    let cell = &ScenarioMatrix::curated().cells[2]; // classic + power cut
    let a = cell.run().unwrap();
    let b = cell.run().unwrap();
    assert_eq!(a, b, "same seed, same scorecard");
    assert_eq!(a.to_json(), b.to_json(), "byte-identical rendering");
}
