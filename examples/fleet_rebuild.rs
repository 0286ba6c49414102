//! Fleet-level fault tolerance: detect a campaign striped across an RSSD
//! array from its evidence, lose one shard mid-attack, serve degraded reads
//! from the remote evidence chain, rebuild the shard from it, and verify
//! zero data loss.
//!
//! Timeline:
//!
//! 1. A victim tenant writes its corpus across a 3-shard array and keeps
//!    editing a scratch region (benign traffic), with journal-style flush
//!    barriers.
//! 2. Ransomware (its own queue pair) read-encrypt-overwrites the whole
//!    corpus. Per-shard retention pins every destroyed original and the
//!    offload engine ships them to each member's remote store.
//! 3. Detection reads the evidence: each member's chain-verified log alone,
//!    and the array's merged history as one. Only the merged history
//!    carries the whole campaign.
//! 4. Shard 1 dies — controller, NAND, pending log, all of it. Its remote
//!    store survives; the array harvests a chain-verified rebuild image and
//!    keeps the dead member's verified records, so the merged analysis
//!    reads the same after the death.
//! 5. The ransomware keeps going (trim cleanup phase): commands to the dead
//!    shard complete with `ShardFailed`, the survivors keep serving.
//!    Degraded reads of shard 1 come from the remote image.
//! 6. A replacement member is rebuilt incrementally to the pre-attack
//!    point in time, regions coming online as they are copied.
//! 7. Verification: every corpus page, on every shard, is byte-identical
//!    to its pre-attack content.
//!
//! ```sh
//! cargo run --example fleet_rebuild
//! ```

use rssd_repro::array::{RssdArray, ShardStatus};
use rssd_repro::core::{LoopbackTarget, PostAttackAnalyzer, RssdConfig, RssdDevice};
use rssd_repro::detect::Verdict;
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::ssd::{BlockDevice, CommandId, DeviceError, IoCommand, NvmeController, QueueId};
use rssd_repro::trace::{synthesize_page, PayloadKind};
use std::collections::HashMap;

const SHARDS: usize = 3;
const STRIPE_PAGES: u64 = 4;
const CORPUS_PAGES: u64 = 90;
const SCRATCH_BASE: u64 = 96;
const SCRATCH_PAGES: u64 = 24;

fn mk_shard(device_id: u64) -> RssdDevice<LoopbackTarget> {
    RssdDevice::new(
        FlashGeometry::with_capacity(8 * 1024 * 1024),
        NandTiming::mlc_default(),
        SimClock::new(), // each member owns its clock: shards run in parallel
        RssdConfig {
            device_id,
            segment_pages: 8,
            ..RssdConfig::default()
        },
        LoopbackTarget::new(),
    )
}

/// One tenant's queue pair with monotonically recycled command ids.
struct Tenant {
    queue: QueueId,
    next_id: u16,
}

impl Tenant {
    fn submit<D: BlockDevice>(&mut self, controller: &mut NvmeController<D>, command: IoCommand) {
        let id = CommandId(self.next_id);
        self.next_id = self.next_id.wrapping_add(1);
        controller
            .submit(self.queue, id, command)
            .expect("queues drained between bursts");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut array = RssdArray::new(
        (0..SHARDS as u64).map(mk_shard).collect(),
        STRIPE_PAGES,
        SimClock::new(),
    );
    let page_size = array.page_size();
    let layout = *array.layout();
    let shard_of = |lpa: u64| layout.locate(lpa).0;
    let clock = array.clock().clone();

    // --- 1. The victim's corpus, striped across all three members.
    let mut controller = NvmeController::new(&mut array);
    let mut victim = Tenant {
        queue: controller.create_queue_pair(32),
        next_id: 0,
    };
    let mut attacker = Tenant {
        queue: controller.create_queue_pair(32),
        next_id: 0,
    };
    let originals: HashMap<u64, Vec<u8>> = (0..CORPUS_PAGES)
        .map(|lpa| (lpa, synthesize_page(PayloadKind::Text, lpa, page_size)))
        .collect();
    for lpa in 0..CORPUS_PAGES {
        let data = originals[&lpa].clone();
        victim.submit(&mut controller, IoCommand::Write { lpa, data });
        if lpa % 32 == 31 {
            controller.run_to_idle();
            controller.drain_completions(victim.queue);
        }
    }
    victim.submit(&mut controller, IoCommand::Flush);
    controller.run_to_idle();
    controller.drain_completions(victim.queue);

    // --- 2. Ransomware: read → encrypt → overwrite the whole corpus while
    // the victim keeps editing its scratch region.
    clock.advance(3_600_000_000_000); // an hour later
    let attack_start = clock.now_ns();
    for lpa in 0..CORPUS_PAGES {
        attacker.submit(&mut controller, IoCommand::Read { lpa });
        controller.run_to_idle();
        let ciphertext = synthesize_page(PayloadKind::Random, lpa ^ 0xdead, page_size);
        attacker.submit(
            &mut controller,
            IoCommand::Write {
                lpa,
                data: ciphertext,
            },
        );
        let scratch = SCRATCH_BASE + lpa % SCRATCH_PAGES;
        let edit = synthesize_page(PayloadKind::Text, scratch ^ 0x5a5a, page_size);
        victim.submit(
            &mut controller,
            IoCommand::Write {
                lpa: scratch,
                data: edit,
            },
        );
        controller.run_to_idle();
        controller.drain_completions(victim.queue);
        controller.drain_completions(attacker.queue);
        clock.advance(50_000_000);
    }
    // The victim's journal flushes — a barrier every filesystem issues —
    // which also ships every retained pre-image to the remote stores.
    victim.submit(&mut controller, IoCommand::Flush);
    controller.run_to_idle();
    controller.drain_completions(victim.queue);
    drop(controller);

    // --- 3. Detection over the evidence, not the command stream. Each
    // member's chain-verified log is analyzed alone; the array's merged
    // history (every member's records in array addresses, time-ordered) is
    // analyzed as one.
    let analyzer = PostAttackAnalyzer::new();
    println!("detection over the evidence logs:");
    for shard in 0..SHARDS {
        let member = array.shard_mut(shard).expect("every shard is live");
        let audit = member.audit_history();
        let report = analyzer.analyze(&audit.records, audit.verified);
        println!(
            "  shard {shard}: score {:.2} → {:?}",
            report.score, report.verdict
        );
    }
    let audit = array.audit_history();
    let fused = analyzer.analyze(&audit.records, audit.verified);
    println!(
        "  array:   score {:.2} → {:?} over {} records (chain verified: {})",
        fused.score, fused.verdict, fused.records_examined, fused.chain_verified
    );
    assert!(fused.chain_verified);
    assert_eq!(fused.verdict, Verdict::Ransomware);
    let records_before_death = audit.records.len();

    // --- 4. Shard 1 dies mid-attack.
    let salvage = array.fail_shard(1).map_err(std::io::Error::other)?;
    println!(
        "shard 1 lost; salvaged from its remote store: {} segments, {} records, \
         {} retained versions over {} pages",
        salvage.segments, salvage.records, salvage.versions, salvage.lpas_covered
    );
    assert_eq!(array.shard_status(1), ShardStatus::Degraded);

    // The dead member's history is the salvage's verified records, so the
    // merged analysis reads the same after the death.
    let audit = array.audit_history();
    let after = analyzer.analyze(&audit.records, audit.verified);
    println!(
        "  array after shard 1 died: score {:.2} → {:?} over {} records (chain verified: {})",
        after.score, after.verdict, after.records_examined, after.chain_verified
    );
    assert!(after.chain_verified);
    assert_eq!(after.verdict, Verdict::Ransomware);
    assert_eq!(audit.records.len(), records_before_death);

    // Degraded reads of the dead shard come from the remote evidence chain
    // — and return the *pre-attack* content, because what the remote
    // retains is exactly what the ransomware destroyed.
    let shard1_corpus: Vec<u64> = (0..CORPUS_PAGES).filter(|&l| shard_of(l) == 1).collect();
    for &lpa in &shard1_corpus {
        assert_eq!(
            array.read_page(lpa)?,
            originals[&lpa],
            "degraded read of lpa {lpa} must serve the retained original"
        );
    }
    println!(
        "degraded reads: {}/{} shard-1 corpus pages served byte-identical from remote",
        shard1_corpus.len(),
        shard1_corpus.len()
    );

    // --- 5. The ransomware is still running: trim cleanup over the corpus.
    let mut controller = NvmeController::new(&mut array);
    attacker.queue = controller.create_queue_pair(32);
    attacker.next_id = 0;
    let mut dead_shard_errors = 0u64;
    for lpa in 0..CORPUS_PAGES {
        attacker.submit(&mut controller, IoCommand::Trim { lpa });
        controller.run_to_idle();
        for done in controller.drain_completions(attacker.queue) {
            if matches!(done.result, Err(DeviceError::ShardFailed { shard: 1 })) {
                dead_shard_errors += 1;
            }
        }
        clock.advance(10_000_000);
    }
    drop(controller);
    println!(
        "attack continued through the outage: {} trims refused by the dead shard, \
         survivors kept serving",
        dead_shard_errors
    );
    assert_eq!(dead_shard_errors, shard1_corpus.len() as u64);

    // --- 6. Incremental rebuild of a replacement member, to the pre-attack
    // point in time, while degraded reads keep flowing.
    array
        .begin_rebuild(1, mk_shard(9), Some(attack_start))
        .map_err(std::io::Error::other)?;
    let mut steps = 0u32;
    loop {
        let progress = array.rebuild_step(1, 64).map_err(std::io::Error::other)?;
        steps += 1;
        // Mid-rebuild, the not-yet-copied tail still serves from remote.
        if !progress.done {
            let probe = shard1_corpus
                .iter()
                .copied()
                .find(|&l| layout.locate(l).1 >= progress.copied_pages);
            if let Some(lpa) = probe {
                assert_eq!(array.read_page(lpa)?, originals[&lpa]);
            }
        }
        if progress.done {
            println!(
                "rebuild complete after {steps} increments: {}/{} pages restored from remote, \
                 {} pages had nothing retained (never overwritten)",
                progress.restored_pages,
                progress.total_pages,
                progress.total_pages - progress.restored_pages
            );
            break;
        }
    }
    assert_eq!(array.shard_status(1), ShardStatus::Live);
    // The rebuilt member slots back into the same geometry.
    assert_eq!(array.layout().shard_pages(), layout.shard_pages());

    // --- 7. Fleet-wide recovery check: roll the surviving shards back to
    // the pre-attack point too, then verify the whole corpus byte for byte.
    let mut restored_live = 0u64;
    for lpa in 0..CORPUS_PAGES {
        if shard_of(lpa) != 1 {
            let data = array
                .recover_before(lpa, attack_start)
                .expect("survivors retain every destroyed original");
            array.write_page(lpa, data)?;
            restored_live += 1;
        }
    }
    let mut intact = 0u64;
    for lpa in 0..CORPUS_PAGES {
        if array.read_page(lpa)? == originals[&lpa] {
            intact += 1;
        }
    }
    println!(
        "recovery: {} pages restored on surviving shards, {} via rebuild; \
         {intact}/{CORPUS_PAGES} corpus pages byte-identical",
        restored_live,
        shard1_corpus.len()
    );
    assert_eq!(intact, CORPUS_PAGES, "zero data loss across the fleet");

    // Merged fleet reporting rides the array's merge accessors — the same
    // interval-union-aware NandStats::merge the fleet harness uses — so the
    // totals here agree with any per-shard breakdown by construction.
    let offload = array.offload_stats();
    let nand = array.nand_stats();
    let ftl = array.ftl_stats();
    println!(
        "merged array stats: {} segments offloaded ({} retained pages, {:.1}x compression), \
         {} chain records across {} live shards",
        offload.segments_offloaded,
        offload.retained_pages_offloaded,
        offload.compression_ratio(),
        array.chain_len(),
        array.shard_count(),
    );
    println!(
        "merged NAND/FTL:    {} programs, {} reads, {} erases; WAF {:.2}",
        nand.programs(),
        nand.reads(),
        nand.erases(),
        ftl.write_amplification(),
    );
    Ok(())
}
