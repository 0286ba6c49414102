//! Multi-tenant RSSD: two hosts — a well-behaved tenant and a
//! ransomware-compromised one — share a single device through separate
//! NVMe queue pairs, and detection attributes the attack to the right
//! queue.
//!
//! The controller round-robin arbitrates the pairs, so the attacker cannot
//! starve the victim; the per-queue command stream is exactly what a
//! per-host detector sees, so the verdicts attach to queues, not to the
//! device as a whole.
//!
//! ```sh
//! cargo run --example multi_tenant
//! ```

use rssd_repro::compress::shannon_entropy;
use rssd_repro::core::{LoopbackTarget, RecoveryEngine, RssdConfig, RssdDevice};
use rssd_repro::detect::{Ensemble, Verdict, WriteObservation};
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::ssd::{BlockDevice, CommandId, IoCommand, NvmeController, QueueId};
use rssd_repro::trace::{synthesize_page, PayloadKind};
use std::collections::{HashMap, HashSet};

/// One tenant: a queue pair plus the host-side state a per-queue detector
/// needs (what it wrote where, and when it last read each page). The
/// evidence log records no queue id, so attribution to a queue stays here.
struct Tenant {
    name: &'static str,
    queue: QueueId,
    detector: Ensemble,
    recent_reads: HashMap<u64, u64>,
    next_id: u16,
}

impl Tenant {
    fn new(name: &'static str, queue: QueueId) -> Self {
        Tenant {
            name,
            queue,
            detector: Ensemble::new(),
            recent_reads: HashMap::new(),
            next_id: 0,
        }
    }

    fn id(&mut self) -> CommandId {
        let id = CommandId(self.next_id);
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Submits one command, feeding the per-queue detector the observation
    /// a log-backed per-host monitor would reconstruct.
    fn submit<D: BlockDevice>(
        &mut self,
        controller: &mut NvmeController<D>,
        valid: &mut HashSet<u64>,
        command: IoCommand,
    ) {
        let now = controller.device().clock().now_ns();
        match &command {
            IoCommand::Read { lpa } => {
                self.recent_reads.insert(*lpa, now);
            }
            IoCommand::Write { lpa, data } => {
                let read_before = self.recent_reads.get(lpa).is_some_and(|&t| {
                    now.saturating_sub(t) <= RssdDevice::<LoopbackTarget>::READ_WINDOW_NS
                });
                let obs = if valid.contains(lpa) {
                    WriteObservation::overwrite(now, *lpa, shannon_entropy(data), read_before)
                } else {
                    WriteObservation::fresh_write(now, *lpa, shannon_entropy(data))
                };
                self.detector.observe(&obs);
                valid.insert(*lpa);
            }
            IoCommand::Trim { lpa } => {
                if valid.remove(lpa) {
                    self.detector.observe(&WriteObservation::trim(now, *lpa));
                }
            }
            IoCommand::Flush => {}
        }
        let id = self.id();
        controller
            .submit(self.queue, id, command)
            .expect("queue drained between bursts");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = SimClock::new();
    let mut device = RssdDevice::new(
        FlashGeometry::with_capacity(32 * 1024 * 1024),
        NandTiming::mlc_default(),
        clock.clone(),
        RssdConfig::default(),
        LoopbackTarget::new(),
    );
    let page_size = device.page_size();
    let mut controller = NvmeController::new(&mut device);
    let mut victim = Tenant::new("victim", controller.create_queue_pair(32));
    let mut attacker = Tenant::new("attacker", controller.create_queue_pair(32));
    let mut valid: HashSet<u64> = HashSet::new();

    // --- The victim's corpus: 96 pages of ordinary, compressible data.
    let corpus: Vec<u64> = (0..96).collect();
    for chunk in corpus.chunks(32) {
        for &lpa in chunk {
            let data = synthesize_page(PayloadKind::Text, lpa, page_size);
            victim.submit(&mut controller, &mut valid, IoCommand::Write { lpa, data });
        }
        controller.run_to_idle();
        controller.drain_completions(victim.queue);
    }
    let originals: HashMap<u64, Vec<u8>> = corpus
        .iter()
        .map(|&lpa| (lpa, synthesize_page(PayloadKind::Text, lpa, page_size)))
        .collect();

    // --- Steady state: both tenants active at once, round-robin arbitrated.
    // The victim keeps editing its files (benign, compressible overwrites);
    // the attacker runs read → encrypt → overwrite over the victim's pages,
    // then trims a few to cover its tracks.
    clock.advance(3_600_000_000_000); // an hour later
    let attack_start = clock.now_ns();
    for round in 0..96u64 {
        // Victim: edit a page (text stays text).
        let lpa = round % 48;
        let data = synthesize_page(PayloadKind::Text, lpa ^ 0x5a5a, page_size);
        victim.submit(&mut controller, &mut valid, IoCommand::Write { lpa, data });

        // Attacker: classic in-place encryption of one page per round.
        let target = 48 + (round % 48);
        attacker.submit(&mut controller, &mut valid, IoCommand::Read { lpa: target });
        controller.run_to_idle();
        let ciphertext = synthesize_page(PayloadKind::Random, round ^ 0xdead, page_size);
        attacker.submit(
            &mut controller,
            &mut valid,
            IoCommand::Write {
                lpa: target,
                data: ciphertext,
            },
        );
        if round % 16 == 15 {
            attacker.submit(
                &mut controller,
                &mut valid,
                IoCommand::Trim {
                    lpa: 48 + (round % 48),
                },
            );
        }
        controller.run_to_idle();
        controller.drain_completions(victim.queue);
        controller.drain_completions(attacker.queue);
        clock.advance(50_000_000);
    }

    // --- Per-queue attribution: same detector, radically different stories.
    println!("per-queue detection attribution:");
    let mut verdicts = HashMap::new();
    for tenant in [&victim, &attacker] {
        let stats = controller.stats(tenant.queue);
        let verdict = tenant.detector.verdict();
        verdicts.insert(tenant.name, verdict);
        println!(
            "  {:<9} q{} | {:>3} w / {:>3} r / {:>2} t | queue p50 {:>9} ns p99 {:>9} ns | score {:.2} → {:?}",
            tenant.name,
            tenant.queue.0,
            stats.writes,
            stats.reads,
            stats.trims,
            stats.latency.percentile_ns(50.0),
            stats.latency.percentile_ns(99.0),
            tenant.detector.score(),
            verdict,
        );
    }
    assert_eq!(verdicts["attacker"], Verdict::Ransomware);
    assert_ne!(verdicts["victim"], Verdict::Ransomware);

    // --- The investigator's back channel: recover what the attacker hit.
    drop(controller);
    let attacked: Vec<u64> = (48..96).collect();
    let report = RecoveryEngine::new().restore_before(&mut device, &attacked, attack_start);
    let mut intact = 0;
    for &lpa in &attacked {
        if device.read_page(lpa)? == originals[&lpa] {
            intact += 1;
        }
    }
    println!(
        "recovery: {} restored, {} unrecoverable; {}/{} attacked pages byte-identical",
        report.pages_restored,
        report.pages_unrecoverable,
        intact,
        attacked.len()
    );
    assert_eq!(intact, attacked.len(), "zero data loss for the victim");
    Ok(())
}
