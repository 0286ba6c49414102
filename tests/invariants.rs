//! Property-based cross-crate invariants.
//!
//! These pin down the guarantees the paper's design rests on:
//! 1. **Zero data loss** — on RSSD, after any sequence of writes/trims, the
//!    pre-image of every destroyed page version is recoverable.
//! 2. **Linearizable reads** — every device model always returns the most
//!    recently written content (or zeroes after trim), whatever GC did.
//! 3. **Evidence-chain totality** — the verified history always replays to
//!    exactly the operations issued, in order.

use proptest::prelude::*;
use rssd_repro::core::{LogOp, LoopbackTarget, RssdConfig, RssdDevice};
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::ssd::{BlockDevice, PlainSsd, RetentionMode, RetentionSsd};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Write(u64, u8),
    Trim(u64),
    Read(u64),
}

fn op_strategy(lpas: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..lpas, any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
        (0..lpas).prop_map(Op::Trim),
        (0..lpas).prop_map(Op::Read),
    ]
}

fn mk_rssd() -> RssdDevice<LoopbackTarget> {
    RssdDevice::new(
        FlashGeometry::small_test(),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 8,
            ..RssdConfig::default()
        },
        LoopbackTarget::new(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rssd_reads_linearize_and_preimages_survive(ops in proptest::collection::vec(op_strategy(24), 1..120)) {
        let mut device = mk_rssd();
        let clock = device.clock().clone();
        let mut model: HashMap<u64, Option<u8>> = HashMap::new();
        // Last destroyed pre-image per LPA (what recover_page must return).
        let mut last_preimage: HashMap<u64, u8> = HashMap::new();

        for op in &ops {
            clock.advance(1000);
            match *op {
                Op::Write(lpa, byte) => {
                    if let Some(Some(old)) = model.get(&lpa) {
                        last_preimage.insert(lpa, *old);
                    }
                    device.write_page(lpa, vec![byte; 4096]).unwrap();
                    model.insert(lpa, Some(byte));
                }
                Op::Trim(lpa) => {
                    if let Some(Some(old)) = model.get(&lpa) {
                        last_preimage.insert(lpa, *old);
                    }
                    device.trim_page(lpa).unwrap();
                    model.insert(lpa, None);
                }
                Op::Read(lpa) => {
                    let expected = match model.get(&lpa) {
                        Some(Some(b)) => vec![*b; 4096],
                        _ => vec![0u8; 4096],
                    };
                    prop_assert_eq!(device.read_page(lpa).unwrap(), expected);
                }
            }
        }

        // Final linearizability sweep.
        for (lpa, content) in &model {
            let expected = match content {
                Some(b) => vec![*b; 4096],
                None => vec![0u8; 4096],
            };
            prop_assert_eq!(device.read_page(*lpa).unwrap(), expected);
        }

        // Zero data loss: every destroyed pre-image is recoverable.
        for (lpa, byte) in &last_preimage {
            prop_assert_eq!(
                device.recover_page(*lpa),
                Some(vec![*byte; 4096]),
                "pre-image of lpa {} lost", lpa
            );
        }
    }

    #[test]
    fn plain_ssd_reads_linearize_under_churn(ops in proptest::collection::vec(op_strategy(16), 1..200)) {
        let mut device = PlainSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        );
        let mut model: HashMap<u64, Option<u8>> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Write(lpa, byte) => {
                    device.write_page(lpa, vec![byte; 4096]).unwrap();
                    model.insert(lpa, Some(byte));
                }
                Op::Trim(lpa) => {
                    device.trim_page(lpa).unwrap();
                    model.insert(lpa, None);
                }
                Op::Read(lpa) => {
                    let expected = match model.get(&lpa) {
                        Some(Some(b)) => vec![*b; 4096],
                        _ => vec![0u8; 4096],
                    };
                    prop_assert_eq!(device.read_page(lpa).unwrap(), expected);
                }
            }
        }
    }

    #[test]
    fn retention_ssd_recovers_newest_preimage_within_budget(
        writes in proptest::collection::vec((0u64..8, any::<u8>()), 2..40)
    ) {
        let mut device = RetentionSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RetentionMode::Compressed,
        );
        let mut history: HashMap<u64, Vec<u8>> = HashMap::new();
        for (lpa, byte) in &writes {
            device.write_page(*lpa, vec![*byte; 4096]).unwrap();
            history.entry(*lpa).or_default().push(*byte);
        }
        // With a tiny working set nothing is evicted, so the newest
        // pre-image (second-to-last write) must be recoverable.
        for (lpa, versions) in &history {
            if versions.len() >= 2 {
                let expected = versions[versions.len() - 2];
                prop_assert_eq!(
                    device.recover_page(*lpa),
                    Some(vec![expected; 4096])
                );
            }
        }
    }

    #[test]
    fn evidence_chain_replays_issued_operations(ops in proptest::collection::vec(op_strategy(16), 1..80)) {
        let mut device = mk_rssd();
        let clock = device.clock().clone();
        let mut issued: Vec<(LogOp, u64)> = Vec::new();
        for op in &ops {
            clock.advance(1000);
            match *op {
                Op::Write(lpa, byte) => {
                    device.write_page(lpa, vec![byte; 4096]).unwrap();
                    issued.push((LogOp::Write, lpa));
                }
                Op::Trim(lpa) => {
                    device.trim_page(lpa).unwrap();
                    // Note: trims of unmapped pages are no-ops and unlogged,
                    // so logged trims are checked as a subsequence below.
                    issued.push((LogOp::Trim, lpa));
                }
                Op::Read(lpa) => {
                    device.read_page(lpa).unwrap();
                }
            }
        }
        // Mid-run flush to force remote round-trips, then verify.
        device.flush_log().unwrap();
        let history = device.verified_history().unwrap();

        // Every logged write matches an issued write, in order; trims in the
        // log are a subsequence of issued trims (unmapped trims are
        // unlogged).
        let logged_writes: Vec<u64> = history
            .iter()
            .filter(|r| r.op == LogOp::Write)
            .map(|r| r.lpa)
            .collect();
        let issued_writes: Vec<u64> = issued
            .iter()
            .filter(|(o, _)| *o == LogOp::Write)
            .map(|(_, l)| *l)
            .collect();
        prop_assert_eq!(logged_writes, issued_writes);

        let mut issued_trims = issued
            .iter()
            .filter(|(o, _)| *o == LogOp::Trim)
            .map(|(_, l)| *l)
            .peekable();
        for rec in history.iter().filter(|r| r.op == LogOp::Trim) {
            // Advance through issued trims to find this one.
            let mut found = false;
            for l in issued_trims.by_ref() {
                if l == rec.lpa {
                    found = true;
                    break;
                }
            }
            prop_assert!(found, "logged trim of lpa {} never issued", rec.lpa);
        }

        // Sequence numbers are gap-free and ordered.
        for (i, rec) in history.iter().enumerate() {
            prop_assert_eq!(rec.seq, i as u64);
        }
    }
}
