//! Property tests for the stripe address translation and batch splitting.
//!
//! The two load-bearing invariants of the array:
//!
//! 1. LPA ↔ (shard, local LPA) is a **bijection** for arbitrary shard
//!    counts and stripe sizes — no two array pages alias one device page,
//!    no device page is unreachable.
//! 2. `submit_batch` splitting preserves **per-shard command order** and is
//!    semantically identical to the scalar loop.

use proptest::prelude::*;
use rssd_array::{RssdArray, StripeLayout};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_ssd::{BlockDevice, CommandResult, IoCommand, PlainSsd};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

fn plain_shards(n: usize) -> Vec<PlainSsd> {
    (0..n)
        .map(|_| {
            PlainSsd::new(
                FlashGeometry::small_test(),
                NandTiming::instant(),
                SimClock::new(),
            )
        })
        .collect()
}

/// Wraps a device and records, per shard, the order of page-addressed
/// commands it actually executes.
struct OrderProbe {
    inner: PlainSsd,
    log: Arc<Mutex<Vec<(usize, char, u64)>>>,
    shard: usize,
}

impl BlockDevice for OrderProbe {
    fn model_name(&self) -> &str {
        "OrderProbe"
    }
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn logical_pages(&self) -> u64 {
        self.inner.logical_pages()
    }
    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }
    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
        let mut log = self.log.lock().unwrap();
        for command in &commands {
            let (kind, lpa) = match command {
                IoCommand::Write { lpa, .. } => ('w', *lpa),
                IoCommand::Read { lpa } => ('r', *lpa),
                IoCommand::Trim { lpa } => ('t', *lpa),
                IoCommand::Flush => continue,
            };
            log.push((self.shard, kind, lpa));
        }
        drop(log);
        self.inner.submit_batch_timed(commands)
    }
}

proptest! {
    #[test]
    fn lpa_translation_is_a_bijection(
        shard_count in 1usize..9,
        stripe_pages in 1u64..17,
        shard_stripes in 1u64..33,
    ) {
        let shard_pages = stripe_pages * shard_stripes;
        let layout = StripeLayout::new(shard_count, stripe_pages, shard_pages);
        let mut seen: HashSet<(usize, u64)> = HashSet::new();
        for lpa in 0..layout.logical_pages() {
            let (shard, local) = layout.locate(lpa);
            // Into range...
            prop_assert!(shard < shard_count);
            prop_assert!(local < shard_pages);
            // ...injective...
            prop_assert!(seen.insert((shard, local)), "aliased at lpa {lpa}");
            // ...and inverted exactly.
            prop_assert_eq!(layout.array_lpa(shard, local), lpa);
        }
        // Surjective: every (shard, local) pair was hit.
        prop_assert_eq!(seen.len() as u64, shard_count as u64 * shard_pages);
    }

    #[test]
    fn batch_split_matches_scalar_loop(
        shard_count in 1usize..5,
        stripe_pages in 1u64..9,
        ops in proptest::collection::vec((0u8..3, 0u64..256, 0u8..255), 1..120),
    ) {
        let commands: Vec<IoCommand> = ops
            .iter()
            .map(|&(op, lpa, fill)| match op {
                0 => IoCommand::Write { lpa, data: vec![fill; 4096] },
                1 => IoCommand::Read { lpa },
                _ => IoCommand::Trim { lpa },
            })
            .collect();

        let mut batched = RssdArray::new(plain_shards(shard_count), stripe_pages, SimClock::new());
        let batch_results = batched.submit_batch(commands.clone());

        let mut scalar = RssdArray::new(plain_shards(shard_count), stripe_pages, SimClock::new());
        let scalar_results: Vec<CommandResult> =
            commands.into_iter().map(|c| scalar.execute(c)).collect();

        prop_assert_eq!(batch_results, scalar_results);
        // Same final contents, page by page.
        for lpa in 0..batched.logical_pages() {
            prop_assert_eq!(
                batched.read_page(lpa).unwrap(),
                scalar.read_page(lpa).unwrap(),
                "contents diverged at lpa {}", lpa
            );
        }
    }

    #[test]
    fn batch_split_preserves_per_shard_command_order(
        shard_count in 1usize..5,
        stripe_pages in 1u64..9,
        ops in proptest::collection::vec((0u8..3, 0u64..256), 1..100),
    ) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let shards: Vec<OrderProbe> = (0..shard_count)
            .map(|shard| OrderProbe {
                inner: PlainSsd::new(
                    FlashGeometry::small_test(),
                    NandTiming::instant(),
                    SimClock::new(),
                ),
                log: Arc::clone(&log),
                shard,
            })
            .collect();
        let mut array = RssdArray::new(shards, stripe_pages, SimClock::new());
        let layout = *array.layout();

        let commands: Vec<IoCommand> = ops
            .iter()
            .map(|&(op, lpa)| {
                let lpa = lpa % layout.logical_pages();
                match op {
                    0 => IoCommand::Write { lpa, data: vec![1; 4096] },
                    1 => IoCommand::Read { lpa },
                    _ => IoCommand::Trim { lpa },
                }
            })
            .collect();

        // Expected per-shard order: the original sequence, filtered.
        let mut expected: Vec<Vec<(char, u64)>> = vec![Vec::new(); shard_count];
        for c in &commands {
            let lpa = c.lpa().unwrap();
            let (shard, local) = layout.locate(lpa);
            let op = match c {
                IoCommand::Write { .. } => 'w',
                IoCommand::Read { .. } => 'r',
                _ => 't',
            };
            expected[shard].push((op, local));
        }

        for r in array.submit_batch(commands) {
            let _ = r; // errors impossible here; order is what's under test
        }
        let observed = log.lock().unwrap();
        let mut per_shard: Vec<Vec<(char, u64)>> = vec![Vec::new(); shard_count];
        for &(shard, op, local) in observed.iter() {
            per_shard[shard].push((op, local));
        }
        prop_assert_eq!(per_shard, expected);
    }
}
