//! The one local-retention device: the *LocalSSD* and
//! *LocalSSD+Compression* baselines (Figure 2) and the FlashGuard-style
//! selective defense (Table 1) are three [`RetentionMode`]s of
//! [`RetentionSsd`].
//!
//! Every mode pays for what it retains from the device's own spare capacity,
//! so retention is bounded by it: under sustained writes (or a deliberate GC
//! attack) the oldest retained data must be evicted, after which it is
//! unrecoverable. Compression stretches the budget by roughly the achievable
//! ratio but does not change the asymptote; retaining selectively (see
//! [`crate::flashguard`]) protects the budget from floods but lets the
//! timing and trimming attacks walk past the filter. The modes differ in
//! exactly three places below: **what is admitted**, **how it is stored**
//! and **when it is let go**.

use crate::device::BlockDevice;
use crate::exec::{execute_batch, BlockPolicy};
use crate::flashguard;
use crate::nvme::{CommandOutcome, CommandResult, IoCommand};
use crate::queue::LatencyStats;
use rssd_flash::{FlashGeometry, NandArray, NandTiming, Ppa, SimClock};
use rssd_ftl::{Ftl, FtlConfig, FtlStats, InvalidateCause};
use std::collections::{BTreeMap, HashMap};

/// Which stale pages are retained locally, and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetentionMode {
    /// Every stale page stays pinned in place (LocalSSD): each costs a full
    /// physical page of spare capacity.
    RetainAll,
    /// Every stale page is repacked into a compressed retention store and
    /// the original released to GC (LocalSSD+Compression): each costs its
    /// compressed size.
    Compressed,
    /// Only an overwrite of a recently read page is retained, pinned in
    /// place and for a bounded time (FlashGuard; see [`crate::flashguard`]).
    ReadThenOverwrite,
}

/// Aggregate retention behaviour, reported to the Figure 2 bench.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[must_use]
pub struct RetentionReport {
    /// Stale pages currently retained.
    pub retained_pages: u64,
    /// Pages let go (lost): evicted because the budget filled or, in the
    /// selective mode, aged out.
    pub evicted_pages: u64,
    /// Sum of retention durations of evicted pages (ns), for the average.
    pub evicted_retention_ns_sum: u128,
    /// Bytes of retention budget currently used.
    pub used_bytes: u64,
    /// Total retention budget in bytes.
    pub budget_bytes: u64,
}

impl RetentionReport {
    /// Mean time evicted pages were retained before being dropped — the
    /// measured "data retention time". `None` until something is evicted.
    pub fn mean_retention_ns(&self) -> Option<f64> {
        if self.evicted_pages == 0 {
            None
        } else {
            Some(self.evicted_retention_ns_sum as f64 / self.evicted_pages as f64)
        }
    }
}

#[derive(Debug)]
enum Storage {
    InPlace(Ppa),
    Compressed(Vec<u8>),
}

#[derive(Debug)]
struct Retained {
    lpa: u64,
    invalidated_at_ns: u64,
    cost_bytes: u64,
    storage: Storage,
}

/// An SSD that retains stale pages locally — all of them or only suspected
/// encryptions, per its [`RetentionMode`] — evicting the oldest once its
/// spare-capacity budget fills.
#[derive(Debug)]
pub struct RetentionSsd {
    ftl: Ftl,
    mode: RetentionMode,
    /// Retained pages in invalidation order (key = admission id).
    retained: BTreeMap<u64, Retained>,
    /// Per-LPA admission ids, newest last (recovery index).
    by_lpa: HashMap<u64, Vec<u64>>,
    next_id: u64,
    /// Last host read time per LPA — the selective mode's
    /// read-before-overwrite correlator; empty in the other modes.
    last_read_ns: HashMap<u64, u64>,
    report: RetentionReport,
    latency: LatencyStats,
}

impl RetentionSsd {
    /// Fraction of spare (over-provisioned) capacity usable for retention;
    /// the remainder is kept free so GC can still operate.
    pub const BUDGET_FRACTION: f64 = 0.70;

    /// Builds a retention SSD. The retention budget is
    /// [`Self::BUDGET_FRACTION`] of the spare capacity.
    pub fn new(
        geometry: FlashGeometry,
        timing: NandTiming,
        clock: SimClock,
        mode: RetentionMode,
    ) -> Self {
        let nand = NandArray::with_clock(geometry, timing, clock);
        let ftl = Ftl::new(nand, FtlConfig::default());
        let spare = geometry.capacity_bytes() - ftl.logical_pages() * geometry.page_size as u64;
        let budget_bytes = (spare as f64 * Self::BUDGET_FRACTION) as u64;
        RetentionSsd {
            ftl,
            mode,
            retained: BTreeMap::new(),
            by_lpa: HashMap::new(),
            next_id: 0,
            last_read_ns: HashMap::new(),
            report: RetentionReport {
                budget_bytes,
                ..RetentionReport::default()
            },
            latency: LatencyStats::new(),
        }
    }

    /// Current retention behaviour counters.
    pub fn report(&self) -> RetentionReport {
        self.report
    }

    /// Per-request latency distribution.
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// FTL statistics.
    pub fn ftl_stats(&self) -> &FtlStats {
        self.ftl.stats()
    }

    /// Raw NAND statistics (per-channel utilization in the depth sweep).
    pub fn nand_stats(&self) -> &rssd_flash::NandStats {
        self.ftl.nand_stats()
    }

    /// **What is admitted**: every overwritten or trimmed page, or only the
    /// overwrites the FlashGuard predicate suspects.
    fn absorb_stale_events(&mut self) {
        let now = self.ftl.clock().now_ns();
        for event in self.ftl.drain_stale_events() {
            let admitted = match self.mode {
                // Migrated data survives at its new location; nothing lost.
                RetentionMode::RetainAll | RetentionMode::Compressed => {
                    event.cause != InvalidateCause::GcMigration
                }
                RetentionMode::ReadThenOverwrite => {
                    flashguard::suspects(event.cause, self.last_read_ns.get(&event.lpa), now)
                }
            };
            if admitted {
                self.retain(event.lpa, event.ppa, event.invalidated_at_ns);
            }
        }
        self.enforce_budget();
    }

    /// **How it is stored**: pinned in place, or repacked compressed.
    fn retain(&mut self, lpa: u64, ppa: Ppa, invalidated_at_ns: u64) {
        let (storage, cost_bytes) = match self.mode {
            RetentionMode::RetainAll | RetentionMode::ReadThenOverwrite => {
                self.ftl.pin_page(ppa);
                (Storage::InPlace(ppa), self.page_size() as u64)
            }
            RetentionMode::Compressed => {
                // Repack: read the stale page, keep only the compressed blob,
                // and leave the original unpinned for GC to reclaim. The
                // device waits for the read before it compresses.
                let (data, _, ticket) = self
                    .ftl
                    .read_physical(ppa)
                    .expect("stale page still readable at invalidation time");
                self.ftl.clock().advance_to(ticket.done_ns);
                let frame = rssd_compress::compress_adaptive(&data);
                let cost = frame.len() as u64;
                (Storage::Compressed(frame), cost)
            }
        };
        let id = self.next_id;
        self.next_id += 1;
        self.retained.insert(
            id,
            Retained {
                lpa,
                invalidated_at_ns,
                cost_bytes,
                storage,
            },
        );
        self.by_lpa.entry(lpa).or_default().push(id);
        self.report.retained_pages += 1;
        self.report.used_bytes += cost_bytes;
    }

    /// **When it is let go**: the selective mode first ages its suspects
    /// out; then every mode evicts oldest-first down to the budget.
    fn enforce_budget(&mut self) {
        if self.mode == RetentionMode::ReadThenOverwrite {
            let now = self.ftl.clock().now_ns();
            while self.retained.first_key_value().is_some_and(|(_, r)| {
                now.saturating_sub(r.invalidated_at_ns) > flashguard::MAX_RETENTION_NS
            }) {
                self.evict_oldest(now);
            }
        }
        self.evict_down_to(self.report.budget_bytes);
    }

    fn evict_down_to(&mut self, target_bytes: u64) {
        let now = self.ftl.clock().now_ns();
        while self.report.used_bytes > target_bytes && self.evict_oldest(now) {}
    }

    /// Lets the oldest retained page go; `false` when nothing is retained.
    fn evict_oldest(&mut self, now: u64) -> bool {
        let Some((id, entry)) = self.retained.pop_first() else {
            return false;
        };
        if let Storage::InPlace(ppa) = entry.storage {
            self.ftl.unpin_page(ppa);
        }
        if let Some(ids) = self.by_lpa.get_mut(&entry.lpa) {
            ids.retain(|&i| i != id);
        }
        self.report.used_bytes -= entry.cost_bytes;
        self.report.retained_pages -= 1;
        self.report.evicted_pages += 1;
        self.report.evicted_retention_ns_sum +=
            u128::from(now.saturating_sub(entry.invalidated_at_ns));
        true
    }
}

impl BlockDevice for RetentionSsd {
    fn model_name(&self) -> &str {
        match self.mode {
            RetentionMode::RetainAll => "LocalSSD",
            RetentionMode::Compressed => "LocalSSD+Compression",
            RetentionMode::ReadThenOverwrite => "FlashGuard",
        }
    }

    fn page_size(&self) -> usize {
        self.ftl.geometry().page_size
    }

    fn logical_pages(&self) -> u64 {
        self.ftl.logical_pages()
    }

    fn clock(&self) -> &SimClock {
        self.ftl.clock()
    }

    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
        execute_batch(self, commands)
    }

    fn recover_page(&mut self, lpa: u64) -> Option<Vec<u8>> {
        let ids = self.by_lpa.get(&lpa)?;
        let &id = ids.last()?;
        let entry = self.retained.get(&id)?;
        match &entry.storage {
            Storage::InPlace(ppa) => {
                let (data, _, ticket) = self.ftl.read_physical(*ppa).ok()?;
                self.ftl.clock().advance_to(ticket.done_ns);
                Some(data)
            }
            Storage::Compressed(frame) => rssd_compress::decompress(frame).ok(),
        }
    }
}

impl BlockPolicy for RetentionSsd {
    type Note = ();

    fn parts(&mut self) -> (&mut Ftl, &mut LatencyStats) {
        (&mut self.ftl, &mut self.latency)
    }

    /// Capacity exhausted while retention holds pins: evict the oldest
    /// retained pages (a block's worth) so GC can breathe. This is
    /// precisely the lever the GC attack pulls — forced early eviction is
    /// data loss.
    fn relieve(&mut self, attempt: u32) -> bool {
        if attempt >= 8 {
            return false;
        }
        let relief = self.ftl.geometry().block_bytes();
        self.evict_down_to(self.report.used_bytes.saturating_sub(relief));
        true
    }

    fn committed(&mut self, lpa: u64, outcome: &CommandOutcome, (): ()) {
        match outcome {
            CommandOutcome::Read(_) => {
                if self.mode == RetentionMode::ReadThenOverwrite {
                    self.last_read_ns.insert(lpa, self.ftl.clock().now_ns());
                }
            }
            _ => self.absorb_stale_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceError;

    fn ssd(mode: RetentionMode) -> RetentionSsd {
        RetentionSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            mode,
        )
    }

    #[test]
    fn overwrite_is_recoverable() {
        for mode in [RetentionMode::RetainAll, RetentionMode::Compressed] {
            let mut d = ssd(mode);
            d.write_page(3, vec![1; 4096]).unwrap();
            d.write_page(3, vec![2; 4096]).unwrap();
            assert_eq!(d.read_page(3).unwrap(), vec![2; 4096]);
            assert_eq!(d.recover_page(3).unwrap(), vec![1; 4096], "{mode:?}");
        }
    }

    #[test]
    fn trim_is_recoverable() {
        for mode in [RetentionMode::RetainAll, RetentionMode::Compressed] {
            let mut d = ssd(mode);
            d.write_page(3, vec![7; 4096]).unwrap();
            d.trim_page(3).unwrap();
            assert_eq!(d.read_page(3).unwrap(), vec![0; 4096]);
            assert_eq!(d.recover_page(3).unwrap(), vec![7; 4096], "{mode:?}");
        }
    }

    #[test]
    fn recovery_returns_newest_retained_version() {
        let mut d = ssd(RetentionMode::RetainAll);
        d.write_page(3, vec![1; 4096]).unwrap();
        d.write_page(3, vec![2; 4096]).unwrap();
        d.write_page(3, vec![3; 4096]).unwrap();
        // Versions 1 and 2 are retained; newest retained is 2.
        assert_eq!(d.recover_page(3).unwrap(), vec![2; 4096]);
    }

    #[test]
    fn budget_eviction_loses_oldest() {
        let mut d = ssd(RetentionMode::RetainAll);
        // The budget holds `pages` whole pages, and no more.
        let pages = d.report().budget_bytes / 4096;
        assert!(pages >= 2, "budget of {pages} pages");
        // LPA 0 leaves two stale versions (v1, then v2), every other LPA
        // below `pages` one: `pages` retained, the budget full.
        d.write_page(0, vec![1; 4096]).unwrap();
        d.write_page(0, vec![2; 4096]).unwrap(); // retains v1
        for lpa in 1..pages - 1 {
            d.write_page(lpa, vec![3; 4096]).unwrap();
            d.write_page(lpa, vec![4; 4096]).unwrap();
        }
        d.write_page(0, vec![5; 4096]).unwrap(); // retains v2
        assert_eq!(d.report().retained_pages, pages);
        assert_eq!(d.report().evicted_pages, 0);
        d.write_page(pages - 1, vec![6; 4096]).unwrap();
        d.write_page(pages - 1, vec![7; 4096]).unwrap(); // one over: evicts v1
        let report = d.report();
        assert_eq!(report.evicted_pages, 1);
        assert_eq!(report.retained_pages, pages);
        // LPA 0's oldest version is gone; newest retained is v2.
        assert_eq!(d.recover_page(0).unwrap(), vec![2; 4096]);
        assert!(report.mean_retention_ns().is_some());
    }

    #[test]
    fn compressed_mode_stretches_budget() {
        // Highly compressible pages: compressed mode should retain many more
        // than budget/page_size. Enough stale versions to fill the
        // retain-all budget more than four times over.
        let mut all = ssd(RetentionMode::RetainAll);
        let mut comp = ssd(RetentionMode::Compressed);
        let pages = all.report().budget_bytes / 4096;
        let rounds = (5 * pages / 4 + 2) as u8;
        for round in 0..rounds {
            for lpa in 0..4u64 {
                all.write_page(lpa, vec![round; 4096]).unwrap();
                comp.write_page(lpa, vec![round; 4096]).unwrap();
            }
        }
        assert!(
            comp.report().retained_pages > all.report().retained_pages * 4,
            "compressed retained {} vs retain-all {}",
            comp.report().retained_pages,
            all.report().retained_pages
        );
    }

    #[test]
    fn unmapped_recovery_is_none() {
        let mut d = ssd(RetentionMode::RetainAll);
        assert_eq!(d.recover_page(0), None);
        d.write_page(0, vec![1; 4096]).unwrap();
        // Only one version exists; nothing stale retained yet.
        assert_eq!(d.recover_page(0), None);
    }

    #[test]
    fn sustained_churn_does_not_deadlock() {
        let mut d = ssd(RetentionMode::RetainAll);
        let logical = d.logical_pages();
        for round in 0..6u8 {
            for lpa in 0..logical {
                // Stalls are allowed under pressure, but must self-heal.
                match d.write_page(lpa, vec![round; 4096]) {
                    Ok(()) | Err(DeviceError::Stalled) => {}
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        assert!(d.report().evicted_pages > 0, "budget pressure must evict");
    }

    #[test]
    fn out_of_range_reads_leave_no_correlator_state() {
        // The host controls the address: a refused read must not cost RAM.
        let mut d = ssd(RetentionMode::ReadThenOverwrite);
        let base = d.logical_pages();
        for k in 0..10_000u64 {
            assert!(matches!(
                d.read_page(base + k),
                Err(DeviceError::OutOfRange { lpa, .. }) if lpa == base + k
            ));
        }
        assert!(d.last_read_ns.is_empty());
    }

    #[test]
    fn model_names() {
        assert_eq!(ssd(RetentionMode::RetainAll).model_name(), "LocalSSD");
        assert_eq!(
            ssd(RetentionMode::Compressed).model_name(),
            "LocalSSD+Compression"
        );
    }
}
