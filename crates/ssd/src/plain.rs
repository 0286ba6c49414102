//! The unprotected baseline SSD.

use crate::device::BlockDevice;
use crate::exec::{execute_batch, BlockPolicy};
use crate::nvme::{CommandOutcome, CommandResult, IoCommand};
use crate::queue::LatencyStats;
use rssd_flash::{FlashGeometry, NandArray, NandTiming, SimClock};
use rssd_ftl::{Ftl, FtlConfig, FtlStats};

/// A commodity SSD with no ransomware defense: stale pages are ordinary GC
/// fodder and trim physically releases data. Once GC or trim has done its
/// work, encrypted-over originals are unrecoverable.
#[derive(Debug)]
pub struct PlainSsd {
    ftl: Ftl,
    latency: LatencyStats,
}

impl PlainSsd {
    /// Builds a plain SSD over `geometry` with `timing` on a shared `clock`.
    pub fn new(geometry: FlashGeometry, timing: NandTiming, clock: SimClock) -> Self {
        let nand = NandArray::with_clock(geometry, timing, clock);
        PlainSsd {
            ftl: Ftl::new(nand, FtlConfig::default()),
            latency: LatencyStats::new(),
        }
    }

    /// Per-request latency distribution observed so far.
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// FTL statistics (write amplification, GC work, …).
    pub fn ftl_stats(&self) -> &FtlStats {
        self.ftl.stats()
    }

    /// Raw NAND statistics (erase counts for lifetime experiments).
    pub fn nand_stats(&self) -> &rssd_flash::NandStats {
        self.ftl.nand_stats()
    }
}

impl BlockDevice for PlainSsd {
    fn model_name(&self) -> &str {
        "PlainSSD"
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
}

impl BlockPolicy for PlainSsd {
    type Note = ();

    fn parts(&mut self) -> (&mut Ftl, &mut LatencyStats) {
        (&mut self.ftl, &mut self.latency)
    }

    /// Unprotected: discard stale events, nothing is pinned or retained.
    fn committed(&mut self, _lpa: u64, _outcome: &CommandOutcome, (): ()) {
        self.ftl.drain_stale_events();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> PlainSsd {
        PlainSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        )
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = ssd();
        d.write_page(0, vec![9; 4096]).unwrap();
        assert_eq!(d.read_page(0).unwrap(), vec![9; 4096]);
    }

    #[test]
    fn unmapped_reads_zeroes() {
        let mut d = ssd();
        assert_eq!(d.read_page(5).unwrap(), vec![0; 4096]);
    }

    #[test]
    fn trim_zeroes_page() {
        let mut d = ssd();
        d.write_page(5, vec![7; 4096]).unwrap();
        d.trim_page(5).unwrap();
        assert_eq!(d.read_page(5).unwrap(), vec![0; 4096]);
    }

    #[test]
    fn no_recovery_on_plain_ssd() {
        let mut d = ssd();
        d.write_page(5, vec![7; 4096]).unwrap();
        d.write_page(5, vec![8; 4096]).unwrap();
        assert_eq!(d.recover_page(5), None);
    }

    #[test]
    fn survives_capacity_churn() {
        let mut d = ssd();
        let logical = d.logical_pages();
        for round in 0..4u8 {
            for lpa in 0..logical {
                d.write_page(lpa, vec![round; 4096]).unwrap();
            }
        }
        assert_eq!(d.read_page(0).unwrap(), vec![3; 4096]);
        assert!(d.ftl_stats().gc_blocks_erased > 0);
    }

    #[test]
    fn latency_recorded_with_real_timing() {
        let mut d = PlainSsd::new(
            FlashGeometry::small_test(),
            NandTiming::mlc_default(),
            SimClock::new(),
        );
        d.write_page(0, vec![1; 4096]).unwrap();
        d.read_page(0).unwrap();
        assert_eq!(d.latency().count(), 2);
        assert!(d.latency().mean_ns() > 0.0);
    }
}
