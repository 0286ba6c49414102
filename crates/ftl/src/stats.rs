//! FTL-level statistics: write amplification, GC activity, trim counts.

/// Counters kept by the FTL, on top of the raw NAND counters.
///
/// The lifetime experiment (E4) reports [`FtlStats::write_amplification`]
/// for RSSD vs. the plain SSD: the paper's claim is that retention plus
/// offload leaves WAF essentially unchanged, because retained pages are
/// never *migrated*, only held until offload and then erased in place.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct FtlStats {
    /// Pages written on behalf of the host.
    pub host_pages_written: u64,
    /// Pages read on behalf of the host.
    pub host_pages_read: u64,
    /// Pages migrated by garbage collection.
    pub gc_pages_migrated: u64,
    /// Blocks erased by garbage collection.
    pub gc_blocks_erased: u64,
    /// GC passes executed.
    pub gc_invocations: u64,
    /// Trim commands processed (per-page granularity).
    pub pages_trimmed: u64,
    /// Host writes refused because no space could be reclaimed.
    pub write_stalls: u64,
}

impl FtlStats {
    /// Write amplification factor: `(host + gc writes) / host writes`.
    /// Returns 1.0 before any host write.
    pub fn write_amplification(&self) -> f64 {
        if self.host_pages_written == 0 {
            return 1.0;
        }
        (self.host_pages_written + self.gc_pages_migrated) as f64 / self.host_pages_written as f64
    }

    /// Folds another FTL's counters into this one — the fleet rollup.
    /// Associative and commutative, with `FtlStats::default()` as identity;
    /// [`FtlStats::write_amplification`] of the merged counters is the
    /// page-weighted fleet aggregate, not the mean of per-device WAFs.
    pub fn merge(&mut self, other: &FtlStats) {
        self.host_pages_written += other.host_pages_written;
        self.host_pages_read += other.host_pages_read;
        self.gc_pages_migrated += other.gc_pages_migrated;
        self.gc_blocks_erased += other.gc_blocks_erased;
        self.gc_invocations += other.gc_invocations;
        self.pages_trimmed += other.pages_trimmed;
        self.write_stalls += other.write_stalls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waf_is_one_without_gc() {
        let s = FtlStats {
            host_pages_written: 100,
            ..FtlStats::default()
        };
        assert!((s.write_amplification() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn waf_counts_migrations() {
        let s = FtlStats {
            host_pages_written: 100,
            gc_pages_migrated: 50,
            ..FtlStats::default()
        };
        assert!((s.write_amplification() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn waf_defined_when_empty() {
        assert_eq!(FtlStats::default().write_amplification(), 1.0);
    }

    fn sample(base: u64) -> FtlStats {
        FtlStats {
            host_pages_written: base,
            host_pages_read: base * 2,
            gc_pages_migrated: base / 2,
            gc_blocks_erased: base / 4,
            gc_invocations: base / 8,
            pages_trimmed: base / 3,
            write_stalls: base / 16,
        }
    }

    #[test]
    fn merge_identity_and_associativity() {
        let (a, b, c) = (sample(16), sample(160), sample(1_600));
        let mut with_identity = a;
        with_identity.merge(&FtlStats::default());
        assert_eq!(with_identity, a);
        let mut ab_c = a;
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn merged_waf_is_page_weighted() {
        let mut fleet = FtlStats {
            host_pages_written: 100,
            gc_pages_migrated: 0,
            ..FtlStats::default()
        };
        fleet.merge(&FtlStats {
            host_pages_written: 100,
            gc_pages_migrated: 100,
            ..FtlStats::default()
        });
        assert!((fleet.write_amplification() - 1.5).abs() < 1e-12);
    }
}
