//! Logical-to-physical mapping and per-block validity tracking.

use rssd_flash::{FlashGeometry, Ppa};

/// Page-level L2P table plus the per-block bookkeeping GC needs.
///
/// Tracks, for every erase block: how many pages are valid, how many are
/// stale (programmed but superseded), and which page offsets are valid.
#[derive(Clone, Debug)]
pub struct MappingTable {
    geometry: FlashGeometry,
    l2p: Vec<Option<Ppa>>,
    /// Per physical page: the LPA it maps (valid) or mapped (stale), if any.
    p2l: Vec<Option<u64>>,
    /// Per physical page: is it the current version of its LPA?
    valid: Vec<bool>,
    /// Per block: count of valid pages.
    valid_count: Vec<u32>,
    /// Per block: count of stale pages (programmed, no longer valid).
    stale_count: Vec<u32>,
}

impl MappingTable {
    /// Creates an empty mapping for `logical_pages` LPAs over `geometry`.
    pub fn new(geometry: FlashGeometry, logical_pages: u64) -> Self {
        MappingTable {
            geometry,
            l2p: vec![None; logical_pages as usize],
            p2l: vec![None; geometry.total_pages() as usize],
            valid: vec![false; geometry.total_pages() as usize],
            valid_count: vec![0; geometry.total_blocks() as usize],
            stale_count: vec![0; geometry.total_blocks() as usize],
        }
    }

    /// Number of logical pages exposed.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Current physical location of `lpa`, if mapped.
    pub fn lookup(&self, lpa: u64) -> Option<Ppa> {
        self.l2p.get(lpa as usize).copied().flatten()
    }

    /// Records that `lpa` now lives at `ppa`. Returns the previous physical
    /// location (now stale), if any.
    pub fn update(&mut self, lpa: u64, ppa: Ppa) -> Option<Ppa> {
        let old = self.l2p[lpa as usize].replace(ppa);
        let new_idx = self.geometry.page_index(ppa) as usize;
        debug_assert!(!self.valid[new_idx], "mapping onto a still-valid page");
        self.p2l[new_idx] = Some(lpa);
        self.valid[new_idx] = true;
        self.valid_count[self.geometry.block_index(ppa) as usize] += 1;
        if let Some(old_ppa) = old {
            self.mark_stale(old_ppa);
        }
        old
    }

    /// Unmaps `lpa` (trim). Returns the now-stale physical page, if any.
    pub fn unmap(&mut self, lpa: u64) -> Option<Ppa> {
        let old = self.l2p[lpa as usize].take();
        if let Some(old_ppa) = old {
            self.mark_stale(old_ppa);
        }
        old
    }

    fn mark_stale(&mut self, ppa: Ppa) {
        let idx = self.geometry.page_index(ppa) as usize;
        debug_assert!(self.valid[idx], "staling a non-valid page");
        self.valid[idx] = false;
        let block = self.geometry.block_index(ppa) as usize;
        self.valid_count[block] -= 1;
        self.stale_count[block] += 1;
    }

    /// Is the physical page at `ppa` the current version of some LPA?
    pub fn is_valid(&self, ppa: Ppa) -> bool {
        self.valid[self.geometry.page_index(ppa) as usize]
    }

    /// The LPA associated with physical page `ppa` (valid or stale), if any.
    #[cfg(test)]
    fn lpa_of(&self, ppa: Ppa) -> Option<u64> {
        self.p2l[self.geometry.page_index(ppa) as usize]
    }

    /// Valid-page count of global block `block_index`.
    pub fn block_valid_count(&self, block_index: u32) -> u32 {
        self.valid_count[block_index as usize]
    }

    /// Stale-page count of global block `block_index`.
    pub fn block_stale_count(&self, block_index: u32) -> u32 {
        self.stale_count[block_index as usize]
    }

    /// Clears all per-page records for `block_index` after an erase.
    pub fn reset_block(&mut self, block_index: u32) {
        let pages = self.geometry.pages_per_block as u64;
        let start = u64::from(block_index) * pages;
        for idx in start..start + pages {
            debug_assert!(
                !self.valid[idx as usize],
                "erasing a block holding valid data"
            );
            self.p2l[idx as usize] = None;
        }
        self.stale_count[block_index as usize] = 0;
        debug_assert_eq!(self.valid_count[block_index as usize], 0);
    }

    /// Valid page offsets (page-in-block, LPA) of `block_index`, in order.
    pub fn valid_pages_of_block(&self, block_index: u32) -> Vec<(u32, u64)> {
        let pages = self.geometry.pages_per_block;
        let start = u64::from(block_index) * u64::from(pages);
        (0..pages)
            .filter_map(|p| {
                let idx = (start + u64::from(p)) as usize;
                if self.valid[idx] {
                    Some((p, self.p2l[idx].expect("valid page has an lpa")))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Total valid pages across the device.
    pub fn total_valid(&self) -> u64 {
        self.valid_count.iter().map(|&c| u64::from(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_flash::FlashGeometry;

    fn table() -> MappingTable {
        let g = FlashGeometry::small_test();
        MappingTable::new(g, 128)
    }

    #[test]
    fn update_and_lookup() {
        let mut t = table();
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        assert_eq!(t.update(5, ppa), None);
        assert_eq!(t.lookup(5), Some(ppa));
        assert!(t.is_valid(ppa));
        assert_eq!(t.lpa_of(ppa), Some(5));
    }

    #[test]
    fn overwrite_stales_old_page() {
        let mut t = table();
        let a = Ppa::new(0, 0, 0, 0, 0);
        let b = Ppa::new(0, 0, 0, 0, 1);
        t.update(5, a);
        assert_eq!(t.update(5, b), Some(a));
        assert!(!t.is_valid(a));
        assert!(t.is_valid(b));
        let g = FlashGeometry::small_test();
        assert_eq!(t.block_valid_count(g.block_index(a)), 1);
        assert_eq!(t.block_stale_count(g.block_index(a)), 1);
    }

    #[test]
    fn unmap_stales_and_clears() {
        let mut t = table();
        let a = Ppa::new(0, 0, 0, 0, 0);
        t.update(5, a);
        assert_eq!(t.unmap(5), Some(a));
        assert_eq!(t.lookup(5), None);
        assert!(!t.is_valid(a));
        // Stale page still remembers its LPA for forensics.
        assert_eq!(t.lpa_of(a), Some(5));
    }

    #[test]
    fn unmap_unmapped_is_none() {
        let mut t = table();
        assert_eq!(t.unmap(5), None);
    }

    #[test]
    fn valid_pages_of_block_lists_in_order() {
        let mut t = table();
        t.update(10, Ppa::new(0, 0, 0, 0, 0));
        t.update(11, Ppa::new(0, 0, 0, 0, 1));
        t.update(12, Ppa::new(0, 0, 0, 0, 2));
        t.update(11, Ppa::new(0, 0, 0, 1, 0)); // stale page 1
        let valid = t.valid_pages_of_block(0);
        assert_eq!(valid, vec![(0, 10), (2, 12)]);
    }

    #[test]
    fn reset_block_clears_stale_records() {
        let mut t = table();
        let a = Ppa::new(0, 0, 0, 0, 0);
        t.update(5, a);
        t.update(5, Ppa::new(0, 0, 0, 1, 0));
        t.reset_block(0);
        assert_eq!(t.block_stale_count(0), 0);
        assert_eq!(t.lpa_of(a), None);
    }

    #[test]
    fn totals() {
        let mut t = table();
        t.update(1, Ppa::new(0, 0, 0, 0, 0));
        t.update(2, Ppa::new(0, 0, 0, 0, 1));
        t.update(1, Ppa::new(0, 0, 0, 0, 2));
        assert_eq!(t.total_valid(), 2);
    }
}
