//! Flash array geometry and physical page addressing.

use std::fmt;

/// Shape of the simulated NAND array: channels × chips × planes × blocks ×
/// pages, with a fixed page size in bytes.
///
/// The defaults mirror the Cosmos+ OpenSSD class of device scaled down for
/// simulation; experiments pick geometries sized to their workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Independent channels (parallel buses to flash).
    pub channels: u32,
    /// Chips (targets) per channel.
    pub chips_per_channel: u32,
    /// Planes per chip.
    pub planes_per_chip: u32,
    /// Erase blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Page size in bytes (data area; OOB is modelled separately).
    pub page_size: usize,
}

impl FlashGeometry {
    /// A tiny geometry for unit tests: 2×2×1×8×8 pages of 4 KiB = 4 MiB.
    pub fn small_test() -> Self {
        FlashGeometry {
            channels: 2,
            chips_per_channel: 2,
            planes_per_chip: 1,
            blocks_per_plane: 8,
            pages_per_block: 8,
            page_size: 4096,
        }
    }

    /// A mid-size geometry for integration tests and benches:
    /// 4×2×2×64×64 × 4 KiB = 256 MiB.
    fn bench_default() -> Self {
        FlashGeometry {
            channels: 4,
            chips_per_channel: 2,
            planes_per_chip: 2,
            blocks_per_plane: 64,
            pages_per_block: 64,
            page_size: 4096,
        }
    }

    /// Builds a geometry with roughly `capacity_bytes` total capacity by
    /// scaling the number of blocks per plane of the mid-size geometry
    /// (4×2×2×64×64 × 4 KiB = 256 MiB).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is too small for even one block per plane.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        let base = FlashGeometry::bench_default();
        let plane_count = u64::from(base.channels)
            * u64::from(base.chips_per_channel)
            * u64::from(base.planes_per_chip);
        let block_bytes = u64::from(base.pages_per_block) * base.page_size as u64;
        let blocks_per_plane = capacity_bytes / (plane_count * block_bytes);
        assert!(
            blocks_per_plane >= 1,
            "capacity {capacity_bytes} too small for geometry"
        );
        FlashGeometry {
            blocks_per_plane: blocks_per_plane as u32,
            ..base
        }
    }

    /// Total number of planes across the array.
    pub fn total_planes(&self) -> u32 {
        self.channels * self.chips_per_channel * self.planes_per_chip
    }

    /// Total number of erase blocks across the array.
    pub fn total_blocks(&self) -> u32 {
        self.total_planes() * self.blocks_per_plane
    }

    /// Total number of pages across the array.
    pub fn total_pages(&self) -> u64 {
        u64::from(self.total_blocks()) * u64::from(self.pages_per_block)
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Bytes in one erase block.
    pub fn block_bytes(&self) -> u64 {
        u64::from(self.pages_per_block) * self.page_size as u64
    }

    /// Converts a global block index (`0..total_blocks`) into the [`Ppa`] of
    /// that block's first page.
    ///
    /// # Panics
    ///
    /// Panics if `block_index >= total_blocks()`.
    pub fn block_to_ppa(&self, block_index: u32) -> Ppa {
        assert!(
            block_index < self.total_blocks(),
            "block index out of range"
        );
        let blocks_per_chip = self.planes_per_chip * self.blocks_per_plane;
        let blocks_per_channel = self.chips_per_channel * blocks_per_chip;
        let channel = block_index / blocks_per_channel;
        let rem = block_index % blocks_per_channel;
        let chip = rem / blocks_per_chip;
        let rem = rem % blocks_per_chip;
        let plane = rem / self.blocks_per_plane;
        let block = rem % self.blocks_per_plane;
        Ppa::new(channel, chip, plane, block, 0)
    }

    /// Converts a [`Ppa`] to its global block index.
    pub fn block_index(&self, ppa: Ppa) -> u32 {
        let blocks_per_chip = self.planes_per_chip * self.blocks_per_plane;
        let blocks_per_channel = self.chips_per_channel * blocks_per_chip;
        ppa.channel * blocks_per_channel
            + ppa.chip * blocks_per_chip
            + ppa.plane * self.blocks_per_plane
            + ppa.block
    }

    /// Converts a [`Ppa`] to a global page index (`0..total_pages`).
    pub fn page_index(&self, ppa: Ppa) -> u64 {
        u64::from(self.block_index(ppa)) * u64::from(self.pages_per_block) + u64::from(ppa.page)
    }

    /// Converts a global page index back to a [`Ppa`].
    ///
    /// # Panics
    ///
    /// Panics if `page_index >= total_pages()`.
    pub fn page_from_index(&self, page_index: u64) -> Ppa {
        assert!(page_index < self.total_pages(), "page index out of range");
        let block = (page_index / u64::from(self.pages_per_block)) as u32;
        let page = (page_index % u64::from(self.pages_per_block)) as u32;
        let mut ppa = self.block_to_ppa(block);
        ppa.page = page;
        ppa
    }

    /// Validates that `ppa` addresses a page inside this geometry.
    pub fn contains(&self, ppa: Ppa) -> bool {
        ppa.channel < self.channels
            && ppa.chip < self.chips_per_channel
            && ppa.plane < self.planes_per_chip
            && ppa.block < self.blocks_per_plane
            && ppa.page < self.pages_per_block
    }
}

/// A physical page address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppa {
    /// Channel index.
    pub channel: u32,
    /// Chip index within the channel.
    pub chip: u32,
    /// Plane index within the chip.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl Ppa {
    /// Creates a physical page address.
    pub fn new(channel: u32, chip: u32, plane: u32, block: u32, page: u32) -> Self {
        Ppa {
            channel,
            chip,
            plane,
            block,
            page,
        }
    }

    /// The same block but page `page`.
    pub fn with_page(self, page: u32) -> Self {
        Ppa { page, ..self }
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}.c{}.pl{}.b{}.p{}",
            self.channel, self.chip, self.plane, self.block, self.page
        )
    }
}

impl fmt::Debug for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_consistent() {
        let g = FlashGeometry::small_test();
        assert_eq!(g.total_planes(), 4);
        assert_eq!(g.total_blocks(), 32);
        assert_eq!(g.total_pages(), 256);
        assert_eq!(g.capacity_bytes(), 256 * 4096);
        assert_eq!(g.block_bytes(), 8 * 4096);
    }

    #[test]
    fn block_index_round_trip() {
        let g = FlashGeometry::small_test();
        for idx in 0..g.total_blocks() {
            let ppa = g.block_to_ppa(idx);
            assert!(g.contains(ppa), "{ppa}");
            assert_eq!(g.block_index(ppa), idx);
            assert_eq!(ppa.page, 0);
        }
    }

    #[test]
    fn page_index_round_trip() {
        let g = FlashGeometry::small_test();
        for idx in (0..g.total_pages()).step_by(7) {
            let ppa = g.page_from_index(idx);
            assert_eq!(g.page_index(ppa), idx);
        }
    }

    #[test]
    fn with_capacity_hits_target() {
        let g = FlashGeometry::with_capacity(64 * 1024 * 1024);
        assert_eq!(g.capacity_bytes(), 64 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "block index out of range")]
    fn block_to_ppa_rejects_out_of_range() {
        let g = FlashGeometry::small_test();
        g.block_to_ppa(g.total_blocks());
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let g = FlashGeometry::small_test();
        assert!(!g.contains(Ppa::new(99, 0, 0, 0, 0)));
        assert!(!g.contains(Ppa::new(0, 0, 0, 0, 99)));
    }

    #[test]
    fn ppa_display() {
        let ppa = Ppa::new(1, 2, 0, 3, 4);
        assert_eq!(ppa.to_string(), "ch1.c2.pl0.b3.p4");
    }

    #[test]
    fn with_page_changes_only_page() {
        let ppa = Ppa::new(1, 2, 0, 3, 4).with_page(7);
        assert_eq!(ppa, Ppa::new(1, 2, 0, 3, 7));
    }
}
