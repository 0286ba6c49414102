//! Free-block pool and active-block write allocation.
//!
//! Host writes stripe across the device's internal parallel units: the
//! allocator keeps one active block per **lane** — a (channel, chip, plane)
//! tuple — and rotates consecutive writes channel-first across the lanes,
//! so a burst of writes lands on independent pipelines (the allocation-side
//! half of the device-internal parallelism the timing model exposes).
//! GC migrations use separate per-channel active blocks and are placed on
//! whichever channel is idlest when the pass runs, keeping copy-back
//! traffic off the pipelines the host is using. Within a lane or channel,
//! the freshest allocation is the erased block with the fewest P/E cycles
//! (dynamic wear leveling).

use rssd_flash::{FlashGeometry, NandArray, Ppa};
use std::collections::BTreeSet;

/// Allocation streams: host writes and GC migrations use separate active
/// blocks so hot host data and cold migrated data don't mix (reduces future
/// write amplification).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stream {
    /// Host-issued writes.
    Host,
    /// GC migration writes.
    Gc,
}

/// Free-block pool plus per-lane (host) and per-channel (GC) active blocks.
#[derive(Clone, Debug)]
pub struct BlockAllocator {
    geometry: FlashGeometry,
    /// Erased blocks ready for allocation, keyed by (pe_cycles, block) so
    /// iteration order implements dynamic wear leveling.
    free: BTreeSet<(u32, u32)>,
    /// Active (partially programmed) host block per lane, with its next
    /// page. A block is dropped from its lane the moment it fills.
    host_lanes: Vec<Option<(u32, u32)>>,
    /// Rotating lane cursor: consecutive host writes stripe channel-first.
    host_cursor: usize,
    /// Active GC block per channel.
    gc_active: Vec<Option<(u32, u32)>>,
}

impl BlockAllocator {
    /// Creates an allocator owning every block of `geometry` as free.
    pub fn new(geometry: FlashGeometry) -> Self {
        let free = (0..geometry.total_blocks()).map(|b| (0u32, b)).collect();
        BlockAllocator {
            free,
            host_lanes: vec![None; geometry.total_planes() as usize],
            host_cursor: 0,
            gc_active: vec![None; geometry.channels as usize],
            geometry,
        }
    }

    /// Number of erased blocks in the pool (excluding active blocks).
    pub fn free_blocks(&self) -> u32 {
        self.free.len() as u32
    }

    /// The lane (plane) index of `block`, in cursor order: channels rotate
    /// fastest so consecutive lane indices alternate channels.
    fn lane_of_block(&self, block: u32) -> usize {
        let ppa = self.geometry.block_to_ppa(block);
        self.lane_index(ppa)
    }

    /// Cursor-ordered lane index: `plane-major within chip, chip within
    /// channel` is inverted so that stepping the cursor by one moves to the
    /// next *channel* first.
    fn lane_index(&self, ppa: Ppa) -> usize {
        let g = &self.geometry;
        ((ppa.chip * g.planes_per_chip + ppa.plane) * g.channels + ppa.channel) as usize
    }

    /// Returns the next page to program for `stream`, opening a new active
    /// block from the pool if necessary. Returns `None` when the pool is
    /// empty and no active block has room.
    ///
    /// Host allocations stripe across the lanes; GC allocations go to the
    /// channel `nand` reports as idlest (falling back across channels).
    pub fn next_page(&mut self, stream: Stream, nand: &NandArray) -> Option<Ppa> {
        match stream {
            Stream::Host => self.next_host_page(nand, true),
            Stream::Gc => self.next_gc_page(nand),
        }
    }

    /// Host allocation with an explicit open policy: when `allow_open` is
    /// false only lanes with an already-open block are used (the FTL gates
    /// opening on the GC reserve).
    pub fn next_host_page(&mut self, nand: &NandArray, allow_open: bool) -> Option<Ppa> {
        let lanes = self.host_lanes.len();
        for step in 0..lanes {
            let li = (self.host_cursor + step) % lanes;
            if let Some(ppa) = self.lane_page(li) {
                self.host_cursor = (li + 1) % lanes;
                return Some(ppa);
            }
            if allow_open {
                if let Some(block) = self.pick_block_for_lane(li, nand) {
                    self.free.retain(|&(_, b)| b != block);
                    let ppa = self.geometry.block_to_ppa(block);
                    self.host_lanes[li] = self.advanced_entry(block, 1);
                    self.host_cursor = (li + 1) % lanes;
                    return Some(ppa);
                }
            }
        }
        None
    }

    /// Takes the next page of lane `li`'s active block, dropping the block
    /// from the lane once it fills.
    fn lane_page(&mut self, li: usize) -> Option<Ppa> {
        let (block, next_page) = self.host_lanes[li]?;
        let ppa = self.geometry.block_to_ppa(block).with_page(next_page);
        self.host_lanes[li] = self.advanced_entry(block, next_page + 1);
        Some(ppa)
    }

    /// The lane/channel entry after programming up to `next_page`: `None`
    /// once the block is full (full blocks need no tracking and become GC
    /// candidates immediately).
    fn advanced_entry(&self, block: u32, next_page: u32) -> Option<(u32, u32)> {
        (next_page < self.geometry.pages_per_block).then_some((block, next_page))
    }

    /// GC allocation: prefer the idlest channel, falling back round-robin
    /// across the rest, then to any free block anywhere.
    fn next_gc_page(&mut self, nand: &NandArray) -> Option<Ppa> {
        let channels = self.geometry.channels;
        let start = nand.least_busy_channel();
        for step in 0..channels {
            let ch = (start + step) % channels;
            let slot = ch as usize;
            if let Some((block, next_page)) = self.gc_active[slot] {
                let ppa = self.geometry.block_to_ppa(block).with_page(next_page);
                self.gc_active[slot] = self.advanced_entry(block, next_page + 1);
                return Some(ppa);
            }
            if let Some(block) = self.pick_block_in_channel(ch) {
                self.free.retain(|&(_, b)| b != block);
                let ppa = self.geometry.block_to_ppa(block);
                self.gc_active[slot] = self.advanced_entry(block, 1);
                return Some(ppa);
            }
        }
        None
    }

    /// Least-worn free block belonging to lane `li`.
    fn pick_block_for_lane(&self, li: usize, nand: &NandArray) -> Option<u32> {
        let candidate = self
            .free
            .iter()
            .map(|&(_, b)| b)
            .find(|&b| self.lane_of_block(b) == li);
        // Sanity check the block really is erased in the NAND.
        debug_assert!(candidate.map_or(true, |b| {
            nand.block_state(self.geometry.block_to_ppa(b))
                .is_ok_and(|s| s == rssd_flash::BlockState::Erased)
        }));
        candidate
    }

    /// Least-worn free block on `channel`.
    fn pick_block_in_channel(&self, channel: u32) -> Option<u32> {
        self.free
            .iter()
            .map(|&(_, b)| b)
            .find(|&b| self.geometry.block_to_ppa(b).channel == channel)
    }

    /// Returns an erased block (after GC) to the pool with its wear count.
    pub fn release_block(&mut self, block_index: u32, pe_cycles: u32) {
        self.free.insert((pe_cycles, block_index));
    }

    /// Removes `block_index` from the pool (e.g. it went bad).
    pub fn retire_block(&mut self, block_index: u32) {
        self.free.retain(|&(_, b)| b != block_index);
    }

    /// Blocks currently held open for writing (up to one per host lane plus
    /// one per GC channel).
    pub fn active_blocks(&self) -> Vec<u32> {
        self.host_lanes
            .iter()
            .chain(self.gc_active.iter())
            .filter_map(|slot| slot.map(|(b, _)| b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_flash::{NandTiming, SimClock};

    fn setup() -> (BlockAllocator, NandArray) {
        let g = FlashGeometry::small_test();
        let nand = NandArray::with_clock(g, NandTiming::instant(), SimClock::new());
        (BlockAllocator::new(g), nand)
    }

    #[test]
    fn consecutive_host_writes_stripe_across_channels() {
        let (mut alloc, nand) = setup();
        let a = alloc.next_page(Stream::Host, &nand).unwrap();
        let b = alloc.next_page(Stream::Host, &nand).unwrap();
        assert_ne!(a.channel, b.channel, "stripe channel-first: {a} vs {b}");
    }

    #[test]
    fn lane_round_trip_returns_to_the_same_block() {
        let (mut alloc, nand) = setup();
        let g = FlashGeometry::small_test();
        let lanes = g.total_planes() as usize;
        let first = alloc.next_page(Stream::Host, &nand).unwrap();
        for _ in 0..lanes - 1 {
            alloc.next_page(Stream::Host, &nand).unwrap();
        }
        // One full rotation later the cursor is back on the first lane and
        // continues its open block sequentially.
        let again = alloc.next_page(Stream::Host, &nand).unwrap();
        assert_eq!(first.with_page(0), again.with_page(0), "same block");
        assert_eq!(first.page + 1, again.page);
    }

    #[test]
    fn streams_use_separate_blocks() {
        let (mut alloc, nand) = setup();
        let host = alloc.next_page(Stream::Host, &nand).unwrap();
        let gc = alloc.next_page(Stream::Gc, &nand).unwrap();
        assert_ne!(host.with_page(0), gc.with_page(0));
    }

    #[test]
    fn pool_exhausts_to_none() {
        let (mut alloc, nand) = setup();
        let total = FlashGeometry::small_test().total_pages();
        for _ in 0..total {
            assert!(alloc.next_page(Stream::Host, &nand).is_some());
        }
        assert_eq!(alloc.next_page(Stream::Host, &nand), None);
        assert_eq!(alloc.free_blocks(), 0);
    }

    #[test]
    fn closed_open_policy_uses_only_open_blocks() {
        let (mut alloc, nand) = setup();
        // Nothing open yet: with opening disallowed there is nothing to
        // hand out even though the pool is full.
        assert_eq!(alloc.next_host_page(&nand, false), None);
        let a = alloc.next_host_page(&nand, true).unwrap();
        // The opened lane still has room, so the closed policy can use it
        // (the cursor rotates back around to it).
        let b = alloc.next_host_page(&nand, false).unwrap();
        assert_eq!(a.with_page(0), b.with_page(0));
        assert_eq!(b.page, 1);
    }

    #[test]
    fn release_returns_block_to_pool() {
        let (mut alloc, nand) = setup();
        let total = FlashGeometry::small_test().total_pages();
        for _ in 0..total {
            alloc.next_page(Stream::Host, &nand).unwrap();
        }
        alloc.release_block(3, 1);
        let ppa = alloc.next_page(Stream::Gc, &nand).unwrap();
        assert_eq!(FlashGeometry::small_test().block_index(ppa), 3);
    }

    #[test]
    fn wear_leveling_prefers_least_worn_in_lane() {
        let g = FlashGeometry::small_test();
        let nand = NandArray::with_clock(g, NandTiming::instant(), SimClock::new());
        let mut alloc = BlockAllocator::new(g);
        // Drain the pool, then return two blocks of the same lane (both in
        // channel 0, chip 0, plane 0: blocks 0..8) with different wear.
        while alloc.next_page(Stream::Host, &nand).is_some() {}
        alloc.release_block(5, 10);
        alloc.release_block(3, 1);
        let ppa = alloc.next_page(Stream::Host, &nand).unwrap();
        assert_eq!(g.block_index(ppa), 3, "least-worn block first");
    }

    #[test]
    fn full_blocks_leave_their_lane() {
        let (mut alloc, nand) = setup();
        let g = FlashGeometry::small_test();
        let lanes = g.total_planes();
        // Fill every lane's first block completely.
        let mut first_blocks = Vec::new();
        for i in 0..lanes * g.pages_per_block {
            let ppa = alloc.next_page(Stream::Host, &nand).unwrap();
            if i < lanes {
                first_blocks.push(g.block_index(ppa));
            }
        }
        for b in first_blocks {
            assert!(
                !alloc.active_blocks().contains(&b),
                "full block {b} must leave its lane (GC-eligible)"
            );
        }
    }

    #[test]
    fn retire_removes_block() {
        let (mut alloc, nand) = setup();
        let before = alloc.free_blocks();
        let active = alloc.active_blocks();
        let victim = (0..before).find(|b| !active.contains(b)).unwrap();
        alloc.retire_block(victim);
        assert_eq!(alloc.free_blocks(), before - 1);
        let _ = nand;
    }

    #[test]
    fn gc_prefers_the_idlest_channel() {
        let g = FlashGeometry::small_test();
        let clock = SimClock::new();
        let mut nand = NandArray::with_clock(g, NandTiming::mlc_default(), clock);
        let mut alloc = BlockAllocator::new(g);
        // Keep channel 0 busy: program both planes' worth of chips there.
        for chip in 0..g.chips_per_channel {
            let ppa = Ppa::new(0, chip, 0, 0, 0);
            let _ = nand.program_async(ppa, vec![0; g.page_size], Default::default());
        }
        assert_eq!(nand.least_busy_channel(), 1);
        let gc = alloc.next_page(Stream::Gc, &nand).unwrap();
        assert_eq!(gc.channel, 1, "copy-backs go to the idle channel");
    }
}
