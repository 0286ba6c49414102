//! The flash translation layer proper.

use crate::allocator::{BlockAllocator, Stream};
use crate::config::FtlConfig;
#[cfg(test)]
use crate::config::GcPolicy;
use crate::gc::{select_victim, Candidate};
use crate::mapping::MappingTable;
use crate::stats::FtlStats;
use rssd_flash::{
    BlockState, FlashGeometry, NandArray, NandError, OpTicket, PageOob, Ppa, SimClock,
};
use rssd_obs::SinkHandle;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// Marks the first page of a spill-region entry.
const SPILL_MAGIC: u64 = 0x5253_5344_5350_4C31; // "RSSDSPL1"
/// Bytes of spill-entry header preceding the payload: magic + length.
const SPILL_HEADER_BYTES: usize = 16;

/// Why a physical page became stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InvalidateCause {
    /// The host overwrote the logical page with new content.
    Overwrite,
    /// The host trimmed (deallocated) the logical page.
    Trim,
    /// GC migrated the still-valid content to a new physical page; the old
    /// copy is byte-identical to the new one, so retention policies never
    /// need to pin these (nothing is lost when the block is erased).
    GcMigration,
}

/// Emitted whenever a physical page transitions valid → stale.
///
/// This is the raw feed RSSD's hardware-assisted log consumes: it preserves
/// the logical address, the physical location of the stale data, the OOB
/// metadata (write timestamp + global sequence number) and the cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaleEvent {
    /// Logical page whose old version went stale.
    pub lpa: u64,
    /// Physical location of the stale (old) data.
    pub ppa: Ppa,
    /// OOB metadata the stale page was written with.
    pub oob: PageOob,
    /// Why it went stale.
    pub cause: InvalidateCause,
    /// Simulated time of the invalidation.
    pub invalidated_at_ns: u64,
}

/// Errors surfaced by FTL operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtlError {
    /// Logical address beyond the exported capacity.
    LpaOutOfRange {
        /// The offending logical page address.
        lpa: u64,
        /// Number of logical pages exported.
        logical_pages: u64,
    },
    /// No space could be reclaimed: every candidate block is pinned by the
    /// retention policy. The device layer must release pins (offload or
    /// evict) and retry — or, for an unprotected SSD under the GC attack,
    /// drop retained data.
    DeviceFull,
    /// Payload size does not match the page size.
    WrongPageSize {
        /// Bytes supplied.
        got: usize,
        /// Bytes required.
        expected: usize,
    },
    /// Raw NAND failure.
    Nand(NandError),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::LpaOutOfRange { lpa, logical_pages } => {
                write!(f, "lpa {lpa} out of range ({logical_pages} logical pages)")
            }
            FtlError::DeviceFull => {
                write!(f, "no reclaimable space: all candidate blocks pinned")
            }
            FtlError::WrongPageSize { got, expected } => {
                write!(f, "payload of {got} bytes, page size is {expected}")
            }
            FtlError::Nand(e) => write!(f, "nand: {e}"),
        }
    }
}

impl std::error::Error for FtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtlError::Nand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NandError> for FtlError {
    fn from(e: NandError) -> Self {
        FtlError::Nand(e)
    }
}

/// Page-level FTL with greedy/cost-benefit GC, dynamic wear leveling, trim,
/// stale-event emission and page pinning.
#[derive(Clone, Debug)]
pub struct Ftl {
    nand: NandArray,
    config: FtlConfig,
    geometry: FlashGeometry,
    mapping: MappingTable,
    allocator: BlockAllocator,
    /// Pinned physical pages by global page index.
    pinned: HashSet<u64>,
    /// Pinned-page count per block (GC eligibility).
    pinned_per_block: Vec<u32>,
    /// Last invalidation time per block (cost-benefit age).
    last_invalidate_ns: Vec<u64>,
    stale_events: VecDeque<StaleEvent>,
    stats: FtlStats,
    logical_pages: u64,
    /// Reserved spill blocks (highest block indices), ascending. Removed
    /// from the allocator pool at construction so they are never host/GC
    /// targets and never GC victims.
    spill_blocks: Vec<u32>,
    /// Pages of the spill region already programmed (append cursor).
    spill_cursor: u64,
    sink: SinkHandle,
}

impl Ftl {
    /// Creates an FTL over `nand` with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(nand: NandArray, config: FtlConfig) -> Self {
        config.validate().expect("invalid FtlConfig");
        let geometry = nand.geometry();
        let total_blocks = geometry.total_blocks();
        assert!(
            config.spill_blocks < total_blocks / 2,
            "spill_blocks {} must leave most of the device ({total_blocks} blocks) to the host",
            config.spill_blocks
        );
        // Spill blocks come off the top of the block range, deterministically:
        // identical configs reserve identical physical blocks, which keeps
        // host placement (and therefore chain-MAC'd old_page_index values)
        // independent of whether a spill ever happens.
        let spill_blocks: Vec<u32> = (total_blocks - config.spill_blocks..total_blocks).collect();
        let spill_pages = spill_blocks.len() as u64 * u64::from(geometry.pages_per_block);
        let host_pages = geometry.total_pages() - spill_pages;
        let logical_pages = (host_pages as f64 * (1.0 - config.over_provisioning)) as u64;
        let mut allocator = BlockAllocator::new(geometry);
        for &b in &spill_blocks {
            allocator.retire_block(b);
        }
        Ftl {
            mapping: MappingTable::new(geometry, logical_pages),
            allocator,
            spill_blocks,
            spill_cursor: 0,
            pinned: HashSet::new(),
            pinned_per_block: vec![0; geometry.total_blocks() as usize],
            last_invalidate_ns: vec![0; geometry.total_blocks() as usize],
            stale_events: VecDeque::new(),
            stats: FtlStats::default(),
            logical_pages,
            geometry,
            config,
            nand,
            sink: SinkHandle::disabled(),
        }
    }

    /// Attaches a trace sink to the FTL and its NAND array: GC passes
    /// become spans on the `ftl/gc` track, NAND ops land on their unit
    /// tracks. Disabled by default.
    pub fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.nand.set_trace_sink(sink.clone());
        self.sink = sink;
    }

    /// Number of logical pages exported to the host.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// The underlying geometry.
    pub fn geometry(&self) -> FlashGeometry {
        self.geometry
    }

    /// Handle to the simulation clock.
    pub fn clock(&self) -> &SimClock {
        self.nand.clock()
    }

    /// FTL-level statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Raw NAND statistics.
    pub fn nand_stats(&self) -> &rssd_flash::NandStats {
        self.nand.stats()
    }

    /// Erased blocks currently in the free pool.
    pub fn free_blocks(&self) -> u32 {
        self.allocator.free_blocks()
    }

    /// Total valid pages on the device.
    pub fn total_valid_pages(&self) -> u64 {
        self.mapping.total_valid()
    }

    /// Number of currently pinned pages.
    pub fn pinned_pages(&self) -> u64 {
        self.pinned.len() as u64
    }

    /// Writes one logical page, blocking (the clock advances to the
    /// program's completion).
    ///
    /// # Errors
    ///
    /// * [`FtlError::LpaOutOfRange`] / [`FtlError::WrongPageSize`] on bad
    ///   arguments.
    /// * [`FtlError::DeviceFull`] when no space can be reclaimed because the
    ///   retention policy has pinned every candidate block (this is the
    ///   condition the GC attack drives baselines into).
    pub fn write(&mut self, lpa: u64, data: Vec<u8>) -> Result<(), FtlError> {
        let ticket = self.write_async(lpa, data)?;
        self.clock().advance_to(ticket.done_ns);
        Ok(())
    }

    /// Dispatches one logical-page write onto the flash pipelines without
    /// advancing the clock: the mapping/stale-event state commits
    /// immediately, the ticket says when the program completes. Consecutive
    /// dispatches stripe across channels (see
    /// [`crate::allocator::BlockAllocator`]), so a batch of writes overlaps
    /// on independent units — the batched device paths block once per batch
    /// on their latest ticket.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::write`].
    pub fn write_async(&mut self, lpa: u64, data: Vec<u8>) -> Result<OpTicket, FtlError> {
        self.write_async_reclaim(lpa, data).map_err(|(e, _)| e)
    }

    /// [`Self::write_async`], but on failure the error comes back with the
    /// untouched payload whenever the write never reached the flash
    /// pipelines (`DeviceFull`, bad arguments). The device layer's
    /// backpressure loop re-submits that same buffer after evicting pins
    /// instead of cloning the payload up front on every attempt.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::write`]; the payload is `None` only when
    /// the NAND consumed it before failing.
    #[allow(clippy::type_complexity)]
    pub fn write_async_reclaim(
        &mut self,
        lpa: u64,
        data: Vec<u8>,
    ) -> Result<OpTicket, (FtlError, Option<Vec<u8>>)> {
        if let Err(e) = self.check_lpa(lpa) {
            return Err((e, Some(data)));
        }
        if data.len() != self.geometry.page_size {
            let got = data.len();
            return Err((
                FtlError::WrongPageSize {
                    got,
                    expected: self.geometry.page_size,
                },
                Some(data),
            ));
        }
        self.run_background_gc();
        let ppa = match self.acquire_host_page() {
            Ok(ppa) => ppa,
            Err(e) => return Err((e, Some(data))),
        };
        let (_, ticket) = match self.nand.program_async(
            ppa,
            data,
            PageOob {
                lpa,
                timestamp_ns: 0,
                seq: 0,
            },
        ) {
            Ok(r) => r,
            Err(e) => return Err((FtlError::Nand(e), None)),
        };
        self.stats.host_pages_written += 1;
        if let Some(old) = self.mapping.update(lpa, ppa) {
            self.emit_stale(lpa, old, InvalidateCause::Overwrite);
        }
        Ok(ticket)
    }

    /// Reads one logical page, blocking (the clock advances to the read's
    /// completion). `Ok(None)` means the page is unmapped (never written or
    /// trimmed); the device layer renders it as zeroes.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpaOutOfRange`] or a NAND error.
    pub fn read(&mut self, lpa: u64) -> Result<Option<Vec<u8>>, FtlError> {
        let (data, ticket) = self.read_async(lpa)?;
        self.clock().advance_to(ticket.done_ns);
        Ok(data)
    }

    /// Dispatches one logical-page read without advancing the clock. An
    /// unmapped page returns a zero-duration ticket (served from the
    /// mapping table, no flash involved).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn read_async(&mut self, lpa: u64) -> Result<(Option<Vec<u8>>, OpTicket), FtlError> {
        self.check_lpa(lpa)?;
        match self.mapping.lookup(lpa) {
            None => Ok((None, OpTicket::instant(self.clock().now_ns()))),
            Some(ppa) => {
                let (data, _, ticket) = self.nand.read_async(ppa)?;
                self.stats.host_pages_read += 1;
                Ok((Some(data), ticket))
            }
        }
    }

    /// Trims (deallocates) one logical page. Subsequent reads return
    /// unmapped. The old physical page becomes stale and is reported via a
    /// [`StaleEvent`] with [`InvalidateCause::Trim`] — this is the raw trim
    /// behaviour; RSSD's *enhanced trim* is layered on top by pinning the
    /// stale page and logging the operation.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpaOutOfRange`] for bad addresses.
    pub fn trim(&mut self, lpa: u64) -> Result<(), FtlError> {
        self.check_lpa(lpa)?;
        if let Some(old) = self.mapping.unmap(lpa) {
            self.stats.pages_trimmed += 1;
            self.emit_stale(lpa, old, InvalidateCause::Trim);
        }
        Ok(())
    }

    /// Reads a physical page directly (data + OOB). Used by the offload
    /// engine to ship pinned stale pages, and by recovery.
    ///
    /// # Errors
    ///
    /// Propagates NAND errors (erased page, bad block, out of range).
    pub fn read_physical(&mut self, ppa: Ppa) -> Result<(Vec<u8>, PageOob), FtlError> {
        Ok(self.nand.read(ppa)?)
    }

    /// Background physical read for the offload engine: dispatched onto the
    /// unit pipelines (it occupies the page's plane and channel — the
    /// small, bounded foreground perturbation the paper measures) but
    /// nothing blocks on it and the clock does not move.
    ///
    /// # Errors
    ///
    /// Propagates NAND errors.
    pub fn read_physical_offload(&mut self, ppa: Ppa) -> Result<(Vec<u8>, PageOob), FtlError> {
        let (data, oob, _) = self.nand.read_background_async(ppa)?;
        Ok((data, oob))
    }

    /// Zero-cost physical read for recovery and forensics (outside the
    /// device's foreground timeline): no latency charged, no pipeline
    /// occupation.
    ///
    /// # Errors
    ///
    /// Propagates NAND errors.
    pub fn read_physical_background(&mut self, ppa: Ppa) -> Result<(Vec<u8>, PageOob), FtlError> {
        Ok(self.nand.read_background(ppa)?)
    }

    /// Is the physical page currently the valid version of its LPA?
    pub fn is_valid(&self, ppa: Ppa) -> bool {
        self.mapping.is_valid(ppa)
    }

    /// Current physical location of `lpa`, if mapped.
    pub fn lookup(&self, lpa: u64) -> Option<Ppa> {
        self.mapping.lookup(lpa)
    }

    /// Pins a stale physical page, excluding its block from GC until
    /// unpinned. Idempotent.
    pub fn pin_page(&mut self, ppa: Ppa) {
        let idx = self.geometry.page_index(ppa);
        if self.pinned.insert(idx) {
            self.pinned_per_block[self.geometry.block_index(ppa) as usize] += 1;
        }
    }

    /// Unpins a physical page. Idempotent.
    pub fn unpin_page(&mut self, ppa: Ppa) {
        let idx = self.geometry.page_index(ppa);
        if self.pinned.remove(&idx) {
            self.pinned_per_block[self.geometry.block_index(ppa) as usize] -= 1;
        }
    }

    /// Is `ppa` pinned?
    pub fn is_pinned(&self, ppa: Ppa) -> bool {
        self.pinned.contains(&self.geometry.page_index(ppa))
    }

    /// Drains the queue of stale events accumulated since the last call.
    pub fn drain_stale_events(&mut self) -> Vec<StaleEvent> {
        self.stale_events.drain(..).collect()
    }

    /// Fraction of all blocks that currently contain at least one pinned
    /// page (capacity pressure signal for watermark-based eviction).
    pub fn pinned_block_fraction(&self) -> f64 {
        let pinned_blocks = self.pinned_per_block.iter().filter(|&&c| c > 0).count();
        pinned_blocks as f64 / self.geometry.total_blocks() as f64
    }

    /// Physical page at `page_off` pages into the spill region.
    fn spill_ppa(&self, page_off: u64) -> Ppa {
        let ppb = u64::from(self.geometry.pages_per_block);
        let block = self.spill_blocks[(page_off / ppb) as usize];
        self.geometry
            .block_to_ppa(block)
            .with_page((page_off % ppb) as u32)
    }

    /// Total capacity of the reserved spill region, in bytes.
    pub fn spill_capacity_bytes(&self) -> u64 {
        self.spill_blocks.len() as u64
            * u64::from(self.geometry.pages_per_block)
            * self.geometry.page_size as u64
    }

    /// Bytes of the spill region already programmed (page granularity).
    pub fn spill_used_bytes(&self) -> u64 {
        self.spill_cursor * self.geometry.page_size as u64
    }

    /// Appends one sealed entry to the spill region. The entry is laid out
    /// page-aligned: `[magic u64][len u64][payload…]`, padded to whole
    /// pages. Programs are dispatched onto the flash pipelines without
    /// advancing the clock (the spill is a background staging write), so
    /// spilling is timeline-neutral for the foreground workload.
    ///
    /// # Errors
    ///
    /// [`FtlError::DeviceFull`] when the region cannot hold the entry
    /// (nothing is written); NAND errors propagate.
    pub fn spill_append(&mut self, payload: &[u8]) -> Result<(), FtlError> {
        let page_size = self.geometry.page_size;
        let total = SPILL_HEADER_BYTES + payload.len();
        let pages_needed = total.div_ceil(page_size) as u64;
        let capacity_pages =
            self.spill_blocks.len() as u64 * u64::from(self.geometry.pages_per_block);
        if self.spill_cursor + pages_needed > capacity_pages {
            return Err(FtlError::DeviceFull);
        }
        let mut image = vec![0u8; pages_needed as usize * page_size];
        image[..8].copy_from_slice(&SPILL_MAGIC.to_le_bytes());
        image[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        image[SPILL_HEADER_BYTES..SPILL_HEADER_BYTES + payload.len()].copy_from_slice(payload);
        for (i, chunk) in image.chunks(page_size).enumerate() {
            let ppa = self.spill_ppa(self.spill_cursor + i as u64);
            let _ = self.nand.program_async(
                ppa,
                chunk.to_vec(),
                PageOob {
                    lpa: u64::MAX,
                    timestamp_ns: 0,
                    seq: 0,
                },
            )?;
        }
        self.spill_cursor += pages_needed;
        Ok(())
    }

    /// Scans the spill region from the start and returns every intact entry
    /// in append order. Used by crash recovery: the scan reads what is
    /// physically on the NAND (zero-cost background reads) and repositions
    /// the append cursor past the last intact entry.
    ///
    /// # Errors
    ///
    /// Propagates NAND read errors on programmed pages.
    pub fn spill_scan(&mut self) -> Result<Vec<Vec<u8>>, FtlError> {
        let page_size = self.geometry.page_size;
        let capacity_pages =
            self.spill_blocks.len() as u64 * u64::from(self.geometry.pages_per_block);
        let mut entries = Vec::new();
        let mut cursor = 0u64;
        while cursor < capacity_pages {
            let head_ppa = self.spill_ppa(cursor);
            if self.nand.peek_oob(head_ppa)?.is_none() {
                break;
            }
            let (head, _) = self.nand.read_background(head_ppa)?;
            let magic = u64::from_le_bytes(head[..8].try_into().expect("page >= 16 bytes"));
            if magic != SPILL_MAGIC {
                break;
            }
            // The length is whatever the NAND holds: one that overflows, or
            // runs past the region, ends the scan — it must size nothing.
            let len = u64::from_le_bytes(head[8..16].try_into().expect("page >= 16 bytes"));
            let Some(pages_needed) = len
                .checked_add(SPILL_HEADER_BYTES as u64)
                .map(|total| total.div_ceil(page_size as u64))
                .filter(|pages| *pages <= capacity_pages - cursor)
            else {
                break;
            };
            let len = len as usize;
            let mut image = head;
            for i in 1..pages_needed {
                let (data, _) = self.nand.read_background(self.spill_ppa(cursor + i))?;
                image.extend_from_slice(&data);
            }
            entries.push(image[SPILL_HEADER_BYTES..SPILL_HEADER_BYTES + len].to_vec());
            cursor += pages_needed;
        }
        self.spill_cursor = cursor;
        Ok(entries)
    }

    /// Erases every spill block that holds data and resets the append
    /// cursor. Called once the staged backlog has fully drained to the
    /// remote (the spilled images are durable there now).
    ///
    /// # Errors
    ///
    /// Propagates NAND erase errors.
    pub fn spill_reset(&mut self) -> Result<(), FtlError> {
        let ppb = u64::from(self.geometry.pages_per_block);
        let used_blocks = self.spill_cursor.div_ceil(ppb) as usize;
        for &block in self.spill_blocks.iter().take(used_blocks) {
            let _ = self
                .nand
                .erase_block_async(self.geometry.block_to_ppa(block))?;
        }
        self.spill_cursor = 0;
        Ok(())
    }

    /// Runs GC passes until the free pool recovers above the high watermark
    /// or no eligible victim remains. Returns the number of blocks erased.
    pub fn run_background_gc(&mut self) -> u32 {
        let total = self.geometry.total_blocks();
        let low = (self.config.gc_low_watermark * f64::from(total)) as u32;
        let high = (self.config.gc_high_watermark * f64::from(total)) as u32;
        if self.allocator.free_blocks() > low {
            return 0;
        }
        let mut erased = 0;
        while self.allocator.free_blocks() < high {
            match self.gc_pass() {
                Some(_) => erased += 1,
                None => break,
            }
        }
        erased
    }

    /// One GC pass: select a victim, migrate its valid pages, erase it.
    /// Returns the erased block index, or `None` if no block is eligible.
    ///
    /// The copy-backs are dispatched, not blocked on: each migration read
    /// rides the victim's plane, its program is placed on the idlest
    /// channel (see [`crate::allocator::BlockAllocator`]) and ordered after
    /// the read, and the erase queues behind the reads on the victim's
    /// plane. The clock does not advance — GC overlaps host I/O on other
    /// units exactly as the hardware would.
    pub fn gc_pass(&mut self) -> Option<u32> {
        let victim = self.select_gc_victim()?;
        self.stats.gc_invocations += 1;
        let gc_start_ns = self.clock().now_ns();
        let migrated_before = self.stats.gc_pages_migrated;

        // Migrate valid pages through the GC stream.
        let valid = self.mapping.valid_pages_of_block(victim);
        let victim_base = self.geometry.block_to_ppa(victim);
        for (page, lpa) in valid {
            let src = victim_base.with_page(page);
            let (data, _, read_ticket) = self.nand.read_async(src).expect("valid page readable");
            let dst = self
                .allocator
                .next_page(Stream::Gc, &self.nand)
                .expect("gc reserve exhausted");
            // Fire-and-forget: GC never blocks the clock, the unit
            // horizons carry the cost.
            let _ = self
                .nand
                .program_async_after(
                    dst,
                    data,
                    PageOob {
                        lpa,
                        timestamp_ns: 0,
                        seq: 0,
                    },
                    read_ticket.done_ns,
                )
                .expect("gc program");
            self.stats.gc_pages_migrated += 1;
            let old = self.mapping.update(lpa, dst);
            debug_assert_eq!(old, Some(src));
            self.emit_stale(lpa, src, InvalidateCause::GcMigration);
        }

        // All pages now stale and unpinned: erase (queues on the victim's
        // plane behind the migration reads).
        self.mapping.reset_block(victim);
        let erase_ticket = self
            .nand
            .erase_block_async(victim_base)
            .expect("erase victim");
        self.stats.gc_blocks_erased += 1;
        if self.sink.is_enabled() {
            self.sink.span(
                "ftl/gc",
                "gc_pass",
                gc_start_ns,
                erase_ticket.done_ns,
                &[
                    ("victim_block", victim.to_string()),
                    (
                        "pages_migrated",
                        (self.stats.gc_pages_migrated - migrated_before).to_string(),
                    ),
                ],
            );
        }
        let state = self.nand.block_state(victim_base).expect("block state");
        if state == BlockState::Bad {
            self.allocator.retire_block(victim);
        } else {
            let pe = self.nand.pe_cycles(victim_base).expect("pe cycles");
            self.allocator.release_block(victim, pe);
        }
        Some(victim)
    }

    fn select_gc_victim(&self) -> Option<u32> {
        let now = self.clock().now_ns();
        let active = self.allocator.active_blocks();
        let candidates: Vec<Candidate> = (0..self.geometry.total_blocks())
            .filter(|b| !active.contains(b))
            .filter(|&b| self.pinned_per_block[b as usize] == 0)
            .filter(|&b| self.mapping.block_stale_count(b) > 0)
            .filter(|&b| {
                let state = self
                    .nand
                    .block_state(self.geometry.block_to_ppa(b))
                    .expect("in-range block");
                state == BlockState::Full
            })
            .map(|b| Candidate {
                block_index: b,
                valid_pages: self.mapping.block_valid_count(b),
                pages_per_block: self.geometry.pages_per_block,
                age_ns: now.saturating_sub(self.last_invalidate_ns[b as usize]),
            })
            .collect();
        select_victim(&candidates, self.config.gc_policy)
    }

    fn acquire_host_page(&mut self) -> Result<Ppa, FtlError> {
        loop {
            // Opening a fresh block is gated on the GC reserve; lanes with
            // an already-open block can always be used.
            let can_open_new = self.allocator.free_blocks() > self.config.gc_reserved_blocks;
            if let Some(ppa) = self.allocator.next_host_page(&self.nand, can_open_new) {
                return Ok(ppa);
            }
            if self.gc_pass().is_none() {
                self.stats.write_stalls += 1;
                return Err(FtlError::DeviceFull);
            }
        }
    }

    fn emit_stale(&mut self, lpa: u64, old: Ppa, cause: InvalidateCause) {
        let now = self.clock().now_ns();
        self.last_invalidate_ns[self.geometry.block_index(old) as usize] = now;
        let oob = self
            .nand
            .peek_oob(old)
            .expect("in-range page")
            .expect("stale page was programmed");
        self.stale_events.push_back(StaleEvent {
            lpa,
            ppa: old,
            oob,
            cause,
            invalidated_at_ns: now,
        });
    }

    fn check_lpa(&self, lpa: u64) -> Result<(), FtlError> {
        if lpa < self.logical_pages {
            Ok(())
        } else {
            Err(FtlError::LpaOutOfRange {
                lpa,
                logical_pages: self.logical_pages,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_flash::NandTiming;

    fn small_ftl() -> Ftl {
        let nand = NandArray::with_clock(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        );
        Ftl::new(nand, FtlConfig::default())
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    #[test]
    fn write_read_round_trip() {
        let mut ftl = small_ftl();
        ftl.write(3, page(0x5A)).unwrap();
        assert_eq!(ftl.read(3).unwrap().unwrap(), page(0x5A));
    }

    #[test]
    fn unwritten_reads_none() {
        let mut ftl = small_ftl();
        assert_eq!(ftl.read(9).unwrap(), None);
    }

    #[test]
    fn overwrite_returns_new_data_and_emits_event() {
        let mut ftl = small_ftl();
        ftl.write(3, page(1)).unwrap();
        ftl.write(3, page(2)).unwrap();
        assert_eq!(ftl.read(3).unwrap().unwrap(), page(2));
        let events = ftl.drain_stale_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].lpa, 3);
        assert_eq!(events[0].cause, InvalidateCause::Overwrite);
        // Stale data still physically present at the old PPA.
        let (old_data, _) = ftl.read_physical(events[0].ppa).unwrap();
        assert_eq!(old_data, page(1));
    }

    #[test]
    fn trim_unmaps_and_emits_event() {
        let mut ftl = small_ftl();
        ftl.write(3, page(1)).unwrap();
        ftl.trim(3).unwrap();
        assert_eq!(ftl.read(3).unwrap(), None);
        let events = ftl.drain_stale_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cause, InvalidateCause::Trim);
        assert_eq!(ftl.stats().pages_trimmed, 1);
    }

    #[test]
    fn trim_unmapped_is_noop() {
        let mut ftl = small_ftl();
        ftl.trim(3).unwrap();
        assert!(ftl.drain_stale_events().is_empty());
    }

    #[test]
    fn lpa_out_of_range_rejected() {
        let mut ftl = small_ftl();
        let lp = ftl.logical_pages();
        assert!(matches!(
            ftl.write(lp, page(0)),
            Err(FtlError::LpaOutOfRange { .. })
        ));
        assert!(matches!(ftl.read(lp), Err(FtlError::LpaOutOfRange { .. })));
        assert!(matches!(ftl.trim(lp), Err(FtlError::LpaOutOfRange { .. })));
    }

    #[test]
    fn wrong_page_size_rejected() {
        let mut ftl = small_ftl();
        assert!(matches!(
            ftl.write(0, vec![0; 10]),
            Err(FtlError::WrongPageSize { .. })
        ));
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_survive() {
        let mut ftl = small_ftl();
        // Working set of 8 LPAs, overwritten many times: forces GC on the
        // 4 MiB device.
        for round in 0..200u32 {
            for lpa in 0..8u64 {
                ftl.write(lpa, page((round % 251) as u8)).unwrap();
            }
        }
        assert!(ftl.stats().gc_blocks_erased > 0, "GC should have run");
        for lpa in 0..8u64 {
            // Last round was 199, and 199 % 251 == 199.
            assert_eq!(ftl.read(lpa).unwrap().unwrap(), page(199));
        }
        assert!(ftl.stats().write_amplification() >= 1.0);
    }

    #[test]
    fn fills_to_logical_capacity() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for lpa in 0..logical {
            ftl.write(lpa, page((lpa % 256) as u8)).unwrap();
        }
        for lpa in (0..logical).step_by(17) {
            assert_eq!(ftl.read(lpa).unwrap().unwrap(), page((lpa % 256) as u8));
        }
    }

    #[test]
    fn pinning_blocks_gc_until_released() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        // Fill the device.
        for lpa in 0..logical {
            ftl.write(lpa, page(1)).unwrap();
        }
        // Overwrite everything once, pinning every stale page as we go
        // (conservative retention).
        let mut pinned = Vec::new();
        let mut full_hits = 0u32;
        for lpa in 0..logical {
            match ftl.write(lpa, page(2)) {
                Ok(()) => {}
                Err(FtlError::DeviceFull) => {
                    full_hits += 1;
                    // Release all pins (simulating offload) and retry.
                    for ppa in pinned.drain(..) {
                        ftl.unpin_page(ppa);
                    }
                    ftl.write(lpa, page(2)).unwrap();
                }
                Err(e) => panic!("unexpected error {e}"),
            }
            for ev in ftl.drain_stale_events() {
                if ev.cause == InvalidateCause::Overwrite {
                    ftl.pin_page(ev.ppa);
                    pinned.push(ev.ppa);
                }
            }
        }
        assert!(
            full_hits > 0,
            "pinning every stale page must exhaust a small device"
        );
    }

    #[test]
    fn gc_migration_events_are_marked() {
        let mut ftl = small_ftl();
        // Interleave hot churn (LPAs 32..37) with unique cold writes so every
        // block holds at least one never-overwritten page: GC victims then
        // always need a migration.
        let mut cold_lpa = 40u64;
        for i in 0..600u64 {
            if i % 8 == 3 {
                ftl.write(cold_lpa, page(0xC0)).unwrap();
                cold_lpa += 1;
            } else {
                ftl.write(32 + (i % 5), page((i % 251) as u8)).unwrap();
            }
        }
        assert!(ftl.stats().gc_pages_migrated > 0);
        let events = ftl.drain_stale_events();
        assert!(events
            .iter()
            .any(|e| e.cause == InvalidateCause::GcMigration));
    }

    #[test]
    fn stale_event_oob_carries_original_write_order() {
        let mut ftl = small_ftl();
        ftl.write(1, page(1)).unwrap();
        ftl.write(2, page(2)).unwrap();
        ftl.write(1, page(3)).unwrap();
        ftl.write(2, page(4)).unwrap();
        let events = ftl.drain_stale_events();
        assert_eq!(events.len(), 2);
        // LPA 1's original write (seq 0) precedes LPA 2's (seq 1).
        assert!(events[0].oob.seq < events[1].oob.seq);
    }

    #[test]
    fn cost_benefit_policy_works_end_to_end() {
        let nand = NandArray::with_clock(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        );
        let mut ftl = Ftl::new(
            nand,
            FtlConfig {
                gc_policy: GcPolicy::CostBenefit,
                ..FtlConfig::default()
            },
        );
        for round in 0..150u32 {
            for lpa in 0..8u64 {
                ftl.write(lpa, page(round as u8)).unwrap();
            }
        }
        assert!(ftl.stats().gc_blocks_erased > 0);
        for lpa in 0..8u64 {
            assert_eq!(ftl.read(lpa).unwrap().unwrap(), page(149));
        }
    }

    #[test]
    fn pin_unpin_idempotent() {
        let mut ftl = small_ftl();
        ftl.write(0, page(1)).unwrap();
        let ppa = ftl.lookup(0).unwrap();
        ftl.pin_page(ppa);
        ftl.pin_page(ppa);
        assert!(ftl.is_pinned(ppa));
        assert_eq!(ftl.pinned_pages(), 1);
        ftl.unpin_page(ppa);
        ftl.unpin_page(ppa);
        assert!(!ftl.is_pinned(ppa));
        assert_eq!(ftl.pinned_pages(), 0);
    }

    #[test]
    fn stats_track_host_ops() {
        let mut ftl = small_ftl();
        ftl.write(0, page(1)).unwrap();
        ftl.read(0).unwrap();
        assert_eq!(ftl.stats().host_pages_written, 1);
        assert_eq!(ftl.stats().host_pages_read, 1);
    }

    fn spill_ftl() -> Ftl {
        let nand = NandArray::with_clock(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        );
        Ftl::new(
            nand,
            FtlConfig {
                spill_blocks: 2,
                ..FtlConfig::default()
            },
        )
    }

    #[test]
    fn spill_round_trip_scan_and_reset() {
        let mut ftl = spill_ftl();
        assert!(ftl.spill_capacity_bytes() > 0);
        assert_eq!(ftl.spill_used_bytes(), 0);
        let a = vec![0xA5u8; 100]; // sub-page entry
        let b: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect(); // multi-page
        ftl.spill_append(&a).unwrap();
        ftl.spill_append(&b).unwrap();
        assert!(ftl.spill_used_bytes() > 0);
        assert_eq!(ftl.spill_scan().unwrap(), vec![a.clone(), b.clone()]);
        // Scanning is idempotent and the cursor stays past the entries.
        let used = ftl.spill_used_bytes();
        assert_eq!(ftl.spill_scan().unwrap().len(), 2);
        assert_eq!(ftl.spill_used_bytes(), used);
        ftl.spill_reset().unwrap();
        assert_eq!(ftl.spill_used_bytes(), 0);
        assert!(ftl.spill_scan().unwrap().is_empty());
        // Region is reusable after the erase.
        ftl.spill_append(&a).unwrap();
        assert_eq!(ftl.spill_scan().unwrap(), vec![a]);
    }

    /// Programs `head` as the first page of a frame at the spill cursor,
    /// behind the intact entries — what a torn or hostile region holds.
    fn plant_spill_head(ftl: &mut Ftl, magic: u64, len: u64) {
        let mut head = vec![0u8; ftl.geometry.page_size];
        head[..8].copy_from_slice(&magic.to_le_bytes());
        head[8..16].copy_from_slice(&len.to_le_bytes());
        let ppa = ftl.spill_ppa(ftl.spill_cursor);
        let oob = PageOob {
            lpa: u64::MAX,
            timestamp_ns: 0,
            seq: 0,
        };
        let _ = ftl.nand.program_async(ppa, head, oob).unwrap();
    }

    #[test]
    fn spill_scan_stops_cleanly_at_a_length_running_past_the_region() {
        let capacity = spill_ftl().spill_capacity_bytes();
        for len in [
            capacity,
            capacity + 1,
            u64::MAX - 15,
            u64::MAX - 7,
            u64::MAX,
        ] {
            let mut ftl = spill_ftl();
            let intact = vec![0x5Au8; 6000];
            ftl.spill_append(&intact).unwrap();
            let used = ftl.spill_used_bytes();
            plant_spill_head(&mut ftl, SPILL_MAGIC, len);
            // The frame announces more than the region (or a usize) holds:
            // everything before it is returned, nothing is sized by it.
            assert_eq!(ftl.spill_scan().unwrap(), vec![intact], "len {len}");
            assert_eq!(ftl.spill_used_bytes(), used, "cursor stops before it");
        }
        // The same head with the wrong magic is not a frame at all.
        let mut ftl = spill_ftl();
        plant_spill_head(&mut ftl, !SPILL_MAGIC, 10);
        assert!(ftl.spill_scan().unwrap().is_empty());
    }

    #[test]
    fn spill_scan_reports_a_tail_cut_mid_frame_as_a_typed_error() {
        let mut ftl = spill_ftl();
        ftl.spill_append(&[7u8; 100]).unwrap();
        // A three-page frame whose power was cut after the first page.
        let page_size = ftl.geometry.page_size as u64;
        plant_spill_head(&mut ftl, SPILL_MAGIC, 2 * page_size);
        let err = ftl.spill_scan().unwrap_err();
        assert!(
            matches!(err, FtlError::Nand(NandError::ReadOnErased(_))),
            "{err:?}"
        );
    }

    #[test]
    fn spill_append_is_clock_neutral_and_survives_host_gc_churn() {
        let mut ftl = spill_ftl();
        let before_ns = ftl.clock().now_ns();
        ftl.spill_append(&[7u8; 5000]).unwrap();
        assert_eq!(ftl.clock().now_ns(), before_ns);
        // Heavy host churn with GC must never touch the spill region.
        for round in 0..200u32 {
            for lpa in 0..8u64 {
                ftl.write(lpa, page((round % 251) as u8)).unwrap();
            }
        }
        assert!(ftl.stats().gc_blocks_erased > 0, "GC should have run");
        assert_eq!(ftl.spill_scan().unwrap(), vec![vec![7u8; 5000]]);
    }

    #[test]
    fn spill_full_rejects_without_partial_write() {
        let mut ftl = spill_ftl();
        let capacity = ftl.spill_capacity_bytes() as usize;
        let oversized = vec![1u8; capacity]; // header pushes it past capacity
        assert_eq!(ftl.spill_append(&oversized), Err(FtlError::DeviceFull));
        assert_eq!(ftl.spill_used_bytes(), 0);
        assert!(ftl.spill_scan().unwrap().is_empty());
    }

    #[test]
    fn spill_region_shrinks_logical_capacity() {
        let plain = small_ftl();
        let spilled = spill_ftl();
        assert!(spilled.logical_pages() < plain.logical_pages());
        assert!(spilled.logical_pages() > 0);
    }

    #[test]
    fn write_async_reclaim_returns_payload_on_device_full() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for lpa in 0..logical {
            ftl.write(lpa, page(1)).unwrap();
        }
        // Pin every stale page so reclamation is impossible.
        let mut hit_full = false;
        'outer: for lpa in 0..logical {
            match ftl.write_async_reclaim(lpa, page(2)) {
                Ok(ticket) => {
                    ftl.clock().advance_to(ticket.done_ns);
                }
                Err((FtlError::DeviceFull, reclaimed)) => {
                    assert_eq!(reclaimed, Some(page(2)), "payload must come back intact");
                    hit_full = true;
                    break 'outer;
                }
                Err((e, _)) => panic!("unexpected error {e}"),
            }
            for ev in ftl.drain_stale_events() {
                if ev.cause == InvalidateCause::Overwrite {
                    ftl.pin_page(ev.ppa);
                }
            }
        }
        assert!(hit_full, "pinning every stale page must exhaust the device");
    }

    #[test]
    fn pinned_block_fraction_reflects_pins() {
        let mut ftl = small_ftl();
        assert_eq!(ftl.pinned_block_fraction(), 0.0);
        ftl.write(0, page(1)).unwrap();
        let ppa = ftl.lookup(0).unwrap();
        ftl.pin_page(ppa);
        assert!(ftl.pinned_block_fraction() > 0.0);
    }
}
