//! The NAND array proper: page/block state machines and physical constraints.

use crate::clock::SimClock;
use crate::geometry::{FlashGeometry, Ppa};
use crate::stats::NandStats;
use crate::timing::{NandTiming, OpTicket, UnitPipelines};
use rssd_obs::SinkHandle;
use serde::{Deserialize, Serialize};

/// Per-page out-of-band metadata, written atomically with the page data.
///
/// Real NAND pages carry a spare area; FTLs use it for reverse-mapping and
/// power-fail recovery. RSSD additionally relies on it to reconstruct the
/// time order of operations: `seq` is a device-global monotone counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageOob {
    /// Logical page address this physical page was written for.
    pub lpa: u64,
    /// Simulated time of the program operation.
    pub timestamp_ns: u64,
    /// Device-global write sequence number (total order of programs).
    pub seq: u64,
}

/// State of one physical page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Programmed and holding data.
    Programmed,
}

/// State of one erase block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockState {
    /// All pages erased; programming starts at page 0.
    Erased,
    /// Some pages programmed; `write_pointer` pages used so far.
    Open,
    /// Every page programmed.
    Full,
    /// Worn out (exceeded its P/E budget); unusable.
    Bad,
}

/// Errors surfaced by raw NAND operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NandError {
    /// Address outside the configured geometry.
    AddressOutOfRange(Ppa),
    /// Attempt to program a page that is not the block's next free page.
    /// NAND requires strictly sequential programming within a block.
    NonSequentialProgram {
        /// The requested page address.
        requested: Ppa,
        /// The page index the block's write pointer expects next.
        expected_page: u32,
    },
    /// Attempt to program a page that is already programmed (no overwrite
    /// in place — the property all retention defenses build on).
    ProgramOnProgrammed(Ppa),
    /// Attempt to read an erased page.
    ReadOnErased(Ppa),
    /// Operation on a block that has worn out.
    BadBlock(Ppa),
    /// Payload length does not match the geometry's page size.
    WrongPageSize {
        /// Bytes supplied.
        got: usize,
        /// Bytes the geometry requires.
        expected: usize,
    },
}

impl std::fmt::Display for NandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NandError::AddressOutOfRange(ppa) => write!(f, "address {ppa} out of range"),
            NandError::NonSequentialProgram {
                requested,
                expected_page,
            } => write!(
                f,
                "non-sequential program at {requested}, block expects page {expected_page}"
            ),
            NandError::ProgramOnProgrammed(ppa) => {
                write!(f, "program on already-programmed page {ppa}")
            }
            NandError::ReadOnErased(ppa) => write!(f, "read on erased page {ppa}"),
            NandError::BadBlock(ppa) => write!(f, "block containing {ppa} is worn out"),
            NandError::WrongPageSize { got, expected } => {
                write!(f, "payload of {got} bytes, page size is {expected}")
            }
        }
    }
}

impl std::error::Error for NandError {}

#[derive(Clone, Debug)]
struct Block {
    state: BlockState,
    write_pointer: u32,
    pe_cycles: u32,
    pages: Vec<Option<(Box<[u8]>, PageOob)>>,
}

impl Block {
    fn new(pages_per_block: u32) -> Self {
        Block {
            state: BlockState::Erased,
            write_pointer: 0,
            pe_cycles: 0,
            pages: vec![None; pages_per_block as usize],
        }
    }
}

/// The simulated NAND flash array.
///
/// Enforces the physical constraints (erase-before-program, sequential
/// in-block programming, block-granularity erase, wear-out) and schedules
/// simulated time on the per-channel/per-plane unit pipelines (see
/// [`crate::timing`]).
///
/// Every operation has two forms: the `*_async` form *dispatches* it — the
/// state change commits immediately, the returned [`OpTicket`] says when
/// the hardware would complete it, and the shared [`SimClock`] does **not**
/// move — and the scalar form, which dispatches and then blocks (advances
/// the clock to the ticket). Batched device paths use the async forms so
/// independent channels, chips and planes overlap; scalar host paths keep
/// the historical one-op-at-a-time timing.
#[derive(Clone, Debug)]
pub struct NandArray {
    geometry: FlashGeometry,
    timing: NandTiming,
    clock: SimClock,
    blocks: Vec<Block>,
    pipelines: UnitPipelines,
    stats: NandStats,
    seq_counter: u64,
    max_pe_cycles: u32,
    sink: SinkHandle,
}

impl NandArray {
    /// Default P/E endurance budget per block (MLC-class).
    pub const DEFAULT_MAX_PE_CYCLES: u32 = 3_000;

    /// Creates an erased array with default timing and a fresh clock.
    pub fn new(geometry: FlashGeometry) -> Self {
        Self::with_clock(geometry, NandTiming::default(), SimClock::new())
    }

    /// Creates an erased array with explicit timing and a shared clock.
    pub fn with_clock(geometry: FlashGeometry, timing: NandTiming, clock: SimClock) -> Self {
        let blocks = (0..geometry.total_blocks())
            .map(|_| Block::new(geometry.pages_per_block))
            .collect();
        NandArray {
            geometry,
            timing,
            clock: clock.clone(),
            blocks,
            pipelines: UnitPipelines::new(
                geometry.channels,
                geometry.chips_per_channel,
                geometry.planes_per_chip,
            ),
            stats: NandStats::for_channels(geometry.channels),
            seq_counter: 0,
            max_pe_cycles: Self::DEFAULT_MAX_PE_CYCLES,
            sink: SinkHandle::disabled(),
        }
    }

    /// Attaches a trace sink: every dispatched NAND op is recorded as a
    /// span on its unit's track (`nand/ch{c}/pl{p}`), spanning the op's
    /// pipeline occupancy. Disabled by default; observation never feeds
    /// back into timing or state.
    pub fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// Track name for the unit serving `ppa` (chips share a channel bus;
    /// one track per plane keeps overlap visible).
    fn unit_track(&self, ppa: Ppa) -> String {
        let plane = ppa.chip * self.geometry.planes_per_chip + ppa.plane;
        format!("nand/ch{}/pl{}", ppa.channel, plane)
    }

    fn trace_op(&self, name: &str, ppa: Ppa, ticket: OpTicket, lpa: u64) {
        if !self.sink.is_enabled() {
            return;
        }
        self.sink.span(
            &self.unit_track(ppa),
            name,
            ticket.start_ns,
            ticket.done_ns,
            &[
                ("lpa", lpa.to_string()),
                ("block", self.geometry.block_index(ppa).to_string()),
                ("page", ppa.page.to_string()),
            ],
        );
    }

    /// Overrides the per-block endurance budget (for wear-out tests).
    pub fn set_max_pe_cycles(&mut self, cycles: u32) {
        self.max_pe_cycles = cycles;
    }

    /// The configured geometry.
    pub fn geometry(&self) -> FlashGeometry {
        self.geometry
    }

    /// The timing model in use.
    pub fn timing(&self) -> NandTiming {
        self.timing
    }

    /// Handle to the simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Operation counters.
    pub fn stats(&self) -> &NandStats {
        &self.stats
    }

    /// State of the block containing `ppa`.
    pub fn block_state(&self, ppa: Ppa) -> Result<BlockState, NandError> {
        self.check_address(ppa)?;
        Ok(self.blocks[self.geometry.block_index(ppa) as usize].state)
    }

    /// The next programmable page index of the block containing `ppa`
    /// (its write pointer).
    pub fn write_pointer(&self, ppa: Ppa) -> Result<u32, NandError> {
        self.check_address(ppa)?;
        Ok(self.blocks[self.geometry.block_index(ppa) as usize].write_pointer)
    }

    /// P/E cycles consumed by the block containing `ppa`.
    pub fn pe_cycles(&self, ppa: Ppa) -> Result<u32, NandError> {
        self.check_address(ppa)?;
        Ok(self.blocks[self.geometry.block_index(ppa) as usize].pe_cycles)
    }

    /// State of the page at `ppa`.
    pub fn page_state(&self, ppa: Ppa) -> Result<PageState, NandError> {
        self.check_address(ppa)?;
        let block = &self.blocks[self.geometry.block_index(ppa) as usize];
        Ok(if block.pages[ppa.page as usize].is_some() {
            PageState::Programmed
        } else {
            PageState::Free
        })
    }

    /// Programs `data` + `oob` into the page at `ppa`, blocking (the clock
    /// advances to the completion). Returns the device-global sequence
    /// number assigned to this program.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range, the payload is the wrong size,
    /// the block is bad, the page is already programmed, or programming is
    /// not at the block's write pointer.
    pub fn program(&mut self, ppa: Ppa, data: Vec<u8>, oob: PageOob) -> Result<u64, NandError> {
        let (seq, ticket) = self.program_async(ppa, data, oob)?;
        self.clock.advance_to(ticket.done_ns);
        Ok(seq)
    }

    /// Dispatches a program without advancing the clock: the page state
    /// commits immediately, the ticket says when the hardware completes
    /// (transfer staged on the channel bus, cell phase on the plane —
    /// sibling planes overlap, multi-plane style).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::program`].
    pub fn program_async(
        &mut self,
        ppa: Ppa,
        data: Vec<u8>,
        oob: PageOob,
    ) -> Result<(u64, OpTicket), NandError> {
        let now = self.clock.now_ns();
        self.program_async_after(ppa, data, oob, now)
    }

    /// Like [`Self::program_async`], but the operation may not start before
    /// `not_before_ns` — the dependency hook GC copy-backs use so a
    /// migration program waits for its source read to complete.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::program`].
    pub fn program_async_after(
        &mut self,
        ppa: Ppa,
        data: Vec<u8>,
        mut oob: PageOob,
        not_before_ns: u64,
    ) -> Result<(u64, OpTicket), NandError> {
        self.check_address(ppa)?;
        if data.len() != self.geometry.page_size {
            return Err(NandError::WrongPageSize {
                got: data.len(),
                expected: self.geometry.page_size,
            });
        }
        let block_idx = self.geometry.block_index(ppa) as usize;
        let block = &mut self.blocks[block_idx];
        match block.state {
            BlockState::Bad => return Err(NandError::BadBlock(ppa)),
            BlockState::Full => return Err(NandError::ProgramOnProgrammed(ppa)),
            BlockState::Erased | BlockState::Open => {}
        }
        if block.pages[ppa.page as usize].is_some() {
            return Err(NandError::ProgramOnProgrammed(ppa));
        }
        if ppa.page != block.write_pointer {
            return Err(NandError::NonSequentialProgram {
                requested: ppa,
                expected_page: block.write_pointer,
            });
        }

        let seq = self.seq_counter;
        self.seq_counter += 1;
        oob.seq = seq;
        oob.timestamp_ns = self.clock.now_ns();

        block.pages[ppa.page as usize] = Some((data.into_boxed_slice(), oob));
        block.write_pointer += 1;
        block.state = if block.write_pointer == self.geometry.pages_per_block {
            BlockState::Full
        } else {
            BlockState::Open
        };

        let earliest = self.clock.now_ns().max(not_before_ns);
        let (ticket, covered) = self.pipelines.dispatch_program(
            ppa.channel,
            ppa.chip,
            ppa.plane,
            earliest,
            self.timing.program_ns,
            self.timing.transfer_latency(self.geometry.page_size),
        );
        self.stats
            .record_program(self.timing.program_latency(self.geometry.page_size));
        self.stats.record_channel_busy(ppa.channel, covered);
        self.trace_op("program", ppa, ticket, oob.lpa);
        Ok((seq, ticket))
    }

    /// Reads the page at `ppa`, blocking (the clock advances to the
    /// completion).
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range, the block is bad, or the page is
    /// erased.
    pub fn read(&mut self, ppa: Ppa) -> Result<(Vec<u8>, PageOob), NandError> {
        let (data, oob, ticket) = self.read_async(ppa)?;
        self.clock.advance_to(ticket.done_ns);
        Ok((data, oob))
    }

    /// Dispatches a read without advancing the clock: returns the data (the
    /// simulator state is authoritative) plus the ticket for when the
    /// hardware would deliver it (cell phase on the plane, data out over
    /// the channel bus).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn read_async(&mut self, ppa: Ppa) -> Result<(Vec<u8>, PageOob, OpTicket), NandError> {
        let (data, oob) = self.programmed_page(ppa)?;
        let out = (data.to_vec(), *oob);

        let (ticket, covered) = self.pipelines.dispatch_read(
            ppa.channel,
            ppa.chip,
            ppa.plane,
            self.clock.now_ns(),
            self.timing.read_ns,
            self.timing.transfer_latency(self.geometry.page_size),
        );
        self.stats
            .record_read(self.timing.read_latency(self.geometry.page_size));
        self.stats.record_channel_busy(ppa.channel, covered);
        self.trace_op("read", ppa, ticket, out.1.lpa);
        Ok((out.0, out.1, ticket))
    }

    /// Reads only the OOB metadata of a programmed page (cheaper than a full
    /// page read; used by log reconstruction). Charges read latency without
    /// the data transfer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn read_oob(&mut self, ppa: Ppa) -> Result<PageOob, NandError> {
        let oob = self.programmed_page(ppa)?.1;

        // Cell read without the data transfer (OOB bytes are negligible).
        let (ticket, covered) = self.pipelines.dispatch_read(
            ppa.channel,
            ppa.chip,
            ppa.plane,
            self.clock.now_ns(),
            self.timing.read_ns,
            0,
        );
        self.clock.advance_to(ticket.done_ns);
        self.stats.record_read(self.timing.read_ns);
        self.stats.record_channel_busy(ppa.channel, covered);
        Ok(oob)
    }

    /// Erases the block containing `ppa`, blocking (the clock advances to
    /// the completion), consuming one P/E cycle. The block becomes
    /// [`BlockState::Bad`] once its endurance budget is exhausted.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range or the block is already bad.
    pub fn erase_block(&mut self, ppa: Ppa) -> Result<(), NandError> {
        let ticket = self.erase_block_async(ppa)?;
        self.clock.advance_to(ticket.done_ns);
        Ok(())
    }

    /// Dispatches a block erase without advancing the clock. The plane's
    /// busy horizon orders it after every dispatched read of the block's
    /// pages (they share the plane), so GC can erase a victim while other
    /// channels keep serving the host.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::erase_block`].
    pub fn erase_block_async(&mut self, ppa: Ppa) -> Result<OpTicket, NandError> {
        self.check_address(ppa)?;
        let block_idx = self.geometry.block_index(ppa) as usize;
        let max_pe = self.max_pe_cycles;
        let block = &mut self.blocks[block_idx];
        if block.state == BlockState::Bad {
            return Err(NandError::BadBlock(ppa));
        }
        block.pages.iter_mut().for_each(|p| *p = None);
        block.write_pointer = 0;
        block.pe_cycles += 1;
        block.state = if block.pe_cycles >= max_pe {
            BlockState::Bad
        } else {
            BlockState::Erased
        };

        let (ticket, covered) = self.pipelines.dispatch_erase(
            ppa.channel,
            ppa.chip,
            ppa.plane,
            self.clock.now_ns(),
            self.timing.erase_latency(),
        );
        self.stats.record_erase(self.timing.erase_latency());
        self.stats.record_channel_busy(ppa.channel, covered);
        if self.sink.is_enabled() {
            self.sink.span(
                &self.unit_track(ppa),
                "erase",
                ticket.start_ns,
                ticket.done_ns,
                &[("block", self.geometry.block_index(ppa).to_string())],
            );
        }
        Ok(ticket)
    }

    /// Iterates the OOB metadata of every programmed page in the block
    /// containing `ppa`, in page order (no latency charged; helper for GC
    /// victim scanning, which real FTLs do from in-DRAM summaries).
    pub fn block_oobs(&self, ppa: Ppa) -> Result<Vec<(u32, PageOob)>, NandError> {
        Ok(self
            .block_of(ppa)?
            .pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|(_, oob)| (i as u32, *oob)))
            .collect())
    }

    /// Dispatches a *background* read onto the unit pipelines without
    /// advancing the clock: the op occupies its plane and channel like any
    /// read (so it genuinely competes with foreground I/O for the units —
    /// the real, bounded cost of RSSD's offload engine), but nothing blocks
    /// on it. Counted as a background read in the stats.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn read_background_async(
        &mut self,
        ppa: Ppa,
    ) -> Result<(Vec<u8>, PageOob, OpTicket), NandError> {
        let (data, oob) = self.programmed_page(ppa)?;
        let out = (data.to_vec(), *oob);
        let (ticket, covered) = self.pipelines.dispatch_read(
            ppa.channel,
            ppa.chip,
            ppa.plane,
            self.clock.now_ns(),
            self.timing.read_ns,
            self.timing.transfer_latency(self.geometry.page_size),
        );
        self.stats.record_background_read();
        self.stats.record_channel_busy(ppa.channel, covered);
        self.trace_op("offload_read", ppa, ticket, out.1.lpa);
        Ok((out.0, out.1, ticket))
    }

    /// Reads page data + OOB without charging any latency at all — no
    /// pipeline occupation, no clock movement. This is the investigator's
    /// / recovery path (post-incident forensics outside the device's
    /// foreground timeline); the *offload engine* uses
    /// [`Self::read_background_async`], which does occupy units. Counted
    /// separately in the stats.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn read_background(&mut self, ppa: Ppa) -> Result<(Vec<u8>, PageOob), NandError> {
        let (data, oob) = self.programmed_page(ppa)?;
        let out = (data.to_vec(), *oob);
        self.stats.record_background_read();
        Ok(out)
    }

    /// OOB metadata of `ppa` without charging latency (FTLs keep this in a
    /// DRAM summary; the simulator reads it straight from the model).
    pub fn peek_oob(&self, ppa: Ppa) -> Result<Option<PageOob>, NandError> {
        let slot = &self.block_of(ppa)?.pages[ppa.page as usize];
        Ok(slot.as_ref().map(|(_, oob)| *oob))
    }

    /// Global write sequence counter value (next program gets this number).
    pub fn next_seq(&self) -> u64 {
        self.seq_counter
    }

    /// Blocks until every dispatched operation has completed: advances the
    /// clock to the pipelines' horizon and returns the new time. The batch
    /// paths call this (or advance to their own max ticket) once per batch
    /// — the only places the clock moves under pipelined execution.
    pub fn sync(&mut self) -> u64 {
        self.clock.advance_to(self.pipelines.horizon_ns())
    }

    /// Earliest time a new cell operation could start on `channel` (its
    /// freest plane's horizon).
    pub fn channel_next_free_ns(&self, channel: u32) -> u64 {
        self.pipelines.channel_next_free_ns(channel)
    }

    /// The channel whose freest plane goes idle soonest — where GC places
    /// copy-backs so they ride idle units instead of queueing behind host
    /// I/O.
    pub fn least_busy_channel(&self) -> u32 {
        (0..self.geometry.channels)
            .min_by_key(|&ch| self.pipelines.channel_next_free_ns(ch))
            .unwrap_or(0)
    }

    /// The block holding `ppa`, or `AddressOutOfRange`.
    #[inline]
    fn block_of(&self, ppa: Ppa) -> Result<&Block, NandError> {
        self.check_address(ppa)?;
        Ok(&self.blocks[self.geometry.block_index(ppa) as usize])
    }

    /// The one place a read looks its page up — borrowed, never copied:
    /// `AddressOutOfRange`, then `BadBlock`, then `ReadOnErased`.
    #[inline]
    fn programmed_page(&self, ppa: Ppa) -> Result<&(Box<[u8]>, PageOob), NandError> {
        let block = self.block_of(ppa)?;
        if block.state == BlockState::Bad {
            return Err(NandError::BadBlock(ppa));
        }
        block.pages[ppa.page as usize]
            .as_ref()
            .ok_or(NandError::ReadOnErased(ppa))
    }

    fn check_address(&self, ppa: Ppa) -> Result<(), NandError> {
        if self.geometry.contains(ppa) {
            Ok(())
        } else {
            Err(NandError::AddressOutOfRange(ppa))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant_array() -> NandArray {
        NandArray::with_clock(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        )
    }

    fn page(data: u8) -> Vec<u8> {
        vec![data; 4096]
    }

    fn oob(lpa: u64) -> PageOob {
        PageOob {
            lpa,
            timestamp_ns: 0,
            seq: 0,
        }
    }

    #[test]
    fn program_read_round_trip() {
        let mut nand = instant_array();
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        nand.program(ppa, page(0xCD), oob(7)).unwrap();
        let (data, meta) = nand.read(ppa).unwrap();
        assert_eq!(data, page(0xCD));
        assert_eq!(meta.lpa, 7);
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        let mut nand = instant_array();
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        let s0 = nand.program(ppa, page(1), oob(0)).unwrap();
        let s1 = nand.program(ppa.with_page(1), page(2), oob(1)).unwrap();
        assert_eq!(s0 + 1, s1);
        assert_eq!(nand.next_seq(), 2);
    }

    #[test]
    fn no_overwrite_in_place() {
        let mut nand = instant_array();
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        nand.program(ppa, page(1), oob(0)).unwrap();
        assert_eq!(
            nand.program(ppa, page(2), oob(0)),
            Err(NandError::ProgramOnProgrammed(ppa))
        );
    }

    #[test]
    fn programming_must_be_sequential_within_block() {
        let mut nand = instant_array();
        let ppa = Ppa::new(0, 0, 0, 0, 3);
        assert_eq!(
            nand.program(ppa, page(1), oob(0)),
            Err(NandError::NonSequentialProgram {
                requested: ppa,
                expected_page: 0
            })
        );
    }

    #[test]
    fn read_erased_fails() {
        let mut nand = instant_array();
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        assert_eq!(nand.read(ppa), Err(NandError::ReadOnErased(ppa)));
    }

    #[test]
    fn erase_frees_whole_block() {
        let mut nand = instant_array();
        let base = Ppa::new(0, 0, 0, 0, 0);
        for p in 0..8 {
            nand.program(base.with_page(p), page(p as u8), oob(p as u64))
                .unwrap();
        }
        assert_eq!(nand.block_state(base).unwrap(), BlockState::Full);
        nand.erase_block(base).unwrap();
        assert_eq!(nand.block_state(base).unwrap(), BlockState::Erased);
        assert_eq!(nand.page_state(base).unwrap(), PageState::Free);
        // Reprogrammable from page 0 again.
        nand.program(base, page(9), oob(9)).unwrap();
    }

    #[test]
    fn erase_counts_wear_and_block_goes_bad() {
        let mut nand = instant_array();
        nand.set_max_pe_cycles(2);
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        nand.erase_block(ppa).unwrap();
        assert_eq!(nand.pe_cycles(ppa).unwrap(), 1);
        nand.erase_block(ppa).unwrap();
        assert_eq!(nand.block_state(ppa).unwrap(), BlockState::Bad);
        assert_eq!(nand.erase_block(ppa), Err(NandError::BadBlock(ppa)));
        assert_eq!(
            nand.program(ppa, page(0), oob(0)),
            Err(NandError::BadBlock(ppa))
        );
    }

    #[test]
    fn wrong_page_size_rejected() {
        let mut nand = instant_array();
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        assert_eq!(
            nand.program(ppa, vec![0; 100], oob(0)),
            Err(NandError::WrongPageSize {
                got: 100,
                expected: 4096
            })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut nand = instant_array();
        let ppa = Ppa::new(9, 0, 0, 0, 0);
        assert_eq!(nand.read(ppa), Err(NandError::AddressOutOfRange(ppa)));
    }

    #[test]
    fn timing_advances_clock() {
        let clock = SimClock::new();
        let mut nand = NandArray::with_clock(
            FlashGeometry::small_test(),
            NandTiming::mlc_default(),
            clock.clone(),
        );
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        nand.program(ppa, page(1), oob(0)).unwrap();
        let after_program = clock.now_ns();
        assert_eq!(
            after_program,
            NandTiming::mlc_default().program_latency(4096)
        );
        nand.read(ppa).unwrap();
        assert!(clock.now_ns() > after_program);
    }

    #[test]
    fn async_dispatch_leaves_clock_still_until_sync() {
        let clock = SimClock::new();
        let mut nand = NandArray::with_clock(
            FlashGeometry::small_test(),
            NandTiming::mlc_default(),
            clock.clone(),
        );
        let t = NandTiming::mlc_default();
        // Two programs on different channels dispatched back to back.
        let (_, a) = nand
            .program_async(Ppa::new(0, 0, 0, 0, 0), page(1), oob(0))
            .unwrap();
        let (_, b) = nand
            .program_async(Ppa::new(1, 0, 0, 0, 0), page(2), oob(1))
            .unwrap();
        assert_eq!(clock.now_ns(), 0, "dispatch must not advance the clock");
        assert_eq!(a.done_ns, t.program_latency(4096));
        assert_eq!(b.done_ns, a.done_ns, "independent channels overlap");
        let end = nand.sync();
        assert_eq!(end, a.done_ns, "sync blocks on the horizon");
    }

    #[test]
    fn same_channel_chips_overlap_cell_phases() {
        let mut nand = NandArray::with_clock(
            FlashGeometry::small_test(),
            NandTiming::mlc_default(),
            SimClock::new(),
        );
        let t = NandTiming::mlc_default();
        // Chip 0 and chip 1 of channel 0: transfers serialize on the bus,
        // cell phases overlap.
        let (_, a) = nand
            .program_async(Ppa::new(0, 0, 0, 0, 0), page(1), oob(0))
            .unwrap();
        let (_, b) = nand
            .program_async(Ppa::new(0, 1, 0, 0, 0), page(2), oob(1))
            .unwrap();
        assert_eq!(a.done_ns, t.program_latency(4096));
        assert_eq!(b.done_ns, 2 * t.transfer_latency(4096) + t.program_ns);
        assert!(
            b.done_ns < 2 * t.program_latency(4096),
            "pipelined, not serial"
        );
    }

    #[test]
    fn program_async_after_defers_the_start() {
        let mut nand = NandArray::with_clock(
            FlashGeometry::small_test(),
            NandTiming::mlc_default(),
            SimClock::new(),
        );
        let (_, t) = nand
            .program_async_after(Ppa::new(0, 0, 0, 0, 0), page(1), oob(0), 1_000_000)
            .unwrap();
        assert_eq!(t.start_ns, 1_000_000);
    }

    #[test]
    fn channel_busy_stats_accumulate() {
        let mut nand = NandArray::with_clock(
            FlashGeometry::small_test(),
            NandTiming::mlc_default(),
            SimClock::new(),
        );
        nand.program(Ppa::new(0, 0, 0, 0, 0), page(1), oob(0))
            .unwrap();
        let busy = nand.stats().channel_busy_ns();
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[0], NandTiming::mlc_default().program_latency(4096));
        assert_eq!(busy[1], 0);
        let wall = nand.clock().now_ns();
        let util = nand.stats().channel_utilization(wall);
        assert!((util[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oob_carries_timestamp_and_seq() {
        let clock = SimClock::starting_at(1234);
        let mut nand =
            NandArray::with_clock(FlashGeometry::small_test(), NandTiming::instant(), clock);
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        nand.program(ppa, page(1), oob(5)).unwrap();
        let meta = nand.read_oob(ppa).unwrap();
        assert_eq!(meta.lpa, 5);
        assert_eq!(meta.timestamp_ns, 1234);
        assert_eq!(meta.seq, 0);
    }

    #[test]
    fn block_oobs_lists_programmed_pages() {
        let mut nand = instant_array();
        let base = Ppa::new(0, 0, 0, 0, 0);
        nand.program(base, page(1), oob(10)).unwrap();
        nand.program(base.with_page(1), page(2), oob(11)).unwrap();
        let oobs = nand.block_oobs(base).unwrap();
        assert_eq!(oobs.len(), 2);
        assert_eq!(oobs[0].1.lpa, 10);
        assert_eq!(oobs[1].1.lpa, 11);
    }

    #[test]
    fn stats_count_operations() {
        let mut nand = instant_array();
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        nand.program(ppa, page(1), oob(0)).unwrap();
        nand.read(ppa).unwrap();
        nand.erase_block(ppa).unwrap();
        assert_eq!(nand.stats().programs(), 1);
        assert_eq!(nand.stats().reads(), 1);
        assert_eq!(nand.stats().erases(), 1);
    }
}
