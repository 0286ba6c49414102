//! NAND timing model and the device-internal parallelism pipelines.
//!
//! Latencies follow the MLC-class parts on the Cosmos+ OpenSSD board the
//! paper uses. Scheduling models the two resources a real flash package
//! exposes:
//!
//! * **the channel bus** — one transfer at a time per channel (data in for
//!   programs, data out for reads), and
//! * **the plane cell arrays** — each plane executes one cell operation
//!   (read / program / erase) at a time; sibling planes of a chip overlap,
//!   which is the simulator's rendering of multi-plane program/read
//!   grouping (the staged transfers serialize on the bus, the cell phases
//!   run concurrently).
//!
//! Operations are *dispatched*: the scheduler picks the earliest start the
//! involved units allow (`max(now, unit busy horizons)`) and returns an
//! [`OpTicket`] with the completion time. Nothing here advances the shared
//! [`SimClock`](crate::SimClock) — the clock only moves when a caller
//! *blocks* on a completion (the scalar `NandArray` methods do; the batched
//! device paths block once per batch on the latest ticket). That is what
//! lets independent channels, chips and planes genuinely overlap.

/// Latency parameters for the simulated NAND.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NandTiming {
    /// Page read (cell-to-register) latency in nanoseconds.
    pub read_ns: u64,
    /// Page program latency in nanoseconds.
    pub program_ns: u64,
    /// Block erase latency in nanoseconds.
    pub erase_ns: u64,
    /// Channel transfer time per byte in nanoseconds (bus bandwidth).
    pub transfer_ns_per_byte: u64,
}

impl NandTiming {
    /// MLC-class defaults: 50 µs read, 500 µs program, 3.5 ms erase,
    /// 400 MB/s channel (2.5 ns/byte).
    pub fn mlc_default() -> Self {
        NandTiming {
            read_ns: 50_000,
            program_ns: 500_000,
            erase_ns: 3_500_000,
            transfer_ns_per_byte: 3,
        }
    }

    /// Zero-latency timing for functional tests where time is irrelevant.
    pub fn instant() -> Self {
        NandTiming {
            read_ns: 0,
            program_ns: 0,
            erase_ns: 0,
            transfer_ns_per_byte: 0,
        }
    }

    /// Total latency of reading one page of `page_size` bytes over the bus.
    pub fn read_latency(&self, page_size: usize) -> u64 {
        self.read_ns + self.transfer_ns_per_byte * page_size as u64
    }

    /// Total latency of programming one page of `page_size` bytes.
    pub fn program_latency(&self, page_size: usize) -> u64 {
        self.program_ns + self.transfer_ns_per_byte * page_size as u64
    }

    /// Latency of erasing one block.
    pub fn erase_latency(&self) -> u64 {
        self.erase_ns
    }

    /// Bus time for one page of `page_size` bytes.
    pub fn transfer_latency(&self, page_size: usize) -> u64 {
        self.transfer_ns_per_byte * page_size as u64
    }
}

impl Default for NandTiming {
    fn default() -> Self {
        Self::mlc_default()
    }
}

/// A scheduled operation: when it starts occupying its first unit and when
/// its result is available to the host side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct OpTicket {
    /// Simulated time the operation first occupies a unit.
    pub start_ns: u64,
    /// Simulated time the operation completes (data transferred / cell
    /// operation finished).
    pub done_ns: u64,
}

impl OpTicket {
    /// A zero-duration ticket at `now_ns` (e.g. an unmapped read served
    /// from the mapping table without touching flash).
    pub fn instant(now_ns: u64) -> Self {
        OpTicket {
            start_ns: now_ns,
            done_ns: now_ns,
        }
    }

    /// Service time of the operation, queueing included.
    pub fn latency_ns(&self, dispatched_at_ns: u64) -> u64 {
        self.done_ns.saturating_sub(dispatched_at_ns)
    }
}

/// Merged busy windows retained per channel for the interval union; the
/// oldest fold away once the list grows past this (an op landing inside a
/// folded window would double-count, but dispatch skew is bounded — GC
/// schedules at most a block's worth ahead — so old windows are dead).
const MERGE_WINDOW: usize = 64;

/// Busy horizons of the device's internal units: one bus per channel, one
/// cell engine per plane. See the module docs for the model.
#[derive(Clone, Debug)]
pub(crate) struct UnitPipelines {
    chips_per_channel: u32,
    planes_per_chip: u32,
    /// Per-channel bus horizon (transfers serialize per channel).
    bus_busy_ns: Vec<u64>,
    /// Per-plane cell horizon (one cell op at a time per plane).
    plane_busy_ns: Vec<u64>,
    /// Per-channel sorted disjoint busy windows, for utilization
    /// accounting (the channel counts busy while *any* of its units
    /// works). Kept as intervals — not a scalar frontier — because ops
    /// dispatch out of time order (GC copy-backs start in the future) and
    /// must still union exactly.
    busy_windows: Vec<Vec<(u64, u64)>>,
}

impl UnitPipelines {
    pub(crate) fn new(channels: u32, chips_per_channel: u32, planes_per_chip: u32) -> Self {
        let planes = (channels * chips_per_channel * planes_per_chip) as usize;
        UnitPipelines {
            chips_per_channel,
            planes_per_chip,
            bus_busy_ns: vec![0; channels as usize],
            plane_busy_ns: vec![0; planes],
            busy_windows: vec![Vec::new(); channels as usize],
        }
    }

    fn plane_index(&self, channel: u32, chip: u32, plane: u32) -> usize {
        ((channel * self.chips_per_channel + chip) * self.planes_per_chip + plane) as usize
    }

    /// Read: cell phase on the plane, then data out over the channel bus.
    /// Returns the ticket and the newly covered channel-busy nanoseconds.
    pub(crate) fn dispatch_read(
        &mut self,
        channel: u32,
        chip: u32,
        plane: u32,
        earliest_ns: u64,
        cell_ns: u64,
        transfer_ns: u64,
    ) -> (OpTicket, u64) {
        let p = self.plane_index(channel, chip, plane);
        let cell_start = earliest_ns.max(self.plane_busy_ns[p]);
        let cell_done = cell_start + cell_ns;
        self.plane_busy_ns[p] = cell_done;
        let xfer_start = cell_done.max(self.bus_busy_ns[channel as usize]);
        let done = xfer_start + transfer_ns;
        self.bus_busy_ns[channel as usize] = done;
        let covered = self.cover(channel, cell_start, done);
        (
            OpTicket {
                start_ns: cell_start,
                done_ns: done,
            },
            covered,
        )
    }

    /// Program: data in over the channel bus, then the cell phase on the
    /// plane. Sibling planes overlap cell phases (multi-plane grouping);
    /// the same plane serializes.
    pub(crate) fn dispatch_program(
        &mut self,
        channel: u32,
        chip: u32,
        plane: u32,
        earliest_ns: u64,
        cell_ns: u64,
        transfer_ns: u64,
    ) -> (OpTicket, u64) {
        let p = self.plane_index(channel, chip, plane);
        let xfer_start = earliest_ns.max(self.bus_busy_ns[channel as usize]);
        let xfer_done = xfer_start + transfer_ns;
        self.bus_busy_ns[channel as usize] = xfer_done;
        let cell_start = xfer_done.max(self.plane_busy_ns[p]);
        let done = cell_start + cell_ns;
        self.plane_busy_ns[p] = done;
        let covered = self.cover(channel, xfer_start, done);
        (
            OpTicket {
                start_ns: xfer_start,
                done_ns: done,
            },
            covered,
        )
    }

    /// Erase: cell phase only, no bus transfer.
    pub(crate) fn dispatch_erase(
        &mut self,
        channel: u32,
        chip: u32,
        plane: u32,
        earliest_ns: u64,
        cell_ns: u64,
    ) -> (OpTicket, u64) {
        let p = self.plane_index(channel, chip, plane);
        let start = earliest_ns.max(self.plane_busy_ns[p]);
        let done = start + cell_ns;
        self.plane_busy_ns[p] = done;
        let covered = self.cover(channel, start, done);
        (
            OpTicket {
                start_ns: start,
                done_ns: done,
            },
            covered,
        )
    }

    /// Earliest time a new cell operation could start on `channel` (the
    /// freest plane's horizon) — the idleness signal GC uses to place
    /// copy-backs.
    pub(crate) fn channel_next_free_ns(&self, channel: u32) -> u64 {
        let per_channel = (self.chips_per_channel * self.planes_per_chip) as usize;
        let base = channel as usize * per_channel;
        self.plane_busy_ns[base..base + per_channel]
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
    }

    /// Extends the channel's busy coverage by `[start, done)`, returning
    /// the nanoseconds not already covered. Exact interval union over the
    /// retained windows (merging handles out-of-order dispatch, e.g. a GC
    /// copy-back scheduled into the future followed by a host op at now).
    fn cover(&mut self, channel: u32, start_ns: u64, done_ns: u64) -> u64 {
        if done_ns <= start_ns {
            return 0;
        }
        let windows = &mut self.busy_windows[channel as usize];
        // First window that ends at or after our start (touching merges).
        let lo = windows.partition_point(|&(_, end)| end < start_ns);
        let mut new_start = start_ns;
        let mut new_end = done_ns;
        let mut overlapped = 0u64;
        let mut hi = lo;
        while hi < windows.len() && windows[hi].0 <= new_end {
            new_start = new_start.min(windows[hi].0);
            new_end = new_end.max(windows[hi].1);
            overlapped += windows[hi].1 - windows[hi].0;
            hi += 1;
        }
        let added = (new_end - new_start) - overlapped;
        windows.splice(lo..hi, [(new_start, new_end)]);
        if windows.len() > MERGE_WINDOW {
            // Their lengths are already counted; dropping them only risks
            // double-counting an op that lands inside a long-dead window.
            let excess = windows.len() - MERGE_WINDOW;
            windows.drain(..excess);
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipelines() -> UnitPipelines {
        // 2 channels × 2 chips × 2 planes.
        UnitPipelines::new(2, 2, 2)
    }

    #[test]
    fn latencies_include_transfer() {
        let t = NandTiming::mlc_default();
        assert_eq!(t.read_latency(4096), 50_000 + 3 * 4096);
        assert_eq!(t.program_latency(4096), 500_000 + 3 * 4096);
        assert_eq!(t.erase_latency(), 3_500_000);
        assert_eq!(t.transfer_latency(4096), 3 * 4096);
    }

    #[test]
    fn same_plane_serializes() {
        let mut p = pipelines();
        let (a, _) = p.dispatch_program(0, 0, 0, 0, 100, 10);
        let (b, _) = p.dispatch_program(0, 0, 0, 0, 100, 10);
        assert_eq!(a.done_ns, 110);
        // Second transfer starts after the first (bus), its cell after the
        // first cell completes (same plane).
        assert_eq!(b.done_ns, 210);
    }

    #[test]
    fn sibling_planes_overlap_cell_phases() {
        let mut p = pipelines();
        let (a, _) = p.dispatch_program(0, 0, 0, 0, 100, 10);
        let (b, _) = p.dispatch_program(0, 0, 1, 0, 100, 10);
        assert_eq!(a.done_ns, 110);
        // Transfer staged behind the first on the shared bus, then the cell
        // phase runs concurrently on the sibling plane: 20 + 100.
        assert_eq!(b.done_ns, 120, "multi-plane grouping overlaps cells");
    }

    #[test]
    fn independent_channels_fully_overlap() {
        let mut p = pipelines();
        let (a, _) = p.dispatch_program(0, 0, 0, 0, 100, 10);
        let (b, _) = p.dispatch_program(1, 0, 0, 0, 100, 10);
        assert_eq!(a.done_ns, b.done_ns);
    }

    #[test]
    fn reads_pipeline_cell_then_bus() {
        let mut p = pipelines();
        // Two reads on sibling planes: cells overlap, transfers serialize.
        let (a, _) = p.dispatch_read(0, 0, 0, 0, 100, 10);
        let (b, _) = p.dispatch_read(0, 0, 1, 0, 100, 10);
        assert_eq!(a.done_ns, 110);
        assert_eq!(b.done_ns, 120);
    }

    #[test]
    fn dispatch_respects_earliest() {
        let mut p = pipelines();
        let (a, _) = p.dispatch_program(0, 0, 0, 500, 100, 10);
        assert_eq!(a.start_ns, 500);
        assert_eq!(a.done_ns, 610);
    }

    #[test]
    fn erase_occupies_plane_only() {
        let mut p = pipelines();
        let (e, _) = p.dispatch_erase(0, 0, 0, 0, 1_000);
        // The bus is free: a sibling-plane program's transfer is not
        // delayed by the erase.
        let (b, _) = p.dispatch_program(0, 0, 1, 0, 100, 10);
        assert_eq!(e.done_ns, 1_000);
        assert_eq!(b.done_ns, 110);
        // Same plane as the erase: the transfer overlaps the erase, the
        // cell phase serializes behind it.
        let (c, _) = p.dispatch_program(0, 0, 0, 0, 100, 10);
        assert_eq!(c.done_ns, 1_100);
    }

    #[test]
    fn channel_next_free_tracks_the_freest_plane() {
        let mut p = pipelines();
        let _ = p.dispatch_erase(0, 0, 0, 0, 1_000);
        assert_eq!(p.channel_next_free_ns(0), 0, "three planes still idle");
        assert_eq!(p.channel_next_free_ns(1), 0);
        let _ = p.dispatch_erase(0, 0, 1, 0, 1_000);
        let _ = p.dispatch_erase(0, 1, 0, 0, 1_000);
        let _ = p.dispatch_erase(0, 1, 1, 0, 1_000);
        assert_eq!(p.channel_next_free_ns(0), 1_000, "whole channel busy");
    }

    #[test]
    fn coverage_counts_busy_once_per_channel() {
        let mut p = pipelines();
        let (_, c1) = p.dispatch_program(0, 0, 0, 0, 100, 10);
        assert_eq!(c1, 110);
        // Overlapping sibling-plane op only adds the uncovered tail.
        let (b, c2) = p.dispatch_program(0, 0, 1, 0, 100, 10);
        assert_eq!(b.done_ns, 120);
        assert_eq!(c2, 10);
    }

    #[test]
    fn coverage_is_exact_under_out_of_order_dispatch() {
        // A GC copy-back scheduled into the future (program_async_after)
        // must not swallow the coverage of a host op dispatched at `now`
        // afterwards — the regression the scalar frontier had.
        let mut p = pipelines();
        // Future program on plane 0: transfer [10_000, 10_010), cell to
        // 10_110 — covers 110 ns.
        let (fut, c1) = p.dispatch_program(0, 0, 0, 10_000, 100, 10);
        assert_eq!(fut.done_ns, 10_110);
        assert_eq!(c1, 110);
        // Host erase at now on plane 1: [0, 1_000) is genuinely busy time
        // and must count in full despite starting before the future window.
        let (_, c2) = p.dispatch_erase(0, 0, 1, 0, 1_000);
        assert_eq!(c2, 1_000, "out-of-order interval must still be counted");
        // Overlapping the future window counts only the uncovered part.
        let (_, c3) = p.dispatch_erase(0, 1, 0, 10_050, 100);
        assert_eq!(c3, 40, "only the tail past 10_110 is new");
    }

    #[test]
    fn op_ticket_latency_is_relative_to_dispatch() {
        let t = OpTicket {
            start_ns: 50,
            done_ns: 150,
        };
        assert_eq!(t.latency_ns(40), 110);
        assert_eq!(OpTicket::instant(99).latency_ns(99), 0);
    }
}
