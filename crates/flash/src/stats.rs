//! Operation counters for the NAND array.

/// Counters of raw NAND operations and the simulated time they consumed.
///
/// The lifetime experiment (E4) reads erase counts from here; the performance
/// experiment (E3) compares busy time between device models; the queue-depth
/// sweep reports per-channel utilization (busy_ns / wall_ns) from the
/// channel-busy vector.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct NandStats {
    reads: u64,
    programs: u64,
    erases: u64,
    background_reads: u64,
    read_time_ns: u64,
    program_time_ns: u64,
    erase_time_ns: u64,
    /// Per-channel busy time: nanoseconds during which *any* unit of the
    /// channel (bus or a plane) was occupied (interval union, so pipelined
    /// overlap is not double-counted).
    channel_busy_ns: Vec<u64>,
}

impl NandStats {
    /// Creates counters for a device with `channels` channels.
    pub fn for_channels(channels: u32) -> Self {
        NandStats {
            channel_busy_ns: vec![0; channels as usize],
            ..NandStats::default()
        }
    }

    /// Number of page reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of page programs performed.
    pub fn programs(&self) -> u64 {
        self.programs
    }

    /// Number of block erases performed.
    pub fn erases(&self) -> u64 {
        self.erases
    }

    /// Total simulated device busy time (sum of nominal op latencies; with
    /// pipelining this exceeds wall time when units overlap).
    #[cfg(test)]
    fn total_busy_ns(&self) -> u64 {
        self.read_time_ns + self.program_time_ns + self.erase_time_ns
    }

    /// Background (offload-engine) page reads, scheduled into idle windows.
    pub fn background_reads(&self) -> u64 {
        self.background_reads
    }

    /// Per-channel busy time (interval union over the channel's units).
    pub fn channel_busy_ns(&self) -> &[u64] {
        &self.channel_busy_ns
    }

    /// Per-channel utilization over a wall-clock window of `wall_ns`
    /// simulated nanoseconds: busy_ns / wall_ns, each in `0.0..=1.0`.
    /// Empty when `wall_ns` is zero.
    pub fn channel_utilization(&self, wall_ns: u64) -> Vec<f64> {
        if wall_ns == 0 {
            return Vec::new();
        }
        self.channel_busy_ns
            .iter()
            .map(|&busy| (busy as f64 / wall_ns as f64).min(1.0))
            .collect()
    }

    /// Folds another device's counters into this one — the fleet rollup.
    ///
    /// Scalar counters and cumulative op times add. `channel_busy_ns` adds
    /// element-wise by channel index (the vector grows to the wider of the
    /// two devices): each entry is already an interval *union* over one
    /// device's own timeline, and two share-nothing devices live on
    /// independent simulated timelines, so there is no cross-device overlap
    /// to union away — the sum is the fleet's total busy time on channel
    /// `i`, and `merge` stays associative and commutative with
    /// [`NandStats::default`] as identity. (Within one device the union is
    /// computed at record time by the unit pipelines; `merge` must never be
    /// used to combine two snapshots of the *same* device's channels, which
    /// would double-count their shared timeline.)
    pub fn merge(&mut self, other: &NandStats) {
        self.reads += other.reads;
        self.programs += other.programs;
        self.erases += other.erases;
        self.background_reads += other.background_reads;
        self.read_time_ns += other.read_time_ns;
        self.program_time_ns += other.program_time_ns;
        self.erase_time_ns += other.erase_time_ns;
        if self.channel_busy_ns.len() < other.channel_busy_ns.len() {
            self.channel_busy_ns.resize(other.channel_busy_ns.len(), 0);
        }
        for (slot, &busy) in self.channel_busy_ns.iter_mut().zip(&other.channel_busy_ns) {
            *slot += busy;
        }
    }

    pub(crate) fn record_background_read(&mut self) {
        self.background_reads += 1;
    }

    pub(crate) fn record_read(&mut self, latency_ns: u64) {
        self.reads += 1;
        self.read_time_ns += latency_ns;
    }

    pub(crate) fn record_program(&mut self, latency_ns: u64) {
        self.programs += 1;
        self.program_time_ns += latency_ns;
    }

    pub(crate) fn record_erase(&mut self, latency_ns: u64) {
        self.erases += 1;
        self.erase_time_ns += latency_ns;
    }

    pub(crate) fn record_channel_busy(&mut self, channel: u32, covered_ns: u64) {
        if let Some(slot) = self.channel_busy_ns.get_mut(channel as usize) {
            *slot += covered_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NandStats::default();
        s.record_read(10);
        s.record_read(10);
        s.record_program(100);
        s.record_erase(1000);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.programs(), 1);
        assert_eq!(s.erases(), 1);
        assert_eq!(s.total_busy_ns(), 10 + 10 + 100 + 1000);
    }

    #[test]
    fn channel_busy_accumulates_per_channel() {
        let mut s = NandStats::for_channels(2);
        s.record_channel_busy(0, 100);
        s.record_channel_busy(0, 50);
        s.record_channel_busy(1, 10);
        assert_eq!(s.channel_busy_ns(), &[150, 10]);
        let util = s.channel_utilization(300);
        assert!((util[0] - 0.5).abs() < 1e-12);
        assert!((util[1] - 10.0 / 300.0).abs() < 1e-12);
        assert!(s.channel_utilization(0).is_empty());
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut s = NandStats::for_channels(1);
        s.record_channel_busy(0, 500);
        assert_eq!(s.channel_utilization(100), vec![1.0]);
    }

    fn sample(channels: u32, base: u64) -> NandStats {
        let mut s = NandStats::for_channels(channels);
        s.record_read(base);
        s.record_program(base * 2);
        s.record_erase(base * 3);
        s.record_background_read();
        for c in 0..channels {
            s.record_channel_busy(c, base + u64::from(c));
        }
        s
    }

    #[test]
    fn merge_identity() {
        let a = sample(4, 100);
        let mut merged = a.clone();
        merged.merge(&NandStats::default());
        assert_eq!(merged, a);
        let mut from_empty = NandStats::default();
        from_empty.merge(&a);
        assert_eq!(from_empty, a);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (sample(2, 10), sample(4, 100), sample(3, 1_000));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "merge must be commutative");
    }

    #[test]
    fn merge_widens_the_channel_vector() {
        let mut narrow = sample(1, 10);
        let wide = sample(3, 100);
        narrow.merge(&wide);
        assert_eq!(narrow.channel_busy_ns(), &[110, 101, 102]);
        assert_eq!(narrow.reads(), 2);
        assert_eq!(narrow.total_busy_ns(), 6 * 10 + 6 * 100);
    }
}
