//! The striped array device.
//!
//! [`RssdArray`] stripes one flat logical page space across N member
//! devices ([`StripeLayout`]) and implements [`BlockDevice`] itself, so it
//! drops behind the existing `NvmeController` — and every replay harness,
//! attack actor and example — unchanged. [`submit_batch`](BlockDevice::submit_batch)
//! is overridden to
//! split each arbitration batch per shard and dispatch the sub-batches
//! through the members' own `submit_batch`, so per-shard background work
//! (RSSD's coalesced offload flushes) still amortizes across the batch.
//!
//! # Time model
//!
//! Real array members execute in parallel. To model that on one logical
//! timeline, every member must own its **own** [`SimClock`]: before a
//! dispatch the array fast-forwards each participating member to the array
//! clock, lets the sub-batches execute (each member's clock advances
//! independently), then advances the array clock to the *maximum* member
//! time — the batch takes as long as its slowest shard, not the sum.
//! Members sharing one clock still compute correctly but serialize, hiding
//! the scaling the array exists to provide (see the `array_scaling` bench).
//!
//! # Failure and rebuild
//!
//! For arrays of RSSD members, [`fail_shard`](RssdArray::fail_shard) models
//! the total loss of one member's local half (controller, NAND, pending
//! log). The member's hardware-isolated remote retention store survives;
//! the array harvests it into a chain-verified [`RebuildImage`] — every
//! retained page version indexed, every verified segment's sealed bytes
//! kept and deciphered on the first read that lands in it, so the store
//! itself can be let go — and then:
//!
//! * serves **degraded reads** of the failed shard from the image — the
//!   newest retained version of each page (zeroes where nothing is
//!   retained). For a page the attack destroyed once that is its
//!   pre-attack content; a page hit *again* after the encrypting write
//!   serves the attacker's ciphertext, so point-in-time access goes
//!   through [`recover_before`](RssdArray::recover_before) —
//! * refuses writes and trims with [`DeviceError::ShardFailed`] until the
//!   shard is back, and
//! * [`begin_rebuild`](RssdArray::begin_rebuild) /
//!   [`rebuild_step`](RssdArray::rebuild_step) incrementally restore a
//!   replacement member from the image — optionally to a pre-attack
//!   point in time — bringing pages online in ascending order so the host
//!   regains write access region by region while reads of the uncopied
//!   tail keep coming from the remote image.

use crate::layout::StripeLayout;
use rssd_core::{
    CrashRecovery, CrashReport, HarvestReport, OffloadStats, RebuildImage, RemoteTarget, RssdDevice,
};
use rssd_flash::{NandStats, SimClock};
use rssd_ftl::FtlStats;
use rssd_ssd::{BlockDevice, CommandOutcome, CommandResult, DeviceError, IoCommand, LatencyStats};

/// Typed failures of the array lifecycle operations. Every condition the
/// fault injector can provoke — a second shard dying mid-rebuild, a
/// replacement refusing a restore write, a tampered salvage — surfaces as a
/// variant instead of a panic or an opaque string.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ArrayError {
    /// Shard index beyond the member count.
    NoSuchShard {
        /// The offending index.
        shard: usize,
        /// Members in the array.
        shards: usize,
    },
    /// The operation needs a live shard (e.g. failing it).
    ShardNotLive {
        /// The shard in question.
        shard: usize,
    },
    /// The operation needs a degraded shard (e.g. starting a rebuild).
    ShardNotDegraded {
        /// The shard in question.
        shard: usize,
    },
    /// The operation needs a rebuilding shard (e.g. stepping a rebuild).
    ShardNotRebuilding {
        /// The shard in question.
        shard: usize,
    },
    /// The failed member's surviving evidence chain did not verify; the
    /// shard went degraded over an *empty* image (a tampered store must not
    /// launder data into recovery).
    SalvageFailed {
        /// The shard whose salvage failed.
        shard: usize,
        /// First verification failure.
        detail: String,
    },
    /// The replacement device does not match the array geometry.
    ReplacementMismatch {
        /// What differs.
        detail: String,
    },
    /// The replacement refused a restore write mid-rebuild (e.g. its own
    /// remote is unreachable and it stalled). The shard stays `Rebuilding`
    /// at its current progress; the step can be retried once the cause
    /// clears, or the shard failed again.
    RestoreWriteFailed {
        /// The rebuilding shard.
        shard: usize,
        /// Member-local page whose restore failed.
        local_lpa: u64,
        /// The device error the replacement returned.
        error: DeviceError,
    },
    /// A member failed post-crash recovery (unreachable or tampered remote).
    MemberRecoveryFailed {
        /// The crashed member.
        shard: usize,
        /// The member's recovery error.
        detail: String,
    },
}

impl std::fmt::Display for ArrayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayError::NoSuchShard { shard, shards } => {
                write!(f, "no shard {shard} (array has {shards} members)")
            }
            ArrayError::ShardNotLive { shard } => write!(f, "shard {shard} is not live"),
            ArrayError::ShardNotDegraded { shard } => {
                write!(f, "shard {shard} is not degraded")
            }
            ArrayError::ShardNotRebuilding { shard } => {
                write!(f, "shard {shard} is not rebuilding")
            }
            ArrayError::SalvageFailed { shard, detail } => {
                write!(f, "salvage of shard {shard} failed verification: {detail}")
            }
            ArrayError::ReplacementMismatch { detail } => {
                write!(f, "replacement does not fit the array: {detail}")
            }
            ArrayError::RestoreWriteFailed {
                shard,
                local_lpa,
                error,
            } => write!(
                f,
                "shard {shard} rebuild: replacement refused restore write of \
                 local page {local_lpa}: {error}"
            ),
            ArrayError::MemberRecoveryFailed { shard, detail } => {
                write!(f, "shard {shard} failed post-crash recovery: {detail}")
            }
        }
    }
}

impl std::error::Error for ArrayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArrayError::RestoreWriteFailed { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// The surviving half of a failed member: the chain-verified image of its
/// remote retention store.
#[derive(Debug)]
struct SalvagedShard {
    image: RebuildImage,
}

impl SalvagedShard {
    /// Degraded read: the newest retained version, zeroes where the remote
    /// retains nothing (matching unmapped-read semantics).
    ///
    /// "Newest retained" equals the pre-attack content only for pages the
    /// attack destroyed exactly once; a page overwritten or trimmed *again*
    /// after the encrypting write has the attacker's ciphertext as its
    /// newest retained version. Point-in-time service of such pages goes
    /// through [`RssdArray::recover_before`] (and rebuilds pass a cut-off
    /// for the same reason).
    fn read(&self, local: u64, page_size: usize) -> Vec<u8> {
        self.image
            .newest(local)
            .map(<[u8]>::to_vec)
            .unwrap_or_else(|| vec![0u8; page_size])
    }
}

/// One member's lifecycle state.
#[derive(Debug)]
enum ShardState<D> {
    /// Healthy: all I/O goes to the device.
    Live(D),
    /// Local half lost; reads served from the salvaged remote image.
    Degraded(SalvagedShard),
    /// A replacement device is being restored from the salvage. Local LPAs
    /// below `copied` are online (reads and writes hit `device`); the rest
    /// still read from the salvage and refuse writes.
    Rebuilding {
        device: D,
        salvage: SalvagedShard,
        copied: u64,
        restored: u64,
        restore_before_ns: Option<u64>,
    },
}

/// Externally visible member state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStatus {
    /// Healthy.
    Live,
    /// Failed; serving degraded reads from the remote image.
    Degraded,
    /// Replacement being restored; `copied` of `total` local pages online.
    Rebuilding {
        /// Local pages brought online so far.
        copied: u64,
        /// Local pages per shard.
        total: u64,
    },
}

/// Progress of an incremental rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct RebuildProgress {
    /// Local pages brought online so far (cumulative).
    pub copied_pages: u64,
    /// Local pages per shard.
    pub total_pages: u64,
    /// Pages whose salvaged content was written into the replacement
    /// (cumulative; pages the remote retained nothing for come online
    /// empty).
    pub restored_pages: u64,
    /// `true` once the shard is live again.
    pub done: bool,
}

/// A striped array of block devices behind the single-device interface.
#[derive(Debug)]
pub struct RssdArray<D: BlockDevice> {
    shards: Vec<ShardState<D>>,
    layout: StripeLayout,
    clock: SimClock,
    page_size: usize,
    model_name: String,
}

impl<D: BlockDevice> RssdArray<D> {
    /// Assembles an array striping `stripe_pages` consecutive pages at a
    /// time across `shards`, on the array-level `clock`.
    ///
    /// Every member must export the same page size. The per-shard usable
    /// space is the smallest member's logical page count rounded down to a
    /// whole number of stripes. For the parallel time model each member
    /// should own its own [`SimClock`] (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics on an empty shard list, mismatched page sizes, a zero stripe
    /// size, or members too small to hold one stripe.
    pub fn new(shards: Vec<D>, stripe_pages: u64, clock: SimClock) -> Self {
        assert!(!shards.is_empty(), "array needs at least one shard");
        let page_size = shards[0].page_size();
        let mut min_pages = u64::MAX;
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(
                shard.page_size(),
                page_size,
                "shard {i} page size differs from shard 0"
            );
            min_pages = min_pages.min(shard.logical_pages());
            // The array timeline starts no earlier than any member's.
            clock.advance_to(shard.clock().now_ns());
        }
        let shard_pages = (min_pages / stripe_pages.max(1)) * stripe_pages.max(1);
        assert!(
            shard_pages > 0,
            "members too small: {min_pages} pages per shard cannot hold a \
             {stripe_pages}-page stripe"
        );
        let layout = StripeLayout::new(shards.len(), stripe_pages, shard_pages);
        let model_name = format!("RssdArray[{}x{}]", shards.len(), shards[0].model_name());
        RssdArray {
            shards: shards.into_iter().map(ShardState::Live).collect(),
            layout,
            clock,
            page_size,
            model_name,
        }
    }

    /// The stripe address translation in force.
    pub fn layout(&self) -> &StripeLayout {
        &self.layout
    }

    /// Number of members.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lifecycle state of member `shard`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard index.
    pub fn shard_status(&self, shard: usize) -> ShardStatus {
        match &self.shards[shard] {
            ShardState::Live(_) => ShardStatus::Live,
            ShardState::Degraded(_) => ShardStatus::Degraded,
            ShardState::Rebuilding { copied, .. } => ShardStatus::Rebuilding {
                copied: *copied,
                total: self.layout.shard_pages(),
            },
        }
    }

    /// `true` when every member is live.
    pub fn is_fully_live(&self) -> bool {
        self.shards.iter().all(|s| matches!(s, ShardState::Live(_)))
    }

    /// Shared access to a live member (the operator's console; `None` while
    /// the member is failed or rebuilding).
    pub fn shard(&self, shard: usize) -> Option<&D> {
        match &self.shards[shard] {
            ShardState::Live(d) => Some(d),
            _ => None,
        }
    }

    /// Mutable access to a live member (fault injection, per-shard stats).
    pub fn shard_mut(&mut self, shard: usize) -> Option<&mut D> {
        match &mut self.shards[shard] {
            ShardState::Live(d) => Some(d),
            _ => None,
        }
    }

    fn check_range(&self, lpa: u64) -> Result<(), DeviceError> {
        if lpa >= self.layout.logical_pages() {
            return Err(DeviceError::OutOfRange {
                lpa,
                logical_pages: self.layout.logical_pages(),
            });
        }
        Ok(())
    }

    /// Executes already-translated commands on one member, fast-forwarding
    /// it to `start_ns` first. Returns per-command `(result,
    /// completion_time)` pairs — member completion times are on the shared
    /// timeline because the member was fast-forwarded — and the member's
    /// end time (`start_ns` for salvage-served commands, which model a
    /// remote round trip outside the flash timeline).
    fn execute_local(
        state: &mut ShardState<D>,
        shard: usize,
        commands: Vec<IoCommand>,
        page_size: usize,
        start_ns: u64,
    ) -> (Vec<(CommandResult, u64)>, u64) {
        match state {
            ShardState::Live(device) => {
                device.clock().advance_to(start_ns);
                let results = device.submit_batch_timed(commands);
                let end = device.clock().now_ns();
                (results, end)
            }
            ShardState::Degraded(salvage) => {
                let results = commands
                    .into_iter()
                    .map(|command| {
                        let result = match command {
                            IoCommand::Read { lpa } => {
                                Ok(CommandOutcome::Read(salvage.read(lpa, page_size)))
                            }
                            IoCommand::Flush => Ok(CommandOutcome::Flushed),
                            IoCommand::Write { .. } | IoCommand::Trim { .. } => {
                                Err(DeviceError::ShardFailed { shard })
                            }
                        };
                        (result, start_ns)
                    })
                    .collect();
                (results, start_ns)
            }
            ShardState::Rebuilding {
                device,
                salvage,
                copied,
                ..
            } => {
                device.clock().advance_to(start_ns);
                // Online-region commands (and Flush barriers) keep their
                // relative order in one native device batch, preserving the
                // member's batch amortization through the rebuild window.
                // Offline commands are answered from the salvage image,
                // which is immutable and disjoint from the online region
                // (writes beyond `copied` are refused), so extracting them
                // does not reorder anything observable.
                let mut results: Vec<Option<(CommandResult, u64)>> =
                    Vec::with_capacity(commands.len());
                let mut online_slots = Vec::new();
                let mut online_commands = Vec::new();
                for (slot, command) in commands.into_iter().enumerate() {
                    let online = match command.lpa() {
                        Some(local) => local < *copied,
                        None => true, // Flush is the device's barrier
                    };
                    if online {
                        results.push(None);
                        online_slots.push(slot);
                        online_commands.push(command);
                    } else {
                        let result = match command {
                            IoCommand::Read { lpa } => {
                                Ok(CommandOutcome::Read(salvage.read(lpa, page_size)))
                            }
                            _ => Err(DeviceError::ShardFailed { shard }),
                        };
                        results.push(Some((result, start_ns)));
                    }
                }
                if !online_commands.is_empty() {
                    let online_results = device.submit_batch_timed(online_commands);
                    debug_assert_eq!(online_results.len(), online_slots.len());
                    for (slot, result) in online_slots.into_iter().zip(online_results) {
                        results[slot] = Some(result);
                    }
                }
                let results = results
                    .into_iter()
                    .map(|r| r.expect("every slot filled"))
                    .collect();
                let end = device.clock().now_ns();
                (results, end)
            }
        }
    }

    /// Dispatches the per-shard buckets accumulated by `submit_batch_timed`
    /// "in parallel": every participating member starts at the same array
    /// time, per-command completion times are the members' own (so
    /// commands complete out of order across shards), and the array clock
    /// advances to the slowest member's end.
    fn dispatch(
        &mut self,
        pending: &mut [Vec<(usize, IoCommand)>],
        results: &mut [Option<(CommandResult, u64)>],
    ) {
        let start = self.clock.now_ns();
        let page_size = self.page_size;
        let mut end = start;
        for (shard, bucket) in pending.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let (slots, commands): (Vec<usize>, Vec<IoCommand>) =
                std::mem::take(bucket).into_iter().unzip();
            let (shard_results, shard_end) =
                Self::execute_local(&mut self.shards[shard], shard, commands, page_size, start);
            debug_assert_eq!(shard_results.len(), slots.len());
            for (slot, result) in slots.into_iter().zip(shard_results) {
                results[slot] = Some(result);
            }
            end = end.max(shard_end);
        }
        self.clock.advance_to(end);
    }

    /// Swaps `shard`'s state out for a transition, leaving an empty
    /// degraded placeholder behind; callers install the real successor
    /// state immediately.
    fn take_state(&mut self, shard: usize) -> ShardState<D> {
        std::mem::replace(
            &mut self.shards[shard],
            ShardState::Degraded(SalvagedShard {
                image: RebuildImage::empty(),
            }),
        )
    }

    /// Translates an array command to its member-local form.
    fn to_local(command: IoCommand, local: u64) -> IoCommand {
        match command {
            IoCommand::Read { .. } => IoCommand::Read { lpa: local },
            IoCommand::Write { data, .. } => IoCommand::Write { lpa: local, data },
            IoCommand::Trim { .. } => IoCommand::Trim { lpa: local },
            IoCommand::Flush => IoCommand::Flush,
        }
    }

    /// A `Flush` is a barrier across every reachable member, in parallel
    /// time.
    fn flush_members(&mut self) -> Result<(), DeviceError> {
        let start = self.clock.now_ns();
        let mut end = start;
        let mut first_err = None;
        for state in &mut self.shards {
            match state {
                ShardState::Live(device) | ShardState::Rebuilding { device, .. } => {
                    device.clock().advance_to(start);
                    if let (Err(e), None) = (device.flush(), first_err.as_ref()) {
                        first_err = Some(e);
                    }
                    end = end.max(device.clock().now_ns());
                }
                // A failed member has nothing buffered to flush.
                ShardState::Degraded(_) => {}
            }
        }
        self.clock.advance_to(end);
        first_err.map_or(Ok(()), Err)
    }
}

impl<D: BlockDevice> BlockDevice for RssdArray<D> {
    fn model_name(&self) -> &str {
        &self.model_name
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn logical_pages(&self) -> u64 {
        self.layout.logical_pages()
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Splits the batch per shard (preserving per-shard command order) and
    /// dispatches the sub-batches through each member's native
    /// `submit_batch_timed`, so member-level pipelining and batching
    /// amortizations still apply; completion times are the members' own,
    /// so commands complete out of order across (and within) shards.
    /// `Flush` is a barrier: buckets accumulated so far are dispatched,
    /// then every member flushes, then splitting resumes.
    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
        let total = commands.len();
        let mut results: Vec<Option<(CommandResult, u64)>> = (0..total).map(|_| None).collect();
        let mut pending: Vec<Vec<(usize, IoCommand)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (slot, command) in commands.into_iter().enumerate() {
            match command.lpa() {
                None => {
                    self.dispatch(&mut pending, &mut results);
                    let flushed = self.flush_members().map(|()| CommandOutcome::Flushed);
                    results[slot] = Some((flushed, self.clock.now_ns()));
                }
                Some(lpa) => {
                    if let Err(e) = self.check_range(lpa) {
                        results[slot] = Some((Err(e), self.clock.now_ns()));
                        continue;
                    }
                    let (shard, local) = self.layout.locate(lpa);
                    pending[shard].push((slot, Self::to_local(command, local)));
                }
            }
        }
        self.dispatch(&mut pending, &mut results);
        results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    fn recover_page(&mut self, lpa: u64) -> Option<Vec<u8>> {
        if lpa >= self.layout.logical_pages() {
            return None;
        }
        let (shard, local) = self.layout.locate(lpa);
        match &mut self.shards[shard] {
            ShardState::Live(device) => device.recover_page(local),
            ShardState::Degraded(salvage) => salvage.image.newest(local).map(<[u8]>::to_vec),
            ShardState::Rebuilding {
                device, salvage, ..
            } => device
                .recover_page(local)
                .or_else(|| salvage.image.newest(local).map(<[u8]>::to_vec)),
        }
    }
}

impl<R: RemoteTarget> RssdArray<RssdDevice<R>> {
    fn check_shard(&self, shard: usize) -> Result<(), ArrayError> {
        if shard >= self.shards.len() {
            return Err(ArrayError::NoSuchShard {
                shard,
                shards: self.shards.len(),
            });
        }
        Ok(())
    }

    /// Kills member `shard`: its local half (controller, NAND, pinned pages,
    /// pending log) is gone. The member's remote retention store is
    /// harvested into a chain-verified [`RebuildImage`], which needs nothing
    /// of the store afterwards (it is dropped here), and the shard goes
    /// degraded — reads served from the image, writes refused.
    ///
    /// A *rebuilding* shard can fail again (the double-failure case the
    /// fault injector provokes): the replacement is lost and the shard
    /// falls back to degraded service over its original salvage image —
    /// progress is discarded, data is not.
    ///
    /// # Errors
    ///
    /// [`ArrayError::ShardNotLive`] when the shard is already degraded, or
    /// [`ArrayError::SalvageFailed`] when the surviving evidence chain fails
    /// verification (the shard still goes degraded, but over an empty
    /// image: a tampered store must not launder data into recovery).
    pub fn fail_shard(&mut self, shard: usize) -> Result<HarvestReport, ArrayError> {
        self.check_shard(shard)?;
        match self.shards[shard] {
            ShardState::Live(_) => {
                let ShardState::Live(device) = self.take_state(shard) else {
                    unreachable!("liveness checked above")
                };
                let keys = device.escrow_keys();
                let mut remote = device.into_remote();
                let image = RebuildImage::harvest(&keys, &mut remote)
                    .map_err(|detail| ArrayError::SalvageFailed { shard, detail })?;
                let report = image.report();
                self.shards[shard] = ShardState::Degraded(SalvagedShard { image });
                Ok(report)
            }
            ShardState::Rebuilding { .. } => {
                // Second failure mid-rebuild: the replacement dies too. The
                // original salvage image still covers everything the first
                // failure salvaged, so degraded reads keep flowing from it.
                let ShardState::Rebuilding { salvage, .. } = self.take_state(shard) else {
                    unreachable!("rebuilding state matched above")
                };
                let report = salvage.image.report();
                self.shards[shard] = ShardState::Degraded(salvage);
                Ok(report)
            }
            ShardState::Degraded(_) => Err(ArrayError::ShardNotLive { shard }),
        }
    }

    /// Simulated power loss of the whole enclosure: every reachable member
    /// crashes (volatile controller state dropped — see
    /// [`RssdDevice::crash`]). Degraded members have no local half left to
    /// crash; their salvage images are remote-derived and survive. Returns
    /// the fleet-summed crash report.
    pub fn crash(&mut self) -> CrashReport {
        let mut merged = CrashReport::default();
        for state in &mut self.shards {
            if let ShardState::Live(d) | ShardState::Rebuilding { device: d, .. } = state {
                merged.merge(&d.crash());
            }
        }
        merged
    }

    /// Recovers every crashed member (see [`RssdDevice::recover`]),
    /// returning fleet-summed recovery counters.
    ///
    /// # Errors
    ///
    /// [`ArrayError::MemberRecoveryFailed`] naming the first member whose
    /// remote was unreachable or failed chain verification; members before
    /// it are recovered, members after it remain crashed.
    pub fn recover(&mut self) -> Result<CrashRecovery, ArrayError> {
        let mut merged = CrashRecovery::default();
        for (shard, state) in self.shards.iter_mut().enumerate() {
            if let ShardState::Live(d) | ShardState::Rebuilding { device: d, .. } = state {
                if !d.is_crashed() {
                    continue;
                }
                let r = d
                    .recover()
                    .map_err(|detail| ArrayError::MemberRecoveryFailed { shard, detail })?;
                merged.merge(&r);
            }
        }
        Ok(merged)
    }

    /// Starts rebuilding a degraded shard onto `replacement` (a fresh RSSD
    /// member with its own clock and remote target). With
    /// `restore_before_ns` the shard is restored to the state valid just
    /// before that time (point-in-time, pre-attack); otherwise each page
    /// gets its newest retained version.
    ///
    /// # Errors
    ///
    /// [`ArrayError::ShardNotDegraded`] when the shard is live or already
    /// rebuilding, [`ArrayError::ReplacementMismatch`] when the replacement
    /// does not match the array geometry.
    pub fn begin_rebuild(
        &mut self,
        shard: usize,
        replacement: RssdDevice<R>,
        restore_before_ns: Option<u64>,
    ) -> Result<(), ArrayError> {
        self.check_shard(shard)?;
        if !matches!(self.shards[shard], ShardState::Degraded(_)) {
            return Err(ArrayError::ShardNotDegraded { shard });
        }
        if replacement.page_size() != self.page_size {
            return Err(ArrayError::ReplacementMismatch {
                detail: format!(
                    "page size {} differs from the array's {}",
                    replacement.page_size(),
                    self.page_size
                ),
            });
        }
        if replacement.logical_pages() < self.layout.shard_pages() {
            return Err(ArrayError::ReplacementMismatch {
                detail: format!(
                    "exports {} pages, shard needs {}",
                    replacement.logical_pages(),
                    self.layout.shard_pages()
                ),
            });
        }
        replacement.clock().advance_to(self.clock.now_ns());
        let ShardState::Degraded(salvage) = self.take_state(shard) else {
            unreachable!("degradedness checked above")
        };
        self.shards[shard] = ShardState::Rebuilding {
            device: replacement,
            salvage,
            copied: 0,
            restored: 0,
            restore_before_ns,
        };
        Ok(())
    }

    /// Restores up to `pages` more local pages of a rebuilding shard, in
    /// ascending order. Restored regions come online immediately (reads and
    /// writes hit the replacement); the uncopied tail keeps serving
    /// degraded reads. When the last page is copied the shard goes live.
    ///
    /// The restore writes go through the replacement's normal write path,
    /// so the rebuild itself is logged in the new member's evidence chain.
    ///
    /// # Errors
    ///
    /// [`ArrayError::ShardNotRebuilding`] when no rebuild is in progress,
    /// or [`ArrayError::RestoreWriteFailed`] when the replacement refuses a
    /// restore write (it may have stalled on its own unreachable remote).
    /// After the latter the shard *stays* rebuilding at its last good page —
    /// the step is retryable, or the shard can be failed again.
    pub fn rebuild_step(
        &mut self,
        shard: usize,
        pages: u64,
    ) -> Result<RebuildProgress, ArrayError> {
        self.check_shard(shard)?;
        let total = self.layout.shard_pages();
        let start = self.clock.now_ns();
        let progress = match &mut self.shards[shard] {
            ShardState::Rebuilding {
                device,
                salvage,
                copied,
                restored,
                restore_before_ns,
            } => {
                device.clock().advance_to(start);
                let target = (*copied + pages).min(total);
                let mut failed = None;
                while *copied < target {
                    let local = *copied;
                    let data = match restore_before_ns {
                        Some(t) => salvage.image.version_before(local, *t),
                        None => salvage.image.newest(local),
                    };
                    if let Some(data) = data {
                        if let Err(error) = device.write_page(local, data.to_vec()) {
                            failed = Some(ArrayError::RestoreWriteFailed {
                                shard,
                                local_lpa: local,
                                error,
                            });
                            break;
                        }
                        *restored += 1;
                    }
                    *copied += 1;
                }
                self.clock.advance_to(device.clock().now_ns());
                if let Some(e) = failed {
                    return Err(e);
                }
                RebuildProgress {
                    copied_pages: *copied,
                    total_pages: total,
                    restored_pages: *restored,
                    done: *copied == total,
                }
            }
            _ => return Err(ArrayError::ShardNotRebuilding { shard }),
        };
        if progress.done {
            let ShardState::Rebuilding { device, .. } = self.take_state(shard) else {
                unreachable!("rebuilding state matched above")
            };
            self.shards[shard] = ShardState::Live(device);
        }
        Ok(progress)
    }

    /// One-shot rebuild: [`begin_rebuild`](Self::begin_rebuild) plus steps
    /// to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`begin_rebuild`](Self::begin_rebuild) errors.
    pub fn rebuild(
        &mut self,
        shard: usize,
        replacement: RssdDevice<R>,
        restore_before_ns: Option<u64>,
    ) -> Result<RebuildProgress, ArrayError> {
        self.begin_rebuild(shard, replacement, restore_before_ns)?;
        self.rebuild_step(shard, self.layout.shard_pages())
    }

    /// Point-in-time recovery across the whole array: the version of `lpa`
    /// valid at `before_ns`, wherever it lives — a live member's
    /// local+remote index, or a failed member's salvaged image. The arms
    /// pick the source; the rule is one (see
    /// [`RssdDevice::recover_page_before`]), so a shard answers the same
    /// for its offloaded history before and after it dies.
    pub fn recover_before(&mut self, lpa: u64, before_ns: u64) -> Option<Vec<u8>> {
        if lpa >= self.layout.logical_pages() {
            return None;
        }
        let (shard, local) = self.layout.locate(lpa);
        match &mut self.shards[shard] {
            ShardState::Live(device) => device.recover_page_before(local, before_ns),
            ShardState::Degraded(salvage) | ShardState::Rebuilding { salvage, .. } => salvage
                .image
                .version_before(local, before_ns)
                .map(<[u8]>::to_vec),
        }
    }

    /// Fleet-wide offload counters, merged across reachable members.
    pub fn offload_stats(&self) -> OffloadStats {
        let mut merged = OffloadStats::default();
        for state in &self.shards {
            if let ShardState::Live(d) | ShardState::Rebuilding { device: d, .. } = state {
                merged.merge(&d.offload_stats());
            }
        }
        merged
    }

    /// Total evidence-chain records across reachable members.
    pub fn chain_len(&self) -> u64 {
        self.shards
            .iter()
            .map(|state| match state {
                ShardState::Live(d) | ShardState::Rebuilding { device: d, .. } => d.chain_len(),
                ShardState::Degraded(_) => 0,
            })
            .sum()
    }

    /// Fleet-wide NAND counters, merged across reachable members via
    /// [`NandStats::merge`] — each member's channel-busy vector adds by
    /// channel index, so per-channel utilization stays meaningful for a
    /// homogeneous array.
    pub fn nand_stats(&self) -> NandStats {
        let mut merged = NandStats::default();
        for state in &self.shards {
            if let ShardState::Live(d) | ShardState::Rebuilding { device: d, .. } = state {
                merged.merge(d.nand_stats());
            }
        }
        merged
    }

    /// Fleet-wide FTL counters, merged across reachable members via
    /// [`FtlStats::merge`]; the merged write-amplification is the
    /// page-weighted aggregate.
    pub fn ftl_stats(&self) -> FtlStats {
        let mut merged = FtlStats::default();
        for state in &self.shards {
            if let ShardState::Live(d) | ShardState::Rebuilding { device: d, .. } = state {
                merged.merge(d.ftl_stats());
            }
        }
        merged
    }

    /// Fleet-wide device-side latency distribution, merged across reachable
    /// members.
    pub fn latency(&self) -> LatencyStats {
        let mut merged = LatencyStats::new();
        for state in &self.shards {
            if let ShardState::Live(d) | ShardState::Rebuilding { device: d, .. } = state {
                merged.merge(d.latency());
            }
        }
        merged
    }
}
