//! The production-shaped stack the device workloads run on, and the
//! forwarding wrappers that time it from outside.
//!
//! `NvmeController` → `RssdDevice` → `WireRemote` → `RemoteLogServer`, on
//! a 64 MiB device with MLC timing and 32-page segments (the configuration
//! `rssd_bench::mk_rssd` uses). The traced variant puts a [`SpanDev`]
//! between controller and device and a [`SpanRemote`] on either side of the
//! wire; the wrappers forward *every* trait method, so a device's native
//! `submit_batch_timed` is never bypassed and the simulation is identical
//! with and without them (pinned by `tests/transparency.rs`).

use crate::inputs::Pool;
use crate::spans::Tracer;
use rssd_core::{
    HistoryAudit, OffloadStats, RemoteError, RemoteTarget, RssdConfig, RssdDevice, SegmentEnvelope,
    StoreAck, WireRemote,
};
use rssd_crypto::DeviceKeys;
use rssd_faults::{FaultError, FaultSchedule, FaultTarget, PartitionMode, PowerRestoreReport};
use rssd_flash::{FlashGeometry, NandStats, NandTiming, SimClock};
use rssd_ftl::FtlStats;
use rssd_net::{LinkConfig, TransferStats};
use rssd_obs::SinkHandle;
use rssd_remote::RemoteLogServer;
use rssd_ssd::{BlockDevice, CommandResult, DeviceError, IoCommand, LatencyStats, PlainSsd};

/// Raw capacity of every benchmark device.
pub const CAPACITY_BYTES: u64 = 64 * 1024 * 1024;

/// Geometry of every benchmark device (13 107 logical pages at the FTL's
/// default 20 % over-provisioning).
pub fn geometry() -> FlashGeometry {
    FlashGeometry::with_capacity(CAPACITY_BYTES)
}

/// Logical pages every benchmark device exports.
pub fn logical_pages() -> u64 {
    plain_stack().logical_pages()
}

/// Device configuration of the RSSD arm.
pub fn rssd_config() -> RssdConfig {
    RssdConfig {
        segment_pages: 32,
        ..RssdConfig::default()
    }
}

/// Where the evidence goes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Uplink {
    /// 10 GbE to a machine-room log server.
    Datacenter,
    /// A WAN path to cloud storage that drops every 50th frame.
    LossyWan,
}

impl Uplink {
    /// The link the wire models.
    pub fn link(self) -> LinkConfig {
        match self {
            Uplink::Datacenter => LinkConfig::datacenter_10g(),
            Uplink::LossyWan => LinkConfig {
                loss_period: 50,
                ..LinkConfig::wan_cloud()
            },
        }
    }

    fn server(self, keys: &DeviceKeys) -> RemoteLogServer {
        let mut server = match self {
            Uplink::Datacenter => RemoteLogServer::datacenter(keys),
            Uplink::LossyWan => RemoteLogServer::cloud(keys),
        };
        // The wire is modeled once, by `WireRemote`.
        server.set_external_fabric(true);
        server
    }
}

/// The untraced stack.
pub type BareStack = RssdDevice<WireRemote<RemoteLogServer>>;
/// The traced stack: the same devices with a span wrapper at every seam.
pub type SpannedStack = SpanDev<RssdDevice<SpanRemote<WireRemote<SpanRemote<RemoteLogServer>>>>>;

/// Builds the untraced stack on a fresh clock.
pub fn bare_stack(uplink: Uplink) -> BareStack {
    let config = rssd_config();
    let keys = DeviceKeys::for_simulation(config.key_seed);
    RssdDevice::new(
        geometry(),
        NandTiming::mlc_default(),
        SimClock::new(),
        config,
        WireRemote::new(uplink.server(&keys), uplink.link()),
    )
}

/// Builds the traced stack on a fresh clock.
pub fn spanned_stack(uplink: Uplink, tracer: &Tracer) -> SpannedStack {
    let config = rssd_config();
    let keys = DeviceKeys::for_simulation(config.key_seed);
    let inner = SpanRemote::new(uplink.server(&keys), tracer, &REMOTE_SPANS);
    let outer = SpanRemote::new(WireRemote::new(inner, uplink.link()), tracer, &WIRE_SPANS);
    SpanDev::new(
        RssdDevice::new(
            geometry(),
            NandTiming::mlc_default(),
            SimClock::new(),
            config,
            outer,
        ),
        tracer,
    )
}

/// The unprotected baseline on a fresh clock.
pub fn plain_stack() -> PlainSsd {
    PlainSsd::new(geometry(), NandTiming::mlc_default(), SimClock::new())
}

/// Writes every logical page from `first_lpa` up with its pool page, so
/// the device is full and GC is in steady state before timing starts.
///
/// # Panics
///
/// Panics if the device refuses a prefill write.
pub fn prefill<D: BlockDevice + ?Sized>(device: &mut D, pool: &Pool, first_lpa: u64) {
    for lpa in first_lpa..device.logical_pages() {
        device
            .write_page(lpa, pool.page(pool.prefill_slot(lpa)).to_vec())
            .expect("prefill write on a fresh device");
    }
}

/// What the workloads need from either stack variant after a run: the RSSD
/// device itself (stats, history, recovery) and the two layers behind it.
pub trait Stack: BlockDevice {
    /// The remote target the RSSD device offloads to.
    type Remote: RemoteTarget;

    /// The RSSD device.
    fn rssd(&self) -> &RssdDevice<Self::Remote>;
    /// The RSSD device, mutably (flush, history, recovery).
    fn rssd_mut(&mut self) -> &mut RssdDevice<Self::Remote>;
    /// Protocol counters of the wire.
    fn wire_stats(&self) -> TransferStats;
    /// The log server behind the wire.
    fn server(&self) -> &RemoteLogServer;
}

impl Stack for BareStack {
    type Remote = WireRemote<RemoteLogServer>;

    fn rssd(&self) -> &RssdDevice<Self::Remote> {
        self
    }
    fn rssd_mut(&mut self) -> &mut RssdDevice<Self::Remote> {
        self
    }
    fn wire_stats(&self) -> TransferStats {
        self.remote().transfer_stats()
    }
    fn server(&self) -> &RemoteLogServer {
        self.remote().inner()
    }
}

impl Stack for SpannedStack {
    type Remote = SpanRemote<WireRemote<SpanRemote<RemoteLogServer>>>;

    fn rssd(&self) -> &RssdDevice<Self::Remote> {
        &self.inner
    }
    fn rssd_mut(&mut self) -> &mut RssdDevice<Self::Remote> {
        &mut self.inner
    }
    fn wire_stats(&self) -> TransferStats {
        self.inner.remote().inner.transfer_stats()
    }
    fn server(&self) -> &RemoteLogServer {
        &self.inner.remote().inner.inner().inner
    }
}

/// Span names of a [`SpanRemote`]: store, fetch.
pub type RemoteSpanNames = [&'static str; 2];
/// Names for the wrapper between `RssdDevice` and `WireRemote`.
pub const WIRE_SPANS: RemoteSpanNames = ["wire.store_segment", "wire.fetch_segment"];
/// Names for the wrapper between `WireRemote` and `RemoteLogServer`.
pub const REMOTE_SPANS: RemoteSpanNames = ["remote.store_segment", "remote.fetch_segment"];

/// A [`RemoteTarget`] that times every store and fetch of the target it
/// wraps and forwards everything else untouched.
pub struct SpanRemote<R> {
    /// The wrapped target.
    pub inner: R,
    tracer: Tracer,
    names: &'static RemoteSpanNames,
}

impl<R> SpanRemote<R> {
    /// Wraps `inner`, recording into `tracer` under `names`.
    pub fn new(inner: R, tracer: &Tracer, names: &'static RemoteSpanNames) -> Self {
        SpanRemote {
            inner,
            tracer: tracer.clone(),
            names,
        }
    }
}

impl<R: RemoteTarget> RemoteTarget for SpanRemote<R> {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        let inner = &mut self.inner;
        self.tracer
            .time(self.names[0], || inner.store_segment(envelope, now_ns))
    }

    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
        let inner = &mut self.inner;
        self.tracer
            .time(self.names[1], || inner.fetch_segment(segment_seq))
    }

    fn stored_segments(&self) -> Vec<u64> {
        self.inner.stored_segments()
    }

    fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.inner.set_trace_sink(sink);
    }
}

/// A [`BlockDevice`] that times every I/O call into the device it wraps and
/// forwards everything else untouched.
pub struct SpanDev<D> {
    /// The wrapped device.
    pub inner: D,
    tracer: Tracer,
}

impl<D> SpanDev<D> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: D, tracer: &Tracer) -> Self {
        SpanDev {
            inner,
            tracer: tracer.clone(),
        }
    }
}

impl<D: BlockDevice> BlockDevice for SpanDev<D> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn logical_pages(&self) -> u64 {
        self.inner.logical_pages()
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn write_page(&mut self, lpa: u64, data: Vec<u8>) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.tracer
            .time("device.write_page", || inner.write_page(lpa, data))
    }

    fn read_page(&mut self, lpa: u64) -> Result<Vec<u8>, DeviceError> {
        let inner = &mut self.inner;
        self.tracer
            .time("device.read_page", || inner.read_page(lpa))
    }

    fn trim_page(&mut self, lpa: u64) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.tracer
            .time("device.trim_page", || inner.trim_page(lpa))
    }

    fn flush(&mut self) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.tracer.time("device.flush", || inner.flush())
    }

    fn execute(&mut self, command: IoCommand) -> CommandResult {
        let inner = &mut self.inner;
        self.tracer
            .time("device.execute", || inner.execute(command))
    }

    fn submit_batch(&mut self, commands: Vec<IoCommand>) -> Vec<CommandResult> {
        let inner = &mut self.inner;
        self.tracer
            .time("device.submit_batch", || inner.submit_batch(commands))
    }

    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
        let inner = &mut self.inner;
        self.tracer.time("device.submit_batch_timed", || {
            inner.submit_batch_timed(commands)
        })
    }

    fn recover_page(&mut self, lpa: u64) -> Option<Vec<u8>> {
        self.inner.recover_page(lpa)
    }
}

/// The fault surface forwards too, so a [`SpanDev`] can sit *inside* a
/// `FaultInjector` (and a `FaultInjector` inside a `SpanDev`): the
/// difference of the two spans is the injector's own cost.
impl<D: FaultTarget> FaultTarget for SpanDev<D> {
    fn power_restore(&mut self) -> Result<PowerRestoreReport, FaultError> {
        self.inner.power_restore()
    }
    fn set_partition(&mut self, mode: PartitionMode) -> bool {
        self.inner.set_partition(mode)
    }
    fn heal_partition(&mut self) -> u64 {
        self.inner.heal_partition()
    }
    fn kill_shard(&mut self, shard: usize) -> Result<(), FaultError> {
        self.inner.kill_shard(shard)
    }
    fn revive_dead_shards(&mut self, restore_before_ns: Option<u64>) -> Result<usize, FaultError> {
        self.inner.revive_dead_shards(restore_before_ns)
    }
    fn history_audit(&mut self) -> HistoryAudit {
        self.inner.history_audit()
    }
    fn recover_as_of(&mut self, lpa: u64, before_ns: u64) -> Option<Vec<u8>> {
        self.inner.recover_as_of(lpa, before_ns)
    }
    fn offload_totals(&self) -> OffloadStats {
        self.inner.offload_totals()
    }
    fn nand_totals(&self) -> NandStats {
        self.inner.nand_totals()
    }
    fn ftl_totals(&self) -> FtlStats {
        self.inner.ftl_totals()
    }
    fn latency_totals(&self) -> LatencyStats {
        self.inner.latency_totals()
    }
    fn remote_fault_totals(&self) -> rssd_faults::RemoteFaultStats {
        self.inner.remote_fault_totals()
    }
    fn arm_schedule(&mut self, schedule: &FaultSchedule) -> bool {
        self.inner.arm_schedule(schedule)
    }
    fn ops_count(&self) -> u64 {
        self.inner.ops_count()
    }
    fn power_cut_count(&self) -> u64 {
        self.inner.power_cut_count()
    }
    fn torn_batch_count(&self) -> u64 {
        self.inner.torn_batch_count()
    }
    fn skipped_event_count(&self) -> u64 {
        self.inner.skipped_event_count()
    }
    fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.inner.set_trace_sink(sink);
    }
}
