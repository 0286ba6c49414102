//! Pipelined-vs-serial timing-model equivalence.
//!
//! How a command list is cut into batches changes *when* operations
//! complete, and nothing else: any batch size must return byte-identical
//! data and leave byte-identical durable state to the serial model — one
//! command per batch, which is what the scalar methods submit — on real
//! (MLC) NAND timing, where the two schedules genuinely diverge. Only
//! timestamps and latencies may differ, so the comparison covers
//! per-command results, logical contents, retained (recoverable) versions,
//! and the evidence-chain records modulo their `at_ns` stamps — and, behind
//! a `FaultInjector`, that power cuts tear batches at the same prefix. The
//! last test pins the other half: a scalar call *is* a batch of one, on
//! every `BlockDevice` in the tree, to the nanosecond and the chain head.
//!
//! The overlapped offload is the same kind of change one layer out: acks
//! land while the host carries on, where the device used to stand still
//! for a round trip per segment. It, too, may change only *when* — pinned
//! here against a device that is forced to wait out every ack right after
//! the seal, on the same link.

use proptest::prelude::*;
use rssd_repro::bench_support::mk_array;
use rssd_repro::core::{
    LogRecord, LoopbackTarget, OffloadHealth, OffloadStats, RemoteTarget, RssdConfig, RssdDevice,
    WireRemote,
};
use rssd_repro::faults::{FaultEvent, FaultInjector, FaultSchedule, FaultTarget, PartitionMode};
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::net::LinkConfig;
use rssd_repro::ssd::{
    BlockDevice, CommandOutcome, CommandResult, IoCommand, PlainSsd, RetentionMode, RetentionSsd,
};

const LPAS: u64 = 16;

#[derive(Clone, Debug)]
enum Op {
    Write(u64, u8),
    Read(u64),
    Trim(u64),
    Flush,
}

impl Op {
    fn command(&self, page_size: usize) -> IoCommand {
        match *self {
            Op::Write(lpa, byte) => IoCommand::Write {
                lpa,
                data: vec![byte; page_size],
            },
            Op::Read(lpa) => IoCommand::Read { lpa },
            Op::Trim(lpa) => IoCommand::Trim { lpa },
            Op::Flush => IoCommand::Flush,
        }
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0..LPAS, any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
            3 => (0..LPAS).prop_map(Op::Read),
            1 => (0..LPAS).prop_map(Op::Trim),
            1 => proptest::strategy::Just(Op::Flush),
        ],
        1..160,
    )
}

fn mk_rssd() -> RssdDevice<LoopbackTarget> {
    RssdDevice::new(
        FlashGeometry::small_test(),
        NandTiming::mlc_default(),
        SimClock::new(),
        RssdConfig {
            // Small segments so background offloads actually trigger inside
            // the generated op sequences.
            segment_pages: 4,
            ..RssdConfig::default()
        },
        LoopbackTarget::new(),
    )
}

fn mk_plain() -> PlainSsd {
    PlainSsd::new(
        FlashGeometry::small_test(),
        NandTiming::mlc_default(),
        SimClock::new(),
    )
}

type WiredRssd = RssdDevice<WireRemote<LoopbackTarget>>;

fn mk_wired(link: LinkConfig) -> WiredRssd {
    RssdDevice::new(
        FlashGeometry::small_test(),
        NandTiming::mlc_default(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 4,
            ..RssdConfig::default()
        },
        WireRemote::new(LoopbackTarget::new(), link),
    )
}

/// Links on which an ack takes long enough to matter: a WAN, a WAN that
/// also drops frames (RTO rounds, acks out of order), a thin pipe, and a
/// lossy machine-room link.
fn slow_links() -> impl Strategy<Value = LinkConfig> {
    prop_oneof![
        proptest::strategy::Just(LinkConfig::wan_cloud()),
        proptest::strategy::Just(LinkConfig {
            loss_period: 3,
            ..LinkConfig::wan_cloud()
        }),
        proptest::strategy::Just(LinkConfig {
            bandwidth_bytes_per_sec: 1_000_000,
            propagation_delay_ns: 0,
            loss_period: 0,
        }),
        proptest::strategy::Just(LinkConfig::lossy(2)),
    ]
}

/// Runs `ops` in `chunk`-sized batches. With `wait_out_every_ack` the
/// device is flushed whenever a batch left anything staged — the seal has
/// just emptied the pending tail, so the flush seals nothing and only waits
/// for the acks: the synchronous offload, one round trip per seal.
fn run_wired(
    device: &mut WiredRssd,
    ops: &[Op],
    chunk: usize,
    wait_out_every_ack: bool,
) -> Vec<CommandResult> {
    let page_size = device.page_size();
    let mut results = Vec::with_capacity(ops.len());
    for batch in ops.chunks(chunk.max(1)) {
        let commands: Vec<IoCommand> = batch.iter().map(|op| op.command(page_size)).collect();
        results.extend(device.submit_batch(commands));
        if wait_out_every_ack && device.staged_segments() > 0 {
            device.flush_log().expect("live link");
        }
    }
    results
}

/// Every stored envelope, in order: the store's contents byte for byte.
fn stored_images(device: &mut WiredRssd) -> Vec<Vec<u8>> {
    let seqs = device.remote().stored_segments();
    seqs.into_iter()
        .map(|seq| {
            let envelope = device.remote_mut().fetch_segment(seq).expect("stored");
            envelope.to_wire_bytes().to_vec()
        })
        .collect()
}

/// Offload counters with the two fields overlap is allowed to change
/// (health now, worst health ever) blanked.
fn counters(stats: OffloadStats) -> OffloadStats {
    OffloadStats {
        health: OffloadHealth::Healthy,
        health_peak: OffloadHealth::Healthy,
        ..stats
    }
}

/// The serial model: every command blocks before the next is issued (a
/// batch of one each).
fn run_serial<D: BlockDevice>(device: &mut D, ops: &[Op]) -> Vec<CommandResult> {
    let page_size = device.page_size();
    ops.iter()
        .map(|op| device.execute(op.command(page_size)))
        .collect()
}

/// The pipelined model: commands dispatched in `chunk`-sized batches onto
/// the unit pipelines, completing out of order within each batch.
fn run_pipelined<D: BlockDevice>(device: &mut D, ops: &[Op], chunk: usize) -> Vec<CommandResult> {
    let page_size = device.page_size();
    let mut results = Vec::with_capacity(ops.len());
    for batch in ops.chunks(chunk.max(1)) {
        let commands: Vec<IoCommand> = batch.iter().map(|op| op.command(page_size)).collect();
        results.extend(device.submit_batch(commands));
    }
    results
}

/// Everything of a log record except its timestamp (the one field the
/// timing model is allowed to change).
fn record_shape(r: &LogRecord) -> (u64, String, u64, Option<u64>, u16, bool, Option<Vec<u8>>) {
    (
        r.seq,
        format!("{:?}", r.op),
        r.lpa,
        r.old_page_index,
        r.entropy_mil,
        r.read_before,
        r.old_data.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// RSSD under MLC timing: the pipelined batch path must be
    /// indistinguishable from the serial model in everything but time —
    /// results, contents, retained versions, and the evidence chain's
    /// records (modulo `at_ns`).
    #[test]
    fn rssd_pipelined_equals_serial((ops, chunk) in (ops(), 1usize..33)) {
        let mut serial_dev = mk_rssd();
        let serial_results = run_serial(&mut serial_dev, &ops);
        let mut piped_dev = mk_rssd();
        let piped_results = run_pipelined(&mut piped_dev, &ops, chunk);

        prop_assert_eq!(serial_results.len(), piped_results.len());
        for (i, (s, q)) in serial_results.iter().zip(&piped_results).enumerate() {
            prop_assert_eq!(s, q, "result diverged at command {} (chunk {})", i, chunk);
        }

        prop_assert_eq!(serial_dev.chain_len(), piped_dev.chain_len());
        // Batch coalescing legitimately changes *when* segments ship (a
        // record can sit pending on one device and be offloaded — with its
        // retained data attached — on the other). Flush both so the
        // histories are compared in the same, fully-durable state.
        serial_dev.flush_log().expect("serial flush");
        piped_dev.flush_log().expect("pipelined flush");
        let serial_history = serial_dev.verified_history().expect("serial history verifies");
        let piped_history = piped_dev.verified_history().expect("pipelined history verifies");
        prop_assert_eq!(serial_history.len(), piped_history.len());
        for (s, q) in serial_history.iter().zip(&piped_history) {
            prop_assert_eq!(record_shape(s), record_shape(q), "log record diverged");
        }

        for lpa in 0..LPAS {
            prop_assert_eq!(
                serial_dev.read_page(lpa).unwrap(),
                piped_dev.read_page(lpa).unwrap(),
                "contents diverged at lpa {}", lpa
            );
            prop_assert_eq!(
                serial_dev.recover_page(lpa),
                piped_dev.recover_page(lpa),
                "retention diverged at lpa {}", lpa
            );
        }
    }

    /// Overlapped offload ≡ a forced drain after every seal, on the same
    /// link, when the host leaves the device time to hear each ack before
    /// its next batch: the two arms then enter every batch at the same
    /// instant in the same state, and everything durable must match to the
    /// byte — contents, retained versions, chain head, every sealed segment
    /// in the store, every offload counter. What is left to differ is the
    /// clock *between* batches (the overlapped arm never runs ahead),
    /// latencies, and health.
    #[test]
    fn overlapped_offload_equals_forced_drain_in_lockstep(
        (ops, chunk, link, gap_ns) in (ops(), 1usize..9, slow_links(), 0u64..2_000_000)
    ) {
        let mut forced = mk_wired(link);
        let mut overlapped = mk_wired(link);
        let page_size = forced.page_size();
        let mut forced_results = Vec::new();
        let mut overlapped_results = Vec::new();
        for batch in ops.chunks(chunk) {
            prop_assert!(overlapped.clock().now_ns() <= forced.clock().now_ns());
            let start = forced.clock().now_ns() + gap_ns;
            forced.clock().advance_to(start);
            overlapped.clock().advance_to(start);
            let commands = |batch: &[Op]| batch.iter().map(|op| op.command(page_size)).collect();
            forced_results.extend(forced.submit_batch(commands(batch)));
            overlapped_results.extend(overlapped.submit_batch(commands(batch)));
            if forced.staged_segments() > 0 {
                forced.flush_log().expect("live link");
            }
        }
        prop_assert_eq!(&forced_results, &overlapped_results);
        forced.flush_log().expect("forced flush");
        overlapped.flush_log().expect("overlapped flush");

        prop_assert_eq!(forced.chain_head(), overlapped.chain_head());
        prop_assert_eq!(forced.chain_len(), overlapped.chain_len());
        prop_assert_eq!(stored_images(&mut forced), stored_images(&mut overlapped));
        prop_assert_eq!(counters(forced.offload_stats()), counters(overlapped.offload_stats()));
        prop_assert_eq!(forced.ftl_stats(), overlapped.ftl_stats());
        prop_assert_eq!(
            forced.verified_history().expect("forced history"),
            overlapped.verified_history().expect("overlapped history")
        );
        for lpa in 0..LPAS {
            prop_assert_eq!(forced.recover_page(lpa), overlapped.recover_page(lpa));
            prop_assert_eq!(forced.read_page(lpa).unwrap(), overlapped.read_page(lpa).unwrap());
        }
    }

    /// The same two arms left to run free — acks pile up in flight, the
    /// staging window throttles, retirements trail the seals by round
    /// trips: results, contents, retained versions and the evidence chain's
    /// records (modulo `at_ns`) are still those of the synchronous offload,
    /// and the host never waits longer for them.
    #[test]
    fn overlapped_offload_changes_only_time(
        (ops, chunk, link) in (ops(), 1usize..33, slow_links())
    ) {
        let mut forced = mk_wired(link);
        let forced_results = run_wired(&mut forced, &ops, chunk, true);
        let mut overlapped = mk_wired(link);
        let overlapped_results = run_wired(&mut overlapped, &ops, chunk, false);
        prop_assert_eq!(&forced_results, &overlapped_results);
        let (forced_done, overlapped_done) = (forced.clock().now_ns(), overlapped.clock().now_ns());

        forced.flush_log().expect("forced flush");
        overlapped.flush_log().expect("overlapped flush");
        prop_assert_eq!(overlapped.staged_segments(), 0);
        // The arms' records differ in `at_ns`, a segment's compressed size
        // follows its bytes, and on a link-bound run more sealed bytes
        // finish later whoever sends them: the clocks are comparable when
        // the two arms put the same sizes on the wire.
        let sealed_sizes = |device: &mut WiredRssd| -> Vec<usize> {
            stored_images(device).iter().map(Vec::len).collect()
        };
        if sealed_sizes(&mut forced) == sealed_sizes(&mut overlapped) {
            prop_assert!(overlapped_done <= forced_done);
        }
        let forced_history = forced.verified_history().expect("forced history");
        let overlapped_history = overlapped.verified_history().expect("overlapped history");
        prop_assert_eq!(forced_history.len(), overlapped_history.len());
        for (f, o) in forced_history.iter().zip(&overlapped_history) {
            prop_assert_eq!(record_shape(f), record_shape(o), "log record diverged");
        }
        let (f, o) = (forced.offload_stats(), overlapped.offload_stats());
        prop_assert_eq!(f.records_offloaded, o.records_offloaded);
        prop_assert_eq!(f.retained_pages_offloaded, o.retained_pages_offloaded);
        prop_assert_eq!(o.segments_offloaded, o.segments_sealed);
        for lpa in 0..LPAS {
            prop_assert_eq!(forced.recover_page(lpa), overlapped.recover_page(lpa));
            prop_assert_eq!(forced.read_page(lpa).unwrap(), overlapped.read_page(lpa).unwrap());
        }
    }

    /// The unprotected baseline under MLC timing: same data, same durable
    /// state, any batch size.
    #[test]
    fn plain_pipelined_equals_serial((ops, chunk) in (ops(), 1usize..33)) {
        let mut serial_dev = mk_plain();
        let serial_results = run_serial(&mut serial_dev, &ops);
        let mut piped_dev = mk_plain();
        let piped_results = run_pipelined(&mut piped_dev, &ops, chunk);
        prop_assert_eq!(&serial_results, &piped_results);
        for lpa in 0..LPAS {
            prop_assert_eq!(
                serial_dev.read_page(lpa).unwrap(),
                piped_dev.read_page(lpa).unwrap(),
                "contents diverged at lpa {}", lpa
            );
        }
    }

    /// Behind a `FaultInjector`, a power cut must tear a pipelined batch at
    /// exactly the same prefix as the serial model: the same commands
    /// succeed, the same fail with `PowerLoss`, and after power restore the
    /// recovered durable state is identical.
    #[test]
    fn power_cuts_tear_pipelined_batches_at_the_serial_prefix(
        (ops, chunk, cut_at) in (ops(), 1usize..33, 0u64..160)
    ) {
        let mk = || {
            FaultInjector::new(
                RssdDevice::new(
                    FlashGeometry::small_test(),
                    NandTiming::mlc_default(),
                    SimClock::new(),
                    RssdConfig { segment_pages: 4, ..RssdConfig::default() },
                    WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal()),
                ),
                &FaultSchedule::power_cut(cut_at),
            )
        };
        let mut serial_dev = mk();
        let serial_results = run_serial(&mut serial_dev, &ops);
        let mut piped_dev = mk();
        let piped_results = run_pipelined(&mut piped_dev, &ops, chunk);

        prop_assert_eq!(serial_results.len(), piped_results.len());
        for (i, (s, q)) in serial_results.iter().zip(&piped_results).enumerate() {
            prop_assert_eq!(s, q, "torn-batch result diverged at command {}", i);
        }

        if serial_dev.powered_off() {
            let _ = serial_dev.power_restore().expect("serial restore");
        }
        if piped_dev.powered_off() {
            let _ = piped_dev.power_restore().expect("pipelined restore");
        }
        // A cut scheduled beyond the workload would otherwise fire during
        // the verification reads below; disarm it — the comparison is about
        // the workload's durable state, not the probe's.
        serial_dev.arm(&FaultSchedule::none());
        piped_dev.arm(&FaultSchedule::none());
        for lpa in 0..LPAS {
            prop_assert_eq!(
                serial_dev.read_page(lpa).unwrap(),
                piped_dev.read_page(lpa).unwrap(),
                "post-restore contents diverged at lpa {}", lpa
            );
        }
    }
}

/// `op` through the scalar method that names it.
fn run_scalar_method<D: BlockDevice>(device: &mut D, op: &Op) -> CommandResult {
    match *op {
        Op::Write(lpa, byte) => device
            .write_page(lpa, vec![byte; device.page_size()])
            .map(|()| CommandOutcome::Written),
        Op::Read(lpa) => device.read_page(lpa).map(CommandOutcome::Read),
        Op::Trim(lpa) => device.trim_page(lpa).map(|()| CommandOutcome::Trimmed),
        Op::Flush => device.flush().map(|()| CommandOutcome::Flushed),
    }
}

/// Runs one op list through the scalar methods on one device and through
/// `submit_batch_timed(vec![cmd])` on its twin: same results, same clock
/// after every op, same `state` at the end. `settle` runs on both after
/// every op (the injector's power restore).
fn assert_scalar_is_batch_of_one<D: BlockDevice>(
    mk: impl Fn() -> D,
    settle: impl Fn(&mut D),
    state: impl Fn(&D) -> String,
) {
    let out_of_range = mk().logical_pages() + 7;
    let ops = [
        Op::Write(0, 1),
        Op::Write(1, 2),
        Op::Write(0, 3),
        Op::Read(0),
        Op::Write(2, 4),
        Op::Trim(1),
        Op::Read(1),
        Op::Flush,
        Op::Write(0, 5),
        Op::Read(out_of_range),
        Op::Write(3, 6),
        Op::Write(1, 7),
        Op::Read(3),
        Op::Trim(0),
        Op::Write(0, 8),
        Op::Write(out_of_range, 9),
        Op::Read(0),
        Op::Write(2, 10),
        Op::Trim(out_of_range),
        Op::Flush,
        Op::Read(2),
    ];
    let (mut scalar, mut batched) = (mk(), mk());
    let model = scalar.model_name().to_string();
    for (i, op) in ops.iter().enumerate() {
        let scalar_result = run_scalar_method(&mut scalar, op);
        let mut completed = batched.submit_batch_timed(vec![op.command(batched.page_size())]);
        assert_eq!(completed.len(), 1, "{model}: one result per command");
        let (batched_result, done_ns) = completed.pop().expect("one result");
        assert_eq!(
            scalar_result, batched_result,
            "{model}: result of op {i} {op:?}"
        );
        assert_eq!(
            scalar.clock().now_ns(),
            batched.clock().now_ns(),
            "{model}: clock after op {i} {op:?}"
        );
        assert!(
            done_ns <= batched.clock().now_ns(),
            "{model}: op {i} done in the future"
        );
        settle(&mut scalar);
        settle(&mut batched);
    }
    assert_eq!(state(&scalar), state(&batched), "{model}: device state");
}

/// No settling between ops.
fn nothing<D>(_: &mut D) {}

fn rssd_state<R: RemoteTarget>(d: &RssdDevice<R>) -> String {
    format!(
        "{:?} {} {:?} {:?} {:?}",
        d.chain_head(),
        d.chain_len(),
        d.ftl_stats(),
        d.offload_stats(),
        d.latency()
    )
}

#[test]
fn a_scalar_call_is_a_batch_of_one_on_every_block_device() {
    let (geometry, timing) = (FlashGeometry::small_test(), NandTiming::mlc_default());

    assert_scalar_is_batch_of_one(mk_plain, nothing, |d| {
        format!("{:?} {:?}", d.ftl_stats(), d.latency())
    });
    for mode in [
        RetentionMode::RetainAll,
        RetentionMode::Compressed,
        RetentionMode::ReadThenOverwrite,
    ] {
        assert_scalar_is_batch_of_one(
            || RetentionSsd::new(geometry, timing, SimClock::new(), mode),
            nothing,
            |d| format!("{:?} {:?} {:?}", d.report(), d.ftl_stats(), d.latency()),
        );
    }
    assert_scalar_is_batch_of_one(mk_rssd, nothing, rssd_state);
    assert_scalar_is_batch_of_one(
        || mk_array(3, geometry, timing, 2),
        nothing,
        |a| {
            let heads: Vec<_> = (0..a.shard_count())
                .map(|i| a.shard(i).expect("live member").chain_head())
                .collect();
            format!(
                "{heads:?} {} {:?} {:?}",
                a.chain_len(),
                a.ftl_stats(),
                a.offload_stats()
            )
        },
    );
    // Under faults: a partition window opens and heals, then power is cut —
    // every event fires at the same op either way, and a cut batch of one
    // persisted no prefix, so neither arm records a torn batch.
    let schedule = FaultSchedule::new(
        "partition then cut",
        vec![
            FaultEvent::PartitionStart {
                at_op: 2,
                mode: PartitionMode::Refuse,
            },
            FaultEvent::PartitionHeal { at_op: 9 },
            FaultEvent::PowerCut { at_op: 13 },
        ],
    );
    assert_scalar_is_batch_of_one(
        || FaultInjector::new(mk_wired(LinkConfig::ideal()), &schedule),
        |f| {
            if f.powered_off() {
                let _ = f.power_restore().expect("link healed before the cut");
            }
        },
        |f| {
            assert_eq!(f.power_cut_count(), 1, "the cut fired");
            assert_eq!(f.skipped_event_count(), 0);
            format!(
                "{} {:?} {}",
                f.ops_count(),
                f.torn_batches(),
                rssd_state(f.inner())
            )
        },
    );
}
