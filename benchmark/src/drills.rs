//! Layer drills: for the layers below the `BlockDevice` seam, replay the
//! workload's own call sequence into each layer's public functions in
//! isolation and time every call.
//!
//! A drill gives a layer's unit cost; unit cost × the exact count the stack
//! reported gives the layer's estimated share of the device-side span (see
//! `workloads::layers`). Every call feeds a log-linear histogram.

use crate::driver::{controller, drive};
use crate::inputs::{kind_name, Cmd, Inputs, KINDS, PAGE_SIZE};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stack::{geometry, rssd_config, SpanDev};
use bytes::Bytes;
use rssd_array::RssdArray;
use rssd_compress::{compress_adaptive_into, decompress, shannon_entropy};
use rssd_core::{LogOp, LogRecord, LoopbackTarget, RssdConfig, RssdDevice};
use rssd_crypto::{ChaCha20, HashChain, HmacSha256, Sha256};
use rssd_detect::{merge_time_ordered, Ensemble, WriteObservation};
use rssd_faults::{FaultInjector, FaultSchedule};
use rssd_flash::{NandArray, NandTiming, PageOob, SimClock};
use rssd_fleet::{run_member, Fleet, FleetConfig, FleetReport};
use rssd_ftl::{Ftl, FtlConfig};
use rssd_net::{LinkConfig, NvmeOeEndpoint};
use rssd_obs::{Histogram, ProfilerHandle, SinkHandle};
use rssd_ssd::BlockDevice;
use rssd_trace::{synthesize_page, IoOp, PayloadKind, TraceProfile};
use std::hint::black_box;
use std::time::Instant;

/// Pages in one drill buffer: a segment's worth of retained pages.
const BUFFER_PAGES: usize = 32;
/// Drill buffers per payload kind.
const BUFFERS_PER_KIND: usize = 8;

/// Runs `f`, recording its host nanoseconds in `hist`.
#[inline]
fn timed<T>(hist: &mut Histogram, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    hist.record(started.elapsed().as_nanos() as u64);
    black_box(out)
}

/// Host nanoseconds of `f`.
fn nanos(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64
}

/// What the drills need to know about the workload they serve.
pub struct DrillInputs<'a> {
    /// The workload's script and pool (or the reference script's).
    pub inputs: &'a Inputs,
    /// Seed everything else is synthesized from.
    pub seed: u64,
    /// Queue depth of the workload's closed loop.
    pub depth: usize,
    /// The workload's uplink.
    pub link: LinkConfig,
    /// Script commands each stack drill replays at most.
    pub command_cap: usize,
    /// NAND programs and reads the stack reported. The flash drill replays
    /// as many, capped.
    pub nand_counts: [u64; 2],
    /// Log records the stack appended to its evidence chain.
    pub records: u64,
    /// Segments the stack offloaded.
    pub segments: u64,
    /// Mean sealed bytes per segment.
    pub segment_bytes: usize,
}

/// Mean unit costs the share estimates use (medians would hide GC).
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCosts {
    /// `Ftl::write_async`, NAND work included, ns.
    pub ftl_write_ns: f64,
    /// `Ftl::read_async`, NAND work included, ns.
    pub ftl_read_ns: f64,
    /// `NandArray::read_async`, ns (what a background offload read costs).
    pub flash_read_ns: f64,
    /// `shannon_entropy` of one page, ns.
    pub entropy_ns_per_page: f64,
    /// `HashChain::append` of one record, ns.
    pub chain_append_ns: f64,
    /// `compress_adaptive_into` on buffers mixed like the workload's writes,
    /// ns per KiB.
    pub encode_mixed_ns_per_kib: f64,
    /// `ChaCha20` + `HmacSha256`, ns per KiB.
    pub seal_ns_per_kib: f64,
}

/// Runs every drill, records the drill-sourced per-layer metrics in
/// `report`, and returns the mean unit costs.
pub fn run_all(report: &mut Report, d: &DrillInputs) -> UnitCosts {
    let script = &d.inputs.script[..d.inputs.script.len().min(d.command_cap)];
    let mut costs = UnitCosts::default();
    ftl_drill(report, d, script, &mut costs);
    flash_drill(report, d, &mut costs);
    crypto_drill(report, d, &mut costs);
    compress_drill(report, d, script, &mut costs);
    net_drill(report, d);
    detect_drill(report, d, script);
    array_drill(report, d, script);
    faults_drill(report, d, script);
    trace_drill(report, d);
    costs
}

/// `Ftl::write_async/read_async/trim` with the script's LPAs on a prefilled
/// FTL; background GC runs inside the writes, as on the device.
fn ftl_drill(report: &mut Report, d: &DrillInputs, script: &[Cmd], costs: &mut UnitCosts) {
    let clock = SimClock::new();
    let nand = NandArray::with_clock(geometry(), NandTiming::mlc_default(), clock.clone());
    let mut ftl = Ftl::new(nand, FtlConfig::default());
    let pool = &d.inputs.pool;
    for lpa in 0..ftl.logical_pages() {
        let ticket = ftl
            .write_async(lpa, pool.page(pool.prefill_slot(lpa)).to_vec())
            .expect("prefill of a fresh FTL");
        clock.advance_to(ticket.done_ns);
    }
    ftl.drain_stale_events();
    let (mut writes, mut reads) = (Histogram::new(), Histogram::new());
    let mut horizon = clock.now_ns();
    for (i, cmd) in script.iter().enumerate() {
        match cmd.op {
            IoOp::Write => {
                let data = pool.page(cmd.slot).to_vec();
                let ticket = timed(&mut writes, || ftl.write_async(cmd.lpa, data))
                    .expect("drill write on a steady-state FTL");
                horizon = horizon.max(ticket.done_ns);
                ftl.drain_stale_events();
            }
            IoOp::Read => {
                let (_, ticket) =
                    timed(&mut reads, || ftl.read_async(cmd.lpa)).expect("drill read in range");
                horizon = horizon.max(ticket.done_ns);
            }
            IoOp::Trim => {
                ftl.trim(cmd.lpa).expect("drill trim in range");
                ftl.drain_stale_events();
            }
        }
        // The batch boundary of the closed loop: block on the horizon.
        if (i + 1) % d.depth == 0 {
            clock.advance_to(horizon);
        }
    }
    report.layer("ftl.write_ns_p50", writes.quantile(0.5) as f64);
    report.layer("ftl.write_ns_p99", writes.quantile(0.99) as f64);
    report.layer("ftl.read_ns_p50", reads.quantile(0.5) as f64);
    costs.ftl_write_ns = writes.mean();
    costs.ftl_read_ns = reads.mean();
    report.note(format!(
        "ftl drill: {} writes (mean {:.0} ns), {} reads (mean {:.0} ns)",
        writes.count(),
        writes.mean(),
        reads.count(),
        reads.mean()
    ));
}

/// Blocks the flash drill programs, reads back and erases at a time.
const STRETCH_BLOCKS: u64 = 8;

/// `NandArray::program_async/read_async/erase_block_async`, as many programs
/// and reads as the stack's `NandStats` counted (capped): program a stretch
/// of blocks page by page, read pages of it back, erase it, move on.
fn flash_drill(report: &mut Report, d: &DrillInputs, costs: &mut UnitCosts) {
    let geometry = geometry();
    let clock = SimClock::new();
    let mut nand = NandArray::with_clock(geometry, NandTiming::mlc_default(), clock.clone());
    let cap = d.command_cap as u64;
    let [programs, reads] = d.nand_counts.map(|count| count.clamp(1, cap));
    let pages_per_block = u64::from(geometry.pages_per_block);
    let stretch_pages = STRETCH_BLOCKS * pages_per_block;
    let stretches = programs.div_ceil(stretch_pages);
    let reads_per_stretch = reads.div_ceil(stretches);
    let total_blocks = u64::from(geometry.total_blocks());
    let page = d.inputs.pool.page(0);
    let (mut program_ns, mut read_ns, mut erase_ns) =
        (Histogram::new(), Histogram::new(), Histogram::new());
    for stretch in 0..stretches {
        let first_block = stretch * STRETCH_BLOCKS % (total_blocks - STRETCH_BLOCKS);
        let mut programmed = Vec::with_capacity(stretch_pages as usize);
        for i in 0..stretch_pages.min(programs - stretch * stretch_pages) {
            let block = (first_block + i / pages_per_block) as u32;
            let ppa = geometry
                .block_to_ppa(block)
                .with_page((i % pages_per_block) as u32);
            let oob = PageOob {
                lpa: i,
                timestamp_ns: clock.now_ns(),
                seq: 0,
            };
            let (_, ticket) = timed(&mut program_ns, || {
                nand.program_async(ppa, page.to_vec(), oob)
            })
            .expect("drill programs erased pages in order");
            clock.advance_to(ticket.done_ns);
            programmed.push(ppa);
        }
        for i in 0..reads_per_stretch {
            let pick =
                crate::inputs::mix64(d.seed ^ stretch ^ (i << 20)) as usize % programmed.len();
            let (_, _, ticket) = timed(&mut read_ns, || nand.read_async(programmed[pick]))
                .expect("drill reads programmed pages");
            clock.advance_to(ticket.done_ns);
        }
        for block in first_block..first_block + STRETCH_BLOCKS {
            let ppa = geometry.block_to_ppa(block as u32);
            let ticket = timed(&mut erase_ns, || nand.erase_block_async(ppa))
                .expect("drill erases blocks in range");
            clock.advance_to(ticket.done_ns);
        }
    }
    report.layer("flash.program_ns_p50", program_ns.quantile(0.5) as f64);
    report.layer("flash.read_ns_p50", read_ns.quantile(0.5) as f64);
    report.layer("flash.erase_ns_p50", erase_ns.quantile(0.5) as f64);
    costs.flash_read_ns = read_ns.mean();
}

/// `HashChain::append`/`verify_sequence` over records shaped like the
/// stack's, and the three primitives over segment-sized buffers.
fn crypto_drill(report: &mut Report, d: &DrillInputs, costs: &mut UnitCosts) {
    let key = [0x5Au8; 32];
    let count = d.records.clamp(1, d.command_cap as u64);
    let inputs: Vec<Vec<u8>> = (0..count)
        .map(|seq| {
            LogRecord {
                seq,
                at_ns: seq * 1_000,
                op: LogOp::Write,
                lpa: crate::inputs::mix64(d.seed ^ seq) % 13_107,
                old_page_index: Some(seq),
                entropy_mil: 4_321,
                read_before: false,
                old_data: None,
            }
            .chain_bytes()
        })
        .collect();
    let mut chain = HashChain::new(&key);
    let mut append_ns = Histogram::new();
    let links: Vec<_> = inputs
        .iter()
        .map(|record| timed(&mut append_ns, || chain.append(record)))
        .collect();
    let verify_ns = nanos(|| {
        HashChain::verify_sequence(&key, &inputs, &links).expect("the chain just built verifies");
    });
    report.layer("crypto.chain_append_ns_p50", append_ns.quantile(0.5) as f64);
    report.layer("crypto.chain_verify_ns_per_rec", verify_ns / count as f64);
    costs.chain_append_ns = append_ns.mean();

    let buffers = kind_buffers(PayloadKind::Binary, d.seed);
    let kib = (buffers.len() * buffers[0].len()) as f64 / 1024.0;
    let nonce = [7u8; 12];
    let sha = nanos(|| {
        for buffer in &buffers {
            black_box(Sha256::digest(buffer));
        }
    });
    let chacha = nanos(|| {
        for buffer in &buffers {
            black_box(ChaCha20::encrypt(&key, &nonce, buffer));
        }
    });
    let hmac = nanos(|| {
        for buffer in &buffers {
            black_box(HmacSha256::mac(&key, buffer));
        }
    });
    report.layer("crypto.sha256_ns_per_kib", sha / kib);
    report.layer("crypto.chacha20_ns_per_kib", chacha / kib);
    report.layer("crypto.hmac_ns_per_kib", hmac / kib);
    costs.seal_ns_per_kib = (chacha + hmac) / kib;
}

/// `BUFFERS_PER_KIND` buffers of `BUFFER_PAGES` pages of one kind.
fn kind_buffers(kind: PayloadKind, seed: u64) -> Vec<Vec<u8>> {
    (0..BUFFERS_PER_KIND as u64)
        .map(|b| {
            (0..BUFFER_PAGES as u64)
                .flat_map(|p| synthesize_page(kind, seed ^ (b << 32) ^ (p << 8), PAGE_SIZE))
                .collect()
        })
        .collect()
}

/// `shannon_entropy` per pool page; `compress_adaptive_into`/`decompress`
/// per payload kind on 32-page buffers; and the same on buffers mixed like
/// the workload's own writes, for the store fraction.
fn compress_drill(report: &mut Report, d: &DrillInputs, script: &[Cmd], costs: &mut UnitCosts) {
    let pool = &d.inputs.pool;
    let pages = crate::inputs::POOL_PAGES;
    let entropy = nanos(|| {
        for slot in 0..pages {
            black_box(shannon_entropy(pool.page(slot as u16)));
        }
    });
    report.layer("compress.entropy_ns_per_page", entropy / pages as f64);
    costs.entropy_ns_per_page = entropy / pages as f64;

    let code = |buffers: &[Vec<u8>]| -> (f64, f64, usize) {
        let kib = buffers.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
        let mut frames = Vec::with_capacity(buffers.len());
        let encode = nanos(|| {
            for buffer in buffers {
                let mut frame = Vec::with_capacity(buffer.len() / 2);
                compress_adaptive_into(buffer, &mut frame);
                frames.push(frame);
            }
        });
        let decode = nanos(|| {
            for frame in &frames {
                black_box(decompress(frame).expect("a frame just encoded decodes"));
            }
        });
        let stored = frames
            .iter()
            .zip(buffers)
            .filter(|(frame, buffer)| frame.len() >= buffer.len())
            .count();
        (encode / kib, decode / kib, stored)
    };
    for kind in KINDS {
        let (encode, decode, _) = code(&kind_buffers(kind, d.seed));
        report.layer(
            &format!("compress.encode_ns_per_kib.{}", kind_name(kind)),
            encode,
        );
        report.layer(
            &format!("compress.decode_ns_per_kib.{}", kind_name(kind)),
            decode,
        );
    }
    // Buffers of the pages the script writes, in script order.
    let written: Vec<&[u8]> = script
        .iter()
        .filter(|cmd| cmd.op == IoOp::Write)
        .take(4 * BUFFERS_PER_KIND * BUFFER_PAGES)
        .map(|cmd| pool.page(cmd.slot))
        .collect();
    let mixed: Vec<Vec<u8>> = written
        .chunks_exact(BUFFER_PAGES)
        .map(|chunk| chunk.concat())
        .collect();
    if mixed.is_empty() {
        report.layer("compress.store_frac", 0.0);
    } else {
        let (encode, _, stored) = code(&mixed);
        report.layer("compress.store_frac", stored as f64 / mixed.len() as f64);
        costs.encode_mixed_ns_per_kib = encode;
    }
}

/// `NvmeOeEndpoint::transfer_segment` on the workload's link, segments of
/// the stack's mean sealed size.
fn net_drill(report: &mut Report, d: &DrillInputs) {
    let mut fabric = NvmeOeEndpoint::new(d.link);
    let payload = Bytes::from(vec![0xA5u8; d.segment_bytes.max(1)]);
    let count = d.segments.clamp(1, (d.command_cap / 16).max(1) as u64);
    let mut transfer_ns = Histogram::new();
    let mut now_ns = 0u64;
    for seq in 0..count {
        let (done_ns, _) = timed(&mut transfer_ns, || {
            fabric.transfer_segment(seq, payload.clone(), now_ns)
        });
        now_ns = done_ns;
    }
    report.layer(
        "net.transfer_us_per_seg_p50",
        transfer_ns.quantile(0.5) as f64 / 1e3,
    );
    report.layer(
        "net.transfer_us_per_seg_p99",
        transfer_ns.quantile(0.99) as f64 / 1e3,
    );
}

/// `Ensemble::observe` over the script's writes, and `merge_time_ordered`
/// over the same observations dealt into eight streams.
fn detect_drill(report: &mut Report, d: &DrillInputs, script: &[Cmd]) {
    let pool = &d.inputs.pool;
    let observations: Vec<WriteObservation> = script
        .iter()
        .filter(|cmd| cmd.op == IoOp::Write)
        .enumerate()
        .map(|(i, cmd)| {
            WriteObservation::overwrite(
                i as u64 * 10_000,
                cmd.lpa,
                shannon_entropy(&pool.page(cmd.slot)[..256]),
                false,
            )
        })
        .collect();
    let mut ensemble = Ensemble::new();
    let mut observe_ns = Histogram::new();
    for observation in &observations {
        timed(&mut observe_ns, || ensemble.observe(observation));
    }
    let mut streams: Vec<Vec<WriteObservation>> = vec![Vec::new(); 8];
    for (i, observation) in observations.iter().enumerate() {
        streams[i % 8].push(*observation);
    }
    let merge = nanos(|| {
        black_box(merge_time_ordered(&streams));
    });
    report.layer("detect.observe_ns_p50", observe_ns.quantile(0.5) as f64);
    report.layer(
        "detect.merge_ns_per_obs",
        merge / observations.len().max(1) as f64,
    );
}

/// A benchmark-geometry RSSD member over a loopback remote.
fn loopback_member(device_id: u64) -> RssdDevice<LoopbackTarget> {
    RssdDevice::new(
        geometry(),
        NandTiming::mlc_default(),
        SimClock::new(),
        RssdConfig {
            device_id,
            ..rssd_config()
        },
        LoopbackTarget::new(),
    )
}

/// Replays `script` through `device` at the drill's queue depth and returns
/// the commands completed.
fn replay<D: BlockDevice>(device: D, d: &DrillInputs, script: &[Cmd]) -> (D, u64) {
    let (mut controller, queue) = controller(device, d.depth);
    let out = drive(
        &mut controller,
        queue,
        d.depth,
        script,
        &d.inputs.pool,
        &Tracer::disabled(),
    );
    (controller.into_device(), out.completed)
}

const BATCH_SPAN: &str = "device.submit_batch_timed";

/// The script through a 4-shard `RssdArray`, wrapped inside and out: the
/// outer batch spans minus the members' are the array's own cost.
fn array_drill(report: &mut Report, d: &DrillInputs, script: &[Cmd]) {
    let (outer, inner) = (Tracer::recording(BATCH_SPAN), Tracer::recording(BATCH_SPAN));
    let members: Vec<_> = (0..4)
        .map(|i| SpanDev::new(loopback_member(i), &inner))
        .collect();
    let array = SpanDev::new(RssdArray::new(members, 4, SimClock::new()), &outer);
    let (array, completed) = replay(array, d, script);
    let own_ns = outer
        .totals(BATCH_SPAN)
        .total_ns
        .saturating_sub(inner.totals(BATCH_SPAN).total_ns);
    report.layer(
        "array.self_ns_per_cmd",
        own_ns as f64 / completed.max(1) as f64,
    );
    let per_shard: Vec<f64> = (0..array.inner.shard_count())
        .map(|i| {
            let stats = array.inner.shard(i).expect("live shard").inner.ftl_stats();
            (stats.host_pages_written + stats.host_pages_read) as f64
        })
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
    let busiest = per_shard.iter().copied().fold(0.0, f64::max);
    report.layer(
        "array.shard_imbalance",
        if mean > 0.0 {
            busiest / mean - 1.0
        } else {
            0.0
        },
    );
}

/// The script through a `FaultInjector` with an empty schedule, wrapped
/// inside and out.
fn faults_drill(report: &mut Report, d: &DrillInputs, script: &[Cmd]) {
    let (outer, inner) = (Tracer::recording(BATCH_SPAN), Tracer::recording(BATCH_SPAN));
    let device = SpanDev::new(
        FaultInjector::new(
            SpanDev::new(loopback_member(0), &inner),
            &FaultSchedule::none(),
        ),
        &outer,
    );
    let (_, completed) = replay(device, d, script);
    let own_ns = outer
        .totals(BATCH_SPAN)
        .total_ns
        .saturating_sub(inner.totals(BATCH_SPAN).total_ns);
    report.layer(
        "faults.injector_self_ns_per_cmd",
        own_ns as f64 / completed.max(1) as f64,
    );
}

/// The `hm` record generator and `synthesize_page` per kind — what set-up
/// is made of.
fn trace_drill(report: &mut Report, d: &DrillInputs) {
    let records = d.command_cap;
    let generate = nanos(|| {
        let workload = TraceProfile::by_name("hm")
            .expect("hm is one of the twelve profiles")
            .workload(crate::stack::logical_pages(), PAGE_SIZE, d.seed);
        black_box(workload.take(records).count());
    });
    report.layer("trace.gen_ns_per_record", generate / records as f64);
    for kind in KINDS {
        let pages = 256u64;
        let synth = nanos(|| {
            for i in 0..pages {
                black_box(synthesize_page(kind, d.seed ^ i, PAGE_SIZE));
            }
        });
        report.layer(
            &format!("trace.synth_page_ns.{}", kind_name(kind)),
            synth / pages as f64,
        );
    }
}

/// The cost of the stack's own observability: the first `commands` of the
/// script on two bare stacks, one with a recording sink and an enabled
/// profiler attached. Returns `attached ÷ detached − 1`.
pub fn sink_overhead(d: &DrillInputs, commands: usize, uplink: crate::stack::Uplink) -> f64 {
    let script = &d.inputs.script[..d.inputs.script.len().min(commands)];
    let run = |attach: bool| {
        let mut stack = crate::stack::bare_stack(uplink);
        crate::stack::prefill(&mut stack, &d.inputs.pool, 0);
        if attach {
            stack.set_trace_sink(SinkHandle::recording());
            stack.set_profiler(ProfilerHandle::enabled());
        }
        let (mut controller, queue) = controller(stack, d.depth);
        if attach {
            controller.set_trace_sink(SinkHandle::recording());
            controller.set_profiler(ProfilerHandle::enabled());
        }
        nanos(|| {
            black_box(drive(
                &mut controller,
                queue,
                d.depth,
                script,
                &d.inputs.pool,
                &Tracer::disabled(),
            ));
        })
    };
    // Detached first and last, so drift does not read as overhead.
    let detached_a = run(false);
    let attached = run(true);
    let detached_b = run(false);
    attached / ((detached_a + detached_b) / 2.0) - 1.0
}

/// Times `config`'s fleet from outside — every member serially through
/// `run_member`, the fused detection over their streams, then `Fleet::run`
/// at one worker and at `config.workers` — records the `fleet.*` per-layer
/// metrics, checks that the report does not depend on the worker count, and
/// returns the pooled run's report.
///
/// # Panics
///
/// Panics if a member or a fleet run fails.
pub fn fleet_drill(report: &mut Report, config: &FleetConfig) -> FleetReport {
    let mut member_ms = Vec::with_capacity(config.members);
    let mut streams = Vec::with_capacity(config.members);
    for member in 0..config.members {
        let started = Instant::now();
        let outcome = run_member(config, member).expect("fleet member runs");
        member_ms.push(started.elapsed().as_secs_f64() * 1e3);
        streams.push(outcome.observations);
    }
    // The fused cross-member detection `Fleet::run` does after its pool
    // drains, re-run here over the same streams.
    let merge_s = nanos(|| {
        let fused = merge_time_ordered(&streams);
        let mut ensemble = Ensemble::new();
        ensemble.observe_all(fused.iter());
        black_box(ensemble.verdict());
    }) / 1e9;
    let run = |workers: usize| {
        let fleet = Fleet::new(FleetConfig {
            workers,
            ..config.clone()
        });
        let started = Instant::now();
        let report = fleet.run().expect("fleet run");
        (started.elapsed().as_secs_f64(), report)
    };
    let (one_worker_s, serial_report) = run(1);
    let (pool_s, pooled_report) = run(config.workers);
    let serial_sum_s = member_ms.iter().sum::<f64>() / 1e3;
    report.layer("fleet.member_ms_p50", crate::stats::median(&member_ms));
    report.layer(
        "fleet.member_ms_max",
        member_ms.iter().copied().fold(0.0, f64::max),
    );
    report.layer("fleet.merge_s", merge_s);
    report.layer("fleet.worker_speedup", one_worker_s / pool_s);
    report.layer(
        "fleet.pool_efficiency",
        serial_sum_s / (config.workers as f64 * pool_s),
    );
    report.check(
        "FleetReport equal at 1 and N workers",
        serial_report == pooled_report,
        format!(
            "{} members; 1 worker {one_worker_s:.3} s, {} workers {pool_s:.3} s",
            config.members, config.workers
        ),
    );
    pooled_report
}
