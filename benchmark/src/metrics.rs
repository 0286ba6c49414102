//! The benchmark's metrics, by name: what `BENCHMARK.json` declares and
//! what the results files carry. `tests/smoke.rs` pins the two together.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Parses [`Better::as_str`]'s spelling.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// Which clock a metric reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock (or host memory): noisy, reported as a median.
    Host,
    /// The simulated clock or a count: repeats exactly for a given seed.
    Sim,
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Clock the metric reads.
    pub clock: Clock,
    /// Share of the baseline's median by which the metric may worsen
    /// between two runs *of the same seed* before `compare` calls it worse.
    pub bound: f64,
    /// Whether `BENCHMARK.json` declares the metric, i.e. whether every
    /// workload measures it and it is never zero (see README.md).
    pub declared: bool,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    declared: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound,
        declared,
    }
}

const fn sim(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    declared: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        clock: Clock::Sim,
        bound,
        declared,
    }
}

/// Every end-to-end metric a results file may carry.
pub const END_TO_END: [EndToEnd; 15] = [
    host("setup_s", "s", Better::Lower, 0.10, true),
    host("host_ops_per_s", "1/s", Better::Higher, 0.05, true),
    host("post_attack_s", "s", Better::Lower, 0.10, true),
    host("peak_rss_mib", "MiB", Better::Lower, 0.05, true),
    sim("sim_kiops", "1/ms", Better::Higher, 0.005, true),
    sim("sim_lat_p50_us", "us", Better::Lower, 0.005, false),
    sim("sim_lat_p999_us", "us", Better::Lower, 0.005, false),
    sim("sim_tput_vs_plain", "ratio", Better::Higher, 0.005, false),
    sim("sim_recover_ms", "ms", Better::Lower, 0.005, false),
    sim("write_amp", "ratio", Better::Lower, 0.005, true),
    sim(
        "remote_bytes_per_host_byte",
        "B/B",
        Better::Lower,
        0.005,
        true,
    ),
    sim("recovery_fraction", "ratio", Better::Higher, 0.0, false),
    sim("detect_recall", "ratio", Better::Higher, 0.0, true),
    sim("false_positive_frac", "ratio", Better::Lower, 0.0, false),
    sim("ops_failed_frac", "ratio", Better::Lower, 0.0, false),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in the order of README.md's table. A traced run
/// of any workload emits all of them.
pub const PER_LAYER: [PerLayer; 79] = [
    lower("ssd.round_us_p50", "us"),
    lower("ssd.round_us_p99", "us"),
    lower("ssd.self_frac", "ratio"),
    lower("ssd.rounds", "count"),
    higher("ssd.cmds_per_round", "count"),
    lower("core.batch_us_per_cmd_p50", "us"),
    lower("core.batch_us_per_cmd_p99", "us"),
    lower("core.self_frac", "ratio"),
    lower("core.unattributed_frac", "ratio"),
    lower("core.sync_offloads", "count"),
    lower("core.throttled_writes", "count"),
    lower("core.offload_failures", "count"),
    lower("core.segments_sealed", "count"),
    lower("core.verified_history_us_per_rec", "us"),
    lower("core.analyze_us_per_rec", "us"),
    lower("core.restore_us_per_page", "us"),
    lower("core.harvest_us_per_seg", "us"),
    lower("ftl.write_ns_p50", "ns"),
    lower("ftl.write_ns_p99", "ns"),
    lower("ftl.read_ns_p50", "ns"),
    lower("ftl.gc_invocations", "count"),
    lower("ftl.gc_pages_migrated", "count"),
    lower("ftl.write_stalls", "count"),
    lower("flash.program_ns_p50", "ns"),
    lower("flash.read_ns_p50", "ns"),
    lower("flash.erase_ns_p50", "ns"),
    lower("flash.programs", "count"),
    lower("flash.reads", "count"),
    lower("flash.erases", "count"),
    lower("flash.background_reads", "count"),
    higher("flash.chan_util_avg", "ratio"),
    lower("crypto.chain_append_ns_p50", "ns"),
    lower("crypto.chain_verify_ns_per_rec", "ns"),
    lower("crypto.sha256_ns_per_kib", "ns/KiB"),
    lower("crypto.chacha20_ns_per_kib", "ns/KiB"),
    lower("crypto.hmac_ns_per_kib", "ns/KiB"),
    lower("compress.entropy_ns_per_page", "ns"),
    lower("compress.encode_ns_per_kib.text", "ns/KiB"),
    lower("compress.encode_ns_per_kib.binary", "ns/KiB"),
    lower("compress.encode_ns_per_kib.zero", "ns/KiB"),
    lower("compress.encode_ns_per_kib.random", "ns/KiB"),
    lower("compress.decode_ns_per_kib.text", "ns/KiB"),
    lower("compress.decode_ns_per_kib.binary", "ns/KiB"),
    lower("compress.decode_ns_per_kib.zero", "ns/KiB"),
    lower("compress.decode_ns_per_kib.random", "ns/KiB"),
    higher("compress.ratio", "ratio"),
    lower("compress.store_frac", "ratio"),
    lower("net.wire_self_frac", "ratio"),
    lower("net.transfer_us_per_seg_p50", "us"),
    lower("net.transfer_us_per_seg_p99", "us"),
    lower("net.capsules_sent", "count"),
    lower("net.retransmissions", "count"),
    lower("net.rto_timeouts", "count"),
    higher("net.goodput_frac", "ratio"),
    lower("remote.ingest_us_per_seg_p50", "us"),
    lower("remote.ingest_us_per_seg_p99", "us"),
    lower("remote.fetch_us_per_seg_p50", "us"),
    lower("remote.self_frac", "ratio"),
    lower("remote.segments_stored", "count"),
    lower("remote.stored_bytes", "B"),
    lower("remote.records_analyzed", "count"),
    lower("detect.observe_ns_p50", "ns"),
    lower("detect.merge_ns_per_obs", "ns"),
    lower("detect.observations", "count"),
    lower("array.self_ns_per_cmd", "ns"),
    lower("array.shard_imbalance", "ratio"),
    lower("faults.injector_self_ns_per_cmd", "ns"),
    lower("fleet.member_ms_p50", "ms"),
    lower("fleet.member_ms_max", "ms"),
    lower("fleet.merge_s", "s"),
    higher("fleet.worker_speedup", "ratio"),
    higher("fleet.pool_efficiency", "ratio"),
    lower("trace.gen_ns_per_record", "ns"),
    lower("trace.synth_page_ns.text", "ns"),
    lower("trace.synth_page_ns.binary", "ns"),
    lower("trace.synth_page_ns.zero", "ns"),
    lower("trace.synth_page_ns.random", "ns"),
    lower("obs.bench_trace_overhead_frac", "ratio"),
    lower("obs.sink_overhead_frac", "ratio"),
];

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}
