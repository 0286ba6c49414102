//! Wrapper transparency: the span wrappers forward every trait method, so
//! the simulation is bit-identical with and without them — simulated end
//! time, latencies, the bytes read, and the NAND, FTL, offload, wire and
//! server statistics — on a 2 000-command script, for every device
//! workload (batched replay, scalar attack actors, post-attack phase).

use rssd_benchmark::spans::Tracer;
use rssd_benchmark::workloads::device::{traced_rep, untraced_rep};
use rssd_benchmark::workloads::device_workload;

#[test]
fn simulation_is_identical_with_and_without_wrappers() {
    for name in ["steady_qd32", "read_mostly_qd1", "attack_recover"] {
        let workload = rssd_benchmark::workloads::device::DeviceWorkload {
            commands: 2_000,
            ..device_workload(name, true).unwrap()
        };
        let inputs = workload.inputs(7);
        assert_eq!(inputs.script.len(), 2_000);
        let bare = untraced_rep(&workload, &inputs, 7);
        let tracer = Tracer::recording("ssd.process_round");
        let wrapped = traced_rep(&workload, &inputs, 7, &tracer);

        assert_eq!(
            bare.sim.sim_end_ns, wrapped.sim.sim_end_ns,
            "{name}: sim end time"
        );
        assert_eq!(bare.sim.nand, wrapped.sim.nand, "{name}: NandStats");
        assert_eq!(bare.sim.ftl, wrapped.sim.ftl, "{name}: FtlStats");
        assert_eq!(
            bare.sim.offload, wrapped.sim.offload,
            "{name}: OffloadStats"
        );
        assert_eq!(bare.sim, wrapped.sim, "{name}: every other sim figure");
        assert_eq!(bare.failed, 0, "{name}");
        assert!(bare.sim.post.history_verified, "{name}");
        assert_eq!(bare.sim.post.intact, bare.sim.post.victims, "{name}");

        // The wrappers did see the traffic: one batch span per round, and
        // the self times of each round's tree add up to the round.
        let rounds = &wrapped.timed_spans["ssd.process_round"];
        let batches = &wrapped.timed_spans["device.submit_batch_timed"];
        assert_eq!(rounds.count, wrapped.rounds, "{name}");
        assert_eq!(batches.count, wrapped.rounds, "{name}");
        assert_eq!(wrapped.under_round_self_ns, rounds.total_ns, "{name}");
        assert!(
            wrapped.timed_spans.contains_key("remote.store_segment"),
            "{name}"
        );
        assert!(bare.timed_spans.is_empty(), "{name}");
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let workload = device_workload("steady_qd32", true).unwrap();
    let (a, b, c) = (workload.inputs(5), workload.inputs(5), workload.inputs(6));
    assert_eq!(a.script, b.script);
    assert_eq!(a.pool.page(17), b.pool.page(17));
    assert_ne!(a.script, c.script);
}
