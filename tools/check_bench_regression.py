#!/usr/bin/env python3
"""Bench regression gate for the perf-tracking JSON summaries.

Parses BENCH_qd_sweep.json (written by `cargo bench --bench qd_sweep`) and
fails the build unless the device-internal parallelism holds:

* QD32 throughput >= 2x QD1 for each model on the default 4-channel
  geometry (the PR acceptance gate),
* throughput rises monotonically with queue depth per model,
* the rssd rows are not identical to the plain rows (RSSD's overhead is
  real),
* p50 < p99 in at least one row (the log-linear histogram satellite), and
* the rssd QD32 replay clears a host wall-clock throughput floor — the
  zero-copy offload wire path is a tracked perf surface; re-introducing
  the per-hop serialization copies would land ~3x below the floor.

Also sanity-checks BENCH_array_scaling.json's 1 -> 4 shard monotonicity,
BENCH_offload_wire.json's link physics (datacenter out-runs WAN, lossy
links pay in retransmissions, recovery-window integrity holds on every
link, and - offload overlapping host I/O - the WAN rows keep >= 0.9x the
ideal link's host kIOPS), and BENCH_fleet.json's fleet-scale surface
(simulated results byte-identical across worker counts, detection recall and zero false
positives at every fleet size, a sim-throughput floor at 256 members, and
core-aware worker-pool scaling), and BENCH_degradation.json's offload
health slope (Throttled throughput strictly between Stalled and Healthy
and >= 25% of it, post-heal drain completes, zero evidence loss across
outage and crash), so the artifacts uploaded by CI are never regressed
ones.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_doc(name: str) -> dict:
    path = ROOT / name
    if not path.is_file():
        sys.exit(f"FAIL: {name} missing - run `cargo bench --bench "
                 f"{name.removeprefix('BENCH_').removesuffix('.json')}` first")
    return json.loads(path.read_text())


def load_rows(name: str) -> dict:
    return {row["config"]: row for row in load_doc(name)["rows"]}


def check_profile_section(name: str, doc: dict, required: tuple) -> list[str]:
    """The host-profile contract: a "profile" section whose per-phase
    self-times are the whole span partitioned - percentages must sum to
    ~100 (the profiler's self-time accounting makes this structural, so a
    drift means broken instrumentation, not noise) and the named hot-loop
    phases must actually accrue."""
    failures = []
    profile = doc.get("profile")
    if not profile:
        return [f"{name}: profile section missing - phase timers not wired"]
    phases = {p["phase"]: p for p in profile.get("phases", [])}
    pct_sum = sum(p["pct"] for p in phases.values())
    if abs(pct_sum - 100.0) > 0.1:
        failures.append(
            f"{name}: profile phases sum to {pct_sum:.3f}% - self-time "
            "accounting no longer partitions the span")
    self_sum = sum(p["self_ms"] for p in phases.values())
    total = profile.get("total_ms", 0.0)
    if total <= 0.0:
        failures.append(f"{name}: profile total_ms is {total}")
    elif abs(self_sum - total) > max(0.001, 0.001 * total):
        failures.append(
            f"{name}: phase self_ms sum {self_sum:.3f} != total_ms "
            f"{total:.3f}")
    for phase in required:
        if phase not in phases:
            failures.append(f"{name}: required phase {phase!r} missing")
        elif phases[phase]["self_ms"] <= 0.0:
            failures.append(f"{name}: phase {phase!r} never accrued")
    return failures


# Ceiling on the wire phase's share of the QD32 replay. The zero-copy
# offload path (one serialize+seal into one refcounted buffer shared
# through fragmentation, retransmission, and the store) holds wire at
# ~16%; the old copy-per-hop path sat at 78%. Compression is profiled as
# its own phase and deliberately not counted against this ceiling.
WIRE_PCT_CEILING = 25.0


def check_profile() -> list[str]:
    doc = load_doc("BENCH_profile.json")
    failures = check_profile_section(
        "BENCH_profile.json", doc,
        ("arbitration", "nand_timing", "completion_sort", "stats", "wire",
         "compress"))
    # The rows mirror the profile section one phase per row.
    rows = {row["config"]: row for row in doc["rows"]}
    pct_sum = sum(row["pct"] for row in rows.values())
    if abs(pct_sum - 100.0) > 0.1:
        failures.append(
            f"BENCH_profile.json: row pcts sum to {pct_sum:.3f}%")
    phases = {p["phase"]: p for p in doc.get("profile", {}).get("phases", [])}
    wire_pct = phases.get("wire", {}).get("pct")
    if wire_pct is not None and wire_pct > WIRE_PCT_CEILING:
        failures.append(
            f"BENCH_profile.json: wire phase at {wire_pct:.1f}% of the QD32 "
            f"replay > {WIRE_PCT_CEILING:.0f}% ceiling - the offload path "
            "is copying again")
    return failures


def check_qd_sweep() -> list[str]:
    rows = load_rows("BENCH_qd_sweep.json")
    failures = []
    depths = [1, 8, 32]
    for model in ("plain", "rssd"):
        tput = {}
        for depth in depths:
            config = f"{model}_qd{depth}"
            if config not in rows:
                failures.append(f"{config}: row missing from BENCH_qd_sweep.json")
                continue
            tput[depth] = rows[config]["throughput_kiops"]
        if len(tput) != len(depths):
            continue
        if tput[32] < 2.0 * tput[1]:
            failures.append(
                f"{model}: QD32 must be >= 2x QD1 on the 4-channel default "
                f"geometry (qd1 {tput[1]:.2f} kIOPS, qd32 {tput[32]:.2f} kIOPS)")
        for lo, hi in zip(depths, depths[1:]):
            if tput[hi] <= tput[lo]:
                failures.append(
                    f"{model}: throughput must rise with depth "
                    f"(qd{lo} {tput[lo]:.2f} vs qd{hi} {tput[hi]:.2f} kIOPS)")
    identical = all(
        rows.get(f"plain_qd{d}", {}).get("sim_end_ms")
        == rows.get(f"rssd_qd{d}", {}).get("sim_end_ms")
        for d in depths)
    if identical:
        failures.append("rssd rows are byte-identical to plain at every depth "
                        "- RSSD's overhead is not being modeled")
    if not any(row.get("p50_us", 0) < row.get("p99_us", 0) for row in rows.values()):
        failures.append("p50 == p99 in every row - the latency histogram has "
                        "collapsed back to octave resolution")
    # Host wall-clock floor on the rssd QD32 replay. The zero-copy wire
    # path lands ~68k ops/host-s on the CI container; the pre-fix
    # serialization-tax path ran ~3x slower (~22k), so 40k separates the
    # two with noise headroom on both sides.
    floor = 40_000.0
    host_tput = rows.get("rssd_qd32", {}).get("ops_per_host_sec")
    if host_tput is None:
        failures.append("rssd_qd32: ops_per_host_sec missing from "
                        "BENCH_qd_sweep.json")
    elif host_tput < floor:
        failures.append(
            f"rssd_qd32: host throughput {host_tput:.0f} ops/host-s < "
            f"{floor:.0f} floor - the offload wire path has slowed down")
    return failures


def check_array_scaling() -> list[str]:
    rows = load_rows("BENCH_array_scaling.json")
    failures = []
    tputs = []
    for shards in (1, 2, 4):
        config = f"{shards}_shards"
        if config not in rows:
            failures.append(f"{config}: row missing from BENCH_array_scaling.json")
            return failures
        tputs.append((shards, rows[config]["throughput_kiops"]))
    for (a_shards, a), (b_shards, b) in zip(tputs, tputs[1:]):
        if b <= a:
            failures.append(
                f"array throughput must scale {a_shards} -> {b_shards} shards "
                f"({a:.2f} vs {b:.2f} kIOPS)")
    return failures


def check_offload_wire() -> list[str]:
    rows = load_rows("BENCH_offload_wire.json")
    failures = []
    expected = ("ideal", "dc_10g", "dc_10g_loss2", "dc_10g_loss20",
                "wan_cloud", "wan_loss2")
    for config in expected:
        if config not in rows:
            failures.append(f"{config}: row missing from BENCH_offload_wire.json")
    if failures:
        return failures
    dc = rows["dc_10g"]["offload_mbps"]
    wan = rows["wan_cloud"]["offload_mbps"]
    if dc <= wan:
        failures.append(
            f"datacenter link must out-run the WAN "
            f"(dc_10g {dc:.2f} vs wan_cloud {wan:.2f} MB/s)")
    if rows["wan_cloud"]["sim_end_ms"] <= rows["dc_10g"]["sim_end_ms"]:
        failures.append("WAN propagation is not landing on the device "
                        "timeline (wan sim_end <= datacenter sim_end)")
    # Offload overlaps host I/O: a WAN costs the host the staging window,
    # not a round trip per segment.
    ideal = rows["ideal"]["host_kiops"]
    for config in ("wan_cloud", "wan_loss2"):
        kiops = rows[config]["host_kiops"]
        if kiops < 0.9 * ideal:
            failures.append(
                f"{config}: {kiops:.3f} host kIOPS is below 0.9x the ideal "
                f"link's {ideal:.3f} - acks are being waited for in the "
                "foreground again")
    for config in ("dc_10g_loss2", "dc_10g_loss20", "wan_loss2"):
        if rows[config]["retransmissions"] <= 0:
            failures.append(f"{config}: lossy link shows zero retransmissions "
                            "- the loss model is disconnected from the wire")
    for config in expected:
        if rows[config]["recovery_ok"] != 1.0:
            failures.append(f"{config}: recovery-window integrity broken - "
                            "the link is costing evidence, not just time")
    return failures


def check_fleet() -> list[str]:
    doc = load_doc("BENCH_fleet.json")
    rows = {row["config"]: row for row in doc["rows"]}
    failures = check_profile_section(
        "BENCH_fleet.json", doc,
        ("arbitration", "nand_timing", "completion_sort", "stats", "detect"))
    sizes = (16, 64, 256)
    workers = (1, 4, 8)
    for members in sizes:
        for count in workers:
            config = f"fleet{members}_w{count}"
            if config not in rows:
                failures.append(f"{config}: row missing from BENCH_fleet.json")
    if failures:
        return failures

    # Determinism: worker count is a host-side knob; every simulated result
    # must be identical across worker counts for a given fleet size.
    for members in sizes:
        base = rows[f"fleet{members}_w1"]
        for count in workers[1:]:
            row = rows[f"fleet{members}_w{count}"]
            for metric in ("total_ops", "sim_iops", "detection_recall",
                           "false_positives", "fleet_score"):
                if row[metric] != base[metric]:
                    failures.append(
                        f"fleet{members}: {metric} differs between 1 and "
                        f"{count} workers ({base[metric]} vs {row[metric]}) "
                        "- worker count is leaking into simulated results")

    # Detection quality must survive fleet scale.
    for members in sizes:
        row = rows[f"fleet{members}_w1"]
        if row["detection_recall"] < 0.9:
            failures.append(
                f"fleet{members}: detection recall {row['detection_recall']:.2f} "
                "< 0.9 - per-member audits are missing compromised members")
        if row["false_positives"] != 0.0:
            failures.append(
                f"fleet{members}: {row['false_positives']:.0f} clean members "
                "falsely flagged")

    # Wall-clock sim-throughput floor at the largest fleet: the simulator
    # itself is a tracked perf surface now.
    floor = 2000.0
    best_256 = max(rows[f"fleet256_w{c}"]["ops_per_host_sec"] for c in workers)
    if best_256 < floor:
        failures.append(
            f"fleet256: best sim-throughput {best_256:.0f} ops/host-s < "
            f"{floor:.0f} floor - the fleet harness has slowed down")

    # Worker-pool scaling, judged against the cores the bench actually had:
    # a >= 4-core host must show real speedup; a core-starved host only has
    # to prove the pool is not collapsing under contention.
    host_cores = rows["fleet256_w1"]["host_cores"]
    one = rows["fleet256_w1"]["ops_per_host_sec"]
    eight = rows["fleet256_w8"]["ops_per_host_sec"]
    speedup = eight / one if one > 0 else 0.0
    required = 2.0 if host_cores >= 4 else 0.5
    if speedup < required:
        failures.append(
            f"fleet256: 8-worker/1-worker host-throughput ratio {speedup:.2f} "
            f"< {required:.1f} on a {host_cores:.0f}-core host")
    return failures


def check_degradation() -> list[str]:
    rows = load_rows("BENCH_degradation.json")
    failures = []
    expected = ("healthy", "buffering_ramp", "throttled", "stalled", "drain",
                "crash_replay")
    for config in expected:
        if config not in rows:
            failures.append(f"{config}: row missing from BENCH_degradation.json")
    if failures:
        return failures

    # Admission control is a slope, not a cliff: Throttled throughput sits
    # strictly between Stalled and Healthy, and a throttled device is still
    # a useful device (>= 25% of healthy).
    healthy = rows["healthy"]["write_kiops"]
    throttled = rows["throttled"]["write_kiops"]
    stalled = rows["stalled"]["write_kiops"]
    if not stalled < throttled < healthy:
        failures.append(
            f"throttled throughput must sit strictly between stalled and "
            f"healthy (stalled {stalled:.2f} < throttled {throttled:.2f} < "
            f"healthy {healthy:.2f} kIOPS violated)")
    if throttled < 0.25 * healthy:
        failures.append(
            f"throttled throughput {throttled:.2f} kIOPS < 25% of healthy "
            f"{healthy:.2f} kIOPS - the admission penalty has become a cliff")
    if rows["stalled"]["refused"] <= 0:
        failures.append("stalled: zero refusals - the Stalled state is not "
                        "refusing writes")
    if rows["throttled"]["refused"] != 0:
        failures.append("throttled: writes were refused - the refusal cliff "
                        "belongs to Stalled only")

    # The post-heal drain completes: no staged backlog, no spill residue,
    # every sealed segment acknowledged.
    drain = rows["drain"]
    if drain["drain_complete"] != 1.0:
        failures.append("drain: post-heal drain did not complete")
    if drain["staged_after"] != 0.0 or drain["spill_bytes_after"] != 0.0:
        failures.append(
            f"drain: residue after heal (staged {drain['staged_after']:.0f}, "
            f"spill bytes {drain['spill_bytes_after']:.0f})")
    if drain["segments_spilled"] <= 0:
        failures.append("drain: the outage never exercised the spill region")

    # Zero evidence loss, outage, crash and all.
    for config in ("drain", "crash_replay"):
        row = rows[config]
        if row["evidence_loss_segments"] != 0.0:
            failures.append(
                f"{config}: {row['evidence_loss_segments']:.0f} sealed "
                "segments never reached the remote - evidence lost")
        if row["chain_verified"] != 1.0:
            failures.append(f"{config}: evidence chain does not verify")
    if rows["crash_replay"]["spill_replayed"] <= 0:
        failures.append("crash_replay: recovery did not replay the spill "
                        "region")
    return failures


def main() -> None:
    failures = (check_qd_sweep() + check_array_scaling() + check_offload_wire()
                + check_fleet() + check_profile() + check_degradation())
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        sys.exit(1)
    print("bench regression gate: OK "
          "(QD scaling >= 2x, monotonic, rssd != plain, p50 < p99, "
          "QD32 host-throughput floor holds, wire physics hold, "
          "recovery survives every link, fleet deterministic across "
          "workers, sim-throughput floor holds, host profiles partition "
          "their spans, wire phase under its ceiling, degradation slope "
          "ordered with throttled >= 25% of healthy, post-heal drain "
          "complete, zero evidence loss)")


if __name__ == "__main__":
    main()
