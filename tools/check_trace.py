#!/usr/bin/env python3
"""Structural validator for the dual-timeline Chrome traces rssd-obs emits.

Usage: check_trace.py TRACE.json [TRACE2.json ...]

Checks, per trace file:

* the document is a Chrome trace-event JSON array (or an object with a
  "traceEvents" array) and every event is well-formed for its phase:
  "X" spans carry numeric ts and dur >= 0, "i" instants carry ts and a
  scope, "M" metadata names its thread;
* every (pid, tid) an event lands on is named by thread_name metadata —
  that name is the track;
* the dual timeline is intact: every sim event carries host_ns in args;
* sim-time is monotone (non-decreasing ts) per track in emission order —
  each track renders one simulated clock (NAND unit, GC, uplink, member),
  so time can never step backwards within it;
* the wire-loss pairing invariant: on every track, each retransmission
  of a (segment, fragment) is preceded by at least as many data-frame
  losses of that same (segment, fragment) — retransmissions never appear
  out of thin air (ack losses may add unpaired losses; that is the
  asymmetry of the go-back-to-retry protocol, and it is allowed);
* the offload pairing invariant: on every track, each segment_transfer
  span is closed by exactly one segment_ack with the same segment_seq
  (the device acting on the ack, never before the arrival carried in
  acked_at_ns) or, when a power cut got there first, by one
  segment_ack_lost - no ack without a transfer, no second transfer of a
  segment whose ack is still in flight, nothing left in flight at the end.

Exit 0 with a summary line when every file passes, exit 1 listing every
violation otherwise.
"""

import json
import sys
from pathlib import Path


def load_events(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    if isinstance(data, dict):
        data = data.get("traceEvents", [])
    if not isinstance(data, list):
        raise ValueError("not a trace-event array")
    return data


def check_trace(path: Path) -> tuple[list[str], str]:
    failures: list[str] = []
    try:
        events = load_events(path)
    except (ValueError, json.JSONDecodeError) as err:
        return [f"{path}: unparseable trace: {err}"], ""

    # Track naming: thread_name metadata maps (pid, tid) -> track.
    tracks: dict[tuple, str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            name = ev.get("args", {}).get("name")
            if not name:
                failures.append(f"{path}: thread_name metadata without a name")
                continue
            tracks[(ev.get("pid"), ev.get("tid"))] = name

    last_ts: dict[str, float] = {}
    # Wire pairing state, per track: (segment, fragment) -> pending loss
    # count not yet consumed by a retransmission.
    data_losses: dict[tuple, int] = {}
    # Offload pairing state: (track, segment) -> event index of the
    # segment_transfer whose ack is still in flight.
    in_flight: dict[tuple, int] = {}
    spans = instants = 0

    for index, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        where = f"{path}: event {index} ({ev.get('name', '?')})"
        if ph not in ("X", "i"):
            failures.append(f"{where}: unexpected phase {ph!r}")
            continue
        key = (ev.get("pid"), ev.get("tid"))
        track = tracks.get(key)
        if track is None:
            failures.append(f"{where}: lands on unnamed track {key}")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            failures.append(f"{where}: non-numeric ts {ts!r}")
            continue
        args = ev.get("args", {})
        if "host_ns" not in args:
            failures.append(f"{where}: missing host_ns - dual timeline broken")
        if ph == "X":
            spans += 1
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                failures.append(f"{where}: span with bad dur {dur!r}")
        else:
            instants += 1
            if "s" not in ev:
                failures.append(f"{where}: instant without a scope")

        # Per-track monotone simulated time, in emission order.
        prev = last_ts.get(track)
        if prev is not None and ts < prev:
            failures.append(
                f"{where}: sim-time regressed on track {track!r} "
                f"({prev} -> {ts} us)")
        last_ts[track] = ts

        # Wire pairing: count data losses, consume one per retransmission.
        name = ev.get("name")
        if name == "link_loss" and args.get("kind", "data") == "data":
            frag = (track, args.get("segment_seq"), args.get("fragment"))
            data_losses[frag] = data_losses.get(frag, 0) + 1
        elif name == "retransmission":
            frag = (track, args.get("segment_seq"), args.get("fragment"))
            if data_losses.get(frag, 0) <= 0:
                failures.append(
                    f"{where}: retransmission of segment "
                    f"{args.get('segment_seq')} fragment {args.get('fragment')} "
                    f"on {track!r} without a preceding data-frame loss")
            else:
                data_losses[frag] -= 1
        # Offload pairing: a transfer opens, exactly one ack closes.
        elif name == "segment_transfer":
            seg = (track, args.get("segment_seq"))
            if seg in in_flight:
                failures.append(
                    f"{where}: segment {seg[1]} on {track!r} transferred "
                    f"again while its ack is still in flight")
            in_flight[seg] = index
        elif name in ("segment_ack", "segment_ack_lost"):
            seg = (track, args.get("segment_seq"))
            if in_flight.pop(seg, None) is None:
                failures.append(
                    f"{where}: {name} for segment {seg[1]} on {track!r} "
                    f"closes no segment_transfer")
            arrival_us = float(args.get("acked_at_ns", 0)) / 1000
            if name == "segment_ack" and ts + 0.001 < arrival_us:
                failures.append(
                    f"{where}: segment {seg[1]} on {track!r} retired at "
                    f"{ts} us, before its ack arrives ({arrival_us} us)")

    for (track, seq), index in in_flight.items():
        failures.append(
            f"{path}: event {index} (segment_transfer): segment {seq} on "
            f"{track!r} is never acknowledged")

    if not tracks:
        failures.append(f"{path}: no named tracks - empty or metadata-free trace")
    summary = (f"{path.name}: {len(tracks)} tracks, {spans} spans, "
               f"{instants} instants")
    return failures, summary


def main() -> None:
    if len(sys.argv) < 2:
        sys.exit(__doc__.strip().splitlines()[2])
    failures: list[str] = []
    summaries: list[str] = []
    for arg in sys.argv[1:]:
        file_failures, summary = check_trace(Path(arg))
        failures.extend(file_failures)
        if summary:
            summaries.append(summary)
    if failures:
        for failure in failures[:50]:
            print(f"FAIL: {failure}")
        if len(failures) > 50:
            print(f"... and {len(failures) - 50} more")
        sys.exit(1)
    print("trace gate: OK (" + "; ".join(summaries) +
          " - monotone per track, spans well-formed, dual timeline intact, "
          "retransmissions paired with losses, transfers paired with acks)")


if __name__ == "__main__":
    main()
