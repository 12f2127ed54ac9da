#!/usr/bin/env python3
"""Per-stage time, minor page faults and memory of a 12,565-bit link payload.

Runs payloads on link_3m and link_20m in turn, in one process, as the
``link_decode`` benchmark workload does (``scenario.transmit`` modulates and
captures the whole payload, ``receiver.demodulate`` decodes it), and prints
for each stage the median wall time and the mean number of minor page
faults per payload. A minor fault is a page the process touches for the
first time since the allocator took it from the kernel, so the count shows
how much of a stage's time goes to fresh memory rather than arithmetic. The
``coupled_offset`` stage is the part of ``capture`` spent in
``SimulatedDut._coupled_offset``: the envelope hold and the detector. The
first payloads are run untimed.

Memory: the last column is how far the process's peak RSS (getrusage's
ru_maxrss) rose while the stage ran, summed over all payloads, the untimed
ones included (the peak is usually set by the first payload of each
scenario); a stage that never sets a new peak shows 0. The last line gives
the process's peak RSS at the end, the figure the benchmark reports as
``peak_rss_mb`` (which also covers its own inputs and harness).

Run from the repository root (Linux; faults come from getrusage):

    python3 tools/link_faults.py --payloads 40
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adcradio import receiver, scenario, signals, simulator  # noqa: E402

RECEIVER_STAGES = ("remove_dc", "recover_timing", "slice_bits")
STAGES = ("capture", "coupled_offset") + RECEIVER_STAGES
WARMUP = 4


def usage() -> tuple[int, int]:
    """Minor faults so far and the peak RSS in KiB (Linux units)."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_maxrss


def timed(record: dict, name: str, fn):
    """fn wrapped to set record[name] to its wall time, minor faults and
    peak-RSS growth in KiB."""

    def wrapper(*args, **kwargs):
        (f0, m0), t0 = usage(), perf_counter()
        out = fn(*args, **kwargs)
        t1, (f1, m1) = perf_counter(), usage()
        record[name] = (t1 - t0, f1 - f0, m1 - m0)
        return out

    return wrapper


def payload(scn, seed: int, record: dict) -> None:
    """One payload as the benchmark runs it, its stages timed into record."""
    bits = signals.generate_bits(12_565, seed)
    rig, source = scenario.build_rig(scn, seed=seed)
    rig.capture = timed(record, "capture", rig.capture)
    trace, params = scenario.transmit(scn, bits, rig=(rig, source))
    # The wrapper holds the rig's bound method: a cycle that would keep
    # every payload's rig alive until the cyclic collector ran.
    del rig.capture
    receiver.demodulate(trace, params)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--payloads", type=int, default=40)
    args = parser.parse_args()
    if args.payloads < 1:
        parser.error("--payloads must be >= 1")
    scenarios = [
        scenario.load_scenario(scenario.bundled_scenario_path(name))
        for name in ("link_3m", "link_20m")
    ]
    record: dict = {}
    for name in RECEIVER_STAGES:  # demodulate looks these up at call time
        setattr(receiver, name, timed(record, name, getattr(receiver, name)))
    # A payload's capture is one pass, so one call of _coupled_offset.
    simulator.SimulatedDut._coupled_offset = timed(
        record, "coupled_offset", simulator.SimulatedDut._coupled_offset
    )
    rows = []
    for i in range(WARMUP + args.payloads):
        record.clear()
        timed(record, "payload", payload)(scenarios[i % 2], 1000 + i, record)
        rows.append(dict(record))
    timed_rows = rows[WARMUP:]
    print(
        f"{args.payloads} payloads, median ms and mean minor faults per payload,"
        " and peak-RSS growth over all payloads"
    )
    for name in STAGES + ("payload",):
        ms = median(row[name][0] for row in timed_rows) * 1e3
        faults = mean(row[name][1] for row in timed_rows)
        grown = sum(row[name][2] for row in rows) / 1024
        print(f"{name:15s} {ms:8.2f} ms {faults:8.0f} faults {grown:8.2f} MiB")
    print(f"peak RSS {usage()[1] / 1024:.2f} MiB")


if __name__ == "__main__":
    main()
