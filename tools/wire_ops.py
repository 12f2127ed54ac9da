#!/usr/bin/env python3
"""Microseconds per 64-sample capture through the wire codec, and where they go.

Runs the captures of the ``sweep_loopback`` benchmark workload
(``benchmarks/workloads.py``: demo_board at the CLI ``sweep`` defaults, 8
configs x 81 frequencies x off/on, 2 blocks of 32 samples per capture) on
two demo_board paths: the first whose coupling model couples nothing in
every config, and the first that couples in every config; neither drifts
nor bursts. Each (path, config) is one ``backend.capture_groups`` call
through ``SerialBackend`` -> ``LoopbackTransport`` -> ``DutProtocolServer``,
as ``run_sweep`` makes it.

For each path it prints the median over rounds of the time per capture
through the codec, split into

- host: the client's request, frame read and decode, and ``capture_groups``
  (everything outside ``DutProtocolServer.handle_line``);
- server: ``handle_line`` less the simulator (parse, dispatch, DATA frame);
- simulator: ``SimulatedDut.capture_codes``;

and the time per capture of the same captures sent straight to a
``SimulatorBackend`` of a rig built with the same seed (``rf_set`` and
``capture_codes`` per capture, as ``capture_groups`` does on a backend
without a batched path). The codes of both must be equal.

Times are host wall time (perf_counter), not the benchmark's
speed-normalized ones. The first round is run untimed.

Run from the repository root:

    python3 tools/wire_ops.py --rounds 5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from adcradio import backend as bk  # noqa: E402
from adcradio import protocol, scenario, sweep  # noqa: E402
from workloads import FULL, SweepLoopback  # noqa: E402

WARMUP = 1
PARTS = ("host", "server", "simulator")


def spectrum_schedule(plan) -> bk.StimulusSchedule:
    """The off and on stimulus of each frequency, as run_sweep builds them."""
    return bk.StimulusSchedule(
        bk.RfStimulus(freq_hz=freq, power_dbm=plan.power_dbm, enabled=enabled)
        for freq in plan.freqs_hz
        for enabled in (False, True)
    )


def pick_paths(scn, plans) -> dict[str, tuple]:
    """The first uncoupled and the first coupled path of the workload's
    plans, as (plan, path), neither with drift or bursts in any config."""
    dut = scenario.build_rig(scn, seed=0)[0].dut
    picked = {}
    for plan in plans:
        for path in plan.paths:
            models = [dut.model_for(path.index, config) for config in plan.configs]
            if any(m.drift.walk_step > 0 or m.drift.sine_amplitude > 0 for m in models):
                continue
            if any(m.burst.rate_per_s > 0 for m in models):
                continue
            coupled = {bool(m.resonances) for m in models}
            if len(coupled) == 1:
                picked.setdefault("coupled" if coupled.pop() else "uncoupled", (plan, path))
    return picked


def timed(fn, total: list[float]):
    def wrapper(*args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            total[0] += perf_counter() - t0

    return wrapper


def codec_round(scn, plan, path, seed: int):
    """One path's captures through the codec: (seconds per part, codes)."""
    backend, source = scenario.build_rig(scn, seed=seed)
    server = protocol.DutProtocolServer(backend)
    client = protocol.SerialBackend(protocol.LoopbackTransport(server))
    in_server, in_simulator = [0.0], [0.0]
    server.handle_line = timed(server.handle_line, in_server)
    backend.dut.capture_codes = timed(backend.dut.capture_codes, in_simulator)
    schedule = spectrum_schedule(plan)
    n_blocks = plan.blocks_per_state + sweep.SETTLE_BLOCKS
    codes = []
    t0 = perf_counter()
    for config in plan.configs:
        client.configure(path, config, plan.effective_adc)
        codes.append(bk.capture_groups(client, source, schedule, 2, n_blocks)[0])
    total = perf_counter() - t0
    parts = {
        "host": total - in_server[0],
        "server": in_server[0] - in_simulator[0],
        "simulator": in_simulator[0],
    }
    return parts, np.concatenate(codes)


def direct_round(scn, plan, path, seed: int):
    """The same captures straight to the simulator backend: (seconds, codes)."""
    backend, source = scenario.build_rig(scn, seed=seed)
    schedule = spectrum_schedule(plan)
    stimuli = [schedule.stimuli[row] for row in schedule.rows.tolist()]
    n_blocks = plan.blocks_per_state + sweep.SETTLE_BLOCKS
    codes = []
    t0 = perf_counter()
    for config in plan.configs:
        backend.configure(path, config, plan.effective_adc)
        for stimulus in stimuli:
            source.rf_set(stimulus)
            codes.append(backend.capture_codes(n_blocks))
    return perf_counter() - t0, np.concatenate(codes)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    # The workload's own scenario and plans; its other arguments are used
    # only by its run and check, which this tool does not call.
    loopback = SweepLoopback(0, FULL, ROOT, clock=None)
    picked = pick_paths(loopback.scenario, loopback.plans)
    print(f"{args.rounds} rounds, us per 64-sample capture, median over rounds")
    columns = ("codec", "host", "server", "sim", "direct")
    print(f"{'path':18s} " + " ".join(f"{c:>8s}" for c in columns) + " ratio")
    for name in ("uncoupled", "coupled"):
        plan, path = picked[name]
        n = len(plan.configs) * 2 * len(plan.freqs_hz)
        by_part = {part: [] for part in PARTS}
        codec_us, direct_us = [], []
        for i in range(WARMUP + args.rounds):
            parts, codes = codec_round(loopback.scenario, plan, path, 1000 + i)
            direct_s, direct_codes = direct_round(loopback.scenario, plan, path, 1000 + i)
            if not np.array_equal(codes.ravel(), direct_codes.ravel()):
                raise SystemExit(f"path {path.index}: codec and direct codes differ")
            if i >= WARMUP:
                for part in PARTS:
                    by_part[part].append(parts[part] / n * 1e6)
                codec_us.append(sum(parts.values()) / n * 1e6)
                direct_us.append(direct_s / n * 1e6)
        codec, direct = median(codec_us), median(direct_us)
        split = " ".join(f"{median(by_part[part]):8.2f}" for part in PARTS)
        label = f"{name} {path.index}"
        print(f"{label:18s} {codec:8.2f} {split} {direct:8.2f} {codec / direct:5.2f}x")


if __name__ == "__main__":
    main()
