#!/usr/bin/env python3
"""Per-(path, config) operation times of desk sweep rounds, by model class.

Sweeps demo_board with the plan of the ``sweep_desk`` benchmark workload
(``benchmarks/workloads.py``, taken from the workload itself: every path at
the CLI ``sweep`` defaults), and times each (path, config) operation from
one ``configure`` to the next, the last one to the end of the sweep. It prints the count, p50 and
p99 of the operation times over all rounds, for each class of the path's
coupling model:

- uncoupled: no resonance, no drift and no bursts (noise only);
- coupled: resonances, no drift and no bursts;
- drifting/bursting: a random walk, a sinusoid or bursts (each counted only
  when ``simulator._impair`` adds it).

Then, for each drifting or bursting path (demo_board paths 42 and 70), it
gives the median time of the path's operations against their draw floor:
the time to draw the same random numbers in bulk, one ``standard_normal``
call for all of a spectrum's normals and one ``random`` call for all its
burst uniforms, which no capture order can undercut. A spectrum's draws
must come in capture order (per state: noise, walk steps, burst
uniforms), so the floor is a bound, not a target.

Last, it sweeps the last round's seed again under tracemalloc and prints
the bytes that round's SweepResult holds, in all and per record: those
that tracemalloc sees freed when the result is dropped.

Times are host wall time (perf_counter), not the benchmark's
speed-normalized ones. The first round is run untimed.

Run from the repository root:

    python3 tools/desk_ops.py --rounds 5
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from adcradio import scenario, sweep  # noqa: E402
from workloads import FULL, SweepDesk  # noqa: E402

CLASSES = ("uncoupled", "coupled", "drifting/bursting")
WARMUP = 1
FLOOR_REPEATS = 50


def model_class(model) -> str:
    drift, burst = model.drift, model.burst
    sine = drift.sine_amplitude > 0 and drift.sine_period_s > 0
    bursts = burst.rate_per_s > 0 and burst.duration_s > 0
    if drift.walk_step > 0 or sine or bursts:
        return "drifting/bursting"
    return "coupled" if model.resonances else "uncoupled"


def timed_round(scn, plan, seed: int) -> list[tuple]:
    """One desk round: (coupling model, path index, seconds) per (path,
    config), in sweep order."""
    backend, source = scenario.build_rig(scn, seed=seed)
    marks = []
    configure = backend.configure

    def timed_configure(path, config, adc):
        marks.append((backend.dut.model_for(path.index, config), path.index, perf_counter()))
        return configure(path, config, adc)

    backend.configure = timed_configure
    sweep.run_sweep(plan, backend, source)
    end = perf_counter()
    ends = [t for _, _, t in marks[1:]] + [end]
    return [(model, index, stop - start) for (model, index, start), stop in zip(marks, ends)]


def result_bytes(scn, plan, seed: int) -> int:
    """Bytes that the SweepResult of the desk round of ``seed`` holds under
    tracemalloc. A full collection before each reading empties the free
    lists, whose blocks tracemalloc counts as allocated."""
    backend, source = scenario.build_rig(scn, seed=seed)
    tracemalloc.start()
    try:
        result = sweep.run_sweep(plan, backend, source)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def draw_floor(model, size: int) -> float:
    """Median seconds to draw a spectrum's random numbers in bulk."""
    normals = (model.noise_sigma > 0) + (model.drift.walk_step > 0)
    bursts = model.burst.rate_per_s > 0 and model.burst.duration_s > 0
    rng = np.random.default_rng(0)
    z, u = np.empty(normals * size), np.empty(size)
    times = []
    for _ in range(FLOOR_REPEATS):
        t0 = perf_counter()
        rng.standard_normal(out=z)
        if bursts:
            rng.random(out=u)
        times.append(perf_counter() - t0)
    return median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    # The workload's own scenario and plan; its other arguments are used only
    # by its run and check, which this tool does not call.
    desk = SweepDesk(0, FULL, ROOT, clock=None)
    scn, plan = desk.scenario, desk.plan
    ops = []
    for i in range(WARMUP + args.rounds):
        round_ops = timed_round(scn, plan, 1000 + i)
        if i >= WARMUP:
            ops += round_ops
    print(f"{args.rounds} desk rounds, {len(ops)} operations, ms per (path, config)")
    print(f"{'class':18s} {'count':>6s} {'p50':>8s} {'p99':>8s}")
    for name in CLASSES:
        ms = np.array([t for model, _, t in ops if model_class(model) == name]) * 1e3
        if ms.size:
            p50, p99 = np.percentile(ms, [50, 99])
            print(f"{name:18s} {ms.size:6d} {p50:8.3f} {p99:8.3f}")
    n_blocks = plan.blocks_per_state + sweep.SETTLE_BLOCKS
    size = 2 * len(plan.freqs_hz) * n_blocks * plan.samples_per_block * scn.adc.oversampling_ratio
    print(f"drifting/bursting paths, median ms per operation and bulk-draw floor ({size} samples)")
    by_path = {}
    for model, index, t in ops:
        if model_class(model) == "drifting/bursting":
            by_path.setdefault(index, (model, []))[1].append(t)
    for index, (model, times) in sorted(by_path.items()):
        op_ms, floor_ms = median(times) * 1e3, draw_floor(model, size) * 1e3
        ratio = op_ms / floor_ms
        print(f"path {index:3d} {op_ms:8.3f} ms, floor {floor_ms:6.3f} ms, {ratio:5.2f}x")
    print(f"all operations p99 {np.percentile([t for _, _, t in ops], 99) * 1e3:.3f} ms")
    held = result_bytes(scn, plan, 1000 + WARMUP + args.rounds - 1)
    print(
        f"last round's SweepResult under tracemalloc: {held / 2**20:.2f} MiB, "
        f"{held / plan.n_cells:.1f} B per record"
    )


if __name__ == "__main__":
    main()
