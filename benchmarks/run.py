"""Benchmark of adcradio: four closed-loop workloads in one process.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep_desk --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.py``): ``sweep_desk``, ``link_decode``,
``ber_ideal_sync`` and ``sweep_loopback``. Each runs rounds of operations,
one after another with no threads, until ``--seconds`` of round time have
passed and at least ``Size.tail_ops`` operations lie beyond the workload's
fixed tail percentile; every operation's output is checked outside the
timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. ``setup_s`` is the median over several fresh
interpreters of the time from process start to the moment the first timed
operation could begin (import, ``load_scenario``, ``build_rig`` and the
first inputs).

Times are speed-normalized (see ``clock.py``): every reported time is
scaled by how fast a fixed calibration loop ran during the same run, as if
measured on a machine where that loop takes ``clock.REF_S``. Each round
(for throughput) and each operation (for latency) is scaled by the loop
samples taken around it. The raw host
times and the loop samples are in the details line.

With ``--trace 1`` the run makes a fixed, seed-determined number of rounds
twice, first untraced and then with every layer's public functions wrapped
(see ``tracing.py``), and reports per-layer busy/self times and counts; the
counts repeat exactly for a given seed. Spans are written to
``.bench_out/spans-<workload>-seed<seed>.npz``.

The line before the result holds the details: environment, operation
count, the tail percentile used, setup samples, output digests (SHA-256,
keyed to the numpy version, since numpy does not promise identical random
streams across versions), exact counters and any check failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
CAL_SAMPLES = 5  # calibration samples taken at each point outside the work
CAL_EVERY_S = 0.05  # work between calibration samples in a measured run
MAX_ERRORS_SHOWN = 20

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}
# Work unit behind work_per_s, per workload.
WORK_UNIT = {
    "sweep_desk": "cells",
    "sweep_loopback": "cells",
    "link_decode": "bits",
    "ber_ideal_sync": "bits",
}
PER_LAYER = {
    "backend.capture.calls": "count",
    "backend.capture.busy_s": "s",
    "backend.capture.us_per_call": "us",
    "backend.capture.samples": "count",
    "simulator.lfilter.busy_s": "s",
    "simulator.adc_sample.busy_s": "s",
    "simulator.coupling_gain.busy_s": "s",
    "simulator.detector_output.busy_s": "s",
    "simulator.capture.self_s": "s",
    "backend.rf_set.calls": "count",
    "backend.rf_set.busy_s": "s",
    "backend.configure.calls": "count",
    "backend.configure.busy_s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.block_mean.calls": "count",
    "sweep.block_mean.busy_s": "s",
    "sweep.classify.busy_s": "s",
    "fileio.write_records.busy_s": "s",
    "fileio.write_records.bytes": "B",
    "receiver.demodulate.busy_s": "s",
    "receiver.remove_dc.busy_s": "s",
    "receiver.normalize.busy_s": "s",
    "receiver.recover_timing.busy_s": "s",
    "receiver.slice_bits.busy_s": "s",
    "receiver.ber.busy_s": "s",
    "receiver.ideal_sync_ber_experiment.self_s": "s",
    "receiver.moving_average.busy_s": "s",
    "protocol.serial_capture.busy_s": "s",
    "protocol.serial_capture.self_s": "s",
    "protocol.handle_line.calls": "count",
    "protocol.handle_line.self_s": "s",
    "protocol.encode_command.busy_s": "s",
    "protocol.decode_command.busy_s": "s",
    "protocol.lines": "count",
    "protocol.bytes": "B",
    "protocol.retries": "count",
    "protocol.timeouts": "count",
    "scenario.load_scenario.busy_s": "s",
    "scenario.build_rig.busy_s": "s",
    "signals.generate_bits.busy_s": "s",
    "signals.modulate_ook.busy_s": "s",
    "trace.overhead_frac": "ratio",
}
# Per-layer metrics read from the tracer's counters rather than its spans.
COUNTER_METRICS = (
    "backend.capture.samples",
    "fileio.write_records.bytes",
    "protocol.lines",
    "protocol.bytes",
    "protocol.timeouts",
)
def import_library():
    """Import adcradio from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "adcradio" / "__init__.py").is_file():
        sys.exit(f"error: adcradio sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import adcradio

    if Path(adcradio.__file__).resolve().parent != SRC / "adcradio":
        sys.exit(f"error: imported adcradio from {adcradio.__file__}, not from {SRC}")


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the library sources, which identifies the code under test
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "adcradio").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "src_sha256": src_sha256(),
        "seed": seed,
    }


def min_ops(pct: float, beyond: int) -> int:
    """Operations needed to keep ``beyond`` of them above percentile ``pct``."""
    return math.ceil(beyond / (1.0 - pct / 100.0) - 1e-9)


def setup_samples(workload: str, seed: int, clock) -> list[float]:
    """Time from spawning a fresh interpreter until it has set up the workload.

    ``clock`` is sampled around every spawn, for the speed during set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        for _ in range(CAL_SAMPLES):
            clock.tick(force=True)
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    for _ in range(CAL_SAMPLES):
        clock.tick(force=True)
    return out


class Tally:
    """Operations attempted and failed, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = None
        self.counts: dict[str, int] = {}

    def add(self, i: int, check) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        for op, why in check.errors.items():
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"round {i} op {op}: {why}")
        if check.digest is not None:
            self.digest = check.digest
        for key, n in check.counts.items():
            self.counts[key] = self.counts.get(key, 0) + n


def measured_run(workload_cls, name, seed, seconds, tmp_dir, size):
    from clock import Clock

    setup_clock = Clock()
    setup = setup_samples(name, seed, setup_clock)
    clock = Clock(every_s=CAL_EVERY_S)
    workload = workload_cls(seed, size, tmp_dir, clock)
    first = workload.inputs(0)
    tally = Tally()
    ops: list[tuple[float, float]] = []
    work = 0
    rounds: list[tuple[float, float]] = []
    elapsed = 0.0
    i = 0
    pct = workload_cls.tail_pct
    needed = min_ops(pct, size.tail_ops)
    while elapsed < seconds or len(ops) < needed:
        clock.tick()
        t0 = clock.now()
        inputs = first if i == 0 else workload.inputs(i)
        first = None
        result = workload.run(i, inputs)
        rounds.append((t0, clock.now()))
        elapsed += rounds[-1][1] - t0
        tally.add(i, workload.check(i, result))
        ops.extend(result.ops)
        work += result.work
        del inputs, result  # hold one round's outputs at a time
        i += 1
    clock.tick(force=True)
    op_s = [b - a for a, b in ops]
    # Each round and each operation is normalized by the speed sampled around it.
    elapsed_norm = sum((b - a) * clock.factor_at(a, b) for a, b in rounds)
    op_norm_s = [(b - a) * clock.factor_at(a, b) for a, b in ops]
    host = {
        "setup_s": median(setup),
        "work_per_s": work / elapsed,
        "op_ms_p50": 1000.0 * median(op_s),
        "op_ms_tail": 1000.0 * float(np.percentile(op_s, pct)),
    }
    f = clock.factor
    metrics = {
        "setup_s": host["setup_s"] * setup_clock.factor,
        "work_per_s": work / elapsed_norm,
        "op_ms_p50": 1000.0 * median(op_norm_s),
        "op_ms_tail": 1000.0 * float(np.percentile(op_norm_s, pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "rounds": i,
        "ops": len(op_s),
        "work": work,
        "work_unit": WORK_UNIT[name],
        f"{WORK_UNIT[name]}_per_s": metrics["work_per_s"],
        "measured_s": elapsed,
        "op_ms_tail_percentile": pct,
        "op_ms_tail_n": len(op_s),
        "op_ms_by_percentile": {
            str(q): 1000.0 * float(np.percentile(op_norm_s, q)) for q in (10, 50, 90, 95, 99)
        },
        "setup_samples_s": setup,
        "host": host,
        "calibration_s": clock.samples,
        "speed_factor": f,
        "setup_calibration_s": setup_clock.samples,
        "setup_speed_factor": setup_clock.factor,
        "failed_frac": tally.failed / tally.attempted,
        "round0_sha256": tally.digest,
        "counts": tally.counts,
        "errors": tally.errors,
    }
    assert set(metrics) == set(END_TO_END)
    return metrics, tally, detail


def layer_metrics(stats: dict, counters: dict, overhead_frac: float, factor: float) -> dict:
    """The ``PER_LAYER`` metrics from span statistics and tracer counters;
    times are multiplied by the speed ``factor``."""
    metrics = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if metric in COUNTER_METRICS:
            metrics[metric] = counters.get(metric, 0)
        elif stat == "calls":
            metrics[metric] = stats.get(span, {}).get(stat, 0)
        elif stat in ("busy_s", "self_s"):
            metrics[metric] = stats.get(span, {}).get(stat, 0.0) * factor
    capture = stats.get("backend.capture", {"calls": 0, "busy_s": 0.0})
    metrics["backend.capture.us_per_call"] = (
        1e6 * factor * capture["busy_s"] / capture["calls"] if capture["calls"] else 0.0
    )
    # Every host transaction encodes its request once; a resend does not.
    encodes = stats.get("protocol.encode_command", {}).get("calls", 0)
    metrics["protocol.retries"] = counters.get("protocol.sends", 0) - encodes
    metrics["trace.overhead_frac"] = overhead_frac
    assert set(metrics) == set(PER_LAYER)
    return metrics


def _pass(workload_cls, seed, size, tmp_dir, clock, rounds, tracer=None):
    """Set up and run ``rounds`` rounds; returns (wall seconds, workload, results)."""
    span = tracer.span if tracer else lambda name: nullcontext()
    t0 = perf_counter()
    with span("bench.setup"):
        workload = workload_cls(seed, size, tmp_dir, clock)
    results = []
    for i in range(rounds):
        with span("bench.round"):
            results.append(workload.run(i, workload.inputs(i)))
    return perf_counter() - t0, workload, results


def traced_run(workload_cls, name, seed, tmp_dir, size):
    import workloads as wl
    from clock import Clock
    from tracing import Tracer

    rounds = workload_cls.trace_rounds
    tally = Tally()
    # Calibrate only between passes, so that no span contains a sample.
    clock = Clock(every_s=float("inf"))

    def calibrate():
        for _ in range(CAL_SAMPLES):
            clock.tick(force=True)

    calibrate()
    untraced_s, workload, results = _pass(workload_cls, seed, size, tmp_dir, clock, rounds)
    calibrate()
    for i, result in enumerate(results):
        tally.add(i, workload.check(i, result))
    untraced_digest = tally.digest
    del results

    tracer = Tracer()
    wl.install_layers(tracer)
    try:
        traced_s, workload, results = _pass(
            workload_cls, seed, size, tmp_dir, clock, rounds, tracer
        )
    finally:
        tracer.uninstall()
    calibrate()
    for i, result in enumerate(results):
        tally.add(i, workload.check(i, result))

    stats = tracer.stats()
    counters = tracer.counters
    overhead = (traced_s - untraced_s) / untraced_s
    metrics = layer_metrics(stats, counters, overhead, clock.factor)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.npz"
    n_spans = tracer.write(spans_path)
    detail = {
        "rounds": rounds,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": n_spans,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "round0_sha256": tally.digest,
        "round0_sha256_same_untraced": tally.digest == untraced_digest,
        "calibration_s": clock.samples,
        "speed_factor": clock.factor,
        "layers": stats,
        "counters": counters,
        "errors": tally.errors,
    }
    path = getattr(workload_cls, "blocking_path", None)
    if path:
        round_s = stats["bench.round"]["busy_s"]
        accounted = sum(stats.get(n, {}).get(stat, 0.0) for n, stat in path)
        detail["blocking_path"] = {
            "spans": [f"{n}.{stat}" for n, stat in path],
            "accounted_s": accounted,
            "traced_rounds_s": round_s,
            "unaccounted_frac": (round_s - accounted) / round_s,
        }
    return metrics, tally, detail


def run(name: str, seed: int, seconds: float, trace: bool, size=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail line) as dicts."""
    import workloads as wl

    size = size or wl.FULL
    tmp_dir = wl.make_tmp_dir(ROOT)
    try:
        if trace:
            metrics, tally, detail = traced_run(wl.WORKLOADS[name], name, seed, tmp_dir, size)
            units = PER_LAYER
        else:
            metrics, tally, detail = measured_run(
                wl.WORKLOADS[name], name, seed, seconds, tmp_dir, size
            )
            units = END_TO_END
    finally:
        wl.remove_tmp_dir(tmp_dir)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {"workload": name, "trace": int(trace), "env": environment(seed), **detail}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK_UNIT))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload, print the clock reading and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_library()
    import workloads as wl

    if args.setup_only:
        workload = wl.WORKLOADS[args.workload](args.seed, wl.FULL, None, None)
        workload.inputs(0)
        print(repr(perf_counter()))
        return 0

    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
