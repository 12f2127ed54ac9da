"""The four benchmark workloads and their output checks.

Each workload is driven in rounds. ``inputs(i)`` builds what round ``i``
needs (rigs, payloads, plans) and ``run(i, inputs)`` does the round's
operations one after another, timing each. ``check(i, result)`` verifies
every operation of a finished round; it runs outside the timed region and
calls the library itself, so it must never run while a tracer is installed.

Library seeds are derived from the benchmark seed only: round or operation
``k`` of a run with ``--seed n`` uses library seed ``n * 100000 + k``.

Library functions are always looked up on their module at call time (for
example ``sw.run_sweep``), so that a tracer rebinding them sees every call.

Operations are timed with the run's ``clock.Clock``, which may calibrate
between operations; ``Clock.now`` leaves that time out.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adcradio import backend as bk
from adcradio import fileio
from adcradio import protocol as proto
from adcradio import receiver as rx
from adcradio import scenario as scn
from adcradio import signals as sig
from adcradio import sweep as sw

# Paths of demo_board planted with strong resonances; with one block per
# state their peak SNR stays far above the 10 dB threshold in every config,
# while unplanted paths peak near 11-12 dB, so only these are checked.
PLANTED_PATHS = frozenset({3, 11, 30, 42, 55, 61})
THRESHOLD_DB = 10.0
LINK_20M_BER_BAND = (0.03, 0.10)
IDEAL_SYNC_POWERS_DBM = (18.7, 20.7, 22.7, 24.7)
IDEAL_SYNC_MAX_BER_AT_TOP_POWER = 0.02


def lib_seed(seed: int, k: int) -> int:
    return seed * 100_000 + k


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is the benchmark, ``TOY`` the self-test."""

    desk_paths: tuple[int, ...] | None = None  # None: every path of demo_board
    configs: int = 8
    freqs: int = 81
    payload_bits: int = 12_565
    ideal_bits: int = 10_000
    loopback_paths: int = 6
    # Operations a measured run keeps beyond its workload's ``tail_pct``: it
    # runs on past ``--seconds`` until it has that many.
    tail_ops: int = 10


FULL = Size()
# Link payloads keep their full length: the 20 m BER band holds only for a
# full payload.
TOY = Size(
    desk_paths=(0, 3, 11), configs=2, freqs=9, ideal_bits=1_000, loopback_paths=2, tail_ops=0
)


@dataclass
class RoundResult:
    ops: list[tuple[float, float]]  # (start, end) of each operation, in clock time
    work: int  # sweep cells or payload bits completed
    outputs: list = field(default_factory=list)  # per-operation outputs for check()


@dataclass
class CheckResult:
    attempted: int
    errors: dict[int, str] = field(default_factory=dict)  # failed operation -> why
    digest: str | None = None  # SHA-256 of the round's outputs, round 0 only
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.errors)


class OpClock:
    """Timestamps each ``configure`` call on one backend instance.

    A sweep operation is one (path, config) spectrum; it runs from one
    ``configure`` to the next, and the last one ends when the sweep does.
    """

    def __init__(self, backend, clock):
        self.marks: list[float] = []
        configure = backend.configure

        def timed_configure(*args, **kwargs):
            clock.tick()
            self.marks.append(clock.now())
            return configure(*args, **kwargs)

        backend.configure = timed_configure

    def ops(self, end: float) -> list[tuple[float, float]]:
        marks = self.marks + [end]
        return list(zip(marks, marks[1:]))


def _sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _sweep_plan(scenario, path_indices, size: Size) -> sw.SweepPlan:
    """The CLI ``sweep`` defaults: recommended configs, 200-1000 MHz, 43 dBm,
    32-sample blocks, 1 block per state plus 1 settle block."""
    labels = scenario.path_labels
    return sw.SweepPlan(
        paths=tuple(
            bk.ReceptionPathId(i, labels[i] if i < len(labels) else f"P{i}")
            for i in path_indices
        ),
        configs=tuple(sw.recommended_configs()[: size.configs]),
        freqs_hz=tuple(np.linspace(200e6, 1000e6, size.freqs)),
        power_dbm=43.0,
        samples_per_block=32,
        blocks_per_state=1,
        adc=scenario.adc,
    )


def _check_spectra(records, plan, flags, check_planted: bool) -> CheckResult:
    """One operation per (path, config): all its cells present and not
    failed, and planted paths classified sensitive."""
    n_ops = len(plan.paths) * len(plan.configs)
    n_freqs = len(plan.freqs_hz)
    res = CheckResult(attempted=n_ops)
    for k in range(n_ops):
        cells = records[k * n_freqs : (k + 1) * n_freqs]
        path = plan.paths[k // len(plan.configs)].index
        if len(cells) != n_freqs:
            res.errors[k] = f"{len(cells)} of {n_freqs} records"
        elif any(c.failed for c in cells):
            res.errors[k] = "failed cells"
        elif check_planted and path in PLANTED_PATHS and not flags[k]:
            res.errors[k] = f"planted path {path} not classified sensitive"
    return res


class SweepDesk:
    """``run_sweep`` over demo_board at the CLI defaults, then
    ``write_records``, ``spectra_from_records`` and ``classify_sensitive``."""

    trace_rounds = 1
    tail_pct = 99.0  # 696 operations a round
    # Spans whose busy (or, for run_sweep, self) times make up a round; in a
    # traced run they should add up to the round time.
    blocking_path = (
        ("backend.configure", "busy_s"),
        ("backend.capture", "busy_s"),
        ("backend.rf_set", "busy_s"),
        ("sweep.run_sweep", "self_s"),
        ("sweep.block_mean", "busy_s"),
        ("fileio.write_records", "busy_s"),
        ("sweep.spectra_from_records", "busy_s"),
        ("sweep.classify", "busy_s"),
    )

    def __init__(self, seed: int, size: Size, tmp_dir: Path, clock):
        self.seed = seed
        self.clock = clock
        self.scenario = scn.load_scenario(scn.bundled_scenario_path("demo_board"))
        paths = size.desk_paths or range(self.scenario.n_paths)
        self.plan = _sweep_plan(self.scenario, paths, size)
        self.tmp_dir = tmp_dir

    def inputs(self, i: int):
        return scn.build_rig(self.scenario, seed=lib_seed(self.seed, i))

    def run(self, i: int, rig) -> RoundResult:
        backend, source = rig
        ops = OpClock(backend, self.clock)
        records = sw.run_sweep(self.plan, backend, source)
        op_times = ops.ops(self.clock.now())
        out = self.tmp_dir / f"results-{i}.jsonl"
        fileio.write_records(out, records, header_extra={"seed": lib_seed(self.seed, i)})
        spectra = sw.spectra_from_records(records)
        flags = [sw.classify_sensitive(s, THRESHOLD_DB) for s in spectra]
        return RoundResult(ops=op_times, work=self.plan.n_cells, outputs=[records, flags, out])

    def check(self, i: int, result: RoundResult) -> CheckResult:
        records, flags, out = result.outputs
        res = _check_spectra(records, self.plan, flags, check_planted=True)
        res.counts["records_bytes"] = out.stat().st_size
        if i == 0:
            res.digest = hashlib.sha256(out.read_bytes()).hexdigest()
        out.unlink()
        return res


class SweepLoopback:
    """A slice of demo_board paths swept through the wire-protocol codec:
    ``SerialBackend`` -> ``LoopbackTransport`` -> ``DutProtocolServer``."""

    trace_rounds = 3
    tail_pct = 95.0  # 48 operations a round, about 20 ms each

    def __init__(self, seed: int, size: Size, tmp_dir: Path, clock):
        self.seed = seed
        self.clock = clock
        self.scenario = scn.load_scenario(scn.bundled_scenario_path("demo_board"))
        n = size.loopback_paths
        self.plans = [
            _sweep_plan(self.scenario, range(k * n, (k + 1) * n), size)
            for k in range(self.scenario.n_paths // n)
        ]

    def _plan(self, i: int) -> sw.SweepPlan:
        return self.plans[(self.seed + i) % len(self.plans)]

    def inputs(self, i: int):
        backend, source = scn.build_rig(self.scenario, seed=lib_seed(self.seed, i))
        client = proto.SerialBackend(proto.LoopbackTransport(proto.DutProtocolServer(backend)))
        return client, source

    def run(self, i: int, rig) -> RoundResult:
        client, source = rig
        plan = self._plan(i)
        ops = OpClock(client, self.clock)
        records = sw.run_sweep(plan, client, source)
        op_times = ops.ops(self.clock.now())
        spectra = sw.spectra_from_records(records)
        flags = [sw.classify_sensitive(s, THRESHOLD_DB) for s in spectra]
        return RoundResult(ops=op_times, work=plan.n_cells, outputs=[records, flags])

    def check(self, i: int, result: RoundResult) -> CheckResult:
        records, flags = result.outputs
        plan = self._plan(i)
        res = _check_spectra(records, plan, flags, check_planted=False)
        backend, source = scn.build_rig(self.scenario, seed=lib_seed(self.seed, i))
        direct = [json.dumps(fileio.record_to_dict(r)) for r in sw.run_sweep(plan, backend, source)]
        looped = [json.dumps(fileio.record_to_dict(r)) for r in records]
        n_freqs = len(plan.freqs_hz)
        for k in range(max(len(direct), len(looped))):
            if k >= len(direct) or k >= len(looped) or direct[k] != looped[k]:
                res.errors.setdefault(k // n_freqs, "records differ from the direct sweep")
        if i == 0:
            res.digest = _sha256_lines(looped)
        return res


def _link_op(scenario, bits, rig):
    """One payload: modulate, one capture of the whole payload, demodulate,
    and score against the reference bits."""
    tx = scenario.transmission
    sps = int(scenario.adc.sample_rate_hz / tx.bit_rate_hz)
    envelope = sig.modulate_ook(bits, sps, 1.0, symbol_rate_hz=tx.bit_rate_hz)
    backend, source = rig
    backend.configure(
        bk.ReceptionPathId(tx.path, f"P{tx.path}"),
        sw.enumerate_configs()[tx.config_index],
        scenario.adc,
    )
    source.rf_set(
        bk.RfStimulus(freq_hz=tx.freq_hz, power_dbm=tx.power_dbm, enabled=True, envelope=envelope)
    )
    n_blocks = -(-len(bits) * sps // scenario.adc.samples_per_block)
    trace = backend.capture(n_blocks)
    params = rx.DemodParams(samples_per_symbol=sps, dc_window_symbols=tx.dc_window_symbols)
    decoded = sig.BitSequence(bits=rx.demodulate(trace, params).bits[: len(bits)])
    return decoded, rx.ber(decoded, bits)


class LinkDecode:
    """Payloads on link_3m and link_20m in turn; a round is one of each."""

    trace_rounds = 20
    # Two operations a round, about 50 ms each, so a run holds about 250:
    # its p95 (about 12 beyond) spread by up to 0.18 over ten runs of the
    # same code on a shared 2-vCPU host, its p90 by up to 0.11.
    tail_pct = 90.0

    def __init__(self, seed: int, size: Size, tmp_dir: Path, clock):
        self.seed = seed
        self.size = size
        self.clock = clock
        self.scenarios = [
            scn.load_scenario(scn.bundled_scenario_path(name)) for name in ("link_3m", "link_20m")
        ]

    def inputs(self, i: int):
        out = []
        for j, scenario in enumerate(self.scenarios):
            s = lib_seed(self.seed, 2 * i + j)
            out.append((sig.generate_bits(self.size.payload_bits, s), scn.build_rig(scenario, seed=s)))
        return out

    def run(self, i: int, inputs) -> RoundResult:
        result = RoundResult(ops=[], work=0)
        for scenario, (bits, rig) in zip(self.scenarios, inputs):
            self.clock.tick()
            t0 = self.clock.now()
            try:
                decoded, report = _link_op(scenario, bits, rig)
            except ValueError as exc:  # the receiver rejects an undecodable capture
                decoded, report = exc, None
            result.ops.append((t0, self.clock.now()))
            result.work += len(bits)
            result.outputs.append((decoded, report))
        return result

    def check(self, i: int, result: RoundResult) -> CheckResult:
        res = CheckResult(attempted=len(result.outputs))
        (near_bits, near), (far_bits, far) = result.outputs
        lo, hi = LINK_20M_BER_BAND
        if near is None:
            res.errors[0] = f"link_3m: {near_bits}"
        elif near.error_count != 0:
            res.errors[0] = f"link_3m: {near.error_count} errors, expected 0"
        if far is None:
            res.errors[1] = f"link_20m: {far_bits}"
        elif not lo <= far.ber <= hi:
            res.errors[1] = f"link_20m: BER {far.ber} outside [{lo}, {hi}]"
        if i == 0 and near is not None and far is not None:
            h = hashlib.sha256()
            for bits in (near_bits, far_bits):
                h.update(np.packbits(bits.bits).tobytes())
            res.digest = h.hexdigest()
        return res


class BerIdealSync:
    """``ideal_sync_ber_experiment`` at each README power; a round is the
    four points of one BER curve."""

    trace_rounds = 2
    tail_pct = 50.0  # four operations a round, about 0.4 s each

    def __init__(self, seed: int, size: Size, tmp_dir: Path, clock):
        self.seed = seed
        self.size = size
        self.clock = clock
        self.scenario = scn.load_scenario(scn.bundled_scenario_path("ideal_sync"))
        tx = self.scenario.transmission
        self.path = bk.ReceptionPathId(tx.path, f"P{tx.path}")
        self.config = sw.enumerate_configs()[tx.config_index]

    def _seed(self, i: int, j: int) -> int:
        return lib_seed(self.seed, len(IDEAL_SYNC_POWERS_DBM) * i + j)

    def inputs(self, i: int):
        return [
            scn.build_rig(self.scenario, seed=self._seed(i, j))
            for j in range(len(IDEAL_SYNC_POWERS_DBM))
        ]

    def run(self, i: int, rigs) -> RoundResult:
        result = RoundResult(ops=[], work=0)
        tx = self.scenario.transmission
        for j, (power, (backend, source)) in enumerate(zip(IDEAL_SYNC_POWERS_DBM, rigs)):
            self.clock.tick()
            t0 = self.clock.now()
            report = rx.ideal_sync_ber_experiment(
                backend, source, self.path, self.config, self.scenario.adc,
                freq_hz=tx.freq_hz, power_dbm=power, n_bits=self.size.ideal_bits,
                samples_per_bit=127, seed=self._seed(i, j),
            )
            result.ops.append((t0, self.clock.now()))
            result.work += report.total_bits
            result.outputs.append(report)
        return result

    def check(self, i: int, result: RoundResult) -> CheckResult:
        reports = result.outputs
        res = CheckResult(attempted=len(reports))
        for j in range(1, len(reports)):
            if reports[j].ber > reports[j - 1].ber:
                res.errors[j] = (
                    f"BER rose from {reports[j - 1].ber} to {reports[j].ber} "
                    f"at {IDEAL_SYNC_POWERS_DBM[j]} dBm"
                )
        last = len(reports) - 1
        if not reports[last].ber < IDEAL_SYNC_MAX_BER_AT_TOP_POWER:
            res.errors.setdefault(
                last, f"BER {reports[last].ber} at {IDEAL_SYNC_POWERS_DBM[last]} dBm"
            )
        if i == 0:
            h = hashlib.sha256()
            for r in reports:
                h.update(np.asarray(r.error_positions, dtype=np.int64).tobytes())
                h.update(b"|")
            res.digest = h.hexdigest()
        return res


WORKLOADS = {
    "sweep_desk": SweepDesk,
    "link_decode": LinkDecode,
    "ber_ideal_sync": BerIdealSync,
    "sweep_loopback": SweepLoopback,
}


def install_layers(tracer) -> None:
    """Trace the public functions of each layer, and the module attributes
    their callers resolve at call time.

    Protocol lines and bytes are counted per command, from the request the
    host sends and the response lines the device returns, so that no
    wrapper runs once per sample line. Timeouts are counted where
    ``SerialBackend`` raises them.
    """
    from adcradio import simulator as sim

    def count_samples(t, args, trace):
        t.count("backend.capture.samples", len(trace))

    def count_records_bytes(t, args, result):
        t.count("fileio.write_records.bytes", Path(args[0]).stat().st_size)

    def count_request(t, args, result):
        t.count("protocol.sends")
        t.count("protocol.lines")
        t.count("protocol.bytes", len(args[1]) + 1)

    def count_response(t, args, lines):
        t.count("protocol.lines", len(lines))
        t.count("protocol.bytes", sum(len(line) + 1 for line in lines))

    class CountedTimeout(proto.ProtocolTimeoutError):
        def __init__(self, *args):
            tracer.count("protocol.timeouts")
            super().__init__(*args)

    w = tracer.wrap
    w(scn, "load_scenario", "scenario.load_scenario")
    w(scn, "build_rig", "scenario.build_rig")
    w(sig, "generate_bits", "signals.generate_bits")
    w(sig, "modulate_ook", "signals.modulate_ook")
    w(bk.SimulatorBackend, "capture", "backend.capture", count_samples)
    w(bk.SimulatorBackend, "configure", "backend.configure")
    w(bk.SimulatedRfSource, "rf_set", "backend.rf_set")
    w(sim.SimulatedDut, "capture", "simulator.capture")
    for name in ("lfilter", "adc_sample", "coupling_gain", "detector_output"):
        w(sim, name, f"simulator.{name}")
    w(sw, "run_sweep", "sweep.run_sweep")
    w(sw, "block_mean", "sweep.block_mean")
    w(sw, "spectra_from_records", "sweep.spectra_from_records")
    w(sw, "classify_sensitive", "sweep.classify")
    w(fileio, "write_records", "fileio.write_records", count_records_bytes)
    for name in (
        "demodulate", "remove_dc", "normalize", "recover_timing", "slice_bits", "ber",
        "ideal_sync_ber_experiment", "moving_average",
    ):
        w(rx, name, f"receiver.{name}")
    w(proto.SerialBackend, "capture", "protocol.serial_capture")
    w(proto.SerialBackend, "configure", "protocol.serial_configure")
    w(proto.DutProtocolServer, "handle_line", "protocol.handle_line", count_response)
    w(proto, "encode_command", "protocol.encode_command")
    w(proto, "decode_command", "protocol.decode_command")
    w(proto.LoopbackTransport, "send_line", None, count_request)
    tracer.replace(proto, "ProtocolTimeoutError", CountedTimeout)


def make_tmp_dir(root: Path) -> Path:
    base = root / ".bench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def remove_tmp_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
