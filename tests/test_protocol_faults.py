"""The wire protocol over a faulty link.

Loopback sweeps of demo_board path 30 (noise-free) and path 3 (noisy), 2
configs x 9 frequencies each, run through transports that hold back, drop,
repeat, reorder or corrupt lines. Every cell must then hold the direct
sweep's record or be marked failed. Where a (path, config) has failed
cells, its other cells pool the off-state variance over the cells that did
not fail, as ``run_sweep`` does with one block per state; every other field
equals the direct sweep's. On the noisy path a command that runs twice
moves the device's RNG on and changes every later record.

The faults hit the device-to-host lines and whole requests (dropped or
repeated); request lines carry no checksum, so a request corrupted into
another valid command would run as sent, and that is not modelled here.
"""

import json
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adcradio.backend import ReceptionPathId
from adcradio.fileio import record_to_dict
from adcradio.protocol import DutProtocolServer, LoopbackTransport, SerialBackend
from adcradio.scenario import build_rig, bundled_scenario_path, load_scenario
from adcradio.sweep import SweepPlan, _off_variance, recommended_configs, run_sweep, snr_from_stats

SCENARIO = load_scenario(bundled_scenario_path("demo_board"))
N_FREQS = 9


def plan(*paths):
    return SweepPlan(
        paths=tuple(ReceptionPathId(i, f"P{i}") for i in paths),
        configs=tuple(recommended_configs()[:2]),
        freqs_hz=tuple(np.linspace(200e6, 1000e6, N_FREQS)),
        samples_per_block=SCENARIO.adc.samples_per_block,
        adc=SCENARIO.adc,
    )


def n_requests(plan):
    return len(plan.paths) * len(plan.configs) * (1 + 2 * N_FREQS)


@cache
def direct_sweep(plan):
    backend, source = build_rig(SCENARIO)
    return run_sweep(plan, backend, source)


def record_line(record):
    """The results-file line of a record."""
    return json.dumps(record_to_dict(record))


def loopback_sweep(plan, make_transport, retries=3):
    backend, source = build_rig(SCENARIO)
    client = SerialBackend(make_transport(DutProtocolServer(backend)), timeout_s=0, retries=retries)
    return run_sweep(plan, client, source), client


def assert_direct_or_failed(direct, looped):
    """Each looped record is the direct one, or failed; a spectrum with
    failed cells pools its off-variance over the cells that did not."""
    assert len(looped) == len(direct)
    for start in range(0, len(direct), N_FREQS):
        want, got = direct[start : start + N_FREQS], looped[start : start + N_FREQS]
        failed = [r.failed for r in got]
        if any(failed):
            ok_off = np.array([r.mean_off for r, f in zip(want, failed) if not f])
            var = float(_off_variance(ok_off))
            want = [replace(r, var_off=var, snr=snr_from_stats(r.diff, var)) for r in want]
        for w, g in zip(want, got):
            if g.failed:
                assert g.error and (g.mean_on, g.mean_off, g.diff, g.var_off) == (None,) * 4
            else:
                assert record_line(g) == record_line(w)


class HoldBackTransport(LoopbackTransport):
    """Holds the response to the k-th send (from 1) back until the next send."""

    def __init__(self, server, k):
        super().__init__(server)
        self.k = k
        self.sent = []
        self.held = []

    def send_line(self, line):
        self.sent.append(line)
        self._pending.extend(self.held)
        self.held = []
        response = self.server.handle_line(line)
        if len(self.sent) == self.k:
            self.held = response
        else:
            self._pending.extend(response)


@pytest.mark.parametrize("path", [30, 3])
def test_held_back_response_is_replayed_not_run_again(path):
    # In protocol version 1 a resend ran CFG or SMP again and the host read
    # the late frame as the next answer: on path 30, 22 of these 39
    # positions wrote differing records with failed=False and 20 failed
    # cells.
    sweep = plan(path)
    want = [record_line(r) for r in direct_sweep(sweep)]
    dropped = 0
    for k in range(1, n_requests(sweep) + 2):
        transports = []

        def make(server, k=k):
            transports.append(HoldBackTransport(server, k))
            return transports[-1]

        looped, client = loopback_sweep(sweep, make)
        assert [record_line(r) for r in looped] == want, k
        resent = k <= n_requests(sweep)
        assert (client.retries, client.timeouts) == (resent, resent), k
        if resent:
            sent = transports[0].sent
            assert sent[k - 1] == sent[k] and sent[k][:4] == f"{k:04X}"
        dropped += client.stale_lines_dropped
    assert dropped > 0


def test_garbled_first_line_is_resent_and_replayed():
    # An OK whose text is corrupted cannot start a response: the host drops
    # it, times out and resends, and the server replays the OK.
    class GarbleFirstOk(LoopbackTransport):
        garbled = False

        def send_line(self, line):
            response = self.server.handle_line(line)
            if response == [line[:5] + "OK"] and not self.garbled:
                self.garbled = True
                response = [line[:5] + "0K"]
            self._pending.extend(response)

    sweep = plan(30, 3)
    looped, client = loopback_sweep(sweep, GarbleFirstOk)
    assert [record_line(r) for r in looped] == [record_line(r) for r in direct_sweep(sweep)]
    assert (client.retries, client.timeouts, client.stale_lines_dropped) == (1, 1, 1)


def test_failed_frame_keeps_the_device_in_step():
    # A frame that fails on the host was still captured on the device, and
    # the rest of its (off, on) group is still captured, so the device runs
    # the same commands as in the direct sweep.
    class CorruptFifthFrame(LoopbackTransport):
        smp = 0

        def send_line(self, line):
            response = self.server.handle_line(line)
            if line[5:].startswith("SMP"):
                self.smp += 1
                if self.smp == 5:
                    response[1] = response[1][:5] + "Z" + response[1][6:]
            self._pending.extend(response)

    sweep = plan(3, 30)
    looped, _ = loopback_sweep(sweep, CorruptFifthFrame)
    assert [r.failed for r in looped] == [k == 2 for k in range(len(looped))]
    assert looped[2].error == "sample line 0: non-hex character 'Z' at column 0"
    assert_direct_or_failed(direct_sweep(sweep), looped)


FAULT_KINDS = ("drop_request", "repeat_request", "drop", "repeat", "hold", "swap", "corrupt")


class FaultyTransport(LoopbackTransport):
    """Applies each (send, kind, line, column, char) fault to its send.

    ``drop_request`` loses the request and ``repeat_request`` delivers it
    twice. The others act on the response lines: ``drop``, ``repeat``,
    ``swap`` with the next line, ``corrupt`` one character, or ``hold``
    the lines from ``line`` on until the next send.
    """

    def __init__(self, server, faults):
        super().__init__(server)
        self.faults = faults
        self.sends = 0
        self.held = []

    def send_line(self, line):
        here = [f for f in self.faults if f[0] == self.sends]
        self.sends += 1
        self._pending.extend(self.held)
        self.held = []
        kinds = {f[1] for f in here}
        if "drop_request" in kinds:
            return
        response = self.server.handle_line(line)
        if "repeat_request" in kinds:
            response += self.server.handle_line(line)
        for _, kind, j, column, char in here:
            if not response:
                break
            j %= len(response)
            if kind == "drop":
                del response[j]
            elif kind == "repeat":
                response.insert(j, response[j])
            elif kind == "swap" and j + 1 < len(response):
                response[j], response[j + 1] = response[j + 1], response[j]
            elif kind == "corrupt":
                text = response[j]
                column %= len(text)
                response[j] = text[:column] + char + text[column + 1 :]
            elif kind == "hold":
                self.held = response[j:] + self.held
                del response[j:]
        self._pending.extend(response)


FAULTS = st.lists(
    st.tuples(
        st.integers(0, n_requests(plan(30, 3)) + 4),
        st.sampled_from(FAULT_KINDS),
        st.integers(0, 7),
        st.integers(0, 300),
        st.sampled_from("0123456789ABCDEF")
        | st.characters(min_codepoint=32, max_codepoint=126)
        | st.sampled_from("\x00\n\xff"),
    ),
    max_size=4,
)


@given(faults=FAULTS)
def test_faulty_link_never_writes_a_differing_record(faults):
    # Each fault spoils at most one send, so a request sent one time more
    # than there are faults always gets through.
    sweep = plan(30, 3)
    looped, _ = loopback_sweep(sweep, lambda server: FaultyTransport(server, faults), retries=6)
    assert_direct_or_failed(direct_sweep(sweep), looped)
    if not faults:
        assert not any(r.failed for r in looped)
