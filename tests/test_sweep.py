"""Block statistics, SNR estimation, configuration space, sweep orchestration."""

import contextlib
import copy
import gc
import json
import math
import random
import struct
import tracemalloc
import warnings
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adcradio.backend import (
    BackendError,
    GpioMode,
    GpioPull,
    OutputType,
    OutputValue,
    PathConfig,
    ReceptionPathId,
    SimulatedRfSource,
    SimulatorBackend,
)
from adcradio import sweep
from adcradio.fileio import (
    read_records,
    record_to_dict,
    snr_from_json,
    snr_to_json,
    write_records,
)
from adcradio.protocol import DutProtocolServer, LoopbackTransport, SerialBackend, _data_frame
from adcradio.scenario import build_rig, bundled_scenario_path, load_scenario
from adcradio.simulator import AdcConfig, CouplingModel, Resonance, RfChannel, SimulatedDut
from adcradio.sweep import (
    SETTLE_BLOCKS,
    SensitivityRecord,
    SweepCell,
    SweepPlan,
    SweepResult,
    block_mean,
    classify_sensitive,
    enumerate_configs,
    estimate_snr,
    peak_snr,
    recommended_configs,
    run_sweep,
    snr_from_stats,
    spectra_from_records,
)


class TestBlockMean:
    def test_arithmetic(self):
        np.testing.assert_allclose(block_mean(np.array([1, 1, 3, 3]), 2), [1.0, 3.0])

    def test_constant_trace(self):
        np.testing.assert_allclose(block_mean(np.full(64, 7), 32), [7.0, 7.0])

    def test_reference_block_sizing(self):
        means = block_mean(np.arange(1024), 32)
        assert means.shape == (32,)

    def test_indivisible_length_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            block_mean(np.arange(10), 3)


class TestEstimateSnr:
    def test_identical_constants_no_response(self):
        assert estimate_snr([2048.0, 2048.0], [2048.0, 2048.0]) == -math.inf

    def test_zero_variance_with_shift_is_high(self):
        assert estimate_snr([2064.0, 2064.0], [2048.0, 2048.0]) == math.inf

    def test_monte_carlo_matches_closed_form(self):
        # off ~ N(2048, 4), on ~ N(2064, 4): SNR = 10*log10((16/4)^2) = 12 dB
        rng = np.random.default_rng(2024)
        est = estimate_snr(
            rng.normal(2064.0, 4.0, 10_000), rng.normal(2048.0, 4.0, 10_000)
        )
        assert est == pytest.approx(12.0, abs=0.5)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            estimate_snr([], [1.0, 2.0])

    def test_single_off_mean_uses_sentinels(self):
        assert estimate_snr([5.0], [1.0]) == math.inf
        assert estimate_snr([1.0], [1.0]) == -math.inf

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        on = rng.normal(2060.0, 3.0, 500)
        off = rng.normal(2048.0, 3.0, 500)
        base = estimate_snr(on, off)
        for _ in range(100):
            a = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            b = rng.uniform(-500.0, 500.0)
            est = estimate_snr(a * on + b, a * off + b)
            assert est == pytest.approx(base, abs=1e-9)


_DIFFS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-160, 1e160]
)
_VARIANCES = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-160, 1e160]
)


class TestSnrValues:
    def test_none_below_finite_below_high(self):
        none = snr_from_stats(0.0, 1.0)
        assert none == snr_from_stats(0.0, 0.0) == -math.inf
        assert none < snr_from_stats(1e-3, 1e6) < snr_from_stats(1e3, 1e-6)
        assert snr_from_stats(1e3, 1e-6) < snr_from_stats(1.0, 0.0) == math.inf

    def test_representable_extremes_have_finite_snrs(self):
        # diff * diff underflows to 0 for the first and overflows to inf for
        # the others; the SNR comes from the logarithms instead of raising a
        # math domain error or reading as the "high" sentinel.
        assert snr_from_stats(1e-200, 1.0) == pytest.approx(-4000.0)
        assert snr_from_stats(-1e-200, 1.0) == pytest.approx(-4000.0)
        assert snr_from_stats(1e200, 1.0) == pytest.approx(4000.0)
        assert snr_from_stats(1.0, 1e-320) == pytest.approx(3200.0)
        assert snr_to_json(snr_from_stats(1e200, 1.0)) == {"db": pytest.approx(4000.0)}

    def test_json_round_trip(self):
        assert snr_to_json(-math.inf) == "none"
        assert snr_to_json(math.inf) == "high"
        assert snr_to_json(-4.5) == {"db": -4.5}
        for snr in (-math.inf, math.inf, -4.5, 0.0, 31.25):
            assert snr_from_json(snr_to_json(snr)) == snr
        assert snr_from_json({"db": 7}) == 7.0

    @pytest.mark.parametrize(
        "obj",
        [
            {"db": math.inf},
            {"db": -math.inf},
            {"db": math.nan},
            {"db": True},
            {"db": "9.0"},
            {"db": None},
            {"db": 1.0, "extra": 0},
            "HIGH",
            None,
        ],
    )
    def test_json_rejects_non_finite_db_and_unknown_forms(self, obj):
        with pytest.raises(ValueError, match="bad serialized SNR"):
            snr_from_json(obj)

    def test_snr_from_stats_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            snr_from_stats(1.0, -1.0)

    @given(st.lists(st.tuples(_DIFFS, _VARIANCES), max_size=12))
    @example(
        [
            (0.0, 0.0), (-0.0, 0.0), (0.0, 2.5), (-0.0, 2.5), (3.0, 0.0), (-3.0, -0.0),
            (5e-324, 5e-324), (1e300, 1e-300), (-1.7976931348623157e308, 1.0),
            # 10*np.log10(d*d/v) is one ulp off the scalar rule here on an
            # AVX-512 host.
            (0.6286511054669665, 0.49489194949673243),
        ]
    )
    @example([(1e-200, 1.0), (2.0, 0.5)])
    def test_snr_column_equals_snr_from_stats_bit_for_bit(self, pairs):
        # The column keeps math.log10 per value: numpy's log10 differs from
        # it in the last bit on some inputs and hosts, which would change
        # the bytes of results files. Every drawn variance is >= 0, so every
        # pair has an SNR, a finite one for a nonzero difference over a
        # nonzero variance even where d*d/v under- or overflows.
        want = [snr_from_stats(d, v) for d, v in pairs]
        assert all(math.isfinite(w) for (d, v), w in zip(pairs, want) if d and v)
        got = sweep._snr_column([d for d, _ in pairs], [v for _, v in pairs])
        assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", w) for w in want]


def spectrum_of(points):
    """A cell whose spectrum is the (frequency, SNR) ``points``."""
    freqs, snr = tuple(f for f, _ in points), [s for _, s in points]
    n = len(snr)
    return SweepCell(
        ReceptionPathId(0), enumerate_configs()[0], freqs,
        [None] * n, [None] * n, [None] * n, [None] * n, snr, [False] * n, [None] * n,
    )


class TestPeakAndClassify:
    def test_single_point(self):
        s = spectrum_of([(100e6, 5.0)])
        assert peak_snr(s) == (100e6, 5.0)

    def test_high_beats_finite(self):
        s = spectrum_of([(100e6, 10.0), (200e6, math.inf)])
        assert peak_snr(s) == (200e6, math.inf)

    def test_tie_breaks_to_lowest_frequency(self):
        s = spectrum_of([(100e6, 10.0), (200e6, 10.0)])
        assert peak_snr(s)[0] == 100e6
        s = spectrum_of([(100e6, math.inf), (200e6, math.inf), (300e6, 99.0)])
        assert peak_snr(s)[0] == 100e6
        s = spectrum_of([(100e6, -math.inf), (200e6, -math.inf)])
        assert peak_snr(s) == (100e6, -math.inf)

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError):
            peak_snr(spectrum_of([]))

    def test_classify_threshold_boundary(self):
        below = spectrum_of([(1e8, 9.9)])
        at = spectrum_of([(1e8, 10.0)])
        above = spectrum_of([(1e8, 33.0)])
        assert not classify_sensitive(below, 10.0)
        assert classify_sensitive(at, 10.0)
        assert classify_sensitive(above, 10.0)

    def test_all_none_is_insensitive(self):
        s = spectrum_of([(1e8, -math.inf), (2e8, -math.inf)])
        assert not classify_sensitive(s, 10.0)

    def test_classify_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        s = spectrum_of(
            [(f, rng.uniform(-5, 30)) for f in np.arange(1, 20) * 1e7]
        )
        decisions = [classify_sensitive(s, t) for t in np.linspace(-10, 40, 26)]
        # once False, never True again as threshold rises
        assert decisions == sorted(decisions, reverse=True)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-math.inf, math.inf, -0.0, 0.0, 10.0]),
                st.floats(allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @example([math.inf, 3.0, math.inf])
    @example([-0.0, 0.0, -math.inf])
    def test_peak_equals_the_max_over_zipped_points(self, snr):
        # The peak of a cell's columns is the point the per-point form
        # picked, bit for bit: the first of equal maxima, its zero's sign
        # included.
        freqs = [100e6 + 1e6 * k for k in range(len(snr))]
        old = max(zip(freqs, snr), key=lambda point: point[1])
        got = peak_snr(spectrum_of(list(zip(freqs, snr))))
        assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in old]


class TestConfigSpace:
    def test_enumerate_64_unique(self):
        configs = enumerate_configs()
        assert len(configs) == 64
        assert len(set(configs)) == 64

    def test_enumerate_order_is_mode_major(self):
        first = enumerate_configs()[0]
        assert first == PathConfig(
            mode=GpioMode.INPUT,
            pupd=GpioPull.NONE,
            output_value=OutputValue.HIGH,
            output_type=OutputType.PUSH_PULL,
        )

    def test_recommended_eight_rows(self):
        rec = recommended_configs()
        assert len(rec) == 8
        # row 4 (index 3): analog, pull-down, high, open-drain
        assert rec[3] == PathConfig(
            mode=GpioMode.ANALOG,
            pupd=GpioPull.PULL_DOWN,
            output_value=OutputValue.HIGH,
            output_type=OutputType.OPEN_DRAIN,
        )
        # rows 1..4 pull-down/high, rows 5..8 pull-up/low, all open-drain
        for i, cfg in enumerate(rec):
            assert cfg.output_type == OutputType.OPEN_DRAIN
            if i < 4:
                assert (cfg.pupd, cfg.output_value) == (GpioPull.PULL_DOWN, OutputValue.HIGH)
            else:
                assert (cfg.pupd, cfg.output_value) == (GpioPull.PULL_UP, OutputValue.LOW)

    def test_recommended_subset_of_enumeration(self):
        assert set(recommended_configs()) <= set(enumerate_configs())


def reference_cell_records(path, config, plan, codes, errors, pool):
    """sweep._cell_records as first written: the statistics of the
    frequencies that captured scattered into four object columns whose failed
    entries stay None, then one record per frequency."""
    ok = np.array([exc is None for exc in errors])
    n_capture = plan.blocks_per_state + SETTLE_BLOCKS
    means = block_mean(codes[ok], plan.samples_per_block)
    means = means.reshape(-1, 2, n_capture)[:, :, SETTLE_BLOCKS:]
    off, on = means[:, 0], means[:, 1]
    mean_on = on.mean(axis=1)
    mean_off = off.mean(axis=1)
    if pool:
        var_off = np.full(len(off), sweep._off_variance(off.ravel()))
    else:
        var_off = sweep._off_variance(off)
    columns = np.full((4, len(errors)), None, dtype=object)
    columns[:, ok] = (mean_on, mean_off, mean_on - mean_off, var_off)
    records = []
    for freq, on_f, off_f, diff, var, exc in zip(plan.freqs_hz, *columns.tolist(), errors):
        if exc is None:
            records.append(
                SensitivityRecord(
                    path, config, freq, on_f, off_f, diff, var, snr_from_stats(diff, var)
                )
            )
        else:
            records.append(
                SensitivityRecord(
                    path, config, freq, None, None, None, None, -math.inf, True, str(exc)
                )
            )
    return records


@contextlib.contextmanager
def recorded_cells():
    """The (arguments, SweepCell) of each sweep._cell_columns call made
    inside the block."""
    made = []
    real = sweep._cell_columns

    def recording(*args):
        cell = real(*args)
        made.append((args, cell))
        return cell

    sweep._cell_columns = recording
    try:
        yield made
    finally:
        sweep._cell_columns = real


def assert_equal_records(got, want):
    """Equal records that also write equal lines, which tells -0.0 from 0.0."""
    assert got == want
    assert [json.dumps(record_to_dict(r)) for r in got] == [
        json.dumps(record_to_dict(r)) for r in want
    ]


def small_rig(coupling=None, noise=0.0, seed=0, n_paths=3):
    adc = AdcConfig(samples_per_block=16)
    dut = SimulatedDut(
        n_paths=n_paths,
        adc=adc,
        channel=RfChannel(),
        coupling=coupling or {},
        default_model=CouplingModel(noise_sigma=noise),
        seed=seed,
    )
    source = SimulatedRfSource()
    return SimulatorBackend(dut, source), source, adc


class TestRunSweep:
    def make_plan(self, adc, n_paths=2, n_configs=2, n_freqs=3, **kwargs):
        return SweepPlan(
            paths=tuple(ReceptionPathId(i, f"P{i}") for i in range(n_paths)),
            configs=tuple(enumerate_configs()[:n_configs]),
            freqs_hz=tuple(np.linspace(300e6, 700e6, n_freqs)),
            samples_per_block=16,
            adc=adc,
            **kwargs,
        )

    def test_cardinality_and_order(self):
        backend, source, adc = small_rig()
        plan = self.make_plan(adc, 2, 2, 3)
        records = run_sweep(plan, backend, source)
        assert len(records) == 12
        expected = [
            (p.index, c, f)
            for p in plan.paths
            for c in plan.configs
            for f in plan.freqs_hz
        ]
        assert [(r.path.index, r.config, r.freq_hz) for r in records] == expected

    def test_zero_coupling_no_noise_all_no_response(self):
        backend, source, adc = small_rig(noise=0.0)
        records = run_sweep(plan := self.make_plan(adc), backend, source)
        assert all(rec.snr == -math.inf for rec in records)
        assert not any(rec.failed for rec in records)

    def test_planted_resonance_found_with_perfect_precision(self):
        target = enumerate_configs()[1]
        model = CouplingModel(resonances=(Resonance(500e6, 40e6, 300.0),))
        backend, source, adc = small_rig(
            coupling={(1, target): model}, noise=2.0, seed=5
        )
        plan = self.make_plan(adc, 3, 2, 9, blocks_per_state=8)
        records = run_sweep(plan, backend, source)
        flagged = {
            (s.path.index, s.config)
            for s in spectra_from_records(records)
            if classify_sensitive(s, 10.0)
        }
        assert flagged == {(1, target)}

    def test_strictly_increasing_frequencies_required(self):
        backend, source, adc = small_rig()
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepPlan(
                paths=(ReceptionPathId(0),),
                configs=(enumerate_configs()[0],),
                freqs_hz=(2e8, 2e8),
                adc=adc,
            )

    def test_failed_cells_marked_not_dropped(self):
        # The sweep captures each (path, config) as one schedule, so the
        # fault goes there and fails every frequency of that cell.
        class FlakyBackend(SimulatorBackend):
            def __init__(self, dut, source):
                super().__init__(dut, source)
                self.calls = 0

            def capture_schedule(self, schedule, n_blocks):
                self.calls += 1
                if self.calls % 7 == 3:
                    raise BackendError("injected fault")
                return super().capture_schedule(schedule, n_blocks)

        adc = AdcConfig(samples_per_block=16)
        dut = SimulatedDut(
            n_paths=2, adc=adc, channel=RfChannel(), default_model=CouplingModel(noise_sigma=1.0)
        )
        source = SimulatedRfSource()
        backend = FlakyBackend(dut, source)
        plan = self.make_plan(adc, 2, 2, 5)
        records = run_sweep(plan, backend, source)
        assert len(records) == 20
        failed = [r for r in records if r.failed]
        assert failed and all(r.error == "injected fault" for r in failed)
        assert all(r.snr == -math.inf for r in failed)

    def test_failed_configure_fails_every_frequency_of_the_cell(self):
        class PickyBackend(SimulatorBackend):
            def configure(self, path, config, adc):
                if path.index == 1:
                    raise BackendError("no such pin")
                super().configure(path, config, adc)

        backend, source, adc = small_rig(noise=1.0, seed=2)
        picky = PickyBackend(backend.dut, source)
        records = run_sweep(self.make_plan(adc, 2, 2, 3), picky, source)
        assert len(records) == 12
        for r in records:
            assert r.failed == (r.path.index == 1)
            if r.failed:
                assert r.error == "no such pin" and r.snr == -math.inf
                assert (r.mean_on, r.mean_off, r.diff, r.var_off) == (None,) * 4
            else:
                assert r.error is None and r.var_off > 0

    def test_serial_failed_capture_fails_only_its_frequency(self):
        # Through the wire protocol every capture is its own exchange: an
        # ERR answer to one SMP fails that frequency and no other.
        class FlakyServer(DutProtocolServer):
            smp = 0

            def handle_line(self, line):
                if line[5:].startswith("SMP"):
                    self.smp += 1
                    if self.smp in (3, 9):
                        return [line[:5] + "ERR injected fault"]
                return super().handle_line(line)

        backend, source, adc = small_rig(noise=1.0, seed=9)
        client = SerialBackend(LoopbackTransport(FlakyServer(backend)))
        plan = self.make_plan(adc, 1, 1, 6)
        records = run_sweep(plan, client, source)
        assert len(records) == 6
        # SMP 3 is the off capture at frequency 1 and SMP 9 the off capture
        # at frequency 4; a failed capture does not skip the on capture.
        assert [r.failed for r in records] == [False, True, False, False, True, False]
        for r in records:
            if r.failed:
                assert r.error == "injected fault" and r.snr == -math.inf
            else:
                assert r.mean_on is not None and r.var_off > 0

    def test_serial_bad_sample_codes_fail_only_their_frequency(self):
        # A non-hex sample line and a code above the 12-bit full scale (sent
        # under a matching CRC) are protocol errors naming the line or the
        # sample; they fail their own frequency and the sweep goes on. SMP 3
        # is the off capture at frequency 1, SMP 9 the off capture at
        # frequency 4.
        class CorruptingServer(DutProtocolServer):
            smp = 0

            def handle_line(self, line):
                lines = super().handle_line(line)
                if line[5:].startswith("SMP"):
                    self.smp += 1
                    if self.smp == 3:
                        lines[1] = lines[1][:21] + "-1" + lines[1][23:]
                    elif self.smp == 9:
                        codes = np.frombuffer(bytes.fromhex(lines[1][5:]), ">u2").astype(int)
                        codes[1] = 5000
                        lines = [line[:5] + out for out in _data_frame(codes)]
                return lines

        backend, source, adc = small_rig(noise=1.0, seed=9)
        client = SerialBackend(LoopbackTransport(CorruptingServer(backend)))
        records = run_sweep(self.make_plan(adc, 1, 1, 6), client, source)
        assert [r.failed for r in records] == [False, True, False, False, True, False]
        assert records[1].error == "sample line 0: non-hex character '-' at column 16"
        assert records[4].error == "sample 1: code 5000 above full scale 4095"
        assert all(r.var_off > 0 for r in records if not r.failed)

    def test_serial_cell_with_failed_and_ok_frequencies_matches_the_reference(self):
        # _cell_columns turns ok and failed frequencies into one set of
        # columns; the records they give must equal those of the
        # column-by-column reference for a cell in which some frequencies
        # failed (SMP 3 and 9, the off captures at frequencies 1 and 4 of
        # path 0) and one in which none did, with pooled and unpooled
        # variance.
        class CorruptingServer(DutProtocolServer):
            smp = 0

            def handle_line(self, line):
                lines = super().handle_line(line)
                if line[5:].startswith("SMP"):
                    self.smp += 1
                    if self.smp in (3, 9):
                        lines[1] = lines[1][:21] + "-1" + lines[1][23:]
                return lines

        for blocks, pool in ((1, None), (3, False), (3, True)):
            backend, source, adc = small_rig(noise=1.0, seed=9)
            client = SerialBackend(LoopbackTransport(CorruptingServer(backend)))
            plan = self.make_plan(adc, 2, 1, 6, blocks_per_state=blocks, pool_off_variance=pool)
            with recorded_cells() as made:
                records = list(run_sweep(plan, client, source))
            assert [r.failed for r in records] == [False, True, False, False, True, False] + [
                False
            ] * 6
            assert len(made) == 2
            assert_equal_records(records, [r for args, _ in made for r in reference_cell_records(*args)])
            for r in records[:6]:
                if r.failed:
                    assert (r.mean_on, r.mean_off, r.diff, r.var_off) == (None,) * 4
                    assert r.snr == -math.inf
                    assert r.error == "sample line 0: non-hex character '-' at column 16"
                else:
                    assert r.error is None and r.var_off > 0 and r.snr > -math.inf

    def test_affine_invariance_through_pipeline(self):
        # one cell's records: shifting/scaling every sample leaves SNR alone;
        # realized here by scaling the detector gain and noise together via a
        # synthetic trace transform at the estimator level instead
        rng = np.random.default_rng(0)
        on = rng.normal(2060.0, 2.0, 64)
        off = rng.normal(2048.0, 2.0, 64)
        base = estimate_snr(on, off)
        moved = estimate_snr(3.5 * on - 100.0, 3.5 * off - 100.0)
        assert moved == pytest.approx(base, abs=1e-9)

    def test_spectra_group_shuffled_and_interleaved_records(self, tmp_path):
        # A results file whose lines for one (path, config) are not
        # contiguous, shuffled or interleaved with equal copies, must group
        # into spectra exactly as a lookup per record does.
        backend, source, adc = small_rig(noise=2.0, seed=4)
        records = run_sweep(self.make_plan(adc, 3, 2, 5), backend, source)
        copies = [
            replace(r, path=ReceptionPathId(r.path.index, r.path.label), config=replace(r.config))
            for r in records
        ]
        interleaved = [r for pair in zip(records, copies) for r in pair]
        shuffled = [*records, *copies]
        random.Random(0).shuffle(shuffled)
        for batch in (records, interleaved, shuffled):
            reference = {}
            for r in batch:
                reference.setdefault((r.path.index, r.config), (r.path, []))[1].append(
                    (r.freq_hz, r.mean_on, r.mean_off, r.diff, r.var_off, r.snr, r.failed, r.error)
                )
            expected = []
            for (_, config), (path, rows) in reference.items():
                freqs, *columns = zip(*rows)
                expected.append(SweepCell(path, config, freqs, *map(list, columns)))
            results = tmp_path / "results.jsonl"
            header = {"schema_version": 1, "kind": "sensitivity-records"}
            results.write_text(
                "".join(json.dumps(obj) + "\n" for obj in [header, *map(record_to_dict, batch)])
            )
            _, cells = read_records(results)
            assert spectra_from_records(cells) == expected
            assert spectra_from_records(iter(cells)) == expected

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            backend, source, adc = small_rig(noise=3.0, seed=77)
            plan = self.make_plan(adc)
            records = run_sweep(plan, backend, source)
            results.append([(r.mean_on, r.mean_off, r.var_off) for r in records])
        assert results[0] == results[1]

    def test_unpooled_single_block_matches_estimate_snr(self, tmp_path):
        # One block per state without pooling leaves a single off mean per
        # cell: the records must follow estimate_snr's sentinel rules, not
        # emit a NaN variance.
        model = CouplingModel(resonances=(Resonance(500e6, 40e6, 300.0),), noise_sigma=2.0)
        backend, source, adc = small_rig(coupling={(1, None): model}, seed=3)
        plan = self.make_plan(adc, 2, 2, 9, blocks_per_state=1, pool_off_variance=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_sweep(plan, backend, source)
        assert {r.snr for r in records} == {math.inf, -math.inf}
        for r in records:
            assert r.var_off == 0.0
            assert r.snr == estimate_snr([r.mean_on], [r.mean_off])
        out = tmp_path / "results.jsonl"
        write_records(out, records)
        assert "NaN" not in out.read_text()


class TestSweepResult:
    def sweep(self, n_paths=2, n_configs=2, n_freqs=3):
        backend, source, adc = small_rig(noise=2.0, seed=6)
        plan = TestRunSweep().make_plan(adc, n_paths, n_configs, n_freqs)
        return run_sweep(plan, backend, source), plan

    def test_is_a_sequence_of_records_in_plan_order(self):
        result, plan = self.sweep()
        assert isinstance(result, Sequence)
        assert len(result) == plan.n_cells == 12
        records = list(result)
        assert all(type(r) is SensitivityRecord for r in records)
        assert [result[i] for i in range(-12, 12)] == records + records
        assert result[4] == records[4] and result[-1] == records[11]
        assert result[np.int64(5)] == records[5]
        for bounds in (slice(None), slice(2, 9), slice(None, None, -1), slice(-5, None, 2)):
            assert result[bounds] == records[bounds]
        assert result[3:5] == records[3:5] and isinstance(result[3:5], list)
        (first, *_), *_ = [result]
        assert first == records[0]

    def test_assigning_a_record_writes_its_fields_into_the_columns(self, tmp_path):
        result, _ = self.sweep()
        changed = replace(result[-7], mean_on=-1.5, diff=3.0, snr=2.5, failed=True, error="x")
        result[-7] = changed
        records = list(result)
        assert records[5] == result[5] == changed
        write_records(tmp_path / "a.jsonl", result)
        lines = (tmp_path / "a.jsonl").read_text().splitlines()[1:]
        assert lines == [json.dumps(record_to_dict(r)) for r in records]
        for other in (
            replace(changed, freq_hz=1.0),
            replace(changed, path=ReceptionPathId(9)),
            replace(changed, config=result[0].config),
        ):
            with pytest.raises(ValueError, match="must keep its path, config and frequency"):
                result[5] = other
        with pytest.raises(IndexError):
            result[12] = changed
        assert result[5] == changed

    def test_index_out_of_range_raises(self):
        result, _ = self.sweep()
        for i in (12, -13, 100):
            with pytest.raises(IndexError):
                result[i]
        with pytest.raises(TypeError):
            result[1.0]

    def test_sweep_builds_no_record(self, monkeypatch):
        built = []
        init = SensitivityRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SensitivityRecord, "__init__", counting_init)
        result, _ = self.sweep()
        spectra_from_records(result)
        assert built == []
        list(result)
        assert len(built) == 12

    def test_spectra_are_the_results_own_cells(self):
        result, _ = self.sweep()
        spectra = spectra_from_records(result)
        assert len(spectra) == len(result.cells) == 4
        assert all(s is c for s, c in zip(spectra, result.cells))

    def test_a_repeated_cell_extends_a_new_spectrum(self):
        result, _ = self.sweep()
        cells = [*result.cells, result.cells[0]]
        before = copy.deepcopy(cells)
        spectra = spectra_from_records(SweepResult(result.freqs_hz, cells))
        assert cells == before
        first = spectra[0]
        assert first is not cells[0] and spectra[1:] == cells[1:4]
        assert first.freqs_hz == result.freqs_hz * 2
        assert first.snr.tolist() == cells[0].snr.tolist() * 2
        assert first.errors == cells[0].errors * 2
        assert spectra == spectra_from_records(cells)

    def test_duplicate_paths_or_configs_rejected(self):
        # spectra_from_records groups by path index and config, so a plan
        # must not hold either twice.
        _, plan = self.sweep()
        with pytest.raises(ValueError, match="paths must have distinct indices"):
            replace(plan, paths=(plan.paths[0], ReceptionPathId(plan.paths[0].index, "again")))
        with pytest.raises(ValueError, match="configs must be distinct"):
            replace(plan, configs=(plan.configs[0], replace(plan.configs[0])))


@st.composite
def sweep_cases(draw):
    """A small plan and the faults to inject into its sweep: the capture
    calls that fail (a schedule per cell through SimulatorBackend, one SMP
    exchange per capture through SerialBackend) and the paths whose
    configure fails."""
    n_paths, n_configs, n_freqs = (draw(st.integers(1, n)) for n in (3, 2, 6))
    serial = draw(st.booleans())
    captures = n_paths * n_configs * (2 * n_freqs if serial else 1)
    return dict(
        shape=(n_paths, n_configs, n_freqs),
        blocks=draw(st.integers(1, 3)),
        pool=draw(st.sampled_from([None, True, False])),
        noise=draw(st.sampled_from([0.0, 1.0, 3.0])),
        seed=draw(st.integers(0, 2**16)),
        serial=serial,
        failing=draw(st.sets(st.integers(1, captures), max_size=4)),
        bad_paths=draw(st.sets(st.integers(0, n_paths - 1), max_size=1)),
    )


def faulty_sweep(case):
    """run_sweep over ``case``, with the reference records of every cell."""
    model = CouplingModel(resonances=(Resonance(500e6, 40e6, 300.0),), noise_sigma=case["noise"])
    backend, source, adc = small_rig(
        coupling={(0, None): model}, noise=case["noise"], seed=case["seed"]
    )
    plan = TestRunSweep().make_plan(
        adc, *case["shape"], blocks_per_state=case["blocks"], pool_off_variance=case["pool"]
    )
    failing, bad_paths = case["failing"], case["bad_paths"]

    class FaultyServer(DutProtocolServer):
        smp = 0

        def handle_line(self, line):
            if line[5:].startswith("SMP"):
                self.smp += 1
                if self.smp in failing:
                    return [line[:5] + "ERR injected fault"]
            elif line[5:].startswith("CFG") and int(line[9:].split()[0]) in bad_paths:
                return [line[:5] + "ERR no such pin"]
            return super().handle_line(line)

    class FaultyBackend(SimulatorBackend):
        schedules = 0

        def configure(self, path, config, adc):
            if path.index in bad_paths:
                raise BackendError("no such pin")
            super().configure(path, config, adc)

        def capture_schedule(self, schedule, n_blocks):
            self.schedules += 1
            if self.schedules in failing:
                raise BackendError("injected fault")
            return super().capture_schedule(schedule, n_blocks)

    if case["serial"]:
        device = SerialBackend(LoopbackTransport(FaultyServer(backend)))
    else:
        device = FaultyBackend(backend.dut, source)
    with recorded_cells() as made:
        result = run_sweep(plan, device, source)
    return result, [r for args, _ in made for r in reference_cell_records(*args)]


class TestSweepResultProperty:
    @given(sweep_cases())
    @example(
        dict(shape=(2, 1, 6), blocks=1, pool=None, noise=1.0, seed=9, serial=True,
             failing={3, 9}, bad_paths=set())
    )
    @example(
        dict(shape=(3, 2, 4), blocks=3, pool=False, noise=0.0, seed=1, serial=False,
             failing={2}, bad_paths={1})
    )
    def test_records_writer_and_spectra_equal_those_of_the_listed_records(
        self, tmp_path_factory, case
    ):
        result, reference = faulty_sweep(case)
        records = list(result)
        assert_equal_records(records, reference)
        assert [result[i] for i in range(len(result))] == records
        base = tmp_path_factory.getbasetemp()
        written = base / "result.jsonl"
        write_records(written, result, header_extra={"seed": 1})
        header = {"schema_version": 1, "kind": "sensitivity-records", "seed": 1}
        want = "".join(
            json.dumps(obj) + "\n" for obj in [header, *map(record_to_dict, records)]
        ).encode()
        assert written.read_bytes() == want
        assert spectra_from_records(result) == spectra_from_records(read_records(written)[1])


def assert_one_representation(cells):
    """Each cell holds float64 statistic and SNR arrays, a bool ``failed``
    array and an error list, one entry per frequency; its statistics are
    NaN exactly where it failed, and its SNR is -inf there. Its record view
    gives Python floats, bools, strings and None only."""
    stats = ("mean_on", "mean_off", "diff", "var_off")
    for cell in cells:
        n = len(cell.freqs_hz)
        assert all(type(f) is float for f in cell.freqs_hz)
        for name in (*stats, "snr"):
            column = getattr(cell, name)
            assert type(column) is np.ndarray and column.dtype == np.float64
            assert column.shape == (n,)
        assert cell.failed.dtype == np.bool_ and cell.failed.shape == (n,)
        assert type(cell.errors) is list and len(cell.errors) == n
        for name in stats:
            assert np.array_equal(np.isnan(getattr(cell, name)), cell.failed)
        assert (cell.snr[cell.failed] == -math.inf).all()
        view = SweepResult(cell.freqs_hz, [cell])
        for records in (list(view), [view[j] for j in range(n)]):
            for r in records:
                assert type(r.freq_hz) is float and type(r.snr) is float
                assert type(r.failed) is bool
                if r.failed:
                    assert (r.mean_on, r.mean_off, r.diff, r.var_off) == (None,) * 4
                    assert type(r.error) is str
                else:
                    assert {type(getattr(r, name)) for name in stats} == {float}
                    assert r.error is None


@st.composite
def split_sweep_cases(draw):
    """A sweep case of at least two cells and two frequencies, with the
    cell whose results-file lines are split into two runs (any but the
    last) and the number of lines in its first run."""
    case = draw(
        sweep_cases().filter(
            lambda c: c["shape"][2] >= 2 and c["shape"][0] * c["shape"][1] >= 2
        )
    )
    n_paths, n_configs, n_freqs = case["shape"]
    case["split"] = draw(st.integers(0, n_paths * n_configs - 2))
    case["first_run"] = draw(st.integers(1, n_freqs - 1))
    return case


class TestOneRepresentationProperty:
    @given(split_sweep_cases())
    @example(
        dict(shape=(2, 1, 6), blocks=1, pool=None, noise=1.0, seed=9, serial=True,
             failing={3, 9}, bad_paths=set(), split=0, first_run=2)
    )
    @example(
        dict(shape=(3, 2, 4), blocks=3, pool=False, noise=0.0, seed=1, serial=False,
             failing={2}, bad_paths={1}, split=2, first_run=1)
    )
    def test_swept_read_and_joined_cells_hold_the_same_columns(self, tmp_path_factory, case):
        # A sweep with injected BackendErrors; its file read back with the
        # lines of one (path, config) split into two runs; and the spectra
        # of the cells read, which join those two runs again.
        result, _ = faulty_sweep(case)
        base = tmp_path_factory.getbasetemp()
        written = base / "result.jsonl"
        write_records(written, result)
        header, *lines = written.read_text().splitlines(keepends=True)
        n_freqs, n_cells = len(result.freqs_hz), len(result.cells)
        split, k = case["split"], case["first_run"]
        start = split * n_freqs
        tail = lines[start + k : start + n_freqs]
        del lines[start + k : start + n_freqs]
        split_file = base / "split.jsonl"
        split_file.write_text(header + "".join(lines + tail))
        _, read = read_records(split_file)
        assert len(read) == n_cells + 1
        assert [len(c.freqs_hz) for c in (read[split], read[-1])] == [k, n_freqs - k]
        rewritten = base / "rewritten.jsonl"
        write_records(rewritten, read)
        assert rewritten.read_bytes() == split_file.read_bytes()
        spectra = spectra_from_records(read)
        assert spectra == result.cells
        for cells in (result.cells, read, spectra):
            assert_one_representation(cells)


def retained_bytes(make) -> int:
    """The bytes tracemalloc sees freed when the value ``make()`` returns
    is dropped. A full collection before each reading empties the free
    lists, whose blocks tracemalloc counts as allocated."""
    tracemalloc.start()
    try:
        value = make()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del value
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestMemory:
    # Bytes per (path, config, frequency) record, stated before measuring.
    # The float64 columns hold one in about 60 B (five 8-byte values, a
    # bool, an error-list entry and a share of each array's header); lists
    # of Python floats took about 160. Read cells also hold a frequency
    # tuple of their own, 32 B a record more; as lists they took about 217.
    SWEEP_BYTES_PER_RECORD = 80
    READ_BYTES_PER_RECORD = 120

    def test_sweep_results_and_read_cells_stay_under_their_bounds(self, tmp_path):
        scenario = load_scenario(bundled_scenario_path("demo_board"))
        backend, source = build_rig(scenario, seed=2)
        plan = SweepPlan(
            paths=tuple(ReceptionPathId(i, f"P{i}") for i in range(4)),
            configs=tuple(recommended_configs()),
            samples_per_block=scenario.adc.samples_per_block,
            adc=scenario.adc,
        )
        results = tmp_path / "results.jsonl"
        write_records(results, run_sweep(plan, backend, source))
        swept = retained_bytes(lambda: run_sweep(plan, backend, source))
        read = retained_bytes(lambda: read_records(results))
        assert swept / plan.n_cells <= self.SWEEP_BYTES_PER_RECORD
        assert read / plan.n_cells <= self.READ_BYTES_PER_RECORD
