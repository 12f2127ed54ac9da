"""Device physics: coupling, rectification, bandwidth, impairments, ADC."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import lfilter

import adcradio
from adcradio import simulator
from adcradio.backend import (
    ReceptionPathId,
    RfStimulus,
    SimulatedRfSource,
    SimulatorBackend,
    UnsupportedSettingError,
)
from adcradio.scenario import build_rig, bundled_scenario_path, enumerate_configs, load_scenario
from adcradio.signals import BasebandEnvelope, dbm_to_mw, generate_bits, modulate_ook
from adcradio.simulator import (
    ALLOWED_OVERSAMPLING,
    AdcConfig,
    BurstSpec,
    CouplingModel,
    DriftSpec,
    Resonance,
    RfChannel,
    SimulatedDut,
    _DeviceState,
    _impair,
    _load_kernel,
    _lowpass,
    _lowpass_alpha,
    _quantize,
    adc_sample,
    coupling_gain,
    detector_output,
)

CFG = "cfg"  # configs are opaque hashables to the simulator


def make_dut(model=None, default=None, adc=None, seed=0, n_paths=3, channel=None):
    coupling = {(1, None): model} if model is not None else {}
    return SimulatedDut(
        n_paths=n_paths,
        adc=adc or AdcConfig(),
        channel=channel or RfChannel(g_tx_dbi=0.0, distance_m=1.0),
        coupling=coupling,
        default_model=default or CouplingModel(),
        seed=seed,
    )


class TestCouplingGain:
    def test_no_resonance_is_insensitive(self):
        assert coupling_gain(CouplingModel(), 500e6) == 0.0

    def test_peak_at_center(self):
        model = CouplingModel(resonances=(Resonance(500e6, 50e6, 2.0),))
        assert coupling_gain(model, 500e6) == pytest.approx(2.0)

    def test_lorentzian_half_at_one_bandwidth(self):
        model = CouplingModel(resonances=(Resonance(500e6, 50e6, 1.0),))
        assert coupling_gain(model, 550e6) == pytest.approx(0.5)

    def test_resonances_sum(self):
        model = CouplingModel(
            resonances=(Resonance(400e6, 50e6, 1.0), Resonance(600e6, 50e6, 1.0))
        )
        assert coupling_gain(model, 500e6) == pytest.approx(0.2 + 0.2)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            coupling_gain(CouplingModel(), 0.0)


class TestDetectorOutput:
    def test_rectifier_null(self):
        out = detector_output(np.zeros(10), gain=3.0, exponent=1.0)
        np.testing.assert_array_equal(out, np.zeros(10))

    def test_linear_case_doubles(self):
        p = np.array([1.0, 2.0])
        out = detector_output(p, gain=4.0, exponent=1.0)
        np.testing.assert_allclose(out, [4.0, 8.0])
        np.testing.assert_allclose(
            detector_output(2 * p, gain=4.0, exponent=1.0), 2 * out
        )

    def test_square_law(self):
        out = detector_output(np.array([3.0]), gain=1.0, exponent=2.0)
        assert out[0] == pytest.approx(9.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            detector_output(np.array([-1.0]), 1.0, 1.0)


def lowpass(values, bandwidth_hz, sample_rate_hz):
    """The baseband low-pass that capture_schedule runs, from rest."""
    return _lowpass(values, _lowpass_alpha(bandwidth_hz, sample_rate_hz), 0.0)[0]


def impair(values, model, rng, sample_rate_hz=1.0):
    """The impairments that capture_schedule adds, from a fresh device state."""
    return _impair(values, model, rng, _DeviceState(), sample_rate_hz)


class TestApplyBandwidth:
    def test_step_reaches_63_percent_at_time_constant(self):
        fs = 100_000.0
        bw = 1_000.0
        tau_samples = fs / (2 * np.pi * bw)
        out = lowpass(np.ones(5000), bw, fs)
        crossing = int(np.argmax(out >= 1 - np.exp(-1)))
        assert abs(crossing - tau_samples) <= 1.0

    def test_dc_gain_is_unity(self):
        out = lowpass(np.ones(50_000), 2_000.0, 100_000.0)
        assert out[-1] == pytest.approx(1.0, abs=1e-6)

    def test_slow_symbols_keep_full_swing(self):
        # symbol rate far below bandwidth: the eye stays ~fully open
        sps = 1000
        pattern = np.repeat([0.0, 1.0, 0.0, 1.0, 1.0, 0.0], sps)
        out = lowpass(pattern, 5_000.0, 100_000.0)
        mid = out[len(out) // 2 - sps // 4 : len(out) // 2 + sps // 4]
        assert np.ptp(out) > 0.99

    def test_faster_rates_shrink_swing(self):
        fs = 400_000.0
        bw = 5_000.0
        swings = []
        for sps in (800, 80, 8, 4):
            pattern = np.repeat(np.tile([1.0, 0.0], 200), sps)
            out = lowpass(pattern, bw, fs)
            settled = out[10 * sps :]
            swings.append(np.ptp(settled))
        assert all(a > b for a, b in zip(swings, swings[1:]))


# Filter inputs and states: negative values and both signed zeros included.
_SAMPLES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])


class TestLowpassKernel:
    """_lowpass calls scipy's private first-order kernel directly; these pin
    it to the public lfilter call it stands for."""

    @example(x=np.array([-0.0, 0.0, -0.0]), alpha=0.5, y_prev=-0.0)
    @example(x=np.array([-0.0, -1.0]), alpha=5e-324, y_prev=0.0)
    @example(x=np.array([-0.0, 2.5]), alpha=1.0, y_prev=3.0)
    @given(
        x=arrays(np.float64, st.integers(1, 20_000), elements=_SAMPLES),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.floats(1.0, 4.0),
        y_prev=_SAMPLES,
    )
    def test_equals_lfilter_bit_for_bit(self, x, alpha, y_prev):
        given_x = x.copy()
        out, last = _lowpass(x, alpha, y_prev)
        if alpha < 1.0:
            expected = lfilter([alpha], [1, alpha - 1], x, zi=[(1 - alpha) * y_prev])[0]
        else:
            # At alpha >= 1 the filter is the identity: lfilter would give
            # an unstable filter above 1, and at 1 it turns -0.0 into 0.0.
            expected = x
        assert out.tobytes() == expected.tobytes()
        assert np.float64(last).tobytes() == out[-1:].tobytes()
        assert out is not x
        assert x.tobytes() == given_x.tobytes()


class TestKernelLoad:
    """The first-order kernel loads without importing scipy.signal."""

    @pytest.mark.parametrize(
        "module, symbol",
        [("scipy.signal._no_such_module", "_linear_filter"), ("scipy.signal._sigtools", "_no_such_symbol")],
    )
    def test_failure_is_an_import_error_naming_symbol_and_scipy(self, module, symbol):
        with pytest.raises(ImportError) as info:
            _load_kernel(module, symbol)
        assert str(info.value) == f"cannot load {module}.{symbol} from scipy {scipy.__version__}"

    def test_importing_the_package_and_cli_leaves_scipy_signal_unloaded(self):
        # A fresh interpreter: this test module itself imports scipy.signal.
        env = {**os.environ, "PYTHONPATH": str(Path(adcradio.__file__).parent.parent)}
        code = "import sys, adcradio, adcradio.cli; assert 'scipy.signal' not in sys.modules"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr

    def test_lfilter_is_scipys(self):
        x = np.linspace(-3.0, 5.0, 50)
        got = simulator.lfilter([0.3], [1.0, -0.7], x, zi=[0.25])
        expected = lfilter([0.3], [1.0, -0.7], x, zi=[0.25])
        assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected, strict=True))


# Analog values around and beyond a 6- to 16-bit range, exact halves (which
# round to even) at both ends of every range, and both infinities. Plain
# values (no .map) let arrays() fill most of a long array cheaply.
_ANALOG = st.floats(-100.0, 70_000.0) | st.sampled_from(
    [-np.inf, np.inf, -0.0, -0.5, 0.5, 1.5, 2.5]
    + [(1 << bits) - 1 + half for bits in range(6, 17) for half in (-1.5, -0.5, 0.5)]
)


def two_step_codes(raw, full_scale, ratio):
    """The quantization rule as first written: round and clamp each raw
    conversion, average ``ratio`` of them, then round and clamp again."""
    raw = np.clip(np.rint(raw), 0.0, float(full_scale))
    if ratio > 1:
        raw = raw.reshape(-1, ratio).mean(axis=1)
    return np.clip(np.rint(raw), 0.0, float(full_scale)).astype(np.int32)


class TestQuantize:
    @example(case=(1, np.array([0.5, 1.5, 2.5, -0.5, 4094.5, 4095.5])), bits=12)
    @example(case=(4, np.array([0.5, 1.0, 1.5, 1.0])), bits=12)
    @given(
        case=st.sampled_from(ALLOWED_OVERSAMPLING).flatmap(
            lambda ratio: st.tuples(
                st.just(ratio),
                arrays(np.float64, st.integers(0, 8).map(lambda n: n * ratio), elements=_ANALOG),
            )
        ),
        bits=st.integers(6, 16),
    )
    def test_equals_the_two_step_rule(self, case, bits):
        ratio, raw = case
        full_scale = (1 << bits) - 1
        expected = two_step_codes(raw, full_scale, ratio)
        given_raw = raw.copy()
        codes = _quantize(raw, full_scale, ratio)
        assert codes.dtype == np.int32
        assert codes.tobytes() == expected.tobytes()
        assert raw.tobytes() == given_raw.tobytes()
        n = raw.size // ratio
        if n:
            adc = AdcConfig(resolution_bits=bits, oversampling_ratio=ratio, samples_per_block=n)
            assert adc_sample(raw, adc).samples.tobytes() == expected.tobytes()
            assert raw.tobytes() == given_raw.tobytes()


def reference_impair(values, model, rng, state, raw_rate_hz):
    """One state's impairments, summed term by term into a fresh array:
    noise plus values first when noise is on (else a copy of values), then
    the walk, the sinusoid and the bursts. Advances ``state`` as _impair does."""
    n = values.size
    drift, burst = model.drift, model.burst
    noise = rng.normal(0.0, model.noise_sigma, n) if model.noise_sigma > 0 else None
    steps = rng.normal(0.0, drift.walk_step, n) if drift.walk_step > 0 else None
    bursty = burst.rate_per_s > 0 and burst.duration_s > 0
    uniform = rng.random(n) if bursty else None
    total = noise + values if noise is not None else values.copy()
    if steps is not None:
        walk = np.cumsum(steps) + state.walk_value
        total = total + walk
        state.walk_value = float(walk[-1])
    if drift.sine_amplitude > 0 and drift.sine_period_s > 0:
        index = np.arange(n, dtype=np.float64) + state.sample_index
        phase = index / raw_rate_hz * (2.0 * np.pi) / drift.sine_period_s
        total = total + np.sin(phase) * drift.sine_amplitude
    if uniform is not None:
        length = max(1, int(round(burst.duration_s * raw_rate_hz)))
        active = np.arange(n) < state.burst_left
        ends = [state.burst_left]
        for start in np.flatnonzero(uniform < burst.rate_per_s / raw_rate_hz):
            active[start : start + length] = True
            ends.append(start + length)
        if active.any():
            total = total + burst.amplitude * active
        state.burst_left = max(0, max(ends) - n)
    state.sample_index += n
    return total


class TestAddImpairments:
    @given(
        values=arrays(np.float64, st.integers(1, 60), elements=_SAMPLES),
        noise_sigma=st.sampled_from([0.0, 0.7, 3.0]),
        drift=st.builds(
            DriftSpec,
            walk_step=st.just(0.0) | st.floats(0.01, 0.5),
            sine_amplitude=st.just(0.0) | st.floats(0.5, 20.0),
            sine_period_s=st.floats(1e-3, 0.1),
        ),
        burst=st.just(BurstSpec())
        | st.builds(
            BurstSpec,
            rate_per_s=st.floats(50.0, 2000.0),
            amplitude=st.floats(-40.0, 40.0),
            duration_s=st.floats(1e-4, 2e-2),
        ),
        start=st.builds(
            _DeviceState,
            sample_index=st.integers(0, 10**6),
            walk_value=st.floats(-50.0, 50.0),
            burst_left=st.integers(0, 400),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_state_equals_the_term_by_term_sum(
        self, values, noise_sigma, drift, burst, start, seed
    ):
        model = CouplingModel(noise_sigma=noise_sigma, drift=drift, burst=burst)
        given_values = values.copy()
        state, reference = replace(start), replace(start)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        out = _impair(values, model, rng, state, 10_000.0)
        expected = reference_impair(given_values, model, reference_rng, reference, 10_000.0)

        assert out.tobytes() == expected.tobytes()
        assert out is not values
        assert values.tobytes() == given_values.tobytes()
        assert state == reference
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_all_disabled_is_identity(self):
        x = np.linspace(0, 5, 100)
        out = impair(x, CouplingModel(), np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_noise_sigma_matches_estimate(self):
        model = CouplingModel(noise_sigma=3.0)
        out = impair(np.zeros(10**5), model, np.random.default_rng(1))
        assert out.std() == pytest.approx(3.0, rel=0.02)

    def test_burst_count_is_poisson(self):
        rate, dur, n, fs = 2.0, 0.004, 200_000, 20_000.0
        duration_s = n / fs
        counts = []
        for seed in range(100):
            model = CouplingModel(burst=BurstSpec(rate_per_s=rate, amplitude=50.0, duration_s=dur))
            out = impair(np.zeros(n), model, np.random.default_rng(seed), fs)
            rising = np.count_nonzero(np.diff((out > 25).astype(int)) == 1)
            rising += int(out[0] > 25)
            counts.append(rising)
        lam = rate * duration_s
        # mean of 100 Poisson(lam) draws within 3 sigma (merged overlaps allowed for)
        assert abs(np.mean(counts) - lam) < 3 * np.sqrt(lam / 100) + 0.05 * lam

    def test_walk_variance_grows(self):
        model = CouplingModel(drift=DriftSpec(walk_step=0.5))
        out = impair(np.zeros(40_000), model, np.random.default_rng(3))
        early = out[:1000].var()
        late = np.var(out[-1000:] - out[-1000])
        assert abs(out[-1]) > abs(out[0])
        assert out[20_000:].var() > out[:100].var()

    # One example per combination of the three random streams (noise, walk
    # steps, burst uniforms), the sinusoid on where no stream is.
    @example(  # none: no draws, the sinusoid alone
        noise_sigma=0.0, drift=DriftSpec(sine_amplitude=3.0, sine_period_s=0.004),
        burst=BurstSpec(), states=4, n=9, start=_DeviceState(sample_index=7), seed=0,
    )
    @example(  # noise alone: one normal call over the pass
        noise_sigma=3.0, drift=DriftSpec(), burst=BurstSpec(), states=5, n=12,
        start=_DeviceState(), seed=1,
    )
    @example(  # walk alone
        noise_sigma=0.0, drift=DriftSpec(walk_step=0.3), burst=BurstSpec(), states=5, n=12,
        start=_DeviceState(walk_value=2.5), seed=2,
    )
    @example(  # bursts alone
        noise_sigma=0.0, drift=DriftSpec(),
        burst=BurstSpec(rate_per_s=900.0, amplitude=-25.0, duration_s=0.002),
        states=5, n=12, start=_DeviceState(burst_left=7), seed=3,
    )
    @example(  # noise and walk: one standard_normal call for the whole pass
        noise_sigma=0.7, drift=DriftSpec(walk_step=0.2), burst=BurstSpec(), states=5, n=12,
        start=_DeviceState(walk_value=-1.0), seed=4,
    )
    @example(  # noise and bursts: two calls per state
        noise_sigma=0.7, drift=DriftSpec(),
        burst=BurstSpec(rate_per_s=900.0, amplitude=25.0, duration_s=0.002),
        states=5, n=12, start=_DeviceState(), seed=5,
    )
    @example(  # walk and bursts
        noise_sigma=0.0, drift=DriftSpec(walk_step=0.2, sine_amplitude=1.0, sine_period_s=0.01),
        burst=BurstSpec(rate_per_s=900.0, amplitude=25.0, duration_s=0.002),
        states=5, n=12, start=_DeviceState(sample_index=40, burst_left=30), seed=6,
    )
    @example(  # all three, one state
        noise_sigma=3.0, drift=DriftSpec(walk_step=0.1, sine_amplitude=2.0, sine_period_s=0.01),
        burst=BurstSpec(rate_per_s=900.0, amplitude=25.0, duration_s=0.002),
        states=1, n=40, start=_DeviceState(burst_left=3), seed=7,
    )
    @example(  # demo_board path 42's model over a desk spectrum's pass: 162 states of
        # 64 samples from configure, four bursts, the last carried out of the pass
        noise_sigma=6.0,
        drift=DriftSpec(walk_step=0.01, sine_amplitude=2.0, sine_period_s=8.0),
        burst=BurstSpec(rate_per_s=2.5, amplitude=60.0, duration_s=0.01),
        states=162,
        n=64,
        start=_DeviceState(),
        seed=50,
    )
    @example(  # demo_board path 70's model (noise, walk and sinusoid) over the same pass
        noise_sigma=10.0,
        drift=DriftSpec(walk_step=0.2, sine_amplitude=8.0, sine_period_s=5.0),
        burst=BurstSpec(),
        states=162,
        n=64,
        start=_DeviceState(),
        seed=51,
    )
    @example(  # a burst carried in, and new ones lasting two of the six states
        noise_sigma=6.0,
        drift=DriftSpec(walk_step=0.01, sine_amplitude=2.0, sine_period_s=8.0),
        burst=BurstSpec(rate_per_s=500.0, amplitude=60.0, duration_s=0.004),
        states=6,
        n=20,
        start=_DeviceState(sample_index=95, walk_value=-3.5, burst_left=50),
        seed=2,
    )
    @given(
        noise_sigma=st.sampled_from([0.0, 0.7, 3.0]),
        drift=st.builds(
            DriftSpec,
            walk_step=st.just(0.0) | st.floats(0.01, 0.5),
            sine_amplitude=st.just(0.0) | st.floats(0.5, 20.0),
            sine_period_s=st.floats(1e-3, 0.1),
        ),
        burst=st.just(BurstSpec())
        | st.builds(
            BurstSpec,
            rate_per_s=st.floats(50.0, 2000.0),
            amplitude=st.floats(-40.0, 40.0),
            duration_s=st.floats(1e-4, 2e-2),
        ),
        states=st.integers(1, 8),
        n=st.integers(1, 40),
        start=st.builds(
            _DeviceState,
            sample_index=st.integers(0, 10**6),
            walk_value=st.floats(-50.0, 50.0),
            burst_left=st.integers(0, 400),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_call_over_a_pass_equals_one_call_per_state(
        self, noise_sigma, drift, burst, states, n, start, seed
    ):
        model = CouplingModel(noise_sigma=noise_sigma, drift=drift, burst=burst)
        values = np.linspace(1000.0, 3000.0, states * n)
        given_values = values.copy()
        batched, reference = replace(start), replace(start)
        batched_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        out = _impair(values, model, batched_rng, batched, 10_000.0, states)
        expected = [
            _impair(part, model, reference_rng, reference, 10_000.0)
            for part in values.reshape(states, n)
        ]

        assert out.tobytes() == np.concatenate(expected).tobytes()
        assert out is not values
        assert values.tobytes() == given_values.tobytes()
        assert batched == reference  # sample_index, walk_value and burst_left
        assert batched_rng.bit_generator.state == reference_rng.bit_generator.state


class TestGroupedDraws:
    """A short pass draws its normals with standard_normal and scales them,
    and its uniforms into an array of its own; the numbers and the
    generator state must be those of normal and random called per stream
    and state."""

    @example(scale=1.0, n=0, seed=0)
    @example(scale=6.0, n=64, seed=51)
    @given(
        scale=st.floats(1e-3, 1e3) | st.sampled_from([5e-324, 1e-300, 1e300]),
        n=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_normal_is_the_scaled_standard_normal(self, scale, n, seed):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference.normal(0.0, scale, n)
        expected_uniforms = reference.random(n)
        z, uniforms = np.empty(n), np.empty(n)
        rng.standard_normal(out=z)
        z *= scale
        z += 0.0
        rng.random(out=uniforms)
        assert z.tobytes() == expected.tobytes()
        assert uniforms.tobytes() == expected_uniforms.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    @given(
        states=st.integers(1, 8),
        n=st.integers(1, 40),
        scales=st.sampled_from([[0.7], [0.2], [3.0, 0.01], [6.0, 0.2]]),
        bursts=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_one_call_per_stream_and_state(self, states, n, scales, bursts, seed):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        normals, uniforms = simulator._grouped_draws(rng, states, n, scales, bursts)
        expected = [np.empty((states, n)) for _ in scales]
        expected_uniforms = np.empty((states, n))
        for k in range(states):
            for stream, scale in zip(expected, scales):
                stream[k] = reference.normal(0.0, scale, n)
            if bursts:
                expected_uniforms[k] = reference.random(n)
        assert [a.tobytes() for a in normals] == [b.tobytes() for b in expected]
        if bursts:
            assert uniforms.tobytes() == expected_uniforms.tobytes()
        else:
            assert uniforms is None
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("bursts", [False, True])
    def test_a_negative_zero_normal_is_scaled_to_zero_as_normal_does(self, bursts):
        # The ziggurat can return -0.0; normal(0, s) gives 0.0 + s * -0.0 = 0.0.
        rng = mock.Mock()
        rng.standard_normal.side_effect = lambda out: out.fill(-0.0)
        rng.random.side_effect = lambda out: out.fill(0.5)
        normals, _ = simulator._grouped_draws(rng, 3, 4, [0.7, 0.2], bursts)
        for stream in normals:
            assert not np.signbit(stream).any()
        assert rng.standard_normal.call_count == (3 if bursts else 1)


@pytest.mark.parametrize("amplitude", [math.inf, -math.inf, math.nan])
def test_a_burst_amplitude_must_be_finite(amplitude):
    # The bursts add the amplitude to their samples only, so an infinite one
    # could not reproduce the NaN that amplitude * 0 put everywhere else.
    with pytest.raises(ValueError, match="finite"):
        BurstSpec(rate_per_s=1.0, amplitude=amplitude, duration_s=0.01)


_DRIFTS = st.builds(
    DriftSpec,
    walk_step=st.floats(0.01, 0.5),
    sine_amplitude=st.floats(0.5, 20.0),
    sine_period_s=st.floats(1e-3, 0.1),
)
_BURSTS = st.builds(
    BurstSpec,
    rate_per_s=st.floats(50.0, 2000.0),
    amplitude=st.floats(-40.0, 40.0),
    duration_s=st.floats(1e-4, 2e-2),
)


class TestPassBlocks:
    """A pass of one state runs _impair's walk, sinusoid and burst draws and
    _quantize's rounding in blocks of _PASS_RAW_SAMPLES. Patched down to
    3-17 samples, the block makes small arrays cross many block edges; the
    results must equal the whole-array rules bit for bit."""

    @example(  # a carried 12-sample burst and 30-sample bursts over 5-sample blocks
        block=5,
        values=np.linspace(1000.0, 1100.0, 47),
        noise_sigma=0.7,
        drift=DriftSpec(walk_step=0.1, sine_amplitude=3.0, sine_period_s=0.004),
        burst=BurstSpec(rate_per_s=900.0, amplitude=25.0, duration_s=0.003),
        start=_DeviceState(sample_index=17, walk_value=-3.5, burst_left=12),
        seed=4,
    )
    @example(  # short bursts that start and end inside a long carried one
        block=7,
        values=np.full(60, 100.0),
        noise_sigma=0.7,
        drift=DriftSpec(walk_step=0.05, sine_amplitude=1.0, sine_period_s=0.002),
        burst=BurstSpec(rate_per_s=1500.0, amplitude=30.0, duration_s=0.0004),
        start=_DeviceState(sample_index=5, walk_value=0.0, burst_left=45),
        seed=1,
    )
    @example(  # from raw sample 0, so the sinusoid comes from the drift table
        block=3,
        values=np.full(20, 2048.0),
        noise_sigma=3.0,
        drift=DriftSpec(walk_step=0.2, sine_amplitude=5.0, sine_period_s=0.001),
        burst=BurstSpec(rate_per_s=2000.0, amplitude=-40.0, duration_s=0.0004),
        start=_DeviceState(sample_index=0, walk_value=7.0, burst_left=4),
        seed=11,
    )
    @given(
        block=st.integers(3, 17),
        values=arrays(np.float64, st.integers(1, 120), elements=_SAMPLES),
        noise_sigma=st.sampled_from([0.7, 3.0]),
        drift=_DRIFTS,
        burst=_BURSTS,
        start=st.builds(
            _DeviceState,
            sample_index=st.just(0) | st.integers(0, 10**6),
            walk_value=st.floats(-50.0, 50.0),
            burst_left=st.integers(0, 400),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_impair_across_blocks_equals_the_term_by_term_sum(
        self, block, values, noise_sigma, drift, burst, start, seed
    ):
        # All four terms on: noise, walk, sinusoid and bursts.
        model = CouplingModel(noise_sigma=noise_sigma, drift=drift, burst=burst)
        given_values = values.copy()
        state, reference = replace(start), replace(start)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        with mock.patch.object(simulator, "_PASS_RAW_SAMPLES", block):
            out = _impair(values, model, rng, state, 10_000.0)
        expected = reference_impair(given_values, model, reference_rng, reference, 10_000.0)

        assert out.tobytes() == expected.tobytes()
        assert values.tobytes() == given_values.tobytes()
        assert state == reference  # sample_index, walk_value and burst_left
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("amplitude", [25.0, 0.0, -0.0, -25.0])
    def test_bursts_without_noise_keep_the_signed_zeros_of_the_dense_sum(self, amplitude):
        # The dense sum added amplitude * 0 outside the bursts, turning a
        # -0.0 of the input into 0.0 unless that product is -0.0.
        values = np.array([-0.0, 1.0, -0.0, -0.0, 2.0, -0.0, -0.0, -0.0])
        model = CouplingModel(burst=BurstSpec(rate_per_s=1.0, amplitude=amplitude, duration_s=3e-4))
        state, reference = _DeviceState(burst_left=3), _DeviceState(burst_left=3)
        with mock.patch.object(simulator, "_PASS_RAW_SAMPLES", 3):
            out = _impair(values, model, np.random.default_rng(0), state, 10_000.0)
        expected = reference_impair(values, model, np.random.default_rng(0), reference, 10_000.0)
        assert out.tobytes() == expected.tobytes()
        assert state == reference

    @example(block=5, case=(4, np.array([0.5, 1.0, 1.5, 1.0] * 3)), bits=12)
    @given(
        block=st.integers(3, 17),
        case=st.sampled_from([1, 4, 16]).flatmap(
            lambda ratio: st.tuples(
                st.just(ratio),
                arrays(np.float64, st.integers(0, 40).map(lambda n: n * ratio), elements=_ANALOG),
            )
        ),
        bits=st.integers(6, 16),
    )
    def test_quantize_across_blocks_equals_the_two_step_rule(self, block, case, bits):
        ratio, raw = case
        full_scale = (1 << bits) - 1
        expected = two_step_codes(raw, full_scale, ratio)
        given_raw = raw.copy()
        with mock.patch.object(simulator, "_PASS_RAW_SAMPLES", block):
            codes = _quantize(raw, full_scale, ratio)
        assert codes.dtype == np.int32
        assert codes.tobytes() == expected.tobytes()
        assert raw.tobytes() == given_raw.tobytes()


class TestDriftTable:
    """The sinusoid of a pass that starts at raw sample 0 comes from a small
    read-only table; it must hold exactly the floats the chain computes."""

    DRIFT = DriftSpec(walk_step=0.01, sine_amplitude=2.0, sine_period_s=8.0)

    @pytest.mark.parametrize("size", [1, 64, 16_385, 201_040])
    @pytest.mark.parametrize(
        "rate, period", [(10_000.0, 5.0), (16_000.0, 8.0), (400_000.0, 1e-3)]
    )
    def test_equals_the_chain(self, size, rate, period):
        drift = DriftSpec(sine_amplitude=3.5, sine_period_s=period)
        index = np.arange(size, dtype=np.float64)
        chain = np.sin(index / rate * (2.0 * np.pi) / period) * drift.sine_amplitude
        assert simulator._drift_table(drift, rate, size).tobytes() == chain.tobytes()

    def test_is_read_only(self):
        table = simulator._drift_table(self.DRIFT, 16_000.0, 100)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0

    @mock.patch.object(simulator, "_PASS_RAW_SAMPLES", 64)
    def test_a_second_configure_hits_it_and_other_passes_never_read_it(self):
        model = CouplingModel(noise_sigma=1.0, drift=self.DRIFT)
        dut = make_dut(model=model, adc=AdcConfig(samples_per_block=50))
        simulator._drift_table.cache_clear()
        dut.configure(1, CFG, dut.adc)
        dut.capture(1)  # from raw sample 0, but one block long
        assert simulator._drift_table.cache_info()[:2] == (0, 0)  # hits, misses
        dut.configure(1, CFG, dut.adc)
        dut.capture(3)  # from raw sample 0 over three blocks: builds the entry
        assert simulator._drift_table.cache_info()[:2] == (0, 1)
        dut.capture(3)  # from raw sample 150
        assert simulator._drift_table.cache_info()[:2] == (0, 1)
        dut.configure(1, CFG, dut.adc)
        dut.capture(3)
        assert simulator._drift_table.cache_info()[:2] == (1, 1)

    @mock.patch.object(simulator, "_PASS_RAW_SAMPLES", 16)
    def test_a_later_pass_computes_the_chain_itself(self):
        model = CouplingModel(drift=DriftSpec(sine_amplitude=4.0, sine_period_s=0.01))
        dut = make_dut(model=model, adc=AdcConfig(samples_per_block=64))
        dut.configure(1, CFG, dut.adc)
        dut.capture(1)
        with mock.patch.object(simulator, "_drift_table", side_effect=AssertionError):
            codes = dut.capture(2).samples  # eight blocks from raw sample 64
        index = np.arange(64, 192, dtype=np.float64)
        sine = np.sin(index / 10_000.0 * (2.0 * np.pi) / 0.01) * 4.0
        assert codes.tobytes() == np.rint(2048.0 + sine).astype(np.int32).tobytes()

    def test_keeps_at_most_its_stated_entries(self):
        bound = simulator._DRIFT_TABLE_ENTRIES
        assert simulator._drift_table.cache_info().maxsize == bound
        for size in range(1, bound + 4):
            simulator._drift_table(self.DRIFT, 16_000.0, size)
        assert simulator._drift_table.cache_info().currsize == bound


class TestAdcSample:
    def test_constant_integer_envelope(self):
        adc = AdcConfig(samples_per_block=16)
        trace = adc_sample(np.full(16, 2048.0), adc)
        assert np.all(trace.samples == 2048)

    def test_oversampling_halves_noise_at_ratio_4(self):
        rng = np.random.default_rng(7)
        envelope = 2048.0 + rng.normal(0, 8.0, 4 * 100_000)
        adc1 = AdcConfig(oversampling_ratio=1, samples_per_block=100_000)
        adc4 = AdcConfig(oversampling_ratio=4, samples_per_block=100_000)
        std1 = adc_sample(envelope[:100_000], adc1).samples.std()
        std4 = adc_sample(envelope, adc4).samples.std()
        assert std1 / std4 == pytest.approx(2.0, rel=0.05)

    def test_clamps_at_full_scale_without_wraparound(self):
        adc = AdcConfig(samples_per_block=8)
        trace = adc_sample(np.full(8, 99_999.0), adc)
        assert np.all(trace.samples == 4095)
        trace = adc_sample(np.full(8, -50.0), adc)
        assert np.all(trace.samples == 0)

    def test_short_envelope_reported(self):
        adc = AdcConfig(oversampling_ratio=4, samples_per_block=16)
        with pytest.raises(ValueError, match="too short"):
            adc_sample(np.zeros(32), adc)

    def test_oversampling_ratio_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            AdcConfig(oversampling_ratio=3)


class TestSimulatedDut:
    def test_off_state_mean_is_dc_operating_point(self):
        model = CouplingModel(noise_sigma=2.0)
        dut = make_dut(default=model, adc=AdcConfig(samples_per_block=1000))
        dut.configure(0, CFG, dut.adc)
        trace = dut.capture(50, None)
        n = len(trace)
        assert trace.samples.mean() == pytest.approx(
            2048.0, abs=3 * 2.0 / np.sqrt(n) + 0.02
        )

    def test_stimulus_off_equals_impairment_baseline(self):
        model = CouplingModel(
            resonances=(Resonance(500e6, 50e6, 10.0),), noise_sigma=2.0
        )
        dut_a = make_dut(model=model, seed=9)
        dut_b = make_dut(model=model, seed=9)
        dut_a.configure(1, CFG, dut_a.adc)
        dut_b.configure(1, CFG, dut_b.adc)
        off = RfStimulus(freq_hz=500e6, power_dbm=10.0, enabled=False)
        a = dut_a.capture(10, off)
        b = dut_b.capture(10, None)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_on_resonance_shifts_mean_well_above_noise(self):
        # incident power at 20 dBm generator / 1 m is ~0.08 mW, so the gain
        # sets the shift to ~40 codes against sigma = 2
        model = CouplingModel(
            resonances=(Resonance(500e6, 50e6, 500.0),), noise_sigma=2.0
        )
        dut = make_dut(model=model, adc=AdcConfig(samples_per_block=512))
        dut.configure(1, CFG, dut.adc)
        on = RfStimulus(freq_hz=500e6, power_dbm=20.0, enabled=True)
        off = RfStimulus(freq_hz=500e6, power_dbm=20.0, enabled=False)
        off_mean = dut.capture(4, off).samples.mean()
        on_trace = dut.capture(8, on)
        settled = on_trace.samples[512:]
        assert settled.mean() - off_mean > 10 * 2.0

    def test_same_seed_same_commands_byte_identical(self):
        model = CouplingModel(noise_sigma=4.0, drift=DriftSpec(walk_step=0.1))
        traces = []
        for _ in range(2):
            dut = make_dut(model=model, seed=1234)
            dut.configure(1, CFG, dut.adc)
            stim = RfStimulus(freq_hz=400e6, power_dbm=0.0, enabled=True)
            t1 = dut.capture(3, None)
            t2 = dut.capture(2, stim)
            traces.append(t1.samples.tobytes() + t2.samples.tobytes())
        assert traces[0] == traces[1]

    def test_unknown_path_rejected(self):
        dut = make_dut()
        with pytest.raises(ValueError, match="unknown path"):
            dut.configure(3, CFG, dut.adc)

    def test_capture_before_configure_is_error(self):
        dut = make_dut()
        with pytest.raises(RuntimeError, match="configure"):
            dut.capture(1, None)

    def test_channel_attenuation_scales_response(self):
        # 20 dB of shielding attenuation cuts the rectified shift 100x
        # (noise dithers the quantizer so the small shift stays unbiased)
        model = CouplingModel(resonances=(Resonance(500e6, 50e6, 500.0),), noise_sigma=2.0)
        shifts = []
        for att in (0.0, 20.0):
            dut = make_dut(
                model=model,
                adc=AdcConfig(samples_per_block=64),
                channel=RfChannel(g_tx_dbi=0.0, distance_m=1.0, attenuation_db=att),
                seed=13,
            )
            dut.configure(1, CFG, dut.adc)
            on = RfStimulus(freq_hz=500e6, power_dbm=20.0, enabled=True)
            trace = dut.capture(60, on)
            shifts.append(trace.samples[64:].mean() - 2048.0)
        assert shifts[0] / shifts[1] == pytest.approx(100.0, rel=0.08)

    def test_snr_slope_two_vs_power_dbm(self):
        # With the default exponent 1 the detector DC shift is linear in mW,
        # so SNR in dB rises ~2 dB per incident dBm. Monte Carlo regression.
        model = CouplingModel(
            resonances=(Resonance(500e6, 80e6, 600.0),), noise_sigma=3.0
        )
        adc = AdcConfig(samples_per_block=32)
        snrs = []
        powers = np.array([6.0, 8.0, 10.0, 12.0, 14.0])
        for p in powers:
            dut = make_dut(model=model, adc=adc, seed=77)
            dut.configure(1, CFG, adc)
            on = RfStimulus(freq_hz=500e6, power_dbm=p, enabled=True)
            off = RfStimulus(freq_hz=500e6, power_dbm=p, enabled=False)
            off_means = dut.capture(400, off).samples.reshape(-1, 32).mean(axis=1)
            on_means = dut.capture(400, on).samples.reshape(-1, 32).mean(axis=1)
            d = on_means[4:].mean() - off_means[4:].mean()
            v = off_means[4:].var(ddof=1)
            snrs.append(10 * np.log10(d * d / v))
        slope = np.polyfit(powers, snrs, 1)[0]
        assert slope == pytest.approx(2.0, abs=0.25)


class TestConfigureCapture:
    def test_capture_after_configure(self):
        model = CouplingModel(noise_sigma=1.0)
        dut = make_dut(model=model)
        assert not dut.configured
        dut.configure(1, CFG, dut.adc)
        stim = RfStimulus(freq_hz=300e6, power_dbm=0.0, enabled=False)
        trace = dut.capture(4, stim)
        assert dut.configured
        assert len(trace) == 4 * dut.adc.samples_per_block
        assert (trace.meta["path"], trace.meta["config"]) == (1, CFG)

    def test_capture_is_a_trace_of_capture_codes(self):
        model = CouplingModel(resonances=(Resonance(300e6, 30e6, 50.0),), noise_sigma=1.0)
        stim = RfStimulus(freq_hz=300e6, power_dbm=10.0, enabled=True)
        traced, bare = make_dut(model=model, seed=5), make_dut(model=model, seed=5)
        for dut in (traced, bare):
            dut.configure(1, CFG, dut.adc)
        for n_blocks in (2, 0, 3):
            trace = traced.capture(n_blocks, stim)
            codes = bare.capture_codes(n_blocks, stim)
            assert codes.dtype == np.int32
            assert trace.samples.tolist() == codes.tolist()
            assert trace.config == bare.adc
            assert traced._rng.bit_generator.state == bare._rng.bit_generator.state

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_adc_config_refuses_a_rate_that_is_not_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            AdcConfig(sample_rate_hz=rate)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_backend_refuses_a_rate_that_is_not_positive_and_finite(self, rate):
        backend = SimulatorBackend(make_dut(), SimulatedRfSource())
        backend.configure(ReceptionPathId(0), CFG, AdcConfig(samples_per_block=4))
        with pytest.raises(UnsupportedSettingError, match=f"unsupported sample rate {rate}"):
            backend.set_adc_rate(rate, 1)
        assert backend.adc.sample_rate_hz == 10_000.0


def reference_levels(model, channel, stimuli):
    """_stimulus_levels by the scalar chain, one stimulus at a time:
    coupling_gain, incident_dbm, dbm_to_mw, and detector_output of the one
    incident power."""
    levels, held = np.zeros(len(stimuli)), {}
    for j, stimulus in enumerate(stimuli):
        if stimulus is None or not stimulus.enabled:
            continue
        gain = coupling_gain(model, stimulus.freq_hz)
        if gain <= 0:
            continue
        inc_mw = dbm_to_mw(channel.incident_dbm(stimulus.power_dbm, stimulus.freq_hz))
        if stimulus.envelope is None:
            levels[j] = detector_output(np.array([inc_mw]), gain, model.nonlinearity_exponent)[0]
        else:
            held[j] = (stimulus.envelope, inc_mw, gain)
    return levels, held


_LEVEL_FREQS = (200e6, 433.92e6, 520e6, 860e6, 1e9)
_ENVELOPE = BasebandEnvelope(values=np.ones(8), sample_rate=10e3)


def level_stimulus(kind, freq_index, power_dbm):
    if kind == "none":
        return None
    return RfStimulus(
        freq_hz=_LEVEL_FREQS[freq_index], power_dbm=power_dbm, enabled=kind != "off",
        envelope=_ENVELOPE if kind == "envelope" else None,
    )


class TestStimulusLevels:
    """The levels of a stimulus schedule come from one detector_output call
    over the coupled constant carriers; they must equal the scalar chain bit
    for bit, and a replaced channel must take effect."""

    ROWS = st.lists(
        st.tuples(
            st.sampled_from(["none", "off", "on", "on", "envelope"]),
            st.integers(0, len(_LEVEL_FREQS) - 1),
            st.sampled_from([-30.0, 0.0, 20.0, 43.0]),
        ),
        min_size=1,
        max_size=12,
    )

    @example(  # zero gain: no resonance, so nothing couples
        resonances=[], exponent=1.0, channel=RfChannel(),
        rows=[("on", 0, 43.0), ("envelope", 1, 43.0), ("off", 2, 43.0), ("none", 0, 0.0)],
    )
    @example(  # a resonance of zero peak gain next to a coupling one, exponent 2
        resonances=[Resonance(860e6, 80e6, 0.0), Resonance(520e6, 90e6, 0.134)], exponent=2.0,
        channel=RfChannel(distance_m=3.0, attenuation_db=12.0),
        rows=[("on", 3, 43.0), ("on", 2, 43.0), ("envelope", 2, 20.0), ("on", 2, 43.0)],
    )
    @example(  # every kind of row at a square-root detector
        resonances=[Resonance(860e6, 80e6, 65.0)], exponent=0.5, channel=RfChannel(g_tx_dbi=6.5),
        rows=[
            ("none", 0, 0.0), ("off", 3, 43.0), ("on", 3, 43.0), ("envelope", 3, 43.0),
            ("on", 4, -30.0),
        ],
    )
    @given(
        resonances=st.lists(
            st.builds(
                Resonance,
                center_hz=st.floats(150e6, 1.1e9),
                bandwidth_hz=st.floats(1e6, 300e6),
                peak_gain=st.just(0.0) | st.floats(0.0, 100.0),
            ),
            max_size=3,
        ),
        exponent=st.just(1.0) | st.sampled_from([0.5, 2.0]) | st.floats(0.25, 3.0),
        channel=st.builds(
            RfChannel,
            g_tx_dbi=st.floats(-5.0, 10.0),
            g_rx_dbi=st.floats(-5.0, 5.0),
            distance_m=st.floats(0.1, 100.0),
            attenuation_db=st.floats(0.0, 40.0),
        ),
        rows=ROWS,
    )
    def test_equals_the_scalar_chain_bit_for_bit(self, resonances, exponent, channel, rows):
        model = CouplingModel(resonances=tuple(resonances), nonlinearity_exponent=exponent)
        dut = make_dut(model=model, channel=channel)
        dut.configure(1, CFG, dut.adc)
        stimuli = tuple(level_stimulus(*row) for row in rows)
        want_levels, want_held = reference_levels(model, channel, stimuli)
        levels, held = dut._stimulus_levels(stimuli)
        assert levels.tobytes() == want_levels.tobytes()
        assert held.keys() == want_held.keys()
        for j, (envelope, inc_mw, gain) in held.items():
            assert envelope is want_held[j][0]
            assert (inc_mw, gain) == want_held[j][1:]
        for j, stimulus in enumerate(stimuli):  # one row at a time
            levels, held = dut._stimulus_levels((stimulus,))
            assert levels.tobytes() == want_levels[j : j + 1].tobytes()
            assert held.keys() == ({0} if j in want_held else set())

    def test_a_replaced_channel_takes_effect_at_the_next_configure(self):
        # The first capture couples (500 MHz, 43 dBm) through its channel.
        # After the channel is replaced, the codes must be those of a device
        # that had the new channel all along: the first captures draw alike
        # and configure resets the analog state.
        strong = CouplingModel(resonances=(Resonance(500e6, 80e6, 40.0),), noise_sigma=1.0)
        stimulus = RfStimulus(freq_hz=500e6, power_dbm=43.0, enabled=True)
        weak = RfChannel(g_tx_dbi=0.0, attenuation_db=30.0)
        codes = []
        for first in (RfChannel(g_tx_dbi=0.0), weak):
            dut = SimulatedDut(
                n_paths=2, adc=AdcConfig(), channel=first, coupling={(1, None): strong}, seed=5
            )
            dut.configure(1, CFG, dut.adc)
            dut.capture(2, stimulus)
            dut.channel = weak
            dut.configure(1, CFG, dut.adc)
            codes.append(dut.capture(4, stimulus).samples)
        assert codes[0].tobytes() == codes[1].tobytes()
        assert codes[0][-32:].mean() < 2048.0 + 10.0  # 30 dB down from about 1,800


def held_reference(values, first, n_raw, p, q):
    """Envelope sample (first + i) * p // q for i < n_raw, or 0 past the
    envelope's end, by Python integers."""
    return np.array([
        values[j] if j < len(values) else 0.0
        for j in ((first + i) * p // q for i in range(n_raw))
    ])


HOLD_RATIONALS = ((3, 2), (2, 3), (5, 4), (4, 7))


@st.composite
def hold_rates(draw):
    """An ADC and an envelope rate of one of five kinds: the raw rate;
    the output rate, so raw = k * envelope for the drawn oversampling
    ratio k; k times the raw rate; a small rational multiple of it; the
    next float above it, whose reduced ratio to it overflows int64 at
    about a thousand raw samples."""
    adc = AdcConfig(
        sample_rate_hz=draw(st.sampled_from([1e3, 10e3, 16e3, 400e3])),
        oversampling_ratio=draw(st.sampled_from(ALLOWED_OVERSAMPLING)),
        samples_per_block=draw(st.integers(1, 4)),
    )
    raw = adc.raw_rate_hz
    kind = draw(st.sampled_from(["equal", "raw_multiple", "env_multiple", "rational", "float"]))
    if kind == "equal":
        return adc, raw
    if kind == "raw_multiple":
        return adc, adc.sample_rate_hz
    if kind == "env_multiple":
        return adc, raw * draw(st.integers(2, 7))
    if kind == "rational":
        a, b = draw(st.sampled_from(HOLD_RATIONALS))
        return adc, raw * a / b
    return adc, math.nextafter(raw, math.inf)


class TestEnvelopeHold:
    """The zero-order hold of a transmit envelope is exact: raw sample i
    holds envelope sample i * p // q, p/q the envelope rate over the raw
    rate, or 0 past the envelope's end."""

    MODEL = CouplingModel(resonances=(Resonance(500e6, 80e6, 40.0),))

    def check(self, adc, env_rate, n_blocks, prefix_blocks, coverage, layout):
        """Capture prefix_blocks RF-off blocks, then compare each held
        state's row of one pass over ``layout`` with the reference."""
        dut = make_dut(model=self.MODEL, adc=adc)
        dut.configure(1, CFG, adc)
        dut.capture(prefix_blocks, None)  # the pass starts at a nonzero raw sample
        first = dut._state.sample_index
        n_raw = n_blocks * adc.samples_per_block * adc.oversampling_ratio
        ratio = Fraction(env_rate) / Fraction(adc.raw_rate_hz)
        p, q = ratio.numerator, ratio.denominator
        # coverage < 1: the envelope ends inside the pass or before it starts
        spanned = -(-(first + len(layout) * n_raw) * p // q)
        values = np.arange(1.0, int(coverage * spanned) + 1)  # distinct: a wrong index shows
        envelope = BasebandEnvelope(values=values, sample_rate=env_rate)
        stimuli = [
            None if kind == "off"
            else RfStimulus(
                freq_hz=500e6, power_dbm=10.0, enabled=True,
                envelope=envelope if kind == "held" else None,
            )
            for kind in layout
        ]
        levels = dut._stimulus_levels(tuple(stimuli))
        rows = np.arange(len(layout))
        offset = dut._coupled_offset(levels, rows, n_raw).reshape(len(layout), n_raw)
        inc_mw = dbm_to_mw(dut.channel.incident_dbm(10.0, 500e6))
        gain = coupling_gain(self.MODEL, 500e6)
        for k, kind in enumerate(layout):
            if kind == "held":
                m = held_reference(values, first + k * n_raw, n_raw, p, q)
                want = detector_output(inc_mw * m * m, gain, self.MODEL.nonlinearity_exponent)
                np.testing.assert_array_equal(offset[k], want)
        return first, n_raw, p

    @given(
        rates=hold_rates(),
        n_blocks=st.integers(1, 2),
        prefix_blocks=st.integers(0, 3),
        coverage=st.sampled_from([0.0, 0.3, 0.7, 1.0, 1.5]),
        layout=st.lists(
            st.sampled_from(["held", "held", "constant", "off"]), min_size=1, max_size=3
        ),
    )
    def test_equals_the_python_integer_reference(
        self, rates, n_blocks, prefix_blocks, coverage, layout
    ):
        self.check(*rates, n_blocks, prefix_blocks, coverage, layout)

    def test_a_ratio_past_int64_holds_exactly(self):
        adc = AdcConfig(sample_rate_hz=16e3, oversampling_ratio=16, samples_per_block=4)
        first, n_raw, p = self.check(
            adc, math.nextafter(adc.raw_rate_hz, math.inf), 2, 20, 1.0, ["held", "held"]
        )
        assert (first + n_raw) * p > np.iinfo(np.int64).max

    def test_link_3m_raw_sample_i_holds_envelope_sample_i(self):
        """All 201,040 raw samples of a link_3m payload; a hold by float time
        (floor(i / raw rate * envelope rate)) took sample i - 1 at 1,482."""
        scn = load_scenario(bundled_scenario_path("link_3m"))
        tx = scn.transmission
        backend, _ = build_rig(scn)
        backend.configure(
            ReceptionPathId(tx.path, f"P{tx.path}"), enumerate_configs()[tx.config_index], scn.adc
        )
        sps = int(scn.adc.sample_rate_hz / tx.bit_rate_hz)
        bits = generate_bits(12_565, scn.seed)
        rate = modulate_ook(bits, sps, 1.0, symbol_rate_hz=tx.bit_rate_hz).sample_rate
        n_raw = len(bits) * sps
        assert n_raw == 201_040
        values = np.arange(1.0, n_raw + 1)  # distinct: a wrong index shows
        stimulus = RfStimulus(
            freq_hz=tx.freq_hz, power_dbm=tx.power_dbm, enabled=True,
            envelope=BasebandEnvelope(values=values, sample_rate=rate),
        )
        dut = backend.dut
        offset = dut._coupled_offset(dut._stimulus_levels((stimulus,)), np.zeros(1, np.intp), n_raw)
        inc_mw = dbm_to_mw(dut.channel.incident_dbm(tx.power_dbm, tx.freq_hz))
        gain = coupling_gain(dut._model, tx.freq_hz)
        want = detector_output(inc_mw * values * values, gain, dut._model.nonlinearity_exponent)
        assert np.count_nonzero(offset != want) == 0
