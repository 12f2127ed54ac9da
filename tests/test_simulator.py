"""Device physics: coupling, rectification, bandwidth, impairments, ADC."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import lfilter

from adcradio.backend import RfStimulus
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


class TestAddImpairments:
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
        batched, reference = replace(start), replace(start)
        batched_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        out = _impair(values, model, batched_rng, batched, 10_000.0, states)
        expected = [
            _impair(part, model, reference_rng, reference, 10_000.0)
            for part in values.reshape(states, n)
        ]

        assert out.tobytes() == np.concatenate(expected).tobytes()
        assert out is not values
        assert batched == reference  # sample_index, walk_value and burst_left
        assert batched_rng.bit_generator.state == reference_rng.bit_generator.state


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
