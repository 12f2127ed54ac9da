"""DC removal, scaling, timing recovery, slicing, BER accounting, eye metric."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adcradio import receiver
from adcradio.backend import (
    NotConfiguredError,
    ReceptionPathId,
    SimulatedRfSource,
    SimulatorBackend,
)
from adcradio.receiver import (
    DemodParams,
    _timing_energies,
    ber,
    demodulate,
    eye_opening,
    ideal_sync_ber_experiment,
    moving_average,
    normalize,
    recover_timing,
    remove_dc,
    slice_bits,
)
from adcradio.signals import BitSequence, generate_bits, modulate_ook
from adcradio.simulator import (
    AdcConfig,
    CouplingModel,
    Resonance,
    RfChannel,
    SimulatedDut,
    _lowpass,
    _lowpass_alpha,
)
from adcradio.sweep import enumerate_configs


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2))


class TestRemoveDc:
    def test_constant_input_all_zeros(self):
        out = remove_dc(np.full(100, 3.7), 15)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_linear_ramp_residual(self):
        r, window = 0.01, 21
        x = r * np.arange(500)
        out = remove_dc(x, window)
        interior = out[window : -window]
        np.testing.assert_allclose(interior, 0.0, atol=1e-9)
        assert np.max(np.abs(out)) <= r * window / 2 + 1e-9

    def test_fast_square_wave_preserved(self):
        x = np.tile(np.repeat([1.0, -1.0], 4), 200)
        out = remove_dc(x, 101)
        interior = slice(101, -101)
        assert np.max(np.abs(out[interior] - x[interior])) < 0.1

    def test_window_validation(self):
        with pytest.raises(ValueError):
            remove_dc(np.zeros(10), 11)
        with pytest.raises(ValueError):
            remove_dc(np.zeros(10), 4)


class TestNormalize:
    def test_gain_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 2, 1000)
        np.testing.assert_allclose(normalize(x), normalize(7.0 * x), atol=1e-12)

    def test_square_wave_spread(self):
        x = np.tile([3.0, -3.0], 500)
        out = normalize(x)
        np.testing.assert_allclose(np.unique(out), [-0.5, 0.5])

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            normalize(np.full(50, 1.0))


def reference_moving_average(samples, window):
    """The centered moving average as first written: one index pair per sample."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    half = window // 2
    cs = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(n)
    lo = np.maximum(0, idx - half)
    hi = np.minimum(n, idx + half + 1)
    return (cs[hi] - cs[lo]) / (hi - lo)


def reference_spread(samples):
    """The P90-P10 spread as first written: one percentile call each."""
    x = np.asarray(samples, dtype=np.float64)
    return float(np.percentile(x, 90) - np.percentile(x, 10))


def _signal(seed, n, kind):
    """A long input drawn from numpy: ADC codes, wide floats, or a noisy step."""
    rng = np.random.default_rng(seed)
    if kind == "codes":
        return rng.integers(0, 4096, n, dtype=np.int32)
    if kind == "floats":
        return rng.uniform(-1e9, 1e9, n)
    return np.repeat(rng.normal(0.0, 50.0, 8), -(-n // 8))[:n] + rng.normal(0.0, 1.0, n)


@st.composite
def front_end_cases(draw):
    """An input (int32 codes or float64, odd or even length) and an odd
    window up to its length: 1, the largest, or any between."""
    x = draw(
        arrays(np.int32, st.integers(1, 40), elements=st.integers(-(2**31), 2**31 - 1))
        | arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e9, 1e9))
        | st.builds(
            _signal,
            st.integers(0, 2**32 - 1),
            st.integers(1, 6000),
            st.sampled_from(["codes", "floats", "step"]),
        )
    )
    largest = x.size if x.size % 2 else x.size - 1
    window = draw(
        st.sampled_from([1, largest]) | st.integers(0, largest // 2).map(lambda k: 2 * k + 1)
    )
    return x, window


class TestFrontEndReference:
    """moving_average, remove_dc and normalize equal the formulas they
    replace bit for bit, and leave their input untouched."""

    @example(case=(np.array([5, -3, 7], dtype=np.int32), 3))  # window == n
    @example(case=(np.array([1.5, -2.0, 4.0, 0.25]), 1))  # window 1, even length
    @example(case=(np.arange(10, dtype=np.int32), 9))  # even length, widest window
    @example(case=(np.array([2.0]), 1))
    @given(case=front_end_cases())
    def test_equals_the_reference_formulas(self, case):
        x, window = case
        given_x = x.copy()
        average = reference_moving_average(x, window)
        assert moving_average(x, window).tobytes() == average.tobytes()
        centered = np.asarray(x, dtype=np.float64) - average
        assert remove_dc(x, window).tobytes() == centered.tobytes()
        for signal in (x, centered):
            spread = reference_spread(signal)
            if spread == 0.0:
                with pytest.raises(ValueError, match="zero spread"):
                    normalize(signal)
            else:
                expected = np.asarray(signal, dtype=np.float64) / spread
                assert normalize(signal).tobytes() == expected.tobytes()
        assert x.tobytes() == given_x.tobytes()


def central_spans(n, phase, sps):
    """The slicer's spans by the rint formula: [lo, hi) is the central half
    of each full symbol between rounded boundaries, a quarter (rounded
    down) trimmed from each end."""
    ks = np.arange(0, int(n / sps) + 2)
    b = np.rint((ks + phase) * sps).astype(np.int64)
    b = b[(b >= 0) & (b <= n)].tolist()
    return [(lo + (hi - lo) // 4, hi - (hi - lo) // 4) for lo, hi in zip(b, b[1:])]


class TestSymbolMeans:
    """Each symbol mean is its central span's sum, in any order of
    addition, over the span's length k, and slice_bits decides its sign.

    Any order of k additions lies within (k - 1) * eps * sum|x| of math.fsum
    of the span (correctly rounded), and the division rounds monotonically,
    so each mean lies between the rounded quotients of fsum minus and plus
    that bound over k. The decision follows fsum's sign wherever |fsum|
    exceeds the bound, unless that quotient underflows to 0."""

    @example(x=np.array([-0.0, 1.5, -2.0, 0.25, 3.0, -1.0, 2.0, 1.0]), phase=0.0, sps=2)
    @example(x=np.array([1.0, -4.0, 2.5, 3.0, -0.5, -1.0, 7.0, -7.0, 0.5]), phase=0.0, sps=3)
    @example(x=np.array([1.0, -2.0, 3.0]), phase=0.25, sps=5)  # shorter than one symbol
    @example(x=np.array([5e-324, 0.0, 0.0, -0.0]), phase=0.0, sps=2)  # the quotient underflows
    @given(
        x=arrays(np.float64, st.integers(1, 200), elements=st.floats(-1e6, 1e6) | st.just(-0.0)),
        phase=st.floats(0.0, 1.0, exclude_max=True),
        sps=st.integers(2, 20),
    )
    def test_means_and_decisions_agree_with_fsum_of_each_span(self, x, phase, sps):
        given_x = x.copy()
        means = receiver._symbol_central_means(x, phase, sps).tolist()
        bits = slice_bits(x, phase, sps).bits.tolist()
        spans = central_spans(x.size, phase, sps)
        assert len(means) == len(bits) == len(spans)
        eps = Fraction(np.finfo(np.float64).eps)
        for mean, bit, (lo, hi) in zip(means, bits, spans):
            span = x[lo:hi].tolist()
            k = hi - lo
            total = Fraction(math.fsum(span))
            bound = (k - 1) * eps * sum(Fraction(abs(v)) for v in span)
            assert float((total - bound) / k) <= mean <= float((total + bound) / k)
            if abs(total) > bound and float((abs(total) - bound) / k) != 0.0:
                assert bit == (total > 0)
        assert x.tobytes() == given_x.tobytes()

    def test_all_negative_zero_symbols_decide_0(self):
        x = np.full(12, -0.0)
        assert receiver._symbol_central_means(x, 0.0, 3).tolist() == [0.0] * 4
        assert slice_bits(x, 0.0, 3).bits.tolist() == [0] * 4

    def test_slice_bits_peaks_below_one_copy_of_its_input(self):
        # One symbol sum each, no full-length running sum: a 201,040-sample
        # payload at 16 samples per symbol stays below its own 1.6 MB.
        rng = np.random.default_rng(5)
        x = np.repeat(rng.choice([-1.0, 1.0], 12_565), 16) + rng.normal(0.0, 0.3, 201_040)
        tracemalloc.start()
        try:
            slice_bits(x, 0.3, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes


class TestRemoveDcOnCodes:
    """remove_dc and moving_average read int32 codes without a float64 copy,
    and give the bytes of their float64 copy."""

    @example(case=(np.array([0, 4095, 7, 4095, 0], dtype=np.int32), 3))
    @given(case=front_end_cases().filter(lambda case: case[0].dtype == np.int32))
    def test_remove_dc_on_codes_equals_remove_dc_on_their_float64_copy(self, case):
        codes, window = case
        given_codes = codes.copy()
        floats = codes.astype(np.float64)
        assert remove_dc(codes, window).tobytes() == remove_dc(floats, window).tobytes()
        assert moving_average(codes, window).tobytes() == moving_average(floats, window).tobytes()
        assert codes.tobytes() == given_codes.tobytes()


class TestRecoverTiming:
    def test_quarter_symbol_offset(self):
        bits = generate_bits(200, seed=3)
        env = modulate_ook(bits, 16, 1.0).values
        shifted = np.concatenate([np.zeros(4), env])  # 0.25 symbol delay
        centered = normalize(remove_dc(shifted, 239))
        phase = recover_timing(centered, 16)
        assert abs(phase - 0.25) <= 1 / 16

    def test_zero_offset(self):
        bits = generate_bits(200, seed=4)
        env = modulate_ook(bits, 16, 1.0).values
        centered = normalize(remove_dc(env, 239))
        assert recover_timing(centered, 16) == pytest.approx(0.0, abs=1 / 16)

    def test_too_few_transitions(self):
        x = np.zeros(400)
        with pytest.raises(ValueError, match="transitions"):
            recover_timing(x, 16)

    def test_needs_two_samples_per_symbol(self):
        x = np.tile([1.0, -1.0], 100)
        for sps in (1, 0, -3):
            with pytest.raises(ValueError, match="samples_per_symbol must be >= 2"):
                recover_timing(x, sps)

    def test_needs_two_symbols(self):
        x = np.tile([1.0, -1.0], 16)
        with pytest.raises(ValueError, match="need at least two symbols"):
            recover_timing(x[:31], 16)
        assert 0.0 <= recover_timing(x, 16) < 1.0


def reference_recover_timing(samples, samples_per_symbol):
    """recover_timing as first written, returning (phase, energies): every
    grid phase rounds, masks and gathers its own boundary indices."""
    x = np.asarray(samples, dtype=np.float64)
    sps = int(samples_per_symbol)
    n = x.size
    if n < 2 * sps:
        raise ValueError("need at least two symbols to recover timing")
    crossings = int(np.count_nonzero(np.diff(x > 0)))
    if crossings < 10:
        raise ValueError(
            f"too few transitions to recover timing ({crossings} zero crossings)"
        )
    ks = np.arange(0, int(n / sps) + 2)
    phases = np.arange(16) / 16
    best_phase = 0.0
    best_energy = -1.0
    energies = []
    for phase in phases:
        b = np.rint((ks + phase) * sps).astype(np.int64)
        b = b[(b >= 1) & (b <= n - 1)]
        energy = float(np.abs(x[b] - x[b - 1]).sum())
        energies.append(energy)
        if energy > best_energy:
            best_energy = energy
            best_phase = float(phase)
    return best_phase, energies


def _timing_signal(seed, sps, n, kind):
    """n samples at sps: small integers (exact ties between phases), a
    delayed integer OOK square wave with integer noise, or float noise."""
    rng = np.random.default_rng(seed)
    if kind == "integers":
        return rng.integers(-2, 3, n).astype(np.float64)
    if kind == "square":
        levels = np.repeat(rng.choice([-3.0, 3.0], n // sps + 2), sps)
        delay = int(rng.integers(0, sps))
        return levels[delay : delay + n] + rng.integers(-1, 2, n)
    return rng.normal(0.0, 1.0, n)


@st.composite
def timing_cases(draw):
    """sps from 2 to 64, weighted toward the rounding ties (odd sps, and
    sps % 8 == 4), with a length that need not be a multiple of sps."""
    sps = draw(
        st.integers(2, 64)
        | st.integers(0, 7).map(lambda k: 8 * k + 4)
        | st.integers(1, 31).map(lambda k: 2 * k + 1)
    )
    n = draw(st.integers(2 * sps, 40 * sps + sps - 1))
    kind = draw(st.sampled_from(["integers", "square", "floats"]))
    return _timing_signal(draw(st.integers(0, 2**32 - 1)), sps, n, kind), sps


class TestTimingReference:
    """recover_timing's exact integer boundaries give the phase and every
    energy of the float-rounding formula it replaces, bit for bit."""

    @example(case=(np.tile([2.0, -2.0, -2.0], 40), 3))  # odd sps, phase 1/2 alternates
    @example(case=(np.tile([1.0, 1.0, -1.0, -1.0], 30)[:-1], 4))  # even sps tie, ragged
    @example(case=(np.tile([1.0, -1.0], 61), 2))
    @example(case=(_timing_signal(7, 12, 12 * 30 + 5, "square"), 12))
    @given(case=timing_cases())
    def test_equals_the_reference_formula(self, case):
        x, sps = case
        given_x = x.copy()
        try:
            phase, energies = reference_recover_timing(x, sps)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                recover_timing(x, sps)
            return
        assert np.array(_timing_energies(x, sps)).tobytes() == np.array(energies).tobytes()
        assert recover_timing(x, sps) == phase
        assert x.tobytes() == given_x.tobytes()


@st.composite
def ook_cases(draw):
    """A noisy OOK capture at sps with an offset, a delay and a ragged end,
    and the demodulator settings to decode it."""
    sps = draw(st.integers(2, 40))
    bits = generate_bits(draw(st.integers(20, 400)), draw(st.integers(0, 2**32 - 1)))
    amplitude = draw(st.floats(0.01, 1000.0))
    offset = draw(st.floats(-5000.0, 5000.0))
    sigma = amplitude * draw(st.floats(0.01, 0.6))
    delay = draw(st.integers(0, sps - 1))
    trim = draw(st.integers(0, sps - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = np.concatenate([np.zeros(delay), modulate_ook(bits, sps, amplitude).values])
    x = env[: env.size - trim] + offset + rng.normal(0.0, sigma, env.size - trim)
    window = draw(st.integers(1, 20).map(lambda k: 2 * k + 1))
    return x, DemodParams(samples_per_symbol=sps, dc_window_symbols=window)


class TestDecodeEquivalence:
    """demodulate on the DC-removed signal decodes the bits, at the phase,
    of the path that scaled by the P90-P10 spread first."""

    @given(case=ook_cases())
    def test_equals_the_normalized_path(self, case):
        x, params = case
        sps = params.samples_per_symbol
        window = min(params.dc_window_symbols * sps, x.size)
        if window % 2 == 0:
            window -= 1
        centered = remove_dc(x, window)
        try:
            phase, _ = reference_recover_timing(normalize(centered), sps)
        except ValueError:
            with pytest.raises(ValueError):
                demodulate(x, params)
            return
        assert recover_timing(centered, sps) == phase
        expected = slice_bits(normalize(centered), phase, sps)
        assert demodulate(x, params).bits.tobytes() == expected.bits.tobytes()


class TestSliceBits:
    def test_noiseless_exact_recovery(self):
        bits = generate_bits(500, seed=5)
        env = modulate_ook(bits, 8, 1.0).values
        centered = env - 0.5
        out = slice_bits(centered, 0.0, 8)
        np.testing.assert_array_equal(out.bits, bits.bits)

    def test_awgn_matches_q_function(self):
        # per-symbol averaged amplitude / sigma = 6 -> BER ~ Q(3), within 3x
        rng = np.random.default_rng(99)
        n, sps = 100_000, 8
        bits = rng.integers(0, 2, n)
        clean = np.repeat(bits - 0.5, sps)
        sigma_sym = 1.0 / 6.0
        sigma_sample = sigma_sym * math.sqrt(sps / 2)
        noisy = clean + rng.normal(0, sigma_sample, n * sps)
        decoded = slice_bits(noisy, 0.0, sps)
        measured = np.mean(decoded.bits != bits)
        oracle = q_function(3.0)
        assert oracle / 3 < measured < oracle * 3

    def test_all_zero_envelope_decodes_zeros(self):
        out = slice_bits(np.zeros(160), 0.0, 16)
        assert len(out) == 10
        assert not out.bits.any()

    def test_shorter_than_one_symbol_gives_no_bits(self):
        for n in (0, 1, 15):
            for phase in (0.0, 0.5):
                assert len(slice_bits(np.ones(n), phase, 16)) == 0
        assert slice_bits(np.ones(16), 0.0, 16).bits.tolist() == [1]


class TestDemodulate:
    @pytest.mark.parametrize("sps", [2, 3, 5, 8, 16, 20, 33])
    @pytest.mark.parametrize("amplitude", [0.2, 1.0, 140.0])
    def test_noiseless_round_trip(self, sps, amplitude):
        bits = generate_bits(300, seed=sps)
        env = modulate_ook(bits, sps, amplitude)
        params = DemodParams(samples_per_symbol=sps, dc_window_symbols=41)
        out = demodulate(env.values, params)
        np.testing.assert_array_equal(out.bits[: len(bits)], bits.bits)

    def test_gain_and_offset_invariance(self):
        bits = generate_bits(400, seed=8)
        rng = np.random.default_rng(8)
        x = modulate_ook(bits, 10, 1.0).values + rng.normal(0, 0.1, 4000)
        params = DemodParams(samples_per_symbol=10)
        base = demodulate(x, params)
        for a, b in ((3.0, 100.0), (0.05, -40.0), (1200.0, 0.0)):
            again = demodulate(a * x + b, params)
            np.testing.assert_array_equal(base.bits, again.bits)

    def test_empty_input(self):
        out = demodulate(np.empty(0), DemodParams(samples_per_symbol=4))
        assert len(out) == 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DemodParams(samples_per_symbol=1)
        with pytest.raises(ValueError):
            DemodParams(samples_per_symbol=4, dc_window_symbols=4)


class TestBer:
    def test_identical(self):
        bits = generate_bits(100, seed=1)
        report = ber(bits, bits)
        assert report.error_count == 0
        assert report.ber == 0.0
        assert report.error_positions == ()
        assert report.burst_runs == ()

    def test_complement(self):
        bits = generate_bits(64, seed=2)
        flipped = BitSequence(bits=1 - bits.bits)
        report = ber(flipped, bits)
        assert report.ber == 1.0
        assert report.burst_runs == ((0, 64),)

    def test_error_accounting_large_payload(self):
        # 781 errors out of 12,565 -> BER ~ 6.216%
        reference = generate_bits(12565, seed=3)
        decoded = reference.bits.copy()
        flip = np.random.default_rng(0).choice(12565, size=781, replace=False)
        decoded[flip] ^= 1
        report = ber(BitSequence(bits=decoded), reference)
        assert report.error_count == 781
        assert report.ber == pytest.approx(0.062157, abs=1e-5)

    def test_burst_runs(self):
        reference = BitSequence(bits=np.zeros(12, np.uint8))
        decoded = BitSequence(bits=np.array([0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0], np.uint8))
        report = ber(decoded, reference)
        assert report.burst_runs == ((1, 3), (6, 1), (8, 2))
        assert report.errors_in_runs_of_at_least(2) == 5

    def test_symmetry(self):
        a = generate_bits(500, seed=4)
        b = generate_bits(500, seed=5)
        assert ber(a, b).error_count == ber(b, a).error_count

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ber(generate_bits(3, 0), generate_bits(4, 0))

    @given(
        pair=st.integers(0, 300).flatmap(
            lambda n: st.tuples(*[arrays(np.uint8, n, elements=st.integers(0, 1))] * 2)
        )
    )
    @example(pair=(np.zeros(0, np.uint8), np.zeros(0, np.uint8)))
    @example(pair=(np.ones(9, np.uint8), np.zeros(9, np.uint8)))
    def test_positions_and_runs_equal_the_per_element_formula(self, pair):
        """The tuples are those of int() per element, and every entry is a
        Python int."""
        decoded, reference = pair
        positions = np.flatnonzero(decoded != reference)
        runs = []
        if positions.size:
            breaks = np.flatnonzero(np.diff(positions) > 1)
            starts = np.concatenate(([0], breaks + 1))
            ends = np.concatenate((breaks, [positions.size - 1]))
            runs = [
                (int(positions[s]), int(positions[e] - positions[s] + 1))
                for s, e in zip(starts, ends)
            ]
        report = ber(BitSequence(bits=decoded), BitSequence(bits=reference))
        assert report.error_positions == tuple(int(p) for p in positions)
        assert report.burst_runs == tuple(runs)
        values = [*report.error_positions, *(v for run in report.burst_runs for v in run)]
        assert all(type(v) is int for v in values)


class TestEyeOpening:
    def test_noiseless_full_swing(self):
        # alternating pattern: DC estimate is flat, so the percentile
        # arithmetic gives the full normalized swing
        bits = BitSequence(bits=np.tile([1, 0], 150).astype(np.uint8))
        env = modulate_ook(bits, 16, 1.0).values
        eye = eye_opening(env, 16, 0.0, dc_window_symbols=41)
        assert eye == pytest.approx(1.0, abs=0.1)

    def test_rate_far_beyond_bandwidth_closes_eye(self):
        bits = generate_bits(400, seed=10)
        env = modulate_ook(bits, 4, 1.0).values
        smeared = _lowpass(env, _lowpass_alpha(200.0, 400_000.0), 0.0)[0]
        rng = np.random.default_rng(10)
        eye = eye_opening(smeared + rng.normal(0, 1e-3, smeared.size), 4, 0.0)
        assert eye < 0.1

    def test_needs_both_bit_values(self):
        # spiky per-symbol shape: nonzero spread, but every central mean > 0
        x = np.tile([-1.0, 3.0, 3.0, -1.0], 50)
        with pytest.raises(ValueError, match="both bit values"):
            eye_opening(x, 4, 0.0)

    def test_needs_twenty_symbols(self):
        with pytest.raises(ValueError, match="20 symbols"):
            eye_opening(np.tile([1.0, 0.0], 40), 16, 0.0)


def ideal_sync_rig(seed=0, noise_sigma=6.0, gain=600.0):
    adc = AdcConfig(sample_rate_hz=10_000.0, samples_per_block=127)
    model = CouplingModel(
        resonances=(Resonance(500e6, 60e6, gain),),
        baseband_bandwidth_hz=50_000.0,
        noise_sigma=noise_sigma,
    )
    dut = SimulatedDut(
        n_paths=2,
        adc=adc,
        channel=RfChannel(g_tx_dbi=0.0, distance_m=1.0),
        coupling={(0, None): model},
        default_model=CouplingModel(noise_sigma=noise_sigma),
        seed=seed,
    )
    source = SimulatedRfSource()
    return SimulatorBackend(dut, source), source, adc


class TestBerMonotonicity:
    def test_ber_non_increasing_with_incident_power(self):
        # 1e5 bits per point, 6-point power grid, 2-sigma binomial slack
        n_bits, sps = 100_000, 4
        adc = AdcConfig(sample_rate_hz=400_000.0, samples_per_block=64)
        model = CouplingModel(
            resonances=(Resonance(860e6, 80e6, 3.0),),
            baseband_bandwidth_hz=100_000.0,
            noise_sigma=5.0,
        )
        bits = generate_bits(n_bits, seed=60)
        env = modulate_ook(bits, sps, 1.0, symbol_rate_hz=100_000.0)
        bers = []
        for i, power in enumerate((18.0, 20.0, 22.0, 24.0, 26.0, 28.0)):
            dut = SimulatedDut(
                n_paths=1, adc=adc, channel=RfChannel(g_tx_dbi=6.5, distance_m=1.0),
                coupling={(0, None): model}, seed=61 + i,
            )
            source = SimulatedRfSource()
            backend = SimulatorBackend(dut, source)
            backend.configure(ReceptionPathId(0), enumerate_configs()[0], adc)
            from adcradio.backend import RfStimulus

            source.rf_set(
                RfStimulus(freq_hz=868e6, power_dbm=power, enabled=True, envelope=env)
            )
            # one spare block so a nonzero recovered phase still yields n_bits
            trace = backend.capture(-(-n_bits * sps // 64) + 1)
            decoded = demodulate(trace, DemodParams(samples_per_symbol=sps))
            report = ber(BitSequence(bits=decoded.bits[:n_bits]), bits)
            bers.append(report.ber)
        assert bers[0] > 0.01  # grid actually spans the waterfall region
        for lo, hi in zip(bers[1:], bers[:-1]):
            slack = 2 * math.sqrt(max(hi, 1e-9) * (1 - hi) * 2 / n_bits)
            assert lo <= hi + slack, (bers,)


class TestIdealSyncExperiment:
    def test_zero_bits_rejected_before_configuring(self):
        backend, source, adc = ideal_sync_rig(seed=20)
        with pytest.raises(ValueError, match="n_bits must be >= 1"):
            ideal_sync_ber_experiment(
                backend, source, ReceptionPathId(0), enumerate_configs()[0], adc,
                freq_hz=500e6, power_dbm=14.0, n_bits=0,
            )
        with pytest.raises(NotConfiguredError):
            backend.capture(1)

    def test_high_snr_low_ber(self):
        backend, source, adc = ideal_sync_rig(seed=21)
        report = ideal_sync_ber_experiment(
            backend,
            source,
            ReceptionPathId(0),
            enumerate_configs()[0],
            adc,
            freq_hz=500e6,
            power_dbm=14.0,
            n_bits=10_000,
            seed=21,
        )
        assert report.total_bits == 10_000
        assert report.ber < 1e-3

    def test_zero_coupling_is_coin_flip(self):
        backend, source, adc = ideal_sync_rig(seed=22)
        report = ideal_sync_ber_experiment(
            backend,
            source,
            ReceptionPathId(1),  # no coupling entry -> default, zero resonances
            enumerate_configs()[0],
            adc,
            freq_hz=500e6,
            power_dbm=14.0,
            n_bits=10_000,
            seed=22,
        )
        assert report.ber == pytest.approx(0.5, abs=0.02)

    def test_matches_q_oracle_within_factor_three(self):
        # calibrate d and sigma_block with steady captures, then compare
        backend, source, adc = ideal_sync_rig(seed=23)
        path, cfg = ReceptionPathId(0), enumerate_configs()[0]
        power = 2.0  # ~ -24 dBm incident at 500 MHz: oracle near BER ~ 2e-2
        from adcradio.backend import RfStimulus
        from adcradio.sweep import block_mean

        backend.configure(path, cfg, adc)
        source.rf_set(RfStimulus(freq_hz=500e6, power_dbm=power, enabled=False))
        off = block_mean(backend.capture(2000), 127)
        source.rf_set(RfStimulus(freq_hz=500e6, power_dbm=power, enabled=True))
        on = block_mean(backend.capture(2000), 127)
        d = on[1:].mean() - off[1:].mean()
        sigma_block = off[1:].std(ddof=1)
        oracle = q_function(d / (2 * sigma_block))

        backend2, source2, _ = ideal_sync_rig(seed=24)
        report = ideal_sync_ber_experiment(
            backend2, source2, path, cfg, adc,
            freq_hz=500e6, power_dbm=power, n_bits=10_000, seed=24,
        )
        assert oracle / 3 < report.ber < oracle * 3
