"""Parametric physics model of a radio-less embedded device.

Each reception path (optionally per GPIO configuration) is described by a
CouplingModel: where the path resonates, how incident RF power rectifies into
a baseband offset, how fast that offset can move (single-pole baseband
bandwidth), and which impairments ride on top (white noise, random-walk and
sinusoidal drift, self-interference offset bursts). An AdcConfig converts the
resulting analog envelope into integer sample codes, with hardware-style
oversampling realized as averaging of consecutive raw conversions.

A SimulatedDut strings these together behind a capture interface and is
bit-exactly reproducible from its seed and the sequence of commands applied
to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Hashable, Mapping

import numpy as np
# _lowpass calls lfilter's kernel directly. lfilter stays a module attribute
# because benchmarks/workloads.py traces simulator.lfilter by name.
from scipy.signal import lfilter  # noqa: F401
from scipy.signal._sigtools import _linear_filter

from .signals import dbm_to_mw, fspl_db

ALLOWED_OVERSAMPLING = (1, 2, 4, 8, 16, 32, 64, 128, 256)

# Raw conversions one vectorized pass of SimulatedDut.capture_schedule covers
# (whole states only, at least one state). It bounds each float64 work array
# of a pass to 128 KiB, however long the schedule; on the ideal-sync
# experiment 16k ran faster than 32k or 64k and kept peak memory lowest.
_PASS_RAW_SAMPLES = 1 << 14


@dataclass(frozen=True)
class Resonance:
    """One Lorentzian-shaped sensitive region of a reception path."""

    center_hz: float
    bandwidth_hz: float
    peak_gain: float

    def __post_init__(self):
        if self.center_hz <= 0:
            raise ValueError("center_hz must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.peak_gain < 0:
            raise ValueError("peak_gain must be >= 0")


@dataclass(frozen=True)
class DriftSpec:
    """Slow baseline motion: a random walk plus a sinusoid."""

    walk_step: float = 0.0  # codes per sqrt(sample)
    sine_amplitude: float = 0.0  # codes
    sine_period_s: float = 0.0  # 0 disables the sinusoid

    def __post_init__(self):
        if self.walk_step < 0 or self.sine_amplitude < 0 or self.sine_period_s < 0:
            raise ValueError("drift parameters must be >= 0")


@dataclass(frozen=True)
class BurstSpec:
    """Poisson-arriving rectangular offset bursts (self-interference events)."""

    rate_per_s: float = 0.0
    amplitude: float = 0.0  # codes, may be negative
    duration_s: float = 0.0

    def __post_init__(self):
        if self.rate_per_s < 0 or self.duration_s < 0:
            raise ValueError("burst rate and duration must be >= 0")


@dataclass(frozen=True)
class CouplingModel:
    """Full parametric description of one reception path configuration."""

    resonances: tuple[Resonance, ...] = ()
    nonlinearity_exponent: float = 1.0
    baseband_bandwidth_hz: float = 50e3
    noise_sigma: float = 0.0  # codes, per raw ADC conversion
    drift: DriftSpec = DriftSpec()
    burst: BurstSpec = BurstSpec()
    dc_operating_point: float = 2048.0

    def __post_init__(self):
        object.__setattr__(self, "resonances", tuple(self.resonances))
        if self.nonlinearity_exponent <= 0:
            raise ValueError("nonlinearity_exponent must be positive")
        if self.baseband_bandwidth_hz <= 0:
            raise ValueError("baseband_bandwidth_hz must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class AdcConfig:
    """ADC acquisition parameters, STM32-flavored defaults."""

    resolution_bits: int = 12
    sample_rate_hz: float = 10_000.0
    oversampling_ratio: int = 1
    samples_per_block: int = 32

    def __post_init__(self):
        if not 6 <= self.resolution_bits <= 16:
            raise ValueError("resolution_bits must be in [6, 16]")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.oversampling_ratio not in ALLOWED_OVERSAMPLING:
            raise ValueError(
                f"oversampling_ratio must be a power of two in {ALLOWED_OVERSAMPLING}"
            )
        if self.samples_per_block < 1:
            raise ValueError("samples_per_block must be >= 1")

    @property
    def full_scale(self) -> int:
        return (1 << self.resolution_bits) - 1

    @property
    def raw_rate_hz(self) -> float:
        """Rate of raw conversions feeding the oversampling averager."""
        return self.sample_rate_hz * self.oversampling_ratio


@dataclass(frozen=True, eq=False)
class AdcTrace:
    """A block of integer sample codes plus how they were acquired."""

    samples: np.ndarray
    config: AdcConfig
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.int32)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.size)


def coupling_gain(model: CouplingModel, freq_hz: float) -> float:
    """Linear coupling gain at a carrier frequency: sum of Lorentzian kernels.

    Each resonance contributes peak_gain / (1 + ((f - f0)/bw)^2); a path with
    no resonances is insensitive (gain 0).
    """
    if freq_hz <= 0:
        raise ValueError("freq_hz must be positive")
    gain = 0.0
    for res in model.resonances:
        x = (freq_hz - res.center_hz) / res.bandwidth_hz
        gain += res.peak_gain / (1.0 + x * x)
    return gain


def detector_output(
    incident_power_mw: np.ndarray, gain: float | np.ndarray, exponent: float = 1.0
) -> np.ndarray:
    """Rectified baseband offset (in codes) produced by incident RF power.

    offset[i] = gain * power[i]**exponent, where gain is a scalar or an
    array of per-sample gains. With the default exponent 1 the DC shift is
    proportional to incident power, which makes the estimated SNR in dB
    climb with slope 2 versus power in dBm.
    """
    power = np.asarray(incident_power_mw, dtype=np.float64)
    if power.size and power.min() < 0:
        raise ValueError("incident power samples must be >= 0")
    if exponent == 1.0:
        return gain * power
    return gain * np.power(power, exponent)


def _lowpass_alpha(bandwidth_hz: float, sample_rate_hz: float) -> float:
    """Coefficient of the first-order low-pass with cutoff bandwidth_hz; the
    discretization is exact for the step response (63.2% after 1/(2*pi*bw) s)."""
    return 1.0 - math.exp(-2.0 * math.pi * bandwidth_hz / sample_rate_hz)


@lru_cache(maxsize=64)
def _lowpass_coefficients(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``b`` and ``a`` of _lowpass's filter, built once per alpha."""
    b = np.array([alpha])
    a = np.array([1.0, alpha - 1.0])
    b.flags.writeable = a.flags.writeable = False
    return b, a


def _lowpass(values: np.ndarray, alpha: float, y_prev: float) -> tuple[np.ndarray, float]:
    """Single-pole IIR y[n] = y[n-1] + alpha*(x[n] - y[n-1]), continued from y_prev.

    Returns the output and its last value. Carrying the last output (rather
    than recovering it from the filter's final delay) makes a run split in
    two calls bit-identical to one call over both halves.

    The output is bit for bit that of ``lfilter([alpha], [1, alpha - 1], x,
    zi=[(1 - alpha) * y_prev])``: this calls the first-order kernel behind
    lfilter with exactly the arguments lfilter passes it, without the
    wrapper's per-call checks, which cost several times the filtering of a
    64-sample capture. The kernel is private scipy API; a test pins it to
    lfilter. At alpha >= 1 the filter is the identity.
    """
    x = np.asarray(values, dtype=np.float64)
    if alpha >= 1.0:
        out = x.copy()
        return out, float(out[-1])
    b, a = _lowpass_coefficients(alpha)
    out, _ = _linear_filter(b, a, x, -1, np.array([(1.0 - alpha) * y_prev]))
    return out, float(out[-1])


@dataclass
class _DeviceState:
    """Mutable per-configuration analog state carried across captures."""

    sample_index: int = 0  # raw conversions since configure
    filter_value: float = 0.0
    walk_value: float = 0.0
    burst_left: int = 0  # raw samples of burst still active


def _impair(
    values: np.ndarray,
    model: CouplingModel,
    rng: np.random.Generator,
    state: _DeviceState,
    raw_rate_hz: float,
    states: int = 1,
) -> np.ndarray:
    """Add noise, drift and bursts to a pass of ``states`` equal-length states
    held back to back in ``values``; returns a fresh array, advances state.

    The random draws are those of one call per state, in capture order:
    noise normal, walk step normal, burst uniform. With several states and
    more than one of these streams, a loop draws them state by state into
    one array per stream; otherwise each stream is drawn over the whole pass
    where it is used, which gives the same numbers. The arithmetic then runs
    once over the pass: each state's walk starts from the one before, and
    the sinusoid and the bursts follow the global raw sample index, so a
    burst carries across states.
    """
    size = values.size
    n = size // states
    drift, burst = model.drift, model.burst
    draws = [  # each stream's draw of m values, or None when it is off
        (lambda m: rng.normal(0.0, model.noise_sigma, m)) if model.noise_sigma > 0 else None,
        (lambda m: rng.normal(0.0, drift.walk_step, m)) if drift.walk_step > 0 else None,
        rng.random if burst.rate_per_s > 0 and burst.duration_s > 0 else None,
    ]
    if states > 1 and sum(d is not None for d in draws) > 1:
        drawn = [None if d is None else np.empty((states, n)) for d in draws]
        for k in range(states):
            for d, rows in zip(draws, drawn):
                if d is not None:
                    rows[k] = d(n)
        draws = [None if rows is None else rows.reshape for rows in drawn]  # read flat
    noise, walk_steps, uniform = draws
    out = values
    if noise is not None:
        out = out + noise(size)
    if walk_steps is not None:
        walk = np.cumsum(walk_steps(size).reshape(states, n), axis=1)
        # Sequential sums of the row ends: each row starts from the previous
        # row's last walk value, exactly as per-state captures carry it.
        offsets = np.cumsum(np.concatenate(([state.walk_value], walk[:, -1])))
        state.walk_value = float(offsets[-1])
        out = out + (offsets[:-1, None] + walk).reshape(size)
    if drift.sine_amplitude > 0 and drift.sine_period_s > 0:
        t = (state.sample_index + np.arange(size)) / raw_rate_hz
        out = out + drift.sine_amplitude * np.sin(2.0 * math.pi * t / drift.sine_period_s)
    if uniform is not None:
        starts = np.flatnonzero(uniform(size) < burst.rate_per_s / raw_rate_hz)
        ends = starts + max(1, int(round(burst.duration_s * raw_rate_hz)))
        delta = np.zeros(size + 1)
        if state.burst_left > 0:
            delta[0] += 1
            delta[min(state.burst_left, size)] -= 1
        np.add.at(delta, starts, 1)
        np.add.at(delta, np.minimum(ends, size), -1)
        active = np.cumsum(delta[:-1]) > 0
        if active.any():
            out = out + burst.amplitude * active
        state.burst_left = max(0, int(np.max(ends, initial=state.burst_left)) - size)
    if out is values:
        out = values.copy()
    state.sample_index += size
    return out


def _quantize(raw: np.ndarray, full_scale: int, ratio: int) -> np.ndarray:
    """Int32 codes of raw conversions, ``ratio`` consecutive ones per code.

    Each raw conversion rounds (half to even) and clamps one envelope value
    into [0, full_scale]. At ratio > 1 each code is the rounded, clamped mean
    of its ``ratio`` conversions. At ratio 1 the codes are the conversions
    themselves: they are integers in range already, so a second rounding
    would change nothing and is skipped. raw.size must be a multiple of
    ratio.
    """
    fs = float(full_scale)
    codes = np.rint(raw).clip(0.0, fs)
    if ratio > 1:
        codes = np.rint(codes.reshape(-1, ratio).mean(axis=1)).clip(0.0, fs)
    return codes.astype(np.int32)


def adc_sample(
    values: np.ndarray, adc: AdcConfig, n_samples: int | None = None, meta: dict | None = None
) -> AdcTrace:
    """Quantize an analog envelope into ADC codes with oversampling.

    Each raw conversion rounds (half to even) and clamps one envelope value
    into the ADC range. At oversampling ratio 1 each raw conversion is one
    output code, with one rounding step; at a higher ratio each output code
    is the rounded, clamped mean of ``oversampling_ratio`` consecutive raw
    conversions. Capture passes quantize with the same rule.
    """
    x = np.asarray(values, dtype=np.float64)
    n_out = adc.samples_per_block if n_samples is None else int(n_samples)
    ratio = adc.oversampling_ratio
    needed = n_out * ratio
    if x.size < needed:
        raise ValueError(
            f"envelope too short: need {needed} raw conversions, got {x.size}"
        )
    codes = _quantize(x[:needed], adc.full_scale, ratio)
    return AdcTrace(samples=codes, config=adc, meta=meta or {})


@dataclass(frozen=True)
class RfChannel:
    """Propagation from the RF source to the device: antenna gains, distance,
    and a scalar attenuation term standing in for enclosures/shielding."""

    g_tx_dbi: float = 6.5
    g_rx_dbi: float = 0.0
    distance_m: float = 1.0
    attenuation_db: float = 0.0

    def __post_init__(self):
        if self.distance_m <= 0:
            raise ValueError("distance_m must be positive")

    def incident_dbm(self, power_dbm: float, freq_hz: float) -> float:
        """Power arriving at the device, in dBm: the transmit power plus both
        antenna gains, less the free-space path loss and the attenuation."""
        return (
            power_dbm
            + self.g_tx_dbi
            + self.g_rx_dbi
            - fspl_db(self.distance_m, freq_hz)
            - self.attenuation_db
        )


class SimulatedDut:
    """A seedable stand-in for an embedded board with parasitic RF sensitivity.

    The coupling map is keyed by (path_index, config) with two fallbacks: an
    optional per-path default (key (path_index, None)) and a global default
    model. A path with no entry anywhere couples nothing and only shows the
    default model's impairments.

    Identical seed + identical command sequence => bit-identical traces. One
    instance is single-owner; run separate instances for parallel work.
    """

    def __init__(
        self,
        n_paths: int,
        adc: AdcConfig,
        channel: RfChannel,
        coupling: Mapping[tuple[int, Hashable | None], CouplingModel] | None = None,
        default_model: CouplingModel = CouplingModel(),
        seed: int = 0,
    ):
        if n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        self.n_paths = int(n_paths)
        self.adc = adc
        self.channel = channel
        self.coupling = dict(coupling or {})
        self.default_model = default_model
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._path: int | None = None
        self._config: Hashable | None = None
        self._model: CouplingModel = default_model
        self._state = _DeviceState()

    @property
    def configured(self) -> bool:
        return self._path is not None

    def model_for(self, path_index: int, config: Hashable) -> CouplingModel:
        exact = self.coupling.get((path_index, config))
        if exact is not None:
            return exact
        per_path = self.coupling.get((path_index, None))
        if per_path is not None:
            return per_path
        return self.default_model

    def configure(self, path_index: int, config: Hashable, adc: AdcConfig) -> None:
        """Select a reception path + GPIO configuration; resets analog state."""
        if not 0 <= path_index < self.n_paths:
            raise ValueError(f"unknown path {path_index} (device has {self.n_paths})")
        self.adc = adc
        self._path = int(path_index)
        self._config = config
        self._model = self.model_for(self._path, config)
        self._state = _DeviceState()

    def set_adc_rate(self, sample_rate_hz: float, oversampling_ratio: int) -> None:
        """Update acquisition rate/oversampling without resetting analog state."""
        adc = self.adc
        if adc.sample_rate_hz == sample_rate_hz and adc.oversampling_ratio == oversampling_ratio:
            return
        self.adc = replace(
            self.adc,
            sample_rate_hz=sample_rate_hz,
            oversampling_ratio=oversampling_ratio,
        )

    def reset(self) -> None:
        """Drop the current configuration (the RNG stream keeps running)."""
        self._path = None
        self._config = None
        self._model = self.default_model
        self._state = _DeviceState()

    def capture(self, n_blocks: int, stimulus=None) -> AdcTrace:
        """Acquire n_blocks * samples_per_block codes under the given stimulus.

        The stimulus is any object with freq_hz, power_dbm, enabled, and an
        optional envelope attribute (a BasebandEnvelope); None means RF off.
        This is the one-state case of capture_schedule.
        """
        codes = self.capture_schedule([stimulus], n_blocks)
        return AdcTrace(samples=codes[0], config=self.adc, meta=self._meta(stimulus))

    def capture_schedule(self, stimuli, n_blocks: int) -> np.ndarray:
        """Acquire n_blocks blocks under each stimulus in turn.

        Returns int32 codes of shape (len(stimuli), n_blocks *
        samples_per_block), bit-identical to one capture(n_blocks, s) per
        stimulus, and leaves the same device and RNG state. Consecutive
        states run in vectorized passes of up to _PASS_RAW_SAMPLES raw
        conversions: coupling, then one low-pass, one _impair call and one
        quantization over the whole pass. The impairments are batched over
        the pass but draw their random numbers per state, as one capture per
        state does.
        """
        if self._path is None:
            raise RuntimeError("capture before configure")
        if n_blocks < 0:
            raise ValueError("n_blocks must be >= 0")
        stimuli = list(stimuli)
        n_out = int(n_blocks) * self.adc.samples_per_block
        if n_out == 0 or not stimuli:
            return np.empty((len(stimuli), n_out), dtype=np.int32)
        n_raw = n_out * self.adc.oversampling_ratio
        per_pass = max(1, _PASS_RAW_SAMPLES // n_raw)
        passes = [
            self._capture_pass(stimuli[start : start + per_pass], n_raw)
            for start in range(0, len(stimuli), per_pass)
        ]
        codes = passes[0] if len(passes) == 1 else np.concatenate(passes)
        return codes.reshape(len(stimuli), n_out)

    def _capture_pass(self, stimuli: list, n_raw: int) -> np.ndarray:
        """Codes of n_raw raw conversions per stimulus, as one flat array."""
        adc, model, state = self.adc, self._model, self._state
        offset = self._coupled_offset(stimuli, n_raw)
        alpha = _lowpass_alpha(model.baseband_bandwidth_hz, adc.raw_rate_hz)
        filtered, state.filter_value = _lowpass(offset, alpha, state.filter_value)
        analog = filtered + model.dc_operating_point
        analog = _impair(analog, model, self._rng, state, adc.raw_rate_hz, len(stimuli))
        return _quantize(analog, adc.full_scale, adc.oversampling_ratio)

    def _coupled_offset(self, stimuli: list, n_raw: int) -> np.ndarray:
        """Detector output of every state of a pass, n_raw raw samples each.

        An RF-off state, or one the path does not couple at its carrier,
        adds nothing. A constant carrier adds a constant level; the levels of
        all such states come from one detector_output call. The coupling
        gain and incident power are computed again only when an RF-on
        state's carrier (frequency, power) differs from the previous RF-on
        state's: a pass of on/off bits on one carrier computes them once, and
        a sweep pass, whose carriers all differ, pays one comparison each.
        """
        model, adc = self._model, self.adc
        rows, powers_mw, gains = [], [], []
        held = []  # (state, offset) of envelope-modulated states
        freq_hz = power_dbm = None  # carrier of the previous RF-on state
        for k, stimulus in enumerate(stimuli):
            if stimulus is None or not getattr(stimulus, "enabled", False):
                continue
            if stimulus.freq_hz != freq_hz or stimulus.power_dbm != power_dbm:
                freq_hz, power_dbm = stimulus.freq_hz, stimulus.power_dbm
                gain = coupling_gain(model, freq_hz)
                inc_mw = 0.0
                if gain > 0:
                    inc_mw = dbm_to_mw(self.channel.incident_dbm(power_dbm, freq_hz))
            if gain <= 0:
                continue
            envelope = getattr(stimulus, "envelope", None)
            if envelope is None:
                rows.append(k)
                powers_mw.append(inc_mw)
                gains.append(gain)
                continue
            if len(envelope) == 0:
                power = np.zeros(n_raw)
            else:
                # Zero-order hold of the transmit envelope, anchored at the
                # device's configure time (raw sample index 0).
                first = self._state.sample_index + k * n_raw
                t = (first + np.arange(n_raw)) / adc.raw_rate_hz
                idx = np.floor(t * envelope.sample_rate).astype(np.int64)
                m = np.where(
                    idx < len(envelope), envelope.values[np.minimum(idx, len(envelope) - 1)], 0.0
                )
                power = inc_mw * m * m
            held.append((k, detector_output(power, gain, model.nonlinearity_exponent)))
        if rows:
            levels = detector_output(
                np.array(powers_mw), np.array(gains), model.nonlinearity_exponent
            )
        if len(stimuli) == 1:  # a one-state pass needs no scatter into rows
            if held:
                return held[0][1]
            offset = np.empty(n_raw)
            offset.fill(levels[0] if rows else 0.0)
            return offset
        offset = np.zeros((len(stimuli), n_raw))
        for k, row in held:
            offset[k] = row
        if rows:
            offset[rows] = levels[:, None]
        return offset.reshape(-1)

    def _meta(self, stimulus) -> dict:
        meta = {
            "path": self._path,
            "config": self._config,
            "seed": self.seed,
        }
        if stimulus is not None:
            meta["stimulus"] = {
                "freq_hz": stimulus.freq_hz,
                "power_dbm": stimulus.power_dbm,
                "enabled": bool(stimulus.enabled),
            }
        return meta
