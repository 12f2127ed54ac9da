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

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Hashable, Mapping

import numpy as np

from .signals import dbm_to_mw, fspl_db


def _load_kernel(module: str, symbol: str):
    """``symbol`` of the extension ``module``, loaded without importing its package:
    importing scipy.signal costs about 1 s and 65 MiB per process for one C
    function. Any failure is one ImportError naming the symbol and scipy's version."""
    try:
        package = importlib.util.find_spec(module.rpartition(".")[0])  # imports only scipy
        spec = importlib.machinery.PathFinder.find_spec(module, package.submodule_search_locations)
        loaded = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded)
        return getattr(loaded, symbol)
    except (ImportError, AttributeError) as exc:
        import scipy
        raise ImportError(f"cannot load {module}.{symbol} from scipy {scipy.__version__}") from exc


_linear_filter = _load_kernel("scipy.signal._sigtools", "_linear_filter")


def lfilter(*args, **kwargs):
    """scipy.signal.lfilter, imported on first call. Nothing here calls it; the
    benchmark traces simulator.lfilter by name until ROADMAP item 3 ends that."""
    from scipy.signal import lfilter as scipy_lfilter
    return scipy_lfilter(*args, **kwargs)


ALLOWED_OVERSAMPLING = (1, 2, 4, 8, 16, 32, 64, 128, 256)

# Raw conversions one vectorized pass of SimulatedDut.capture_schedule covers
# (whole states only, at least one state). It bounds each float64 work array
# of a pass to 128 KiB, however long the schedule; on the ideal-sync
# experiment 16k ran faster than 32k or 64k and kept peak memory lowest. A
# pass of one state longer than this (a link payload) is impaired and
# quantized in blocks of this many raw conversions.
_PASS_RAW_SAMPLES = 1 << 14

# Entries _drift_table keeps: one per (drift, raw rate, pass length) that
# recurs from raw sample 0. Both bundled link payloads share one entry.
_DRIFT_TABLE_ENTRIES = 4

_INT64_MAX = np.iinfo(np.int64).max

# The rows of a one-capture schedule: its one stimulus, once.
_ONE_ROW = np.zeros(1, dtype=np.intp)
_ONE_ROW.flags.writeable = False


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
        if not math.isfinite(self.amplitude):
            raise ValueError("burst amplitude must be finite")


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
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValueError("sample_rate_hz must be positive and finite")
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
        if samples is not self.samples:
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
    incident_power_mw: np.ndarray,
    gain: float | np.ndarray,
    exponent: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rectified baseband offset (in codes) produced by incident RF power.

    offset[i] = gain * power[i]**exponent, where gain is a scalar or an
    array of per-sample gains. With the default exponent 1 the DC shift is
    proportional to incident power, which makes the estimated SNR in dB
    climb with slope 2 versus power in dBm.

    ``out``, a float64 array of the result's shape, receives the result
    and is returned; it may be the incident power array itself, which then
    needs no second array. Otherwise the result is a fresh array.
    """
    power = np.asarray(incident_power_mw, dtype=np.float64)
    if power.size and power.min() < 0:
        raise ValueError("incident power samples must be >= 0")
    if exponent != 1.0:
        power = np.power(power, exponent, out=out)
    return np.multiply(power, gain, out=out)


def _lowpass_alpha(bandwidth_hz: float, sample_rate_hz: float) -> float:
    """Coefficient of the first-order low-pass with cutoff bandwidth_hz; the
    discretization is exact for the step response (63.2% after 1/(2*pi*bw) s)."""
    return 1.0 - math.exp(-2.0 * math.pi * bandwidth_hz / sample_rate_hz)


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
    b, a = np.array([alpha]), np.array([1.0, alpha - 1.0])
    out, _ = _linear_filter(b, a, x, -1, np.array([(1.0 - alpha) * y_prev]))
    return out, float(out[-1])


def _hold(envelope, raw_rate_hz: float, first: int, n_raw: int) -> np.ndarray:
    """Zero-order hold of ``envelope`` on raw samples first .. first + n_raw - 1.

    Raw sample i holds envelope sample i * p // q, where p/q is the
    envelope rate over the raw rate reduced from the two floats' exact
    integer ratios, or 0 past the envelope's end. The floor is exact: no
    rounding of i / raw rate * envelope rate takes the sample before the
    right one. At p == q the held samples are a slice of the envelope's
    values, returned as a view when the envelope covers all of them, so
    the caller must not write the result. Otherwise the indices are int64
    while i * p fits in it, else Python integers.
    """
    values = envelope.values
    a, b = float(envelope.sample_rate).as_integer_ratio()
    c, d = float(raw_rate_hz).as_integer_ratio()
    g = math.gcd(a * d, b * c)
    p, q = a * d // g, b * c // g
    end = min(first + n_raw, -(-values.size * q // p))  # i * p // q < size before end
    if p == q:
        inside = values[first:end]
    else:
        i = np.arange(first, end, dtype=np.int64 if end * p <= _INT64_MAX else object)
        inside = values[(i * p // q).astype(np.intp, copy=False)]
    if inside.size == n_raw:
        return inside
    held = np.zeros(n_raw)
    held[: inside.size] = inside
    return held


@dataclass
class _DeviceState:
    """Mutable per-configuration analog state carried across captures."""

    sample_index: int = 0  # raw conversions since configure
    filter_value: float = 0.0
    walk_value: float = 0.0
    burst_left: int = 0  # raw samples of burst still active


def _drift_sine(drift: DriftSpec, raw_rate_hz: float, first: int, size: int) -> np.ndarray:
    """The sinusoid drift of raw samples first .. first + size - 1 in a fresh
    array: amplitude * sin(i / raw_rate_hz * 2 pi / period), computed in
    that order. The index is exact below 2**53, so a run split into pieces
    gives the same floats as one call over all of it."""
    sine = np.arange(size, dtype=np.float64)
    sine += first
    sine /= raw_rate_hz
    sine *= 2.0 * math.pi
    sine /= drift.sine_period_s
    np.sin(sine, out=sine)
    sine *= drift.sine_amplitude
    return sine


@lru_cache(maxsize=_DRIFT_TABLE_ENTRIES)
def _drift_table(drift: DriftSpec, raw_rate_hz: float, size: int) -> np.ndarray:
    """_drift_sine of raw samples 0 .. size - 1, computed once and read-only.

    The sinusoid depends on the raw index alone, and every link payload
    starts at raw sample 0 right after configure, so its drift is the same
    array each time. At most _DRIFT_TABLE_ENTRIES entries are kept (least
    recently used out first). Only a pass longer than one block that starts
    at raw sample 0 reads a table; keyed on every pass start, a table
    thrashed on per-row captures.
    """
    sine = _drift_sine(drift, raw_rate_hz, 0, size)
    sine.flags.writeable = False
    return sine


def _grouped_draws(
    rng: np.random.Generator, states: int, n: int, scales: list, bursts: bool
) -> tuple[list, np.ndarray | None]:
    """The normals of each stream in ``scales`` (the noise sigma and the
    walk step of the streams that are on, in that order) and, with
    ``bursts``, the burst uniforms of a pass of ``states`` states of n
    samples, drawn in the order one call per stream and state would draw
    them, in as few generator calls as that order allows.

    ``Generator.normal(0, s, n)`` computes ``0.0 + s * z`` from the n
    standard normals z that ``standard_normal(n)`` draws, and consumes the
    bit generator exactly as that does. So without bursts all states'
    normals are one standard_normal call into an array of shape (states,
    streams, n); with bursts each state makes one call for its normals and
    one ``random`` call for its uniforms. Each stream is then scaled and
    has 0.0 added, which turns a -0.0 into 0.0 as normal does.

    Returns each normal stream as a (states, n) view and the uniforms as
    one flat array (None without bursts).
    """
    z = np.empty((states, len(scales), n))
    uniforms = None
    if bursts:
        uniforms = np.empty((states, n))
        normal, uniform = rng.standard_normal, rng.random
        for z_k, uniforms_k in zip(z, uniforms):
            normal(out=z_k)
            uniform(out=uniforms_k)
        uniforms = uniforms.reshape(-1)
    else:
        rng.standard_normal(out=z)
    normals = [z[:, i] for i in range(len(scales))]
    for stream, scale in zip(normals, scales):
        stream *= scale
    z += 0.0
    return normals, uniforms


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
    noise normal, walk step normal, burst uniform. A pass no longer than
    one block (_PASS_RAW_SAMPLES; every pass of several states, and every
    short capture) with more than one of these streams on takes them from
    _grouped_draws: one generator call for the whole pass without bursts,
    two per state with them. A pass with one stream on draws it over the
    whole pass, which gives the same numbers. The arithmetic then runs once
    over the pass: each state's walk starts from the one before, and the
    sinusoid and the bursts follow the global raw sample index, so a burst
    carries across states. A pass of one state adds its walk's start value
    as one scalar.

    A pass of one state longer than one block (a link payload) keeps its
    own draw code: it draws its walk steps and burst uniforms in blocks of
    _PASS_RAW_SAMPLES, all walk blocks before any uniform block, and adds
    the walk and the sinusoid block by block. This is bit-identical to one
    draw and one sum over the pass: consecutive draws from one stream give
    the numbers of one longer draw; the walk's running sum carries into the
    next block by adding the last sum to the block's first step before its
    cumsum, which is the addition one cumsum makes there; and each sample
    gets its terms in the same order. A pass of several states is at most
    one block long (_capture_rows makes it so) and runs as one.

    A pass longer than one block that starts at raw sample 0 (a link
    payload right after configure) adds its sinusoid from _drift_table.
    Shorter passes compute it: on per-row and batched captures a table
    would only hold memory.

    The bursts are the merged intervals of the carried burst and the new
    ones, each adding the amplitude to its slice of the sum. The sum they
    replace added amplitude * 0 to every other sample, which turns a -0.0
    into 0.0 for a positive amplitude; without noise the sum can hold a
    -0.0 from values, so it gets that term too (with noise it cannot, and
    adding the zero would change nothing).

    The sum starts as the drawn noise plus ``values``, or as a copy of
    values when noise is off, and each later term is added into it in
    place; values itself is never written.
    """
    size = values.size
    n = size // states
    drift, burst = model.drift, model.burst
    sigma, step = model.noise_sigma, drift.walk_step
    sine = drift.sine_amplitude > 0 and drift.sine_period_s > 0
    bursts = burst.rate_per_s > 0 and burst.duration_s > 0
    block = _PASS_RAW_SAMPLES if states == 1 else size
    noise = steps = uniforms = None
    if size <= block and (sigma > 0) + (step > 0) + bursts > 1:
        normals, uniforms = _grouped_draws(
            rng, states, n, [s for s in (sigma, step) if s > 0], bursts
        )
        noise = normals[0] if sigma > 0 else None
        steps = normals[-1] if step > 0 else None
    if sigma > 0:
        if noise is None:
            out = rng.normal(0.0, sigma, size)
            out += values
        else:
            out = np.add(noise, values.reshape(noise.shape)).reshape(size)
    else:
        out = values.copy()
    if step > 0 or sine:
        table = None
        if sine and state.sample_index == 0 and size > block:
            table = _drift_table(drift, raw_rate_hz, size)
        walk_start = state.walk_value
        for lo in range(0, size, block):
            part = out[lo : lo + block]
            if step > 0:
                walk = steps
                if walk is None:
                    walk = rng.normal(0.0, step, (states, part.size // states))
                if lo:
                    walk[0, 0] += carried  # the pass's running sum so far
                walk.cumsum(axis=1, out=walk)
                carried = walk[0, -1]
                if states == 1:
                    walk += walk_start
                    state.walk_value = float(walk[0, -1])
                else:
                    # Sequential sums of the row ends: each row starts from
                    # the previous row's last walk value, exactly as
                    # per-state captures carry it.
                    offsets = np.cumsum(np.concatenate(([walk_start], walk[:, -1])))
                    state.walk_value = float(offsets[-1])
                    walk += offsets[:-1, None]
                by_row = part.reshape(walk.shape)
                by_row += walk
            if sine:
                if table is not None:
                    part += table[lo : lo + block]
                else:
                    part += _drift_sine(drift, raw_rate_hz, state.sample_index + lo, part.size)
    if bursts:
        threshold = burst.rate_per_s / raw_rate_hz
        if size > block:
            begin = np.concatenate([
                np.flatnonzero(rng.random(min(block, size - lo)) < threshold) + lo
                for lo in range(0, size, block)
            ])
        else:
            begin = ((rng.random(size) if uniforms is None else uniforms) < threshold).nonzero()[0]
        end = begin + max(1, int(round(burst.duration_s * raw_rate_hz)))
        if state.burst_left > 0:  # the burst carried in runs from sample 0
            begin = np.concatenate(([0], begin))
            end = np.concatenate(([state.burst_left], end))
        state.burst_left = 0
        if begin.size:
            reach = np.maximum.accumulate(end)
            # A merged burst starts at each start past every end before it.
            first = np.flatnonzero(begin[1:] > reach[:-1]) + 1
            if sigma == 0:
                out += burst.amplitude * 0.0
            heads = begin[np.concatenate(([0], first))]
            tails = reach[np.concatenate((first - 1, [-1]))]
            for a, b in zip(heads.tolist(), tails.tolist()):
                out[a:b] += burst.amplitude
            state.burst_left = max(0, int(reach[-1]) - size)
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

    An array longer than one block (whole codes of at most
    _PASS_RAW_SAMPLES conversions, at least one code) is quantized block by
    block into the int32 output: every code depends on its own conversions
    alone, so this is bit-identical to quantizing it whole, and a long array
    needs no full-length float copy. Rounding a block makes one new array,
    which the clamp then writes in place; raw itself is never written.
    """
    if raw.size > _PASS_RAW_SAMPLES and raw.size > ratio:
        block = max(ratio, _PASS_RAW_SAMPLES - _PASS_RAW_SAMPLES % ratio)
        codes = np.empty(raw.size // ratio, dtype=np.int32)
        for lo in range(0, raw.size, block):
            part = _quantize(raw[lo : lo + block], full_scale, ratio)
            codes[lo // ratio : lo // ratio + part.size] = part
        return codes
    fs = float(full_scale)
    codes = np.rint(raw)
    codes.clip(0.0, fs, out=codes)
    if ratio > 1:
        codes = np.rint(codes.reshape(-1, ratio).mean(axis=1))
        codes.clip(0.0, fs, out=codes)
    return codes.astype(np.int32)


def adc_sample(values: np.ndarray, adc: AdcConfig) -> AdcTrace:
    """Quantize an analog envelope into ADC codes with oversampling.

    Each raw conversion rounds (half to even) and clamps one envelope value
    into the ADC range. At oversampling ratio 1 each raw conversion is one
    output code, with one rounding step; at a higher ratio each output code
    is the rounded, clamped mean of ``oversampling_ratio`` consecutive raw
    conversions. Capture passes quantize with the same rule.
    """
    x = np.asarray(values, dtype=np.float64)
    ratio = adc.oversampling_ratio
    needed = adc.samples_per_block * ratio
    if x.size < needed:
        raise ValueError(
            f"envelope too short: need {needed} raw conversions, got {x.size}"
        )
    codes = _quantize(x[:needed], adc.full_scale, ratio)
    return AdcTrace(samples=codes, config=adc)


@dataclass(frozen=True)
class RfChannel:
    """Propagation from the RF source to the device: antenna gains, distance,
    and a scalar attenuation term standing in for enclosures/shielding."""

    g_tx_dbi: float = 6.5
    g_rx_dbi: float = 0.0
    distance_m: float = 1.0
    attenuation_db: float = 0.0

    def __post_init__(self):
        if not self.distance_m > 0:
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

    Between captures a device keeps only its configuration, its analog
    state and its RNG stream. Each capture computes its stimuli's levels
    from ``channel`` and the configured model, so a replaced ``channel``
    takes effect at the next capture.
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
        """The codes of capture_codes as an AdcTrace, with the acquisition
        settings and the path, config, seed and stimulus in its meta."""
        return AdcTrace(self.capture_codes(n_blocks, stimulus), self.adc, self._meta(stimulus))

    def capture_codes(self, n_blocks: int, stimulus=None) -> np.ndarray:
        """Acquire n_blocks * samples_per_block int32 codes under the given
        stimulus, an RfStimulus or None (RF off). This is the one-row case
        of capture_schedule.
        """
        return self._capture_rows((stimulus,), _ONE_ROW, n_blocks)

    def capture_schedule(self, schedule, n_blocks: int) -> np.ndarray:
        """Acquire n_blocks blocks per row of ``schedule`` (a
        backend.StimulusSchedule), each under its row's stimulus (an
        RfStimulus or None), in turn.

        Returns int32 codes of shape (len(schedule), n_blocks *
        samples_per_block), bit-identical to one capture(n_blocks, s) per
        row, and leaves the same device and RNG state. Consecutive rows run
        in vectorized passes of up to _PASS_RAW_SAMPLES raw conversions:
        coupling, then one low-pass, one _impair call and one quantization
        over the whole pass (a pass that couples nothing skips the coupling
        and the low-pass). The first pass that couples computes the level
        of each distinct stimulus once; every pass scatters them by its
        rows. The impairments are batched over the pass but draw their
        random numbers per row, as one capture per row does.
        """
        codes = self._capture_rows(schedule.stimuli, schedule.rows, n_blocks)
        return codes.reshape(len(schedule), int(n_blocks) * self.adc.samples_per_block)

    def _capture_rows(self, stimuli: tuple, rows: np.ndarray, n_blocks: int) -> np.ndarray:
        """The codes of capture_schedule of the schedule with these stimuli
        and rows, one row after another in one flat array.

        The DC operating point is added in place into the low-pass output,
        which the pass owns; _impair and _quantize write only arrays of
        their own, so no caller's array is written.

        A model without resonances couples nothing, so its offset is zero;
        from a zero filter state the low-pass of zeros is zeros and leaves
        the state at zero. Such a pass starts from the operating point
        alone, skipping both steps; neither draws random numbers, so the
        codes, the device state and the RNG stream are those of the full
        path.
        """
        if self._path is None:
            raise RuntimeError("capture before configure")
        if n_blocks < 0:
            raise ValueError("n_blocks must be >= 0")
        adc, model, state = self.adc, self._model, self._state
        n_out = int(n_blocks) * adc.samples_per_block
        if n_out == 0 or not rows.size:
            return np.empty(rows.size * n_out, dtype=np.int32)
        n_raw = n_out * adc.oversampling_ratio
        per_pass = max(1, _PASS_RAW_SAMPLES // n_raw)
        coupling = None  # _stimulus_levels, once a pass couples
        passes = []
        for start in range(0, rows.size, per_pass):
            part = rows[start : start + per_pass]
            if not model.resonances and state.filter_value == 0.0:
                analog = np.empty(part.size * n_raw)
                analog.fill(model.dc_operating_point)
            else:
                if coupling is None:
                    coupling = self._stimulus_levels(stimuli)
                alpha = _lowpass_alpha(model.baseband_bandwidth_hz, adc.raw_rate_hz)
                offset = self._coupled_offset(coupling, part, n_raw)
                analog, state.filter_value = _lowpass(offset, alpha, state.filter_value)
                del offset  # freed before _impair draws: a long pass holds fewer arrays
                analog += model.dc_operating_point
            raw = _impair(analog, model, self._rng, state, adc.raw_rate_hz, part.size)
            del analog  # freed before the quantization: a long pass holds fewer arrays
            passes.append(_quantize(raw, adc.full_scale, adc.oversampling_ratio))
        return passes[0] if len(passes) == 1 else np.concatenate(passes)

    def _stimulus_levels(self, stimuli: tuple) -> tuple[np.ndarray, dict]:
        """The detector level of each stimulus's constant carrier, and the
        stimuli whose envelope the path couples.

        An RF-off stimulus, one the path does not couple at its carrier,
        and one with an envelope have level 0. Each other stimulus gets
        coupling_gain, then the channel's incident power in mW, and the
        levels of all of them come from one detector_output call. The
        second value maps the index of each coupled stimulus with an
        envelope to (envelope, incident mW, gain).
        """
        model = self._model
        levels = np.zeros(len(stimuli))
        constant, powers_mw, gains = [], [], []
        held = {}
        for j, stimulus in enumerate(stimuli):
            if stimulus is None or not stimulus.enabled:
                continue
            gain = coupling_gain(model, stimulus.freq_hz)
            if gain <= 0:
                continue
            inc_mw = dbm_to_mw(self.channel.incident_dbm(stimulus.power_dbm, stimulus.freq_hz))
            if stimulus.envelope is None:
                constant.append(j)
                powers_mw.append(inc_mw)
                gains.append(gain)
            else:
                held[j] = (stimulus.envelope, inc_mw, gain)
        if constant:
            levels[constant] = detector_output(
                np.array(powers_mw), np.array(gains), model.nonlinearity_exponent
            )
        return levels, held

    def _coupled_offset(self, coupling: tuple, rows: np.ndarray, n_raw: int) -> np.ndarray:
        """Detector output of every row of a pass, n_raw raw samples each,
        from ``coupling``, the levels and held envelopes of
        _stimulus_levels: each row holds its stimulus's level, scattered as
        ``levels[rows]``.

        A row whose stimulus has a coupled envelope adds inc_mw * m * m
        through the detector instead, where m is the envelope held by
        _hold: raw sample i holds envelope sample i * p // q (p/q the
        envelope rate over the raw rate, exactly) or 0 past its end. The
        anchor i counts raw samples since configure, so a payload captured
        right after configure starts at envelope sample 0. set_adc_rate does
        not re-anchor the hold: after a rate change, i still counts the raw
        samples taken at the earlier rates while p/q uses the current one.
        Holding across a rate change is out of scope (ROADMAP items 7 and
        12).
        """
        levels, held = coupling
        model, adc, first = self._model, self.adc, self._state.sample_index

        def held_row(k, envelope, inc_mw, gain):
            m = _hold(envelope, adc.raw_rate_hz, first + k * n_raw, n_raw)
            power = inc_mw * m
            power *= m  # inc_mw * m * m, in that order
            return detector_output(power, gain, model.nonlinearity_exponent, out=power)

        if rows.size == 1:  # one row needs no scatter; a held one is a whole payload
            j = int(rows[0])
            if j in held:
                return held_row(0, *held[j])
            offset = np.empty(n_raw)
            offset.fill(levels[j])
            return offset
        offset = np.repeat(levels[rows], n_raw)
        by_row = offset.reshape(rows.size, n_raw)
        for j, stimulus_held in held.items():
            for k in np.flatnonzero(rows == j).tolist():
                by_row[k] = held_row(k, *stimulus_held)
        return offset

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
