"""Lightweight software-defined OOK receiver.

The decode chain is deliberately simple enough to run on the device itself:

    remove_dc   - centered moving average subtraction (tracks slow drift)
    recover_timing - grid search for the symbol phase maximizing transition
                     energy at hypothesized boundaries
    slice_bits  - average the central half of each symbol, threshold at 0

Every decision is scale-free (a sign and an argmax), so the chain runs on
the DC-removed signal as it is. ``normalize`` (scale by the P90-P10
percentile spread) is a reporting step: ``condition`` applies it for the
eye-opening metric and the eye plot, where the scale is the number shown.

Plus BER accounting against a known reference sequence and an eye-opening
metric for judging decodability at a given symbol rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import signals
from .backend import RfStimulus, StimulusSchedule, capture_groups
from .signals import BitSequence
from .simulator import AdcConfig, AdcTrace

# The DC-tracking window, in symbols, wherever none is given.
DEFAULT_DC_WINDOW_SYMBOLS = 15


@dataclass(frozen=True)
class DemodParams:
    """Demodulator settings. The DC window is in symbols and must be odd."""

    samples_per_symbol: int
    dc_window_symbols: int = DEFAULT_DC_WINDOW_SYMBOLS

    def __post_init__(self):
        if self.samples_per_symbol < 2:
            raise ValueError("samples_per_symbol must be >= 2")
        if self.dc_window_symbols < 3 or self.dc_window_symbols % 2 == 0:
            raise ValueError("dc_window_symbols must be an odd count >= 3")


@dataclass(frozen=True)
class BerReport:
    """Exact Hamming accounting between a decoded and a reference sequence."""

    total_bits: int
    error_count: int
    ber: float
    error_positions: tuple[int, ...]
    burst_runs: tuple[tuple[int, int], ...]  # (start, length) of consecutive errors

    def errors_in_runs_of_at_least(self, min_length: int) -> int:
        return sum(length for _, length in self.burst_runs if length >= min_length)


def _samples(samples) -> np.ndarray:
    """``samples`` as an array: integer codes as they are, anything else as
    float64. Every sum over integer codes accumulates in float64 and every
    difference with them promotes to float64, converting each code exactly
    as a float64 copy would, so no copy is made."""
    x = np.asarray(samples)
    return x if x.dtype.kind in "iu" else np.asarray(x, dtype=np.float64)


def moving_average(samples: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; the window shrinks one-sidedly at the edges."""
    x = _samples(samples)
    n = x.size
    if window < 1:
        raise ValueError("window must be >= 1")
    if window % 2 == 0:
        raise ValueError("window must be odd")
    if window > n:
        raise ValueError(f"window {window} larger than input length {n}")
    half = window // 2
    # 0 followed by the cumulative float64 sum of x: cs[j] - cs[i] sums x[i:j].
    cs = np.empty(n + 1)
    cs[0] = 0.0
    cs[1:] = x  # each sample converted to float64, as a float64 copy would
    np.cumsum(cs[1:], out=cs[1:])
    out = np.empty(n)
    # Interior samples see the whole window: two slices of the running sum.
    inner = out[half : n - half]
    np.subtract(cs[window:], cs[: n + 1 - window], out=inner)
    inner /= window
    # The 2*half edge samples average over what lies inside the input.
    edge = np.r_[0:half, n - half : n]
    lo = np.maximum(0, edge - half)
    hi = np.minimum(n, edge + half + 1)
    out[edge] = (cs[hi] - cs[lo]) / (hi - lo)
    return out


def remove_dc(samples: np.ndarray, window: int) -> np.ndarray:
    """Subtract a centered moving average to strip DC and slow drift.

    Integer codes are read as they are (no float64 copy of them is made);
    the result equals that of their float64 copy bit for bit."""
    x = _samples(samples)
    out = moving_average(x, window)
    np.subtract(x, out, out=out)
    return out


def normalize(samples: np.ndarray) -> np.ndarray:
    """Scale to unit robust amplitude (1 / the P90-P10 spread).

    The output is invariant under positive gain changes of the input.
    """
    x = np.asarray(samples, dtype=np.float64)
    p10, p90 = np.percentile(x, [10, 90])
    spread = float(p90 - p10)
    if spread == 0.0:
        raise ValueError("cannot normalize a constant signal (zero spread)")
    return x / spread


# Candidate symbol phases of recover_timing, a 1/16-symbol grid.
_TIMING_GRID = 16


def _timing_energies(x: np.ndarray, sps: int) -> list[float]:
    """Transition energy of each grid phase j / ``_TIMING_GRID``: the summed
    |x[b] - x[b-1]| over its boundaries b inside [1, n - 1], in order.

    Phase j's boundaries are rint((k + j / _TIMING_GRID) * sps), k = 0, 1, ...
    They are computed exactly, as k*sps plus an offset: with
    (q, r) = divmod(j*sps, _TIMING_GRID) the offset is q below the half-sample
    point (r < _TIMING_GRID / 2), q + 1 above it, and at the half the one of
    the two that makes the boundary even, as np.rint rounds a tie. Where the
    offset is the same for every k (every phase of an even sps), the
    boundary samples are a strided view of x. Only the half-sample tie of an
    odd sps alternates between q and q + 1, and gathers through an index
    array. Either way the sum adds the same differences in the same order
    as gathering rint's indices would, so each energy is the same float.
    """
    n = x.size
    half = _TIMING_GRID // 2
    energies = []
    for j in range(_TIMING_GRID):
        q, r = divmod(j * sps, _TIMING_GRID)
        if r == half and sps % 2:
            b = np.arange(q, n, sps)  # q = (sps - 1) // 2 >= 1
            b += b & 1
            b = b[b < n]
            d = x[b] - x[b - 1]
        else:
            offset = q + (r > half or (r == half and q % 2 == 1))
            start = offset or sps  # boundary 0 has no sample before it
            d = x[start:n:sps] - x[start - 1 : n - 1 : sps]
        np.abs(d, out=d)
        energies.append(float(d.sum()))
    return energies


def recover_timing(samples: np.ndarray, samples_per_symbol: int) -> float:
    """Symbol phase in [0, 1) that maximizes transition energy.

    Scores each of ``_TIMING_GRID`` evenly spaced candidate phases j/16 by
    the summed |difference| across the sample pairs straddling its
    hypothesized symbol boundaries, rint((k + j/16) * sps) rounded half to
    even (see ``_timing_energies``); the first best grid point wins, so
    phases that round to the same boundaries tie and the lowest is taken.
    The signal needs transitions: at least 10 zero crossings.
    """
    x = np.asarray(samples, dtype=np.float64)
    sps = int(samples_per_symbol)
    if sps < 2:
        raise ValueError("samples_per_symbol must be >= 2")
    n = x.size
    if n < 2 * sps:
        raise ValueError("need at least two symbols to recover timing")
    crossings = int(np.count_nonzero(np.diff(x > 0)))
    if crossings < 10:
        raise ValueError(
            f"too few transitions to recover timing ({crossings} zero crossings)"
        )
    best_phase = 0.0
    best_energy = -1.0
    for j, energy in enumerate(_timing_energies(x, sps)):
        if energy > best_energy:
            best_energy = energy
            best_phase = j / _TIMING_GRID
    return best_phase


def _symbol_central_means(x: np.ndarray, phase: float, sps: int) -> np.ndarray:
    """Mean of the central 50% of each full symbol at the given phase.

    Symbols are counted from the rounded boundary positions, so a final
    symbol whose fractional end rounds onto the last sample still counts.
    One np.add.reduceat at the spans' bounds sums each span and each gap
    after it; the gaps are dropped. reduceat sums from a bound to the next,
    and from the last to the end, so a last bound equal to n is left out.
    """
    n = x.size
    ks = np.arange(0, int(n / sps) + 2)
    b = np.rint((ks + phase) * sps).astype(np.int64)
    b = b[(b >= 0) & (b <= n)]
    if b.size < 2:
        return np.empty(0)
    q = (b[1:] - b[:-1]) // 4
    lo = b[:-1] + q
    hi = b[1:] - q
    bounds = np.stack((lo, hi), axis=1).ravel()
    sums = np.add.reduceat(x, bounds[:-1] if hi[-1] == n else bounds)[0::2]
    return sums / (hi - lo)


def slice_bits(samples: np.ndarray, phase: float, samples_per_symbol: int) -> BitSequence:
    """Decide one bit per symbol: central-mean > 0 -> 1, otherwise 0."""
    x = np.asarray(samples, dtype=np.float64)
    means = _symbol_central_means(x, float(phase), int(samples_per_symbol))
    return BitSequence(bits=(means > 0).astype(np.uint8))


def _remove_dc_symbols(
    trace: AdcTrace | np.ndarray, samples_per_symbol: int, dc_window_symbols: int
) -> np.ndarray:
    """remove_dc over a window of ``dc_window_symbols`` symbols, clipped to
    the trace length and shortened by one sample if that makes it even."""
    samples = trace.samples if isinstance(trace, AdcTrace) else trace
    x = np.asarray(samples)
    window = min(dc_window_symbols * samples_per_symbol, x.size)
    if window % 2 == 0:
        window -= 1
    return remove_dc(x, window)


def condition(
    trace: AdcTrace | np.ndarray, samples_per_symbol: int, dc_window_symbols: int
) -> np.ndarray:
    """remove_dc -> normalize: the DC-removed signal at unit robust scale,
    for the metrics that report an amplitude (eye opening, eye plot).

    Uses the same DC window as ``demodulate``. A constant trace has zero
    spread and raises ValueError.
    """
    return normalize(_remove_dc_symbols(trace, samples_per_symbol, dc_window_symbols))


def demodulate(trace: AdcTrace | np.ndarray, params: DemodParams) -> BitSequence:
    """Full decode: remove_dc -> recover_timing -> slice_bits.

    The DC window spans ``params.dc_window_symbols`` symbols, clipped to the
    trace length and made odd. Timing and slicing run on the DC-removed
    signal unscaled: both decide by a sign or an argmax, which a positive
    scale could move only through rounding. A constant trace has no
    transitions and raises ValueError from recover_timing.
    """
    if len(trace) == 0:
        return BitSequence(bits=np.empty(0, np.uint8))
    sps = params.samples_per_symbol
    centered = _remove_dc_symbols(trace, sps, params.dc_window_symbols)
    phase = recover_timing(centered, sps)
    return slice_bits(centered, phase, sps)


def ber(decoded: BitSequence, reference: BitSequence) -> BerReport:
    """Bit error rate with positions and maximal runs of consecutive errors."""
    a = decoded.bits if isinstance(decoded, BitSequence) else np.asarray(decoded, np.uint8)
    b = reference.bits if isinstance(reference, BitSequence) else np.asarray(reference, np.uint8)
    if a.size != b.size:
        raise ValueError(f"length mismatch: decoded {a.size} vs reference {b.size}")
    errors = a != b
    positions = np.flatnonzero(errors)
    runs: list[tuple[int, int]] = []
    if positions.size:
        breaks = np.flatnonzero(np.diff(positions) > 1)
        first = positions[np.concatenate(([0], breaks + 1))]
        last = positions[np.concatenate((breaks, [positions.size - 1]))]
        runs = list(zip(first.tolist(), (last - first + 1).tolist()))
    total = int(a.size)
    count = int(positions.size)
    return BerReport(
        total_bits=total,
        error_count=count,
        ber=count / total if total else 0.0,
        error_positions=tuple(positions.tolist()),
        burst_runs=tuple(runs),
    )


def eye_opening(
    trace: AdcTrace | np.ndarray,
    samples_per_symbol: int,
    phase: float = 0.0,
    dc_window_symbols: int = DEFAULT_DC_WINDOW_SYMBOLS,
) -> float:
    """Worst-case separation between 1-symbols and 0-symbols after
    normalization: P10 of the per-symbol central means over decoded 1-bits
    minus P90 over decoded 0-bits, clamped at 0."""
    sps = int(samples_per_symbol)
    scaled = condition(trace, sps, dc_window_symbols)
    means = _symbol_central_means(scaled, float(phase), sps)
    if means.size < 20:
        raise ValueError(f"need at least 20 symbols for an eye estimate, got {means.size}")
    ones = means[means > 0]
    zeros = means[means <= 0]
    if ones.size == 0 or zeros.size == 0:
        raise ValueError("eye opening needs both bit values present")
    eye = float(np.percentile(ones, 10) - np.percentile(zeros, 90))
    return max(0.0, eye)


# Bits per capture_groups call of the ideal-sync experiment: each call
# captures one slice of the experiment's schedule. The device state carries
# from one call to the next, so the codes equal those of one call over all
# bits; slicing only bounds the codes held at once. All 10,000 bits of a
# point at once would hold 5.1 MB of int32 codes (127 per bit), more than
# the benchmark's 5% peak-RSS bound on a process of about 41 MiB.
_BITS_PER_SCHEDULE = 512
# Block means in the ideal-sync experiment's moving-average threshold (odd).
_THRESHOLD_WINDOW = 127


def ideal_sync_ber_experiment(
    backend,
    rf_source,
    path,
    config,
    adc: AdcConfig,
    freq_hz: float,
    power_dbm: float,
    n_bits: int,
    samples_per_bit: int = 127,
    seed: int = 0,
) -> BerReport:
    """Emulate the ideal-synchronization OOK experiment.

    The RF source is switched on or off per random bit, one ADC block of
    ``samples_per_bit`` samples is captured per bit, and each block mean is
    compared against a centered moving average of ``_THRESHOLD_WINDOW`` block
    means (the adaptive decision threshold). Returns the BER against the
    known bits.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    bits = signals.generate_bits(n_bits, seed)  # looked up at call time, so it can be traced
    block_adc = replace(adc, samples_per_block=int(samples_per_bit))
    backend.configure(path, config, block_adc)
    on = RfStimulus(freq_hz=freq_hz, power_dbm=power_dbm, enabled=True)
    off = RfStimulus(freq_hz=freq_hz, power_dbm=power_dbm, enabled=False)
    schedule = StimulusSchedule((off, on), bits.bits)  # row k is stimulus bits[k]
    means = np.empty(n_bits)
    for start in range(0, n_bits, _BITS_PER_SCHEDULE):
        part = schedule[start : start + _BITS_PER_SCHEDULE]
        codes, _ = capture_groups(backend, rf_source, part, 1, 1)
        means[start : start + len(part)] = codes.reshape(len(part), -1).mean(axis=1)
    window = min(_THRESHOLD_WINDOW, n_bits if n_bits % 2 else n_bits - 1)
    threshold = moving_average(means, window)
    decoded = BitSequence(bits=(means > threshold).astype(np.uint8))
    return ber(decoded, bits)
