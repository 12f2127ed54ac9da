"""Exhaustive discovery of RF sensitivities.

The sweep walks (reception path x GPIO configuration x carrier frequency),
capturing ADC blocks with the RF source off and then on at each frequency,
and turns block-mean statistics into SNR estimates:

    d = mean(on block means) - mean(off block means)
    v = unbiased variance of the off block means
    SNR = 10*log10(d^2 / v)

The SNR is a float: +inf is the "high" sentinel (zero off-state variance
with a nonzero difference) and -inf is "none" (zero difference, no
response), so ranking and thresholding compare SNRs directly. With a single
block per state, the off variance is pooled across all frequencies of the
same path/configuration cell.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from operator import index as as_index

import numpy as np

from .backend import (
    BackendError,
    GpioMode,
    GpioPull,
    OutputType,
    OutputValue,
    PathConfig,
    ReceptionPathId,
    RfStimulus,
    StimulusSchedule,
    capture_groups,
    enumerate_configs,  # re-exported: sweep.enumerate_configs is public
)
from .simulator import AdcConfig, AdcTrace

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD_DB = 10.0
SETTLE_BLOCKS = 1  # blocks discarded after each RF toggle


def default_sweep_frequencies() -> np.ndarray:
    """81 evenly spaced carrier frequencies from 200 MHz to 1000 MHz."""
    return np.linspace(200e6, 1000e6, 81)


@dataclass(frozen=True)
class SweepPlan:
    """What to sweep and how to sample each cell."""

    paths: tuple[ReceptionPathId, ...]
    configs: tuple[PathConfig, ...]
    freqs_hz: tuple[float, ...] = field(default_factory=lambda: tuple(default_sweep_frequencies()))
    power_dbm: float = 43.0
    samples_per_block: int = 32
    blocks_per_state: int = 1
    adc: AdcConfig = AdcConfig()
    # None: pool the off-state variance across frequencies only when a single
    # block per state leaves no per-cell variance (the default regime).
    pool_off_variance: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "freqs_hz", tuple(float(f) for f in self.freqs_hz))
        if not self.paths or not self.configs or not self.freqs_hz:
            raise ValueError("paths, configs, and freqs_hz must be non-empty")
        if any(b <= a for a, b in zip(self.freqs_hz, self.freqs_hz[1:])):
            raise ValueError("freqs_hz must be strictly increasing")
        # One cell per (path index, config), as spectra_from_records groups.
        if len({p.index for p in self.paths}) < len(self.paths):
            raise ValueError("paths must have distinct indices")
        if len(set(self.configs)) < len(self.configs):
            raise ValueError("configs must be distinct")
        if self.samples_per_block < 1 or self.blocks_per_state < 1:
            raise ValueError("samples_per_block and blocks_per_state must be >= 1")

    @property
    def effective_adc(self) -> AdcConfig:
        return replace(self.adc, samples_per_block=self.samples_per_block)

    @property
    def n_cells(self) -> int:
        return len(self.paths) * len(self.configs) * len(self.freqs_hz)


@dataclass(slots=True)
class SensitivityRecord:
    """One sweep cell: statistics and SNR for (path, config, frequency).

    A plain value object: nothing mutates or hashes a record once made (not
    frozen, since a frozen slots dataclass costs about five times as much to
    build, and a sweep builds one per cell). Use dataclasses.replace for a
    changed copy.
    """

    path: ReceptionPathId
    config: PathConfig
    freq_hz: float
    mean_on: float | None
    mean_off: float | None
    diff: float | None
    var_off: float | None
    snr: float  # dB; +inf "high", -inf "none"
    failed: bool = False
    error: str | None = None


# The float64 columns of a SweepCell: its statistics, then its SNR.
_STATISTICS = ("mean_on", "mean_off", "diff", "var_off")
_FLOAT_COLUMNS = (*_STATISTICS, "snr")


@dataclass(slots=True, eq=False)
class SweepCell:
    """The results of one (path, config) as columns, one entry per frequency
    of ``freqs_hz`` (in a sweep, the plan's tuple, shared by every cell; in
    a file read back, that of one run of lines): the fields of its
    SensitivityRecords.

    The four statistics and ``snr`` are float64 arrays, ``failed`` a bool
    array and ``errors`` a list of error texts, None where nothing failed.
    A statistic is NaN where none was measured, as at a frequency that
    failed, whose SNR is -inf; the record view and the results writer give
    such a statistic as None (JSON null). Columns given as other sequences
    are converted when the cell is made, a None statistic to NaN and
    ``errors`` to a list. Cells are equal when their path, config,
    frequencies and errors are and their columns hold the same values, NaN
    matching NaN. ``freqs_hz`` and ``snr`` are the cell's SNR spectrum
    (see spectra_from_records).
    """

    path: ReceptionPathId
    config: PathConfig
    freqs_hz: tuple[float, ...]
    mean_on: np.ndarray
    mean_off: np.ndarray
    diff: np.ndarray
    var_off: np.ndarray
    snr: np.ndarray
    failed: np.ndarray
    errors: list

    def __post_init__(self):
        for name in _FLOAT_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), np.float64))
        self.failed = np.asarray(self.failed, bool)
        self.errors = list(self.errors)
        n = len(self.freqs_hz)
        for name in (*_FLOAT_COLUMNS, "failed"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must hold one entry per frequency ({n})")
        if len(self.errors) != n:
            raise ValueError(f"errors must hold one entry per frequency ({n})")

    def __eq__(self, other):
        if not isinstance(other, SweepCell):
            return NotImplemented
        return (
            (self.path, self.config, self.freqs_hz, self.errors)
            == (other.path, other.config, other.freqs_hz, other.errors)
            and np.array_equal(self.failed, other.failed)
            and all(
                np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
                for name in _FLOAT_COLUMNS
            )
        )


def _measured(value: float) -> float | None:
    """A statistic as the record view gives it: None where NaN."""
    return None if value != value else value


class SweepResult(Sequence[SensitivityRecord]):
    """What run_sweep returns: the plan's frequencies and one SweepCell per
    (path, config), in plan order, each holding the plan's frequency tuple.

    A sequence of SensitivityRecords, one per (path, config, frequency) in
    plan order; indexing, slicing and iteration build them on demand, so the
    sweep itself builds none. Record k is frequency k % len(freqs_hz) of
    cell k // len(freqs_hz). A slice is a list of records. Assigning a
    record to an index writes its fields into the columns; it must have
    that index's path, config and frequency. The view gives and takes
    Python floats, bools and None only, a None statistic held as NaN.
    """

    __slots__ = ("freqs_hz", "cells")

    def __init__(self, freqs_hz: tuple[float, ...], cells: list[SweepCell]):
        self.freqs_hz = freqs_hz
        self.cells = cells

    def __len__(self) -> int:
        return len(self.cells) * len(self.freqs_hz)

    def _locate(self, k) -> tuple[SweepCell, int]:
        """The cell of record ``k`` and the record's row in it."""
        i = as_index(k)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"record {k} out of range for {len(self)} records")
        cell, j = divmod(i, len(self.freqs_hz))
        return self.cells[cell], j

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        c, j = self._locate(k)
        return SensitivityRecord(
            c.path, c.config, c.freqs_hz[j],
            *(_measured(getattr(c, name).item(j)) for name in _STATISTICS),
            c.snr.item(j), c.failed.item(j), c.errors[j],
        )

    def __setitem__(self, k, record: SensitivityRecord) -> None:
        c, j = self._locate(k)
        if (record.path, record.config, record.freq_hz) != (c.path, c.config, c.freqs_hz[j]):
            raise ValueError(f"record {k} must keep its path, config and frequency")
        for name in _STATISTICS:
            value = getattr(record, name)
            getattr(c, name)[j] = math.nan if value is None else value
        c.snr[j], c.failed[j], c.errors[j] = record.snr, record.failed, record.error

    def __iter__(self):
        for c in self.cells:
            stats = (map(_measured, getattr(c, name).tolist()) for name in _STATISTICS)
            rows = zip(c.freqs_hz, *stats, c.snr.tolist(), c.failed.tolist(), c.errors)
            for row in rows:
                yield SensitivityRecord(c.path, c.config, *row)

    def __repr__(self) -> str:
        return f"SweepResult({len(self.cells)} cells x {len(self.freqs_hz)} frequencies)"


def block_mean(trace: AdcTrace | np.ndarray, block_len: int) -> np.ndarray:
    """Mean of consecutive sample blocks, order preserved."""
    samples = trace.samples if isinstance(trace, AdcTrace) else np.asarray(trace)
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    if samples.size % block_len != 0:
        raise ValueError(
            f"trace length {samples.size} not divisible by block length {block_len}"
        )
    return samples.reshape(-1, block_len).mean(axis=1)


def _off_variance(off_means: np.ndarray) -> np.ndarray:
    """Unbiased variance of off-state block means along the last axis; 0
    with fewer than two."""
    if off_means.shape[-1] >= 2:
        return np.var(off_means, axis=-1, ddof=1)
    return np.zeros(off_means.shape[:-1])


def snr_from_stats(diff: float, var_off: float) -> float:
    """SNR in dB from a mean difference and an off-state variance: -inf
    without a difference, +inf with one over zero variance. Where
    ``diff**2 / var_off`` under- or overflows, the SNR is taken from the
    logarithms of the two, so a nonzero difference over a finite positive
    variance has a finite SNR."""
    if var_off < 0:
        raise ValueError("var_off must be >= 0")
    if diff == 0.0:
        return -math.inf
    if var_off == 0.0:
        return math.inf
    ratio = diff * diff / var_off
    if ratio == 0.0 or ratio == math.inf:  # under- or overflow of the ratio
        return 20.0 * math.log10(abs(diff)) - 10.0 * math.log10(var_off)
    return 10.0 * math.log10(ratio)


def estimate_snr(on_means, off_means) -> float:
    """SNR from on/off block means of one cell.

    Needs at least two off means for a variance; with exactly one the
    variance is taken as zero and the sentinel rules apply (the sweep itself
    pools variance across frequencies in that regime instead).
    """
    on = np.asarray(on_means, dtype=np.float64)
    off = np.asarray(off_means, dtype=np.float64)
    if on.size == 0 or off.size == 0:
        raise ValueError("on_means and off_means must be non-empty")
    return snr_from_stats(float(on.mean() - off.mean()), float(_off_variance(off)))


def run_sweep(plan: SweepPlan, backend, rf_source) -> SweepResult:
    """Drive backend + RF source over the full plan: a SweepResult, one
    record per (path, config, frequency) cell in plan order, held as one
    SweepCell of columns per (path, config).

    Off-state blocks are captured before on-state blocks at each frequency,
    with ``SETTLE_BLOCKS`` discarded after each RF toggle. One schedule,
    built once, holds an off and an on stimulus per frequency, one row
    each, in that order; each (path, config) is one capture_groups call
    over it in (off, on) groups. A BackendError (a protocol failure is one)
    marks the affected cells failed and the sweep continues.
    """
    adc = plan.effective_adc
    n_capture = plan.blocks_per_state + SETTLE_BLOCKS
    pool = plan.pool_off_variance
    if pool is None:
        pool = plan.blocks_per_state == 1
    schedule = StimulusSchedule(
        RfStimulus(freq_hz=freq, power_dbm=plan.power_dbm, enabled=enabled)
        for freq in plan.freqs_hz
        for enabled in (False, True)
    )
    n_freqs = len(plan.freqs_hz)
    cells: list[SweepCell] = []

    for path in plan.paths:
        for config in plan.configs:
            try:
                backend.configure(path, config, adc)
            except BackendError as exc:
                logger.warning("configure failed for path %s %s: %s", path.index, config.short(), exc)
                codes = np.zeros((n_freqs, 2, 0), np.int32)
                errors = [exc] * n_freqs
            else:
                codes, errors = capture_groups(
                    backend, rf_source, schedule, 2, n_capture, BackendError
                )
                for freq, exc in zip(plan.freqs_hz, errors):
                    if exc is not None:
                        logger.warning(
                            "cell failed at path %s %s %.0f Hz: %s",
                            path.index, config.short(), freq, exc,
                        )
            cells.append(_cell_columns(path, config, plan, codes, errors, pool))
    return SweepResult(plan.freqs_hz, cells)


def _snr_column(diff, var_off) -> np.ndarray:
    """snr_from_stats of each (diff, var_off) pair, as a float64 array.
    Per value, on Python floats, not numpy: np.log10 is not math.log10 to
    the last bit on every platform, and the SNR is written to results
    files."""
    pairs = map(snr_from_stats, np.asarray(diff).tolist(), np.asarray(var_off).tolist())
    return np.array(list(pairs), np.float64)


def _cell_columns(path, config, plan, codes, errors, pool: bool) -> SweepCell:
    """The columns of one (path, config) from its (n_freqs, 2, samples)
    off/on codes; the statistics of all frequencies that captured are
    computed together. Where a frequency failed, its statistics are NaN and
    its SNR is -inf."""
    failed = np.array([exc is not None for exc in errors], bool)
    if failed.any():
        codes = codes[~failed]
    n_capture = plan.blocks_per_state + SETTLE_BLOCKS
    means = block_mean(codes, plan.samples_per_block)
    means = means.reshape(-1, 2, n_capture)[:, :, SETTLE_BLOCKS:]
    off, on = means[:, 0], means[:, 1]
    mean_on = on.mean(axis=1)
    mean_off = off.mean(axis=1)
    diff = mean_on - mean_off
    if pool:
        var_off = np.full(len(diff), _off_variance(off.ravel()))
    else:
        var_off = _off_variance(off)
    columns = [mean_on, mean_off, diff, var_off, _snr_column(diff, var_off)]
    if failed.any():
        fills = (math.nan,) * len(_STATISTICS) + (-math.inf,)
        for i, fill in enumerate(fills):
            full = np.full(len(failed), fill)
            full[~failed] = columns[i]
            columns[i] = full
    texts = [None if exc is None else str(exc) for exc in errors]
    return SweepCell(path, config, plan.freqs_hz, *columns, failed, texts)


def spectra_from_records(results) -> list[SweepCell]:
    """Per-(path index, config) spectra, in order of first appearance, of
    ``results``, a SweepResult or an iterable of SweepCells: the cells
    themselves, whose ``freqs_hz`` and ``snr`` columns are the spectrum, so
    treat them as read-only. A cell whose path index and config have
    appeared before extends that spectrum into a new cell, the first one's
    columns followed by its own (arrays concatenated, the frequency tuple
    and the error list added); no given cell is written."""
    cells = results.cells if isinstance(results, SweepResult) else results
    spectra: dict[tuple[int, PathConfig], SweepCell] = {}
    for cell in cells:
        key = (cell.path.index, cell.config)
        first = spectra.get(key)
        if first is None:
            spectra[key] = cell
        else:
            names = [f.name for f in fields(SweepCell)[2:]]  # all after path and config
            spectra[key] = replace(
                first, **{n: _joined(getattr(first, n), getattr(cell, n)) for n in names}
            )
    return list(spectra.values())


def _joined(head, tail):
    """Column ``head`` followed by column ``tail``. An array is joined with
    np.concatenate: ``+`` would add the two elementwise."""
    return np.concatenate((head, tail)) if isinstance(head, np.ndarray) else head + tail


def config_order(spectra) -> dict[PathConfig, int]:
    """Index of each configuration in order of first appearance."""
    return {c: i for i, c in enumerate(dict.fromkeys(s.config for s in spectra))}


def peak_snr(spectrum: SweepCell) -> tuple[float, float]:
    """Maximum-SNR (frequency, SNR) of a spectrum; ties go to the first,
    lowest frequency."""
    snr = spectrum.snr
    if not len(snr):
        raise ValueError("empty spectrum")
    i = int(np.argmax(snr))  # the first maximum
    return spectrum.freqs_hz[i], snr.item(i)


def classify_sensitive(spectrum: SweepCell, threshold_db: float = DEFAULT_THRESHOLD_DB) -> bool:
    """True iff the peak SNR reaches the threshold (or is "high")."""
    return peak_snr(spectrum)[1] >= threshold_db


def recommended_configs() -> list[PathConfig]:
    """The eight configurations that cover the distinct sensitivity classes:
    pull-down/high and pull-up/low, each across the four modes, open-drain."""
    out = []
    for pupd, value in ((GpioPull.PULL_DOWN, OutputValue.HIGH), (GpioPull.PULL_UP, OutputValue.LOW)):
        for mode in GpioMode:
            out.append(
                PathConfig(
                    mode=mode,
                    pupd=pupd,
                    output_value=value,
                    output_type=OutputType.OPEN_DRAIN,
                )
            )
    return out
