"""Uniform capture interface over devices under test.

A backend exposes describe/configure/capture over a reception path of a
DUT: configure, the only reset, selects a path and resets its analog state,
and capture is an AdcTrace of the codes capture_codes returns. An RF source
exposes set/readback of the stimulus. Two backends exist: an in-process
one wrapping SimulatedDut, and a serial-protocol client (see protocol.py)
that drives the same device through the line codec. Sweeps and experiments
only ever talk to these two interfaces, so a future hardware backend can
slot in without touching the analysis code.

A run of captures is described by one StimulusSchedule: the distinct
stimuli and one row index into them per capture. Only the RF source knows
its limits. capture_groups has it check the schedule before anything runs,
then sets it to the last row and hands the schedule whole to a backend that
captures schedules (SimulatorBackend), or sets it and captures row by row
on any other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signals import BasebandEnvelope
from .simulator import ALLOWED_OVERSAMPLING, AdcConfig, AdcTrace, SimulatedDut


class BackendError(Exception):
    """Base class for configure/capture failures."""


class UnknownPathError(BackendError):
    pass


class UnsupportedSettingError(BackendError):
    pass


class NotConfiguredError(BackendError):
    pass


class RfSourceError(Exception):
    """Stimulus outside the source's power/frequency limits."""


class GpioMode(Enum):
    INPUT = "input"
    OUTPUT = "output"
    ALTERNATE_FUNCTION = "alternate_function"
    ANALOG = "analog"


class GpioPull(Enum):
    NONE = "none"
    PULL_UP = "pull_up"
    PULL_DOWN = "pull_down"
    RESERVED = "reserved"


class OutputValue(Enum):
    HIGH = "high"
    LOW = "low"


class OutputType(Enum):
    PUSH_PULL = "push_pull"
    OPEN_DRAIN = "open_drain"


@dataclass(frozen=True)
class PathConfig:
    """GPIO front-end settings on a reception path; 4*4*2*2 = 64 combinations."""

    mode: GpioMode
    pupd: GpioPull
    output_value: OutputValue
    output_type: OutputType

    def short(self) -> str:
        return (
            f"{self.mode.value}/{self.pupd.value}/"
            f"{self.output_value.value}/{self.output_type.value}"
        )


def enumerate_configs() -> list[PathConfig]:
    """All 64 GPIO configurations in deterministic mode-major order."""
    return [
        PathConfig(mode=m, pupd=p, output_value=v, output_type=t)
        for m, p, v, t in itertools.product(GpioMode, GpioPull, OutputValue, OutputType)
    ]


@dataclass(frozen=True)
class ReceptionPathId:
    """One connection an on-chip ADC can be multiplexed to."""

    index: int
    label: str = ""

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("path index must be >= 0")


@dataclass(frozen=True)
class RfStimulus:
    """Signal-generator state: carrier frequency, power, on/off, and an
    optional amplitude envelope for modulated transmissions."""

    freq_hz: float
    power_dbm: float
    enabled: bool = False
    envelope: BasebandEnvelope | None = None

    def __post_init__(self):
        if not self.freq_hz > 0:
            raise ValueError("freq_hz must be positive")


@dataclass(frozen=True)
class DutDescriptor:
    """Capabilities of a DUT as reported by its backend."""

    n_paths: int
    resolution_bits: int = 12
    max_sample_rate_hz: float = 1_000_000.0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")


class StimulusSchedule:
    """The stimuli of a run of captures, one row per capture, in order.

    ``stimuli`` is a tuple of the distinct stimuli the run uses: each an
    RfStimulus, or None (RF off, which only SimulatedDut.capture_schedule
    accepts; capture_groups refuses it). ``rows`` is a read-only intp array
    with one index into ``stimuli`` per capture. ``freq_hz`` and
    ``power_dbm`` are read-only float64 columns of ``stimuli`` (NaN for
    None), built once here, so SimulatedRfSource.check compares its limits
    per distinct stimulus rather than per row. Every capture of a
    stimulus is one row, however many rows repeat it: an ideal-sync BER
    point is two stimuli and one row per bit.

    ``rows`` defaults to one row per stimulus in order, and is copied, so
    the caller's array may change afterwards. The value is immutable. A run
    captured in parts is one schedule per part, each built from the same
    stimuli and its own rows.
    """

    __slots__ = ("stimuli", "rows", "freq_hz", "power_dbm")

    def __init__(self, stimuli, rows=None):
        stimuli = tuple(stimuli)
        if rows is None:
            rows = np.arange(len(stimuli), dtype=np.intp)
        else:
            rows = np.asarray(rows)
            if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
                raise ValueError("rows must be a one-dimensional integer array")
            if rows.size and (rows.min() < 0 or rows.max() >= len(stimuli)):
                raise ValueError(f"rows must index the {len(stimuli)} stimuli")
            rows = rows.astype(np.intp)
        freq_hz = np.array([math.nan if s is None else s.freq_hz for s in stimuli], np.float64)
        power_dbm = np.array([math.nan if s is None else s.power_dbm for s in stimuli], np.float64)
        for column in (rows, freq_hz, power_dbm):
            column.flags.writeable = False
        for name, value in zip(self.__slots__, (stimuli, rows, freq_hz, power_dbm)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"StimulusSchedule is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return self.rows.size


class SimulatedRfSource:
    """Stands in for the signal generator + amplifier + antenna chain.

    The source alone knows what it can emit: rf_set refuses a stimulus
    outside its limits, and check refuses a schedule with such a row. The
    limits need min_power_dbm <= max_power_dbm and 0 < min_freq_hz <=
    max_freq_hz; other values are a ValueError.
    """

    def __init__(
        self,
        min_power_dbm: float = -40.0,
        max_power_dbm: float = 43.0,
        min_freq_hz: float = 1e6,
        max_freq_hz: float = 6e9,
    ):
        if not min_power_dbm <= max_power_dbm:
            raise ValueError(
                f"min_power_dbm {min_power_dbm} exceeds max_power_dbm {max_power_dbm}"
            )
        if not 0 < min_freq_hz <= max_freq_hz:
            raise ValueError(
                f"need 0 < min_freq_hz <= max_freq_hz, got {min_freq_hz} and {max_freq_hz}"
            )
        self.min_power_dbm = min_power_dbm
        self.max_power_dbm = max_power_dbm
        self.min_freq_hz = min_freq_hz
        self.max_freq_hz = max_freq_hz
        self._stimulus: RfStimulus | None = None

    @property
    def stimulus(self) -> RfStimulus | None:
        return self._stimulus

    def rf_set(self, stimulus: RfStimulus) -> None:
        self._check_stimulus(stimulus)
        self._stimulus = stimulus

    def _check_stimulus(self, stimulus: RfStimulus | None) -> None:
        if stimulus is None:
            raise RfSourceError("no RF stimulus")
        if not self.min_power_dbm <= stimulus.power_dbm <= self.max_power_dbm:
            raise RfSourceError(
                f"power {stimulus.power_dbm} dBm outside "
                f"[{self.min_power_dbm}, {self.max_power_dbm}] dBm"
            )
        if not self.min_freq_hz <= stimulus.freq_hz <= self.max_freq_hz:
            raise RfSourceError(
                f"frequency {stimulus.freq_hz} Hz outside "
                f"[{self.min_freq_hz}, {self.max_freq_hz}] Hz"
            )

    def check(self, schedule: StimulusSchedule) -> None:
        """Raise the RfSourceError of rf_set on the first row of ``schedule``
        it would refuse, without setting anything. The limits are compared
        on the distinct stimuli in one array comparison, which a NaN column
        (a None stimulus) fails, and read per row only when one fails."""
        freqs, powers = schedule.freq_hz, schedule.power_dbm
        ok = (self.min_freq_hz <= freqs) & (freqs <= self.max_freq_hz)
        ok &= (self.min_power_dbm <= powers) & (powers <= self.max_power_dbm)
        if not ok.all():
            ok = ok[schedule.rows]
            if not ok.all():
                self._check_stimulus(schedule.stimuli[schedule.rows[ok.argmin()]])


class SimulatorBackend:
    """In-process backend: configure/capture straight into a SimulatedDut."""

    def __init__(self, dut: SimulatedDut, source: SimulatedRfSource):
        self.dut = dut
        self.source = source

    def describe(self) -> DutDescriptor:
        return DutDescriptor(
            n_paths=self.dut.n_paths, resolution_bits=self.dut.adc.resolution_bits
        )

    def configure(self, path: ReceptionPathId, config: PathConfig, adc: AdcConfig) -> None:
        if path.index >= self.dut.n_paths:
            raise UnknownPathError(
                f"unknown path {path.index} (device has {self.dut.n_paths})"
            )
        self.dut.configure(path.index, config, adc)

    @property
    def adc(self) -> AdcConfig:
        """Acquisition settings the device currently runs with."""
        return self.dut.adc

    def set_adc_rate(self, sample_rate_hz: float, oversampling_ratio: int) -> None:
        """Change the sample rate and oversampling ratio without resetting
        the configured path."""
        if oversampling_ratio not in ALLOWED_OVERSAMPLING:
            raise UnsupportedSettingError(f"unsupported oversampling ratio {oversampling_ratio}")
        if not 0 < sample_rate_hz < math.inf:
            raise UnsupportedSettingError(f"unsupported sample rate {sample_rate_hz}")
        self.dut.set_adc_rate(float(sample_rate_hz), oversampling_ratio)

    def capture(self, n_blocks: int) -> AdcTrace:
        if not self.dut.configured:
            raise NotConfiguredError("capture before configure")
        return self.dut.capture(n_blocks, self.source.stimulus)

    def capture_codes(self, n_blocks: int) -> np.ndarray:
        """The int32 codes of capture(n_blocks), without the trace around them."""
        if not self.dut.configured:
            raise NotConfiguredError("capture before configure")
        return self.dut.capture_codes(n_blocks, self.source.stimulus)

    def capture_schedule(self, schedule: StimulusSchedule, n_blocks: int) -> np.ndarray:
        """Codes of one n_blocks capture per row of ``schedule``, in order,
        each taken with its row's stimulus: int32, of shape (len(schedule),
        n_blocks * samples_per_block). The RF source is neither checked
        nor set; capture_groups does both."""
        if not self.dut.configured:
            raise NotConfiguredError("capture before configure")
        return self.dut.capture_schedule(schedule, n_blocks)


def capture_groups(backend, rf_source, schedule, group_size: int, n_blocks: int, isolate=()):
    """Capture n_blocks blocks per row of ``schedule``, in order, its rows
    taken in consecutive groups of ``group_size``.

    Returns ``(codes, errors)``: int32 codes of shape (groups, group_size,
    n_blocks * samples_per_block), and per group the exception (of a type
    in ``isolate``) that failed it, or None. A failed group's codes are
    meaningless; exceptions of other types propagate.

    This is the one place that picks the capture path, and it drives
    ``rf_source`` alike on both. ``rf_source.check`` first refuses a
    schedule with a row the source cannot set (a None row included):
    nothing is then set, sent or captured. A backend with a batched
    ``capture_schedule`` (SimulatorBackend) has ``rf_source`` set to the
    last row's stimulus and captures the whole schedule in one call, so an
    error there fails every group. Any other backend (SerialBackend) gets
    ``rf_source.rf_set`` of the row's stimulus and ``capture_codes`` per
    row; an error fails only its own group, whose other captures still run,
    so the device is sent the same commands whatever fails.
    """
    n_groups, rest = divmod(len(schedule), group_size)
    if rest:
        raise ValueError(f"{len(schedule)} rows do not split into groups of {group_size}")
    rf_source.check(schedule)
    stimuli, rows = schedule.stimuli, schedule.rows
    capture_schedule = getattr(backend, "capture_schedule", None)
    if capture_schedule is not None:
        if rows.size:
            rf_source.rf_set(stimuli[rows[-1]])
        try:
            codes = capture_schedule(schedule, n_blocks)
        except isolate as exc:
            return np.zeros((n_groups, group_size, 0), np.int32), [exc] * n_groups
        return codes.reshape(n_groups, group_size, codes.shape[1]), [None] * n_groups
    codes = None  # one row of codes per capture, once a capture has succeeded
    errors = [None] * n_groups
    for i, row in enumerate(rows.tolist()):
        try:
            rf_source.rf_set(stimuli[row])
            row_codes = backend.capture_codes(n_blocks)
        except isolate as exc:
            g = i // group_size
            if errors[g] is None:
                errors[g] = exc
            continue
        if codes is None:
            codes = np.zeros((rows.size, row_codes.size), np.int32)
        codes[i] = row_codes
    if codes is None:
        return np.zeros((n_groups, group_size, 0), np.int32), errors
    return codes.reshape(n_groups, group_size, codes.shape[1]), errors
