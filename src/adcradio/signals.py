"""Bit payloads, OOK baseband envelopes, and link-budget arithmetic.

Everything here works on equivalent-baseband amplitude envelopes: the RF
carrier is never synthesized, only its on/off envelope m(t) plus the carrier
frequency carried as metadata. Power bookkeeping is done in dBm/mW with
free-space path loss between the transmit antenna and the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0


@dataclass(frozen=True, eq=False)
class BitSequence:
    """An ordered payload of binary symbols."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if bits.size and bits.max() > 1:
            raise ValueError("bits must contain only 0 and 1")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)


@dataclass(frozen=True, eq=False)
class BasebandEnvelope:
    """Real-valued amplitude samples of the transmit envelope m(t), unitless."""

    values: np.ndarray
    sample_rate: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("envelope values must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


def generate_bits(n: int, seed: int) -> BitSequence:
    """Draw ``n`` uniform random bits, reproducible bit-exactly from ``seed``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=int(n), dtype=np.uint8)
    return BitSequence(bits=bits)


def modulate_ook(
    bits: BitSequence | np.ndarray,
    samples_per_symbol: int,
    amplitude: float = 1.0,
    symbol_rate_hz: float = 1000.0,
) -> BasebandEnvelope:
    """OOK with rectangular pulses: each 1-bit becomes ``samples_per_symbol``
    samples at ``amplitude``, each 0-bit becomes zeros.

    The envelope sample rate is ``samples_per_symbol * symbol_rate_hz``.
    """
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    if symbol_rate_hz <= 0:
        raise ValueError("symbol_rate_hz must be positive")
    raw = bits.bits if isinstance(bits, BitSequence) else np.asarray(bits, dtype=np.uint8)
    values = np.repeat(raw.astype(np.float64) * amplitude, samples_per_symbol)
    return BasebandEnvelope(values=values, sample_rate=samples_per_symbol * symbol_rate_hz)


def fspl_db(distance_m: float, freq_hz: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c) in dB."""
    if not distance_m > 0:
        raise ValueError("distance_m must be positive")
    if not freq_hz > 0:
        raise ValueError("freq_hz must be positive")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * freq_hz / SPEED_OF_LIGHT_M_S)


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)
