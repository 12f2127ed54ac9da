#!/usr/bin/env python3
# Symbol rate versus the reception path's baseband bandwidth.
#
# An alternating 1/0 pattern is transmitted at rates from 500 bps to
# 100 kbps through a path with ~30 kHz of baseband bandwidth. The eye
# opening shrinks as edges smear together, yet even 100 kbps still decodes.

from dataclasses import replace
from pathlib import Path

import numpy as np

from adcradio import (
    BitSequence,
    ber,
    bundled_scenario_path,
    demodulate,
    eye_opening,
    load_scenario,
    transmit,
)
from adcradio.plots import render_eye

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

scenario = load_scenario(bundled_scenario_path("bandwidth_eval"))
fs = scenario.adc.sample_rate_hz
print(f"baseband bandwidth 30 kHz, ADC at {fs/1e3:.0f} kS/s\n")

print("   rate      eye     BER")
for rate in (500, 1000, 10_000, 50_000, 100_000):
    n = max(400, min(8000, int(rate * 0.2)))
    if n % 2:
        n += 1
    bits = BitSequence(bits=np.tile([1, 0], n // 2).astype(np.uint8))
    tx = replace(scenario.transmission, bit_rate_hz=rate)
    trace, params = transmit(scenario, bits, tx=tx)
    sps = params.samples_per_symbol

    eye = eye_opening(trace, sps, 0.0)
    decoded = demodulate(trace, params)
    report = ber(BitSequence(bits=decoded.bits[:n]), bits)
    print(f"{rate:7d}  {eye:7.3f}  {report.ber:.4f}")
    if rate == 50_000:
        render_eye(trace, sps, OUT / "eye_50kbps.svg", OUT / "eye_50kbps.csv")

print(f"\nwrote {OUT}/eye_50kbps.svg")
