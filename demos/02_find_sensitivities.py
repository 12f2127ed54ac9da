#!/usr/bin/env python3
# Exhaustive sensitivity discovery on the bundled 87-path demo board.
#
# Sweeps every reception path under the 8 recommended GPIO configurations
# across 81 carrier frequencies, estimates per-cell SNR from on/off block
# means, and renders the peak-SNR heatmap plus the best cell's spectrum.

import math
from pathlib import Path

import numpy as np

from adcradio import (
    ReceptionPathId,
    SweepPlan,
    build_rig,
    bundled_scenario_path,
    classify_sensitive,
    load_scenario,
    peak_snr,
    recommended_configs,
    run_sweep,
    spectra_from_records,
)
from adcradio.plots import render_heatmap, render_spectrum

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

scenario = load_scenario(bundled_scenario_path("demo_board"))
backend, source = build_rig(scenario)

# Eight blocks per state instead of the minimal one: peak-picking over 81
# frequencies otherwise rides the chi-square tail of the noise right up to
# the 10 dB threshold.
plan = SweepPlan(
    paths=tuple(ReceptionPathId(i, f"P{i}") for i in range(scenario.n_paths)),
    configs=tuple(recommended_configs()),
    freqs_hz=tuple(np.linspace(200e6, 1000e6, 81)),
    blocks_per_state=8,
    pool_off_variance=True,
    adc=scenario.adc,
)
print(f"sweeping {len(plan.paths)} paths x {len(plan.configs)} configs x "
      f"{len(plan.freqs_hz)} frequencies ({plan.n_cells} cells)...")
result = run_sweep(plan, backend, source)

spectra = spectra_from_records(result)
sensitive = [s for s in spectra if classify_sensitive(s, threshold_db=10.0)]
print(f"{len(sensitive)} of {len(spectra)} path/config cells are sensitive (>= 10 dB)")

ranked = sorted(sensitive, key=lambda s: s.snr.max(), reverse=True)
print("\nstrongest cells:")
for s in ranked[:8]:
    freq, best = peak_snr(s)
    label = "high" if best == math.inf else f"{best:5.1f} dB"
    print(f"  path {s.path.index:3d}  {s.config.short():45s} {label} @ {freq/1e6:4.0f} MHz")

render_heatmap(result, OUT / "demo_heatmap.svg", OUT / "demo_heatmap.csv")
render_spectrum(ranked[0], OUT / "demo_spectrum.svg", OUT / "demo_spectrum.csv")
print(f"\nwrote {OUT}/demo_heatmap.svg and {OUT}/demo_spectrum.svg")
