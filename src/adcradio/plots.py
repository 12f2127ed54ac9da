"""Static report rendering: self-contained SVG plus a CSV of the numbers.

SVG is generated directly (no plotting dependency, no external assets) so
the artifacts are diffable and render anywhere. Every figure writes a CSV
companion containing exactly the values drawn.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from .fileio import snr_to_json
from .receiver import DemodParams, condition
from .sweep import SweepCell, config_order, peak_snr, spectra_from_records

_FONT = "font-family='monospace' font-size='11'"
_EYE_MAX_SEGMENTS = 200


def _svg_header(width: int, height: int) -> list[str]:
    return [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>",
        "<defs><pattern id='hatch' width='6' height='6' patternUnits='userSpaceOnUse' "
        "patternTransform='rotate(45)'>"
        "<rect width='6' height='6' fill='#b2182b'/>"
        "<line x1='0' y1='0' x2='0' y2='6' stroke='white' stroke-width='2'/>"
        "</pattern></defs>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
    ]


# The heatmap ramp's colours at t = 0, 0.5 and 1: blue, yellow, red.
_HEAT_ANCHORS = ((33, 102, 172), (254, 224, 144), (178, 24, 43))


def _heat_color(value: float, vmin: float, vmax: float) -> str:
    """Blue -> yellow -> red ramp for log-SNR values, clamped to its ends;
    NaN is blue."""
    if vmax <= vmin:
        t = 0.0
    else:
        t = min(1.0, max(0.0, (value - vmin) / (vmax - vmin)))
    half = min(int(2 * t), 1)  # 0 on [0, 0.5), 1 on [0.5, 1]
    f = 2 * t - half
    c0, c1 = _HEAT_ANCHORS[half], _HEAT_ANCHORS[half + 1]
    rgb = tuple(int(round(a + f * (b - a))) for a, b in zip(c0, c1))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _snr_label(snr: float) -> str:
    """CSV form of an SNR: dB to six decimals, or its "high"/"none" sentinel."""
    label = snr_to_json(snr)
    return label if isinstance(label, str) else f"{snr:.6f}"


def _text(x: float, y: float, s: str, anchor: str = "start") -> str:
    return f"<text x='{x:.1f}' y='{y:.1f}' text-anchor='{anchor}' {_FONT}>{s}</text>"


def _write(parts: list[str], out_svg, out_csv, header: list[str], rows) -> None:
    """Close and write the SVG, and write the CSV header and rows."""
    parts.append("</svg>")
    Path(out_svg).write_text("\n".join(parts) + "\n")
    with open(out_csv, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _axes(
    parts: list[str],
    x0: int,
    y0: int,
    w: int,
    h: int,
    xlabel: str,
    ylabel: str,
) -> None:
    parts.append(
        f"<rect x='{x0}' y='{y0}' width='{w}' height='{h}' fill='none' stroke='black'/>"
    )
    parts.append(_text(x0 + w / 2, y0 + h + 32, xlabel, "middle"))
    parts.append(
        f"<text x='{x0 - 40}' y='{y0 + h / 2}' text-anchor='middle' {_FONT} "
        f"transform='rotate(-90 {x0 - 40} {y0 + h / 2})'>{ylabel}</text>"
    )


def render_heatmap(results, out_svg: str | Path, out_csv: str | Path) -> dict:
    """Peak-SNR heatmap of ``results``, a SweepResult or SweepCells: one row
    per path, one column per configuration.

    "high" cells get a hatched fill; "none" cells stay white.
    """
    spectra = spectra_from_records(results)
    if not spectra:
        raise ValueError("no records")
    paths = sorted({s.path.index for s in spectra})
    configs = config_order(spectra)
    peaks: dict[tuple[int, int], tuple[float, float]] = {}
    finite_vals = []
    for s in spectra:
        freq, best = peak_snr(s)
        key = (paths.index(s.path.index), configs[s.config])
        peaks[key] = (freq, best)
        if math.isfinite(best):
            finite_vals.append(best)
    vmin = min(finite_vals) if finite_vals else 0.0
    vmax = max(finite_vals) if finite_vals else 1.0

    cell = max(4, min(18, 640 // max(len(paths), len(configs))))
    x0, y0 = 70, 30
    w, h = cell * len(configs), cell * len(paths)
    parts = _svg_header(x0 + w + 150, y0 + h + 60)
    for (row, col), (_, best) in peaks.items():
        x = x0 + col * cell
        y = y0 + row * cell
        if best == math.inf:
            fill = "url(#hatch)"
        elif best == -math.inf:
            fill = "white"
        else:
            fill = _heat_color(best, vmin, vmax)
        parts.append(
            f"<rect x='{x}' y='{y}' width='{cell}' height='{cell}' fill='{fill}' "
            "stroke='#ddd' stroke-width='0.5'/>"
        )
    _axes(parts, x0, y0, w, h, "configuration index", "path index")
    parts.append(_text(x0, y0 - 10, f"peak SNR over frequency [{vmin:.1f}, {vmax:.1f}] dB"))
    parts.append(
        _text(x0 + w + 12, y0 + 14, "hatched = high (zero off-state variance)")
    )
    header = ["path_index", "config_index", "peak_freq_hz", "peak_snr"]
    rows = (
        [paths[row], col, f"{freq:.0f}", _snr_label(best)]
        for (row, col), (freq, best) in sorted(peaks.items())
    )
    _write(parts, out_svg, out_csv, header, rows)
    return {"rows": len(paths), "cols": len(configs)}


def render_spectrum(spectrum: SweepCell, out_svg: str | Path, out_csv: str | Path) -> dict:
    """SNR-over-frequency line for one (path, configuration) cell."""
    freqs, snr = spectrum.freqs_hz, spectrum.snr.tolist()
    if not snr:
        raise ValueError("no records")
    finite = [s for s in snr if math.isfinite(s)]
    vmax = max(finite) if finite else 1.0
    vmin = min(finite) if finite else 0.0
    if vmax == vmin:
        vmax = vmin + 1.0
    high_y = vmax + 0.08 * (vmax - vmin)

    x0, y0, w, h = 70, 30, 560, 300
    parts = _svg_header(x0 + w + 40, y0 + h + 60)

    def sx(f: float) -> float:
        return x0 + w * (f - freqs[0]) / (freqs[-1] - freqs[0] or 1.0)

    def sy(v: float) -> float:
        return y0 + h - h * (v - vmin) / (high_y - vmin)

    pts = []
    for f, s in zip(freqs, snr):
        if math.isfinite(s):
            pts.append(f"{sx(f):.1f},{sy(s):.1f}")
        elif s == math.inf:
            parts.append(
                f"<circle cx='{sx(f):.1f}' cy='{sy(high_y):.1f}' r='3' fill='#b2182b'/>"
            )
    if pts:
        parts.append(
            f"<polyline points='{' '.join(pts)}' fill='none' stroke='#2166ac' stroke-width='1.5'/>"
        )
    _axes(parts, x0, y0, w, h, "frequency (Hz)", "SNR (dB)")
    for frac in (0.0, 0.5, 1.0):
        f = freqs[0] + frac * (freqs[-1] - freqs[0])
        parts.append(_text(sx(f), y0 + h + 16, f"{f / 1e6:.0f}M", "middle"))
        v = vmin + frac * (high_y - vmin)
        parts.append(_text(x0 - 6, sy(v) + 4, f"{v:.0f}", "end"))
    parts.append(
        _text(x0, y0 - 10, f"path {spectrum.path.index} {spectrum.config.short()}")
    )
    rows = ([f"{freq:.0f}", _snr_label(s)] for freq, s in zip(freqs, snr))
    _write(parts, out_svg, out_csv, ["freq_hz", "snr"], rows)
    return {"points": len(snr)}


def render_ber_curve(points, out_svg: str | Path, out_csv: str | Path) -> dict:
    """BER versus incident power on a log-BER axis.

    ``points`` is a list of dicts with incident_dbm and ber; zero-BER points
    are drawn at the floor of the axis.
    """
    if not points:
        raise ValueError("no records")
    powers = [p["incident_dbm"] for p in points]
    floor = 10 ** math.floor(
        math.log10(min([p["ber"] for p in points if p["ber"] > 0] or [1e-5]))
    )
    x0, y0, w, h = 70, 30, 480, 300
    parts = _svg_header(x0 + w + 40, y0 + h + 60)

    def sx(p: float) -> float:
        lo, hi = min(powers), max(powers)
        return x0 + w * (p - lo) / ((hi - lo) or 1.0)

    def sy(b: float) -> float:
        b = max(b, floor)
        return y0 + h * (math.log10(1.0) - math.log10(b)) / (math.log10(1.0) - math.log10(floor))

    pts = " ".join(f"{sx(p['incident_dbm']):.1f},{sy(p['ber']):.1f}" for p in points)
    parts.append(f"<polyline points='{pts}' fill='none' stroke='#2166ac' stroke-width='1.5'/>")
    for p in points:
        parts.append(
            f"<circle cx='{sx(p['incident_dbm']):.1f}' cy='{sy(p['ber']):.1f}' "
            "r='3' fill='#2166ac'/>"
        )
    _axes(parts, x0, y0, w, h, "incident power (dBm)", "BER")
    for p in (min(powers), max(powers)):
        parts.append(_text(sx(p), y0 + h + 16, f"{p:.0f}", "middle"))
    decade = floor
    while decade <= 1.0:
        parts.append(_text(x0 - 6, sy(decade) + 4, f"{decade:.0e}", "end"))
        decade *= 10
    parts.append(_text(x0, y0 - 10, "measured BER vs incident power"))
    keys = list(points[0].keys())
    _write(parts, out_svg, out_csv, keys, ([p[k] for k in keys] for p in points))
    return {"points": len(points)}


def render_eye(trace, params: DemodParams, out_svg: str | Path, out_csv: str | Path) -> dict:
    """Overlaid two-symbol segments of the waveform ``demodulate`` would
    decode with ``params``, normalized (eye diagram), at most
    ``_EYE_MAX_SEGMENTS`` of them."""
    sps = int(params.samples_per_symbol)
    if len(trace) < 4 * sps:
        raise ValueError("trace too short for an eye diagram")
    scaled = condition(trace, sps, params.dc_window_symbols)
    seg_len = 2 * sps
    n_seg = min(_EYE_MAX_SEGMENTS, (scaled.size - sps) // sps - 1)
    if n_seg < 2:
        raise ValueError("trace too short for an eye diagram")
    lo, hi = float(scaled.min()), float(scaled.max())
    if hi == lo:
        hi = lo + 1.0

    x0, y0, w, h = 70, 30, 420, 280
    parts = _svg_header(x0 + w + 40, y0 + h + 60)

    def sx(i: int) -> float:
        return x0 + w * i / (seg_len - 1)

    def sy(v: float) -> float:
        return y0 + h - h * (v - lo) / (hi - lo)

    segments = []
    for k in range(n_seg):
        seg = scaled[k * sps : k * sps + seg_len]
        if seg.size < seg_len:
            break
        segments.append(seg)
        pts = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(seg))
        parts.append(
            f"<polyline points='{pts}' fill='none' stroke='#2166ac' "
            "stroke-width='0.6' opacity='0.35'/>"
        )
    _axes(parts, x0, y0, w, h, "sample within two symbols", "normalized amplitude")
    parts.append(_text(x0, y0 - 10, f"eye diagram, {len(segments)} segments, sps={sps}"))
    rows = ([k] + [f"{v:.6f}" for v in seg] for k, seg in enumerate(segments))
    _write(parts, out_svg, out_csv, ["segment"] + [f"s{i}" for i in range(seg_len)], rows)
    # The number of whole symbols at phase 0, which slice_bits would decide.
    return {"segments": len(segments), "symbol_means": scaled.size // sps}
