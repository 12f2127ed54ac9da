"""SVG and CSV of the sweep reports on the SNR sentinels: +inf ("high") and
-inf ("none")."""

import math

import pytest

from adcradio.backend import ReceptionPathId
from adcradio.plots import _heat_color, render_heatmap, render_spectrum
from adcradio.sweep import SweepCell, enumerate_configs

CONFIGS = enumerate_configs()[:2]


def cells_of(snrs_by_cell):
    """Cells for {(path index, config index): [SNR per frequency]}, at 100,
    200, ... MHz."""
    return [
        SweepCell(
            ReceptionPathId(path),
            CONFIGS[config],
            tuple(100e6 * (k + 1) for k in range(len(snrs))),
            *([value] * len(snrs) for value in (1.0, 0.0, 1.0, 1.0)),
            list(snrs),
            [False] * len(snrs),
            [None] * len(snrs),
        )
        for (path, config), snrs in snrs_by_cell.items()
    ]


def spectrum_of(snrs):
    (spectrum,) = cells_of({(0, 0): snrs})
    return spectrum


def rendered(tmp_path, render, data):
    svg, csv = tmp_path / "r.svg", tmp_path / "r.csv"
    render(data, svg, csv)
    return svg.read_text().splitlines(), csv.read_text().splitlines()


def cell_rect(x, y, fill):
    return (
        f"<rect x='{x}' y='{y}' width='18' height='18' fill='{fill}' "
        "stroke='#ddd' stroke-width='0.5'/>"
    )


class TestHeatmap:
    def test_high_cells_are_hatched_and_none_cells_white(self, tmp_path):
        # 2 x 2 cells of 18 px from (70, 30): rows are paths, columns configs.
        cells = cells_of(
            {
                (0, 0): [-math.inf, -math.inf],
                (0, 1): [5.0, math.inf],
                (1, 0): [12.5, 3.0],
                (1, 1): [-math.inf, 2.0],
            }
        )
        svg, csv = rendered(tmp_path, render_heatmap, cells)
        assert cell_rect(70, 30, "white") in svg
        assert cell_rect(88, 30, "url(#hatch)") in svg
        assert cell_rect(70, 48, "rgb(178,24,43)") in svg  # the highest finite peak
        assert cell_rect(88, 48, "rgb(33,102,172)") in svg  # the lowest
        assert sum("url(#hatch)" in line for line in svg) == 1
        assert csv == [
            "path_index,config_index,peak_freq_hz,peak_snr",
            "0,0,100000000,none",
            "0,1,200000000,high",
            "1,0,100000000,12.500000",
            "1,1,200000000,2.000000",
        ]

    @pytest.mark.parametrize(
        "value, color",
        [
            (0.0, "rgb(33,102,172)"),
            (0.5, "rgb(254,224,144)"),
            (1.0, "rgb(178,24,43)"),
            (-0.5, "rgb(33,102,172)"),
            (1.5, "rgb(178,24,43)"),
            (math.nan, "rgb(33,102,172)"),
        ],
    )
    def test_the_ramp_meets_its_anchors_and_clamps_to_its_ends(self, value, color):
        assert _heat_color(value, 0.0, 1.0) == color


class TestSpectrum:
    def test_high_is_a_dot_above_the_line_and_none_is_not_drawn(self, tmp_path):
        # 560 x 300 px axes from (70, 30); finite SNRs 3..7 dB, with "high"
        # drawn at 8% of that range above the top.
        svg, csv = rendered(
            tmp_path, render_spectrum, spectrum_of([3.0, math.inf, 7.0, -math.inf])
        )
        assert "<circle cx='256.7' cy='30.0' r='3' fill='#b2182b'/>" in svg
        assert sum(line.startswith("<circle") for line in svg) == 1
        assert (
            "<polyline points='70.0,330.0 443.3,52.2' fill='none' stroke='#2166ac' "
            "stroke-width='1.5'/>"
        ) in svg
        assert csv == [
            "freq_hz,snr",
            "100000000,3.000000",
            "200000000,high",
            "300000000,7.000000",
            "400000000,none",
        ]

    def test_a_flat_spectrum_spans_one_db(self, tmp_path):
        svg, csv = rendered(tmp_path, render_spectrum, spectrum_of([4.0, 4.0]))
        assert (
            "<polyline points='70.0,330.0 630.0,330.0' fill='none' stroke='#2166ac' "
            "stroke-width='1.5'/>"
        ) in svg
        # y ticks at 4, 4.54 and 5.08 dB: the range 4..5 plus the 8% margin.
        ticks = [line for line in svg if "text-anchor='end'" in line]
        assert [t.split(">")[1].split("<")[0] for t in ticks] == ["4", "5", "5"]
        assert not any(line.startswith("<circle") for line in svg)
        assert csv == ["freq_hz,snr", "100000000,4.000000", "200000000,4.000000"]

    def test_no_finite_snr_draws_only_the_high_dots(self, tmp_path):
        svg, csv = rendered(
            tmp_path, render_spectrum, spectrum_of([math.inf, -math.inf, math.inf])
        )
        assert not any(line.startswith("<polyline") for line in svg)
        assert sum(line.startswith("<circle") for line in svg) == 2
        assert csv[1:] == ["100000000,high", "200000000,none", "300000000,high"]
