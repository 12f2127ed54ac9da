"""Command-line behaviors: exit codes, artifacts, determinism; and
`scenario.transmit`, the library call behind `simulate`."""

import json
import os
import subprocess
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import pytest

import adcradio
from adcradio import cli
from adcradio.cli import main
from adcradio.fileio import read_bits, read_records, read_trace, write_trace
from adcradio.plots import render_eye, render_spectrum
from adcradio.protocol import ProtocolError
from adcradio.receiver import DemodParams, _symbol_central_means, condition
from adcradio.scenario import build_rig, config_to_dict, load_scenario, transmit
from adcradio.signals import generate_bits
from adcradio.sweep import (
    classify_sensitive,
    enumerate_configs,
    peak_snr,
    recommended_configs,
    spectra_from_records,
)


@pytest.fixture()
def mini_scenario(tmp_path):
    doc = {
        "schema_version": 1,
        "seed": 42,
        "channel": {"g_tx_dbi": 6.5, "distance_m": 1.0},
        "dut": {
            "n_paths": 2,
            "adc": {"sample_rate_hz": 16000.0, "samples_per_block": 16},
            "default_coupling": {"noise_sigma": 2.0},
            "coupling": [
                {
                    "path": 1,
                    "resonances": [
                        {"center_hz": 500e6, "bandwidth_hz": 60e6, "peak_gain": 30.0}
                    ],
                    "noise_sigma": 2.0,
                }
            ],
        },
        "transmission": {
            "path": 1,
            "config_index": 57,
            "freq_hz": 500e6,
            "power_dbm": 30.0,
            "bit_rate_hz": 1000.0,
            "dc_window_symbols": 41,
        },
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestManifestArgv:
    def test_every_manifest_records_the_argv_given_to_main(
        self, mini_scenario, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(sys, "argv", ["pytest", "-q", "tests/x.py"])
        trace, bits = tmp_path / "t.trace", tmp_path / "t.bits"
        runs = {
            tmp_path / "sweep" / "results.jsonl.manifest.json": [
                "sweep", "--scenario", mini_scenario, "--out", tmp_path / "sweep",
                "--configs", "0", "--freq-points", "2",
            ],
            tmp_path / "t.trace.manifest.json": [
                "simulate", "--scenario", mini_scenario, "--bits", 200, "--out", trace,
            ],
            tmp_path / "d.bits.manifest.json": [
                "demod", "--trace", trace, "--reference", bits, "--out", tmp_path / "d.bits",
            ],
            tmp_path / "eye.svg.manifest.json": [
                "report", "--results", trace, "--kind", "eye", "--out", tmp_path / "eye",
            ],
            tmp_path / "c.json.manifest.json": [
                "ber", "--scenario", mini_scenario, "--bits", 100, "--out", tmp_path / "c.json",
            ],
        }
        for manifest, argv in runs.items():
            argv = [str(a) for a in argv]
            assert main(argv) == 0
            assert json.loads(manifest.read_text())["argv"] == argv


# Each artifact-writing invocation, after the runs that make its inputs.
_SIMULATE = ("simulate", "--scenario", "{scenario}", "--bits", "200", "--out", "t.trace")
_SWEEP = (
    "sweep", "--scenario", "{scenario}", "--out", "sw", "--configs", "0", "--freq-points", "2"
)
_BER = ("ber", "--scenario", "{scenario}", "--bits", "100", "--out", "c.json")
_DEMOD = ("demod", "--trace", "t.trace", "--out", "d.bits")
_WRITING_RUNS = {
    "sweep": [_SWEEP],
    "simulate": [_SIMULATE],
    "demod": [_SIMULATE, _DEMOD],
    "demod-reference": [_SIMULATE, (*_DEMOD, "--reference", "t.bits")],
    "ber-scenario": [_BER],
    "ber-compare": [
        _SIMULATE, _DEMOD,
        ("ber", "--decoded", "d.bits", "--reference", "t.bits", "--out", "r.json"),
    ],
    "report-heatmap": [_SWEEP, ("report", "--results", "sw/results.jsonl", "--kind", "heatmap",
                                "--out", "h")],
    "report-spectrum": [_SWEEP, ("report", "--results", "sw/results.jsonl", "--kind", "spectrum",
                                 "--out", "s")],
    "report-ber-curve": [_BER, ("report", "--results", "c.json", "--kind", "ber-curve",
                                "--out", "bc")],
    "report-eye": [_SIMULATE, ("report", "--results", "t.trace", "--kind", "eye", "--out", "e")],
}


@pytest.mark.parametrize("runs", _WRITING_RUNS.values(), ids=_WRITING_RUNS)
def test_the_manifest_lists_exactly_the_files_a_command_writes(
    mini_scenario, tmp_path, monkeypatch, runs
):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    *setup, last = [[a.format(scenario=mini_scenario) for a in argv] for argv in runs]
    for argv in setup:
        assert main(argv) == 0

    def files():
        return {str(p.relative_to(work)) for p in work.rglob("*") if p.is_file()}

    before = files()
    assert main(last) == 0
    new = files() - before
    (manifest,) = [name for name in new if name.endswith("manifest.json")]
    doc = json.loads((work / manifest).read_text())
    assert doc["command"] == last[0]
    assert (doc["seed"] is None) == (doc["scenario"] is None)  # a seed comes with a scenario
    assert sorted(str(Path(p)) for p in doc["outputs"]) == sorted(new - {manifest})


# Command sequences whose second run once wrote its manifest over the first's.
_SHARED_PREFIX_RUNS = {
    "simulate-demod": [
        ("simulate", "--scenario", "{scenario}", "--bits", "200", "--out", "smoke.trace"),
        ("demod", "--trace", "smoke.trace", "--out", "smoke.dec"),
    ],
    "ber-report": [
        ("ber", "--scenario", "ideal_sync", "--bits", "100", "--out", "smoke_curve.json"),
        ("report", "--results", "smoke_curve.json", "--kind", "ber-curve",
         "--out", "smoke_curve"),
    ],
    "simulate-eye": [
        ("simulate", "--scenario", "{scenario}", "--bits", "200", "--out", "x"),
        ("report", "--results", "x", "--kind", "eye", "--out", "x"),
    ],
}


@pytest.mark.parametrize("runs", _SHARED_PREFIX_RUNS.values(), ids=_SHARED_PREFIX_RUNS)
def test_every_file_is_listed_by_exactly_one_manifest(
    mini_scenario, tmp_path, monkeypatch, runs
):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)

    def manifests():
        return {str(p.relative_to(work)) for p in work.rglob("*manifest.json")}

    writer = {}  # manifest -> the command that first wrote it
    for argv in runs:
        before = manifests()
        assert main([a.format(scenario=mini_scenario) for a in argv]) == 0
        writer.update(dict.fromkeys(manifests() - before, argv[0]))
    files = {str(p.relative_to(work)) for p in work.rglob("*") if p.is_file()}
    listed = []
    for name in manifests():
        doc = json.loads((work / name).read_text())
        assert doc["command"] == writer[name], name
        listed += [str(Path(p)) for p in doc["outputs"]]
    assert sorted(listed) == sorted(files - manifests())


class TestLinkBudget:
    def test_reference_20m_values(self, capsys):
        code = run_cli(
            "linkbudget", "--power-dbm", 43, "--gain-tx", 6.5,
            "--distance", 20, "--freq", 868e6,
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "57.24 dB" in out
        assert "-7.74 dBm" in out

    def test_zero_distance_is_usage_error(self, capsys):
        code = run_cli("linkbudget", "--power-dbm", 0, "--distance", 0, "--freq", 868e6)
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSweepCommand:
    def sweep(self, scenario, out, seed=None, extra=()):
        args = [
            "sweep", "--scenario", scenario, "--out", out,
            "--paths", "all", "--configs", "0,57",
            "--freq-points", "5",
        ]
        if seed is not None:
            args += ["--seed", seed]
        return run_cli(*args, *extra)

    def test_produces_results_and_manifest(self, mini_scenario, tmp_path):
        out = tmp_path / "run1"
        assert self.sweep(mini_scenario, out) == 0
        header, cells = read_records(out / "results.jsonl")
        assert [len(c.freqs_hz) for c in cells] == [5] * (2 * 2)
        manifest = json.loads((out / "results.jsonl.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["seed"] == 42
        assert str(out / "results.jsonl") in manifest["outputs"]

    @pytest.mark.parametrize("extra, threshold", [((), 10.0), (("--threshold-db", "-3.5"), -3.5)])
    def test_manifest_records_the_threshold(self, mini_scenario, tmp_path, extra, threshold):
        # The count of sensitive cells depends on the threshold, and a
        # default threshold is not in argv.
        out = tmp_path / "run"
        assert self.sweep(mini_scenario, out, extra=extra) == 0
        manifest = json.loads((out / "results.jsonl.manifest.json").read_text())
        assert manifest["threshold_db"] == threshold
        records = read_records(out / "results.jsonl")[1]
        spectra = spectra_from_records(records)
        sensitive = [s for s in spectra if classify_sensitive(s, threshold)]
        assert manifest["sensitive_cells"] == len(sensitive)

    def test_same_seed_byte_identical(self, mini_scenario, tmp_path):
        self.sweep(mini_scenario, tmp_path / "a", seed=7)
        self.sweep(mini_scenario, tmp_path / "b", seed=7)
        a = (tmp_path / "a" / "results.jsonl").read_bytes()
        b = (tmp_path / "b" / "results.jsonl").read_bytes()
        assert a == b

    def test_missing_scenario_exit_2(self, tmp_path, capsys):
        code = self.sweep(tmp_path / "ghost.json", tmp_path / "out")
        assert code == 2
        assert "scenario not found" in capsys.readouterr().err

    def test_protocol_failure_exit_1(self, mini_scenario, tmp_path, monkeypatch, capsys):
        def fail(plan, backend, rf_source):
            raise ProtocolError("timed out waiting for response 0001")

        monkeypatch.setattr(cli, "run_sweep", fail)
        assert self.sweep(mini_scenario, tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: timed out waiting for response 0001\n"

    def test_index_lists_pick_the_swept_paths_and_configs(self, mini_scenario, tmp_path):
        out = tmp_path / "p"
        args = ("sweep", "--out", out, "--freq-points", 2)
        assert run_cli(*args, "--scenario", "demo_board", "--paths", "0,3", "--configs", 0) == 0
        _, cells = read_records(out / "results.jsonl")
        assert [(c.path.index, len(c.freqs_hz)) for c in cells] == [(0, 2), (3, 2)]
        assert run_cli(*args, "--scenario", mini_scenario, "--paths", 1, "--configs", "all") == 0
        _, cells = read_records(out / "results.jsonl")
        assert [c.config for c in cells] == enumerate_configs()
        assert {c.path.index for c in cells} == {1}

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--paths", "9", "--paths index 9 outside 0..1"),
            ("--paths", "x", "--paths must be 'all' or comma-separated indices, got 'x'"),
            ("--paths", ",", "--paths is empty"),
            ("--configs", "64", "--configs index 64 outside 0..63"),
            ("--configs", "0,-1", "--configs index -1 outside 0..63"),
            (
                "--configs",
                "1.5",
                "--configs must be 'recommended', 'all' or comma-separated indices, got '1.5'",
            ),
            ("--configs", "", "--configs is empty"),
        ],
    )
    def test_bad_index_list_exit_2(self, mini_scenario, tmp_path, capsys, flag, value, message):
        args = ("sweep", "--scenario", mini_scenario, "--out", tmp_path / "out", flag, value)
        assert run_cli(*args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestSimulateAndDemod:
    def test_round_trip_through_files(self, mini_scenario, tmp_path, capsys):
        trace_path = tmp_path / "link.trace"
        code = run_cli(
            "simulate", "--scenario", mini_scenario, "--bits", 400,
            "--out", trace_path,
        )
        assert code == 0
        trace = read_trace(trace_path)
        assert trace.meta["samples_per_symbol"] == 16
        assert len(trace) == 400 * 16  # payload duration at the ADC rate
        bits_path = trace_path.with_suffix(".bits")
        assert len(read_bits(bits_path)) == 400

        out_bits = tmp_path / "decoded.bits"
        # no --dc-window: the calibrated window must travel in the trace meta
        code = run_cli(
            "demod", "--trace", trace_path, "--out", out_bits,
            "--reference", bits_path,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["error_count"] == 0

    def test_reference_is_read_before_out_is_written(self, mini_scenario, tmp_path, capsys):
        # --out may name the reference: the decode is scored against the
        # reference as it was. A reference longer than the decode writes nothing.
        trace, zeros = tmp_path / "t.trace", tmp_path / "z.bits"
        assert run_cli("simulate", "--scenario", mini_scenario, "--bits", 200, "--out", trace) == 0
        zeros.write_text("0\n" * 200)
        capsys.readouterr()
        assert run_cli("demod", "--trace", trace, "--reference", zeros) == 0
        want = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(want)["error_count"] > 0
        assert run_cli("demod", "--trace", trace, "--reference", zeros, "--out", zeros) == 0
        assert capsys.readouterr().out.splitlines()[-1] == want
        zeros.write_text("0\n" * 1000)
        out = tmp_path / "d.bits"
        assert run_cli("demod", "--trace", trace, "--reference", zeros, "--out", out) == 2
        assert "decoded only 200 bits but reference has 1000" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_trace(self, mini_scenario, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        run_cli("simulate", "--scenario", mini_scenario, "--bits", 100, "--out", a)
        run_cli("simulate", "--scenario", mini_scenario, "--bits", 100, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_bits_header_only(self, mini_scenario, tmp_path):
        out = tmp_path / "empty.trace"
        assert run_cli("simulate", "--scenario", mini_scenario, "--bits", 0, "--out", out) == 0
        assert len(read_trace(out)) == 0

    def test_wrong_trace_schema_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text(json.dumps({"schema_version": 9, "kind": "adc-trace"}) + "\n")
        assert run_cli("demod", "--trace", bad) == 2

    TRACE_HEADER = {
        "schema_version": 1,
        "kind": "adc-trace",
        "resolution_bits": 12,
        "sample_rate_hz": 16000.0,
        "oversampling_ratio": 1,
        "samples_per_block": 16,
        "samples_per_symbol": 16,
    }

    def write_trace_file(self, path, header, bad_code=None):
        # 64 decodable OOK symbols of 16 samples; bad_code replaces line 7
        codes = [2100 if (k * 7) % 3 == 0 else 2000 for k in range(64) for _ in range(16)]
        if bad_code is not None:
            codes[5] = bad_code
        path.write_text(json.dumps(header) + "\n" + "".join(f"{c}\n" for c in codes))

    def test_trace_header_without_sample_rate_exit_2(self, tmp_path, capsys):
        header = {k: v for k, v in self.TRACE_HEADER.items() if k != "sample_rate_hz"}
        bad = tmp_path / "norate.trace"
        self.write_trace_file(bad, header)
        assert run_cli("demod", "--trace", bad) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "sample_rate_hz" in err

    @pytest.mark.parametrize("code", [-7, 99999])
    def test_trace_code_outside_full_scale_exit_2(self, tmp_path, capsys, code):
        good, bad = tmp_path / "good.trace", tmp_path / "range.trace"
        self.write_trace_file(good, self.TRACE_HEADER)
        assert run_cli("demod", "--trace", good) == 0
        self.write_trace_file(bad, self.TRACE_HEADER, bad_code=code)
        assert run_cli("demod", "--trace", bad) == 2
        assert f"{bad}:7: sample {code} outside [0, 4095]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["demod", "eye"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples_per_symbol", [4]),
            ("samples_per_symbol", 2.5),
            ("samples_per_symbol", True),
            ("dc_window_symbols", [4]),
            ("dc_window_symbols", 41.0),
        ],
    )
    def test_non_integer_trace_hint_exit_2(self, tmp_path, capsys, command, field, value):
        bad = tmp_path / "hint.trace"
        self.write_trace_file(bad, {**self.TRACE_HEADER, field: value})
        if command == "demod":
            code = run_cli("demod", "--trace", bad)
        else:
            code = run_cli("report", "--results", bad, "--kind", "eye", "--out", tmp_path / "e")
        assert code == 2
        assert f"trace hint {field} must be an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["demod", "eye"])
    @pytest.mark.parametrize("window", [4, 1, -3])
    def test_out_of_range_dc_window_hint_exit_2(self, tmp_path, capsys, command, window):
        bad = tmp_path / "hint.trace"
        self.write_trace_file(bad, {**self.TRACE_HEADER, "dc_window_symbols": window})
        if command == "demod":
            code = run_cli("demod", "--trace", bad)
        else:
            code = run_cli("report", "--results", bad, "--kind", "eye", "--out", tmp_path / "e")
        assert code == 2
        assert capsys.readouterr().err == "error: dc_window_symbols must be an odd count >= 3\n"

    def test_flag_overrides_a_bad_hint(self, tmp_path):
        bad = tmp_path / "hint.trace"
        self.write_trace_file(bad, {**self.TRACE_HEADER, "samples_per_symbol": 2.5})
        assert run_cli("demod", "--trace", bad, "--samples-per-symbol", 16) == 0
        eye = ("report", "--results", bad, "--kind", "eye", "--out", tmp_path / "e")
        assert run_cli(*eye, "--samples-per-symbol", 16) == 0

    def test_eye_rejects_one_sample_per_symbol(self, tmp_path, capsys):
        trace = tmp_path / "ok.trace"
        self.write_trace_file(trace, self.TRACE_HEADER)
        eye = ("report", "--results", trace, "--kind", "eye", "--out", tmp_path / "e")
        assert run_cli(*eye, "--samples-per-symbol", 1) == 2
        assert "samples_per_symbol must be >= 2" in capsys.readouterr().err

    def test_constant_trace_exit_2(self, tmp_path, capsys):
        # demod decides on the DC-removed signal, which a constant trace
        # leaves without transitions; the eye report scales it first
        trace = tmp_path / "flat.trace"
        trace.write_text(json.dumps(self.TRACE_HEADER) + "\n" + "2000\n" * 1024)
        assert run_cli("demod", "--trace", trace) == 2
        assert "too few transitions" in capsys.readouterr().err
        eye = ("report", "--results", trace, "--kind", "eye", "--out", tmp_path / "e")
        assert run_cli(*eye) == 2
        assert "zero spread" in capsys.readouterr().err

    def test_incompatible_bit_rate_exit_2(self, mini_scenario, tmp_path, capsys):
        code = run_cli(
            "simulate", "--scenario", mini_scenario, "--bits", 10,
            "--bit-rate", 7000.0, "--out", tmp_path / "x.trace",
        )
        assert code == 2
        assert (
            "ADC rate 16000.0 Hz / bit rate 7000.0 Hz must be an integer "
            "samples-per-symbol >= 2, got 2.2857" in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--config-index", 99, "config_index must lie in 0..63, got 99"),
            ("--config-index", -1, "config_index must lie in 0..63, got -1"),
            ("--bit-rate", 0, "bit_rate_hz must be > 0, got 0.0"),
            ("--path", 9, "--path 9 outside 0..1"),
            ("--path", -1, "--path -1 outside 0..1"),
        ],
    )
    def test_bad_transmission_flag_exit_2(self, mini_scenario, tmp_path, capsys, flag, value,
                                          message):
        out = tmp_path / "x.trace"
        code = run_cli("simulate", "--scenario", mini_scenario, "--bits", 10, flag, value,
                       "--out", out)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_out_named_like_the_bits_file_exit_2(self, mini_scenario, tmp_path, capsys):
        # The payload bits go beside the trace, with the suffix .bits; they
        # would overwrite a trace of that name.
        code = run_cli("simulate", "--scenario", mini_scenario, "--bits", 10,
                       "--out", tmp_path / "t.bits")
        assert code == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [mini_scenario]


class TestTransmit:
    """The library call behind `simulate`: it enforces the samples-per-symbol
    rule before it touches the rig."""

    @pytest.mark.parametrize(
        "bit_rate, got", [(7000.0, "got 2.2857"), (16000.0, "got 1.0")]
    )
    def test_bad_samples_per_symbol_is_value_error(self, mini_scenario, bit_rate, got):
        scenario = load_scenario(mini_scenario)
        rig = build_rig(scenario)
        tx = replace(scenario.transmission, bit_rate_hz=bit_rate)
        with pytest.raises(ValueError, match=f"must be an integer samples-per-symbol >= 2, {got}"):
            transmit(scenario, generate_bits(10, 1), rig=rig, tx=tx)
        assert not rig[0].dut.configured


class TestBerCommand:
    def test_compare_mode(self, tmp_path, capsys):
        a = tmp_path / "a.bits"
        b = tmp_path / "b.bits"
        a.write_text("0\n1\n1\n0\n")
        b.write_text("0\n1\n0\n0\n")
        assert run_cli("ber", "--decoded", a, "--reference", b) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["error_count"] == 1
        assert report["ber"] == 0.25

    def test_out_of_range_power_is_runtime_failure(self, mini_scenario, capsys):
        # source limit is 43 dBm: exit code 1, not a usage error
        code = run_cli("ber", "--scenario", mini_scenario, "--powers", "200", "--bits", 100)
        assert code == 1
        assert "power" in capsys.readouterr().err

    def test_curve_mode(self, mini_scenario, tmp_path, capsys):
        out = tmp_path / "curve.json"
        code = run_cli(
            "ber", "--scenario", mini_scenario, "--powers", "10,30",
            "--bits", 300, "--out", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "ber-curve"
        assert len(doc["points"]) == 2
        assert doc["points"][0]["ber"] >= doc["points"][1]["ber"]


class TestReportCommand:
    @pytest.fixture()
    def results(self, mini_scenario, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "sweep", "--scenario", mini_scenario, "--out", out,
            "--configs", "recommended", "--freq-points", "9",
        )
        return out / "results.jsonl"

    def test_heatmap(self, results, tmp_path):
        prefix = tmp_path / "heat"
        assert run_cli("report", "--results", results, "--kind", "heatmap", "--out", prefix) == 0
        svg = (tmp_path / "heat.svg").read_text()
        assert svg.startswith("<svg") and "http" not in svg.split("xmlns")[0]
        rows = (tmp_path / "heat.csv").read_text().splitlines()
        assert rows[0] == "path_index,config_index,peak_freq_hz,peak_snr"
        assert len(rows) == 1 + 2 * 8

    def test_spectrum_defaults_to_best_cell(self, results, tmp_path):
        prefix = tmp_path / "spec"
        assert run_cli("report", "--results", results, "--kind", "spectrum", "--out", prefix) == 0
        rows = (tmp_path / "spec.csv").read_text().splitlines()
        assert len(rows) == 1 + 9
        # the planted 500 MHz resonance is the visible peak (grid is 100 MHz)
        best = max(
            (r.split(",") for r in rows[1:] if not r.endswith(("high", "none"))),
            key=lambda f: float(f[1]),
        )
        assert abs(float(best[0]) - 500e6) <= 100e6

    def test_spectrum_config_index_without_path(self, results, tmp_path, capsys):
        # --config-index alone picks the best spectrum of that configuration
        # (indices count configurations in order of first appearance).
        config = recommended_configs()[5]
        spectra = [s for s in spectra_from_records(read_records(results)[1]) if s.config == config]
        best = max(spectra, key=lambda s: peak_snr(s)[1])
        prefix = tmp_path / "spec5"
        args = ("report", "--results", results, "--kind", "spectrum", "--out", prefix)
        assert run_cli(*args, "--config-index", 5) == 0
        svg = (tmp_path / "spec5.svg").read_text()
        assert f"path {best.path.index} {config.short()}" in svg
        assert run_cli(*args, "--config-index", 99) == 2
        assert "no spectrum matches" in capsys.readouterr().err

    def test_spectrum_of_one_path(self, results, tmp_path, capsys):
        # --path alone takes that path's first spectrum; with --config-index,
        # the one of that configuration.
        spectra = spectra_from_records(read_records(results)[1])
        args = ("report", "--results", results, "--kind", "spectrum")
        for extra, want in (
            (("--path", 1), spectra[8]),
            (("--path", 1, "--config-index", 5), spectra[13]),
            (("--path", 0, "--config-index", 2), spectra[2]),
        ):
            prefix = tmp_path / "spec"
            assert run_cli(*args, "--out", prefix, *extra) == 0
            render_spectrum(want, tmp_path / "ref.svg", tmp_path / "ref.csv")
            assert (tmp_path / "spec.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()
            assert (tmp_path / "spec.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
            assert f"path {extra[1]} {want.config.short()}" in (tmp_path / "spec.svg").read_text()
        assert run_cli(*args, "--out", tmp_path / "none", "--path", 2) == 2
        assert "no spectrum matches --path/--config-index" in capsys.readouterr().err

    def test_eye_uses_the_trace_dc_window(self, tmp_path):
        # link_3m traces carry a 41-symbol DC window hint; the eye must be
        # conditioned like the decode, not with the default 15.
        trace_path = tmp_path / "l3.trace"
        assert run_cli("simulate", "--scenario", "link_3m", "--bits", 600, "--out", trace_path) == 0
        trace = read_trace(trace_path)
        assert trace.meta["dc_window_symbols"] == 41
        args = ("report", "--results", trace_path, "--kind", "eye", "--out", tmp_path / "eye")
        assert run_cli(*args) == 0
        sps = trace.meta["samples_per_symbol"]
        render_eye(trace, DemodParams(sps, 41), tmp_path / "ref.svg", tmp_path / "ref.csv")
        assert (tmp_path / "eye.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_spectrum_rejects_non_finite_db(self, results, tmp_path, capsys):
        lines = results.read_text().splitlines()
        record = json.loads(lines[1])
        record["snr"] = {"db": float("inf")}
        bad = tmp_path / "inf.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
        args = ("report", "--results", bad, "--kind", "spectrum", "--out", tmp_path / "s")
        assert run_cli(*args) == 2
        assert "bad serialized SNR" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("extra", [0, 5])
    def test_eye_counts_the_symbols_slice_bits_decides(self, mini_scenario, tmp_path, extra):
        # symbol_means is the number of central means at phase 0, for a
        # trace that is, and one that is not, a whole number of symbols.
        trace_path = tmp_path / "eye.trace"
        run_cli("simulate", "--scenario", mini_scenario, "--bits", 200, "--out", trace_path)
        trace = read_trace(trace_path)
        sps = trace.meta["samples_per_symbol"]
        trace = replace(trace, samples=trace.samples[: 150 * sps + extra])
        write_trace(trace_path, trace)
        args = ("report", "--results", trace_path, "--kind", "eye", "--out", tmp_path / "e")
        assert run_cli(*args) == 0
        manifest = json.loads((tmp_path / "e.svg.manifest.json").read_text())
        means = _symbol_central_means(condition(trace, sps, 41), 0.0, sps)
        assert manifest["symbol_means"] == means.size == 150

    def test_eye_from_trace(self, mini_scenario, tmp_path):
        trace_path = tmp_path / "eye.trace"
        run_cli("simulate", "--scenario", mini_scenario, "--bits", 200, "--out", trace_path)
        prefix = tmp_path / "eye"
        assert run_cli("report", "--results", trace_path, "--kind", "eye", "--out", prefix) == 0
        assert (tmp_path / "eye.svg").exists()
        assert (tmp_path / "eye.csv").exists()

    def test_ber_curve_report(self, mini_scenario, tmp_path):
        curve = tmp_path / "curve.json"
        run_cli("ber", "--scenario", mini_scenario, "--powers", "10,30", "--bits", 200, "--out", curve)
        prefix = tmp_path / "bercurve"
        assert run_cli("report", "--results", curve, "--kind", "ber-curve", "--out", prefix) == 0
        assert (tmp_path / "bercurve.svg").exists()

    CURVE = {
        "kind": "ber-curve",
        "schema_version": 1,
        "points": [
            {"power_dbm": 20.0, "incident_dbm": -4.1, "bits": 100, "errors": 9, "ber": 0.09},
            {"power_dbm": 24.7, "incident_dbm": 0.6, "bits": 100, "errors": 1, "ber": 0.01},
        ],
    }

    def report_ber_curve(self, tmp_path, doc):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        code = run_cli("report", "--results", path, "--kind", "ber-curve", "--out", tmp_path / "b")
        assert not (tmp_path / "b.svg").exists()
        return code, path

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d["points"][0].pop("incident_dbm"), "point 0: lacks 'incident_dbm'"),
            (
                lambda d: d["points"][1].update(incident_dbm=float("nan")),
                "point 1: incident_dbm must be a finite number, got nan",
            ),
            (lambda d: d["points"][1].pop("ber"), "point 1: lacks 'ber'"),
            (
                lambda d: d["points"][0].update(ber=float("inf")),
                "point 0: ber must be a finite number, got inf",
            ),
            (lambda d: d.update(schema_version=99), "unsupported ber-curve schema_version 99"),
        ],
        ids=["no-incident", "nan-incident", "no-ber", "inf-ber", "version-99"],
    )
    def test_bad_ber_curve_exit_2(self, tmp_path, capsys, change, message):
        doc = json.loads(json.dumps(self.CURVE))
        change(doc)
        code, path = self.report_ber_curve(tmp_path, doc)
        assert code == 2
        assert f"error: {path}: " in (err := capsys.readouterr().err) and message in err

    def test_ber_curve_root_must_be_an_object_exit_2(self, tmp_path, capsys):
        code, path = self.report_ber_curve(tmp_path, [self.CURVE])
        assert code == 2
        assert f"{path}: bad ber-curve header: not a JSON object" in capsys.readouterr().err

    def test_empty_results_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(json.dumps({"schema_version": 1, "kind": "sensitivity-records"}) + "\n")
        code = run_cli("report", "--results", empty, "--kind", "heatmap", "--out", tmp_path / "x")
        assert code == 2
        assert "no records" in capsys.readouterr().err

    def test_empty_ber_curve_exit_2(self, tmp_path, capsys):
        code, _ = self.report_ber_curve(tmp_path, dict(self.CURVE, points=[]))
        assert code == 2
        assert "no records" in capsys.readouterr().err

    def test_non_object_results_header_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "list.jsonl"
        bad.write_text("[1, 2]\n")
        code = run_cli("report", "--results", bad, "--kind", "heatmap", "--out", tmp_path / "x")
        assert code == 2
        assert "not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"path": {"index": "4", "label": "P4"}}, "path index must be an integer, got '4'"),
            ({"path": {"index": 4, "label": 7}}, "path label must be a string, got 7"),
            ({"diff": 5.0}, "diff must be mean_on - mean_off, got 5.0"),
            (
                {"failed": True, "error": "x"},
                'statistics must be null and snr "none" on a failed record, '
                "got (2048.0, 2048.0, 0.0, 0.5) and 'none'",
            ),
            ({"snr": {"db": 99.0}}, "snr must be 'none' from diff and var_off, got {'db': 99.0}"),
            (
                {"config": {"mode": "analog", "pupd": "none", "output_value": "low",
                            "output_type": "push_pull", "bogus": 1}},
                "unknown keys ['bogus']",
            ),
        ],
    )
    def test_bad_record_field_exit_2(self, tmp_path, capsys, field, message):
        record = {
            "path": {"index": 4, "label": "P4"},
            "config": {"mode": "analog", "pupd": "none", "output_value": "low",
                       "output_type": "push_pull"},
            "freq_hz": 2e8, "mean_on": 2048.0, "mean_off": 2048.0, "diff": 0.0,
            "var_off": 0.5, "snr": "none", **field,
        }
        bad = tmp_path / "results.jsonl"
        header = {"schema_version": 1, "kind": "sensitivity-records"}
        bad.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        code = run_cli("report", "--results", bad, "--kind", "heatmap", "--out", tmp_path / "x")
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert f"{bad}:2: bad sensitivity record " in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("sweep", "--freq-start", "nan"),
        ("sweep", "--freq-stop", "inf"),
        ("sweep", "--power-dbm", "nan"),
        ("sweep", "--power-dbm", "inf"),
        ("sweep", "--threshold-db", "nan"),
        ("linkbudget", "--power-dbm", "nan"),
        ("linkbudget", "--gain-tx", "nan"),
        ("linkbudget", "--gain-rx", "inf"),
        ("linkbudget", "--distance", "nan"),
        ("linkbudget", "--freq", "nan"),
        ("linkbudget", "--freq", "1e999"),
        ("simulate", "--bit-rate", "nan"),
        ("simulate", "--freq", "inf"),
        ("simulate", "--power-dbm", "nan"),
        ("ber", "--powers", "nan"),
        ("ber", "--powers", "1,-inf"),
    ],
)
def test_non_finite_float_flag_is_usage_error(mini_scenario, tmp_path, monkeypatch, capsys,
                                              command, flag, value):
    monkeypatch.chdir(tmp_path)
    base = {
        "sweep": ("--scenario", mini_scenario, "--out", "out", "--freq-points", 2),
        "linkbudget": ("--power-dbm", 0, "--distance", 1, "--freq", 868e6),
        "simulate": ("--scenario", mini_scenario, "--bits", 10, "--out", "out.trace"),
        "ber": ("--scenario", mini_scenario, "--bits", 10, "--out", "out.json"),
    }[command]
    # The flag comes last, so it overrides a required flag that base gives.
    assert run_cli(command, *base, flag, value) == 2
    captured = capsys.readouterr()
    got = float(value.split(",")[-1])
    assert captured.err == f"error: {flag} must be a finite number, got {got}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.json"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("sweep", ("--out", "sweep_out")),
        ("ber", ("--bits", 10)),
        ("simulate", ("--bits", 10, "--out", "x.trace")),
        ("protocol-loopback", ()),
    ],
)
def test_negative_seed_is_usage_error(mini_scenario, tmp_path, monkeypatch, capsys, command,
                                      flags):
    monkeypatch.chdir(tmp_path)
    code = run_cli(command, "--scenario", mini_scenario, "--seed", -1, *flags)
    assert code == 2
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err


class TestProtocolLoopbackCommand:
    def test_loopback_identical(self, mini_scenario, capsys):
        assert run_cli("protocol-loopback", "--scenario", mini_scenario) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_loopback_reports_the_link_counters(self, mini_scenario, capsys):
        assert run_cli("protocol-loopback", "--scenario", mini_scenario) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("; 0 retries, 0 timeouts, 0 stale lines dropped")


class TestBundledScenarioNames:
    def test_bundled_name_resolution(self, tmp_path):
        out = tmp_path / "demo.trace"
        code = run_cli("simulate", "--scenario", "link_3m", "--bits", 50, "--out", out)
        assert code == 0

    def test_runs_from_a_zipped_package(self, tmp_path):
        # A zip import reads the bundled scenarios through importlib.resources;
        # no file of them exists on disk.
        package = Path(adcradio.__file__).parent
        archive = tmp_path / "adcradio.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for file in sorted(package.rglob("*")):
                if file.is_file() and "__pycache__" not in file.parts:
                    zf.write(file, Path("adcradio") / file.relative_to(package))
        env = {**os.environ, "PYTHONPATH": str(archive)}
        result = subprocess.run(
            [sys.executable, "-m", "adcradio.cli", "protocol-loopback", "--scenario", "link_3m"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "loopback OK" in result.stdout


class TestScenarioFieldTypes:
    """A scenario field of the wrong JSON type is a usage error naming it."""

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d["dut"].update(n_paths="3"), "dut.n_paths must be an integer, got '3'"),
            (lambda d: d.update(seed="7"), "seed must be an integer, got '7'"),
            (
                lambda d: d["dut"]["coupling"][0].update(noise_sigma="14"),
                "dut.coupling[0].noise_sigma must be a finite number, got '14'",
            ),
            (
                lambda d: d["dut"]["coupling"][0]["resonances"][0].update(center_hz="4.3e8"),
                "dut.coupling[0].resonances[0].center_hz must be a finite number, got '4.3e8'",
            ),
            (
                lambda d: d["dut"]["coupling"][0].update(drift={"walk_step": True}),
                "dut.coupling[0].drift.walk_step must be a finite number, got True",
            ),
            (
                lambda d: d["dut"]["default_coupling"].update(noise_sigma=float("nan")),
                "dut.default_coupling.noise_sigma must be a finite number, got nan",
            ),
            (
                lambda d: d["channel"].update(distance_m=float("inf")),
                "channel.distance_m must be a finite number, got inf",
            ),
            (
                lambda d: d["dut"]["coupling"][0].update(config=5),
                "dut.coupling[0].config: bad path configuration 5",
            ),
            (
                lambda d: d["dut"]["coupling"][0]["resonances"][0].update(q=5.0),
                "dut.coupling[0].resonances[0]: unknown keys ['q']",
            ),
            (lambda d: d.update(schema_version=True), "schema_version True"),
            (lambda d: d.update(schema_version=1.0), "schema_version 1.0"),
            (
                lambda d: d["transmission"].update(config_index=64),
                "transmission: config_index must lie in 0..63, got 64",
            ),
            (
                lambda d: d["transmission"].update(bit_rate_hz=0),
                "transmission: bit_rate_hz must be > 0, got 0.0",
            ),
            (
                lambda d: d["transmission"].update(dc_window_symbols=40),
                "transmission: dc_window_symbols must be an odd count >= 3, got 40",
            ),
            (
                lambda d: d["transmission"].update(path=2),
                "transmission.path: path 2 outside 0..1",
            ),
            (lambda d: d.update(seed=-1), "seed: must be >= 0, got -1"),
            (
                lambda d: d["dut"]["coupling"][0].update(
                    config={**config_to_dict(recommended_configs()[0]), "bogus": 1}
                ),
                "unknown keys ['bogus']",
            ),
        ],
    )
    def test_bad_field_exit_2(self, mini_scenario, tmp_path, capsys, change, message):
        doc = json.loads(mini_scenario.read_text())
        change(doc)
        mini_scenario.write_text(json.dumps(doc))
        out = tmp_path / "x.trace"
        assert run_cli("simulate", "--scenario", mini_scenario, "--bits", 10, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRfSourceLimits:
    """RF source limits that no stimulus can meet are a usage error naming
    ``rf_source`` when the scenario loads, not a failure of the run."""

    @pytest.mark.parametrize(
        "limits, message",
        [
            (
                {"min_power_dbm": 50.0, "max_power_dbm": 10.0},
                "rf_source: min_power_dbm 50.0 exceeds max_power_dbm 10.0",
            ),
            (
                {"min_freq_hz": -1e6},
                "rf_source: need 0 < min_freq_hz <= max_freq_hz, got -1000000.0 and 6000000000.0",
            ),
            (
                {"min_freq_hz": 7e9},
                "rf_source: need 0 < min_freq_hz <= max_freq_hz, got 7000000000.0 and 6000000000.0",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--paths", "all", "--configs", "0", "--freq-points", "2"],
            ["ber", "--powers", "10", "--bits", "100"],
        ],
    )
    def test_exit_2(self, mini_scenario, tmp_path, capsys, limits, message, command):
        doc = json.loads(mini_scenario.read_text())
        doc["rf_source"] = limits
        mini_scenario.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli(*command, "--scenario", mini_scenario, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestDeeplyNestedJson:
    """JSON nested past the parser's recursion limit is a usage error naming
    the file, not a RecursionError traceback."""

    DEEP = "[" * 200_000 + "]" * 200_000

    def test_results_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.jsonl"
        header = {"schema_version": 1, "kind": "sensitivity-records"}
        bad.write_text(json.dumps(header) + "\n" + self.DEEP + "\n")
        code = run_cli("report", "--results", bad, "--kind", "heatmap", "--out", tmp_path / "x")
        assert code == 2
        assert f"{bad}:2: JSON nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["line", "field"])
    def test_bad_record_quotes_a_bounded_excerpt(self, tmp_path, capsys, where):
        # 900 levels parse, but the record they make is refused; the message
        # names the line and quotes a bounded part of the value.
        deep = "[" * 900 + "]" * 900
        line = deep if where == "line" else '{"path": {"index": ' + deep + "}}"
        bad = tmp_path / "deep.jsonl"
        header = {"schema_version": 1, "kind": "sensitivity-records"}
        bad.write_text(json.dumps(header) + "\n" + line + "\n")
        code = run_cli("report", "--results", bad, "--kind", "heatmap", "--out", tmp_path / "x")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: bad sensitivity record ")
        assert len(err) < len(str(bad)) + 400

    def test_trace_header_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.trace"
        bad.write_text(self.DEEP + "\n2048\n")
        assert run_cli("demod", "--trace", bad) == 2
        assert f"{bad}: bad trace header: JSON nested too deeply" in capsys.readouterr().err

    def test_scenario_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text(self.DEEP)
        out = tmp_path / "x.trace"
        assert run_cli("simulate", "--scenario", bad, "--bits", 10, "--out", out) == 2
        assert f"{bad}: JSON nested too deeply" in capsys.readouterr().err
        assert not out.exists()


class TestReaderPaths:
    """Every reader opens its file one way: a directory is not found, and a
    trace header that is not JSON says so."""

    def test_directory_as_results_exit_2(self, tmp_path, capsys):
        code = run_cli("report", "--results", tmp_path, "--kind", "heatmap", "--out", tmp_path / "x")
        assert code == 2
        assert f"results not found: {tmp_path}" in capsys.readouterr().err

    def test_directory_as_trace_exit_2(self, tmp_path, capsys):
        assert run_cli("demod", "--trace", tmp_path) == 2
        assert f"trace not found: {tmp_path}" in capsys.readouterr().err

    def test_trace_header_not_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("adc-trace\n2048\n")
        assert run_cli("demod", "--trace", bad) == 2
        err = capsys.readouterr().err
        assert f"{bad}: bad trace header: invalid JSON: Expecting value: line 1 column 1" in err


class TestUndecodableBytes:
    """A byte that is not UTF-8 in a file the CLI reads is a usage error
    naming the file and line, not the codec's message alone."""

    def test_results_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "results.jsonl"
        header = {"schema_version": 1, "kind": "sensitivity-records"}
        bad.write_bytes(json.dumps(header).encode() + b"\n\xff\xfe\n")
        code = run_cli("report", "--results", bad, "--kind", "heatmap", "--out", tmp_path / "x")
        assert code == 2
        assert f"{bad}:2: not UTF-8 text: byte 0xFF at column 1" in capsys.readouterr().err

    def test_trace_header_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        header = json.dumps({"schema_version": 1, "kind": "adc-trace", "label": "x"})
        bad.write_bytes(header.replace("x", "\xff").encode("latin-1") + b"\n2048\n")
        assert run_cli("demod", "--trace", bad) == 2
        column = header.index("x") + 1
        err = capsys.readouterr().err
        assert f"{bad}:1: not UTF-8 text: byte 0xFF at column {column}" in err

    def test_ber_curve_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "curve.json"
        bad.write_bytes(b'{"kind": "ber-curve",\n "schema_version": 1, "x": "\xff"}\n')
        code = run_cli("report", "--results", bad, "--kind", "ber-curve", "--out", tmp_path / "x")
        assert code == 2
        assert f"{bad}:2: not UTF-8 text: byte 0xFF at column 29" in capsys.readouterr().err

    def test_bits_line_exit_2(self, mini_scenario, tmp_path, capsys):
        trace = tmp_path / "link.trace"
        assert run_cli("simulate", "--scenario", mini_scenario, "--bits", 200, "--out", trace) == 0
        bad = tmp_path / "bad.bits"
        bad.write_bytes(b"0\n\xff\n1\n")
        assert run_cli("demod", "--trace", trace, "--reference", bad) == 2
        assert f"{bad}:2: not UTF-8 text: byte 0xFF at column 1" in capsys.readouterr().err


    def test_scenario_line_exit_2(self, mini_scenario, tmp_path, capsys):
        # The byte follows a two-byte UTF-8 character on its line: the
        # column counts characters, as in the other readers.
        lines = json.dumps(json.loads(mini_scenario.read_text()), indent=1).encode().split(b"\n")
        assert lines[2] == b' "seed": 42,'
        lines[2] = b' "seed": "4\xc3\xa92\xff",'
        mini_scenario.write_bytes(b"\n".join(lines))
        out = tmp_path / "x.trace"
        assert run_cli("simulate", "--scenario", mini_scenario, "--bits", 10, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{mini_scenario}:3: not UTF-8 text: byte 0xFF at column 14" in err
        assert not out.exists()


class TestBundledLinkReproduction:
    """The shipped near/far scenarios decode as calibrated, end to end
    through the file-based CLI workflow."""

    def decode(self, name, tmp_path, capsys):
        trace = tmp_path / f"{name}.trace"
        assert run_cli("simulate", "--scenario", name, "--bits", 12565, "--out", trace) == 0
        capsys.readouterr()
        code = run_cli(
            "demod", "--trace", trace,
            "--reference", trace.with_suffix(".bits"),
            "--out", tmp_path / f"{name}.decoded",
        )
        assert code == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    def test_3m_trace_error_free(self, tmp_path, capsys):
        report = self.decode("link_3m", tmp_path, capsys)
        assert report["error_count"] == 0

    def test_20m_trace_ber_band(self, tmp_path, capsys):
        report = self.decode("link_20m", tmp_path, capsys)
        assert 0.03 <= report["ber"] <= 0.10
