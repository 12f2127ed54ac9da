"""Trace/results/bits file formats and scenario documents."""

import json
import math
import re

import numpy as np
import pytest

from adcradio.backend import ReceptionPathId
from adcradio.fileio import (
    FileFormatError,
    read_bits,
    read_records,
    read_trace,
    write_bits,
    write_records,
    write_trace,
)
from adcradio.scenario import (
    ScenarioError,
    bundled_scenario_path,
    build_rig,
    config_to_dict,
    load_scenario,
    scenario_from_dict,
    save_scenario,
)
from adcradio.signals import generate_bits
from adcradio.simulator import AdcConfig, AdcTrace
from adcradio.sweep import SensitivityRecord, enumerate_configs


def minimal_scenario_doc(**overrides):
    doc = {
        "schema_version": 1,
        "seed": 5,
        "dut": {
            "n_paths": 2,
            "adc": {"sample_rate_hz": 10000.0, "samples_per_block": 8},
            "default_coupling": {"noise_sigma": 1.0},
        },
    }
    doc.update(overrides)
    return doc


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        trace = AdcTrace(
            samples=np.array([0, 17, 4095, 2048], np.int32),
            config=AdcConfig(samples_per_block=4),
            meta={"path": 3, "seed": 9},
        )
        path = tmp_path / "t.trace"
        write_trace(path, trace, extra_meta={"samples_per_symbol": 2})
        back = read_trace(path)
        np.testing.assert_array_equal(back.samples, trace.samples)
        assert back.config == trace.config
        assert back.meta["path"] == 3
        assert back.meta["samples_per_symbol"] == 2

    def test_lf_terminated_decimal_lines(self, tmp_path):
        trace = AdcTrace(samples=np.array([1, 2], np.int32), config=AdcConfig())
        path = tmp_path / "t.trace"
        write_trace(path, trace)
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[1:] == ["1", "2"]

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(json.dumps({"schema_version": 99, "kind": "adc-trace"}) + "\n1\n")
        with pytest.raises(FileFormatError, match="schema_version"):
            read_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="not found"):
            read_trace(tmp_path / "nope.trace")

    HEADER = {
        "schema_version": 1,
        "kind": "adc-trace",
        "resolution_bits": 12,
        "sample_rate_hz": 1000.0,
        "oversampling_ratio": 1,
        "samples_per_block": 4,
    }

    def test_garbage_sample_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(json.dumps(self.HEADER) + "\n12\nxyz\n")
        with pytest.raises(FileFormatError, match="invalid sample"):
            read_trace(path)

    @pytest.mark.parametrize(
        "field",
        ["resolution_bits", "sample_rate_hz", "oversampling_ratio", "samples_per_block"],
    )
    def test_missing_adc_field_named(self, tmp_path, field):
        path = tmp_path / "bad.trace"
        header = {k: v for k, v in self.HEADER.items() if k != field}
        path.write_text(json.dumps(header) + "\n1\n")
        with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: .*{field}"):
            read_trace(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("resolution_bits", 12.5),
            ("resolution_bits", "12"),
            ("resolution_bits", True),
            ("resolution_bits", 40),
            ("sample_rate_hz", float("nan")),
            ("sample_rate_hz", None),
            ("sample_rate_hz", -1.0),
            ("oversampling_ratio", 3),
            ("samples_per_block", 0),
        ],
    )
    def test_invalid_adc_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "bad.trace"
        path.write_text(json.dumps({**self.HEADER, field: value}) + "\n1\n")
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            read_trace(path)

    def test_codes_must_lie_in_full_scale(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(json.dumps({**self.HEADER, "resolution_bits": 8}) + "\n0\n255\n")
        assert read_trace(path).samples.tolist() == [0, 255]
        path.write_text(json.dumps({**self.HEADER, "resolution_bits": 8}) + "\n0\n\n256\n")
        with pytest.raises(FileFormatError, match=r"t\.trace:4: sample 256 outside \[0, 255\]"):
            read_trace(path)


class TestResultsFiles:
    def make_records(self):
        cfg = enumerate_configs()[57]
        path = ReceptionPathId(4, "P4")
        return [
            SensitivityRecord(path, cfg, 2e8, 2050.0, 2048.0, 2.0, 0.5, 9.0),
            SensitivityRecord(path, cfg, 3e8, 2060.0, 2048.0, 12.0, 0.0, math.inf),
            SensitivityRecord(path, cfg, 4e8, 2048.0, 2048.0, 0.0, 0.0, -math.inf),
            SensitivityRecord(
                path, cfg, 5e8, None, None, None, None, -math.inf,
                failed=True, error="injected",
            ),
        ]

    def test_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "results.jsonl"
        write_records(path, records, header_extra={"seed": 5})
        header, back = read_records(path)
        assert header["schema_version"] == 1
        assert header["seed"] == 5
        assert len(back) == 4
        assert [r.snr for r in back] == [9.0, math.inf, -math.inf, -math.inf]
        assert back[3].failed and back[3].error == "injected"
        assert back[0].config == records[0].config

    def test_snr_encoding_on_the_wire(self, tmp_path):
        path = tmp_path / "results.jsonl"
        write_records(path, self.make_records())
        lines = path.read_text().splitlines()
        assert json.loads(lines[1])["snr"] == {"db": 9.0}
        assert json.loads(lines[2])["snr"] == "high"
        assert json.loads(lines[3])["snr"] == "none"

    @pytest.mark.parametrize("db", ["Infinity", "-Infinity", "NaN", "true", '"9.0"'])
    def test_non_finite_db_rejected(self, tmp_path, db):
        record = {
            "path": {"index": 4, "label": "P4"},
            "config": config_to_dict(enumerate_configs()[57]),
            "freq_hz": 2e8,
            "mean_on": 2050.0,
            "mean_off": 2048.0,
            "diff": 2.0,
            "var_off": 0.5,
            "snr": "@",
        }
        path = tmp_path / "results.jsonl"
        header = {"schema_version": 1, "kind": "sensitivity-records"}
        line = json.dumps(record).replace('"@"', f'{{"db": {db}}}')
        path.write_text(json.dumps(header) + "\n" + line + "\n")
        with pytest.raises(FileFormatError, match="bad serialized SNR"):
            read_records(path)

    def test_schema_version_is_first_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        write_records(path, [])
        first = json.loads(path.read_text().splitlines()[0])
        assert first["schema_version"] == 1

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps({"schema_version": 1, "kind": "something"}) + "\n")
        with pytest.raises(FileFormatError, match="not a results file"):
            read_records(path)


class TestBitsFiles:
    def test_round_trip(self, tmp_path):
        bits = generate_bits(100, seed=3)
        path = tmp_path / "payload.bits"
        write_bits(path, bits)
        assert read_bits(path) == bits

    def test_rejects_non_binary_lines(self, tmp_path):
        path = tmp_path / "bad.bits"
        path.write_text("0\n1\n2\n")
        with pytest.raises(FileFormatError, match="expected 0 or 1"):
            read_bits(path)


class TestScenario:
    def test_minimal_document(self):
        s = scenario_from_dict(minimal_scenario_doc())
        assert s.n_paths == 2
        assert s.adc.samples_per_block == 8
        assert s.default_model.noise_sigma == 1.0

    def test_round_trip(self, tmp_path):
        s = load_scenario(bundled_scenario_path("link_20m"))
        path = tmp_path / "copy.json"
        save_scenario(s, path)
        again = load_scenario(path)
        assert again.n_paths == s.n_paths
        assert again.coupling == s.coupling
        assert again.adc == s.adc
        assert again.transmission == s.transmission

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "ghost.json")

    def test_bad_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict(minimal_scenario_doc(schema_version=3))

    def test_unknown_coupling_keys_rejected(self):
        doc = minimal_scenario_doc()
        doc["dut"]["coupling"] = [{"path": 0, "resonance_gain": 5}]
        with pytest.raises(ScenarioError, match="unknown keys"):
            scenario_from_dict(doc)

    def test_out_of_range_path_rejected(self):
        doc = minimal_scenario_doc()
        doc["dut"]["coupling"] = [{"path": 7, "noise_sigma": 1.0}]
        with pytest.raises(ScenarioError, match="outside"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "abc"),
            ("seed", 1.5),
            ("seed", None),
            ("dut.n_paths", "two"),
            ("dut.n_paths", True),
            ("dut.coupling[0].path", "x"),
            ("dut.coupling[0].path", 0.5),
        ],
    )
    def test_non_integer_field_named(self, field, value):
        doc = minimal_scenario_doc()
        doc["dut"]["coupling"] = [{"path": 0, "noise_sigma": 1.0}]
        if field == "seed":
            doc["seed"] = value
        elif field == "dut.n_paths":
            doc["dut"]["n_paths"] = value
        else:
            doc["dut"]["coupling"][0]["path"] = value
        with pytest.raises(ScenarioError, match=rf"^{re.escape(field)}: expected an integer"):
            scenario_from_dict(doc)

    def test_zero_paths_rejected(self):
        doc = minimal_scenario_doc()
        doc["dut"]["n_paths"] = 0
        with pytest.raises(ScenarioError, match="dut.n_paths: must be >= 1"):
            scenario_from_dict(doc)

    def test_extra_path_labels_rejected(self):
        doc = minimal_scenario_doc()
        doc["dut"]["path_labels"] = ["PA0", "PA1", "PA2", "PA3"]
        with pytest.raises(ScenarioError, match="dut.path_labels: 4 labels for 2 paths"):
            scenario_from_dict(doc)
        doc["dut"]["path_labels"] = ["PA0", "PA1"]
        assert scenario_from_dict(doc).path_labels == ("PA0", "PA1")

    def test_path_labels_must_be_strings(self):
        doc = minimal_scenario_doc()
        doc["dut"]["path_labels"] = "PA0"
        with pytest.raises(ScenarioError, match="dut.path_labels"):
            scenario_from_dict(doc)

    def test_config_specific_entry(self):
        doc = minimal_scenario_doc()
        doc["dut"]["coupling"] = [
            {
                "path": 1,
                "config": {
                    "mode": "analog",
                    "pupd": "pull_up",
                    "output_value": "low",
                    "output_type": "open_drain",
                },
                "noise_sigma": 2.0,
            }
        ]
        s = scenario_from_dict(doc)
        ((key, model),) = s.coupling.items()
        assert key[0] == 1 and key[1] is not None
        assert model.noise_sigma == 2.0

    def test_build_rig_reproducible(self):
        s = load_scenario(bundled_scenario_path("link_3m"))
        backend_a, _ = build_rig(s)
        backend_b, _ = build_rig(s)
        assert backend_a.dut.seed == backend_b.dut.seed == s.seed

    def test_bundled_unknown_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            bundled_scenario_path("does_not_exist")
