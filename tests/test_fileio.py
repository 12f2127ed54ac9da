"""Trace/results/bits file formats and scenario documents."""

import copy
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from adcradio.backend import ReceptionPathId
from adcradio.fileio import (
    FileFormatError,
    read_ber_curve,
    read_bits,
    read_records,
    read_trace,
    record_line,
    record_to_dict,
    write_ber_curve,
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
)
from adcradio.signals import generate_bits
from adcradio.simulator import AdcConfig, AdcTrace
from adcradio.sweep import SensitivityRecord, SweepPlan, enumerate_configs, run_sweep


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
        for version in (99, True, 1.0):
            header = {**self.HEADER, "schema_version": version}
            path.write_text(json.dumps(header) + "\n1\n")
            message = f"schema_version {re.escape(repr(version))}$"
            with pytest.raises(FileFormatError, match=message):
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
            pytest.param("resolution_bits", 10**400, id="resolution_bits-1e400"),
            pytest.param("sample_rate_hz", 10**400, id="sample_rate_hz-1e400"),
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

    @pytest.mark.parametrize(
        "db",
        [
            "Infinity", "-Infinity", "NaN", "true", '"9.0"',
            pytest.param("1" + "0" * 400, id="1e400"),
        ],
    )
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

    @pytest.mark.parametrize("version", [2, True, 1.0, "1"])
    def test_wrong_schema_version_rejected(self, tmp_path, version):
        path = tmp_path / "results.jsonl"
        header = {"schema_version": version, "kind": "sensitivity-records"}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(FileFormatError, match=f"schema_version {re.escape(repr(version))}$"):
            read_records(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps({"schema_version": 1, "kind": "something"}) + "\n")
        with pytest.raises(FileFormatError, match="not a results file"):
            read_records(path)

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(FileFormatError, match="not a JSON object"):
            read_records(path)

    GOOD_RECORD = {
        "path": {"index": 4, "label": "P4"},
        "config": config_to_dict(enumerate_configs()[57]),
        "freq_hz": 2e8,
        "mean_on": 2050.0,
        "mean_off": 2048.0,
        "diff": 2.0,
        "var_off": 0.5,
        "snr": {"db": 9.0},
    }

    def read_one(self, tmp_path, **fields):
        path = tmp_path / "results.jsonl"
        header = {"schema_version": 1, "kind": "sensitivity-records"}
        line = json.dumps({**self.GOOD_RECORD, **fields})
        path.write_text(json.dumps(header) + "\n" + line + "\n")
        return read_records(path)[1][0]

    def test_valid_record_reads(self, tmp_path):
        record = self.read_one(tmp_path, mean_on=2050)
        assert record.mean_on == 2050.0 and isinstance(record.mean_on, float)
        assert not record.failed and record.error is None

    def test_string_statistic_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="mean_on must be a finite number"):
            self.read_one(tmp_path, mean_on="abc")

    def test_list_statistic_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="mean_off must be a finite number"):
            self.read_one(tmp_path, mean_off=[1])

    def test_bool_statistic_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="diff must be a finite number"):
            self.read_one(tmp_path, diff=True)

    @pytest.mark.parametrize(
        "name, value", [("var_off", math.nan), ("mean_on", -math.inf), ("diff", 10**400)]
    )
    def test_non_finite_statistic_rejected(self, tmp_path, name, value):
        with pytest.raises(FileFormatError, match=f"{name} must be a finite number"):
            self.read_one(tmp_path, **{name: value})

    def test_negative_variance_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="var_off must be >= 0"):
            self.read_one(tmp_path, var_off=-3)

    def test_null_statistic_on_ok_record_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="mean_on must be a finite number, got None"):
            self.read_one(tmp_path, mean_on=None)

    def test_null_statistics_on_failed_record(self, tmp_path):
        nulls = dict.fromkeys(("mean_on", "mean_off", "diff", "var_off"))
        record = self.read_one(tmp_path, **nulls, snr="none", failed=True, error="boom")
        assert record.failed and record.error == "boom" and record.mean_on is None

    def test_string_failed_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="failed must be true or false"):
            self.read_one(tmp_path, failed="false")

    def test_non_string_error_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="error must be a string or null"):
            self.read_one(tmp_path, failed=True, error=5)

    @pytest.mark.parametrize("index", [4.7, 4.0, "4", True, None, -1])
    def test_non_integer_path_index_rejected(self, tmp_path, index):
        with pytest.raises(FileFormatError, match="path index must be"):
            self.read_one(tmp_path, path={"index": index, "label": "P4"})

    def test_non_string_path_label_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="path label must be a string, got 7"):
            self.read_one(tmp_path, path={"index": 4, "label": 7})

    def test_path_must_be_an_object(self, tmp_path):
        with pytest.raises(FileFormatError, match="bad sensitivity record"):
            self.read_one(tmp_path, path=[4, "P4"])

    def test_diff_other_than_mean_on_minus_mean_off_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="diff must be mean_on - mean_off, got 5.0"):
            self.read_one(tmp_path, mean_on=1.0, mean_off=1.0, diff=5.0)

    def test_diff_without_means_rejected(self, tmp_path):
        nulls = dict.fromkeys(("mean_on", "mean_off", "var_off"))
        with pytest.raises(FileFormatError, match="diff must be mean_on - mean_off"):
            self.read_one(tmp_path, **nulls, diff=0.0, snr="none", failed=True, error="x")

    def test_diff_is_the_exact_float_difference(self, tmp_path):
        record = self.read_one(tmp_path, mean_on=0.3, mean_off=0.1, diff=0.3 - 0.1)
        assert record.diff == 0.19999999999999998
        with pytest.raises(FileFormatError, match="diff must be mean_on - mean_off"):
            self.read_one(tmp_path, mean_on=0.3, mean_off=0.1, diff=0.2)

    def test_write_read_write_byte_identical(self, tmp_path):
        scenario = load_scenario(bundled_scenario_path("demo_board"))
        backend, source = build_rig(scenario, seed=3)
        plan = SweepPlan(
            paths=tuple(ReceptionPathId(i, f"P{i}") for i in (0, 3)),
            configs=tuple(enumerate_configs()[56:58]),
            freqs_hz=tuple(np.linspace(200e6, 1000e6, 9)),
            samples_per_block=scenario.adc.samples_per_block,
            adc=scenario.adc,
        )
        records = run_sweep(plan, backend, source) + self.make_records()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(first, records, header_extra={"seed": 3})
        header, back = read_records(first)
        write_records(second, back, header_extra={"seed": header["seed"]})
        assert first.read_bytes() == second.read_bytes()
        assert back == records


_STATISTICS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e-5, 1e16, 2048.0, 5e-324]
)
_LABELS = st.text(max_size=8) | st.sampled_from(
    ['q"uote', "back\\slash", "caf\u00e9 \u65e5\u672c", "tab\tnl\n\x00\x7f", ""]
)
_CONFIGS = st.sampled_from(enumerate_configs())
_FREQS = st.floats(1.0, 1e10) | st.sampled_from([2e8, 1e16, 1e-5])
_SNRS = st.floats(allow_nan=False) | st.sampled_from([math.inf, -math.inf, -0.0])
_ERRORS = st.text(max_size=20) | st.just("line one\nline two: \"quoted\" \\")


@st.composite
def sensitivity_records(draw, cell=None):
    """A record of ``cell``, a (path, config) pair, or of a drawn one."""
    if cell is None:
        path = ReceptionPathId(draw(st.integers(0, 10**6)), draw(_LABELS))
        config = draw(_CONFIGS)
    else:
        path, config = cell
    freq = draw(_FREQS)
    snr = draw(_SNRS)
    if draw(st.booleans()):
        error = draw(_ERRORS)
        return SensitivityRecord(
            path, config, freq, None, None, None, None, -math.inf, failed=True, error=error
        )
    stats = [draw(_STATISTICS) for _ in range(4)]
    return SensitivityRecord(path, config, freq, *stats, snr)


_SPECIAL_PATH = ReceptionPathId(7, 'a"b\\c\u00e9\x01')
_SPECIAL_CONFIG = enumerate_configs()[3]


class TestRecordLine:
    @given(st.lists(sensitivity_records(), min_size=1, max_size=4))
    @example(
        [
            SensitivityRecord(_SPECIAL_PATH, _SPECIAL_CONFIG, 1e16, -0.0, 1e-5, 1e16, 0.0, math.inf),
            SensitivityRecord(_SPECIAL_PATH, _SPECIAL_CONFIG, 2e8, 1.0, 2.0, -1.0, 0.25, -12.5),
            SensitivityRecord(
                _SPECIAL_PATH, _SPECIAL_CONFIG, 4e8, None, None, None, None, -math.inf,
                failed=True, error="a\nb",
            ),
        ]
    )
    def test_equals_json_dumps_of_record_to_dict(self, records):
        # record_line keeps no state between calls: records sharing path and
        # config objects, and the first record again after the others, each
        # give their own line.
        shared = [replace(r, path=records[0].path, config=records[0].config) for r in records]
        for record in records + shared + records[:1]:
            assert record_line(record) == json.dumps(record_to_dict(record))


# Values json.dumps writes its own way, which the writer must send the
# general way: non-finite floats, ints, bools and signed zeros.
_ODD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 0, 7, -3, True, False, 10**20]
)
_NUMBER_FIELDS = ("freq_hz", "mean_on", "mean_off", "diff", "var_off", "snr")


@st.composite
def record_runs(draw):
    """Records of up to three cells, in runs of records sharing the path and
    config objects of one cell or equal copies of them, cells interleaved,
    with some numbers replaced by odd values."""
    cells = [(r.path, r.config) for r in draw(st.lists(sensitivity_records(), max_size=3))]
    records = []
    for _ in range(draw(st.integers(0, 4)) if cells else 0):
        path, config = draw(st.sampled_from(cells))
        if draw(st.booleans()):
            path, config = ReceptionPathId(path.index, path.label), replace(config)
        for record in draw(st.lists(sensitivity_records((path, config)), min_size=1, max_size=3)):
            odd = draw(st.dictionaries(st.sampled_from(_NUMBER_FIELDS), _ODD_VALUES, max_size=2))
            records.append(replace(record, **odd))
    return records


def _zero_record(freq, on, off, var, snr):
    return SensitivityRecord(_SPECIAL_PATH, _SPECIAL_CONFIG, freq, on, off, on - off, var, snr)


_OTHER_PATH = ReceptionPathId(8, "P8")
_OTHER_CONFIG = enumerate_configs()[5]


class TestWriteRecords:
    @given(record_runs())
    @example(
        [
            # Two paths sharing one config object, interleaved.
            SensitivityRecord(_SPECIAL_PATH, _SPECIAL_CONFIG, 2e8, 1.5, 0.5, 1.0, 0.25, 6.0),
            SensitivityRecord(_OTHER_PATH, _SPECIAL_CONFIG, 2e8, 1.5, 0.5, 1.0, 0.25, 6.0),
            SensitivityRecord(_SPECIAL_PATH, _SPECIAL_CONFIG, 3e8, 1.5, 0.5, 1.0, 0.25, 6.0),
            # A failed record with statistics, as read_records may load one.
            SensitivityRecord(
                _OTHER_PATH, _SPECIAL_CONFIG, 3e8, 1.5, 0.5, 1.0, 0.25, -math.inf,
                failed=True, error="e",
            ),
            # Bool and int SNRs and statistics.
            SensitivityRecord(_OTHER_PATH, _SPECIAL_CONFIG, 4e8, 1.5, 0.5, 1.0, 0.25, True),
            SensitivityRecord(_OTHER_PATH, _SPECIAL_CONFIG, 5e8, 2, 1, 1, 0, 7),
            SensitivityRecord(_OTHER_PATH, _SPECIAL_CONFIG, 6e8, True, False, 1, 0.5, 2.0),
            # The same path object under another config.
            SensitivityRecord(_OTHER_PATH, _OTHER_CONFIG, 6e8, 1.5, 0.5, 1.0, 0.25, 6.0),
        ]
    )
    @example(
        [
            _zero_record(0.0, 0.0, -0.0, 0.0, -math.inf),
            _zero_record(-0.0, -0.0, 0.0, -0.0, 0.0),
            _zero_record(0.0, 1.5, 1.5, -0.0, -0.0),
            _zero_record(-0.0, 1.5, 0.5, 0.0, 0.0),
            _zero_record(2e8, 1.5, 0.5, 0.25, 6.0),
            _zero_record(2e8, 1.5, 0.5, 0.25, math.nan),
        ]
    )
    def test_bytes_equal_json_dumps_of_each_record(self, tmp_path_factory, records):
        header = {"schema_version": 1, "kind": "sensitivity-records", "seed": 3}
        want = "".join(
            line + "\n"
            for line in [json.dumps(header)] + [json.dumps(record_to_dict(r)) for r in records]
        ).encode()
        path = tmp_path_factory.getbasetemp() / "written.jsonl"
        write_records(path, records, header_extra={"seed": 3})
        assert path.read_bytes() == want
        write_records(path, (r for r in records), header_extra={"seed": 3})
        assert path.read_bytes() == want


class TestBerCurveFiles:
    POINTS = [
        {"power_dbm": 20.0, "incident_dbm": -4.1, "bits": 100, "errors": 0, "ber": 0.0},
        {"power_dbm": 24.7, "incident_dbm": 0.6, "bits": 100, "errors": 1, "ber": 0.01},
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.json"
        write_ber_curve(path, self.POINTS)
        doc = {"kind": "ber-curve", "schema_version": 1, "points": self.POINTS}
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"
        assert read_ber_curve(path) == self.POINTS

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="ber-curve not found"):
            read_ber_curve(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "ber-curve", "schema_version": 1}, "points must be a list, got None"),
            ({"kind": "ber-curve", "schema_version": 1, "points": [7]}, "point 0: not a JSON"),
            ({"kind": "sensitivity-records", "schema_version": 1}, "not a ber-curve file"),
            ({"kind": "ber-curve", "points": []}, "unsupported ber-curve schema_version None"),
            (
                {"kind": "ber-curve", "schema_version": True, "points": []},
                "unsupported ber-curve schema_version True",
            ),
            (
                {"kind": "ber-curve", "schema_version": 1.0, "points": []},
                "unsupported ber-curve schema_version 1.0",
            ),
        ],
    )
    def test_bad_document_rejected(self, tmp_path, doc, message):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=re.escape(message)):
            read_ber_curve(path)

    @pytest.mark.parametrize(
        "point, message",
        [
            ({"ber": 1.5}, "point 1: ber must lie in [0, 1], got 1.5"),
            ({"ber": -0.1}, "point 1: ber must lie in [0, 1], got -0.1"),
            ({"incident_dbm": "0.6"}, "point 1: incident_dbm must be a finite number"),
            ({"ber": True}, "point 1: ber must be a finite number, got True"),
            ({"extra": 1}, "point 1: its keys differ from those of point 0"),
        ],
    )
    def test_bad_point_rejected(self, tmp_path, point, message):
        path = tmp_path / "curve.json"
        write_ber_curve(path, [self.POINTS[0], {**self.POINTS[1], **point}])
        with pytest.raises(FileFormatError, match=re.escape(message)):
            read_ber_curve(path)


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


def key_paths(node, prefix=()):
    """The key path of every value inside a JSON document, depth first."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


DEMO_BOARD = json.loads(bundled_scenario_path("demo_board").read_text())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TestScenario:
    @example(key_path=("dut", "coupling", 2, "config"), value=5)
    @example(key_path=("dut", "coupling", 0, "resonances"), value=3)
    @example(key_path=("schema_version",), value=True)
    @given(key_path=st.sampled_from(list(key_paths(DEMO_BOARD))), value=JSON_VALUES)
    def test_a_field_of_another_type_loads_or_is_a_scenario_error(self, key_path, value):
        doc = copy.deepcopy(DEMO_BOARD)
        parent = doc
        for key in key_path[:-1]:
            parent = parent[key]
        assume(type(value) is not type(parent[key_path[-1]]))
        parent[key_path[-1]] = value
        try:
            scenario_from_dict(doc)
        except ScenarioError:
            pass

    def test_minimal_document(self):
        s = scenario_from_dict(minimal_scenario_doc())
        assert s.n_paths == 2
        assert s.adc.samples_per_block == 8
        assert s.default_model.noise_sigma == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "ghost.json")

    def test_bad_schema_version(self):
        for version in (3, True, 1.0):
            with pytest.raises(ScenarioError, match=f"schema_version {version!r} "):
                scenario_from_dict(minimal_scenario_doc(schema_version=version))

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
        with pytest.raises(ScenarioError, match=rf"^{re.escape(field)} must be an integer, got"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "section, field, value, expected",
        [
            ("transmission", "path", "x", "an integer"),
            ("transmission", "bit_rate_hz", "fast", "a finite number"),
            ("rf_source", "max_power_dbm", "x", "a finite number"),
            ("channel", "g_tx_dbi", None, "a finite number"),
            ("dut.adc", "resolution_bits", 12.5, "an integer"),
            ("dut.adc", "sample_rate_hz", float("inf"), "a finite number"),
        ],
    )
    def test_non_numeric_field_named(self, section, field, value, expected):
        doc = minimal_scenario_doc(transmission={}, rf_source={}, channel={})
        target = doc["dut"]["adc"] if section == "dut.adc" else doc[section]
        target[field] = value
        message = rf"^{re.escape(section)}\.{field} must be {expected}, got"
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(doc)

    def test_numeric_sections_must_be_objects(self):
        with pytest.raises(ScenarioError, match="^transmission: expected an object, got list"):
            scenario_from_dict(minimal_scenario_doc(transmission=[1]))

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


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def valid_records():
    """Records that read_records accepts: an ok record's diff is exactly
    mean_on - mean_off and its var_off is >= 0."""
    return (
        sensitivity_records()
        .map(
            lambda r: r
            if r.failed
            else replace(r, diff=r.mean_on - r.mean_off, var_off=abs(r.var_off))
        )
        .filter(lambda r: r.failed or math.isfinite(r.diff))
    )


@st.composite
def mutated_record_lines(draw):
    """A valid record line with one field, at any depth, replaced by another
    JSON value or deleted."""
    doc = record_to_dict(draw(valid_records()))
    key_path = draw(st.sampled_from(list(key_paths(doc))))
    parent = doc
    for key in key_path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[key_path[-1]]
    else:
        parent[key_path[-1]] = draw(JSON_VALUES)
    return json.dumps(doc)


# (line, whether the writer wrote it): a valid results line, one with a
# field mutated, deeply nested JSON on its own or in place of a field, any
# text, or any bytes.
RESULTS_LINES = st.one_of(
    valid_records().map(lambda r: (record_line(r), True)),
    *(
        lines.map(lambda line: (line, False))
        for lines in (
            mutated_record_lines(),
            st.sampled_from([10, 900, 990, 1000, 5000, 200_000]).map(_nested),
            st.sampled_from([900, 990, 5000]).map(
                lambda depth: json.dumps(TestResultsFiles.GOOD_RECORD).replace(
                    '"P4"', _nested(depth)
                )
            ),
            st.text(max_size=40),
            st.binary(max_size=40),
        )
    ),
)


class TestReadRecordsProperty:
    @given(case=RESULTS_LINES)
    @example(case=(_nested(200_000), False))
    @example(case=("1" * 5000, False))
    @example(
        case=(json.dumps(TestResultsFiles.GOOD_RECORD).replace("2050.0", "1" * 5000), False)
    )
    def test_a_line_loads_and_writes_back_or_is_a_file_format_error(
        self, tmp_path_factory, case
    ):
        line, written_by_the_writer = case
        base = tmp_path_factory.getbasetemp()
        source = base / "line.jsonl"
        header = {"schema_version": 1, "kind": "sensitivity-records"}
        raw = line if isinstance(line, bytes) else line.encode("utf-8")
        source.write_bytes(json.dumps(header).encode() + b"\n" + raw + b"\n")
        try:
            _, records = read_records(source)
        except FileFormatError:
            assert not written_by_the_writer
            return
        first, second = base / "first.jsonl", base / "second.jsonl"
        write_records(first, records)
        _, back = read_records(first)
        write_records(second, back)
        assert back == records
        assert second.read_bytes() == first.read_bytes()
        if written_by_the_writer:
            assert first.read_text(encoding="utf-8").splitlines()[1:] == [line]
