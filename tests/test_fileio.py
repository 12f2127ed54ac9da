"""Trace/results/bits file formats and scenario documents."""

import copy
import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from adcradio import fileio
from adcradio.backend import ReceptionPathId
from adcradio.fileio import (
    FileFormatError,
    read_ber_curve,
    read_bits,
    read_records,
    read_trace,
    record_to_dict,
    write_ber_curve,
    write_bits,
    write_records,
    write_trace,
)
from adcradio.scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    build_rig,
    config_to_dict,
    load_scenario,
    scenario_from_dict,
)
from adcradio.signals import generate_bits
from adcradio.simulator import ALLOWED_OVERSAMPLING, AdcConfig, AdcTrace
from adcradio.sweep import (
    SensitivityRecord,
    SweepCell,
    SweepPlan,
    enumerate_configs,
    run_sweep,
)


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


def cells_of(records):
    """One SweepCell per run of consecutive records with equal path and
    config, as the lines of a results file are read."""
    cells = []
    for (path, config), run in itertools.groupby(records, lambda r: (r.path, r.config)):
        rows = [
            (r.freq_hz, r.mean_on, r.mean_off, r.diff, r.var_off, r.snr, r.failed, r.error)
            for r in run
        ]
        freqs, *columns = zip(*rows)
        cells.append(SweepCell(path, config, freqs, *map(list, columns)))
    return cells


class TestResultsFiles:
    def make_cell(self):
        return SweepCell(
            ReceptionPathId(4, "P4"),
            enumerate_configs()[57],
            (2e8, 3e8, 4e8, 5e8),
            mean_on=[2050.0, 2060.0, 2048.0, None],
            mean_off=[2048.0, 2048.0, 2048.0, None],
            diff=[2.0, 12.0, 0.0, None],
            var_off=[0.5, 0.0, 0.0, None],
            snr=[9.0, math.inf, -math.inf, -math.inf],
            failed=[False, False, False, True],
            errors=[None, None, None, "injected"],
        )

    def test_round_trip(self, tmp_path):
        cell = self.make_cell()
        path = tmp_path / "results.jsonl"
        write_records(path, [cell], header_extra={"seed": 5})
        header, back = read_records(path)
        assert header["schema_version"] == 1
        assert header["seed"] == 5
        assert back == [cell]
        assert back[0].snr.tolist() == [9.0, math.inf, -math.inf, -math.inf]
        assert back[0].failed[3] and back[0].errors[3] == "injected"
        assert back[0].config == cell.config

    def test_snr_encoding_on_the_wire(self, tmp_path):
        path = tmp_path / "results.jsonl"
        write_records(path, [self.make_cell()])
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

    def read_lines(self, tmp_path, *records):
        """The cells of a results file holding ``records``, one per line."""
        path = tmp_path / "results.jsonl"
        header = {"schema_version": 1, "kind": "sensitivity-records"}
        path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *records]))
        return read_records(path)[1]

    def read_one(self, tmp_path, **fields):
        """The cell of one line, GOOD_RECORD with ``fields`` replaced."""
        (cell,) = self.read_lines(tmp_path, {**self.GOOD_RECORD, **fields})
        return cell

    def test_valid_record_reads(self, tmp_path):
        cell = self.read_one(tmp_path, mean_on=2050)
        assert cell.mean_on.dtype == np.float64 and cell.mean_on.tolist() == [2050.0]
        assert cell.failed.tolist() == [False] and cell.errors == [None]

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
        cell = self.read_one(tmp_path, **nulls, snr="none", failed=True, error="boom")
        assert cell.failed.tolist() == [True] and cell.errors == ["boom"]
        assert math.isnan(cell.mean_on[0]) and cell.snr.tolist() == [-math.inf]

    @pytest.mark.parametrize(
        "fields, got",
        [
            ({"var_off": 0.5}, r"\(None, None, None, 0\.5\) and 'none'"),
            ({"snr": {"db": 3.0}}, r"\(None, None, None, None\) and \{'db': 3\.0\}"),
        ],
        ids=["statistic", "snr"],
    )
    def test_failed_record_with_a_statistic_or_an_snr_rejected(self, tmp_path, fields, got):
        # Every failed cell of a sweep is written with null statistics and
        # the SNR "none", which is what its NaN and -inf columns hold.
        nulls = dict.fromkeys(("mean_on", "mean_off", "diff", "var_off"))
        failed = {**self.GOOD_RECORD, **nulls, "snr": "none", "failed": True, "error": "x"}
        with pytest.raises(
            FileFormatError,
            match=r"results\.jsonl:3: bad sensitivity record .*: "
            rf'statistics must be null and snr "none" on a failed record, got {got}$',
        ):
            self.read_lines(tmp_path, failed, {**failed, **fields})

    def test_string_failed_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="failed must be true or false"):
            self.read_one(tmp_path, failed="false")

    def test_non_string_error_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="error must be a string or null"):
            self.read_one(tmp_path, failed=True, error=5)

    @pytest.mark.parametrize("fields", [{"error": "x"}, {"failed": False, "error": ""}])
    def test_error_text_on_a_record_that_has_not_failed_rejected(self, tmp_path, fields):
        # The writer writes no error for such a record, so it would not read
        # back as it was read.
        with pytest.raises(
            FileFormatError,
            match=r"results\.jsonl:2: bad sensitivity record .*: "
            r"error must be null on a record that has not failed, got '(x|)'$",
        ):
            self.read_one(tmp_path, **fields)
        self.read_one(tmp_path, failed=False, error=None)

    @pytest.mark.parametrize("index", [4.7, 4.0, "4", True, None, -1])
    def test_non_integer_path_index_rejected(self, tmp_path, index):
        with pytest.raises(FileFormatError, match="path index must be"):
            self.read_one(tmp_path, path={"index": index, "label": "P4"})

    def test_non_string_path_label_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="path label must be a string, got 7"):
            self.read_one(tmp_path, path={"index": 4, "label": 7})

    @pytest.mark.parametrize(
        "path, message",
        [
            ({"index": True, "label": "P1"}, "path index must be an integer, got True"),
            ({"index": 1.0, "label": "P1"}, "path index must be an integer, got 1.0"),
            ({"index": 1, "label": 1}, "path label must be a string, got 1"),
        ],
    )
    def test_a_path_after_a_line_with_an_equal_path_is_checked(self, tmp_path, path, message):
        # {"index": 1} == {"index": true} == {"index": 1.0}: a line whose
        # path equals the last one's is checked as if it came first.
        first = {**self.GOOD_RECORD, "path": {"index": 1, "label": "P1"}}
        with pytest.raises(
            FileFormatError, match=rf"results\.jsonl:3: bad sensitivity record .*: {message}$"
        ):
            self.read_lines(tmp_path, first, {**first, "path": path})

    def test_a_config_after_a_valid_one_is_checked(self, tmp_path):
        bad = {**self.GOOD_RECORD["config"], "mode": "bogus"}
        with pytest.raises(
            FileFormatError, match=r"results\.jsonl:3: bad sensitivity record .*: bad path configuration"
        ):
            self.read_lines(tmp_path, self.GOOD_RECORD, {**self.GOOD_RECORD, "config": bad})

    def test_each_run_of_lines_with_one_path_and_config_is_one_cell(self, tmp_path):
        other = {**self.GOOD_RECORD, "path": {"index": 5, "label": "P5"}}
        # Equal path and config objects with their keys in another order.
        reordered = {
            **self.GOOD_RECORD,
            "path": {"label": "P4", "index": 4},
            "config": dict(reversed(self.GOOD_RECORD["config"].items())),
            "freq_hz": 3e8,
        }
        cells = self.read_lines(tmp_path, self.GOOD_RECORD, reordered, other, self.GOOD_RECORD)
        assert [(c.path.index, c.freqs_hz) for c in cells] == [
            (4, (2e8, 3e8)), (5, (2e8,)), (4, (2e8,))
        ]
        assert len({c.config for c in cells}) == 1

    def test_reading_builds_no_record(self, tmp_path, monkeypatch):
        built = []
        init = SensitivityRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        path = tmp_path / "results.jsonl"
        write_records(path, [self.make_cell()])
        monkeypatch.setattr(SensitivityRecord, "__init__", counting_init)
        _, cells = read_records(path)
        assert built == []
        assert cells == [self.make_cell()]

    def test_signed_zero_frequencies_round_trip(self, tmp_path):
        def cell(index, freqs):
            return replace(self.make_cell(), path=ReceptionPathId(index, f"P{index}"),
                           freqs_hz=freqs)

        cells = [
            cell(1, (0.0, 3e8, 4e8, 5e8)),
            cell(2, (0.0, 3e8, 4e8, 5e8)),
            cell(3, (-0.0, 3e8, 4e8, 5e8)),
            cell(4, (-0.0, 3e8, 4e8, 5e8)),
            cell(5, (2e8, 3e8, 4e8, 5e8)),
            cell(6, (2e8, 3e8, 4e8, 5e8)),
        ]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(first, cells)
        _, back = read_records(first)
        assert back == cells
        assert [repr(c.freqs_hz[0]) for c in back] == (
            ["0.0"] * 2 + ["-0.0"] * 2 + ["200000000.0"] * 2
        )
        write_records(second, back)
        assert second.read_bytes() == first.read_bytes()

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
        cell = self.read_one(tmp_path, mean_on=0.3, mean_off=0.1, diff=0.3 - 0.1)
        assert cell.diff.tolist() == [0.19999999999999998]
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
        cells = [*run_sweep(plan, backend, source).cells, self.make_cell()]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(first, cells, header_extra={"seed": 3})
        header, back = read_records(first)
        write_records(second, back, header_extra={"seed": header["seed"]})
        assert first.read_bytes() == second.read_bytes()
        assert back == cells


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


def as_held(record):
    """``record`` as the float64 columns of a cell hold it: every statistic
    and the SNR a float, and a NaN statistic None (not measured)."""
    stats = {
        name: None if value is None or value != value else float(value)
        for name in ("mean_on", "mean_off", "diff", "var_off")
        for value in [getattr(record, name)]
    }
    return replace(record, **stats, snr=float(record.snr))


def _zero_record(freq, on, off, var, snr):
    return SensitivityRecord(_SPECIAL_PATH, _SPECIAL_CONFIG, freq, on, off, on - off, var, snr)


_OTHER_PATH = ReceptionPathId(8, "P8")
_OTHER_CONFIG = enumerate_configs()[5]


# Statistics that recur across cells and columns: nonzero values and both
# zeros, which compare equal but print apart.
_SHARED_STATISTICS = st.sampled_from([0.0, -0.0, 2048.5, -1.25, 0.1, 5e-324, 1e16])


@st.composite
def shared_value_records(draw):
    """Records of up to four cells whose four statistics all draw from one
    small set of values."""
    records = []
    for index in range(draw(st.integers(1, 4))):
        path, config = ReceptionPathId(index, f"P{index}"), draw(_CONFIGS)
        for k in range(draw(st.integers(1, 5))):
            stats = [draw(_SHARED_STATISTICS) for _ in range(4)]
            records.append(SensitivityRecord(path, config, 1e8 * (k + 1), *stats, 6.0))
    return records


class TestWriteRecords:
    @given(shared_value_records())
    def test_values_shared_across_cells_and_columns_write_as_json_dumps(
        self, tmp_path_factory, records
    ):
        want = "".join(
            line + "\n"
            for line in [json.dumps({"schema_version": 1, "kind": "sensitivity-records"})]
            + [json.dumps(record_to_dict(r)) for r in records]
        ).encode()
        path = tmp_path_factory.getbasetemp() / "shared.jsonl"
        write_records(path, cells_of(records))
        assert path.read_bytes() == want

    def test_each_file_formats_its_own_values(self, tmp_path, monkeypatch):
        """Each nonzero statistic is formatted once per file and each zero
        every time; a second file formats its values anew."""
        records = [
            _zero_record(2e8, 1.5, 0.5, 0.25, 6.0),
            _zero_record(3e8, 0.5, 1.5, 0.25, 6.0),
            _zero_record(4e8, 0.0, -0.0, -0.0, 6.0),
            replace(_zero_record(2e8, 1.5, 1.5, 0.0, 6.0), path=_OTHER_PATH),
        ]
        formatted = []
        missing = fileio._FloatTexts.__missing__
        monkeypatch.setattr(
            fileio._FloatTexts,
            "__missing__",
            lambda texts, value: formatted.append(repr(value)) or missing(texts, value),
        )
        write_records(tmp_path / "a.jsonl", cells_of(records))
        in_first = list(formatted)
        write_records(tmp_path / "b.jsonl", cells_of(records))
        # Row by row: mean_on, mean_off, diff, var_off; the last row is
        # another cell's.
        assert in_first == [
            "1.5", "0.5", "1.0", "0.25", "-1.0", "0.0", "-0.0", "0.0", "-0.0", "0.0", "0.0"
        ]
        assert formatted == in_first * 2
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    @given(record_runs())
    @example(
        [
            # Two paths sharing one config object, interleaved.
            SensitivityRecord(_SPECIAL_PATH, _SPECIAL_CONFIG, 2e8, 1.5, 0.5, 1.0, 0.25, 6.0),
            SensitivityRecord(_OTHER_PATH, _SPECIAL_CONFIG, 2e8, 1.5, 0.5, 1.0, 0.25, 6.0),
            SensitivityRecord(_SPECIAL_PATH, _SPECIAL_CONFIG, 3e8, 1.5, 0.5, 1.0, 0.25, 6.0),
            # A failed record with statistics: the writer writes any cell it
            # is given, although read_records refuses such a line.
            SensitivityRecord(
                _OTHER_PATH, _SPECIAL_CONFIG, 3e8, 1.5, 0.5, 1.0, 0.25, -math.inf,
                failed=True, error="e",
            ),
            # Bool and int SNRs and statistics, held and written as floats.
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
            for line in [json.dumps(header)]
            + [json.dumps(record_to_dict(as_held(r))) for r in records]
        ).encode()
        path = tmp_path_factory.getbasetemp() / "written.jsonl"
        write_records(path, cells_of(records), header_extra={"seed": 3})
        assert path.read_bytes() == want
        write_records(path, iter(cells_of(records)), header_extra={"seed": 3})
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
    valid_records().map(lambda r: (json.dumps(record_to_dict(r)), True)),
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


_TRACE_HEADER_KEYS = (
    "schema_version", "kind", "resolution_bits", "sample_rate_hz", "oversampling_ratio",
    "samples_per_block",
)


@st.composite
def written_traces(draw):
    """A trace as write_trace writes it: any ADC configuration, codes in its
    full scale and JSON metadata, including a PathConfig."""
    config = AdcConfig(
        resolution_bits=draw(st.integers(6, 16)),
        sample_rate_hz=draw(st.floats(1e-3, 1e9) | st.sampled_from([16000.0, 5e-324])),
        oversampling_ratio=draw(st.sampled_from(ALLOWED_OVERSAMPLING)),
        samples_per_block=draw(st.integers(1, 64)),
    )
    codes = draw(st.lists(st.integers(0, config.full_scale), max_size=20))
    # The writer refuses metadata keys that name the header's own fields.
    keys = st.text(max_size=6).filter(lambda key: key not in _TRACE_HEADER_KEYS)
    meta = draw(st.dictionaries(keys, JSON_VALUES, max_size=3))
    if draw(st.booleans()):
        meta["config"] = draw(_CONFIGS)
    return AdcTrace(samples=np.array(codes, np.int32), config=config, meta=meta)


def trace_bytes(trace: AdcTrace) -> bytes:
    """The bytes write_trace writes for ``trace``."""
    header = {
        "schema_version": 1,
        "kind": "adc-trace",
        **{name: getattr(trace.config, name) for name in _TRACE_HEADER_KEYS[2:]},
        **{k: config_to_dict(v) if k == "config" else v for k, v in trace.meta.items()},
    }
    return "".join(
        line + "\n" for line in [json.dumps(header), *map(str, trace.samples.tolist())]
    ).encode()


@st.composite
def mutated_trace_bytes(draw):
    """A written trace with one header field, at any depth, replaced by
    another JSON value or deleted, or with sample lines of any text."""
    data = trace_bytes(draw(written_traces()))
    header, _, body = data.partition(b"\n")
    if draw(st.booleans()):
        doc = json.loads(header)
        key_path = draw(st.sampled_from(list(key_paths(doc))))
        parent = doc
        for key in key_path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[key_path[-1]]
        else:
            parent[key_path[-1]] = draw(JSON_VALUES)
        header = json.dumps(doc).encode()
    else:
        lines = draw(st.lists(st.text(max_size=8) | st.sampled_from(
            ["-1", "+7", " 12 ", "1_0", "٣", "4096", "1" * 5000, "0x10", "1e3"]
        ), max_size=4))
        body = "\n".join(lines).encode("utf-8", "surrogatepass")
    return header + b"\n" + body


# (bytes, whether write_trace wrote them): a written trace, one with a header
# field or its samples mutated, deeply nested JSON as the header, any text
# or any bytes.
TRACE_FILES = st.one_of(
    written_traces().map(lambda t: (trace_bytes(t), True)),
    *(
        files.map(lambda data: (data, False))
        for files in (
            mutated_trace_bytes(),
            st.sampled_from([10, 990, 5000, 200_000]).map(
                lambda depth: _nested(depth).encode() + b"\n2048\n"
            ),
            st.text(max_size=40).map(lambda text: text.encode("utf-8", "surrogatepass")),
            st.binary(max_size=40),
        )
    ),
)


class TestWriteTraceMetadata:
    @pytest.mark.parametrize("key", _TRACE_HEADER_KEYS)
    @pytest.mark.parametrize("where", ["meta", "extra_meta"])
    def test_a_header_field_in_metadata_is_a_value_error(self, tmp_path, key, where):
        trace = AdcTrace(samples=np.array([1, 2], np.int32), config=AdcConfig())
        path = tmp_path / "t.trace"
        with pytest.raises(ValueError, match=f"must not set the header field {key!r}"):
            if where == "meta":
                write_trace(path, replace(trace, meta={key: 8}))
            else:
                write_trace(path, trace, extra_meta={key: 8})
        assert not path.exists()


class TestReadTraceProperty:
    @given(case=TRACE_FILES)
    @example(case=(b'{"schema_version": 1, "kind": "adc-trace"}\n', False))
    @example(case=(trace_bytes(AdcTrace(np.array([7], np.int32), AdcConfig())) + b"\xff\n", False))
    @example(case=(b"", False))
    def test_any_bytes_load_and_write_back_or_are_a_file_format_error(
        self, tmp_path_factory, case
    ):
        data, written_by_the_writer = case
        base = tmp_path_factory.getbasetemp()
        source = base / "any.trace"
        source.write_bytes(data)
        try:
            trace = read_trace(source)
        except FileFormatError:
            assert not written_by_the_writer
            return
        first, second = base / "first.trace", base / "second.trace"
        write_trace(first, trace)
        back = read_trace(first)
        assert back.samples.tolist() == trace.samples.tolist()
        assert back.config == trace.config
        assert json.dumps(back.meta) == json.dumps(trace.meta)
        write_trace(second, back)
        assert second.read_bytes() == first.read_bytes()
        if written_by_the_writer:
            assert first.read_bytes() == data


DEMO_BOARD_BYTES = bundled_scenario_path("demo_board").read_bytes()


@st.composite
def demo_board_one_byte_replaced(draw):
    """demo_board's bytes with the byte at one position replaced by any byte."""
    i = draw(st.integers(0, len(DEMO_BOARD_BYTES) - 1))
    return DEMO_BOARD_BYTES[:i] + bytes([draw(st.integers(0, 255))]) + DEMO_BOARD_BYTES[i + 1 :]


# The bytes of a scenario file: any bytes, demo_board with one byte
# replaced, or deeply nested JSON.
SCENARIO_FILES = st.one_of(
    st.binary(max_size=60),
    demo_board_one_byte_replaced(),
    st.sampled_from([10, 990, 5000, 200_000]).map(lambda depth: _nested(depth).encode()),
)


class TestLoadScenarioProperty:
    @given(data=SCENARIO_FILES)
    @example(data=DEMO_BOARD_BYTES)
    @example(data=DEMO_BOARD_BYTES.replace(b'"seed": ', b'"seed": \xff', 1))
    @example(data=b"")
    def test_any_bytes_load_or_are_a_scenario_error(self, tmp_path_factory, data):
        source = tmp_path_factory.getbasetemp() / "any.json"
        source.write_bytes(data)
        try:
            scenario = load_scenario(source)
        except ScenarioError:
            return
        assert isinstance(scenario, Scenario) and scenario.name == "any"
        build_rig(scenario)
