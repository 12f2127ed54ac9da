"""On-disk formats shared by the CLI and the library.

All formats are line-oriented, LF-terminated text with a JSON header line
carrying a schema_version, so they stay bit-exact, diffable, and readable:

    trace files    - header object, then one decimal ADC code per line
    results files  - header object, then one sensitivity record object per line
    bits files     - ASCII '0'/'1', one per line
    ber-curve      - a single JSON object: header fields plus the BER points
    manifests      - a single JSON object tying outputs to their inputs/seed
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .backend import PathConfig, ReceptionPathId
from .receiver import BerReport
from .scenario import (
    ADC_INTS,
    ScenarioError,
    config_from_dict,
    config_to_dict,
    json_int,
    json_number,
    json_object,
    json_text,
    schema_version_is,
    text_lines,
)
from .signals import BitSequence
from .simulator import AdcConfig, AdcTrace
from .sweep import SensitivityRecord, SweepCell, SweepResult, snr_from_stats

TRACE_SCHEMA_VERSION = 1
RESULTS_SCHEMA_VERSION = 1
BER_CURVE_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """Unreadable or schema-incompatible artifact file."""


# Characters of a reason kept in an error message; a reason quotes the value
# it refuses, which may be a whole deeply nested JSON value.
_MAX_REASON_CHARS = 200


def _header(path: Path, text: str, name: str, kind: str, version: int) -> dict:
    """The JSON object in ``text``, which must carry ``kind`` and
    ``schema_version``; anything else is a FileFormatError naming the file."""
    header = json_text(text, f"{path}: bad {name} header", FileFormatError)
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: bad {name} header: not a JSON object")
    if not schema_version_is(header, version):
        raise FileFormatError(
            f"{path}: unsupported {name} schema_version {header.get('schema_version')!r}"
        )
    if header.get("kind") != kind:
        raise FileFormatError(f"{path}: not a {name} file (kind={header.get('kind')!r})")
    return header


# -- trace files ---------------------------------------------------------------


# The ADC fields every trace header carries.
_ADC_FIELDS = tuple(f.name for f in fields(AdcConfig))
# The header fields a trace's metadata must not set.
_TRACE_FIELDS = ("schema_version", "kind", *_ADC_FIELDS)


def write_trace(path: str | Path, trace: AdcTrace, extra_meta: dict | None = None) -> None:
    """Write a trace file: a header of the trace's ADC settings and its
    metadata, ``extra_meta`` taking precedence, then one code per line.
    Metadata that would set a header field of its own is a ValueError."""
    meta = dict(trace.meta)
    if extra_meta:
        meta.update(extra_meta)
    for key in _TRACE_FIELDS:
        if key in meta:
            raise ValueError(f"trace metadata must not set the header field {key!r}")
    config = meta.get("config")
    if isinstance(config, PathConfig):
        meta["config"] = config_to_dict(config)
    header = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "kind": "adc-trace",
        "resolution_bits": trace.config.resolution_bits,
        "sample_rate_hz": trace.config.sample_rate_hz,
        "oversampling_ratio": trace.config.oversampling_ratio,
        "samples_per_block": trace.config.samples_per_block,
        **meta,
    }
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(header) + "\n")
        for code in trace.samples:
            f.write(f"{int(code)}\n")


def read_trace(path: str | Path) -> AdcTrace:
    path = Path(path)
    lines = text_lines(path, "trace", FileFormatError)
    header = _header(path, next(lines, (1, ""))[1], "trace", "adc-trace", TRACE_SCHEMA_VERSION)
    for name in _ADC_FIELDS:
        if name not in header:
            raise FileFormatError(f"{path}: trace header lacks {name!r}")
    try:
        config = json_object(
            AdcConfig, {name: header[name] for name in _ADC_FIELDS}, "header", ADC_INTS
        )
    except ScenarioError as exc:
        raise FileFormatError(f"{path}: trace {exc}") from None
    full_scale = config.full_scale
    samples = []
    for lineno, line in lines:
        text = line.strip()
        if not text:
            continue
        try:
            code = int(text)
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: invalid sample {text!r}") from None
        if not 0 <= code <= full_scale:
            raise FileFormatError(f"{path}:{lineno}: sample {code} outside [0, {full_scale}]")
        samples.append(code)
    meta = {k: v for k, v in header.items() if k not in _TRACE_FIELDS}
    return AdcTrace(samples=np.asarray(samples, np.int32), config=config, meta=meta)


# -- results files -------------------------------------------------------------


def snr_to_json(snr: float):
    """JSON form of an SNR: ``{"db": x}``, or "high" for +inf and "none"
    for -inf."""
    if snr == math.inf:
        return "high"
    if snr == -math.inf:
        return "none"
    return {"db": snr}


def snr_from_json(obj) -> float:
    """Inverse of snr_to_json; a "db" value must be a finite number."""
    if obj == "high":
        return math.inf
    if obj == "none":
        return -math.inf
    if isinstance(obj, dict) and set(obj) == {"db"}:
        try:
            return json_number(obj["db"], "db")
        except ScenarioError:
            pass
    raise ValueError(f"bad serialized SNR {obj!r}")


def record_to_dict(record: SensitivityRecord) -> dict:
    out = {
        "path": {"index": record.path.index, "label": record.path.label},
        "config": config_to_dict(record.config),
        "freq_hz": record.freq_hz,
        "mean_on": record.mean_on,
        "mean_off": record.mean_off,
        "diff": record.diff,
        "var_off": record.var_off,
        "snr": snr_to_json(record.snr),
    }
    if record.failed:
        out["failed"] = True
        out["error"] = record.error
    return out


class _FloatTexts(dict):
    """The repr of each nonzero float looked up, made on first lookup and
    kept. One instance serves a whole written file, whose statistic columns
    repeat few values. A zero is formatted anew each time and never kept,
    since 0.0 and -0.0 are equal keys that print apart."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def _column_texts(column: np.ndarray, texts: _FloatTexts):
    """The JSON text of each value of one statistic column, an array.

    A column of finite values is written through ``texts``: repr, which on
    a float is float.__repr__, as json.dumps writes a finite float. Any
    other column is written value by value under the json.dumps rules, a
    NaN (a statistic not measured) as null.
    """
    values = column.tolist()
    # The sum is finite only if every term is (an overflow merely sends the
    # column the general way).
    if math.isfinite(sum(values)):
        return map(texts.__getitem__, values)
    return map(json.dumps, [None if v != v else v for v in values])


def _cell_lines(cell: SweepCell, freq_texts, texts: _FloatTexts) -> str:
    """The lines of the records of one cell, each
    ``json.dumps(record_to_dict(r)) + "\n"``, joined; ``freq_texts`` holds
    the JSON text of each record's ``freq_hz``.

    The path/config prefix is encoded once, each statistic column's texts
    are made by _column_texts through ``texts``, and each line ends with
    the failed suffix when its record failed. Every column is turned into
    Python values once, by tolist, so no numpy scalar reaches a repr.
    """
    head = {
        "path": {"index": cell.path.index, "label": cell.path.label},
        "config": config_to_dict(cell.config),
    }
    prefix = json.dumps(head)[:-1] + ', "freq_hz": '
    stats = (cell.mean_on, cell.mean_off, cell.diff, cell.var_off)
    snr_texts = [
        f'{{"db": {snr!r}}}' if snr - snr == 0.0 else json.dumps(snr_to_json(snr))
        for snr in cell.snr.tolist()
    ]
    endings = [
        ', "failed": true, "error": ' + json.dumps(error) + "}\n" if failed else "}\n"
        for failed, error in zip(cell.failed.tolist(), cell.errors)
    ]
    return "".join([
        f'{prefix}{freq}, "mean_on": {on}, "mean_off": {off}, "diff": {diff}'
        f', "var_off": {var_off}, "snr": {snr}{end}'
        for freq, on, off, diff, var_off, snr, end in zip(
            freq_texts, *(_column_texts(c, texts) for c in stats), snr_texts, endings
        )
    ])


def write_records(path: str | Path, results, header_extra: dict | None = None) -> None:
    """Write a results file, one record per line: ``results`` is a
    SweepResult or an iterable of SweepCells, written one cell at a time
    from its columns. A cell's frequencies are turned into text again only
    when it holds another frequency column than the cell before; each
    nonzero statistic value is turned into text once per file."""
    header = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "kind": "sensitivity-records",
        **(header_extra or {}),
    }
    cells = results.cells if isinstance(results, SweepResult) else results
    freqs = freq_texts = None
    texts = _FloatTexts()
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(header) + "\n")
        for cell in cells:
            if cell.freqs_hz is not freqs:
                freqs = cell.freqs_hz
                freq_texts = [json.dumps(freq) for freq in freqs]
            f.write(_cell_lines(cell, freq_texts, texts))


def read_records(path: str | Path) -> tuple[dict, list[SweepCell]]:
    """The header of a results file and its records as SweepCells, one per
    run of consecutive lines with equal path and config, in file order.
    Each cell holds the run's frequencies as a tuple of its own and its
    statistics and SNRs as float64 arrays, a null statistic of a failed
    record as NaN; writing the cells gives the lines back.

    Every line is validated. The path index must be a JSON integer >= 0 and
    its label a string. The statistics must be finite numbers, or null on a
    failed record; ``var_off`` must be >= 0 and ``diff`` exactly ``mean_on -
    mean_off``, ``failed`` a JSON bool and ``error`` a string or null, null
    on a record that has not failed. Then a failed record must hold null
    statistics and the SNR ``"none"``, as every failed cell of a sweep is
    written, and any other record the SNR ``snr_from_stats(diff, var_off)``.
    A violation is a FileFormatError naming the line and quoting a bounded
    excerpt of it. A path or config equal to the previous line's is not
    parsed again: the index and label are checked on every line first, and
    a config object equal to a valid one is valid.
    """
    path = Path(path)
    lines = text_lines(path, "results", FileFormatError)
    header = _header(
        path, next(lines, (1, ""))[1], "results", "sensitivity-records", RESULTS_SCHEMA_VERSION
    )
    runs = []  # ((path, config), rows) of each run of lines
    key = path_id = config = config_obj = rows = None
    for lineno, line in lines:
        text = line.strip()
        if not text:
            continue
        obj = json_text(text, f"{path}:{lineno}", FileFormatError)
        try:
            index = json_int(obj["path"]["index"], "path index")
            label = obj["path"].get("label", "")
            if not isinstance(label, str):
                raise ValueError(f"path label must be a string, got {label!r}")
            if path_id is None or index != path_id.index or label != path_id.label:
                path_id = ReceptionPathId(index=index, label=label)
            failed = obj.get("failed", False)
            if not isinstance(failed, bool):
                raise ValueError(f"failed must be true or false, got {failed!r}")
            error = obj.get("error")
            if error is not None and not isinstance(error, str):
                raise ValueError(f"error must be a string or null, got {error!r}")
            if error is not None and not failed:
                raise ValueError(
                    f"error must be null on a record that has not failed, got {error!r}"
                )
            mean_on, mean_off, diff, var_off = (
                None if failed and obj[name] is None else json_number(obj[name], name)
                for name in ("mean_on", "mean_off", "diff", "var_off")
            )
            if var_off is not None and var_off < 0:
                raise ValueError(f"var_off must be >= 0, got {var_off!r}")
            if diff is not None and (
                mean_on is None or mean_off is None or diff != mean_on - mean_off
            ):
                raise ValueError(f"diff must be mean_on - mean_off, got {diff!r}")
            if config is None or obj["config"] != config_obj:
                config = config_from_dict(obj["config"])
                config_obj = obj["config"]
            statistics = (mean_on, mean_off, diff, var_off)
            snr = snr_from_json(obj["snr"])
            row = (json_number(obj["freq_hz"], "freq_hz"), *statistics, snr, failed, error)
            if failed and (statistics != (None,) * 4 or snr != -math.inf):
                raise ValueError(
                    'statistics must be null and snr "none" on a failed record, '
                    f"got {statistics!r} and {obj['snr']!r}"
                )
            if not failed and snr != (want := snr_from_stats(diff, var_off)):
                raise ValueError(
                    f"snr must be {snr_to_json(want)!r} from diff and var_off, "
                    f"got {obj['snr']!r}"
                )
        except (KeyError, TypeError, ValueError, ScenarioError) as exc:
            reason = str(exc)
            if len(reason) > _MAX_REASON_CHARS:
                reason = reason[:_MAX_REASON_CHARS] + "..."
            raise FileFormatError(
                f"{path}:{lineno}: bad sensitivity record {reprlib.repr(obj)}: {reason}"
            ) from None
        if (path_id, config) != key:
            key, rows = (path_id, config), []
            runs.append((key, rows))
        rows.append(row)
    cells = []
    for (path_id, config), rows in runs:
        # SweepCell makes the arrays: float64 columns, a null statistic NaN.
        cells.append(SweepCell(path_id, config, *zip(*rows)))
    return header, cells


# -- bits files ----------------------------------------------------------------


def write_bits(path: str | Path, bits: BitSequence) -> None:
    with open(path, "w", newline="\n") as f:
        for b in bits.bits:
            f.write("1\n" if b else "0\n")


def read_bits(path: str | Path) -> BitSequence:
    path = Path(path)
    values = []
    for lineno, line in text_lines(path, "bits file", FileFormatError):
        text = line.strip()
        if not text:
            continue
        if text not in ("0", "1"):
            raise FileFormatError(f"{path}:{lineno}: expected 0 or 1, got {text!r}")
        values.append(int(text))
    return BitSequence(bits=np.asarray(values, np.uint8))


# -- BER report ----------------------------------------------------------------


def ber_report_to_dict(report: BerReport) -> dict:
    out = asdict(report)
    out["error_positions"] = list(report.error_positions)
    out["burst_runs"] = [list(run) for run in report.burst_runs]
    return out


def write_ber_report(path: str | Path, report: BerReport) -> None:
    Path(path).write_text(json.dumps(ber_report_to_dict(report), indent=2) + "\n")


# -- ber-curve documents ---------------------------------------------------------


def write_ber_curve(path: str | Path, points: list[dict]) -> None:
    doc = {"kind": "ber-curve", "schema_version": BER_CURVE_SCHEMA_VERSION, "points": points}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_ber_curve(path: str | Path) -> list[dict]:
    """The points of a ber-curve document, validated.

    Every point is an object with the keys of the first point, among them a
    finite ``incident_dbm`` and a finite ``ber`` in [0, 1]. A violation is a
    FileFormatError naming the point.
    """
    path = Path(path)
    text = "".join(line for _, line in text_lines(path, "ber-curve", FileFormatError))
    doc = _header(path, text, "ber-curve", "ber-curve", BER_CURVE_SCHEMA_VERSION)
    points = doc.get("points")
    if not isinstance(points, list):
        raise FileFormatError(f"{path}: ber-curve points must be a list, got {points!r}")
    for i, point in enumerate(points):
        try:
            if not isinstance(point, dict):
                raise ValueError("not a JSON object")
            for name in ("incident_dbm", "ber"):
                if name not in point:
                    raise ValueError(f"lacks {name!r}")
                json_number(point[name], name)
            if not 0 <= point["ber"] <= 1:
                raise ValueError(f"ber must lie in [0, 1], got {point['ber']!r}")
            if point.keys() != points[0].keys():
                raise ValueError("its keys differ from those of point 0")
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad ber-curve point {i}: {exc}") from None
    return points


# -- run manifests ---------------------------------------------------------------


def write_manifest(
    command: str,
    argv: list[str],
    seed: int | None,
    outputs: list[str | Path],
    scenario: str | Path | None = None,
    extra: dict | None = None,
) -> None:
    """Write the run manifest beside the first output, as
    ``<outputs[0]>.manifest.json``."""
    from . import __version__

    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "run-manifest",
        "tool": "adcradio",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "scenario": str(scenario) if scenario is not None else None,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": [str(p) for p in outputs],
        **(extra or {}),
    }
    with open(f"{outputs[0]}.manifest.json", "w", newline="\n") as f:
        f.write(json.dumps(manifest, indent=2) + "\n")
