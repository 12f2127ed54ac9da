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
    schema_version_is,
)
from .signals import BitSequence
from .simulator import AdcConfig, AdcTrace
from .sweep import SensitivityRecord, snr_from_json, snr_to_json

TRACE_SCHEMA_VERSION = 1
RESULTS_SCHEMA_VERSION = 1
BER_CURVE_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """Unreadable or schema-incompatible artifact file."""


# Characters of a reason kept in an error message; a reason quotes the value
# it refuses, which may be a whole deeply nested JSON value.
_MAX_REASON_CHARS = 200


def _open_text(path: Path):
    """``path`` open for reading as UTF-8 text. Bytes that are not UTF-8 are
    kept as lone surrogates (surrogateescape) for _utf8_line to report."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _utf8_line(path: Path, lineno: int, line: str) -> str:
    """A line read by _open_text; a FileFormatError naming ``<file>:<line>``
    if the file held bytes there that are not UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00  # surrogateescape's mapping
            raise FileFormatError(
                f"{path}:{lineno}: not UTF-8 text: byte 0x{byte:02X} at column {exc.start + 1}"
            ) from None
    return line


def _header(path: Path, text: str, name: str, kind: str, version: int) -> dict:
    """The JSON object in ``text``, which must carry ``kind`` and
    ``schema_version``; anything else is a FileFormatError naming the file."""
    try:
        header = json.loads(text)
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad {name} header: {exc}") from None
    except RecursionError:
        raise FileFormatError(f"{path}: bad {name} header: JSON nested too deeply") from None
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


def write_trace(path: str | Path, trace: AdcTrace, extra_meta: dict | None = None) -> None:
    meta = dict(trace.meta)
    if extra_meta:
        meta.update(extra_meta)
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
    if not path.exists():
        raise FileFormatError(f"trace not found: {path}")
    with _open_text(path) as f:
        text = _utf8_line(path, 1, f.readline())
        header = _header(path, text, "trace", "adc-trace", TRACE_SCHEMA_VERSION)
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
        for lineno, line in enumerate(f, start=2):
            text = _utf8_line(path, lineno, line).strip()
            if not text:
                continue
            try:
                code = int(text)
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: invalid sample {text!r}") from None
            if not 0 <= code <= full_scale:
                raise FileFormatError(
                    f"{path}:{lineno}: sample {code} outside [0, {full_scale}]"
                )
            samples.append(code)
    meta = {
        k: v
        for k, v in header.items()
        if k not in ("schema_version", "kind", *_ADC_FIELDS)
    }
    return AdcTrace(samples=np.asarray(samples, np.int32), config=config, meta=meta)


# -- results files -------------------------------------------------------------


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


def record_from_dict(obj: dict) -> SensitivityRecord:
    """Inverse of record_to_dict, validating every field.

    The path index must be a JSON integer >= 0 and its label a string. The
    statistics must be finite numbers, or null on a failed record;
    ``var_off`` must be >= 0 and ``diff`` exactly ``mean_on - mean_off``,
    ``failed`` a JSON bool and ``error`` a string or null. A violation is a
    FileFormatError quoting a bounded excerpt of ``obj``.
    """
    try:
        index = json_int(obj["path"]["index"], "path index")
        label = obj["path"].get("label", "")
        if not isinstance(label, str):
            raise ValueError(f"path label must be a string, got {label!r}")
        path = ReceptionPathId(index=index, label=label)
        failed = obj.get("failed", False)
        if not isinstance(failed, bool):
            raise ValueError(f"failed must be true or false, got {failed!r}")
        error = obj.get("error")
        if error is not None and not isinstance(error, str):
            raise ValueError(f"error must be a string or null, got {error!r}")
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
        return SensitivityRecord(
            path=path,
            config=config_from_dict(obj["config"]),
            freq_hz=json_number(obj["freq_hz"], "freq_hz"),
            mean_on=mean_on,
            mean_off=mean_off,
            diff=diff,
            var_off=var_off,
            snr=snr_from_json(obj["snr"]),
            failed=failed,
            error=error,
        )
    except (KeyError, TypeError, ValueError, ScenarioError) as exc:
        reason = str(exc)
        if len(reason) > _MAX_REASON_CHARS:
            reason = reason[:_MAX_REASON_CHARS] + "..."
        raise FileFormatError(f"bad sensitivity record {reprlib.repr(obj)}: {reason}") from None


def _json_number(value) -> str:
    """A number as json.dumps writes it: float repr when finite."""
    if type(value) is float and value - value == 0.0:
        return repr(value)
    return json.dumps(value)


def _snr_text(snr) -> str:
    """The JSON text of an SNR, as json.dumps writes snr_to_json(snr)."""
    snr = snr_to_json(snr)
    if isinstance(snr, dict):
        return '{"db": ' + _json_number(snr["db"]) + "}"
    return json.dumps(snr)


def _run_lines(run: list[SensitivityRecord], freq_texts: dict[float, str]) -> str:
    """The lines of a run of records sharing one path and config object,
    each ``json.dumps(record_to_dict(r)) + "\n"``, joined.

    The path/config prefix is encoded once. A record that has not failed,
    whose ``freq_hz``, statistics and SNR are exact floats and whose
    ``freq_hz`` and statistics are finite, is written with ``!r``, which on
    an exact float is float.__repr__, as json.dumps writes a finite float.
    Its ``freq_hz`` text comes from ``freq_texts`` and its ``var_off`` text
    is reused while the value repeats (a sweep pools one variance over all
    frequencies of a cell). Zeros are never reused: 0.0 and -0.0 compare equal but print
    apart. Any other record is written field by field under the json.dumps
    rules.
    """
    head = {
        "path": {"index": run[0].path.index, "label": run[0].path.label},
        "config": config_to_dict(run[0].config),
    }
    prefix = json.dumps(head)[:-1] + ', "freq_hz": '
    lines = []
    var = var_text = None
    for r in run:
        freq, on, off, diff, var_off, snr = (
            r.freq_hz, r.mean_on, r.mean_off, r.diff, r.var_off, r.snr
        )
        if (
            not r.failed
            and type(freq) is type(on) is type(off) is type(diff) is type(var_off) is float
            and type(snr) is float
            # The sum is finite only if every term is (an overflow merely
            # sends the record the general way).
            and math.isfinite(freq + on + off + diff + var_off)
        ):
            if var_off != var or not var_off:
                var, var_text = var_off, repr(var_off)
            freq_text = freq_texts.get(freq)
            if freq_text is None:
                freq_text = repr(freq)
                if freq:
                    freq_texts[freq] = freq_text
            snr_text = f'{{"db": {snr!r}}}' if snr - snr == 0.0 else _snr_text(snr)
            lines.append(
                f'{prefix}{freq_text}, "mean_on": {on!r}, "mean_off": {off!r}'
                f', "diff": {diff!r}, "var_off": {var_text}, "snr": {snr_text}}}\n'
            )
        else:
            tail = "}\n"
            if r.failed:
                tail = ', "failed": true, "error": ' + json.dumps(r.error) + "}\n"
            lines.append(
                f'{prefix}{_json_number(freq)}, "mean_on": {_json_number(on)}'
                f', "mean_off": {_json_number(off)}, "diff": {_json_number(diff)}'
                f', "var_off": {_json_number(var_off)}, "snr": {_snr_text(snr)}{tail}'
            )
    return "".join(lines)


def record_line(record: SensitivityRecord) -> str:
    """The JSON line of a record, equal to json.dumps(record_to_dict(record))."""
    return _run_lines([record], {})[:-1]


def write_records(path: str | Path, records, header_extra: dict | None = None) -> None:
    """Write a results file, one record per line, streamed: ``records`` may
    be any iterable, and one run of records sharing their path and config
    objects is held at a time. The ``freq_hz`` texts are reused across the
    runs of one call only."""
    header = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "kind": "sensitivity-records",
        **(header_extra or {}),
    }
    freq_texts: dict[float, str] = {}
    run: list[SensitivityRecord] = []
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(header) + "\n")
        for record in records:
            if run and (record.path is not run[0].path or record.config is not run[0].config):
                f.write(_run_lines(run, freq_texts))
                run = []
            run.append(record)
        if run:
            f.write(_run_lines(run, freq_texts))


def read_records(path: str | Path) -> tuple[dict, list[SensitivityRecord]]:
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"results not found: {path}")
    with _open_text(path) as f:
        header = _header(
            path,
            _utf8_line(path, 1, f.readline()),
            "results",
            "sensitivity-records",
            RESULTS_SCHEMA_VERSION,
        )
        records = []
        for lineno, line in enumerate(f, start=2):
            text = _utf8_line(path, lineno, line).strip()
            if not text:
                continue
            try:
                obj = json.loads(text)
            except ValueError as exc:  # bad JSON, or an integer of over 4300 digits
                raise FileFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            except RecursionError:
                raise FileFormatError(f"{path}:{lineno}: JSON nested too deeply") from None
            try:
                records.append(record_from_dict(obj))
            except FileFormatError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return header, records


# -- bits files ----------------------------------------------------------------


def write_bits(path: str | Path, bits: BitSequence) -> None:
    with open(path, "w", newline="\n") as f:
        for b in bits.bits:
            f.write("1\n" if b else "0\n")


def read_bits(path: str | Path) -> BitSequence:
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"bits file not found: {path}")
    values = []
    with _open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            text = _utf8_line(path, lineno, line).strip()
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
    if not path.exists():
        raise FileFormatError(f"ber-curve not found: {path}")
    with _open_text(path) as f:
        text = "".join(_utf8_line(path, lineno, line) for lineno, line in enumerate(f, start=1))
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
    path: str | Path,
    command: str,
    argv: list[str],
    seed: int | None,
    outputs: list[str | Path],
    scenario: str | Path | None = None,
    extra: dict | None = None,
) -> None:
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
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(manifest, indent=2) + "\n")
