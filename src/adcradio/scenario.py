"""Declarative scenario files: a device, its couplings, the RF channel.

A scenario is a human-editable JSON document (schema_version 1) that pins
down everything a simulated experiment needs: the DUT (path count, ADC
settings, per-path coupling models), the propagation channel, the RF source
limits, the master seed, and optional transmission defaults used by the
payload-simulation workflow. See docs/file-formats.md for the field-by-field
description; `load_scenario` validates with precise error messages.

`json_int` and `json_number` are the one rule for a JSON field's type that
every reader in the package uses, for scenarios, traces, results records,
ber-curves and trace hints alike; `text_lines` and `json_text` are the one
way those readers open a file and parse its JSON.

`build_rig` turns a scenario into a simulated device and RF source;
`transmit` is the one path that sends a link payload over them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from . import signals
from .backend import (
    GpioMode,
    GpioPull,
    OutputType,
    OutputValue,
    PathConfig,
    ReceptionPathId,
    RfStimulus,
    SimulatedRfSource,
    SimulatorBackend,
    enumerate_configs,
)
from .receiver import DEFAULT_DC_WINDOW_SYMBOLS, DemodParams
from .simulator import (
    AdcConfig,
    AdcTrace,
    BurstSpec,
    CouplingModel,
    DriftSpec,
    Resonance,
    RfChannel,
    SimulatedDut,
)

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

SCENARIO_SCHEMA_VERSION = 1

N_CONFIGS = len(enumerate_configs())

# The integer fields of AdcConfig, for json_object.
ADC_INTS = ("resolution_bits", "oversampling_ratio", "samples_per_block")


class ScenarioError(ValueError):
    """Scenario file missing, malformed, or failing schema validation; also
    a JSON field of the wrong type (json_int, json_number) in any file."""


@dataclass(frozen=True)
class TransmissionDefaults:
    """Optional per-scenario defaults for payload transmission workflows.

    dc_window_symbols is the receiver DC-tracking window calibrated for this
    scenario's drift; it is stamped into simulated traces so a plain demod
    reproduces the calibrated decode.
    """

    path: int = 0
    config_index: int = 0  # index into enumerate_configs()
    freq_hz: float = 868e6
    power_dbm: float = 43.0
    bit_rate_hz: float = 1000.0
    dc_window_symbols: int = DEFAULT_DC_WINDOW_SYMBOLS

    def __post_init__(self):
        if not 0 <= self.config_index < N_CONFIGS:
            raise ValueError(
                f"config_index must lie in 0..{N_CONFIGS - 1}, got {self.config_index!r}"
            )
        if not self.bit_rate_hz > 0:
            raise ValueError(f"bit_rate_hz must be > 0, got {self.bit_rate_hz!r}")
        if self.dc_window_symbols < 3 or self.dc_window_symbols % 2 == 0:
            raise ValueError(
                f"dc_window_symbols must be an odd count >= 3, got {self.dc_window_symbols!r}"
            )


@dataclass(frozen=True)
class Scenario:
    seed: int
    n_paths: int
    adc: AdcConfig
    channel: RfChannel
    source: SimulatedRfSource
    default_model: CouplingModel
    coupling: dict = field(default_factory=dict)
    path_labels: tuple[str, ...] = ()
    transmission: TransmissionDefaults = TransmissionDefaults()
    name: str = ""


def config_to_dict(config: PathConfig) -> dict:
    return {
        "mode": config.mode.value,
        "pupd": config.pupd.value,
        "output_value": config.output_value.value,
        "output_type": config.output_type.value,
    }


def config_from_dict(obj: dict) -> PathConfig:
    if not isinstance(obj, dict):
        raise ScenarioError(f"bad path configuration {obj!r}: expected an object")
    unknown = obj.keys() - _parameters(PathConfig)
    if unknown:
        raise ScenarioError(f"bad path configuration {obj!r}: unknown keys {sorted(unknown)}")
    try:
        return PathConfig(
            mode=GpioMode(obj["mode"]),
            pupd=GpioPull(obj["pupd"]),
            output_value=OutputValue(obj["output_value"]),
            output_type=OutputType(obj["output_type"]),
        )
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"bad path configuration {obj!r}: {exc}") from None


def json_int(value, where: str) -> int:
    """``value`` if it is a JSON integer. Bools, floats (even ``16.0``) and
    strings are a ScenarioError naming ``where``."""
    if type(value) is not int:
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def json_number(value, where: str) -> float:
    """``value`` as a float if it is a finite JSON number (an int or a float,
    not a bool); anything else is a ScenarioError naming ``where``."""
    if type(value) is int or type(value) is float:
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ScenarioError(f"{where} must be a finite number, got {value!r}")


def schema_version_is(doc: dict, expected: int) -> bool:
    """Whether ``doc`` carries ``schema_version`` as the JSON integer
    ``expected``; ``true`` and ``1.0`` are not version 1."""
    try:
        return json_int(doc.get("schema_version"), "schema_version") == expected
    except ScenarioError:
        return False


def text_lines(path: Path | Traversable, what: str, error: type[ValueError]):
    """``(lineno, line)`` for each line of the UTF-8 text file ``path``, a
    filesystem path or a Traversable, counting from 1.

    A path that is not a file (missing, or a directory) raises
    ``error("<what> not found: <path>")``; a line holding bytes that are not
    UTF-8 raises ``error`` naming ``<path>:<line>``, the first such byte and
    its column in characters. ``error`` is the reader's own exception type.
    """
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    # surrogateescape keeps each undecodable byte as a lone surrogate, so the
    # line it lies on can be named.
    with path.open(encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00  # surrogateescape's mapping
                    raise error(
                        f"{path}:{lineno}: not UTF-8 text: byte 0x{byte:02X} "
                        f"at column {exc.start + 1}"
                    ) from None
            yield lineno, line


def json_text(text: str, where: str, error: type[ValueError]):
    """The JSON value of ``text``. Text that is not JSON (an integer literal
    of over 4,300 digits included) raises ``error("<where>: invalid JSON:
    ...")``, and JSON nested past the parser's recursion limit
    ``error("<where>: JSON nested too deeply")``."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise error(f"{where}: invalid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{where}: JSON nested too deeply") from None


@functools.cache
def _parameters(cls) -> frozenset[str]:
    """The keyword parameters of ``cls``; looked up once per class, as
    inspect.signature costs far more than the rest of a scenario load."""
    return frozenset(inspect.signature(cls).parameters)


def json_object(cls, obj, where: str, ints: tuple[str, ...] = ()):
    """``cls`` built from the JSON object ``obj`` of its own fields: JSON
    integers for the fields named in ``ints``, finite numbers (as floats) for
    the others. An unknown key, a value of another type or one ``cls``
    rejects is a ScenarioError naming the field."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = obj.keys() - _parameters(cls)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    fields = {
        key: (json_int if key in ints else json_number)(value, f"{where}.{key}")
        for key, value in obj.items()
    }
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _model_from_dict(obj, where: str) -> CouplingModel:
    """A CouplingModel from its JSON object: the scalar fields through
    json_object, then the resonance list and the drift and burst objects."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    scalars = dict(obj)
    resonances = scalars.pop("resonances", [])
    if not isinstance(resonances, list):
        raise ScenarioError(f"{where}.resonances: expected a list, got {resonances!r}")
    nested = {
        "resonances": tuple(
            json_object(Resonance, r, f"{where}.resonances[{i}]")
            for i, r in enumerate(resonances)
        ),
        "drift": json_object(DriftSpec, scalars.pop("drift", {}), f"{where}.drift"),
        "burst": json_object(BurstSpec, scalars.pop("burst", {}), f"{where}.burst"),
    }
    return replace(json_object(CouplingModel, scalars, where), **nested)


def scenario_from_dict(doc: dict, name: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be an object")
    if not schema_version_is(doc, SCENARIO_SCHEMA_VERSION):
        raise ScenarioError(
            f"unsupported scenario schema_version {doc.get('schema_version')!r} "
            f"(expected {SCENARIO_SCHEMA_VERSION})"
        )
    dut = doc.get("dut")
    if not isinstance(dut, dict):
        raise ScenarioError("scenario is missing the 'dut' object")
    if "n_paths" not in dut:
        raise ScenarioError("dut is missing 'n_paths'")
    n_paths = json_int(dut["n_paths"], "dut.n_paths")
    if n_paths < 1:
        raise ScenarioError(f"dut.n_paths: must be >= 1, got {n_paths}")
    seed = json_int(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ScenarioError(f"seed: must be >= 0, got {seed}")
    adc = json_object(AdcConfig, dut.get("adc", {}), "dut.adc", ADC_INTS)
    channel = json_object(RfChannel, doc.get("channel", {}), "channel")
    source = json_object(SimulatedRfSource, doc.get("rf_source", {}), "rf_source")
    default_model = _model_from_dict(dut.get("default_coupling", {}), "dut.default_coupling")
    coupling: dict = {}
    entries = dut.get("coupling", [])
    if not isinstance(entries, list):
        raise ScenarioError("dut.coupling must be a list")
    for i, entry in enumerate(entries):
        where = f"dut.coupling[{i}]"
        if not isinstance(entry, dict) or "path" not in entry:
            raise ScenarioError(f"{where}: must be an object with a 'path'")
        path = json_int(entry["path"], f"{where}.path")
        if not 0 <= path < n_paths:
            raise ScenarioError(f"{where}: path {path} outside 0..{n_paths - 1}")
        config = entry.get("config")
        try:
            key = (path, config_from_dict(config) if config is not None else None)
        except ScenarioError as exc:
            raise ScenarioError(f"{where}.config: {exc}") from None
        model_fields = {
            k: v for k, v in entry.items() if k not in ("path", "config")
        }
        coupling[key] = _model_from_dict(model_fields, where)
    labels = dut.get("path_labels", [])
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ScenarioError("dut.path_labels: expected a list of strings")
    if len(labels) > n_paths:
        raise ScenarioError(f"dut.path_labels: {len(labels)} labels for {n_paths} paths")
    tx_ints = ("path", "config_index", "dc_window_symbols")
    transmission = json_object(
        TransmissionDefaults, doc.get("transmission", {}), "transmission", tx_ints
    )
    if not 0 <= transmission.path < n_paths:
        raise ScenarioError(
            f"transmission.path: path {transmission.path} outside 0..{n_paths - 1}"
        )
    return Scenario(
        seed=seed,
        n_paths=n_paths,
        adc=adc,
        channel=channel,
        source=source,
        default_model=default_model,
        coupling=coupling,
        path_labels=tuple(labels),
        transmission=transmission,
        name=name,
    )


def load_scenario(path: str | Path | Traversable) -> Scenario:
    """The scenario in ``path``: a filesystem path, or a Traversable such as
    bundled_scenario_path returns (which may lie inside a zip file), read
    through text_lines and json_text."""
    if isinstance(path, str):
        path = Path(path)
    text = "".join(line for _, line in text_lines(path, "scenario", ScenarioError))
    doc = json_text(text, str(path), ScenarioError)
    return scenario_from_dict(doc, name=Path(path.name).stem)


def build_rig(
    scenario: Scenario, seed: int | None = None
) -> tuple[SimulatorBackend, SimulatedRfSource]:
    """Instantiate a fresh simulator backend + RF source from a scenario.

    Every piece of randomness flows from the single scenario seed (or its
    override), so rebuilding the rig reproduces byte-identical behavior.
    """
    dut = SimulatedDut(
        n_paths=scenario.n_paths,
        adc=scenario.adc,
        channel=scenario.channel,
        coupling=scenario.coupling,
        default_model=scenario.default_model,
        seed=scenario.seed if seed is None else seed,
    )
    source = SimulatedRfSource(
        min_power_dbm=scenario.source.min_power_dbm,
        max_power_dbm=scenario.source.max_power_dbm,
        min_freq_hz=scenario.source.min_freq_hz,
        max_freq_hz=scenario.source.max_freq_hz,
    )
    return SimulatorBackend(dut, source), source


def transmit(
    scenario: Scenario,
    bits: signals.BitSequence,
    rig: tuple[SimulatorBackend, SimulatedRfSource] | None = None,
    tx: TransmissionDefaults | None = None,
) -> tuple[AdcTrace, DemodParams]:
    """Send ``bits`` as OOK over ``tx`` (default: the scenario's
    transmission) and capture the whole payload on ``rig`` (default: a fresh
    ``build_rig(scenario)``).

    Configures path ``tx.path`` with ``enumerate_configs()[tx.config_index]``
    and the scenario's ADC, keys the source with the modulated envelope and
    captures every block the payload needs. Returns the trace and the
    DemodParams that decode it. The ADC rate over ``tx.bit_rate_hz`` must be
    an integer samples-per-symbol >= 2, else ValueError.
    """
    tx = scenario.transmission if tx is None else tx
    backend, source = build_rig(scenario) if rig is None else rig
    rate = scenario.adc.sample_rate_hz
    sps = rate / tx.bit_rate_hz
    if sps != int(sps) or int(sps) < 2:
        raise ValueError(
            f"ADC rate {rate} Hz / bit rate {tx.bit_rate_hz} Hz must be an integer "
            f"samples-per-symbol >= 2, got {sps}"
        )
    sps = int(sps)
    # Called through the module, so a wrapper on signals.modulate_ook sees it.
    envelope = signals.modulate_ook(bits, sps, 1.0, symbol_rate_hz=tx.bit_rate_hz)
    backend.configure(
        ReceptionPathId(tx.path, f"P{tx.path}"), enumerate_configs()[tx.config_index], scenario.adc
    )
    source.rf_set(
        RfStimulus(freq_hz=tx.freq_hz, power_dbm=tx.power_dbm, enabled=True, envelope=envelope)
    )
    trace = backend.capture(-(-len(bits) * sps // scenario.adc.samples_per_block))
    return trace, DemodParams(sps, tx.dc_window_symbols)


def bundled_scenario_path(name: str) -> Traversable:
    """A scenario shipped with the package, as load_scenario reads it; from
    a zipped install it is a path inside the zip file."""
    base = resources.files("adcradio") / "scenarios"
    candidate = base / (name if name.endswith(".json") else f"{name}.json")
    if not candidate.is_file():
        available = sorted(f.name for f in base.iterdir() if f.name.endswith(".json"))
        raise ScenarioError(f"no bundled scenario {name!r}; available: {available}")
    return candidate
