"""Declarative scenario files: a device, its couplings, the RF channel.

A scenario is a human-editable JSON document (schema_version 1) that pins
down everything a simulated experiment needs: the DUT (path count, ADC
settings, per-path coupling models), the propagation channel, the RF source
limits, the master seed, and optional transmission defaults used by the
payload-simulation workflow. See docs/file-formats.md for the field-by-field
description; `load_scenario` validates with precise error messages.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

from .backend import (
    GpioMode,
    GpioPull,
    OutputType,
    OutputValue,
    PathConfig,
    SimulatedRfSource,
    SimulatorBackend,
)
from .simulator import (
    AdcConfig,
    BurstSpec,
    CouplingModel,
    DriftSpec,
    Resonance,
    RfChannel,
    SimulatedDut,
)

SCENARIO_SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario file missing, malformed, or failing schema validation."""


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
    dc_window_symbols: int = 15


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
    try:
        return PathConfig(
            mode=GpioMode(obj["mode"]),
            pupd=GpioPull(obj["pupd"]),
            output_value=OutputValue(obj["output_value"]),
            output_type=OutputType(obj["output_type"]),
        )
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"bad path configuration {obj!r}: {exc}") from None


def _int_field(value, where: str) -> int:
    """An integer-valued field; booleans and fractional numbers are rejected."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return number


def _numeric_object(cls, obj, where: str, ints: tuple[str, ...] = ()):
    """``cls`` built from an object of numbers: integers (as _int_field reads
    them) for the fields named in ``ints``, finite numbers, kept as written,
    for the others. Anything else is a ScenarioError naming the field."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    fields = dict(obj)
    for key, value in obj.items():
        if key in ints:
            fields[key] = _int_field(value, f"{where}.{key}")
        elif type(value) is not int and not (type(value) is float and math.isfinite(value)):
            raise ScenarioError(f"{where}.{key}: expected a finite number, got {value!r}")
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _model_from_dict(obj: dict, where: str) -> CouplingModel:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    known = {
        "resonances",
        "nonlinearity_exponent",
        "baseband_bandwidth_hz",
        "noise_sigma",
        "drift",
        "burst",
        "dc_operating_point",
    }
    unknown = set(obj) - known
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        resonances = tuple(
            Resonance(
                center_hz=float(r["center_hz"]),
                bandwidth_hz=float(r["bandwidth_hz"]),
                peak_gain=float(r["peak_gain"]),
            )
            for r in obj.get("resonances", [])
        )
        drift = DriftSpec(**obj.get("drift", {}))
        burst = BurstSpec(**obj.get("burst", {}))
        return CouplingModel(
            resonances=resonances,
            nonlinearity_exponent=float(obj.get("nonlinearity_exponent", 1.0)),
            baseband_bandwidth_hz=float(obj.get("baseband_bandwidth_hz", 50e3)),
            noise_sigma=float(obj.get("noise_sigma", 0.0)),
            drift=drift,
            burst=burst,
            dc_operating_point=float(obj.get("dc_operating_point", 2048.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _model_to_dict(model: CouplingModel) -> dict:
    out: dict = {}
    if model.resonances:
        out["resonances"] = [asdict(r) for r in model.resonances]
    out["nonlinearity_exponent"] = model.nonlinearity_exponent
    out["baseband_bandwidth_hz"] = model.baseband_bandwidth_hz
    out["noise_sigma"] = model.noise_sigma
    if model.drift != DriftSpec():
        out["drift"] = asdict(model.drift)
    if model.burst != BurstSpec():
        out["burst"] = asdict(model.burst)
    out["dc_operating_point"] = model.dc_operating_point
    return out


def scenario_from_dict(doc: dict, name: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be an object")
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported scenario schema_version {version!r} "
            f"(expected {SCENARIO_SCHEMA_VERSION})"
        )
    dut = doc.get("dut")
    if not isinstance(dut, dict):
        raise ScenarioError("scenario is missing the 'dut' object")
    if "n_paths" not in dut:
        raise ScenarioError("dut is missing 'n_paths'")
    n_paths = _int_field(dut["n_paths"], "dut.n_paths")
    if n_paths < 1:
        raise ScenarioError(f"dut.n_paths: must be >= 1, got {n_paths}")
    seed = _int_field(doc.get("seed", 0), "seed")
    adc_ints = ("resolution_bits", "oversampling_ratio", "samples_per_block")
    adc = _numeric_object(AdcConfig, dut.get("adc", {}), "dut.adc", adc_ints)
    channel = _numeric_object(RfChannel, doc.get("channel", {}), "channel")
    source = _numeric_object(SimulatedRfSource, doc.get("rf_source", {}), "rf_source")
    default_model = _model_from_dict(dut.get("default_coupling", {}), "dut.default_coupling")
    coupling: dict = {}
    entries = dut.get("coupling", [])
    if not isinstance(entries, list):
        raise ScenarioError("dut.coupling must be a list")
    for i, entry in enumerate(entries):
        where = f"dut.coupling[{i}]"
        if not isinstance(entry, dict) or "path" not in entry:
            raise ScenarioError(f"{where}: must be an object with a 'path'")
        path = _int_field(entry["path"], f"{where}.path")
        if not 0 <= path < n_paths:
            raise ScenarioError(f"{where}: path {path} outside 0..{n_paths - 1}")
        config = entry.get("config")
        key = (path, config_from_dict(config) if config is not None else None)
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
    transmission = _numeric_object(
        TransmissionDefaults, doc.get("transmission", {}), "transmission", tx_ints
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


def scenario_to_dict(scenario: Scenario) -> dict:
    entries = []
    for (path, config), model in scenario.coupling.items():
        entry: dict = {"path": path}
        if config is not None:
            entry["config"] = config_to_dict(config)
        entry.update(_model_to_dict(model))
        entries.append(entry)
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "seed": scenario.seed,
        "channel": asdict(scenario.channel),
        "rf_source": {
            "min_power_dbm": scenario.source.min_power_dbm,
            "max_power_dbm": scenario.source.max_power_dbm,
            "min_freq_hz": scenario.source.min_freq_hz,
            "max_freq_hz": scenario.source.max_freq_hz,
        },
        "dut": {
            "n_paths": scenario.n_paths,
            "adc": asdict(scenario.adc),
            "default_coupling": _model_to_dict(scenario.default_model),
            "coupling": entries,
            **({"path_labels": list(scenario.path_labels)} if scenario.path_labels else {}),
        },
        "transmission": asdict(scenario.transmission),
    }


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from None
    return scenario_from_dict(doc, name=path.stem)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


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


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    base = resources.files("adcradio") / "scenarios"
    candidate = base / (name if name.endswith(".json") else f"{name}.json")
    with resources.as_file(candidate) as p:
        if not p.exists():
            available = sorted(f.name for f in (base.iterdir()) if f.name.endswith(".json"))
            raise ScenarioError(f"no bundled scenario {name!r}; available: {available}")
        return Path(p)
