"""Command-line surface for every workflow in the toolkit.

Exit codes: 0 success, 1 runtime failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .backend import BackendError, ReceptionPathId, RfSourceError
from .fileio import (
    FileFormatError,
    ber_report_to_dict,
    read_ber_curve,
    read_bits,
    read_records,
    read_trace,
    record_to_dict,
    write_ber_curve,
    write_ber_report,
    write_bits,
    write_manifest,
    write_records,
    write_trace,
)
from .plots import render_ber_curve, render_eye, render_heatmap, render_spectrum
from .protocol import DutProtocolServer, LoopbackTransport, SerialBackend
from .receiver import (
    DEFAULT_DC_WINDOW_SYMBOLS,
    DemodParams,
    ber,
    demodulate,
    ideal_sync_ber_experiment,
)
from .scenario import (
    ScenarioError,
    build_rig,
    bundled_scenario_path,
    json_int,
    load_scenario,
    transmit,
)
from .signals import BitSequence, dbm_to_mw, fspl_db, generate_bits
from .simulator import RfChannel
from .sweep import (
    DEFAULT_THRESHOLD_DB,
    SweepPlan,
    classify_sensitive,
    config_order,
    enumerate_configs,
    recommended_configs,
    run_sweep,
    spectra_from_records,
)


class UsageError(Exception):
    """Bad flags or unusable input files (exit code 2)."""


def _resolve_scenario(spec: str):
    """Accept a filesystem path or the name of a bundled scenario."""
    path = Path(spec)
    if path.exists():
        return load_scenario(path), path
    if "/" not in spec and "\\" not in spec:
        try:
            bundled = bundled_scenario_path(spec)
            return load_scenario(bundled), bundled
        except ScenarioError:
            pass
    raise ScenarioError(f"scenario not found: {spec}")


def _parse_indices(flag: str, arg: str, items: list, named: dict[str, list]) -> list:
    """The items that ``arg`` picks: the list a key of ``named`` stands for,
    or comma-separated indices into ``items``."""
    if arg in named:
        return named[arg]
    try:
        indices = [int(tok) for tok in arg.split(",") if tok != ""]
    except ValueError:
        words = ", ".join(map(repr, named))
        raise UsageError(f"{flag} must be {words} or comma-separated indices, got {arg!r}")
    if not indices:
        raise UsageError(f"{flag} is empty")
    for i in indices:
        if not 0 <= i < len(items):
            raise UsageError(f"{flag} index {i} outside 0..{len(items) - 1}")
    return [items[i] for i in indices]


def _parse_paths(arg: str, n_paths: int, labels) -> list[ReceptionPathId]:
    paths = [
        ReceptionPathId(index=i, label=labels[i] if i < len(labels) else f"P{i}")
        for i in range(n_paths)
    ]
    return _parse_indices("--paths", arg, paths, {"all": paths})


def _parse_configs(arg: str):
    configs = enumerate_configs()
    return _parse_indices(
        "--configs", arg, configs, {"recommended": recommended_configs(), "all": configs}
    )


def _seed(args, scenario) -> int:
    """The --seed flag if given, else the scenario's seed."""
    if args.seed is None:
        return scenario.seed
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be a finite number, got {value}")


def _hint(trace, name: str, flag: int | None) -> int | None:
    """The flag if given, else the trace's hint ``name``, which must be a JSON
    integer (not a bool or a float), else None."""
    if flag is not None or trace.meta.get(name) is None:
        return flag
    return json_int(trace.meta[name], f"trace hint {name}")


def _demod_params(trace, sps_flag: int | None, dc_window_flag: int | None = None) -> DemodParams:
    """The receiver settings of ``demod`` and the eye report."""
    sps = _hint(trace, "samples_per_symbol", sps_flag)
    if sps is None:
        raise UsageError("--samples-per-symbol required (trace metadata carries no hint)")
    dc_window = _hint(trace, "dc_window_symbols", dc_window_flag)
    return DemodParams(sps, DEFAULT_DC_WINDOW_SYMBOLS if dc_window is None else dc_window)


# -- subcommands -----------------------------------------------------------------


def cmd_sweep(args) -> int:
    scenario, scenario_path = _resolve_scenario(args.scenario)
    seed = _seed(args, scenario)
    backend, source = build_rig(scenario, seed=seed)
    paths = _parse_paths(args.paths, scenario.n_paths, scenario.path_labels)
    configs = _parse_configs(args.configs)
    freqs = np.linspace(args.freq_start, args.freq_stop, args.freq_points)
    plan = SweepPlan(
        paths=tuple(paths),
        configs=tuple(configs),
        freqs_hz=tuple(freqs),
        power_dbm=args.power_dbm,
        samples_per_block=args.samples_per_block,
        blocks_per_state=args.blocks_per_state,
        adc=scenario.adc,
    )
    records = run_sweep(plan, backend, source)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.jsonl"
    write_records(results_path, records, header_extra={"seed": seed})
    sensitive = [s for s in spectra_from_records(records) if classify_sensitive(s, args.threshold_db)]
    write_manifest(
        command="sweep",
        argv=args.argv,
        seed=seed,
        outputs=[results_path],
        scenario=scenario_path,
        extra={
            "records": len(records),
            "sensitive_cells": len(sensitive),
            "threshold_db": args.threshold_db,
        },
    )
    print(
        f"{len(records)} records -> {results_path} "
        f"({len(sensitive)} sensitive cells at {args.threshold_db:.1f} dB)"
    )
    return 0


def cmd_demod(args) -> int:
    trace = read_trace(args.trace)
    bits = demodulate(trace, _demod_params(trace, args.samples_per_symbol, args.dc_window))
    report = None
    if args.reference:  # read before --out is written, which may name the same file
        reference = read_bits(args.reference)
        if len(bits) < len(reference):
            raise UsageError(f"decoded only {len(bits)} bits but reference has {len(reference)}")
        # Block-aligned captures may run a little past the payload; score the
        # known payload span only.
        report = ber(BitSequence(bits=bits.bits[: len(reference)]), reference)
    if args.out:
        write_bits(args.out, bits)
        outputs = [args.out]
        if report is not None:
            outputs.append(Path(args.out).with_suffix(".ber.json"))
            write_ber_report(outputs[-1], report)
        write_manifest(command="demod", argv=args.argv, seed=None, outputs=outputs)
    print(f"{len(bits)} bits -> {args.out}" if args.out else f"{len(bits)} bits decoded")
    if report is not None:
        print(json.dumps(ber_report_to_dict(report) | {"kind": "ber-report"}))
    return 0


def cmd_ber(args) -> int:
    if args.decoded and args.reference:
        report = ber(read_bits(args.decoded), read_bits(args.reference))
        print(json.dumps(ber_report_to_dict(report), indent=2))
        if args.out:
            write_ber_report(args.out, report)
            write_manifest(command="ber", argv=args.argv, seed=None, outputs=[args.out])
        return 0
    if not args.scenario:
        raise UsageError("ber needs either --decoded + --reference or --scenario")
    scenario, scenario_path = _resolve_scenario(args.scenario)
    seed = _seed(args, scenario)
    try:
        powers = [float(tok) for tok in args.powers.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"--powers must be comma-separated dBm values, got {args.powers!r}")
    for power in powers:
        _finite("--powers", power)
    if not powers:
        raise UsageError("--powers is empty")
    tx = scenario.transmission
    config = enumerate_configs()[tx.config_index]
    path = ReceptionPathId(index=tx.path, label=f"P{tx.path}")
    points = []
    for i, power in enumerate(powers):
        backend, source = build_rig(scenario, seed=seed + i)
        report = ideal_sync_ber_experiment(
            backend,
            source,
            path,
            config,
            scenario.adc,
            freq_hz=tx.freq_hz,
            power_dbm=power,
            n_bits=args.bits,
            samples_per_bit=args.samples_per_bit,
            seed=seed + i,
        )
        incident = scenario.channel.incident_dbm(power, tx.freq_hz)
        points.append(
            {
                "power_dbm": power,
                "incident_dbm": round(incident, 3),
                "bits": report.total_bits,
                "errors": report.error_count,
                "ber": report.ber,
            }
        )
        print(
            f"P_tx {power:+.1f} dBm  incident {incident:+.1f} dBm  "
            f"BER {report.ber:.4g} ({report.error_count}/{report.total_bits})"
        )
    if args.out:
        write_ber_curve(args.out, points)
        write_manifest(
            command="ber", argv=args.argv, seed=seed, outputs=[args.out], scenario=scenario_path
        )
    return 0


def cmd_report(args) -> int:
    out_svg = Path(f"{args.out}.svg")
    out_csv = Path(f"{args.out}.csv")
    if args.kind == "heatmap":
        _, cells = read_records(args.results)
        info = render_heatmap(cells, out_svg, out_csv)
    elif args.kind == "spectrum":
        _, cells = read_records(args.results)
        if not cells:
            raise UsageError("no records")
        spectra = spectra_from_records(cells)
        if args.config_index is not None:
            order = config_order(spectra)
            spectra = [s for s in spectra if order[s.config] == args.config_index]
        if args.path is not None:
            spectra = [s for s in spectra if s.path.index == args.path]
        if not spectra:
            raise UsageError("no spectrum matches --path/--config-index")
        # A given path takes its first match; otherwise the best cell is shown.
        if args.path is not None:
            spectrum = spectra[0]
        else:
            spectrum = max(spectra, key=lambda s: s.snr.max())
        info = render_spectrum(spectrum, out_svg, out_csv)
    elif args.kind == "ber-curve":
        info = render_ber_curve(read_ber_curve(args.results), out_svg, out_csv)
    else:  # eye; argparse restricts the choices
        trace = read_trace(args.results)
        info = render_eye(trace, _demod_params(trace, args.samples_per_symbol), out_svg, out_csv)
    write_manifest(
        command="report", argv=args.argv, seed=None, outputs=[out_svg, out_csv], extra=info
    )
    print(f"{args.kind} -> {out_svg} + {out_csv}")
    return 0


def cmd_linkbudget(args) -> int:
    channel = RfChannel(g_tx_dbi=args.gain_tx, g_rx_dbi=args.gain_rx, distance_m=args.distance)
    loss = fspl_db(args.distance, args.freq)
    incident = channel.incident_dbm(args.power_dbm, args.freq)
    print(f"FSPL({args.distance} m, {args.freq / 1e6:.1f} MHz) = {loss:.2f} dB")
    print(f"incident power = {incident:.2f} dBm = {dbm_to_mw(incident):.4g} mW")
    return 0


def cmd_simulate(args) -> int:
    out = Path(args.out)
    bits_path = out.with_suffix(".bits")
    if bits_path == out:
        raise UsageError(f"--out {out} is the payload bits file; give the trace another suffix")
    scenario, scenario_path = _resolve_scenario(args.scenario)
    seed = _seed(args, scenario)
    flags = {
        "freq_hz": args.freq,
        "power_dbm": args.power_dbm,
        "bit_rate_hz": args.bit_rate,
        "path": args.path,
        "config_index": args.config_index,
    }
    tx = replace(scenario.transmission, **{k: v for k, v in flags.items() if v is not None})
    if not 0 <= tx.path < scenario.n_paths:
        raise UsageError(f"--path {tx.path} outside 0..{scenario.n_paths - 1}")

    bits = generate_bits(args.bits, seed)
    trace, params = transmit(scenario, bits, rig=build_rig(scenario, seed=seed), tx=tx)

    write_trace(
        out,
        trace,
        extra_meta={
            "samples_per_symbol": params.samples_per_symbol,
            "bit_rate_hz": tx.bit_rate_hz,
            "payload_bits": len(bits),
            "payload_seed": seed,
            "dc_window_symbols": tx.dc_window_symbols,
        },
    )
    write_bits(bits_path, bits)
    write_manifest(
        command="simulate",
        argv=args.argv,
        seed=seed,
        outputs=[out, bits_path],
        scenario=scenario_path,
        extra={"bits": len(bits), "bit_rate_hz": tx.bit_rate_hz, "freq_hz": tx.freq_hz},
    )
    print(f"{len(trace)} samples ({len(bits)} bits at {tx.bit_rate_hz:.0f} bps) -> {out}")
    return 0


def cmd_protocol_loopback(args) -> int:
    scenario, _ = _resolve_scenario(args.scenario)
    seed = _seed(args, scenario)
    n_paths = min(scenario.n_paths, 4)
    paths = [ReceptionPathId(index=i, label=f"P{i}") for i in range(n_paths)]
    plan = SweepPlan(
        paths=tuple(paths),
        configs=tuple(recommended_configs()[:2]),
        freqs_hz=tuple(np.linspace(200e6, 1000e6, 9)),
        samples_per_block=scenario.adc.samples_per_block,
        adc=scenario.adc,
    )
    direct_backend, direct_source = build_rig(scenario, seed=seed)
    direct = run_sweep(plan, direct_backend, direct_source)

    loop_backend, loop_source = build_rig(scenario, seed=seed)
    server = DutProtocolServer(loop_backend)
    client = SerialBackend(LoopbackTransport(server))
    looped = run_sweep(plan, client, loop_source)

    want = [json.dumps(record_to_dict(r)) for r in direct]
    if [json.dumps(record_to_dict(r)) for r in looped] == want:
        print(
            f"loopback OK: {len(direct)} records byte-identical through the codec; "
            f"{client.retries} retries, {client.timeouts} timeouts, "
            f"{client.stale_lines_dropped} stale lines dropped"
        )
        return 0
    print("loopback MISMATCH: direct and codec-driven sweeps differ", file=sys.stderr)
    return 1


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adcradio",
        description="Discover parasitic RF sensitivities and use them as OOK receivers.",
    )
    parser.add_argument("--version", action="version", version=f"adcradio {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a sensitivity sweep on a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--paths", default="all")
    p.add_argument("--configs", default="recommended")
    p.add_argument("--freq-start", type=float, default=200e6)
    p.add_argument("--freq-stop", type=float, default=1000e6)
    p.add_argument("--freq-points", type=int, default=81)
    p.add_argument("--power-dbm", type=float, default=43.0)
    p.add_argument("--samples-per-block", type=int, default=32)
    p.add_argument("--blocks-per-state", type=int, default=1)
    p.add_argument("--threshold-db", type=float, default=DEFAULT_THRESHOLD_DB)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demod", help="decode an OOK trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--out")
    p.add_argument("--reference")
    p.add_argument("--samples-per-symbol", type=int)
    p.add_argument("--dc-window", type=int, help="DC window in symbols (odd); "
                   f"defaults to the trace's hint, else {DEFAULT_DC_WINDOW_SYMBOLS}")
    p.set_defaults(func=cmd_demod)

    p = sub.add_parser("ber", help="compare bit files, or run the ideal-sync BER experiment")
    p.add_argument("--decoded")
    p.add_argument("--reference")
    p.add_argument("--scenario")
    p.add_argument("--powers", default="0")
    p.add_argument("--bits", type=int, default=10000)
    p.add_argument("--samples-per-bit", type=int, default=127)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("report", help="render SVG + CSV reports from result files")
    p.add_argument("--results", required=True)
    p.add_argument("--kind", required=True, choices=["heatmap", "spectrum", "ber-curve", "eye"])
    p.add_argument("--out", required=True, help="output prefix (writes .svg and .csv)")
    p.add_argument("--path", type=int)
    p.add_argument("--config-index", type=int)
    p.add_argument("--samples-per-symbol", type=int)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("linkbudget", help="FSPL and incident power")
    p.add_argument("--power-dbm", type=float, required=True)
    p.add_argument("--gain-tx", type=float, default=0.0)
    p.add_argument("--gain-rx", type=float, default=0.0)
    p.add_argument("--distance", type=float, required=True)
    p.add_argument("--freq", type=float, required=True)
    p.set_defaults(func=cmd_linkbudget)

    p = sub.add_parser("simulate", help="transmit an OOK payload through a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--bits", type=int, default=12565)
    p.add_argument("--bit-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--freq", type=float)
    p.add_argument("--power-dbm", type=float)
    p.add_argument("--path", type=int)
    p.add_argument("--config-index", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "protocol-loopback",
        help="verify the serial codec reproduces direct sweeps byte-exactly",
    )
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_protocol_loopback)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # what the manifests record
    try:
        # Every float flag: argparse's float() also takes nan and inf.
        for name, value in vars(args).items():
            if isinstance(value, float):
                _finite("--" + name.replace("_", "-"), value)
        return args.func(args)
    except (UsageError, ScenarioError, FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BackendError, RfSourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
