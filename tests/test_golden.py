"""Golden SHA-256 digests of the artifacts the toolkit writes.

Determinism tests elsewhere compare one run against another, which cannot
catch a change that alters every run the same way. These digests pin the
bytes themselves, so a refactor that claims "same behaviour" must leave
them unchanged; a deliberate output change updates them with its reason.

numpy does not promise identical ``Generator`` streams across versions
(NEP 19), so the digests are keyed to the numpy version they were made with
and the tests skip on any other.
"""

import hashlib
import json

import numpy as np
import pytest

from adcradio.backend import ReceptionPathId
from adcradio.cli import main
from adcradio.fileio import ber_report_to_dict, record_to_dict
from adcradio.protocol import DutProtocolServer, LoopbackTransport, SerialBackend
from adcradio.receiver import ideal_sync_ber_experiment
from adcradio.scenario import build_rig, bundled_scenario_path, load_scenario
from adcradio.sweep import SweepPlan, enumerate_configs, recommended_configs, run_sweep

GOLDEN_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=(
        f"golden digests were made with numpy {GOLDEN_NUMPY}, running {np.__version__}; "
        "numpy does not promise identical random streams across versions (NEP 19)"
    ),
)

DESK_RESULTS = "a3c234402b1b55ab5b4a8a25581a6664348526efc39e8ae4f78d9a87dec4b793"
LINK_TRACES = {
    "link_3m": "dc426041cf95dfdc32c5e2ea8eeba91684682f028494de7e65bf66542a583545",
    "link_20m": "31684aa23dd8b7681a5c1d38fc3afbab91600e5a6ac7f95acbe0ed6ad8c82855",
}
IDEAL_SYNC_POWERS_DBM = (18.7, 20.7, 22.7, 24.7)
IDEAL_SYNC_REPORTS = "57c0f3714fda44bc96a92f5e11eb063ea0396ff9f2ec6a041678ba0e86f36168"
LOOPBACK_RECORDS = "67680746eed9b3876d01d6f37ce1e511343be7fa8c9bf61afdec34d5d52e208d"


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_lines(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def desk_results(tmp_path_factory):
    """``adcradio sweep --scenario demo_board`` at the CLI defaults: every one
    of the 87 paths x 8 recommended configs x 81 frequencies, scenario seed."""
    out = tmp_path_factory.mktemp("desk")
    assert main(["sweep", "--scenario", "demo_board", "--out", str(out)]) == 0
    return out / "results.jsonl"


def test_desk_sweep_results(desk_results):
    assert sum(1 for _ in desk_results.open()) == 1 + 87 * 8 * 81
    assert sha256_file(desk_results) == DESK_RESULTS


@pytest.mark.parametrize("name", sorted(LINK_TRACES))
def test_simulated_link_trace(tmp_path, name):
    out = tmp_path / f"{name}.trace"
    assert main(["simulate", "--scenario", name, "--out", str(out)]) == 0
    assert sha256_file(out) == LINK_TRACES[name]


def test_ideal_sync_ber_reports():
    """The ``ber --scenario ideal_sync`` experiment, seeded as the CLI seeds
    it (scenario seed + point index), one report per power."""
    scenario = load_scenario(bundled_scenario_path("ideal_sync"))
    tx = scenario.transmission
    path = ReceptionPathId(index=tx.path, label=f"P{tx.path}")
    config = enumerate_configs()[tx.config_index]
    lines = []
    for i, power in enumerate(IDEAL_SYNC_POWERS_DBM):
        backend, source = build_rig(scenario, seed=scenario.seed + i)
        report = ideal_sync_ber_experiment(
            backend, source, path, config, scenario.adc,
            freq_hz=tx.freq_hz, power_dbm=power, n_bits=10_000, seed=scenario.seed + i,
        )
        lines.append(json.dumps(ber_report_to_dict(report)))
    assert sha256_lines(lines) == IDEAL_SYNC_REPORTS


def test_loopback_records():
    """The ``protocol-loopback`` plan on demo_board, swept through
    ``SerialBackend`` and the line codec."""
    scenario = load_scenario(bundled_scenario_path("demo_board"))
    plan = SweepPlan(
        paths=tuple(ReceptionPathId(index=i, label=f"P{i}") for i in range(4)),
        configs=tuple(recommended_configs()[:2]),
        freqs_hz=tuple(np.linspace(200e6, 1000e6, 9)),
        samples_per_block=scenario.adc.samples_per_block,
        adc=scenario.adc,
    )
    backend, source = build_rig(scenario)
    client = SerialBackend(LoopbackTransport(DutProtocolServer(backend)))
    records = run_sweep(plan, client, source)
    assert not any(r.failed for r in records)
    assert sha256_lines(json.dumps(record_to_dict(r)) for r in records) == LOOPBACK_RECORDS
