"""Self-test of the benchmark at toy size.

Run from the repository root with ``python3 benchmarks/selftest.py`` (or
under pytest). It checks that every metric named in ``BENCHMARK.json`` is
emitted with its unit, in both modes and on every workload, and that a
corrupted output counts as a failed operation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()
run.SETUP_SAMPLES = 1

import workloads as wl  # noqa: E402

TOY = wl.TOY
SEED = 7


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _one_round(name: str):
    from clock import Clock

    tmp = wl.make_tmp_dir(run.ROOT)
    try:
        workload = wl.WORKLOADS[name](SEED, TOY, tmp, Clock())
        result = workload.run(0, workload.inputs(0))
        return workload, result, tmp
    except BaseException:
        wl.remove_tmp_dir(tmp)
        raise


def test_metric_names_and_units():
    declared = {0: _declared("end_to_end"), 1: _declared("per_layer")}
    assert declared[0] == run.END_TO_END
    assert declared[1] == run.PER_LAYER
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            result, detail = run.run(name, SEED, 0.05, bool(trace), size=TOY)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared[trace], (name, trace)
            assert result["failed"] == 0, (name, trace, detail["errors"])
            assert result["correct"] is True
            assert result["attempted"] >= 1
            assert detail["round0_sha256"]
            json.dumps(detail)
            if not trace:
                assert detail["failed_frac"] == 0.0
                assert detail[f"{run.WORK_UNIT[name]}_per_s"] == result["metrics"]["work_per_s"]["value"]
            if trace:
                assert detail["round0_sha256_same_untraced"], name
                assert (run.ROOT / detail["spans_file"]).is_file()


def test_altered_loopback_record_fails_one_operation():
    workload, result, tmp = _one_round("sweep_loopback")
    try:
        records = result.outputs[0]
        records[5] = replace(records[5], mean_on=records[5].mean_on + 1.0)
        check = workload.check(0, result)
    finally:
        wl.remove_tmp_dir(tmp)
    assert check.failed == 1
    assert list(check.errors) == [0]


def test_flipped_reference_bit_fails_the_payload():
    workload, result, tmp = _one_round("link_decode")
    wl.remove_tmp_dir(tmp)
    decoded, report = result.outputs[0]
    assert workload.check(0, result).failed == 0
    flipped = decoded.bits.copy()
    flipped[0] ^= 1
    result.outputs[0] = (decoded, wl.rx.ber(decoded, wl.sig.BitSequence(bits=flipped)))
    check = workload.check(0, result)
    assert check.failed == 1
    assert list(check.errors) == [0]


def test_unclassified_planted_path_fails_its_operation():
    workload, result, tmp = _one_round("sweep_desk")
    try:
        records, flags, out = result.outputs
        planted_op = [p.index for p in workload.plan.paths].index(3) * TOY.configs
        flags[planted_op] = False
        check = workload.check(0, result)
    finally:
        wl.remove_tmp_dir(tmp)
    assert check.failed == 1
    assert list(check.errors) == [planted_op]


def test_rising_ber_fails_the_point():
    workload, result, tmp = _one_round("ber_ideal_sync")
    wl.remove_tmp_dir(tmp)
    reports = result.outputs
    reports[2] = replace(reports[2], ber=reports[1].ber + 0.01)
    check = workload.check(0, result)
    assert list(check.errors) == [2]


def test_protocol_timeout_and_retry_are_counted():
    from tracing import Tracer

    scenario = wl.scn.load_scenario(wl.scn.bundled_scenario_path("demo_board"))
    backend, _ = wl.scn.build_rig(scenario)
    server = wl.proto.DutProtocolServer(backend)
    server.handle_line = lambda line: []  # the device never answers
    client = wl.proto.SerialBackend(wl.proto.LoopbackTransport(server), retries=3)
    tracer = Tracer()
    wl.install_layers(tracer)
    try:
        client.configure(wl.bk.ReceptionPathId(0), wl.sw.recommended_configs()[0], scenario.adc)
        raised = False
    except wl.proto.ProtocolError:
        raised = True
    finally:
        tracer.uninstall()
    assert raised
    metrics = run.layer_metrics(tracer.stats(), tracer.counters, 0.0, 1.0)
    assert metrics["protocol.timeouts"] == 3
    assert metrics["protocol.retries"] == 2
    assert metrics["protocol.lines"] == 3


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.min_ops(99.0, 10) == 1000
    assert run.min_ops(95.0, 10) == 200
    assert run.min_ops(50.0, 10) == 20
    for name, workload in wl.WORKLOADS.items():
        n = run.min_ops(workload.tail_pct, wl.FULL.tail_ops)
        beyond = np.sum(np.arange(n) > np.percentile(np.arange(n), workload.tail_pct))
        assert beyond >= wl.FULL.tail_ops, name


def test_operation_latency_uses_the_speed_around_it():
    from clock import REF_S, Clock

    clock = Clock()
    clock.sampled_at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    clock.samples = [REF_S, REF_S, REF_S, REF_S, 2 * REF_S, 2 * REF_S, 2 * REF_S]
    assert clock.factor_at(0.2, 0.4) == 1.0
    assert clock.factor_at(5.2, 5.4) == 0.5
    assert clock.factor_at(6.5, 7.0) == 0.5


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for n, f in tests:
        f()
        print(f"ok {n}")
    print(f"{len(tests)} passed")
