"""The benchmark's layer tracing must find every name it rebinds.

``benchmarks/workloads.py:install_layers`` wraps library functions by
looking them up with ``vars(owner)[attr]`` on their module or class, so
renaming or moving a traced name breaks the traced benchmark run. This test
makes such a change fail here instead.
"""

from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
N_TRACED_ATTRIBUTES = 32


@pytest.fixture()
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing
    import workloads

    return tracing, workloads


def test_install_layers_rebinds_and_restores(bench_modules):
    tracing, workloads = bench_modules
    tracer = tracing.Tracer()
    workloads.install_layers(tracer)
    patched = list(tracer._patched)
    try:
        assert len(patched) == N_TRACED_ATTRIBUTES
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not rebound"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
