"""Span tracing of library calls, installed from outside the package.

``Tracer.wrap`` rebinds a function or method on its owning module or class
so that every call records a span (name, start, end, parent span). A layer's
internal callees are traced by rebinding the module attribute the caller
resolves at call time, e.g. ``adcradio.receiver.remove_dc``. Spans are kept
in compact in-memory arrays and written out once, at the end of a run.

Self time of a span is its duration minus the durations of its direct
child spans. No traced name may be nested inside itself, otherwise its busy
time would be counted twice.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self._start[idx] = t0
        self._end[idx] = t1

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        idx = self._open(self._name_id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())

    def wrap(self, owner, attr: str, name: str | None, on_result=None) -> None:
        """Rebind ``owner.attr`` (a module or class attribute) to a traced copy.

        With ``name`` set, each call records a span of that name. With
        ``on_result`` set, it is called as ``on_result(tracer, args, result)``
        after each call, to update counters.
        """
        original = vars(owner)[attr]
        nid = None if name is None else self._name_id(name)
        opened, closed = self._open, self._close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if nid is None:
                result = original(*args, **kwargs)
            else:
                idx = opened(nid)
                t0 = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    closed(idx, t0, perf_counter())
            if on_result is not None:
                on_result(self, args, result)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        """Rebind ``owner.attr`` to ``value`` until ``uninstall``."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every attribute ``wrap`` or ``replace`` rebound, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        return name, parent, dur

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (total duration) and ``self_s``."""
        name, parent, dur = self._arrays()
        n_names = len(self._names)
        has_parent = parent >= 0
        child_s = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_s = dur - child_s
        calls = np.bincount(name, minlength=n_names)
        busy = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_s, minlength=n_names)
        return {
            n: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, n in enumerate(self._names)
        }

    def write(self, path: Path) -> int:
        """Write every span to ``path`` (numpy .npz); returns the span count."""
        name, parent, _ = self._arrays()
        np.savez(
            path,
            names=np.array(self._names),
            name=name,
            parent=parent,
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )
        return int(name.size)
