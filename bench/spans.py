"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping the package's public callables from the
benchmark side; nothing inside ``src/`` is touched.  Each span is one
row in parallel typed arrays (name id, parent span, op, start, end), so
a traced run of a few hundred thousand evaluations stays a few MB.  A
span's self time is its duration minus the durations of its direct
children; calls are strictly nested because the benchmark runs one
client on one thread.
"""

from __future__ import annotations

import contextlib
from array import array
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._op = -1

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result`` sees each result."""
        nid = self._nid(name)

        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    @contextlib.contextmanager
    def op_span(self, name: str):
        """Root span of one benchmark op; its spans share the op's index."""
        self._op += 1
        sid = self._open(self._nid(f"op.{name}"))
        try:
            yield
        finally:
            self._close(sid)

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by its traced version for the duration;
        ``targets`` holds (module, attr, span name[, on_result])."""
        saved = []
        try:
            for module, attr, name, *hook in targets:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(name, orig, *hook))
            yield
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def wrap_landscape(self, land):
        """The solver's landscape with every callable recorded."""
        def count_dirs(dirs):
            self.count("penalty_solver.tangent_dirs", len(dirs))

        fields = {
            "objective": self.wrap("model.f_value", land.objective),
            "objective_slope": self.wrap("model.f_slope", land.objective_slope),
            "residual": self.wrap("residuals.residual", land.residual),
            "expansion": self.wrap("residuals.expansion", land.expansion),
        }
        if land.sqrt_grad is not None:
            fields["sqrt_grad"] = self.wrap("residuals.sqrt_grad", land.sqrt_grad)
        if land.tangent_polls is not None:
            fields["tangent_polls"] = self.wrap("penalty_solver.tangent_poll",
                                                land.tangent_polls, count_dirs)
        return replace(land, **fields)

    # -- read-out -------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name_id, dtype=np.int32)
        return name, parent, dur

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        name, parent, dur = self._arrays()
        if dur.size == 0:
            return {}
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=dur.size)
        self_t = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=self_t, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        name, parent, dur = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            op=np.frombuffer(self.op, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=float), duration=dur)
