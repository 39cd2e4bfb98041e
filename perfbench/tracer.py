"""Per-layer timing from outside the program.

:class:`Tracer` replaces public functions of ``multimpact`` modules with
timing wrappers while it is installed, and puts the originals back when
it is removed.  A wrapper must replace a name where callers look it up:
``resolution`` imports ``lemke_solve``, ``residuals``, ``in_linear_cone``
and ``is_impacting`` by name, and ``setapprox`` imports ``sim``,
``sim_step`` and ``is_impacting`` by name, so those bindings are wrapped
in the importing module.

Every call adds to its layer's count, total time and self time (total
minus the time of traced calls made inside it).  Spans ``(id, name,
start, end, parent id)`` are kept in memory for the first ``span_limit`` calls only,
so a long traced run does not grow without bound.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    span_limit: int = 20000
    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    pivots: list = field(default_factory=list)
    supports: Counter = field(default_factory=Counter)
    steps: list = field(default_factory=list)
    finishing_solves: int = 0
    csv_rows: Counter = field(default_factory=Counter)
    csv_bytes: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)
    _restore: list = field(default_factory=list)
    _in_finishing: bool = False

    def _wrap(self, module, attr: str, name: str, on_result=None):
        original = getattr(module, attr)
        stats = self.stats.setdefault(name, LayerStats())
        stack = self._stack
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            span_id = next(ids)
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                took = end - start
                stats.calls += 1
                stats.total_s += took
                stats.self_s += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if span_id < self.span_limit:
                    spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))
        return wrapper

    def install(self) -> None:
        from multimpact import io, resolution, scenes, setapprox

        def on_lemke(sol):
            self.pivots.append(sol.pivot_count)
            self.supports[(sol.z.shape[0], tuple(np.flatnonzero(sol.z > 0.0)))] += 1
            if self._in_finishing:
                self.finishing_solves += 1

        def on_sim(traj):
            self.steps.append(traj.n_steps)

        def on_csv(kind):
            def record(text):
                self.csv_rows[kind] += text.count("\n") - 2  # marker and header lines
                self.csv_bytes[kind] += len(text.encode())
            return record

        w = self._wrap
        w(resolution, "lemke_solve", "lcp.lemke_solve", on_lemke)
        w(resolution, "residuals", "lcp.residuals")
        w(resolution, "assemble_impact_lcp", "resolution.assemble_impact_lcp")
        w(resolution, "in_linear_cone", "contact.in_linear_cone")
        w(resolution, "is_impacting", "contact.is_impacting")
        w(setapprox, "is_impacting", "contact.is_impacting")
        step = w(resolution, "sim_step", "resolution.sim_step")
        w(setapprox, "sim", "resolution.sim", on_sim)
        w(setapprox, "sobol_block", "setapprox.sobol_block")
        w(resolution, "anitescu_resolve", "resolution.anitescu_resolve")
        w(resolution, "sequential_resolve", "resolution.sequential_resolve")
        w(resolution, "compute_r", "resolution.compute_r")
        w(scenes, "build_problem", "scenes.build_problem")
        w(io, "set_to_csv", "io.set_to_csv", on_csv("set"))
        w(io, "compare_to_csv", "io.compare_to_csv", on_csv("compare"))

        def finishing_step(*args, **kwargs):
            # ``approximate`` takes the finishing step through the name
            # ``setapprox.sim_step``; mark it so its LCP solves are counted.
            self._in_finishing = True
            try:
                return step(*args, **kwargs)
            finally:
                self._in_finishing = False

        self._restore.append((setapprox, "sim_step", setapprox.sim_step))
        setapprox.sim_step = finishing_step

    def remove(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def layer(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())
