"""In-memory span recorder wrapped around the program's layer functions.

The traced run installs a :class:`Tracer` that replaces each layer's
public function (and every ``from ... import`` binding of it inside the
``repro`` package) with a wrapper recording one span per call: name,
start, end, parent span and call id.  Spans stay in a list until the run
ends and :func:`write_jsonl` writes them out.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original back, so untraced
calls in the same process pay nothing.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

#: Module-level functions traced: (span name, module, attribute).
FUNCTIONS = (
    ("passes.plan_loop", "repro.passes.execute", "plan_loop"),
    ("passes.execute_plan", "repro.passes.execute", "execute_plan"),
    ("graph.levels", "repro.graph.levels", "compute_levels"),
    ("ir.dependence_pairs", "repro.ir.analysis", "dependence_pairs"),
    ("ir.plan_transform", "repro.ir.transform", "plan_transform"),
    ("cache.fingerprint", "repro.backends.cache", "loop_fingerprint"),
    ("cache.build", "repro.backends.cache", "build_inspector_record"),
)

#: Methods traced: (span name, module, class, attribute).  The workloads'
#: concrete runners' ``run`` is the ``backend.run`` span.
METHODS = (
    ("graph.depgraph", "repro.graph.depgraph", "DependenceGraph", "from_loop"),
    ("ir.run_sequential", "repro.ir.loop", "IrregularLoop", "run_sequential"),
    ("cache.get_or_build", "repro.backends.cache", "InspectorCache", "get_or_build"),
    ("backend.run", "repro.backends.vectorized", "VectorizedRunner", "run"),
    ("backend.run", "repro.backends.simulated", "SimulatedRunner", "run"),
    ("backend.run", "repro.backends.speculative", "SpeculativeRunner", "run"),
    ("backend.run", "repro.backends.multiproc", "MultiprocRunner", "run"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    call_id: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped layer functions while installed.

    :meth:`call` opens the root span of one benchmark call; every span
    recorded inside it (on the calling thread) carries its call id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        #: Id of the most recent call opened by :meth:`call`.
        self.call_id = -1
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, self.call_id, name, start, end)
            )

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as the root span of a new call id."""
        self.call_id += 1
        return self._run(name, fn, args, kwargs)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)

        return traced

    # -- installation ---------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function, in its defining module and in every
        ``repro`` module that imported it by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            traced = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, traced)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self.wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.span_id: sp.duration
        - covered(sp.start, sp.end, children.get(sp.span_id, ()))
        for sp in spans
    }


def per_call(spans: list[Span]) -> dict[int, dict[str, tuple[float, float]]]:
    """``{call_id: {name: (inclusive_s, self_s)}}``.

    Inclusive time counts only the outermost span of a name on each path,
    so a layer re-entered below itself is not counted twice; self time
    sums every span of the name.
    """
    by_id = {sp.span_id: sp for sp in spans}
    selfs = self_times(spans)
    out: dict[int, dict[str, list[float]]] = {}
    for sp in spans:
        row = out.setdefault(sp.call_id, {}).setdefault(sp.name, [0.0, 0.0])
        row[1] += selfs[sp.span_id]
        parent = by_id.get(sp.parent) if sp.parent is not None else None
        while parent is not None and parent.name != sp.name:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            row[0] += sp.duration
    return {
        cid: {name: (inc, slf) for name, (inc, slf) in names.items()}
        for cid, names in out.items()
    }


def write_jsonl(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for sp in spans:
            fh.write(json.dumps(asdict(sp)) + "\n")
