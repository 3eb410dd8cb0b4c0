"""Shared backend infrastructure: the :class:`Runner` protocol and order
validation helpers.

Every execution backend — simulated, threaded, vectorized — implements the
same small surface::

    runner.run(loop, *, order=None, schedule=None, chunk=None, trace=False)
        -> RunResult

so strategy-level code (:class:`~repro.core.doacross.PreprocessedDoacross`,
:func:`~repro.core.doacross.parallelize`, the benchmarks) can swap backends
without caring whether time is simulated cycles or measured wall clock.
Options a backend cannot honor (e.g. ``schedule`` on the vectorized
backend, which has no per-processor schedules) are documented as ignored by
that backend rather than rejected, so callers can sweep backends with one
option set.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ScheduleError
from repro.graph.depgraph import DependenceGraph
from repro.ir.analysis import dependence_pairs
from repro.ir.loop import IrregularLoop

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.results import RunResult
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder
    from repro.sanitize.shadow import ShadowCapture

__all__ = [
    "Runner",
    "validate_execution_order",
    "inverse_permutation",
    "note_ignored_options",
]


class Runner(abc.ABC):
    """Uniform execution interface over all backends.

    Subclasses execute an :class:`~repro.ir.loop.IrregularLoop` with exact
    sequential semantics (the library's central contract) and return a
    :class:`~repro.core.results.RunResult`.  All options are keyword-only:

    - ``order`` — optional doconsider execution order; must be validated
      against the loop's true dependencies (illegal orders raise
      :class:`~repro.errors.ScheduleError` before anything runs).
    - ``schedule`` / ``chunk`` — executor iteration schedule, where the
      backend has one (``None`` means the backend default).
    - ``trace`` — request an execution timeline where supported.
    - ``fingerprint`` — the loop's
      :func:`~repro.backends.cache.loop_fingerprint` when the caller
      already computed it (plan execution passes the ``fingerprint``
      pass's digest); backends that key an inspector cache use it instead
      of re-hashing the index arrays, the others ignore it.
    """

    #: Short identifier used by the ``backend=`` selector and in reports.
    name: str = "runner"

    #: Telemetry hooks: an :class:`~repro.obs.instrument.InstrumentedRunner`
    #: attaches a span recorder and a metrics registry here for the
    #: duration of one ``run``; backends emit phase/level/wait spans and
    #: unified metrics when (and only when) these are set.  ``None`` means
    #: unobserved — the hot paths stay hook-free.
    _obs_recorder: "SpanRecorder | None" = None
    _obs_metrics: "MetricsRegistry | None" = None

    #: Sanitizer hook: a :class:`~repro.sanitize.runner.SanitizingRunner`
    #: attaches a :class:`~repro.sanitize.shadow.ShadowCapture` here for
    #: the duration of one ``run``; backends append shadow-access and
    #: synchronization events to per-lane logs when (and only when) this
    #: is set.  ``None`` means unsanitized — again, hook-free hot paths.
    _san_capture: "ShadowCapture | None" = None

    #: Distance-elision hook: :func:`~repro.passes.execute.execute_plan`
    #: attaches the proven synchronization group size here when the
    #: :class:`~repro.passes.distance.DistancePass` certified that every
    #: cross-iteration true dependence reaches back at least this many
    #: iterations.  Backends that understand it run group-synchronously
    #: (one barrier per group instead of per-element post/wait flags);
    #: ``None`` means the standard protocol.
    _group_sync: "int | None" = None

    @abc.abstractmethod
    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
        fingerprint: str | None = None,
    ) -> RunResult:
        """Execute ``loop`` and return its :class:`RunResult`.

        A backend may accept further keyword options (the multiproc and
        speculative ``structure``); wrapper runners pass them through.
        """
        raise NotImplementedError


def note_ignored_options(
    result: RunResult, backend: str, **ignored: tuple
) -> None:
    """Record run options a backend received but cannot honor.

    The module contract (see the module docstring) is that unsupported
    options are *documented as ignored* rather than rejected, so callers
    can sweep one option set across backends.  That must not mean the drop
    is invisible: each ``option=(value, reason)`` pair lands as a
    structured note in ``result.extras["ignored_options"]``, which
    :func:`~repro.core.serialize.result_to_dict` surfaces in ``--json``
    output — the caller can always find out what was silently discarded.

    Callers pass only options that were actually set to a non-default
    value; this helper never second-guesses defaults.
    """
    if not ignored:
        return
    notes = result.extras.setdefault("ignored_options", [])
    for option, (value, reason) in ignored.items():
        safe = (
            value
            if value is None or isinstance(value, (bool, int, float, str))
            else repr(value)
        )
        notes.append(
            {
                "backend": backend,
                "option": option,
                "value": safe,
                "reason": reason,
            }
        )


def inverse_permutation(order: np.ndarray) -> np.ndarray:
    """Positions: ``pos[order[p]] = p``.  Validates that ``order`` is a
    permutation of ``0..n-1``."""
    order = np.asarray(order, dtype=np.int64)
    n = len(order)
    pos = np.full(n, -1, dtype=np.int64)
    in_range = (order >= 0) & (order < n)
    if not in_range.all():
        raise ScheduleError("execution order contains out-of-range entries")
    pos[order] = np.arange(n, dtype=np.int64)
    if np.any(pos < 0):
        raise ScheduleError("execution order is not a permutation")
    return pos


def validate_execution_order(
    loop: IrregularLoop,
    order: np.ndarray,
    graph: DependenceGraph | None = None,
) -> np.ndarray:
    """Check that ``order`` is a legal doacross execution order for ``loop``.

    Legality (DESIGN.md §6): every *true* dependence edge must point backward
    in execution order — the writer's position precedes the reader's.
    Antidependencies impose no constraint (the ``ynew`` renaming removed
    them), which is precisely why doconsider reordering is allowed to ignore
    them.

    ``graph`` is the loop's true-dependence DAG when the caller holds it
    (a cached :class:`~repro.backends.cache.LoopStructure`); without it
    the dependence pairs are computed here.

    Returns the inverse permutation (position of each original iteration).
    Raises :class:`~repro.errors.ScheduleError` on violation — running such
    an order would deadlock the busy-wait executor.
    """
    pos = inverse_permutation(order)
    pairs = dependence_pairs(loop) if graph is None else graph.pairs()
    if len(pairs):
        bad = pos[pairs[:, 0]] >= pos[pairs[:, 1]]
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            w, r = int(pairs[k, 0]), int(pairs[k, 1])
            raise ScheduleError(
                f"execution order violates true dependence {w} → {r}: "
                f"writer at position {int(pos[w])}, reader at position "
                f"{int(pos[r])}; the busy-wait executor would deadlock"
            )
    return pos
