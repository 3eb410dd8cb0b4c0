"""A :class:`Runner` decorator that statically validates before running.

``ValidatingRunner`` wraps any backend and, on every :meth:`run`, first
feeds the loop through the lint driver and the happens-before race
checker for the wrapped backend's schedule.  A race — a true dependence
edge the schedule does not order — aborts the run with
:class:`~repro.errors.RaceConditionError` *before* any value is computed;
otherwise the run proceeds and the findings ride along in
``result.extras["lint"]`` / ``result.extras["race_check"]``.

This is the ``validate="static"`` path of
:func:`~repro.backends.make_runner` and
:func:`~repro.core.doacross.parallelize`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.backends.base import Runner
from repro.errors import RaceConditionError
from repro.ir.loop import IrregularLoop

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.results import RunResult

__all__ = ["ValidatingRunner"]

#: Backends the race checker has a happens-before model for; anything
#: else (custom Runner subclasses) is checked against the level model,
#: which is the weakest order every wavefront-respecting backend refines.
_MODELED = ("vectorized", "threaded", "multiproc", "simulated")


def _innermost(runner: Runner) -> Runner:
    """Unwrap decorator runners (instrumented, validating) to the backend
    that actually executes.  Validation must target *that* backend's
    schedule even when the wrappers are composed in either order —
    ``ValidatingRunner(InstrumentedRunner(x))`` works the same as
    ``InstrumentedRunner(ValidatingRunner(x))``."""
    seen: set[int] = set()
    while hasattr(runner, "inner") and id(runner) not in seen:
        seen.add(id(runner))
        runner = runner.inner  # type: ignore[attr-defined]
    return runner


class ValidatingRunner(Runner):
    """Run ``inner`` only after the static checks pass."""

    def __init__(self, inner: Runner):
        self.inner = inner
        self.name = f"validating({inner.name})"

    def _processors(self) -> int:
        inner = _innermost(self.inner)
        if hasattr(inner, "threads"):
            return int(inner.threads)
        if hasattr(inner, "workers"):
            return int(inner.workers)
        if hasattr(inner, "machine"):
            return int(inner.machine.processors)
        return 16

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
        from repro.lint.driver import run_lints
        from repro.lint.hb import check_backend_schedule

        target = _innermost(self.inner)
        backend = target.name if target.name in _MODELED else "vectorized"
        kind = schedule if isinstance(schedule, str) else None
        diagnostics = run_lints(
            loop,
            schedule=kind,
            chunk=1 if chunk is None else chunk,
            processors=self._processors(),
        )
        report = check_backend_schedule(
            loop,
            backend,
            processors=self._processors(),
            schedule=schedule,
            chunk=1 if chunk is None else chunk,
            order=order,
        )
        if not report.passed:
            raise RaceConditionError(report)
        result = self.inner.run(
            loop, order=order, schedule=schedule, chunk=chunk, trace=trace,
            fingerprint=fingerprint,
        )
        result.extras["lint"] = [d.as_dict() for d in diagnostics]
        result.extras["race_check"] = report.as_dict()
        return result
