"""A :class:`Runner` decorator that sanitizes the execution it wraps.

``SanitizingRunner`` attaches a :class:`~repro.sanitize.shadow.
ShadowCapture` to the innermost backend for the duration of one
:meth:`run`, lets the backend execute for real (logging the accesses and
synchronization events it actually performs), then replays the logs
through :func:`~repro.sanitize.detector.detect`.  A witnessed violation
aborts with :class:`~repro.errors.SanitizerError`; a clean run returns
normally with the report riding in ``result.extras["sanitize"]`` and the
violation/log-size counters in the run's telemetry metrics.

This is the ``validate="sanitize"`` path of
:func:`~repro.backends.make_runner` and
:func:`~repro.core.doacross.parallelize` — the dynamic dual of
:class:`~repro.backends.validating.ValidatingRunner`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.backends.base import Runner
from repro.backends.validating import _innermost
from repro.errors import SanitizerError, WaitTimeout
from repro.ir.loop import IrregularLoop
from repro.sanitize.detector import SanitizeReport, detect
from repro.sanitize.shadow import ShadowCapture

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.results import RunResult

__all__ = ["SanitizingRunner", "sanitize_simulated_run"]


def _record_metrics(target: Runner, report: SanitizeReport) -> None:
    """Surface the sanitizer's counters through the run's metrics
    registry when the observation layer attached one (wall-clock
    backends under ``observe=True``)."""
    met = getattr(target, "_obs_metrics", None)
    if met is None:
        return
    met.count("sanitize_events", report.events)
    met.count("sanitize_lanes", report.lanes)
    met.count("sanitize_pairs_checked", report.pairs_checked)
    met.count("sanitize_violations", report.total_violations)


def _attach_extras(result, report: SanitizeReport) -> None:
    result.extras["sanitize"] = report.as_dict()


class SanitizingRunner(Runner):
    """Run ``inner`` with shadow logging on, then check the logs."""

    def __init__(self, inner: Runner):
        self.inner = inner
        self.name = f"sanitizing({inner.name})"

    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
        fingerprint: str | None = None,
        **options,
    ) -> RunResult:
        target = _innermost(self.inner)
        capture = ShadowCapture()
        capture.meta["backend"] = target.name
        target._san_capture = capture
        try:
            result = self.inner.run(
                loop, order=order, schedule=schedule, chunk=chunk,
                trace=trace, fingerprint=fingerprint, **options,
            )
        except WaitTimeout as exc:
            # The run died in a busy-wait: check whatever was logged
            # before the stall.  A violation explains the hang far
            # better than the raw timeout does; if the partial logs are
            # clean (e.g. the stall is in an uninstrumented region) the
            # timeout itself is still the best report.
            report = detect(capture, loop, partial=True)
            _record_metrics(target, report)
            if not report.ok:
                raise SanitizerError(report) from exc
            raise
        finally:
            target._san_capture = None
        report = detect(capture, loop)
        _record_metrics(target, report)
        _attach_extras(result, report)
        if not report.ok:
            raise SanitizerError(report)
        return result


def sanitize_simulated_run(runner: Runner, loop: IrregularLoop, run_fn):
    """Sanitize one legacy-path simulated execution.

    The legacy ``parallelize`` path dispatches simulated strategies
    through :class:`~repro.core.doacross.PreprocessedDoacross` rather
    than ``Runner.run``; this helper wraps that dispatch with the same
    capture/detect/raise discipline as :class:`SanitizingRunner`.
    ``run_fn`` is a zero-argument callable performing the run; ``runner``
    is the :class:`~repro.backends.simulated.SimulatedRunner` that
    executes it.
    """
    capture = ShadowCapture()
    capture.meta["backend"] = runner.name
    runner._san_capture = capture
    try:
        result = run_fn()
    finally:
        runner._san_capture = None
    report = detect(capture, loop)
    _attach_extras(result, report)
    if not report.ok:
        raise SanitizerError(report)
    return result
