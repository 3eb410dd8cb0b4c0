"""The :class:`InstrumentedRunner` wrapper: telemetry for any backend.

Wrap any :class:`~repro.backends.base.Runner` and every ``run`` comes back
with ``result.telemetry`` — a :class:`~repro.obs.telemetry.Telemetry` blob
of phase spans, per-lane activity spans, and unified metrics:

- **threaded / vectorized** (wall clock): the wrapper attaches a
  :class:`~repro.obs.spans.SpanRecorder` and a
  :class:`~repro.obs.metrics.MetricsRegistry` to the innermost backend
  before running; the backends emit spans at their phase/level boundaries
  (the hooks live in ``backends/threaded.py`` / ``backends/vectorized.py``).
- **simulated** (cycle clock): the machine already accounts every cycle in
  :class:`~repro.machine.stats.PhaseStats` and (with ``trace``) the
  :class:`~repro.machine.trace.Tracer`; :func:`telemetry_from_result`
  re-expresses that accounting as the same span/metric schema, so the two
  time axes can be read side by side.

Selection: ``make_runner(..., observe=True)`` or
``parallelize(..., observe=True)`` — or wrap a runner directly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import Runner
from repro.core.results import RunResult
from repro.ir.loop import IrregularLoop
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    CAT_BARRIER,
    CAT_PHASE,
    CAT_RUN,
    WHOLE_RUN_LANE,
    Span,
    SpanRecorder,
)
from repro.obs.telemetry import CLOCK_CYCLES, CLOCK_WALL, PHASE_NAMES, Telemetry

__all__ = [
    "InstrumentedRunner",
    "telemetry_from_result",
    "attach_simulated_telemetry",
]


def _innermost(runner: Runner) -> Runner:
    """Unwrap decorator runners (validating, instrumented) to the backend
    that actually executes — the one the span hooks live on."""
    seen = set()
    while hasattr(runner, "inner") and id(runner) not in seen:
        seen.add(id(runner))
        runner = runner.inner  # type: ignore[attr-defined]
    return runner


# ----------------------------------------------------------------------
def telemetry_from_result(
    result: RunResult, metrics: MetricsRegistry | None = None
) -> Telemetry:
    """Cycle-clock telemetry synthesized from a simulated backend's
    :class:`RunResult`.

    The phase spans are laid out sequentially from the
    :class:`~repro.core.results.PhaseBreakdown` (inspector → executor →
    postprocessor, with the barrier budget split evenly between phase
    boundaries, ending exactly at ``total_cycles``); per-processor
    compute/wait/queue spans come from the executor
    :class:`~repro.machine.trace.Tracer` when the run recorded one; the
    metrics registry is filled from every phase's
    :class:`~repro.machine.stats.ProcessorStats`.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    spans: list[Span] = []
    b = result.breakdown
    present = [
        (name, float(getattr(b, name)))
        for name in PHASE_NAMES
        if getattr(b, name) > 0
    ]
    barrier_each = float(b.barriers) / len(present) if present else 0.0
    cursor = 0.0
    executor_start = 0.0
    for name, length in present:
        if name == "executor":
            executor_start = cursor
        spans.append(
            Span(name=name, cat=CAT_PHASE, start=cursor, end=cursor + length)
        )
        cursor += length
        if barrier_each > 0:
            spans.append(
                Span(
                    name="barrier",
                    cat=CAT_BARRIER,
                    start=cursor,
                    end=cursor + barrier_each,
                )
            )
            cursor += barrier_each
    total = max(float(result.total_cycles), cursor)
    spans.append(
        Span(
            name="run",
            cat=CAT_RUN,
            start=0.0,
            end=total,
            lane=WHOLE_RUN_LANE,
            attrs={"strategy": result.strategy},
        )
    )

    tracer = result.extras.get("trace")
    if tracer is not None and hasattr(tracer, "to_spans"):
        spans.extend(tracer.to_spans(offset=int(executor_start)))

    for phase in result.phases:
        for proc in phase.processors:
            for name, value in proc.as_metrics().items():
                if value:
                    metrics.count(name, value)
    if b.barriers:
        metrics.count("barrier_cycles", b.barriers)
    metrics.gauge("processors", result.processors)
    metrics.gauge("total_cycles", result.total_cycles)

    spans.sort(key=lambda s: (s.start, s.lane))
    return Telemetry(
        backend="simulated", clock=CLOCK_CYCLES, spans=spans, metrics=metrics
    )


def attach_simulated_telemetry(result: RunResult) -> RunResult:
    """Set ``result.telemetry`` from the simulated run's own accounting
    (used by ``parallelize(..., observe=True)`` on the strategy-dispatch
    path, where no wrapper runner is in the loop)."""
    result.telemetry = telemetry_from_result(result)
    return result


# ----------------------------------------------------------------------
class InstrumentedRunner(Runner):
    """Decorator runner producing ``result.telemetry`` on every run.

    Composes with :class:`~repro.backends.validating.ValidatingRunner`
    (wrap the validator; the recorder is attached to the innermost
    backend either way).  For the simulated backend, an executor trace is
    always collected — observation *is* the request for a timeline — but
    ``extras["trace"]`` is only left behind when the caller asked for
    ``trace=True`` themselves.
    """

    def __init__(self, inner: Runner):
        self.inner = inner
        self.name = f"instrumented({inner.name})"

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
        target = _innermost(self.inner)
        if target.name == "simulated":
            return self._run_simulated(
                loop, order=order, schedule=schedule, chunk=chunk, trace=trace,
                fingerprint=fingerprint,
            )

        recorder = SpanRecorder()
        metrics = MetricsRegistry()
        target._obs_recorder = recorder
        target._obs_metrics = metrics
        t0 = time.perf_counter()
        try:
            result = self.inner.run(
                loop, order=order, schedule=schedule, chunk=chunk, trace=trace,
                fingerprint=fingerprint,
            )
        finally:
            target._obs_recorder = None
            target._obs_metrics = None
        wall = time.perf_counter() - t0
        recorder.record(
            "run",
            CAT_RUN,
            t0,
            t0 + wall,
            lane=WHOLE_RUN_LANE,
            backend=target.name,
        )
        metrics.gauge("processors", result.processors)
        metrics.count("runs", 1)
        result.telemetry = Telemetry(
            backend=target.name,
            clock=CLOCK_WALL,
            spans=recorder.normalized(),
            metrics=metrics,
        )
        return result

    def _run_simulated(
        self,
        loop: IrregularLoop,
        *,
        order,
        schedule,
        chunk,
        trace: bool,
        fingerprint: str | None,
    ) -> RunResult:
        result = self.inner.run(
            loop, order=order, schedule=schedule, chunk=chunk, trace=True,
            fingerprint=fingerprint,
        )
        result.telemetry = telemetry_from_result(result)
        if not trace:
            result.extras.pop("trace", None)
        return result
