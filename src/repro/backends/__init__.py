"""Execution backends for the transformed loops.

All backends implement the :class:`repro.backends.base.Runner` protocol —
``run(loop, *, order=None, schedule=None, chunk=None, trace=False)``
returning a :class:`~repro.core.results.RunResult` — so strategy code and
benchmarks select them interchangeably (``parallelize(..., backend=...)``).

- :mod:`repro.backends.simulated` — the paper-experiment backend: runs the
  inspector/executor/postprocessor phases on the discrete-event machine
  (:mod:`repro.machine`), producing both correct values and simulated
  timings.  All paper experiments use this backend.
- :mod:`repro.backends.threaded` — real ``threading`` execution with
  per-element events; demonstrates the protocol is functionally correct on
  actual concurrent hardware (no timing claims — the GIL forbids them; see
  DESIGN.md §3).
- :mod:`repro.backends.vectorized` — batched wavefront execution: each
  dependence level runs as NumPy array operations over all its iterations,
  giving real wall-clock parallel throughput on CPython; preprocessing is
  served by a content-addressed :class:`InspectorCache`.
- :mod:`repro.backends.multiproc` — the doacross protocol across real OS
  processes: a process-wide worker pool busy-waits on
  ``multiprocessing.shared_memory`` arrays (``iter``/``ready``/``ynew``)
  with §2.3 strip-mined chunking, each strip in its own wavefront order,
  every wait bounded by a
  :class:`~repro.backends.waitladder.WaitLadder`.
- :mod:`repro.backends.speculative` — the optimistic dual of the
  inspector: each round executes every chunk in one batched wavefront
  sweep with no cross-chunk synchronization, conflicts are detected from
  per-chunk access logs after the fact, and losers are rolled back and
  re-executed (bounded retry budget, then sequential fallback).
- :mod:`repro.backends.layout` — the term layout and wavefront sweep
  shared by the vectorized and speculative backends, the per-chunk term
  classifier, and the in-chunk levelling the speculative and multiproc
  backends share.
- :mod:`repro.backends.cache` — the inspector cache (Figure-3 amortization
  with hit/miss counters).
- :mod:`repro.backends.base` — the :class:`Runner` protocol and shared
  helpers (order validation).
"""

from repro.backends.base import Runner, validate_execution_order
from repro.backends.cache import InspectorCache, InspectorRecord, loop_fingerprint
from repro.backends.multiproc import MultiprocRunner
from repro.backends.simulated import SimulatedRunner
from repro.backends.speculative import SpeculativeRunner
from repro.backends.threaded import ThreadedRunner
from repro.backends.validating import ValidatingRunner
from repro.backends.vectorized import VectorizedRunner
from repro.backends.waitladder import WaitLadder

__all__ = [
    "Runner",
    "SimulatedRunner",
    "ThreadedRunner",
    "VectorizedRunner",
    "MultiprocRunner",
    "SpeculativeRunner",
    "ValidatingRunner",
    "InspectorCache",
    "InspectorRecord",
    "WaitLadder",
    "loop_fingerprint",
    "make_runner",
    "BACKENDS",
    "validate_execution_order",
]

#: Names accepted by ``make_runner`` / ``parallelize(backend=...)``.
BACKENDS = ("simulated", "threaded", "vectorized", "multiproc", "speculative")


_UNSET = object()


def make_runner(
    backend: str = "simulated",
    *,
    spec=None,
    processors: int = 16,
    cost_model=None,
    cache: InspectorCache | None = None,
    bus: bool = False,
    coherence: bool = False,
    validate: str | None = _UNSET,
    observe: bool = _UNSET,
    analyze: str | None = _UNSET,
) -> Runner:
    """Build a :class:`Runner` by name — or from a
    :class:`~repro.passes.spec.PlanSpec` via ``spec=``.

    ``spec`` is the consolidated form: one frozen value object carrying
    backend/processors/analyze/validate/observe/wait_timeout, checked
    against the backend option-support matrix before anything is built.
    The individual ``validate``/``observe``/``analyze`` keywords still
    work but emit a :class:`DeprecationWarning` pointing at ``spec=``
    (``processors``/``cost_model``/``cache``/``bus``/``coherence`` are
    resources and machine configuration, not plan options, and stay
    plain keywords).

    ``processors`` means simulated processors for the simulated backend,
    thread count for the threaded backend, and worker-process count for
    the multiproc backend; the vectorized backend has no processor knob
    (its parallelism is the wavefront width).  ``cache`` serves the
    vectorized backend's inspector records and, on the multiproc backend,
    prefills the shared ``iter`` array so workers skip their inspector
    phase.

    ``analyze="symbolic"`` enables the symbolic dependence engine on the
    threaded, vectorized, and multiproc backends: when a loop's verdict is
    proven, the
    runtime inspector is elided (closed-form ``iter`` array / inspector
    record; see :mod:`repro.analysis`).  ``analyze="symbolic+check"`` is
    the debug mode that additionally cross-checks every proof against the
    real inspector output.  The simulated backend models the inspector as
    a costed phase, so ``analyze`` is rejected here — use
    :func:`repro.core.doacross.parallelize` with ``analyze=`` for
    verdict-driven strategy dispatch on the simulator.

    ``validate="static"`` wraps the runner in a
    :class:`~repro.backends.validating.ValidatingRunner`: every ``run``
    first lint-checks the loop and race-checks the backend's schedule,
    raising :class:`~repro.errors.RaceConditionError` before execution if
    a true dependence is unordered.  ``validate="sanitize"`` wraps it in
    a :class:`~repro.sanitize.runner.SanitizingRunner` instead: the
    backend shadow-logs its actual reads, writes, posts, and waits, and
    after the run a vector-clock replay checks every true dependence for
    a *witnessed* happens-before edge, raising
    :class:`~repro.errors.SanitizerError` on any uncovered pair.

    ``observe=True`` wraps the (possibly validating) runner in an
    :class:`~repro.obs.instrument.InstrumentedRunner`: every ``run``
    attaches a :class:`~repro.obs.telemetry.Telemetry` blob — phase spans
    plus the unified metrics registry, same schema on every backend — to
    ``result.telemetry``.
    """
    if spec is not None:
        if (
            validate is not _UNSET
            or observe is not _UNSET
            or analyze is not _UNSET
        ):
            raise TypeError(
                "make_runner(spec=...) cannot be combined with the legacy "
                "validate/observe/analyze keywords; set them on the PlanSpec"
            )
        from repro.passes.spec import AUTO_BACKEND, check_options

        if spec.backend == AUTO_BACKEND:
            raise ValueError(
                "backend='auto' is a per-loop decision, not a runner: use "
                "parallelize(loop, spec=...) or repro.passes.plan_loop so "
                "the tuner can see the loop's structure"
            )
        check_options(spec)
        return _build_runner(
            spec.backend,
            processors=spec.processors,
            cost_model=cost_model,
            cache=cache,
            bus=bus,
            coherence=coherence,
            validate=spec.validate,
            observe=spec.observe,
            analyze=spec.analyze,
            wait_timeout=spec.wait_timeout,
        )

    shimmed = [
        name
        for name, value in (
            ("validate", validate),
            ("observe", observe),
            ("analyze", analyze),
        )
        if value is not _UNSET
    ]
    if shimmed:
        import warnings

        warnings.warn(
            f"the {', '.join(shimmed)} keyword option(s) on make_runner are "
            "deprecated; pass a consolidated PlanSpec via "
            "make_runner(spec=PlanSpec(...))",
            DeprecationWarning,
            stacklevel=2,
        )
    return _build_runner(
        backend,
        processors=processors,
        cost_model=cost_model,
        cache=cache,
        bus=bus,
        coherence=coherence,
        validate=None if validate is _UNSET else validate,
        observe=False if observe is _UNSET else observe,
        analyze=None if analyze is _UNSET else analyze,
    )


def _build_runner(
    backend: str = "simulated",
    *,
    processors: int = 16,
    cost_model=None,
    cache: InspectorCache | None = None,
    bus: bool = False,
    coherence: bool = False,
    validate: str | None = None,
    observe: bool = False,
    analyze: str | None = None,
    wait_timeout: float | None = None,
) -> Runner:
    """The warning-free constructor behind :func:`make_runner`.

    Internal callers (the legacy ``parallelize`` path, plan execution,
    the CLI, benches) use this directly so one user-facing call never
    produces more than one :class:`DeprecationWarning`.  ``wait_timeout``
    bounds each blocking busy-wait where the backend has one (threaded
    events; the multiproc :class:`WaitLadder`).
    """
    if backend == "simulated":
        from repro.machine.engine import Machine

        if analyze is not None:
            raise ValueError(
                "analyze is not supported on the simulated backend (its "
                "inspector is a costed phase, not elidable work); use "
                "parallelize(..., analyze=...) for verdict-driven strategy "
                "dispatch"
            )
        runner: Runner = SimulatedRunner(
            Machine(
                processors, cost_model=cost_model, bus=bus, coherence=coherence
            )
        )
    elif backend == "threaded":
        kwargs = {} if wait_timeout is None else {"wait_timeout": wait_timeout}
        runner = ThreadedRunner(threads=processors, analyze=analyze, **kwargs)
    elif backend == "vectorized":
        runner = VectorizedRunner(
            cache=cache, cost_model=cost_model, analyze=analyze
        )
    elif backend == "multiproc":
        ladder = None if wait_timeout is None else WaitLadder(timeout=wait_timeout)
        runner = MultiprocRunner(
            workers=processors, cache=cache, analyze=analyze, ladder=ladder
        )
    elif backend == "speculative":
        # Speculation never busy-waits, so wait_timeout has nothing to
        # bound (same silent no-op as on the vectorized backend); the
        # liveness bound is the retry budget instead.
        runner = SpeculativeRunner(
            workers=processors, analyze=analyze, cache=cache
        )
    else:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    if validate is not None:
        if validate == "static":
            runner = ValidatingRunner(runner)
        elif validate == "sanitize":
            from repro.sanitize.runner import SanitizingRunner

            runner = SanitizingRunner(runner)
        else:
            raise ValueError(
                f"unknown validate mode {validate!r}; expected 'static', "
                "'sanitize', or None"
            )
    if observe:
        from repro.obs.instrument import InstrumentedRunner

        runner = InstrumentedRunner(runner)
    return runner
