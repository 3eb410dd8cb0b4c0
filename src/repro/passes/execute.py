"""Plan execution: one code path from :class:`Plan` to :class:`RunResult`.

This module is the bridge between the pass pipeline and the backends:
:func:`plan_loop` runs the default pipeline for a spec, and
:func:`execute_plan` hands the resulting plan to the resolved backend —
forwarding exactly the options that backend honors (the plan was
validated against the support matrix, so nothing is ever silently
dropped: spec-path results carry no ``ignored_options`` notes).

:func:`run_with_spec` is the full spec-based entry point behind
``parallelize(spec=...)`` and ``parallelize(backend="auto")``: plan,
execute, close the tuner's feedback loop, and return the familiar
``(result, transform_plan)`` pair.
"""

from __future__ import annotations

import time

from repro.backends.cache import InspectorCache
from repro.core.results import RunResult
from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan, plan_transform
from repro.passes.autotune import default_tuner_store, record_run_outcome
from repro.passes.builtin import default_pipeline
from repro.passes.plan import Plan
from repro.passes.spec import AUTO_BACKEND, OPTION_SUPPORT, PlanSpec

__all__ = ["plan_loop", "execute_plan", "run_with_spec"]


def plan_loop(
    loop: IrregularLoop,
    spec: PlanSpec,
    cache: InspectorCache | None = None,
) -> Plan:
    """Run the default pipeline for ``spec`` over ``loop``."""
    return default_pipeline(spec).plan(loop, spec, cache=cache)


def _innermost(runner):
    while hasattr(runner, "inner"):
        runner = runner.inner
    return runner


def execute_plan(
    loop: IrregularLoop,
    plan: Plan,
    cache: InspectorCache | None = None,
    verdict=None,
) -> RunResult:
    """Execute ``loop`` as ``plan`` prescribes on the resolved backend.

    ``plan`` must have been made for ``loop`` as it is now: its
    fingerprint keys the backend's cache lookups without re-hashing the
    index arrays.

    Only options the resolved backend supports are forwarded (per
    :data:`~repro.passes.spec.OPTION_SUPPORT`): when the auto-tuner
    rebases a chunked spec onto a chunk-less backend, the chunk is an
    adaptation recorded in the plan, not an ignored option.  Auto-planned
    runs are always observed, and their wall time + telemetry are fed
    back into the tuner store afterwards.
    """
    from repro.backends import _build_runner

    spec = plan.spec
    backend = plan.backend
    auto = spec.backend == AUTO_BACKEND
    runner = _build_runner(
        backend,
        processors=spec.processors,
        cache=cache,
        validate=spec.validate,
        # Telemetry is the tuner's training data: auto runs always
        # observe; diagnosis reads telemetry, so diagnose implies observe.
        observe=spec.observe or auto or spec.diagnose,
        # The simulated backend models the inspector as a costed phase;
        # its analyze handling is planning-level (verdict below).
        analyze=spec.analyze if backend != "simulated" else None,
        wait_timeout=spec.wait_timeout,
    )

    if backend == "vectorized" and cache is None:
        # No shared cache: the runner made a private one.  Seed it with
        # the plan-time inspector record so planning work is not redone.
        record = plan.artifacts.get("record")
        if record is not None:
            _innermost(runner).cache.seed(record)

    supported = OPTION_SUPPORT[backend]
    # The fingerprint pass already hashed the loop: hand the digest down
    # so the backend's cache lookups do not hash it again.
    run_kwargs: dict = {"fingerprint": plan.fingerprint}
    if plan.order is not None:
        run_kwargs["order"] = plan.order
    if spec.schedule is not None and "schedule" in supported:
        run_kwargs["schedule"] = spec.schedule
    if plan.chunk is not None and "chunk" in supported:
        run_kwargs["chunk"] = plan.chunk

    if backend == "simulated" and spec.analyze == "symbolic+check":
        from repro.analysis import cross_check

        if verdict is not None:
            cross_check(loop, verdict, strict=True)

    elision = plan.artifacts.get("distance_elision")
    target = _innermost(runner) if elision is not None else None

    started = time.perf_counter()
    if target is not None:
        # The DistancePass certified group-synchronous execution: hand
        # the proven group size to the backend for this run only.
        target._group_sync = elision["group"]
    try:
        result = runner.run(loop, **run_kwargs)
    finally:
        if target is not None:
            target._group_sync = None
    elapsed = time.perf_counter() - started

    result.extras["schedule_plan"] = plan.describe()
    if elision is not None:
        result.extras["distance_elision"] = {
            k: v for k, v in elision.items() if k != "certificate"
        }
    if verdict is not None:
        result.extras.setdefault("analyze", spec.analyze)
        result.extras.setdefault("verdict", verdict.kind)
        if verdict.distance is not None:
            result.extras.setdefault("verdict_distance", int(verdict.distance))

    if auto:
        result.extras["tuner"] = plan.tuner.as_dict() if plan.tuner else None
        store = cache if cache is not None else default_tuner_store()
        wall = result.wall_seconds if result.wall_seconds is not None else elapsed
        record_run_outcome(
            store, plan.fingerprint, backend, wall, telemetry=result.telemetry
        )

    if spec.diagnose and result.telemetry is not None:
        from repro.passes.autotune import record_doctor_hints
        from repro.perf.doctor import diagnose_result

        findings = diagnose_result(result)
        result.extras["doctor"] = [f.as_dict() for f in findings]
        if cache is not None and plan.fingerprint is not None:
            # A shared cache is the tuner's memory: the doctor's backend
            # recommendation becomes a prior for later auto runs of this
            # structure (a private store would discard it immediately).
            record_doctor_hints(cache, plan.fingerprint, findings)
    return result


def run_with_spec(
    loop: IrregularLoop,
    spec: PlanSpec,
    cache: InspectorCache | None = None,
    assert_independent: bool = False,
    known_distance: int | None = None,
) -> tuple[RunResult, TransformPlan]:
    """Plan and execute ``loop`` under ``spec``; the spec-path equivalent
    of :func:`repro.core.doacross.parallelize`'s legacy body."""
    verdict = None
    if spec.analyze is not None:
        from repro.analysis import analyze_loop

        verdict = analyze_loop(loop)
    transform_plan = plan_transform(
        loop,
        assert_independent=assert_independent,
        known_distance=known_distance,
        verdict=verdict,
    )
    plan = plan_loop(loop, spec, cache=cache)
    result = execute_plan(loop, plan, cache=cache, verdict=verdict)
    result.extras.setdefault("plan", transform_plan.describe())
    return result, transform_plan
