"""Vectorized wavefront backend: real wall-clock parallel throughput.

The simulated backend models a multiprocessor; the threaded backend proves
the protocol correct under the GIL.  This backend is the one that actually
runs fast on CPython: it executes the dependence DAG *level by level*
(wavefronts, the §3.2 doconsider decomposition), and runs each wavefront as
batched NumPy array operations over all of its iterations at once — SIMD
lanes and memory bandwidth play the role of the paper's processors, with
no per-iteration Python interpretation and no GIL involvement.

Exactness, not approximation: the executor performs the *same* arithmetic
as the sequential oracle, in the same per-term order, as elementwise
float64 operations — iterations of one wavefront are mutually independent,
so batching them changes nothing — and is therefore **bitwise equal** to
:meth:`~repro.ir.loop.IrregularLoop.run_sequential` (a tested property,
not a tolerance).

Mechanics (per wavefront level, all arrays precomputed by the inspector):

- reads resolve through a doubled value environment ``[y_old | y_new]``:
  antidependent and never-written reads gather from the old half, true
  dependence reads from the renamed half (the paper's ``ynew``), so the
  ``iter``-array comparison of Figure 5 is baked into one gather index;
- iterations are ordered within the level by term count (descending), so
  term slot ``j`` is live for a *prefix* of the level — each slot is one
  gather + one fused multiply-add over contiguous slices;
- intra-iteration reads (``check == 0``) select the live accumulator via
  ``np.where`` in the same slot step.

All structure-dependent preprocessing — the inspector's ``iter`` array,
the wavefront schedule, the execution-ordered term layout — lives in an
:class:`~repro.backends.cache.InspectorRecord` and is served by a
content-addressed :class:`~repro.backends.cache.InspectorCache`, so
repeated instances of one loop structure skip preprocessing entirely: the
paper's Figure-3 amortization with a hit counter attached.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import (
    Runner,
    note_ignored_options,
    validate_execution_order,
)
from repro.backends.cache import (
    InspectorCache,
    InspectorRecord,
    loop_fingerprint,
)
from repro.backends.layout import wavefront_sweep
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.errors import InvalidLoopError
from repro.machine.costs import CostModel
from repro.obs.spans import CAT_LEVEL, CAT_PHASE

__all__ = ["VectorizedRunner", "ANALYZE_MODES"]

#: Accepted values for the ``analyze`` option (here and on
#: :func:`~repro.backends.make_runner` / ``parallelize``).
ANALYZE_MODES = (None, "symbolic", "symbolic+check")


def _log_levels(san, record: InspectorRecord, y_size: int) -> None:
    """Shadow-log a record's execution, which depends on structure only.

    Lanes are wavefront levels; the synthetic token -(k+1) posted by
    level k and acquired by level k+1 is the log's rendering of "levels
    execute strictly in order".
    """
    exec_order, exec_ptr = record.exec_order, record.exec_ptr
    exec_write, env_index, intra = (
        record.exec_write, record.env_index, record.intra
    )
    level_ptr = record.schedule.level_ptr
    n_levels = record.schedule.n_levels
    san.meta["levels"] = n_levels
    for k in range(n_levels):
        p0, p1 = int(level_ptr[k]), int(level_ptr[k + 1])
        lane = san.lane(k)
        if k > 0:
            lane.append(("a", -k))
        tt0, tt1 = int(exec_ptr[p0]), int(exec_ptr[p1])
        keep = ~intra[tt0:tt1]
        ei = env_index[tt0:tt1][keep]
        iters = np.repeat(
            exec_order[p0:p1], np.diff(exec_ptr[p0 : p1 + 1])
        )[keep]
        srcs = (ei >= y_size).astype(np.int64)
        if len(ei):
            lane.append(
                ("R", iters, np.where(srcs == 1, ei - y_size, ei), srcs)
            )
        lane.append(("W", exec_order[p0:p1].copy(), exec_write[p0:p1].copy()))
        if k + 1 < n_levels:
            lane.append(("p", -(k + 1)))


class VectorizedRunner(Runner):
    """Batched wavefront execution with cached inspector results.

    Parameters
    ----------
    cache:
        The :class:`InspectorCache` serving preprocessing results; pass a
        shared instance to amortize across runners (or rely on the
        per-runner default).
    cost_model:
        Used only to report the simulated ``T_seq`` alongside measured
        wall time, so vectorized rows are comparable in mixed tables.
    analyze:
        ``"symbolic"`` runs the symbolic dependence engine
        (:func:`repro.analysis.analyze_loop`) first and, when the verdict
        is elidable (write proven injective, every read slot classified),
        builds the inspector record in closed form
        (:func:`repro.analysis.build_symbolic_record`) — zero inspector
        iterations, and the cache is keyed by the structure-only
        :func:`repro.analysis.symbolic_fingerprint` so loops with
        identical proofs share one entry.  ``"symbolic+check"`` is the
        debug mode: every elided record is cross-checked against the real
        inspector (verdict vs. observed dependences, record vs. record,
        bitwise), raising :class:`~repro.errors.ProofError` on any
        divergence.  ``None`` (default) always runs the runtime inspector.
    """

    name = "vectorized"

    def __init__(
        self,
        cache: InspectorCache | None = None,
        cost_model: CostModel | None = None,
        analyze: str | None = None,
    ):
        if analyze not in ANALYZE_MODES:
            raise ValueError(
                f"unknown analyze mode {analyze!r}; expected one of "
                f"{ANALYZE_MODES}"
            )
        self.cache = cache if cache is not None else InspectorCache()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.analyze = analyze

    # ------------------------------------------------------------------
    def _preprocess(self, loop: IrregularLoop, fingerprint: str | None = None):
        """Serve the inspector record for ``loop`` (``fingerprint``: its
        :func:`~repro.backends.cache.loop_fingerprint`, when known).

        Returns ``(record, hit, elided, verdict)``.  With ``analyze`` set
        and an elidable verdict, the record is built symbolically (no
        read term is classified against memory) and cached under the
        structure-only fingerprint; otherwise the runtime inspector path
        of :class:`InspectorCache` is used unchanged.

        When the DistancePass attached a group size (``_group_sync``),
        the record's wavefronts are the distance groups ``i // group``
        instead of the exact DAG levels — usually far fewer, far wider
        levels (:func:`repro.analysis.build_distance_record`).  This
        works even for verdicts that are *not* fully classified: a
        ``min-distance-k`` bound is enough.
        """
        group = self._group_sync
        if group is not None and group >= 2:
            from repro.analysis import (
                analyze_loop,
                build_distance_record,
                cross_check,
                distance_fingerprint,
            )

            verdict = analyze_loop(loop)
            record, hit = self.cache.get_or_build(
                loop,
                builder=lambda lp: build_distance_record(
                    lp, group, verdict
                ),
                fingerprint=distance_fingerprint(loop, group),
            )
            if self.analyze == "symbolic+check":
                cross_check(loop, verdict, strict=True)
            return record, hit, False, verdict
        if self.analyze is not None:
            from repro.analysis import (
                analyze_loop,
                build_symbolic_record,
                symbolic_fingerprint,
            )

            verdict = analyze_loop(loop)
            if verdict.elidable:
                record, hit = self.cache.get_or_build(
                    loop,
                    builder=lambda lp: build_symbolic_record(lp, verdict),
                    fingerprint=symbolic_fingerprint(loop),
                )
                if self.analyze == "symbolic+check":
                    self._debug_check(loop, verdict, record)
                return record, hit, True, verdict
            record, hit = self.cache.get_or_build(loop, fingerprint=fingerprint)
            return record, hit, False, verdict
        record, hit = self.cache.get_or_build(loop, fingerprint=fingerprint)
        return record, hit, False, None

    def _debug_check(self, loop: IrregularLoop, verdict, record) -> None:
        """``analyze="symbolic+check"``: validate the verdict against the
        runtime inspector and the elided record against the real one."""
        from repro.analysis import cross_check, record_mismatches
        from repro.backends.cache import build_inspector_record
        from repro.errors import ProofError

        cross_check(loop, verdict, strict=True)
        problems = record_mismatches(record, build_inspector_record(loop))
        if problems:
            raise ProofError(
                f"{loop.name}: symbolic record diverges from the runtime "
                f"inspector: " + "; ".join(problems)
            )

    # ------------------------------------------------------------------
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
        """Execute ``loop`` as batched wavefronts; see the module doc.

        ``order`` is validated for legality (identically to the other
        backends) but does not change the result: the backend always
        executes in wavefront order, and any legal order produces the same
        values.  ``schedule``/``chunk``/``trace`` have no meaning without
        per-processor scheduling and are ignored (each ignored option is
        recorded in ``result.extras["ignored_options"]``).
        ``fingerprint`` is the loop's digest when the caller already has it.
        """
        if order is not None:
            if fingerprint is None:
                fingerprint = loop_fingerprint(loop)
            structure, _hit = self.cache.structure(loop, fingerprint)
            validate_execution_order(
                loop, np.asarray(order, dtype=np.int64), structure.graph
            )
        rec = self._obs_recorder

        t0 = time.perf_counter()
        record, hit, elided, verdict = self._preprocess(loop, fingerprint)
        t1 = time.perf_counter()
        if rec is not None:
            # The cache lookup/build window IS this backend's inspector
            # phase: Figure 3's preprocessing, amortized across hits (and
            # skipped entirely on the symbolic elision path).
            rec.record(
                "inspector", CAT_PHASE, t0, t1, lane=0,
                cache_hit=bool(hit), elided=elided,
            )
        y = self._execute(loop, record)
        t2 = time.perf_counter()

        result = self._result(
            loop,
            record,
            y,
            hit=hit,
            preprocess_seconds=t1 - t0,
            execute_seconds=t2 - t1,
            elided=elided,
            verdict=verdict,
        )
        wavefront_reason = (
            "the vectorized backend has no per-processor schedules; its "
            "execution order is the wavefront decomposition itself"
        )
        ignored = {}
        if schedule is not None:
            ignored["schedule"] = (schedule, wavefront_reason)
        if chunk is not None:
            ignored["chunk"] = (chunk, wavefront_reason)
        if trace:
            ignored["trace"] = (
                True,
                "no simulated timeline exists for batched execution; use "
                "observe=True for wall-clock level spans",
            )
        note_ignored_options(result, self.name, **ignored)
        return result

    # ------------------------------------------------------------------
    def run_repeated(
        self,
        loop: IrregularLoop,
        instances: int,
        rhs_sequence=None,
    ) -> RunResult:
        """Run ``instances`` back-to-back executions with one preprocessing.

        The vectorized form of :class:`~repro.core.amortized.
        AmortizedDoacross`: instance ``k`` consumes instance ``k-1``'s
        output (or, for external-init loops, a per-instance ``rhs``), and
        the inspector/wavefront work is fetched from the cache once.
        """
        if instances < 1:
            raise InvalidLoopError(
                f"need at least one instance, got {instances}"
            )
        if rhs_sequence is not None:
            if loop.init_kind != INIT_EXTERNAL:
                raise InvalidLoopError(
                    "rhs_sequence requires an external-init loop"
                )
            rhs_sequence = [
                np.ascontiguousarray(rhs, dtype=np.float64)
                for rhs in rhs_sequence
            ]
            if len(rhs_sequence) != instances:
                raise InvalidLoopError(
                    f"rhs_sequence has {len(rhs_sequence)} entries for "
                    f"{instances} instances"
                )
            for rhs in rhs_sequence:
                if len(rhs) != loop.n:
                    raise InvalidLoopError(
                        f"rhs has {len(rhs)} entries for {loop.n} iterations"
                    )

        t0 = time.perf_counter()
        record, hit, elided, verdict = self._preprocess(loop)
        t1 = time.perf_counter()
        y = loop.y0
        for k in range(instances):
            init = rhs_sequence[k] if rhs_sequence is not None else None
            y = self._execute(loop, record, y=y, init_values=init)
        t2 = time.perf_counter()

        result = self._result(
            loop,
            record,
            y,
            hit=hit,
            preprocess_seconds=t1 - t0,
            execute_seconds=t2 - t1,
            elided=elided,
            verdict=verdict,
        )
        result.strategy = "vectorized-wavefront-amortized"
        result.sequential_cycles = instances * result.sequential_cycles
        result.extras["instances"] = instances
        result.extras["inspector_runs"] = 0 if (hit or elided) else 1
        return result

    # ------------------------------------------------------------------
    def _execute(
        self,
        loop: IrregularLoop,
        record: InspectorRecord,
        y: np.ndarray | None = None,
        init_values: np.ndarray | None = None,
    ) -> np.ndarray:
        """One batched execution against current values ``y`` (defaults to
        ``loop.y0``).  Returns the final ``y`` (a fresh array)."""
        n, y_size = loop.n, loop.y_size
        exec_order = record.exec_order
        exec_write = record.exec_write
        level_ptr = record.schedule.level_ptr

        if y is None:
            y = loop.y0
        # Per-run values: coefficients permuted into execution order, and
        # the per-iteration initial accumulators.
        coeff = loop.reads.coeff[record.term_source]
        init = None
        if loop.init_kind == INIT_EXTERNAL:
            init = (
                init_values if init_values is not None else loop.init_values
            )[exec_order]

        # Doubled environment: [y_old | y_new].  The old half is never
        # mutated (writes are renamed), the new half is filled level by
        # level and only read by strictly later levels.
        env = np.empty(2 * y_size, dtype=np.float64)
        env[:y_size] = y

        rec = self._obs_recorder
        met = self._obs_metrics
        san = self._san_capture
        n_levels = record.schedule.n_levels
        if san is not None:
            _log_levels(san, record, y_size)
        # Level boundaries are stamped into a flat list by the sweep and
        # turned into span rows afterwards, flushed once — a locked
        # record() per wavefront costs ~3µs, which on a many-level loop
        # is a measurable fraction of the whole run (tested budget:
        # observe=True adds <10% wall time).
        stamps: list[float] | None = None
        if rec is not None:
            now = rec.now
            t_exec = now()
            stamps = []

        wavefront_sweep(record, env, y_size, coeff, init, stamps)

        if met is not None and n_levels:
            met.observe_many("level_width", np.diff(level_ptr).tolist())
        if rec is not None:
            t_post = now()
            widths = np.diff(level_ptr).tolist()
            buf = [
                (
                    f"level[{k}]", CAT_LEVEL, stamps[k], stamps[k + 1], 0,
                    {"level": k, "width": widths[k]},
                )
                for k in range(n_levels)
            ]
            buf.append((
                "executor", CAT_PHASE, t_exec, t_post, 0,
                {"levels": n_levels},
            ))
            rec.record_batch(buf)
        out = np.array(y, dtype=np.float64, copy=True)
        if n:
            out[exec_write] = env[y_size + exec_write]
        if rec is not None:
            # The copy-back of renamed values into y is this backend's
            # (tiny) postprocessor phase.
            rec.record("postprocessor", CAT_PHASE, t_post, rec.now(), lane=0)
        return out

    # ------------------------------------------------------------------
    def _result(
        self,
        loop: IrregularLoop,
        record: InspectorRecord,
        y: np.ndarray,
        hit: bool,
        preprocess_seconds: float,
        execute_seconds: float,
        elided: bool = False,
        verdict=None,
    ) -> RunResult:
        schedule = record.schedule
        result = RunResult(
            loop_name=loop.name,
            strategy="vectorized-wavefront",
            processors=1,
            y=y,
            total_cycles=0,
            sequential_cycles=sequential_time(loop, self.cost_model),
            cost_model=self.cost_model,
            schedule=f"wavefront({schedule.n_levels} levels)",
            order_label=f"wavefront(levels={schedule.n_levels})",
            wall_seconds=preprocess_seconds + execute_seconds,
        )
        cache_stats = self.cache.stats()
        result.extras.update(
            {
                "levels": schedule.n_levels,
                "max_width": schedule.max_width(),
                "average_width": schedule.average_width(),
                "cache_hit": hit,
                "cache_hits_total": cache_stats["hits"],
                "cache_misses_total": cache_stats["misses"],
                "preprocess_seconds": preprocess_seconds,
                "execute_seconds": execute_seconds,
                "plan": record.plan.describe(),
            }
        )
        if self._group_sync is not None:
            result.extras["distance_group"] = int(self._group_sync)
        if self.analyze is not None:
            result.extras["analyze"] = self.analyze
            result.extras["inspector_elided"] = elided
            if verdict is not None:
                result.extras["verdict"] = verdict.kind
                if verdict.distance is not None:
                    result.extras["verdict_distance"] = int(verdict.distance)
        met = self._obs_metrics
        if met is not None:
            met.count("inspector_cache_hits", 1 if hit else 0)
            met.count("inspector_cache_misses", 0 if hit else 1)
            # Inspection work actually performed this run: zero on a cache
            # hit or when the symbolic proof elided the inspector, the
            # full loop otherwise (the acceptance metric for elision).
            ran_inspector = not (hit or elided)
            met.count(
                "inspector_iterations", loop.n if ran_inspector else 0
            )
            met.count(
                "inspector_terms_classified",
                loop.reads.total_terms if ran_inspector else 0,
            )
            met.count("inspector_elisions", 1 if elided else 0)
            met.gauge("inspector_cache_hits_total", cache_stats["hits"])
            met.gauge("inspector_cache_misses_total", cache_stats["misses"])
            met.gauge("inspector_cache_entries", cache_stats["entries"])
            met.gauge("inspector_cache_bytes", cache_stats["bytes"])
            met.gauge("levels", schedule.n_levels)
            met.gauge("max_width", schedule.max_width())
            met.count("iterations", loop.n)
        return result
