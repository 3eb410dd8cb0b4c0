"""The structure entry of the inspector cache: plan once per structure.

A loop's dependence analysis — the true-dependence DAG and its level
schedule — is cached under the loop's content fingerprint, so warm
planning runs none of it, and a cold call runs it exactly once even
though planning, order validation and the inspector record all consume
it.  Call counts are checked by wrapping the analysis functions; no
assertion here depends on timing.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.backends.cache as cache_mod
import repro.backends.layout as layout_mod
import repro.graph.levels as levels_mod
import repro.ir.analysis as analysis_mod
from repro import InspectorCache, PlanSpec, parallelize
from repro.backends import MultiprocRunner, VectorizedRunner
from repro.errors import ScheduleError
from repro.graph.levels import compute_levels
from repro.passes import PassPipeline, execute_plan, plan_loop
from repro.passes.builtin import (
    DependenceDAGPass,
    FixedBackendPass,
    LevelSchedulePass,
)
from repro.workloads.synthetic import random_irregular_loop
from tests.test_conformance_matrix import WORKLOADS

COUNTED = (
    ("dependence_pairs", analysis_mod.dependence_pairs),
    ("compute_levels", levels_mod.compute_levels),
    ("loop_fingerprint", cache_mod.loop_fingerprint),
    ("build_chunk_layout", layout_mod.build_chunk_layout),
)


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the analysis functions, wrapped at every binding
    inside the package (``from ... import`` copies included)."""
    counts = {name: 0 for name, _fn in COUNTED}
    for name, original in COUNTED:

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return counts


def _reset(counts: dict) -> None:
    for name in counts:
        counts[name] = 0


@pytest.fixture
def loop():
    return random_irregular_loop(300, seed=11)


class TestPlanOncePerStructure:
    @pytest.mark.parametrize("reorder", ("natural", "doconsider"))
    @pytest.mark.parametrize(
        "backend", ("vectorized", "multiproc", "speculative", "simulated")
    )
    def test_warm_plan_runs_no_analysis(self, loop, calls, backend, reorder):
        cache = InspectorCache()
        spec = PlanSpec(backend=backend, processors=2, reorder=reorder)
        cold = plan_loop(loop, spec, cache=cache)
        _reset(calls)
        warm = plan_loop(loop, spec, cache=cache)
        assert calls["dependence_pairs"] == 0
        assert calls["compute_levels"] == 0
        assert cold.describe()["structure_cache"] == "miss"
        assert warm.describe()["structure_cache"] == "hit"
        assert cache.structure_misses == 1 and cache.structure_hits >= 1

    @pytest.mark.parametrize(
        "backend, reorder, shared",
        [
            ("vectorized", "natural", False),
            ("vectorized", "natural", True),
            ("vectorized", "doconsider", False),
            ("vectorized", "doconsider", True),
            ("multiproc", "natural", False),
            ("multiproc", "natural", True),
            ("multiproc", "doconsider", False),
            ("multiproc", "doconsider", True),
        ],
    )
    def test_cold_call_analyzes_once(self, loop, calls, backend, reorder, shared):
        cache = InspectorCache() if shared else None
        spec = PlanSpec(backend=backend, processors=2, reorder=reorder)
        result, _ = parallelize(loop, spec=spec, cache=cache)
        assert np.array_equal(result.y, loop.run_sequential())
        assert calls["dependence_pairs"] == 1
        # A natural multiproc run also levels the in-chunk DAG it runs in.
        in_chunk = backend == "multiproc" and reorder == "natural"
        assert calls["compute_levels"] == (2 if in_chunk else 1)

    @pytest.mark.parametrize("backend", ("vectorized", "multiproc", "speculative"))
    def test_warm_call_hashes_the_loop_once(self, loop, calls, backend):
        cache = InspectorCache()
        spec = PlanSpec(backend=backend, processors=2)
        parallelize(loop, spec=spec, cache=cache)
        _reset(calls)
        result, _ = parallelize(loop, spec=spec, cache=cache)
        assert np.array_equal(result.y, loop.run_sequential())
        assert calls == {
            "dependence_pairs": 0,
            "compute_levels": 0,
            "loop_fingerprint": 1,
            "build_chunk_layout": 0,
        }

    @pytest.mark.parametrize("shared", (False, True))
    def test_speculative_cold_call_builds_the_layout_once(self, loop, calls, shared):
        cache = InspectorCache() if shared else None
        spec = PlanSpec(backend="speculative", processors=2)
        result, _ = parallelize(loop, spec=spec, cache=cache)
        assert np.array_equal(result.y, loop.run_sequential())
        assert calls["build_chunk_layout"] == 1
        # Without a cache the layout is cut from the plan's own analysis.
        assert calls["dependence_pairs"] == 1
        # The loop's DAG, then the in-chunk DAG the layout sweeps.
        assert calls["compute_levels"] == 2
        expected = "miss" if shared else "uncached"
        assert result.extras["speculation"]["layout_cache"] == expected

    def test_speculative_warm_order_validation_reads_the_cache(self, loop, calls):
        cache = InspectorCache()
        spec = PlanSpec(backend="speculative", processors=2, reorder="doconsider")
        assert plan_loop(loop, spec, cache=cache).order is not None
        parallelize(loop, spec=spec, cache=cache)
        _reset(calls)
        result, _ = parallelize(loop, spec=spec, cache=cache)
        assert np.array_equal(result.y, loop.run_sequential())
        assert calls["dependence_pairs"] == 0
        assert calls["build_chunk_layout"] == 0


class TestBitwiseAcrossCacheStates:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_plans_and_records_identical(self, name):
        loop = WORKLOADS[name]
        spec = PlanSpec(backend="vectorized", reorder="doconsider")
        uncached = plan_loop(loop, spec)
        cache = InspectorCache()
        cold = plan_loop(loop, spec, cache=cache)
        warm = plan_loop(loop, spec, cache=cache)
        assert [p.describe()["structure_cache"] for p in (uncached, cold, warm)] == [
            "uncached", "miss", "hit",
        ]
        ref = uncached.artifacts["record"]
        for plan in (cold, warm):
            for field in ("levels", "order", "level_ptr"):
                a, b = getattr(uncached.levels, field), getattr(plan.levels, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), field
            assert np.array_equal(plan.order, uncached.order)
            record = plan.artifacts["record"]
            assert len(record.arrays()) == len(ref.arrays())
            for a, b in zip(ref.arrays(), record.arrays()):
                assert a.dtype == b.dtype and np.array_equal(a, b)


class TestStructureEntry:
    def test_index_mutation_misses_after_warm_plan(self):
        loop = random_irregular_loop(120, seed=4)
        cache = InspectorCache()
        spec = PlanSpec(backend="vectorized")
        plan_loop(loop, spec, cache=cache)
        assert plan_loop(loop, spec, cache=cache).describe()["structure_cache"] == "hit"
        loop.reads.index[5] = (loop.reads.index[5] + 1) % loop.y_size
        plan = plan_loop(loop, spec, cache=cache)
        assert plan.describe()["structure_cache"] == "miss"
        assert cache.structure_misses == 2
        assert np.array_equal(plan.levels.levels, compute_levels(loop).levels)
        result = execute_plan(loop, plan, cache=cache)
        assert np.array_equal(result.y, loop.run_sequential())

    def test_dag_pass_without_fingerprint_is_uncached(self, loop):
        cache = InspectorCache()
        pipeline = PassPipeline(
            [DependenceDAGPass(), LevelSchedulePass(), FixedBackendPass()]
        )
        plan = pipeline.plan(loop, PlanSpec(), cache=cache)
        assert plan.describe()["structure_cache"] == "uncached"
        assert cache.stats()["structure_entries"] == 0
        assert np.array_equal(plan.levels.levels, compute_levels(loop).levels)

    def test_counters_and_bytes(self, loop):
        cache = InspectorCache()
        structure, hit = cache.structure(loop)
        assert hit is False
        stats = cache.stats()
        assert (stats["entries"], stats["structure_entries"]) == (0, 1)
        assert stats["bytes"] == structure.nbytes > 0
        record, _ = cache.get_or_build(loop)
        record, hit = cache.get_or_build(loop)
        assert hit is True
        assert record.graph is structure.graph
        assert record.schedule is structure.schedule
        stats = cache.stats()
        # Record counters keep their meaning; the structure lookup made
        # by the record build is counted separately.
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert (stats["structure_hits"], stats["structure_misses"]) == (1, 1)
        # The record carries the graph; shared arrays are counted once.
        assert record.nbytes > structure.nbytes
        assert stats["bytes"] == record.nbytes

    def test_structure_entries_obey_capacity(self):
        cache = InspectorCache(capacity=2)
        loops = [random_irregular_loop(60, seed=s) for s in range(3)]
        for lp in loops:
            cache.structure(lp)
        assert cache.stats()["structure_entries"] == 2
        _structure, hit = cache.structure(loops[0])
        assert hit is False  # least recently used, evicted

    def test_clear_drops_structures(self, loop):
        cache = InspectorCache()
        cache.structure(loop)
        cache.clear()
        assert cache.stats()["structure_entries"] == 0


class TestCachedOrderValidation:
    def test_vectorized_rejects_illegal_order_on_warm_cache(self, loop):
        cache = InspectorCache()
        runner = VectorizedRunner(cache=cache)
        runner.run(loop)
        with pytest.raises(ScheduleError, match="violates true dependence"):
            runner.run(loop, order=np.arange(loop.n)[::-1])

    def test_multiproc_rejects_illegal_order_on_warm_cache(self, loop):
        cache = InspectorCache()
        runner = MultiprocRunner(workers=2, cache=cache)
        try:
            cache.structure(loop)
            with pytest.raises(ScheduleError, match="violates true dependence"):
                runner.run(loop, order=np.arange(loop.n)[::-1])
        finally:
            runner.close()
