"""The multiproc backend's process-wide pool and its in-chunk order.

Natural-order runs execute doconsider inside each strip
(:func:`~repro.backends.layout.in_chunk_order`), cached per structure
and chunk size; one worker pool per worker count outlives every call,
serializes concurrent runs, closes itself when idle, and restarts when a
worker dies.  Nothing here asserts a timing: the bounds below only
distinguish "finished" from "hung".
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

import repro.backends.layout as layout_mod
import repro.backends.multiproc as multiproc_mod
import repro.graph.levels as levels_mod
from repro import InspectorCache, PlanSpec, parallelize
from repro.backends import MultiprocRunner
from repro.backends.base import validate_execution_order
from repro.backends.layout import in_chunk_order
from repro.graph.depgraph import DependenceGraph
from repro.lint.hb import check_backend_schedule, multiproc_happens_before
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from tests.test_conformance_matrix import WORKLOADS

#: "Finished, not hung" for the pool-lifecycle tests.
BOUND_SECONDS = 30.0


def _pool_children() -> list:
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-multiproc-")
    ]


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the order build and the levelling, wrapped at every
    binding inside the package."""
    counted = (
        ("in_chunk_order", layout_mod.in_chunk_order),
        ("compute_levels", levels_mod.compute_levels),
    )
    counts = {name: 0 for name, _fn in counted}
    for name, original in counted:

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
    return counts


@pytest.fixture
def stay_up(monkeypatch):
    """Keep pools from idling out between the calls of one test."""
    monkeypatch.setattr(multiproc_mod, "IDLE_CLOSE_SECONDS", 3600.0)


@pytest.fixture(scope="module")
def trisolve():
    A = five_point(112, 112)
    L, _U = ilu0(A)
    rhs = np.random.default_rng(0).standard_normal(A.n_rows)
    return lower_solve_loop(L, rhs, name="trisolve-112")


class TestInChunkOrder:
    @pytest.mark.parametrize("chunk", (1, 2, 7, 40, 1000))
    @pytest.mark.parametrize("seed", range(6))
    def test_legal_and_equal_to_the_reference_sort(self, seed, chunk):
        loop = random_irregular_loop(150, seed=seed)
        graph = DependenceGraph.from_loop(loop)
        order = in_chunk_order(graph, chunk)
        validate_execution_order(loop, order)
        levels = layout_mod.in_chunk_schedule(graph, chunk).levels
        it = np.arange(loop.n)
        assert np.array_equal(order, np.lexsort((it, levels, it // chunk)))
        # Each chunk keeps its own positions.
        assert np.array_equal(order // chunk, it // chunk)

    def test_cached_per_structure_and_chunk(self):
        loop = random_irregular_loop(120, seed=3)
        cache = InspectorCache()
        first, hit = cache.chunk_order(loop, 10)
        assert not hit
        again, hit = cache.chunk_order(loop, 10)
        assert hit and again is first
        other, hit = cache.chunk_order(loop, 11)
        assert not hit
        assert cache.stats()["order_entries"] == 2
        cache.clear()
        assert cache.stats()["order_entries"] == 0

    def test_natural_runs_report_the_order_entry(self):
        loop = random_irregular_loop(200, seed=4)
        cache = InspectorCache()
        runner = MultiprocRunner(workers=2, cache=cache)
        cold = runner.run(loop)
        warm = runner.run(loop)
        for result in (cold, warm):
            assert np.array_equal(result.y, loop.run_sequential())
            assert result.extras["exec_order"] == "in-chunk"
        assert cold.extras["cache_hit"] is False
        assert warm.extras["cache_hit"] is True

    def test_given_orders_run_as_given(self):
        loop = random_irregular_loop(200, seed=5)
        order = np.arange(loop.n, dtype=np.int64)
        result = MultiprocRunner(workers=2).run(loop, order=order)
        assert np.array_equal(result.y, loop.run_sequential())
        assert result.extras["exec_order"] == "given"

    def test_static_model_follows_the_executed_order(self):
        loop = random_irregular_loop(200, seed=6)
        order = in_chunk_order(DependenceGraph.from_loop(loop), 16)
        hb = multiproc_happens_before(loop, 2, chunk=16)
        assert np.array_equal(hb.pos[order], np.arange(loop.n))

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_static_model_verdicts(self, workload):
        loop = WORKLOADS[workload]
        chunk = max(1, -(-loop.n // 8))
        report = check_backend_schedule(
            loop, "multiproc", processors=2, chunk=chunk
        )
        assert report.passed


class TestTrisolveCounters:
    def test_flag_protocol_counts(self, trisolve):
        spec = PlanSpec(backend="multiproc", processors=2, observe=True)
        result, _ = parallelize(trisolve, spec=spec, cache=InspectorCache())
        assert np.array_equal(result.y, trisolve.run_sequential())
        counters = result.telemetry.metrics.counters
        assert counters["flag_checks"] == 784
        assert counters["flag_sets"] == 12_544

    def test_warm_call_builds_nothing(self, calls, stay_up):
        loop = random_irregular_loop(400, seed=8)
        cache = InspectorCache()
        spec = PlanSpec(backend="multiproc", processors=2, observe=True)
        parallelize(loop, spec=spec, cache=cache)
        assert calls["in_chunk_order"] == 1
        calls.update(in_chunk_order=0, compute_levels=0)
        result, _ = parallelize(loop, spec=spec, cache=cache)
        assert np.array_equal(result.y, loop.run_sequential())
        assert calls == {"in_chunk_order": 0, "compute_levels": 0}
        assert result.telemetry.metrics.counters["chunks_classified"] == 0

    def test_cacheless_runner_keeps_the_order_in_its_session(
        self, calls, stay_up
    ):
        loop = random_irregular_loop(300, seed=9)
        runner = MultiprocRunner(workers=2)
        runner.run(loop, chunk=20)
        calls.update(in_chunk_order=0, compute_levels=0)
        result = runner.run(loop, chunk=20)
        assert np.array_equal(result.y, loop.run_sequential())
        assert calls == {"in_chunk_order": 0, "compute_levels": 0}


class TestSharedPool:
    def test_runners_share_one_pool(self, stay_up):
        loop = random_irregular_loop(100, seed=1)
        MultiprocRunner(workers=2).run(loop)
        pool = multiproc_mod._POOLS[2]
        pids = [p.pid for p in pool.procs]
        MultiprocRunner(workers=2).run(loop)
        assert [p.pid for p in pool.procs] == pids

    def test_concurrent_calls_are_serialized(self):
        loops = [random_irregular_loop(500, seed=s) for s in range(4)]
        spec = PlanSpec(backend="multiproc", processors=2)
        failures: list = []

        def caller(loop):
            try:
                for _ in range(3):
                    result, _ = parallelize(loop, spec=spec)
                    if not np.array_equal(result.y, loop.run_sequential()):
                        failures.append(f"{loop.name}: wrong values")
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(repr(exc))

        threads = [threading.Thread(target=caller, args=(lp,)) for lp in loops]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the callers finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=BOUND_SECONDS)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_pool_closes_itself_when_idle(self, monkeypatch):
        monkeypatch.setattr(multiproc_mod, "IDLE_CLOSE_SECONDS", 0.05)
        loop = chain_loop(50, 1)
        runner = MultiprocRunner(workers=2)
        assert np.array_equal(runner.run(loop).y, loop.run_sequential())
        deadline = time.monotonic() + BOUND_SECONDS
        while _pool_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _pool_children() == []
        assert not multiproc_mod._POOLS[2].sessions
        # The next run starts the pool again.
        assert np.array_equal(runner.run(loop).y, loop.run_sequential())

    def test_dead_worker_restarts_the_pool(self):
        loop = random_irregular_loop(200, seed=2)
        runner = MultiprocRunner(workers=2)
        runner.run(loop)
        pool = multiproc_mod._POOLS[2]
        victim = pool.procs[0]
        victim.terminate()
        victim.join(timeout=BOUND_SECONDS)
        result = runner.run(loop)
        assert np.array_equal(result.y, loop.run_sequential())
        assert victim not in pool.procs
        assert all(p.is_alive() for p in pool.procs)

    def test_close_then_run_restarts(self):
        loop = random_irregular_loop(80, seed=3)
        runner = MultiprocRunner(workers=2)
        runner.run(loop)
        runner.close()
        assert not multiproc_mod._POOLS[2].started
        assert np.array_equal(runner.run(loop).y, loop.run_sequential())

