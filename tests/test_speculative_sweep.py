"""The speculative backend's batched rounds, checked against a scalar
reference of the round algorithm.

Each speculation round runs every chunk in one wavefront sweep over a
cached chunk layout.  The properties here pin that this changes nothing
observable: the values are the oracle's bitwise, the round / conflict /
rollback / fallback counters are those of the plain per-chunk algorithm
(kept below as :func:`reference_rounds`), the sanitizer sees the same
shadow log, and the layout is built once per structure and chunk size.
No assertion depends on timing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InspectorCache, PlanSpec, parallelize
from repro.backends import SpeculativeRunner
from repro.backends.layout import build_chunk_layout, chunk_term_codes
from repro.core.workspace import MAXINT
from repro.errors import ScheduleError
from repro.ir.loop import INIT_EXTERNAL
from repro.sanitize.shadow import ShadowCapture
from repro.workloads.synthetic import chain_loop, random_irregular_loop


def reference_rounds(loop, chunk: int, max_rounds: int):
    """The speculation algorithm one chunk at a time, per term, with sets:
    run every pending chunk against a copy of the committed state, then
    commit in chunk order unless the chunk read what an earlier pending
    chunk wrote (RAW) or writes what a deferred chunk touched (WAR/WAW);
    after ``max_rounds`` rounds run what is left sequentially."""
    n = loop.n
    ptr, index, coeff = loop.reads.ptr, loop.reads.index, loop.reads.coeff
    external = loop.init_kind == INIT_EXTERNAL
    y = loop.y0.copy()

    def bounds(c):
        return c * chunk, min(n, (c + 1) * chunk)

    def execute(c, src):
        lo, hi = bounds(c)
        buf, reads = {}, set()
        for i in range(lo, hi):
            w = int(loop.write[i])
            acc = loop.init_values[i] if external else src[w]
            for k in range(ptr[i], ptr[i + 1]):
                idx = int(index[k])
                if idx == w:
                    value = acc
                elif idx in buf:
                    value = buf[idx]
                else:
                    value = src[idx]
                    reads.add(idx)
                acc += coeff[k] * value
            buf[w] = acc
        return buf, reads

    pending = list(range(-(-n // chunk)))
    rounds = rolled_back = 0
    conflicted = set()
    while pending and rounds < max_rounds:
        rounds += 1
        snapshot = y.copy()
        attempts = {c: execute(c, snapshot) for c in pending}
        pending_w, deferred = set(), set()
        deferred_chunks = []
        for c in pending:
            buf, reads = attempts[c]
            writes = set(buf)
            if reads & pending_w or writes & deferred:
                deferred |= reads | writes
                deferred_chunks.append(c)
                conflicted.add(c)
                rolled_back += 1
            else:
                for e, v in buf.items():
                    y[e] = v
            pending_w |= writes
        pending = deferred_chunks
    for c in pending:
        buf, _reads = execute(c, y)
        for e, v in buf.items():
            y[e] = v
    return y, {
        "rounds": rounds,
        "chunks_conflicted": len(conflicted),
        "chunks_rolled_back": rolled_back,
        "fallback_chunks": len(pending),
    }


def _counters(stats: dict) -> dict:
    return {k: stats[k] for k in (
        "rounds", "chunks_conflicted", "chunks_rolled_back", "fallback_chunks"
    )}


@given(
    n=st.integers(0, 60),
    seed=st.integers(0, 2000),
    max_terms=st.integers(0, 5),
    external=st.booleans(),
    chunk_kind=st.sampled_from(("one", "small", "whole")),
    small=st.integers(2, 8),
    extra=st.integers(0, 5),
    max_rounds=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_rounds_match_scalar_reference(
    n, seed, max_terms, external, chunk_kind, small, extra, max_rounds
):
    loop = random_irregular_loop(
        n, max_terms=max_terms, seed=seed, external_init=external
    )
    chunk = {"one": 1, "small": small, "whole": max(1, n + extra)}[chunk_kind]
    result = SpeculativeRunner(workers=2, max_rounds=max_rounds).run(
        loop, chunk=chunk
    )
    oracle = loop.run_sequential()
    ref_y, ref_stats = reference_rounds(loop, chunk, max_rounds)
    assert np.array_equal(result.y, oracle)
    assert np.array_equal(ref_y, oracle)
    stats = result.extras["speculation"]
    assert _counters(stats) == ref_stats
    assert stats["sequential_fallback"] == bool(ref_stats["fallback_chunks"])


def test_trisolve_112_counters_are_pinned():
    """The benchmark's speculative workload: the ILU(0) forward solve of
    the 112x112 five-point operator on two workers — eight chunks in a
    chunk-granular chain, committing one per round."""
    from repro.sparse.ilu import ilu0
    from repro.sparse.stencils import five_point
    from repro.sparse.trisolve import lower_solve_loop

    A = five_point(112, 112)
    L, _U = ilu0(A)
    loop = lower_solve_loop(L, np.random.default_rng(0).standard_normal(A.n_rows))
    cache = InspectorCache()
    spec = PlanSpec(backend="speculative", processors=2)
    oracle = loop.run_sequential()
    for expected in ("miss", "hit"):
        result, _ = parallelize(loop, spec=spec, cache=cache)
        assert np.array_equal(result.y, oracle)
        stats = result.extras["speculation"]
        assert _counters(stats) == {
            "rounds": 8,
            "chunks_conflicted": 7,
            "chunks_rolled_back": 28,
            "fallback_chunks": 0,
        }
        assert stats["layout_cache"] == expected


def _shadow_log(loop, chunk):
    runner = SpeculativeRunner(workers=2, chunk=chunk)
    capture = ShadowCapture()
    runner._san_capture = capture
    result = runner.run(loop)
    assert np.array_equal(result.y, loop.run_sequential())
    return capture.lanes


class TestGoldenShadowLogs:
    """Committed chunks' shadow events come from the layout; they are the
    per-term interpreter's tuples, in its order, with its source flags
    (the round-start ``written`` set for snapshot reads)."""

    def test_chain(self):
        assert _shadow_log(chain_loop(8, 1), 2) == {
            0: [("w", 0, 0), ("r", 1, 0, 1), ("w", 1, 1), ("p", ("c", 0))],
            1: [
                ("a", ("c", 0)), ("r", 2, 1, 1), ("w", 2, 2),
                ("r", 3, 2, 1), ("w", 3, 3), ("p", ("c", 1)),
            ],
            2: [
                ("a", ("c", 1)), ("r", 4, 3, 1), ("w", 4, 4),
                ("r", 5, 4, 1), ("w", 5, 5), ("p", ("c", 2)),
            ],
            3: [
                ("a", ("c", 2)), ("r", 6, 5, 1), ("w", 6, 6),
                ("r", 7, 6, 1), ("w", 7, 7), ("p", ("c", 3)),
            ],
        }

    def test_random_loop_with_old_value_reads(self):
        loop = random_irregular_loop(8, max_terms=2, seed=3)
        assert _shadow_log(loop, 3) == {
            0: [
                ("r", 0, 6, 0), ("r", 0, 10, 0), ("w", 0, 11),
                ("w", 1, 15), ("w", 2, 9), ("p", ("c", 0)),
            ],
            1: [
                ("a", ("c", 0)), ("r", 3, 9, 1), ("w", 3, 1),
                ("r", 4, 2, 0), ("w", 4, 12), ("r", 5, 11, 1),
                ("r", 5, 12, 1), ("w", 5, 2), ("p", ("c", 1)),
            ],
            2: [
                ("a", ("c", 1)), ("r", 6, 15, 1), ("w", 6, 14),
                ("r", 7, 12, 1), ("w", 7, 10), ("p", ("c", 2)),
            ],
        }


def _codes_reference(ptr, index, iter_array, lo, hi):
    """The multiproc executor's per-chunk classification, as first
    written there."""
    k0, k1 = int(ptr[lo]), int(ptr[hi])
    writers = iter_array[index[k0:k1]]
    readers = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(ptr)[lo:hi])
    code = np.zeros(k1 - k0, dtype=np.int8)
    code[writers == readers] = 3
    true_dep = writers < readers
    code[true_dep & (writers >= lo)] = 1
    code[true_dep & (writers < lo)] = 2
    return code


@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 1000),
    chunk=st.integers(1, 70),
)
@settings(max_examples=40, deadline=None)
def test_chunk_term_codes(n, seed, chunk):
    """One chunk at a time the codes are the multiproc executor's; with
    ``chunk`` they are the per-chunk codes laid end to end."""
    loop = random_irregular_loop(n, seed=seed)
    ptr, index = loop.reads.ptr, loop.reads.index
    it = np.full(loop.y_size, MAXINT, dtype=np.int64)
    it[loop.write] = np.arange(n, dtype=np.int64)
    pieces = []
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        codes = chunk_term_codes(ptr, index, it, lo, hi)
        ref = _codes_reference(ptr, index, it, lo, hi)
        assert codes.dtype == ref.dtype and np.array_equal(codes, ref)
        pieces.append(codes)
    whole = chunk_term_codes(ptr, index, it, 0, n, chunk=chunk)
    assert np.array_equal(whole, np.concatenate(pieces))


class TestLayoutCache:
    def test_uncached_runner_reports_uncached(self):
        loop = chain_loop(40, 1)
        result = SpeculativeRunner(workers=2).run(loop)
        assert result.extras["speculation"]["layout_cache"] == "uncached"

    def test_keyed_by_structure_and_chunk(self):
        loop = random_irregular_loop(90, seed=2)
        cache = InspectorCache()
        runner = SpeculativeRunner(workers=2, cache=cache)
        seen = [
            runner.run(loop, chunk=c).extras["speculation"]["layout_cache"]
            for c in (8, 8, 5)
        ]
        assert seen == ["miss", "hit", "miss"]
        # Values are not part of the key: a rescaled instance still hits.
        other = random_irregular_loop(90, seed=2, coeff_scale=0.2)
        result = runner.run(other, chunk=5)
        assert result.extras["speculation"]["layout_cache"] == "hit"
        assert np.array_equal(result.y, other.run_sequential())
        stats = cache.stats()
        assert stats["layout_entries"] == 2
        # Record counters are the inspector's and stay untouched.
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 0, 0)

    def test_bytes_count_the_layouts(self):
        loop = random_irregular_loop(90, seed=2)
        cache = InspectorCache()
        cache.structure(loop)
        before = cache.stats()["bytes"]
        layout, hit = cache.chunk_layout(loop, 8)
        assert not hit
        assert cache.stats()["bytes"] == before + sum(
            a.nbytes for a in layout.arrays()
        )

    def test_capacity_and_clear(self):
        loop = random_irregular_loop(50, seed=1)
        cache = InspectorCache(capacity=2)
        for chunk in (1, 2, 3):
            cache.chunk_layout(loop, chunk)
        assert cache.stats()["layout_entries"] == 2
        cache.clear()
        assert cache.stats()["layout_entries"] == 0

    def test_cached_layout_equals_a_fresh_build(self):
        loop = random_irregular_loop(120, seed=8, external_init=True)
        cached, _hit = InspectorCache().chunk_layout(loop, 7)
        fresh = build_chunk_layout(loop, 7)
        for a, b in zip(cached.arrays(), fresh.arrays()):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestOrderValidation:
    def test_illegal_order_rejected_with_a_warm_cache(self):
        loop = chain_loop(32, 1)
        cache = InspectorCache()
        runner = SpeculativeRunner(workers=2, cache=cache)
        runner.run(loop, order=np.arange(loop.n))
        with pytest.raises(ScheduleError, match="violates true dependence"):
            runner.run(loop, order=np.arange(loop.n)[::-1].copy())
        # Validated against the cached graph: analyzed once, on the
        # first call.
        assert cache.structure_misses == 1
