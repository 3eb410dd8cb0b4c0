"""Properties of the sort-based dedupe helpers and the frontier level
sweep: equal to the ``np.unique`` / per-node-sweep references they
replace, bitwise."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels
from repro.ir.analysis import CAT_TRUE, classify_reads, sorted_unique, unique_pairs
from repro.sanitize.detector import required_pairs
from repro.workloads.synthetic import random_irregular_loop

RADIX = 50

pair_lists = st.lists(
    st.tuples(st.integers(0, 3 * RADIX), st.integers(0, RADIX - 1)), max_size=80
)


@given(pairs=pair_lists)
@example(pairs=[])
@example(pairs=[(4, 7)])
@example(pairs=[(3, 1), (3, 1), (0, 2), (3, 1)])
@settings(max_examples=150, deadline=None)
def test_unique_pairs_equals_numpy_unique(pairs):
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    got = unique_pairs(arr[:, 0], arr[:, 1], RADIX)
    want = (
        np.unique(arr, axis=0) if len(arr) else np.empty((0, 2), dtype=np.int64)
    )
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@given(keys=st.lists(st.integers(-1000, 1000), max_size=80))
@example(keys=[])
@example(keys=[5])
@example(keys=[2, 2, 2])
@settings(max_examples=150, deadline=None)
def test_sorted_unique_equals_numpy_unique(keys):
    arr = np.array(keys, dtype=np.int64)
    got = sorted_unique(arr)
    assert got.dtype == arr.dtype
    assert np.array_equal(got, np.unique(arr))


@st.composite
def forward_dags(draw):
    n = draw(st.integers(0, 60))
    if n < 2:
        return n, np.empty((0, 2), dtype=np.int64)
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=4 * n,
        )
    )
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return n, unique_pairs(arr[:, 0], arr[:, 1], n)


@given(dag=forward_dags())
@settings(max_examples=150, deadline=None)
def test_frontier_levels_equal_sweep_levels(dag):
    n, pairs = dag
    graph = DependenceGraph(n, pairs)
    frontier = compute_levels(graph, method="frontier")
    sweep = compute_levels(graph, method="sweep")
    for field in ("levels", "order", "level_ptr"):
        assert np.array_equal(getattr(frontier, field), getattr(sweep, field))
    assert np.array_equal(graph.pairs(), pairs)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
@settings(max_examples=40, deadline=None)
def test_required_pairs_equal_numpy_unique(seed, n):
    loop = random_irregular_loop(n, seed=seed)
    readers, writers, categories = classify_reads(loop)
    mask = categories == CAT_TRUE
    trip = np.stack(
        [writers[mask], readers[mask], loop.reads.index[mask].astype(np.int64)],
        axis=1,
    )
    want = [tuple(int(v) for v in row) for row in np.unique(trip, axis=0)]
    got = required_pairs(loop)
    assert got == want
    assert all(type(v) is int for row in got for v in row)
