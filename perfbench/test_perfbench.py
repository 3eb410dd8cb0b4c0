"""Tests of the benchmark's own code: span self-time arithmetic, the tail
percentile, the clean-up of child processes, and agreement between
``BENCHMARK.json`` and the benchmark's metric mapping and workloads.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import pytest

from perfbench import metrics
from perfbench.spans import Span, Tracer, covered, per_call, self_times


def span(span_id, parent, name, start, end, call_id=0):
    return Span(span_id, parent, call_id, name, float(start), float(end))


# call [0, 10]
# ├── plan [1, 6]
# │   ├── graph [2, 4]
# │   │   └── pairs [2.5, 3.5]
# │   └── graph [4, 5]          (re-entered: a second span of the same name)
# │       └── graph [4.2, 4.8]  (nested under itself)
# └── run [7, 9]
SPANS = [
    span(0, None, "call", 0, 10),
    span(1, 0, "plan", 1, 6),
    span(2, 1, "graph", 2, 4),
    span(3, 2, "pairs", 2.5, 3.5),
    span(4, 1, "graph", 4, 5),
    span(5, 4, "graph", 4.2, 4.8),
    span(6, 0, "run", 7, 9),
]


def test_self_time_is_duration_minus_children():
    selfs = self_times(SPANS)
    assert selfs[0] == pytest.approx(10 - 5 - 2)
    assert selfs[1] == pytest.approx(5 - 2 - 1)
    assert selfs[2] == pytest.approx(2 - 1)
    assert selfs[3] == pytest.approx(1)
    assert selfs[4] == pytest.approx(1 - 0.6)
    assert selfs[5] == pytest.approx(0.6)
    assert selfs[6] == pytest.approx(2)
    # Self times partition the root's interval.
    assert sum(selfs.values()) == pytest.approx(10)


def test_per_call_counts_a_reentered_layer_once():
    row = per_call(SPANS)[0]
    inclusive, self_time = row["graph"]
    # Outermost graph spans only: [2, 4] and [4, 5]; the nested one is inside.
    assert inclusive == pytest.approx(3)
    assert self_time == pytest.approx(1 + 0.4 + 0.6)
    assert row["call"] == pytest.approx((10, 3))
    assert row["plan"] == pytest.approx((5, 2))


def test_per_call_separates_calls():
    spans = SPANS + [span(7, None, "call", 20, 21, call_id=1)]
    rows = per_call(spans)
    assert set(rows) == {0, 1}
    assert rows[1] == {"call": pytest.approx((1, 1))}


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == pytest.approx(6)
    assert covered(0, 10, []) == 0.0
    assert covered(5, 6, [(0, 10)]) == pytest.approx(1)


def test_tracer_records_nesting_and_restores_originals():
    import repro.backends.cache as cache_mod
    import repro.passes.builtin as builtin
    from repro.graph.depgraph import DependenceGraph
    from repro.ir.loop import IrregularLoop

    original = cache_mod.loop_fingerprint
    original_from_loop = DependenceGraph.__dict__["from_loop"]
    original_run_sequential = IrregularLoop.__dict__["run_sequential"]
    tracer = Tracer()
    tracer.install()
    try:
        assert builtin.loop_fingerprint is not original
        from repro import make_test_loop

        loop = make_test_loop(n=20, m=2, l=4)
        tracer.call("root", lambda: DependenceGraph.from_loop(loop))
    finally:
        tracer.uninstall()
    assert builtin.loop_fingerprint is original
    assert cache_mod.loop_fingerprint is original
    assert DependenceGraph.__dict__["from_loop"] is original_from_loop
    assert IrregularLoop.__dict__["run_sequential"] is original_run_sequential
    by_name = {sp.name: sp for sp in tracer.spans}
    assert by_name["graph.depgraph"].parent == by_name["root"].span_id
    assert by_name["ir.dependence_pairs"].parent == by_name["graph.depgraph"].span_id
    assert {sp.call_id for sp in tracer.spans} == {0}


def test_tail_has_ten_samples_beyond_it():
    from perfbench.harness import tail

    samples = [float(x) for x in range(100)]
    value, pct = tail(samples)
    assert value == 89.0
    assert sum(1 for x in samples if x > value) == 10
    assert pct == pytest.approx(90.0)
    with pytest.raises(ValueError):
        tail(samples[:10])


def test_reap_leaves_no_process_behind():
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro import PlanSpec, make_test_loop, parallelize
    from perfbench.harness import reap

    loop = make_test_loop(n=200, m=3, l=5)
    result, _plan = parallelize(
        loop, spec=PlanSpec(backend="multiproc", processors=2)
    )
    assert result.strategy.startswith("multiproc")
    reap()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_mapping_and_workloads_match_benchmark_json():
    spec = metrics.load()
    assert list(metrics.MAPPING) == [m["name"] for m in spec["per_layer"]]
    from perfbench.workloads import WORKLOADS

    assert list(WORKLOADS) == [w["name"] for w in spec["workloads"]]
