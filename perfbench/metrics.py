"""The metrics' definitions and the per-layer mapping.

Names, units and directions live in ``BENCHMARK.json`` (:func:`load`).
This module adds what that file has no slot for: for each per-layer
metric, the end-to-end metric it should move and the workloads where it
should move it.  Wherever a workload is not named, predict no change.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK.read_text())


ALL = "all workloads"
_VEC = "trisolve-vectorized (figure6-sim: none)"
_TRI = "trisolve-vectorized, then trisolve-speculative/multiproc (figure6-sim: none)"
_CACHED = "trisolve-* (figure6-sim: none)"

_PLAN = ("call_ms.p75", _VEC)
_GRAPH = ("call_ms.p75, cold_call_ms.p75", _TRI)
_CACHE = ("cold_call_ms.p75, call_ms.p75, traded against peak_rss_mb", _CACHED)
_EXEC = ("call_ms.p75, cold_call_ms.p75", ALL)
_SPEC = ("call_ms.p75", "trisolve-speculative")
# Waits grow under CPU contention before throughput drops.
_MP = ("call_ms.p75", "trisolve-multiproc")
_SIM = ("call_ms.p75 (wall time); sim.efficiency (cycles)", "figure6-sim")

#: Traced run (``--trace 1``): ``{name: (moves, on)}``.  ``*_ms`` is a
#: layer's inclusive time per warm call and ``*_self_ms`` its self time
#: (median over traced calls).
MAPPING = {
    "call.total_ms": ("call_ms.p75", ALL),
    "call.self_ms": ("call_ms.p75", ALL),
    "passes.plan_loop_ms": _PLAN,
    "passes.plan_loop_self_ms": _PLAN,
    "passes.plan_share": _PLAN,
    "graph.depgraph_ms": _GRAPH,
    "graph.depgraph_self_ms": _GRAPH,
    "ir.dependence_pairs_ms": _GRAPH,
    "graph.levels_ms": _GRAPH,
    "graph.levels_self_ms": _GRAPH,
    "graph.n_levels": _GRAPH,
    "graph.edges": _GRAPH,
    "cache.fingerprint_ms": _CACHE,
    "cache.get_or_build_ms": _CACHE,
    "cache.get_or_build_self_ms": _CACHE,
    "cache.build_ms": _CACHE,
    "cache.build_self_ms": _CACHE,
    "cache.hits": _CACHE,
    "cache.misses": _CACHE,
    "cache.hit_ratio": _CACHE,
    "cache.bytes": _CACHE,
    "ir.plan_transform_ms": ("call_ms.p75", ALL),
    "ir.run_sequential_ms": ("seq_ms.p75", ALL),
    "passes.execute_plan_ms": _EXEC,
    "passes.execute_plan_self_ms": _EXEC,
    "backend.run_ms": _EXEC,
    "backend.run_self_ms": _EXEC,
    "backend.overhead_ms": _EXEC,
    "vectorized.preprocess_ms": ("call_ms.p75", "trisolve-vectorized"),
    "vectorized.execute_ms": ("call_ms.p75", "trisolve-vectorized"),
    "speculative.rounds": _SPEC,
    "speculative.chunks_conflicted": _SPEC,
    "speculative.chunks_rolled_back": _SPEC,
    "speculative.fallback_chunks": _SPEC,
    "speculative.useful_ratio": _SPEC,
    "multiproc.wait_s": _MP,
    "multiproc.busy_waits": _MP,
    "multiproc.flag_checks": _MP,
    "multiproc.wait_escalations": _MP,
    "sim.run_ms": _SIM,
    "sim.cycles_per_s": _SIM,
    "sim.efficiency": _SIM,
    "sim.inspector_cycles": _SIM,
    "sim.executor_cycles": _SIM,
    "sim.postprocessor_cycles": _SIM,
    "sim.barrier_cycles": _SIM,
    "sim.wait_cycles": _SIM,
    "trace.overhead_ratio": ("none: tracing cost", ALL),
}
