"""Timed and traced runs of one workload.

Both runs drive ``repro.parallelize(loop, spec=workload.spec, cache=...)``
in a closed loop — one caller, each call starting after the previous one
returned — and compare every call's ``y`` bitwise with the loop's
``run_sequential()`` oracle, computed once per loop instance.

The timed run (:func:`timed_run`) measures the end-to-end metrics with
tracing and ``observe`` off.  Times are gated on their upper quartile.
On a shared host per-call times are bimodal (an opportunistic fast state
beside the steady one), and a median flips between the modes from run to
run while the upper quartile stays in the steady one.  Higher
percentiles are no steadier: they pick up the host's brief stalls and,
on the multiproc backend, the rare long waits of an escalated busy-wait.
``setup_s`` reports the slowest set-up for the same reason.  Medians,
the warm-call tail and throughput are printed and kept in the report,
ungated.

The traced run (:func:`traced_run`) alternates untraced and traced warm
calls, so the tracing overhead is measured on the same inputs, then makes
a few untraced calls with ``observe=True`` to read the program's own
counters from ``RunResult.telemetry``.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import resource
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker

import numpy as np

from repro import InspectorCache, parallelize
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels

from perfbench import spans as spans_mod
from perfbench.workloads import Inputs, Workload

#: Set-ups per timed run; ``setup_s`` reports the slowest.
SETUP_REPEATS = 3
#: The tail is the warm-call sample with this many samples above it.
TAIL_BEYOND = 10
#: One round of the timed run's closed loop: warm calls (shared cache),
#: a cold call (fresh cache) and a run of the sequential oracle.
PATTERN = ("warm", "warm", "warm", "cold", "seq")
MIN_COLD = 3
#: Traced run: traced cold calls and minimum (untraced, traced) warm pairs.
TRACED_COLD = 2
MIN_PAIRS = 5
#: Traced run: untraced warm calls with ``observe=True``, for counters.
OBSERVED = 5


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ms(seconds) -> float:
    """Median of ``seconds``, in milliseconds."""
    return 1e3 * _median(seconds)


class Session:
    """One workload's inputs, oracles, and correctness bookkeeping."""

    def __init__(self, workload: Workload, inputs: Inputs):
        self.workload = workload
        self.inputs = inputs
        self.oracles: list[np.ndarray] = []
        self.seq_seconds: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.sim_signature: tuple | None = None
        self.sizes = structure(inputs)
        self._next = 0

    def compute_oracles(self, run=None) -> None:
        """Run and time each loop's sequential oracle once."""
        for loop in self.inputs.loops:
            self.oracles.append(self.time_sequential(loop, run))

    def time_sequential(self, loop, run=None) -> np.ndarray:
        t0 = time.perf_counter()
        y = run(loop.run_sequential) if run else loop.run_sequential()
        self.seq_seconds.append(time.perf_counter() - t0)
        return y

    def call(self, cache, run=None, spec=None):
        """One checked call on the next loop instance.

        Returns ``(seconds, summary)``: the call's :func:`summary`, or
        ``None`` when it raised.  The result itself is dropped, so no run
        holds more memory the more calls it makes.  ``run`` wraps the call
        (the tracer's root span); ``spec`` replaces the workload's.
        """
        k = self._next % len(self.inputs.loops)
        self._next += 1
        loop = self.inputs.loops[k]
        spec = spec or self.workload.spec
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if run is None:
                result, _plan = parallelize(loop, spec=spec, cache=cache)
            else:
                result, _plan = run(parallelize, loop, spec=spec, cache=cache)
        except Exception:
            seconds = time.perf_counter() - t0
            self.failures.append(traceback.format_exc(limit=3))
            print(self.failures[-1], file=sys.stderr)
            return seconds, None
        seconds = time.perf_counter() - t0
        self._check(k, result)
        return seconds, summary(result)

    def _check(self, k: int, result) -> None:
        oracle = self.oracles[k]
        y = np.asarray(result.y)
        if not (
            y.shape == oracle.shape
            and y.dtype == oracle.dtype
            and np.array_equal(y.view(np.uint8), oracle.view(np.uint8))
        ):
            self.failures.append(f"loop {k}: y differs bitwise from run_sequential()")
        if self.workload.spec.backend == "simulated":
            # Simulated cycles depend on structure only: every call of a
            # run must report the same strategy, cycles and efficiency.
            sig = (result.strategy, result.total_cycles, result.efficiency)
            if self.sim_signature is None:
                self.sim_signature = sig
            elif sig != self.sim_signature:
                self.failures.append(
                    f"simulated result {sig} differs from {self.sim_signature}"
                )

    @property
    def failed(self) -> int:
        return len(self.failures)


def summary(result) -> dict:
    """The few numbers of a :class:`~repro.RunResult` the reports use."""
    return {
        "strategy": result.strategy,
        "total_cycles": result.total_cycles,
        "efficiency": result.efficiency,
        "breakdown": result.breakdown.as_dict(),
        "wait_cycles": result.wait_cycles,
        "preprocess_seconds": result.extras.get("preprocess_seconds", 0.0),
        "execute_seconds": result.extras.get("execute_seconds", 0.0),
        "chunks": result.extras.get("speculation", {}).get("chunks", 0),
        "counters": (
            dict(result.telemetry.metrics.counters) if result.telemetry else {}
        ),
    }


def setup(workload: Workload, seed: int) -> tuple[float, Inputs]:
    """Build the inputs and make one warm-up call; return the wall time."""
    t0 = time.perf_counter()
    inputs = workload.build(seed)
    parallelize(inputs.loops[0], spec=workload.spec, cache=InspectorCache())
    return time.perf_counter() - t0, inputs


def structure(inputs: Inputs) -> dict:
    """Input sizes plus the dependence DAG's edge and level counts."""
    graph = DependenceGraph.from_loop(inputs.loops[0])
    return dict(
        inputs.sizes,
        edges=int(graph.edge_count),
        n_levels=int(compute_levels(graph).n_levels),
    )


def reap() -> None:
    """Collect finished runners, wait for every child process they
    started (the multiproc backend's worker pools), then stop the
    shared-memory resource tracker the multiproc backend launched: it is
    not a child multiprocessing knows of, and would outlive the run."""
    gc.collect()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join()
    # Closes the tracker's pipe and waits for it to exit; a no-op when it
    # never started.  A later shared segment would start a fresh one.
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def p75(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=4, method="inclusive")[-1]


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile of ``samples`` with
    at least :data:`TAIL_BEYOND` samples above it."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(
            f"need more than {TAIL_BEYOND} samples for a tail, got {len(ordered)}"
        )
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ----------------------------------------------------------------------
# Timed run
# ----------------------------------------------------------------------
def timed_run(workload: Workload, seed: int, seconds: float, import_s: float):
    setups, inputs = [], None
    for _ in range(SETUP_REPEATS):
        inputs = None  # one input set alive at a time, for peak_rss_mb
        took, inputs = setup(workload, seed)
        setups.append(import_s + took)
    session = Session(workload, inputs)
    session.compute_oracles()

    # One closed loop interleaves the kinds of sample, so each metric's
    # samples span the whole run rather than one stretch of it.
    cache = InspectorCache()
    session.call(cache)  # fill the shared cache
    cold: list[float] = []
    warm: list[float] = []
    last = None
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(warm) <= TAIL_BEYOND
        or len(cold) < MIN_COLD
    ):
        for kind in PATTERN:
            if kind == "warm":
                took, summ = session.call(cache)
                warm.append(took)
                last = summ or last
            elif kind == "cold":
                cold.append(session.call(InspectorCache())[0])
            else:
                loops = session.inputs.loops
                session.time_sequential(loops[len(session.seq_seconds) % len(loops)])
    reap()
    seq = session.seq_seconds

    metrics = {
        "setup_s": max(setups),
        "call_ms.p75": 1e3 * p75(warm),
        "cold_call_ms.p75": 1e3 * p75(cold),
        "seq_ms.p75": 1e3 * p75(seq),
        "peak_rss_mb": peak_rss_mb(),
    }
    tail_s, tail_pct = tail(warm)
    details = {
        "call_ms.tail": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "tail_beyond": TAIL_BEYOND,
        # Ungated: medians flip between the host's speed modes.
        "call_ms.p50": _ms(warm),
        "cold_call_ms.p50": _ms(cold),
        "seq_ms.p50": _ms(seq),
        "iters_per_s": session.sizes["n"] * len(warm) / sum(warm),
        "speedup_vs_seq": _median(seq) / _median(warm),
        "fail_ratio": session.failed / session.attempted,
        "setup_s.median": statistics.median(setups),
        "import_s": import_s,
        "setup_runs_s": setups,
        "cold_calls": len(cold),
        "warm_calls": len(warm),
        "seq_runs": len(seq),
        "strategy": last["strategy"] if last else None,
        "sim_efficiency": (
            last["efficiency"] if last and workload.spec.backend == "simulated" else None
        ),
        "samples_ms": {
            "cold": [t * 1e3 for t in cold],
            "warm": [t * 1e3 for t in warm],
            "seq": [t * 1e3 for t in seq],
        },
    }
    return session, metrics, details, None


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced_run(workload: Workload, seed: int, seconds: float, import_s: float):
    _took, inputs = setup(workload, seed)
    session = Session(workload, inputs)
    tracer = spans_mod.Tracer()

    def root(fn, *args, **kwargs):
        return tracer.call(fn.__name__, fn, *args, **kwargs)

    tracer.install()
    try:
        first = tracer.call_id + 1
        session.compute_oracles(run=root)
        oracle_ids = list(range(first, tracer.call_id + 1))
        cold_ids, cold_misses = [], []
        for _ in range(TRACED_COLD):
            fresh = InspectorCache()
            session.call(fresh, run=root)
            cold_ids.append(tracer.call_id)
            cold_misses.append(fresh.misses)
    finally:
        tracer.uninstall()

    cache = InspectorCache()
    session.call(cache)  # fill the shared cache
    primed = (cache.hits, cache.misses)
    bare, traced, warm_ids, summaries = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PAIRS or time.perf_counter() < deadline:
        # Alternate which of the pair goes first.
        for use_tracer in (len(traced) % 2 == 1, len(traced) % 2 == 0):
            if not use_tracer:
                bare.append(session.call(cache)[0])
                continue
            tracer.install()
            try:
                took, summ = session.call(cache, run=root)
            finally:
                tracer.uninstall()
            traced.append(took)
            warm_ids.append(tracer.call_id)
            summaries.append(summ)
    hits = cache.hits - primed[0]
    lookups = hits + cache.misses - primed[1]
    observe = dataclasses.replace(workload.spec, observe=True)
    observed = [session.call(cache, spec=observe)[1] for _ in range(OBSERVED)]
    reap()

    layers = Layers(spans_mod.per_call(tracer.spans))
    metrics = layers.times(warm_ids, cold_ids, oracle_ids)
    metrics.update(
        {
            "graph.n_levels": session.sizes["n_levels"],
            "graph.edges": session.sizes["edges"],
            # Shared-cache lookups per warm call, traced or not.
            "cache.hits": hits / (len(bare) + len(traced)),
            "cache.misses": _median(cold_misses),
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.bytes": cache.stats()["bytes"],
            "trace.overhead_ratio": _median(traced) / _median(bare),
        }
    )
    metrics.update(
        backend_counters(
            workload, summaries, layers.inc(warm_ids, "backend.run"), observed
        )
    )
    details = {
        "traced_calls": len(traced),
        "bare_calls": len(bare),
        "traced_cold_calls": len(cold_ids),
        "call_ms.p50_bare": _ms(bare),
        "call_ms.p50_traced": _ms(traced),
    }
    return session, metrics, details, tracer.spans


class Layers:
    """Per-call inclusive and self times, by span name."""

    def __init__(self, rows: dict):
        self.rows = rows

    def inc(self, ids, name) -> list[float]:
        return [self.rows.get(cid, {}).get(name, (0.0, 0.0))[0] for cid in ids]

    def own(self, ids, name) -> list[float]:
        return [self.rows.get(cid, {}).get(name, (0.0, 0.0))[1] for cid in ids]

    def times(self, warm_ids, cold_ids, oracle_ids) -> dict:
        m = {
            "call.total_ms": _ms(self.inc(warm_ids, "parallelize")),
            "call.self_ms": _ms(self.own(warm_ids, "parallelize")),
        }
        for layer in (
            "passes.plan_loop",
            "passes.execute_plan",
            "graph.depgraph",
            "graph.levels",
            "cache.get_or_build",
            "backend.run",
        ):
            m[f"{layer}_ms"] = _ms(self.inc(warm_ids, layer))
            m[f"{layer}_self_ms"] = _ms(self.own(warm_ids, layer))
        for layer in ("ir.dependence_pairs", "ir.plan_transform", "cache.fingerprint"):
            m[f"{layer}_ms"] = _ms(self.inc(warm_ids, layer))
        # Inspector records are built only on a miss: the traced cold calls.
        m["cache.build_ms"] = _ms(self.inc(cold_ids, "cache.build"))
        m["cache.build_self_ms"] = _ms(self.own(cold_ids, "cache.build"))
        m["ir.run_sequential_ms"] = _ms(self.inc(oracle_ids, "ir.run_sequential"))
        calls = self.inc(warm_ids, "parallelize")
        m["passes.plan_share"] = _median(
            p / c for p, c in zip(self.inc(warm_ids, "passes.plan_loop"), calls)
        )
        m["backend.overhead_ms"] = _ms(
            e - r
            for e, r in zip(
                self.inc(warm_ids, "passes.execute_plan"),
                self.inc(warm_ids, "backend.run"),
            )
        )
        return m


SIM_NAMES = (
    "run_ms", "cycles_per_s", "efficiency", "inspector_cycles",
    "executor_cycles", "postprocessor_cycles", "barrier_cycles", "wait_cycles",
)
#: Telemetry counters read on the chunked backends: (metric, counter).
SPECULATIVE_COUNTERS = (
    ("speculative.rounds", "speculation_rounds"),
    ("speculative.chunks_conflicted", "chunks_conflicted"),
    ("speculative.chunks_rolled_back", "chunks_rolled_back"),
    ("speculative.fallback_chunks", "fallback_chunks"),
)
MULTIPROC_COUNTERS = (
    ("multiproc.wait_s", "wait_seconds"),
    ("multiproc.busy_waits", "busy_waits"),
    ("multiproc.flag_checks", "flag_checks"),
    ("multiproc.wait_escalations", "wait_escalations"),
)


def backend_counters(workload, summaries, run_seconds, observed) -> dict:
    """The program's own per-backend numbers; 0 where a backend does not
    apply to the workload.  ``run_seconds``: the traced ``backend.run``
    time of each call in ``summaries``; ``observed``: summaries of the
    calls made with ``observe=True``."""
    pairs = [(r, s) for r, s in zip(summaries, run_seconds) if r is not None]
    observed = [r for r in observed if r is not None]
    backend = workload.spec.backend
    m = {
        "vectorized.preprocess_ms": _ms(r["preprocess_seconds"] for r, _s in pairs),
        "vectorized.execute_ms": _ms(r["execute_seconds"] for r, _s in pairs),
    }
    for name, table in (
        ("speculative", SPECULATIVE_COUNTERS),
        ("multiproc", MULTIPROC_COUNTERS),
    ):
        for metric, counter in table:
            m[metric] = (
                _median(r["counters"].get(counter, 0) for r in observed)
                if backend == name
                else 0.0
            )
    # First-try commits per chunk execution: every rollback re-executes a
    # chunk, speculatively or in the sequential fallback.
    m["speculative.useful_ratio"] = (
        _median(
            (r["chunks"] - r["counters"]["chunks_conflicted"])
            / (r["chunks"] + r["counters"]["chunks_rolled_back"])
            for r in observed
        )
        if backend == "speculative" and observed
        else 0.0
    )
    m.update({f"sim.{name}": 0.0 for name in SIM_NAMES})
    if backend == "simulated" and pairs:
        last = pairs[-1][0]
        m.update(
            {
                "sim.run_ms": _ms(sec for _r, sec in pairs),
                "sim.cycles_per_s": _median(r["total_cycles"] / sec for r, sec in pairs),
                "sim.efficiency": last["efficiency"],
                "sim.inspector_cycles": last["breakdown"]["inspector"],
                "sim.executor_cycles": last["breakdown"]["executor"],
                "sim.postprocessor_cycles": last["breakdown"]["postprocessor"],
                "sim.barrier_cycles": last["breakdown"]["barriers"],
                "sim.wait_cycles": last["wait_cycles"],
            }
        )
    return m
