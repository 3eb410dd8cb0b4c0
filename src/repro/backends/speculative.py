"""Speculative doacross backend: optimism instead of inspection.

The paper's inspector is pessimistic — it pays the Figure-3
preprocessing cost up front to *prove* every cross-iteration dependence
before executing anything.  This backend is the optimistic dual
(PAPERS.md: "Speculative DOACROSS Loop Parallelization with taskloop",
arXiv 2302.05506): execute contiguous chunks of iterations against a
frozen snapshot of ``y`` **without synchronizing on any cross-chunk
dependence**, then detect conflicts after the fact from each chunk's
read/write element sets and re-execute the losers from the snapshot.

The round structure:

1. **Speculate.**  Every chunk executes against the committed array
   state (frozen for the round) in **one batched wavefront sweep**
   (:func:`~repro.backends.layout.wavefront_sweep`, the vectorized
   backend's level loop) over the chunk layout
   (:class:`~repro.backends.layout.ChunkLayout`): the wavefronts are the
   levels of the *in-chunk* dependence DAG, so all chunks advance
   together, each reading its own earlier iterations from the renamed
   ``new`` half of ``[y_committed | new]`` and everything else from the
   snapshot.  The elements a chunk reads from the snapshot form its read
   log.  Only pending chunks' results are used; the sweep runs the whole
   layout, since per-level NumPy dispatch, not lane count, is its cost.
2. **Commit.**  Chunks are considered *sequentially in chunk order*.  A
   chunk conflicts — and is rolled back to pending — if it read an
   element an earlier pending chunk wrote this round (RAW: its inputs
   were stale), or if it writes an element an already-deferred chunk
   read or wrote (WAR/WAW: committing it would corrupt the deferred
   chunk's later re-execution).  A conflict-free chunk's new values are
   copied into the committed state; they are final.
3. **Fixpoint.**  Deferred chunks re-execute next round against the
   updated state.  The earliest pending chunk can never conflict, so
   every round commits at least one chunk and the fixpoint needs at most
   ``n_chunks`` rounds; a bounded retry budget (``max_rounds``) caps the
   wasted re-execution on dense dependence chains and falls back to
   plain sequential execution of whatever is still pending — the
   liveness guarantee the wait-free protocol otherwise lacks.

The chunk layout is structure-only — which reads hit the snapshot, the
in-chunk levels, the per-chunk read logs depend on subscripts, never on
values — so it is built once per ``(loop_fingerprint, chunk)`` and kept
in the :class:`~repro.backends.cache.InspectorCache` when the runner has
one (``cache=None`` builds it on every call).  ``workers`` runs no
threads: it sets the default chunk count, ``ceil(n / (4 * workers))``
iterations per chunk, and the reported ``processors``.

Everything is deterministic: the snapshot is frozen during the sweep and
conflict decisions are computed from structure-only element sets in
chunk order — so ``speculation_rounds`` and the final values are
reproducible run to run, and a committed chunk provably read exactly the
values the sequential oracle would have (per-iteration term order is the
oracle's, so equality is bitwise, not approximate).

Sanitize composition: only *committed* executions are shadow-logged
(a rolled-back attempt is discarded work, not part of the witnessed
execution), one lane per chunk, with commits chained by synthetic
``("c", k)`` post/acquire tokens — the k-th commit acquires the token
the (k-1)-th posted, so every cross-chunk true dependence is covered by
a transitive happens-before edge the detector can replay.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import (
    Runner,
    note_ignored_options,
    validate_execution_order,
)
from repro.backends.cache import InspectorCache, LoopStructure, loop_fingerprint
from repro.backends.layout import (
    ChunkLayout,
    build_chunk_layout,
    wavefront_sweep,
)
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.machine.costs import CostModel
from repro.obs.spans import CAT_PHASE

__all__ = ["SpeculativeRunner"]

#: Default retry budget: enough rounds for moderate conflict densities
#: to reach the fixpoint, small enough that a dense chain (which commits
#: exactly one chunk per round) falls back before re-executing the whole
#: tail quadratically.
DEFAULT_MAX_ROUNDS = 8


class SpeculativeRunner(Runner):
    """Optimistic chunked execution with post-hoc conflict detection,
    rollback, and a sequential-fallback retry budget.

    ``workers`` sets the default chunk size (``ceil(n / (4 * workers))``)
    and the reported ``processors``; execution itself is one batched
    sweep per round, not a thread pool.  ``cache`` keeps the chunk
    layouts (and the dependence structure they are cut from) across
    calls; without one they are rebuilt on every call.

    ``analyze="symbolic"`` attaches the symbolic verdict to the result
    for diagnosis; unlike the inspector backends there is no inspector
    phase to elide, so the verdict never changes execution.
    """

    name = "speculative"

    def __init__(
        self,
        workers: int = 4,
        chunk: int | None = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        analyze: str | None = None,
        cache: InspectorCache | None = None,
    ):
        from repro.backends.vectorized import ANALYZE_MODES

        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if max_rounds < 1:
            raise ValueError(
                f"retry budget must allow at least one round, got {max_rounds}"
            )
        if analyze not in ANALYZE_MODES:
            raise ValueError(
                f"unknown analyze mode {analyze!r}; expected one of "
                f"{ANALYZE_MODES}"
            )
        self.workers = workers
        self.chunk = chunk
        #: Speculation rounds before giving up on convergence and
        #: executing the remaining chunks sequentially (bounded-livelock
        #: contract, same spirit as the multiproc WaitLadder).
        self.max_rounds = max_rounds
        self.analyze = analyze
        self.cache = cache

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
        structure: LoopStructure | None = None,
    ) -> RunResult:
        """Execute ``loop`` speculatively; returns a :class:`RunResult`
        bitwise-equal to the sequential oracle.

        ``chunk`` overrides the constructor's chunk size for this run.
        ``order`` is validated when given but not used: commits happen in
        natural chunk order, and any *valid* execution order produces the
        same values, so reordering buys nothing here.  ``schedule`` and
        ``trace`` are ignored and recorded in
        ``result.extras["ignored_options"]``.  ``fingerprint`` is the
        loop's digest when the caller already has it; it keys the cache.
        ``structure`` is the loop's analysis when the caller holds one and
        the runner has no cache (plan execution hands its own down), so
        the run does not analyze the loop again.
        """
        verdict = None
        if self.analyze is not None:
            from repro.analysis import analyze_loop

            verdict = analyze_loop(loop)
            if self.analyze == "symbolic+check":
                from repro.analysis import cross_check

                cross_check(loop, verdict, strict=True)
        graph = structure.graph if structure is not None else None
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            if self.cache is not None:
                if fingerprint is None:
                    fingerprint = loop_fingerprint(loop)
                graph = self.cache.structure(loop, fingerprint)[0].graph
            validate_execution_order(loop, order, graph)
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        cs = chunk if chunk is not None else self.chunk
        if cs is None:
            cs = max(1, -(-loop.n // (4 * self.workers)))

        t0 = time.perf_counter()
        if self.cache is None:
            layout = build_chunk_layout(loop, cs, graph)
            layout_cache = "uncached"
        else:
            layout, hit = self.cache.chunk_layout(loop, cs, fingerprint)
            layout_cache = "hit" if hit else "miss"
        y, stats = self._execute(loop, layout)
        wall = time.perf_counter() - t0
        stats["layout_cache"] = layout_cache

        cm = CostModel()
        result = RunResult(
            loop_name=loop.name,
            strategy="speculative-doacross",
            processors=self.workers,
            y=y,
            total_cycles=0,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            schedule=f"speculative({stats['chunks']} chunks of {cs})",
            wall_seconds=wall,
        )
        result.extras["speculation"] = stats
        if self.analyze is not None:
            result.extras["analyze"] = self.analyze
            if verdict is not None:
                result.extras["verdict"] = verdict.kind
                if verdict.distance is not None:
                    result.extras["verdict_distance"] = int(verdict.distance)
        ignored = {}
        if order is not None:
            ignored["order"] = (
                "<array>",
                "speculative commits happen in natural chunk order; any "
                "valid execution order yields the identical result",
            )
        if schedule is not None:
            ignored["schedule"] = (
                schedule,
                "the speculative backend always executes contiguous "
                "chunks; only the chunk size is tunable",
            )
        if trace:
            ignored["trace"] = (
                True,
                "no simulated timeline exists on real threads; use "
                "observe=True for wall-clock spans",
            )
        note_ignored_options(result, self.name, **ignored)
        met = self._obs_metrics
        if met is not None:
            met.count("speculation_rounds", stats["rounds"])
            met.count("chunks_conflicted", stats["chunks_conflicted"])
            met.count("chunks_rolled_back", stats["chunks_rolled_back"])
            met.count("iterations", loop.n)
            if stats["sequential_fallback"]:
                met.count("fallback_chunks", stats["fallback_chunks"])
        return result

    # ------------------------------------------------------------------
    def _conflicts(
        self,
        read_elems: np.ndarray,
        write_elems: np.ndarray,
        pending_writes: np.ndarray,
        deferred_rw: np.ndarray,
    ) -> bool:
        """Whether a chunk must defer its commit this round.

        RAW — it read an element an earlier pending chunk wrote, so its
        speculative inputs were stale; WAR/WAW — it writes an element an
        already-deferred chunk read or wrote, so committing it now would
        corrupt that chunk's later re-execution.  Overridable seam for
        fault injection (an always-``True`` detector must drain the
        retry budget and fall back, never livelock — tested).
        """
        return bool(
            pending_writes[read_elems].any() or deferred_rw[write_elems].any()
        )

    # ------------------------------------------------------------------
    def _execute(
        self, loop: IrregularLoop, layout: ChunkLayout
    ) -> tuple[np.ndarray, dict]:
        n, y_size = loop.n, loop.y_size
        cs = layout.chunk
        write = loop.write
        ptr, r_idx, r_coeff = (
            loop.reads.ptr,
            loop.reads.index,
            loop.reads.coeff,
        )
        external = loop.init_kind == INIT_EXTERNAL
        init_values = loop.init_values

        y = loop.y0.copy()
        n_chunks = layout.n_chunks
        # Per-run values in the layout's execution order; the round's
        # environment is [y_committed | new].
        coeff = r_coeff[layout.term_source]
        init = init_values[layout.exec_order] if external else None
        env = np.empty(2 * y_size, dtype=np.float64)
        #: Elements written by a committed chunk so far — drives the
        #: sanitizer's old/new source flags; grown only at commits.
        written = np.zeros(y_size, dtype=bool)
        rec = self._obs_recorder
        san = self._san_capture
        logging = san is not None
        spans: list[tuple] = []
        now = time.perf_counter

        def bounds(c: int) -> tuple[int, int]:
            return c * cs, min(n, (c + 1) * cs)

        def chunk_events(c: int, written0: np.ndarray) -> list:
            """The shadow log of chunk ``c``'s speculative execution, in
            program order.  The accumulator seed and intra-iteration reads
            are not logged (the write subscript is injective, so they can
            never conflict); in-chunk true dependences read the new value,
            snapshot reads are flagged by the round-start ``written0``."""
            lo, hi = bounds(c)
            k0, k1 = int(ptr[lo]), int(ptr[hi])
            codes = layout.codes[k0:k1]
            elems = r_idx[k0:k1]
            srcs = np.where(codes == 1, 1, written0[elems])
            terms = list(
                zip(elems.tolist(), srcs.tolist(), (codes != 3).tolist())
            )
            counts = np.diff(ptr[lo : hi + 1]).tolist()
            events: list = []
            t = 0
            for i, w, m in zip(range(lo, hi), write[lo:hi].tolist(), counts):
                for idx, src, logged in terms[t : t + m]:
                    if logged:
                        events.append(("r", i, idx, src))
                t += m
                events.append(("w", i, w))
            return events

        commits = 0

        def commit_events(c: int, events: list) -> None:
            """Replay a committed chunk's shadow log onto its lane,
            chained to every earlier commit by the synthetic token."""
            nonlocal commits
            lane = san.lane(int(c))
            if commits:
                lane.append(("a", ("c", commits - 1)))
            lane.extend(events)
            lane.append(("p", ("c", commits)))
            commits += 1

        rounds = 0
        rolled_back = 0
        conflicted: set = set()
        pending = list(range(n_chunks))
        fallback = False
        while pending:
            if rounds >= self.max_rounds:
                fallback = True
                break
            rounds += 1
            if rec is not None:
                t_spec = now()
            # One sweep executes every chunk against the frozen snapshot;
            # only pending chunks' results are ever copied out.
            env[:y_size] = y
            wavefront_sweep(layout, env, y_size, coeff, init)
            if logging:
                written0 = written.copy()
            if rec is not None:
                t_commit = now()
                spans.append((
                    "speculate", CAT_PHASE, t_spec, t_commit, 0,
                    {"round": rounds, "chunks": len(pending)},
                ))
            pending_w = np.zeros(y_size, dtype=bool)
            deferred_rw = np.zeros(y_size, dtype=bool)
            next_pending: list[int] = []
            for c in pending:
                lo, hi = bounds(c)
                w_slice = write[lo:hi]
                reads = layout.read_log(c)
                if self._conflicts(reads, w_slice, pending_w, deferred_rw):
                    pending_w[w_slice] = True
                    deferred_rw[reads] = True
                    deferred_rw[w_slice] = True
                    next_pending.append(c)
                    rolled_back += 1
                    conflicted.add(c)
                    continue
                pending_w[w_slice] = True
                y[w_slice] = env[y_size + w_slice]
                written[w_slice] = True
                if logging:
                    commit_events(c, chunk_events(c, written0))
            if rec is not None:
                spans.append((
                    "commit", CAT_PHASE, t_commit, now(), 0,
                    {
                        "round": rounds,
                        "committed": len(pending) - len(next_pending),
                        "deferred": len(next_pending),
                    },
                ))
            pending = next_pending

        fallback_chunks = len(pending)
        if pending:
            # Retry budget exhausted: execute the stragglers sequentially
            # in chunk order straight against the committed state — exact
            # by construction, and bounded time by construction.  The
            # file's one scalar loop body.
            if rec is not None:
                t_fb = now()
            for c in pending:
                lo, hi = bounds(c)
                events = [] if logging else None
                for i in range(lo, hi):
                    w = write[i]
                    acc = init_values[i] if external else y[w]
                    for k in range(ptr[i], ptr[i + 1]):
                        idx = r_idx[k]
                        if idx == w:
                            value = acc
                        else:
                            value = y[idx]
                            if events is not None:
                                events.append((
                                    "r", i, int(idx),
                                    1 if written[idx] else 0,
                                ))
                        acc += r_coeff[k] * value
                    y[w] = acc
                    written[w] = True
                    if events is not None:
                        events.append(("w", i, int(w)))
                if logging:
                    commit_events(c, events)
            if rec is not None:
                spans.append((
                    "fallback", CAT_PHASE, t_fb, now(), 0,
                    {"chunks": fallback_chunks},
                ))
        if rec is not None and spans:
            rec.record_batch(spans)

        stats = {
            "rounds": rounds,
            "chunks": n_chunks,
            "chunk": cs,
            "chunks_conflicted": len(conflicted),
            "chunks_rolled_back": rolled_back,
            "sequential_fallback": fallback,
            "fallback_chunks": fallback_chunks,
        }
        return y, stats
