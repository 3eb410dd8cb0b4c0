"""Execution-ordered term layouts and the wavefront sweep that runs them.

Two backends execute a loop as wavefronts of batched NumPy operations:
the vectorized backend over the loop's whole true-dependence DAG (its
:class:`~repro.backends.cache.InspectorRecord`), and the speculative
backend over each chunk's own part of that DAG (a :class:`ChunkLayout`).
Both lay their terms out the same way (:func:`lay_out_terms`) and run
them through the same level loop (:func:`wavefront_sweep`), so the
arithmetic — and therefore bitwise equality with the sequential oracle —
is one piece of code.

:func:`chunk_term_codes` is the paper's Figure-5 ``iter`` check
precomputed for a chunk of iterations, which the speculative layout
resolves into gather indices (the multiproc executor reads the same
classification per term, made against its chunks' execution positions).  :func:`in_chunk_schedule` levels each chunk's own
part of the dependence DAG: the speculative layout sweeps its levels, and
:func:`in_chunk_order` — doconsider inside each §2.3 strip — is the order
the multiproc backend runs natural-order loops in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.workspace import MAXINT
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import LevelSchedule, compute_levels
from repro.ir.analysis import unique_pairs
from repro.ir.loop import IrregularLoop

__all__ = [
    "lay_out_terms",
    "chunk_term_codes",
    "in_chunk_schedule",
    "in_chunk_order",
    "ChunkLayout",
    "build_chunk_layout",
    "wavefront_sweep",
]


def lay_out_terms(
    ptr: np.ndarray, schedule: LevelSchedule
) -> tuple[np.ndarray, ...]:
    """Permute a CSR read table into wavefront execution order.

    Iterations go level-major, then by term count *descending* inside a
    level, so term slot ``j`` of a level is live for a leading prefix of
    its iterations.  Returns ``(exec_order, exec_counts, exec_ptr,
    term_source, slot_active, slot_ptr)`` — see
    :class:`~repro.backends.cache.InspectorRecord` for each array.
    """
    n = len(ptr) - 1
    counts = np.diff(ptr)
    exec_order = np.lexsort(
        (np.arange(n, dtype=np.int64), -counts, schedule.levels)
    ).astype(np.int64)

    exec_counts = counts[exec_order]
    exec_ptr = np.zeros(n + 1, dtype=np.int64)
    exec_ptr[1:] = np.cumsum(exec_counts)
    total = int(ptr[-1])

    # Flat original-term position feeding each execution-ordered term.
    term_source = (
        np.repeat(ptr[exec_order] - exec_ptr[:-1], exec_counts)
        + np.arange(total, dtype=np.int64)
    )

    # Per-level, per-slot active prefix lengths.
    level_ptr = schedule.level_ptr
    n_levels = schedule.n_levels
    slot_counts = np.zeros(n_levels, dtype=np.int64)
    actives: list[np.ndarray] = []
    for k in range(n_levels):
        lo, hi = int(level_ptr[k]), int(level_ptr[k + 1])
        cnt = exec_counts[lo:hi]  # non-increasing by construction
        maxc = int(cnt[0]) if hi > lo else 0
        slot_counts[k] = maxc
        if maxc:
            # active[j] = #iterations in the level with count > j.
            ascending = cnt[::-1]
            active = (hi - lo) - np.searchsorted(
                ascending, np.arange(maxc, dtype=np.int64), side="right"
            )
            actives.append(active.astype(np.int64))
    slot_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    slot_ptr[1:] = np.cumsum(slot_counts)
    slot_active = (
        np.concatenate(actives) if actives else np.empty(0, dtype=np.int64)
    )
    return exec_order, exec_counts, exec_ptr, term_source, slot_active, slot_ptr


def chunk_term_codes(
    ptr: np.ndarray,
    index: np.ndarray,
    writer_of: np.ndarray,
    lo: int,
    hi: int,
    chunk: int | None = None,
) -> np.ndarray:
    """Classify the read terms of iterations ``[lo, hi)`` against their
    chunk, in natural term order.

    ``writer_of`` is the paper's ``iter``: the writing iteration of each
    element, ``MAXINT`` where unwritten.  Codes: 0 = reads old ``y``
    (antidependence or unwritten element), 1 = true dependence on an
    earlier iteration of the same chunk, 2 = true dependence on an
    earlier chunk, 3 = reads the iteration's own live accumulator.
    ``[lo, hi)`` is one chunk unless ``chunk`` is given, in which case
    it is cut into chunks of ``chunk`` iterations starting at ``lo``.
    Depends only on the loop's structure.
    """
    k0, k1 = int(ptr[lo]), int(ptr[hi])
    writers = writer_of[index[k0:k1]]
    readers = np.repeat(
        np.arange(lo, hi, dtype=np.int64), np.diff(ptr[lo : hi + 1])
    )
    first = lo if chunk is None else lo + (readers - lo) // chunk * chunk
    code = np.zeros(k1 - k0, dtype=np.int8)
    code[writers == readers] = 3
    true_dep = writers < readers
    code[true_dep & (writers >= first)] = 1
    code[true_dep & (writers < first)] = 2
    return code


def in_chunk_schedule(graph: DependenceGraph, chunk: int) -> LevelSchedule:
    """Levels of the *in-chunk* DAG: the edges of ``graph`` (a loop's
    true-dependence DAG) whose writer and reader fall in the same chunk
    of ``chunk`` iterations."""
    pairs = graph.pairs()
    same = pairs[:, 0] // chunk == pairs[:, 1] // chunk
    return compute_levels(DependenceGraph(graph.n, pairs[same]))


def in_chunk_order(graph: DependenceGraph, chunk: int) -> np.ndarray:
    """Doconsider inside each strip: iterations sorted by ``(chunk, level
    in the in-chunk DAG, index)``.

    Structure-only and a legal execution order: a true dependence inside
    a chunk points to a lower level of that chunk, every other one to an
    earlier chunk.  Each chunk keeps its own positions, so the strips and
    their worker deal are those of natural order.
    """
    it = np.arange(graph.n, dtype=np.int64)
    levels = in_chunk_schedule(graph, chunk).levels
    return np.lexsort((it, levels, it // chunk)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class ChunkLayout:
    """The speculative backend's execution layout for one chunk size.

    Structure-only, so one instance serves every loop with the same
    :func:`~repro.backends.cache.loop_fingerprint` and chunk size.  The
    wavefronts are the levels of the *in-chunk* DAG — the true
    dependences whose writer and reader share a chunk — so one sweep
    executes every chunk at once, each against its own chunk only.

    Attributes
    ----------
    chunk, n_chunks:
        Chunk size and chunk count.
    schedule:
        Levels of the in-chunk DAG.
    exec_order, exec_ptr, exec_write, term_source, slot_active, slot_ptr:
        The term layout, as in :class:`~repro.backends.cache.InspectorRecord`.
    env_index, intra:
        Per execution-ordered term: the gather index into ``[y_committed
        | new]`` — ``index + y_size`` for an in-chunk true dependence,
        ``index`` for every other read (the round's frozen snapshot) —
        and whether it reads the live accumulator.
    codes:
        :func:`chunk_term_codes` of every term against its own chunk, in
        natural term order (drives the sanitizer's shadow events).
    log_ptr, log_elems:
        CSR read logs: ``log_elems[log_ptr[c]:log_ptr[c+1]]`` are the
        sorted unique snapshot elements chunk ``c`` reads — what the
        conflict detector checks.
    """

    chunk: int
    n_chunks: int
    schedule: LevelSchedule
    exec_order: np.ndarray
    exec_ptr: np.ndarray
    exec_write: np.ndarray
    term_source: np.ndarray
    env_index: np.ndarray
    intra: np.ndarray
    slot_active: np.ndarray
    slot_ptr: np.ndarray
    codes: np.ndarray
    log_ptr: np.ndarray
    log_elems: np.ndarray

    def read_log(self, c: int) -> np.ndarray:
        return self.log_elems[self.log_ptr[c] : self.log_ptr[c + 1]]

    def arrays(self) -> tuple[np.ndarray, ...]:
        s = self.schedule
        return (
            s.levels, s.order, s.level_ptr,
            self.exec_order, self.exec_ptr, self.exec_write,
            self.term_source, self.env_index, self.intra,
            self.slot_active, self.slot_ptr,
            self.codes, self.log_ptr, self.log_elems,
        )


def build_chunk_layout(
    loop: IrregularLoop, chunk: int, graph: DependenceGraph | None = None
) -> ChunkLayout:
    """Lay ``loop`` out for speculation in chunks of ``chunk`` iterations.

    ``graph`` is the loop's true-dependence DAG (computed when not
    given); only its edges inside one chunk order the sweep.
    """
    n, y_size = loop.n, loop.y_size
    ptr, index = loop.reads.ptr, loop.reads.index
    if graph is None:
        graph = DependenceGraph.from_loop(loop)
    schedule = in_chunk_schedule(graph, chunk)
    exec_order, _counts, exec_ptr, term_source, slot_active, slot_ptr = (
        lay_out_terms(ptr, schedule)
    )

    writer_of = np.full(y_size, MAXINT, dtype=np.int64)
    writer_of[loop.write] = np.arange(n, dtype=np.int64)
    codes = chunk_term_codes(ptr, index, writer_of, 0, n, chunk=chunk)
    ordered = codes[term_source]

    # Read logs: every read the chunk serves from the snapshot.
    snapshot = (codes == 0) | (codes == 2)
    logs = unique_pairs(
        loop.reads.iteration_of_term()[snapshot] // chunk,
        index[snapshot],
        y_size,
    )
    n_chunks = -(-n // chunk)
    return ChunkLayout(
        chunk=chunk,
        n_chunks=n_chunks,
        schedule=schedule,
        exec_order=exec_order,
        exec_ptr=exec_ptr,
        exec_write=loop.write[exec_order],
        term_source=term_source,
        env_index=index[term_source] + y_size * (ordered == 1),
        intra=ordered == 3,
        slot_active=slot_active,
        slot_ptr=slot_ptr,
        codes=codes,
        log_ptr=np.searchsorted(
            logs[:, 0], np.arange(n_chunks + 1, dtype=np.int64)
        ),
        log_elems=logs[:, 1].copy(),
    )


def wavefront_sweep(
    layout,
    env: np.ndarray,
    y_size: int,
    coeff: np.ndarray,
    init: np.ndarray | None = None,
    stamps: list[float] | None = None,
) -> None:
    """Execute ``layout`` level by level into the new half of ``env``.

    ``layout`` is an :class:`~repro.backends.cache.InspectorRecord` or a
    :class:`ChunkLayout`; ``env`` is the doubled value environment
    ``[old | new]`` with the old half filled; ``coeff`` is the read
    coefficients in execution order; ``init`` the initial accumulators in
    execution order (external-init loops) or ``None`` to seed each
    accumulator from the old value of the element it writes.  Every
    iteration's terms run in the oracle's order as ``acc = acc + coeff *
    value``, so the new half is bitwise what sequential execution writes.

    ``stamps``, when given, receives ``time.perf_counter()`` at the start
    of every level and once at the end (``n_levels + 1`` values): level
    ``k`` ran from ``stamps[k]`` to ``stamps[k + 1]``.
    """
    exec_ptr = layout.exec_ptr
    exec_write = layout.exec_write
    env_index = layout.env_index
    intra = layout.intra
    level_ptr = layout.schedule.level_ptr
    slot_active, slot_ptr = layout.slot_active, layout.slot_ptr
    # Without intra-iteration reads (a triangular solve has none) the
    # live-accumulator select is the identity: skip it.
    any_intra = bool(intra.any())
    now = time.perf_counter
    for k in range(layout.schedule.n_levels):
        if stamps is not None:
            stamps.append(now())
        p0, p1 = int(level_ptr[k]), int(level_ptr[k + 1])
        if init is not None:
            acc = init[p0:p1].copy()
        else:
            acc = env[exec_write[p0:p1]]
        base = exec_ptr[p0 : p1 + 1]
        for j in range(int(slot_ptr[k + 1] - slot_ptr[k])):
            m = int(slot_active[slot_ptr[k] + j])
            kk = base[:m] + j
            vals = env[env_index[kk]]
            a = acc[:m]
            if any_intra:
                vals = np.where(intra[kk], a, vals)
            # Same op order as the oracle: acc += coeff * value, with
            # value = live accumulator for intra-iteration reads.
            a += coeff[kk] * vals
        env[y_size + exec_write[p0:p1]] = acc
    if stamps is not None:
        stamps.append(now())
