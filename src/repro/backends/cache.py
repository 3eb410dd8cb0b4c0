"""Content-addressed inspector cache: the paper's amortization, concrete.

The paper's central economic argument (§2.3, Figure 3) is that the
inspector's output is *reusable*: preprocessing cost is paid once per
dependence structure and amortized over every execution that shares it —
the triangular solve inside a Krylov iteration being the canonical case
(tens of solves per factorization, identical subscripts every time).

:class:`InspectorCache` makes that claim operational.  A loop's dependence
structure is fingerprinted by *content* — SHA-256 over the ``write`` index
array, the read table's ``ptr``/``index`` arrays, and the static signature
(:func:`repro.ir.transform.structural_signature`) — so:

- two distinct loop objects with equal index arrays share one cache entry
  (amortization across instances, Figure 3);
- mutating any index array in place changes the digest and *misses*
  (there is no way to consume a stale inspector result);
- coefficients and values are deliberately excluded: they do not affect
  who-writes-what, so a solver that rescales its matrix still hits.

The cache holds four kinds of entry, each an LRU table of ``capacity``
entries:

- a **structure** entry (:class:`LoopStructure`), keyed by
  :func:`loop_fingerprint` only: the true-dependence
  :class:`~repro.graph.depgraph.DependenceGraph` and its wavefront
  :class:`~repro.graph.levels.LevelSchedule`.  Planning reads it (the
  ``dependence-dag``, ``level-schedule`` and ``doconsider`` passes), so
  the dependence analysis runs once per structure, not once per call —
  Figure 3's amortization applied to planning as well as to the
  inspector;
- an **inspector record** (:class:`InspectorRecord`), built from the
  structure entry on a miss;
- a **chunk layout** (:class:`~repro.backends.layout.ChunkLayout`), keyed
  by :func:`loop_fingerprint` and chunk size: the speculative backend's
  in-chunk wavefronts and read logs, built from the structure entry on a
  miss;
- an **in-chunk order** (:func:`~repro.backends.layout.in_chunk_order`),
  keyed the same way: the order the multiproc backend runs natural-order
  loops in, built from the structure entry on a miss.

An inspector record holds everything the vectorized backend's
preprocessing produces: the paper's ``iter`` array, the wavefront
:class:`~repro.graph.levels.LevelSchedule`, the
:class:`~repro.ir.transform.TransformPlan`, and the executor-ready term
layout (terms permuted into wavefront order, read sources resolved to
old-``y``/``ynew``, intra-iteration terms marked).  Everything in the
record is structure-only; per-run values (coefficients, initial values)
are gathered at execution time.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.backends.layout import (
    ChunkLayout,
    build_chunk_layout,
    in_chunk_order,
    lay_out_terms,
)
from repro.core.workspace import MAXINT
from repro.errors import InvalidLoopError
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import LevelSchedule, compute_levels
from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan, plan_transform, structural_signature

__all__ = [
    "loop_fingerprint",
    "LoopStructure",
    "analyze_structure",
    "InspectorRecord",
    "InspectorCache",
    "build_inspector_record",
    "assemble_record",
]


def loop_fingerprint(loop: IrregularLoop) -> str:
    """SHA-256 digest of the loop's dependence structure.

    Covers the static signature plus the raw bytes of ``write``,
    ``reads.ptr``, and ``reads.index``.  Excludes coefficients, ``y0``,
    and ``init_values`` — they affect arithmetic, not dependence.
    """
    h = hashlib.sha256()
    h.update(repr(structural_signature(loop)).encode())
    for arr in (loop.write, loop.reads.ptr, loop.reads.index):
        h.update(b"|")
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass(frozen=True, eq=False)
class LoopStructure:
    """The structure analysis of one loop: its true-dependence DAG and the
    DAG's wavefront schedule.  Structure-only, so one instance serves every
    loop with the same :func:`loop_fingerprint`."""

    graph: DependenceGraph
    schedule: LevelSchedule

    def arrays(self) -> tuple[np.ndarray, ...]:
        g, s = self.graph, self.schedule
        return (
            g.succ_ptr, g.succ, g.pred_ptr, g.pred,
            s.levels, s.order, s.level_ptr,
        )

    @property
    def nbytes(self) -> int:
        return _nbytes([self])


def analyze_structure(loop: IrregularLoop) -> LoopStructure:
    """Compute the loop's dependence DAG and level schedule, once."""
    graph = DependenceGraph.from_loop(loop)
    return LoopStructure(graph, compute_levels(graph))


def _nbytes(entries: Iterable) -> int:
    """Footprint of the entries' arrays, each shared array counted once
    (a record and its structure entry hold the same graph and schedule)."""
    seen: dict[int, int] = {}
    for entry in entries:
        for a in entry.arrays():
            seen[id(a)] = a.nbytes
    return int(sum(seen.values()))


@dataclass
class InspectorRecord:
    """One cached preprocessing result (structure-only; see module doc).

    Attributes
    ----------
    fingerprint:
        Content digest this record was built from.
    iter_array:
        The paper's ``iter``: writer iteration per ``y`` element,
        ``MAXINT`` where unwritten.
    schedule:
        Wavefront decomposition of the true-dependence DAG.
    plan:
        The compiler's strategy decision for the loop's static structure.
    exec_order:
        Iterations permuted for batched execution: wavefront level major,
        then per-iteration term count *descending* (so each term slot's
        active set is a prefix — no masks in the executor's inner step).
    exec_counts, exec_ptr:
        Term counts / CSR boundaries per execution position.
    exec_write:
        Write index per execution position.
    term_source:
        Flat original-term positions in execution order; per-run data
        (coefficients) is gathered through this permutation.
    env_index:
        Per execution-ordered term: the gather index into the doubled
        value environment ``[y_old | y_new]`` — ``index`` for
        antidependent/unwritten reads (old value), ``index + y_size`` for
        true-dependence reads (renamed new value).
    intra:
        Per execution-ordered term: reads the live accumulator of its own
        iteration (the paper's ``check == 0`` case).
    slot_active, slot_ptr:
        For level ``k`` and term slot ``j``: ``slot_active[slot_ptr[k]+j]``
        iterations (a prefix of the level) still have a ``j``-th term.
    graph:
        The true-dependence DAG ``schedule`` was computed from, when the
        record came from the runtime inspector (``None`` on the symbolic
        and distance-group paths, which never materialize it).
    """

    fingerprint: str
    iter_array: np.ndarray
    schedule: LevelSchedule
    plan: TransformPlan
    exec_order: np.ndarray
    exec_counts: np.ndarray
    exec_ptr: np.ndarray
    exec_write: np.ndarray
    term_source: np.ndarray
    env_index: np.ndarray
    intra: np.ndarray
    slot_active: np.ndarray
    slot_ptr: np.ndarray
    graph: DependenceGraph | None = None

    @property
    def n_levels(self) -> int:
        return self.schedule.n_levels

    def arrays(self) -> tuple[np.ndarray, ...]:
        own = (
            self.iter_array,
            self.schedule.levels,
            self.schedule.order,
            self.schedule.level_ptr,
            self.exec_order,
            self.exec_counts,
            self.exec_ptr,
            self.exec_write,
            self.term_source,
            self.env_index,
            self.intra,
            self.slot_active,
            self.slot_ptr,
        )
        if self.graph is None:
            return own
        g = self.graph
        return own + (g.succ_ptr, g.succ, g.pred_ptr, g.pred)

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the cached arrays, the
        dependence graph included."""
        return _nbytes([self])


def build_inspector_record(
    loop: IrregularLoop,
    structure: LoopStructure | None = None,
    fingerprint: str | None = None,
) -> InspectorRecord:
    """Run the (vectorized) inspector and wavefront preprocessing for
    ``loop`` and package the result for caching.

    This is the whole run-time preprocessing pipeline of the paper —
    Figure 3's ``iter`` construction plus the §3.2 wavefront computation —
    executed as NumPy array operations rather than simulated phases.
    ``structure`` (the loop's :class:`LoopStructure`) and ``fingerprint``
    (its :func:`loop_fingerprint`) are computed when not given; the cache
    passes the ones it already holds.
    """
    n, y_size = loop.n, loop.y_size
    if structure is None:
        structure = analyze_structure(loop)

    # Inspector: iter(a(i)) = i, everything else MAXINT (Figure 3, left).
    iter_array = np.full(y_size, MAXINT, dtype=np.int64)
    iter_array[loop.write] = np.arange(n, dtype=np.int64)

    # Classify every flat term against iter (the executor's check).
    readers = loop.reads.iteration_of_term()
    writers = iter_array[loop.reads.index]  # MAXINT where unwritten

    return assemble_record(
        loop,
        iter_array=iter_array,
        schedule=structure.schedule,
        true_flat=writers < readers,  # MAXINT compares greater: never true
        intra_flat=writers == readers,
        plan=plan_transform(loop),
        fingerprint=(
            fingerprint if fingerprint is not None else loop_fingerprint(loop)
        ),
        graph=structure.graph,
    )


def assemble_record(
    loop: IrregularLoop,
    *,
    iter_array: np.ndarray,
    schedule: LevelSchedule,
    true_flat: np.ndarray,
    intra_flat: np.ndarray,
    plan: TransformPlan,
    fingerprint: str,
    graph: DependenceGraph | None = None,
) -> InspectorRecord:
    """Lay out an :class:`InspectorRecord` from classified terms (the
    term order itself is :func:`~repro.backends.layout.lay_out_terms`,
    shared with the speculative backend's chunk layouts).

    Shared by the runtime inspector (:func:`build_inspector_record`) and
    the symbolic elision path (:func:`repro.analysis.build_symbolic_record`)
    — both feed the same deterministic layout, so records are bitwise
    comparable regardless of which side produced the classification.
    """
    y_size = loop.y_size
    index = loop.reads.index
    exec_order, exec_counts, exec_ptr, term_source, slot_active, slot_ptr = (
        lay_out_terms(loop.reads.ptr, schedule)
    )
    env_index = index[term_source] + y_size * true_flat[term_source]
    intra = intra_flat[term_source]

    return InspectorRecord(
        fingerprint=fingerprint,
        iter_array=iter_array,
        schedule=schedule,
        plan=plan,
        exec_order=exec_order,
        exec_counts=exec_counts,
        exec_ptr=exec_ptr,
        exec_write=loop.write[exec_order],
        term_source=term_source,
        env_index=env_index,
        intra=intra,
        slot_active=slot_active,
        slot_ptr=slot_ptr,
        graph=graph,
    )


class InspectorCache:
    """LRU cache of :class:`LoopStructure`, :class:`InspectorRecord`,
    :class:`~repro.backends.layout.ChunkLayout` and in-chunk order entries
    keyed by loop content.

    Parameters
    ----------
    capacity:
        Maximum number of entries retained in each of the four tables;
        least recently used entries are evicted first.

    Attributes
    ----------
    hits, misses:
        Inspector-record lookup counters — the measurable form of the
        paper's Figure-3 amortization claim (asserted in tests and reported
        by ``repro.bench.bench_vectorized``).
    structure_hits, structure_misses:
        Structure-entry lookup counters: planning's share of the same
        amortization.

    Beyond inspector records, the cache carries the auto-tuner's state
    (:meth:`tuner_state`): per-fingerprint wall-time measurements,
    telemetry features, and the current backend decision.  Keying both
    under the same content address is deliberate — "same dependence
    structure" is one notion shared by preprocessing amortization and by
    tuning (:mod:`repro.passes.autotune`).
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise InvalidLoopError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.structure_hits = 0
        self.structure_misses = 0
        self._entries: OrderedDict[str, InspectorRecord] = OrderedDict()
        self._structures: OrderedDict[str, LoopStructure] = OrderedDict()
        self._layouts: OrderedDict[tuple[str, int], ChunkLayout] = OrderedDict()
        self._orders: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self._tuner: dict[str, dict] = {}

    def __len__(self) -> int:
        """Number of cached inspector records."""
        return len(self._entries)

    def __contains__(self, loop: IrregularLoop) -> bool:
        """Whether an inspector record for ``loop`` is cached."""
        return loop_fingerprint(loop) in self._entries

    def _put(self, table: OrderedDict, key: str, value) -> None:
        table[key] = value
        table.move_to_end(key)
        while len(table) > self.capacity:
            table.popitem(last=False)

    def structure(
        self, loop: IrregularLoop, fingerprint: str | None = None
    ) -> tuple[LoopStructure, bool]:
        """Return ``(structure, hit)`` for ``loop``, analyzing on a miss.

        ``fingerprint`` must be ``loop_fingerprint(loop)`` (pass it when
        already computed): structure entries are content-addressed only,
        never by the symbolic or distance keys, which loops with different
        index arrays can share.
        """
        fp = fingerprint if fingerprint is not None else loop_fingerprint(loop)
        structure = self._structures.get(fp)
        if structure is not None:
            self.structure_hits += 1
            self._structures.move_to_end(fp)
            return structure, True
        self.structure_misses += 1
        structure = analyze_structure(loop)
        self._put(self._structures, fp, structure)
        return structure, False

    def chunk_layout(
        self, loop: IrregularLoop, chunk: int, fingerprint: str | None = None
    ) -> tuple[ChunkLayout, bool]:
        """Return ``(layout, hit)`` for ``loop`` cut into chunks of
        ``chunk`` iterations, building it from the structure entry on a
        miss.  ``fingerprint`` must be ``loop_fingerprint(loop)``."""
        fp = fingerprint if fingerprint is not None else loop_fingerprint(loop)
        key = (fp, chunk)
        layout = self._layouts.get(key)
        if layout is not None:
            self._layouts.move_to_end(key)
            return layout, True
        structure, _hit = self.structure(loop, fp)
        layout = build_chunk_layout(loop, chunk, structure.graph)
        self._put(self._layouts, key, layout)
        return layout, False

    def chunk_order(
        self, loop: IrregularLoop, chunk: int, fingerprint: str | None = None
    ) -> tuple[np.ndarray, bool]:
        """Return ``(order, hit)``: ``loop``'s
        :func:`~repro.backends.layout.in_chunk_order` for chunks of
        ``chunk`` iterations, built from the structure entry on a miss.
        ``fingerprint`` must be ``loop_fingerprint(loop)``."""
        fp = fingerprint if fingerprint is not None else loop_fingerprint(loop)
        key = (fp, chunk)
        order = self._orders.get(key)
        if order is not None:
            self._orders.move_to_end(key)
            return order, True
        structure, _hit = self.structure(loop, fp)
        order = in_chunk_order(structure.graph, chunk)
        self._put(self._orders, key, order)
        return order, False

    def get_or_build(
        self,
        loop: IrregularLoop,
        builder=None,
        fingerprint: str | None = None,
    ) -> tuple[InspectorRecord, bool]:
        """Return ``(record, hit)`` for ``loop``, building on a miss.

        ``builder`` (default: :func:`build_inspector_record` over the
        loop's :meth:`structure` entry) produces the record; the symbolic
        elision path injects :func:`repro.analysis.build_symbolic_record`
        here.  ``fingerprint`` overrides the content digest — a fully
        proven loop is keyed by its structure-only
        :func:`repro.analysis.symbolic_fingerprint`, which lets loops with
        identical proofs share one entry without hashing their index
        arrays.  With the default builder it must be the loop's
        :func:`loop_fingerprint`.
        """
        fp = fingerprint if fingerprint is not None else loop_fingerprint(loop)
        record = self._entries.get(fp)
        if record is not None:
            self.hits += 1
            self._entries.move_to_end(fp)
            return record, True
        self.misses += 1
        if builder is None:
            structure, _hit = self.structure(loop, fp)
            record = build_inspector_record(loop, structure, fp)
        else:
            record = builder(loop)
        self._put(self._entries, fp, record)
        return record, False

    def seed(
        self, record: InspectorRecord, fingerprint: str | None = None
    ) -> None:
        """Insert a pre-built record, and the structure entry it carries,
        without touching any counter — how plan-time preprocessing
        (:class:`repro.passes.builtin.InspectorPass`) warms a runner's
        cache without skewing the amortization accounting."""
        fp = fingerprint if fingerprint is not None else record.fingerprint
        self._put(self._entries, fp, record)
        if record.graph is not None:
            # A record with a graph came from the runtime inspector, whose
            # own fingerprint is the loop's content digest.
            self._put(
                self._structures,
                record.fingerprint,
                LoopStructure(record.graph, record.schedule),
            )

    def tuner_state(self, fingerprint: str) -> dict:
        """The auto-tuner's mutable slot for one dependence structure.

        Layout: ``{"measurements": {backend: [wall_seconds, ...]},
        "features": {backend: {...}}, "decision": dict | None}``.  Slots
        are created on demand and survive :meth:`clear` of the record
        entries only via an explicit re-fetch (tuning history is cheap;
        inspector records are the memory hogs).
        """
        return self._tuner.setdefault(
            fingerprint,
            {"measurements": {}, "features": {}, "decision": None},
        )

    def clear(self) -> None:
        """Drop all entries, tuner state included (counters are kept)."""
        self._entries.clear()
        self._structures.clear()
        self._layouts.clear()
        self._orders.clear()
        self._tuner.clear()

    def stats(self) -> dict:
        """Counters plus footprint, JSON-safe.  ``bytes`` counts every
        cached array once, structure entries, chunk layouts and in-chunk
        orders included."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "structure_entries": len(self._structures),
            "structure_hits": self.structure_hits,
            "structure_misses": self.structure_misses,
            "layout_entries": len(self._layouts),
            "order_entries": len(self._orders),
            "bytes": _nbytes(
                [
                    *self._entries.values(),
                    *self._structures.values(),
                    *self._layouts.values(),
                ]
            )
            + sum(order.nbytes for order in self._orders.values()),
            "tuner_entries": len(self._tuner),
        }
