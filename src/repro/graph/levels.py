"""Level (wavefront) scheduling of the dependence DAG.

The doconsider transformation reorders loop iterations so that all
iterations of one *level* — iterations whose true dependencies are all
satisfied by previous levels — are contiguous.  Level of an iteration:
``0`` if it has no predecessors, else ``1 + max(level of predecessors)``.

Because every dependence edge points forward in the original order, one
forward sweep computes all levels; sorting by ``(level, original index)``
then yields the reordered execution sequence, which by construction makes
every dependence point backward in execution order (the property
:func:`repro.backends.base.validate_execution_order` demands).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.depgraph import DependenceGraph
from repro.ir.loop import IrregularLoop

__all__ = ["compute_levels", "LevelSchedule"]


@dataclass
class LevelSchedule:
    """A wavefront decomposition of a loop's iterations.

    Attributes
    ----------
    levels:
        ``levels[i]`` — the wavefront index of iteration ``i``.
    order:
        Execution order: iterations sorted by ``(level, index)``.
    level_ptr:
        CSR boundaries into ``order``: level ``k`` is
        ``order[level_ptr[k]:level_ptr[k+1]]``.
    """

    levels: np.ndarray
    order: np.ndarray
    level_ptr: np.ndarray

    @classmethod
    def from_levels(cls, levels: np.ndarray) -> "LevelSchedule":
        """The schedule of per-iteration ``levels``: order by
        ``(level, index)`` and the CSR level boundaries."""
        n = len(levels)
        # Stable sort by level: ties keep index order, i.e. (level, index).
        order = np.argsort(levels, kind="stable").astype(np.int64)
        n_levels = int(levels.max()) + 1 if n else 0
        level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
        if n:
            level_ptr[1:] = np.cumsum(np.bincount(levels, minlength=n_levels))
        return cls(levels=levels, order=order, level_ptr=level_ptr)

    @property
    def n_levels(self) -> int:
        return len(self.level_ptr) - 1

    @property
    def n(self) -> int:
        return len(self.order)

    def level_sizes(self) -> np.ndarray:
        return np.diff(self.level_ptr)

    def slices(self):
        """Iterate ``(lo, hi)`` boundaries into ``order``, one per level —
        the wavefront batches the vectorized backend executes."""
        for k in range(self.n_levels):
            yield int(self.level_ptr[k]), int(self.level_ptr[k + 1])

    def max_width(self) -> int:
        """Widest wavefront — an upper bound on exploitable parallelism at
        any instant."""
        sizes = self.level_sizes()
        return int(sizes.max()) if len(sizes) else 0

    def average_width(self) -> float:
        """Mean iterations per wavefront — the classic level-scheduling
        parallelism estimate ``n / n_levels``."""
        if self.n_levels == 0:
            return 0.0
        return self.n / self.n_levels

    def validate(self, graph: DependenceGraph) -> None:
        """Assert the wavefront property: every edge crosses levels
        strictly upward (tested invariant, DESIGN.md §6)."""
        for w in range(graph.n):
            for r in graph.successors(w):
                if self.levels[w] >= self.levels[r]:
                    raise AssertionError(
                        f"edge {w}→{r} does not ascend levels "
                        f"({self.levels[w]} → {self.levels[r]})"
                    )


def compute_levels(
    source: IrregularLoop | DependenceGraph,
    method: str = "auto",
) -> LevelSchedule:
    """Compute the wavefront decomposition of a loop (or its DAG).

    Parameters
    ----------
    method:
        ``"sweep"`` — the original per-node forward sweep (natural order is
        topological, so one pass suffices); ``"frontier"`` — a vectorized
        Kahn-by-waves propagation whose Python-level work is one step per
        *level* rather than per node (much faster on wide DAGs, which is
        exactly where the vectorized backend operates); ``"auto"`` — pick
        by size.  Both produce identical schedules (tested).
    """
    graph = (
        source
        if isinstance(source, DependenceGraph)
        else DependenceGraph.from_loop(source)
    )
    n = graph.n
    if method == "auto":
        method = "frontier" if n >= 2048 else "sweep"
    if method == "frontier":
        levels = _levels_by_frontier(graph)
    elif method == "sweep":
        levels = _levels_by_sweep(graph)
    else:
        raise ValueError(
            f"unknown level method {method!r}; expected sweep/frontier/auto"
        )

    return LevelSchedule.from_levels(levels)


def _levels_by_sweep(graph: DependenceGraph) -> np.ndarray:
    """Per-node forward sweep (edges point forward, so natural order is
    topological)."""
    n = graph.n
    levels = np.zeros(n, dtype=np.int64)
    pred_ptr, pred = graph.pred_ptr, graph.pred
    for r in range(n):
        lo, hi = pred_ptr[r], pred_ptr[r + 1]
        if hi > lo:
            levels[r] = int(levels[pred[lo:hi]].max()) + 1
    return levels


def _levels_by_frontier(graph: DependenceGraph) -> np.ndarray:
    """Vectorized Kahn-by-waves: wave ``k`` holds the nodes whose last
    predecessor completed in wave ``k-1``, which is exactly the
    longest-path level.  Python-level cost is one iteration per level; all
    per-node work is NumPy array operations proportional to the edges
    leaving the wave (no full-length pass per level)."""
    n = graph.n
    levels = np.zeros(n, dtype=np.int64)
    indeg = graph.in_degrees().astype(np.int64)
    succ_ptr, succ = graph.succ_ptr, graph.succ
    frontier = np.flatnonzero(indeg == 0)
    lvl = 0
    while len(frontier):
        levels[frontier] = lvl
        lo = succ_ptr[frontier]
        counts = succ_ptr[frontier + 1] - lo
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total == 0:
            break
        # Flat positions of every successor edge leaving the frontier.
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            lo - ends + counts, counts
        )
        targets = np.sort(succ[flat])
        # Distinct targets and their edge counts, from the sorted run
        # boundaries; the new frontier comes out sorted and unique.
        bounds = np.empty(total + 1, dtype=bool)
        bounds[0] = bounds[-1] = True
        np.not_equal(targets[1:], targets[:-1], out=bounds[1:-1])
        runs = np.flatnonzero(bounds)
        hit = targets[runs[:-1]]
        indeg[hit] -= runs[1:] - runs[:-1]
        frontier = hit[indeg[hit] == 0]
        lvl += 1
    return levels
