"""The true-dependence DAG of an irregular loop.

Nodes are iterations ``0..n-1``; there is an edge ``w → r`` for every unique
true dependence (iteration ``r`` reads an element written by ``w < r``).
Because every edge points forward in the original iteration order, the graph
is acyclic by construction and natural order is already topological — which
is why a forward sweep suffices for level computation.

Storage is CSR (two flat arrays), built vectorized from the analysis layer.
"""

from __future__ import annotations

import numpy as np

from repro.ir.analysis import dependence_pairs
from repro.ir.loop import IrregularLoop

__all__ = ["DependenceGraph"]


class DependenceGraph:
    """CSR adjacency of the true-dependence DAG.

    Attributes
    ----------
    n:
        Number of iterations (nodes).
    succ_ptr, succ:
        CSR successors: the readers depending on iteration ``w`` are
        ``succ[succ_ptr[w]:succ_ptr[w+1]]``.
    pred_ptr, pred:
        CSR predecessors: the writers iteration ``r`` depends on.
    """

    def __init__(self, n: int, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) and (
            edges.min() < 0 or edges.max() >= n or np.any(edges[:, 0] >= edges[:, 1])
        ):
            raise ValueError(
                "dependence edges must satisfy 0 <= writer < reader < n"
            )
        self.n = n
        self.edge_count = len(edges)

        writers, readers = edges[:, 0], edges[:, 1]
        # Successors grouped by writer, predecessors grouped by reader
        # (stable, so each group keeps the input order).
        self.succ_ptr = np.zeros(n + 1, dtype=np.int64)
        self.succ_ptr[1:] = np.cumsum(np.bincount(writers, minlength=n))
        self.succ = readers[np.argsort(writers, kind="stable")]
        self.pred_ptr = np.zeros(n + 1, dtype=np.int64)
        self.pred_ptr[1:] = np.cumsum(np.bincount(readers, minlength=n))
        self.pred = writers[np.argsort(readers, kind="stable")]

    @classmethod
    def from_loop(cls, loop: IrregularLoop) -> "DependenceGraph":
        return cls(loop.n, dependence_pairs(loop))

    def pairs(self) -> np.ndarray:
        """The edges as an ``(m, 2)`` array of ``(writer, reader)``, grouped
        by writer — for a graph built by :meth:`from_loop`, exactly
        :func:`~repro.ir.analysis.dependence_pairs` of the loop."""
        writers = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees())
        return np.stack([writers, self.succ], axis=1)

    def successors(self, w: int) -> np.ndarray:
        return self.succ[self.succ_ptr[w] : self.succ_ptr[w + 1]]

    def predecessors(self, r: int) -> np.ndarray:
        return self.pred[self.pred_ptr[r] : self.pred_ptr[r + 1]]

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.pred_ptr)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.succ_ptr)

    def sources(self) -> np.ndarray:
        """Iterations with no predecessors (runnable immediately)."""
        return np.nonzero(self.in_degrees() == 0)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DependenceGraph(n={self.n}, edges={self.edge_count})"
