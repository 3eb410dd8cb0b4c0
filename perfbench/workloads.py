"""The benchmark's workloads: seeded inputs built with the program's own
constructors, and the fixed :class:`~repro.passes.PlanSpec` each runs.

``trisolve-vectorized`` solves with the ILU(0) lower factor of the 224x224
five-point operator (n = 50,176 rows), over a pool of right-hand sides
drawn from the seed: one dependence structure, many loop instances, as in
the paper's Figure-3 amortization.  ``trisolve-speculative`` and
``trisolve-multiproc`` run the same solve on the 112x112 operator
(n = 12,544 rows) on two workers: their executors are 10-30x slower per
row, and the smaller grid keeps enough calls inside one run.
``figure6-sim`` is the paper's Figure-4 loop at the odd-L overhead plateau
of Figure 6, with seeded coefficients and initial values (its structure,
and so its cycle counts, do not depend on the seed).

Each workload's reason is its ``why`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro import IrregularLoop, PlanSpec, make_test_loop
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop

#: Loop instances per workload; warm calls cycle through them.
POOL = 8

#: Grid side of the five-point operator: the vectorized executor's rows
#: are cheap, the chunked executors' are not.
TRISOLVE_GRID = 224
CHUNKED_GRID = 112
FIGURE6 = {"n": 10_000, "m": 5, "l": 7}


@dataclass
class Inputs:
    loops: list[IrregularLoop]
    sizes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: PlanSpec
    build: Callable[[int], Inputs]


def build_trisolve(seed: int, grid: int = TRISOLVE_GRID) -> Inputs:
    A = five_point(grid, grid)
    L, _U = ilu0(A)
    rng = np.random.default_rng(seed)
    loops = [
        lower_solve_loop(L, rng.standard_normal(A.n_rows), name=f"trisolve-rhs{k}")
        for k in range(POOL)
    ]
    return Inputs(
        loops,
        {"n": A.n_rows, "reads": int(loops[0].reads.index.size), "nnz": L.nnz},
    )


def build_figure6(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    m = FIGURE6["m"]
    loops = [
        make_test_loop(
            **FIGURE6,
            # sum(val) < 1/2 keeps every recurrence bounded.
            val=rng.uniform(0.02, 0.1, size=m),
            y0_value=float(rng.uniform(0.5, 2.0)),
        )
        for _ in range(POOL)
    ]
    reads = int(loops[0].reads.index.size)
    return Inputs(loops, {"n": FIGURE6["n"], "reads": reads, "nnz": reads})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trisolve-vectorized", PlanSpec(backend="vectorized"), build_trisolve),
        Workload(
            "trisolve-speculative",
            PlanSpec(backend="speculative", processors=2),
            partial(build_trisolve, grid=CHUNKED_GRID),
        ),
        Workload(
            "trisolve-multiproc",
            PlanSpec(backend="multiproc", processors=2),
            partial(build_trisolve, grid=CHUNKED_GRID),
        ),
        Workload(
            "figure6-sim", PlanSpec(backend="simulated", processors=16), build_figure6
        ),
    )
}
