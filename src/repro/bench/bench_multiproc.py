"""Multiprocessing-backend benchmark: the cross-backend wall-clock race.

The multiproc backend is the repo's answer to "what does the paper's
busy-wait protocol cost on real OS processes?" — so its benchmark is a
*race*: run the same ≥50k-iteration sparse triangular solve (the Table-1
substrate: ILU(0) of a five-point Laplacian, forward substitution)
through sequential, threaded, vectorized, and multiproc at a sweep of
worker counts and chunk sizes, and report wall clock side by side.

Every cell is checked bitwise against the sequential oracle.  The speed
assertion — multiproc beats threaded at 4 workers — is only made at full
problem size (``n >= 50_000``), where the threaded backend's per-element
``Event`` allocation and GIL thrash dominate; ``--small`` (the CI smoke
size) asserts correctness only, since at tiny ``n`` the worker-pool
spin-up can exceed the whole solve.

Multiproc rows carry both the *cold* wall (first run at that chunk size:
dependence analysis, the in-chunk order, the inspector and the workers'
term classification) and the *warm* wall (session and classification
caches hot — the amortized §3.1 regime); the recorded ``wall_seconds``
is the cold one, so the speed claim is conservative.  The worker pool
outlives runners and calls, so a cold run pays pool spin-up and
shared-memory session creation only when the pool is new: here, the
first chunk size of each worker count (the sweep closes each count's
pool when done), and in a long-lived process only after the pool has
closed itself when idle.

Run: ``python -m repro bench-multiproc [--small] [--json] [nx]``.  Every
run writes the machine-readable ``BENCH_multiproc.json`` (override with
``--out=``) carrying an observed multiproc run's full telemetry blob,
schema-checked in CI by ``python -m repro.bench.schema``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backends import MultiprocRunner, ThreadedRunner, VectorizedRunner
from repro.bench.reporting import format_table
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop

__all__ = [
    "MultiprocBenchResult",
    "run_bench_multiproc",
    "write_bench_json",
    "main",
]

#: Default artifact path (repo root in CI), sibling of BENCH_threaded.
BENCH_JSON = "BENCH_multiproc.json"

#: Chunk sizes swept per worker count, as divisors of ``n / workers``:
#: chunk = n // (workers * f) — from fine-grained (more pipelining,
#: more cross-chunk flags) to one block per worker (fewest waits).
_CHUNK_FACTORS = (16, 4, 1)


@dataclass
class MultiprocBenchResult:
    """One cross-backend race on the sparse forward-substitution loop."""

    nx: int
    ny: int
    n: int
    nnz: int
    threads: int
    sequential_seconds: float
    #: Flat rows: ``{"backend", "wall_seconds", "ok", ...}`` — multiproc
    #: rows add ``workers``, ``chunk``, and ``warm_seconds``.
    rows: list[dict] = field(default_factory=list)
    telemetry: dict | None = None

    @property
    def threaded_seconds(self) -> float:
        return next(
            r["wall_seconds"] for r in self.rows if r["backend"] == "threaded"
        )

    def multiproc_best(self, workers: int | None = None) -> dict | None:
        """Fastest multiproc row (cold wall), optionally at one worker
        count; ``None`` if no such row was measured."""
        rows = [
            r
            for r in self.rows
            if r["backend"] == "multiproc"
            and (workers is None or r["workers"] == workers)
        ]
        return min(rows, key=lambda r: r["wall_seconds"]) if rows else None

    @property
    def speedup_vs_threaded(self) -> float:
        """Cold-wall speedup of the best multiproc config over threaded."""
        best = self.multiproc_best()
        return self.threaded_seconds / best["wall_seconds"] if best else 0.0

    def check(self) -> None:
        """Correctness always; the speed claim only at full size."""
        bad = [r for r in self.rows if not r["ok"]]
        if bad:
            raise AssertionError(
                f"{len(bad)} run(s) diverged from the sequential oracle: "
                + ", ".join(r["backend"] for r in bad)
            )
        best4 = self.multiproc_best(workers=4)
        if self.n >= 50_000 and best4 is not None:
            if best4["wall_seconds"] >= self.threaded_seconds:
                raise AssertionError(
                    f"multiproc at 4 workers ({best4['wall_seconds']:.4f}s "
                    f"cold, chunk={best4['chunk']}) did not beat threaded "
                    f"({self.threaded_seconds:.4f}s) on n={self.n}"
                )

    def report(self) -> str:
        ms = 1e3
        body: list[tuple] = [
            ("sequential", "", "", self.sequential_seconds * ms, "", "oracle")
        ]
        for r in self.rows:
            body.append(
                (
                    r["backend"],
                    r.get("workers", ""),
                    r.get("chunk", ""),
                    r["wall_seconds"] * ms,
                    r["warm_seconds"] * ms if "warm_seconds" in r else "",
                    "ok" if r["ok"] else "DIVERGED",
                )
            )
        table = format_table(
            ["backend", "workers", "chunk", "cold (ms)", "warm (ms)", "check"],
            body,
            title=(
                f"multiproc benchmark — trisolve(ILU0(five_point("
                f"{self.nx}x{self.ny}))), n={self.n}, nnz={self.nnz}"
            ),
        )
        best = self.multiproc_best()
        tail = (
            f"\nbest multiproc: {best['workers']} workers, chunk="
            f"{best['chunk']} — {self.speedup_vs_threaded:.2f}x threaded"
            if best
            else ""
        )
        return table + tail

    def as_dict(self) -> dict:
        return {
            "nx": self.nx,
            "ny": self.ny,
            "n": self.n,
            "nnz": self.nnz,
            "threads": self.threads,
            "sequential_seconds": self.sequential_seconds,
            "speedup_vs_threaded": self.speedup_vs_threaded,
            "rows": self.rows,
        }


def _build_loop(nx: int, ny: int):
    A = five_point(nx, ny)
    L, _upper = ilu0(A)
    rhs = np.arange(1.0, A.n_rows + 1) / A.n_rows
    loop = lower_solve_loop(L, rhs, name=f"trisolve-{nx}x{ny}")
    return loop, L.nnz


def run_bench_multiproc(
    nx: int = 224,
    ny: int | None = None,
    *,
    threads: int = 4,
    worker_counts: tuple[int, ...] = (2, 4),
) -> MultiprocBenchResult:
    """Race the backends on forward substitution over ILU(0) of a
    ``nx x ny`` five-point Laplacian (224x224 -> n=50176, the smallest
    default clearing the ≥50k acceptance bar)."""
    ny = nx if ny is None else ny
    loop, nnz = _build_loop(nx, ny)
    n = loop.n

    t0 = time.perf_counter()
    reference = loop.run_sequential()
    sequential_seconds = time.perf_counter() - t0

    result = MultiprocBenchResult(
        nx=nx,
        ny=ny,
        n=n,
        nnz=nnz,
        threads=threads,
        sequential_seconds=sequential_seconds,
    )

    t0 = time.perf_counter()
    out = ThreadedRunner(threads=threads).run(loop)
    wall = time.perf_counter() - t0
    result.rows.append(
        {
            "backend": "threaded",
            "workers": threads,
            "wall_seconds": wall,
            "ok": bool(np.array_equal(out.y, reference)),
        }
    )

    t0 = time.perf_counter()
    out = VectorizedRunner().run(loop)
    wall = time.perf_counter() - t0
    result.rows.append(
        {
            "backend": "vectorized",
            "wall_seconds": wall,
            "ok": bool(np.array_equal(out.y, reference)),
        }
    )

    for workers in worker_counts:
        runner = MultiprocRunner(workers=workers)
        try:
            for factor in _CHUNK_FACTORS:
                chunk = max(1, n // (workers * factor))
                t0 = time.perf_counter()
                out = runner.run(loop, chunk=chunk)
                cold = time.perf_counter() - t0
                ok = bool(np.array_equal(out.y, reference))
                t0 = time.perf_counter()
                out = runner.run(loop, chunk=chunk)
                warm = time.perf_counter() - t0
                ok = ok and bool(np.array_equal(out.y, reference))
                result.rows.append(
                    {
                        "backend": "multiproc",
                        "workers": workers,
                        "chunk": chunk,
                        "wall_seconds": cold,
                        "warm_seconds": warm,
                        "ok": ok,
                    }
                )
        finally:
            runner.close()

    # One observed run for the artifact's telemetry blob (per-worker
    # compute/wait lanes, flag counters) — outside the timed race, since
    # span recording is not free.
    from repro.backends import make_runner
    from repro.passes.spec import PlanSpec

    observed = make_runner(
        spec=PlanSpec(
            backend="multiproc",
            processors=worker_counts[-1],
            observe=True,
        )
    )
    try:
        out = observed.run(loop)
        telemetry = out.telemetry
        assert telemetry is not None
        result.telemetry = telemetry.as_dict()
    finally:
        observed.inner.close()
    return result


def write_bench_json(
    result: MultiprocBenchResult, path: str | Path = BENCH_JSON
) -> Path:
    """Write the machine-readable artifact: flat ``records`` rows (the
    stable cross-PR schema shared with the other ``BENCH_*`` artifacts),
    the ``detail`` dict, and an observed run's ``telemetry`` blob."""
    path = Path(path)
    records = [
        {
            "n": result.n,
            "backend": "sequential",
            "wall_seconds": result.sequential_seconds,
        }
    ]
    for row in result.rows:
        record = {"n": result.n, **row}
        records.append(record)
    from repro.bench.registry import write_artifact

    payload = {
        "benchmark": "bench-multiproc",
        "records": records,
        "detail": result.as_dict(),
        "telemetry": result.telemetry,
    }
    return write_artifact(payload, path)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    small = "--small" in args
    as_json = "--json" in args
    out = BENCH_JSON
    for a in args:
        if a.startswith("--out="):
            out = a.split("=", 1)[1]
    numeric = [a for a in args if a.isdigit()]
    nx = int(numeric[0]) if numeric else (48 if small else 224)
    worker_counts = (2,) if small else (2, 4)
    result = run_bench_multiproc(nx, worker_counts=worker_counts)
    if as_json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result.report())
    written = write_bench_json(result, out)
    if not as_json:
        print(f"\nwrote {written}")
    result.check()
    if not as_json:
        print("\ncheck: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
