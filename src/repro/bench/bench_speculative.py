"""Speculative-backend benchmark: the conflict-density crossover.

The speculative backend is the optimistic dual of the paper's
inspector: it synchronizes no cross-chunk dependence, executes every
chunk of a round in one batched wavefront sweep (each chunk against its
own in-chunk dependences only), and pays for conflicts after the fact
with rollbacks.  Its
benchmark is therefore a *frontier sweep*, not a single race: the
:func:`~repro.workloads.synthetic.conflict_frontier_loop` workload
dials the fraction of conflicting chunk boundaries from 0 (a DOALL)
to 1 (a dense chunk-granular chain), and every point is raced against
the two inspector paths — threaded (runtime inspector + post/wait
flags) and vectorized (runtime inspector + wavefront batches) — plus
the sequential oracle.

Both sides of the crossover are gated at full size:

- **speculation wins where inspection is pessimism**: on the
  zero/low-conflict frontier points the speculative wall beats the
  threaded inspector path (no per-element sync), and
  the recorded counters prove why (``rounds == 1``, zero rollbacks);
- **speculation loses where conflicts are dense**: on the
  ``fraction=1.0`` frontier every round commits one chunk and the
  retry budget drains into the sequential fallback — the vectorized
  inspector path wins by orders of magnitude — and on the true
  distance-1 ``chain_loop`` the discarded rounds make speculation
  slower than simply running the loop sequentially.

``--small`` (the CI smoke size) asserts correctness and the
*deterministic* side of the story only (round/rollback/fallback
counters); wall-clock ordering is asserted at full size, where the
margins are 5x+.

Run: ``python -m repro bench-speculative [--small] [--json] [n]``.
Every run writes ``BENCH_speculative.json`` (override with ``--out=``)
carrying an observed speculative run's full telemetry blob — including
the ``speculation_rounds`` / ``chunks_conflicted`` /
``chunks_rolled_back`` counters — schema-checked in CI by
``python -m repro.bench.schema``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backends import SpeculativeRunner, ThreadedRunner, VectorizedRunner
from repro.bench.reporting import format_table
from repro.workloads.synthetic import chain_loop, conflict_frontier_loop

__all__ = [
    "SpeculativeBenchResult",
    "run_bench_speculative",
    "write_bench_json",
    "main",
]

#: Default artifact path (repo root in CI), sibling of BENCH_multiproc.
BENCH_JSON = "BENCH_speculative.json"

#: Conflicting-boundary fractions swept on the frontier workload.
_FRACTIONS = (0.0, 0.25, 0.5, 1.0)


@dataclass
class SpeculativeBenchResult:
    """One conflict-density sweep of speculation vs the inspector paths."""

    n: int
    chunk: int
    workers: int
    #: Flat rows: ``{"workload", "backend", "wall_seconds", "ok", ...}``
    #: — speculative rows add the ``speculation`` counter block.
    rows: list[dict] = field(default_factory=list)
    telemetry: dict | None = None

    def row(self, workload: str, backend: str) -> dict | None:
        for r in self.rows:
            if r["workload"] == workload and r["backend"] == backend:
                return r
        return None

    def _wall(self, workload: str, backend: str) -> float:
        row = self.row(workload, backend)
        assert row is not None, f"no {backend} row for {workload}"
        return row["wall_seconds"]

    def check(self) -> None:
        """Correctness and counters always; wall ordering at full size.

        The deterministic gates pin both sides of the crossover without
        touching a clock: a conflict-free frontier must commit in one
        round with zero rollbacks, and the dense frontier/chain must
        drain the retry budget into the sequential fallback.  The
        wall-clock gates (full size only, where margins are 5x+) then
        assert the *consequences*: speculation beats the threaded
        inspector path at low conflict density and loses to the
        vectorized inspector path / the sequential oracle when every
        chunk conflicts.
        """
        bad = [r for r in self.rows if not r["ok"]]
        if bad:
            raise AssertionError(
                f"{len(bad)} run(s) diverged from the sequential oracle: "
                + ", ".join(f"{r['backend']}@{r['workload']}" for r in bad)
            )

        clean = self.row("frontier-p0.0", "speculative")["speculation"]
        if clean["rounds"] != 1 or clean["chunks_rolled_back"]:
            raise AssertionError(
                f"conflict-free frontier should commit in one round with "
                f"no rollbacks, got {clean}"
            )
        for workload in ("frontier-p1.0", "chain-d1"):
            dense = self.row(workload, "speculative")["speculation"]
            if not dense["sequential_fallback"]:
                raise AssertionError(
                    f"{workload} should drain the retry budget into the "
                    f"sequential fallback, got {dense}"
                )
        partial = self.row("frontier-p0.5", "speculative")["speculation"]
        if not partial["chunks_rolled_back"]:
            raise AssertionError(
                f"frontier-p0.5 should roll chunks back, got {partial}"
            )

        if self.n < 20_000:
            return
        for workload in ("frontier-p0.0", "frontier-p0.25"):
            spec = self._wall(workload, "speculative")
            threaded = self._wall(workload, "threaded")
            if spec >= threaded:
                raise AssertionError(
                    f"speculation ({spec:.4f}s) did not beat the threaded "
                    f"inspector path ({threaded:.4f}s) on {workload}"
                )
        spec = self._wall("frontier-p1.0", "speculative")
        vectorized = self._wall("frontier-p1.0", "vectorized")
        if spec <= vectorized:
            raise AssertionError(
                f"speculation ({spec:.4f}s) should lose to the vectorized "
                f"inspector path ({vectorized:.4f}s) on the dense frontier"
            )
        spec = self._wall("chain-d1", "speculative")
        sequential = self._wall("chain-d1", "sequential")
        if spec <= sequential:
            raise AssertionError(
                f"speculation ({spec:.4f}s) should lose to the sequential "
                f"oracle ({sequential:.4f}s) on the distance-1 chain"
            )

    def report(self) -> str:
        ms = 1e3
        body: list[tuple] = []
        for r in self.rows:
            spec = r.get("speculation") or {}
            body.append(
                (
                    r["workload"],
                    r["backend"],
                    r["wall_seconds"] * ms,
                    spec.get("rounds", ""),
                    spec.get("chunks_rolled_back", ""),
                    "yes" if spec.get("sequential_fallback") else "",
                    "ok" if r["ok"] else "DIVERGED",
                )
            )
        return format_table(
            [
                "workload",
                "backend",
                "wall (ms)",
                "rounds",
                "rolled back",
                "fallback",
                "check",
            ],
            body,
            title=(
                f"speculative benchmark — conflict-density frontier, "
                f"n={self.n}, chunk={self.chunk}, workers={self.workers}"
            ),
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "chunk": self.chunk,
            "workers": self.workers,
            "rows": self.rows,
        }


def _workloads(n: int, chunk: int) -> dict:
    loops = {
        f"frontier-p{p}": conflict_frontier_loop(n, chunk, p)
        for p in _FRACTIONS
    }
    loops["chain-d1"] = chain_loop(n, 1)
    return loops


def run_bench_speculative(
    n: int = 20_000,
    *,
    chunk: int | None = None,
    workers: int = 4,
    repeats: int = 3,
) -> SpeculativeBenchResult:
    """Sweep conflict density and race speculation against inspection.

    Each (workload, backend) cell records the best of ``repeats`` runs
    (the standard defense against scheduler noise on loaded CI boxes);
    correctness is checked on every repeat.
    """
    chunk = max(1, n // 16) if chunk is None else chunk
    result = SpeculativeBenchResult(n=n, chunk=chunk, workers=workers)
    runners = {
        "speculative": SpeculativeRunner(workers=workers, chunk=chunk),
        "threaded": ThreadedRunner(threads=workers),
        "vectorized": VectorizedRunner(),
    }
    for workload, loop in _workloads(n, chunk).items():
        t0 = time.perf_counter()
        reference = loop.run_sequential()
        result.rows.append(
            {
                "workload": workload,
                "backend": "sequential",
                "n": loop.n,
                "wall_seconds": time.perf_counter() - t0,
                "ok": True,
            }
        )
        for backend, runner in runners.items():
            best = None
            ok = True
            out = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                out = runner.run(loop)
                wall = time.perf_counter() - t0
                ok = ok and bool(np.array_equal(out.y, reference))
                best = wall if best is None else min(best, wall)
            row = {
                "workload": workload,
                "backend": backend,
                "n": loop.n,
                "wall_seconds": best,
                "ok": ok,
            }
            if backend == "speculative":
                row["speculation"] = out.extras["speculation"]
            result.rows.append(row)

    # One observed run on the half-conflicting frontier for the
    # artifact's telemetry blob — the point with both commits and
    # rollbacks, so the speculation_rounds / chunks_conflicted /
    # chunks_rolled_back counters are all non-trivial.  Outside the
    # timed race: span recording is not free.
    from repro.backends import make_runner
    from repro.passes.spec import PlanSpec

    observed = make_runner(
        spec=PlanSpec(
            backend="speculative", processors=workers, observe=True
        )
    )
    out = observed.run(
        conflict_frontier_loop(n, chunk, 0.5), chunk=chunk
    )
    assert out.telemetry is not None
    result.telemetry = out.telemetry.as_dict()
    return result


def write_bench_json(
    result: SpeculativeBenchResult, path: str | Path = BENCH_JSON
) -> Path:
    """Write the machine-readable artifact: flat ``records`` rows (the
    stable cross-PR schema shared with the other ``BENCH_*`` artifacts),
    the ``detail`` dict, and an observed run's ``telemetry`` blob."""
    from repro.bench.registry import write_artifact

    payload = {
        "benchmark": "bench-speculative",
        "records": result.rows,
        "detail": result.as_dict(),
        "telemetry": result.telemetry,
    }
    return write_artifact(payload, Path(path))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    small = "--small" in args
    as_json = "--json" in args
    out = BENCH_JSON
    for a in args:
        if a.startswith("--out="):
            out = a.split("=", 1)[1]
    numeric = [a for a in args if a.isdigit()]
    n = int(numeric[0]) if numeric else (2_000 if small else 20_000)
    result = run_bench_speculative(n, repeats=1 if small else 3)
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
