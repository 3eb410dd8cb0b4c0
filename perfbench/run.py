"""Launcher: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; without it the launcher exits with code 2 and prints
no result.  BLAS/OpenMP pools are capped at one thread before NumPy loads,
so the load stays on the real backends' two workers.

Prints a human-readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
report (provenance, sample counts, derived values) and, for the traced
run, the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_CAPS:
        os.environ[var] = "1"
    # Keep git's repository search (provenance stamp) inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    t0 = time.perf_counter()
    import repro  # noqa: F401
    from perfbench import workloads

    import_s = time.perf_counter() - t0

    from perfbench import harness, report

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        payload = report.run(
            workloads.WORKLOADS[args.workload],
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            import_s=import_s,
            out_dir=OUT,
        )
    finally:
        # On every path out: no worker or resource tracker outlives the run.
        harness.reap()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
