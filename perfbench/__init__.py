"""End-to-end and per-layer benchmark of ``repro.parallelize(loop, spec=...)``.

Run from the repository root::

    python3 perfbench/run.py --workload trisolve-vectorized --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that wraps each layer's public
functions (:mod:`perfbench.spans`) and reports per-layer self times and the
program's own counters.  The last line of standard output is one JSON
object; the full report, stamped with provenance, is written under
``perfbench/out/``.
"""
