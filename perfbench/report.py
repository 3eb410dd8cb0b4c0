"""Runs one workload and reports it: human-readable lines, the provenance-
stamped report file, and the result object the launcher prints last."""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf.history import run_metadata

from perfbench import harness, metrics, spans
from perfbench.workloads import Workload


def run(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    out_dir: Path,
) -> dict:
    measure = harness.traced_run if trace else harness.timed_run
    session, values, details, recorded = measure(workload, seed, seconds, import_s)
    bench = metrics.load()
    table = bench["per_layer" if trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}[workload.name]
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    meta = dict(
        run_metadata(cwd=out_dir.parent.parent),
        workload=workload.name,
        why=why,
        spec=repr(workload.spec),
        seed=seed,
        seconds=seconds,
        inputs=session.sizes,
    )
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in table
        },
    }

    print(f"# {workload.name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# spec={workload.spec!r}")
    print(f"# inputs={json.dumps(meta['inputs'])} git_sha={meta['git_sha']}")
    for m in table:
        name = m["name"]
        line = f"{name:32s} {values[name]:>16.6g} {m['unit']}"
        if trace:
            moves, on = metrics.MAPPING[name]
            line += f"    moves {moves} on {on}"
        print(line)
    for key, value in details.items():
        if key != "samples_ms":
            print(f"{key:32s} {value}")
    print(f"{'attempted':32s} {session.attempted}  failed {session.failed}")

    out_dir.mkdir(parents=True, exist_ok=True)
    report = dict(result, meta=meta, details=details, failures=session.failures)
    if trace:
        report["mapping"] = {
            name: {"moves": moves, "on": on}
            for name, (moves, on) in metrics.MAPPING.items()
        }
        spans.write_jsonl(recorded, out_dir / f"{stem}.spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    return result
