"""Smoke-run every workload and check its metric names against BENCHMARK.json.

For each workload in ``BENCHMARK.json`` this runs ``perfbench/run.py`` with
``--smoke`` (small inputs) once untraced and once traced, and checks that

* the run exits 0 and its output checks pass;
* the untraced metrics are exactly the ``end_to_end`` names, and the traced
  metrics exactly the ``per_layer`` names, each with the declared unit.

Run from the repository root::

    python3 perfbench/check_names.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(spec: dict, workload: str, trace: int) -> dict:
    command = spec["command"] + [
        "--workload", workload,
        "--seed", "0",
        "--seconds", "1",
        "--trace", str(trace),
        "--smoke",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            result = _run(spec, workload, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: output checks failed")
            for name in sorted(declared.keys() - printed.keys()):
                problems.append(f"{label}: {name} declared but not printed")
            for name in sorted(printed.keys() - declared.keys()):
                problems.append(f"{label}: {name} printed but not declared")
            for name in sorted(declared.keys() & printed.keys()):
                if declared[name] != printed[name]:
                    problems.append(
                        f"{label}: {name} unit {printed[name]!r} != declared {declared[name]!r}"
                    )
            print(f"{label}: {len(printed)} metrics", flush=True)
    for problem in problems:
        print(problem)
    print("metric names match BENCHMARK.json" if not problems else "MISMATCH")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
