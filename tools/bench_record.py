"""Machine-readable benchmark records: one ``BENCH_<name>.json`` per module.

The benchmark harness used to leave its numbers in pytest's terminal output
only, so tracking a speedup across commits meant scraping logs.  This module
gives every ``benchmarks/test_bench_<name>.py`` module one JSON record under
``results/bench/`` (gitignored, like every generated artefact) carrying

* per-test wall-clock durations and outcomes (captured automatically by the
  benchmark ``conftest.py`` hooks -- no per-benchmark code needed);
* any explicit metrics a benchmark reports through its ``bench_metrics``
  fixture (speedups, component wall times, pruning rates, ...);
* provenance: git SHA and the Python, platform and NumPy versions.

Run as a script to summarise whatever records exist::

    python tools/bench_record.py [results/bench]
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["BenchRecorder", "git_sha", "load_records", "main"]

#: Default location of the records, relative to the invocation directory
#: (the repo root for every Make target); ``results/`` is gitignored.
DEFAULT_OUT_DIR = Path("results") / "bench"


def git_sha(repo_root: Path | str | None = None) -> str | None:
    """The current git commit SHA, or ``None`` outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=repo_root,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _environment() -> dict:
    """Provenance block shared by every record of one session."""
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        pass
    return env


class BenchRecorder:
    """Accumulates per-benchmark results and writes one JSON file per module.

    ``bench_name`` is the module stem minus the ``test_bench_`` prefix
    (``test_bench_dtw_prune.py`` -> ``BENCH_dtw_prune.json``).  Durations and
    outcomes arrive from the pytest report hooks; explicit metrics from the
    ``bench_metrics`` fixture.  Nothing touches disk until :meth:`write`, so
    a crashed session leaves no half-written records.
    """

    def __init__(self, out_dir: Path | str | None = None) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else DEFAULT_OUT_DIR
        self._benchmarks: dict[str, dict] = {}

    def _tests_for(self, bench_name: str) -> dict:
        record = self._benchmarks.setdefault(bench_name, {"tests": {}})
        return record["tests"]

    def record_test(
        self, bench_name: str, test_name: str, outcome: str, seconds: float
    ) -> None:
        """Record one test's pytest outcome and wall-clock duration."""
        entry = self._tests_for(bench_name).setdefault(test_name, {})
        entry["outcome"] = outcome
        entry["seconds"] = round(float(seconds), 6)

    def record_metrics(self, bench_name: str, test_name: str, metrics: dict) -> None:
        """Merge a benchmark's explicitly reported metrics into its record."""
        entry = self._tests_for(bench_name).setdefault(test_name, {})
        entry.setdefault("metrics", {}).update(metrics)

    def write(self) -> list[Path]:
        """Write one ``BENCH_<name>.json`` per recorded module; return the paths."""
        if not self._benchmarks:
            return []
        self.out_dir.mkdir(parents=True, exist_ok=True)
        stamp = {
            "generated_unix": int(time.time()),
            "git_sha": git_sha(),
            **_environment(),
        }
        written = []
        for name, record in sorted(self._benchmarks.items()):
            path = self.out_dir / f"BENCH_{name}.json"
            payload = {"benchmark": name, **stamp, **record}
            path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
            written.append(path)
        return written


def load_records(out_dir: Path | str = DEFAULT_OUT_DIR) -> list[dict]:
    """Parse every ``BENCH_*.json`` under ``out_dir`` (sorted by name)."""
    directory = Path(out_dir)
    records = []
    for path in sorted(directory.glob("BENCH_*.json")):
        records.append(json.loads(path.read_text()))
    return records


def main(argv: list[str] | None = None) -> int:
    """Print a one-line-per-test summary of the recorded benchmarks."""
    args = sys.argv[1:] if argv is None else argv
    out_dir = Path(args[0]) if args else DEFAULT_OUT_DIR
    records = load_records(out_dir)
    if not records:
        print(f"no BENCH_*.json records under {out_dir}")
        return 1
    for record in records:
        print(f"{record['benchmark']}  (sha {str(record.get('git_sha'))[:12]})")
        for test_name, entry in sorted(record.get("tests", {}).items()):
            line = (
                f"  {test_name}: {entry.get('outcome', '?')} "
                f"in {entry.get('seconds', float('nan')):.3f}s"
            )
            metrics = entry.get("metrics") or {}
            if metrics:
                rendered = ", ".join(
                    f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
                    for key, value in sorted(metrics.items())
                )
                line += f"  [{rendered}]"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
