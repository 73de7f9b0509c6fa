"""Smoke test for ``python -m repro.serving``, including its warm reload.

The CLI runs in a fresh interpreter, as a reader would run it.  A second run
against the same ``--cache-dir`` must reload every tenant's model instead of
refitting it, and report the same alarms.
"""

import os
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_serving(cache_dir: pathlib.Path, cwd: pathlib.Path) -> str:
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.serving",
            "--tenants", "2", "--streams", "5", "--samples", "200",
            "--cache-dir", str(cache_dir),
        ],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_second_run_reloads_warm_with_the_same_alarms(tmp_path):
    cache_dir = tmp_path / "cache"
    first = _run_serving(cache_dir, tmp_path)
    second = _run_serving(cache_dir, tmp_path)

    for tenant in ("tenant-0", "tenant-1"):
        assert re.search(rf"^{tenant}: fitted \(", first, re.MULTILINE), first
        assert re.search(rf"^{tenant}: warm \(", second, re.MULTILINE), second

    def alarms_line(stdout: str) -> str:
        (line,) = [line for line in stdout.splitlines() if line.startswith("alarms emitted:")]
        return line

    assert alarms_line(first) == alarms_line(second)
    assert "streams: 10 finalized, 0 shed" in first
