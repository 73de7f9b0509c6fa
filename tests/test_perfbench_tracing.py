"""Tripwire for the benchmark tracer's hand-kept list of ``repro`` entry points.

``perfbench/tracing.py`` wraps about 40 ``repro`` functions and methods by
name, reading each method from its class's own ``__dict__``.  A refactor
that drops or moves one of them makes every traced benchmark run fail with
a ``KeyError``.  This test installs and uninstalls the tracer in a fresh
interpreter, so such a break shows up in the unit suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls():
    script = "import tracing\ntracing.uninstall(tracing.install(tracing.Tracer()))\n"
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
