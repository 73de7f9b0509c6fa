"""Tests for the call probe (``tools/call_probe.py``).

The probe's verdict rests on two pieces: the ``sitecustomize.py`` hook must
record every code object a process enters, at the line the code object
starts, and the ``ast`` walk must match each ``def`` on that line, count an
unentered ``def`` once with its nested ``def``s, and search an entered one
for unentered ``def``s inside it.  The entry-point list must keep up with
the examples and the benchmark workloads.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "tools"))

import call_probe  # noqa: E402

MODULE = textwrap.dedent(
    """\
    def decorate(fn):
        return fn


    @decorate
    def called():
        def inner():
            return 1

        def never_inner():
            return 2

        return inner()


    @decorate
    @decorate
    def never(flag):
        def nested():
            return flag

        return nested


    def in_thread():
        return 3


    class Box:
        @property
        def value(self):
            return 4

        def unused(self):
            return 5

        class Inner:
            def deep(self):
                return 6
    """
)

SCRIPT = """\
import threading
import probed.mod as mod
mod.called()
mod.Box().value
thread = threading.Thread(target=mod.in_thread)
thread.start()
thread.join()
"""


def _package(tmp_path):
    package = tmp_path / "src" / "probed"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    return package


def _line(source: str, text: str) -> int:
    """1-based line number of the first line of ``source`` that starts with ``text``."""
    for number, line in enumerate(source.splitlines(), start=1):
        if line.strip().startswith(text):
            return number
    raise AssertionError(text)


def _names(unentered):
    return [name for _, _, name, _ in unentered]


def test_hook_records_entered_code_at_its_first_line(tmp_path):
    package = _package(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    env = call_probe.hook_env(work, package, [str(tmp_path / "src")])
    subprocess.run([sys.executable, "-c", SCRIPT], cwd=work, env=env, check=True)

    filename = str(package / "mod.py")
    entered = {line for name, line in call_probe.read_entered(work) if name == filename}
    # A decorated def's code object starts at its first decorator's line.
    assert _line(MODULE, "@decorate") in entered
    assert _line(MODULE, "def called") not in entered
    for text in ("def inner", "def in_thread", "def decorate"):
        assert _line(MODULE, text) in entered, text
    assert _line(MODULE, "@property") in entered
    for text in ("def never_inner", "def unused", "def deep"):
        assert _line(MODULE, text) not in entered, text


def test_probe_of_a_run_lists_exactly_the_unentered_defs(tmp_path):
    package = _package(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    env = call_probe.hook_env(work, package, [str(tmp_path / "src")])
    subprocess.run([sys.executable, "-c", SCRIPT], cwd=work, env=env, check=True)

    unentered = call_probe.unentered_defs(call_probe.read_entered(work), package)
    assert _names(unentered) == [
        "called.never_inner",
        "never",
        "Box.unused",
        "Box.Inner.deep",
    ]


def test_unentered_def_counts_once_from_its_first_decorator(tmp_path):
    package = _package(tmp_path)
    unentered = call_probe.unentered_defs(set(), package)
    names = _names(unentered)
    # Nested defs of an unentered def are inside its line span, not listed.
    for nested in ("called.inner", "called.never_inner", "never.nested"):
        assert nested not in names
    (never,) = [entry for entry in unentered if entry[2] == "never"]
    _, first, _, lines = never
    # Two decorator lines above ``def never``; the span ends at its last line.
    assert first == _line(MODULE, "def never(") - 2
    assert lines == _line(MODULE, "return nested") - first + 1


def test_entered_def_is_searched_for_unentered_defs_inside_it(tmp_path):
    package = _package(tmp_path)
    filename = str(package / "mod.py")
    called = _line(MODULE, "@decorate")
    entered = {(filename, called), (filename, _line(MODULE, "def inner"))}
    names = _names(call_probe.unentered_defs(entered, package))
    assert "called" not in names
    assert "called.inner" not in names
    assert "called.never_inner" in names


def test_entry_points_run_every_example_and_benchmark_workload():
    commands = [" ".join(command) for command in call_probe.entry_points()]
    for example in sorted((_REPO_ROOT / "examples").glob("*.py")):
        assert str(example) in commands
    declared = json.loads((_REPO_ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in declared["workloads"]):
        for trace in ("0", "1"):
            assert any(
                f"--workload {workload} " in command and f"--trace {trace}" in command
                for command in commands
            ), (workload, trace)


def test_entry_points_run_every_experiment_at_both_scales_in_process():
    commands = call_probe.entry_points()
    experiments = [c for c in commands if c[:2] == ["-m", "repro.experiments"]]
    # No names and no --tag: every experiment runs, at --fast and at full scale.
    everything = [c for c in experiments if not any(a in c for a in ("--tag", "--list"))]
    assert ["-m", "repro.experiments", "--jobs", "1"] in everything
    assert ["-m", "repro.experiments", "--jobs", "1", "--fast"] in everything
    # Process-pool workers skip atexit, so nothing may run with more than one job.
    runs = experiments + [c for c in commands if c[:3] == ["-m", "repro.runtime.sweep", "run"]]
    for command in runs:
        assert command[command.index("--jobs") + 1] == "1", command
