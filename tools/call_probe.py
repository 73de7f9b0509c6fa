#!/usr/bin/env python
"""List the ``def``s under ``src/repro/`` that no entry point of the repository enters.

Every entry point a user runs is started in a temporary directory, under a
``sitecustomize.py`` hook that records each ``src/repro/`` code object a
process enters (``sys.setprofile`` and ``threading.setprofile``) and writes
them out at exit.  The hook keeps a reference to every code object it
records, because a freed object's ``id()`` can be reused.  Process-pool
workers skip ``atexit``, so everything runs with ``--jobs 1``.

The entry points:

* ``python -m repro.experiments``: ``--list``; every experiment at
  ``--fast`` and at full scale; ``--run-dir`` then ``--resume``; ``--tag``;
* every script in ``examples/``;
* ``python -m repro.serving``, cold and then warm from its model cache;
* ``python -m repro.runtime.sweep``: ``synth``, ``run``, ``run --resume``
  and ``run --dense --budget``;
* every ``BENCHMARK.json`` workload of ``perfbench/run.py`` with
  ``--smoke``, untraced and traced.

The recorded code objects are then diffed against every ``def`` that
``ast`` finds under ``src/repro/``.  A function's code object starts at its
first decorator's line, so a ``def`` is matched on that line.  The walk does
not descend into a ``def`` that was never entered, so its nested ``def``s are
not counted twice.  A ``def``'s lines run from its first decorator to its
last line.

Run via ``make call-probe`` (about a minute on a 2-CPU machine) or
directly: ``python tools/call_probe.py``.  Prints one line per unentered
``def`` and then their count and line total; exits non-zero if an entry
point fails, since its code would then read as unentered.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

HOOK = '''\
import atexit
import os
import sys
import threading

_PACKAGE = os.environ["CALL_PROBE_PACKAGE"]
_OUT = os.environ["CALL_PROBE_OUT"]
_entered = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _entered and code.co_filename.startswith(_PACKAGE):
            _entered[id(code)] = code


def _write():
    sys.setprofile(None)
    path = os.path.join(_OUT, "%d.txt" % os.getpid())
    with open(path, "a") as handle:
        for code in _entered.values():
            handle.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))


atexit.register(_write)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

def entry_points() -> list[list[str]]:
    """Every command the probe runs, as arguments to ``python``."""
    experiments = ["-m", "repro.experiments", "--jobs", "1"]
    sweep = ["-m", "repro.runtime.sweep"]
    run_sweep = [*sweep, "run", "archive", "--jobs", "1"]
    serving = ["-m", "repro.serving", "--cache-dir", "serving-cache"]
    commands = [
        [*experiments, "--list"],
        [*experiments, "--fast"],
        experiments,
        [*experiments, "--fast", "--json", "--run-dir", "run", "figure1", "figure7"],
        [*experiments, "--fast", "--json", "--resume", "run"],
        [*experiments, "--fast", "--tag", "ecg"],
        serving,
        serving,
        [*sweep, "synth", "archive", "--datasets", "12"],
        [*run_sweep, "--run-dir", "sweep"],
        [*run_sweep, "--run-dir", "sweep", "--resume"],
        [*run_sweep, "--run-dir", "dense", "--dense", "--budget", "1000000"],
    ]
    commands += [[str(path)] for path in sorted((REPO_ROOT / "examples").glob("*.py"))]
    perfbench = str(REPO_ROOT / "perfbench" / "run.py")
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in declared["workloads"]):
        for trace in ("0", "1"):
            commands.append(
                [perfbench, "--workload", workload, "--seconds", "1", "--trace", trace, "--smoke"]
            )
    return commands


def hook_env(work: pathlib.Path, package: pathlib.Path, path: list[str]) -> dict:
    """An environment whose Python processes record the code they enter in ``package``.

    The hook goes to ``work/hook/sitecustomize.py``, ahead of ``path`` on
    ``PYTHONPATH``; each process appends its records to ``work/entered/``.
    """
    hook_dir, out_dir = work / "hook", work / "entered"
    hook_dir.mkdir()
    out_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), *path] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["CALL_PROBE_PACKAGE"] = str(package) + os.sep
    env["CALL_PROBE_OUT"] = str(out_dir)
    return env


def read_entered(work: pathlib.Path) -> set[tuple[str, int]]:
    """The (file, first line) of every code object the hooked processes entered."""
    entered = set()
    for record in (work / "entered").iterdir():
        for line in record.read_text().splitlines():
            filename, lineno = line.rsplit("\t", 1)
            entered.add((filename, int(lineno)))
    return entered


def run_entry_points(work: pathlib.Path) -> tuple[set[tuple[str, int]], list[str]]:
    """Run every entry point under the hook; (entered (file, line) pairs, failures)."""
    env = hook_env(work, PACKAGE, [str(REPO_ROOT / "src")])
    failures = []
    for command in entry_points():
        done = subprocess.run(
            [sys.executable, *command],
            cwd=work,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
        print(f"[{status}] python {' '.join(command)}", file=sys.stderr, flush=True)
        if done.returncode != 0:
            failures.append(f"python {' '.join(command)}: exit {done.returncode}\n{done.stderr}")
    return read_entered(work), failures


def unentered_defs(
    entered: set[tuple[str, int]], package: pathlib.Path
) -> list[tuple[str, int, str, int]]:
    """(path, first line, qualified name, lines) of every ``def`` in ``package`` never entered."""
    found = []

    def walk(node: ast.AST, filename: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                if (filename, first) in entered:
                    walk(child, filename, f"{name}.")
                else:
                    found.append((filename, first, name, child.end_lineno - first + 1))
            elif isinstance(child, ast.ClassDef):
                walk(child, filename, f"{prefix}{child.name}.")
            else:
                walk(child, filename, prefix)

    for path in sorted(package.rglob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), str(path), "")
    return found


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="call-probe-") as tmp:
        entered, failures = run_entry_points(pathlib.Path(tmp))
    unentered = unentered_defs(entered, PACKAGE)
    for filename, first, name, lines in unentered:
        relative = pathlib.Path(filename).relative_to(REPO_ROOT)
        print(f"{relative}:{first}  {name}  ({lines} lines)")
    total = sum(lines for *_, lines in unentered)
    print(f"{len(unentered)} defs, {total} lines never entered")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
