"""Command-line entry point: ``python -m repro.experiments [names...]``.

Running with no arguments regenerates every table and figure and prints the
text summary of each (this is the closest thing to re-running the paper).
On top of that the runtime offers:

``--fast``
    Reduced-scale versions (for smoke testing).
``--jobs N``
    Execute independent experiments across N worker processes.
``--cache-dir DIR`` / ``--no-cache``
    Memoise the expensive ``prepare`` stage (data synthesis + model
    fitting) on disk; a warm cache makes re-runs dramatically cheaper.
``--json`` / ``--results-dir DIR``
    Write a machine-readable ``results/<name>.json`` artifact per
    experiment (parameters, metrics, summary, timings).
``--run-dir DIR`` / ``--resume DIR`` / ``--retries N``
    Crash-resumable mode: track per-experiment state in a run manifest
    (``DIR/run_manifest.json``), retry failing tasks with exponential
    backoff, and on ``--resume`` re-run only unfinished work (completed
    experiments are replayed from their artifacts; one whose artifact is
    missing or edited runs again).  The artifacts go to ``DIR/results/``,
    or with ``--json`` to the ``--results-dir`` directory.
``--list`` / ``--tag TAG`` / ``--seed N``
    Inspect the registry, select experiments by tag, re-seed a run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.registry import (
    SPECS,
    available_experiments,
    available_tags,
    experiments_with_tag,
)
from repro.runtime.cache import PrepareCache
from repro.runtime.manifest import RunManifest
from repro.runtime.scheduler import run_experiments
from repro.runtime.spec import ExperimentResult

#: Default location of the prepare-stage cache (relative to the CWD).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Default location of the JSON artifacts written by ``--json``.
DEFAULT_RESULTS_DIR = "results"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figures of the paper.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        default=[],
        help="experiment identifiers (default: all); "
        f"available: {', '.join(available_experiments())}",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="run reduced-scale versions (for smoke testing)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent experiments (default: 1, sequential)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"prepare-stage cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the prepare-stage cache entirely",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="write a machine-readable JSON artifact per experiment",
    )
    parser.add_argument(
        "--results-dir",
        default=DEFAULT_RESULTS_DIR,
        metavar="DIR",
        help=f"artifact directory used by --json (default: {DEFAULT_RESULTS_DIR})",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="crash-resumable mode: per-experiment state in DIR/run_manifest.json, "
        "artifacts in DIR/results/ (with --json, in --results-dir)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume a killed --run-dir run, re-executing only unfinished work",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="per-task retry budget in --run-dir mode (default: 2)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list experiments (with tags and fast overrides) and exit",
    )
    parser.add_argument(
        "--tag",
        action="append",
        default=[],
        metavar="TAG",
        help="run only experiments carrying TAG (repeatable; combines with names)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override every selected experiment's seed",
    )
    return parser


def _list_experiments() -> None:
    for name in available_experiments():
        spec = SPECS[name]
        tags = ", ".join(spec.tags)
        print(f"{name:<18s} seed={spec.default_seed:<4d} [{tags}]")
        if spec.description:
            print(f"    {spec.description}")


def _select_names(args, parser: argparse.ArgumentParser) -> list[str]:
    names = list(dict.fromkeys(args.names))
    unknown = [n for n in names if n not in SPECS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    for tag in args.tag:
        if tag not in available_tags():
            parser.error(
                f"unknown tag {tag!r}; available: {', '.join(available_tags())}"
            )
        for name in experiments_with_tag(tag):
            if name not in names:
                names.append(name)
    return names or available_experiments()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_experiments:
        _list_experiments()
        return 0

    names = _select_names(args, parser)
    cache = None if args.no_cache else PrepareCache(args.cache_dir)
    overrides = {} if args.seed is None else {"seed": args.seed}
    results_dir = args.results_dir if args.json else None
    if args.resume is not None and args.run_dir is not None:
        parser.error("--resume already names the run directory; drop --run-dir")
    run_dir = args.resume if args.resume is not None else args.run_dir

    def printer(result: ExperimentResult) -> None:
        print("=" * 78)
        print(result.to_text())
        print(f"[{result.name} completed in {result.timings['total']:.1f} s]")
        print()

    # A resume replays finished experiments from their artifacts: only the
    # experiments this invocation runs (each run is an attempt) write one.
    attempts_before = {}
    if args.resume is not None and (Path(run_dir) / RunManifest.FILENAME).is_file():
        before = RunManifest.load(run_dir)
        attempts_before = {name: before.attempts(name) for name in before.task_ids}

    results = run_experiments(
        names,
        fast=args.fast,
        jobs=args.jobs,
        cache=cache,
        overrides=overrides,
        results_dir=results_dir,
        on_result=printer,
        run_dir=run_dir,
        resume=args.resume is not None,
        retries=args.retries if run_dir is not None else 0,
    )
    manifest = RunManifest.load(run_dir) if run_dir is not None else None
    if results_dir is not None:
        written = sum(
            manifest is None
            or manifest.attempts(result.name) > attempts_before.get(result.name, 0)
            for result in results
        )
        print(f"[wrote {written} artifact(s) to {results_dir}/]")
    if manifest is not None:
        counts = manifest.counts()
        print(
            f"[run manifest: {counts['done']} done, {counts['failed']} failed "
            f"({run_dir}/run_manifest.json)]"
        )
        if counts["failed"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
