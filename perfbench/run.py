"""Repo benchmark: four workloads, end-to-end metrics, and a traced layer split.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics, measured by wrapping the
``repro`` layers' public entry points (see ``tracing.py``), plus the
tracing overhead.  ``--smoke`` shrinks every workload's inputs for a quick
functional run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a human-readable report.

Set-up (imports, input generation, model fit, archive synthesis) is timed in
this process and in ``SETUP_SAMPLES - 1`` fresh interpreters started before
it; ``setup_s`` is their median.  Every time in the end-to-end metrics is
rescaled to a reference host speed (see ``stopwatch.py``); the report before
the JSON line also shows the raw seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
#: BLAS threads per run (at most nproc).  Two OpenBLAS threads make
#: Reliable/LDG's small Cholesky solves several times slower on a 2-CPU host
#: and much noisier, so the benchmark pins one.
BLAS_THREADS = "1"

#: The keys of ``workloads.WORKLOADS``, named here so that parsing the
#: arguments does not import the program before its set-up is timed.
WORKLOAD_NAMES = ("table1", "serving-fleet", "stream-session", "archive-sweep")
ALGORITHMS = ("ects", "relaxed_ects", "edsc_che", "edsc_kde", "reliable", "ldg")


def _pin_threads() -> None:
    for variable in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[variable] = BLAS_THREADS


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, quick run")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    """This process's VmHWM (reset by exec, unlike ``ru_maxrss`` after fork)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _setup(args, work: Path, tracer=None):
    """Import the program, build the workload's inputs.

    Returns (workload, raw seconds, rescaled seconds).  NumPy is imported
    before the clock starts, by the probe's module.
    """
    import stopwatch

    built = []

    def setup():
        import workloads

        if tracer is not None:
            import tracing

            installed = tracing.install(tracer)
        try:
            workload = workloads.WORKLOADS[args.workload]()
            workload.setup(args.seed, args.smoke, work)
        finally:
            if tracer is not None:
                tracing.uninstall(installed)
        built.append(workload)

    # Probes would land inside a traced set-up's spans.
    raw, scaled = stopwatch.timed_setup(setup, probing=tracer is None)
    return built[0], raw, scaled


def _setup_in_child(args) -> tuple[float, float]:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["raw_s"], result["setup_s"]


def _timed_pass(workload, probing: bool):
    import stopwatch

    # Every pass starts with an empty garbage collector, so the collections
    # inside it fall on the same operations in every pass.
    gc.collect()
    watch = stopwatch.Stopwatch(probing)
    result = workload.run_pass(watch)
    result.watch = watch
    return result


def _run_passes(workload, seconds: float, tracer=None) -> tuple[list, list]:
    """Run passes until ``seconds`` elapsed; returns (untraced, traced) passes.

    With a tracer, untraced and traced passes alternate, so a slow spell of
    the host affects both sides of ``trace.overhead_frac`` alike.  A traced
    run compares raw times, so its passes do not probe the host.
    """
    untraced, traced = [], []
    started = perf_counter()
    while True:
        untraced.append(_timed_pass(workload, probing=tracer is None))
        if tracer is not None:
            import tracing

            installed = tracing.install(tracer)
            try:
                traced.append(_timed_pass(workload, probing=False))
            finally:
                tracing.uninstall(installed)
        if perf_counter() - started >= seconds:
            return untraced, traced


def _lower_quartile(values) -> float:
    """The 25th percentile: the probes remove most of the host's drift but
    not every slow spell, and a spell only adds time."""
    import numpy as np

    return float(np.percentile(values, 25))


def _latency_percentiles_ms(per_pass: list[list[float]]) -> tuple[float, float]:
    """p50 and p95 over operations, each its lower quartile over the passes.

    Every pass runs the same operations in the same order, so operation
    ``i`` of one pass repeats operation ``i`` of the others.  Reducing each
    operation over the passes first keeps a slow spell of the host, which
    the probes do not always see, out of the tail.
    """
    import numpy as np

    per_operation = np.percentile(np.array(per_pass), 25, axis=0)
    p50, p95 = np.percentile(per_operation, [50, 95]) * 1000.0
    return float(p50), float(p95)


def end_to_end(passes, setup_samples: list[float]) -> dict:
    """End-to-end metrics of the untraced passes, in rescaled seconds.

    Every pass does the same work: ``wall_s`` is the lower quartile of the
    pass times and ``samples_per_s`` the matching throughput.
    """
    wall = _lower_quartile([run.watch.scaled_wall for run in passes])
    p50, p95 = _latency_percentiles_ms([run.watch.scaled_latencies for run in passes])
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "samples_per_s": (passes[0].samples / wall, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p95_ms": (p95, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def raw_times(passes, setup_raw: list[float]) -> dict:
    """The same times unscaled, for the text report."""
    p50, p95 = _latency_percentiles_ms([run.watch.latencies for run in passes])
    return {
        "setup_s": statistics.median(setup_raw),
        "wall_s": _lower_quartile([run.watch.wall for run in passes]),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
    }


def per_layer(tracer, setup_tracer, traced, untraced) -> dict:
    """Per-layer metrics, per traced pass (``data.generate_s`` adds set-up)."""
    n = len(traced)
    span = {name: seconds / n for name, seconds in tracer.inclusive.items()}
    calls = {name: count / n for name, count in tracer.calls.items()}
    count = {name: value / n for name, value in tracer.counts.items()}

    def extra(key, reduce=statistics.fmean):
        values = [run.extra[key] for run in traced if key in run.extra]
        return float(reduce(values)) if values else 0

    prefix_s = span.get("distance.prefix", 0.0)
    prefix_cells = count.get("distance.prefix_cells", 0.0)
    batch_calls = extra("batch_calls")
    enqueued = extra("candidates_enqueued")
    metrics = {
        "data.generate_s": (
            setup_tracer.inclusive.get("data.generate", 0.0) + span.get("data.generate", 0.0),
            "s",
        ),
        "data.shards.read_s": (span.get("data.shards.read", 0.0), "s"),
        "data.shards.bytes_read": (count.get("data.shards.bytes_read", 0), "bytes"),
        "znorm.s": (span.get("znorm", 0.0), "s"),
        "znorm.rows": (count.get("znorm.rows", 0), "count"),
        "znorm.causal_batch_s": (span.get("znorm.causal_batch", 0.0), "s"),
        "znorm.causal_batch_rows": (count.get("znorm.causal_batch_rows", 0), "count"),
        "distance.prefix_s": (prefix_s, "s"),
        "distance.prefix_calls": (calls.get("distance.prefix", 0), "count"),
        "distance.prefix_cells": (prefix_cells, "count"),
        "distance.prefix_cells_per_s": (prefix_cells / prefix_s if prefix_s else 0.0, "1/s"),
        "distance.sweep_advance_s": (span.get("distance.sweep_advance", 0.0), "s"),
        "distance.sweep_advances": (calls.get("distance.sweep_advance", 0), "count"),
    }
    for algorithm in ALGORITHMS:
        prefix = f"classifiers.{algorithm}"
        metrics[f"{prefix}.fit_s"] = (span.get(f"{prefix}.fit", 0.0), "s")
        metrics[f"{prefix}.predict_s"] = (count.get(f"{prefix}.predict_s", 0.0), "s")
        metrics[f"{prefix}.rows"] = (count.get(f"{prefix}.rows", 0), "count")
    for algorithm in ("reliable", "ldg"):
        name = f"classifiers.{algorithm}.partial_calls"
        metrics[name] = (count.get(name, 0), "count")
    metrics.update(
        {
            "classifiers.batch_s": (span.get("classifiers.batch", 0.0), "s"),
            "classifiers.batch_rows": (count.get("classifiers.batch_rows", 0), "count"),
            "classifiers.stream_feed_s": (span.get("classifiers.stream_feed", 0.0), "s"),
            "classifiers.stream_feeds": (calls.get("classifiers.stream_feed", 0), "count"),
            "streaming.extend_s": (span.get("streaming.extend", 0.0), "s"),
            "streaming.open_candidates_mean": (extra("open_candidates_mean"), "count"),
            "streaming.gate_confirms": (calls.get("streaming.gate", 0), "count"),
            "streaming.gate_s": (span.get("streaming.gate", 0.0), "s"),
            "serving.push_s": (span.get("serving.push", 0.0), "s"),
            "serving.push_calls": (calls.get("serving.push", 0), "count"),
            "serving.flush_s": (span.get("serving.flush", 0.0), "s"),
            "serving.evaluate_s": (span.get("serving.evaluate", 0.0), "s"),
            "serving.batch_calls": (batch_calls, "count"),
            "serving.batch_rows_mean": (
                extra("candidates_evaluated") / batch_calls if batch_calls else 0.0,
                "count",
            ),
            "serving.queue_depth_max": (extra("queue_depth_max", max), "count"),
            "serving.candidates_evaluated": (extra("candidates_evaluated"), "count"),
            "serving.candidates_discarded": (extra("candidates_discarded"), "count"),
            "serving.chunks_shed": (extra("chunks_shed"), "count"),
            "serving.useful_work_ratio": (
                extra("candidates_evaluated") / enqueued if enqueued else 0.0,
                "ratio",
            ),
            "runtime.tasks": (calls.get("runtime.task", 0), "count"),
            "runtime.retries": (
                count.get("runtime.attempts", 0) - calls.get("runtime.task", 0),
                "count",
            ),
            "runtime.task_s": (span.get("runtime.task", 0.0), "s"),
            "runtime.overhead_s": (
                span.get("runtime.sweep", 0.0) - span.get("runtime.task", 0.0),
                "s",
            ),
            "runtime.manifest_saves": (calls.get("runtime.manifest_save", 0), "count"),
            "runtime.manifest_save_s": (span.get("runtime.manifest_save", 0.0), "s"),
            "runtime.manifest_bytes": (count.get("runtime.manifest_bytes", 0), "bytes"),
        }
    )
    wall = statistics.fmean(run.watch.wall for run in traced)
    for layer, seconds in tracer.layer_self_seconds().items():
        metrics[f"layer.{layer}.self_s"] = (seconds / n, "s")
    metrics["layer.other.self_s"] = (wall - tracer.top_level / n, "s")
    untraced_wall = statistics.median(run.watch.wall for run in untraced)
    metrics["trace.overhead_frac"] = (
        (statistics.median(run.watch.wall for run in traced) - untraced_wall) / untraced_wall,
        "ratio",
    )
    return metrics


def _report(workload, metrics, raw, attempted, failed, problems, untraced, traced) -> None:
    print(f"workload {workload}")
    for name, (value, unit) in metrics.items():
        line = f"  {name:<36s} {value:>16.6g} {unit}"
        if name in raw:
            line = f"{line:<62s} raw {raw[name]:.6g} {unit}"
        print(line)
    print(f"  {'error_rate':<36s} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    if raw:
        print(
            f"  latencies: {len(untraced[0].watch.latencies)} timed operations per pass, "
            f"each the lower quartile of {len(untraced)} passes"
        )
    if traced:
        wall = statistics.fmean(run.watch.wall for run in traced)
        print("  layer self-time share of a traced pass:")
        for name, (value, _) in metrics.items():
            if name.startswith("layer."):
                print(f"    {name[6:-7]:<12s} {value / wall:>7.1%}")
    print("  checks: " + ("pass" if not problems else "FAIL"))
    for problem in problems[:20]:
        print(f"    {problem}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _main(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass


def _main(args, work: Path) -> int:
    if args.setup_only:
        _, raw, scaled = _setup(args, work)
        print(json.dumps({"raw_s": raw, "setup_s": scaled}))
        return 0
    # A traced run reports no setup_s, so it skips the extra set-ups.
    setups = [_setup_in_child(args) for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    tracer = setup_tracer = None
    if args.trace:
        import tracing

        tracer, setup_tracer = tracing.Tracer(), tracing.Tracer()
    workload, *setup_seconds = _setup(args, work, setup_tracer)
    setups.append(tuple(setup_seconds))

    untraced, traced = _run_passes(workload, args.seconds, tracer)
    passes = untraced + traced
    # Metrics first, so that peak_rss_mb leaves out the checks' references.
    if args.trace:
        metrics, raw = per_layer(tracer, setup_tracer, traced, untraced), {}
    else:
        metrics = end_to_end(untraced, [scaled for _, scaled in setups])
        raw = raw_times(untraced, [raw for raw, _ in setups])
    failed, problems = workload.check(passes)
    attempted = sum(run.ops for run in passes)
    _report(args.workload, metrics, raw, attempted, failed, problems, untraced, traced)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
