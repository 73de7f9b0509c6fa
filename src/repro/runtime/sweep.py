"""Fleet-scale, crash-resumable sweeps over sharded dataset archives.

Where :mod:`repro.runtime.scheduler` runs the paper's registered experiments,
this module runs the *archive-scale* workload the out-of-core machinery
exists for: one task per sharded dataset directory
(:mod:`repro.data.shards`), each opening its dataset lazily, fitting a
full-length 1-NN Euclidean classifier on the first shard and scoring the
remaining shards through the budget-capped
:func:`~repro.distance.engine.batch_prefix_distances` kernel.  The task also
scores honestly re-z-normalised prefixes at a few cuts: each cut is its own
distance problem, and its training side is z-normalised once per dataset,
not once per eval shard.  Every task
drops its memmap references on exit, so a sequential sweep's peak RSS tracks
*one dataset's working set*, not the archive -- the property the
``benchmarks/test_bench_sweep.py`` gate pins against a hard cap that the
dense loader (``loader="dense"``: materialise every dataset up front)
provably violates.

Runs live in a run directory with a
:class:`~repro.runtime.manifest.RunManifest`: kill the process at any point
and ``--resume`` re-executes only unfinished datasets, leaving completed
artifacts byte-untouched.

Command line::

    python -m repro.runtime.sweep synth ARCHIVE_DIR --datasets 120
    python -m repro.runtime.sweep run ARCHIVE_DIR --run-dir RUN_DIR [--resume]

``run`` prints a one-line JSON summary (task counts, mean accuracy, peak
RSS) to stdout -- the machine-readable contract the sweep benchmark parses.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["main", "run_sweep", "sweep_one_dataset"]


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process (and its children), in bytes.

    Prefers ``/proc/self/status`` ``VmHWM`` where available: unlike
    ``ru_maxrss`` it is reset by ``execve``, so a process spawned from a
    large parent reports *its own* high-water mark rather than inheriting
    the parent's pre-exec footprint through fork's copy-on-write pages.
    """
    self_peak = 0
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    self_peak = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # non-POSIX: report what we have (possibly 0)
        return self_peak
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    unit = 1 if sys.platform == "darwin" else 1024
    if not self_peak:
        self_peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * unit
    children = int(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) * unit
    return max(self_peak, children)


#: Prefix grid of the per-task earliness curve: each fraction of the series
#: length is scored as an honestly *re-z-normalised* prefix (the paper's
#: Section-4 point -- a deployment only ever sees the prefix, so its
#: normalisation statistics must come from the prefix alone).
PREFIX_FRACTIONS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


def sweep_one_dataset(
    dataset_dir: str | Path,
    *,
    prefix_fractions=PREFIX_FRACTIONS,
) -> dict:
    """Score one sharded dataset: full-length 1-NN plus an earliness curve.

    Shard 0 is the training set; every remaining shard is scored against it
    in budget-bounded batches (a single-shard dataset is split down the
    middle instead; :func:`_train_rows` is the split).  Two measurements per
    dataset:

    * ``accuracy`` -- full-length Euclidean 1-NN over every eval row (the
      headline number, identical to the dense loader's scoring).
    * ``prefix_accuracies`` -- 1-NN accuracy at each ``prefix_fractions``
      cut, with both train and query prefixes re-z-normalised per cut.
      Honest renormalisation means each prefix is an independent distance
      problem (the shared-cumsum trick does not apply), which is exactly
      the per-dataset compute profile of a real ETSC sweep.  The training
      cuts do not depend on the eval shard, so each is z-normalised once
      per dataset; the query cuts are z-normalised per eval shard.

    Only memmap views are touched, and nothing outlives the call, so the
    task's RSS contribution is transient.  Returns a JSON-able record (this
    is a :func:`repro.runtime.scheduler.run_queue` task function, so it must
    stay importable and picklable).
    """
    from repro.data.shards import ShardedDataset
    from repro.distance.engine import batch_prefix_distances
    from repro.distance.znorm import znormalize

    started = time.perf_counter()
    dataset = ShardedDataset.open(dataset_dir)
    length = dataset.series_length
    n_train = _train_rows(dataset)
    if dataset.n_shards > 1:
        train_series = dataset.shard_series(0)
        train_labels = dataset.shard_labels(0)
        eval_shards = range(1, dataset.n_shards)
        eval_of = dataset.shard_series, dataset.shard_labels
    else:
        whole_series = dataset.shard_series(0)
        whole_labels = dataset.shard_labels(0)
        train_series, train_labels = whole_series[:n_train], whole_labels[:n_train]
        eval_shards = range(1)
        eval_of = (
            (lambda _i: whole_series[n_train:]),
            (lambda _i: whole_labels[n_train:]),
        )

    cuts = sorted({max(2, int(round(length * f))) for f in prefix_fractions})
    train_labels = np.asarray(train_labels)
    # Honest prefixes: renormalise with prefix-only statistics, so each cut
    # is an independent full distance problem.  The training side of a cut
    # is the same for every eval shard, so normalise it once here.
    train_cuts = [znormalize(np.asarray(train_series[:, :cut])) for cut in cuts]
    correct = 0
    total = 0
    prefix_correct = {cut: 0 for cut in cuts}
    for index in eval_shards:
        queries = eval_of[0](index)
        eval_labels = np.asarray(eval_of[1](index))
        if queries.shape[0] == 0:
            continue
        # batch_prefix_distances returns (n_lengths, n_queries, n_train).
        distances = batch_prefix_distances(queries, train_series, [length])[0]
        predicted = train_labels[np.argmin(distances, axis=1)]
        correct += int(np.sum(predicted == eval_labels))
        total += int(queries.shape[0])
        for cut, train_cut in zip(cuts, train_cuts):
            query_cut = znormalize(np.asarray(queries[:, :cut]))
            cut_distances = batch_prefix_distances(query_cut, train_cut, [cut])[0]
            cut_predicted = train_labels[np.argmin(cut_distances, axis=1)]
            prefix_correct[cut] += int(np.sum(cut_predicted == eval_labels))

    return {
        "dataset": dataset.name,
        "dataset_dir": str(dataset_dir),
        "n_exemplars": dataset.n_exemplars,
        "series_length": length,
        "n_shards": dataset.n_shards,
        "n_train": n_train,
        "n_eval": total,
        "accuracy": (correct / total) if total else None,
        "prefix_accuracies": {
            str(cut): (prefix_correct[cut] / total) if total else None
            for cut in cuts
        },
        "elapsed_seconds": time.perf_counter() - started,
    }


def _train_rows(dataset) -> int:
    """The sweep's split: how many leading rows of a dataset it trains on.

    Shard 0 of a multi-shard :class:`~repro.data.shards.ShardedDataset`, or
    the first half of a single shard.  It is read from the shard manifest,
    so the dense loader takes the same split before it materialises the
    dataset.
    """
    if dataset.n_shards > 1:
        return dataset.shard_rows(0)
    return max(1, dataset.n_exemplars // 2)


def _score_materialized(dataset, n_train: int) -> dict:
    """The dense-path equivalent of :func:`sweep_one_dataset`'s ``accuracy``.

    Trains on the first ``n_train`` rows (:func:`_train_rows`) and scores
    the rest, the rows the sharded task trains on and scores.
    """
    from repro.distance.engine import batch_prefix_distances

    length = dataset.series_length
    train_series, train_labels = dataset.series[:n_train], dataset.labels[:n_train]
    queries, labels = dataset.series[n_train:], dataset.labels[n_train:]
    distances = batch_prefix_distances(queries, train_series, [length])[0]
    predicted = train_labels[np.argmin(distances, axis=1)]
    return {
        "dataset": dataset.name,
        "n_train": int(n_train),
        "n_eval": int(queries.shape[0]),
        "accuracy": float(np.mean(predicted == labels)) if queries.shape[0] else None,
    }


def run_sweep(
    dataset_dirs,
    run_dir: str | Path,
    *,
    jobs: int = 1,
    resume: bool = False,
    retries: int = 2,
    retry_backoff: float = 0.5,
    loader: str = "sharded",
) -> dict:
    """Sweep every dataset directory through a crash-resumable work queue.

    Parameters
    ----------
    dataset_dirs:
        Sharded dataset directories (each a :func:`repro.data.shards.write_shards`
        output).
    run_dir:
        Manifest + per-dataset artifact directory; re-use with
        ``resume=True`` to continue a killed run.
    jobs / retries / retry_backoff:
        Work-queue knobs (see :func:`repro.runtime.scheduler.run_queue`).
    loader:
        ``"sharded"`` (lazy, budget-bounded -- the default) or ``"dense"``:
        materialise **every** dataset up front and keep it resident for the
        whole run.  The dense loader exists as the negative control for the
        RSS-cap benchmark; it requires ``jobs <= 1``.

    Returns the run summary (also written to ``<run_dir>/summary.json``).
    """
    from repro.runtime.manifest import RunManifest
    from repro.runtime.scheduler import QueueTask, run_queue

    dataset_dirs = [Path(d) for d in dataset_dirs]
    if not dataset_dirs:
        raise ValueError("need at least one dataset directory")
    if loader not in ("sharded", "dense"):
        raise ValueError(f"unknown loader {loader!r}")
    run_dir = Path(run_dir)
    artifacts_dir = run_dir / "artifacts"
    started = time.perf_counter()

    task_ids = [d.name for d in dataset_dirs]
    manifest = RunManifest.open_or_create(
        run_dir,
        task_ids,
        resume=resume,
        metadata={"kind": "sweep", "loader": loader, "n_datasets": len(dataset_dirs)},
    )

    if loader == "dense":
        if jobs > 1:
            raise ValueError("the dense loader is in-process only (jobs <= 1)")
        from repro.data.shards import ShardedDataset

        # The RSS cliff, on purpose: every dataset materialised and held.
        # The split comes from the shard manifest, as in the sharded task.
        opened = [ShardedDataset.open(d) for d in dataset_dirs]
        tasks = [
            QueueTask(
                task_id,
                _score_materialized,
                (dataset.materialize(), _train_rows(dataset)),
            )
            for task_id, dataset in zip(task_ids, opened)
        ]
    else:
        tasks = [
            QueueTask(d.name, sweep_one_dataset, (str(d),)) for d in dataset_dirs
        ]

    def _persist(task: QueueTask, payload: dict) -> Path:
        artifacts_dir.mkdir(parents=True, exist_ok=True)
        path = artifacts_dir / f"{task.task_id}.json"
        tmp = artifacts_dir / f".{task.task_id}.tmp"
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
        return path

    results, failures = run_queue(
        tasks,
        jobs=jobs,
        manifest=manifest,
        retries=retries,
        retry_backoff=retry_backoff,
        on_done=_persist,
    )

    counts = manifest.counts()
    accuracies = []
    for task_id in task_ids:
        entry = manifest.entry(task_id)
        if entry["state"] == "done" and entry["artifact"]:
            payload = json.loads((run_dir / entry["artifact"]).read_text())
            if payload.get("accuracy") is not None:
                accuracies.append(float(payload["accuracy"]))
    summary = {
        "loader": loader,
        "n_tasks": len(task_ids),
        "done": counts["done"],
        "failed": counts["failed"],
        "executed": len(results),
        "skipped": counts["done"] - len(results),
        "mean_accuracy": float(np.mean(accuracies)) if accuracies else None,
        "elapsed_seconds": time.perf_counter() - started,
        "peak_rss_bytes": _peak_rss_bytes(),
        "failures": {
            task_id: type(error).__name__ for task_id, error in failures.items()
        },
    }
    tmp = run_dir / ".summary.tmp"
    tmp.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    tmp.replace(run_dir / "summary.json")
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.sweep",
        description="Synthesize and sweep sharded dataset archives.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="write a synthetic sharded archive")
    synth.add_argument("archive", help="directory to create the archive in")
    synth.add_argument("--datasets", type=int, default=100, metavar="N")
    synth.add_argument("--per-class", type=int, default=40, metavar="K")
    synth.add_argument("--length", type=int, default=256, metavar="L")
    synth.add_argument("--seed", type=int, default=0, metavar="S")

    run = commands.add_parser("run", help="sweep an archive through a run dir")
    run.add_argument("archive", help="archive directory (one subdir per dataset)")
    run.add_argument("--run-dir", required=True, metavar="DIR")
    run.add_argument("--jobs", type=int, default=1, metavar="N")
    run.add_argument("--resume", action="store_true")
    run.add_argument("--retries", type=int, default=2, metavar="R")
    run.add_argument(
        "--dense",
        action="store_true",
        help="materialise every dataset up front (RSS negative control)",
    )
    run.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="process-wide memory budget (repro.memory.set_memory_budget)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "synth":
        from repro.data.shards import synthesize_sharded_archive

        directories = synthesize_sharded_archive(
            args.archive,
            args.datasets,
            n_exemplars_per_class=args.per_class,
            length=args.length,
            seed=args.seed,
        )
        print(json.dumps({"archive": args.archive, "datasets": len(directories)}))
        return 0

    if args.budget is not None:
        from repro.memory import set_memory_budget

        set_memory_budget(args.budget)
    archive = Path(args.archive)
    dataset_dirs = sorted(
        d for d in archive.iterdir() if (d / "manifest.json").is_file()
    )
    summary = run_sweep(
        dataset_dirs,
        args.run_dir,
        jobs=args.jobs,
        resume=args.resume,
        retries=args.retries,
        loader="dense" if args.dense else "sharded",
    )
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
