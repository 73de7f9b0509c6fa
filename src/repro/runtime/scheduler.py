"""Experiment executor and process-parallel scheduler.

:func:`execute_spec` runs one experiment through its ``prepare`` /
``compute`` stages and renders the result, timing each and memoising
``prepare`` through an optional :class:`~repro.runtime.cache.PrepareCache`.

:func:`run_experiments` runs a batch.  With ``jobs <= 1`` it executes
in-process and in order -- the exact code path the golden ``--fast`` output
is pinned to.  With ``jobs > 1`` independent experiments are fanned out
across a :class:`concurrent.futures.ProcessPoolExecutor`; each worker
resolves the spec by name from the registry (specs travel as names, results
travel back stripped of their unpicklable/raw payload), and the parent
re-orders completed results to the requested order so output stays
deterministic regardless of completion order.

On top of that fire-and-forget mode sits a **persistent work queue**
(:func:`run_queue`): give :func:`run_experiments` a ``run_dir`` and every
experiment becomes a task in a crash-resumable
:class:`~repro.runtime.manifest.RunManifest` -- state transitions persisted
atomically, a SIGKILLed worker (``BrokenProcessPool``) or an ordinary task
exception re-queued with exponential backoff up to a bounded ``retries``
budget, exhausted tasks recorded as structured failures instead of an
exception escaping the pool, and ``resume=True`` re-running only unfinished
work (completed experiments are reconstructed from their JSON artifacts,
and their prepare stages stay warm in the :class:`PrepareCache`).
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.runtime.artifacts import (
    load_artifact,
    result_from_payload,
    write_artifact,
)
from repro.runtime.cache import PrepareCache, UncacheableParams
from repro.runtime.manifest import RunManifest
from repro.runtime.spec import ExperimentResult, ExperimentSpec

__all__ = ["QueueTask", "execute_spec", "run_experiments", "run_queue"]


def _resolve_spec(spec_or_name: ExperimentSpec | str) -> ExperimentSpec:
    if isinstance(spec_or_name, ExperimentSpec):
        return spec_or_name
    # Imported lazily: the registry imports runtime.spec, so a module-level
    # import here would be circular.
    from repro.experiments.registry import get_spec

    return get_spec(spec_or_name)


def _cached_prepare(
    spec: ExperimentSpec,
    params: Mapping[str, Any],
    cache: PrepareCache | None,
) -> tuple[Any, bool]:
    """Run (or recall) the prepare stage; returns ``(prepared, cache_hit)``."""
    if cache is None:
        return spec.call_prepare(params), False
    try:
        key = cache.key(spec.name, spec.stage_params("prepare", params))
    except UncacheableParams:
        # A non-canonical parameter (e.g. a classifier instance) makes the
        # run unaddressable; fall back to computing without the cache.
        cache.stats.skips += 1
        return spec.call_prepare(params), False
    value = cache.load(spec.name, key)
    if not cache.is_miss(value):
        return value, True
    prepared = spec.call_prepare(params)
    cache.store(spec.name, key, prepared)
    return prepared, False


def execute_spec(
    spec_or_name: ExperimentSpec | str,
    *,
    fast: bool = False,
    overrides: Mapping[str, Any] | None = None,
    cache: PrepareCache | None = None,
    keep_raw: bool = True,
) -> ExperimentResult:
    """Run one experiment through its stages and return a structured result.

    Parameters
    ----------
    spec_or_name:
        An :class:`ExperimentSpec` or a registry identifier.
    fast:
        Apply the spec's fast overrides (reduced workload).
    overrides:
        Explicit parameter overrides; unknown names raise ``TypeError``.
    cache:
        Optional prepare-stage cache.
    keep_raw:
        Keep the module's own result dataclass on the returned
        :class:`ExperimentResult` (set ``False`` across process boundaries).
    """
    spec = _resolve_spec(spec_or_name)
    params = spec.resolve_params(fast=fast, overrides=overrides)

    started = time.perf_counter()
    prepared, cache_hit = _cached_prepare(spec, params, cache)
    after_prepare = time.perf_counter()
    result = spec.call_compute(prepared, params)
    after_compute = time.perf_counter()
    summary = result.to_text()
    metrics = spec.call_metrics(result)
    finished = time.perf_counter()

    return ExperimentResult(
        name=spec.name,
        parameters=params,
        seed=spec.seed_of(params),
        metrics=metrics,
        summary=summary,
        timings={
            "prepare": after_prepare - started,
            "compute": after_compute - after_prepare,
            "render": finished - after_compute,
            "total": finished - started,
        },
        cache_hit=cache_hit,
        raw=result if keep_raw else None,
    )


def _execute_named(
    name: str,
    fast: bool,
    overrides: dict[str, Any] | None,
    cache_dir: str | None,
) -> ExperimentResult:
    """Worker entry point: resolve by name, run, strip the raw payload."""
    cache = PrepareCache(cache_dir) if cache_dir else None
    return execute_spec(
        name, fast=fast, overrides=overrides, cache=cache, keep_raw=False
    )


@dataclass
class QueueTask:
    """One unit of work for :func:`run_queue`.

    ``fn`` must be a module-level callable (workers receive it by pickle when
    ``jobs > 1``); ``task_id`` is the manifest key, unique within the run.
    """

    task_id: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


def _queue_failure(
    task_id: str,
    error: BaseException,
    *,
    manifest: RunManifest | None,
    attempts: dict[str, int],
    retries: int,
    retry_backoff: float,
    ready_heap: list,
    counter: list[int],
    failed: dict[str, BaseException],
) -> None:
    """Record one attempt's failure; re-queue with backoff or mark failed."""
    if manifest is not None:
        manifest.record_error(task_id, error)
    used = manifest.attempts(task_id) if manifest is not None else attempts[task_id]
    if used <= retries:
        delay = retry_backoff * (2 ** max(0, used - 1))
        if manifest is not None:
            manifest.mark_pending(task_id)
        counter[0] += 1
        heapq.heappush(ready_heap, (time.monotonic() + delay, counter[0], task_id))
    else:
        if manifest is not None:
            manifest.mark_failed(task_id)
        failed[task_id] = error


def run_queue(
    tasks: Sequence[QueueTask],
    *,
    jobs: int = 1,
    manifest: RunManifest | None = None,
    retries: int = 0,
    retry_backoff: float = 0.5,
    on_done: Callable[[QueueTask, Any], str | Path | None] | None = None,
) -> tuple[dict[str, Any], dict[str, BaseException]]:
    """Drain a task queue with retries, worker-death recovery and a manifest.

    The generic core under both manifest-mode :func:`run_experiments` and
    :mod:`repro.runtime.sweep`.  Semantics:

    * Tasks whose ``manifest`` state is already ``done`` are skipped.
    * Each attempt transitions the manifest ``pending -> running`` before the
      work starts and to ``done`` / back to ``pending`` / ``failed`` after,
      each transition persisted atomically -- a SIGKILL at any instant
      leaves a ledger a resumed run can trust.
    * A failed attempt (task exception, or a worker death surfacing as
      :class:`BrokenProcessPool`) is re-queued with exponential backoff
      (``retry_backoff * 2**(attempt-1)`` seconds) until its ``retries``
      budget is exhausted, then recorded as a structured failure -- the
      exception does not escape the pool.
    * On worker death the pool is rebuilt and every in-flight task of the
      dead pool is re-queued (their attempts count against the budget).
    * ``on_done`` runs in the parent after each success; its return value
      (an artifact path, or ``None``) is recorded in the manifest with a
      content hash.

    Returns ``(results, failures)`` keyed by ``task_id``.
    """
    tasks = list(tasks)
    ids = [task.task_id for task in tasks]
    if len(set(ids)) != len(ids):
        raise ValueError("task ids must be unique")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    by_id = {task.task_id: task for task in tasks}
    attempts = {task.task_id: 0 for task in tasks}
    results: dict[str, Any] = {}
    failed: dict[str, BaseException] = {}

    counter = [0]  # tie-breaker so the heap never compares task ids' tasks
    ready_heap: list[tuple[float, int, str]] = []
    for task in tasks:
        if manifest is not None and manifest.state(task.task_id) == "done":
            continue
        counter[0] += 1
        heapq.heappush(ready_heap, (0.0, counter[0], task.task_id))

    def _start(task_id: str) -> None:
        if manifest is not None:
            manifest.mark_running(task_id)
        attempts[task_id] += 1

    def _success(task_id: str, value: Any) -> None:
        artifact = on_done(by_id[task_id], value) if on_done is not None else None
        if manifest is not None:
            manifest.mark_done(task_id, artifact=artifact)
        results[task_id] = value

    def _failure(task_id: str, error: BaseException) -> None:
        _queue_failure(
            task_id,
            error,
            manifest=manifest,
            attempts=attempts,
            retries=retries,
            retry_backoff=retry_backoff,
            ready_heap=ready_heap,
            counter=counter,
            failed=failed,
        )

    if jobs <= 1:
        while ready_heap:
            ready, _, task_id = heapq.heappop(ready_heap)
            now = time.monotonic()
            if ready > now:
                time.sleep(ready - now)
            _start(task_id)
            task = by_id[task_id]
            try:
                value = task.fn(*task.args, **task.kwargs)
            except Exception as error:
                _failure(task_id, error)
            else:
                _success(task_id, value)
        return results, failed

    pool = ProcessPoolExecutor(max_workers=jobs)
    in_flight: dict[Any, str] = {}

    def _drain_and_rebuild(dead_pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        # A dead worker poisons the whole pool: every in-flight future is
        # doomed.  Re-queue them all and start fresh.
        for future, task_id in list(in_flight.items()):
            error = future.exception(timeout=60) or BrokenProcessPool(
                "worker process died"
            )
            _failure(task_id, error)
        in_flight.clear()
        dead_pool.shutdown(wait=False, cancel_futures=True)
        return ProcessPoolExecutor(max_workers=jobs)

    try:
        while ready_heap or in_flight:
            now = time.monotonic()
            while ready_heap and ready_heap[0][0] <= now and len(in_flight) < jobs:
                _, _, task_id = heapq.heappop(ready_heap)
                _start(task_id)
                task = by_id[task_id]
                try:
                    future = pool.submit(task.fn, *task.args, **task.kwargs)
                except BrokenProcessPool as error:
                    # A worker that died between batches surfaces here, at
                    # submit time, before wait() ever sees a failed future.
                    _failure(task_id, error)
                    pool = _drain_and_rebuild(pool)
                    continue
                in_flight[future] = task_id
            if not in_flight:
                # Everything queued is backing off; sleep until the earliest.
                time.sleep(min(0.5, max(0.0, ready_heap[0][0] - time.monotonic())) or 0.01)
                continue
            done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED, timeout=0.1)
            broken = False
            for future in done:
                task_id = in_flight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool as error:
                    broken = True
                    _failure(task_id, error)
                except Exception as error:
                    _failure(task_id, error)
                else:
                    _success(task_id, value)
            if broken:
                pool = _drain_and_rebuild(pool)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return results, failed


def run_experiments(
    names: Sequence[str],
    *,
    fast: bool = False,
    jobs: int = 1,
    cache: PrepareCache | None = None,
    overrides: Mapping[str, Any] | None = None,
    results_dir: str | Path | None = None,
    on_result: Callable[[ExperimentResult], None] | None = None,
    run_dir: str | Path | None = None,
    resume: bool = False,
    retries: int = 0,
    retry_backoff: float = 0.5,
) -> list[ExperimentResult]:
    """Run a batch of experiments, optionally across worker processes.

    Results are returned (and ``on_result`` is invoked) in the order of
    ``names`` regardless of which worker finishes first, so sequential and
    parallel runs render identically.

    Parameters
    ----------
    names:
        Registry identifiers to run.
    fast:
        Reduced-scale mode.
    jobs:
        Worker processes; ``<= 1`` runs everything in-process.
    cache:
        Prepare-stage cache shared by all runs (workers re-open it by path).
    overrides:
        Parameter overrides applied to every named experiment.
    results_dir:
        If given, write ``<results_dir>/<name>.json`` for every result.
        In manifest mode this defaults to ``<run_dir>/results``.
    on_result:
        Callback invoked with each result in input order (the CLI's
        incremental printer).
    run_dir:
        Switch to persistent work-queue mode: per-experiment state tracked
        in ``<run_dir>/run_manifest.json``, an artifact written per result,
        worker deaths and task exceptions retried up to ``retries`` times,
        exhausted tasks recorded as structured failures (and omitted from
        the returned list) instead of raising.
    resume:
        With ``run_dir``: reload an existing manifest and re-run only
        unfinished work; completed experiments are reconstructed from their
        artifacts.
    retries / retry_backoff:
        Bounded per-task retry budget and exponential-backoff base (manifest
        mode only).
    """
    names = list(names)
    overrides = dict(overrides or {})
    results: list[ExperimentResult]

    if run_dir is not None:
        return _run_experiments_queued(
            names,
            fast=fast,
            jobs=jobs,
            cache=cache,
            overrides=overrides,
            results_dir=results_dir,
            on_result=on_result,
            run_dir=Path(run_dir),
            resume=resume,
            retries=retries,
            retry_backoff=retry_backoff,
        )
    if retries:
        raise ValueError("retries require a run_dir (the manifest records attempts)")

    if jobs <= 1 or len(names) <= 1:
        results = []
        for name in names:
            result = execute_spec(name, fast=fast, overrides=overrides, cache=cache)
            if results_dir is not None:
                write_artifact(result, results_dir)
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results

    cache_dir = str(cache.root) if cache is not None else None
    max_workers = min(jobs, len(names))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            pool.submit(_execute_named, name, fast, overrides or None, cache_dir)
            for name in names
        ]
        results = []
        for future in futures:  # input order, not completion order
            result = future.result()
            if results_dir is not None:
                write_artifact(result, results_dir)
            if on_result is not None:
                on_result(result)
            results.append(result)
    return results


def _run_experiments_queued(
    names: list[str],
    *,
    fast: bool,
    jobs: int,
    cache: PrepareCache | None,
    overrides: dict[str, Any],
    results_dir: str | Path | None,
    on_result: Callable[[ExperimentResult], None] | None,
    run_dir: Path,
    resume: bool,
    retries: int,
    retry_backoff: float,
) -> list[ExperimentResult]:
    """Manifest-backed work-queue mode of :func:`run_experiments`."""
    artifacts_dir = Path(results_dir) if results_dir is not None else run_dir / "results"
    manifest = RunManifest.open_or_create(
        run_dir,
        names,
        resume=resume,
        metadata={
            "kind": "experiments",
            "fast": bool(fast),
            "overrides": {key: repr(value) for key, value in sorted(overrides.items())},
        },
    )

    # Completed work is *recovered*, not re-run: the artifact is the result.
    recovered: dict[str, ExperimentResult] = {}
    for name in names:
        if manifest.state(name) != "done":
            continue
        entry = manifest.entry(name)
        path = (
            run_dir / entry["artifact"]
            if entry["artifact"]
            else artifacts_dir / f"{name}.json"
        )
        if path.is_file():
            recovered[name] = result_from_payload(load_artifact(path))
        else:
            manifest.mark_pending(name)  # artifact lost: redo the work

    cache_dir = str(cache.root) if cache is not None else None
    tasks = [
        QueueTask(name, _execute_named, (name, fast, overrides or None, cache_dir))
        for name in names
        if manifest.state(name) != "done"
    ]

    def _persist(task: QueueTask, result: ExperimentResult) -> Path:
        return write_artifact(result, artifacts_dir)

    computed, _failed = run_queue(
        tasks,
        jobs=jobs,
        manifest=manifest,
        retries=retries,
        retry_backoff=retry_backoff,
        on_done=_persist,
    )

    results = []
    for name in names:
        result = recovered.get(name) or computed.get(name)
        if result is None:
            continue  # failed: the structured record lives in the manifest
        if on_result is not None:
            on_result(result)
        results.append(result)
    return results
