"""Experiment executor and crash-resumable work queue.

:func:`execute_spec` runs one experiment through its ``prepare`` /
``compute`` stages and renders the result, timing each and memoising
``prepare`` through an optional :class:`~repro.runtime.cache.PrepareCache`.

:func:`run_queue` is the one executor.  It drains a list of
:class:`QueueTask` objects in-process (``jobs <= 1``) or across a
:class:`concurrent.futures.ProcessPoolExecutor`: a task exception or a
SIGKILLed worker (``BrokenProcessPool``) is re-queued with exponential
backoff up to a bounded ``retries`` budget, and an exhausted task is
returned as a failure instead of raising.  Given a
:class:`~repro.runtime.manifest.RunManifest` it persists every state
transition (one line appended to the manifest's log) and skips tasks
already ``done``, which is what makes a run crash-resumable.

:func:`run_experiments` drains a batch of registered experiments through
:func:`run_queue`, one task each, in every mode.  Results reach
``on_result`` and the returned list in the requested order whatever order
they finish in, so sequential and parallel runs render identically.  With a
``run_dir`` the batch is tracked in a manifest, and ``resume=True`` recovers
finished experiments from their JSON artifacts instead of re-running them.
"""

from __future__ import annotations

import heapq
import itertools
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

    The one executor under both :func:`run_experiments` and
    :mod:`repro.runtime.sweep`.  Semantics:

    * Tasks whose ``manifest`` state is already ``done`` are skipped.
    * Each attempt transitions the manifest ``pending -> running`` before the
      work starts and to ``done`` / back to ``pending`` / ``failed`` after,
      each transition appended to the manifest's log before the next step
      -- a SIGKILL at any instant leaves a ledger a resumed run can trust
      (a record torn by the kill is ignored).
    * A failed attempt (task exception, or a worker death surfacing as
      :class:`BrokenProcessPool`) is re-queued with exponential backoff
      (``retry_backoff * 2**(attempt-1)`` seconds) until its ``retries``
      budget is exhausted, then recorded as a structured failure -- the
      exception does not escape the pool.
    * ``jobs > 1`` runs the tasks on at most ``jobs`` worker processes
      (never more than there are tasks to run).  On worker death the pool is
      rebuilt and every in-flight task of the dead pool is re-queued (their
      attempts count against the budget).
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

    order = itertools.count()  # tie-breaker: equal ready times pop in queue order
    ready_heap: list[tuple[float, int, str]] = []
    for task in tasks:
        if manifest is None or manifest.state(task.task_id) != "done":
            heapq.heappush(ready_heap, (0.0, next(order), task.task_id))

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
        # Record the attempt, then re-queue it with backoff or mark it failed.
        # A manifest's attempt count includes the runs this one resumes.
        if manifest is not None:
            manifest.record_error(task_id, error)
        used = manifest.attempts(task_id) if manifest is not None else attempts[task_id]
        if used <= retries:
            if manifest is not None:
                manifest.mark_pending(task_id)
            ready = time.monotonic() + retry_backoff * 2 ** max(0, used - 1)
            heapq.heappush(ready_heap, (ready, next(order), task_id))
        else:
            if manifest is not None:
                manifest.mark_failed(task_id)
            failed[task_id] = error

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

    workers = max(1, min(jobs, len(ready_heap)))
    pool = ProcessPoolExecutor(max_workers=workers)
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
        return ProcessPoolExecutor(max_workers=workers)

    try:
        while ready_heap or in_flight:
            now = time.monotonic()
            while ready_heap and ready_heap[0][0] <= now and len(in_flight) < workers:
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
    """Run a batch of experiments through :func:`run_queue`, one task each.

    Results are returned, and ``on_result`` is invoked, in the order of
    ``names`` whatever order they finish in: each result is handed over as
    soon as every experiment before it has finished, so sequential and
    parallel runs render identically.

    Parameters
    ----------
    names:
        Registry identifiers to run (unique).
    fast:
        Reduced-scale mode.
    jobs:
        Worker processes; ``<= 1`` runs everything in-process, where every
        task uses ``cache`` itself and keeps its ``raw`` result.  Results
        that cross the process boundary have ``raw=None``.
    cache:
        Prepare-stage cache shared by all runs (workers get a copy of it,
        which opens the same directory).
    overrides:
        Parameter overrides applied to every named experiment.
    results_dir:
        If given, write ``<results_dir>/<name>.json`` for every result.
        With a ``run_dir`` this defaults to ``<run_dir>/results``.
    on_result:
        Callback invoked with each result in input order (the CLI's
        incremental printer).
    run_dir:
        Track per-experiment state in ``<run_dir>/run_manifest.json``, write
        an artifact per result, retry task exceptions and worker deaths up
        to ``retries`` times, and record exhausted tasks as structured
        failures (omitted from the returned list) instead of raising.
        Without a ``run_dir``, the exception of the first failed experiment
        in input order is raised once every experiment has finished.
    resume:
        With ``run_dir``: reload an existing manifest and re-run only the
        work it cannot trust; finished experiments are recovered from their
        artifacts.
    retries / retry_backoff:
        Bounded per-task retry budget (which needs a ``run_dir``) and
        exponential-backoff base.
    """
    names = list(names)
    overrides = dict(overrides or {})
    manifest = None
    if run_dir is not None:
        run_dir = Path(run_dir)
        if results_dir is None:
            results_dir = run_dir / "results"
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
    elif retries:
        raise ValueError("retries require a run_dir (the manifest records attempts)")

    # Finished work is recovered, not re-run: the artifact is the result.
    finished: dict[str, ExperimentResult] = {}
    for name in names:
        if manifest is not None and manifest.state(name) == "done":
            artifact = manifest.entry(name)["artifact"]
            if artifact is not None:
                finished[name] = result_from_payload(load_artifact(run_dir / artifact))
    handed_over = 0

    def _hand_over_in_order() -> None:
        # Pass on every result whose predecessors have all finished; a
        # manifest's done or failed entry without a result is passed over.
        nonlocal handed_over
        while handed_over < len(names):
            name = names[handed_over]
            if name in finished:
                if on_result is not None:
                    on_result(finished[name])
            elif manifest is None or manifest.state(name) not in ("done", "failed"):
                return
            handed_over += 1

    def _finish(task: QueueTask, result: ExperimentResult) -> Path | None:
        path = write_artifact(result, results_dir) if results_dir is not None else None
        finished[task.task_id] = result
        _hand_over_in_order()
        return path

    _hand_over_in_order()
    kwargs = {"fast": fast, "overrides": overrides, "cache": cache, "keep_raw": jobs <= 1}
    _, failures = run_queue(
        [QueueTask(name, execute_spec, (name,), kwargs) for name in names],
        jobs=jobs,
        manifest=manifest,
        retries=retries,
        retry_backoff=retry_backoff,
        on_done=_finish,
    )
    if manifest is None and failures:
        raise failures[next(name for name in names if name in failures)]
    _hand_over_in_order()
    return [finished[name] for name in names if name in finished]
