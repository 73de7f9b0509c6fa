"""Tests for crash-resumable runs: manifest, work queue, sweeps, resume."""

from __future__ import annotations

import json
import os
import signal

import numpy as np
import pytest

from repro.data.shards import ShardedDataset, synthesize_sharded_archive
from repro.runtime.manifest import RunManifest, file_sha256
from repro.runtime.scheduler import QueueTask, run_experiments, run_queue
from repro.runtime.sweep import PREFIX_FRACTIONS, run_sweep, sweep_one_dataset

#: Cheap registry experiment reused from the scheduler tests.
CHEAP = "figure1"
CHEAP_OVERRIDES = {"n_per_class": 4}


# --------------------------------------------------------------------------
# Module-level task functions: the pool pickles them by qualified name.
def _double(x):
    return x * 2


def _boom(message="boom"):
    raise RuntimeError(message)


def _flaky(counter_path, succeed_on):
    """Fail until the ``succeed_on``-th invocation (state kept on disk)."""
    calls = int(os.path.exists(counter_path) and open(counter_path).read() or 0) + 1
    with open(counter_path, "w") as handle:
        handle.write(str(calls))
    if calls < succeed_on:
        raise RuntimeError(f"transient failure #{calls}")
    return calls


def _suicide_once(flag_path, value):
    """SIGKILL the worker process on the first call; succeed afterwards."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return value


# --------------------------------------------------------------------------
class TestRunManifest:
    def test_create_load_roundtrip(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["a", "b"], metadata={"k": 1})
        assert manifest.counts() == {"pending": 2, "running": 0, "done": 0, "failed": 0}
        reloaded = RunManifest.load(tmp_path)
        assert reloaded.task_ids == ["a", "b"]
        assert reloaded.metadata == {"k": 1}

    def test_fresh_create_refuses_an_existing_manifest(self, tmp_path):
        RunManifest.open_or_create(tmp_path, ["a"])
        with pytest.raises(FileExistsError):
            RunManifest.open_or_create(tmp_path, ["a"])

    def test_duplicate_task_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            RunManifest.open_or_create(tmp_path, ["a", "a"])

    def test_state_transitions_persist_atomically(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["a"])
        manifest.mark_running("a")
        assert RunManifest.load(tmp_path).state("a") == "running"
        artifact = tmp_path / "a.json"
        artifact.write_text("{}\n")
        manifest.mark_done("a", artifact=artifact)
        entry = RunManifest.load(tmp_path).entry("a")
        assert entry["state"] == "done"
        assert entry["attempts"] == 1
        assert entry["artifact"] == "a.json"  # stored run_dir-relative
        assert entry["artifact_sha256"] == file_sha256(artifact)

    def test_structured_error_records(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["a"])
        manifest.mark_running("a")
        try:
            raise ValueError("bad input")
        except ValueError as error:
            manifest.record_error("a", error)
        manifest.mark_failed("a")
        entry = RunManifest.load(tmp_path).entry("a")
        assert entry["state"] == "failed"
        (record,) = entry["errors"]
        assert record["type"] == "ValueError"
        assert record["message"] == "bad input"
        assert "Traceback" in record["traceback"]
        assert record["attempt"] == 1

    def test_resume_requeues_running_and_failed_keeps_done(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["a", "b", "c"])
        manifest.mark_running("a")  # killed mid-flight
        manifest.mark_running("b")
        manifest.mark_done("b")
        manifest.mark_running("c")
        manifest.record_error("c", RuntimeError("x"))
        manifest.mark_failed("c")
        resumed = RunManifest.open_or_create(
            tmp_path, ["a", "b", "c", "d"], resume=True
        )
        assert resumed.state("a") == "pending"
        assert resumed.state("b") == "done"
        assert resumed.state("c") == "pending"  # error history preserved
        assert resumed.entry("c")["errors"]
        assert resumed.state("d") == "pending"  # appended

    def test_saves_single_line_json_and_resumes_an_indented_manifest(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["a", "b"])
        manifest.mark_running("a")
        manifest.mark_done("a")
        path = tmp_path / RunManifest.FILENAME
        assert path.read_text().count("\n") == 1
        # A manifest written with indent=2 (as older runs did) resumes alike.
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2) + "\n")
        resumed = RunManifest.open_or_create(tmp_path, ["a", "b"], resume=True)
        assert (resumed.state("a"), resumed.state("b")) == ("done", "pending")
        assert path.read_text().count("\n") == 1

    def test_unknown_task_raises(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["a"])
        with pytest.raises(KeyError, match="nope"):
            manifest.mark_done("nope")


class TestRunQueue:
    def test_sequential_success(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["x", "y"])
        results, failed = run_queue(
            [QueueTask("x", _double, (2,)), QueueTask("y", _double, (5,))],
            manifest=manifest,
        )
        assert results == {"x": 4, "y": 10}
        assert failed == {}
        assert manifest.counts()["done"] == 2

    def test_done_tasks_are_skipped(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["x", "y"])
        manifest.mark_running("x")
        manifest.mark_done("x")
        results, _ = run_queue(
            [QueueTask("x", _boom), QueueTask("y", _double, (3,))],
            manifest=manifest,
        )
        assert results == {"y": 6}  # x never re-ran (it would have raised)
        assert manifest.attempts("x") == 1

    def test_poisoned_task_exhausts_retries_without_raising(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["bad", "good"])
        results, failed = run_queue(
            [QueueTask("bad", _boom), QueueTask("good", _double, (1,))],
            manifest=manifest,
            retries=2,
            retry_backoff=0.01,
        )
        assert results == {"good": 2}
        assert isinstance(failed["bad"], RuntimeError)
        entry = manifest.entry("bad")
        assert entry["state"] == "failed"
        assert entry["attempts"] == 3  # 1 + 2 retries
        assert [e["attempt"] for e in entry["errors"]] == [1, 2, 3]

    def test_transient_failure_recovers_within_budget(self, tmp_path):
        counter = str(tmp_path / "calls")
        manifest = RunManifest.open_or_create(tmp_path, ["flaky"])
        results, failed = run_queue(
            [QueueTask("flaky", _flaky, (counter, 3))],
            manifest=manifest,
            retries=2,
            retry_backoff=0.01,
        )
        assert failed == {}
        assert results == {"flaky": 3}
        assert manifest.attempts("flaky") == 3
        assert manifest.state("flaky") == "done"

    def test_retries_also_work_without_a_manifest(self, tmp_path):
        counter = str(tmp_path / "calls")
        results, failed = run_queue(
            [QueueTask("flaky", _flaky, (counter, 2))],
            retries=1,
            retry_backoff=0.01,
        )
        assert results == {"flaky": 2}
        assert failed == {}

    def test_sigkilled_worker_is_requeued_and_pool_rebuilt(self, tmp_path):
        flag = str(tmp_path / "flag")
        manifest = RunManifest.open_or_create(tmp_path, ["victim", "a", "b"])
        results, failed = run_queue(
            [
                QueueTask("victim", _suicide_once, (flag, 42)),
                QueueTask("a", _double, (1,)),
                QueueTask("b", _double, (2,)),
            ],
            jobs=2,
            manifest=manifest,
            retries=2,
            retry_backoff=0.01,
        )
        assert failed == {}
        assert results == {"victim": 42, "a": 2, "b": 4}
        # The death was recorded as a structured BrokenProcessPool error.
        errors = [e["type"] for e in manifest.entry("victim")["errors"]]
        assert "BrokenProcessPool" in errors
        assert manifest.counts()["done"] == 3

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_queue([QueueTask("a", _double, (1,)), QueueTask("a", _double, (2,))])


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("archive")
    return synthesize_sharded_archive(
        root, 5, n_exemplars_per_class=6, length=48, seed=9
    )


class TestRunSweep:
    def test_sweep_completes_and_writes_artifacts(self, archive, tmp_path):
        summary = run_sweep(archive, tmp_path / "run", retries=0)
        assert summary["n_tasks"] == 5
        assert summary["done"] == 5
        assert summary["failed"] == 0
        assert 0.0 <= summary["mean_accuracy"] <= 1.0
        for directory in archive:
            payload = json.loads(
                (tmp_path / "run" / "artifacts" / f"{directory.name}.json").read_text()
            )
            assert payload["n_eval"] > 0

    def test_resume_is_idempotent_and_touches_nothing(self, archive, tmp_path):
        run_dir = tmp_path / "run"
        run_sweep(archive, run_dir, retries=0)
        before = {
            path.name: (file_sha256(path), path.stat().st_mtime_ns)
            for path in (run_dir / "artifacts").iterdir()
        }
        summary = run_sweep(archive, run_dir, resume=True, retries=0)
        assert summary["executed"] == 0
        assert summary["skipped"] == 5
        after = {
            path.name: (file_sha256(path), path.stat().st_mtime_ns)
            for path in (run_dir / "artifacts").iterdir()
        }
        assert after == before  # done artifacts byte- and mtime-untouched

    def test_resume_runs_only_unfinished_work(self, archive, tmp_path):
        run_dir = tmp_path / "run"
        # Simulate a killed run: 3 of 5 done, one caught mid-flight.
        manifest = RunManifest.open_or_create(run_dir, [d.name for d in archive])
        for directory in archive[:3]:
            manifest.mark_running(directory.name)
            payload = sweep_one_dataset(directory)
            path = run_dir / "artifacts" / f"{directory.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload) + "\n")
            manifest.mark_done(directory.name, artifact=path)
        manifest.mark_running(archive[3].name)

        summary = run_sweep(archive, run_dir, resume=True, retries=0)
        assert summary["executed"] == 2  # the mid-flight one + the never-started one
        assert summary["done"] == 5
        resumed = RunManifest.load(run_dir)
        assert [resumed.attempts(d.name) for d in archive] == [1, 1, 1, 2, 1]

    def test_dense_loader_matches_dataset_count(self, archive, tmp_path):
        summary = run_sweep(archive, tmp_path / "dense", retries=0, loader="dense")
        assert summary["done"] == 5
        assert summary["loader"] == "dense"

    def test_dense_loader_requires_in_process(self, archive, tmp_path):
        with pytest.raises(ValueError, match="in-process"):
            run_sweep(archive, tmp_path / "x", jobs=2, loader="dense")

    def test_sweep_task_is_deterministic(self, archive):
        one = sweep_one_dataset(archive[0])
        two = sweep_one_dataset(archive[0])
        assert one["accuracy"] == two["accuracy"]
        assert one["n_train"] + one["n_eval"] == one["n_exemplars"]

    @pytest.mark.parametrize("per_class", [4, 5, 6, 7, "single-shard"])
    def test_dense_loader_scores_the_sharded_split(self, per_class, tmp_path):
        """Shard 0 trains (half of a lone shard) whatever the shard size."""
        shard_exemplars = None
        if per_class == "single-shard":
            per_class, shard_exemplars = 5, 1_000
        archive = synthesize_sharded_archive(
            tmp_path / "archive",
            6,
            n_exemplars_per_class=per_class,
            length=64,
            shard_exemplars=shard_exemplars,
            seed=3,
        )
        sharded = run_sweep(archive, tmp_path / "sharded", retries=0)
        dense = run_sweep(archive, tmp_path / "dense", retries=0, loader="dense")
        assert sharded["done"] == dense["done"] == 6
        assert sharded["mean_accuracy"] == dense["mean_accuracy"]


def _znormalized_rows(rows: np.ndarray) -> np.ndarray:
    return (rows - rows.mean(axis=1, keepdims=True)) / rows.std(axis=1, keepdims=True)


def _dense_sweep_oracle(dataset_dir) -> tuple[float, dict]:
    """Full-length and per-cut 1-NN accuracy from dense arrays and naive sums."""
    dataset = ShardedDataset.open(dataset_dir)
    series = np.concatenate(
        [np.asarray(dataset.shard_series(i)) for i in range(dataset.n_shards)]
    )
    labels = np.asarray(dataset.labels)
    n_train = (
        dataset.shard_labels(0).shape[0]
        if dataset.n_shards > 1
        else series.shape[0] // 2
    )
    train, queries = series[:n_train], series[n_train:]
    train_labels, truth = labels[:n_train], labels[n_train:]

    def accuracy(query_rows, train_rows):
        distances = ((query_rows[:, None, :] - train_rows[None, :, :]) ** 2).sum(axis=2)
        predicted = train_labels[np.argmin(distances, axis=1)]
        return np.count_nonzero(predicted == truth) / truth.shape[0]

    length = dataset.series_length
    cuts = sorted({max(2, int(round(length * f))) for f in PREFIX_FRACTIONS})
    prefix = {
        str(cut): accuracy(
            _znormalized_rows(queries[:, :cut]), _znormalized_rows(train[:, :cut])
        )
        for cut in cuts
    }
    return accuracy(queries, train), prefix


class TestSweepTaskOracle:
    """``sweep_one_dataset`` against a dense 1-NN over the same split."""

    def test_multi_shard_archive(self, archive):
        for directory in archive:
            result = sweep_one_dataset(directory)
            assert result["n_shards"] > 2
            assert (result["accuracy"], result["prefix_accuracies"]) == (
                _dense_sweep_oracle(directory)
            )

    def test_single_shard_archive(self, tmp_path):
        archive = synthesize_sharded_archive(
            tmp_path, 3, n_exemplars_per_class=6, length=48, shard_exemplars=1_000, seed=9
        )
        for directory in archive:
            result = sweep_one_dataset(directory)
            assert result["n_shards"] == 1
            assert (result["n_train"], result["n_eval"]) == (9, 9)
            assert (result["accuracy"], result["prefix_accuracies"]) == (
                _dense_sweep_oracle(directory)
            )


class TestRunExperimentsQueued:
    def test_manifest_mode_runs_and_resumes(self, tmp_path):
        run_dir = tmp_path / "run"
        results = run_experiments(
            [CHEAP],
            fast=True,
            overrides=CHEAP_OVERRIDES,
            run_dir=run_dir,
            retries=1,
        )
        assert [r.name for r in results] == [CHEAP]
        manifest = RunManifest.load(run_dir)
        assert manifest.state(CHEAP) == "done"
        assert (run_dir / "results" / f"{CHEAP}.json").is_file()

        resumed = run_experiments(
            [CHEAP],
            fast=True,
            overrides=CHEAP_OVERRIDES,
            run_dir=run_dir,
            resume=True,
            retries=1,
        )
        # Reconstructed from the artifact, not re-executed.
        assert resumed[0].summary == results[0].summary
        assert resumed[0].metrics == dict(results[0].metrics)
        assert RunManifest.load(run_dir).attempts(CHEAP) == 1

    def test_lost_artifact_forces_re_execution_on_resume(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiments(
            [CHEAP], fast=True, overrides=CHEAP_OVERRIDES, run_dir=run_dir
        )
        (run_dir / "results" / f"{CHEAP}.json").unlink()
        results = run_experiments(
            [CHEAP],
            fast=True,
            overrides=CHEAP_OVERRIDES,
            run_dir=run_dir,
            resume=True,
        )
        assert [r.name for r in results] == [CHEAP]
        assert RunManifest.load(run_dir).attempts(CHEAP) == 2

    def test_failures_are_recorded_not_raised(self, tmp_path):
        run_dir = tmp_path / "run"
        results = run_experiments(
            ["no-such-experiment"], fast=True, run_dir=run_dir, retries=1
        )
        assert results == []
        entry = RunManifest.load(run_dir).entry("no-such-experiment")
        assert entry["state"] == "failed"
        assert entry["attempts"] == 2
        assert entry["errors"][0]["type"] == "KeyError"

    def test_retries_without_run_dir_are_rejected(self):
        with pytest.raises(ValueError, match="run_dir"):
            run_experiments([CHEAP], retries=1)
