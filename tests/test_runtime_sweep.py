"""Tests for crash-resumable runs: manifest, work queue, sweeps, resume."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _fold(manifest):
    """A manifest's state through its public queries."""
    entries = {task_id: manifest.entry(task_id) for task_id in manifest.task_ids}
    return manifest.metadata, entries


#: One step of the replay property: a transition (or a resume), its task,
#: and text for an error message (``mark_done`` records an artifact if any).
_STEP = st.tuples(
    st.sampled_from(
        ("mark_running", "mark_done", "record_error", "mark_pending", "mark_failed", "resume")
    ),
    st.sampled_from("abc"),
    st.text(max_size=8),
)


def _without(payload: dict, *keys: str) -> dict:
    return {key: value for key, value in payload.items() if key not in keys}


def _sweep_outputs(run_dir: Path) -> tuple[dict, dict]:
    """A sweep's artifacts and ``summary.json``, without timing and RSS fields."""
    artifacts = {
        path.name: _without(json.loads(path.read_text()), "elapsed_seconds")
        for path in sorted((run_dir / "artifacts").glob("*.json"))
    }
    summary = json.loads((run_dir / "summary.json").read_text())
    # executed/skipped count this invocation's work, not the run's outcome.
    return artifacts, _without(
        summary, "elapsed_seconds", "peak_rss_bytes", "executed", "skipped"
    )


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

    def test_resume_requeues_done_tasks_whose_artifact_is_lost_or_edited(self, tmp_path):
        task_ids = ["intact", "lost", "edited", "bare"]
        manifest = RunManifest.open_or_create(tmp_path, task_ids)
        for task_id in task_ids[:3]:
            artifact = tmp_path / f"{task_id}.json"
            artifact.write_text(json.dumps({"task": task_id}) + "\n")
            manifest.mark_running(task_id)
            manifest.mark_done(task_id, artifact=artifact)
        manifest.mark_running("bare")
        manifest.mark_done("bare")  # finished without an artifact
        (tmp_path / "lost.json").unlink()
        (tmp_path / "edited.json").write_text(json.dumps({"task": "tampered"}) + "\n")
        resumed = RunManifest.open_or_create(tmp_path, task_ids, resume=True)
        assert [resumed.state(task_id) for task_id in task_ids] == [
            "done",
            "pending",
            "pending",
            "done",
        ]
        assert [resumed.attempts(task_id) for task_id in task_ids] == [1, 1, 1, 1]

    def test_artifact_outside_the_run_dir_is_recorded_by_absolute_path(
        self, tmp_path, monkeypatch
    ):
        # Both paths are relative to the working directory, as the CLI's
        # default ``--results-dir results`` is; resume joins the recorded
        # path to the run directory, so only an absolute one still resolves.
        monkeypatch.chdir(tmp_path)
        run_dir = Path("runs") / "all"
        manifest = RunManifest.open_or_create(run_dir, ["inside", "outside"])
        for artifact in (run_dir / "results" / "inside.json", Path("results/outside.json")):
            artifact.parent.mkdir(parents=True)
            artifact.write_text("{}\n")
            manifest.mark_running(artifact.stem)
            manifest.mark_done(artifact.stem, artifact=artifact)
        assert manifest.entry("inside")["artifact"] == str(Path("results/inside.json"))
        assert manifest.entry("outside")["artifact"] == str(
            tmp_path.resolve() / "results" / "outside.json"
        )
        monkeypatch.chdir(run_dir)  # a resume from elsewhere finds both
        resumed = RunManifest.open_or_create(".", ["inside", "outside"], resume=True)
        assert (resumed.state("inside"), resumed.state("outside")) == ("done", "done")

    def test_saves_single_line_json_and_resumes_an_indented_manifest(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["a", "b"])
        manifest.mark_running("a")
        manifest.mark_done("a")
        path = tmp_path / RunManifest.FILENAME
        # The document's line, then one single-line record per transition.
        lines = path.read_text().split("\n")
        assert len(lines) == 4 and lines[-1] == ""
        assert [json.loads(line)["entry"]["state"] for line in lines[1:3]] == [
            "running",
            "done",
        ]
        RunManifest.open_or_create(tmp_path, ["a", "b"], resume=True)
        assert path.read_text().count("\n") == 1  # a resume compacts the log
        # A manifest written with indent=2 (as older runs did) resumes alike.
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2) + "\n")
        resumed = RunManifest.open_or_create(tmp_path, ["a", "b"], resume=True)
        assert (resumed.state("a"), resumed.state("b")) == ("done", "pending")
        assert path.read_text().count("\n") == 1

    def test_a_record_cut_at_any_byte_loads_as_the_state_before_it(self, tmp_path):
        manifest = RunManifest.open_or_create(tmp_path, ["a", "b"])
        manifest.mark_running("a")
        manifest.mark_done("a")
        manifest.mark_running("b")
        path = tmp_path / RunManifest.FILENAME
        before_bytes = path.read_bytes()
        before = _fold(RunManifest.load(tmp_path))
        try:
            raise RuntimeError("line one\nline two \u00e9")
        except RuntimeError as error:
            manifest.record_error("b", error)
        full = path.read_bytes()
        assert full.startswith(before_bytes) and full.count(b"\n") == 5
        for offset in range(len(before_bytes), len(full)):
            path.write_bytes(full[:offset])
            assert _fold(RunManifest.load(tmp_path)) == before, offset
            resumed = RunManifest.open_or_create(tmp_path, ["a", "b"], resume=True)
            assert path.read_text().count("\n") == 1, offset
            assert _fold(RunManifest.load(tmp_path)) == _fold(resumed)
            assert (resumed.state("a"), resumed.state("b")) == ("done", "pending")
            assert resumed.entry("b")["errors"] == []
        path.write_bytes(full)
        (error,) = RunManifest.load(tmp_path).entry("b")["errors"]
        assert error["message"] == "line one\nline two \u00e9"

    @pytest.mark.parametrize(
        "bad_line",
        [
            "not json",
            "",
            "[1, 2]",
            '{"task": "a"}',
            '{"task": "nope", "entry": {"state": "done"}}',
            '{"task": "a", "entry": {"state": "finished"}}',
            '{"task": "a", "entry": "done"}',
            '{"task": "a", "entry": {"state": "do',  # torn, then appended to
        ],
    )
    def test_a_malformed_record_that_is_not_the_last_raises(self, tmp_path, bad_line):
        manifest = RunManifest.open_or_create(tmp_path, ["a", "b"])
        manifest.mark_running("a")
        path = tmp_path / RunManifest.FILENAME
        first, record = path.read_text().splitlines()
        path.write_text(f"{first}\n{bad_line}\n{record}\n")
        with pytest.raises(ValueError, match="malformed transition record 1"):
            RunManifest.load(tmp_path)
        with pytest.raises(ValueError, match="malformed transition record 1"):
            RunManifest.open_or_create(tmp_path, ["a", "b"], resume=True)
        # The same line last and without its newline is a torn record.
        path.write_text(f"{first}\n{record}\n{bad_line}")
        assert RunManifest.load(tmp_path).state("a") == "running"

    def test_data_after_the_document_on_its_line_raises(self, tmp_path):
        RunManifest.open_or_create(tmp_path, ["a"])
        path = tmp_path / RunManifest.FILENAME
        path.write_text(path.read_text().rstrip("\n") + " {}\n")
        with pytest.raises(ValueError, match="after the manifest document"):
            RunManifest.load(tmp_path)

    @given(steps=st.lists(_STEP, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_load_replays_the_writers_document_after_every_step(self, steps):
        task_ids = ["a", "b", "c"]
        with tempfile.TemporaryDirectory() as run_dir:
            writer = RunManifest.open_or_create(run_dir, task_ids, metadata={"k": 1})
            artifact = Path(run_dir) / "artifact.json"
            artifact.write_text("{}\n")
            for step, task_id, text in steps:
                if step == "resume":
                    writer = RunManifest.open_or_create(run_dir, task_ids, resume=True)
                elif step == "mark_done":
                    writer.mark_done(task_id, artifact=artifact if text else None)
                elif step == "record_error":
                    writer.record_error(task_id, {"message": text, "time": 0.0})
                else:
                    getattr(writer, step)(task_id)
                assert RunManifest.load(run_dir)._document == writer._document

    def test_a_sweep_killed_at_random_moments_resumes_to_the_uninterrupted_run(
        self, tmp_path
    ):
        directories = synthesize_sharded_archive(
            tmp_path / "archive", 24, n_exemplars_per_class=8, length=512, seed=5
        )
        reference = run_sweep(directories, tmp_path / "reference", retries=0)
        expected = _sweep_outputs(tmp_path / "reference")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        archive = str(directories[0].parent)
        argv = [sys.executable, "-m", "repro.runtime.sweep", "run", archive]
        rng = random.Random(29)
        for kill in range(6):
            run_dir = tmp_path / f"killed-{kill}"
            proc = subprocess.Popen(
                [*argv, "--run-dir", str(run_dir), "--retries", "0"],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=env,
            )
            try:
                # Once the run has started, kill it at a random moment of it.
                deadline = time.monotonic() + 60
                while not (run_dir / RunManifest.FILENAME).exists():
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.001)
                time.sleep(rng.uniform(0.0, reference["elapsed_seconds"]))
            finally:
                proc.kill()
                proc.wait(timeout=60)
            done_at_kill = RunManifest.load(run_dir).counts()["done"]
            summary = run_sweep(directories, run_dir, resume=True, retries=0)
            assert summary["executed"] == len(directories) - done_at_kill
            assert _sweep_outputs(run_dir) == expected
            assert list(run_dir.rglob("*.tmp")) == []

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

    def test_resume_deletes_the_temps_a_killed_write_left(self, archive, tmp_path):
        run_dir = tmp_path / "run"
        run_sweep(archive, run_dir, retries=0)
        before = {
            path.name: (file_sha256(path), path.stat().st_mtime_ns)
            for path in (run_dir / "artifacts").iterdir()
        }
        stale = [
            run_dir / ".run_manifest.json.0123456789ab.tmp",
            run_dir / "artifacts" / f".{archive[0].name}.json.ba9876543210.tmp",
            run_dir / "results" / ".figure1.json.00ff00ff00ff.tmp",
        ]
        kept = [run_dir / ".notes.tmp", run_dir / "scratch.0123456789ab.tmp"]
        (run_dir / "results").mkdir()
        for path in stale + kept:
            path.write_text('{"torn": ')
        summary = run_sweep(archive, run_dir, resume=True, retries=0)
        assert summary["executed"] == 0
        assert [path for path in stale if path.exists()] == []
        assert all(path.exists() for path in kept)  # not write_atomic's names
        after = {
            path.name: (file_sha256(path), path.stat().st_mtime_ns)
            for path in (run_dir / "artifacts").iterdir()
        }
        assert after == before

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

    def test_resume_reruns_a_deleted_artifact_and_only_that_one(self, archive, tmp_path):
        run_dir = tmp_path / "run"
        untouched = run_sweep(archive, run_dir, retries=0)
        lost = run_dir / "artifacts" / f"{archive[1].name}.json"
        lost.unlink()
        summary = run_sweep(archive, run_dir, resume=True, retries=0)
        assert (summary["executed"], summary["skipped"], summary["done"]) == (1, 4, 5)
        assert summary["mean_accuracy"] == untouched["mean_accuracy"]
        resumed = RunManifest.load(run_dir)
        assert [resumed.attempts(d.name) for d in archive] == [1, 2, 1, 1, 1]
        assert resumed.entry(archive[1].name)["artifact_sha256"] == file_sha256(lost)

    def test_resume_reruns_an_edited_artifact(self, archive, tmp_path):
        run_dir = tmp_path / "run"
        untouched = run_sweep(archive, run_dir, retries=0)
        edited = run_dir / "artifacts" / f"{archive[2].name}.json"
        payload = json.loads(edited.read_text())
        accuracy = payload["accuracy"]
        payload["accuracy"] = 1.0 - accuracy  # a different number, still valid
        edited.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        summary = run_sweep(archive, run_dir, resume=True, retries=0)
        assert (summary["executed"], summary["skipped"], summary["done"]) == (1, 4, 5)
        assert summary["mean_accuracy"] == untouched["mean_accuracy"]
        assert json.loads(edited.read_text())["accuracy"] == accuracy
        resumed = RunManifest.load(run_dir)
        assert [resumed.attempts(d.name) for d in archive] == [1, 1, 2, 1, 1]

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

    def test_recovered_experiments_are_handed_over_in_order_without_re_running(
        self, tmp_path
    ):
        run_dir = tmp_path / "run"
        names = [CHEAP, "figure7", "figure6"]
        first = run_experiments(names, fast=True, run_dir=run_dir)
        (run_dir / "results" / "figure7.json").unlink()
        seen = []
        resumed = run_experiments(
            names,
            fast=True,
            run_dir=run_dir,
            resume=True,
            on_result=lambda result: seen.append(result.name),
        )
        assert seen == names == [result.name for result in resumed]
        assert [r.summary for r in resumed] == [r.summary for r in first]
        manifest = RunManifest.load(run_dir)
        assert [manifest.attempts(name) for name in names] == [1, 2, 1]

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
