"""The four benchmark workloads: inputs, one timed pass, and output checks.

Every workload is a closed loop over synchronous library calls.  ``setup``
builds the seeded inputs (and, for the stream workloads, fits the shared
model); ``run_pass`` drives one complete pass, timing each operation on the
given :class:`stopwatch.Stopwatch` and finishing it once the program's
result is complete, and returns a :class:`Pass`; ``check``
compares every pass with an independent reference and returns the failed
operations.  Passes repeat until the run's time is spent.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.experiments.table1 as table1
import repro.runtime.sweep as sweep
from repro.classifiers.ects import ECTSClassifier
from repro.data import gunpoint, shards
from repro.data.denormalize import denormalize_dataset
from repro.data.random_walk import random_walk_background
from repro.data.stream import StreamComposer
from repro.evaluation.earliness import evaluate_early_classifier
from repro.serving.engine import ServingEngine
from repro.serving.registry import ModelRegistry, TenantConfig
from repro.streaming.online import StreamingSession


@dataclass
class Pass:
    """What one pass did and its output; ``watch`` holds its timings."""

    ops: int
    samples: int
    output: object
    extra: dict = field(default_factory=dict)
    watch: object = None


#: The canonical GunPoint split (the archive's GunPoint is one fixed dataset).
GUNPOINT_SEED = 7


def _stream_classifier() -> tuple[ECTSClassifier, np.ndarray]:
    """The shared streaming model: ECTS (checkpoint step 10) on 10 exemplars per class.

    The model is the deployment's fixed configuration, trained on the
    canonical GunPoint split; only the streams it serves come from
    ``--seed``.  Returns the fitted model and the GunPoint test exemplars of
    the first class, which the stream workloads embed in their background.
    """
    train, test = gunpoint.make_gunpoint_dataset(seed=GUNPOINT_SEED)
    labels = np.asarray(train.labels)
    picks = np.concatenate([np.flatnonzero(labels == cls)[:10] for cls in train.classes])
    model = ECTSClassifier(checkpoint_step=10).fit(train.series[picks], labels[picks])
    return model, test.exemplars_of_class(test.classes[0])


def _alarm_fields(alarms) -> list[tuple]:
    return [
        (a.position, a.candidate_start, a.label, a.prefix_length, a.confidence)
        for a in alarms
    ]


def _same_alarms(got: list[tuple], want: list[tuple]) -> bool:
    """Equal alarms; confidences may differ by float round-off between paths."""
    return len(got) == len(want) and all(
        a[:4] == b[:4] and abs(a[4] - b[4]) <= 1e-9 for a, b in zip(got, want)
    )


class Table1:
    """Table 1 at full classifier settings on a 50-row GunPoint test split.

    The GunPoint split is the repo's canonical one (seed 7), as the archive's
    GunPoint is one fixed dataset; ``--seed`` draws the denormalisation
    offsets, the protocol's only random input.  An operation is one
    algorithm x condition cell (fit + early evaluation) or the 1-NN control.
    """

    name = "table1"
    N_TEST_PER_CLASS = 25

    def setup(self, seed: int, smoke: bool, work: Path) -> None:
        self.smoke = smoke
        self.denormalize_seed = seed
        self.prepared = table1.prepare(
            n_test_per_class=5 if smoke else self.N_TEST_PER_CLASS,
            seed=GUNPOINT_SEED,
        )

    def run_pass(self, watch) -> Pass:
        # A cell starts when the audit builds its classifier and ends when
        # the next one is built (or ``compute`` returns).
        cells = []

        def timed(factory):
            def build():
                if cells:
                    watch.stop()
                cells.append(None)
                watch.start()
                return factory()

            return build

        factories = {
            name: timed(factory)
            for name, factory in table1.default_algorithms(fast=self.smoke).items()
        }
        result = table1.compute(
            self.prepared, algorithms=factories, denormalize_seed=self.denormalize_seed
        )
        watch.stop()
        watch.finish()
        test = self.prepared.test
        samples = test.series.size * (len(cells) + 2)  # + the control's two conditions
        # The control is cheap and runs inside the last cell's interval; it
        # counts as an operation but has no latency sample of its own.
        return Pass(ops=len(cells) + 1, samples=samples, output=result)

    def check(self, passes: list[Pass]) -> tuple[int, list[str]]:
        failed = 0
        problems: list[str] = []
        oracle = self._oracle_accuracies()
        first = passes[0].output.rows()
        for index, run in enumerate(passes):
            result = run.output
            if result.rows() != first:
                problems.append(f"pass {index}: table differs from pass 0")
                failed += 2 * len(first)
                continue
            for algorithm, normalized, denormalized in result.rows():
                if not self.smoke and not normalized - denormalized > 0.05:
                    failed += 1
                    problems.append(
                        f"{algorithm}: loses {normalized - denormalized:.3f} <= 0.05"
                    )
                expected = oracle.get(algorithm)
                if expected is not None and expected != (normalized, denormalized):
                    failed += (expected[0] != normalized) + (expected[1] != denormalized)
                    problems.append(
                        f"{algorithm}: accuracies {(normalized, denormalized)} != "
                        f"per-row reference {expected}"
                    )
            if result.control_normalized != result.control_denormalized:
                failed += 1
                problems.append("control moved under denormalisation")
        return failed, problems

    def _oracle_accuracies(self) -> dict[str, tuple[float, float]]:
        """ECTS/EDSC accuracies from the per-row ``predict_early`` reference walk.

        Both conditions fit on the same training data, so one model per
        algorithm serves both; Reliable/LDG are not pinned.
        """
        train, test = self.prepared.train, self.prepared.test
        denormalized = denormalize_dataset(
            test, seed=self.denormalize_seed, offset_range=(-1.0, 1.0)
        )
        oracle = {}
        factories = table1.default_algorithms(fast=self.smoke)
        for name, factory in factories.items():
            if "Rel. Class." in name:
                continue
            model = factory().fit(train.series, train.labels)
            oracle[name] = tuple(
                evaluate_early_classifier(model, data.series, data.labels, batch=False).accuracy
                for data in (test, denormalized)
            )
        return oracle


class ServingFleet:
    """1,000 causal streams over 4 tenants sharing one ECTS model.

    Gaussian background with GunPoint exemplars embedded in every 7th
    stream, pushed in 50-sample chunks, one ``flush`` per round.  An
    operation is one pushed chunk; latency is one round's wall time.
    """

    name = "serving-fleet"
    N_TENANTS = 4
    CHUNK = 50
    STRIDE = 50
    CHECK_STREAMS = 15

    def setup(self, seed: int, smoke: bool, work: Path) -> None:
        n_streams, n_samples = (70, 600) if smoke else (1_000, 6_000)
        self.model, exemplars = _stream_classifier()
        rng = np.random.default_rng(seed)
        self.streams = rng.normal(0.0, 1.0, size=(n_streams, n_samples))
        length = self.model.train_length_
        for index in range(0, n_streams, 7):
            for offset in range(60, n_samples - length, 1_000):
                exemplar = exemplars[rng.integers(exemplars.shape[0])]
                self.streams[index, offset : offset + length] = exemplar
        config = TenantConfig(stride=self.STRIDE, normalization="causal")
        self.registry = ModelRegistry()
        for tenant in range(self.N_TENANTS):
            self.registry.register(self._tenant(tenant), self.model, config)

    def _tenant(self, index: int) -> str:
        return f"tenant-{index % self.N_TENANTS}"

    def run_pass(self, watch) -> Pass:
        engine = ServingEngine(self.registry, batch_size=1024)
        n_streams, n_samples = self.streams.shape
        tenants = [self._tenant(index) for index in range(n_streams)]
        rounds = 0
        rejected = 0
        depth_max = 0
        for offset in range(0, n_samples, self.CHUNK):
            watch.start()
            for index in range(n_streams):
                try:
                    engine.push(
                        tenants[index], index, self.streams[index, offset : offset + self.CHUNK]
                    )
                except ValueError:
                    rejected += 1
            depth_max = max(depth_max, engine.queue_depth)
            engine.flush()
            watch.stop()
            rounds += 1
        snapshot = engine.metrics()
        alarms = {
            index: _alarm_fields(engine.alarms(tenants[index], index))
            for index in range(min(self.CHECK_STREAMS, n_streams))
        }
        watch.finish()
        # One latency sample per round; every stream's chunk is an operation.
        return Pass(
            ops=n_streams * rounds,
            samples=self.streams.size,
            output=alarms,
            extra={
                "rounds": rounds,
                "rejected": rejected,
                "queue_depth_max": depth_max,
                "batch_calls": snapshot.n_batch_calls,
                "candidates_evaluated": snapshot.candidates_evaluated,
                "candidates_discarded": snapshot.candidates_discarded,
                "candidates_enqueued": snapshot.candidates_enqueued,
                "chunks_shed": snapshot.chunks_shed,
                "alarms_emitted": snapshot.alarms_emitted,
            },
        )

    def check(self, passes: list[Pass]) -> tuple[int, list[str]]:
        """Alarms on the first streams equal dedicated sessions', field by field."""
        reference = {}
        for index in range(min(self.CHECK_STREAMS, self.streams.shape[0])):
            session = StreamingSession(
                self.model, stride=self.STRIDE, normalization="causal"
            )
            for offset in range(0, self.streams.shape[1], self.CHUNK):
                session.extend(self.streams[index, offset : offset + self.CHUNK])
            reference[index] = _alarm_fields(session.finalize())
        failed = 0
        problems: list[str] = []
        for number, run in enumerate(passes):
            rounds = run.extra["rounds"]
            failed += run.extra["chunks_shed"] + run.extra["rejected"]
            if run.extra["chunks_shed"] or run.extra["rejected"]:
                problems.append(
                    f"pass {number}: {run.extra['chunks_shed']} chunks shed, "
                    f"{run.extra['rejected']} rejected"
                )
            for index, expected in reference.items():
                if not _same_alarms(run.output[index], expected):
                    failed += rounds
                    problems.append(f"pass {number}: stream {index} alarms differ from its session")
            if run.extra["alarms_emitted"] == 0:
                problems.append(f"pass {number}: no alarms")
                failed += 1
        return failed, problems


class StreamSession:
    """One long random-walk stream fed to a causal ``StreamingSession``.

    GunPoint exemplars embedded every 2,000-6,000 samples; 256-sample
    chunks.  An operation is one ``extend`` call, which is also the latency
    sample.
    """

    name = "stream-session"
    CHUNK = 256
    STRIDE = 50

    def setup(self, seed: int, smoke: bool, work: Path) -> None:
        n_samples = 20_000 if smoke else 200_000
        self.model, exemplars = _stream_classifier()
        composer = StreamComposer(
            background=random_walk_background(smoothing=16, step_scale=0.3),
            gap_range=(2_000, 6_000),
            level_match=True,
            seed=seed,
        )
        n_events = n_samples // 2_000
        label = self.model.classes_[0]
        stream = composer.compose(
            [exemplars[i % exemplars.shape[0]] for i in range(n_events)],
            [label] * n_events,
            name="perfbench-stream",
        )
        self.values = np.ascontiguousarray(stream.values[:n_samples])

    def run_pass(self, watch) -> Pass:
        session = StreamingSession(
            self.model, stride=self.STRIDE, normalization="causal", max_alarms=1_000_000
        )
        open_candidates = 0
        per_chunk: list[list[tuple]] = []
        for offset in range(0, self.values.shape[0], self.CHUNK):
            emitted = watch.time(session.extend, self.values[offset : offset + self.CHUNK])
            open_candidates += session.n_open_candidates
            per_chunk.append(_alarm_fields(emitted))
        session.finalize()
        watch.finish()
        return Pass(
            ops=len(per_chunk),
            samples=int(self.values.shape[0]),
            output=per_chunk,
            extra={"open_candidates_mean": open_candidates / len(per_chunk)},
        )

    def check(self, passes: list[Pass]) -> tuple[int, list[str]]:
        """Per-chunk alarms equal a one-stream ``ServingEngine`` replay."""
        registry = ModelRegistry()
        registry.register(
            "replay",
            self.model,
            TenantConfig(stride=self.STRIDE, normalization="causal", max_alarms=1_000_000),
        )
        engine = ServingEngine(registry)
        reference = []
        for offset in range(0, self.values.shape[0], self.CHUNK):
            engine.push("replay", 0, self.values[offset : offset + self.CHUNK])
            reference.append(_alarm_fields(served.alarm for served in engine.flush()))
        failed = 0
        problems: list[str] = []
        expected_digest = alarm_digest(reference)
        for number, run in enumerate(passes):
            mismatched = sum(
                not _same_alarms(got, want) for got, want in zip(run.output, reference)
            )
            if mismatched or len(run.output) != len(reference):
                failed += max(mismatched, 1)
                problems.append(
                    f"pass {number}: alarm digest {alarm_digest(run.output)} != "
                    f"serving replay {expected_digest} ({mismatched} chunks differ)"
                )
        if not any(reference):
            problems.append("no alarms on the stream")
            failed += 1
        return failed, problems


def alarm_digest(per_chunk: list[list[tuple]]) -> str:
    """Short sha256 over every alarm's (position, candidate start, label)."""
    positions = [(a[0], a[1], str(a[2])) for chunk in per_chunk for a in chunk]
    return hashlib.sha256(json.dumps(positions).encode()).hexdigest()[:16]


class ArchiveSweep:
    """``run_sweep`` with ``jobs=1`` over a synthetic 104-dataset sharded archive.

    48 CBF exemplars of length 1,024 per dataset.  An operation is one
    dataset task; its latency is the task call's wall time.  The stopwatch
    brackets each task from a wrapper on ``repro.runtime.sweep``'s
    ``sweep_one_dataset`` binding, which ``run_sweep`` resolves when it
    queues the tasks.  (The artifacts' ``elapsed_seconds`` would include the
    host probes that interrupt a task.)  The wrapper is in place only during
    the pass.
    """

    name = "archive-sweep"

    def setup(self, seed: int, smoke: bool, work: Path) -> None:
        n_datasets, length = (8, 256) if smoke else (104, 1_024)
        self.work = work
        self.dataset_dirs = shards.synthesize_sharded_archive(
            work / "archive", n_datasets, n_exemplars_per_class=16, length=length, seed=seed
        )
        self.n_runs = 0

    def run_pass(self, watch) -> Pass:
        run_dir = self.work / f"run-{self.n_runs}"
        self.n_runs += 1
        task = sweep.sweep_one_dataset

        def timed_task(*args, **kwargs):
            return watch.time(lambda: task(*args, **kwargs))

        sweep.sweep_one_dataset = timed_task
        try:
            summary = sweep.run_sweep(self.dataset_dirs, run_dir, jobs=1)
        finally:
            sweep.sweep_one_dataset = task
        watch.finish()
        artifacts = {}
        samples = 0
        for path in sorted((run_dir / "artifacts").glob("*.json")):
            payload = json.loads(path.read_text())
            artifacts[payload["dataset"]] = payload["accuracy"]
            samples += payload["n_eval"] * payload["series_length"]
        shutil.rmtree(run_dir)
        return Pass(
            ops=summary["n_tasks"],
            samples=samples,
            output={"summary": summary, "accuracies": artifacts},
        )

    def check(self, passes: list[Pass]) -> tuple[int, list[str]]:
        """``done == n_tasks`` and accuracies equal a dense NumPy 1-NN."""
        oracle = {}
        for directory in self.dataset_dirs:
            dataset = shards.ShardedDataset.open(directory)
            train = np.asarray(dataset.shard_series(0))
            train_labels = np.asarray(dataset.shard_labels(0))
            queries = np.concatenate(
                [np.asarray(dataset.shard_series(i)) for i in range(1, dataset.n_shards)]
            )
            labels = np.concatenate(
                [np.asarray(dataset.shard_labels(i)) for i in range(1, dataset.n_shards)]
            )
            distances = ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
            predicted = train_labels[np.argmin(distances, axis=1)]
            oracle[dataset.name] = float(np.mean(predicted == labels))
        expected_mean = float(np.mean(list(oracle.values())))
        failed = 0
        problems: list[str] = []
        for number, run in enumerate(passes):
            summary = run.output["summary"]
            missing = summary["n_tasks"] - summary["done"]
            wrong = sum(
                abs(run.output["accuracies"].get(name, -1.0) - accuracy) > 1e-12
                for name, accuracy in oracle.items()
            )
            failed += max(missing, 0) + wrong
            if missing or summary["failed"]:
                problems.append(f"pass {number}: done {summary['done']} of {summary['n_tasks']}")
            if wrong or abs(summary["mean_accuracy"] - expected_mean) > 1e-12:
                problems.append(
                    f"pass {number}: mean accuracy {summary['mean_accuracy']} != "
                    f"dense reference {expected_mean} ({wrong} datasets differ)"
                )
        return failed, problems


WORKLOADS = {cls.name: cls for cls in (Table1, ServingFleet, StreamSession, ArchiveSweep)}
