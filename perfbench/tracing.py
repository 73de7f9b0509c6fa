"""Span and counter recorder that times calls into the ``repro`` layers.

The benchmark traces from outside the program: :func:`install` replaces each
instrumented public function or method with a timing wrapper, and
:func:`uninstall` puts the originals back.  A function imported by name into
another module (``from repro.streaming.online import causal_znormalize_batch``)
is wrapped on every ``repro.*`` module that holds it, so each caller resolves
the wrapper, not only the defining module.

Spans are aggregated in memory per name: inclusive seconds, self seconds
(the span minus the part its traced child spans cover) and call count.  A
span re-entered under its own name (a ``super().fit`` call, an engine
delegating to its sweep) is timed once, by the outermost call.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

#: Span-name prefix -> the ``repro`` layer it belongs to.
LAYERS = ("data", "znorm", "distance", "classifiers", "streaming", "serving", "runtime")


class Tracer:
    """In-memory totals of spans and counters."""

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: Seconds covered by spans that had no traced parent.
        self.top_level = 0.0
        self._stack: list[list] = []  # [name, seconds covered by children]

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_time.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``name`` is a string or ``name(args)``.

        ``after(tracer, args, result, seconds)`` runs once the span closed,
        to record counters derived from the call.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name(args) if callable(name) else name
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                self.inclusive[key] += seconds
                self.self_time[key] += seconds - frame[1]
                self.calls[key] += 1
                if stack:
                    stack[-1][1] += seconds
                else:
                    self.top_level += seconds
            if after is not None:
                after(self, args, result, seconds)
            return result

        return traced

    def counter(self, fn, record):
        """Wrap ``fn`` with a counter only (no span): ``record(tracer, args)``."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            record(self, args)
            return fn(*args, **kwargs)

        return counted


_ALGORITHM_KEYS = {
    "ECTSClassifier": "ects",
    "RelaxedECTSClassifier": "relaxed_ects",
    "ReliableEarlyClassifier": "reliable",
    "LDGReliableEarlyClassifier": "ldg",
}


def algorithm_key(classifier) -> str:
    """The Table 1 metric key of a classifier instance (``ects``, ``ldg``, ...)."""
    name = type(classifier).__name__
    if name == "EDSCClassifier":
        return f"edsc_{classifier.threshold_method}"
    return _ALGORITHM_KEYS[name]


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


def _after_rows(counter_name):
    def after(tracer, args, result, seconds):
        tracer.count(counter_name, _rows(args[0]))

    return after


def _after_prefix(tracer, args, result, seconds):
    tracer.count("distance.prefix_cells", int(result.size))


def _after_shard_read(tracer, args, result, seconds):
    tracer.count("data.shards.bytes_read", int(result.nbytes))


def _after_manifest_save(tracer, args, result, seconds):
    manifest = args[0]
    tracer.count(
        "runtime.manifest_bytes", os.path.getsize(manifest.run_dir / manifest.FILENAME)
    )


def _after_batch_predict(tracer, args, result, seconds):
    key = algorithm_key(args[0])
    tracer.count("classifiers.batch_rows", len(result))
    tracer.count(f"classifiers.{key}.predict_s", seconds)
    tracer.count(f"classifiers.{key}.rows", len(result))


def _count_partial(tracer, args):
    tracer.count(f"classifiers.{algorithm_key(args[0])}.partial_calls")


def _count_attempt(tracer, args):
    tracer.count("runtime.attempts")


class Installation:
    """The wrappers :func:`install` put in place, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.restore: list[tuple[object, str, object]] = []

    def function(self, module_name: str, attr: str, make) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapped = make(original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self.restore.append((module, key, original))

    def method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        setattr(cls, attr, wrapped)
        self.restore.append((cls, attr, original))


def install(tracer: Tracer) -> Installation:
    """Wrap every instrumented ``repro`` entry point with ``tracer``'s spans."""
    from repro.classifiers.base import BaseEarlyClassifier, ClassifierStream
    from repro.classifiers.ects import ECTSClassifier
    from repro.classifiers.edsc import EDSCClassifier
    from repro.classifiers.reliable import ReliableEarlyClassifier
    from repro.data.shards import ShardedDataset
    from repro.data.stream import StreamComposer
    from repro.distance.engine import PrefixDistanceEngine, PrefixSweep
    from repro.runtime.manifest import RunManifest
    from repro.serving.engine import ServingEngine
    from repro.serving.scheduler import BatchScheduler
    from repro.streaming.online import AlarmGate, StreamingSession

    # Load every module a workload calls into, so the binding scan below
    # finds the names they imported.
    import repro.experiments.table1  # noqa: F401
    import repro.runtime.sweep  # noqa: F401

    done = Installation()
    span = tracer.wrap

    def fit_name(args):
        return f"classifiers.{algorithm_key(args[0])}.fit"

    # repro.data
    for module_name, attr in (
        ("repro.data.gunpoint", "make_gunpoint_dataset"),
        ("repro.data.shards", "synthesize_sharded_archive"),
    ):
        done.function(module_name, attr, lambda fn: span(fn, "data.generate"))
    done.method(StreamComposer, "compose", lambda fn: span(fn, "data.generate"))
    done.method(ShardedDataset, "open", lambda fn: span(fn, "data.shards.read"))
    for attr in ("shard_series", "shard_labels"):
        done.method(
            ShardedDataset, attr, lambda fn: span(fn, "data.shards.read", _after_shard_read)
        )
    # repro.distance.znorm and the batched causal kernel
    done.function(
        "repro.distance.znorm",
        "znormalize",
        lambda fn: span(fn, "znorm", _after_rows("znorm.rows")),
    )
    done.function(
        "repro.streaming.online",
        "causal_znormalize_batch",
        lambda fn: span(fn, "znorm.causal_batch", _after_rows("znorm.causal_batch_rows")),
    )
    # repro.distance.engine
    done.function(
        "repro.distance.engine",
        "batch_prefix_distances",
        lambda fn: span(fn, "distance.prefix", _after_prefix),
    )
    for cls in (PrefixSweep, PrefixDistanceEngine):
        done.method(cls, "advance_to", lambda fn: span(fn, "distance.sweep_advance"))
    # repro.classifiers
    for cls in (ECTSClassifier, EDSCClassifier, ReliableEarlyClassifier):
        done.method(cls, "fit", lambda fn: span(fn, fit_name))
    done.method(
        ReliableEarlyClassifier,
        "predict_partial",
        lambda fn: tracer.counter(fn, _count_partial),
    )
    done.method(
        BaseEarlyClassifier,
        "predict_early_batch",
        lambda fn: span(fn, "classifiers.batch", _after_batch_predict),
    )
    done.method(ClassifierStream, "feed", lambda fn: span(fn, "classifiers.stream_feed"))
    # repro.streaming
    done.method(StreamingSession, "extend", lambda fn: span(fn, "streaming.extend"))
    done.method(AlarmGate, "confirm", lambda fn: span(fn, "streaming.gate"))
    # repro.serving
    done.method(ServingEngine, "push", lambda fn: span(fn, "serving.push"))
    done.method(ServingEngine, "flush", lambda fn: span(fn, "serving.flush"))
    done.method(BatchScheduler, "evaluate", lambda fn: span(fn, "serving.evaluate"))
    # repro.runtime
    done.function("repro.runtime.sweep", "run_sweep", lambda fn: span(fn, "runtime.sweep"))
    done.function(
        "repro.runtime.sweep", "sweep_one_dataset", lambda fn: span(fn, "runtime.task")
    )
    done.method(
        RunManifest,
        "save",
        lambda fn: span(fn, "runtime.manifest_save", _after_manifest_save),
    )
    done.method(RunManifest, "mark_running", lambda fn: tracer.counter(fn, _count_attempt))
    return done


def uninstall(done: Installation) -> None:
    """Put back every original :func:`install` replaced."""
    for owner, attr, original in reversed(done.restore):
        setattr(owner, attr, original)
    done.restore.clear()
