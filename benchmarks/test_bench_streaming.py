"""Throughput benchmark: offline reference loop vs. the online engine.

An Appendix-B-shaped deployment -- GunPoint-length (150-sample) candidate
windows sliding over a long smoothed-random-walk stream with genuine
exemplars embedded, causal normalisation (the only honest mode a live system
has) and an engine-backed ECTS classifier.  The offline reference
(``tests/oracles/streaming.py``) re-normalises every window with an
``O(L^2)`` Python loop and re-runs ``predict_early`` from scratch per
candidate; the online engine normalises and classifies each chunk's
completed windows in batches.  The reference is timed on a slice of the
stream (it is the slow side by construction), the engine on the full
100k-sample stream, and the speedup is asserted on the samples/second
throughput.
"""

from __future__ import annotations

import time

import numpy as np

from repro.classifiers.ects import ECTSClassifier
from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.random_walk import random_walk_background
from repro.data.stream import StreamComposer
from repro.streaming.detector import StreamingEarlyDetector

from oracles.streaming import detect_reference

STREAM_SAMPLES = 100_000
REFERENCE_SAMPLES = 10_000
STRIDE = 50
REQUIRED_SPEEDUP = 5.0


def _make_deployment():
    train, test = make_gunpoint_dataset(seed=7)
    labels = np.asarray(train.labels)
    picks = np.concatenate(
        [np.flatnonzero(labels == cls)[:10] for cls in train.classes]
    )
    # Snapshot-style checkpoint cadence (one evaluation every 10 samples, ~15
    # per window -- the TEASER-like deployment configuration); the per-
    # checkpoint classifier work is identical on both sides by equivalence,
    # so the measured gap is the engine's genuine orchestration win.
    classifier = ECTSClassifier(checkpoint_step=10).fit(train.series[picks], labels[picks])
    composer = StreamComposer(
        background=random_walk_background(smoothing=16, step_scale=0.3),
        gap_range=(2_000, 6_000),
        level_match=True,
        seed=17,
    )
    exemplars = test.exemplars_of_class(test.classes[0])
    n_events = max(STREAM_SAMPLES // 4_000, 1)
    stream = composer.compose(
        [exemplars[i % exemplars.shape[0]] for i in range(n_events)],
        [test.classes[0]] * n_events,
        name="bench-streaming",
    )
    values = stream.values
    if values.shape[0] < STREAM_SAMPLES:
        values = np.tile(values, STREAM_SAMPLES // values.shape[0] + 1)
    values = values[:STREAM_SAMPLES]
    detector = StreamingEarlyDetector(
        classifier, stride=STRIDE, normalization="causal", max_alarms=1_000_000
    )
    return detector, values


def test_bench_streaming_engine_speedup(run_once, bench_metrics):
    detector, values = _make_deployment()
    reference_slice = values[:REFERENCE_SAMPLES]

    started = time.perf_counter()
    reference_alarms = detect_reference(detector, reference_slice)
    reference_seconds = time.perf_counter() - started

    # Best of two engine passes: guards the timing assertion against a
    # one-off scheduler hiccup on the fast side (noise on the slow reference
    # side only widens the measured gap).  The second pass doubles as the
    # recorded harness-log entry, so no extra pass is spent on book-keeping.
    started = time.perf_counter()
    engine_alarms = detector.detect(values)
    engine_seconds = time.perf_counter() - started
    started = time.perf_counter()
    run_once(detector.detect, values)
    engine_seconds = min(engine_seconds, time.perf_counter() - started)

    # Sanity: on the shared slice the engine reproduces the reference alarms
    # (the dedicated equivalence suite pins this field by field).
    engine_slice_alarms = detector.detect(reference_slice)
    assert [a.position for a in engine_slice_alarms] == [a.position for a in reference_alarms]
    assert [a.label for a in engine_slice_alarms] == [a.label for a in reference_alarms]
    assert len(engine_alarms) >= len(reference_alarms)

    reference_sps = REFERENCE_SAMPLES / reference_seconds
    engine_sps = STREAM_SAMPLES / engine_seconds
    speedup = engine_sps / reference_sps
    bench_metrics.update(
        speedup=speedup,
        reference_samples_per_s=reference_sps,
        engine_samples_per_s=engine_sps,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP:.0f}x streaming throughput, measured "
        f"{speedup:.1f}x (reference {reference_sps:,.0f} samples/s over "
        f"{REFERENCE_SAMPLES:,} samples, engine {engine_sps:,.0f} samples/s "
        f"over {STREAM_SAMPLES:,} samples)"
    )
