"""Throughput benchmark: batched multi-tenant serving vs. sequential sessions.

A fleet-shaped deployment: 1,000 GunPoint-monitoring streams of 300 samples
spread across four tenants sharing one engine-backed ECTS classifier
(checkpoint every 10 samples), stride-50 candidate windows, causal
normalisation -- the only honest mode a live system has.  The serving
engine ingests the fleet in interleaved chunks and coalesces completed
candidate windows across all streams and tenants into batched
``predict_early_batch`` calls; the reference drives one dedicated
:class:`~repro.streaming.online.StreamingSession` per stream, sequentially,
the way a naive deployment would.  Both run on the same window ledger and
batched classifier walk, so the ratio measures batching *across* streams
(1,024-row calls) against batching *within* one stream (a few rows per
call).  The reference is timed on a subset (it is the slow side by
construction), both sides as medians of 5 interleaved pairs, and the
speedup is asserted on samples-per-second throughput.  Alarm-level equivalence on a shared subset
is sanity-checked here; the dedicated suite in ``tests/test_serving.py``
pins it field by field.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.ects import ECTSClassifier
from repro.data.gunpoint import make_gunpoint_dataset
from repro.serving.engine import ServingEngine
from repro.serving.registry import ModelRegistry, TenantConfig
from repro.streaming.online import StreamingSession

N_STREAMS = 1_000
N_TENANTS = 4
STREAM_SAMPLES = 300
REFERENCE_STREAMS = 100
CHUNK = 150
STRIDE = 50
REQUIRED_SPEEDUP = 5.0


def _make_fleet():
    train, test = make_gunpoint_dataset(seed=7)
    labels = np.asarray(train.labels)
    picks = np.concatenate(
        [np.flatnonzero(labels == cls)[:10] for cls in train.classes]
    )
    classifier = ECTSClassifier(checkpoint_step=10).fit(
        train.series[picks], labels[picks]
    )
    rng = np.random.default_rng(3)
    streams = rng.normal(0.0, 1.0, size=(N_STREAMS, STREAM_SAMPLES))
    # Embed genuine exemplars in a seventh of the fleet so a realistic share
    # of candidates actually alarms (alarm routing is part of the hot path).
    exemplars = test.exemplars_of_class(test.classes[0])
    length = classifier.train_length_
    for index in range(0, N_STREAMS, 7):
        streams[index, 60 : 60 + length] = exemplars[index % exemplars.shape[0]]
    return classifier, streams


def _tenant_of(index: int) -> str:
    return f"tenant-{index % N_TENANTS}"


def _serve_fleet(classifier, streams) -> ServingEngine:
    config = TenantConfig(stride=STRIDE, normalization="causal")
    registry = ModelRegistry()
    for tenant in range(N_TENANTS):
        registry.register(f"tenant-{tenant}", classifier, config)
    engine = ServingEngine(registry, batch_size=1024)
    for offset in range(0, STREAM_SAMPLES, CHUNK):
        for index in range(streams.shape[0]):
            engine.push(
                _tenant_of(index), index, streams[index, offset : offset + CHUNK]
            )
        engine.flush()
    return engine


def _sequential_sessions(classifier, streams, config):
    per_stream = []
    for values in streams:
        session = StreamingSession(
            classifier,
            stride=config.stride,
            normalization=config.normalization,
            refractory=config.refractory,
        )
        session.extend(values)
        per_stream.append(session.finalize())
    return per_stream


def test_bench_serving_engine_speedup(run_once, bench_metrics, interleaved_medians):
    classifier, streams = _make_fleet()
    config = TenantConfig(stride=STRIDE, normalization="causal").resolve(classifier)

    reference_seconds, engine_seconds, reference_alarms, engine = interleaved_medians(
        lambda: _sequential_sessions(classifier, streams[:REFERENCE_STREAMS], config),
        lambda: _serve_fleet(classifier, streams),
    )
    run_once(_serve_fleet, classifier, streams)

    # Sanity on the shared subset: identical alarm positions and labels
    # (tests/test_serving.py pins full field-by-field equivalence).
    for index in range(REFERENCE_STREAMS):
        served = engine.finalize_stream(_tenant_of(index), index)
        expected = reference_alarms[index]
        assert [a.position for a in served] == [a.position for a in expected]
        assert [a.label for a in served] == [a.label for a in expected]
    snapshot = engine.metrics()
    assert snapshot.alarms_emitted > 0
    assert snapshot.chunks_shed == 0

    reference_sps = REFERENCE_STREAMS * STREAM_SAMPLES / reference_seconds
    engine_sps = N_STREAMS * STREAM_SAMPLES / engine_seconds
    speedup = engine_sps / reference_sps
    bench_metrics.update(
        speedup=speedup,
        reference_samples_per_s=reference_sps,
        engine_samples_per_s=engine_sps,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP:.0f}x serving throughput, measured "
        f"{speedup:.1f}x (sequential sessions {reference_sps:,.0f} samples/s "
        f"over {REFERENCE_STREAMS} streams, batched engine "
        f"{engine_sps:,.0f} samples/s over {N_STREAMS:,} streams; medians "
        "of 5 interleaved pairs)"
    )
