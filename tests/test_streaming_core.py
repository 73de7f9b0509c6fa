"""The shared streaming core against the independent offline oracle.

:class:`~repro.streaming.online.StreamingSession` and
:class:`~repro.serving.engine.ServingEngine` run on one
:class:`~repro.streaming.online.WindowLedger`, so their agreement with each
other no longer shows either is right.  These tests pin both to the
materialise-slice-re-predict loop in ``tests/oracles/streaming.py``, and pin
the core's memory and saturation bounds.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.classifiers.ects import ECTSClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.random_walk import random_walk_background
from repro.data.stream import StreamComposer
from repro.data.ucr_like import make_multichannel_cbf_dataset
from repro.distance.znorm import znormalize
from repro.serving import ModelRegistry, ServingEngine, TenantConfig
from repro.streaming.detector import StreamingEarlyDetector
from repro.streaming.online import _WINDOW_BLOCK, Alarm, StreamingSession

from oracles.streaming import detect_reference
from oracles.walk import predict_early_reference
from tests.test_multichannel import _naive_causal_znorm
from tests.test_serving import _interleaved_push
from tests.test_streaming_online import assert_alarms_equivalent

BUMP_LENGTH = 30


def _bump(sign: float) -> np.ndarray:
    t = np.arange(BUMP_LENGTH, dtype=float)
    return sign * np.exp(-0.5 * ((t - 10.0) / 3.0) ** 2)


@pytest.fixture(scope="module")
def bump_classifier():
    """A probability-threshold model on 12 length-30 exemplars: "a" up, "b" down."""
    rng = np.random.default_rng(0)
    series = np.vstack(
        [_bump(sign) + 0.05 * rng.standard_normal(BUMP_LENGTH) for sign in [1.0] * 6 + [-1.0] * 6]
    )
    model = ProbabilityThresholdClassifier(threshold=0.85, min_length=6, checkpoint_step=2)
    return model.fit(series, ["a"] * 6 + ["b"] * 6)


@pytest.fixture(scope="module")
def bump_stream():
    """257 samples of low noise with three exemplars embedded."""
    rng = np.random.default_rng(3)
    values = 0.05 * rng.standard_normal(257)
    for offset, sign in ((20, 1.0), (126, -1.0), (190, 1.0)):
        values[offset : offset + BUMP_LENGTH] += _bump(sign)
    return values


@pytest.fixture(scope="module")
def ects_classifier(tiny_two_class):
    series, labels = tiny_two_class
    return ECTSClassifier(min_support=0.0, checkpoint_step=4).fit(series, labels)


def _session_alarms(classifier, values, chunk, **settings):
    """Alarms a session confirms chunk by chunk, plus whatever finalize adds."""
    session = StreamingSession(classifier, **settings)
    emitted = []
    for offset in range(0, values.shape[0], chunk):
        emitted.extend(session.extend(values[offset : offset + chunk]))
    assert session.finalize() == emitted
    return emitted


def test_stream_session_workload_matches_oracle():
    """The perfbench ``stream-session`` configuration on a 10k-sample stream.

    ECTS with checkpoint step 10 on 10 GunPoint exemplars per class, stride
    50, causal normalisation, 256-sample chunks, a smoothed random walk
    with GunPoint exemplars embedded.
    """
    train, test = make_gunpoint_dataset(seed=7)
    labels = np.asarray(train.labels)
    picks = np.concatenate([np.flatnonzero(labels == cls)[:10] for cls in train.classes])
    model = ECTSClassifier(checkpoint_step=10).fit(train.series[picks], labels[picks])
    exemplars = test.exemplars_of_class(test.classes[0])
    composer = StreamComposer(
        background=random_walk_background(smoothing=16, step_scale=0.3),
        gap_range=(400, 1_200),
        level_match=True,
        seed=5,
    )
    stream = composer.compose(
        [exemplars[i % exemplars.shape[0]] for i in range(12)],
        [test.classes[0]] * 12,
    )
    values = stream.values[:10_000]
    assert values.shape[0] == 10_000
    settings = dict(stride=50, normalization="causal", max_alarms=1_000_000)
    reference = detect_reference(StreamingEarlyDetector(model, **settings), values)
    assert reference
    assert_alarms_equivalent(reference, _session_alarms(model, values, 256, **settings))


@pytest.mark.parametrize("normalization", ["none", "window", "causal"])
def test_engine_matches_oracle_across_two_tenants(
    bump_classifier, ects_classifier, tiny_two_class, normalization
):
    """Interleaved chunks of two tenants' streams, each against the oracle."""
    series, _ = tiny_two_class
    models = {"acme": bump_classifier, "globex": ects_classifier}
    config = TenantConfig(stride=3, normalization=normalization, refractory=5)
    registry = ModelRegistry()
    for tenant, model in models.items():
        registry.register(tenant, model, config)
    engine = ServingEngine(registry)
    rng = np.random.default_rng(21)
    streams = {}
    for tenant, model in models.items():
        length = model.train_length_
        for stream_id in range(3):
            values = 0.05 * rng.standard_normal(int(rng.integers(150, 300)))
            for offset in range(10, values.shape[0] - length, 70):
                values[offset : offset + length] += (
                    _bump(float(rng.choice([-1.0, 1.0])))
                    if length == BUMP_LENGTH
                    else series[int(rng.integers(series.shape[0]))]
                )
            streams[(tenant, stream_id)] = values
    _interleaved_push(engine, streams, seed=13)
    n_alarms = 0
    for key, values in streams.items():
        served = engine.finalize_stream(*key)
        model = models[key[0]]
        resolved = config.resolve(model)
        detector = StreamingEarlyDetector(
            model,
            stride=resolved.stride,
            normalization=normalization,
            refractory=resolved.refractory,
        )
        assert_alarms_equivalent(detect_reference(detector, values), served)
        n_alarms += len(served)
    assert n_alarms > 0


@pytest.mark.parametrize("extra", [BUMP_LENGTH + 7, 2 * BUMP_LENGTH + 3])
@pytest.mark.parametrize("chunk", [10, 25, 64])
def test_strides_longer_than_the_window(bump_classifier, bump_stream, extra, chunk):
    """Windows keep their offsets when the cursor overtakes the buffered samples."""
    settings = dict(stride=extra, normalization="none", refractory=0)
    reference = detect_reference(
        StreamingEarlyDetector(bump_classifier, **settings), bump_stream
    )
    assert reference
    assert_alarms_equivalent(
        reference, _session_alarms(bump_classifier, bump_stream, chunk, **settings)
    )

    registry = ModelRegistry()
    registry.register("t", bump_classifier, TenantConfig(**settings))
    engine = ServingEngine(registry)
    for offset in range(0, bump_stream.shape[0], chunk):
        engine.push("t", "s", bump_stream[offset : offset + chunk])
        engine.flush()
    assert_alarms_equivalent(reference, engine.finalize_stream("t", "s"))


@pytest.fixture(scope="module")
def multichannel_problem():
    """A 3-channel ECTS model and a stream of exemplars between noise gaps."""
    dataset = make_multichannel_cbf_dataset(n_per_class=6, length=48, n_channels=3)
    model = ECTSClassifier(min_support=0.0, checkpoint_step=4)
    model.fit(dataset.series, dataset.labels)
    rng = np.random.default_rng(6)
    parts = []
    for index in rng.integers(0, dataset.series.shape[0], size=5):
        parts.append(0.3 * rng.standard_normal((int(rng.integers(5, 40)), 3)))
        parts.append(dataset.series[index])
    return model, np.concatenate(parts)


def _per_window_alarms(model, values, normalization, stride, refractory):
    """Slice every ``(L, d)`` window, normalise it per channel, predict it."""
    prepare = {
        "none": lambda window: window,
        "window": lambda window: znormalize(window[None])[0],
        "causal": _naive_causal_znorm,
    }[normalization]
    length = model.train_length_
    expected: list[Alarm] = []
    last_position = -np.inf
    for start in range(0, values.shape[0] - length + 1, stride):
        outcome = predict_early_reference(model, prepare(values[start : start + length]))
        position = start + outcome.trigger_length - 1
        if outcome.triggered and position - last_position >= refractory:
            expected.append(
                Alarm(position, start, outcome.label, outcome.confidence, outcome.trigger_length)
            )
            last_position = position
    return expected


@pytest.mark.parametrize("normalization", ["none", "window", "causal"])
def test_multichannel_session_matches_per_window_loop(multichannel_problem, normalization):
    """``(L, d)`` windows are stacked, normalised per channel and classified."""
    model, values = multichannel_problem
    stride, refractory = 3, 6
    expected = _per_window_alarms(model, values, normalization, stride, refractory)
    assert expected
    got = _session_alarms(
        model, values, 37, stride=stride, normalization=normalization, refractory=refractory
    )
    assert_alarms_equivalent(expected, got)


@pytest.mark.parametrize("normalization", ["none", "window", "causal"])
def test_multichannel_detector_matches_session_and_per_window_loop(
    multichannel_problem, normalization
):
    """``detect`` runs an ``(n, d)`` stream like the session it delegates to."""
    model, values = multichannel_problem
    settings = {"stride": 3, "normalization": normalization, "refractory": 6}
    detected = StreamingEarlyDetector(model, **settings).detect(values)
    session = StreamingSession(model, **settings)
    session.extend(values)
    assert detected == session.finalize()
    expected = _per_window_alarms(model, values, normalization, 3, 6)
    assert expected
    assert_alarms_equivalent(expected, detected)


def test_one_long_extend_peaks_at_one_block_of_windows(ects_classifier):
    """A stride-1 extend holds one block of windows at a time, not all of them."""
    length = ects_classifier.train_length_
    values = np.random.default_rng(2).standard_normal(20_000)
    # The refractory period spans the stream, so at most one alarm is kept.
    settings = dict(stride=1, normalization="causal", refractory=values.shape[0])
    # Warm up lazily built classifier state outside the measurement.
    StreamingSession(ects_classifier, **settings).extend(values[: 2 * length])
    session = StreamingSession(ects_classifier, **settings)
    tracemalloc.start()
    try:
        session.extend(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_windows = values.shape[0] - length + 1
    window_bytes = length * values.itemsize
    assert session.n_samples == values.shape[0]
    # The buffered chunk plus a dozen blocks' worth of temporaries...
    assert peak < 2 * values.nbytes + 12 * _WINDOW_BLOCK * window_bytes
    # ...which is a small fraction of materialising every window at once.
    assert peak < n_windows * window_bytes / 4


def test_window_mode_retains_only_the_tail(tiny_two_class):
    """After 1M window-mode samples the session holds well under 1 MB."""
    series, labels = tiny_two_class
    # threshold=1.0 never triggers, so no alarms accumulate either.
    model = ProbabilityThresholdClassifier(threshold=1.0, min_length=6, checkpoint_step=2)
    model.fit(series, labels)
    session = StreamingSession(model, stride=1_000, normalization="window")
    rng = np.random.default_rng(8)
    session.extend(rng.standard_normal(4_096))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(244):
            session.extend(rng.standard_normal(4_096))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert session.n_samples == 245 * 4_096 > 1_000_000
    assert retained < 1_000_000


def test_saturation_stops_evaluation_within_one_block(bump_classifier, monkeypatch):
    """With ``max_alarms=1`` at most one block is evaluated past the alarm."""
    stride = 2
    t = np.arange(100_000, dtype=float)
    values = np.exp(-0.5 * (((t % 40) - 12.0) / 3.0) ** 2)
    rows: list[int] = []
    evaluate = bump_classifier.predict_early_batch

    def counting(windows, *args, **kwargs):
        rows.append(len(windows))
        return evaluate(windows, *args, **kwargs)

    monkeypatch.setattr(bump_classifier, "predict_early_batch", counting)
    session = StreamingSession(
        bump_classifier, stride=stride, normalization="none", refractory=0, max_alarms=1
    )
    for offset in range(0, values.shape[0], 8_192):
        session.extend(values[offset : offset + 8_192])
    (alarm,) = session.finalize()
    through_alarm = alarm.candidate_start // stride + 1
    assert sum(rows) - through_alarm < _WINDOW_BLOCK
    assert session.export_state().saturated
    assert session.n_open_candidates == 0
    assert session.n_samples == values.shape[0]


def test_streaming_imports_leave_scipy_stats_unloaded():
    """``scipy.stats`` costs ~45 MB of RSS and nothing here needs it."""
    source = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(source)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys\n"
        "import repro.streaming, repro.serving, repro.evaluation, repro.experiments\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
