"""Equivalence-first test harness for the multi-tenant serving layer.

The load-bearing guarantee: for every admitted stream,
:class:`repro.serving.engine.ServingEngine` -- which defers all classifier
work to window completion and batches it across streams and tenants --
produces the *identical* alarm list to a dedicated per-stream
:class:`repro.streaming.online.StreamingSession` fed the same samples
(exact ``position``/``candidate_start``/``label``/``prefix_length``,
confidence to 1e-10), across classifiers, normalisation modes, refractory
settings, saturation and interleaved chunk-arrival orders.

On top of the equivalence suite: a seeded fuzz of push/flush/finalize/evict
interleavings asserting the cross-tenant isolation and bookkeeping
invariants, deterministic load-shedding/backpressure unit tests, registry
fingerprinting/warm-reload tests, and the duplicate-stream-id guards on the
evaluation helpers.
"""

import numpy as np
import pytest

from repro.classifiers.ects import ECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.classifiers.reliable import ReliableEarlyClassifier
from repro.classifiers.teaser import TEASERClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.ucr_like import make_multichannel_cbf_dataset
from repro.evaluation.earliness import evaluate_early_classifier
from repro.runtime.cache import PrepareCache
from repro.serving import (
    ModelRegistry,
    ServingEngine,
    TenantConfig,
    fit_fingerprint,
)
from repro.streaming.online import StreamingSession, normalize_windows

from tests.test_classifiers_reliable import FAST as RELIABLE_FAST
from tests.test_streaming_online import assert_alarms_equivalent


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def threshold_classifier(tiny_two_class):
    series, labels = tiny_two_class
    model = ProbabilityThresholdClassifier(threshold=0.85, min_length=6, checkpoint_step=2)
    return model.fit(series, labels)


@pytest.fixture(scope="module")
def ects_classifier(tiny_two_class):
    series, labels = tiny_two_class
    return ECTSClassifier(min_support=0.0, checkpoint_step=4).fit(series, labels)


@pytest.fixture(scope="module")
def edsc_classifier(tiny_two_class):
    series, labels = tiny_two_class
    return EDSCClassifier(threshold_method="che").fit(series, labels)


@pytest.fixture(scope="module")
def teaser_classifier(tiny_two_class):
    series, labels = tiny_two_class
    return TEASERClassifier(n_checkpoints=8).fit(series, labels)


@pytest.fixture(scope="module")
def reliable_classifier(gunpoint_small):
    # GunPoint rather than the toy problem: its Monte Carlo reliabilities
    # sit near the threshold, so alarms depend on the draws.
    train, _ = gunpoint_small
    return ReliableEarlyClassifier(**RELIABLE_FAST).fit(train.series, train.labels)


def _make_streams(rng, keys, low=80, high=260, loc=0.3, scale=1.0):
    """One random-length stream per (tenant, stream_id) key."""
    return {
        key: rng.normal(loc, scale, size=int(rng.integers(low, high)))
        for key in keys
    }


def _session_reference(classifier, values, config):
    """What a dedicated per-stream session produces for the same samples."""
    session = StreamingSession(
        classifier,
        stride=config.stride,
        normalization=config.normalization,
        refractory=config.refractory,
        max_alarms=config.max_alarms,
    )
    session.extend(values)
    return session.finalize()


def _interleaved_push(engine, streams, seed, flush_probability=0.3, max_chunk=50):
    """Feed every stream to the engine in a randomised chunk interleaving."""
    order = list(streams)
    offsets = dict.fromkeys(order, 0)
    rng = np.random.default_rng(seed)
    while any(offsets[key] < streams[key].size for key in order):
        key = order[int(rng.integers(len(order)))]
        if offsets[key] >= streams[key].size:
            continue
        n = int(rng.integers(1, max_chunk))
        tenant, stream_id = key
        engine.push(tenant, stream_id, streams[key][offsets[key] : offsets[key] + n])
        offsets[key] += n
        if rng.random() < flush_probability:
            engine.flush()


# --------------------------------------------------------------------------
# the equivalence suite
# --------------------------------------------------------------------------


@pytest.mark.parametrize("normalization", ["none", "window", "causal"])
@pytest.mark.parametrize("refractory", [0, 25])
def test_engine_matches_per_stream_sessions(
    threshold_classifier, ects_classifier, edsc_classifier, normalization, refractory
):
    """Batched multi-tenant alarms == per-stream session alarms, field by field.

    Two tenants share one model (so the scheduler genuinely coalesces them
    into one batch), two more run different classifiers; chunks arrive
    interleaved with random sizes and mid-stream flushes.  Serving flushes
    take each classifier's batched walk, sessions its per-row walk.
    """
    config = TenantConfig(stride=7, normalization=normalization, refractory=refractory)
    models = {
        "acme": threshold_classifier,
        "globex": threshold_classifier,
        "initech": ects_classifier,
        "hooli": edsc_classifier,
    }
    registry = ModelRegistry()
    for tenant, model in models.items():
        registry.register(tenant, model, config)
    engine = ServingEngine(registry)

    rng = np.random.default_rng(11)
    keys = [(tenant, s) for tenant in models for s in range(5)]
    streams = _make_streams(rng, keys)
    _interleaved_push(engine, streams, seed=23)
    served = {key: engine.finalize_stream(*key) for key in streams}

    for key, values in streams.items():
        model = models[key[0]]
        reference = _session_reference(model, values, config.resolve(model))
        assert_alarms_equivalent(reference, served[key])


def test_engine_matches_sessions_for_stateful_trigger(teaser_classifier):
    """TEASER's streak trigger rule survives the deferred-batch execution."""
    config = TenantConfig(stride=9, normalization="causal").resolve(teaser_classifier)
    registry = ModelRegistry()
    registry.register("t", teaser_classifier, config)
    engine = ServingEngine(registry)
    rng = np.random.default_rng(5)
    streams = _make_streams(rng, [("t", s) for s in range(4)], loc=0.8)
    _interleaved_push(engine, streams, seed=8)
    for key, values in streams.items():
        assert_alarms_equivalent(
            _session_reference(teaser_classifier, values, config),
            engine.finalize_stream(*key),
        )


@pytest.mark.parametrize("normalization", ["none", "causal"])
def test_tenants_sharing_a_reliable_model_match_sessions(
    reliable_classifier, gunpoint_small, normalization
):
    """Monte Carlo alarms do not depend on the other tenant's traffic.

    Two tenants share one Reliable model, so every flush batches their
    windows together; each stream's alarms must still equal a dedicated
    session's, which evaluates the same windows one prefix at a time.
    With no refractory period every triggered window is an alarm.
    """
    config = TenantConfig(stride=5, normalization=normalization, refractory=0)
    registry = ModelRegistry()
    registry.register("acme", reliable_classifier, config)
    registry.register("globex", reliable_classifier, config)
    engine = ServingEngine(registry)
    rng = np.random.default_rng(17)
    exemplars = gunpoint_small[1].series
    streams = {}
    for key in [(tenant, s) for tenant in ("acme", "globex") for s in range(2)]:
        # Three noisy GunPoint exemplars separated by short noise gaps.
        parts = []
        for index in rng.integers(0, exemplars.shape[0], size=3):
            parts.append(0.3 * rng.standard_normal(int(rng.integers(5, 30))))
            parts.append(exemplars[index] + 0.1 * rng.standard_normal(exemplars.shape[1]))
        streams[key] = np.concatenate(parts)
    _interleaved_push(engine, streams, seed=4)
    resolved = config.resolve(reliable_classifier)
    n_alarms = 0
    for key, values in streams.items():
        served = engine.finalize_stream(*key)
        assert_alarms_equivalent(
            _session_reference(reliable_classifier, values, resolved), served
        )
        n_alarms += len(served)
    assert n_alarms > 0


def test_arrival_order_does_not_change_alarms(threshold_classifier):
    """The same streams under different interleavings emit identical alarms."""
    config = TenantConfig(stride=6, normalization="causal")
    rng = np.random.default_rng(2)
    keys = [("a", s) for s in range(4)] + [("b", s) for s in range(4)]
    streams = _make_streams(rng, keys)

    results = []
    for seed in (1, 2, 3):
        registry = ModelRegistry()
        registry.register("a", threshold_classifier, config)
        registry.register("b", threshold_classifier, config)
        engine = ServingEngine(registry)
        _interleaved_push(engine, streams, seed=seed, flush_probability=0.5)
        results.append({key: engine.finalize_stream(*key) for key in streams})
    for other in results[1:]:
        for key in streams:
            assert_alarms_equivalent(results[0][key], other[key])


def test_saturation_matches_session(threshold_classifier):
    """max_alarms saturation: the engine stops exactly where a session stops."""
    config = TenantConfig(stride=5, normalization="none", refractory=0, max_alarms=3)
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, config)
    engine = ServingEngine(registry)
    # A stream that triggers on every candidate: an endless "up" bump train.
    rng = np.random.default_rng(1)
    t = np.arange(400, dtype=float)
    values = np.exp(-0.5 * (((t % 40) - 12.0) / 3.0) ** 2) + 0.05 * rng.standard_normal(400)
    for offset in range(0, 400, 37):
        engine.push("t", "s", values[offset : offset + 37])
        engine.flush()
    served = engine.finalize_stream("t", "s")
    reference = _session_reference(
        threshold_classifier, values, config.resolve(threshold_classifier)
    )
    assert len(reference) == 3
    assert_alarms_equivalent(reference, served)
    # Saturated streams keep accepting (and counting) samples silently.
    assert engine.metrics().alarms_emitted == 3


def test_stream_state_mirrors_session_export(threshold_classifier):
    """The engine's stream snapshot matches a session's exported state."""
    config = TenantConfig(stride=7, normalization="causal").resolve(threshold_classifier)
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, config)
    engine = ServingEngine(registry)
    session = StreamingSession(
        threshold_classifier,
        stride=config.stride,
        normalization=config.normalization,
        refractory=config.refractory,
    )
    values = np.random.default_rng(4).normal(size=95)
    engine.push("t", "s", values)
    engine.flush()
    session.extend(values)
    state = engine.stream_state("t", "s")
    reference = session.export_state()
    assert state.n_samples == reference.n_samples
    assert state.open_candidate_starts == reference.open_candidate_starts
    assert state.n_alarms == reference.n_alarms
    assert state.saturated == reference.saturated


# --------------------------------------------------------------------------
# fuzz: interleaved multi-tenant lifecycles
# --------------------------------------------------------------------------


def test_fuzzed_lifecycles_preserve_invariants(threshold_classifier, ects_classifier):
    """Random push/flush/finalize/evict interleavings keep every invariant.

    Invariants checked after every random operation and at the end:

    * no cross-tenant leakage -- each finalized stream's alarms equal its
      own dedicated session's alarms, regardless of what other tenants did;
    * monotone progress -- a stream's sample count and alarm count never
      decrease, and its alarms are confirmed in candidate-start order;
    * shed streams never emit another alarm after the shed point;
    * the candidate accounting identity ``enqueued == pending + evaluated +
      discarded`` holds per tenant, with ``queue_depth == sum(pending)``.
    """
    rng = np.random.default_rng(99)
    tenants = {
        "acme": (threshold_classifier, TenantConfig(stride=6, normalization="causal")),
        "globex": (threshold_classifier, TenantConfig(stride=9, normalization="none", refractory=0)),
        "initech": (ects_classifier, TenantConfig(stride=11, normalization="window")),
    }
    registry = ModelRegistry()
    for tenant, (model, config) in tenants.items():
        registry.register(tenant, model, config)
    engine = ServingEngine(registry, max_pending=60)

    keys = [(tenant, s) for tenant in tenants for s in range(7)]
    streams = _make_streams(rng, keys, low=120, high=320)
    offsets = dict.fromkeys(keys, 0)
    finalized: dict = {}
    shed_alarm_counts: dict = {}
    last_counts: dict = {}
    evicted: set = set()
    delivered: list = []  # every ServedAlarm a flush() returned

    def check_invariants():
        snapshot = engine.metrics()
        assert snapshot.queue_depth <= snapshot.max_pending
        assert snapshot.queue_depth == snapshot.candidates_pending
        for tenant_slice in snapshot.tenants:
            assert tenant_slice.candidates_enqueued == (
                tenant_slice.candidates_pending
                + tenant_slice.candidates_evaluated
                + tenant_slice.candidates_discarded
            )
        for key in engine.streams():
            state = engine.stream_state(*key)
            previous_samples, previous_alarms = last_counts.get(key, (0, 0))
            assert state.n_samples >= previous_samples
            assert state.n_alarms >= previous_alarms
            last_counts[key] = (state.n_samples, state.n_alarms)
            if key in shed_alarm_counts:
                # A shed stream's alarm history is frozen at the shed point.
                assert state.n_alarms == shed_alarm_counts[key]
            starts = [a.candidate_start for a in engine.alarms(*key)]
            assert starts == sorted(starts)

    for _ in range(400):
        action = rng.random()
        if action < 0.62:
            key = keys[int(rng.integers(len(keys)))]
            tenant, stream_id = key
            if tenant in evicted or key in finalized or offsets[key] >= streams[key].size:
                continue
            before_shed = engine.metrics().chunks_shed
            n = int(rng.integers(1, 40))
            admitted = engine.push(tenant, stream_id, streams[key][offsets[key] : offsets[key] + n])
            if admitted == 0 and engine.metrics().chunks_shed > before_shed:
                shed_alarm_counts[key] = len(engine.alarms(*key))
            else:
                offsets[key] += admitted
        elif action < 0.85:
            delivered.extend(engine.flush())
        elif action < 0.97:
            open_keys = engine.streams()
            if open_keys:
                key = open_keys[int(rng.integers(len(open_keys)))]
                finalized[key] = engine.finalize_stream(*key)
        elif len(evicted) < 1 and rng.random() < 0.2:
            tenant = "globex"
            engine.evict_tenant(tenant)
            evicted.add(tenant)
        check_invariants()

    for key in engine.streams():
        finalized[key] = engine.finalize_stream(*key)
    delivered.extend(engine.flush())

    # Exactly-once delivery: a stream's alarms reach flush() in confirmation
    # order, and the rest of its finalize list are the alarms its own
    # finalize confirmed -- so every emitted alarm is accounted for once.
    by_stream: dict = {}
    for served in delivered:
        by_stream.setdefault((served.tenant, served.stream_id), []).append(served.alarm)
    own_finalize = 0
    for key, served in finalized.items():
        flushed = by_stream.get(key, [])
        assert served[: len(flushed)] == flushed
        own_finalize += len(served) - len(flushed)
    assert engine.metrics().alarms_emitted == len(delivered) + own_finalize

    # No cross-tenant leakage: every finalized, never-shed stream matches its
    # dedicated session on exactly the samples that were admitted.
    shed_keys = set(shed_alarm_counts)
    for key, served in finalized.items():
        tenant, _ = key
        if key in shed_keys:
            assert len(served) == shed_alarm_counts[key]
            continue
        model, config = tenants[tenant]
        reference = _session_reference(
            model, streams[key][: offsets[key]], config.resolve(model)
        )
        assert_alarms_equivalent(reference, served)


# --------------------------------------------------------------------------
# load shedding and backpressure
# --------------------------------------------------------------------------


def test_queue_depth_is_bounded_and_sheds_whole_chunks(threshold_classifier):
    """Admission never grows the queue past max_pending; drops are whole-chunk."""
    config = TenantConfig(stride=5, normalization="none")
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, config)
    engine = ServingEngine(registry, max_pending=4)

    values = np.random.default_rng(0).normal(size=300)
    admitted = engine.push("t", "a", values[:60])  # 5 candidates > 4 -> shed
    assert admitted == 0
    snapshot = engine.metrics()
    assert snapshot.chunks_shed == 1
    assert snapshot.streams_shed == 1
    assert snapshot.queue_depth == 0

    # A smaller chunk from another stream fits.
    assert engine.push("t", "b", values[:45]) == 45  # 2 candidates
    assert engine.metrics().queue_depth == 2
    # Now fill to the bound and overflow with a third stream.
    assert engine.push("t", "c", values[:45]) == 45
    assert engine.metrics().queue_depth == 4
    assert engine.push("t", "d", values[:60]) == 0
    snapshot = engine.metrics()
    assert snapshot.queue_depth == 4
    assert snapshot.chunks_shed == 2


def test_shed_counter_increments_exactly_once_per_dropped_chunk(threshold_classifier):
    """Every dropped chunk bumps chunks_shed by one, including post-shed pushes."""
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, TenantConfig(stride=5, normalization="none"))
    engine = ServingEngine(registry, max_pending=2)
    values = np.random.default_rng(0).normal(size=100)

    assert engine.push("t", "s", values) == 0  # overflows: dropped, stream shed
    assert engine.metrics().chunks_shed == 1
    # The producer keeps pushing before noticing backpressure: one count each.
    for expected in (2, 3, 4):
        assert engine.push("t", "s", values[:10]) == 0
        assert engine.metrics().chunks_shed == expected
    assert engine.metrics().streams_shed == 1  # the stream was shed once


def test_shed_streams_never_emit_stale_alarms(threshold_classifier, tiny_two_class):
    """Candidates queued before the shed point are discarded, not evaluated."""
    series, _ = tiny_two_class
    registry = ModelRegistry()
    registry.register(
        "t", threshold_classifier, TenantConfig(stride=5, normalization="none")
    )
    engine = ServingEngine(registry, max_pending=8)
    # An "up" exemplar triggers confidently; queue two alarm-worthy windows.
    trigger = np.tile(series[0], 2)
    assert engine.push("t", "s", trigger[:45]) > 0
    assert engine.metrics().queue_depth > 0
    # Overflow the queue from the same stream: the stream is shed with
    # alarm-worthy candidates still queued.
    engine.push("t", "other", trigger[:40])
    assert engine.push("t", "s", trigger[45:]) == 0
    alarms = engine.flush()
    assert all(served.stream_id != "s" for served in alarms)
    snapshot = engine.metrics()
    assert snapshot.tenants[0].candidates_discarded > 0
    assert engine.finalize_stream("t", "s") == []


def test_rejected_chunk_sheds_an_open_stream(threshold_classifier, tiny_two_class):
    """A rejected chunk is a gap: the stream closes instead of splicing over it."""
    series, _ = tiny_two_class
    config = TenantConfig(stride=5, normalization="none")
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, config)
    engine = ServingEngine(registry)
    values = np.tile(series[0], 6)
    first, rejected, last = values[:100], values[100:150].copy(), values[150:]
    rejected[7] = np.nan

    assert engine.push("t", "s", first) == 100
    engine.flush()
    # The bad chunk degrades its own stream without raising to the caller.
    assert engine.push("t", "s", rejected) == 0
    assert engine.push("t", "s", last) == 0
    engine.flush()
    reference = _session_reference(
        threshold_classifier, first, config.resolve(threshold_classifier)
    )
    assert reference
    assert_alarms_equivalent(reference, engine.alarms("t", "s"))
    snapshot = engine.metrics()
    assert (snapshot.streams_shed, snapshot.chunks_shed, snapshot.chunks_rejected) == (1, 2, 1)
    assert snapshot.tenants[0].chunks_rejected == 1
    assert snapshot.streams_open == 0


def test_metrics_snapshot_is_consistent_mid_flight(threshold_classifier):
    """A snapshot taken between pushes satisfies the accounting identity."""
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, TenantConfig(stride=5, normalization="none"))
    engine = ServingEngine(registry, max_pending=50)
    values = np.random.default_rng(0).normal(size=200)
    for offset in range(0, 200, 30):
        engine.push("t", "s", values[offset : offset + 30])
        snapshot = engine.metrics()
        assert snapshot.candidates_enqueued == (
            snapshot.candidates_pending
            + snapshot.candidates_evaluated
            + snapshot.candidates_discarded
        )
        assert snapshot.queue_depth == snapshot.candidates_pending
        assert snapshot.samples_ingested == min(offset + 30, 200)
    engine.flush()
    snapshot = engine.metrics()
    assert snapshot.candidates_pending == 0
    assert snapshot.candidates_evaluated == snapshot.candidates_enqueued


def test_alarm_latency_is_confirmation_lag(threshold_classifier, tiny_two_class):
    """mean_alarm_latency == mean(candidate_start + L - 1 - position)."""
    series, _ = tiny_two_class
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, TenantConfig(stride=40, normalization="none"))
    engine = ServingEngine(registry)
    engine.push("t", "s", np.tile(series[0], 3))
    engine.flush()
    alarms = engine.finalize_stream("t", "s")
    assert alarms
    length = threshold_classifier.train_length_
    expected = np.mean([a.candidate_start + length - 1 - a.position for a in alarms])
    latency = engine.metrics().tenants[0].mean_alarm_latency
    assert latency == pytest.approx(expected)


# --------------------------------------------------------------------------
# lifecycle and identity guards
# --------------------------------------------------------------------------


def test_finalized_stream_id_cannot_be_reused(threshold_classifier):
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, TenantConfig(stride=5))
    engine = ServingEngine(registry)
    engine.push("t", "s", np.zeros(10))
    engine.finalize_stream("t", "s")
    with pytest.raises(ValueError, match="must not be reused"):
        engine.push("t", "s", np.zeros(10))
    # The same id under another tenant is a different stream -- fine.
    registry.register("u", threshold_classifier, TenantConfig(stride=5))
    assert engine.push("u", "s", np.zeros(10)) == 10


@pytest.mark.parametrize("normalization", ["none", "window", "causal"])
@pytest.mark.parametrize("model", ["threshold", "ects"])
def test_finalize_keeps_other_streams_alarms_for_the_next_flush(
    threshold_classifier, ects_classifier, tiny_two_class, model, normalization
):
    """A finalize flush's alarms on other streams reach exactly one flush()."""
    series, _ = tiny_two_class
    classifier = {"threshold": threshold_classifier, "ects": ects_classifier}[model]
    config = TenantConfig(stride=10, normalization=normalization)
    registry = ModelRegistry()
    registry.register("t", classifier, config)
    engine = ServingEngine(registry)
    rng = np.random.default_rng(3)
    values = {
        stream: np.concatenate([series[index], rng.normal(0.0, 0.3, 90)])
        for stream, index in (("A", 0), ("B", 1))
    }
    for stream, chunk in values.items():
        engine.push("t", stream, chunk)  # no flush before the finalize

    finalized = engine.finalize_stream("t", "A")
    expected_b = engine.alarms("t", "B")
    assert finalized and expected_b
    assert engine.metrics().alarms_emitted == len(finalized) + len(expected_b)

    delivered = engine.flush()
    assert [(served.tenant, served.stream_id) for served in delivered] == [("t", "B")] * len(
        expected_b
    )
    assert [served.alarm for served in delivered] == expected_b
    assert engine.flush() == []
    reference = _session_reference(classifier, values["B"], config.resolve(classifier))
    assert_alarms_equivalent(reference, [served.alarm for served in delivered])


def test_undelivered_alarms_come_before_new_ones(threshold_classifier, tiny_two_class):
    series, _ = tiny_two_class
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, TenantConfig(stride=10, normalization="none"))
    engine = ServingEngine(registry)
    for stream in ("A", "B", "C"):
        engine.push("t", stream, series[0])
    engine.finalize_stream("t", "A")  # confirms B's and C's alarms
    stashed_b, stashed_c = engine.alarms("t", "B"), engine.alarms("t", "C")
    assert stashed_b and stashed_c
    engine.push("t", "B", series[0])
    delivered = engine.flush()
    alarms_b = [served.alarm for served in delivered if served.stream_id == "B"]
    assert [served.stream_id for served in delivered[: len(stashed_b) + len(stashed_c)]] == (
        ["B"] * len(stashed_b) + ["C"] * len(stashed_c)
    )
    assert alarms_b == engine.alarms("t", "B")
    assert alarms_b[: len(stashed_b)] == stashed_b


def test_evicted_tenant_discards_queued_work(threshold_classifier, tiny_two_class):
    series, _ = tiny_two_class
    registry = ModelRegistry()
    registry.register("t", threshold_classifier, TenantConfig(stride=5, normalization="none"))
    registry.register("u", threshold_classifier, TenantConfig(stride=5, normalization="none"))
    engine = ServingEngine(registry)
    engine.push("t", "s", np.tile(series[0], 2))
    engine.push("u", "s", np.tile(series[0], 2))
    assert engine.evict_tenant("t") == 1
    alarms = engine.flush()
    assert alarms and all(a.tenant == "u" for a in alarms)
    with pytest.raises(KeyError):
        engine.push("t", "s2", np.zeros(5))
    with pytest.raises(ValueError, match="must not be reused"):
        # The evicted tenant's ids stay retired even after re-registration.
        registry.register("t", threshold_classifier, TenantConfig(stride=5))
        engine.push("t", "s", np.zeros(5))


def test_unknown_tenant_and_stream_raise(threshold_classifier):
    registry = ModelRegistry()
    engine = ServingEngine(registry)
    with pytest.raises(KeyError, match="not registered"):
        engine.push("ghost", "s", np.zeros(5))
    registry.register("t", threshold_classifier)
    with pytest.raises(KeyError, match="no open stream"):
        engine.stream_state("t", "missing")
    with pytest.raises(ValueError, match="1-D"):
        engine.push("t", "s", np.zeros((3, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        engine.push("t", "u", np.asarray([1.0, np.nan, 2.0]))
    # A rejected first push opens no stream, and the id stays usable.
    assert engine.metrics().streams_open == 0
    assert engine.metrics().chunks_rejected == 0
    for stream_id in ("s", "u"):
        with pytest.raises(KeyError, match="no open stream"):
            engine.stream_state("t", stream_id)
    assert engine.push("t", "s", np.zeros(5)) == 5
    assert engine.metrics().streams_open == 1
    assert engine.stream_state("t", "s").n_samples == 5


@pytest.fixture(scope="module")
def peek_models(ects_classifier, threshold_classifier):
    """ECTS and the threshold model, fitted univariate and on three channels."""
    dataset = make_multichannel_cbf_dataset(n_per_class=6, length=40, n_channels=3)
    return {
        ("ects", 1): ects_classifier,
        ("threshold", 1): threshold_classifier,
        ("ects", 3): ECTSClassifier(min_support=0.0, checkpoint_step=4).fit(
            dataset.series, dataset.labels
        ),
        ("threshold", 3): ProbabilityThresholdClassifier(
            threshold=0.85, min_length=6, checkpoint_step=2
        ).fit(dataset.series, dataset.labels),
    }


@pytest.mark.parametrize("model", ["ects", "threshold"])
@pytest.mark.parametrize("n_channels", [1, 3])
@pytest.mark.parametrize("normalization", ["none", "window", "causal"])
def test_peek_answers_open_prefixes_without_mutating(
    peek_models, model, n_channels, normalization
):
    classifier = peek_models[(model, n_channels)]
    registry = ModelRegistry()
    registry.register("t", classifier, TenantConfig(stride=10, normalization=normalization))
    engine = ServingEngine(registry)
    rng = np.random.default_rng(6)
    shape = () if n_channels == 1 else (n_channels,)
    streams = {
        "a": rng.normal(size=(55, *shape)),
        "b": rng.normal(size=(73, *shape)),
    }
    for stream_id, values in streams.items():
        engine.push("t", stream_id, values)
    before = engine.metrics()
    states = {stream_id: engine.stream_state("t", stream_id) for stream_id in streams}
    partials = engine.peek("t")
    assert set(partials) == {"a", "b"}
    state_a = engine.stream_state("t", "a")
    assert partials["a"].prefix_length == min(
        state_a.n_samples - state_a.open_candidate_starts[0],
        classifier.train_length_,
    )
    after = engine.metrics()
    assert after == before  # observability only: no counters moved
    assert {stream_id: engine.stream_state("t", stream_id) for stream_id in streams} == states
    # Each peeked prefix agrees with predict_partial on the prefix normalised
    # in the tenant's mode -- peek applies the tenant's normalisation.
    for stream_id, values in streams.items():
        start = states[stream_id].open_candidate_starts[0]
        raw_prefix = values[start : start + classifier.train_length_]
        reference = classifier.predict_partial(
            normalize_windows(raw_prefix[None], normalization)[0]
        )
        partial = partials[stream_id]
        assert partial.label == reference.label
        assert partial.ready == reference.ready
        assert partial.prefix_length == reference.prefix_length
        assert partial.confidence == pytest.approx(reference.confidence, abs=1e-10)


# --------------------------------------------------------------------------
# registry: fingerprinting and warm reload
# --------------------------------------------------------------------------


def test_fit_fingerprint_is_content_addressed(tiny_two_class):
    series, labels = tiny_two_class
    base = fit_fingerprint("ECTS", {"min_support": 0.0, "min_length": 3}, series, labels)
    reordered = fit_fingerprint("ECTS", {"min_length": 3, "min_support": 0.0}, series, labels)
    assert base == reordered  # canonicalisation makes key order irrelevant
    base = fit_fingerprint("ECTS", {"min_support": 0.0}, series, labels)
    assert base == fit_fingerprint("ECTS", {"min_support": 0.0}, np.asarray(series, order="F"), labels)
    assert base != fit_fingerprint("ECTS", {"min_support": 0.1}, series, labels)
    assert base != fit_fingerprint("EDSC", {"min_support": 0.0}, series, labels)
    assert base != fit_fingerprint("ECTS", {"min_support": 0.0}, series * 2.0, labels)
    relabelled = list(labels[::-1])
    assert base != fit_fingerprint("ECTS", {"min_support": 0.0}, series, relabelled)


def test_registry_load_or_fit_reloads_warm(tmp_path, tiny_two_class):
    series, labels = tiny_two_class
    cache = PrepareCache(tmp_path / "cache")
    registry = ModelRegistry(cache=cache)
    entry = registry.load_or_fit(
        "t", ProbabilityThresholdClassifier, {"min_length": 6}, series, labels
    )
    assert not entry.warm and registry.cold_fits == 1

    # A new registry (a restarted process) reloads the same fit warm.
    restarted = ModelRegistry(cache=PrepareCache(tmp_path / "cache"))
    warm = restarted.load_or_fit(
        "t", ProbabilityThresholdClassifier, {"min_length": 6}, series, labels
    )
    assert warm.warm and restarted.cold_fits == 0 and restarted.warm_loads == 1
    assert warm.fingerprint == entry.fingerprint
    # The reloaded model serves identical predictions.
    outcome = warm.classifier.predict_early(series[0])
    reference = entry.classifier.predict_early(series[0])
    assert outcome.label == reference.label
    assert outcome.confidence == pytest.approx(reference.confidence)

    # A changed fit config is a different fingerprint: refits cold.
    changed = restarted.load_or_fit(
        "t", ProbabilityThresholdClassifier, {"min_length": 8}, series, labels
    )
    assert not changed.warm and restarted.cold_fits == 1
    assert changed.fingerprint != entry.fingerprint


def test_registry_register_is_idempotent_per_fingerprint(threshold_classifier):
    registry = ModelRegistry()
    first = registry.register("t", threshold_classifier, fingerprint="abc")
    assert registry.register("t", threshold_classifier, fingerprint="abc") is first
    replaced = registry.register("t", threshold_classifier, fingerprint="xyz")
    assert replaced is not first
    with pytest.raises(ValueError, match="fitted"):
        registry.register("u", ProbabilityThresholdClassifier())
    with pytest.raises(KeyError, match="not registered"):
        registry.get("ghost")
    assert registry.tenants() == ["t"]
    registry.evict("t")
    assert "t" not in registry


def test_tenant_config_resolves_session_defaults(threshold_classifier):
    resolved = TenantConfig().resolve(threshold_classifier)
    probe = StreamingSession(threshold_classifier)
    assert resolved.stride == probe.stride
    assert resolved.refractory == probe.refractory
    with pytest.raises(ValueError, match="stride"):
        TenantConfig(stride=0).resolve(threshold_classifier)
    with pytest.raises(ValueError, match="normalization"):
        TenantConfig(normalization="bogus").resolve(threshold_classifier)


# --------------------------------------------------------------------------
# the duplicate-id guard on evaluate_early_classifier
# --------------------------------------------------------------------------


def test_evaluate_early_classifier_rejects_duplicate_ids(threshold_classifier, tiny_two_class):
    series, labels = tiny_two_class
    result = evaluate_early_classifier(
        threshold_classifier, series, labels, ids=list(range(len(labels)))
    )
    assert result.n_exemplars == len(labels)
    with pytest.raises(ValueError, match="duplicate exemplar ids.*double-count"):
        evaluate_early_classifier(
            threshold_classifier, series, labels, ids=[0] * len(labels)
        )
    with pytest.raises(ValueError, match="one entry per exemplar"):
        evaluate_early_classifier(threshold_classifier, series, labels, ids=[1])
