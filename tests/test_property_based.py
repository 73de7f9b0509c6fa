"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.stream import ComposedStream, GroundTruthEvent, StreamComposer
from repro.data.ucr_format import UCRDataset
from repro.distance.euclidean import euclidean_distance, znormalized_euclidean_distance
from repro.distance.profile import distance_profile
from repro.distance.znorm import znormalize
from repro.streaming.online import causal_znormalize_batch

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def series_strategy(min_size: int = 4, max_size: int = 60):
    return arrays(dtype=np.float64, shape=st.integers(min_size, max_size), elements=finite_floats)


def nonconstant_series(min_size: int = 4, max_size: int = 60):
    return series_strategy(min_size, max_size).filter(lambda a: float(np.std(a)) > 1e-6)


# ---------------------------------------------------------------------------
# z-normalisation invariants
# ---------------------------------------------------------------------------


@given(nonconstant_series())
@settings(max_examples=60, deadline=None)
def test_znormalize_produces_zero_mean_unit_std(series):
    normalized = znormalize(series)
    assert abs(normalized.mean()) < 1e-7
    assert abs(normalized.std() - 1.0) < 1e-7


@given(nonconstant_series(), st.floats(-50, 50), st.floats(0.1, 10))
@settings(max_examples=60, deadline=None)
def test_znormalize_invariant_under_affine_transform(series, offset, scale):
    np.testing.assert_allclose(
        znormalize(series), znormalize(scale * series + offset), atol=1e-6
    )


@given(nonconstant_series())
@settings(max_examples=60, deadline=None)
def test_znormalize_is_idempotent(series):
    once = znormalize(series)
    twice = znormalize(once)
    np.testing.assert_allclose(once, twice, atol=1e-9)


@given(series_strategy(min_size=10, max_size=80))
@settings(max_examples=40, deadline=None)
def test_causal_znormalize_batch_is_causal(series):
    # Changing the tail of a window never changes earlier outputs.
    midpoint = len(series) // 2
    modified = series.copy()
    modified[midpoint:] += 37.0
    a = causal_znormalize_batch(series[None])[0]
    b = causal_znormalize_batch(modified[None])[0]
    np.testing.assert_allclose(a[:midpoint], b[:midpoint], atol=1e-9)


# ---------------------------------------------------------------------------
# Incremental causal z-normalisation (the online streaming engine's running
# statistics) versus the naive per-prefix recomputation (the offline
# detector's O(L^2) reference loop).
# ---------------------------------------------------------------------------


def naive_causal_window(window: np.ndarray) -> np.ndarray:
    """The offline detector's causal normalisation, restated independently."""
    out = np.zeros_like(window)
    for i in range(window.shape[0]):
        seen = window[: i + 1]
        std = seen.std()
        out[i] = 0.0 if std < 1e-12 else (window[i] - seen.mean()) / std
    return out


@given(st.integers(2, 80), st.integers(0, 2 ** 31 - 1), st.floats(-3e3, 3e3))
@settings(max_examples=60, deadline=None)
def test_incremental_causal_znorm_matches_naive_on_random_windows(length, seed, offset):
    # Well-conditioned random windows: noise of scale ~1, sizeable DC offset.
    rng = np.random.default_rng(seed)
    window = offset + rng.standard_normal(length)
    np.testing.assert_allclose(
        causal_znormalize_batch(window[None])[0], naive_causal_window(window), atol=1e-10
    )


@given(
    st.integers(2, 80),
    st.integers(0, 2 ** 31 - 1),
    st.floats(4.0, 10.0),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_incremental_causal_znorm_tracks_naive_at_extreme_offsets(
    length, seed, log_offset, negate
):
    # At extreme DC offsets the *naive reference itself* loses digits: its
    # prefix mean carries an absolute error of ~eps * offset, which the
    # division inflates by 1 / prefix_std.  The agreement bound must
    # therefore scale with the reference's conditioning *per element* -- a
    # short prefix whose samples happen to lie close together (small
    # prefix_std) is far worse conditioned than the window as a whole.  The
    # incremental implementation accumulates baseline-centred values and
    # stays at the input-representation limit; measured worst-case
    # differences are >10x inside this bound.
    offset = (-1.0 if negate else 1.0) * 10.0 ** log_offset
    rng = np.random.default_rng(seed)
    window = offset + rng.standard_normal(length)
    prefix_stds = np.asarray(
        [window[: i + 1].std() for i in range(window.shape[0])]
    )
    tolerance = 1e-10 + abs(offset) * 25 * np.finfo(float).eps / np.maximum(
        prefix_stds, 1e-12
    )
    difference = np.abs(
        causal_znormalize_batch(window[None])[0] - naive_causal_window(window)
    )
    assert np.all(difference <= tolerance), (
        f"max difference {difference.max():.3e} exceeds the conditioning "
        f"bound {tolerance[np.argmax(difference)]:.3e}"
    )


@given(
    st.integers(1, 30),
    st.integers(1, 30),
    st.floats(-100.0, 100.0),
    st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_incremental_causal_znorm_constant_then_noise(n_constant, n_noise, level, seed):
    # A constant segment keeps std exactly 0 in both implementations (the
    # std < 1e-12 branch); the transition into noise must also agree.
    rng = np.random.default_rng(seed)
    window = np.concatenate(
        [np.full(n_constant, level), level + rng.standard_normal(n_noise)]
    )
    incremental = causal_znormalize_batch(window[None])[0]
    np.testing.assert_allclose(incremental, naive_causal_window(window), atol=1e-10)
    assert np.all(incremental[:n_constant] == 0.0)


@given(st.integers(2, 40), st.floats(-100.0, 100.0), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_incremental_causal_znorm_near_constant_stays_zero(length, level, seed):
    # Jitter at 1e-13 absolute keeps every prefix std safely below the 1e-12
    # threshold, so both implementations must emit exact zeros throughout.
    # (Jitter *at* the threshold is deliberately excluded: there the branch
    # itself is ill-conditioned in either implementation.)
    rng = np.random.default_rng(seed)
    window = level + 1e-13 * rng.standard_normal(length)
    incremental = causal_znormalize_batch(window[None])[0]
    np.testing.assert_array_equal(incremental, np.zeros(length))
    np.testing.assert_array_equal(naive_causal_window(window), np.zeros(length))


# ---------------------------------------------------------------------------
# Distance invariants
# ---------------------------------------------------------------------------


@given(st.integers(4, 40), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_euclidean_metric_axioms(length, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal(length) for _ in range(3))
    assert euclidean_distance(a, a) < 1e-9
    assert euclidean_distance(a, b) == euclidean_distance(b, a)
    assert euclidean_distance(a, c) <= euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-9


@given(st.integers(4, 40), st.integers(0, 2 ** 31 - 1), st.floats(-10, 10), st.floats(0.1, 5))
@settings(max_examples=60, deadline=None)
def test_znormalized_distance_invariant_to_affine(length, seed, offset, scale):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(length), rng.standard_normal(length)
    base = znormalized_euclidean_distance(a, b)
    transformed = znormalized_euclidean_distance(scale * a + offset, b)
    assert abs(base - transformed) < 1e-6


@given(st.integers(8, 30), st.integers(40, 120), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_distance_profile_matches_brute_force_at_random_position(query_length, series_length, seed):
    rng = np.random.default_rng(seed)
    query = rng.standard_normal(query_length)
    series = rng.standard_normal(series_length)
    profile = distance_profile(query, series)
    position = int(rng.integers(0, series_length - query_length + 1))
    expected = znormalized_euclidean_distance(query, series[position : position + query_length])
    assert abs(profile[position] - expected) < 1e-5


# ---------------------------------------------------------------------------
# UCR dataset invariants
# ---------------------------------------------------------------------------


@given(
    st.integers(2, 8),
    st.integers(4, 30),
    st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_ucr_tsv_round_trip(n_exemplars, length, seed):
    rng = np.random.default_rng(seed)
    dataset = UCRDataset(
        name="prop",
        series=rng.standard_normal((n_exemplars, length)),
        labels=rng.integers(0, 3, size=n_exemplars),
    )
    loaded = UCRDataset.from_tsv_string(dataset.to_tsv_string())
    np.testing.assert_allclose(loaded.series, dataset.series, rtol=1e-7, atol=1e-9)
    assert [str(l) for l in loaded.labels] == [str(l) for l in dataset.labels]


@given(st.integers(2, 6), st.integers(6, 25), st.integers(1, 20), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_ucr_truncated_prefix_is_prefix(n_exemplars, length, prefix, seed):
    rng = np.random.default_rng(seed)
    prefix = min(prefix, length)
    dataset = UCRDataset(
        name="prop",
        series=rng.standard_normal((n_exemplars, length)),
        labels=np.arange(n_exemplars),
    )
    truncated = dataset.truncated(prefix)
    np.testing.assert_allclose(truncated.series, dataset.series[:, :prefix])


# ---------------------------------------------------------------------------
# Stream composition invariants
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 6),
    st.integers(10, 40),
    st.integers(0, 50),
    st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_stream_composition_invariants(n_events, exemplar_length, max_gap, seed):
    rng = np.random.default_rng(seed)
    exemplars = [rng.standard_normal(exemplar_length) for _ in range(n_events)]
    labels = [f"c{i % 2}" for i in range(n_events)]
    composer = StreamComposer(
        background=np.zeros(max(max_gap, 1) + 10),
        gap_range=(0, max_gap),
        level_match=False,
        seed=seed,
    )
    stream = composer.compose(exemplars, labels)

    # Every event interval lies inside the stream, events are ordered and
    # non-overlapping, and the values under each event are exactly the
    # exemplar that was embedded (level matching is off).
    assert stream.n_events == n_events
    previous_end = 0
    for event, exemplar in zip(stream.events, exemplars):
        assert event.start >= previous_end
        assert event.end <= len(stream)
        assert event.length == exemplar_length
        np.testing.assert_allclose(stream.extract(event), exemplar)
        previous_end = event.end


@given(st.integers(20, 200), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_background_fraction_bounds(length, n_events, seed):
    rng = np.random.default_rng(seed)
    events = []
    cursor = 0
    for _ in range(n_events):
        start = cursor + int(rng.integers(0, 5))
        end = start + int(rng.integers(1, 5))
        if end > length:
            break
        events.append(GroundTruthEvent(start=start, end=end, label="x"))
        cursor = end
    stream = ComposedStream(values=np.zeros(length), events=events)
    fraction = stream.background_fraction()
    assert 0.0 <= fraction <= 1.0
    covered = sum(e.length for e in events)
    assert abs(fraction - (length - covered) / length) < 1e-12
