"""Self-checks of the DTW oracles in ``tests/oracles/dtw.py``.

The search's bit-identity tests are only as strong as the oracle they
compare against, so the oracle is pinned here to the scalar definitions: the
dense selection to a stable sort of per-pair :func:`dtw_distance` values, and
the double-loop DP to the squared DTW distance and its band.
"""

import numpy as np
import pytest

from repro.distance.dtw import _resolve_band, dtw_distance

from oracles.dtw import accumulated_cost_reference, dense_dtw_nearest_neighbors


@pytest.mark.parametrize("window", [None, 5, 0.1, 0])
def test_dense_selection_is_the_stable_sort_of_scalar_distances(window):
    rng = np.random.default_rng(52)
    queries = rng.standard_normal((5, 18)).cumsum(axis=1)
    train = rng.standard_normal((7, 22)).cumsum(axis=1)
    train[4] = train[1]  # an exact tie, resolved by the lower index
    scalar = np.array(
        [[dtw_distance(q, t, window=window) for t in train] for q in queries]
    )
    idx, dist = dense_dtw_nearest_neighbors(queries, train, window=window, n_neighbors=3)
    order = np.argsort(scalar, axis=1, kind="stable")[:, :3]
    np.testing.assert_array_equal(idx, order)
    np.testing.assert_array_equal(dist, np.take_along_axis(scalar, order, axis=1))


@pytest.mark.parametrize("channels", [None, 3])
def test_accumulated_cost_ends_at_the_squared_dtw_distance(channels):
    rng = np.random.default_rng(53)
    extra = () if channels is None else (channels,)
    a = rng.standard_normal((12, *extra)).cumsum(axis=0)
    b = rng.standard_normal((15, *extra)).cumsum(axis=0)
    band = _resolve_band(12, 15, 4)
    cost = accumulated_cost_reference(a, b, band)
    assert cost.shape == (13, 16)
    assert np.sqrt(cost[-1, -1]) == pytest.approx(dtw_distance(a, b, window=4), rel=1e-12)
    # Cells outside the Sakoe-Chiba band are never reached.
    i, j = np.indices(cost.shape)
    assert np.all(np.isinf(cost[np.abs(i - j) > band]))
    assert np.all(np.isfinite(cost[1:, 1:][np.abs(i - j)[1:, 1:] <= band]))
