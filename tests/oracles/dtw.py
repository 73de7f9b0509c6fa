"""DTW oracles: the dense k-NN selection and the scalar double-loop DP.

* :func:`dense_dtw_nearest_neighbors` evaluates every (query, train) pair
  with :func:`repro.distance.engine.dtw_pairwise_distances` and
  stable-selects the ``k`` smallest per row.  The cascade search
  :func:`repro.distance.dtw_search.dtw_nearest_neighbors` must return
  bit-identical indices and distances.
* :func:`accumulated_cost_reference` is the textbook dynamic program that
  the anti-diagonal wavefront kernel must reproduce cell for cell.
"""

from __future__ import annotations

import numpy as np

from repro.distance.engine import _stable_k_smallest, dtw_pairwise_distances


def dense_dtw_nearest_neighbors(
    queries: np.ndarray,
    train: np.ndarray,
    window: int | float | None = None,
    n_neighbors: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, distances)`` of each query's k nearest neighbours, densely."""
    for what, arr in (("queries", queries), ("train", train)):
        if not np.all(np.isfinite(np.asarray(arr, dtype=float))):
            raise ValueError(f"{what} contains non-finite values")
    distances = dtw_pairwise_distances(queries, train, window=window)
    k = int(n_neighbors)
    if not 1 <= k <= distances.shape[1]:
        raise ValueError(
            f"n_neighbors must be in [1, {distances.shape[1]}], got {n_neighbors}"
        )
    return _stable_k_smallest(distances, k)


def accumulated_cost_reference(a: np.ndarray, b: np.ndarray, band: int) -> np.ndarray:
    """The scalar double-loop dynamic program (semantic reference).

    Pins the wavefront kernel across band specifications and unequal
    lengths (``tests/test_training_kernels.py``) and is the per-pair
    baseline of the DTW wavefront speedup benchmark.
    """
    n, m = a.shape[0], b.shape[0]
    cost = np.full((n + 1, m + 1), np.inf)
    cost[0, 0] = 0.0
    if a.ndim == 1:
        for i in range(1, n + 1):
            j_start = max(1, i - band)
            j_end = min(m, i + band)
            ai = a[i - 1]
            for j in range(j_start, j_end + 1):
                d = ai - b[j - 1]
                d = d * d
                prev = min(cost[i - 1, j], cost[i, j - 1], cost[i - 1, j - 1])
                cost[i, j] = d + prev
        return cost
    # Dependent multichannel DTW: per-cell cost is the channel-summed
    # squared difference, everything else is the same recurrence.
    for i in range(1, n + 1):
        j_start = max(1, i - band)
        j_end = min(m, i + band)
        ai = a[i - 1]
        for j in range(j_start, j_end + 1):
            d = 0.0
            for c in range(a.shape[1]):
                delta = ai[c] - b[j - 1, c]
                d += delta * delta
            prev = min(cost[i - 1, j], cost[i, j - 1], cost[i - 1, j - 1])
            cost[i, j] = d + prev
    return cost
