"""Sliding-window z-normalised distance profiles (MASS-style).

Given a long series ``T`` and a query ``Q`` of length ``m``, the distance
profile is the vector of z-normalised Euclidean distances between ``Q`` and
every subsequence ``T[i : i + m]``.  Computing it with an FFT-based dot
product (the MASS algorithm of Mueen et al.) makes searching hours of
telemetry for the nearest neighbours of a gesture (Fig. 5) or counting matches
to a dustbathing template over millions of points (Fig. 8) practical on a
laptop.
"""

from __future__ import annotations

import numpy as np

from repro.distance.znorm import EPSILON, znormalize

__all__ = [
    "sliding_mean_std",
    "sliding_dot_product",
    "distance_profile",
    "top_k_nearest_subsequences",
]


def sliding_mean_std(series: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of every length-``window`` subsequence.

    Returns two arrays of length ``len(series) - window + 1``.  Uses cumulative
    sums, so it is O(n) and suitable for multi-million-point streams.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ValueError("series must be 1-D")
    n = arr.shape[0]
    if not 1 <= window <= n:
        raise ValueError(f"window must be in [1, {n}], got {window}")

    cumsum = np.concatenate(([0.0], np.cumsum(arr)))
    cumsum_sq = np.concatenate(([0.0], np.cumsum(arr * arr)))
    totals = cumsum[window:] - cumsum[:-window]
    totals_sq = cumsum_sq[window:] - cumsum_sq[:-window]
    means = totals / window
    variances = np.maximum(totals_sq / window - means * means, 0.0)
    return means, np.sqrt(variances)


def sliding_dot_product(query: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Dot product of ``query`` with every subsequence of ``series`` (FFT based)."""
    q = np.asarray(query, dtype=float)
    t = np.asarray(series, dtype=float)
    if q.ndim != 1 or t.ndim != 1:
        raise ValueError("query and series must be 1-D")
    m, n = q.shape[0], t.shape[0]
    if m > n:
        raise ValueError("query must not be longer than the series")
    # Correlate via FFT: pad both to the same power-of-two-ish length.
    size = n + m
    fft_t = np.fft.rfft(t, size)
    fft_q = np.fft.rfft(q[::-1], size)
    product = np.fft.irfft(fft_t * fft_q, size)
    return product[m - 1 : n]


def distance_profile(
    query: np.ndarray, series: np.ndarray, znormalized: bool = True
) -> np.ndarray:
    """Distance profile of ``query`` against every subsequence of ``series``.

    Parameters
    ----------
    query:
        1-D query of length ``m``.
    series:
        1-D series of length ``n >= m``.
    znormalized:
        If ``True`` (default) compute the z-normalised Euclidean distance
        (MASS); the query is z-normalised internally.  If ``False`` compute the
        raw Euclidean distance between the query and each subsequence.

    Returns
    -------
    numpy.ndarray
        Array of length ``n - m + 1``; entry ``i`` is the distance between the
        query and ``series[i : i + m]``.
    """
    q = np.asarray(query, dtype=float)
    t = np.asarray(series, dtype=float)
    if q.ndim != 1 or t.ndim != 1:
        raise ValueError("query and series must be 1-D")
    m, n = q.shape[0], t.shape[0]
    if m < 2:
        raise ValueError("query must have at least 2 points")
    if m > n:
        raise ValueError("query must not be longer than the series")

    if not znormalized:
        # ||T_i - Q||^2 = sum(T_i^2) - 2 T_i.Q + sum(Q^2)
        dot = sliding_dot_product(q, t)
        cumsum_sq = np.concatenate(([0.0], np.cumsum(t * t)))
        sq_t = cumsum_sq[m:] - cumsum_sq[:-m]
        sq = np.maximum(sq_t - 2.0 * dot + float(np.dot(q, q)), 0.0)
        return np.sqrt(sq)

    q_norm = znormalize(q)
    means, stds = sliding_mean_std(t, m)
    dot = sliding_dot_product(q_norm, t)
    # For a z-normalised query (zero mean), the z-normalised squared distance
    # reduces to 2m (1 - dot / (m * std_i)) after removing subsequence means.
    profile = np.full(n - m + 1, np.sqrt(2.0 * m))
    valid = stds >= EPSILON
    correlation = np.zeros_like(profile)
    correlation[valid] = dot[valid] / (m * stds[valid])
    correlation = np.clip(correlation, -1.0, 1.0)
    profile[valid] = np.sqrt(np.maximum(2.0 * m * (1.0 - correlation[valid]), 0.0))
    return profile


def _exclusion_mask(length: int, center: int, exclusion: int) -> slice:
    start = max(0, center - exclusion)
    stop = min(length, center + exclusion + 1)
    return slice(start, stop)


def top_k_nearest_subsequences(
    query: np.ndarray,
    series: np.ndarray,
    k: int,
    exclusion: int | None = None,
    znormalized: bool = True,
) -> list[tuple[int, float]]:
    """Indices and distances of the ``k`` nearest non-overlapping subsequences.

    Parameters
    ----------
    query, series:
        As in :func:`distance_profile`.
    k:
        Number of neighbours to return.
    exclusion:
        Half-width of the exclusion zone applied around each selected match to
        avoid returning trivially-overlapping neighbours.  Defaults to half the
        query length.
    znormalized:
        Passed through to :func:`distance_profile`.

    Returns
    -------
    list of (index, distance)
        Sorted by increasing distance.  Fewer than ``k`` entries are returned
        if the exclusion zones exhaust the profile first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    profile = distance_profile(query, series, znormalized=znormalized).copy()
    m = len(np.asarray(query))
    if exclusion is None:
        exclusion = max(1, m // 2)
    results: list[tuple[int, float]] = []
    for _ in range(k):
        idx = int(np.argmin(profile))
        dist = float(profile[idx])
        if not np.isfinite(dist):
            break
        results.append((idx, dist))
        profile[_exclusion_mask(profile.shape[0], idx, exclusion)] = np.inf
    return results
