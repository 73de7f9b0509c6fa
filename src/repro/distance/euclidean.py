"""Euclidean distances between equal-length time series.

Multichannel series are supported throughout with the channel-last axis
convention: a single exemplar is ``(length,)`` or ``(length, n_channels)``,
a batch is ``(n, length)`` or ``(n, length, n_channels)``.  The multichannel
distance is channel-summed -- ``sum_t sum_c (a[t, c] - b[t, c])^2`` -- which
is exactly the flat Euclidean distance over the time-major flattening, so
every kernel reduces to the univariate code path after a reshape (a no-op
for d=1).
"""

from __future__ import annotations

import numpy as np

from repro.distance.znorm import znormalize

__all__ = [
    "euclidean_distance",
    "znormalized_euclidean_distance",
    "pairwise_euclidean",
]


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError(
            "euclidean distances are defined for a pair of 1-D (length,) "
            "series or a pair of 2-D (length, n_channels) multichannel "
            f"exemplars; got shapes {a.shape} and {b.shape}"
        )
    if a.shape != b.shape:
        raise ValueError(
            f"series must have equal shape, got {a.shape} and {b.shape} "
            "(axis 0 = time, axis 1 = channel)"
        )
    if a.shape[0] == 0:
        raise ValueError("series must not be empty")
    return a, b


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two equal-length series.

    For ``(length, n_channels)`` exemplars the distance is channel-summed:
    ``sqrt(sum_t sum_c (a[t, c] - b[t, c])^2)``.
    """
    a, b = _check_pair(a, b)
    diff = (a - b).ravel()
    return float(np.sqrt(float(np.dot(diff, diff))))


def znormalized_euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance after independently z-normalising both series.

    This is the distance the paper (and essentially all of the time-series
    classification literature, see [Rakthanmanon et al. 2013]) argues is the
    meaningful way to compare *shapes*.  Multichannel exemplars are
    z-normalised per channel before the channel-summed distance.
    """
    a, b = _check_pair(a, b)
    if a.ndim == 2:
        # A (length, n_channels) exemplar is a 3-D batch of one.
        return euclidean_distance(znormalize(a[None])[0], znormalize(b[None])[0])
    return euclidean_distance(znormalize(a), znormalize(b))


def pairwise_euclidean(rows: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
    """Pairwise Euclidean distance matrix between two batches of series.

    Parameters
    ----------
    rows:
        Array of shape ``(n, length)`` or ``(n, length, n_channels)``.
    others:
        Array of shape ``(m, length)`` (or ``(m, length, n_channels)`` with
        the same trailing axes as ``rows``).  Defaults to ``rows``
        (self-distances).

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(n, m)`` of (channel-summed) Euclidean distances.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (2, 3):
        raise ValueError(
            "rows must be a 2-D (n, length) or 3-D (n, length, n_channels) "
            f"batch of series; got shape {rows.shape}"
        )
    if others is None:
        others = rows
    else:
        others = np.asarray(others, dtype=float)
        if others.ndim != rows.ndim or others.shape[1:] != rows.shape[1:]:
            raise ValueError(
                "others must match rows in rank and per-exemplar shape "
                f"(time, channel); got {others.shape} against {rows.shape}"
            )
    if rows.ndim == 3:
        # Channel-summed distance == flat distance over the time-major
        # flattening; reshape and reuse the 2-D BLAS path.
        rows = rows.reshape(rows.shape[0], -1)
        others = others.reshape(others.shape[0], -1)

    # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b  (clipped at 0 for numerical noise)
    sq_rows = np.sum(rows * rows, axis=1)[:, None]
    sq_others = np.sum(others * others, axis=1)[None, :]
    cross = rows @ others.T
    squared = np.maximum(sq_rows + sq_others - 2.0 * cross, 0.0)
    return np.sqrt(squared)
