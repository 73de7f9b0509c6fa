"""Dynamic time warping with an optional Sakoe-Chiba band.

DTW is included because the ETSC literature (and the paper's discussion of
[Rakthanmanon et al. 2013]) treats it as the other canonical shape distance.
The accumulated-cost dynamic program is evaluated as a vectorised
*anti-diagonal wavefront*: every cell on the diagonal ``i + j = d`` depends
only on diagonals ``d - 1`` and ``d - 2``, so the whole band slice of a
diagonal updates in one array operation and the Python-level loop shrinks
from the ``O(n * band)`` cells of the naive double loop to the ``n + m - 1``
diagonals.  Each cell still performs exactly the recurrence of the scalar
double loop (kept as the test oracle ``accumulated_cost_reference`` in
``tests/oracles/dtw.py``), so the costs -- and therefore :func:`dtw_distance`
and :func:`dtw_path` -- are bit-identical.
The wavefront kernel also accepts a stack of cost tensors, which is what
:func:`repro.distance.engine.dtw_pairwise_distances` uses to run every
(query, train) pair of a batch through one shared wavefront.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.distance.znorm import znormalize

__all__ = [
    "dtw_distance",
    "znormalized_dtw_distance",
    "dtw_path",
    "dtw_band_envelopes",
    "EnvelopeCache",
    "lb_kim",
    "lb_keogh",
]


def _validate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError(
            "DTW is defined here for a pair of 1-D (length,) series or a "
            "pair of 2-D (length, n_channels) multichannel exemplars; got "
            f"shapes {a.shape} and {b.shape}"
        )
    if a.ndim == 2 and a.shape[1] != b.shape[1]:
        raise ValueError(
            "multichannel DTW needs matching channel counts "
            f"(axis 1), got {a.shape[1]} and {b.shape[1]}"
        )
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("series must not be empty")
    return a, b


def _resolve_band(n: int, m: int, window: int | float | None) -> int:
    """Convert a window spec (absolute int, fraction, or None) to a band width.

    Integers are absolute band widths, floats are fractions of the longer
    length -- which makes the *type* of the argument load-bearing (``1`` is a
    one-sample band, ``1.0`` is the full band).  Bools are rejected outright:
    ``bool`` is an ``int`` subclass, so ``window=True`` used to slip through
    as a band of 1, which is never what a caller meant.  NumPy integer and
    floating scalars are accepted explicitly and follow the same int/float
    split (``np.float32(0.1)`` is a fraction, not ``int(0.1) == 0``).
    """
    if window is None:
        return max(n, m)
    if isinstance(window, (bool, np.bool_)):
        raise TypeError(
            "window must be an int (absolute band), a float in [0, 1] "
            "(fraction) or None, not a bool"
        )
    if isinstance(window, (float, np.floating)):
        if not 0.0 <= window <= 1.0:
            raise ValueError("fractional window must be in [0, 1]")
        band = int(np.ceil(float(window) * max(n, m)))
    elif isinstance(window, (int, np.integer)):
        band = int(window)
        if band < 0:
            raise ValueError("window must be >= 0")
    else:
        raise TypeError(
            "window must be an int (absolute band), a float in [0, 1] "
            f"(fraction) or None, got {type(window).__name__}"
        )
    # The band must at least cover the length difference or no path exists.
    return max(band, abs(n - m))


def _wavefront_accumulated_cost(sq_cost: np.ndarray, band: int) -> np.ndarray:
    """Accumulated-cost DP over a ``(..., n, m)`` squared-cost tensor.

    Cells are visited by anti-diagonal ``d = i + j``; within a diagonal every
    in-band cell is independent of the others (its three predecessors lie on
    the two previous diagonals), so one fancy-indexed array operation updates
    the whole band slice -- and, through the leading ``...`` axes, every
    pair of a batch at once.  Per cell the recurrence is exactly
    ``sq_cost[i-1, j-1] + min(cost[i-1, j], cost[i, j-1], cost[i-1, j-1])``,
    the reference dynamic program, so the result is bit-identical to it.

    Returns the ``(..., n + 1, m + 1)`` accumulated cost with the usual
    one-cell boundary (``cost[..., 0, 0] == 0``, everything else on the
    border infinite); out-of-band cells stay infinite.
    """
    n, m = sq_cost.shape[-2], sq_cost.shape[-1]
    cost = np.full(sq_cost.shape[:-2] + (n + 1, m + 1), np.inf, dtype=sq_cost.dtype)
    cost[..., 0, 0] = 0.0
    for d in range(2, n + m + 1):
        # In-band cells of the diagonal: 1 <= i <= n, 1 <= j = d - i <= m,
        # |i - j| <= band (so 2i is within band of d).
        i_lo = max(1, d - m, (d - band + 1) // 2)
        i_hi = min(n, d - 1, (d + band) // 2)
        if i_lo > i_hi:
            continue
        ii = np.arange(i_lo, i_hi + 1)
        jj = d - ii
        best = np.minimum(cost[..., ii - 1, jj], cost[..., ii, jj - 1])
        np.minimum(best, cost[..., ii - 1, jj - 1], out=best)
        cost[..., ii, jj] = sq_cost[..., ii - 1, jj - 1] + best
    return cost


def _accumulated_cost(a: np.ndarray, b: np.ndarray, band: int) -> np.ndarray:
    """Accumulated squared-cost matrix for DTW restricted to a Sakoe-Chiba band.

    Univariate pairs keep the historical scalar-cost path; multichannel
    ``(length, n_channels)`` pairs use the *dependent* DTW formulation, where
    each cell cost is the channel-summed squared difference
    ``sum_c (a[i, c] - b[j, c])^2`` and one shared warping path aligns all
    channels.  Both feed the same wavefront kernel, so the d=1 result is
    bit-identical to the old code.
    """
    if a.ndim == 1:
        diff = a[:, None] - b[None, :]
        return _wavefront_accumulated_cost(diff * diff, band)
    diff = a[:, None, :] - b[None, :, :]
    sq_cost = np.einsum("ijc,ijc->ij", diff, diff)
    return _wavefront_accumulated_cost(sq_cost, band)


def dtw_distance(a: np.ndarray, b: np.ndarray, window: int | float | None = None) -> float:
    """DTW distance (square root of the accumulated squared cost).

    Parameters
    ----------
    a, b:
        1-D series, or 2-D ``(length, n_channels)`` multichannel exemplars
        with matching channel counts (the *dependent* DTW: one shared path,
        channel-summed cell costs).  Lengths may differ.
    window:
        Sakoe-Chiba band constraint.  ``None`` means unconstrained; an ``int``
        is an absolute band width in points; a ``float`` in [0, 1] is a
        fraction of the longer series' length.

        .. warning::
           The *type* decides the meaning: ``window=1`` is a one-sample band,
           while the integral float ``window=1.0`` is the fraction "100%",
           i.e. the full (unconstrained) band -- and ``window=0.0`` is the
           zero band, same as ``window=0``.  Bools are rejected (``True`` is
           an ``int`` subclass and would silently mean a band of 1); NumPy
           integer/floating scalars follow the same int/float split.
    """
    a, b = _validate(a, b)
    band = _resolve_band(a.shape[0], b.shape[0], window)
    cost = _accumulated_cost(a, b, band)
    return float(np.sqrt(cost[a.shape[0], b.shape[0]]))


def znormalized_dtw_distance(
    a: np.ndarray, b: np.ndarray, window: int | float | None = None
) -> float:
    """DTW distance after independently z-normalising both series.

    Multichannel ``(length, n_channels)`` exemplars are z-normalised per
    channel before the dependent (channel-summed) DTW.
    """
    a, b = _validate(a, b)
    if a.ndim == 2:
        return dtw_distance(
            znormalize(a, channel_axis=-1),
            znormalize(b, channel_axis=-1),
            window=window,
        )
    return dtw_distance(znormalize(a), znormalize(b), window=window)


def dtw_band_envelopes(
    train: np.ndarray, band: int, query_length: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sakoe-Chiba band envelopes of every training series, for :func:`lb_keogh`.

    For a query index ``i`` the banded DTW recurrence only ever aligns
    ``q[i]`` with training samples ``t[j]``, ``|i - j| <= band``; the
    envelopes are the running extrema over exactly that window,

    ``lower[s, i] = min(train[s, max(i - band, 0) : min(i + band, m - 1) + 1])``

    (and ``upper`` the max), so they can be precomputed once per training set
    and shared by every query of a 1-NN search.

    Parameters
    ----------
    train:
        2-D array ``(n_train, m)`` (a 1-D series is promoted), or a 3-D
        multichannel batch ``(n_train, m, d)`` -- the envelopes are then
        per channel.
    band:
        Resolved band half-width (see :func:`_resolve_band`); must be
        ``>= |query_length - m|`` so every query index has a non-empty
        window.
    query_length:
        Length ``n`` of the queries the envelopes will be held against
        (defaults to ``m``); the returned arrays have shape ``(n_train, n)``
        (univariate) or ``(n_train, n, d)`` (multichannel).

    Returns
    -------
    (lower, upper):
        Two ``(n_train, query_length[, d])`` float64 arrays.
    """
    arr = np.asarray(train, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim not in (2, 3) or arr.shape[1] < 1:
        raise ValueError(
            "train must be a non-empty 1-D series, a 2-D (n_train, m) batch, "
            f"or a 3-D (n_train, m, n_channels) batch; got shape {arr.shape}"
        )
    n_train, m = arr.shape[0], arr.shape[1]
    n = m if query_length is None else int(query_length)
    if n < 1:
        raise ValueError("query_length must be >= 1")
    if band < abs(n - m):
        raise ValueError(
            f"band {band} cannot cover the length difference |{n} - {m}|"
        )
    tail = arr.shape[2:]  # () univariate, (d,) multichannel
    if band >= m:
        shape = (n_train, n) + tail
        lower = np.broadcast_to(np.expand_dims(arr.min(axis=1), 1), shape).copy()
        upper = np.broadcast_to(np.expand_dims(arr.max(axis=1), 1), shape).copy()
        return lower, upper
    # Window ``i`` of the padded array covers train indices [i - band, i + band]
    # clipped to [0, m - 1]: sentinels (+inf for the min, -inf for the max) are
    # transparent to the extrema, so one sliding_window_view answers all
    # positions including the clipped edges.
    width = 2 * band + 1
    right = band + max(0, n - m)
    lo_pad = np.concatenate(
        [
            np.full((n_train, band) + tail, np.inf),
            arr,
            np.full((n_train, right) + tail, np.inf),
        ],
        axis=1,
    )
    hi_pad = np.concatenate(
        [
            np.full((n_train, band) + tail, -np.inf),
            arr,
            np.full((n_train, right) + tail, -np.inf),
        ],
        axis=1,
    )
    # sliding_window_view appends the window axis last, so extrema are always
    # taken over axis -1 and the (optional) channel axis keeps its place.
    windows_lo = np.lib.stride_tricks.sliding_window_view(lo_pad, width, axis=1)
    windows_hi = np.lib.stride_tricks.sliding_window_view(hi_pad, width, axis=1)
    return windows_lo.min(axis=-1)[:, :n], windows_hi.max(axis=-1)[:, :n]


class EnvelopeCache:
    """Memoised :func:`dtw_band_envelopes` keyed by training-set content.

    The envelopes of a training set depend only on the series values, the
    resolved band, and the query length they are held against -- yet every
    cascade search used to recompute them per call, which dominates the
    lower-bound stage when the same training set is queried repeatedly (the
    k-NN classifier's ``predict``, a serving loop, a sweep).  This cache
    keys entries by ``(content fingerprint, band, query_length)``, where the
    fingerprint hashes the array's bytes plus shape and dtype, so a *refit*
    with different data can never serve stale envelopes -- there is nothing
    to invalidate, a changed array simply stops matching.

    Entries evict least-recently-used beyond ``maxsize`` (a handful of
    band/length combinations per training set in practice).  ``hits`` /
    ``misses`` make reuse observable to tests and telemetry.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self._maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def fingerprint(arr: np.ndarray) -> str:
        """Content hash of an array (bytes + shape + dtype)."""
        a = np.ascontiguousarray(arr)
        digest = hashlib.sha1(a)
        digest.update(repr((a.shape, a.dtype.str)).encode())
        return digest.hexdigest()

    def envelopes(
        self, train: np.ndarray, band: int, query_length: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(lower, upper)`` envelopes, computed at most once per key."""
        arr = np.asarray(train, dtype=float)
        n = arr.shape[1] if arr.ndim > 1 and query_length is None else query_length
        key = (self.fingerprint(arr), int(band), None if n is None else int(n))
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        lower, upper = dtw_band_envelopes(arr, band, query_length=query_length)
        self._entries[key] = (lower, upper)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return lower, upper

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters included)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0


def lb_kim(queries: np.ndarray, train: np.ndarray) -> np.ndarray:
    """Constant-time endpoint lower bound on the *squared* DTW cost (LB_Kim).

    Every warping path aligns the first samples with each other and the last
    samples with each other, so those two squared differences are part of any
    accumulated cost regardless of the band:

    ``lb_kim[q, t] = (queries[q, 0] - train[t, 0])^2
                   + (queries[q, -1] - train[t, -1])^2``

    with multichannel endpoint differences channel-summed (admissible for
    the dependent DTW, whose cell costs are channel-summed too).

    Returns the ``(n_queries, n_train)`` bound on the squared cost (compare
    against ``dtw_distance(...) ** 2``).
    """
    q = np.asarray(queries, dtype=float)
    t = np.asarray(train, dtype=float)
    if q.ndim == 1:
        q = q[None, :]
    if t.ndim == 1:
        t = t[None, :]
    if q.ndim != t.ndim:
        raise ValueError(
            "queries and train must have the same rank (both univariate "
            f"batches or both (n, m, d) multichannel); got {q.shape} and {t.shape}"
        )
    if q.ndim == 3:
        first = q[:, 0][:, None, :] - t[:, 0][None, :, :]
        last = q[:, -1][:, None, :] - t[:, -1][None, :, :]
        return np.einsum("qtc,qtc->qt", first, first) + np.einsum(
            "qtc,qtc->qt", last, last
        )
    first = q[:, 0, None] - t[None, :, 0]
    last = q[:, -1, None] - t[None, :, -1]
    return first * first + last * last


def lb_keogh(
    queries: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Envelope lower bound on the *squared* banded DTW cost (LB_Keogh).

    Each query sample is aligned with at least one training sample inside its
    band window, and that sample lies between the window's extrema, so

    ``lb[q, t] = sum_i max(queries[q, i] - upper[t, i], 0)^2
                      + max(lower[t, i] - queries[q, i], 0)^2``

    never exceeds the squared accumulated cost of the banded dynamic
    program.  ``lower``/``upper`` come from :func:`dtw_band_envelopes`
    computed with the same resolved band and ``query_length``.  For
    multichannel input (3-D queries against ``(n_train, n, d)`` envelopes)
    the terms are summed over channels as well, which is admissible for the
    dependent DTW because each per-channel term bounds that channel's
    contribution to the channel-summed cell cost.

    Returns the ``(n_queries, n_train)`` bound on the squared cost.
    """
    q = np.asarray(queries, dtype=float)
    if q.ndim == 1:
        q = q[None, :]
    if q.ndim != lower.ndim or q.shape[1:] != lower.shape[1:] or lower.shape != upper.shape:
        raise ValueError(
            "envelopes must match the query rank and (time, channel) shape "
            f"(and each other); got queries {q.shape}, envelopes {lower.shape}"
        )
    if q.ndim == 3:
        over = np.maximum(q[:, None] - upper[None, :], 0.0)
        under = np.maximum(lower[None, :] - q[:, None], 0.0)
        return np.einsum("qtnc,qtnc->qt", over, over) + np.einsum(
            "qtnc,qtnc->qt", under, under
        )
    over = np.maximum(q[:, None, :] - upper[None, :, :], 0.0)
    under = np.maximum(lower[None, :, :] - q[:, None, :], 0.0)
    return np.einsum("qtn,qtn->qt", over, over) + np.einsum(
        "qtn,qtn->qt", under, under
    )


def dtw_path(
    a: np.ndarray, b: np.ndarray, window: int | float | None = None
) -> list[tuple[int, int]]:
    """Return the optimal warping path as a list of (i, j) index pairs.

    Useful for inspecting alignments in the examples; not used by the
    experiments themselves.
    """
    a, b = _validate(a, b)
    band = _resolve_band(a.shape[0], b.shape[0], window)
    cost = _accumulated_cost(a, b, band)
    i, j = a.shape[0], b.shape[0]
    if not np.isfinite(cost[i, j]):
        raise ValueError("no warping path exists within the given band")
    path: list[tuple[int, int]] = []
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        moves = (
            (cost[i - 1, j - 1], i - 1, j - 1),
            (cost[i - 1, j], i - 1, j),
            (cost[i, j - 1], i, j - 1),
        )
        _, i, j = min(moves, key=lambda item: item[0])
    path.reverse()
    return path
