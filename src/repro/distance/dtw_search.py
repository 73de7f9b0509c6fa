"""DTW k nearest neighbours through the UCR-suite lower-bound cascade.

The paper's yardstick for every ETSC method is 1-NN with Euclidean/DTW, and
its related-work discussion leans on the UCR-suite line of work
[Rakthanmanon et al., KDD 2012] for how such searches run at scale: cheap
lower bounds answer most candidates before the quadratic dynamic program
ever runs.  :func:`dtw_nearest_neighbors` is that search, in four stages:

1. **LB_Kim** (:func:`repro.distance.dtw.lb_kim`): constant-time endpoint
   bound, one vectorised pass over all pairs.
2. **LB_Keogh, train-side** (:func:`repro.distance.dtw.lb_keogh`):
   envelope bound against band envelopes precomputed once per training
   set (:func:`repro.distance.dtw.dtw_band_envelopes`, reusable across
   calls through a :class:`repro.distance.dtw.EnvelopeCache`), evaluated
   only for the pairs LB_Kim could not answer.
3. **LB_Keogh, query-side**: the mirrored bound -- envelopes around each
   *query*, held against the raw training samples -- computed only for
   the survivors of the train-side prune; the cascade then prunes on the
   maximum of all bounds.
4. **Early-abandoning DP**: survivors run the *same* banded wavefront
   recurrence, ordered by their best lower bound and chunked, with the
   running k-th-best distance abandoning a pair as soon as two
   consecutive anti-diagonals prove its cost can no longer matter.

Non-finite input is rejected: a NaN or infinite sample has no meaningful
DTW distance, and the cascade's bounds cannot order it.

**Equivalence contract.**  The returned neighbour indices and distances are
*bit-identical* to stable-selecting the ``k`` smallest entries per row of
the dense :func:`repro.distance.engine.dtw_pairwise_distances` matrix:
survivors are evaluated by the identical wavefront recurrence (identical
per-cell rounding), ties resolve by the same lowest-training-index rule, and
pruning thresholds carry a relative slack (:data:`PRUNE_SLACK`) far above
any possible summation-rounding disagreement between a lower bound and the
dynamic program, so a candidate that could tie the k-th neighbour is always
computed, never pruned.  ``tests/test_dtw_search.py`` pins this against the
dense oracle in ``tests/oracles/dtw.py`` across band specs, unequal lengths,
ties and ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distance.dtw import (
    EnvelopeCache,
    _resolve_band,
    dtw_band_envelopes,
    lb_kim,
)
from repro.distance.engine import _as_query_tensor, _as_train_tensor
from repro.memory import get_memory_budget

__all__ = ["DTWSearchStats", "dtw_nearest_neighbors"]

#: Relative slack applied to pruning/abandoning thresholds.  A lower bound
#: and the dynamic program sum the same non-negative terms in different
#: orders, so they can disagree by a few hundred ulps (~1e-13 relative) on
#: mathematically tied values; the slack keeps every candidate that could
#: tie the k-th neighbour alive, preserving bit-identical results.
PRUNE_SLACK = 1e-12

#: Survivor pairs evaluated per early-abandoning wavefront call.  Small
#: enough that the running k-th-best threshold refreshes between chunks
#: (later chunks are usually pruned outright), large enough to amortise the
#: per-diagonal Python step across pairs -- the rolling-diagonal kernel
#: holds only O(pairs * n) state, so the chunk can be generous.
_DP_CHUNK_PAIRS = 512


@dataclass(frozen=True)
class DTWSearchStats:
    """Where the candidate pairs of one cascade k-NN search were answered.

    ``lb_kim_pruned + lb_keogh_pruned + dp_computed == n_pairs`` always
    holds: every pair is either killed by a lower bound or enters the
    dynamic program.  Two counters refine that partition without joining
    it: ``dp_abandoned`` is the subset of ``dp_computed`` stopped early by
    the running-best threshold, and ``lb_keogh_query_pruned`` the subset of
    ``lb_keogh_pruned`` killed by the query-side envelope bound (pairs the
    train-side bound had not already answered).
    """

    n_pairs: int
    lb_kim_pruned: int
    lb_keogh_pruned: int
    dp_abandoned: int
    dp_computed: int
    lb_keogh_query_pruned: int = 0

    @property
    def pruning_rate(self) -> float:
        """Fraction of candidate pairs that never entered the dynamic program."""
        if self.n_pairs == 0:
            return 0.0
        return 1.0 - self.dp_computed / self.n_pairs


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Reject NaN/inf samples, which have no DTW distance to rank."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


#: A chunk is compacted (abandoned pairs dropped from the working set) once
#: at least this fraction of it is dead -- compaction is a gather over the
#: rolling diagonals, so doing it for every lone dead pair would cost more
#: than carrying the pair.
_COMPACT_FRACTION = 0.125


def _banded_costs_with_abandon(
    q_rows: np.ndarray,
    t_rows: np.ndarray,
    band: int,
    thresholds_sq: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Banded squared DTW costs of a batch of pairs, abandoning hopeless ones.

    ``q_rows``/``t_rows`` are the already-gathered per-pair series (shapes
    ``(p, n)`` and ``(p, m)``, or ``(p, n, d)`` / ``(p, m, d)`` multichannel
    -- cell costs are then channel-summed, accumulated in the same channel
    order as the dense reference so surviving costs stay bit-identical).
    Per cell the recurrence is exactly the one of
    :func:`repro.distance.dtw._wavefront_accumulated_cost` (same elementwise
    operations in the same order, so surviving costs are bit-identical to the
    dense reference), but only the rolling last two anti-diagonals are kept
    -- each indexed by ``i`` so every per-diagonal operand is a contiguous
    slice, never a fancy gather, and no ``(p, n, m)`` tensor is ever
    materialised.

    Abandoning is exact: a warping path advances ``i + j`` by 1 or 2 per
    step, so it crosses every pair of consecutive anti-diagonals at least
    once, with non-decreasing accumulated cost; a pair whose two-diagonal
    in-band minimum exceeds its threshold therefore can never finish below
    it.  Dead pairs are compacted out of the working set (their result is
    ``inf``); a dead pair carried to the end of the recurrence instead (below
    the compaction threshold) still reports its exact cost.

    Returns ``(squared_costs, abandoned)``; abandoned pairs carry ``inf``.
    """
    p, n = q_rows.shape[0], q_rows.shape[1]
    m = t_rows.shape[1]
    channels = q_rows.shape[2] if q_rows.ndim == 3 else 1
    out = np.full(p, np.inf)
    ids = np.arange(p)
    thr = np.asarray(thresholds_sq, dtype=float)
    # Diagonal d holds cost(i, d - i) at column i; d-2 then d-1, rolled.
    prev2 = np.full((p, n + 1), np.inf)
    prev = np.full((p, n + 1), np.inf)
    prev2[:, 0] = 0.0
    prev_min = np.full(p, np.inf)
    for d in range(2, n + m + 1):
        i_lo = max(1, d - m, (d - band + 1) // 2)
        i_hi = min(n, d - 1, (d + band) // 2)
        if i_lo > i_hi:
            continue
        cur = np.full((ids.shape[0], n + 1), np.inf)
        # cost(i-1, j) and cost(i, j-1) live on diagonal d-1 at columns
        # i-1 and i; cost(i-1, j-1) on d-2 at i-1.  All contiguous slices.
        best = np.minimum(prev[:, i_lo - 1 : i_hi], prev[:, i_lo : i_hi + 1])
        np.minimum(best, prev2[:, i_lo - 1 : i_hi], out=best)
        if channels == 1:
            diff = q_rows[:, i_lo - 1 : i_hi] - t_rows[:, d - i_hi - 1 : d - i_lo][:, ::-1]
            sq = diff * diff
        else:
            # Channel-summed cell cost, accumulated channel by channel in
            # the same order as the dense reference (bit-identical costs).
            diff = (
                q_rows[:, i_lo - 1 : i_hi, :]
                - t_rows[:, d - i_hi - 1 : d - i_lo, :][:, ::-1, :]
            )
            sq = diff[:, :, 0] * diff[:, :, 0]
            for c in range(1, channels):
                sq += diff[:, :, c] * diff[:, :, c]
        cur[:, i_lo : i_hi + 1] = sq + best
        cur_min = cur[:, i_lo : i_hi + 1].min(axis=1)
        dead = np.minimum(prev_min, cur_min) > thr
        prev2, prev, prev_min = prev, cur, cur_min
        n_dead = int(dead.sum())
        if n_dead == ids.shape[0]:
            return out, np.isinf(out)
        if n_dead >= max(8, int(_COMPACT_FRACTION * ids.shape[0])):
            alive = ~dead
            q_rows, t_rows = q_rows[alive], t_rows[alive]
            prev2, prev, prev_min = prev2[alive], prev[alive], prev_min[alive]
            thr, ids = thr[alive], ids[alive]
    out[ids] = prev[:, n]
    return out, np.isinf(out)


def _insert_neighbor(
    best_d: np.ndarray, best_i: np.ndarray, row: int, dist: float, index: int
) -> None:
    """Insert a computed candidate into a query's running top-k.

    Ordering is lexicographic on ``(distance, training index)`` -- exactly
    the stable-sort tie-break of the dense reference selection.
    """
    k = best_d.shape[1]
    last_d = best_d[row, k - 1]
    if dist > last_d or (dist == last_d and index > best_i[row, k - 1]):
        return
    d_row = np.append(best_d[row], dist)
    i_row = np.append(best_i[row], index)
    order = np.lexsort((i_row, d_row))[:k]
    best_d[row] = d_row[order]
    best_i[row] = i_row[order]


def dtw_nearest_neighbors(
    queries: np.ndarray,
    train: np.ndarray,
    window: int | float | None = None,
    n_neighbors: int = 1,
    return_stats: bool = False,
    envelope_cache: EnvelopeCache | None = None,
) -> (
    tuple[np.ndarray, np.ndarray]
    | tuple[np.ndarray, np.ndarray, DTWSearchStats]
):
    """DTW k nearest neighbours of every query through the lower-bound cascade.

    See the module docstring for the cascade and its equivalence contract:
    indices and distances are bit-identical to stable-selecting the ``k``
    smallest entries per row of
    :func:`repro.distance.engine.dtw_pairwise_distances`.  Raises
    ``ValueError`` on non-finite input.  The gathered LB_Keogh temporaries
    are chunked against the :mod:`repro.memory` budget.

    Parameters
    ----------
    queries, train:
        The input contract of
        :func:`repro.distance.engine.dtw_pairwise_distances`: ``train`` is a
        2-D ``(n_train, m)`` batch or a 3-D multichannel ``(n_train, m, d)``
        batch (dependent DTW with channel-summed costs); ``queries`` a
        matching ``(n_queries, n[, d])`` batch, which may be empty.  A single
        1-D query (or ``(n, d)`` multichannel exemplar) is promoted to a
        batch of one.  Lengths may differ (DTW aligns them).
    window:
        Sakoe-Chiba band spec with the semantics of
        :func:`repro.distance.dtw.dtw_distance`.
    n_neighbors:
        Number of neighbours per query (``k``), each sorted by
        ``(distance, training index)``.
    return_stats:
        Also return a :class:`DTWSearchStats` with the per-stage pruning
        counts (the benchmark's pruning-rate metric).
    envelope_cache:
        Optional :class:`repro.distance.dtw.EnvelopeCache`; when given, the
        train-side band envelopes are fetched from (and stored into) it
        instead of being recomputed per call, so repeated searches against
        the same training set pay the envelope sweep once.

    Returns
    -------
    (indices, distances[, stats]):
        ``(n_queries, k)`` neighbour indices (closest first) and their
        float64 DTW distances.
    """
    t = _as_train_tensor(train)
    channels = t.shape[2] if t.ndim == 3 else 1
    q = _as_query_tensor(queries, channels)
    if q.shape[1] < 1:
        raise ValueError("queries must contain at least one sample")
    _require_finite(q, "queries")
    _require_finite(t, "train")
    n_q, n = q.shape[0], q.shape[1]
    n_train, m = t.shape[0], t.shape[1]
    k = int(n_neighbors)
    if not 1 <= k <= n_train:
        raise ValueError(f"n_neighbors must be in [1, {n_train}], got {n_neighbors}")
    block_bytes = get_memory_budget()
    band = _resolve_band(n, m, window)

    best_d = np.full((n_q, k), np.inf)
    best_i = np.full((n_q, k), n_train, dtype=np.intp)
    computed = np.zeros((n_q, n_train), dtype=bool)
    n_pairs = n_q * n_train
    dp_computed = 0
    dp_abandoned = 0

    def run_pairs(rows: np.ndarray, cols: np.ndarray, thresholds: np.ndarray) -> None:
        nonlocal dp_computed, dp_abandoned
        dp_computed += rows.shape[0]
        sq, abandoned = _banded_costs_with_abandon(q[rows], t[cols], band, thresholds)
        dp_abandoned += int(abandoned.sum())
        dist = np.sqrt(sq)
        computed[rows, cols] = True
        for a in np.flatnonzero(np.isfinite(dist)):
            _insert_neighbor(best_d, best_i, int(rows[a]), float(dist[a]), int(cols[a]))

    def thresholds_for(rows: np.ndarray) -> np.ndarray:
        kth = best_d[rows, k - 1]
        with np.errstate(invalid="ignore"):
            return np.where(np.isfinite(kth), kth * kth * (1.0 + PRUNE_SLACK), np.inf)

    # --- stage 0: LB_Kim over all pairs, and k seed DPs per query ----------
    kim = lb_kim(q, t)
    seed_cols = np.argsort(kim, axis=1, kind="stable")[:, :k]
    seed_rows = np.repeat(np.arange(n_q), k)
    seed_flat = seed_cols.ravel()
    for start in range(0, seed_rows.shape[0], _DP_CHUNK_PAIRS):
        stop = min(start + _DP_CHUNK_PAIRS, seed_rows.shape[0])
        run_pairs(
            seed_rows[start:stop],
            seed_flat[start:stop],
            np.full(stop - start, np.inf),
        )

    # --- stage 1: prune by LB_Kim against the seeded running best ----------
    thr = thresholds_for(np.arange(n_q))
    alive = (kim <= thr[:, None]) & ~computed
    lb_kim_pruned = n_pairs - int(alive.sum()) - int(computed.sum())

    # --- stage 2: LB_Keogh train-side, only pairs LB_Kim could not answer --
    def keogh_bounds(
        series: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        series_idx: np.ndarray,
        envelope_idx: np.ndarray,
    ) -> np.ndarray:
        """Per-pair envelope bound, in either envelope direction."""
        length = series.shape[1]
        out = np.empty(series_idx.shape[0])
        chunk = max(1, int(block_bytes // (max(length, 1) * channels * 8 * 2)))
        reduce = "pn,pn->p" if channels == 1 else "pnc,pnc->p"
        for start in range(0, series_idx.shape[0], chunk):
            stop = min(start + chunk, series_idx.shape[0])
            s = series[series_idx[start:stop]]
            over = np.maximum(s - upper[envelope_idx[start:stop]], 0.0)
            under = np.maximum(lower[envelope_idx[start:stop]] - s, 0.0)
            out[start:stop] = np.einsum(reduce, over, over) + np.einsum(
                reduce, under, under
            )
        return out

    rows, cols = np.nonzero(alive)
    lb = np.empty(rows.shape[0])
    if rows.shape[0]:
        if envelope_cache is not None:
            lower, upper = envelope_cache.envelopes(t, band, query_length=n)
        else:
            lower, upper = dtw_band_envelopes(t, band, query_length=n)
        lb = keogh_bounds(q, lower, upper, rows, cols)
        np.maximum(lb, kim[rows, cols], out=lb)
    keep = lb <= thr[rows]
    lb_keogh_pruned = int((~keep).sum())
    rows, cols, lb = rows[keep], cols[keep], lb[keep]

    # --- stage 2b: query-side LB_Keogh for the train-side survivors --------
    # The mirrored direction (envelopes around each *query*, held against
    # the raw training samples) is admissible for the same banded DP, so the
    # cascade prunes on the max of all bounds.  Query envelopes depend on
    # this call's queries, so they are computed fresh (never cached) and
    # only once the cheaper bounds have thinned the pair list.
    lb_keogh_query_pruned = 0
    if rows.shape[0]:
        lower_q, upper_q = dtw_band_envelopes(q, band, query_length=m)
        np.maximum(lb, keogh_bounds(t, lower_q, upper_q, cols, rows), out=lb)
        keep = lb <= thr[rows]
        lb_keogh_query_pruned = int((~keep).sum())
        lb_keogh_pruned += lb_keogh_query_pruned
        rows, cols, lb = rows[keep], cols[keep], lb[keep]

    # --- stage 3: early-abandoning DP for survivors, best-bound first ------
    order = np.argsort(lb, kind="stable")
    rows, cols, lb = rows[order], cols[order], lb[order]
    for start in range(0, rows.shape[0], _DP_CHUNK_PAIRS):
        stop = min(start + _DP_CHUNK_PAIRS, rows.shape[0])
        chunk_rows = rows[start:stop]
        thr_now = thresholds_for(chunk_rows)
        still = lb[start:stop] <= thr_now
        lb_keogh_pruned += int((~still).sum())
        if not still.any():
            continue
        run_pairs(chunk_rows[still], cols[start:stop][still], thr_now[still])

    if not return_stats:
        return best_i, best_d
    stats = DTWSearchStats(
        n_pairs=n_pairs,
        lb_kim_pruned=lb_kim_pruned,
        lb_keogh_pruned=lb_keogh_pruned,
        dp_abandoned=dp_abandoned,
        dp_computed=dp_computed,
        lb_keogh_query_pruned=lb_keogh_query_pruned,
    )
    return best_i, best_d, stats
