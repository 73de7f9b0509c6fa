"""Incremental prefix-distance engine.

Every experiment in the paper that touches early classification evaluates
1-NN evidence at *many prefix lengths of the same series*: ECTS computes
neighbour structures at every length during training, TEASER evaluates
its slave classifier at every checkpoint for every training exemplar,
Fig. 3 and Fig. 9 sweep accuracy over prefix lengths, and ECTS's
prediction walk reads 1-NN distances at every checkpoint of a test batch.
Recomputing a full Euclidean distance at each length
costs ``O(t)`` per step and ``O(L^2)`` per series overall; this module
removes that redundancy.

The identity behind the engine is trivial but load-bearing::

    d^2(q[:t+1], x[:t+1]) = d^2(q[:t], x[:t]) + (q[t] - x[t])^2

so extending every query prefix against ``n_train`` training series costs
``O(n_train)`` per new sample instead of ``O(n_train * t)``.  Crucially the
partial sums accumulate exactly the same ``(q_i - x_i)^2`` terms a naive
per-prefix recomputation would sum, so the results agree with
:func:`repro.distance.euclidean.euclidean_distance` to floating-point
round-off (the equivalence tests assert ``<= 1e-10``) -- this is *not* the
dot-product expansion used by :func:`~repro.distance.euclidean.pairwise_euclidean`,
which trades a little accuracy for BLAS throughput.  Every entry point adds
those terms one time step after another, the order of a cumulative sum, so
a sweep advanced in steps of any size equals
:func:`batch_prefix_distances` bit for bit (the equivalence tests assert
equality).

Four entry points:

* :class:`PrefixDistanceEngine` -- stateful: start a batch of queries, then
  :meth:`~PrefixDistanceEngine.advance_to` successive lengths and read the
  current distances.  :meth:`~PrefixDistanceEngine.open` hands out an
  *independent* :class:`PrefixSweep` sharing the engine's training matrix,
  so many sweeps can be live at once, each at its own prefix length.  ECTS
  predicts on sweeps: one shared by all rows of a batched walk, advanced
  checkpoint by checkpoint, and a one-row sweep per ``predict_partial``
  call, advanced straight to the prefix length -- the same bits either
  way.
* :func:`iter_prefix_distances` -- generator over ``(length, distances)``
  snapshots; used by training loops that need one distance matrix per
  checkpoint without holding all of them in memory at once.
* :func:`pairwise_prefix_distances` -- the batched convenience wrapper that
  stacks the snapshots into one ``(n_lengths, n_queries, n_train)`` array.
* :func:`batch_prefix_distances` -- the test-set-at-once kernel: the same
  ``(n_lengths, n_queries, n_train)`` array computed by cumulative-sum matrix
  algebra in one shot (no per-length Python iteration), chunked over queries
  to bound the working set.  A request for one length needs no running sum
  and is a plain sum of the squared differences.  The 1-NN prefix sweeps
  (:meth:`repro.distance.neighbors.KNeighborsTimeSeriesClassifier.predict_prefixes`)
  and the archive sweep (:mod:`repro.runtime.sweep`) are built on it.

Multichannel series are first-class.  A training set may be 3-D
``(n_train, L, d)`` (axis 0 = series, axis 1 = time, axis 2 = channel) and
every kernel then returns *channel-summed* squared distances.  For the
prefix-Euclidean kernels this costs no new numeric code: the channel-summed
prefix distance at time ``t`` equals the flat prefix distance at flat index
``t * d`` of the time-major flattening ``(L, d) -> (L * d,)``, and the
cumulative sums accumulate exactly the same terms in the same order -- so
the engines flatten internally and keep all public lengths in **time**
units.  For ``d == 1`` the flattening is a no-op and every code path is the
historical one, bit for bit.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.memory import get_memory_budget

__all__ = [
    "PrefixDistanceEngine",
    "PrefixSweep",
    "batch_prefix_distances",
    "iter_prefix_distances",
    "pairwise_prefix_distances",
]

#: Bytes of squared differences a multi-step advance holds at once: a
#: block of time steps small enough to stay cache-resident while it is
#: added into the running sums.
_ADVANCE_BLOCK_BYTES = 2**20

#: Running sums of at most this many cells make a narrow sweep (a session's
#: handful of windows, a one-row ``predict_partial``), where a ufunc call
#: per time step costs more than cumulative-summing the block at once.
_NARROW_CELLS = 256


def _validated_lengths(lengths: Sequence[int], max_length: int) -> list[int]:
    """Shared length validation: non-empty, strictly increasing, in range."""
    lengths = [int(v) for v in lengths]
    if not lengths:
        raise ValueError("need at least one prefix length")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be strictly increasing")
    if lengths[0] < 1 or lengths[-1] > max_length:
        raise ValueError(f"lengths must lie in [1, {max_length}]")
    return lengths


def _as_train_tensor(train: np.ndarray) -> np.ndarray:
    """Validate a training batch: 2-D ``(n, L)`` or 3-D ``(n, L, d)``.

    A ``(n, L, 1)`` batch is univariate in disguise and squeezes to the
    exact legacy 2-D layout, so every downstream kernel runs its historical
    code path bit for bit regardless of which layout produced the data.
    """
    arr = np.asarray(train, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(
            "train must be a 2-D (n_train, length) batch of univariate series "
            "or a 3-D (n_train, length, n_channels) multichannel batch; got "
            f"shape {arr.shape}"
        )
    if arr.shape[0] < 1 or arr.shape[1] < 1 or (arr.ndim == 3 and arr.shape[2] < 1):
        raise ValueError("train must contain at least one non-empty series")
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    return arr


def _flatten_time_major(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Time-major flattening ``(n, L, d) -> (n, L * d)``; 2-D passes through.

    Channel-summed squared prefix distances over ``(L, d)`` series are
    exactly the flat squared prefix distances over this flattening (time
    prefix ``t`` <-> flat prefix ``t * d``), with the summands accumulated
    in the identical (time-major, channel-minor) order.  Returns the 2-D
    matrix and the channel count (1 for univariate input, where the array
    is returned untouched).
    """
    if arr.ndim == 2:
        return arr, 1
    n, _, d = arr.shape
    return np.ascontiguousarray(arr).reshape(n, -1), d


def _as_query_tensor(
    queries: np.ndarray, channels: int, name: str = "queries"
) -> np.ndarray:
    """Normalise queries to a batch matching the training channel count.

    For univariate training (``channels == 1``): 1-D ``(t,)`` promotes to a
    batch of one, 2-D ``(n, t)`` is a batch (the historical meaning), and a
    3-D ``(n, t, 1)`` batch squeezes.  For multichannel training: 2-D
    ``(t, d)`` is a *single exemplar* promoted to a batch of one, 3-D
    ``(n, t, d)`` is a batch; channel counts must match on the trailing
    axis.  Returns a 2-D ``(n, t)`` or 3-D ``(n, t, d)`` array.
    """
    arr = np.asarray(queries, dtype=float)
    if channels == 1:
        if arr.ndim == 1:
            arr = arr[None, :]
        elif arr.ndim == 3:
            if arr.shape[2] != 1:
                raise ValueError(
                    f"{name} have {arr.shape[2]} channels (trailing axis) but "
                    "the training series are univariate"
                )
            arr = arr[:, :, 0]
        if arr.ndim != 2:
            raise ValueError(
                f"{name} must be a 1-D series or a 2-D (n, length) batch for "
                f"univariate training data; got shape {arr.shape}"
            )
        return arr
    if arr.ndim == 2:
        if arr.shape[1] != channels:
            raise ValueError(
                f"{name} of shape {arr.shape} do not match the training "
                f"channel count: expected a single (length, {channels}) "
                f"exemplar or a (n, length, {channels}) batch (axis 0 = "
                "series, axis 1 = time, trailing axis = channel)"
            )
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[2] != channels:
        raise ValueError(
            f"{name} must be a (length, {channels}) exemplar or a "
            f"(n, length, {channels}) multichannel batch; got shape {arr.shape}"
        )
    return arr


class PrefixSweep:
    """One independent prefix-distance sweep over a shared training matrix.

    A sweep owns only the per-query running state: a time-major copy of the
    query series and the accumulated squared partial sums.  The training
    matrix belongs to the :class:`PrefixDistanceEngine` that
    :meth:`~PrefixDistanceEngine.open`\\ ed it.  Any number of sweeps over
    the same engine can be live at once, each at its own prefix length.

    The running sums keep the wider of the query and training-row axes
    contiguous and innermost, so every array operation of an advance
    streams along the long axis: many queries against a few training rows
    (a serving flush) run train-major, everything else row-major.  Every
    advance adds the squared terms one time step after another -- a
    one-sample advance with three in-place ufuncs, a longer one by squaring
    a cache-sized block of time steps and adding it plane by plane, or, on
    a narrow sweep, with one cumulative sum down the block that later
    advances read ahead from -- so any step size gives the bits of the
    single-step walk and of :func:`batch_prefix_distances`'s cumulative
    sum.
    """

    __slots__ = (
        "_outer",
        "_inner",
        "_sq",
        "_step",
        "_distances",
        "_train_major",
        "_ahead",
        "_ahead_start",
        "_length",
        "_channels",
        "_query_length",
    )

    def __init__(
        self, train_t: np.ndarray, queries_t: np.ndarray, channels: int = 1
    ) -> None:
        # Both operands arrive time-major flattened: the shared
        # (L * channels, n_train) training transpose and this sweep's own
        # (t * channels, n_queries) query copy, so time step t of either is
        # one contiguous row.  All public lengths stay in *time* units; the
        # flat conversion is private.
        train_major = queries_t.shape[1] > train_t.shape[1]
        outer, inner = (train_t, queries_t) if train_major else (queries_t, train_t)
        self._outer = outer[:, :, None]
        self._inner = inner[:, None, :]
        self._channels = int(channels)
        self._query_length = queries_t.shape[0] // self._channels
        self._sq = np.zeros((outer.shape[1], inner.shape[1]))
        self._step = np.empty_like(self._sq)
        self._distances = self._sq.T if train_major else self._sq
        self._train_major = train_major
        self._ahead: np.ndarray | None = None
        self._ahead_start = 0
        self._length = 0

    @property
    def query_length(self) -> int:
        """Time length of the query series (the maximum prefix length)."""
        return self._query_length

    # ------------------------------------------------------------ streaming
    def advance_to(self, length: int) -> np.ndarray:
        """Consume query samples up to time prefix ``length``; return distances.

        Cost is ``O(n_queries * n_train * n_channels)`` per newly consumed
        time step -- independent of the prefix length itself, which is the
        whole point.

        Returns
        -------
        numpy.ndarray
            The ``(n_queries, n_train)`` channel-summed squared distances at
            ``length`` (a view of internal state -- transposed when the sweep
            runs train-major -- so copy before mutating).
        """
        outer, inner, sq = self._outer, self._inner, self._sq
        max_length = self._query_length
        if not self._length <= length <= max_length:
            raise ValueError(
                f"length must be in [{self._length}, {max_length}] "
                f"(prefixes only grow), got {length}"
            )
        t = self._length * self._channels
        flat = length * self._channels
        if flat == t:
            return self._distances
        ahead, ahead_start = self._ahead, self._ahead_start
        if ahead is not None and flat <= ahead_start + ahead.shape[0]:
            np.copyto(sq, ahead[flat - 1 - ahead_start])
        elif flat - t == 1:
            # The dominant call pattern (one new sample per checkpoint):
            # three in-place ufuncs on the preallocated step buffer.
            step = self._step
            np.subtract(outer[t], inner[t], out=step)
            np.multiply(step, step, out=step)
            np.add(sq, step, out=sq)
        elif sq.size <= _NARROW_CELLS:
            # Too few cells for one ufunc call per time step to pay: square
            # a block of upcoming steps, fold in the current sums and
            # cumulative-sum it down the time axis in one call; later
            # advances into the block read their sums from it.
            steps = max(1, _ADVANCE_BLOCK_BYTES // (8 * sq.size))
            end = self._query_length * self._channels
            while True:
                stop = min(t + steps, end)
                ahead = outer[t:stop] - inner[t:stop]
                np.multiply(ahead, ahead, out=ahead)
                ahead[0] += sq
                np.cumsum(ahead, axis=0, out=ahead)
                if flat <= stop:
                    break
                np.copyto(sq, ahead[-1])
                t = stop
            self._ahead, self._ahead_start = ahead, t
            np.copyto(sq, ahead[flat - 1 - t])
        else:
            block = max(1, _ADVANCE_BLOCK_BYTES // (8 * sq.size))
            # NumPy stages a broadcast operand through its ufunc buffer when
            # a row is shorter than the buffer.  Train-major rows are the
            # query axis -- a serving flush's thousand windows -- where the
            # staging copies cost more than twice the subtraction itself;
            # the smallest buffer lets it read both operands in place, with
            # the same bits.
            staging = np.setbufsize(16) if self._train_major else None
            try:
                for start in range(t, flat, block):
                    stop = min(start + block, flat)
                    squares = outer[start:stop] - inner[start:stop]
                    np.multiply(squares, squares, out=squares)
                    # One time step after another: the cumulative sum's order.
                    for plane in squares:
                        np.add(sq, plane, out=sq)
            finally:
                if staging is not None:
                    np.setbufsize(staging)
        self._length = length
        return self._distances


class PrefixDistanceEngine:
    """Running squared-Euclidean prefix distances against a fixed training set.

    Parameters
    ----------
    train:
        2-D array of shape ``(n_train, length)``, or a 3-D multichannel
        batch ``(n_train, length, n_channels)``; the reference series every
        query prefix is compared against.  Multichannel distances are
        channel-summed; all lengths remain in time steps.

    Examples
    --------
    >>> import numpy as np
    >>> train = np.arange(12.0).reshape(3, 4)
    >>> engine = PrefixDistanceEngine(train).start(train[:1])
    >>> squared = engine.advance_to(2)
    >>> squared.tolist()
    [[0.0, 32.0, 128.0]]

    Notes
    -----
    Sweeps are deliberately restricted to *monotonically growing* prefixes
    (``advance_to`` with a smaller length raises); restarting a query batch
    is a :meth:`start` call, which is O(n_queries * n_train).  The engine's
    own ``start``/``advance_to`` surface drives a single current sweep (the
    pattern of :func:`iter_prefix_distances`); :meth:`open` hands
    out independent :class:`PrefixSweep` objects for callers that need many
    concurrent sweeps over the same training matrix.
    """

    def __init__(self, train: np.ndarray) -> None:
        tensor = _as_train_tensor(train)
        self._train, self._channels = _flatten_time_major(tensor)
        self._time_length = int(tensor.shape[1])
        # A sweep reads one training *column* per new sample; a contiguous
        # transpose makes each of them one contiguous row.
        self._train_t = np.ascontiguousarray(self._train.T)
        self._sweep: PrefixSweep | None = None

    # ------------------------------------------------------------ properties
    @property
    def train_length(self) -> int:
        """Time length of the training series (the maximum prefix length)."""
        return self._time_length

    @property
    def query_length(self) -> int:
        """Length of the current query series (requires :meth:`start`)."""
        return self._require_started().query_length

    # ------------------------------------------------------------ streaming
    def open(self, queries: np.ndarray) -> PrefixSweep:
        """Open an independent sweep over ``queries`` sharing this training matrix.

        Unlike :meth:`start`, the returned :class:`PrefixSweep` carries its
        own running state, so any number of opened sweeps can be advanced
        independently of one another.

        Parameters
        ----------
        queries:
            For a univariate engine: a 1-D series or 2-D
            ``(n_queries, q_length)`` batch with ``q_length <= train_length``.
            For a multichannel engine: a single ``(q_length, n_channels)``
            exemplar or a ``(n_queries, q_length, n_channels)`` batch.  The
            sweep keeps a time-major copy of the full series; samples are
            only *consumed* by :meth:`PrefixSweep.advance_to`, so a caller
            may hand the whole exemplar up front and still evaluate it
            incrementally.
        """
        arr = _as_query_tensor(queries, self._channels)
        if arr.shape[1] > self.train_length:
            raise ValueError(
                f"query length {arr.shape[1]} exceeds training length "
                f"{self.train_length}"
            )
        if arr.shape[1] < 1:
            raise ValueError("queries must contain at least one sample")
        flat, _ = _flatten_time_major(arr)
        return PrefixSweep(self._train_t, np.ascontiguousarray(flat.T), self._channels)

    def start(self, queries: np.ndarray) -> "PrefixDistanceEngine":
        """Begin a new sweep over a batch of query series (replacing the current one)."""
        self._sweep = self.open(queries)
        return self

    def _require_started(self) -> PrefixSweep:
        if self._sweep is None:
            raise RuntimeError("call start() before advancing the engine")
        return self._sweep

    def advance_to(self, length: int) -> np.ndarray:
        """Advance the current sweep; see :meth:`PrefixSweep.advance_to`."""
        return self._require_started().advance_to(length)


def iter_prefix_distances(
    queries: np.ndarray,
    train: np.ndarray,
    lengths: Sequence[int],
    squared: bool = False,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(length, distance_matrix)`` for increasing prefix lengths.

    One incremental sweep is shared by all requested lengths, so the total
    cost is ``O(n_queries * n_train * max(lengths))`` -- the cost of a single
    full-length distance matrix -- rather than the ``O(sum(lengths))`` of
    per-length recomputation.

    Parameters
    ----------
    queries, train:
        2-D arrays ``(n_queries, L)`` and ``(n_train, L_train)`` with
        ``L <= L_train``, or 3-D multichannel batches ``(n, L, d)`` with
        matching channel counts (distances channel-summed).
    lengths:
        Strictly increasing prefix lengths (time steps) in ``[1, L]``.
    squared:
        Yield squared distances (saves the square root when only the nearest
        neighbour's *identity* matters, since ``sqrt`` is monotonic).

    Yields
    ------
    tuple of (int, numpy.ndarray)
        The prefix length and the ``(n_queries, n_train)`` distance matrix.
        The matrix is freshly allocated at each yield and safe to mutate.
    """
    engine = PrefixDistanceEngine(train).start(queries)
    for length in _validated_lengths(lengths, engine.query_length):
        sq = engine.advance_to(length)
        yield length, (sq.copy() if squared else np.sqrt(sq))


def pairwise_prefix_distances(
    queries: np.ndarray,
    train: np.ndarray,
    lengths: Sequence[int],
    squared: bool = False,
) -> np.ndarray:
    """Batched prefix-distance matrices at several lengths in one sweep.

    Parameters
    ----------
    queries, train:
        2-D arrays ``(n_queries, L)`` and ``(n_train, L_train)``, or 3-D
        multichannel batches with matching channel counts.
    lengths:
        Strictly increasing prefix lengths (time steps).
    squared:
        Return squared distances instead of Euclidean ones.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(lengths), n_queries, n_train)``;
        ``result[k]`` is the distance matrix between the length-``lengths[k]``
        prefixes of every query and every training series.
    """
    engine = PrefixDistanceEngine(train).start(queries)
    lengths = _validated_lengths(lengths, engine.query_length)
    # The first snapshot gives the (n_queries, n_train) shape; advancing to
    # the same length again in the loop adds nothing.
    out = np.empty((len(lengths),) + engine.advance_to(lengths[0]).shape)
    for k, length in enumerate(lengths):
        sq = engine.advance_to(length)
        if squared:
            out[k] = sq
        else:
            np.sqrt(sq, out=out[k])
    return out


def batch_prefix_distances(
    queries: np.ndarray,
    train: np.ndarray,
    lengths: Sequence[int],
    squared: bool = False,
) -> np.ndarray:
    """All (query, train, prefix-length) Euclidean distances in one shot.

    Where :func:`pairwise_prefix_distances` drives the incremental engine
    through one Python-level ``advance_to`` per requested length, this kernel
    expresses the whole ``(n_queries, n_train, n_lengths)`` problem as
    cumulative-sum matrix algebra: the squared differences
    ``(q_i - x_i)^2`` are accumulated along the time axis with one
    :func:`numpy.cumsum`, and every requested prefix length is a column
    lookup into that running sum.  The accumulation is the *exact* term
    sequence the per-row :class:`PrefixSweep` adds one sample at a time, so
    a request for consecutive lengths agrees with that single-step walk to
    the last bit.  A request for one length reads only the last column, so
    it skips the running sum and is a plain :func:`numpy.sum` over time --
    bit for bit ``((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)``.
    Every request agrees with the walk to ``<= 1e-10`` (the equivalence
    tests pin all three).  Queries are processed in chunks whose
    ``(chunk, n_train, max(lengths))`` float64 temporary fits the
    :mod:`repro.memory` budget, so arbitrarily large test sets run in
    bounded memory; each pair's sum is independent of its chunk, so the
    budget never changes a bit of the result.

    Parameters
    ----------
    queries, train:
        2-D arrays ``(n_queries, L)`` and ``(n_train, L_train)`` with
        ``L <= L_train`` (a single 1-D query is promoted to a batch of one),
        or 3-D multichannel batches ``(n, L, d)`` / ``(n_train, L_train, d)``
        with matching channel counts (a single ``(L, d)`` query exemplar is
        promoted); distances are then channel-summed.
    lengths:
        Strictly increasing prefix lengths (time steps) in ``[1, L]``.
    squared:
        Return squared distances (saves the square root when only the
        neighbour *ordering* matters).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(lengths), n_queries, n_train)``;
        ``result[k]`` is the distance matrix between the length-``lengths[k]``
        prefixes of every query and every training series.
    """
    train_tensor = _as_train_tensor(train)
    train, channels = _flatten_time_major(train_tensor)
    arr = _as_query_tensor(queries, channels)
    if arr.shape[1] > train_tensor.shape[1]:
        raise ValueError(
            f"query length {arr.shape[1]} exceeds training length "
            f"{train_tensor.shape[1]}"
        )
    if arr.shape[1] < 1:
        raise ValueError("queries must contain at least one sample")
    block_bytes = get_memory_budget()
    lengths = _validated_lengths(lengths, arr.shape[1])
    arr, _ = _flatten_time_major(arr)
    # Time prefix t <-> flat prefix t * d of the time-major flattening; the
    # cumulative sum below therefore answers every time length via a flat
    # column gather, with no channel-specific arithmetic at all.
    full = lengths[-1] * channels
    n_queries, n_train = arr.shape[0], train.shape[0]
    columns = np.asarray(lengths) * channels - 1
    out = np.empty((len(lengths), n_queries, n_train))
    chunk = max(1, int(block_bytes // (n_train * full * 8)))
    train_prefix = train[None, :, :full]
    for start in range(0, n_queries, chunk):
        stop = min(start + chunk, n_queries)
        block = arr[start:stop, None, :full] - train_prefix
        np.square(block, out=block)
        if len(lengths) == 1:
            # One length reads only the last column: sum it directly.
            np.sum(block, axis=2, out=out[0, start:stop])
            continue
        np.cumsum(block, axis=2, out=block)
        # (chunk, n_train, n_lengths) -> (n_lengths, chunk, n_train)
        out[:, start:stop, :] = np.moveaxis(block[:, :, columns], 2, 0)
    if not squared:
        np.sqrt(out, out=out)
    return out
