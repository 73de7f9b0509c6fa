"""ECTS -- Early Classification on Time Series (Xing, Pei & Yu, KAIS 2012).

ECTS is the canonical instance-based early classifier.  The training phase
answers one question for every training exemplar: *what is the shortest
prefix length from which this exemplar gives the same nearest-neighbour
evidence that it gives at full length?*  That length is the exemplar's
**minimum prediction length** (MPL).  At prediction time the incoming prefix
is matched against training prefixes with 1-NN; the model commits as soon as
the matched exemplar's MPL is no longer than the number of samples seen.

The MPL of an exemplar ``x`` is computed from its **reverse nearest
neighbours** (RNN): the set of training exemplars that have ``x`` as their
nearest neighbour.  ECTS requires the RNN set of ``x`` on every prefix length
``l >= MPL(x)`` to be identical to its RNN set at full length (so the
evidence ``x`` provides to its neighbours is already stable), and requires
``x``'s own 1-NN label to agree with the full-length one.

The published algorithm additionally agglomerates training exemplars into
hierarchical clusters and computes MPLs per cluster, discarding clusters whose
*support* (fraction of the class they cover) falls below a user parameter.
Table 1 of the paper uses ``minimum support = 0``, in which case every
exemplar participates; this implementation therefore computes per-exemplar
MPLs directly and exposes the support parameter as a filter on which training
exemplars are allowed to trigger early predictions.  The **Relaxed** variant
(also from the KAIS paper) drops the RNN-stability requirement and keeps only
1-NN-label stability, which yields the same accuracy at ``support = 0`` but
much smaller MPLs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier, BatchCheckpoint, PartialPrediction
from repro.distance.engine import (
    _BLOCK,
    PrefixDistanceEngine,
    PrefixSweep,
    iter_prefix_distances,
    ragged_prefix_distances,
)

__all__ = ["ECTSClassifier", "RelaxedECTSClassifier"]

#: Byte budget for the dense ``(full, n, n)`` squared-difference stack of
#: the vectorised fit kernel.  The choice is all-or-nothing: a stack within
#: the budget is answered in one cache-resident cumulative-sum pass (a
#: handful of big array operations instead of per-length Python dispatch);
#: anything larger runs the per-length incremental sweep, whose ``(n, n)``
#: working set stays cache-resident where the dense stack would be pure
#: main-memory traffic.
_FIT_BLOCK_BYTES = 2**20


class ECTSClassifier(BaseEarlyClassifier):
    """The strict ECTS early classifier.

    Parameters
    ----------
    min_support:
        Minimum fraction of its own class an exemplar's RNN set must cover at
        full length for the exemplar to be allowed to trigger early
        predictions (0, the Table 1 setting, lets every exemplar trigger).
    min_length:
        Smallest prefix length considered when computing MPLs.
    checkpoint_step:
        Granularity (in samples) of both MPL computation and prediction-time
        checkpoints; 1 reproduces the per-sample behaviour of the original.
    """

    #: Whether RNN-set stability is required (the strict algorithm) or only
    #: 1-NN label stability (the relaxed variant).
    require_rnn_stability: bool = True

    def __init__(
        self,
        min_support: float = 0.0,
        min_length: int = 3,
        checkpoint_step: int = 1,
    ) -> None:
        super().__init__()
        if not 0.0 <= min_support <= 1.0:
            raise ValueError("min_support must be in [0, 1]")
        if min_length < 1:
            raise ValueError("min_length must be >= 1")
        if checkpoint_step < 1:
            raise ValueError("checkpoint_step must be >= 1")
        self.min_support = min_support
        self.min_length = min_length
        self.checkpoint_step = checkpoint_step
        self._train: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._engine: PrefixDistanceEngine | None = None
        self.mpl_: np.ndarray | None = None
        self.support_: np.ndarray | None = None
        self._eligible: np.ndarray | None = None

    # ------------------------------------------------------------ training
    def fit(self, series: np.ndarray, labels: Sequence) -> "ECTSClassifier":
        """Compute per-exemplar minimum prediction lengths from 1-NN/RNN stability."""
        data, label_arr = self._validate_training_data(series, labels)
        self._train = data
        self._labels = label_arr
        self._engine = PrefixDistanceEngine(data)
        self._store_training_shape(data, label_arr)

        lengths = self._mpl_lengths(data.shape[1])
        nearest = self._nearest_index_matrix(data, lengths)
        self.mpl_ = self._compute_mpls(label_arr, lengths, nearest)
        self.support_ = self._compute_support(label_arr, nearest[-1])
        self._eligible = self.support_ >= self.min_support
        return self

    def _mpl_lengths(self, full_length: int) -> list[int]:
        lengths = list(range(self.min_length, full_length + 1, self.checkpoint_step))
        if lengths[-1] != full_length:
            lengths.append(full_length)
        return lengths

    @staticmethod
    def _nearest_neighbours(distances: np.ndarray) -> np.ndarray:
        """Index of each exemplar's nearest neighbour (diagonal excluded)."""
        masked = distances.copy()
        np.fill_diagonal(masked, np.inf)
        return np.argmin(masked, axis=1)

    def _nearest_index_matrix(self, data: np.ndarray, lengths: list[int]) -> np.ndarray:
        """``(n_lengths, n)`` index of every exemplar's 1-NN at every prefix length.

        Small ``checkpoint_step=1`` problems (the per-tenant / per-stream
        refit regime the training engine is built for) are answered by one
        dense time-major cumulative-sum pass: the ``(full, n, n)``
        squared-difference tensor, cumulative-summed over time, with the
        diagonal masked and one contiguous argmin over the checkpoint
        planes.  The per-sample cumulative sum reproduces the incremental
        engine's term sequence bit for bit only when the engine also
        advances one sample at a time -- ``checkpoint_step == 1`` past a
        first checkpoint inside one engine block (a multi-sample engine
        advance groups its block sum before adding the running base, which
        can differ in the last ulp) -- so exactly that case takes the dense
        pass.  Everything else (larger steps, long ``min_length``, or a
        stack past ``_FIT_BLOCK_BYTES`` where the big passes would turn into
        main-memory traffic) runs a copy-free
        :class:`~repro.distance.engine.PrefixSweep` over the fitted engine,
        masking and restoring the diagonal in place (each exemplar's
        self-distance is exactly zero at every prefix) -- trivially the
        reference's own distances.  Both paths take the argmin on squared
        distances (ordering is the same) and resolve ties to the lowest
        training index, exactly like the reference
        :meth:`_neighbour_structures`.
        """
        assert self._engine is not None
        n = data.shape[0]
        full = lengths[-1]
        out = np.empty((len(lengths), n), dtype=np.intp)
        diagonal = np.arange(n)
        if (
            data.ndim == 2
            and self.checkpoint_step == 1
            and lengths[0] <= _BLOCK
            and full * n * n * 8 <= _FIT_BLOCK_BYTES
        ):
            # The dense time-major pass is univariate-only; multichannel
            # training data always runs the engine sweep below, which
            # channel-sums inside the shared prefix kernels.
            # Time-major dense pass: every operation streams over contiguous
            # (n, n) planes, and the training axis argmin reduces over the
            # contiguous last axis.
            data_t = np.ascontiguousarray(data.T[:full])
            stack = data_t[:, :, None] - data_t[:, None, :]
            np.square(stack, out=stack)
            np.cumsum(stack, axis=0, out=stack)
            stack[:, diagonal, diagonal] = np.inf
            # checkpoint_step == 1 makes the length grid contiguous, so the
            # checkpoint planes are a view, not a gather.
            np.argmin(stack[lengths[0] - 1 :], axis=2, out=out)
        else:
            sweep = self._engine.open(data)
            for k, length in enumerate(lengths):
                distances = sweep.advance_to(length)
                distances[diagonal, diagonal] = np.inf
                out[k] = np.argmin(distances, axis=1)
                # Restore the masked diagonal to its exact running value --
                # zero, a sum of (x_t - x_t)^2 terms -- so the sweep state
                # needs no per-length copy.
                distances[diagonal, diagonal] = 0.0
        return out

    def _compute_mpls(
        self, labels: np.ndarray, lengths: list[int], nearest: np.ndarray
    ) -> np.ndarray:
        """Minimum prediction length of every training exemplar (vectorised).

        Everything the MPL rule needs is derivable from the
        ``(n_lengths, n)`` nearest-index matrix, because exemplar ``i`` is in
        the RNN set of ``j`` at length ``l`` exactly when
        ``nearest[l, i] == j`` -- the RNN sets are the columns of a boolean
        membership matrix that never has to be materialised:

        * *strict RNN stability* -- ``RNN_l(j) != RNN_full(j)`` iff some
          member ``i`` moved (``nearest[l, i] != nearest[full, i]``) into or
          out of ``j``, so scattering both endpoints of every moved member
          marks every unstable ``j``;
        * *relaxed RNN stability* (``RNN_l(j)`` a subset of ``RNN_full(j)``)
          scatters only the length-``l`` endpoint;
        * *label purity* scatters ``nearest[l, i]`` for every member ``i``
          whose label disagrees with its neighbour's;
        * *1-NN label stability* is a direct comparison of label codes.

        The per-exemplar reverse walk of the reference implementation
        ("longest suffix of lengths over which the evidence is stable") then
        becomes one reverse cumulative boolean AND along the length axis.
        Equivalence to :meth:`_compute_mpls_reference` is pinned exactly by
        the training-kernel test suite.
        """
        n = labels.shape[0]
        n_lengths = len(lengths)
        codes = np.unique(labels, return_inverse=True)[1]
        full_nn = nearest[-1]

        # ok[k, j]: exemplar j's evidence at lengths[k] already matches its
        # full-length evidence (the per-length condition of the reference
        # walk).  Start from 1-NN label stability.
        ok = codes[nearest] == codes[full_nn][None, :]

        # RNN stability: scatter the endpoints of every member whose nearest
        # neighbour at lengths[k] differs from its full-length one.
        rows, members = np.nonzero(nearest != full_nn[None, :])
        unstable = np.zeros((n_lengths, n), dtype=bool)
        unstable[rows, nearest[rows, members]] = True
        if self.require_rnn_stability:
            unstable[rows, full_nn[members]] = True
        ok &= ~unstable

        # Label purity: an RNN set containing a differently-labelled member
        # disqualifies its owner (an empty RNN set is vacuously pure).
        rows, members = np.nonzero(codes[nearest] != codes[None, :])
        impure = np.zeros((n_lengths, n), dtype=bool)
        impure[rows, nearest[rows, members]] = True
        ok &= ~impure

        # The reference walks lengths from the longest down and stops at the
        # first failure; vectorised, the MPL is the first length of the
        # all-stable suffix -- a reverse cumulative AND.
        stable_suffix = np.logical_and.accumulate(ok[::-1], axis=0)[::-1]
        first_stable = np.argmax(stable_suffix, axis=0)
        length_arr = np.asarray(lengths, dtype=int)
        return np.where(
            stable_suffix.any(axis=0), length_arr[first_stable], length_arr[-1]
        )

    @staticmethod
    def _compute_support(labels: np.ndarray, full_nn: np.ndarray) -> np.ndarray:
        """Support of each exemplar: fraction of its class in its full-length RNN set.

        One :func:`numpy.unique` pass yields the per-class sizes (the
        reference recounted ``np.sum(labels == labels[i])`` inside its loop);
        the same-class RNN member counts are one ``bincount`` over the
        full-length nearest-index vector restricted to label-agreeing pairs.
        """
        _, codes, class_sizes = np.unique(
            labels, return_inverse=True, return_counts=True
        )
        agreeing = codes == codes[full_nn]
        same_class_rnn = np.bincount(full_nn[agreeing], minlength=labels.shape[0])
        same_class = class_sizes[codes] - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(same_class > 0, same_class_rnn / same_class, 0.0)

    # ------------------------------------------------- reference fit kernels
    #
    # The frozenset-and-loop implementation the vectorised kernels replaced.
    # It is kept verbatim as the semantic reference: the training-kernel
    # equivalence tests assert exact MPL/support agreement against it, and
    # ``benchmarks/test_bench_fit.py`` times the vectorised fit against it.

    def _fit_reference(self, series: np.ndarray, labels: Sequence) -> "ECTSClassifier":
        """The pre-vectorisation fit path (per-exemplar Python loops)."""
        data, label_arr = self._validate_training_data(series, labels)
        self._train = data
        self._labels = label_arr
        self._engine = PrefixDistanceEngine(data)
        self._store_training_shape(data, label_arr)

        lengths = self._mpl_lengths(data.shape[1])
        nn_indices, rnn_sets = self._neighbour_structures(data, lengths)
        self.mpl_ = self._compute_mpls_reference(label_arr, lengths, nn_indices, rnn_sets)
        self.support_ = self._compute_support_reference(label_arr, rnn_sets[lengths[-1]])
        self._eligible = self.support_ >= self.min_support
        return self

    def _neighbour_structures(
        self, data: np.ndarray, lengths: list[int]
    ) -> tuple[dict[int, np.ndarray], dict[int, list[frozenset[int]]]]:
        """1-NN indices and RNN sets of every exemplar at every prefix length.

        The length-by-length distance matrices come from one incremental
        sweep of :func:`repro.distance.engine.iter_prefix_distances`, so the
        whole structure costs ``O(n^2 * L)`` -- the price of a *single*
        full-length matrix -- instead of the ``O(n^2 * L^2 / step)`` of
        recomputing every prefix from scratch.  The nearest neighbour is
        taken on squared distances (the ordering is the same).
        """
        nn_indices: dict[int, np.ndarray] = {}
        rnn_sets: dict[int, list[frozenset[int]]] = {}
        n = data.shape[0]
        for length, distances in iter_prefix_distances(data, data, lengths, squared=True):
            nearest = self._nearest_neighbours(distances)
            nn_indices[length] = nearest
            reverse: list[set[int]] = [set() for _ in range(n)]
            for i, j in enumerate(nearest):
                reverse[j].add(i)
            rnn_sets[length] = [frozenset(s) for s in reverse]
        return nn_indices, rnn_sets

    def _compute_mpls_reference(
        self,
        labels: np.ndarray,
        lengths: list[int],
        nn_indices: dict[int, np.ndarray],
        rnn_sets: dict[int, list[frozenset[int]]],
    ) -> np.ndarray:
        """Minimum prediction length of every training exemplar (reference loop)."""
        n = labels.shape[0]
        full = lengths[-1]
        mpl = np.full(n, full, dtype=int)
        full_rnn = rnn_sets[full]
        full_nn = nn_indices[full]
        for i in range(n):
            # Walk lengths from the longest down; the MPL is the start of the
            # longest suffix of lengths over which the evidence is stable.
            stable_from = full
            for length in reversed(lengths):
                nn_label_ok = labels[nn_indices[length][i]] == labels[full_nn[i]]
                if self.require_rnn_stability:
                    # Strict ECTS: the RNN set must already be exactly the
                    # full-length RNN set.
                    rnn_ok = rnn_sets[length][i] == full_rnn[i]
                else:
                    # Relaxed ECTS: the RNN set may still be growing, but it
                    # must not contain anything that will later disappear.
                    rnn_ok = rnn_sets[length][i] <= full_rnn[i]
                label_pure_ok = all(labels[j] == labels[i] for j in rnn_sets[length][i])
                if nn_label_ok and rnn_ok and (label_pure_ok or not rnn_sets[length][i]):
                    stable_from = length
                else:
                    break
            mpl[i] = stable_from
        return mpl

    @staticmethod
    def _compute_support_reference(
        labels: np.ndarray, full_rnn: list[frozenset[int]]
    ) -> np.ndarray:
        """Support of each exemplar, recomputed per exemplar (reference loop)."""
        support = np.zeros(labels.shape[0])
        for i, rnn in enumerate(full_rnn):
            same_class = np.sum(labels == labels[i]) - 1
            if same_class <= 0:
                support[i] = 0.0
                continue
            same_class_rnn = sum(1 for j in rnn if labels[j] == labels[i])
            support[i] = same_class_rnn / same_class
        return support

    # ------------------------------------------------------------ prediction
    def predict_partial(self, prefix: np.ndarray) -> PartialPrediction:
        """1-NN match of the prefix; ready once the match's MPL has been reached.

        Distances come from a one-shot :class:`PrefixDistanceEngine` sweep --
        the same exact-term accumulation the incremental walk of
        :meth:`predict_early` uses -- so both entry points agree on
        tie-breaks as well as values (a dot-product-expansion distance would
        differ at ~1e-7 relative on near-duplicate exemplars).
        """
        arr = self._validate_prefix(prefix)
        assert self._engine is not None
        length = arr.shape[0]
        # One independent sweep over the *fitted* engine: no per-call engine
        # construction (and no per-call transpose of the training matrix).
        sq = self._engine.open(arr).advance_to(length)
        return self._partial_from_distances(np.sqrt(sq[0]), length)

    def _stream_context(self, series: np.ndarray) -> PrefixSweep:
        """An independent prefix sweep on this exemplar: O(n_train) per extra sample.

        The sweep shares the fitted engine's training matrix but owns its
        running state, so any number of walks -- one per concurrent candidate
        window on a stream -- can be in flight at once.  ``series`` may be a
        buffer still being filled in; the sweep only reads samples
        ``advance_to`` has been asked for.
        """
        assert self._engine is not None
        return self._engine.open(series)

    def _partial_at_length(
        self, series: np.ndarray, length: int, context: object | None = None
    ) -> PartialPrediction:
        if not isinstance(context, PrefixSweep):
            return self.predict_partial(series[:length])
        sq = context.advance_to(length)
        return self._partial_from_distances(np.sqrt(sq[0]), length)

    def _partial_from_distances(
        self, distances: np.ndarray, length: int
    ) -> PartialPrediction:
        """Turn 1-NN distances at one prefix length into a partial prediction."""
        assert self._labels is not None
        assert self.mpl_ is not None and self._eligible is not None
        order = np.argsort(distances, kind="stable")
        nearest = int(order[0])
        label = self._labels[nearest]

        # The model is ready if the nearest neighbour is an eligible exemplar
        # whose MPL has been reached.
        ready = bool(self._eligible[nearest] and self.mpl_[nearest] <= length)

        # Confidence: how much closer the nearest neighbour is than the best
        # neighbour of any other class (mapped to (0, 1)).
        other_mask = self._labels != label
        if np.any(other_mask):
            best_other = float(np.min(distances[other_mask]))
            best_same = float(distances[nearest])
            confidence = best_other / (best_other + best_same + 1e-12)
        else:
            confidence = 1.0
        return self._partial_from_statistics(label, ready, confidence, length)

    def _partial_from_statistics(
        self, label: object, ready: bool, confidence: float, length: int
    ) -> PartialPrediction:
        """Assemble the :class:`PartialPrediction` shared by both walk paths."""
        probabilities = {cls: 0.0 for cls in self.classes_}
        probabilities[label] = confidence
        remaining = 1.0 - confidence
        others = [cls for cls in self.classes_ if cls != label]
        for cls in others:
            probabilities[cls] = remaining / len(others)
        return PartialPrediction(
            label=label,
            ready=ready,
            confidence=confidence,
            prefix_length=length,
            probabilities=probabilities,
        )

    def checkpoints(self) -> list[int]:
        """Prefix lengths evaluated at prediction time (every ``checkpoint_step`` samples).

        Identical to the grid MPLs are computed on (:meth:`_mpl_lengths`), so
        training and prediction can never disagree about the checkpoint set.
        """
        self._require_fitted()
        return self._mpl_lengths(self.train_length_)

    def _predict_partial_batch(
        self, data: np.ndarray, lengths: np.ndarray
    ) -> list[PartialPrediction]:
        """Whole-batch checkpoint evaluation from externally held prefixes.

        One :func:`repro.distance.engine.ragged_prefix_distances` pass
        answers every row at its own prefix length; the per-row 1-NN
        statistics (first-minimum nearest index -- the stable lowest-index
        tie-break of the per-row path -- readiness against the matched
        exemplar's MPL, and the margin confidence) are vectorised across the
        batch.  The equivalence tests pin labels/readiness exactly and
        confidence to ``<= 1e-10`` against per-row :meth:`predict_partial`.
        """
        assert self._labels is not None and self._train is not None
        assert self.mpl_ is not None and self._eligible is not None
        labels = self._labels
        distances = ragged_prefix_distances(data, self._train, lengths)
        nearest = np.argmin(distances, axis=1)
        ready = self._eligible[nearest] & (self.mpl_[nearest] <= lengths)

        best_same = distances[np.arange(distances.shape[0]), nearest]
        class_masks = [labels == cls for cls in self.classes_]
        class_minima = np.stack(
            [distances[:, mask].min(axis=1) for mask in class_masks], axis=1
        )
        own_class = np.stack([mask[nearest] for mask in class_masks], axis=1)
        best_other = np.min(np.where(own_class, np.inf, class_minima), axis=1)
        # A single-class training set cannot happen (fit validates >= 2
        # classes), so best_other is always finite and the margin matches
        # the per-row formula exactly.
        confidence = best_other / (best_other + best_same + 1e-12)
        return [
            self._partial_from_statistics(
                labels[nearest[i]],
                bool(ready[i]),
                float(confidence[i]),
                int(lengths[i]),
            )
            for i in range(data.shape[0])
        ]

    # ------------------------------------------------------------ batched path
    def _batch_partial_evaluators(self, data: np.ndarray) -> list[BatchCheckpoint]:
        """Vectorised checkpoint evaluation for a whole test batch.

        The whole batch shares one :class:`PrefixSweep` over the fitted
        engine -- the per-row walk's advance sequence, vectorised across
        rows, so the distances match the reference bit for bit while the
        running state stays ``O(n_rows * n_train)`` regardless of how many
        checkpoints the series length implies (ECTS defaults to one per
        sample).  The sweep is advanced lazily, on the first row that
        actually reaches a checkpoint: once every row has triggered, the
        remaining checkpoints cost nothing, matching the work profile of
        the per-row reference walk.  Per-checkpoint 1-NN statistics
        (nearest index via the lowest-index tie-break, readiness, margin
        confidence) are computed across the batch with array operations;
        the vectorised readiness and answer arrays let the base walk commit
        every row without building a partial.
        """
        assert self._train is not None and self._labels is not None
        assert self._engine is not None
        assert self.mpl_ is not None and self._eligible is not None
        labels = self._labels
        lengths = [c for c in self.checkpoints() if c <= data.shape[1]]
        if not lengths:
            return []
        sweep = self._engine.open(data)
        class_masks = [labels == cls for cls in self.classes_]

        def make_checkpoint(length: int) -> BatchCheckpoint:
            stats: dict = {}

            def compute() -> dict:
                if not stats:
                    # Checkpoints are consumed in increasing length order, so
                    # the shared sweep only ever advances forward.
                    distances = np.sqrt(sweep.advance_to(length))
                    # np.argmin returns the first occurrence of the minimum:
                    # the same lowest-index tie-break as the stable argsort
                    # of the per-row path.
                    nearest = np.argmin(distances, axis=1)
                    stats["labels"] = labels[nearest]
                    stats["ready"] = self._eligible[nearest] & (
                        self.mpl_[nearest] <= length
                    )
                    best_same = distances[np.arange(distances.shape[0]), nearest]
                    class_minima = np.stack(
                        [distances[:, mask].min(axis=1) for mask in class_masks],
                        axis=1,
                    )
                    own_class = np.stack(
                        [mask[nearest] for mask in class_masks], axis=1
                    )
                    best_other = np.min(
                        np.where(own_class, np.inf, class_minima), axis=1
                    )
                    stats["confidence"] = best_other / (
                        best_other + best_same + 1e-12
                    )
                return stats

            def partial(i: int) -> PartialPrediction:
                values = compute()
                return self._partial_from_statistics(
                    values["labels"][i],
                    bool(values["ready"][i]),
                    float(values["confidence"][i]),
                    length,
                )

            def answers(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                values = compute()
                return values["labels"][rows], values["confidence"][rows]

            return BatchCheckpoint(
                length=length,
                partial=partial,
                ready=lambda rows: compute()["ready"][rows],
                answers=answers,
            )

        return [make_checkpoint(length) for length in lengths]


class RelaxedECTSClassifier(ECTSClassifier):
    """The relaxed ECTS variant: MPLs require only 1-NN label stability.

    With ``min_support = 0`` (the Table 1 setting) the relaxed variant makes
    the same final predictions as strict ECTS but triggers earlier, because
    dropping the RNN-stability requirement can only shorten MPLs.
    """

    require_rnn_stability = False
