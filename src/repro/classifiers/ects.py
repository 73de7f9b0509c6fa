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
from repro.distance.engine import PrefixDistanceEngine, PrefixSweep

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

    def _nearest_index_matrix(self, data: np.ndarray, lengths: list[int]) -> np.ndarray:
        """``(n_lengths, n)`` index of every exemplar's 1-NN at every prefix length.

        Small ``checkpoint_step=1`` problems (the per-tenant / per-stream
        refit regime the training engine is built for) are answered by one
        dense time-major cumulative-sum pass: the ``(full, n, n)``
        squared-difference tensor, cumulative-summed over time, with the
        diagonal masked and one contiguous argmin over the checkpoint
        planes.  Everything else (larger steps, or a stack past
        ``_FIT_BLOCK_BYTES`` where the big passes would turn into
        main-memory traffic) runs a :class:`~repro.distance.engine.PrefixSweep`
        over the fitted engine, masking and restoring the diagonal in place
        (each exemplar's self-distance is exactly zero at every prefix).
        The sweep adds the squared terms in the cumulative sum's time order
        at any step size, so both paths see the same bits.  Both take the
        argmin on squared distances (ordering is the same) and resolve ties
        to the lowest training index, exactly like ``neighbour_structures``
        in the reference fit of ``tests/oracles/ects.py``.
        """
        assert self._engine is not None
        n = data.shape[0]
        full = lengths[-1]
        out = np.empty((len(lengths), n), dtype=np.intp)
        diagonal = np.arange(n)
        if (
            data.ndim == 2
            and self.checkpoint_step == 1
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
        Equivalence to ``compute_mpls_reference`` in ``tests/oracles/ects.py``
        is pinned exactly by the training-kernel test suite.
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

    # ------------------------------------------------------------ prediction
    def predict_partial(self, prefix: np.ndarray) -> PartialPrediction:
        """1-NN match of the prefix; ready once the match's MPL has been reached.

        The prefix is a one-row :class:`PrefixSweep` over the fitted engine,
        answered by the checkpoint builder the batched walk uses, so both
        accumulate the same exact squared-difference terms and agree on
        tie-breaks as well as values (a dot-product-expansion distance would
        differ at ~1e-7 relative on near-duplicate exemplars).
        """
        arr = self._validate_prefix(prefix)
        assert self._engine is not None and self._labels is not None
        class_masks = [self._labels == cls for cls in self.classes_]
        checkpoint = self._checkpoint(self._engine.open(arr), arr.shape[0], class_masks)
        return checkpoint.partial(0)

    def _partial_from_statistics(
        self, label: object, ready: bool, confidence: float, length: int
    ) -> PartialPrediction:
        """Assemble the :class:`PartialPrediction` of one row's 1-NN statistics."""
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

    # ------------------------------------------------------------ batched path
    def _batch_partial_evaluators(self, data: np.ndarray) -> list[BatchCheckpoint]:
        """Vectorised checkpoint evaluation for a whole test batch.

        The whole batch shares one :class:`PrefixSweep` over the fitted
        engine, advanced checkpoint by checkpoint, so the running state
        stays ``O(n_rows * n_train)`` regardless of how many checkpoints the
        series length implies (ECTS defaults to one per sample).
        """
        assert self._engine is not None and self._labels is not None
        sweep = self._engine.open(data)
        class_masks = [self._labels == cls for cls in self.classes_]
        return [
            self._checkpoint(sweep, length, class_masks)
            for length in self.checkpoints()
            if length <= data.shape[1]
        ]

    def _checkpoint(
        self, sweep: PrefixSweep, length: int, class_masks: list[np.ndarray]
    ) -> BatchCheckpoint:
        """Every sweep row's 1-NN statistics at ``length``, computed when first asked for.

        The sweep is advanced on the first row that reaches the checkpoint,
        so once every row has triggered the remaining checkpoints cost
        nothing.  The statistics (nearest index via the lowest-index
        tie-break, readiness, margin confidence) are array operations over
        the sweep's rows; the vectorised readiness and answer arrays let the
        first-ready walk commit every row without building a partial.
        ``class_masks`` holds one boolean training-row mask per class.
        """
        assert self._labels is not None
        assert self.mpl_ is not None and self._eligible is not None
        labels, mpl, eligible = self._labels, self.mpl_, self._eligible
        stats: dict = {}

        def compute() -> dict:
            if not stats:
                # Checkpoints are consumed in increasing length order, so a
                # shared sweep only ever advances forward.
                distances = np.sqrt(sweep.advance_to(length))
                # np.argmin returns the first occurrence of the minimum: the
                # lowest-index tie-break.
                nearest = np.argmin(distances, axis=1)
                stats["labels"] = labels[nearest]
                stats["ready"] = eligible[nearest] & (mpl[nearest] <= length)
                best_same = distances[np.arange(distances.shape[0]), nearest]
                class_minima = np.stack(
                    [distances[:, mask].min(axis=1) for mask in class_masks], axis=1
                )
                own_class = np.stack([mask[nearest] for mask in class_masks], axis=1)
                best_other = np.min(np.where(own_class, np.inf, class_minima), axis=1)
                stats["confidence"] = best_other / (best_other + best_same + 1e-12)
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


class RelaxedECTSClassifier(ECTSClassifier):
    """The relaxed ECTS variant: MPLs require only 1-NN label stability.

    With ``min_support = 0`` (the Table 1 setting) the relaxed variant makes
    the same final predictions as strict ECTS but triggers earlier, because
    dropping the RNN-stability requirement can only shorten MPLs.
    """

    require_rnn_stability = False
