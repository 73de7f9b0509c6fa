"""Shared interface of the early-classification algorithms.

Terminology (matching Section 2.1 of the paper):

* an exemplar arrives incrementally; after ``L`` samples the classifier has
  seen the *prefix* of length ``L``;
* at some point the classifier *triggers* -- it decides it has seen enough
  and commits to a class label;
* *earliness* is the fraction of the exemplar that had been seen at the
  trigger point (lower is earlier).

A deliberately explicit design decision: the classifiers operate on whatever
values they are handed.  They do **not** silently re-normalise prefixes,
because the published algorithms do not either -- they implicitly assume the
exemplar arrives already z-normalised as a whole, which is the "peeking into
the future" flaw Section 4 of the paper demonstrates.  The honest alternative
(re-z-normalising each prefix) is available to callers via
``UCRDataset.truncated(..., renormalize=True)`` and via the prefix-accuracy
tooling in :mod:`repro.core.prefix_accuracy`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PartialPrediction",
    "EarlyPrediction",
    "BatchCheckpoint",
    "BaseEarlyClassifier",
    "ClassifierStream",
    "default_checkpoints",
]


def default_checkpoints(series_length: int, n_checkpoints: int = 20) -> list[int]:
    """Evenly spaced prefix lengths at which an early classifier re-evaluates.

    TEASER uses 20 checkpoints (every 5 % of the series); the other
    algorithms in this package accept any increasing list of prefix lengths.

    Parameters
    ----------
    series_length:
        Full exemplar length, at least 3.
    n_checkpoints:
        Number of checkpoints to generate.

    Returns
    -------
    list of int
        Strictly increasing prefix lengths from ``max(3, series_length //
        n_checkpoints)``, ending at ``series_length``.
    """
    if series_length < 3:
        raise ValueError("series_length must be at least 3")
    if n_checkpoints < 1:
        raise ValueError("n_checkpoints must be >= 1")
    first = max(3, series_length // n_checkpoints)
    raw = np.linspace(first, series_length, n_checkpoints)
    checkpoints = sorted({int(round(v)) for v in raw})
    if checkpoints[-1] != series_length:
        checkpoints.append(series_length)
    return checkpoints


@dataclass(frozen=True)
class PartialPrediction:
    """The classifier's view after seeing a prefix.

    Attributes
    ----------
    label:
        The label the classifier would output if forced to answer now (always
        populated, even when not ready -- a deployed system can always be
        forced to answer).
    ready:
        Whether the classifier's own stopping rule says it has seen enough.
    confidence:
        The classifier's confidence in ``label`` (algorithm-specific scale,
        normalised to [0, 1] where possible).
    probabilities:
        Optional per-class probability mapping.
    prefix_length:
        Number of samples that had been seen.
    """

    label: object
    ready: bool
    confidence: float
    prefix_length: int
    probabilities: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EarlyPrediction:
    """The outcome of incrementally classifying one exemplar.

    Attributes
    ----------
    label:
        The committed class label.
    trigger_length:
        Prefix length at which the classifier triggered.  If it never
        triggered, this equals ``series_length`` and ``triggered`` is False.
    series_length:
        Full exemplar length.
    triggered:
        Whether the classifier's stopping rule fired before the exemplar ended.
    confidence:
        Confidence at the trigger point.
    history:
        One :class:`PartialPrediction` per evaluated checkpoint (useful for
        the Fig. 3 style plots).
    """

    label: object
    trigger_length: int
    series_length: int
    triggered: bool
    confidence: float
    history: tuple[PartialPrediction, ...] = ()

    @property
    def earliness(self) -> float:
        """Fraction of the exemplar seen before committing (lower = earlier)."""
        return self.trigger_length / self.series_length


@dataclass(frozen=True)
class BatchCheckpoint:
    """One checkpoint of a batched prediction walk.

    Produced by :meth:`BaseEarlyClassifier._batch_partial_evaluators`, which
    every classifier implements, and walked by
    :meth:`BaseEarlyClassifier.predict_early_batch` and, on a batch of one
    row, by :meth:`BaseEarlyClassifier.predict_early`.  Every classifier
    also answers ``predict_partial`` with a checkpoint evaluated on a batch
    of one row.

    Attributes
    ----------
    length:
        The checkpoint's prefix length.
    partial:
        ``partial(i)`` builds the :class:`PartialPrediction` of batch row
        ``i`` at this checkpoint.  The heavy numerics should be batched
        (and may be cached lazily) inside the closure, so the call itself
        only assembles the per-row object.
    ready:
        Callable taking an integer array of batch row indices -- the rows
        still walking at this checkpoint -- and returning their boolean
        readiness (exactly ``partial(i).ready`` for each ``i``), vectorised.
        Evaluators whose per-row work is expensive compute only the rows
        they are asked about, so rows that triggered earlier cost nothing
        here.  With the default first-ready trigger rule and no history,
        the batched walk resolves trigger points from these arrays and only
        materialises a :class:`PartialPrediction` per row at its commitment
        point.
    answers:
        Optional callable taking the same kind of row index array and
        returning ``(labels, confidences)`` arrays aligned with it (exactly
        ``partial(i).label`` and ``partial(i).confidence``).  The
        first-ready walk then commits rows from these arrays and builds no
        :class:`PartialPrediction` at all.
    """

    length: int
    partial: Callable[[int], PartialPrediction]
    ready: Callable[[np.ndarray], np.ndarray]
    answers: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None


def _row_answers(checkpoint: BatchCheckpoint, rows: np.ndarray):
    """Yield ``(row, label, confidence)`` for each of ``rows`` at one checkpoint."""
    if rows.size == 0:
        return
    if checkpoint.answers is None:
        for i in rows:
            partial = checkpoint.partial(int(i))
            yield int(i), partial.label, partial.confidence
        return
    labels, confidences = checkpoint.answers(rows)
    for j, i in enumerate(rows.tolist()):
        yield i, labels[j], float(confidences[j])


class BaseEarlyClassifier(ABC):
    """Abstract base class of all early classifiers in this package.

    Multichannel training data uses the channel-last axis convention: a 3-D
    array ``(n_exemplars, length, n_channels)`` with axis 0 = exemplar,
    axis 1 = time, axis 2 = channel.  A 3-D array with a single channel is
    squeezed to the exact 2-D univariate path, so d=1 behaviour is
    bit-identical to the historical code.  Classifiers whose mathematics is
    inherently univariate set :attr:`supports_multichannel` to ``False`` and
    reject d>1 input with a named-axis error at fit time.
    """

    #: Whether :meth:`fit` accepts ``(n, L, d)`` input with ``d > 1``.
    #: Classifiers built on the channel-summed distance engine leave this
    #: ``True``; univariate-specific algorithms override it to ``False``.
    supports_multichannel: bool = True

    def __init__(self) -> None:
        self._classes: tuple = ()
        self._train_length: int | None = None
        self._train_channels: int = 1

    # ------------------------------------------------------------ fitting
    @abstractmethod
    def fit(self, series: np.ndarray, labels: Sequence) -> "BaseEarlyClassifier":
        """Train on a 2-D ``(n, L)`` or 3-D ``(n, L, d)`` array of exemplars."""

    def _store_training_shape(self, series: np.ndarray, labels: np.ndarray) -> None:
        self._classes = tuple(np.unique(labels).tolist())
        self._train_length = int(series.shape[1])
        self._train_channels = int(series.shape[2]) if series.ndim == 3 else 1

    @classmethod
    def _validate_training_data(
        cls, series: np.ndarray, labels: Sequence
    ) -> tuple[np.ndarray, np.ndarray]:
        data = np.asarray(series, dtype=float)
        label_arr = np.asarray(labels)
        if data.ndim not in (2, 3):
            raise ValueError(
                "series must be a 2-D (n_exemplars, length) or 3-D "
                "(n_exemplars, length, n_channels) array; got shape "
                f"{data.shape}"
            )
        if data.ndim == 3:
            if data.shape[2] < 1:
                raise ValueError(
                    "n_channels (axis 2) must be >= 1; got shape "
                    f"{data.shape}"
                )
            if data.shape[2] == 1:
                # Single-channel 3-D input runs the exact univariate path.
                data = data[:, :, 0]
            elif not cls.supports_multichannel:
                raise ValueError(
                    f"{cls.__name__} is univariate-only: it does not support "
                    f"multichannel input with n_channels={data.shape[2]} "
                    "(axis 0 = exemplar, axis 1 = time, axis 2 = channel); "
                    "pass a 2-D (n_exemplars, length) array or a "
                    "single-channel (n_exemplars, length, 1) array"
                )
        if data.shape[0] < 2:
            raise ValueError("need at least two training exemplars")
        if label_arr.ndim != 1 or label_arr.shape[0] != data.shape[0]:
            raise ValueError("labels must be 1-D with one entry per exemplar")
        if np.unique(label_arr).shape[0] < 2:
            raise ValueError("training data must contain at least two classes")
        if not np.all(np.isfinite(data)):
            raise ValueError("series contains non-finite values")
        return data, label_arr

    # ------------------------------------------------------------ properties
    @property
    def classes_(self) -> tuple:
        """Class labels seen during fit."""
        return self._classes

    @property
    def train_length_(self) -> int:
        """Length of the training exemplars, in time steps."""
        if self._train_length is None:
            raise RuntimeError("classifier must be fitted before use")
        return self._train_length

    @property
    def n_channels_(self) -> int:
        """Number of channels of the training exemplars (1 for univariate)."""
        self._require_fitted()
        return self._train_channels

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._train_length is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("classifier must be fitted before use")

    def _validate_prefix(self, prefix: np.ndarray) -> np.ndarray:
        self._require_fitted()
        arr = np.asarray(prefix, dtype=float)
        if self._train_channels == 1:
            if arr.ndim == 2 and arr.shape[1] == 1:
                # Single-channel (length, 1) prefixes run the univariate path.
                arr = arr[:, 0]
            if arr.ndim != 1:
                raise ValueError(
                    "prefix must be a single 1-D (length,) series for this "
                    f"univariate classifier; got shape {arr.shape}"
                )
        else:
            if arr.ndim != 2 or arr.shape[1] != self._train_channels:
                raise ValueError(
                    "prefix must be a single 2-D (length, n_channels) "
                    f"exemplar with n_channels={self._train_channels} "
                    f"(axis 0 = time, axis 1 = channel); got shape {arr.shape}"
                )
        if arr.shape[0] < 1:
            raise ValueError("prefix must contain at least one sample")
        if arr.shape[0] > self.train_length_:
            raise ValueError(
                f"prefix of length {arr.shape[0]} exceeds the training length "
                f"{self.train_length_}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("prefix contains non-finite values")
        return arr

    # ------------------------------------------------------------ prediction
    @abstractmethod
    def predict_partial(self, prefix: np.ndarray) -> PartialPrediction:
        """Classify a prefix, reporting whether the stopping rule has fired."""

    def checkpoints(self) -> list[int]:
        """Prefix lengths at which :meth:`predict_early` evaluates the model.

        Subclasses that pre-compute per-length models override this; the
        default is one checkpoint per sample, which is the framing used by
        ECTS-style algorithms ("incrementally arriving data").
        """
        self._require_fitted()
        return list(range(1, self.train_length_ + 1))

    def _trigger_rule(self) -> Callable[[PartialPrediction], bool]:
        """Fresh per-exemplar stopping rule applied to the checkpoint walk.

        The returned callable is invoked once per evaluated checkpoint (in
        increasing length order) and returns ``True`` when the classifier
        should commit at that checkpoint.  The default commits at the first
        checkpoint whose :class:`PartialPrediction` reports ``ready``;
        TEASER overrides this with its consecutive-agreement streak.  The
        callable may be stateful -- a new one is created for every exemplar
        walk (each row of a batched walk and each :class:`ClassifierStream`).
        """
        return lambda partial: partial.ready

    def predict_early(self, series: np.ndarray, keep_history: bool = False) -> EarlyPrediction:
        """Feed one exemplar incrementally and stop at the trigger point.

        This is the batched walk of :meth:`predict_early_batch` on a batch
        of one row, applying the per-row stopping rule at every checkpoint.

        Parameters
        ----------
        series:
            The full exemplar (1-D).  Only the prefix up to the trigger point
            influences the returned label.
        keep_history:
            If ``True``, record the :class:`PartialPrediction` at every
            checkpoint (slower; used by the Fig. 3 experiment).

        Returns
        -------
        EarlyPrediction
        """
        row = self._validate_prefix(series)[None]
        return self._walk_batch(row, self._batch_partial_evaluators(row), keep_history)[0]

    # ------------------------------------------------------------ batching
    def _validate_batch(self, series: np.ndarray) -> np.ndarray:
        """Validate a batch of exemplars against the fitted shape.

        Returns a 2-D ``(n, length)`` batch for univariate classifiers (a
        single-channel 3-D batch is squeezed so d=1 runs the exact historical
        path) or a 3-D ``(n, length, n_channels)`` batch for multichannel
        ones.  A lone exemplar -- 1-D ``(length,)`` for d=1, 2-D
        ``(length, n_channels)`` for d>1 -- is promoted to a batch of one.
        """
        data = np.asarray(series, dtype=float)
        if self._train_channels == 1:
            if data.ndim == 1:
                data = data[None, :]
            if data.ndim == 3 and data.shape[2] == 1:
                # Single-channel 3-D input runs the exact univariate path.
                data = data[:, :, 0]
            if data.ndim != 2:
                raise ValueError(
                    "series must be a 2-D (n_exemplars, length) batch for "
                    "this univariate classifier (axis 0 = exemplar, axis 1 = "
                    f"time); got shape {data.shape}"
                )
        else:
            if data.ndim == 2 and data.shape[1] == self._train_channels:
                data = data[None, :, :]
            if data.ndim != 3 or data.shape[2] != self._train_channels:
                raise ValueError(
                    "series must be a 3-D (n_exemplars, length, n_channels) "
                    f"batch with n_channels={self._train_channels} (axis 0 = "
                    "exemplar, axis 1 = time, axis 2 = channel); got shape "
                    f"{data.shape}"
                )
        if data.shape[0] == 0:
            return data
        if data.shape[1] < 1:
            raise ValueError("exemplars must contain at least one sample")
        if data.shape[1] > self.train_length_:
            raise ValueError(
                f"exemplars of length {data.shape[1]} exceed the training "
                f"length {self.train_length_}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("series contains non-finite values")
        return data

    @abstractmethod
    def _batch_partial_evaluators(self, data: np.ndarray) -> list[BatchCheckpoint]:
        """Vectorised checkpoint evaluation for a batch of exemplars.

        Returns one :class:`BatchCheckpoint` per checkpoint that fits the
        rows, in increasing length order.  :meth:`predict_early_batch` walks
        the checkpoints with the usual per-row stopping rules, evaluating
        :attr:`BatchCheckpoint.partial` only for rows that have not yet
        triggered -- or, when the classifier keeps the default first-ready
        trigger rule and no history is asked for, reading the vectorised
        :attr:`BatchCheckpoint.ready` and answering each row only at its
        trigger point.  An empty list means the rows are shorter than the
        first checkpoint.
        """

    def predict_early_batch(
        self,
        series: np.ndarray,
        keep_history: bool = False,
        batch_size: int = 256,
    ) -> list[EarlyPrediction]:
        """Vectorised test-set-at-once counterpart of :meth:`predict_early`.

        Every classifier answers each checkpoint of every exemplar through
        its :meth:`_batch_partial_evaluators`, and each row keeps its own
        stopping rule, so an outcome equals that of :meth:`predict_early`
        on the row alone (the equivalence suite pins both walks to the
        per-row oracle in ``tests/oracles/walk.py``).

        Parameters
        ----------
        series:
            2-D array of exemplars (a single 1-D series is promoted to a
            batch of one).  May be empty, in which case an empty list is
            returned.
        keep_history:
            Record the :class:`PartialPrediction` at every evaluated
            checkpoint of every exemplar (up to its trigger point).
        batch_size:
            Exemplars vectorised per kernel invocation; bounds the size of
            the batched distance temporaries.

        Returns
        -------
        list of EarlyPrediction
            One outcome per row of ``series``, in order.
        """
        self._require_fitted()
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        data = self._validate_batch(series)
        if data.shape[0] == 0:
            return []

        results: list[EarlyPrediction] = []
        for start in range(0, data.shape[0], batch_size):
            chunk = data[start : start + batch_size]
            checkpoints = self._batch_partial_evaluators(chunk)
            if (
                not keep_history
                and type(self)._trigger_rule is BaseEarlyClassifier._trigger_rule
            ):
                results.extend(self._walk_batch_first_ready(chunk, checkpoints))
            else:
                results.extend(self._walk_batch(chunk, checkpoints, keep_history))
        return results

    def _walk_batch_first_ready(
        self, data: np.ndarray, checkpoints: list[BatchCheckpoint]
    ) -> list[EarlyPrediction]:
        """Vectorised walk for the default first-ready stopping rule.

        Trigger points are resolved from the checkpoints' batched ``ready``
        arrays, so each row is answered once -- at its commitment point (or
        at the last evaluated checkpoint for rows that never trigger) --
        from the checkpoint's ``answers`` arrays where it has them, else
        from one :class:`PartialPrediction`.  Decisions are identical to
        :meth:`_walk_batch` with the default rule.
        """
        n_rows, row_length = data.shape[0], data.shape[1]
        outcomes: list[EarlyPrediction | None] = [None] * n_rows
        active = np.arange(n_rows)
        last: BatchCheckpoint | None = None
        for checkpoint in checkpoints:
            if checkpoint.length > row_length or active.size == 0:
                break
            last = checkpoint
            ready = np.asarray(checkpoint.ready(active), dtype=bool)
            for i, label, confidence in _row_answers(checkpoint, active[ready]):
                outcomes[i] = EarlyPrediction(
                    label=label,
                    trigger_length=checkpoint.length,
                    series_length=row_length,
                    triggered=True,
                    confidence=confidence,
                )
            active = active[~ready]
        if last is None:
            raise ValueError("series is shorter than the first checkpoint")
        for i, label, confidence in _row_answers(last, active):
            outcomes[i] = EarlyPrediction(
                label=label,
                trigger_length=row_length,
                series_length=row_length,
                triggered=False,
                confidence=confidence,
            )
        # Every row is resolved by now: it either triggered or was answered
        # from the last evaluated checkpoint above.
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _walk_batch(
        self,
        data: np.ndarray,
        checkpoints: list[BatchCheckpoint],
        keep_history: bool,
    ) -> list[EarlyPrediction]:
        """Apply per-row stopping rules to batched checkpoint evaluators.

        The one walk behind :meth:`predict_early` (a batch of one row), any
        ``keep_history`` request and any non-default :meth:`_trigger_rule`:
        checkpoints advance in lockstep across the batch, each row keeps its
        own fresh stopping rule, and rows drop out of the walk at their
        trigger point, so no partials are materialised for checkpoints a row
        never reaches.
        """
        n_rows, row_length = data.shape[0], data.shape[1]
        rules = [self._trigger_rule() for _ in range(n_rows)]
        outcomes: list[EarlyPrediction | None] = [None] * n_rows
        lasts: list[PartialPrediction | None] = [None] * n_rows
        histories: list[list[PartialPrediction]] = [[] for _ in range(n_rows)]
        active = list(range(n_rows))
        for checkpoint in checkpoints:
            if checkpoint.length > row_length or not active:
                break
            still_active = []
            for i in active:
                partial = checkpoint.partial(i)
                if keep_history:
                    histories[i].append(partial)
                lasts[i] = partial
                if rules[i](partial):
                    outcomes[i] = EarlyPrediction(
                        label=partial.label,
                        trigger_length=checkpoint.length,
                        series_length=row_length,
                        triggered=True,
                        confidence=partial.confidence,
                        history=tuple(histories[i]),
                    )
                else:
                    still_active.append(i)
            active = still_active

        results: list[EarlyPrediction] = []
        for i in range(n_rows):
            outcome = outcomes[i]
            if outcome is None:
                last = lasts[i]
                if last is None:
                    raise ValueError("series is shorter than the first checkpoint")
                outcome = EarlyPrediction(
                    label=last.label,
                    trigger_length=row_length,
                    series_length=row_length,
                    triggered=False,
                    confidence=last.confidence,
                    history=tuple(histories[i]),
                )
            results.append(outcome)
        return results

    def open_stream(self) -> "ClassifierStream":
        """Open a push-based incremental view of :meth:`predict_early`.

        Samples are handed over one at a time; checkpoints are evaluated as
        they are reached and the stopping rule (:meth:`_trigger_rule`) is
        applied on the fly.  Any number of streams over the same fitted
        classifier may be live at once, each walking one exemplar.
        """
        return ClassifierStream(self)

    def predict(self, series: np.ndarray) -> np.ndarray:
        """Early-classify each row of a 2-D array and return the labels."""
        return np.asarray([p.label for p in self.predict_early_batch(series)])

    def score(self, series: np.ndarray, labels: Sequence) -> float:
        """Early-classification accuracy over a test set."""
        predictions = self.predict(series)
        truth = np.asarray(labels)
        if truth.shape[0] != predictions.shape[0]:
            raise ValueError("labels must have one entry per exemplar")
        return float(np.mean(predictions == truth))

    def average_earliness(self, series: np.ndarray) -> float:
        """Mean fraction of each exemplar seen before the trigger point."""
        outcomes = self.predict_early_batch(series)
        return float(np.mean([outcome.earliness for outcome in outcomes]))


class ClassifierStream:
    """A push-based incremental walk of one exemplar through an early classifier.

    This is the sample-at-a-time counterpart of
    :meth:`BaseEarlyClassifier.predict_early`: samples arrive via
    :meth:`push` or :meth:`feed` into a buffer of the training length, and
    each checkpoint (from :meth:`BaseEarlyClassifier.checkpoints`) the
    buffer reaches is answered by
    :meth:`BaseEarlyClassifier.predict_partial` on the prefix received so
    far, under the classifier's stopping rule.  The decisions equal those
    of the per-row walk (the streaming tests pin every classifier to the
    oracle in ``tests/oracles/walk.py``).  Unlike ``predict_early`` it never
    needs the full exemplar up front, which suits one exemplar arriving
    frame by frame (the ``multivariate`` experiment and
    ``examples/keyword_spotting.py``); many streams can be live at once
    over one fitted classifier.
    """

    __slots__ = (
        "_classifier",
        "_buffer",
        "_length",
        "_checkpoints",
        "_next_checkpoint",
        "_rule",
        "_last",
        "_outcome",
    )

    def __init__(self, classifier: BaseEarlyClassifier) -> None:
        classifier._require_fitted()
        self._classifier = classifier
        if classifier.n_channels_ == 1:
            self._buffer = np.empty(classifier.train_length_, dtype=float)
        else:
            self._buffer = np.empty(
                (classifier.train_length_, classifier.n_channels_), dtype=float
            )
        self._length = 0
        self._checkpoints = classifier.checkpoints()
        self._next_checkpoint = 0
        self._rule = classifier._trigger_rule()
        self._last: PartialPrediction | None = None
        self._outcome: EarlyPrediction | None = None

    # ------------------------------------------------------------ properties
    @property
    def capacity(self) -> int:
        """Maximum number of samples the stream accepts (the training length).

        Counted in time steps; a multichannel stream consumes one d-vector
        per time step.
        """
        return self._buffer.shape[0]

    @property
    def n_channels(self) -> int:
        """Number of channels of each sample (1 for univariate streams)."""
        return 1 if self._buffer.ndim == 1 else self._buffer.shape[1]

    @property
    def length(self) -> int:
        """Number of samples pushed so far."""
        return self._length

    @property
    def outcome(self) -> EarlyPrediction | None:
        """The walk's decision, once reached.

        Set to a *triggered* :class:`EarlyPrediction` at the checkpoint where
        the stopping rule fires, or to a non-triggered one once ``capacity``
        samples have been consumed without a trigger (mirroring
        ``predict_early`` on a full-length exemplar).  ``None`` while the
        walk is still undecided.
        """
        return self._outcome

    # ------------------------------------------------------------ streaming
    def push(self, value) -> PartialPrediction | None:
        """Consume one sample; evaluate a checkpoint if one was reached.

        ``value`` is a scalar on univariate streams and a length-``d`` vector
        (one reading per channel) on multichannel streams.

        Returns
        -------
        PartialPrediction or None
            The checkpoint evaluation when the new length is a checkpoint,
            ``None`` otherwise.
        """
        evaluated_before = self._next_checkpoint
        if self._buffer.ndim == 1:
            self.feed(np.asarray([float(value)]))
        else:
            sample = np.asarray(value, dtype=float)
            if sample.shape != (self.n_channels,):
                raise ValueError(
                    "each sample of this multichannel stream must be a "
                    f"length-{self.n_channels} vector (one reading per "
                    f"channel); got shape {sample.shape}"
                )
            self.feed(sample[None, :])
        return self._last if self._next_checkpoint > evaluated_before else None

    def feed(self, values: np.ndarray) -> EarlyPrediction | None:
        """Consume a block of consecutive samples in one call.

        Writes the whole block into the buffer, then evaluates (in order)
        every checkpoint the block reached, stopping at the trigger point --
        the same decisions as pushing the samples one at a time, at a
        fraction of the per-sample overhead.

        Returns
        -------
        EarlyPrediction or None
            The walk's outcome if it was reached within this block (also
            available as :attr:`outcome`), else ``None``.
        """
        if self._outcome is not None:
            raise RuntimeError("the stream has already reached an outcome")
        block = np.asarray(values, dtype=float)
        if self._buffer.ndim == 1:
            if block.ndim != 1:
                raise ValueError("values must be a 1-D block of samples")
        elif block.ndim != 2 or block.shape[1] != self.n_channels:
            raise ValueError(
                "values must be a 2-D (n_samples, n_channels) block with "
                f"n_channels={self.n_channels} (axis 0 = time, axis 1 = "
                f"channel); got shape {block.shape}"
            )
        if block.shape[0] == 0:
            return None
        if self._length + block.shape[0] > self.capacity:
            raise ValueError("stream exceeds the training length")
        if not np.all(np.isfinite(block)):
            raise ValueError("stream samples must be finite")
        self._buffer[self._length : self._length + block.shape[0]] = block
        self._length += block.shape[0]

        checkpoints = self._checkpoints
        while (
            self._next_checkpoint < len(checkpoints)
            and checkpoints[self._next_checkpoint] <= self._length
        ):
            length = checkpoints[self._next_checkpoint]
            partial = self._classifier.predict_partial(self._buffer[:length])
            self._next_checkpoint += 1
            self._last = partial
            if self._rule(partial):
                self._outcome = EarlyPrediction(
                    label=partial.label,
                    trigger_length=length,
                    series_length=self.capacity,
                    triggered=True,
                    confidence=partial.confidence,
                )
                return self._outcome
        if self._length == self.capacity:
            # Full window consumed without a trigger: same terminal state as
            # predict_early's fall-through (forced answer from the last
            # checkpoint).  Checkpoints are non-empty and lie in [1, capacity],
            # so at least one has been evaluated by now.
            assert self._last is not None
            self._outcome = EarlyPrediction(
                label=self._last.label,
                trigger_length=self.capacity,
                series_length=self.capacity,
                triggered=False,
                confidence=self._last.confidence,
            )
        return self._outcome
