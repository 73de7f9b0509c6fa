"""Admission and batching scheduler: coalesce candidate evaluations.

The serving engine defers every candidate's classifier work to the moment
its window completes (that is what makes batching *possible* without
changing semantics -- see :mod:`repro.serving.engine`).  This module owns
what happens to those completed windows:

* **admission** -- a bounded FIFO queue of pending candidates; when the
  queue is full the engine sheds load instead of growing without bound;
* **coalescing** -- at flush time, pending candidates from *different
  streams and different tenants* that share a model and a normalisation
  mode are stacked into one matrix, normalised in one vectorised pass
  (:func:`~repro.streaming.online.normalize_windows`, the normaliser a
  :class:`~repro.streaming.online.StreamingSession` applies to its own
  blocks), and classified in one
  :meth:`~repro.classifiers.base.BaseEarlyClassifier.predict_early_batch`
  call riding the batched prefix-distance kernels of
  :mod:`repro.distance.engine`.  A session batches the windows of one
  stream; the scheduler batches across streams.

The scheduler never reorders: outcomes are returned in the queue's FIFO
order, which within any single stream is candidate-start order -- exactly
the order the :class:`~repro.streaming.online.AlarmGate` requires.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.classifiers.base import EarlyPrediction
from repro.streaming.online import WindowLedger, normalize_windows

__all__ = ["PendingCandidate", "BatchScheduler"]


class PendingCandidate:
    """One completed candidate window awaiting batched evaluation."""

    __slots__ = ("ledger", "start", "window")

    def __init__(self, ledger: WindowLedger, start: int, window: np.ndarray) -> None:
        self.ledger = ledger
        self.start = start
        self.window = window


class BatchScheduler:
    """Bounded FIFO of pending candidates plus the coalescing evaluator.

    Parameters
    ----------
    max_pending:
        Admission bound: :meth:`admit` refuses once this many candidates
        are queued, signalling the engine to shed.
    batch_size:
        Forwarded to ``predict_early_batch`` -- bounds the batched distance
        temporaries per kernel invocation, not the coalescing width.
    """

    def __init__(self, max_pending: int = 100_000, batch_size: int = 256) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.max_pending = max_pending
        self.batch_size = batch_size
        self._queue: deque[PendingCandidate] = deque()
        self.n_batch_calls = 0

    @property
    def depth(self) -> int:
        """Number of candidates currently queued."""
        return len(self._queue)

    def admit(self, item: PendingCandidate) -> bool:
        """Queue one candidate; ``False`` (and no state change) when full."""
        if len(self._queue) >= self.max_pending:
            return False
        self._queue.append(item)
        return True

    def take_all(self) -> list[PendingCandidate]:
        """Drain the queue, preserving FIFO order."""
        items = list(self._queue)
        self._queue.clear()
        return items

    def evaluate(
        self, items: list[PendingCandidate]
    ) -> list[EarlyPrediction | Exception]:
        """Classify every pending window, coalescing across streams/tenants.

        Candidates are grouped by ``(classifier identity, normalisation
        mode)`` -- tenants sharing a model and mode land in the same group
        even though their streams are unrelated -- then each group is
        normalised and classified in one batched call.  Each group is
        evaluated on its own: when its call raises, the exception stands in
        for each of its outcomes and the other groups are still classified.
        Outcomes are returned aligned with ``items`` (original FIFO order).
        """
        outcomes: list = [None] * len(items)
        groups: dict[tuple[int, str], list[int]] = {}
        for index, item in enumerate(items):
            ledger = item.ledger
            key = (id(ledger.classifier), ledger.normalization)
            groups.setdefault(key, []).append(index)
        for indices in groups.values():
            first = items[indices[0]].ledger
            # (L,) windows stack to (n, L), (L, d) multichannel ones to (n, L, d).
            windows = np.array([items[i].window for i in indices])
            normalized = normalize_windows(windows, first.normalization)
            try:
                predictions = first.classifier.predict_early_batch(
                    normalized, batch_size=self.batch_size
                )
            except Exception as error:
                # A model is code from outside the engine: its failure costs
                # its own group, and the engine reports it per tenant.
                predictions = [error] * len(indices)
            self.n_batch_calls += 1
            for position, index in enumerate(indices):
                outcomes[index] = predictions[position]
        return outcomes
