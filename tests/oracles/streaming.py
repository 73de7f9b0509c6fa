"""Streaming oracle: the offline materialise-slice-re-predict detector loop.

* :func:`detect_reference` runs a
  :class:`~repro.streaming.detector.StreamingEarlyDetector`'s settings the
  obvious way: materialise the stream, slice every ``stride``-th candidate
  window, normalise it with :func:`prepare_window` and walk it from scratch
  with the per-row oracle :func:`~oracles.walk.predict_early_reference`.  ``StreamingEarlyDetector.detect``,
  ``StreamingSession`` and ``ServingEngine`` must emit the identical alarm
  list.
* :func:`prepare_window` is the per-window normalisation, including the
  ``O(L^2)`` per-prefix loop of the ``"causal"`` mode.

Each function takes the detector in place of ``self``.
"""

from __future__ import annotations

import numpy as np

from repro.distance.znorm import znormalize
from repro.streaming.detector import StreamingEarlyDetector
from repro.streaming.online import Alarm

from .walk import predict_early_reference


def prepare_window(detector: StreamingEarlyDetector, window: np.ndarray) -> np.ndarray:
    if detector.normalization == "none":
        return window
    if detector.normalization == "window":
        return znormalize(window)
    # causal: normalise each sample with the statistics of the window seen
    # so far; the classifier then receives a prefix whose early samples
    # were normalised with very little context, exactly as a live system
    # would have to.  This per-window O(L^2) loop is the *reference*
    # implementation the online engine's batched causal normalisation is
    # tested against.
    out = np.zeros_like(window)
    for i in range(window.shape[0]):
        seen = window[: i + 1]
        std = seen.std()
        if std < 1e-12:
            out[i] = 0.0
        else:
            out[i] = (window[i] - seen.mean()) / std
    return out


def detect_reference(detector: StreamingEarlyDetector, stream) -> list[Alarm]:
    """The original offline loop: materialise, slice, re-predict per candidate.

    The semantic reference for the online engine -- equivalence tests assert
    :meth:`~repro.streaming.detector.StreamingEarlyDetector.detect` produces
    the identical alarm list, and the streaming benchmark measures the
    engine's speedup over this loop.  ``O(L^2)`` causal normalisation per
    window and one per-row walk from scratch per candidate.
    """
    values = detector._as_values(stream)
    if values.shape[0] < detector.window_length:
        raise ValueError("stream is shorter than one candidate window")

    alarms: list[Alarm] = []
    last_alarm_position = -np.inf
    last_start = values.shape[0] - detector.window_length
    for start in range(0, last_start + 1, detector.stride):
        if len(alarms) >= detector.max_alarms:
            break
        window = values[start : start + detector.window_length]
        prepared = prepare_window(detector, window)
        outcome = predict_early_reference(detector.classifier, prepared)
        if not outcome.triggered:
            continue
        position = start + outcome.trigger_length - 1
        if position - last_alarm_position < detector.refractory:
            continue
        alarms.append(
            Alarm(
                position=int(position),
                candidate_start=int(start),
                label=outcome.label,
                confidence=float(outcome.confidence),
                prefix_length=int(outcome.trigger_length),
            )
        )
        last_alarm_position = position
    return alarms
