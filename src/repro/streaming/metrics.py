"""Streaming detection metrics.

These are the quantities the paper's conclusion is phrased in: how many false
positives per true positive, how many false alarms per unit of stream time,
and how much of each event had elapsed before it was detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.stream import ComposedStream
from repro.streaming.events import match_alarms_to_events
from repro.streaming.online import Alarm

__all__ = ["StreamingEvaluation", "evaluate_alarms"]


@dataclass(frozen=True)
class StreamingEvaluation:
    """Aggregate outcome of running a detector over an annotated stream.

    Attributes
    ----------
    n_alarms:
        Total alarms raised (after the detector's own de-duplication).
    true_positives, false_positives, false_negatives:
        Event-level counts.
    precision:
        TP / (TP + FP); 0 when no alarms were raised.
    recall:
        TP / (TP + FN); also called the event detection rate.
    false_positives_per_true_positive:
        The paper's headline number ("thousands of false positives for every
        true positive"); ``inf`` when there are false positives but no true
        positives, 0 when there are neither.
    false_alarms_per_1000_samples:
        False-positive rate normalised by stream length.
    mean_fraction_of_event_seen:
        Mean streaming earliness over the detected events (``None`` when no
        event was detected).
    stream_length:
        Number of samples in the evaluated stream.
    """

    n_alarms: int
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    false_positives_per_true_positive: float
    false_alarms_per_1000_samples: float
    mean_fraction_of_event_seen: float | None
    stream_length: int


def evaluate_alarms(
    alarms: list[Alarm],
    stream: ComposedStream,
    target_labels: tuple | None = None,
    onset_tolerance: int = 0,
    require_label_match: bool = True,
) -> StreamingEvaluation:
    """Match alarms to events and aggregate the streaming metrics.

    Parameters are forwarded to
    :func:`~repro.streaming.events.match_alarms_to_events`.
    """
    matches, missed = match_alarms_to_events(
        alarms,
        stream,
        target_labels=target_labels,
        onset_tolerance=onset_tolerance,
        require_label_match=require_label_match,
    )
    true_positives = sum(1 for m in matches if m.is_true_positive)
    false_positives = sum(1 for m in matches if not m.is_true_positive)
    false_negatives = len(missed)

    precision = true_positives / (true_positives + false_positives) if matches else 0.0
    denominator = true_positives + false_negatives
    recall = true_positives / denominator if denominator else 0.0

    if true_positives:
        fp_per_tp = false_positives / true_positives
    elif false_positives:
        fp_per_tp = float("inf")
    else:
        fp_per_tp = 0.0

    fractions = [
        m.fraction_of_event_seen for m in matches if m.is_true_positive and m.fraction_of_event_seen is not None
    ]
    mean_fraction = float(np.mean(fractions)) if fractions else None

    return StreamingEvaluation(
        n_alarms=len(alarms),
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=false_negatives,
        precision=float(precision),
        recall=float(recall),
        false_positives_per_true_positive=float(fp_per_tp),
        false_alarms_per_1000_samples=1000.0 * false_positives / len(stream),
        mean_fraction_of_event_seen=mean_fraction,
        stream_length=len(stream),
    )
