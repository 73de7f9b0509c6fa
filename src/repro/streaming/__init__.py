"""Streaming deployment layer.

The UCR-format experiments hand an early classifier one extracted exemplar at
a time.  A deployed system sees an unbounded stream and must decide *by
itself* where candidate patterns begin -- which is where the prefix,
inclusion and homophone problems, and the normalisation problem, bite.  This
package provides the machinery to run that deployment honestly:

* :mod:`repro.streaming.online` is the engine: a
  :class:`~repro.streaming.online.WindowLedger` buffers one stream's raw
  tail and pops its completed candidate windows, a
  :class:`~repro.streaming.online.StreamingSession` ingests samples push by
  push and classifies the completed windows in batches (causal or
  whole-window normalisation applied to each block at once), and a
  :class:`~repro.streaming.online.MultiStreamDetector` fans a batch of
  independent streams through one session each; the serving layer
  (:mod:`repro.serving`) runs the same ledger per served stream;
* :class:`~repro.streaming.detector.StreamingEarlyDetector` is the
  experiment-facing facade (its ``detect`` delegates to the engine; the
  original offline loop lives in ``tests/oracles/streaming.py`` as the
  semantic reference the equivalence tests compare against);
* :mod:`repro.streaming.events` matches alarms against ground-truth event
  annotations;
* :mod:`repro.streaming.metrics` turns the matches into the quantities the
  paper's argument is about (false positives per true positive, false-alarm
  rate, detection earliness), and merges them across a multi-stream fleet;
* :mod:`repro.streaming.costs` applies the Appendix B cost model (an averted
  event is worth $1000, every action costs $200, so the detector must achieve
  better than one true positive per five false positives just to break even).
"""

from repro.streaming.online import (
    Alarm,
    AlarmGate,
    MultiStreamDetector,
    SessionState,
    StreamingSession,
    causal_znormalize_batch,
)
from repro.streaming.detector import StreamingEarlyDetector
from repro.streaming.events import AlarmMatch, match_alarms_to_events
from repro.streaming.metrics import StreamingEvaluation, evaluate_alarms, merge_evaluations
from repro.streaming.costs import CostModel, CostOutcome

__all__ = [
    "Alarm",
    "AlarmGate",
    "SessionState",
    "StreamingEarlyDetector",
    "StreamingSession",
    "MultiStreamDetector",
    "causal_znormalize_batch",
    "AlarmMatch",
    "match_alarms_to_events",
    "StreamingEvaluation",
    "evaluate_alarms",
    "merge_evaluations",
    "CostModel",
    "CostOutcome",
]
