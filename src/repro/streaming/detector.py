"""Running an early classifier over a stream.

The detector makes the deployment assumptions explicit, because they are the
crux of the paper:

* **Candidate starts.**  In the UCR format somebody has already decided where
  the exemplar begins.  On a stream nobody has; the detector therefore treats
  every ``stride``-th sample as a potential pattern start and feeds the early
  classifier the data from that point on, exactly as the classifier would be
  used if its own problem statement were taken literally.
* **Normalisation.**  The classifier was almost certainly trained on
  z-normalised exemplars.  On a stream the detector can (a) hand over raw
  values (the honest option -- and the one that produces the false negatives
  of Section 4), (b) z-normalise each candidate window using the *whole*
  window, which requires data that has not arrived yet ("peeking"), or (c)
  z-normalise causally using trailing statistics.  All three are implemented
  so the gap between them can be measured.

Execution is delegated to the online engine
(:class:`~repro.streaming.online.StreamingSession`), which classifies the
completed candidate windows in batches instead of running ``predict_early``
once per candidate.  The original materialise-everything loop lives in
``tests/oracles/streaming.py``: it is the semantic reference the
equivalence tests and the throughput benchmark compare the engine against.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier
from repro.data.stream import ComposedStream
from repro.streaming.online import Alarm, NormalizationMode, StreamingSession

__all__ = ["Alarm", "StreamingEarlyDetector"]


class StreamingEarlyDetector:
    """Slide candidate windows over a stream and collect early-classification alarms.

    Parameters
    ----------
    classifier:
        A fitted early classifier.  Its training length defines the candidate
        window length.
    stride:
        Distance (in samples) between consecutive candidate start positions.
        The paper's argument is about what happens as this approaches 1; the
        default of a quarter of the window keeps experiment run times sane
        while preserving the phenomenon.
    normalization:
        How each candidate window is normalised before being fed to the
        classifier: ``"none"`` (raw values), ``"window"`` (whole-window
        z-normalisation -- requires future data, i.e. peeking) or ``"causal"``
        (z-normalisation using only samples up to the current point).
    refractory:
        Minimum number of samples between two alarms.  Without it a single
        event would be reported dozens of times by overlapping candidates,
        which would inflate both true and false positives meaninglessly.
    max_alarms:
        Safety valve: stop after this many alarms (the Appendix B experiment
        can otherwise produce alarms in the tens of thousands).
    """

    def __init__(
        self,
        classifier: BaseEarlyClassifier,
        stride: int | None = None,
        normalization: NormalizationMode = "none",
        refractory: int | None = None,
        max_alarms: int = 100_000,
    ) -> None:
        if not isinstance(classifier, BaseEarlyClassifier):
            raise TypeError("classifier must be a BaseEarlyClassifier")
        if not classifier.is_fitted:
            raise ValueError("classifier must be fitted before building a detector")
        if normalization not in ("none", "window", "causal"):
            raise ValueError("normalization must be 'none', 'window' or 'causal'")
        if max_alarms < 1:
            raise ValueError("max_alarms must be >= 1")
        self.classifier = classifier
        self.window_length = classifier.train_length_
        self.stride = stride if stride is not None else max(1, self.window_length // 4)
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        self.normalization = normalization
        self.refractory = refractory if refractory is not None else self.window_length // 2
        if self.refractory < 0:
            raise ValueError("refractory must be non-negative")
        self.max_alarms = max_alarms

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _as_values(stream: ComposedStream | np.ndarray) -> np.ndarray:
        values = stream.values if isinstance(stream, ComposedStream) else np.asarray(stream, dtype=float)
        if values.ndim != 1:
            raise ValueError("stream values must be 1-D")
        return values

    # ------------------------------------------------------------ detection
    def open_session(self) -> StreamingSession:
        """A fresh online session carrying this detector's parameters."""
        return StreamingSession(
            self.classifier,
            stride=self.stride,
            normalization=self.normalization,
            refractory=self.refractory,
            max_alarms=self.max_alarms,
        )

    def detect(self, stream: ComposedStream | np.ndarray) -> list[Alarm]:
        """Run the detector over a stream and return the alarms raised.

        Delegates to the online engine; the result is identical to the
        offline loop (the equivalence suite pins it against
        ``tests/oracles/streaming.py``), but the candidate windows are
        classified in batches.

        Parameters
        ----------
        stream:
            Either a :class:`~repro.data.stream.ComposedStream` or a plain 1-D
            array of stream values.
        """
        values = self._as_values(stream)
        if values.shape[0] < self.window_length:
            raise ValueError("stream is shorter than one candidate window")
        session = self.open_session()
        session.extend(values)
        return session.finalize()
