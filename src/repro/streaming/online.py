"""The online streaming engine: one window ledger behind every live path.

:class:`~repro.streaming.detector.StreamingEarlyDetector` states the
deployment problem; this module runs it on live data:

* :class:`WindowLedger` is one stream's whole state: the raw samples no
  extracted window covers yet, a stride cursor and an :class:`AlarmGate`.
  It pops every completed candidate window oldest first and confirms the
  outcomes through the gate in that order;
* :class:`StreamingSession` ingests samples (or chunks) one push at a time.
  Each chunk's completed windows are normalised
  (:func:`normalize_windows`) and classified together, in blocks, by
  ``predict_early_batch``;
* :class:`MultiStreamDetector` fans a batch of independent streams through
  one session each, in chunked lockstep.

The serving layer (:mod:`repro.serving`) keeps one :class:`WindowLedger` per
served stream as well and batches the completed windows of many streams
into one classifier call, so the two paths share buffering, window
extraction, normalisation and confirmation.

**Alarm semantics are identical to the offline reference loop** (the
equivalence suite in ``tests/test_streaming_online.py`` pins this, field by
field, against ``tests/oracles/streaming.py``): candidates start at every
``stride``-th sample, only candidates whose full window fits in the stream
may alarm, alarms are confirmed in candidate-start order, and the
refractory / ``max_alarms`` rules apply at confirmation.  A candidate's
outcome depends only on its own normalised window, so evaluating it once the
window is complete changes nothing but *latency*: a trigger at stream
position ``p`` inside the candidate starting at ``s`` is confirmed (emitted)
once sample ``s + L - 1`` has arrived -- exactly the eligibility rule the
offline loop applies by construction.

The ``"window"`` normalisation mode z-normalises each candidate with
whole-window statistics and therefore *requires future data* (the paper's
"peeking" flaw); it is supported for apples-to-apples experiments.  Only
``"none"`` and ``"causal"`` are genuinely online modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier, EarlyPrediction
from repro.data.stream import ComposedStream
from repro.distance.znorm import EPSILON, znormalize

__all__ = [
    "Alarm",
    "AlarmGate",
    "NormalizationMode",
    "SessionState",
    "WindowLedger",
    "causal_znormalize_batch",
    "normalize_windows",
    "validate_chunk",
    "StreamingSession",
    "MultiStreamDetector",
]

NormalizationMode = Literal["none", "window", "causal"]


@dataclass(frozen=True)
class Alarm:
    """An early-classification alarm raised on a stream.

    Attributes
    ----------
    position:
        Stream index at which the alarm was raised (the last sample the
        classifier had seen when it triggered).
    candidate_start:
        Stream index at which the candidate pattern was assumed to begin.
    label:
        The class the classifier committed to.
    confidence:
        The classifier's confidence at the trigger point.
    prefix_length:
        Number of samples of the candidate that had been observed.
    """

    position: int
    candidate_start: int
    label: object
    confidence: float
    prefix_length: int


class AlarmGate:
    """The per-stream alarm emission rule.

    A completed candidate window is *confirmed* through the gate, which owns
    the three emission rules the offline detector defined: the ``max_alarms``
    saturation cap (once the cap is reached no later candidate may alarm),
    the refractory comparison against the last *emitted* alarm, and the alarm
    field assembly.  Candidates must be confirmed in candidate-start order --
    :class:`WindowLedger` does so by construction for both the session and
    the serving engine: the candidate *outcomes* depend only on each
    candidate's own (normalised) window, and everything order-dependent lives
    here.
    """

    __slots__ = ("refractory", "max_alarms", "alarms", "saturated", "_last_position")

    def __init__(self, refractory: int, max_alarms: int) -> None:
        if refractory < 0:
            raise ValueError("refractory must be non-negative")
        if max_alarms < 1:
            raise ValueError("max_alarms must be >= 1")
        self.refractory = refractory
        self.max_alarms = max_alarms
        self.alarms: list[Alarm] = []
        self.saturated = False
        self._last_position = -float("inf")

    def confirm(self, candidate_start: int, outcome: EarlyPrediction) -> Alarm | None:
        """Apply the emission rules to one completed candidate, in start order.

        Returns the emitted :class:`Alarm`, or ``None`` when the candidate
        did not trigger, fell inside the refractory period, or arrived after
        the saturation point.  Emitting the alarm that *reaches* the cap sets
        :attr:`saturated`, the point where the offline loop stops; the
        caller should stop evaluating further candidates on the stream,
        though confirming them through the gate anyway is harmless -- a
        saturated gate never emits.
        """
        if self.saturated or not outcome.triggered:
            return None
        position = candidate_start + outcome.trigger_length - 1
        if position - self._last_position < self.refractory:
            return None
        alarm = Alarm(
            position=int(position),
            candidate_start=int(candidate_start),
            label=outcome.label,
            confidence=float(outcome.confidence),
            prefix_length=int(outcome.trigger_length),
        )
        self.alarms.append(alarm)
        self._last_position = position
        self.saturated = len(self.alarms) >= self.max_alarms
        return alarm


@dataclass(frozen=True)
class SessionState:
    """Exported snapshot of where one stream stands.

    :meth:`StreamingSession.export_state` and the serving engine's
    ``stream_state`` both return it: how many samples have been consumed,
    which candidate windows have begun but not yet completed, and whether
    the emission gate has saturated.  The snapshot is plain data -- safe to
    ship across threads or serialise into a metrics pipeline.
    """

    n_samples: int
    open_candidate_starts: tuple[int, ...]
    n_alarms: int
    saturated: bool
    finalized: bool


def validate_chunk(values, n_channels: int) -> np.ndarray:
    """A chunk of stream samples as a float array, checked against the stream.

    Univariate streams take 1-D ``(n_samples,)`` chunks and multichannel
    ones 2-D ``(n_samples, n_channels)`` chunks (axis 0 = time, axis 1 =
    channel).  Raises ``ValueError`` on a wrong rank or channel count and on
    any non-finite sample.
    """
    chunk = np.asarray(values, dtype=float)
    if n_channels == 1:
        if chunk.ndim != 1:
            raise ValueError("stream values must be 1-D")
    elif chunk.ndim != 2 or chunk.shape[1] != n_channels:
        raise ValueError(
            "stream values must be a 2-D (n_samples, n_channels) chunk "
            f"with n_channels={n_channels} (axis 0 = time, axis 1 = "
            f"channel); got shape {chunk.shape}"
        )
    if not np.isfinite(chunk).all():
        raise ValueError("stream contains non-finite values")
    return chunk


def causal_znormalize_batch(windows: np.ndarray) -> np.ndarray:
    """Causally z-normalise a whole bank of candidate windows in one pass.

    Sample ``i`` of row ``j`` is normalised with the mean and standard
    deviation of ``windows[j, : i + 1]`` (0.0 where that standard deviation
    is below :data:`~repro.distance.znorm.EPSILON`).  The statistics are
    Welford's running recurrences in baseline-centred coordinates: each
    row's samples are shifted by its first sample before summation, so a
    large DC offset in the stream never enters the cumulative sums, and the
    M2 update is shift-invariant.  This is the ``"causal"`` kernel of
    :func:`normalize_windows`, which the session and the serving scheduler
    apply to every block of completed windows.

    A 3-D ``(n_windows, length, n_channels)`` bank is normalised per
    channel -- the identical recurrences with the channel axis riding along.
    """
    arr = np.asarray(windows, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(
            "windows must be a 2-D (n_windows, length) array or a 3-D "
            "(n_windows, length, n_channels) multichannel bank; got shape "
            f"{arr.shape}"
        )
    if arr.shape[1] == 0:
        return arr.copy()
    counts = np.arange(1.0, arr.shape[1] + 1.0)[None, :]
    if arr.ndim == 3:
        counts = counts[:, :, None]
    baseline = arr[:, :1]
    shifted = arr - baseline
    means = np.cumsum(shifted, axis=1)
    means /= counts
    # Welford: M2 accumulates (x - previous mean) * (x - current mean).  The
    # temporaries are updated in place, which matters for the wide stacks
    # the serving scheduler normalises; every element sees the same
    # floating-point operations either way.
    steps = np.concatenate([-baseline, means[:, :-1]], axis=1)
    np.subtract(shifted, steps, out=steps)
    centered = np.subtract(shifted, means, out=shifted)
    steps *= centered
    m2 = np.cumsum(steps, axis=1, out=steps)
    np.maximum(m2, 0.0, out=m2)
    m2 /= counts
    std = np.sqrt(m2, out=m2)
    out = np.zeros_like(std)
    np.divide(centered, std, out=out, where=std >= EPSILON)
    return out


def normalize_windows(windows: np.ndarray, mode: str) -> np.ndarray:
    """Apply one normalisation mode to a stack of completed windows.

    ``"window"`` z-normalises each row with whole-window statistics (the
    paper's "peeking" mode, row-wise identical to
    :func:`~repro.distance.znorm.znormalize` of each window); ``"causal"``
    uses :func:`causal_znormalize_batch`; ``"none"`` hands the raw windows
    over.
    """
    if mode == "none":
        return windows
    if mode == "window":
        return znormalize(windows)
    if mode == "causal":
        return causal_znormalize_batch(windows)
    raise ValueError(f"unknown normalization mode {mode!r}")


class WindowLedger:
    """One stream's window bookkeeping: raw tail buffer, stride cursor, alarm gate.

    Candidate windows start at every ``stride``-th sample.  The ledger keeps
    only the samples from its cursor -- the earliest start not yet
    extracted -- onwards: at most ``L - 1`` samples between chunks, plus the
    latest chunk until its windows are extracted.  :meth:`extract_windows`
    pops completed windows oldest first, and :meth:`confirm` passes their
    outcomes through the :class:`AlarmGate` in that order.  There is no
    per-candidate classifier state: an outcome depends only on its own
    normalised window.  :class:`StreamingSession` owns one ledger; the
    serving engine keeps one per served stream.
    """

    __slots__ = (
        "classifier",
        "normalization",
        "stride",
        "window_length",
        "n_channels",
        "gate",
        "buffer",
        "base",
        "count",
        "next_start",
        "saturated",
        "finalized",
    )

    def __init__(
        self,
        classifier: BaseEarlyClassifier,
        stride: int,
        normalization: NormalizationMode,
        refractory: int,
        max_alarms: int,
    ) -> None:
        self.classifier = classifier
        self.normalization = normalization
        self.stride = int(stride)
        self.window_length = classifier.train_length_
        self.n_channels = classifier.n_channels_
        self.gate = AlarmGate(int(refractory), int(max_alarms))
        self.buffer = self._empty_buffer()
        self.base = 0  # stream index of buffer[0]
        self.count = 0  # samples consumed so far
        self.next_start = 0  # earliest candidate start not yet extracted
        self.saturated = False
        self.finalized = False

    @property
    def open_starts(self) -> range:
        """Starts of the candidate windows that have begun but not completed."""
        if self.saturated or self.finalized:
            return range(0)
        return range(self.next_start, self.count, self.stride)

    def append(self, chunk: np.ndarray) -> None:
        """Ingest a validated chunk, keeping only the samples windows still need.

        A saturated ledger only counts the samples: no window can alarm.
        """
        n = chunk.shape[0]
        if self.saturated:
            self.count += n
            self.base = self.next_start = self.count
            return
        keep = self.next_start - self.base
        if keep <= self.buffer.shape[0]:
            self.buffer = np.concatenate([self.buffer[keep:], chunk])
            self.base = self.next_start
        else:
            # A stride longer than the window leaves the cursor beyond the
            # buffered samples; the chunk's samples before it are never read.
            self.buffer = chunk[self.next_start - self.count :].copy()
            self.base = min(self.next_start, self.count + n)
        self.count += n

    def extract_windows(self, limit: int | None = None) -> list[tuple[int, np.ndarray]]:
        """Pop up to ``limit`` completed windows as ``(start, window)``, oldest first.

        The windows are views of the buffer, which is replaced rather than
        written on every :meth:`append`, so they stay valid.
        """
        stop = self.count - self.window_length + 1
        if limit is not None:
            stop = min(stop, self.next_start + limit * self.stride)
        starts = range(self.next_start, stop, self.stride)
        length, base, buffer = self.window_length, self.base, self.buffer
        windows = [
            (start, buffer[start - base : start - base + length]) for start in starts
        ]
        self.next_start += len(starts) * self.stride
        return windows

    def confirm(self, start: int, outcome: EarlyPrediction) -> Alarm | None:
        """Confirm one completed window through the gate; release on saturation."""
        alarm = self.gate.confirm(start, outcome)
        if self.gate.saturated:
            self.saturated = True
            self.release()
        return alarm

    def release(self) -> None:
        """Drop the buffer (stream closed or saturated; no window can form)."""
        self.buffer = self._empty_buffer()
        self.base = self.next_start = self.count

    def _empty_buffer(self) -> np.ndarray:
        """An empty buffer of the stream's sample shape: ``(0,)`` or ``(0, d)``."""
        if self.n_channels == 1:
            return np.empty(0)
        return np.empty((0, self.n_channels))


#: Completed windows classified per ``predict_early_batch`` call of a session.
_WINDOW_BLOCK = 256


class StreamingSession:
    """Online detection over one stream: push samples in, get alarms out.

    Parameters mirror :class:`~repro.streaming.detector.StreamingEarlyDetector`
    (same defaults, same semantics); the difference is the execution model.
    Every ``stride``-th sample opens a candidate window.  Each chunk is
    appended to the session's :class:`WindowLedger`; the windows it
    completes are normalised and classified in blocks of up to 256 by one
    ``predict_early_batch`` call each, and *confirmed* -- the alarm emitted,
    the refractory and ``max_alarms`` rules applied -- in candidate-start
    order.  Candidates whose window never completes (the stream ended
    first) are discarded at :meth:`finalize`, matching the offline
    detector's candidate eligibility.

    Between calls the session holds at most ``L - 1`` raw samples plus the
    latest chunk; while a chunk is evaluated, one block of windows is added.
    Once ``max_alarms`` is reached it stops evaluating and only counts
    samples.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.classifiers.threshold import ProbabilityThresholdClassifier
    >>> rng = np.random.default_rng(0)
    >>> series = np.vstack([rng.normal(i, 0.1, size=(5, 30)) for i in (0, 3)])
    >>> labels = ["lo"] * 5 + ["hi"] * 5
    >>> model = ProbabilityThresholdClassifier(min_length=4).fit(series, labels)
    >>> session = StreamingSession(model, stride=5, normalization="none")
    >>> for chunk in np.split(rng.normal(0.0, 0.1, size=300), 10):
    ...     _ = session.extend(chunk)
    >>> alarms = session.finalize()
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
            raise ValueError("classifier must be fitted before building a session")
        if normalization not in ("none", "window", "causal"):
            raise ValueError("normalization must be 'none', 'window' or 'causal'")
        self.classifier = classifier
        self.window_length = classifier.train_length_
        self.n_channels = classifier.n_channels_
        self.stride = stride if stride is not None else max(1, self.window_length // 4)
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        self.normalization = normalization
        refractory = refractory if refractory is not None else self.window_length // 2
        # The ledger's gate validates refractory and max_alarms.
        self._ledger = WindowLedger(
            classifier, self.stride, normalization, refractory, max_alarms
        )
        self.refractory = self._ledger.gate.refractory
        self.max_alarms = self._ledger.gate.max_alarms

    # ------------------------------------------------------------ properties
    @property
    def n_samples(self) -> int:
        """Number of stream samples consumed so far."""
        return self._ledger.count

    @property
    def n_open_candidates(self) -> int:
        """Number of candidate windows begun but not yet complete."""
        return len(self._ledger.open_starts)

    @property
    def alarms(self) -> list[Alarm]:
        """All alarms confirmed so far (copy)."""
        return list(self._ledger.gate.alarms)

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has been called."""
        return self._ledger.finalized

    def export_state(self) -> SessionState:
        """Read-only snapshot of the session; see :class:`SessionState`."""
        ledger = self._ledger
        return SessionState(
            n_samples=ledger.count,
            open_candidate_starts=tuple(ledger.open_starts),
            n_alarms=len(ledger.gate.alarms),
            saturated=ledger.saturated,
            finalized=ledger.finalized,
        )

    # ------------------------------------------------------------ ingestion
    def push(self, value) -> list[Alarm]:
        """Consume one sample; return the alarms it confirmed (possibly none).

        ``value`` is a scalar on univariate streams and a length-``d`` vector
        (one reading per channel) when the classifier is multichannel.
        """
        if self.n_channels == 1:
            return self.extend(np.asarray([value], dtype=float))
        return self.extend(np.asarray(value, dtype=float)[None])

    def extend(self, values: np.ndarray) -> list[Alarm]:
        """Consume a chunk of samples; return the alarms the chunk confirmed."""
        ledger = self._ledger
        if ledger.finalized:
            raise RuntimeError("the session has been finalized")
        chunk = validate_chunk(values, self.n_channels)
        if chunk.shape[0] == 0:
            return []
        emitted_from = len(ledger.gate.alarms)
        ledger.append(chunk)
        while not ledger.saturated:
            block = ledger.extract_windows(_WINDOW_BLOCK)
            if not block:
                break
            windows = normalize_windows(
                np.array([window for _, window in block]), self.normalization
            )
            outcomes = self.classifier.predict_early_batch(windows)
            for (start, _), outcome in zip(block, outcomes):
                if outcome.triggered:
                    ledger.confirm(start, outcome)
                    if ledger.saturated:
                        break
        return ledger.gate.alarms[emitted_from:]

    def finalize(self) -> list[Alarm]:
        """Declare the stream over and return the full alarm list.

        Candidates whose window never completed are discarded -- the offline
        detector never considers a start that cannot fit a full window, and
        the equivalence suite holds the engine to the same rule.
        """
        ledger = self._ledger
        if not ledger.finalized:
            ledger.finalized = True
            ledger.release()
        return list(ledger.gate.alarms)


class MultiStreamDetector:
    """Fan a batch of independent streams through concurrent online sessions.

    One :class:`StreamingSession` per stream, fed in chunked lockstep the
    way a service would drain a set of live telemetry feeds; each session
    classifies its own completed windows in batches.  Streams may have
    different lengths; each stream's alarm list is exactly what a
    standalone session (and therefore the offline detector) would produce
    for it.

    Parameters
    ----------
    classifier, stride, normalization, refractory, max_alarms:
        As for :class:`StreamingSession`; shared by every stream.
    chunk_size:
        Number of samples per stream consumed per lockstep round.
    """

    def __init__(
        self,
        classifier: BaseEarlyClassifier,
        stride: int | None = None,
        normalization: NormalizationMode = "none",
        refractory: int | None = None,
        max_alarms: int = 100_000,
        chunk_size: int = 1024,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        # Validate the shared parameters eagerly (and fail before any data
        # arrives) by building a throwaway session.
        probe = StreamingSession(
            classifier,
            stride=stride,
            normalization=normalization,
            refractory=refractory,
            max_alarms=max_alarms,
        )
        self.classifier = classifier
        self.stride = probe.stride
        self.normalization = probe.normalization
        self.refractory = probe.refractory
        self.max_alarms = probe.max_alarms
        self.chunk_size = chunk_size

    def open_sessions(self, n_streams: int) -> list[StreamingSession]:
        """One fresh session per stream, all with the detector's parameters."""
        if n_streams < 1:
            raise ValueError("need at least one stream")
        return [
            StreamingSession(
                self.classifier,
                stride=self.stride,
                normalization=self.normalization,
                refractory=self.refractory,
                max_alarms=self.max_alarms,
            )
            for _ in range(n_streams)
        ]

    def detect(
        self, streams: Sequence[ComposedStream | np.ndarray]
    ) -> list[list[Alarm]]:
        """Run every stream through its own session; return per-stream alarms.

        Every stream is checked by :func:`validate_chunk` before any session
        is fed, so a malformed stream raises ``ValueError`` before any
        window is classified.
        """
        arrays = [
            validate_chunk(
                stream.values if isinstance(stream, ComposedStream) else stream,
                self.classifier.n_channels_,
            )
            for stream in streams
        ]
        sessions = self.open_sessions(len(arrays))
        longest = max(arr.shape[0] for arr in arrays)
        for offset in range(0, longest, self.chunk_size):
            for session, values in zip(sessions, arrays):
                if offset < values.shape[0]:
                    session.extend(values[offset : offset + self.chunk_size])
        return [session.finalize() for session in sessions]

    def evaluate(
        self,
        streams: Sequence[ComposedStream],
        target_labels: tuple | None = None,
        onset_tolerance: int = 0,
    ):
        """Detect on annotated streams and merge the per-stream evaluations.

        Returns
        -------
        repro.streaming.metrics.StreamingEvaluation
            Fleet-level counts/rates via
            :func:`repro.streaming.metrics.merge_evaluations`.
        """
        # Imported lazily: metrics sits above this module in the layering.
        from repro.streaming.metrics import evaluate_alarms, merge_evaluations

        for stream in streams:
            if not isinstance(stream, ComposedStream):
                raise TypeError("evaluate() needs annotated ComposedStream inputs")
        per_stream = self.detect(streams)
        return merge_evaluations(
            [
                evaluate_alarms(
                    alarms,
                    stream,
                    target_labels=target_labels,
                    onset_tolerance=onset_tolerance,
                )
                for alarms, stream in zip(per_stream, streams)
            ]
        )
