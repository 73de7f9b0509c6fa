"""Streaming composition: the data format the real world actually provides.

The UCR format gives a classifier one carefully extracted exemplar at a time.
A deployed system instead sees an endless stream in which target events are
rare, embedded in arbitrary background activity, and not announced.  This
module provides

* :class:`GroundTruthEvent` -- an annotated interval in a stream,
* :class:`ComposedStream` -- a stream plus its ground-truth annotations, and
* :class:`StreamComposer` -- a builder that embeds labelled exemplars into a
  background process (the construction used by the Appendix B experiment:
  "GunPoint exemplars inserted in between long stretches of random walks").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = ["GroundTruthEvent", "ComposedStream", "StreamComposer"]


@dataclass(frozen=True)
class GroundTruthEvent:
    """A labelled, half-open interval ``[start, end)`` in a stream."""

    start: int
    end: int
    label: object

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("event start must be non-negative")
        if self.end <= self.start:
            raise ValueError("event end must be greater than start")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, start: int, end: int) -> bool:
        """Whether the half-open interval [start, end) overlaps the event."""
        return start < self.end and self.start < end


@dataclass
class ComposedStream:
    """A 1-D stream together with its ground-truth event annotations."""

    values: np.ndarray
    events: list[GroundTruthEvent] = field(default_factory=list)
    name: str = "stream"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("stream values must be 1-D")
        if self.values.shape[0] == 0:
            raise ValueError("stream must not be empty")
        for event in self.events:
            if event.end > self.values.shape[0]:
                raise ValueError(
                    f"event {event} extends past the end of the stream "
                    f"(length {self.values.shape[0]})"
                )
        self.events = sorted(self.events, key=lambda e: e.start)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_events(self) -> int:
        return len(self.events)

    def labels(self) -> tuple:
        """Distinct event labels present in the stream."""
        return tuple(sorted({str(e.label) for e in self.events}))

    def events_with_label(self, label) -> list[GroundTruthEvent]:
        """All events carrying the given label."""
        return [e for e in self.events if e.label == label]

    def extract(self, event: GroundTruthEvent) -> np.ndarray:
        """The raw values of the stream under an event."""
        return self.values[event.start : event.end].copy()

    def window(self, start: int, length: int) -> np.ndarray:
        """A window of the stream starting at ``start``."""
        if start < 0 or start + length > len(self):
            raise IndexError("window out of range")
        return self.values[start : start + length].copy()

    def iter_chunks(self, chunk_size: int):
        """Yield the stream's values in successive fixed-size chunks.

        The consumption pattern of a live deployment: a
        :class:`~repro.streaming.online.StreamingSession` is fed one chunk at
        a time instead of being handed the materialised stream.  Chunks are
        views into :attr:`values` (no copies); the final chunk may be
        shorter.

        Parameters
        ----------
        chunk_size:
            Number of samples per chunk (>= 1).
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        for start in range(0, len(self), chunk_size):
            yield self.values[start : start + chunk_size]

    def background_fraction(self) -> float:
        """Fraction of samples not covered by any event.

        This is the quantity the paper's prior-probability criterion cares
        about: in a realistic deployment it is very close to 1.
        """
        covered = np.zeros(len(self), dtype=bool)
        for event in self.events:
            covered[event.start : event.end] = True
        return float(1.0 - covered.mean())


BackgroundSource = Callable[[int, np.random.Generator], np.ndarray]


class StreamComposer:
    """Embed labelled exemplars into a background stream.

    Parameters
    ----------
    background:
        Either a 1-D array used verbatim as the background, or a callable
        ``f(n, rng) -> array`` that synthesises ``n`` samples of background.
    gap_range:
        Inclusive range of background samples inserted between consecutive
        embedded events (and before the first / after the last one).
    level_match:
        If ``True`` (default), each embedded exemplar is rescaled to the local
        amplitude of the background and offset to the local background level,
        as a real event riding on real telemetry would be.  If ``False`` the
        exemplar values are inserted verbatim (which makes detection
        unrealistically easy -- exactly the hidden gift the UCR format gives
        to ETSC models).
    seed:
        Seed of the internal random generator.
    """

    def __init__(
        self,
        background: np.ndarray | BackgroundSource,
        gap_range: tuple[int, int] = (500, 2000),
        level_match: bool = True,
        seed: int = 17,
    ) -> None:
        low, high = gap_range
        if low < 0 or high < low:
            raise ValueError("gap_range must be (low, high) with 0 <= low <= high")
        self._background = background
        self.gap_range = gap_range
        self.level_match = level_match
        self._rng = np.random.default_rng(seed)

    def _draw_background(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        if callable(self._background):
            chunk = np.asarray(self._background(n, rng), dtype=float)
            if chunk.shape != (n,):
                raise ValueError("background callable must return exactly n samples")
            return chunk
        source = np.asarray(self._background, dtype=float)
        if source.ndim != 1 or source.shape[0] == 0:
            raise ValueError("background array must be a non-empty 1-D array")
        if source.shape[0] >= n:
            start = int(rng.integers(0, source.shape[0] - n + 1))
            return source[start : start + n].copy()
        repeats = int(np.ceil(n / source.shape[0]))
        return np.tile(source, repeats)[:n].copy()

    def _match_level(
        self, exemplar: np.ndarray, tail: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Scale/offset an exemplar so it rides on the local background level."""
        if not self.level_match or tail.shape[0] == 0:
            return exemplar
        local_level = float(tail[-1])
        local_scale = float(np.std(tail)) if tail.shape[0] > 3 else 1.0
        local_scale = max(local_scale, 0.25)
        shape = exemplar - exemplar[0]
        spread = float(np.std(exemplar))
        if spread > 1e-9:
            shape = shape / spread
        return local_level + shape * local_scale

    def compose(
        self,
        exemplars: Sequence[np.ndarray],
        labels: Sequence,
        name: str = "composed",
        rng: np.random.Generator | None = None,
    ) -> ComposedStream:
        """Build a stream embedding the given exemplars in order.

        Parameters
        ----------
        exemplars:
            Sequence of 1-D arrays to embed.
        labels:
            One label per exemplar (becomes the event label).
        name:
            Name recorded on the resulting :class:`ComposedStream`.
        rng:
            Optional generator overriding the composer's internal one.

        Returns
        -------
        ComposedStream
        """
        if len(exemplars) != len(labels):
            raise ValueError("need exactly one label per exemplar")
        rng = rng or self._rng
        low, high = self.gap_range

        chunks: list[np.ndarray] = []
        events: list[GroundTruthEvent] = []
        cursor = 0
        for exemplar, label in zip(exemplars, labels):
            gap = int(rng.integers(low, high + 1)) if high > 0 else 0
            background = self._draw_background(gap, rng)
            chunks.append(background)
            cursor += background.shape[0]

            exemplar = np.asarray(exemplar, dtype=float)
            if exemplar.ndim != 1 or exemplar.shape[0] == 0:
                raise ValueError("each exemplar must be a non-empty 1-D array")
            placed = self._match_level(exemplar, background, rng)
            chunks.append(placed)
            events.append(
                GroundTruthEvent(start=cursor, end=cursor + placed.shape[0], label=label)
            )
            cursor += placed.shape[0]

        tail_gap = int(rng.integers(low, high + 1)) if high > 0 else 0
        chunks.append(self._draw_background(tail_gap, rng))
        values = np.concatenate([c for c in chunks if c.shape[0] > 0])
        return ComposedStream(
            values=values,
            events=events,
            name=name,
            metadata={"gap_range": self.gap_range, "level_match": self.level_match},
        )
