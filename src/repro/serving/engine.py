"""Multi-tenant serving engine: push chunks in, get batched alarms out.

:class:`ServingEngine` is the deployment front-end over the online streaming
machinery: thousands of live streams across many tenants push sample chunks
in whatever interleaved order they arrive, and the engine turns them into
the *same alarms* a dedicated :class:`~repro.streaming.online.StreamingSession`
per stream would have produced -- the equivalence suite in
``tests/test_serving.py`` pins this field by field, and against the offline
oracle in ``tests/oracles/streaming.py``.

Why batching does not change semantics
--------------------------------------
A candidate's outcome is a function of its own (normalised) window alone,
and it is only confirmed -- refractory and saturation rules applied -- once
its window completes, in candidate-start order.  Each served stream is one
:class:`~repro.streaming.online.WindowLedger` (raw tail buffer, stride
cursor, :class:`~repro.streaming.online.AlarmGate`), the same class a
session runs on, so buffering, window extraction and the emission rules
cannot drift between the two.  What the engine adds is tenancy, admission
and cross-stream coalescing: completed windows go to the
:class:`~repro.serving.scheduler.BatchScheduler`, which stacks windows
across streams *and tenants sharing a model* into single
``predict_early_batch`` calls.  Confirmation replays per stream in FIFO
(= candidate-start) order at :meth:`flush`.

Load shedding
-------------
Admission control bounds the pending-candidate queue.  A chunk whose
windows would overflow the queue is dropped whole -- the shed counter
increments exactly once per dropped chunk -- and dropping a chunk leaves a
gap in the stream's sample sequence, after which every window spanning the
gap would be wrong; the engine therefore *closes* the stream (marking it
shed and discarding its queued candidates) rather than serve corrupt
windows, so a shed stream never emits another alarm.  A chunk that
:func:`~repro.streaming.online.validate_chunk` rejects on an open stream
leaves the same gap, so it sheds the stream the same way -- one bad
producer degrades its own stream, not the caller -- and also counts as
rejected, which says why the stream was shed.  A model that raises while
classifying a coalesced batch degrades only that batch's streams the same
way: they are shed, their windows count as discarded, the exception's
``repr`` is kept as the tenant's ``last_error``, and the flush still
returns every other batch's alarms.  Backpressure is observable via
:meth:`metrics` (queue depth, shed and rejected counts, per-tenant alarm
latency, last error); producers re-open shed streams under a fresh stream
id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.classifiers.base import PartialPrediction
from repro.serving.metrics import ServingMetrics, TenantCounters
from repro.serving.registry import ModelRegistry, TenantEntry
from repro.serving.scheduler import BatchScheduler, PendingCandidate
from repro.streaming.online import (
    Alarm,
    SessionState,
    WindowLedger,
    normalize_windows,
    validate_chunk,
)

__all__ = ["ServedAlarm", "ServingEngine"]


@dataclass(frozen=True)
class ServedAlarm:
    """An alarm routed back to its origin: tenant, stream, and the alarm."""

    tenant: str
    stream_id: object
    alarm: Alarm


class _StreamLedger(WindowLedger):
    """One served stream: a window ledger plus tenant, id, counters and flags.

    The shared :class:`~repro.streaming.online.WindowLedger` gains only the
    tenant, the stream id, the tenant's counters and the shed / evicted
    flags.  The whole per-stream footprint is the ledger's raw tail (at most
    ``L - 1`` samples between pushes) and its gate; no per-stream classifier
    state, which is what lets one engine hold thousands of streams.
    """

    __slots__ = ("tenant", "stream_id", "counters", "shed", "evicted")

    def __init__(
        self,
        tenant: str,
        stream_id: object,
        entry: TenantEntry,
        counters: TenantCounters,
    ) -> None:
        config = entry.config
        super().__init__(
            entry.classifier,
            config.stride,
            config.normalization,
            config.refractory,
            config.max_alarms,
        )
        self.tenant = tenant
        self.stream_id = stream_id
        self.counters = counters
        self.shed = False
        self.evicted = False


class ServingEngine:
    """Shared ingestion, batching and alarm routing over a model registry.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.registry.ModelRegistry` mapping tenants
        to fitted models and detection configs.
    max_pending:
        Admission bound on the pending-candidate queue; chunks that would
        overflow it are shed (see the module docstring).
    batch_size:
        Exemplars per kernel invocation inside ``predict_early_batch``.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_pending: int = 100_000,
        batch_size: int = 256,
    ) -> None:
        self.registry = registry
        self._scheduler = BatchScheduler(max_pending=max_pending, batch_size=batch_size)
        self._streams: dict[tuple[str, object], _StreamLedger] = {}
        self._retired: set[tuple[str, object]] = set()
        self._counters: dict[str, TenantCounters] = {}
        # Alarms a finalize_stream flush confirmed on other streams; the next
        # flush() returns them first.
        self._undelivered: list[ServedAlarm] = []
        self.n_flushes = 0

    # ------------------------------------------------------------ inspection
    @property
    def queue_depth(self) -> int:
        """Candidates currently awaiting batched evaluation."""
        return self._scheduler.depth

    @property
    def max_pending(self) -> int:
        """The admission bound on the pending-candidate queue."""
        return self._scheduler.max_pending

    def streams(self, tenant: str | None = None) -> list[tuple[str, object]]:
        """Open ``(tenant, stream_id)`` keys, optionally for one tenant."""
        return [
            key
            for key in self._streams
            if tenant is None or key[0] == tenant
        ]

    def stream_state(self, tenant: str, stream_id: object) -> SessionState:
        """Session-equivalent snapshot of one open stream.

        ``open_candidate_starts`` lists the *incomplete* candidate windows
        (born but not yet fully buffered), as a standalone session reports
        them; completed-but-unflushed candidates live in the batching
        queue, not here.
        """
        ledger = self._ledger(tenant, stream_id)
        return SessionState(
            n_samples=ledger.count,
            open_candidate_starts=tuple(ledger.open_starts),
            n_alarms=len(ledger.gate.alarms),
            saturated=ledger.saturated,
            finalized=ledger.finalized,
        )

    def alarms(self, tenant: str, stream_id: object) -> list[Alarm]:
        """Alarms confirmed so far on one open stream (copy)."""
        return list(self._ledger(tenant, stream_id).gate.alarms)

    # ------------------------------------------------------------ ingestion
    def push(self, tenant: str, stream_id: object, values: np.ndarray) -> int:
        """Ingest one chunk for one stream; returns the samples admitted.

        A first push under an unseen ``(tenant, stream_id)`` opens the
        stream.  Returns ``0`` when the chunk was shed (or the stream
        already was) -- including a malformed chunk on an open stream,
        which sheds the stream and counts as rejected; admitted chunks
        return their sample count.  Alarms are *not* returned here --
        candidate evaluation is deferred and batched; call :meth:`flush` to
        drain.

        Raises
        ------
        KeyError
            Unknown tenant.
        ValueError
            Malformed first chunk (no stream is opened), or a stream id
            reused after the stream was finalized or evicted -- reuse would
            let two distinct physical streams alias one alarm history, the
            double-counting hazard
            :func:`repro.evaluation.earliness.evaluate_early_classifier`
            also guards against.
        """
        entry = self.registry.get(tenant)
        counters = self._tenant_counters(tenant)
        key = (tenant, stream_id)
        ledger = self._streams.get(key)
        if ledger is None and key in self._retired:
            raise ValueError(
                f"stream id {stream_id!r} for tenant {tenant!r} was already "
                "finalized or evicted; stream ids must not be reused"
            )

        # Validate before a first push opens the stream, so a rejected
        # chunk leaves no open stream behind.
        n_channels = entry.classifier.n_channels_ if ledger is None else ledger.n_channels
        try:
            chunk = validate_chunk(values, n_channels)
        except ValueError:
            if ledger is None:
                raise
            counters.chunks_rejected += 1
            self._shed(ledger)
            return 0

        if ledger is None:
            ledger = _StreamLedger(tenant, stream_id, entry, counters)
            self._streams[key] = ledger
            counters.streams_open += 1
        n = chunk.shape[0]
        if n == 0:
            return 0
        if ledger.shed:
            # The producer has not yet reacted to backpressure; keep
            # dropping, one shed count per chunk.
            self._shed(ledger)
            return 0
        # Admission: how many windows would this chunk complete?  A
        # saturated stream completes none: it accepts (and counts) samples
        # but can never alarm again, exactly like a saturated session.
        if not ledger.saturated:
            room = ledger.count + n - ledger.window_length - ledger.next_start
            n_new = room // ledger.stride + 1 if room >= 0 else 0
            if n_new and self._scheduler.depth + n_new > self._scheduler.max_pending:
                self._shed(ledger)
                return 0

        ledger.append(chunk)
        counters.chunks_ingested += 1
        counters.samples_ingested += n
        for start, window in ledger.extract_windows():
            admitted = self._scheduler.admit(PendingCandidate(ledger, start, window))
            assert admitted  # guaranteed by the admission check above
            counters.candidates_enqueued += 1
            counters.candidates_pending += 1
        return n

    # ------------------------------------------------------------ evaluation
    def flush(self) -> list[ServedAlarm]:
        """Drain the queue: evaluate in coalesced batches, confirm in order.

        Candidates whose stream has been shed, evicted or saturated since
        they were enqueued are discarded unevaluated.  The rest are
        classified by the scheduler (grouped across tenants sharing a model
        and normalisation mode) and confirmed through each stream's
        :class:`~repro.streaming.online.AlarmGate` in FIFO order -- which
        per stream is candidate-start order, the order the gate's refractory
        and saturation rules require.  A group whose model raises sheds its
        streams and discards its candidates (see the module docstring).
        Alarms that a :meth:`finalize_stream` confirmed on other streams
        since the last flush come first.
        """
        emitted, self._undelivered = self._undelivered, []
        emitted.extend(self._confirm_queued())
        return emitted

    def _confirm_queued(self) -> list[ServedAlarm]:
        """Evaluate and confirm every queued candidate; return the new alarms."""
        items = self._scheduler.take_all()
        live: list[PendingCandidate] = []
        for item in items:
            ledger = item.ledger
            ledger.counters.candidates_pending -= 1
            if ledger.shed or ledger.evicted or ledger.saturated or ledger.finalized:
                ledger.counters.candidates_discarded += 1
            else:
                live.append(item)
        outcomes = self._scheduler.evaluate(live)
        emitted: list[ServedAlarm] = []
        for item, outcome in zip(live, outcomes):
            ledger = item.ledger
            if isinstance(outcome, Exception):
                ledger.counters.candidates_discarded += 1
                ledger.counters.last_error = repr(outcome)
                self._close(ledger)
                continue
            ledger.counters.candidates_evaluated += 1
            if ledger.saturated or not outcome.triggered:
                # Only a trigger can alarm, and a stream saturated earlier
                # in this same flush can alarm no more.
                continue
            alarm = ledger.confirm(item.start, outcome)
            if alarm is not None:
                ledger.counters.alarms_emitted += 1
                ledger.counters.alarm_latency_total += (
                    item.start + ledger.window_length - 1 - alarm.position
                )
                emitted.append(ServedAlarm(ledger.tenant, ledger.stream_id, alarm))
        self.n_flushes += 1
        return emitted

    def peek(self, tenant: str) -> dict[object, PartialPrediction]:
        """Force-evaluate every open prefix of one tenant, without committing.

        The monitoring counterpart of ``predict_partial``: for each of the
        tenant's open streams with an in-progress candidate, classify the
        oldest incomplete candidate's prefix as it stands.  The prefix is
        normalised with the tenant's mode by
        :func:`~repro.streaming.online.normalize_windows` -- the scheduler's
        own normaliser -- and answered by one ``predict_partial`` call per
        stream.  In ``"window"`` mode whole-window statistics do not exist
        yet, so each prefix is z-normalised with its own statistics -- the
        honest mid-flight approximation.  Peeking changes no stream state
        and emits no alarms.
        """
        self.registry.get(tenant)
        partials: dict[object, PartialPrediction] = {}
        for (owner, stream_id), ledger in self._streams.items():
            if (
                owner != tenant
                or ledger.shed
                or ledger.saturated
                or ledger.count <= ledger.next_start
            ):
                continue
            offset = ledger.next_start - ledger.base
            n = min(ledger.count - ledger.next_start, ledger.window_length)
            prefix = ledger.buffer[offset : offset + n]
            partials[stream_id] = ledger.classifier.predict_partial(
                normalize_windows(prefix[None], ledger.normalization)[0]
            )
        return partials

    # ------------------------------------------------------------ teardown
    def finalize_stream(self, tenant: str, stream_id: object) -> list[Alarm]:
        """End one stream cleanly and return its full alarm list.

        Flushes first so every completed candidate of the stream is
        confirmed; incomplete candidates (window never filled) are
        discarded, matching session/offline eligibility.  Alarms that flush
        confirms on *other* streams are kept for the next :meth:`flush`.
        The stream id is retired -- reusing it raises.
        """
        self._ledger(tenant, stream_id)  # raise before flushing if unknown
        key = (tenant, stream_id)
        self._undelivered.extend(
            served
            for served in self._confirm_queued()
            if (served.tenant, served.stream_id) != key
        )
        ledger = self._streams.pop(key)
        self._retired.add(key)
        ledger.finalized = True
        if not ledger.shed:
            ledger.counters.streams_open -= 1
            ledger.counters.streams_finalized += 1
        ledger.release()
        return list(ledger.gate.alarms)

    def evict_tenant(self, tenant: str) -> int:
        """Drop a tenant: forget its model, close its streams, discard work.

        Eviction is abrupt by design (the clean path is finalizing each
        stream first): queued candidates of the tenant are discarded at the
        next flush, never evaluated.  Returns the number of streams closed.
        The tenant's counters remain visible in :meth:`metrics` and its
        stream ids stay retired.
        """
        self.registry.evict(tenant)
        closed = 0
        for key in [key for key in self._streams if key[0] == tenant]:
            ledger = self._streams.pop(key)
            self._retired.add(key)
            ledger.evicted = True
            if not ledger.shed:
                ledger.counters.streams_open -= 1
            ledger.release()
            closed += 1
        return closed

    # ------------------------------------------------------------ metrics
    def metrics(self) -> ServingMetrics:
        """Consistent point-in-time snapshot of the backpressure counters."""
        tenants = tuple(
            counters.snapshot() for counters in self._counters.values()
        )
        return ServingMetrics(
            queue_depth=self._scheduler.depth,
            max_pending=self._scheduler.max_pending,
            n_flushes=self.n_flushes,
            n_batch_calls=self._scheduler.n_batch_calls,
            n_tenants=len(self.registry),
            streams_open=sum(t.streams_open for t in tenants),
            streams_finalized=sum(t.streams_finalized for t in tenants),
            streams_shed=sum(t.streams_shed for t in tenants),
            chunks_ingested=sum(t.chunks_ingested for t in tenants),
            samples_ingested=sum(t.samples_ingested for t in tenants),
            chunks_shed=sum(t.chunks_shed for t in tenants),
            chunks_rejected=sum(t.chunks_rejected for t in tenants),
            candidates_enqueued=sum(t.candidates_enqueued for t in tenants),
            candidates_pending=sum(t.candidates_pending for t in tenants),
            candidates_evaluated=sum(t.candidates_evaluated for t in tenants),
            candidates_discarded=sum(t.candidates_discarded for t in tenants),
            alarms_emitted=sum(t.alarms_emitted for t in tenants),
            tenants=tenants,
        )

    # ------------------------------------------------------------ internals
    def _tenant_counters(self, tenant: str) -> TenantCounters:
        counters = self._counters.get(tenant)
        if counters is None:
            counters = self._counters[tenant] = TenantCounters(tenant)
        return counters

    @classmethod
    def _shed(cls, ledger: _StreamLedger) -> None:
        """Drop one chunk of ``ledger``'s stream, closing the stream if open.

        A dropped chunk is a gap in the stream's samples, so the stream is
        closed (see the module docstring); each dropped chunk counts once.
        """
        ledger.counters.chunks_shed += 1
        cls._close(ledger)

    @staticmethod
    def _close(ledger: _StreamLedger) -> None:
        """Shed ``ledger``'s stream, once: it takes no more samples or windows."""
        counters = ledger.counters
        if not ledger.shed:
            counters.streams_shed += 1
            counters.streams_open -= 1
            ledger.shed = True
            ledger.release()

    def _ledger(self, tenant: str, stream_id: object) -> _StreamLedger:
        try:
            return self._streams[(tenant, stream_id)]
        except KeyError:
            raise KeyError(
                f"no open stream {stream_id!r} for tenant {tenant!r}"
            ) from None
