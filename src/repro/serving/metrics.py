"""Backpressure counters and metrics snapshots for the serving layer.

The serving engine is a shared, multi-tenant resource, so its observability
surface has to answer two operational questions at any instant: *is the
engine keeping up* (queue depth, shed counts) and *what is each tenant
getting for its admission budget* (samples ingested, alarms emitted, and the
confirmation latency those alarms paid for being served in batches).

Counters are kept mutable and per-tenant inside the engine;
:meth:`~repro.serving.engine.ServingEngine.metrics` freezes them into the
immutable snapshots below.  A snapshot is internally consistent -- it is
assembled in one pass with no intervening engine work -- and the fuzz suite
pins the bookkeeping identity every snapshot must satisfy:

``candidates_enqueued == candidates_pending + candidates_evaluated +
candidates_discarded``

(per tenant, and therefore globally), with ``queue_depth`` equal to the sum
of per-tenant ``candidates_pending``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TenantMetrics", "ServingMetrics"]


@dataclass(frozen=True)
class TenantMetrics:
    """One tenant's slice of a :class:`ServingMetrics` snapshot.

    Attributes
    ----------
    tenant:
        The tenant key.
    streams_open:
        Streams currently accepting pushes.
    streams_finalized:
        Streams ended cleanly via ``finalize_stream``.
    streams_shed:
        Streams closed by load shedding (a dropped chunk leaves a gap in the
        sample sequence, so every window spanning it would be wrong; the
        engine closes the stream instead of serving corrupt windows).
    chunks_ingested, samples_ingested:
        Admitted pushes and their total sample count.
    chunks_shed:
        Chunks dropped -- by admission control or as malformed -- incremented
        exactly once per dropped chunk (the shedding unit tests pin this).
    chunks_rejected:
        The dropped chunks that ``validate_chunk`` rejected as malformed on
        an open stream (also counted in ``chunks_shed``).
    candidates_enqueued:
        Completed candidate windows handed to the batching scheduler.
    candidates_pending:
        Enqueued candidates not yet evaluated (awaiting the next flush).
    candidates_evaluated:
        Candidates whose window was actually classified.
    candidates_discarded:
        Enqueued candidates dropped without evaluation: their stream was
        shed or evicted first, or an earlier candidate saturated the
        stream's alarm gate (after which no later candidate may alarm), or
        their model raised while classifying their batch.
    alarms_emitted:
        Alarms confirmed across the tenant's streams.
    mean_alarm_latency:
        Mean confirmation latency of the emitted alarms, in samples: how far
        the stream had advanced past the trigger position before the alarm
        could be confirmed (``candidate_start + L - 1 - position``).  This
        is the price of window-completion batching -- identical to what a
        standalone :class:`~repro.streaming.online.StreamingSession` pays,
        since both confirm only once the window is complete.  ``None``
        until the tenant has emitted an alarm.
    last_error:
        The ``repr`` of the last exception the tenant's model raised while
        classifying a batch (whose streams were then shed), or ``None``.
    """

    tenant: str
    streams_open: int
    streams_finalized: int
    streams_shed: int
    chunks_ingested: int
    samples_ingested: int
    chunks_shed: int
    chunks_rejected: int
    candidates_enqueued: int
    candidates_pending: int
    candidates_evaluated: int
    candidates_discarded: int
    alarms_emitted: int
    mean_alarm_latency: float | None
    last_error: str | None


@dataclass(frozen=True)
class ServingMetrics:
    """Engine-wide snapshot: global backpressure state plus per-tenant slices.

    The global counters are exact sums of the per-tenant ones (the fuzz
    suite asserts this), so dashboards can alert on the totals and drill
    into ``tenants`` without reconciliation.

    Attributes
    ----------
    queue_depth:
        Candidates currently waiting in the batching queue.
    max_pending:
        The admission limit: pushes that would grow the queue past this
        bound are shed.
    n_flushes:
        Times the queue was drained.
    n_batch_calls:
        Batched classifier invocations issued across all flushes; the whole
        point of the scheduler is that this stays far below
        ``candidates_evaluated``.
    n_tenants:
        Registered tenants.
    streams_open, streams_finalized, streams_shed:
        Fleet-wide stream states.
    chunks_ingested, samples_ingested, chunks_shed, chunks_rejected:
        Fleet-wide ingestion, shedding and rejection totals.
    candidates_enqueued, candidates_pending, candidates_evaluated, candidates_discarded:
        Fleet-wide candidate accounting (see :class:`TenantMetrics`).
    alarms_emitted:
        Fleet-wide alarm count.
    tenants:
        Per-tenant slices, in registration order.
    """

    queue_depth: int
    max_pending: int
    n_flushes: int
    n_batch_calls: int
    n_tenants: int
    streams_open: int
    streams_finalized: int
    streams_shed: int
    chunks_ingested: int
    samples_ingested: int
    chunks_shed: int
    chunks_rejected: int
    candidates_enqueued: int
    candidates_pending: int
    candidates_evaluated: int
    candidates_discarded: int
    alarms_emitted: int
    tenants: tuple[TenantMetrics, ...]


class TenantCounters:
    """Mutable per-tenant accumulator behind :class:`TenantMetrics`.

    Internal to the engine; public here so the scheduler can charge
    evaluation counts without a circular import.
    """

    __slots__ = (
        "tenant",
        "streams_open",
        "streams_finalized",
        "streams_shed",
        "chunks_ingested",
        "samples_ingested",
        "chunks_shed",
        "chunks_rejected",
        "candidates_enqueued",
        "candidates_pending",
        "candidates_evaluated",
        "candidates_discarded",
        "alarms_emitted",
        "alarm_latency_total",
        "last_error",
    )

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.streams_open = 0
        self.streams_finalized = 0
        self.streams_shed = 0
        self.chunks_ingested = 0
        self.samples_ingested = 0
        self.chunks_shed = 0
        self.chunks_rejected = 0
        self.candidates_enqueued = 0
        self.candidates_pending = 0
        self.candidates_evaluated = 0
        self.candidates_discarded = 0
        self.alarms_emitted = 0
        self.alarm_latency_total = 0
        self.last_error: str | None = None

    def snapshot(self) -> TenantMetrics:
        if self.alarms_emitted:
            mean_latency = self.alarm_latency_total / self.alarms_emitted
        else:
            mean_latency = None
        return TenantMetrics(
            tenant=self.tenant,
            streams_open=self.streams_open,
            streams_finalized=self.streams_finalized,
            streams_shed=self.streams_shed,
            chunks_ingested=self.chunks_ingested,
            samples_ingested=self.samples_ingested,
            chunks_shed=self.chunks_shed,
            chunks_rejected=self.chunks_rejected,
            candidates_enqueued=self.candidates_enqueued,
            candidates_pending=self.candidates_pending,
            candidates_evaluated=self.candidates_evaluated,
            candidates_discarded=self.candidates_discarded,
            alarms_emitted=self.alarms_emitted,
            mean_alarm_latency=mean_latency,
            last_error=self.last_error,
        )
