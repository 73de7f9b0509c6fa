"""One global memory budget for every chunked kernel in the package.

The blocked kernels -- :func:`repro.distance.engine.batch_prefix_distances`,
the stacked sweep of
:meth:`repro.distance.neighbors.KNeighborsTimeSeriesClassifier.predict_prefixes`
and the chunked finiteness scan and batch iteration of the data layer -- all
size their chunks against one budget, read by :func:`get_memory_budget` with
a strict precedence order:

1. **process-wide** -- :func:`set_memory_budget` (or the
   :func:`memory_budget` context manager);
2. **environment** -- the ``REPRO_MAX_BLOCK_BYTES`` variable, read at call
   time so a scheduler can cap its worker processes without touching code;
3. **default** -- :data:`DEFAULT_MAX_BLOCK_BYTES` (64 MiB).

The budget bounds the *temporary working set* of one kernel invocation (the
blocked ``(chunk, n_train, L)`` tensors), not the total RSS of the process:
inputs, outputs and the interpreter itself are on top.  Chunking never
changes results -- the equivalence tests pin chunked output bit-identical
to unchunked for every budgeted kernel.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

__all__ = [
    "DEFAULT_MAX_BLOCK_BYTES",
    "MEMORY_BUDGET_ENV_VAR",
    "get_memory_budget",
    "memory_budget",
    "set_memory_budget",
]

#: Fallback byte budget when nothing else is configured.
DEFAULT_MAX_BLOCK_BYTES = 64 * 2**20

#: Environment variable consulted (at call time) when no process-wide budget
#: has been set.
MEMORY_BUDGET_ENV_VAR = "REPRO_MAX_BLOCK_BYTES"

#: Process-wide budget installed by :func:`set_memory_budget`; ``None`` means
#: "defer to the environment variable / default".
_BUDGET: int | None = None


def _validated(value: object, source: str) -> int:
    try:
        budget = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as error:
        raise ValueError(f"{source} must be an integer byte count, got {value!r}") from error
    if budget < 1:
        raise ValueError(f"{source} must be positive, got {budget}")
    return budget


def set_memory_budget(max_block_bytes: int | None) -> None:
    """Install (or with ``None`` clear) the process-wide block-byte budget.

    The budget caps the chunked temporaries of every budgeted kernel in the
    process.  Raises ``ValueError`` for non-positive values.
    """
    global _BUDGET
    if max_block_bytes is None:
        _BUDGET = None
        return
    _BUDGET = _validated(max_block_bytes, "memory budget")


def get_memory_budget() -> int:
    """The byte budget a kernel invocation chunks against right now.

    Resolution order: :func:`set_memory_budget` value, then the
    ``REPRO_MAX_BLOCK_BYTES`` environment variable, then
    :data:`DEFAULT_MAX_BLOCK_BYTES`.  A malformed environment value raises
    ``ValueError`` rather than being silently ignored.
    """
    if _BUDGET is not None:
        return _BUDGET
    raw = os.environ.get(MEMORY_BUDGET_ENV_VAR)
    if raw is not None and raw.strip():
        return _validated(raw.strip(), f"environment variable {MEMORY_BUDGET_ENV_VAR}")
    return DEFAULT_MAX_BLOCK_BYTES


@contextlib.contextmanager
def memory_budget(max_block_bytes: int) -> Iterator[int]:
    """Temporarily install a process-wide budget for the enclosed block.

    >>> from repro.memory import memory_budget, get_memory_budget
    >>> with memory_budget(2**20):
    ...     assert get_memory_budget() == 2**20
    """
    global _BUDGET
    previous = _BUDGET
    set_memory_budget(max_block_bytes)
    try:
        yield get_memory_budget()
    finally:
        _BUDGET = previous
