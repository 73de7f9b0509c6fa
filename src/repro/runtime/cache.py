"""Content-addressed on-disk cache for the ``prepare`` stage.

The expensive part of most experiments is deterministic given their
parameters: synthesising datasets, composing streams, fitting neighbour
structures.  :class:`PrepareCache` memoises that stage on disk, keyed by a
digest of ``(cache schema, package version, experiment name, prepare-stage
parameters)`` -- the parameters include the experiment's seed, so two runs
agree on a cache entry exactly when they would have produced identical
prepared data.

Entries are pickles written atomically
(:func:`~repro.data.shards.write_atomic`), so concurrent scheduler workers
can race on the same key without corrupting the store.  Values that cannot
be pickled, and parameter dicts that cannot be canonicalised (e.g. a
caller-supplied classifier object), simply bypass the cache instead of
failing the run.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro._version import __version__
from repro.data.shards import write_atomic

__all__ = ["CACHE_SCHEMA_VERSION", "CacheStats", "PrepareCache", "UncacheableParams"]

#: Bump to invalidate every existing cache entry (e.g. when the prepared
#: payload layout of the experiment modules, or the pickled layout of a
#: fitted classifier the serving registry reloads, changes incompatibly).
#: Version 2: Reliable/LDG class models carry their Cholesky factor.
#: Version 3: Reliable/LDG class models are diagonal-plus-low-rank.
#: Version 4: TEASER, ECDIRE and cost-aware hold their prefix model as
#: ``_model``.  ``tests/test_runtime_cache.py`` pins the layout.
CACHE_SCHEMA_VERSION = 4

#: Sentinel distinguishing "cache miss" from a legitimately-``None`` value.
_MISS = object()


class UncacheableParams(ValueError):
    """Raised when a parameter dict cannot be canonicalised into a key."""


def _canonical(value: Any) -> Any:
    """Reduce a parameter value to a canonical JSON-encodable form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _canonical(value[key]) for key in sorted(value, key=str)}
    # numpy scalars quack like Python numbers.  Anything that goes wrong in
    # the probe (e.g. ndarray.item() on a multi-element array raising
    # ValueError) means the value has no canonical form -- that must surface
    # as UncacheableParams so callers bypass the cache instead of crashing.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            extracted = item()
        except Exception:
            extracted = None
        if isinstance(extracted, (str, int, float, bool)):
            return extracted
    raise UncacheableParams(
        f"parameter value {value!r} of type {type(value).__name__} cannot be "
        f"canonicalised into a cache key"
    )


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`PrepareCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    skips: int = field(default=0)  # uncacheable keys or unpicklable values


class PrepareCache:
    """Content-addressed pickle store under one root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.stats = CacheStats()

    # -- keys ---------------------------------------------------------------

    def key(self, experiment: str, params: Mapping[str, Any]) -> str:
        """Hex digest identifying one prepared payload.

        Raises
        ------
        UncacheableParams
            If ``params`` contains a value with no canonical form (the
            caller should then run uncached).
        """
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "version": __version__,
                "experiment": experiment,
                "params": _canonical(dict(params)),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, experiment: str, key: str) -> Path:
        return self.root / f"{experiment}-{key}.pkl"

    # -- store --------------------------------------------------------------

    def load(self, experiment: str, key: str) -> Any:
        """The cached value, or the module-private miss sentinel."""
        path = self.path_for(experiment, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError):
            # AttributeError/ImportError: a stale entry pickled against a
            # class that has since moved or been renamed reads as a miss.
            self.stats.misses += 1
            return _MISS
        self.stats.hits += 1
        return value

    @staticmethod
    def is_miss(value: Any) -> bool:
        return value is _MISS

    def store(self, experiment: str, key: str, value: Any) -> bool:
        """Atomically persist one prepared payload; False if unpicklable.

        The value is pickled in memory first, so an unpicklable one writes
        nothing at all.
        """
        try:
            data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            self.stats.skips += 1
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path_for(experiment, key), data)
        self.stats.stores += 1
        return True

    # -- maintenance --------------------------------------------------------

    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed
