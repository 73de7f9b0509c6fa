"""JSON artifact writer: machine-readable, diffable experiment results.

Every executed experiment can be persisted as ``results/<name>.json`` with
its resolved parameters, seed, metrics, rendered summary and per-stage
timings.  The artifact is the contract consumed by CI (which asserts every
artifact parses and carries non-empty metrics) and by anyone diffing two
runs of the paper.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

from repro.data.shards import write_atomic
from repro.runtime.spec import ExperimentResult

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "artifact_payload",
    "load_artifact",
    "result_from_payload",
    "write_artifact",
]

#: Version stamp embedded in every artifact so downstream consumers can
#: detect layout changes.
ARTIFACT_SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Best-effort reduction of a parameter/metric value to JSON types.

    Non-finite floats become ``null``: Python's ``json`` would happily emit
    bare ``NaN``/``Infinity`` tokens, which strict parsers (jq, JavaScript)
    reject, and the artifact is advertised as machine-readable.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value) if not isinstance(value, (set, frozenset)) else sorted(value, key=repr)
        return [_jsonable(item) for item in items]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalars (routed back through the float check)
        extracted = item()
        if isinstance(extracted, (str, int, float, bool)):
            return _jsonable(extracted)
    return repr(value)


def artifact_payload(result: ExperimentResult) -> dict[str, Any]:
    """The JSON document written for one experiment result."""
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "experiment": result.name,
        "seed": _jsonable(result.seed),
        "parameters": _jsonable(dict(result.parameters)),
        "metrics": _jsonable(dict(result.metrics)),
        "summary": result.summary,
        "timings": {stage: float(value) for stage, value in result.timings.items()},
        "cache_hit": bool(result.cache_hit),
    }


def write_artifact(result: ExperimentResult, results_dir: str | Path) -> Path:
    """Atomically write ``<results_dir>/<name>.json`` and return its path."""
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(artifact_payload(result), indent=2, sort_keys=True)
    return write_atomic(results_dir / f"{result.name}.json", text + "\n")


def load_artifact(path: str | Path) -> dict[str, Any]:
    """Parse one artifact back into a dict (inverse of :func:`write_artifact`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def result_from_payload(payload: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from an artifact payload.

    The inverse of :func:`artifact_payload` up to JSON round-tripping (tuples
    become lists, non-finite floats became ``null``); ``raw`` is ``None``,
    exactly as for a result that crossed a process boundary.  This is what
    lets a resumed run (``--resume``) report completed experiments without
    re-executing them: the artifact on disk *is* the result.
    """
    return ExperimentResult(
        name=payload["experiment"],
        parameters=dict(payload["parameters"]),
        seed=payload["seed"],
        metrics=dict(payload["metrics"]),
        summary=payload["summary"],
        timings={stage: float(value) for stage, value in payload["timings"].items()},
        cache_hit=bool(payload["cache_hit"]),
    )
