"""Experiment runtime: declarative specs, scheduler, cache and artifacts.

The runtime is the outer orchestration layer of the reproduction: the
experiments package declares *what* each table/figure needs
(:class:`~repro.runtime.spec.ExperimentSpec`), and this package decides
*how* to execute it -- through one work queue, in-process or across a
process pool (:mod:`repro.runtime.scheduler`), optionally crash-resumable
through a run manifest (:mod:`repro.runtime.manifest`), with the expensive
``prepare`` stage memoised on disk (:mod:`repro.runtime.cache`) and every
run persisted as a machine-readable JSON artifact
(:mod:`repro.runtime.artifacts`).
"""

from repro.runtime.artifacts import (
    artifact_payload,
    load_artifact,
    result_from_payload,
    write_artifact,
)
from repro.runtime.cache import CACHE_SCHEMA_VERSION, CacheStats, PrepareCache
from repro.runtime.manifest import MANIFEST_SCHEMA_VERSION, RunManifest, file_sha256
from repro.runtime.scheduler import QueueTask, execute_spec, run_experiments, run_queue
from repro.runtime.spec import ExperimentResult, ExperimentSpec

# repro.runtime.sweep is intentionally NOT imported here: it doubles as the
# ``python -m repro.runtime.sweep`` entry point, and importing it from the
# package __init__ would trigger the runpy double-import warning on every
# CLI invocation.  Import it directly: ``from repro.runtime.sweep import ...``.

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "ExperimentResult",
    "ExperimentSpec",
    "MANIFEST_SCHEMA_VERSION",
    "PrepareCache",
    "QueueTask",
    "RunManifest",
    "artifact_payload",
    "execute_spec",
    "file_sha256",
    "load_artifact",
    "result_from_payload",
    "run_experiments",
    "run_queue",
    "write_artifact",
]
