"""Crash-resumable run manifests: per-task state for fleet-scale sweeps.

A :class:`RunManifest` is one JSON file (``run_manifest.json``) inside a run
directory, recording for every task its lifecycle state --

``pending`` -> ``running`` -> ``done`` (with the SHA-256 of the artifact it
produced) or ``failed`` (with a structured error record per attempt)

-- plus how many attempts it has consumed.  The file is rewritten atomically
(tmp + ``os.replace``) as single-line JSON after every transition, and
**only the parent process writes it**: workers return values, the scheduler
owns the book-keeping.
That single-writer discipline is what makes a SIGKILL anywhere safe -- the
manifest on disk is always a consistent snapshot of some prefix of the run.

Resuming (:meth:`RunManifest.open_or_create` with ``resume=True``) reloads
the snapshot, demotes any task caught mid-flight (``running`` at the moment
of death) back to ``pending``, and leaves ``done`` entries untouched so a
restarted sweep re-executes only unfinished work.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterable

from repro.data.shards import file_sha256

__all__ = ["MANIFEST_SCHEMA_VERSION", "RunManifest", "file_sha256"]

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

_STATES = ("pending", "running", "done", "failed")


class RunManifest:
    """Atomic per-task state ledger of one run directory.

    Every mutating method persists the manifest before returning, so the
    on-disk file is never more than one transition behind reality and a
    crash between transitions loses at most the work of the task that was
    in flight (which resume re-queues anyway).
    """

    FILENAME = "run_manifest.json"

    def __init__(self, run_dir: str | Path, document: dict) -> None:
        self.run_dir = Path(run_dir)
        self._document = document

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def open_or_create(
        cls,
        run_dir: str | Path,
        task_ids: Iterable[str],
        *,
        resume: bool = False,
        metadata: dict | None = None,
    ) -> "RunManifest":
        """Create a fresh manifest, or with ``resume=True`` reload one.

        A fresh create into a directory that already holds a manifest raises
        ``FileExistsError`` -- overwriting a half-finished run's ledger by
        accident is exactly the failure mode manifests exist to prevent.  On
        resume, tasks found ``running`` (in flight when the previous process
        died) are demoted to ``pending``; ``failed`` tasks are re-queued
        with their error history preserved; ``done`` tasks are kept;
        task ids not yet present are appended as ``pending``.
        """
        run_dir = Path(run_dir)
        path = run_dir / cls.FILENAME
        task_ids = list(task_ids)
        if len(set(task_ids)) != len(task_ids):
            raise ValueError("task ids must be unique")
        if path.exists():
            if not resume:
                raise FileExistsError(
                    f"{path} already exists; resume the run or use a new directory"
                )
            manifest = cls.load(run_dir)
            tasks = manifest._document["tasks"]
            for task_id in task_ids:
                entry = tasks.get(task_id)
                if entry is None:
                    tasks[task_id] = cls._fresh_entry()
                elif entry["state"] in ("running", "failed"):
                    # Caught mid-flight by the crash, or out of retries last
                    # time: both are work the resumed run should attempt.
                    entry["state"] = "pending"
            manifest._document["resumed"] = int(manifest._document.get("resumed", 0)) + 1
            manifest.save()
            return manifest
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest = cls(
            run_dir,
            {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "format": "repro-run-manifest",
                "metadata": dict(metadata or {}),
                "resumed": 0,
                "tasks": {task_id: cls._fresh_entry() for task_id in task_ids},
            },
        )
        manifest.save()
        return manifest

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunManifest":
        """Read an existing manifest (read-only callers use this directly)."""
        run_dir = Path(run_dir)
        path = run_dir / cls.FILENAME
        document = json.loads(path.read_text())
        if document.get("format") != "repro-run-manifest":
            raise ValueError(f"{path} is not a run manifest")
        if document.get("schema_version") != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema {document.get('schema_version')!r}"
            )
        return cls(run_dir, document)

    @staticmethod
    def _fresh_entry() -> dict:
        return {
            "state": "pending",
            "attempts": 0,
            "artifact": None,
            "artifact_sha256": None,
            "errors": [],
        }

    def save(self) -> None:
        """Atomically persist the manifest (tmp file + ``os.replace``).

        The manifest is written as single-line JSON: without ``indent``,
        :func:`json.dumps` runs its C encoder, and a sweep saves the whole
        document after every transition.
        """
        path = self.run_dir / self.FILENAME
        text = json.dumps(self._document, sort_keys=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.run_dir, prefix=".manifest-", suffix=".tmp"
        )
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        os.replace(temp_name, path)

    # ------------------------------------------------------------ queries
    @property
    def metadata(self) -> dict:
        return dict(self._document["metadata"])

    @property
    def task_ids(self) -> list[str]:
        return list(self._document["tasks"])

    def entry(self, task_id: str) -> dict:
        """A copy of one task's ledger entry."""
        return json.loads(json.dumps(self._document["tasks"][task_id]))

    def state(self, task_id: str) -> str:
        return self._document["tasks"][task_id]["state"]

    def attempts(self, task_id: str) -> int:
        return int(self._document["tasks"][task_id]["attempts"])

    def counts(self) -> dict:
        counts = {state: 0 for state in _STATES}
        for entry in self._document["tasks"].values():
            counts[entry["state"]] += 1
        return counts

    # ------------------------------------------------------------ transitions
    def _entry(self, task_id: str) -> dict:
        try:
            return self._document["tasks"][task_id]
        except KeyError:
            raise KeyError(f"unknown task {task_id!r}") from None

    def mark_running(self, task_id: str) -> None:
        """``pending`` -> ``running``; one more attempt consumed."""
        entry = self._entry(task_id)
        entry["state"] = "running"
        entry["attempts"] = int(entry["attempts"]) + 1
        self.save()

    def mark_done(
        self, task_id: str, *, artifact: str | Path | None = None
    ) -> None:
        """Record success, hashing the artifact file when one was written."""
        entry = self._entry(task_id)
        entry["state"] = "done"
        if artifact is not None:
            artifact = Path(artifact)
            entry["artifact"] = str(
                artifact.relative_to(self.run_dir)
                if artifact.is_relative_to(self.run_dir)
                else artifact
            )
            entry["artifact_sha256"] = file_sha256(artifact)
        self.save()

    def record_error(self, task_id: str, error: BaseException | dict) -> dict:
        """Append one attempt's structured error record (state unchanged).

        Returns the record that was appended.  Used both for retryable
        failures (the task goes back to ``pending`` via :meth:`mark_pending`)
        and as the last entry before :meth:`mark_failed`.
        """
        entry = self._entry(task_id)
        if isinstance(error, BaseException):
            import traceback as _traceback

            record = {
                "type": type(error).__name__,
                "message": str(error),
                "traceback": "".join(
                    _traceback.format_exception(type(error), error, error.__traceback__)
                ),
            }
        else:
            record = dict(error)
        record.setdefault("attempt", int(entry["attempts"]))
        record.setdefault("time", time.time())
        entry["errors"].append(record)
        self.save()
        return record

    def mark_pending(self, task_id: str) -> None:
        """Re-queue a task (after a retryable failure or worker death)."""
        entry = self._entry(task_id)
        entry["state"] = "pending"
        self.save()

    def mark_failed(self, task_id: str) -> None:
        """Out of retries: the structured error history is the record."""
        entry = self._entry(task_id)
        entry["state"] = "failed"
        self.save()

    def __repr__(self) -> str:
        counts = self.counts()
        summary = ", ".join(f"{state}={counts[state]}" for state in _STATES)
        return f"RunManifest({self.run_dir}, {summary})"
