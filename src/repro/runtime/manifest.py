"""Crash-resumable run manifests: per-task state for fleet-scale sweeps.

A :class:`RunManifest` is one file (``run_manifest.json``) inside a run
directory, recording for every task its lifecycle state --

``pending`` -> ``running`` -> ``done`` (with the SHA-256 of the artifact it
produced) or ``failed`` (with a structured error record per attempt)

-- plus how many attempts it has consumed.  The file is a transition log.
Its first line is the whole document, written atomically
(:func:`~repro.data.shards.write_atomic`) when a run is created or resumed;
every later transition appends one line, a single-line JSON record of the
changed task's full entry, so a transition costs one entry's bytes, not the
document's.  Reading the file replays the records over the document in
order.  **Only the parent process writes it**: workers return values, the
scheduler owns the book-keeping.
That single-writer discipline, with each record appended whole and ended
by its newline, is what makes a SIGKILL anywhere safe -- a kill mid-append
leaves a final line without its newline, which :meth:`RunManifest.load`
ignores, so the file always reads as a consistent snapshot of some prefix
of the run.  There is no fsync: a power cut may lose the newest lines.

Resuming (:meth:`RunManifest.open_or_create` with ``resume=True``) replays
the log and demotes back to ``pending`` every task caught mid-flight
(``running`` at the moment of death), every ``failed`` task, and every
``done`` task whose recorded artifact is missing or no longer matches its
hash, so a restarted run re-executes only the work it cannot trust.  It
then compacts the file back to one line, the folded document, through
``write_atomic``: a torn record never gets a successor, and a kill during
the compaction leaves either the old log or the folded document.  It also
deletes the temp files a killed ``write_atomic`` left in the run directory
and its ``artifacts/`` or ``results/`` subdirectory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Iterable

from repro.data.shards import file_sha256, remove_stale_temps, write_atomic

__all__ = ["MANIFEST_SCHEMA_VERSION", "RunManifest", "file_sha256"]

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

_STATES = ("pending", "running", "done", "failed")


class RunManifest:
    """Per-task state ledger of one run directory, kept as a transition log.

    Every mutating method persists its transition before returning (one
    appended line), so the on-disk file is never more than one transition
    behind reality and a crash between transitions loses at most the work
    of the task that was in flight (which resume re-queues anyway).
    """

    FILENAME = "run_manifest.json"

    def __init__(self, run_dir: str | Path, document: dict) -> None:
        self.run_dir = Path(run_dir)
        self._document = document
        # Tasks changed since the last save; None until this object has
        # written the whole document, which its first save does.
        self._changed: list[str] | None = None

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
        with their error history preserved; ``done`` tasks are kept only
        while their recorded artifact exists with the recorded SHA-256 (a
        ``done`` task with no artifact is kept as is), and are otherwise
        re-queued; task ids not yet present are appended as ``pending``.
        A resume writes the folded document back as the file's one line, and
        first deletes the temp files a killed
        :func:`~repro.data.shards.write_atomic` left in ``run_dir`` and its
        ``artifacts/`` or ``results/`` subdirectory.
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
            for directory in (run_dir, run_dir / "artifacts", run_dir / "results"):
                remove_stale_temps(directory)
            manifest = cls.load(run_dir)
            tasks = manifest._document["tasks"]
            for task_id in task_ids:
                entry = tasks.get(task_id)
                if entry is None:
                    tasks[task_id] = cls._fresh_entry()
                elif entry["state"] in ("running", "failed") or (
                    entry["state"] == "done" and not manifest._artifact_intact(entry)
                ):
                    # Caught mid-flight by the crash, out of retries last
                    # time, or its artifact lost or edited since: all work
                    # the resumed run should attempt.
                    entry["state"] = "pending"
            manifest._document["resumed"] = int(manifest._document.get("resumed", 0)) + 1
            manifest.save()  # a loaded manifest's first save compacts the log
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
        """Read an existing manifest (read-only callers use this directly).

        The first document is decoded with
        :meth:`json.JSONDecoder.raw_decode`, so a manifest written with
        ``indent=2`` by an older run loads too, and the transition records
        after it are replayed in order.  A final line without its newline is
        a record torn by a kill, or one a poller caught mid-append, and is
        ignored; any other malformed line raises ``ValueError``.
        """
        run_dir = Path(run_dir)
        path = run_dir / cls.FILENAME
        text = path.read_text()
        document, end = json.JSONDecoder().raw_decode(text)
        if document.get("format") != "repro-run-manifest":
            raise ValueError(f"{path} is not a run manifest")
        if document.get("schema_version") != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema {document.get('schema_version')!r}"
            )
        # The rest of the document's line, one line per complete record,
        # and whatever follows the last newline.
        lines = text[end:].split("\n")
        if lines[0].strip():
            raise ValueError(f"{path}: unexpected data after the manifest document")
        tasks = document["tasks"]
        for number, line in enumerate(lines[1:-1], start=1):
            try:
                record = json.loads(line)
                task_id, entry = record["task"], record["entry"]
                valid = task_id in tasks and entry["state"] in _STATES
            except (ValueError, KeyError, TypeError):
                valid = False
            if not valid:
                raise ValueError(f"{path}: malformed transition record {number}")
            tasks[task_id] = entry
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
        """Persist the transitions made since the last save.

        The first save of a manifest object writes the whole document as the
        file's one line, atomically (:func:`write_atomic`): a fresh run's
        ledger, or a resumed run's folded one.  Each later save appends one
        line per task changed since, a JSON record of its full entry.
        :func:`json.dumps` escapes the newlines inside strings (a traceback's,
        say), so a record is one line, and without ``indent`` its C encoder
        runs.
        """
        path = self.run_dir / self.FILENAME
        if self._changed is None:
            write_atomic(path, json.dumps(self._document, sort_keys=True) + "\n")
        else:
            tasks = self._document["tasks"]
            records = "".join(
                json.dumps({"task": task_id, "entry": tasks[task_id]}, sort_keys=True)
                + "\n"
                for task_id in self._changed
            )
            with open(path, "ab") as handle:
                handle.write(records.encode("utf-8"))
        self._changed = []

    def _artifact_intact(self, entry: dict) -> bool:
        """Whether a ``done`` entry's artifact, if any, is the file it hashed."""
        if entry["artifact"] is None:
            return True
        path = self.run_dir / entry["artifact"]
        return path.is_file() and file_sha256(path) == entry["artifact_sha256"]

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
        """The live entry of ``task_id``, marked for the next :meth:`save`."""
        try:
            entry = self._document["tasks"][task_id]
        except KeyError:
            raise KeyError(f"unknown task {task_id!r}") from None
        if self._changed is not None:
            self._changed.append(task_id)
        return entry

    def mark_running(self, task_id: str) -> None:
        """``pending`` -> ``running``; one more attempt consumed."""
        entry = self._entry(task_id)
        entry["state"] = "running"
        entry["attempts"] = int(entry["attempts"]) + 1
        self.save()

    def mark_done(
        self, task_id: str, *, artifact: str | Path | None = None
    ) -> None:
        """Record success, hashing the artifact file when one was written.

        An artifact inside the run directory is recorded by its path
        relative to it, so the run directory can move; one outside it by its
        absolute path, so a resume from another working directory still
        finds it.
        """
        entry = self._entry(task_id)
        entry["state"] = "done"
        if artifact is not None:
            artifact = Path(os.path.abspath(artifact))
            run_dir = os.path.abspath(self.run_dir)
            entry["artifact"] = str(
                artifact.relative_to(run_dir) if artifact.is_relative_to(run_dir) else artifact
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
