"""Out-of-core sharded datasets: npy/memmap shards behind the UCR API.

The in-memory :class:`~repro.data.ucr_format.UCRDataset` holds every
exemplar as one dense float64 array -- fine for GunPoint, fatal for
archive-scale sweeps where hundreds of datasets must be resident at once.
This module is the on-disk counterpart:

* :func:`write_shards` converts any in-memory dataset, ``(series, labels)``
  pair, or *streaming generator of chunks* into a shard directory: fixed-row
  ``shard-NNNN.series.npy`` files plus one ``shard-NNNN.labels.npy`` label
  array per shard.
* ``manifest.json`` records the layout and a SHA-256 content hash of every
  file, so a resumable sweep can trust (and :meth:`ShardedDataset.verify`
  can re-check) what is on disk.
* :class:`ShardedDataset` presents the dataset's header facts --
  ``n_exemplars`` / ``series_length`` / ``labels`` / ``classes`` /
  ``class_counts`` -- from the manifest, and its bulk **lazily**: each
  shard's series is opened on demand as a read-only :func:`numpy.load`
  memmap (:meth:`~ShardedDataset.shard_series`), so a kernel pages in only
  what it touches.  Nothing materialises the whole dataset unless the
  caller explicitly asks (:meth:`~ShardedDataset.materialize`).
* :func:`synthesize_sharded_archive` mass-produces CBF-style synthetic
  datasets straight to shards -- the substrate of the 100+-dataset sweep
  benchmark -- holding at most one dataset in memory at a time.

Labels are deliberately *eager*: one small 1-D array per shard, concatenated
on first access.  They are metadata-scale (bytes per exemplar), and every
scheduler decision (class counts, stratified splits) needs them, so mapping
them lazily would buy nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.data.ucr_format import UCRDataset

__all__ = [
    "SHARD_SCHEMA_VERSION",
    "ShardIntegrityError",
    "ShardedDataset",
    "file_sha256",
    "synthesize_sharded_archive",
    "write_shards",
]

#: Bump when the on-disk layout changes incompatibly; :meth:`ShardedDataset.open`
#: reads this version only.
SHARD_SCHEMA_VERSION = 3

#: Default number of exemplars per shard when the caller does not choose.
DEFAULT_SHARD_EXEMPLARS = 256

_MANIFEST = "manifest.json"


class ShardIntegrityError(RuntimeError):
    """A shard file is missing or its bytes no longer match the manifest."""


def file_sha256(path: str | Path) -> str:
    """SHA-256 hex digest of a file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _as_chunks(source) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Normalise every accepted source into an iterator of (series, labels)."""
    if isinstance(source, UCRDataset):
        yield source.series, source.labels
        return
    if isinstance(source, tuple) and len(source) == 2:
        yield np.asarray(source[0]), np.asarray(source[1])
        return
    for chunk in source:
        if not (isinstance(chunk, tuple) and len(chunk) == 2):
            raise TypeError(
                "a streaming source must yield (series, labels) tuples, got "
                f"{type(chunk).__name__}"
            )
        yield np.asarray(chunk[0]), np.asarray(chunk[1])


def write_shards(
    source,
    root: str | Path,
    *,
    shard_exemplars: int = DEFAULT_SHARD_EXEMPLARS,
    name: str | None = None,
    znormalized: bool | None = None,
    metadata: dict | None = None,
    overwrite: bool = False,
) -> "ShardedDataset":
    """Convert a dataset (or a streaming generator) into an on-disk shard dir.

    Parameters
    ----------
    source:
        A :class:`UCRDataset`, a ``(series, labels)`` pair, or any iterable
        yielding ``(series, labels)`` chunks of consistent series length.
        Chunks are re-blocked into fixed-size shards, so a generator can
        stream a dataset far larger than RAM: at most one input chunk plus
        one output shard is ever held in memory.
    root:
        Directory to create (``manifest.json`` + shard files).
    shard_exemplars:
        Rows per shard (the last shard may be smaller).
    name / znormalized / metadata:
        Dataset header fields; default from the source when it is a
        :class:`UCRDataset`, else ``"dataset"`` / ``False`` / ``{}``.
    overwrite:
        Allow writing into a directory that already holds a manifest.

    Returns
    -------
    ShardedDataset
        The freshly written dataset, opened for reading.
    """
    if shard_exemplars < 1:
        raise ValueError("shard_exemplars must be >= 1")
    root = Path(root)
    if (root / _MANIFEST).exists() and not overwrite:
        raise FileExistsError(
            f"{root} already contains a shard manifest (pass overwrite=True)"
        )
    if isinstance(source, UCRDataset):
        name = name if name is not None else source.name
        znormalized = source.znormalized if znormalized is None else znormalized
        metadata = dict(source.metadata) if metadata is None else dict(metadata)
    else:
        name = name if name is not None else "dataset"
        znormalized = bool(znormalized)
        metadata = dict(metadata or {})
    root.mkdir(parents=True, exist_ok=True)

    shards: list[dict] = []
    length: int | None = None
    channels: int | None = None
    labels_dtype: np.dtype | None = None
    pending_series: list[np.ndarray] = []
    pending_labels: list[np.ndarray] = []
    pending_rows = 0
    total_rows = 0

    def _flush(final: bool) -> None:
        nonlocal pending_rows, pending_series, pending_labels, total_rows
        while pending_rows >= shard_exemplars or (final and pending_rows > 0):
            series = np.concatenate(pending_series, axis=0)
            labels = np.concatenate(pending_labels, axis=0)
            take = min(shard_exemplars, series.shape[0])
            shard_series, rest_series = series[:take], series[take:]
            shard_labels, rest_labels = labels[:take], labels[take:]
            pending_series = [rest_series] if rest_series.shape[0] else []
            pending_labels = [rest_labels] if rest_labels.shape[0] else []
            pending_rows = rest_series.shape[0]

            index = len(shards)
            stem = f"shard-{index:04d}"
            series_file = f"{stem}.series.npy"
            labels_file = f"{stem}.labels.npy"
            np.save(root / series_file, np.ascontiguousarray(shard_series))
            np.save(root / labels_file, shard_labels)
            shards.append(
                {
                    "index": index,
                    "n_exemplars": int(take),
                    "series": series_file,
                    "series_sha256": file_sha256(root / series_file),
                    "labels": labels_file,
                    "labels_sha256": file_sha256(root / labels_file),
                }
            )
            total_rows += take

    for chunk_series, chunk_labels in _as_chunks(source):
        chunk_series = np.asarray(chunk_series, dtype=np.float64)
        if chunk_series.ndim == 3 and chunk_series.shape[2] == 1:
            # Match UCRDataset: (n, L, 1) is univariate, store it as 2-D so
            # the resulting shards are bit-identical to historical ones.
            chunk_series = chunk_series[:, :, 0]
        if chunk_series.ndim not in (2, 3) or chunk_series.shape[1] < 1:
            raise ValueError(
                "every chunk must be 2-D (n, length) or 3-D "
                f"(n, length, n_channels); got shape {chunk_series.shape}"
            )
        chunk_channels = (
            int(chunk_series.shape[2]) if chunk_series.ndim == 3 else 1
        )
        if chunk_channels < 1:
            raise ValueError(
                f"chunk has an empty channel axis (axis 2); got shape "
                f"{chunk_series.shape}"
            )
        if chunk_labels.ndim != 1 or chunk_labels.shape[0] != chunk_series.shape[0]:
            raise ValueError("labels must be 1-D with one entry per exemplar")
        if length is None:
            length = int(chunk_series.shape[1])
            channels = chunk_channels
            labels_dtype = chunk_labels.dtype
        elif chunk_series.shape[1] != length:
            raise ValueError(
                f"chunk series length {chunk_series.shape[1]} != {length}"
            )
        elif chunk_channels != channels:
            raise ValueError(
                f"chunk channel count {chunk_channels} != {channels}"
            )
        if not np.all(np.isfinite(chunk_series)):
            raise ValueError("series contains non-finite values")
        pending_series.append(chunk_series)
        pending_labels.append(chunk_labels.astype(labels_dtype, copy=False))
        pending_rows += chunk_series.shape[0]
        _flush(final=False)
    _flush(final=True)
    if not shards or length is None:
        raise ValueError("source produced no exemplars")

    manifest = {
        "schema_version": SHARD_SCHEMA_VERSION,
        "format": "repro-shards",
        "name": name,
        "n_exemplars": total_rows,
        "series_length": length,
        "n_channels": channels,
        "dtype": "float64",
        "labels_dtype": str(labels_dtype),
        "znormalized": bool(znormalized),
        "metadata": metadata,
        "shards": shards,
    }
    tmp = root / f".{_MANIFEST}.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(root / _MANIFEST)
    return ShardedDataset.open(root)


class ShardedDataset:
    """Read-side handle on a :func:`write_shards` directory.

    Everything scalar (name, shapes, classes) comes from the manifest;
    everything bulky is memory-mapped per shard on demand and dropped when
    the caller releases it, so peak RSS tracks the working set of one shard
    -- not the dataset, and certainly not the archive.
    """

    def __init__(self, root: str | Path, manifest: dict) -> None:
        self.root = Path(root)
        self._manifest = manifest
        self._shards: list[dict] = list(manifest["shards"])
        self._labels: np.ndarray | None = None

    # ------------------------------------------------------------ construction
    @classmethod
    def open(cls, root: str | Path) -> "ShardedDataset":
        """Open a shard directory (reads only the manifest)."""
        root = Path(root)
        path = root / _MANIFEST
        try:
            manifest = json.loads(path.read_text())
        except FileNotFoundError as error:
            raise FileNotFoundError(f"{root} does not contain {_MANIFEST}") from error
        if manifest.get("format") != "repro-shards":
            raise ValueError(f"{path} is not a repro shard manifest")
        if manifest.get("schema_version") != SHARD_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported shard schema {manifest.get('schema_version')!r} "
                f"(this build reads {SHARD_SCHEMA_VERSION})"
            )
        return cls(root, manifest)

    # ------------------------------------------------------------ header facts
    @property
    def name(self) -> str:
        return self._manifest["name"]

    @property
    def n_exemplars(self) -> int:
        return int(self._manifest["n_exemplars"])

    @property
    def series_length(self) -> int:
        return int(self._manifest["series_length"])

    @property
    def n_channels(self) -> int:
        """Channels per sample (1 for univariate data)."""
        return int(self._manifest["n_channels"])

    @property
    def znormalized(self) -> bool:
        return bool(self._manifest["znormalized"])

    @property
    def metadata(self) -> dict:
        return dict(self._manifest["metadata"])

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def __len__(self) -> int:
        return self.n_exemplars

    @property
    def labels(self) -> np.ndarray:
        """All labels, concatenated across shards (cached; metadata-scale)."""
        if self._labels is None:
            self._labels = np.concatenate(
                [self.shard_labels(i) for i in range(self.n_shards)]
            )
        return self._labels

    @property
    def classes(self) -> tuple:
        return tuple(np.unique(self.labels).tolist())

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_counts(self) -> dict:
        values, counts = np.unique(self.labels, return_counts=True)
        return {v.item() if hasattr(v, "item") else v: int(c) for v, c in zip(values, counts)}

    # ------------------------------------------------------------ shard access
    def _entry(self, index: int) -> dict:
        if not 0 <= index < self.n_shards:
            raise IndexError(f"shard index must be in [0, {self.n_shards})")
        return self._shards[index]

    def shard_series(self, index: int) -> np.ndarray:
        """The shard's ``(n, L)`` (or ``(n, L, d)``) series as a read-only memmap."""
        return np.load(self.root / self._entry(index)["series"], mmap_mode="r")

    def shard_labels(self, index: int) -> np.ndarray:
        return np.load(self.root / self._entry(index)["labels"], allow_pickle=False)

    def shard_rows(self, index: int) -> int:
        """The shard's row count, from the manifest (reads no shard file)."""
        return int(self._entry(index)["n_exemplars"])

    # ------------------------------------------------------------ conversions
    def materialize(self, validate: bool = False) -> UCRDataset:
        """Load *everything* into one dense in-memory :class:`UCRDataset`.

        The explicit opt-out of out-of-core operation -- the dense path the
        sweep benchmark uses to demonstrate the RSS cliff.
        """
        series = np.concatenate(
            [np.asarray(self.shard_series(i)) for i in range(self.n_shards)], axis=0
        )
        return UCRDataset(
            name=self.name,
            series=series,
            labels=self.labels.copy(),
            znormalized=self.znormalized,
            metadata=self.metadata,
            validate=validate,
        )

    # ------------------------------------------------------------ integrity
    def verify(self) -> None:
        """Re-hash every shard file against the manifest.

        Raises
        ------
        ShardIntegrityError
            Naming the first missing or modified file.
        """
        for entry in self._shards:
            for kind in ("series", "labels"):
                path = self.root / entry[kind]
                if not path.is_file():
                    raise ShardIntegrityError(f"missing shard file: {path}")
                digest = file_sha256(path)
                if digest != entry[f"{kind}_sha256"]:
                    raise ShardIntegrityError(
                        f"content hash mismatch for {path}: manifest "
                        f"{entry[f'{kind}_sha256'][:12]}..., file {digest[:12]}..."
                    )

    def __repr__(self) -> str:
        return (
            f"ShardedDataset(name={self.name!r}, n_exemplars={self.n_exemplars}, "
            f"series_length={self.series_length}, n_shards={self.n_shards})"
        )


def synthesize_sharded_archive(
    root: str | Path,
    n_datasets: int,
    *,
    n_exemplars_per_class: int = 40,
    length: int = 256,
    shard_exemplars: int | None = None,
    seed: int = 0,
    znormalize: bool = True,
) -> list[Path]:
    """Write ``n_datasets`` CBF-style synthetic datasets straight to shards.

    The substrate of the fleet-scale sweep benchmark: each dataset is
    generated (seeded deterministically from ``seed`` + its index),
    sharded to disk, and released before the next one is touched, so
    building an archive much larger than RAM holds one dataset's worth of
    memory at a time.  Returns the dataset directories, sorted.
    """
    from repro.data.ucr_like import CBFGenerator

    if n_datasets < 1:
        raise ValueError("n_datasets must be >= 1")
    root = Path(root)
    if shard_exemplars is None:
        # A handful of shards per dataset regardless of scale.
        shard_exemplars = max(1, math.ceil(3 * n_exemplars_per_class / 4))
    directories: list[Path] = []
    for index in range(n_datasets):
        generator = CBFGenerator(length=length, seed=seed + index)
        dataset = generator.generate(n_exemplars_per_class, seed=seed + index)
        if znormalize:
            dataset = dataset.z_normalized()
        # Generators emit exemplars class-blocked; shuffle so any row range
        # (in particular shard 0, a sweep's training split) is class-mixed.
        order = np.random.default_rng(seed + index).permutation(len(dataset))
        dataset = UCRDataset(
            name=dataset.name,
            series=dataset.series[order],
            labels=dataset.labels[order],
            znormalized=dataset.znormalized,
            metadata=dataset.metadata,
            validate=False,
        )
        directory = root / f"dataset-{index:04d}"
        write_shards(
            dataset,
            directory,
            shard_exemplars=shard_exemplars,
            name=f"synthetic-{index:04d}",
            metadata={**dataset.metadata, "archive_index": index},
        )
        directories.append(directory)
    return sorted(directories)
