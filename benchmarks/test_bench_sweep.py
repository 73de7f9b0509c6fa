"""Out-of-core sweep gates: bounded peak RSS and crash-resumable restarts.

Two hard properties of the sharded dataset engine + work-queue scheduler,
pinned on a synthetic 100+-dataset archive:

1. **Bounded memory.**  A full sequential sweep (one task per dataset, each
   opening its shards as memmaps and dropping them on exit) must finish
   under a hard peak-RSS cap of *baseline + half the archive's bytes* --
   a cap the dense loader (materialise every dataset up front) provably
   violates, because it holds the whole archive resident.  Both loaders run
   as subprocesses so ``ru_maxrss`` measures exactly one sweep.

2. **Crash resume.**  A sweep SIGKILLed mid-flight (after ~85% of tasks)
   must restart cleanly from its run manifest: only unfinished work is
   re-executed, completed artifacts stay byte-identical (and untouched on
   disk), and the warm resume is >= 5x faster than a cold start.  A warm
   resume lasts only ~0.4 s, so cold starts and warm resumes are timed as
   interleaved pairs, each resume on its own copy of the killed run, and
   the gate compares the medians.

There is deliberately no reduced "fast" form: the RSS cap only separates
the loaders when the archive dwarfs allocator noise, and at this scale the
whole module runs in ~20s.  ``make sweep-check`` runs it as-is.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.data.shards import synthesize_sharded_archive
from repro.runtime.manifest import RunManifest, file_sha256
from repro.runtime.sweep import run_sweep

REPO_ROOT = Path(__file__).resolve().parents[1]

N_DATASETS = 104  # the gate is a 100+-dataset sweep
PER_CLASS = 16  # 48 exemplars/dataset -> 12-row train shard + 36 eval rows
LENGTH = 1024
SEED = 17

#: Peak-RSS cap: baseline process + this fraction of the archive's bytes.
RSS_HEADROOM_FRACTION = 0.5
#: Kill the sweep once this fraction of tasks is done.
KILL_FRACTION = 0.85
REQUIRED_RESUME_SPEEDUP = 5.0
#: Interleaved cold-start/warm-resume pairs behind the resume gate's medians.
RESUME_PAIRS = 3


def _cli_env() -> dict:
    env = os.environ.copy()
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _artifact_snapshot(run_dir: Path, names=None) -> dict:
    """``{file name: (sha256, mtime_ns)}`` of a run's written artifacts."""
    return {
        path.name: (file_sha256(path), path.stat().st_mtime_ns)
        for path in (run_dir / "artifacts").iterdir()
        if not path.name.startswith(".") and (names is None or path.name in names)
    }


def _run_cli(*argv: str) -> dict:
    """Run ``python -m repro.runtime.sweep ...`` and parse its JSON summary."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.runtime.sweep", *argv],
        capture_output=True,
        text=True,
        env=_cli_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep-archive")
    directories = synthesize_sharded_archive(
        root, N_DATASETS, n_exemplars_per_class=PER_CLASS, length=LENGTH, seed=SEED
    )
    archive_bytes = sum(
        path.stat().st_size
        for directory in directories
        for path in directory.glob("*.series.npy")
    )
    return directories, archive_bytes


def _baseline_rss_bytes(dataset_dir: Path) -> int:
    """Peak RSS of a subprocess that does exactly one dataset's work."""
    code = (
        "import json, sys\n"
        "from repro.runtime.sweep import sweep_one_dataset, _peak_rss_bytes\n"
        "sweep_one_dataset(sys.argv[1])\n"
        "print(json.dumps({'peak_rss_bytes': _peak_rss_bytes()}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(dataset_dir)],
        capture_output=True,
        text=True,
        env=_cli_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_bytes"]


def test_sweep_stays_under_rss_cap_the_dense_loader_violates(
    archive, tmp_path_factory
):
    directories, archive_bytes = archive
    baseline = _baseline_rss_bytes(directories[0])
    if baseline == 0:
        pytest.skip("resource.getrusage unavailable on this platform")
    cap = baseline + int(RSS_HEADROOM_FRACTION * archive_bytes)
    archive_root = str(directories[0].parent)

    sharded = _run_cli(
        "run",
        archive_root,
        "--run-dir",
        str(tmp_path_factory.mktemp("rss-sharded")),
        "--retries",
        "0",
    )
    dense = _run_cli(
        "run",
        archive_root,
        "--run-dir",
        str(tmp_path_factory.mktemp("rss-dense")),
        "--retries",
        "0",
        "--dense",
    )

    assert sharded["done"] == N_DATASETS and sharded["failed"] == 0
    assert dense["done"] == N_DATASETS and dense["failed"] == 0
    # Same split, same data, same kernel: the headline accuracy must agree.
    assert sharded["mean_accuracy"] == dense["mean_accuracy"]

    headroom_mb = (cap - sharded["peak_rss_bytes"]) / 2**20
    overshoot_mb = (dense["peak_rss_bytes"] - cap) / 2**20
    assert sharded["peak_rss_bytes"] <= cap, (
        f"out-of-core sweep exceeded the RSS cap: peak "
        f"{sharded['peak_rss_bytes'] / 2**20:.1f} MiB > cap {cap / 2**20:.1f} MiB"
    )
    assert dense["peak_rss_bytes"] > cap, (
        f"dense loader unexpectedly fit under the cap (margin "
        f"{-overshoot_mb:.1f} MiB); the cap no longer separates the loaders"
    )
    print(
        f"\n[rss] baseline {baseline / 2**20:.1f} MiB, archive "
        f"{archive_bytes / 2**20:.1f} MiB, cap {cap / 2**20:.1f} MiB | "
        f"sharded {sharded['peak_rss_bytes'] / 2**20:.1f} MiB "
        f"(headroom {headroom_mb:.1f} MiB), dense "
        f"{dense['peak_rss_bytes'] / 2**20:.1f} MiB (+{overshoot_mb:.1f} MiB over)"
    )


def test_killed_sweep_resumes_without_redoing_finished_work(
    archive, tmp_path_factory, interleaved_medians, bench_metrics
):
    directories, _ = archive
    archive_root = str(directories[0].parent)
    killed_dir = Path(tmp_path_factory.mktemp("kill-run"))
    threshold = int(N_DATASETS * KILL_FRACTION)

    # 1. Start a sweep in its own session and SIGKILL the whole process
    #    group once the manifest shows >= 85% of tasks done.
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.runtime.sweep",
            "run",
            archive_root,
            "--run-dir",
            str(killed_dir),
            "--retries",
            "0",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_cli_env(),
        cwd=REPO_ROOT,
        start_new_session=True,
    )
    manifest_path = killed_dir / RunManifest.FILENAME
    try:
        while True:
            if proc.poll() is not None:
                pytest.fail(
                    "sweep finished before it could be killed; "
                    "raise the workload or lower KILL_FRACTION"
                )
            if manifest_path.is_file():
                try:
                    done = RunManifest.load(killed_dir).counts()["done"]
                except (ValueError, json.JSONDecodeError):
                    done = 0  # caught the file mid-create
                if done >= threshold:
                    os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                    break
            time.sleep(0.005)
    finally:
        if proc.poll() is None:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        proc.wait()

    manifest = RunManifest.load(killed_dir)
    counts = manifest.counts()
    done_at_kill = counts["done"]
    assert threshold <= done_at_kill < N_DATASETS, counts
    # 2. Before any timing, copy the killed run once per pair, so every warm
    #    resume starts from the same killed state in a directory of its own.
    copies_root = Path(tmp_path_factory.mktemp("warm-runs"))
    warm_dirs = []
    for pair in range(RESUME_PAIRS):
        warm_dirs.append(copies_root / f"pair-{pair}")
        shutil.copytree(killed_dir, warm_dirs[-1])
    finished_before = [_artifact_snapshot(warm_dir) for warm_dir in warm_dirs]
    cold_dirs = [tmp_path_factory.mktemp("cold-run") for _ in range(RESUME_PAIRS)]

    # 3. Alternate a cold start of the same sweep (in-process, in a fresh
    #    directory) with a warm resume of one copy (only unfinished tasks
    #    execute), and compare the medians.
    cold_runs, warm_runs = iter(cold_dirs), iter(warm_dirs)
    cold_summaries, warm_summaries = [], []

    def cold():
        cold_summaries.append(run_sweep(directories, next(cold_runs), retries=0))

    def warm():
        warm_summaries.append(
            run_sweep(directories, next(warm_runs), resume=True, retries=0)
        )

    cold_elapsed, warm_elapsed, _, _ = interleaved_medians(
        cold, warm, pairs=RESUME_PAIRS
    )
    for cold_summary in cold_summaries:
        assert cold_summary["done"] == N_DATASETS and cold_summary["failed"] == 0
    for warm_summary in warm_summaries:
        assert warm_summary["done"] == N_DATASETS and warm_summary["failed"] == 0
        assert warm_summary["executed"] == N_DATASETS - done_at_kill
        assert warm_summary["skipped"] == done_at_kill

    # Completed artifacts were not rewritten, not even touched.
    for warm_dir, before in zip(warm_dirs, finished_before):
        assert _artifact_snapshot(warm_dir, before) == before

    speedup = cold_elapsed / warm_elapsed
    bench_metrics.update(
        cold_median_s=cold_elapsed,
        warm_median_s=warm_elapsed,
        resume_speedup=speedup,
        pairs=RESUME_PAIRS,
    )
    print(
        f"\n[resume] killed at {done_at_kill}/{N_DATASETS} done; median of "
        f"{RESUME_PAIRS} pairs: cold {cold_elapsed:.2f}s, warm "
        f"{warm_elapsed:.2f}s -> {speedup:.1f}x"
    )
    assert speedup >= REQUIRED_RESUME_SPEEDUP, (
        f"warm resume only {speedup:.1f}x faster than cold "
        f"(median of {RESUME_PAIRS} pairs, required "
        f"{REQUIRED_RESUME_SPEEDUP:.0f}x)"
    )
