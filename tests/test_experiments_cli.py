"""Tests for the experiments command-line interface and result rendering."""

import importlib
import json
import re
from pathlib import Path

import pytest

import repro.runtime.scheduler as scheduler
from repro.experiments.__main__ import main
from repro.experiments import run_experiment
from repro.experiments.registry import SPECS
from repro.runtime.manifest import RunManifest


class TestCLI:
    def test_runs_named_experiments_fast(self, capsys):
        exit_code = main(["figure1", "figure6", "--fast", "--no-cache"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "Figure 6" in output
        assert output.count("completed in") == 2

    def test_a_repeated_name_runs_once(self, capsys):
        # Each name is one task of the work queue, so a repeat is dropped.
        assert main(["figure1", "figure1", "--fast", "--no-cache"]) == 0
        assert capsys.readouterr().out.count("completed in") == 1

    def test_unknown_experiment_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure4"])
        assert excinfo.value.code != 0
        assert "figure4" in capsys.readouterr().err

    def test_fast_flag_reduces_workload(self):
        result = run_experiment("figure1", fast=True)
        assert result.class_counts["cat"] < 30  # the full-scale default

    def test_list_shows_every_experiment_with_tags(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for name, spec in SPECS.items():
            assert name in output
            for tag in spec.tags:
                assert tag in output
        assert "completed in" not in output  # nothing was executed

    def test_tag_selects_matching_experiments(self, capsys):
        assert main(["--tag", "ecg", "--fast", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert output.count("completed in") == 1
        assert "[figure7 completed" in output

    def test_unknown_tag_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--tag", "nonsense"])
        assert "nonsense" in capsys.readouterr().err

    def test_seed_override_threads_through_to_artifact_and_cache(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        results_dir = tmp_path / "results"
        base = ["figure1", "--fast", "--cache-dir", str(cache_dir),
                "--json", "--results-dir", str(results_dir)]
        assert main([*base, "--seed", "99"]) == 0
        payload = json.loads((results_dir / "figure1.json").read_text())
        assert payload["seed"] == 99
        assert payload["parameters"]["seed"] == 99
        # A different seed is a different cache key: the default-seed run
        # must not hit the seeded run's prepared entry.
        assert main(base) == 0
        payload = json.loads((results_dir / "figure1.json").read_text())
        assert payload["seed"] == 3  # figure1's spec-level default
        assert payload["cache_hit"] is False
        assert len(list(cache_dir.glob("figure1-*.pkl"))) == 2
        capsys.readouterr()

    def test_json_writes_parseable_artifacts(self, tmp_path, capsys):
        results_dir = tmp_path / "results"
        exit_code = main(
            ["figure1", "--fast", "--no-cache", "--json", "--results-dir", str(results_dir)]
        )
        assert exit_code == 0
        payload = json.loads((results_dir / "figure1.json").read_text())
        assert payload["experiment"] == "figure1"
        assert payload["metrics"]
        assert "wrote 1 artifact(s)" in capsys.readouterr().out

    def test_default_cache_dir_is_created_in_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["figure1", "--fast"]) == 0
        assert (tmp_path / ".repro_cache").is_dir()
        assert list((tmp_path / ".repro_cache").glob("figure1-*.pkl"))
        capsys.readouterr()

    def test_jobs_output_matches_sequential_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        names = ["figure1", "figure7"]
        assert main([*names, "--fast"]) == 0
        sequential = capsys.readouterr().out
        assert main([*names, "--fast", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def normalise(text):
            return re.sub(r"completed in [0-9.]+ s", "completed in X s", text)

        assert normalise(sequential) == normalise(parallel)


class TestCrashResumableFlags:
    """``--run-dir``, ``--resume`` and ``--retries`` through ``main``."""

    NAMES = ["figure1", "figure7"]

    def test_resume_replays_a_finished_run_without_executing(
        self, tmp_path, monkeypatch, capsys
    ):
        run_dir = tmp_path / "run"
        base = [*self.NAMES, "--fast", "--no-cache"]
        assert main([*base, "--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("a resumed run executed an experiment")

        monkeypatch.setattr(scheduler, "execute_spec", refuse)
        assert main([*base, "--resume", str(run_dir)]) == 0
        resumed = capsys.readouterr().out
        assert f"[run manifest: 2 done, 0 failed ({run_dir}/run_manifest.json)]" in resumed
        assert resumed == first  # the artifacts replay the same summaries
        manifest = RunManifest.load(run_dir)
        assert [manifest.attempts(name) for name in self.NAMES] == [1, 1]

    def test_resume_and_run_dir_together_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure1", "--fast", "--resume", str(tmp_path), "--run-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--resume" in capsys.readouterr().err

    def test_a_task_failing_every_attempt_makes_main_return_1(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken(name, **kwargs):
            raise RuntimeError(f"{name} is broken")

        monkeypatch.setattr(scheduler, "execute_spec", broken)
        run_dir = tmp_path / "run"
        argv = ["figure1", "--fast", "--no-cache", "--run-dir", str(run_dir), "--retries", "1"]
        assert main(argv) == 1
        assert "[run manifest: 0 done, 1 failed" in capsys.readouterr().out
        entry = RunManifest.load(run_dir).entry("figure1")
        assert (entry["state"], entry["attempts"]) == ("failed", 2)
        assert [(error["type"], error["message"]) for error in entry["errors"]] == [
            ("RuntimeError", "figure1 is broken")
        ] * 2

    @pytest.mark.parametrize("results_flags", [[], ["--results-dir", "elsewhere/out"]])
    def test_resume_finds_json_artifacts_outside_the_run_dir(
        self, results_flags, tmp_path, monkeypatch, capsys
    ):
        # The README's example: artifacts in ``results/`` under the working
        # directory, the manifest in ``runs/all``.
        monkeypatch.chdir(tmp_path)
        base = [*self.NAMES, "--fast", "--no-cache", "--json", *results_flags]
        assert main([*base, "--run-dir", "runs/all"]) == 0
        assert main([*base, "--resume", "runs/all"]) == 0
        manifest = RunManifest.load("runs/all")
        assert [manifest.attempts(name) for name in self.NAMES] == [1, 1]
        capsys.readouterr()

    def test_json_resume_reports_only_the_artifacts_it_wrote(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        base = [*self.NAMES, "--fast", "--no-cache", "--json"]
        assert main([*base, "--run-dir", "runs/all"]) == 0
        assert "[wrote 2 artifact(s) to results/]" in capsys.readouterr().out
        results = Path("results")
        written = {path.name: path.stat().st_mtime_ns for path in results.iterdir()}
        assert main([*base, "--resume", "runs/all"]) == 0
        assert "[wrote 0 artifact(s) to results/]" in capsys.readouterr().out
        assert {path.name: path.stat().st_mtime_ns for path in results.iterdir()} == written
        (results / "figure7.json").unlink()
        assert main([*base, "--resume", "runs/all"]) == 0
        assert "[wrote 1 artifact(s) to results/]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, results_dir",
        [
            ([], "runs/all/results"),
            (["--json"], "results"),
            (["--json", "--results-dir", "out"], "out"),
        ],
    )
    def test_run_dir_artifacts_go_where_the_help_says(
        self, flags, results_dir, tmp_path, monkeypatch, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        help_text = "".join(capsys.readouterr().out.split())  # unwrapped
        assert "artifactsinDIR/results/(with--json,in--results-dir)" in help_text
        monkeypatch.chdir(tmp_path)
        argv = ["figure1", "--fast", "--no-cache", "--run-dir", "runs/all", *flags]
        assert main(argv) == 0
        assert list(Path(".").rglob("figure1.json")) == [Path(results_dir, "figure1.json")]
        capsys.readouterr()


class TestRegistry:
    """Pin every spec's fast path to its experiment's stage parameters.

    ``run_experiment(..., fast=True)`` silently falls back to the full-scale
    workload when a spec has no fast overrides, so renaming an experiment
    (or one of its keyword arguments) must fail loudly here rather than
    quietly blowing up CI run times.
    """

    def test_every_experiment_has_a_fast_path(self):
        assert [name for name, spec in SPECS.items() if not spec.fast_overrides] == []

    def test_specs_bind_each_name_to_its_module_stages(self):
        for name, spec in SPECS.items():
            assert spec.name == name
            assert spec.module == f"repro.experiments.{name}"
            module = importlib.import_module(spec.module)
            for stage in ("prepare", "compute", "metrics"):
                assert spec.stage(stage) is getattr(module, stage)
            assert not hasattr(module, "run") and not hasattr(module, "render")

    def test_fast_overrides_match_stage_parameters(self):
        for name, spec in SPECS.items():
            unknown = set(spec.fast_overrides) - set(spec.parameters)
            assert not unknown, (
                f"SPECS[{name!r}].fast_overrides names arguments "
                f"{sorted(unknown)} that neither {spec.module}.prepare nor "
                "its compute accepts"
            )


class TestResultRendering:
    """Every experiment result renders a non-empty, self-describing text block."""

    @pytest.mark.parametrize(
        "name",
        ["figure1", "figure2", "figure6", "figure7", "figure9", "section5_padding"],
    )
    def test_to_text_is_self_describing(self, name):
        result = run_experiment(name, fast=True)
        text = result.to_text()
        assert isinstance(text, str)
        assert len(text.splitlines()) >= 3
        # The text names the artefact it reproduces.
        assert name.replace("figure", "Figure ").replace("section5_padding", "Section 5") \
            .replace("table1", "Table 1").strip() in text
