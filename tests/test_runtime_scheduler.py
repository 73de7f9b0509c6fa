"""Tests for the runtime: spec resolution, executor, cache wiring, artifacts."""

from __future__ import annotations

import inspect

import pytest

from repro.experiments.registry import SPECS, get_spec
from repro.runtime.artifacts import artifact_payload, load_artifact, write_artifact
from repro.runtime.cache import PrepareCache
from repro.runtime.scheduler import execute_spec, run_experiments

#: A cheap experiment used throughout (fast figure1 runs in ~10 ms).
CHEAP = "figure1"
CHEAP_OVERRIDES = {"n_per_class": 4}

#: The run parameters that both stages of an experiment declare.
SHARED_PARAMETERS = {
    "figure2": {"length", "seed"},
    "figure3": {"threshold"},
    "figure5": {"seed"},
    "figure7": {"duration_seconds"},
    "figure9": {"seed"},
    "appendix_b": {"n_events", "target_label"},
    "section5_padding": {"pad_fraction", "seed"},
}


class TestSpecTable:
    def test_every_spec_names_its_module_stages(self):
        for spec in SPECS.values():
            for stage in ("prepare", "compute", "metrics"):
                assert callable(spec.stage(stage)), (spec.name, stage)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_parameters_are_the_stage_keywords_with_one_default(self, name):
        # The run parameters are exactly the keywords of prepare and compute,
        # and a keyword both stages declare has one default, so the CLI and
        # direct stage callers run the same experiment.
        spec = SPECS[name]
        prepare = inspect.signature(spec.stage("prepare")).parameters
        compute = dict(inspect.signature(spec.stage("compute")).parameters)
        del compute["prepared"]
        params = spec.resolve_params()
        assert set(params) == set(prepare) | set(compute)
        shared = set(prepare) & set(compute)
        assert shared == SHARED_PARAMETERS.get(name, set())
        for keyword in shared:
            assert prepare[keyword].default == compute[keyword].default, keyword
            assert params[keyword] == prepare[keyword].default, keyword

    def test_no_stage_declares_the_registry_fast_keyword(self):
        # ``run_experiment(name, fast=...)`` consumes ``fast`` itself, so a
        # stage keyword of that name could never be set through it.
        for spec in SPECS.values():
            for stage in ("prepare", "compute"):
                parameters = inspect.signature(spec.stage(stage)).parameters
                assert "fast" not in parameters, (spec.name, stage)

    def test_every_spec_exposes_a_default_seed(self):
        for spec in SPECS.values():
            assert isinstance(spec.default_seed, int), spec.name

    def test_fast_overrides_resolve_against_stage_parameters(self):
        for spec in SPECS.values():
            params = spec.resolve_params(fast=True)
            assert set(spec.fast_overrides) <= set(params), spec.name

    def test_prepare_stage_params_include_the_seed(self):
        # The cache key is built from the prepare-stage parameters; the
        # spec-level seed must be part of it for every experiment.
        for spec in SPECS.values():
            params = spec.resolve_params(fast=True)
            assert spec.seed_param in spec.stage_params("prepare", params), spec.name

    def test_unknown_override_raises_a_named_typeerror(self):
        spec = get_spec(CHEAP)
        with pytest.raises(TypeError) as excinfo:
            spec.resolve_params(overrides={"bogus_knob": 1})
        message = str(excinfo.value)
        assert CHEAP in message and "bogus_knob" in message

    def test_declared_artifact_name(self):
        assert get_spec("figure9").artifact == "figure9.json"


class TestExecuteSpec:
    def test_structured_result_fields(self):
        result = execute_spec(CHEAP, fast=True, overrides=CHEAP_OVERRIDES)
        assert result.name == CHEAP
        assert result.parameters["n_per_class"] == 4  # override beat fast value
        assert result.seed == get_spec(CHEAP).default_seed
        assert result.metrics and result.summary.startswith("Figure 1")
        assert set(result.timings) == {"prepare", "compute", "render", "total"}
        assert result.timings["total"] >= result.timings["prepare"]
        assert result.raw is not None and result.raw.to_text() == result.summary

    def test_result_matches_legacy_run_experiment(self):
        from repro.experiments import run_experiment

        legacy = run_experiment(CHEAP, fast=True, **CHEAP_OVERRIDES)
        result = execute_spec(CHEAP, fast=True, overrides=CHEAP_OVERRIDES)
        assert result.summary == legacy.to_text()

    def test_keep_raw_false_strips_the_domain_result(self):
        result = execute_spec(CHEAP, fast=True, overrides=CHEAP_OVERRIDES, keep_raw=False)
        assert result.raw is None
        assert result.summary  # the rendered text survives

    def test_cache_miss_then_hit_same_bytes(self, tmp_path):
        cache = PrepareCache(tmp_path)
        cold = execute_spec(CHEAP, fast=True, overrides=CHEAP_OVERRIDES, cache=cache)
        warm = execute_spec(CHEAP, fast=True, overrides=CHEAP_OVERRIDES, cache=cache)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.summary == warm.summary
        assert dict(cold.metrics) == dict(warm.metrics)
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_different_params_do_not_share_cache_entries(self, tmp_path):
        cache = PrepareCache(tmp_path)
        execute_spec(CHEAP, fast=True, overrides={"n_per_class": 4}, cache=cache)
        other = execute_spec(CHEAP, fast=True, overrides={"n_per_class": 5}, cache=cache)
        assert not other.cache_hit
        assert len(cache.entries()) == 2

    def test_compute_only_params_reuse_the_prepared_payload(self, tmp_path):
        # figure9's min_length/step shape only the compute stage; changing
        # them must hit the cached prepared split, not resynthesise it.
        cache = PrepareCache(tmp_path)
        execute_spec("figure9", fast=True, cache=cache)
        warm = execute_spec("figure9", fast=True, overrides={"step": 10}, cache=cache)
        assert warm.cache_hit
        assert len(cache.entries()) == 1

    def test_object_valued_compute_param_still_caches_prepare(self, tmp_path):
        # table1's ``algorithms`` factories shape only the compute stage, so
        # they never reach the cache key: the prepared GunPoint split is
        # cached (and reused) even though the factories are uncacheable.
        from repro.classifiers.ects import ECTSClassifier

        cache = PrepareCache(tmp_path)
        overrides = {
            "n_train_per_class": 6,
            "n_test_per_class": 6,
            "algorithms": {"ECTS only": lambda: ECTSClassifier(min_support=0.0)},
        }
        cold = execute_spec("table1", fast=True, overrides=overrides, cache=cache)
        warm = execute_spec("table1", fast=True, overrides=overrides, cache=cache)
        assert not cold.cache_hit and warm.cache_hit
        assert len(cache.entries()) == 1

    def test_uncacheable_prepare_param_falls_back_to_uncached_run(self, tmp_path, monkeypatch):
        # A prepare-stage parameter with no canonical form (here an opaque
        # object) must bypass the cache rather than fail the run.
        import sys
        import types

        module = types.ModuleType("_fake_runtime_experiment")

        class Opaque:
            pass

        def prepare(knob=None, seed=0):
            return {"knob": knob, "seed": seed}

        class Result(dict):
            def to_text(self):
                return "fake summary"

        def compute(prepared):
            return Result(prepared)

        module.prepare = prepare
        module.compute = compute
        module.metrics = lambda result: {"seed": result["seed"]}
        monkeypatch.setitem(sys.modules, module.__name__, module)

        from repro.runtime.spec import ExperimentSpec

        spec = ExperimentSpec(name="fake", module=module.__name__)
        cache = PrepareCache(tmp_path)
        result = execute_spec(spec, overrides={"knob": Opaque()}, cache=cache)
        assert not result.cache_hit
        assert result.summary == "fake summary"
        assert cache.entries() == []
        assert cache.stats.skips == 1


class TestRunExperiments:
    def test_sequential_preserves_order_and_invokes_callback(self, tmp_path):
        seen = []
        results = run_experiments(
            ["figure7", CHEAP],
            fast=True,
            jobs=1,
            cache=PrepareCache(tmp_path),
            on_result=lambda result: seen.append(result.name),
        )
        assert [result.name for result in results] == ["figure7", CHEAP]
        assert seen == ["figure7", CHEAP]

    def test_parallel_matches_sequential_for_a_small_batch(self, tmp_path):
        names = [CHEAP, "figure7"]
        sequential = run_experiments(names, fast=True, jobs=1)
        parallel = run_experiments(
            names, fast=True, jobs=2, cache=PrepareCache(tmp_path / "cache")
        )
        assert [r.summary for r in parallel] == [r.summary for r in sequential]

    def test_parallel_results_are_handed_over_in_input_order(self):
        # figure2 takes about ten times as long as figure1 and figure7, so
        # with two workers both finish before it.
        names = ["figure2", CHEAP, "figure7"]
        seen = []
        results = run_experiments(
            names, fast=True, jobs=2, on_result=lambda result: seen.append(result.name)
        )
        assert seen == names == [result.name for result in results]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failure_in_input_order_is_raised_once_the_queue_drains(
        self, tmp_path, jobs
    ):
        seen = []
        with pytest.raises(KeyError, match="nope-first"):
            run_experiments(
                [CHEAP, "nope-first", "figure7", "nope-second"],
                fast=True,
                jobs=jobs,
                results_dir=tmp_path,
                on_result=lambda result: seen.append(result.name),
            )
        # Every experiment before the failure was handed over; the one after
        # it still ran (its artifact is written) but is not handed over.
        assert seen == [CHEAP]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"{CHEAP}.json",
            "figure7.json",
        ]

    def test_in_process_tasks_use_the_callers_cache_and_keep_raw(self, tmp_path):
        cache = PrepareCache(tmp_path)
        results = run_experiments([CHEAP, "figure7"], fast=True, jobs=1, cache=cache)
        assert (cache.stats.misses, cache.stats.stores) == (2, 2)
        assert all(result.raw is not None for result in results)
        # Workers get a copy of the cache that reads the same directory.
        parallel = run_experiments([CHEAP, "figure7"], fast=True, jobs=2, cache=cache)
        assert all(result.cache_hit and result.raw is None for result in parallel)

    def test_results_dir_receives_one_artifact_per_experiment(self, tmp_path):
        run_experiments(
            [CHEAP], fast=True, jobs=1, results_dir=tmp_path / "results"
        )
        payload = load_artifact(tmp_path / "results" / f"{CHEAP}.json")
        assert payload["experiment"] == CHEAP
        assert payload["metrics"]


class TestArtifacts:
    def test_payload_roundtrips_through_disk(self, tmp_path):
        result = execute_spec(CHEAP, fast=True, overrides=CHEAP_OVERRIDES)
        path = write_artifact(result, tmp_path)
        assert path.name == f"{CHEAP}.json"
        assert load_artifact(path) == artifact_payload(result)

    def test_payload_sanitises_non_json_parameters(self, tmp_path):
        # appendix_b's gap_range is a tuple; the artifact must still be JSON.
        result = execute_spec(
            "figure6", fast=True, overrides={"offset_range": (-0.5, 0.5)}
        )
        payload = artifact_payload(result)
        assert payload["parameters"]["offset_range"] == [-0.5, 0.5]
        write_artifact(result, tmp_path)  # must not raise

    def test_non_finite_metrics_become_null_in_strict_json(self, tmp_path):
        # Python's json would emit bare NaN/Infinity tokens, which strict
        # parsers reject; the writer must map them to null.
        import dataclasses
        import json
        import math

        result = execute_spec(CHEAP, fast=True, overrides=CHEAP_OVERRIDES)
        result = dataclasses.replace(
            result,
            metrics={"bad": float("nan"), "worse": float("inf"), "fine": 1.0},
        )
        path = write_artifact(result, tmp_path)
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        payload = json.loads(text)
        assert payload["metrics"] == {"bad": None, "worse": None, "fine": 1.0}
        assert math.isfinite(payload["timings"]["total"])
