"""Unit tests for the prepare-stage cache: keys, hits, misses, invalidation."""

from __future__ import annotations

import pytest

import repro.classifiers as classifiers
import repro.runtime.cache as cache_module
from repro.classifiers.base import BaseEarlyClassifier
from repro.runtime.cache import PrepareCache, UncacheableParams

#: The schema version :data:`PINNED_LAYOUT` was pinned at.
PINNED_SCHEMA_VERSION = 4

#: The pickled layout of every exported early classifier fitted on a toy
#: set: for each ``repro`` class reachable from a fitted model, the sorted
#: names of its attributes.  Prepare-cache entries and serving-registry
#: models are pickled fitted classifiers, so a layout change that old pickles
#: cannot satisfy (an added or renamed attribute) must bump
#: ``CACHE_SCHEMA_VERSION``; change both pins together with it.  Dropping an
#: attribute that no code reads any more leaves old pickles loadable (they
#: carry one unread attribute), and deleting a class leaves its old pickles
#: reading as cache misses (``PrepareCache.load`` treats the failed import as
#: one), so in both cases only :data:`PINNED_LAYOUT` changes.
PINNED_LAYOUT = {
    "repro.classifiers.ects.ECTSClassifier": (
        "_classes", "_eligible", "_engine", "_labels", "_train", "_train_channels",
        "_train_length", "checkpoint_step", "min_length", "min_support", "mpl_",
        "support_",
    ),
    "repro.classifiers.ects.RelaxedECTSClassifier": (
        "_classes", "_eligible", "_engine", "_labels", "_train", "_train_channels",
        "_train_length", "checkpoint_step", "min_length", "min_support", "mpl_",
        "support_",
    ),
    "repro.classifiers.edsc.EDSCClassifier": (
        "_classes", "_fallback_label", "_train_channels", "_train_length",
        "chebyshev_k", "max_candidates_per_class", "min_length", "position_step",
        "random_state", "shapelet_length_fractions", "shapelets_", "target_precision",
        "threshold_method",
    ),
    "repro.classifiers.edsc.Shapelet": (
        "label", "precision", "source_index", "source_position", "threshold", "utility",
        "values",
    ),
    "repro.classifiers.prefix_probability.PrefixProbabilisticClassifier": (
        "_classes", "_labels", "_requested_checkpoints", "_temperatures", "_train",
        "min_length",
    ),
    "repro.classifiers.reliable.LDGReliableEarlyClassifier": (
        "_classes", "_labels", "_models", "_train", "_train_channels", "_train_length",
        "checkpoint_fractions", "n_local", "n_monte_carlo", "posterior_tempering",
        "random_state", "shrinkage", "tau",
    ),
    "repro.classifiers.reliable.ReliableEarlyClassifier": (
        "_classes", "_labels", "_models", "_train", "_train_channels", "_train_length",
        "checkpoint_fractions", "n_monte_carlo", "posterior_tempering", "random_state",
        "shrinkage", "tau",
    ),
    "repro.classifiers.reliable._GaussianClassModel": (
        "_cores", "_samplers", "diagonal", "factor", "label", "mean", "prior",
    ),
    "repro.classifiers.teaser.TEASERClassifier": (
        "_checkpoints", "_classes", "_masters", "_model", "_train_channels",
        "_train_length", "candidate_v", "consecutive_required_", "master_quantile",
        "min_checkpoint_accuracy", "n_checkpoints", "requested_consecutive",
    ),
    "repro.classifiers.teaser._OneClassGaussian": (
        "inv_covariance", "mean", "threshold",
    ),
    "repro.classifiers.threshold.ProbabilityThresholdClassifier": (
        "_classes", "_model", "_train_channels", "_train_length", "checkpoint_step",
        "min_length", "threshold",
    ),
    "repro.distance.engine.PrefixDistanceEngine": (
        "_channels", "_sweep", "_time_length", "_train", "_train_t",
    ),
}


def _repro_layout(roots) -> dict[str, tuple[str, ...]]:
    """Sorted attribute names of every ``repro`` object reachable from ``roots``."""
    layout: dict[str, set[str]] = {}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            state = dict(getattr(obj, "__dict__", {}))
            for klass in type(obj).__mro__:
                for name in getattr(klass, "__slots__", ()):
                    if hasattr(obj, name):
                        state[name] = getattr(obj, name)
            name = f"{type(obj).__module__}.{type(obj).__qualname__}"
            layout.setdefault(name, set()).update(state)
            stack.extend(state.values())
    return {name: tuple(sorted(names)) for name, names in sorted(layout.items())}


@pytest.fixture
def cache(tmp_path):
    return PrepareCache(tmp_path / "cache")


class TestKeys:
    def test_key_is_deterministic(self, cache):
        params = {"n_per_class": 10, "seed": 3}
        assert cache.key("figure1", params) == cache.key("figure1", dict(params))

    def test_key_ignores_param_order(self, cache):
        assert cache.key("figure1", {"a": 1, "b": 2}) == cache.key(
            "figure1", {"b": 2, "a": 1}
        )

    def test_key_changes_with_params(self, cache):
        base = cache.key("figure1", {"seed": 3})
        assert cache.key("figure1", {"seed": 4}) != base

    def test_key_changes_with_experiment(self, cache):
        assert cache.key("figure1", {"seed": 3}) != cache.key("figure2", {"seed": 3})

    def test_tuples_and_lists_canonicalise_identically(self, cache):
        # A fast override may say (800, 2000) where a CLI round-trip says
        # [800, 2000]; both describe the same prepared data.
        assert cache.key("appendix_b", {"gap_range": (800, 2000)}) == cache.key(
            "appendix_b", {"gap_range": [800, 2000]}
        )

    def test_numpy_scalars_canonicalise_like_python_numbers(self, cache):
        numpy = pytest.importorskip("numpy")
        assert cache.key("figure1", {"seed": numpy.int64(3)}) == cache.key(
            "figure1", {"seed": 3}
        )

    def test_object_valued_params_are_uncacheable(self, cache):
        class Opaque:
            pass

        with pytest.raises(UncacheableParams):
            cache.key("table1", {"algorithms": Opaque()})

    def test_multi_element_numpy_arrays_are_uncacheable_not_fatal(self, cache):
        # ndarray.item() raises ValueError on >1 element; that must surface
        # as UncacheableParams (cache bypass), never as a bare crash.
        numpy = pytest.importorskip("numpy")
        with pytest.raises(UncacheableParams):
            cache.key("figure6", {"offset_range": numpy.array([-1.0, 1.0])})

    def test_schema_version_invalidates_keys(self, cache, monkeypatch):
        before = cache.key("figure1", {"seed": 3})
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 999)
        assert cache.key("figure1", {"seed": 3}) != before


class TestStore:
    def test_miss_then_hit(self, cache):
        key = cache.key("figure1", {"seed": 3})
        assert cache.is_miss(cache.load("figure1", key))
        assert cache.store("figure1", key, {"payload": [1, 2, 3]})
        value = cache.load("figure1", key)
        assert not cache.is_miss(value)
        assert value == {"payload": [1, 2, 3]}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_none_is_a_legitimate_cached_value(self, cache):
        key = cache.key("figure1", {"seed": 3})
        cache.store("figure1", key, None)
        value = cache.load("figure1", key)
        assert value is None
        assert not cache.is_miss(value)

    def test_numpy_arrays_roundtrip_exactly(self, cache):
        numpy = pytest.importorskip("numpy")
        rng = numpy.random.default_rng(0)
        payload = rng.normal(size=(7, 11))
        key = cache.key("figure5", {"seed": 5})
        cache.store("figure5", key, payload)
        numpy.testing.assert_array_equal(cache.load("figure5", key), payload)

    def test_unpicklable_value_is_skipped_not_fatal(self, cache):
        key = cache.key("figure1", {"seed": 3})
        assert not cache.store("figure1", key, lambda: None)
        assert cache.is_miss(cache.load("figure1", key))
        assert cache.stats.skips == 1
        # No half-written entry may remain behind.
        assert cache.entries() == []

    def test_unpicklable_value_writes_no_file_at_all(self, cache):
        # The value is pickled in memory before anything touches the disk,
        # so not even a temp file is left behind.
        cache.store("figure1", cache.key("figure1", {"seed": 3}), [1])
        assert not cache.store("figure1", cache.key("figure1", {"seed": 4}), lambda: None)
        assert [path.name for path in cache.root.iterdir()] == [cache.entries()[0].name]

    def test_corrupt_entry_reads_as_miss(self, cache):
        key = cache.key("figure1", {"seed": 3})
        cache.store("figure1", key, [1, 2, 3])
        cache.path_for("figure1", key).write_bytes(b"not a pickle")
        assert cache.is_miss(cache.load("figure1", key))

    def test_stale_entry_for_a_vanished_class_reads_as_miss(self, cache, monkeypatch):
        # Simulate an entry pickled against a class whose module has since
        # been renamed away: unpickling raises ModuleNotFoundError, which
        # must count as a miss, not crash every subsequent run.
        import sys
        import types

        module = types.ModuleType("_vanishing_module")

        class Payload:
            pass

        Payload.__module__ = module.__name__
        Payload.__qualname__ = "Payload"
        module.Payload = Payload
        monkeypatch.setitem(sys.modules, module.__name__, module)
        key = cache.key("figure1", {"seed": 3})
        cache.store("figure1", key, Payload())
        del sys.modules[module.__name__]
        assert cache.is_miss(cache.load("figure1", key))

    def test_clear_removes_every_entry(self, cache):
        for seed in range(3):
            key = cache.key("figure1", {"seed": seed})
            cache.store("figure1", key, seed)
        assert len(cache.entries()) == 3
        assert cache.clear() == 3
        assert cache.entries() == []

    def test_missing_root_reads_as_miss(self, tmp_path):
        cache = PrepareCache(tmp_path / "never-created")
        assert cache.is_miss(cache.load("figure1", "0" * 64))
        assert cache.entries() == []


class TestPickledLayout:
    def test_fitted_classifier_layout_is_pinned_to_the_schema(self, tiny_two_class):
        series, labels = tiny_two_class
        exported = [getattr(classifiers, name) for name in classifiers.__all__]
        fitted = [
            cls().fit(series, labels)
            for cls in exported
            if isinstance(cls, type)
            and issubclass(cls, BaseEarlyClassifier)
            and cls is not BaseEarlyClassifier
        ]
        assert len(fitted) == 7
        hint = (
            "the pickled layout of a fitted early classifier changed, so cached "
            "prepare stages and serving models pickled before it would load as "
            "broken objects: bump CACHE_SCHEMA_VERSION in repro/runtime/cache.py, "
            "then re-pin PINNED_SCHEMA_VERSION and PINNED_LAYOUT in this file"
        )
        assert cache_module.CACHE_SCHEMA_VERSION == PINNED_SCHEMA_VERSION, hint
        assert _repro_layout(fitted) == PINNED_LAYOUT, hint
