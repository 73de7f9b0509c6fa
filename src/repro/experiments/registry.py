"""Registry of the paper's experiments: one declarative spec table.

Each entry is an :class:`~repro.runtime.spec.ExperimentSpec` binding the
experiment's name to its implementing module, its reduced-scale ("fast")
overrides, its tags and its seed parameter.  The registry, the CLI, the
scheduler, the cache and the test-suite all consume this one table.
"""

from __future__ import annotations

from repro.runtime.spec import ExperimentSpec

__all__ = [
    "SPECS",
    "available_experiments",
    "available_tags",
    "experiments_with_tag",
    "get_spec",
    "run_experiment",
]


def _spec(name: str, **kwargs) -> ExperimentSpec:
    return ExperimentSpec(name=name, module=f"repro.experiments.{name}", **kwargs)


#: Experiment identifier -> spec.  Figure 4 is a screen capture of another
#: paper's figure and has no experiment.
SPECS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            "figure1",
            fast_overrides={"n_per_class": 10},
            tags=("figure", "words", "data"),
            description="samples of data in the UCR format (aligned cat/dog utterances)",
        ),
        _spec(
            "figure2",
            fast_overrides={"n_per_class": 10},
            tags=("figure", "words", "streaming"),
            description="one valid sentence, six early false positives",
        ),
        _spec(
            "figure3",
            fast_overrides={"n_train_per_class": 20, "n_test_per_class": 25},
            tags=("figure", "gunpoint", "classification"),
            description="how ETSC algorithms frame the problem (TEASER vs threshold)",
        ),
        _spec(
            "figure5",
            fast_overrides={
                "eog_points": 40_000,
                "random_walk_points": 2 ** 16,
                "epg_points": 40_000,
            },
            tags=("figure", "gunpoint", "homophones"),
            description="time-series homophones exist (closer non-gesture neighbours)",
        ),
        _spec(
            "figure6",
            fast_overrides={"n_train_per_class": 20, "n_test_per_class": 30},
            tags=("figure", "gunpoint", "normalization"),
            description="the denormalisation perturbation and who it hurts",
        ),
        _spec(
            "figure7",
            fast_overrides={"duration_seconds": 10.0},
            tags=("figure", "ecg"),
            description="raw ECG telemetry has wandering per-beat means and deviations",
        ),
        _spec(
            "figure8",
            fast_overrides={"n_points": 120_000},
            tags=("figure", "chicken", "streaming"),
            description="the chicken dustbathing template and its truncated prefix",
        ),
        _spec(
            "figure9",
            fast_overrides={"n_train_per_class": 20, "n_test_per_class": 30, "step": 5},
            tags=("figure", "gunpoint", "prefix"),
            description="the prefix error-rate curve of GunPoint",
        ),
        _spec(
            "table1",
            fast_overrides={
                "n_train_per_class": 20,
                "n_test_per_class": 25,
                "fast_classifiers": True,
            },
            tags=("table", "gunpoint", "normalization", "classification"),
            description="accuracy of six early classification algorithms",
        ),
        _spec(
            "appendix_b",
            fast_overrides={"n_events": 8, "gap_range": (800, 2_000), "stride": 20},
            tags=("appendix", "gunpoint", "streaming", "costs"),
            description="the streaming deployment and cost-model experiment",
        ),
        _spec(
            "multivariate",
            fast_overrides={
                "n_per_class": 8,
                "length": 64,
                "n_frames": 32,
                "n_mels": 8,
            },
            tags=("section", "multichannel", "classification", "streaming"),
            description="multichannel early classification (6-axis motion, mel-frame keywords)",
        ),
        _spec(
            "section5_padding",
            fast_overrides={"n_per_class": 12},
            tags=("section", "padding", "classification"),
            description="apparent ETSC success from the right-padding convention",
        ),
    )
}


def available_experiments() -> list[str]:
    """Identifiers of all runnable experiments."""
    return sorted(SPECS)


def get_spec(name: str) -> ExperimentSpec:
    """The spec registered under ``name``; ``KeyError`` with the valid names."""
    try:
        return SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(available_experiments())}"
        ) from None


def available_tags() -> list[str]:
    """Every tag used by at least one spec."""
    tags: set[str] = set()
    for spec in SPECS.values():
        tags.update(spec.tags)
    return sorted(tags)


def experiments_with_tag(tag: str) -> list[str]:
    """Identifiers of the experiments carrying ``tag``."""
    return sorted(name for name, spec in SPECS.items() if tag in spec.tags)


def run_experiment(name: str, fast: bool = False, **overrides):
    """Run one experiment by identifier and return its result dataclass.

    Parameters
    ----------
    name:
        One of :func:`available_experiments`.
    fast:
        Use the reduced workload from the spec's fast overrides (explicit
        keyword overrides still win).
    **overrides:
        Run parameters, routed to the ``prepare`` and ``compute`` stages
        that declare them.  Unknown names raise ``TypeError`` naming the
        experiment and the bad keyword instead of failing deep inside the
        run.
    """
    spec = get_spec(name)
    params = spec.resolve_params(fast=fast, overrides=overrides)
    return spec.call_compute(spec.call_prepare(params), params)
