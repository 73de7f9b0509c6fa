"""Declarative experiment specifications and structured results.

An :class:`ExperimentSpec` is the single source of truth about one paper
artefact: which module implements it, how to shrink it for smoke runs, what
seed it defaults to, and which tags select it from the CLI.  The experiment
modules themselves stay plain ``prepare`` / ``compute`` / ``metrics``
functions; the spec binds them together so the registry, the CLI, the
scheduler and the cache all consume one table instead of parallel dicts
that can drift.

The stage contract every experiment module implements:

``prepare(**params) -> Prepared``
    Data synthesis and model fitting -- the expensive, deterministic part.
    Its output is picklable so the runtime can memoise it on disk.
``compute(prepared, **params) -> DomainResult``
    Turns prepared inputs into the experiment's numbers (the module's
    result dataclass, e.g. ``Figure9Result``), whose ``to_text()`` is the
    human-readable summary block.
``metrics(result) -> dict``
    Flat, JSON-serialisable key numbers for the artifact writer.

Stage functions declare only the keyword arguments they consume, and the
run parameters are exactly those keywords (:attr:`ExperimentSpec.parameters`);
a parameter both stages declare defaults to the same value in each.  The
spec routes each stage the matching subset of the fully-resolved parameter
dict (:meth:`ExperimentSpec.stage_params`), so the cache key of the
``prepare`` stage depends on exactly the parameters that shape the prepared
data.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["ExperimentSpec", "ExperimentResult"]


def _frozen_mapping(mapping: Mapping[str, Any] | None) -> Mapping[str, Any]:
    # A plain copy rather than MappingProxyType: results must stay picklable
    # so they can cross the ProcessPoolExecutor boundary.
    return dict(mapping or {})


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment.

    Attributes
    ----------
    name:
        Registry identifier ("figure9", "table1", ...).
    module:
        Dotted path of the implementing module; stage callables are resolved
        from it lazily, so specs stay cheap to construct and picklable.
    fast_overrides:
        Keyword arguments that shrink the experiment for smoke runs
        (``--fast``); folded into the spec so it cannot drift from the
        registry.
    tags:
        Free-form labels (``"figure"``, ``"streaming"``, ...) used by the
        CLI's ``--tag`` filter.
    seed_param:
        Name of the run parameter that seeds the experiment's randomness.
    description:
        One-line human summary shown by ``--list``.
    """

    name: str
    module: str
    fast_overrides: Mapping[str, Any] = field(default_factory=dict)
    tags: tuple[str, ...] = ()
    seed_param: str = "seed"
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "fast_overrides", _frozen_mapping(self.fast_overrides))
        object.__setattr__(self, "tags", tuple(self.tags))

    # -- stage resolution ---------------------------------------------------

    def _module(self):
        return importlib.import_module(self.module)

    def stage(self, stage_name: str) -> Callable:
        """Resolve one stage callable (``prepare``/``compute``/``metrics``)."""
        module = self._module()
        try:
            return getattr(module, stage_name)
        except AttributeError as error:
            raise AttributeError(
                f"experiment {self.name!r}: module {self.module!r} does not "
                f"define the {stage_name!r} stage"
            ) from error

    @property
    def artifact(self) -> str:
        """Declared artifact file name (relative to the results directory)."""
        return f"{self.name}.json"

    @property
    def parameters(self) -> dict[str, inspect.Parameter]:
        """The run parameters: the keywords of ``prepare`` and ``compute``.

        In declaration order, ``prepare``'s first; ``compute``'s
        ``prepared`` argument is the prepare stage's output, not a parameter.
        """
        merged: dict[str, inspect.Parameter] = {}
        for stage_name in ("prepare", "compute"):
            signature = inspect.signature(self.stage(stage_name))
            for name, parameter in signature.parameters.items():
                if name != "prepared":
                    merged.setdefault(name, parameter)
        return merged

    @property
    def default_seed(self) -> int:
        """The spec-level seed: the default of the ``seed`` run parameter."""
        parameter = self.parameters.get(self.seed_param)
        if parameter is None or parameter.default is inspect.Parameter.empty:
            raise ValueError(
                f"experiment {self.name!r} does not expose a "
                f"{self.seed_param!r} parameter with a default"
            )
        return parameter.default

    # -- parameter resolution ----------------------------------------------

    def validate_overrides(self, overrides: Mapping[str, Any]) -> None:
        """Raise a clear ``TypeError`` if an override names no run parameter."""
        valid = set(self.parameters)
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise TypeError(
                f"experiment {self.name!r} got unexpected keyword argument(s) "
                f"{', '.join(repr(k) for k in unknown)}; valid parameters: "
                f"{', '.join(sorted(valid))}"
            )

    def resolve_params(
        self,
        fast: bool = False,
        overrides: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """The full parameter dict a run will execute with.

        Defaults come from the stage signatures, the fast overrides are
        applied when ``fast`` is requested, and explicit overrides win over
        both.  Unknown override names raise ``TypeError`` (see
        :meth:`validate_overrides`).
        """
        overrides = dict(overrides or {})
        self.validate_overrides(overrides)
        params: dict[str, Any] = {
            name: parameter.default
            for name, parameter in self.parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }
        if fast:
            params.update(self.fast_overrides)
        params.update(overrides)
        return params

    def stage_params(self, stage_name: str, params: Mapping[str, Any]) -> dict[str, Any]:
        """The subset of ``params`` the named stage declares as keywords."""
        stage = self.stage(stage_name)
        accepted = set(inspect.signature(stage).parameters)
        return {name: value for name, value in params.items() if name in accepted}

    def seed_of(self, params: Mapping[str, Any]) -> Any:
        return params.get(self.seed_param, self.default_seed)

    # -- stage invocation ---------------------------------------------------

    def call_prepare(self, params: Mapping[str, Any]) -> Any:
        return self.stage("prepare")(**self.stage_params("prepare", params))

    def call_compute(self, prepared: Any, params: Mapping[str, Any]) -> Any:
        return self.stage("compute")(prepared, **self.stage_params("compute", params))

    def call_metrics(self, result: Any) -> dict[str, Any]:
        return dict(self.stage("metrics")(result))


@dataclass(frozen=True)
class ExperimentResult:
    """Structured outcome of one experiment execution.

    Attributes
    ----------
    name:
        The experiment identifier.
    parameters:
        The fully-resolved run parameters (defaults + fast overrides +
        explicit overrides).
    seed:
        The spec-level seed the run used (also part of ``parameters``).
    metrics:
        Flat dict of the experiment's key numbers.
    summary:
        The rendered text block (what the CLI prints).
    timings:
        Wall-clock seconds per stage: ``prepare`` / ``compute`` / ``render``
        (the summary and metrics) / ``total``.
    cache_hit:
        Whether the ``prepare`` stage was served from the artifact cache.
    raw:
        The module's own result dataclass; dropped (``None``) when the
        result crosses a process boundary.
    """

    name: str
    parameters: Mapping[str, Any]
    seed: Any
    metrics: Mapping[str, Any]
    summary: str
    timings: Mapping[str, float]
    cache_hit: bool = False
    raw: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", _frozen_mapping(self.parameters))
        object.__setattr__(self, "metrics", _frozen_mapping(self.metrics))
        object.__setattr__(self, "timings", _frozen_mapping(self.timings))

    def to_text(self) -> str:
        """The rendered summary (mirrors the domain results' ``to_text``)."""
        return self.summary
