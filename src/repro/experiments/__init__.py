"""Experiment modules: one per table / figure of the paper.

Every module implements the runtime's stage contract -- ``prepare`` (data
synthesis + model fitting, memoisable), ``compute`` (the numbers) and
``metrics`` (flat key numbers for the JSON artifact).  Keyword arguments
control the workload scale (so the test-suite can run miniature versions);
``compute`` returns a small result dataclass with a ``to_text()`` method
that prints the rows or series the corresponding table/figure reports, and
:func:`~repro.experiments.registry.run_experiment` runs both stages by name.

The registry (:mod:`repro.experiments.registry`) holds one declarative
:class:`~repro.runtime.spec.ExperimentSpec` per experiment, and ``python -m
repro.experiments <id>`` runs them from the command line -- optionally in
parallel (``--jobs``), with a prepare-stage cache, and with JSON artifacts
(``--json``); see :mod:`repro.runtime`.
"""

from repro.experiments.registry import (
    SPECS,
    available_experiments,
    experiments_with_tag,
    get_spec,
    run_experiment,
)

__all__ = [
    "SPECS",
    "available_experiments",
    "experiments_with_tag",
    "get_spec",
    "run_experiment",
]
